//! Seeded synthetic field families for conformance testing.
//!
//! Modeled on the regimes of the paper's seven evaluation datasets (smooth
//! climate slabs, spectral turbulence, layered geology, plus three degenerate
//! stress cases), but generated with **arithmetic only** — no `sin`/`log` or
//! other libm calls whose last-ulp behaviour varies across platforms. Every
//! value is a finite IEEE result of +, −, ×, ÷, `floor` and comparisons on a
//! seeded integer hash, so a (family, seed, dims) triple produces the exact
//! same bits on every host. The golden-vector fixtures depend on that.

use qip_fault::XorShift64;
use qip_tensor::{Field, Scalar, Shape};

/// The field families the oracles draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldFamily {
    /// Low-frequency ramps and broad parabolic bumps (CESM/SCALE regime:
    /// nearly everything predicts well).
    Smooth,
    /// Multi-octave lattice value noise (Miranda regime: energy at all
    /// scales, moderate predictability).
    Turbulent,
    /// Discrete layers along axis 0 with within-layer gradients and seeded
    /// interface jitter (SegSalt regime: the paper's clustering source).
    Banded,
    /// A single constant value (degenerate: zero value range, exercises the
    /// Rel-bound clamp path).
    Constant,
    /// High-amplitude white noise with sparse large spikes — NaN-free but as
    /// unpredictable as finite data gets; most points take the unpredictable
    /// channel.
    Adversarial,
    /// Uniform white noise on `[-500, 500)`: nothing predicts, so under a
    /// bound near `range / 2¹⁷` the quantization indices straddle the
    /// quantizer radius (±32 768).
    Noise,
}

impl FieldFamily {
    /// Every family, in reporting order.
    pub const ALL: [FieldFamily; 6] = [
        FieldFamily::Smooth,
        FieldFamily::Turbulent,
        FieldFamily::Banded,
        FieldFamily::Constant,
        FieldFamily::Adversarial,
        FieldFamily::Noise,
    ];

    /// Stable lowercase name used in manifests and failure messages.
    pub fn name(&self) -> &'static str {
        match self {
            FieldFamily::Smooth => "smooth",
            FieldFamily::Turbulent => "turbulent",
            FieldFamily::Banded => "banded",
            FieldFamily::Constant => "constant",
            FieldFamily::Adversarial => "adversarial",
            FieldFamily::Noise => "noise",
        }
    }

    /// Parse a [`FieldFamily::name`] back (used by counterexample replays).
    pub fn by_name(name: &str) -> Option<FieldFamily> {
        FieldFamily::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// Uniform f64 in `[0, 1)` from the corruption harness's xorshift generator.
fn unit(rng: &mut XorShift64) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Integer-lattice hash → f64 in `[-1, 1)`; splitmix-style mixing keeps
/// neighbouring lattice points decorrelated.
fn lattice(seed: u64, coords: &[usize], octave: u64) -> f64 {
    let mut h = seed ^ octave.wrapping_mul(0xA076_1D64_78BD_642F);
    for &c in coords {
        h ^= (c as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    ((h >> 11) as f64) * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// Triangle wave with period 2 (arithmetic stand-in for a sinusoid).
fn tri(t: f64) -> f64 {
    let m = t - 2.0 * (t * 0.5).floor(); // t mod 2 in [0, 2)
    1.0 - (m - 1.0).abs() // rises 0→1→0
}

/// Smooth-interpolated multi-octave value noise at fractional position `p`
/// (one entry per axis, in lattice units).
fn value_noise(seed: u64, p: &[f64], octave: u64) -> f64 {
    let n = p.len();
    let base: Vec<usize> = p.iter().map(|&x| x.floor().max(0.0) as usize).collect();
    let frac: Vec<f64> = p.iter().zip(&base).map(|(&x, &b)| x - b as f64).collect();
    // Smoothstep weights, arithmetic only.
    let w: Vec<f64> = frac.iter().map(|&t| t * t * (3.0 - 2.0 * t)).collect();
    let mut acc = 0.0;
    // Blend over the 2^n corner lattice points.
    for corner in 0..(1usize << n) {
        let mut c = Vec::with_capacity(n);
        let mut weight = 1.0;
        for axis in 0..n {
            if corner >> axis & 1 == 1 {
                c.push(base[axis] + 1);
                weight *= w[axis];
            } else {
                c.push(base[axis]);
                weight *= 1.0 - w[axis];
            }
        }
        acc += weight * lattice(seed, &c, octave);
    }
    acc
}

/// Generate one deterministic field of `family` at `dims` from `seed`.
pub fn synth<T: Scalar>(family: FieldFamily, seed: u64, dims: &[usize]) -> Field<T> {
    let shape = Shape::new(dims);
    match family {
        FieldFamily::Smooth => Field::from_fn(shape, |c| {
            // Broad triangle waves plus a parabolic bowl: every scale is
            // coarse, so interpolation predicts almost everything.
            let mut v = 0.0;
            let mut r2 = 0.0;
            for (axis, (&ci, &d)) in c.iter().zip(dims).enumerate() {
                let u = ci as f64 / d.max(2) as f64;
                v += tri(2.0 * u + 0.13 * (axis as f64 + 1.0) + (seed % 17) as f64 * 0.05);
                r2 += (u - 0.5) * (u - 0.5);
            }
            T::from_f64(2.0 * v - 3.0 * r2)
        }),
        FieldFamily::Turbulent => Field::from_fn(shape, |c| {
            // Three octaves with k^-1 amplitude decay over the lattice noise.
            let mut v = 0.0;
            let mut freq = 0.15;
            let mut amp = 1.0;
            for octave in 0..3u64 {
                let p: Vec<f64> = c.iter().map(|&ci| ci as f64 * freq).collect();
                v += amp * value_noise(seed, &p, octave);
                freq *= 2.0;
                amp *= 0.5;
            }
            T::from_f64(3.0 * v)
        }),
        FieldFamily::Banded => Field::from_fn(shape, |c| {
            // ~5 layers along axis 0; each layer has its own base value and a
            // mild cross-layer gradient, with seeded jitter at interfaces.
            let d0 = dims[0].max(1);
            let band_edge = (d0 as f64 / 5.0).max(1.0);
            let band = (c[0] as f64 / band_edge).floor();
            let base = lattice(seed, &[band as usize], 7) * 4.0;
            let mut grad = 0.0;
            for (&ci, &d) in c.iter().zip(dims).skip(1) {
                grad += 0.3 * ci as f64 / d.max(2) as f64;
            }
            let jitter = 0.05 * lattice(seed, c, 11);
            T::from_f64(base + grad + jitter)
        }),
        FieldFamily::Constant => Field::from_fn(shape, |_| T::from_f64(3.25)),
        FieldFamily::Adversarial => {
            let mut rng = XorShift64::new(seed ^ 0xADE5_0A11);
            let mut data = Vec::with_capacity(shape.len());
            for _ in 0..shape.len() {
                let v = 2.0 * unit(&mut rng) - 1.0;
                // ~2% of points carry a 50× spike.
                let spike = if rng.below(50) == 0 { 50.0 * (2.0 * unit(&mut rng) - 1.0) } else { 0.0 };
                data.push(T::from_f64(v + spike));
            }
            Field::from_vec(shape, data).expect("length matches shape by construction")
        }
        FieldFamily::Noise => {
            let mut rng = XorShift64::new(seed ^ 0x0015_E000);
            let data =
                (0..shape.len()).map(|_| T::from_f64(1e3 * unit(&mut rng) - 500.0)).collect();
            Field::from_vec(shape, data).expect("length matches shape by construction")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_deterministic_and_finite() {
        for family in FieldFamily::ALL {
            let a: Field<f32> = synth(family, 42, &[9, 8, 7]);
            let b: Field<f32> = synth(family, 42, &[9, 8, 7]);
            assert_eq!(a.as_slice(), b.as_slice(), "{}", family.name());
            assert!(a.as_slice().iter().all(|v| v.is_finite()), "{}", family.name());
            let c: Field<f64> = synth(family, 42, &[9, 8, 7]);
            assert!(c.as_slice().iter().all(|v| v.is_finite()), "{}", family.name());
        }
    }

    #[test]
    fn seeds_change_content_except_constant() {
        for family in FieldFamily::ALL {
            let a: Field<f32> = synth(family, 1, &[12, 12]);
            let b: Field<f32> = synth(family, 2, &[12, 12]);
            if family == FieldFamily::Constant {
                assert_eq!(a.as_slice(), b.as_slice());
            } else {
                assert_ne!(a.as_slice(), b.as_slice(), "{}", family.name());
            }
        }
    }

    #[test]
    fn constant_has_zero_range_and_adversarial_has_spikes() {
        let c: Field<f32> = synth(FieldFamily::Constant, 0, &[8, 8]);
        assert_eq!(c.value_range(), 0.0);
        let a: Field<f32> = synth(FieldFamily::Adversarial, 3, &[16, 16, 16]);
        assert!(a.value_range() > 20.0, "range {}", a.value_range());
    }

    #[test]
    fn all_ndims_supported() {
        for ndim_dims in [&[50][..], &[10, 9][..], &[6, 5, 4][..]] {
            for family in FieldFamily::ALL {
                let f: Field<f32> = synth(family, 9, ndim_dims);
                assert_eq!(f.len(), ndim_dims.iter().product::<usize>());
            }
        }
    }

    #[test]
    fn name_roundtrip() {
        for family in FieldFamily::ALL {
            assert_eq!(FieldFamily::by_name(family.name()), Some(family));
        }
        assert_eq!(FieldFamily::by_name("nope"), None);
    }
}
