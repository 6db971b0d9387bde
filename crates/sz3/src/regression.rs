//! Block-wise linear regression predictor (the SZ2 predictor family).
//!
//! Real SZ3's non-interpolation pipeline pairs the Lorenzo predictor with a
//! per-block **linear regression** predictor (Liang et al. 2018, paper ref
//! \[5\]): each 6³ block fits `f ≈ b₀ + b₁x + b₂y + b₃z` by least squares on
//! the original samples and keeps whichever predictor yields the smaller
//! residual. Regression wins on locally-planar data where Lorenzo's
//! noise-amplifying differences lose.
//!
//! On the regular grid with centered coordinates the normal equations
//! diagonalize, so the fit is a single pass of moment sums.

use qip_tensor::Scalar;

/// Least-squares plane coefficients for one block, stored per regression
/// block in the stream (as `f32`, the SZ2 convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneFit {
    /// Constant term (value at the block center).
    pub b0: f64,
    /// Per-axis slopes.
    pub slopes: [f64; 3],
}

/// Moment sums of a least-squares plane fit, accumulated one sample at a time
/// in row-major block order so the caller can share the walk (the Lorenzo
/// pipeline estimates its other predictor on the same pass).
#[derive(Debug, Clone, Copy, Default)]
pub struct FitSums {
    n: usize,
    sum: f64,
    sxy: [f64; 3], // Σ f·x'_a
    sxx: [f64; 3], // Σ x'_a²
}

impl FitSums {
    /// Add the sample `f` at the [`centered`] block-local coordinates `xc`
    /// (≤ 3 axes).
    #[inline]
    pub fn add(&mut self, xc: &[f64], f: f64) {
        self.n += 1;
        self.sum += f;
        for (a, &x) in xc.iter().enumerate() {
            self.sxy[a] += f * x;
            self.sxx[a] += x * x;
        }
    }

    /// The fitted plane; axes never seen (or of extent 1) get slope 0.
    pub fn finish(&self) -> PlaneFit {
        debug_assert!(self.n > 0);
        let slopes =
            std::array::from_fn(|a| if self.sxx[a] > 0.0 { self.sxy[a] / self.sxx[a] } else { 0.0 });
        PlaneFit { b0: self.sum / self.n as f64, slopes }
    }
}

/// Position `c` along a block axis of extent `e`, measured from the axis
/// centre: the coordinate the plane is written in.
#[inline]
pub fn centered(e: usize, c: usize) -> f64 {
    c as f64 - (e as f64 - 1.0) / 2.0
}

/// [`centered`] coordinates of the point `coords` of a block of extents
/// `ext` (≤ 3 axes; the unused tail is zero).
fn centered_coords(ext: &[usize], coords: &[usize]) -> [f64; 3] {
    std::array::from_fn(|a| coords.get(a).map_or(0.0, |&c| centered(ext[a], c)))
}

impl PlaneFit {
    /// Fit a block of extents `ext` (≤ 3 axes; missing axes get slope 0).
    /// `at(coords)` returns the sample at block-local coordinates.
    pub fn fit<T: Scalar>(ext: &[usize], at: impl Fn(&[usize]) -> T) -> PlaneFit {
        let ndim = ext.len();
        let n: usize = ext.iter().product();
        let mut sums = FitSums::default();
        let mut coords = [0usize; 3];
        let coords = &mut coords[..ndim];
        for _ in 0..n {
            sums.add(&centered_coords(ext, coords)[..ndim], at(coords).to_f64());
            for a in (0..ndim).rev() {
                coords[a] += 1;
                if coords[a] < ext[a] {
                    break;
                }
                coords[a] = 0;
            }
        }
        sums.finish()
    }

    /// Predict the sample at the [`centered`] block-local coordinates `xc`.
    #[inline]
    pub fn predict(&self, xc: &[f64]) -> f64 {
        let mut v = self.b0;
        for (a, &x) in xc.iter().enumerate() {
            v += self.slopes[a] * x;
        }
        v
    }

    /// Round to the stored (f32) precision so encoder prediction matches the
    /// decoder exactly.
    pub fn rounded(&self) -> PlaneFit {
        PlaneFit {
            b0: self.b0 as f32 as f64,
            slopes: [
                self.slopes[0] as f32 as f64,
                self.slopes[1] as f32 as f64,
                self.slopes[2] as f32 as f64,
            ],
        }
    }

    /// Serialize as four little-endian f32.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.b0 as f32).to_le_bytes());
        for s in self.slopes {
            out.extend_from_slice(&(s as f32).to_le_bytes());
        }
    }

    /// Deserialize four little-endian f32 (16 bytes).
    pub fn read(bytes: &[u8]) -> Option<PlaneFit> {
        if bytes.len() < 16 {
            return None;
        }
        let g = |i: usize| {
            f32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap()) as f64
        };
        Some(PlaneFit { b0: g(0), slopes: [g(1), g(2), g(3)] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_on_planes() {
        let ext = [6usize, 6, 6];
        let f = |c: &[usize]| 2.0 + 0.5 * c[0] as f64 - 1.5 * c[1] as f64 + 3.0 * c[2] as f64;
        let fit = PlaneFit::fit(&ext, |c| f(c));
        for x in 0..6 {
            for y in 0..6 {
                for z in 0..6 {
                    let coords = [x, y, z];
                    let got = fit.predict(&centered_coords(&ext, &coords));
                    assert!((got - f(&coords)).abs() < 1e-9, "{coords:?}");
                }
            }
        }
    }

    #[test]
    fn constant_block() {
        let fit = PlaneFit::fit(&[4, 4], |_| 7.5f32);
        assert!((fit.b0 - 7.5).abs() < 1e-6);
        assert!(fit.slopes.iter().all(|s| s.abs() < 1e-9));
    }

    #[test]
    fn single_sample_block() {
        let fit = PlaneFit::fit(&[1, 1, 1], |_| 3.0f64);
        assert_eq!(fit.predict(&centered_coords(&[1, 1, 1], &[0, 0, 0])), 3.0);
    }

    #[test]
    fn least_squares_minimizes_on_noisy_plane() {
        // Slopes must land near the true plane despite symmetric noise.
        let ext = [6usize, 6, 1];
        let fit = PlaneFit::fit(&ext, |c| {
            let noise = if (c[0] + c[1]) % 2 == 0 { 0.1 } else { -0.1 };
            (1.0 + 2.0 * c[0] as f64 + noise) as f32
        });
        assert!((fit.slopes[0] - 2.0).abs() < 0.05, "slope {:?}", fit.slopes);
        assert!(fit.slopes[1].abs() < 0.05);
    }

    #[test]
    fn serialization_roundtrip() {
        let fit = PlaneFit { b0: 1.25, slopes: [0.5, -0.75, 2.0] }.rounded();
        let mut bytes = Vec::new();
        fit.write(&mut bytes);
        assert_eq!(bytes.len(), 16);
        assert_eq!(PlaneFit::read(&bytes).unwrap(), fit);
        assert!(PlaneFit::read(&bytes[..10]).is_none());
    }

    #[test]
    fn rounded_is_idempotent() {
        let fit = PlaneFit { b0: 0.1, slopes: [0.2, 0.3, 0.4] };
        let r = fit.rounded();
        assert_eq!(r.rounded(), r);
    }
}
