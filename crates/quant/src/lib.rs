//! Linear-scaling quantization with strict error control (paper Sec. IV-A).
//!
//! The quantizer maps a prediction residual to an integer index:
//! `q = round((d − p) / 2ε)`, reconstructing `d' = p + 2qε` with
//! `|d − d'| ≤ ε` guaranteed. Residuals whose index would fall outside the
//! quantizer radius — or whose reconstruction fails the bound check after
//! rounding to the storage type — are *unpredictable* (paper Sec. V-C2): the
//! exact value is stored in a side channel and the index array records the
//! reserved [`UNPRED`] label.

#![warn(missing_docs)]

use qip_tensor::Scalar;

/// Reserved quantization index labelling unpredictable data points.
///
/// Real SZ3 reserves index 0 of the shifted range; we keep indices signed and
/// centered (as the paper's figures do) and reserve a sentinel instead.
pub const UNPRED: i32 = i32::MIN;

/// The largest double below ½.
const HALF_DOWN: f64 = 0.5 - f64::EPSILON / 4.0;

/// `x` shifted so that truncating it rounds `x` half away from zero.
///
/// `round_shift(x) as i32` and `as i64` equal `f64::round(x)` cast the same
/// way — saturation, ±∞ and NaN → 0 included — and for an integer `r ≥ 1`,
/// `round_shift(x).abs() >= r` exactly when `f64::round(x).abs() >= r`
/// (`|trunc y| ≥ r ⇔ |y| ≥ r`). The identity is the one LLVM lowers `round`
/// to when it has a truncating instruction:
/// `round(x) == trunc(x + copysign(½ − 2⁻⁵⁴, x))`, exact for every double
/// (docs/kernels.md); adding ½ itself would carry `½ − 2⁻⁵⁴` to 1.
///
/// On the baseline x86-64 target `f64::round` is a libm call per point;
/// this is an add, a sign copy and the caller's cast. Every quantizer of the
/// workspace rounds through it; a value needed as a rounded float converts
/// back through the integer.
#[inline(always)]
pub fn round_shift(x: f64) -> f64 {
    x + HALF_DOWN.copysign(x)
}

/// Outcome of quantizing one data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quantized<T: Scalar> {
    /// Within range: the index to encode and the reconstructed value the
    /// decompressor will produce (must overwrite the working buffer).
    Pred {
        /// Quantization index to encode.
        index: i32,
        /// Reconstructed value (as the decompressor will see it).
        recon: T,
    },
    /// Out of range: store the exact value in the unpredictable side channel.
    Unpred,
}

/// Linear-scaling quantizer with a fixed absolute error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearQuantizer {
    eb: f64,
    radius: i32,
}

impl LinearQuantizer {
    /// Default index radius (SZ3's `quantization_bin_total/2` default).
    pub const DEFAULT_RADIUS: i32 = 32768;

    /// Quantizer with absolute bound `eb > 0` and the default radius.
    pub fn new(eb: f64) -> Self {
        Self::try_new(eb).expect("error bound must be positive and finite")
    }

    /// Fallible constructor for parameters read from an untrusted stream:
    /// returns `None` instead of panicking when the bound is non-positive or
    /// non-finite (e.g. a corrupted per-level ε) or the radius is degenerate.
    pub fn try_new(eb: f64) -> Option<Self> {
        Self::try_with_radius(eb, Self::DEFAULT_RADIUS)
    }

    /// Quantizer with the radius a stream records (indices satisfy
    /// `|q| < radius`); `None` as [`LinearQuantizer::try_new`], or when
    /// `radius ≤ 1`.
    pub fn try_with_radius(eb: f64, radius: i32) -> Option<Self> {
        if eb > 0.0 && eb.is_finite() && radius > 1 {
            Some(LinearQuantizer { eb, radius })
        } else {
            None
        }
    }

    /// The absolute error bound.
    #[inline]
    pub fn error_bound(&self) -> f64 {
        self.eb
    }

    /// The index radius.
    #[inline]
    pub fn radius(&self) -> i32 {
        self.radius
    }

    /// Quantize `d` against prediction `pred`.
    ///
    /// The bound is verified on the value *as stored* (after rounding to `T`),
    /// so `f32` fields keep the guarantee even when `2qε` is not representable.
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn quantize<T: Scalar>(&self, d: T, pred: f64) -> Quantized<T> {
        let df = d.to_f64();
        if !df.is_finite() {
            return Quantized::Unpred;
        }
        let diff = df - pred;
        let q = round_shift(diff / (2.0 * self.eb));
        if q.abs() >= self.radius as f64 {
            return Quantized::Unpred;
        }
        let q = q as i32;
        let recon = T::from_f64(pred + 2.0 * q as f64 * self.eb);
        // `!(.. <= eb)`, not `.. > eb`: a NaN `recon` (the prediction read a
        // non-finite neighbour) must fail the check too.
        if !((recon.to_f64() - df).abs() <= self.eb) {
            return Quantized::Unpred;
        }
        Quantized::Pred { index: q, recon }
    }

    /// Reconstruct a value from its prediction and index (decompression side).
    #[inline]
    pub fn recover<T: Scalar>(&self, pred: f64, index: i32) -> T {
        T::from_f64(pred + 2.0 * index as f64 * self.eb)
    }

    /// Branchless chunked quantization over up to 64 lanes.
    ///
    /// Computes every lane's index and reconstruction *unconditionally* — no
    /// per-point predictable/unpredictable branch — and reports out-of-range
    /// lanes through the returned bitmap instead (bit `j` set ⇔ lane `j` is
    /// unpredictable). For predictable lanes the emitted index and
    /// reconstruction are exactly what [`LinearQuantizer::quantize`] produces;
    /// for unpredictable lanes `idx`/`recon` hold don't-care values the caller
    /// must patch (the engine writes [`UNPRED`] and the exact value). The
    /// arithmetic mirrors the scalar path expression-for-expression so the two
    /// are bit-identical — pinned by qip-interp's `reference` suite.
    ///
    /// All four slices must share a length `≤ 64`.
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // as in `quantize`
    pub fn quantize_lanes<T: Scalar>(
        &self,
        data: &[T],
        pred: &[f64],
        idx: &mut [i32],
        recon: &mut [T],
    ) -> u64 {
        let lanes = data.len();
        debug_assert!(lanes <= 64, "at most 64 lanes per bitmap word");
        assert!(pred.len() == lanes && idx.len() == lanes && recon.len() == lanes);
        let two_eb = 2.0 * self.eb;
        let radius_f = self.radius as f64;
        let mut unpred = 0u64;
        for j in 0..lanes {
            let df = data[j].to_f64();
            let q = round_shift((df - pred[j]) / two_eb);
            // Truncating, saturating cast; NaN → 0. Only read when the lane is
            // predictable, where it equals the scalar path's `q as i32`.
            let qi = q as i32;
            let r = T::from_f64(pred[j] + 2.0 * qi as f64 * self.eb);
            let out = !df.is_finite() | (q.abs() >= radius_f) | !((r.to_f64() - df).abs() <= self.eb);
            unpred |= (out as u64) << j;
            idx[j] = qi;
            recon[j] = r;
        }
        unpred
    }
}

/// A reusable bank of per-level quantizers.
///
/// Interpolation engines build one [`LinearQuantizer`] per interpolation level
/// on every call; a bank owned by a compression context keeps the backing
/// allocation alive across calls. `clear` + `push` rebuilds the bank for the
/// next field without releasing capacity.
#[derive(Debug, Default, Clone)]
pub struct QuantizerBank {
    levels: Vec<LinearQuantizer>,
}

impl QuantizerBank {
    /// Create an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove all quantizers, keeping the allocation.
    pub fn clear(&mut self) {
        self.levels.clear();
    }

    /// Append the quantizer for the next level.
    pub fn push(&mut self, q: LinearQuantizer) {
        self.levels.push(q);
    }

    /// The quantizers currently in the bank, coarsest level first.
    pub fn as_slice(&self) -> &[LinearQuantizer] {
        &self.levels
    }

    /// Number of quantizers in the bank.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True when the bank holds no quantizers.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Report the bank: its per-level error bounds (`quant.eb` notes,
    /// labelled by level) and one `quant.bank_builds` count.
    pub fn report_levels(&self) {
        use qip_telemetry::{count, note, Label};
        for (level, q) in self.levels.iter().enumerate() {
            note("quant.eb", Label::Level(level), q.error_bound());
        }
        count("quant.bank_builds", Label::None, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_clear_keeps_capacity() {
        let mut bank = QuantizerBank::new();
        assert!(bank.is_empty());
        for level in 1..=4usize {
            bank.push(LinearQuantizer::new(1e-3 * level as f64));
        }
        assert_eq!(bank.len(), 4);
        assert_eq!(bank.as_slice()[0].error_bound(), 1e-3);
        bank.clear();
        assert!(bank.is_empty());
        assert!(bank.levels.capacity() >= 4);
    }

    #[test]
    fn exact_prediction_gives_zero_index() {
        let q = LinearQuantizer::new(0.1);
        match q.quantize(5.0f64, 5.0) {
            Quantized::Pred { index, recon } => {
                assert_eq!(index, 0);
                assert!((recon - 5.0).abs() <= 0.1);
            }
            Quantized::Unpred => panic!("should be predictable"),
        }
    }

    #[test]
    fn bound_enforced_roundtrip() {
        let quant = LinearQuantizer::new(1e-3);
        let preds = [0.0, 1.0, -2.5, 100.0];
        let offsets = [0.0, 1e-4, -1e-4, 0.01, -0.01, 0.5, -0.5];
        for &p in &preds {
            for &o in &offsets {
                let d = p + o;
                if let Quantized::Pred { index, recon } = quant.quantize(d, p) {
                    assert!((recon - d).abs() <= 1e-3 + 1e-12, "d={d} p={p}");
                    // recover() must agree with the compression-side recon.
                    let r2: f64 = quant.recover(p, index);
                    assert_eq!(r2, recon);
                }
            }
        }
    }

    #[test]
    fn out_of_radius_is_unpredictable() {
        let q = LinearQuantizer::try_with_radius(1e-3, 16).unwrap();
        // |q| would be ~500 >> 16.
        assert_eq!(q.quantize(1.0f64, 0.0), Quantized::Unpred);
        // Just inside: q = 15.
        assert!(matches!(q.quantize(15.0 * 2e-3, 0.0), Quantized::Pred { index: 15, .. }));
        // At the radius: rejected (strict inequality).
        assert_eq!(q.quantize(16.0 * 2e-3, 0.0), Quantized::Unpred);
    }

    #[test]
    fn nan_and_inf_are_unpredictable() {
        let q = LinearQuantizer::new(0.5);
        assert_eq!(q.quantize(f64::NAN, 0.0), Quantized::Unpred);
        assert_eq!(q.quantize(f64::INFINITY, 0.0), Quantized::Unpred);
    }

    #[test]
    fn f32_storage_rounding_still_bounded() {
        // A bound so tight that f32 rounding matters: the quantizer must
        // either meet the bound on the f32 value or declare Unpred.
        let quant = LinearQuantizer::new(1e-7);
        let d: f32 = 123.456;
        match quant.quantize(d, 123.0) {
            Quantized::Pred { recon, .. } => {
                assert!((recon as f64 - d as f64).abs() <= 1e-7);
            }
            Quantized::Unpred => {} // legitimate outcome
        }
    }

    #[test]
    fn negative_indices() {
        let quant = LinearQuantizer::new(0.5);
        match quant.quantize(-3.0f64, 0.0) {
            Quantized::Pred { index, recon } => {
                assert_eq!(index, -3);
                assert!((recon - -3.0).abs() <= 0.5);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn rounds_to_nearest_bin() {
        let quant = LinearQuantizer::new(1.0); // bins of width 2
        for (d, want) in [(0.9f64, 0), (1.1, 1), (2.9, 1), (3.1, 2), (-1.1, -1)] {
            match quant.quantize(d, 0.0) {
                Quantized::Pred { index, .. } => assert_eq!(index, want, "d={d}"),
                _ => panic!(),
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_bound_rejected() {
        let _ = LinearQuantizer::new(0.0);
    }

    #[test]
    fn lanes_match_scalar_quantize() {
        // Differential sweep: the branchless lane kernel must agree with the
        // scalar reference on bitmap, indices, and reconstructions — across
        // normal points, radius edges, non-finite values, and tight-f32 cases.
        let quants = [
            LinearQuantizer::new(1e-3),
            LinearQuantizer::try_with_radius(0.5, 4).unwrap(),
            LinearQuantizer::new(1e-7),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for quant in quants {
            for trial in 0..32 {
                let lanes = (trial % 64) + 1;
                let mut data = Vec::new();
                let mut pred = Vec::new();
                for j in 0..lanes {
                    let p = ((next() % 2000) as f64 - 1000.0) * 0.01;
                    let d = match j % 7 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => p + quant.radius() as f64 * 2.0 * quant.error_bound(),
                        _ => p + ((next() % 1000) as f64 - 500.0) * quant.error_bound(),
                    };
                    data.push(d);
                    pred.push(p);
                }
                let mut idx = vec![0i32; lanes];
                let mut recon = vec![0f64; lanes];
                let mask = quant.quantize_lanes(&data, &pred, &mut idx, &mut recon);
                for j in 0..lanes {
                    match quant.quantize(data[j], pred[j]) {
                        Quantized::Pred { index, recon: r } => {
                            assert_eq!(mask >> j & 1, 0, "lane {j} wrongly unpred");
                            assert_eq!(idx[j], index, "lane {j} index");
                            assert_eq!(recon[j].to_bits(), r.to_bits(), "lane {j} recon");
                        }
                        Quantized::Unpred => {
                            assert_eq!(mask >> j & 1, 1, "lane {j} wrongly pred");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_match_scalar_quantize_f32() {
        // f32 storage rounding interacts with the bound check; diff that too.
        let quant = LinearQuantizer::new(1e-6);
        let data: Vec<f32> = (0..64).map(|i| 123.456 + i as f32 * 1e-6).collect();
        let pred: Vec<f64> = (0..64).map(|i| 123.456 + (i % 3) as f64 * 1e-7).collect();
        let mut idx = vec![0i32; 64];
        let mut recon = vec![0f32; 64];
        let mask = quant.quantize_lanes(&data, &pred, &mut idx, &mut recon);
        for j in 0..64 {
            match quant.quantize(data[j], pred[j]) {
                Quantized::Pred { index, recon: r } => {
                    assert_eq!(mask >> j & 1, 0);
                    assert_eq!(idx[j], index);
                    assert_eq!(recon[j].to_bits(), r.to_bits());
                }
                Quantized::Unpred => assert_eq!(mask >> j & 1, 1),
            }
        }
    }

    /// `round_shift` and `f64::round` agree on both index casts and on the
    /// radius verdict for every radius the workspace uses.
    fn assert_rounds_like_libm(x: f64) {
        let (y, r) = (round_shift(x), x.round());
        assert_eq!(y as i32, r as i32, "as i32 at {x:e} ({:#x})", x.to_bits());
        assert_eq!(y as i64, r as i64, "as i64 at {x:e} ({:#x})", x.to_bits());
        for radius in [1.0, 2.0, 4.0, 16.0, 32768.0, (1u64 << 30) as f64, 2147483648.0] {
            assert_eq!(y.abs() >= radius, r.abs() >= radius, "radius {radius} at {x:e}");
        }
    }

    #[test]
    fn round_shift_matches_libm_round_on_edges() {
        let p52 = (1u64 << 52) as f64;
        let p53 = (1u64 << 53) as f64;
        let p31 = 2147483648.0;
        let radius = LinearQuantizer::DEFAULT_RADIUS as f64;
        let mut edges = vec![
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            p52 - 0.5,
            p52 + 1.0,
            // 2⁵³ + 1 is no double: the two either side of it.
            p53,
            p53 + 2.0,
            radius - 0.5,
            radius + 0.5,
            p31 - 0.5,
            p31 + 0.5,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::MAX,
        ];
        edges.extend(edges.clone().iter().flat_map(|&x| [-x, f64::from_bits(x.to_bits() + 1)]));
        edges.extend([f64::NAN, -f64::NAN, f64::from_bits(0x7FF0_0000_0000_0001)]);
        for x in edges {
            for x in [x, f64::from_bits(x.to_bits().wrapping_sub(1))] {
                assert_rounds_like_libm(x);
            }
        }
    }

    #[test]
    fn round_shift_matches_libm_round_on_a_sweep() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..1_200_000u32 {
            let bits = next();
            let x = match i % 4 {
                // Any double: every exponent, subnormals, ±∞ and NaN.
                0 => f64::from_bits(bits),
                // Exponents where rounding has work to do, 2⁻⁶⁴..2⁶⁴.
                1 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF | (959 + bits % 129) << 52),
                // Half-integers below 2⁵³ and the doubles either side of them.
                2 => {
                    let k = (bits >> 12) >> (bits % 53) as u32;
                    let half = k as f64 + 0.5;
                    let half = f64::from_bits(half.to_bits() + (bits >> 62) - 1);
                    if bits & 1 == 0 { half } else { -half }
                }
                // Steps around the radii: integers ± a half ± one ulp.
                _ => {
                    let r = [32768.0, 1073741824.0, 2147483648.0][(bits % 3) as usize];
                    let x = r + ((bits >> 8) % 8) as f64 * 0.5 - 2.0;
                    let x = f64::from_bits(x.to_bits() + (bits >> 62) - 1);
                    if bits & 1 == 0 { x } else { -x }
                }
            };
            assert_rounds_like_libm(x);
        }
    }

    /// The lane kernel against the scalar path where the rounding matters:
    /// residuals on half-integer steps and straddling ±radius.
    fn lanes_match_scalar_on_half_steps<T: Scalar>() {
        for quant in [LinearQuantizer::new(1e-3), LinearQuantizer::try_with_radius(0.25, 8).unwrap()] {
            let (r, two_eb) = (quant.radius() as f64, 2.0 * quant.error_bound());
            let steps: Vec<f64> = (-6..=6)
                .flat_map(|k| {
                    let k = k as f64 * 0.5;
                    [k, r + k, -r + k]
                })
                .collect();
            for chunk in steps.chunks(64) {
                for pred in [0.0, 1.25, -3.5] {
                    let data: Vec<T> = chunk.iter().map(|s| T::from_f64(pred + s * two_eb)).collect();
                    let preds = vec![pred; data.len()];
                    let mut idx = vec![0i32; data.len()];
                    let mut recon = vec![T::from_f64(0.0); data.len()];
                    let mask = quant.quantize_lanes(&data, &preds, &mut idx, &mut recon);
                    for j in 0..data.len() {
                        match quant.quantize(data[j], pred) {
                            Quantized::Pred { index, recon: rj } => {
                                assert_eq!(mask >> j & 1, 0, "lane {j} wrongly unpred");
                                assert_eq!(idx[j], index, "lane {j} index");
                                assert!(recon[j] == rj, "lane {j} recon");
                            }
                            Quantized::Unpred => assert_eq!(mask >> j & 1, 1, "lane {j} wrongly pred"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_match_scalar_on_half_steps_f64() {
        lanes_match_scalar_on_half_steps::<f64>();
    }

    #[test]
    fn lanes_match_scalar_on_half_steps_f32() {
        lanes_match_scalar_on_half_steps::<f32>();
    }

    #[test]
    fn unpred_sentinel_outside_radius() {
        // No legal index can ever equal the sentinel (checked against the
        // runtime radius so the assertion isn't constant-folded away).
        let quant = LinearQuantizer::new(1.0);
        assert!(UNPRED < -quant.radius());
    }
}
