//! Distortion metrics between original and decompressed fields.

use qip_tensor::{Field, Scalar};

/// Mean squared error between two equally-shaped fields.
///
/// Panics if the shapes differ (a reproduction bug, not a runtime condition).
pub fn mse<T: Scalar>(a: &Field<T>, b: &Field<T>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "mse: shape mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0f64;
    for (&x, &y) in a.as_slice().iter().zip(b.as_slice()) {
        let d = x.to_f64() - y.to_f64();
        acc += d * d;
    }
    acc / a.len() as f64
}

/// Peak signal-to-noise ratio (paper Sec. III-A):
/// `PSNR = 20·log10((max(d) − min(d)) / sqrt(MSE))`.
///
/// Returns `f64::INFINITY` for identical fields and `f64::NAN` when the
/// original field has zero value range (PSNR is undefined there).
pub fn psnr<T: Scalar>(original: &Field<T>, decompressed: &Field<T>) -> f64 {
    let range = original.value_range();
    let e = mse(original, decompressed);
    if e == 0.0 {
        return f64::INFINITY;
    }
    if range == 0.0 {
        return f64::NAN;
    }
    20.0 * (range / e.sqrt()).log10()
}

/// Buckets of [`BoundCheck::histogram`], over margins `|x − x̂| / ε` in `[0, 1]`.
pub const MARGIN_BUCKETS: usize = 10;

/// The pointwise error-bound verdict: one pass over an original and its
/// reconstruction against an absolute bound `ε`.
///
/// This is the workspace's one definition of the bound `|x − x̂| ≤ ε`:
///
/// - a pair whose error `|x − x̂|` is finite meets the bound iff
///   `|x − x̂| ≤ ε`, with no slack;
/// - a pair whose error is not finite (either side NaN or ±Inf) meets it iff
///   `x̂` has the bits of `x` after `to_f64`: same class, sign and payload.
///
/// qip-inspect's error budget, the conformance bound property and
/// [`max_abs_error`] all read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundCheck {
    /// Pairs compared.
    pub len: u64,
    /// Largest finite `|x − x̂|`, violations included.
    pub max_abs: f64,
    /// Largest finite `|x − x̂| / ε`.
    pub max_ratio: f64,
    /// Sum of the finite `|x − x̂| / ε`, for the mean margin.
    pub sum_ratio: f64,
    /// Pairs that break the bound.
    pub violations: u64,
    /// Pairs whose error is not finite.
    pub nonfinite: u64,
    /// Index of the first pair that breaks the bound.
    pub first_violation: Option<usize>,
    /// Margins of the pairs that meet the bound, `[0, 1]` in
    /// [`MARGIN_BUCKETS`] buckets; a non-finite pair kept bit-exact counts as
    /// margin 0.
    pub histogram: [u64; MARGIN_BUCKETS],
}

impl BoundCheck {
    /// Compare `original` with `recon` pairwise (up to the shorter length)
    /// against `abs > 0`; `f64::INFINITY` measures without a bound, so only
    /// a changed non-finite pair is a violation.
    pub fn of<T: Scalar>(original: &[T], recon: &[T], abs: f64) -> BoundCheck {
        let mut c = BoundCheck {
            len: 0,
            max_abs: 0.0,
            max_ratio: 0.0,
            sum_ratio: 0.0,
            violations: 0,
            nonfinite: 0,
            first_violation: None,
            histogram: [0; MARGIN_BUCKETS],
        };
        for (i, (&x, &y)) in original.iter().zip(recon).enumerate() {
            let (x, y) = (x.to_f64(), y.to_f64());
            let err = (x - y).abs();
            c.len += 1;
            let bucket = if err.is_finite() {
                let ratio = err / abs;
                c.max_abs = c.max_abs.max(err);
                c.max_ratio = c.max_ratio.max(ratio);
                c.sum_ratio += ratio;
                let slot = (ratio * MARGIN_BUCKETS as f64) as usize;
                (err <= abs).then_some(slot.min(MARGIN_BUCKETS - 1))
            } else {
                c.nonfinite += 1;
                (x.to_bits() == y.to_bits()).then_some(0)
            };
            match bucket {
                Some(b) => c.histogram[b] += 1,
                None => {
                    c.violations += 1;
                    c.first_violation.get_or_insert(i);
                }
            }
        }
        c
    }

    /// True when every pair meets the bound.
    pub fn holds(&self) -> bool {
        self.violations == 0
    }

    /// Mean `|x − x̂| / ε` over the finite pairs (0 when there are none).
    pub fn mean_ratio(&self) -> f64 {
        let finite = self.len - self.nonfinite;
        if finite > 0 {
            self.sum_ratio / finite as f64
        } else {
            0.0
        }
    }
}

/// Maximum pointwise absolute error, NaN-aware: `+∞` when a non-finite
/// pair differs (a NaN decoded for a finite sample, a finite value for a
/// NaN, +Inf for −Inf, another NaN payload), else the finite maximum of
/// [`BoundCheck`].
pub fn max_abs_error<T: Scalar>(a: &Field<T>, b: &Field<T>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "max_abs_error: shape mismatch");
    let c = BoundCheck::of(a.as_slice(), b.as_slice(), f64::INFINITY);
    if c.holds() {
        c.max_abs
    } else {
        f64::INFINITY
    }
}

/// Maximum *value-range relative* error: max |d−d'| / (max(d) − min(d)),
/// the convention used by the paper's Table II ("Max Relative Error").
pub fn max_rel_error<T: Scalar>(a: &Field<T>, b: &Field<T>) -> f64 {
    let range = a.value_range();
    if range == 0.0 {
        return if max_abs_error(a, b) == 0.0 { 0.0 } else { f64::INFINITY };
    }
    max_abs_error(a, b) / range
}

/// Bundle of the distortion figures reported in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Mean squared error.
    pub mse: f64,
    /// Peak signal-to-noise ratio in dB.
    pub psnr: f64,
    /// Max pointwise absolute error.
    pub max_abs: f64,
    /// Max value-range-relative error.
    pub max_rel: f64,
}

impl ErrorStats {
    /// Compute all distortion figures in one pass-pair.
    pub fn between<T: Scalar>(original: &Field<T>, decompressed: &Field<T>) -> Self {
        ErrorStats {
            mse: mse(original, decompressed),
            psnr: psnr(original, decompressed),
            max_abs: max_abs_error(original, decompressed),
            max_rel: max_rel_error(original, decompressed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qip_tensor::Shape;

    fn f(data: Vec<f32>) -> Field<f32> {
        let n = data.len();
        Field::from_vec(Shape::d1(n), data).unwrap()
    }

    #[test]
    fn mse_zero_for_identical() {
        let a = f(vec![1.0, 2.0, 3.0]);
        assert_eq!(mse(&a, &a), 0.0);
        assert_eq!(psnr(&a, &a), f64::INFINITY);
    }

    #[test]
    fn mse_hand_computed() {
        let a = f(vec![0.0, 0.0]);
        let b = f(vec![1.0, 3.0]);
        assert!((mse(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn psnr_hand_computed() {
        // range = 10, mse = 1 -> PSNR = 20 dB.
        let a = f(vec![0.0, 10.0]);
        let b = f(vec![1.0, 9.0]);
        assert!((psnr(&a, &b) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn psnr_undefined_for_constant_original() {
        let a = f(vec![5.0, 5.0]);
        let b = f(vec![5.5, 4.5]);
        assert!(psnr(&a, &b).is_nan());
    }

    #[test]
    fn max_errors() {
        let a = f(vec![0.0, 4.0]);
        let b = f(vec![1.0, 4.5]);
        assert_eq!(max_abs_error(&a, &b), 1.0);
        assert!((max_rel_error(&a, &b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_changed_non_finite_pair_breaks_the_bound() {
        let nan2 = f32::from_bits(f32::NAN.to_bits() ^ 1); // another payload
        let changed = [
            (1.0, f32::NAN),                    // a NaN decoded for a finite sample
            (f32::NAN, 1.0),                    // a finite value decoded for a NaN
            (f32::INFINITY, f32::NEG_INFINITY), // +Inf decoded as -Inf
            (f32::NAN, nan2),                   // a NaN with a different payload
        ];
        for (x, y) in changed {
            let (a, b) = (f(vec![0.0, x, 2.0]), f(vec![5e-4, y, 2.0]));
            let c = BoundCheck::of(a.as_slice(), b.as_slice(), 1e-3);
            assert_eq!((c.violations, c.first_violation, c.nonfinite), (1, Some(1), 1), "{x} -> {y}");
            assert!(!c.holds() && (c.max_abs - 5e-4).abs() < 1e-9, "{x} -> {y}: {c:?}");
            assert_eq!(c.histogram.iter().sum::<u64>(), 2, "{x} -> {y}");
            assert_eq!(max_abs_error(&a, &b), f64::INFINITY, "{x} -> {y}");
        }
        // Identical NaN and ±Inf pairs meet the bound with error 0.
        let a = f(vec![f32::NAN, nan2, f32::INFINITY, f32::NEG_INFINITY]);
        let c = BoundCheck::of(a.as_slice(), a.as_slice(), 1e-3);
        assert!(c.holds() && c.nonfinite == 4 && c.histogram[0] == 4, "{c:?}");
        assert_eq!((c.max_abs, c.mean_ratio()), (0.0, 0.0));
        assert_eq!(max_abs_error(&a, &a), 0.0);
    }

    #[test]
    fn a_finite_pair_meets_the_bound_without_slack() {
        let a = f(vec![0.0, 0.0, 0.0]);
        let b = f(vec![0.25, 0.05, 0.25f32.next_up()]);
        let c = BoundCheck::of(a.as_slice(), b.as_slice(), 0.25);
        assert_eq!((c.violations, c.first_violation), (1, Some(2)));
        let mut hist = [0; MARGIN_BUCKETS];
        (hist[2], hist[MARGIN_BUCKETS - 1]) = (1, 1); // margins 0.2 and 1.0
        assert_eq!(c.histogram, hist);
        assert_eq!(c.max_abs, 0.25f32.next_up() as f64);
        assert!(c.max_ratio > 1.0 && (c.mean_ratio() - c.sum_ratio / 3.0).abs() < 1e-15);
    }

    #[test]
    fn rel_error_constant_field() {
        let a = f(vec![2.0, 2.0]);
        assert_eq!(max_rel_error(&a, &a), 0.0);
        let b = f(vec![2.0, 3.0]);
        assert!(max_rel_error(&a, &b).is_infinite());
    }

    #[test]
    fn stats_bundle_agrees() {
        let a = f(vec![0.0, 10.0, 5.0]);
        let b = f(vec![0.5, 9.0, 5.0]);
        let s = ErrorStats::between(&a, &b);
        assert_eq!(s.mse, mse(&a, &b));
        assert_eq!(s.psnr, psnr(&a, &b));
        assert_eq!(s.max_abs, max_abs_error(&a, &b));
        assert_eq!(s.max_rel, max_rel_error(&a, &b));
    }
}
