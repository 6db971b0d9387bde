//! User-facing error-bound specification.

use qip_tensor::{Field, Scalar};

/// Error bound requested by the user.
///
/// The paper evaluates under *absolute* bounds tied to each field's value
/// range (its "1E-3" settings are value-range-relative, the SZ3 convention),
/// so both forms are provided. Compressors resolve to an absolute bound via
/// [`ErrorBound::absolute`] before quantizing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|d − d'| ≤ ε`.
    Abs(f64),
    /// Value-range-relative bound: `|d − d'| ≤ ε · (max(d) − min(d))`.
    Rel(f64),
}

impl ErrorBound {
    /// Resolve to an absolute bound given the field's value range.
    ///
    /// Degenerate cases (constant field under a relative bound, zero/negative
    /// inputs) clamp to a tiny positive bound, which drives every point into
    /// the unpredictable channel — lossless storage, never a bound violation.
    pub fn absolute(&self, value_range: f64) -> f64 {
        let eb = match *self {
            ErrorBound::Abs(e) => e,
            ErrorBound::Rel(e) => e * value_range,
        };
        if eb.is_finite() && eb > 0.0 {
            eb
        } else {
            f64::MIN_POSITIVE
        }
    }

    /// Resolve this bound against a concrete field.
    ///
    /// This is the single entry point every compressor (and wrapper such as
    /// `TiledCompressor`) goes through, so `Rel` semantics cannot drift between
    /// a wrapper resolving against the whole field and an inner codec
    /// resolving against a block's narrower value range.
    pub fn resolve<T: Scalar>(&self, field: &Field<T>) -> ResolvedBound {
        let value_range = field.value_range();
        ResolvedBound { abs: self.absolute(value_range), value_range }
    }
}

/// An [`ErrorBound`] resolved against one concrete field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedBound {
    /// The absolute tolerance the quantizers enforce (always finite, > 0).
    pub abs: f64,
    /// The value range the bound was resolved against.
    pub value_range: f64,
}

impl ResolvedBound {
    /// The resolved bound as [`ErrorBound::Abs`], for handing to nested
    /// compressors so they quantize at exactly the same tolerance.
    pub fn as_abs(&self) -> ErrorBound {
        ErrorBound::Abs(self.abs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_passthrough() {
        assert_eq!(ErrorBound::Abs(1e-3).absolute(100.0), 1e-3);
    }

    #[test]
    fn rel_scales_by_range() {
        assert_eq!(ErrorBound::Rel(1e-2).absolute(50.0), 0.5);
    }

    #[test]
    fn degenerate_clamps_positive() {
        assert!(ErrorBound::Rel(1e-3).absolute(0.0) > 0.0);
        assert!(ErrorBound::Abs(0.0).absolute(1.0) > 0.0);
        assert!(ErrorBound::Abs(f64::NAN).absolute(1.0) > 0.0);
    }

    #[test]
    fn resolve_matches_absolute_and_keeps_range() {
        let f =
            Field::from_vec(qip_tensor::Shape::new(&[4]), vec![0.0f32, 1.0, 2.0, 4.0]).unwrap();
        let r = ErrorBound::Rel(1e-2).resolve(&f);
        assert_eq!(r.value_range, 4.0);
        assert_eq!(r.abs, 0.04);
        assert_eq!(r.as_abs(), ErrorBound::Abs(r.abs));
        // Resolving the produced Abs bound against any field is idempotent.
        assert_eq!(r.as_abs().resolve(&f).abs, r.abs);
    }
}
