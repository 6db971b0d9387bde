//! Quality and compressibility metrics (paper Sec. III-A).
//!
//! Implements the assessment toolkit used throughout the evaluation:
//! PSNR / MSE / max errors between original and decompressed fields,
//! the one pointwise error-bound verdict ([`BoundCheck`]: a finite error
//! meets `ε` iff `|x − x̂| ≤ ε`, a non-finite sample iff it comes back with
//! the same bits — read by `max_abs_error`, qip-inspect's error budget and
//! the conformance bound property),
//! compression ratio and bit-rate, and Shannon entropy of quantization index
//! arrays — globally, over rectangular regions (paper Fig. 5), and per slice
//! along a plane (paper Fig. 4).

#![warn(missing_docs)]

mod entropy;
mod error;
mod ssim;

pub use entropy::{entropy, entropy_by_slice, entropy_of_counts, entropy_region, symbol_histogram};
pub use error::{max_abs_error, max_rel_error, mse, psnr, BoundCheck, ErrorStats, MARGIN_BUCKETS};
pub use ssim::ssim;

use qip_tensor::Scalar;

/// Compression ratio: original bytes over compressed bytes.
pub fn compression_ratio<T: Scalar>(n_samples: usize, compressed_bytes: usize) -> f64 {
    if compressed_bytes == 0 {
        return f64::INFINITY;
    }
    (n_samples * T::BYTES) as f64 / compressed_bytes as f64
}

/// Bit-rate: average bits per sample in the compressed stream.
///
/// Equals `T::BITS / CR` (paper Sec. III-A).
pub fn bit_rate<T: Scalar>(n_samples: usize, compressed_bytes: usize) -> f64 {
    if n_samples == 0 {
        return 0.0;
    }
    (compressed_bytes * 8) as f64 / n_samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cr_and_bitrate_consistent() {
        // 1000 f32 samples compressed to 400 bytes: CR = 10, bitrate = 3.2.
        let cr = compression_ratio::<f32>(1000, 400);
        let br = bit_rate::<f32>(1000, 400);
        assert!((cr - 10.0).abs() < 1e-12);
        assert!((br - 3.2).abs() < 1e-12);
        assert!((br - 32.0 / cr).abs() < 1e-12);
    }

    #[test]
    fn cr_zero_bytes_is_infinite() {
        assert!(compression_ratio::<f64>(10, 0).is_infinite());
    }

    #[test]
    fn bitrate_double_precision() {
        // CR of 16 on doubles -> 4 bits/sample.
        let br = bit_rate::<f64>(100, 100 * 8 / 16);
        assert!((br - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bitrate_empty() {
        assert_eq!(bit_rate::<f32>(0, 0), 0.0);
    }
}
