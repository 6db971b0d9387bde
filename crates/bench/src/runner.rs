//! Measured compression runs and PSNR alignment.

use qip_core::{Compressor, ErrorBound};
use qip_metrics::{bit_rate, compression_ratio, ErrorStats};
use qip_tensor::{Field, Scalar};
use serde::Serialize;
use std::time::Instant;

/// One measured compression/decompression run (a row of the paper's tables,
/// a point of its figures).
#[derive(Debug, Clone, Serialize)]
pub struct RunRecord {
    /// Compressor name ("SZ3+QP", …).
    pub compressor: String,
    /// Dataset name.
    pub dataset: String,
    /// Field index within the dataset.
    pub field: usize,
    /// Value-range-relative error bound requested.
    pub rel_eb: f64,
    /// Compression ratio.
    pub cr: f64,
    /// PSNR (dB).
    pub psnr: f64,
    /// Bit-rate (bits/sample).
    pub bitrate: f64,
    /// Max value-range-relative error.
    pub max_rel: f64,
    /// Compression throughput (MB/s of raw input).
    pub compress_mbs: f64,
    /// Decompression throughput (MB/s of raw output).
    pub decompress_mbs: f64,
    /// Compressed size in bytes.
    pub bytes: usize,
}

/// Run one compressor on one field at a relative bound, measuring everything.
pub fn run_once<T: Scalar, C: Compressor<T>>(
    comp: &C,
    dataset: &str,
    field_idx: usize,
    field: &Field<T>,
    rel_eb: f64,
) -> RunRecord {
    let bound = ErrorBound::Rel(rel_eb);
    let raw_mb = (field.len() * T::BYTES) as f64 / 1e6;

    let t0 = Instant::now();
    let bytes = comp.compress(field, bound).expect("compression failed");
    let t_c = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let out = comp.decompress(&bytes).expect("decompression failed");
    let t_d = t1.elapsed().as_secs_f64();

    let stats = ErrorStats::between(field, &out);
    RunRecord {
        compressor: comp.name(),
        dataset: dataset.to_string(),
        field: field_idx,
        rel_eb,
        cr: compression_ratio::<T>(field.len(), bytes.len()),
        psnr: stats.psnr,
        bitrate: bit_rate::<T>(field.len(), bytes.len()),
        max_rel: stats.max_rel,
        compress_mbs: raw_mb / t_c.max(1e-9),
        decompress_mbs: raw_mb / t_d.max(1e-9),
        bytes: bytes.len(),
    }
}

/// A PSNR target [`find_eb_for_psnr`] could not meet: the bound and run that
/// came closest, outside the tolerance.
#[derive(Debug, Clone)]
pub struct PsnrMiss {
    /// The closest `(relative bound, run)` the bisection saw, boxed so the
    /// error side of [`find_eb_for_psnr`]'s `Result` stays one pointer.
    pub closest: Box<(f64, RunRecord)>,
}

impl std::fmt::Display for PsnrMiss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (eb, rec) = &*self.closest;
        write!(f, "{}: PSNR target missed, closest {:.2} dB at rel {eb:.3e}", rec.compressor, rec.psnr)
    }
}

/// Find the relative error bound at which `comp` hits `target_psnr` (±`tol`
/// dB) on `field`, by bisection on the log of the bound. Returns the bound
/// and the aligned run, or a [`PsnrMiss`] when 14 steps end outside `tol`.
/// This is the paper's Table II protocol ("we align the PSNR of all the
/// candidate compressors to 75").
pub fn find_eb_for_psnr<T: Scalar, C: Compressor<T>>(
    comp: &C,
    dataset: &str,
    field_idx: usize,
    field: &Field<T>,
    target_psnr: f64,
    tol: f64,
) -> Result<(f64, RunRecord), PsnrMiss> {
    // PSNR decreases as eb grows; bracket then bisect in log10(eb).
    let mut lo = -8.0f64; // 1e-8: very high PSNR
    let mut hi = -0.5f64; // ~0.32: very low PSNR
    let mut best: Option<(f64, RunRecord)> = None;
    for _ in 0..14 {
        let mid = 0.5 * (lo + hi);
        let eb = 10f64.powf(mid);
        let rec = run_once(comp, dataset, field_idx, field, eb);
        let diff = rec.psnr - target_psnr;
        if diff.abs() <= tol {
            return Ok((eb, rec));
        }
        let better = match &best {
            Some((_, b)) => (b.psnr - target_psnr).abs() > diff.abs(),
            None => true,
        };
        if better {
            best = Some((eb, rec));
        }
        if diff > 0.0 {
            // Too accurate: loosen the bound.
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Err(PsnrMiss { closest: Box::new(best.expect("bisection ran at least once")) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qip_sz3::Sz3;
    use qip_tensor::Shape;

    fn field() -> Field<f32> {
        Field::from_fn(Shape::d3(24, 20, 16), |c| {
            (c[0] as f32 * 0.15).sin() + (c[1] as f32 * 0.1).cos() * 0.5 + c[2] as f32 * 0.02
        })
    }

    #[test]
    fn run_once_record_consistent() {
        let f = field();
        let rec = run_once(&Sz3::new(), "test", 0, &f, 1e-3);
        assert_eq!(rec.compressor, "SZ3");
        assert!(rec.cr > 1.0);
        assert!(rec.max_rel <= 1e-3 + 1e-9);
        assert!((rec.bitrate - 32.0 / rec.cr).abs() < 1e-9);
        assert!(rec.compress_mbs > 0.0 && rec.decompress_mbs > 0.0);
    }

    #[test]
    fn psnr_alignment_converges() {
        let f = field();
        let (eb, rec) = find_eb_for_psnr(&Sz3::new(), "test", 0, &f, 75.0, 1.5).unwrap();
        assert!(eb > 0.0);
        assert!((rec.psnr - 75.0).abs() <= 1.5, "got PSNR {}", rec.psnr);
        // A target no bound reaches is a typed miss carrying the closest run.
        let miss = find_eb_for_psnr(&Sz3::new(), "test", 0, &f, 1000.0, 1.5).unwrap_err();
        assert!((miss.closest.1.psnr - 1000.0).abs() > 1.5, "{miss}");
    }
}
