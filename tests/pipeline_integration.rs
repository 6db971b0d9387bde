//! Cross-crate integration: datasets → compressors → metrics → transfer.

use qip::prelude::*;
use qip::data::{Dataset, RD_DATASETS};

#[test]
fn every_dataset_roundtrips_through_every_base_compressor() {
    for ds in RD_DATASETS {
        let dims: Vec<usize> = ds.paper_dims().iter().map(|&d| (d / 24).max(12)).collect();
        let field = ds.generate_f32(0, &dims);
        let comps: Vec<Box<dyn Compressor<f32>>> = vec![
            Box::new(qip::mgard::Mgard::new().with_qp(QpConfig::best_fit())),
            Box::new(qip::sz3::Sz3::new().with_qp(QpConfig::best_fit())),
            Box::new(qip::interp::Tuned::qoz().with_qp(QpConfig::best_fit())),
            Box::new(qip::interp::Tuned::hpez().with_qp(QpConfig::best_fit())),
        ];
        for comp in comps {
            let bytes = comp.compress(&field, ErrorBound::Rel(1e-3)).unwrap();
            let out = comp.decompress(&bytes).unwrap();
            let rel = qip::metrics::max_rel_error(&field, &out);
            assert!(rel <= 1e-3 * (1.0 + 1e-9), "{} on {}: {rel}", comp.name(), ds.name());
        }
    }
}

#[test]
fn streams_are_not_cross_decodable() {
    // Every compressor must reject every other compressor's stream (magic
    // bytes) instead of producing garbage.
    let field = qip::data::miranda_like(0, &[16, 16, 16]);
    let comps: Vec<Box<dyn Compressor<f32>>> = vec![
        Box::new(qip::mgard::Mgard::new()),
        Box::new(qip::sz3::Sz3::new()),
        Box::new(qip::interp::Tuned::qoz()),
        Box::new(qip::interp::Tuned::hpez()),
        Box::new(qip::zfp::Zfp::new()),
        Box::new(qip::sperr::Sperr::new()),
        Box::new(qip::tthresh::Tthresh::new()),
    ];
    let streams: Vec<Vec<u8>> = comps
        .iter()
        .map(|c| c.compress(&field, ErrorBound::Rel(1e-3)).unwrap())
        .collect();
    for (i, comp) in comps.iter().enumerate() {
        for (j, stream) in streams.iter().enumerate() {
            if i == j {
                continue;
            }
            assert!(
                comp.decompress(stream).is_err(),
                "{} decoded {}'s stream",
                comp.name(),
                comps[j].name()
            );
        }
    }
}

#[test]
fn four_d_rtm_handled_by_slicing() {
    // The RTM dataset is 4-D; the workspace convention (as in the paper's
    // transfer experiment) is slice-wise compression along the time axis.
    let slice_dims = [24usize, 24, 16];
    let slices: Vec<Field<f32>> =
        (0..4).map(|t| qip::data::rtm_like(0, t * 900, &slice_dims)).collect();
    let sz3 = qip::sz3::Sz3::new().with_qp(QpConfig::best_fit());
    for slice in &slices {
        let bytes = sz3.compress(slice, ErrorBound::Rel(1e-3)).unwrap();
        let out: Field<f32> = sz3.decompress(&bytes).unwrap();
        assert!(qip::metrics::max_rel_error(slice, &out) <= 1e-3 * (1.0 + 1e-9));
    }
}

#[test]
fn transfer_model_reproduces_paper_arithmetic() {
    use qip::transfer::{model_pipeline, FsModel, LinkModel, SliceStats};
    // Paper numbers: CRs 21.54 vs 25.06, 16% end-to-end gain at 461.75 MB/s.
    // With compute stages fast (1800 cores), the gain is IO-dominated and the
    // model must land in the right neighbourhood.
    let raw = 635.54e9 / 3600.0;
    let mk = |cr: f64| SliceStats {
        compress_s: 1.2,
        decompress_s: 0.6,
        compressed_bytes: raw / cr,
        raw_bytes: raw,
        psnr: 108.51,
    };
    let link = LinkModel::paper_globus();
    let fs = FsModel::default();
    let plain = model_pipeline(&mk(21.54), 3600, 1800, link, fs);
    let qp = model_pipeline(&mk(25.06), 3600, 1800, link, fs);
    let gain = plain.total_s / qp.total_s;
    assert!(
        gain > 1.05 && gain < 1.20,
        "end-to-end gain {gain:.3} outside the paper's neighbourhood"
    );
}

#[test]
fn metrics_agree_with_compressor_reports() {
    let field = qip::data::scale_like(2, &[24, 60, 60]);
    let sz3 = qip::sz3::Sz3::new();
    let bytes = sz3.compress(&field, ErrorBound::Rel(1e-3)).unwrap();
    let out: Field<f32> = sz3.decompress(&bytes).unwrap();
    let cr = qip::metrics::compression_ratio::<f32>(field.len(), bytes.len());
    let br = qip::metrics::bit_rate::<f32>(field.len(), bytes.len());
    assert!((br - 32.0 / cr).abs() < 1e-9);
    let psnr = qip::metrics::psnr(&field, &out);
    assert!(psnr > 40.0, "implausible PSNR {psnr}");
}

#[test]
fn s3d_double_precision_end_to_end() {
    let dims: Vec<usize> = Dataset::S3d.paper_dims().iter().map(|&d| d / 20).collect();
    let field = Dataset::S3d.generate_f64(0, &dims);
    let hpez = qip::interp::Tuned::hpez().with_qp(QpConfig::best_fit());
    let bytes = hpez.compress(&field, ErrorBound::Rel(1e-4)).unwrap();
    let out: Field<f64> = hpez.decompress(&bytes).unwrap();
    assert!(qip::metrics::max_rel_error(&field, &out) <= 1e-4 * (1.0 + 1e-9));
}
