//! QP's defining guarantees, end-to-end across all base compressors:
//! (1) the transform is exactly reversible for every configuration,
//! (2) with the best-fit configuration the stream never grows meaningfully,
//! and on the benchmark workloads never grows at all, for any base. That
//! the decompressed data is bit-identical with QP on or off is the bound
//! property's twin comparison (`tests/error_bound_property.rs`), run for
//! every case of the conformance matrix through every entry point.

use qip::core::{Condition, PredMode};
use qip::data::Dataset;
use qip::prelude::*;
use qip::registry::AnyCompressor;

fn datasets() -> Vec<(Dataset, Field<f32>)> {
    [Dataset::Miranda, Dataset::SegSalt, Dataset::Cesm]
        .into_iter()
        .map(|ds| {
            let dims: Vec<usize> = ds.paper_dims().iter().map(|&d| (d / 16).max(16)).collect();
            let f = ds.generate_f32(0, &dims);
            (ds, f)
        })
        .collect()
}

#[test]
fn every_qp_configuration_roundtrips() {
    let field = qip::data::segsalt_like(5, &[40, 36, 24]);
    for mode in [
        PredMode::Back1,
        PredMode::Top1,
        PredMode::Left1,
        PredMode::Lorenzo2d,
        PredMode::Lorenzo3d,
    ] {
        for condition in
            [Condition::CaseI, Condition::CaseII, Condition::CaseIII, Condition::CaseIV]
        {
            for max_level in [1usize, 2, 5] {
                let qp = QpConfig { mode, condition, max_level };
                let sz3 = qip::sz3::Sz3::new().with_qp(qp);
                let bytes = sz3.compress(&field, ErrorBound::Rel(1e-4)).unwrap();
                let out: Field<f32> = sz3.decompress(&bytes).unwrap();
                let err = qip::metrics::max_rel_error(&field, &out);
                assert!(
                    err <= 1e-4 * (1.0 + 1e-9),
                    "mode {mode:?} cond {condition:?} lvl {max_level}: rel err {err}"
                );
            }
        }
    }
}

#[test]
fn captured_transform_is_reversible_pointwise() {
    // f⁻¹(f(Q)) = Q on real captured arrays: wherever the capture says a
    // point kept its index (Q' == Q), fine; where it differs, a decompression
    // recovers it — verified indirectly by byte-identical decompressed data
    // above. Here we check the direct property on the captured arrays: the
    // set of unpredictable labels is preserved exactly.
    let field = qip::data::segsalt_like(9, &[48, 48, 32]);
    let sz3 = qip::sz3::Sz3::new().with_qp(QpConfig::best_fit());
    let cap = sz3.quant_capture(&field, ErrorBound::Rel(1e-4)).unwrap();
    let unpred = qip::core::UNPRED;
    for (i, (&q, &qp)) in cap.q.iter().zip(&cap.q_prime).enumerate() {
        assert_eq!(
            q == unpred,
            qp == unpred,
            "index {i}: unpredictable label not preserved by the transform"
        );
    }
}

#[test]
fn best_fit_reduces_entropy_on_clustered_data() {
    let field = qip::data::segsalt_like(3, &[84, 84, 44]);
    let sz3 = qip::sz3::Sz3::new().with_qp(QpConfig::best_fit());
    let cap = sz3.quant_capture(&field, ErrorBound::Rel(1e-4)).unwrap();
    let h_q = qip::metrics::entropy(&cap.q);
    let h_qp = qip::metrics::entropy(&cap.q_prime);
    assert!(
        h_qp < h_q,
        "QP should lower global index entropy on SegSalt: {h_qp} vs {h_q}"
    );
}

#[test]
fn best_fit_never_grows_streams_meaningfully() {
    // The paper: "QP ... will not have any negative impact on the compression
    // ratios". The encoder keeps only the QP levels its index entropy favours
    // (down to none), so every base stays within a sliver of slack for the
    // estimate's misses and the 3-byte config header.
    for (ds, field) in datasets() {
        for eb in [1e-2, 1e-3, 1e-4] {
            for (plain, with) in base_pairs() {
                let a = plain.compress(&field, ErrorBound::Rel(eb)).unwrap().len();
                let b = with.compress(&field, ErrorBound::Rel(eb)).unwrap().len();
                assert!(
                    b as f64 <= a as f64 * 1.01 + 64.0,
                    "{} on {} at {eb:.0e}: QP grew the stream {a} -> {b}",
                    Compressor::<f32>::name(&with),
                    ds.name()
                );
            }
        }
    }
}

/// Each base compressor without and with the best-fit QP configuration.
fn base_pairs() -> Vec<(AnyCompressor, AnyCompressor)> {
    let plain = AnyCompressor::base_four(QpConfig::off());
    plain.into_iter().zip(AnyCompressor::base_four(QpConfig::best_fit())).collect()
}

/// CR(QP on) ≥ CR(QP off) for one field under one bound, every base.
fn qp_never_costs_ratio<T: Scalar>(what: &str, field: &Field<T>, bound: ErrorBound)
where
    AnyCompressor: Compressor<T>,
{
    for (plain, with) in base_pairs() {
        let a = plain.compress(field, bound).unwrap().len();
        let b = with.compress(field, bound).unwrap().len();
        let name = Compressor::<T>::name(&with);
        assert!(b <= a, "{name} on {what}: QP grew the stream {a} -> {b}");
    }
}

#[test]
fn qp_never_costs_ratio_on_the_benchmark_workloads() {
    // The four benchmark workloads' generators, seed 1, at their dims and
    // relative bounds; a geometric mean over the bases would hide a base
    // that loses.
    let rel = ErrorBound::Rel;
    qp_never_costs_ratio("miranda", &qip::data::miranda_like(1, &[64, 96, 96]), rel(1e-3));
    qp_never_costs_ratio("segsalt", &qip::data::segsalt_like(1, &[96, 96, 64]), rel(1e-5));
    qp_never_costs_ratio("s3d", &qip::data::s3d_like(1, &[96, 96, 64]), rel(1e-2));
    qp_never_costs_ratio("hurricane", &qip::data::hurricane_like(1, &[32, 48, 48]), rel(1e-3));
}

#[test]
fn level_population_matches_paper_claim() {
    // Paper Sec. V-C3: levels 1 and 2 contain over 98% of the data points.
    let field = qip::data::segsalt_like(1, &[64, 64, 64]);
    let sz3 = qip::sz3::Sz3::new();
    let cap = sz3.quant_capture(&field, ErrorBound::Rel(1e-3)).unwrap();
    let total = cap.level.len() as f64;
    let low = cap.level.iter().filter(|&&l| l == 1 || l == 2).count() as f64;
    assert!(
        low / total > 0.98,
        "levels 1-2 hold {:.2}% of points; paper says >98%",
        100.0 * low / total
    );
}
