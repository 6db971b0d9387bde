//! Byte-identity invariant for instrumentation: running any registry
//! compressor inside a live trace session must produce the exact bytes (and
//! the exact reconstruction) of an untraced run. Spans and counters observe
//! the pipeline; they must never steer it. That capture was live is asserted
//! via the report, making the equality a real regression gate.

use qip::prelude::*;
use qip::registry::AnyCompressor;

fn registry() -> Vec<AnyCompressor> {
    let mut all = AnyCompressor::base_four(QpConfig::off());
    all.extend(AnyCompressor::base_four(QpConfig::best_fit()));
    all.extend(AnyCompressor::comparators());
    all
}

/// Small fields plus one > 2^17 points so the chunked entropy framing (and
/// its worker threads) runs under capture too.
fn corpus() -> Vec<Field<f32>> {
    vec![
        qip::data::Dataset::Miranda.generate_f32(7, &[12, 13, 11]),
        qip::data::Dataset::SegSalt.generate_f32(3, &[16, 9, 8]),
        qip::data::Dataset::Miranda.generate_f32(1, &[64, 60, 40]),
    ]
}

#[test]
fn tracing_never_changes_compressed_bytes() {
    for comp in registry() {
        let name = Compressor::<f32>::name(&comp);
        for (fi, field) in corpus().iter().enumerate() {
            let untraced = comp.compress(field, ErrorBound::Abs(1e-3)).unwrap();
            let (traced, report) = comp.compress_traced(field, ErrorBound::Abs(1e-3));
            let traced = traced.unwrap();
            assert_eq!(
                untraced, traced,
                "{name}: field {fi} bytes diverge between traced and untraced runs"
            );
            assert!(!report.is_empty(), "{name}: capture was live but the report is empty");

            let plain: Field<f32> = comp.decompress(&untraced).unwrap();
            let (replay, _) = comp.decompress_traced::<f32>(&traced);
            assert_eq!(
                plain.as_slice(),
                replay.unwrap().as_slice(),
                "{name}: field {fi} values diverge between traced and untraced decodes"
            );
        }
    }
}

#[test]
fn telemetry_never_changes_compressed_bytes() {
    // The always-on metrics layer has the same contract as tracing: with a
    // hub attached, every registry compressor must emit the exact bytes of an
    // untelemetered run (and decode to the exact values), while the hub
    // observably records the calls.
    use qip::core::CompressCtx;
    use std::sync::Arc;

    let fields = corpus();
    let mut baselines: Vec<Vec<Vec<u8>>> = Vec::new();
    for comp in registry() {
        let mut per_field = Vec::new();
        for field in &fields {
            per_field.push(comp.compress(field, ErrorBound::Abs(1e-3)).unwrap());
        }
        baselines.push(per_field);
    }

    let hub = Arc::new(qip::telemetry::MetricsHub::new());
    qip::telemetry::attach(Arc::clone(&hub));
    let mut compress_calls = 0u64;
    for (ci, comp) in registry().iter().enumerate() {
        let name = Compressor::<f32>::name(comp);
        for (fi, field) in fields.iter().enumerate() {
            let metered = comp.compress(field, ErrorBound::Abs(1e-3)).unwrap();
            compress_calls += 1;
            assert_eq!(
                baselines[ci][fi], metered,
                "{name}: field {fi} bytes diverge with a metrics hub attached"
            );
            // The buffer-reusing path must stay identical too.
            let mut ctx = CompressCtx::new();
            let mut out = Vec::new();
            comp.compress_into(field, ErrorBound::Abs(1e-3), &mut ctx, &mut out).unwrap();
            compress_calls += 1;
            assert_eq!(baselines[ci][fi], out, "{name}: field {fi} compress_into diverges");

            let plain: Field<f32> = comp.decompress(&baselines[ci][fi]).unwrap();
            let metered_out: Field<f32> = comp.decompress(&metered).unwrap();
            assert_eq!(
                plain.as_slice(),
                metered_out.as_slice(),
                "{name}: field {fi} values diverge with a metrics hub attached"
            );
        }
    }
    qip::telemetry::detach();

    // Telemetry must have genuinely observed the runs (compress + into +
    // the two decompress calls per (compressor, field) pair).
    let records = hub.recorder.records();
    assert!(
        records.len() as u64 >= compress_calls,
        "flight recorder saw {} records for {} compress calls",
        records.len(),
        compress_calls
    );
    let snap = hub.snapshot();
    assert!(snap.hists.iter().any(|(k, _)| k.name == "qip.compress.duration_ns"));
    assert!(snap.hists.iter().any(|(k, _)| k.name == "qip.decompress.duration_ns"));
    // QP-gated compressors surface per-level accept rates in their records.
    assert!(
        records
            .iter()
            .any(|r| r.compressor.ends_with("+QP") && !r.qp_accept_rates.is_empty()),
        "no +QP compressor reported per-level accept rates"
    );
}

#[test]
fn tracing_f64_path_is_byte_identical_too() {
    let field = qip::data::Dataset::S3d.generate_f64(2, &[22, 18, 14]);
    for comp in registry() {
        let name = Compressor::<f64>::name(&comp);
        let untraced = comp.compress(&field, ErrorBound::Rel(1e-4)).unwrap();
        let (traced, _) = comp.compress_traced(&field, ErrorBound::Rel(1e-4));
        assert_eq!(untraced, traced.unwrap(), "{name}: f64 bytes diverge under tracing");
    }
}
