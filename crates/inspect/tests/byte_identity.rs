//! Inspection must never change compressed bytes or reconstruction:
//!
//! - compressing, inspecting, then compressing again yields byte-identical
//!   streams (inspection has no side effects on any encoder state);
//! - the forensic decode reconstructs *exactly* the field a plain decompress
//!   produces (pinned by inspecting a stream against its own plain
//!   decompression: every pointwise error must be exactly zero).

use qip_conformance::{synth, FieldFamily};
use qip_core::{Compressor, ErrorBound};
use qip_inspect::{inspect_bytes, inspect_bytes_with_original};
use qip_registry::AnyCompressor;
use qip_tensor::Field;

#[test]
fn inspection_never_changes_compressed_bytes() {
    let field: Field<f32> = synth(FieldFamily::Banded, 0, &[19, 14]);
    for comp in AnyCompressor::registry() {
        let name = comp.as_dyn::<f32>().name();
        let first = comp.as_dyn::<f32>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let _ = inspect_bytes(&first).unwrap();
        let _ = inspect_bytes_with_original(&first, &field).unwrap();
        let second = comp.as_dyn::<f32>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        assert_eq!(first, second, "{name}: inspection perturbed the encoder");
    }
}

#[test]
fn forensic_decode_matches_plain_decompress_exactly() {
    for dims in [&[48][..], &[15, 11][..], &[9, 8, 7][..]] {
        let field: Field<f64> = synth(FieldFamily::Banded, 0, dims);
        for comp in AnyCompressor::registry() {
            let name = comp.as_dyn::<f64>().name();
            let bytes = comp.as_dyn::<f64>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
            let plain: Field<f64> = comp.as_dyn::<f64>().decompress(&bytes).unwrap();
            // Inspect against the plain decompression: the forensic (or
            // fallback) reconstruction must agree bit-for-bit, so every
            // pointwise error is exactly zero.
            let report = inspect_bytes_with_original(&bytes, &plain).unwrap();
            let budget = report.error_budget.unwrap();
            assert_eq!(
                budget.max_abs_error, 0.0,
                "{name} {dims:?}: forensic decode diverges from plain decompress"
            );
        }
    }
}

#[test]
fn tiled_container_byte_identity() {
    let field: Field<f32> = synth(FieldFamily::Banded, 0, &[21, 17]);
    let inner = AnyCompressor::by_name("QoZ+QP").unwrap();
    let tiled = qip_container::TiledCompressor::new(inner, 8).unwrap();
    let first = tiled.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
    let report = inspect_bytes_with_original(&first, &field).unwrap();
    assert_eq!(report.ledger_total(), first.len() as u64);
    assert_eq!(report.error_budget.unwrap().violations, 0);
    let second = tiled.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
    assert_eq!(first, second, "inspection perturbed the tiled encoder");
}
