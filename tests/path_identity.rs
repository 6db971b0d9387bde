//! Path identity over the conformance case matrix: for every registry
//! compressor, `compress_into` / `decompress_into` on a context reused
//! across every case, shape, dtype and compressor, and the traced paths,
//! produce the bytes and bits of the allocating `compress` / `decompress`.
//!
//! The matrix runs as two slices side by side, each on its own context: the
//! chunked field of more than 2¹⁷ points followed by the 5×7×3 f64 row, and
//! 64 seeded draws with the other hostile rows. The planted non-finite rows
//! are the bound property's (`error_bound_property`).

use qip::registry::AnyCompressor;
use qip_conformance::{matrix, path_identity_suite, Case};

fn paths_agree(select: impl Fn(&Case) -> bool) {
    let cases: Vec<Case> = matrix(64, 0xD1FF_0000).into_iter().filter(select).collect();
    let findings = path_identity_suite(&AnyCompressor::registry(), &cases);
    assert!(
        findings.is_empty(),
        "{} divergence(s):\n{}",
        findings.len(),
        findings.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn every_path_agrees_on_the_chunked_field() {
    paths_agree(|c| matches!(c.row, "chunked" | "below-min-tile"));
}

#[test]
fn every_path_agrees_on_the_drawn_cases() {
    paths_agree(|c| !matches!(c.row, "chunked" | "below-min-tile") && c.plant.is_none());
}
