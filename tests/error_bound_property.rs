//! The error-bound property over the conformance case matrix: for all 11
//! registry compressors, through `compress`, `compress_into` on one dirty
//! context, and the tiled container, every decoded point honours the bound
//! (`qip_metrics::BoundCheck`: no slack, a non-finite sample back with the
//! same bits), and every QP-on stream decodes to its QP-off twin's bits.
//!
//! Each test runs one slice of one matrix (`qip_conformance::matrix`), so
//! the slices run side by side. A failure prints the case, which replays it.

use qip::prelude::{ErrorBound, QpConfig};
use qip::registry::AnyCompressor;
use qip_conformance::{contract_suite, matrix, Case, ContractStats};

/// Seeded draws per compressor.
const DRAWN: usize = 256;
const SEED: u64 = 0xC0DE_0000;

/// Run the property on the matrix rows `select` keeps, with `extra`
/// compressors after the registry's, and assert it held.
fn holds(select: impl Fn(&Case) -> bool, extra: Vec<AnyCompressor>) -> Vec<ContractStats> {
    let cases: Vec<Case> = matrix(DRAWN, SEED).into_iter().filter(select).collect();
    assert!(!cases.is_empty());
    let mut comps = AnyCompressor::registry();
    comps.extend(extra);
    let stats = contract_suite(&comps, &cases);
    let violations: Vec<String> =
        stats.iter().flat_map(|s| &s.violations).map(|v| v.to_string()).collect();
    assert!(violations.is_empty(), "{} violation(s):\n{}", violations.len(), violations.join("\n"));
    stats
}

fn drawn_abs(dtype: &str) -> impl Fn(&Case) -> bool + '_ {
    move |c| c.row == "drawn" && c.dtype == dtype && matches!(c.bound, ErrorBound::Abs(_))
}

/// f32 draws under `Abs` bounds, and the chunked field (more than 2¹⁷
/// points, so the entropy stage frames several chunks).
#[test]
fn absolute_bound_holds_for_all_compressors() {
    holds(|c| drawn_abs("f32")(c) || c.row == "chunked", vec![]);
}

/// f64 draws under `Abs` bounds down to 1e-8.
#[test]
fn double_precision_bound_holds() {
    holds(drawn_abs("f64"), vec![]);
}

#[test]
fn relative_bound_holds_for_all_compressors() {
    holds(|c| c.row == "drawn" && matches!(c.bound, ErrorBound::Rel(_)), vec![]);
}

/// The odd-shape rows: 1×N×1, below `MIN_TILE`, rank 4, and constant under
/// `Rel`. The property checks the decoded shape before any sample.
#[test]
fn streams_decode_to_original_shape() {
    let shapes = ["1xNx1", "below-min-tile", "rank4", "constant-rel"];
    let stats = holds(|c| shapes.contains(&c.row), vec![]);
    // ZFP, TTHRESH and SPERR refuse the rank-4 row, through every entry point.
    assert_eq!(stats.iter().map(|s| s.refused).sum::<usize>(), 3 * 3);
}

/// Non-finite and subnormal samples come back with the same bits and never
/// poison a finite neighbour — or, for MGARD and ZFP (whose transforms have
/// no lossless channel), the field is refused with a typed error. SZ3 forced
/// onto its Lorenzo pipeline runs too.
#[test]
fn planted_non_finite_samples_violate_no_bound() {
    use qip::sz3::{Pipeline, Sz3};
    let lorenzo = AnyCompressor::Sz3(Sz3::new().with_pipeline(Pipeline::Lorenzo));
    let stats = holds(|c| c.row == "non-finite", vec![lorenzo]);
    let refused: usize = stats.iter().map(|s| s.refused).sum();
    // 3 plants × 4 placements × (MGARD, MGARD+QP, ZFP) × 3 entry points
    // (compress, compress_into, tiled).
    assert_eq!(refused, 3 * 4 * 3 * 3);
}

/// White noise under `Abs(range / 2¹⁷)` puts `(d − p)/2ε` on both sides of
/// ±32 768, so QP meets `|Q|` near the radius next to `UNPRED`-dense
/// neighbourhoods.
#[test]
fn indices_at_the_quantizer_radius_violate_no_bound() {
    let stats = holds(|c| c.row == "radius", vec![]);
    // The four QP-on bases, through all three entry points.
    assert_eq!(stats.iter().map(|s| s.twins).sum::<usize>(), 4 * 3);
    let row = qip_conformance::hostile().into_iter().find(|c| c.row == "radius").unwrap();
    let field = row.field::<f64>();
    let escaped: u64 = AnyCompressor::base_four(QpConfig::best_fit())
        .iter()
        .map(|comp| {
            let stream = comp.as_dyn::<f64>().compress(&field, row.bound).unwrap();
            qip::inspect::inspect_bytes(&stream).unwrap().qp.map_or(0, |qp| qp.unpredictable)
        })
        .sum();
    assert!(escaped > 0, "no index reached the quantizer radius");
}
