//! Ledger exactness over every committed fixture: for all 66 golden flat
//! streams and all 10 tiled containers, the forensic ledger's components must
//! sum to the stream length *exactly*, the report JSON — without and with the
//! pinned input — must hash to its line of `report_pin.txt`, and the error
//! budget against the pinned input must show zero bound violations.
//!
//! CI runs this suite at `RAYON_NUM_THREADS=1` and `=8`; one digest file for
//! both runs is the thread-determinism pin.

use qip_conformance::golden::{default_dir, tiled_specs, vector_specs, TILE_EDGE};
use qip_conformance::{synth, FieldFamily};
use qip_core::integrity::crc32;
use qip_inspect::{inspect_bytes, inspect_bytes_with_original, InspectReport};

/// `stem crc32 len` of `InspectReport::to_json()` for every fixture, without
/// and with (`stem+original`) its pinned input, written before the stream
/// parsers were unified: component names, their order, byte counts,
/// `index_bits` and `bits_exact` are all inside the digest. A line changes
/// only with a deliberate report change.
const REPORT_PIN: &str = include_str!("report_pin.txt");

fn assert_pinned(stem: &str, report: &InspectReport) {
    let json = report.to_json();
    let line = format!("{stem} {:08x} {}", crc32(json.as_bytes()), json.len());
    assert!(REPORT_PIN.lines().any(|l| l == line), "report drifted from report_pin.txt: {line}");
}

/// Inspect one fixture without and with its pinned input: the ledger sums to
/// the stream length *exactly*, both reports match their pinned digests, and
/// the error budget shows zero bound violations.
fn check(
    stem: &str,
    dtype: &str,
    family: FieldFamily,
    seed: u64,
    dims: &[usize],
) -> (Vec<u8>, InspectReport) {
    let path = default_dir().join(format!("{stem}.bin"));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let report = inspect_bytes(&bytes).unwrap_or_else(|e| panic!("{stem}: inspect failed: {e}"));
    assert_eq!(
        report.ledger_total(),
        bytes.len() as u64,
        "{stem}: ledger does not sum to the stream length ({:?})",
        report.ledger
    );
    let end = report.spans.iter().try_fold(0, |at, s| (s.start == at).then_some(s.end));
    assert_eq!(end, Some(bytes.len()), "{stem}: spans do not tile the stream ({:?})", report.spans);
    assert_eq!(report.dims, dims, "{stem}");
    assert_pinned(stem, &report);

    let with_original = match dtype {
        "f64" => inspect_bytes_with_original(&bytes, &synth::<f64>(family, seed, dims)),
        _ => inspect_bytes_with_original(&bytes, &synth::<f32>(family, seed, dims)),
    }
    .unwrap_or_else(|e| panic!("{stem}: inspect against the original failed: {e}"));
    assert_pinned(&format!("{stem}+original"), &with_original);
    let budget = with_original.error_budget.unwrap();
    assert_eq!(budget.violations, 0, "{stem}: error bound violated");
    assert!(budget.max_margin <= 1.0 + 1e-9, "{stem}: margin {}", budget.max_margin);
    let n: u64 = dims.iter().product::<usize>() as u64;
    assert_eq!(budget.margin_histogram.iter().sum::<u64>(), n, "{stem}");
    (bytes, report)
}

#[test]
fn every_fixture_has_its_two_pinned_digests() {
    assert_eq!(REPORT_PIN.lines().count(), 2 * (66 + 10));
}

#[test]
fn golden_vectors_ledger_exact() {
    let specs = vector_specs();
    assert_eq!(specs.len(), 66, "golden grid drifted; update this suite");
    for (_, spec) in &specs {
        let stem = spec.stem();
        let (_, report) = check(&stem, spec.dtype, spec.family, spec.seed, &spec.dims);
        // Every QP-capable stream reports per-level decision counters that
        // tile the field, and a priced index cost.
        if let Some(qp) = &report.qp {
            let points: u64 = qp.levels.iter().map(|l| l.points).sum();
            let n: u64 = spec.dims.iter().product::<usize>() as u64;
            assert_eq!(points + qp.anchors, n, "{stem}: levels do not tile the field");
            for l in &qp.levels {
                assert!(l.accepted <= l.points && l.fired <= l.accepted, "{stem}");
                assert!(l.index_bits >= 0.0, "{stem}");
            }
            let priced: f64 = qp.levels.iter().map(|l| l.index_bits).sum();
            let index_bytes: u64 = report.component_bytes("index.payload")
                + report.component_bytes("index.tables")
                + report.component_bytes("index.framing")
                + report.component_bytes("index");
            if index_bytes > 0 && qp.levels.iter().all(|l| l.bits_exact) {
                // Exact Huffman pricing can never exceed the payload bits.
                assert!(
                    priced <= (index_bytes * 8) as f64 + 1.0,
                    "{stem}: priced {priced} bits vs {index_bytes} payload bytes"
                );
            }
        }
    }
}

#[test]
fn golden_vectors_cover_all_eleven_compressors() {
    let mut names: Vec<String> =
        vector_specs().iter().map(|(_, s)| s.compressor.clone()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 11, "expected all 11 registry compressors: {names:?}");
}

#[test]
fn tiled_fixtures_ledger_exact() {
    let specs = tiled_specs();
    assert_eq!(specs.len(), 10, "tiled grid drifted; update this suite");
    for (_, spec) in &specs {
        let stem = spec.stem();
        let (bytes, report) = check(&stem, spec.dtype, spec.family, spec.seed, &spec.dims);
        assert_eq!(report.kind, "tiled", "{stem}");
        let rollup = report.tiles.as_ref().unwrap_or_else(|| panic!("{stem}: no rollup"));
        // 21×17 at tile edge 8 → 3×3 grid.
        let expect: usize =
            spec.dims.iter().map(|&d| d.div_ceil(TILE_EDGE)).product();
        assert_eq!(rollup.tiles, expect, "{stem}");
        assert!(rollup.min_tile_bytes <= rollup.median_tile_bytes, "{stem}");
        assert!(rollup.median_tile_bytes <= rollup.max_tile_bytes, "{stem}");
        assert_eq!(rollup.by_compressor.len(), 1, "{stem}");
        assert_eq!(rollup.by_compressor[0].compressor, spec.compressor, "{stem}");

        // Container components are present and the per-tile rollup accounts
        // for the whole payload.
        let container_overhead =
            report.component_bytes("container.header") + report.component_bytes("container.index");
        assert_eq!(
            container_overhead + rollup.by_compressor[0].bytes,
            bytes.len() as u64,
            "{stem}: container overhead + tile bytes must cover the stream"
        );
    }
}
