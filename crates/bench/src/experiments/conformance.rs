//! `repro conformance`: run the qip-conformance pillars and report.
//!
//! 1. **Golden vectors** — verify the committed flat and tiled fixtures
//!    under `crates/conformance/golden` (or regenerate them with `--bless`);
//! 2. **Identities** — path identity for every registry compressor over the
//!    case matrix, and tiled identity (tile streams, writer, read paths) at
//!    1/2/8 workers over its shape rows and 16 draws;
//! 3. **Error-bound contract** — the matrix's hostile rows plus 256 seeded
//!    draws per compressor, through all three entry points, with minimized
//!    counterexamples written to `conformance_counterexamples.txt` for CI
//!    artifact upload.
//!
//! Results land in `BENCH_conformance.json`; [`run`] returns `false` when any
//! pillar found a failure so `repro` can exit nonzero.

use super::Opts;
use qip_conformance::{contract, differential, golden, matrix, tiles};
use serde::Serialize;

/// Seeded contract draws per compressor (the acceptance floor).
pub const CONTRACT_CASES: usize = 256;

/// One compressor's row in `BENCH_conformance.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ConformanceRecord {
    /// Compressor name ("SZ3+QP", …).
    pub compressor: String,
    /// Golden fixtures verified for this compressor (0 when `--bless` ran).
    pub golden_vectors: usize,
    /// Golden findings naming this compressor's fixtures.
    pub golden_findings: usize,
    /// Path-identity divergences (serial vs ctx vs traced).
    pub path_divergences: usize,
    /// Tiled-identity divergences (tile streams, writer, read paths at
    /// 1/2/8 workers).
    pub tile_divergences: usize,
    /// Entry-point runs refused with an allowed typed error.
    pub contract_refused: usize,
    /// Worst error/bound ratio across the samples that held.
    pub contract_worst_ratio: f64,
    /// Contract violations (0 = contract holds).
    pub contract_violations: usize,
}

/// Run the conformance suite. With `bless`, regenerate the golden fixtures
/// instead of verifying them. Returns `true` when every pillar passed.
pub fn run(opts: &Opts, bless: bool) -> bool {
    let dir = golden::default_dir();
    let grids = [golden::Grid::flat(), golden::Grid::tiled()];
    let specs = &grids[0].specs;

    // Pillar 1: the flat and the tiled grid share the fixture directory and
    // the bless flag, so one `--bless` refreshes both manifests.
    let mut golden_findings = Vec::new();
    for grid in &grids {
        if !bless {
            golden_findings.extend(grid.verify(&dir));
            continue;
        }
        match grid.bless(&dir) {
            Ok(entries) => {
                let (n, manifest) = (entries.len(), grid.manifest);
                eprintln!("[blessed {n} fixtures of {manifest} into {}]", dir.display())
            }
            Err(e) => {
                eprintln!("[bless failed: {e}]");
                return false;
            }
        }
    }
    for f in &golden_findings {
        eprintln!("[golden] {f}");
    }

    // Pillar 2: path and tiled identity.
    let cases = matrix::matrix(CONTRACT_CASES, 0xC0DE_0000);
    let comps = qip_registry::AnyCompressor::registry();
    let path_divs = differential::path_identity_suite(&comps, &cases);
    for d in &path_divs {
        eprintln!("[paths] {d}");
    }
    let tile_divs = tiles::tile_identity_suite(&matrix::matrix(16, 0x711E_0000));
    for d in &tile_divs {
        eprintln!("[tiles] {d}");
    }

    // Pillar 3: error-bound contract.
    let mut counterexamples = String::new();
    let mut records = Vec::new();
    for stats in contract::contract_suite(&comps, &cases) {
        for v in &stats.violations {
            eprintln!("[contract] {v}");
            counterexamples.push_str(&v.to_string());
            counterexamples.push('\n');
        }
        let name = stats.compressor.clone();
        records.push(ConformanceRecord {
            golden_vectors: specs
                .iter()
                .filter(|(_, s)| !bless && s.compressor == name)
                .count(),
            golden_findings: golden_findings
                .iter()
                .filter(|f| {
                    f.name == "manifest"
                        || specs
                            .iter()
                            .any(|(_, s)| s.compressor == name && s.stem() == f.name)
                })
                .count(),
            path_divergences: path_divs.iter().filter(|d| d.compressor == name).count(),
            tile_divergences: tile_divs.iter().filter(|d| d.compressor == name).count(),
            contract_refused: stats.refused,
            contract_worst_ratio: stats.worst_ratio,
            contract_violations: stats.violations.len(),
            compressor: name,
        });
    }

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.compressor.clone(),
                if bless { "blessed".into() } else { format!("{}/{}", r.golden_vectors - r.golden_findings.min(r.golden_vectors), r.golden_vectors) },
                r.path_divergences.to_string(),
                r.tile_divergences.to_string(),
                r.contract_violations.to_string(),
                r.contract_refused.to_string(),
                format!("{:.3}", r.contract_worst_ratio),
            ]
        })
        .collect();
    crate::report::print_table(
        &format!(
            "Conformance: golden {}, path identity, tiled identity at {:?} workers, {} contract cases each",
            if bless { "blessed" } else { "verified" },
            tiles::SWEEP_THREADS,
            cases.len()
        ),
        &["compressor", "golden ok", "path div", "tile div", "violations", "refused", "worst ratio"],
        &rows,
    );

    if let Err(e) = write_outputs(opts, &records, &counterexamples) {
        eprintln!("[failed to write conformance outputs: {e}]");
    }

    let pass = golden_findings.is_empty() && path_divs.is_empty() && tile_divs.is_empty()
        && records.iter().all(|r| r.contract_violations == 0);
    if pass {
        eprintln!("[conformance: all pillars green]");
    } else {
        eprintln!(
            "[conformance FAILED: {} golden, {} path, {} tile, {} contract]",
            golden_findings.len(),
            path_divs.len(),
            tile_divs.len(),
            records.iter().map(|r| r.contract_violations).sum::<usize>()
        );
    }
    pass
}

fn write_outputs(
    opts: &Opts,
    records: &[ConformanceRecord],
    counterexamples: &str,
) -> std::io::Result<()> {
    crate::report::write_json(&opts.out, "BENCH_conformance.json", &records)?;
    if !counterexamples.is_empty() {
        let cx = opts.out.join("conformance_counterexamples.txt");
        std::fs::write(&cx, counterexamples)?;
        eprintln!("[minimized counterexamples written to {}]", cx.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_pillar_and_writes_json() {
        // A committed-fixture verify plus the full differential and contract
        // grids would be minutes of debug-build runtime; the repro binary
        // covers that. Here: bless into a temp fixture dir is exercised via
        // the conformance crate's own tests, so run the reporting path with
        // the real fixtures if present, tolerating a missing-manifest finding
        // when the checkout predates blessing.
        let opts = Opts {
            scale: 16,
            fields: 1,
            out: std::env::temp_dir().join("qip_conformance_smoke"),
        };
        let records = collect_smoke(&opts);
        assert_eq!(records.len(), 11);
        let json = std::fs::read_to_string(opts.out.join("BENCH_conformance.json")).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(doc.as_array().unwrap().len(), 11);
        assert_eq!(doc[0]["contract_violations"].as_u64(), Some(0));
    }

    /// Tiny-footprint version of [`run`] for the unit test: golden and
    /// identities skipped (covered by qip-conformance's own tests), contract
    /// at 8 draws.
    fn collect_smoke(opts: &Opts) -> Vec<ConformanceRecord> {
        let cases: Vec<matrix::Case> = (0..8).map(matrix::Case::drawn).collect();
        let mut records = Vec::new();
        for stats in contract::contract_suite(&qip_registry::AnyCompressor::registry(), &cases) {
            assert!(stats.violations.is_empty(), "{:?}", stats.violations);
            records.push(ConformanceRecord {
                compressor: stats.compressor,
                golden_vectors: 0,
                golden_findings: 0,
                path_divergences: 0,
                tile_divergences: 0,
                contract_refused: stats.refused,
                contract_worst_ratio: stats.worst_ratio,
                contract_violations: stats.violations.len(),
            });
        }
        super::write_outputs(opts, &records, "").unwrap();
        records
    }
}
