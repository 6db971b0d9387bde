//! `repro conformance`: run the three qip-conformance pillars and report.
//!
//! 1. **Golden vectors** — verify the committed fixtures under
//!    `crates/conformance/golden` (or regenerate them with `--bless`);
//! 2. **Differential oracles** — path identity for every registry compressor
//!    plus the tiled-container thread sweep at 1/2/8 workers;
//! 3. **Error-bound contract** — ≥256 seeded cases per compressor, with
//!    minimized counterexamples written to `conformance_counterexamples.txt`
//!    for CI artifact upload;
//! 4. **Tiled container** — the committed tiled golden containers
//!    (`tiled_manifest.tsv`, blessed alongside the flat fixtures) plus the
//!    region oracle: seeded random regions where `read_region` must be
//!    byte-identical to slicing the full decode.
//!
//! Results land in `BENCH_conformance.json`; [`run`] returns `false` when any
//! pillar found a failure so `repro` can exit nonzero.

use super::Opts;
use qip_conformance::{contract, differential, golden, tiles};
use serde::Serialize;
use std::time::Instant;

/// Contract cases per compressor (the acceptance floor).
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
    /// Thread-sweep divergences (tiled container at 1/2/8 workers).
    pub sweep_divergences: usize,
    /// Contract cases run.
    pub contract_cases: usize,
    /// Contract cases drawn with a Rel bound.
    pub contract_rel_cases: usize,
    /// Worst in-bound error/tolerance ratio across passing cases.
    pub contract_worst_ratio: f64,
    /// Minimized bound violations (0 = contract holds).
    pub contract_violations: usize,
    /// Wall seconds spent in this compressor's contract run.
    pub contract_secs: f64,
}

/// Run the conformance suite. With `bless`, regenerate the golden fixtures
/// instead of verifying them. Returns `true` when every pillar passed.
pub fn run(opts: &Opts, bless: bool) -> bool {
    let dir = golden::default_dir();
    let grids = [golden::Grid::flat(), golden::Grid::tiled()];
    let specs = &grids[0].specs;

    // Pillars 1 and 4 (golden half): the flat and the tiled grid share the
    // fixture directory and the bless flag, so one `--bless` refreshes both
    // manifests.
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

    // Pillar 4 (differential half): the region oracle.
    let region_divs = tiles::region_oracle_suite(tiles::REGION_CASES, 0x7153_0000);
    for d in &region_divs {
        eprintln!("[region] {d}");
    }
    eprintln!(
        "[tiled: {} fixtures {}, region oracle {} cases/cell over {} compressors: {} divergence(s)]",
        grids[1].specs.len(),
        if bless { "blessed" } else { "verified" },
        tiles::REGION_CASES,
        golden::TILED_COMPRESSORS.len(),
        region_divs.len()
    );

    // Pillar 2: differential oracles.
    let path_divs = differential::path_identity_suite();
    for d in &path_divs {
        eprintln!("[paths] {} [{}]: {}", d.compressor, d.case, d.problem);
    }
    let sweep_divs = differential::thread_sweep_suite();
    for d in &sweep_divs {
        eprintln!("[sweep] {} [{}]: {}", d.compressor, d.case, d.problem);
    }

    // Pillar 3: error-bound contract, one compressor at a time.
    let mut counterexamples = String::new();
    let mut records = Vec::new();
    for comp in qip_registry::AnyCompressor::registry() {
        let t = Instant::now();
        let stats = contract::contract_suite(&comp, CONTRACT_CASES, 0xC0DE_0000);
        let contract_secs = t.elapsed().as_secs_f64();
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
            sweep_divergences: sweep_divs.iter().filter(|d| d.compressor == name).count(),
            contract_cases: stats.cases,
            contract_rel_cases: stats.rel_cases,
            contract_worst_ratio: stats.worst_ratio,
            contract_violations: stats.violations.len(),
            contract_secs,
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
                r.sweep_divergences.to_string(),
                format!("{}/{}", r.contract_cases - r.contract_violations, r.contract_cases),
                r.contract_rel_cases.to_string(),
                format!("{:.3}", r.contract_worst_ratio),
                format!("{:.1}", r.contract_secs),
            ]
        })
        .collect();
    crate::report::print_table(
        &format!(
            "Conformance: golden {}, path identity, thread sweep {:?}, {} contract cases each",
            if bless { "blessed" } else { "verified" },
            differential::SWEEP_THREADS,
            CONTRACT_CASES
        ),
        &["compressor", "golden ok", "path div", "sweep div", "contract ok", "rel", "worst ratio", "secs"],
        &rows,
    );

    if let Err(e) = write_outputs(opts, &records, &counterexamples) {
        eprintln!("[failed to write conformance outputs: {e}]");
    }

    let pass = golden_findings.is_empty() && path_divs.is_empty() && sweep_divs.is_empty()
        && region_divs.is_empty()
        && records.iter().all(|r| r.contract_violations == 0);
    if pass {
        eprintln!("[conformance: all pillars green]");
    } else {
        eprintln!(
            "[conformance FAILED: {} golden, {} path, {} sweep, {} contract, {} region]",
            golden_findings.len(),
            path_divs.len(),
            sweep_divs.len(),
            records.iter().map(|r| r.contract_violations).sum::<usize>(),
            region_divs.len()
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

    /// Tiny-footprint version of [`run`] for the unit test: golden + paths
    /// skipped (covered by qip-conformance's own tests), contract at 8 cases.
    fn collect_smoke(opts: &Opts) -> Vec<ConformanceRecord> {
        let mut records = Vec::new();
        for comp in qip_registry::AnyCompressor::registry() {
            let t = Instant::now();
            let stats = contract::contract_suite(&comp, 8, 0xC0DE_0000);
            assert!(stats.violations.is_empty(), "{:?}", stats.violations);
            records.push(ConformanceRecord {
                compressor: stats.compressor,
                golden_vectors: 0,
                golden_findings: 0,
                path_divergences: 0,
                sweep_divergences: 0,
                contract_cases: stats.cases,
                contract_rel_cases: stats.rel_cases,
                contract_worst_ratio: stats.worst_ratio,
                contract_violations: stats.violations.len(),
                contract_secs: t.elapsed().as_secs_f64(),
            });
        }
        super::write_outputs(opts, &records, "").unwrap();
        records
    }
}
