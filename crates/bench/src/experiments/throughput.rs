//! Tracked throughput benchmark: allocating vs reusable-buffer API.
//!
//! Runs every registry compressor over a synthetic 3-D corpus and measures,
//! side by side, the allocating `compress`/`decompress` path and the
//! `compress_into`/`decompress_into` path driven by one reused
//! [`CompressCtx`]. Divergence between the two paths' output bytes is a hard
//! failure (the CI smoke run leans on this), so the numbers always describe
//! two implementations of the *same* stream. Results land in
//! `BENCH_throughput.json` (schema: docs/benchmarks.md).

use super::Opts;
use crate::alloc_track::count_allocs_during;
use crate::registry::AnyCompressor;
use crate::report::{fmt, print_table};
use qip_core::{CompressCtx, Compressor, ErrorBound};
use qip_data::Dataset;
use serde::Serialize;
use std::time::Instant;

/// The synthetic 3-D corpus (both generate above the chunked-entropy
/// threshold at the default `--scale 4`).
const THROUGHPUT_DATASETS: [Dataset; 2] = [Dataset::Miranda, Dataset::SegSalt];
/// Value-range-relative bound used for every run.
const REL_EB: f64 = 1e-3;
/// Timed repetitions per path (best-of; one untimed warmup precedes them).
const REPS: usize = 5;

/// One (compressor, dataset) measurement: both API paths, same stream.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputRecord {
    /// Compressor name ("SZ3+QP", …).
    pub compressor: String,
    /// Dataset name.
    pub dataset: String,
    /// Field dimensions after `--scale`.
    pub dims: Vec<usize>,
    /// Value-range-relative error bound.
    pub rel_eb: f64,
    /// Compression ratio (identical for both paths by construction).
    pub cr: f64,
    /// Allocating `compress` throughput (MB/s of raw input, best of reps).
    pub compress_mbs: f64,
    /// Reused-ctx `compress_into` throughput (MB/s, best of reps).
    pub compress_into_mbs: f64,
    /// Allocating `decompress` throughput (MB/s of raw output).
    pub decompress_mbs: f64,
    /// Reused-ctx `decompress_into` throughput (MB/s).
    pub decompress_into_mbs: f64,
    /// Heap allocation requests during one allocating `compress` call.
    pub compress_allocs: u64,
    /// Heap allocation requests during one warm `compress_into` call.
    pub compress_into_allocs: u64,
    /// Compress speedup of the reused-ctx path over the allocating path (%).
    pub speedup_pct: f64,
}

/// Compressor-name prefixes of the interpolation family whose plain
/// `compress` is routed through the ctx scratch arena.
const INTERP_FAMILIES: [&str; 3] = ["SZ3", "QoZ", "HPEZ"];

/// Allocation-count regression gate for the interpolation family: plain
/// `compress` delegates to `compress_into` with a fresh context, so its
/// request count must stay within a small multiple of one warm
/// `compress_into` call — a slide back to per-point allocation (~5.6M
/// requests on SegSalt before the routing fix) trips this immediately.
/// Counts read zero unless the counting allocator is installed (only the
/// `repro` binary installs it), in which case the gate is a no-op.
fn assert_alloc_budget(name: &str, ds: Dataset, plain: u64, warm: u64) {
    if plain == 0 || !INTERP_FAMILIES.iter().any(|p| name.starts_with(p)) {
        return;
    }
    // Fresh-ctx overhead: arena/pool construction plus trial-compression
    // scratch growth. Generous fixed headroom, but ~50× under the per-point
    // regression this exists to catch.
    let budget = warm.saturating_mul(8).max(100_000);
    assert!(
        plain <= budget,
        "{name} on {}: plain compress made {plain} heap allocation requests \
         (warm compress_into: {warm}, budget: {budget}) — the ctx-arena \
         routing of the plain API has regressed",
        ds.name()
    );
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut out = f(); // warmup (also primes the ctx pools)
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (out, best)
}

fn measure(comp: &AnyCompressor, ds: Dataset, dims: &[usize]) -> ThroughputRecord {
    let field = ds.generate_f32(0, dims);
    let raw_mb = (field.len() * 4) as f64 / 1e6;
    let bound = ErrorBound::Rel(REL_EB);
    let name = Compressor::<f32>::name(comp);

    let (baseline, t_alloc) =
        best_of(REPS, || comp.compress(&field, bound).expect("compress failed"));

    let mut ctx = CompressCtx::new();
    let mut out = Vec::new();
    let (_, t_ctx) = best_of(REPS, || {
        comp.compress_into(&field, bound, &mut ctx, &mut out).expect("compress_into failed")
    });
    assert_eq!(
        baseline, out,
        "{name} on {}: compress_into diverged from compress",
        ds.name()
    );

    let (_, compress_allocs) =
        count_allocs_during(|| comp.compress(&field, bound).expect("compress failed"));
    let (_, compress_into_allocs) = count_allocs_during(|| {
        comp.compress_into(&field, bound, &mut ctx, &mut out).expect("compress_into failed")
    });
    assert_alloc_budget(&name, ds, compress_allocs, compress_into_allocs);

    let (plain, t_d) =
        best_of(REPS, || -> qip_tensor::Field<f32> {
            comp.decompress(&baseline).expect("decompress failed")
        });
    let (reused, t_d_ctx) = best_of(REPS, || -> qip_tensor::Field<f32> {
        comp.decompress_into(&out, &mut ctx).expect("decompress_into failed")
    });
    assert_eq!(
        plain.as_slice(),
        reused.as_slice(),
        "{name} on {}: decompress_into diverged from decompress",
        ds.name()
    );

    ThroughputRecord {
        compressor: name,
        dataset: ds.name().to_string(),
        dims: dims.to_vec(),
        rel_eb: REL_EB,
        cr: (field.len() * 4) as f64 / baseline.len() as f64,
        compress_mbs: raw_mb / t_alloc.max(1e-9),
        compress_into_mbs: raw_mb / t_ctx.max(1e-9),
        decompress_mbs: raw_mb / t_d.max(1e-9),
        decompress_into_mbs: raw_mb / t_d_ctx.max(1e-9),
        compress_allocs,
        compress_into_allocs,
        speedup_pct: (t_alloc / t_ctx.max(1e-12) - 1.0) * 100.0,
    }
}

/// Run the throughput grid, print the table, and write
/// `BENCH_throughput.json` under `opts.out`. Returns the records.
pub fn run(opts: &Opts) -> Vec<ThroughputRecord> {
    let registry = AnyCompressor::registry();

    let mut records = Vec::new();
    for ds in THROUGHPUT_DATASETS {
        let dims = ds.scaled_dims(opts.scale);
        for comp in &registry {
            records.push(measure(comp, ds, &dims));
        }
    }

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.compressor.clone(),
                fmt(r.compress_mbs),
                fmt(r.compress_into_mbs),
                format!("{:+.1}%", r.speedup_pct),
                fmt(r.decompress_mbs),
                fmt(r.decompress_into_mbs),
                r.compress_allocs.to_string(),
                r.compress_into_allocs.to_string(),
                fmt(r.cr),
            ]
        })
        .collect();
    print_table(
        "Throughput: allocating vs reused-context (MB/s, best of reps)",
        &[
            "dataset",
            "compressor",
            "compress",
            "compress_into",
            "speedup",
            "decompress",
            "decompress_into",
            "allocs",
            "allocs_into",
            "CR",
        ],
        &rows,
    );

    if let Err(e) = write_json(opts, &records) {
        eprintln!("[failed to write BENCH_throughput.json: {e}]");
    }
    if let Err(e) = append_history_at(&super::history_path(), opts.scale, &records) {
        eprintln!("[failed to append BENCH_history.jsonl: {e}]");
    }
    records
}

/// Append this run to the canonical repo-root `BENCH_history.jsonl` (see
/// [`super::history_path`]), one self-contained line per run:
/// `{"ts_unix":…,"scale":…,"records":[…]}`. The file accumulates across runs
/// so trends survive individual `BENCH_throughput.json` overwrites, and the
/// regression gate accepts it directly (`--baseline BENCH_history.jsonl`
/// compares against the newest entry).
fn append_history_at(
    path: &std::path::Path,
    scale: usize,
    records: &[ThroughputRecord],
) -> std::io::Result<()> {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut line = format!("{{\"ts_unix\":{ts},\"scale\":{scale},\"records\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&serde_json::to_string(r).expect("serializable record"));
    }
    line.push_str("]}\n");
    super::append_history_line_to(path, &line)
}

/// The four throughput metrics the baseline gate compares.
const GATED_METRICS: [&str; 4] =
    ["compress_mbs", "compress_into_mbs", "decompress_mbs", "decompress_into_mbs"];

fn metric(r: &ThroughputRecord, name: &str) -> f64 {
    match name {
        "compress_mbs" => r.compress_mbs,
        "compress_into_mbs" => r.compress_into_mbs,
        "decompress_mbs" => r.decompress_mbs,
        "decompress_into_mbs" => r.decompress_into_mbs,
        _ => unreachable!("unknown gated metric {name}"),
    }
}

/// Load the baseline record objects from either supported layout: a
/// `BENCH_throughput.json` array, or a `BENCH_history.jsonl` file (one run
/// object per line; the newest line's `records` array becomes the baseline).
fn load_baseline(baseline_path: &std::path::Path) -> Result<Vec<crate::jsonx::Json>, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("read {}: {e}", baseline_path.display()))?;
    let looks_jsonl = text.trim_start().starts_with('{');
    if looks_jsonl {
        let runs = crate::jsonx::parse_lines(&text)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        // The history file is shared with other experiments (`repro serve`
        // appends `"serve"`-keyed lines); the baseline is the newest line
        // that actually carries a throughput records array.
        let records = runs
            .iter()
            .rev()
            .find_map(|run| run.get("records").and_then(|r| r.as_arr()))
            .ok_or_else(|| {
                format!("{}: no history entry has a records array", baseline_path.display())
            })?;
        Ok(records.to_vec())
    } else {
        let doc = crate::jsonx::parse(&text)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        let records = doc
            .as_arr()
            .ok_or_else(|| format!("{}: expected a top-level array", baseline_path.display()))?;
        Ok(records.to_vec())
    }
}

/// Compare `records` against a previous run — either a `BENCH_throughput.json`
/// array or a `BENCH_history.jsonl` (newest entry wins) — and fail when the
/// geometric mean over every (record, metric) throughput ratio drops below
/// `1 − max_regression` (e.g. 0.05 = 5%). The geometric mean over 4 metrics ×
/// all (compressor, dataset) cells absorbs single-cell timing noise; the CI
/// `trace-overhead` step uses this to pin "trace compiled but disabled" to
/// within 5% of a feature-off build.
pub fn compare_baseline(
    records: &[ThroughputRecord],
    baseline_path: &std::path::Path,
    max_regression: f64,
) -> Result<(), String> {
    let (geomean, ratios) = geomean_vs_baseline(records, baseline_path)?;
    eprintln!(
        "[baseline gate: geometric-mean throughput ratio {:.4} over {} cells; worst: {} {:.3}, best: {} {:.3}]",
        geomean,
        ratios.len(),
        ratios[0].0,
        ratios[0].1,
        ratios[ratios.len() - 1].0,
        ratios[ratios.len() - 1].1,
    );
    if geomean < 1.0 - max_regression {
        let worst: Vec<String> =
            ratios.iter().take(5).map(|(n, r)| format!("  {n}: {r:.3}×")).collect();
        return Err(format!(
            "throughput regressed: geomean {:.4} < {:.4} allowed; worst cells:\n{}",
            geomean,
            1.0 - max_regression,
            worst.join("\n")
        ));
    }
    Ok(())
}

/// Per-(record, gated metric) new/old throughput ratios against the baseline
/// file, plus their geometric mean. Ratios come back sorted ascending. Errors
/// on malformed baselines or an empty match.
fn geomean_vs_baseline(
    records: &[ThroughputRecord],
    baseline_path: &std::path::Path,
) -> Result<(f64, Vec<(String, f64)>), String> {
    let baseline = load_baseline(baseline_path)?;
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for entry in &baseline {
        let (Some(comp), Some(ds)) = (entry.str("compressor"), entry.str("dataset")) else {
            return Err(format!("baseline record lacks compressor/dataset: {entry:?}"));
        };
        let Some(new) = records.iter().find(|r| r.compressor == comp && r.dataset == ds) else {
            continue; // baseline may cover a superset (e.g. different scale grid)
        };
        for m in GATED_METRICS {
            let Some(old) = entry.num(m) else {
                return Err(format!("baseline record for {comp}/{ds} lacks {m}"));
            };
            if old > 0.0 {
                ratios.push((format!("{comp}/{ds}/{m}"), metric(new, m) / old));
            }
        }
    }
    if ratios.is_empty() {
        return Err(format!(
            "no baseline records in {} match the current run",
            baseline_path.display()
        ));
    }
    let geomean =
        (ratios.iter().map(|(_, r)| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    ratios.sort_by(|a, b| a.1.total_cmp(&b.1));
    Ok((geomean, ratios))
}

fn write_json(opts: &Opts, records: &[ThroughputRecord]) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out)?;
    let path = opts.out.join("BENCH_throughput.json");
    let mut s = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        s.push_str("  ");
        s.push_str(&serde_json::to_string(r).expect("serializable record"));
    }
    s.push_str("\n]\n");
    std::fs::write(&path, s)?;
    eprintln!("[results written to {}]", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_runs_and_paths_agree() {
        // Scale 32 keeps this a smoke test; the assert_eq divergence gates
        // inside `measure` are the actual property under test.
        let opts = Opts {
            scale: 32,
            fields: 1,
            out: std::env::temp_dir().join("qip_throughput_test"),
        };
        // Keep the smoke run's history line out of the committed repo-root
        // file (no other test in this binary reads `history_path`).
        std::env::set_var("QIP_BENCH_HISTORY", opts.out.join("BENCH_history.jsonl"));
        let records = run(&opts);
        assert_eq!(records.len(), 2 * 11);
        for r in &records {
            assert!(r.cr > 1.0, "{}: CR {}", r.compressor, r.cr);
            assert!(r.compress_mbs > 0.0 && r.compress_into_mbs > 0.0);
        }
        let json =
            std::fs::read_to_string(opts.out.join("BENCH_throughput.json")).unwrap();
        assert!(json.trim_start().starts_with('['));
        assert!(json.contains("\"compress_into_mbs\""));
    }

    fn fake_record(mbs: f64) -> ThroughputRecord {
        ThroughputRecord {
            compressor: "SZ3".into(),
            dataset: "SegSalt".into(),
            dims: vec![8, 8, 8],
            rel_eb: 1e-3,
            cr: 10.0,
            compress_mbs: mbs,
            compress_into_mbs: mbs,
            decompress_mbs: mbs,
            decompress_into_mbs: mbs,
            compress_allocs: 1,
            compress_into_allocs: 0,
            speedup_pct: 0.0,
        }
    }

    #[test]
    fn baseline_gate_accepts_self_and_rejects_regression() {
        let opts = Opts {
            scale: 32,
            fields: 1,
            out: std::env::temp_dir().join("qip_baseline_test"),
        };
        let baseline = vec![fake_record(100.0)];
        write_json(&opts, &baseline).unwrap();
        let path = opts.out.join("BENCH_throughput.json");
        // Identical run passes; 4% regression passes a 5% gate; 10% fails it.
        assert!(compare_baseline(&baseline, &path, 0.05).is_ok());
        assert!(compare_baseline(&[fake_record(96.0)], &path, 0.05).is_ok());
        let err = compare_baseline(&[fake_record(90.0)], &path, 0.05).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // A baseline that matches nothing is an error, not a silent pass.
        assert!(compare_baseline(&[], &path, 0.05).is_err());
    }

    #[test]
    fn baseline_gate_reads_history_jsonl() {
        let out = std::env::temp_dir().join("qip_history_test");
        let path = out.join("BENCH_history.jsonl");
        let _ = std::fs::remove_file(&path);
        // Two appended runs; the gate must compare against the NEWEST line.
        append_history_at(&path, 32, &[fake_record(50.0)]).unwrap();
        append_history_at(&path, 32, &[fake_record(100.0)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let runs = crate::jsonx::parse_lines(&text).unwrap();
        assert!(runs[0].num("ts_unix").is_some());
        assert_eq!(runs[0].num("scale"), Some(32.0));
        assert!(compare_baseline(&[fake_record(97.0)], &path, 0.05).is_ok());
        let err = compare_baseline(&[fake_record(60.0)], &path, 0.05).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // A newer serve-keyed line (no records array) must not become the
        // baseline — the gate keeps comparing against the newest throughput
        // entry.
        {
            use std::io::Write;
            let mut f =
                std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"ts_unix\":1,\"scale\":32,\"serve\":{\"chaos\":{\"hangs\":0}}}\n")
                .unwrap();
        }
        assert!(compare_baseline(&[fake_record(97.0)], &path, 0.05).is_ok());
        assert!(compare_baseline(&[fake_record(60.0)], &path, 0.05).is_err());
    }
}
