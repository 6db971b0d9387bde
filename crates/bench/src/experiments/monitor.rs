//! `repro monitor` — the production-telemetry monitoring run.
//!
//! Drives every registry compressor over the synthetic corpus with telemetry
//! dormant (detached) and with a live [`MetricsHub`] attached, as back-to-back
//! pairs ([`crate::timing::paired`]), asserting byte-identity between the two
//! and measuring what attaching costs. Per-compressor latency histograms
//! (p50/p90/p99), achieved ratios, and per-level QP accept rates are
//! harvested from the hub and written to `BENCH_telemetry.json`; the merged
//! hub is exported as Prometheus text (`BENCH_telemetry.prom`, validated) and
//! a flight-recorder dump (`BENCH_flight.jsonl`); one representative run is
//! always rendered as collapsed stacks (`BENCH_flame.folded`) for flamegraph
//! tooling.
//!
//! With `--gate PCT` (the CI telemetry-overhead gate uses 0.02) the run exits
//! with an error when the attached/detached throughput ratio — the inverse
//! of the geometric mean of the per-cell paired slowdowns — drops below
//! `1 − PCT`: the "always-on means affordable" contract.

use super::Opts;
use crate::report::{fmt, print_table, write_json};
use crate::timing::paired;
use qip_core::{Compressor, ErrorBound};
use qip_data::Dataset;
use qip_registry::AnyCompressor;
use qip_telemetry::{HistSummary, LevelRate, MetricsHub};
use serde::Serialize;
use std::sync::Arc;

/// The synthetic 3-D corpus.
const MONITOR_DATASETS: [Dataset; 2] = [Dataset::Miranda, Dataset::SegSalt];
/// Value-range-relative bound used for every run.
const REL_EB: f64 = 1e-3;
/// Timed detached/attached pairs per direction (one untimed warm-up of each
/// side precedes them).
const REPS: usize = 5;

/// One (compressor, dataset) monitoring cell.
#[derive(Debug, Clone, Serialize)]
pub struct MonitorRecord {
    /// Compressor name ("SZ3+QP", …).
    pub compressor: String,
    /// Dataset name.
    pub dataset: String,
    /// Field dimensions after `--scale`.
    pub dims: Vec<usize>,
    /// Value-range-relative error bound.
    pub rel_eb: f64,
    /// Achieved compression ratio (identical attached/detached by contract).
    pub cr: f64,
    /// Achieved bitrate in bits per value.
    pub bitrate_bits_per_value: f64,
    /// Compress throughput with telemetry dormant (MB/s, fastest call).
    pub detached_compress_mbs: f64,
    /// Compress throughput with a hub attached (MB/s, fastest call).
    pub attached_compress_mbs: f64,
    /// Decompress throughput with telemetry dormant (MB/s).
    pub detached_decompress_mbs: f64,
    /// Decompress throughput with a hub attached (MB/s).
    pub attached_decompress_mbs: f64,
    /// Median over the pairs of attached/detached compress time (1.0 = free;
    /// what the gate reads).
    pub attached_compress_slowdown: f64,
    /// Median over the pairs of attached/detached decompress time.
    pub attached_decompress_slowdown: f64,
    /// Compress latency histogram harvested from the hub (ns).
    pub compress_latency_ns: HistSummary,
    /// Decompress latency histogram harvested from the hub (ns).
    pub decompress_latency_ns: HistSummary,
    /// Per-level QP acceptance rates from the newest compress flight record
    /// (empty for non-QP and transform compressors).
    pub qp_accept_rates: Vec<LevelRate>,
}

/// Pull the summary of `name{compressor="comp"}` out of a hub snapshot.
fn hist_summary(hub: &MetricsHub, name: &str, comp: &str) -> HistSummary {
    hub.snapshot()
        .hists
        .iter()
        .find(|(k, _)| {
            k.name == name
                && k.labels.iter().any(|(lk, lv)| lk == "compressor" && lv == comp)
        })
        .map(|(_, s)| *s)
        .unwrap_or(HistSummary { count: 0, sum: 0, p50: 0, p90: 0, p99: 0, max: 0 })
}

/// Run `call` with `hub` attached (the `b` side of every pair).
fn attached<R>(hub: &Arc<MetricsHub>, call: impl FnOnce() -> R) -> R {
    qip_telemetry::attach(Arc::clone(hub));
    let out = call();
    qip_telemetry::detach();
    out
}

/// Measure one cell. The per-cell hub keeps the latency histograms scoped to
/// this (compressor, dataset) pair; the caller merges it into the run-wide
/// hub afterwards (exercising the mergeability contract in production code).
fn measure(comp: &AnyCompressor, ds: Dataset, dims: &[usize], cell_hub: &Arc<MetricsHub>) -> MonitorRecord {
    let field = ds.generate_f32(0, dims);
    let raw_mb = (field.len() * 4) as f64 / 1e6;
    let bound = ErrorBound::Rel(REL_EB);
    let name = Compressor::<f32>::name(comp);

    // Every pair is one call with telemetry dormant (the production idle
    // path), then the same call with the hub live. The hard invariant the CI
    // gate leans on: telemetry observes, never steers — identical bytes and
    // identical reconstruction.
    assert!(!qip_telemetry::active(), "telemetry must be dormant between attached calls");
    let compress = || comp.compress(&field, bound).expect("compress failed");
    let c = paired(REPS, compress, || attached(cell_hub, compress));
    assert_eq!(c.a, c.b, "{name} on {}: bytes diverge with a metrics hub attached", ds.name());
    let decompress =
        || -> qip_tensor::Field<f32> { comp.decompress(&c.a).expect("decompress failed") };
    let d = paired(REPS, decompress, || attached(cell_hub, decompress));
    assert_eq!(
        d.a.as_slice(),
        d.b.as_slice(),
        "{name} on {}: values diverge with a metrics hub attached",
        ds.name()
    );

    let qp_accept_rates = cell_hub
        .recorder
        .records()
        .iter()
        .rev()
        .find(|r| r.op == "compress" && r.compressor == name)
        .map(|r| r.qp_accept_rates.clone())
        .unwrap_or_default();

    MonitorRecord {
        compressor: name,
        dataset: ds.name().to_string(),
        dims: dims.to_vec(),
        rel_eb: REL_EB,
        cr: (field.len() * 4) as f64 / c.a.len() as f64,
        bitrate_bits_per_value: c.a.len() as f64 * 8.0 / field.len() as f64,
        detached_compress_mbs: raw_mb / c.a_s.max(1e-9),
        attached_compress_mbs: raw_mb / c.b_s.max(1e-9),
        detached_decompress_mbs: raw_mb / d.a_s.max(1e-9),
        attached_decompress_mbs: raw_mb / d.b_s.max(1e-9),
        attached_compress_slowdown: c.ratio,
        attached_decompress_slowdown: d.ratio,
        compress_latency_ns: hist_summary(cell_hub, "qip.compress.duration_ns", &Compressor::<f32>::name(comp)),
        decompress_latency_ns: hist_summary(cell_hub, "qip.decompress.duration_ns", &Compressor::<f32>::name(comp)),
        qp_accept_rates,
    }
}

/// Attached/detached throughput ratio: the inverse of the geometric mean of
/// the paired slowdowns over every cell and both directions (the overhead
/// gate's statistic; 1.0 = telemetry is free).
pub fn overhead_geomean(records: &[MonitorRecord]) -> f64 {
    let logs: Vec<f64> = records
        .iter()
        .flat_map(|r| [r.attached_compress_slowdown, r.attached_decompress_slowdown])
        .map(f64::ln)
        .collect();
    (-logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// Run the monitoring grid, write the artifacts, and apply the overhead gate
/// when `gate` is given. Returns `Err` (for exit code 1) on a gate failure.
pub fn run(opts: &Opts, gate: Option<f64>) -> Result<Vec<MonitorRecord>, String> {
    let registry = AnyCompressor::registry();
    let run_hub = MetricsHub::new();

    let mut records = Vec::new();
    for ds in MONITOR_DATASETS {
        let dims = ds.scaled_dims(opts.scale);
        for comp in &registry {
            let cell_hub = Arc::new(MetricsHub::new());
            records.push(measure(comp, ds, &dims, &cell_hub));
            run_hub.merge(&cell_hub);
        }
    }

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.compressor.clone(),
                fmt(r.detached_compress_mbs),
                fmt(r.attached_compress_mbs),
                format!("{:.0}", r.compress_latency_ns.p50 as f64 / 1e3),
                format!("{:.0}", r.compress_latency_ns.p99 as f64 / 1e3),
                fmt(r.cr),
                r.qp_accept_rates
                    .iter()
                    .map(|lr| format!("l{}:{:.2}", lr.level, lr.rate))
                    .collect::<Vec<_>>()
                    .join(" "),
            ]
        })
        .collect();
    print_table(
        "Monitor: telemetry-attached runs (MB/s, latency µs, QP accept rates)",
        &["dataset", "compressor", "detached", "attached", "p50µs", "p99µs", "CR", "qp accept"],
        &rows,
    );

    let geomean = overhead_geomean(&records);
    eprintln!(
        "[telemetry overhead: attached/detached throughput ratio {geomean:.4} \
         (geometric mean of the paired per-cell ratios)]"
    );

    if let Err(e) = write_artifacts(opts, &records, &run_hub) {
        eprintln!("[failed to write monitor artifacts: {e}]");
    }

    if let Some(max_overhead) = gate {
        if geomean < 1.0 - max_overhead {
            return Err(format!(
                "telemetry overhead gate failed: attached/detached geomean {:.4} < {:.4} allowed",
                geomean,
                1.0 - max_overhead
            ));
        }
        eprintln!("[overhead gate passed: {:.4} >= {:.4}]", geomean, 1.0 - max_overhead);
    }
    Ok(records)
}

fn write_artifacts(
    opts: &Opts,
    records: &[MonitorRecord],
    run_hub: &MetricsHub,
) -> std::io::Result<()> {
    write_json(&opts.out, "BENCH_telemetry.json", &records)?;

    // The merged run-wide hub, in both exporter formats, plus the flight dump.
    let prom = qip_telemetry::export::prometheus_text(run_hub);
    if let Err(e) = qip_telemetry::export::check_prometheus_text(&prom) {
        eprintln!("[BUG: merged-hub Prometheus export failed validation: {e}]");
    }
    std::fs::write(opts.out.join("BENCH_telemetry.prom"), prom)?;
    std::fs::write(
        opts.out.join("BENCH_telemetry_snapshot.json"),
        qip_telemetry::export::json_snapshot(run_hub),
    )?;
    std::fs::write(opts.out.join("BENCH_flight.jsonl"), run_hub.recorder.dump_jsonl())?;

    // A sample flamegraph: one traced SZ3+QP compress rendered as collapsed
    // stacks.
    let field = Dataset::SegSalt.generate_f32(0, &Dataset::SegSalt.scaled_dims(opts.scale.max(8)));
    let comp = AnyCompressor::by_name("sz3+qp").expect("sz3 exists");
    let (_, report) = qip_telemetry::with_session(|| {
        comp.compress(&field, ErrorBound::Rel(REL_EB)).expect("compress failed")
    });
    let folded = qip_telemetry::flame::collapsed_stacks(&report);
    std::fs::write(opts.out.join("BENCH_flame.folded"), folded)?;
    eprintln!("[exporters written to {}]", opts.out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_monitor_runs_and_gates() {
        let opts = Opts {
            scale: 32,
            fields: 1,
            out: std::env::temp_dir().join("qip_monitor_test"),
        };
        // No gate: tiny fields make per-call overhead ratios meaningless, so
        // the smoke test only checks the artifacts and the invariants the
        // asserts inside `measure` enforce.
        let records = run(&opts, None).expect("ungated run cannot fail");
        assert_eq!(records.len(), 2 * 11);
        for r in &records {
            assert!(r.cr > 1.0, "{}: CR {}", r.compressor, r.cr);
            assert!(r.compress_latency_ns.count >= 1, "{}: no latency samples", r.compressor);
            assert!(r.compress_latency_ns.p50 <= r.compress_latency_ns.p99);
            assert!(r.compress_latency_ns.p99 <= r.compress_latency_ns.max);
        }
        assert!(
            records.iter().any(|r| r.compressor.ends_with("+QP") && !r.qp_accept_rates.is_empty()),
            "no +QP cell reported accept rates"
        );
        let json = std::fs::read_to_string(opts.out.join("BENCH_telemetry.json")).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(doc.as_array().unwrap().len(), records.len());
        assert!(doc[0]["compress_latency_ns"]["p99"].as_u64().is_some());
        assert!(doc[0]["attached_compress_slowdown"].as_f64().is_some());
        assert!(doc[0]["attached_decompress_slowdown"].as_f64().is_some());
        let prom = std::fs::read_to_string(opts.out.join("BENCH_telemetry.prom")).unwrap();
        qip_telemetry::export::check_prometheus_text(&prom).expect("valid Prometheus text");
        assert!(opts.out.join("BENCH_flame.folded").exists());
        assert!(opts.out.join("BENCH_flight.jsonl").exists());
    }

    #[test]
    fn overhead_geomean_math() {
        let mk = |slowdown: f64| MonitorRecord {
            compressor: "SZ3".into(),
            dataset: "SegSalt".into(),
            dims: vec![8, 8, 8],
            rel_eb: 1e-3,
            cr: 10.0,
            bitrate_bits_per_value: 3.2,
            detached_compress_mbs: 100.0,
            attached_compress_mbs: 100.0,
            detached_decompress_mbs: 100.0,
            attached_decompress_mbs: 100.0,
            attached_compress_slowdown: slowdown,
            attached_decompress_slowdown: slowdown,
            compress_latency_ns: HistSummary { count: 1, sum: 1, p50: 1, p90: 1, p99: 1, max: 1 },
            decompress_latency_ns: HistSummary { count: 1, sum: 1, p50: 1, p90: 1, p99: 1, max: 1 },
            qp_accept_rates: Vec::new(),
        };
        assert!((overhead_geomean(&[mk(1.0)]) - 1.0).abs() < 1e-12);
        // The gate reads the paired ratios, not the MB/s columns.
        let g = overhead_geomean(&[mk(1.25)]);
        assert!((g - 0.8).abs() < 1e-12, "{g}");
    }
}
