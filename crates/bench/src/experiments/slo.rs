//! `repro slo` — SLO burn-rate tracking of a live `qip-serve` deployment.
//!
//! Two phases against one server with a telemetry hub carrying declarative
//! objectives (availability and latency, see
//! [`qip_telemetry::slo::default_objectives`]) and the always-on tail
//! sampler:
//!
//! 1. **Load**: closed-loop compress traffic from several clients. Every
//!    response must be `OK`; the availability budget must not burn.
//! 2. **Chaos**: seeded corrupt frames (the `qip-serve` chaos client).
//!    Unparseable frames are answered `BAD_FRAME` — a *client* mistake, so
//!    by design they must NOT burn the availability budget either.
//!
//! The window clock is compressed (`WINDOW_SCALE`) so the 5m/1h/6h/3d
//! multi-window burn rates are meaningful over a seconds-long run. Results
//! land in `BENCH_slo.json` (per-objective windows, burn rates, compliance)
//! next to `BENCH_tails.jsonl` (the tail sampler's retained stage traces)
//! and `BENCH_events.jsonl` (the server's per-request event log), and one
//! line is appended to `BENCH_history.jsonl` keyed `"slo"`. The run returns
//! `Err` — and `repro slo` exits nonzero — when any availability or latency
//! objective is breached, which is the CI gate.

use super::Opts;
use qip_serve::chaos::{self, ChaosConfig};
use qip_serve::wire::{Status, WireBound};
use qip_serve::{Client, ServeConfig, Server};
use qip_telemetry::{MetricsHub, SloSnapshot};
use serde::Serialize;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Clock compression for the SLO windows: 5m → 0.3 s, 1h → 3.6 s,
/// 6h → 21.6 s, 3d → 259 s, so a seconds-long run populates the fast
/// windows and the slow windows span the whole run.
const WINDOW_SCALE: f64 = 1e-3;
/// Concurrent load clients.
const LOAD_CLIENTS: usize = 4;
/// Compress requests each load client sends back-to-back.
const LOAD_REQUESTS_PER_CLIENT: usize = 12;
/// Tail sampler reservoir size and deterministic sampling period.
const TAIL_CAPACITY: usize = 128;
const TAIL_SAMPLE_EVERY: u64 = 8;
/// Seeded corruption cases in the chaos phase.
const CHAOS_CASES: usize = 100;

/// One traffic phase's client-side accounting.
#[derive(Debug, Clone, Serialize)]
pub struct SloPhase {
    /// Phase label (`"load"` or `"chaos"`).
    pub name: String,
    /// Requests sent (load) or corruption cases replayed (chaos).
    pub requests: usize,
    /// `OK` responses.
    pub ok: usize,
    /// Typed non-OK responses.
    pub typed_errors: usize,
}

/// The full `BENCH_slo.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct SloReport {
    /// Clock compression applied to the objective windows.
    pub window_scale: f64,
    /// Load-phase accounting.
    pub load: SloPhase,
    /// Chaos-phase accounting.
    pub chaos: SloPhase,
    /// Tail records retained by the sampler across both phases.
    pub tail_records: usize,
    /// The sampler's rolling p99 latency estimate (ns).
    pub tail_p99_ns: u64,
    /// Per-objective totals, multi-window burn rates, and compliance.
    pub snapshot: SloSnapshot,
}

fn load_phase(
    addr: std::net::SocketAddr,
    max_frame: usize,
    opts: &Opts,
) -> Result<SloPhase, String> {
    let side = (64 / opts.scale.max(1)).clamp(8, 64);
    let dims = vec![side, side, side];
    let field = qip_conformance::synth::<f32>(qip_conformance::FieldFamily::Smooth, 11, &dims);
    let payload = field.to_le_bytes();
    let dims_u32: Vec<u32> = dims.iter().map(|&d| d as u32).collect();

    let mut threads = Vec::new();
    for c in 0..LOAD_CLIENTS {
        let payload = payload.clone();
        let dims_u32 = dims_u32.clone();
        threads.push(std::thread::spawn(move || -> Result<usize, String> {
            let mut client = Client::connect(addr, Duration::from_secs(120), max_frame)
                .map_err(|e| format!("load client {c}: connect failed: {e:?}"))?;
            let mut ok = 0;
            for _ in 0..LOAD_REQUESTS_PER_CLIENT {
                let resp = client
                    .compress("SZ3", 32, &dims_u32, WireBound::Abs(1e-3), payload.clone(), 0)
                    .map_err(|e| format!("load client {c}: request failed: {e:?}"))?;
                if resp.status != Status::Ok {
                    return Err(format!("load client {c}: answered {}", resp.reason()));
                }
                ok += 1;
            }
            Ok(ok)
        }));
    }
    let mut ok = 0;
    for t in threads {
        ok += t.join().map_err(|_| "load: client thread panicked".to_string())??;
    }
    let requests = LOAD_CLIENTS * LOAD_REQUESTS_PER_CLIENT;
    Ok(SloPhase { name: "load".into(), requests, ok, typed_errors: requests - ok })
}

/// Run both phases, print the burn-rate table, write `BENCH_slo.json`,
/// `BENCH_tails.jsonl`, and `BENCH_events.jsonl`, append to
/// `BENCH_history.jsonl`, and return `Err` when any objective is breached.
pub fn run(opts: &Opts) -> Result<SloReport, String> {
    let hub = Arc::new(MetricsHub::with_slo_and_tail(
        qip_telemetry::slo::default_objectives(),
        WINDOW_SCALE,
        TAIL_CAPACITY,
        TAIL_SAMPLE_EVERY,
    ));
    qip_telemetry::attach(Arc::clone(&hub));
    let result = run_phases(opts, &hub);
    qip_telemetry::detach();
    result
}

fn run_phases(opts: &Opts, hub: &Arc<MetricsHub>) -> Result<SloReport, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        read_timeout: Duration::from_millis(300), // chaos slow-loris resolves fast
        write_timeout: Duration::from_secs(120),
        ..ServeConfig::default()
    };
    let max_frame = config.max_frame_bytes;
    let handle = Server::start(config).map_err(|e| format!("slo: start failed: {e}"))?;
    let addr = handle.addr();

    let load = load_phase(addr, max_frame, opts)?;

    let chaos_report = chaos::run(
        addr,
        &ChaosConfig {
            cases: CHAOS_CASES,
            seed: 0x510_0001,
            patience: Duration::from_secs(10),
            max_slow_loris: 4,
            max_frame,
        },
    );
    if !chaos_report.all_handled() {
        return Err(format!(
            "slo chaos: {} hangs, {} connect failures",
            chaos_report.hangs, chaos_report.connect_failures
        ));
    }
    let chaos = SloPhase {
        name: "chaos".into(),
        requests: chaos_report.cases,
        ok: chaos_report.ok,
        typed_errors: chaos_report.typed_errors,
    };

    let events = handle.events_jsonl();
    let stats = handle.join();
    if stats.panics.load(Ordering::SeqCst) != 0 {
        return Err("slo: a panic escaped worker isolation".into());
    }

    hub.slo.publish(hub);
    let snapshot = hub.slo.snapshot();
    let report = SloReport {
        window_scale: WINDOW_SCALE,
        load,
        chaos,
        tail_records: hub.tail.len(),
        tail_p99_ns: hub.tail.p99_estimate_ns().unwrap_or(0),
        snapshot: snapshot.clone(),
    };

    let rows: Vec<Vec<String>> = snapshot
        .objectives
        .iter()
        .flat_map(|o| {
            o.windows.iter().map(move |w| {
                vec![
                    o.name.clone(),
                    w.window.to_string(),
                    w.total.to_string(),
                    w.bad.to_string(),
                    format!("{:.4}", w.burn_rate),
                    format!("{:.5}", o.compliance),
                    o.breached.to_string(),
                ]
            })
        })
        .collect();
    crate::print_table(
        "SLO multi-window burn rates (scaled clock)",
        &["objective", "window", "total", "bad", "burn rate", "compliance", "breached"],
        &rows,
    );
    eprintln!(
        "[tails: {} records retained, rolling p99 {} ns]",
        report.tail_records, report.tail_p99_ns
    );

    if let Err(e) = write_artifacts(opts, &report, hub, &events) {
        eprintln!("[failed to write slo artifacts: {e}]");
    }
    if let Err(e) = super::append_history_at(&super::history_path(), "slo", opts.scale, &report) {
        eprintln!("[failed to append BENCH_history.jsonl: {e}]");
    }

    // The CI gate: load is well-provisioned and chaos frames are client
    // mistakes, so a burned availability (or latency) budget means the
    // server misbehaved.
    let breached = snapshot.breached();
    if !breached.is_empty() {
        return Err(format!("slo: objectives breached during load/chaos: {breached:?}"));
    }
    if report.load.ok != report.load.requests {
        return Err(format!(
            "slo: load phase had {} non-OK responses",
            report.load.requests - report.load.ok
        ));
    }
    Ok(report)
}

fn write_artifacts(
    opts: &Opts,
    report: &SloReport,
    hub: &Arc<MetricsHub>,
    events: &str,
) -> std::io::Result<()> {
    crate::report::write_json(&opts.out, "BENCH_slo.json", report)?;
    let tails_path = opts.out.join("BENCH_tails.jsonl");
    std::fs::write(&tails_path, hub.tail.dump_jsonl())?;
    eprintln!("[tail reservoir written to {}]", tails_path.display());
    let events_path = opts.out.join("BENCH_events.jsonl");
    std::fs::write(&events_path, events)?;
    eprintln!("[request events written to {}]", events_path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_history_line_parses_and_carries_its_key() {
        let out = std::env::temp_dir().join("qip_slo_history_test");
        let path = out.join("BENCH_history.jsonl");
        let _ = std::fs::remove_file(&path);
        let tracker = qip_telemetry::SloTracker::default();
        let report = SloReport {
            window_scale: WINDOW_SCALE,
            load: SloPhase { name: "load".into(), requests: 1, ok: 1, typed_errors: 0 },
            chaos: SloPhase { name: "chaos".into(), requests: 0, ok: 0, typed_errors: 0 },
            tail_records: 0,
            tail_p99_ns: 0,
            snapshot: tracker.snapshot(),
        };
        crate::experiments::append_history_at(&path, "slo", 48, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let run: serde_json::Value = serde_json::from_str(text.trim_end()).unwrap();
        assert!(run.get("slo").is_some() && run["scale"].as_u64() == Some(48));
        assert!(run.get("records").is_none());
    }
}
