//! `repro serve` — load-generate against an in-process `qip-serve` server.
//!
//! Three phases, all against live TCP sockets on loopback:
//!
//! 1. **Closed loop**: one client per registry compressor under test sends
//!    compress requests back-to-back and we report p50/p99 latency and
//!    sustained RPS. Every response is decompressed through the server again
//!    and byte-compared against the offline [`AnyCompressor`] output, so the
//!    numbers always describe a *correct* server.
//! 2. **Open loop / overload**: several concurrent clients hammer a
//!    deliberately small deployment (one worker, shallow queue). The server
//!    must shed with typed `SERVER_BUSY` instead of queueing without bound —
//!    the recorded max queue depth proves the bound held — and expired
//!    deadlines must come back as `DEADLINE_EXCEEDED`.
//! 3. **Chaos**: the seeded frame-corruption client from `qip-serve` replays
//!    truncations, bit flips, oversized declared lengths, mid-frame
//!    disconnects and slow-loris trickles; every case must end in a typed
//!    error or a clean close. Zero hangs, zero escaped panics.
//!
//! Results land in `BENCH_serve.json` and one self-contained line is appended
//! to `BENCH_history.jsonl` (keyed `"serve"`). The run returns `Err` — and
//! `repro serve` exits nonzero — when any robustness gate fails.

use super::Opts;
use crate::registry::AnyCompressor;
use crate::report::{fmt, print_table, write_json};
use qip_core::{Compressor, ErrorBound};
use qip_serve::chaos::{self, ChaosConfig};
use qip_serve::wire::{Status, WireBound};
use qip_serve::{Client, ServeConfig, Server};
use serde::Serialize;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Compressors exercised by the closed-loop phase (≥3 registry entries,
/// covering an interpolation base, a +QP variant, and a comparator).
const CLOSED_LOOP_COMPRESSORS: [&str; 4] = ["SZ3", "SZ3+QP", "QoZ+QP", "ZFP"];
/// Timed requests per compressor in the closed loop (2 warmups precede them).
const CLOSED_LOOP_REQUESTS: usize = 24;
/// Concurrent clients in the overload phase.
const OVERLOAD_CLIENTS: usize = 6;
/// Requests each overload client sends back-to-back.
const OVERLOAD_REQUESTS_PER_CLIENT: usize = 6;
/// Seeded corruption cases in the chaos phase.
const CHAOS_CASES: usize = 150;

/// Closed-loop latency/throughput for one compressor.
#[derive(Debug, Clone, Serialize)]
pub struct ClosedLoopRecord {
    /// Canonical registry name.
    pub compressor: String,
    /// Field dimensions sent over the wire.
    pub dims: Vec<usize>,
    /// Timed requests.
    pub requests: usize,
    /// Median round-trip latency (ms) of a compress request.
    pub p50_ms: f64,
    /// 99th-percentile round-trip latency (ms).
    pub p99_ms: f64,
    /// Sustained requests per second over the timed window.
    pub rps: f64,
    /// Server stream byte-identical to offline `AnyCompressor` output.
    pub bytes_identical: bool,
}

/// Open-loop overload phase summary.
#[derive(Debug, Clone, Serialize)]
pub struct OverloadRecord {
    /// Workers in the deliberately small deployment.
    pub workers: usize,
    /// Per-worker queue bound.
    pub queue_depth: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Total requests sent.
    pub requests: usize,
    /// `OK` responses.
    pub ok: usize,
    /// Typed `SERVER_BUSY` refusals observed by clients.
    pub busy: usize,
    /// Typed `DEADLINE_EXCEEDED` responses observed by clients.
    pub deadline_exceeded: usize,
    /// Server-side shed counter.
    pub shed: u64,
    /// Server-side deadline-miss counter.
    pub deadline_miss: u64,
    /// High-water queue depth the server ever recorded.
    pub max_queue_depth: u64,
    /// Shed rate over all requests.
    pub shed_rate: f64,
}

/// Chaos phase summary (mirrors `qip_serve::chaos::ChaosReport`).
#[derive(Debug, Clone, Serialize)]
pub struct ChaosRecord {
    /// Corruption cases replayed.
    pub cases: usize,
    /// Cases answered with a typed error status.
    pub typed_errors: usize,
    /// Cases whose corruption left the frame valid (answered `OK`).
    pub ok: usize,
    /// Cases ending in a clean connection close.
    pub clean_closes: usize,
    /// Cases that hung past the patience window (must be 0).
    pub hangs: usize,
    /// Panics that escaped worker isolation (must be 0).
    pub server_panics: u64,
}

/// The full `BENCH_serve.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Closed-loop latency rows.
    pub closed_loop: Vec<ClosedLoopRecord>,
    /// Overload/shedding summary.
    pub overload: OverloadRecord,
    /// Chaos summary.
    pub chaos: ChaosRecord,
}

/// Synthetic field sized by `--scale` (paper-independent; the serve benchmark
/// measures the service, not the compressors).
fn field_bytes(opts: &Opts) -> (Vec<usize>, Vec<u8>) {
    let side = (96 / opts.scale.max(1)).clamp(8, 96);
    let dims = vec![side, side, side];
    let field = qip_conformance::synth::<f32>(qip_conformance::FieldFamily::Smooth, 7, &dims);
    (dims, field.to_le_bytes())
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn closed_loop(
    addr: std::net::SocketAddr,
    max_frame: usize,
    opts: &Opts,
) -> Result<Vec<ClosedLoopRecord>, String> {
    let (dims, payload) = field_bytes(opts);
    let dims_u32: Vec<u32> = dims.iter().map(|&d| d as u32).collect();
    let bound = ErrorBound::Abs(1e-3);
    let mut records = Vec::new();

    for name in CLOSED_LOOP_COMPRESSORS {
        let offline = AnyCompressor::by_name(name)
            .map_err(|e| format!("closed loop: {e}"))?;
        let field =
            qip_tensor::Field::<f32>::from_le_bytes(qip_tensor::Shape::new(&dims), &payload)
                .map_err(|e| format!("closed loop: field decode failed: {e:?}"))?;
        let expect = offline
            .compress(&field, bound)
            .map_err(|e| format!("closed loop: offline {name} failed: {e:?}"))?;

        let mut client = Client::connect(addr, Duration::from_secs(120), max_frame)
            .map_err(|e| format!("closed loop: connect failed: {e:?}"))?;
        let mut latencies_ms = Vec::with_capacity(CLOSED_LOOP_REQUESTS);
        let mut identical = true;
        let started = Instant::now();
        for i in 0..CLOSED_LOOP_REQUESTS + 2 {
            let t = Instant::now();
            let resp = client
                .compress(name, 32, &dims_u32, WireBound::Abs(1e-3), payload.clone(), 0)
                .map_err(|e| format!("closed loop: {name} request failed: {e:?}"))?;
            if resp.status != Status::Ok {
                return Err(format!("closed loop: {name} answered {}", resp.reason()));
            }
            if i >= 2 {
                // Warmups primed the worker's CompressCtx; time the rest.
                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            identical &= resp.payload == expect;
        }
        let elapsed = started.elapsed().as_secs_f64();

        // Round-trip the stream through the server's decompress path too.
        let back = client
            .decompress(32, expect.clone(), 0)
            .map_err(|e| format!("closed loop: {name} decompress failed: {e:?}"))?;
        if back.status != Status::Ok {
            return Err(format!("closed loop: {name} decompress answered {}", back.reason()));
        }
        let offline_back: qip_tensor::Field<f32> = offline
            .decompress(&expect)
            .map_err(|e| format!("closed loop: offline {name} decompress failed: {e:?}"))?;
        identical &= back.payload == offline_back.to_le_bytes();

        if !identical {
            return Err(format!("closed loop: {name} server bytes diverged from offline"));
        }
        latencies_ms.sort_by(f64::total_cmp);
        records.push(ClosedLoopRecord {
            compressor: name.to_string(),
            dims: dims.clone(),
            requests: CLOSED_LOOP_REQUESTS,
            p50_ms: percentile(&latencies_ms, 0.50),
            p99_ms: percentile(&latencies_ms, 0.99),
            rps: (CLOSED_LOOP_REQUESTS + 2) as f64 / elapsed.max(1e-9),
            bytes_identical: identical,
        });
    }
    Ok(records)
}

fn overload(opts: &Opts) -> Result<OverloadRecord, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 2,
        max_conns: OVERLOAD_CLIENTS + 2,
        read_timeout: Duration::from_secs(120),
        write_timeout: Duration::from_secs(120),
        ..ServeConfig::default()
    };
    let queue_depth = config.queue_depth;
    let max_frame = config.max_frame_bytes;
    let handle = Server::start(config).map_err(|e| format!("overload: start failed: {e}"))?;
    let addr = handle.addr();
    let (dims, payload) = field_bytes(opts);
    let dims_u32: Vec<u32> = dims.iter().map(|&d| d as u32).collect();

    let mut threads = Vec::new();
    for c in 0..OVERLOAD_CLIENTS {
        let payload = payload.clone();
        let dims_u32 = dims_u32.clone();
        threads.push(std::thread::spawn(move || -> Result<(usize, usize, usize), String> {
            let mut client = Client::connect(addr, Duration::from_secs(120), max_frame)
                .map_err(|e| format!("overload client {c}: connect failed: {e:?}"))?;
            let (mut ok, mut busy, mut deadline) = (0, 0, 0);
            for i in 0..OVERLOAD_REQUESTS_PER_CLIENT {
                // One request per client carries a 1 ms deadline: if it sits
                // behind the single worker it must come back typed, not late.
                let deadline_ms = if i == OVERLOAD_REQUESTS_PER_CLIENT - 1 { 1 } else { 0 };
                let resp = client
                    .compress("SZ3", 32, &dims_u32, WireBound::Abs(1e-3), payload.clone(), deadline_ms)
                    .map_err(|e| format!("overload client {c}: request failed: {e:?}"))?;
                match resp.status {
                    Status::Ok => ok += 1,
                    Status::ServerBusy => busy += 1,
                    Status::DeadlineExceeded => deadline += 1,
                    other => {
                        return Err(format!(
                            "overload client {c}: unexpected status {}",
                            other.name()
                        ))
                    }
                }
            }
            Ok((ok, busy, deadline))
        }));
    }
    let (mut ok, mut busy, mut deadline) = (0usize, 0usize, 0usize);
    for t in threads {
        let (o, b, d) = t.join().map_err(|_| "overload: client thread panicked".to_string())??;
        ok += o;
        busy += b;
        deadline += d;
    }

    let stats = handle.join();
    let requests = OVERLOAD_CLIENTS * OVERLOAD_REQUESTS_PER_CLIENT;
    let record = OverloadRecord {
        workers: 1,
        queue_depth,
        clients: OVERLOAD_CLIENTS,
        requests,
        ok,
        busy,
        deadline_exceeded: deadline,
        shed: stats.shed.load(Ordering::SeqCst),
        deadline_miss: stats.deadline_miss.load(Ordering::SeqCst),
        max_queue_depth: stats.max_queue_depth.load(Ordering::SeqCst),
        shed_rate: busy as f64 / requests as f64,
    };

    if ok + busy + deadline != requests {
        return Err(format!("overload: {requests} requests but {ok} ok + {busy} busy + {deadline} deadline"));
    }
    if record.max_queue_depth > queue_depth as u64 {
        return Err(format!(
            "overload: queue depth {} exceeded the configured bound {queue_depth}",
            record.max_queue_depth
        ));
    }
    if ok == 0 {
        return Err("overload: server shed everything; no request ever completed".into());
    }
    if stats.panics.load(Ordering::SeqCst) != 0 {
        return Err("overload: a panic escaped worker isolation".into());
    }
    Ok(record)
}

fn chaos_phase() -> Result<ChaosRecord, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let max_frame = config.max_frame_bytes;
    let handle = Server::start(config).map_err(|e| format!("chaos: start failed: {e}"))?;
    let report = chaos::run(
        handle.addr(),
        &ChaosConfig {
            cases: CHAOS_CASES,
            seed: 0x5E12_BEEF,
            patience: Duration::from_secs(10),
            max_slow_loris: 8,
            max_frame,
        },
    );
    let stats = handle.join();
    let record = ChaosRecord {
        cases: report.cases,
        typed_errors: report.typed_errors,
        ok: report.ok,
        clean_closes: report.clean_closes,
        hangs: report.hangs,
        server_panics: stats.panics.load(Ordering::SeqCst),
    };
    if !report.all_handled() {
        return Err(format!(
            "chaos: {} hangs, {} connect failures; failing cases: {:?}",
            report.hangs, report.connect_failures, report.failing_cases
        ));
    }
    if record.server_panics != 0 {
        return Err(format!("chaos: {} panics escaped worker isolation", record.server_panics));
    }
    Ok(record)
}

/// Run all three phases, print the tables, write `BENCH_serve.json`, append
/// to `BENCH_history.jsonl`, and return `Err` if any robustness gate failed.
pub fn run(opts: &Opts) -> Result<ServeReport, String> {
    // Phase 1+: one well-provisioned server for the latency numbers.
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        read_timeout: Duration::from_secs(120),
        write_timeout: Duration::from_secs(120),
        ..ServeConfig::default()
    };
    let max_frame = config.max_frame_bytes;
    let handle = Server::start(config).map_err(|e| format!("serve: start failed: {e}"))?;
    let closed = closed_loop(handle.addr(), max_frame, opts)?;
    let stats = handle.join();
    if stats.panics.load(Ordering::SeqCst) != 0 {
        return Err("closed loop: a panic escaped worker isolation".into());
    }

    let over = overload(opts)?;
    let chaos = chaos_phase()?;
    let report = ServeReport { closed_loop: closed, overload: over, chaos };

    let rows: Vec<Vec<String>> = report
        .closed_loop
        .iter()
        .map(|r| {
            vec![
                r.compressor.clone(),
                format!("{:?}", r.dims),
                fmt(r.p50_ms),
                fmt(r.p99_ms),
                fmt(r.rps),
                r.bytes_identical.to_string(),
            ]
        })
        .collect();
    print_table(
        "Serve closed loop (per-request latency over TCP loopback)",
        &["compressor", "dims", "p50 ms", "p99 ms", "RPS", "byte-identical"],
        &rows,
    );
    eprintln!(
        "[overload: {} req → {} ok / {} busy / {} deadline; shed_rate {:.2}, max queue depth {} (bound {})]",
        report.overload.requests,
        report.overload.ok,
        report.overload.busy,
        report.overload.deadline_exceeded,
        report.overload.shed_rate,
        report.overload.max_queue_depth,
        report.overload.queue_depth,
    );
    eprintln!(
        "[chaos: {} cases → {} typed / {} clean closes / {} ok, {} hangs, {} panics]",
        report.chaos.cases,
        report.chaos.typed_errors,
        report.chaos.clean_closes,
        report.chaos.ok,
        report.chaos.hangs,
        report.chaos.server_panics,
    );

    if let Err(e) = write_json(&opts.out, "BENCH_serve.json", &report) {
        eprintln!("[failed to write BENCH_serve.json: {e}]");
    }
    if let Err(e) = super::append_history_at(&super::history_path(), "serve", opts.scale, &report) {
        eprintln!("[failed to append BENCH_history.jsonl: {e}]");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_sane_indices() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.50), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
