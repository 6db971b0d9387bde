//! Acceptance criterion: ≥500 seeded malformed/truncated/slow-client frames
//! against a live server → 100% typed error responses or clean closes, zero
//! hangs, zero panics escaping isolation — and none of it burns the
//! availability SLO, because a corrupt frame is the client's mistake. Run in
//! CI by the serve-smoke job (job timeout doubles as the hang detector).

mod chaos;

use chaos::ChaosConfig;
use qip_serve::wire::Status;
use qip_serve::{Client, ServeConfig, Server};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The attached telemetry hub is process-global, and the trace-echo test
/// below deliberately answers `SERVER_BUSY` and `DEADLINE_EXCEEDED`, which
/// burn the budget; the two tests serialize on this. Poison-tolerant, so one
/// failure does not cascade into the other.
static HUB_LOCK: Mutex<()> = Mutex::new(());

fn hub_guard() -> MutexGuard<'static, ()> {
    HUB_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn five_hundred_corrupt_frames_never_hang_or_panic() {
    let _guard = hub_guard();
    // Only server faults (panics, shed load, missed deadlines) may burn the
    // availability budget; the SLO objectives record every answered frame.
    let hub = Arc::new(qip_telemetry::MetricsHub::with_tail(16, 8));
    qip_telemetry::attach(Arc::clone(&hub));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        // Short read timeout so the slow-loris cases resolve quickly; the
        // client's patience (below) comfortably exceeds it.
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let max_frame = cfg.max_frame_bytes;
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr();

    let report = chaos::run(
        addr,
        &ChaosConfig {
            cases: 500,
            seed: 0xC4A5_0001,
            patience: Duration::from_secs(10),
            max_slow_loris: 8,
            max_frame,
        },
    );

    assert_eq!(report.cases, 500);
    assert!(
        report.all_handled(),
        "chaos run failed: hangs={} connect_failures={} failing={:?}",
        report.hangs,
        report.connect_failures,
        report.failing_cases
    );
    // Every case is accounted for by a typed answer, a clean close, or a
    // corruption that happened to leave the frame valid.
    assert_eq!(
        report.typed_errors + report.clean_closes + report.ok,
        report.cases,
        "{report:?}"
    );
    // The corruption kinds guarantee plenty of both typed answers (bit
    // flips, oversize declarations) and clean closes (truncations).
    assert!(report.typed_errors >= 100, "{report:?}");
    assert!(report.clean_closes >= 100, "{report:?}");

    // The server is still alive and serving after the storm.
    let mut probe = Client::connect(addr, Duration::from_secs(5), max_frame).unwrap();
    assert_eq!(probe.ping().unwrap().status, Status::Ok);
    let payload: Vec<u8> = (0..1024u32).flat_map(|v| (v as f32).to_le_bytes()).collect();
    let resp = probe
        .compress("SZ3", 32, &[1024], qip_serve::wire::WireBound::Abs(1e-3), payload, 0)
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.reason());
    drop(probe);

    let stats = handle.join();
    qip_telemetry::detach();
    assert_eq!(stats.panics.load(Ordering::SeqCst), 0, "panic escaped isolation");

    let snapshot = hub.slo.snapshot();
    let availability = snapshot
        .objectives
        .iter()
        .find(|o| o.kind == "availability")
        .expect("the default objectives declare availability");
    assert!(availability.total > 0, "the objective saw no traffic: {availability:?}");
    assert_eq!(availability.bad, 0, "client mistakes burned the budget: {availability:?}");
    assert!(!snapshot.breached().contains(&availability.name), "{snapshot:?}");
}

/// Satellite: every response frame — success, typed error, shed, and
/// deadline — echoes the request's trace ID byte-for-byte, and
/// server-assigned IDs are unique across the run. `workers: 1,
/// queue_depth: 2` makes the shed/deadline phase deterministic: two large
/// noisy compresses occupy the worker and a queue slot, a 1 ms-deadline
/// request expires waiting behind them, and further requests overflow.
#[test]
fn every_status_echoes_the_trace_id_and_assigned_ids_are_unique() {
    let _guard = hub_guard();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 2,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let max_frame = cfg.max_frame_bytes;
    let handle = Server::start(cfg).unwrap();

    let report = chaos::run_trace_echo(
        handle.addr(),
        &ChaosConfig {
            cases: 16,
            seed: 0xC4A5_0002,
            patience: Duration::from_secs(60),
            max_slow_loris: 0,
            max_frame,
        },
    );

    assert!(
        report.all_echoed(),
        "trace echo violated: mismatches={:?} assigned={} zero={} dups={}",
        report.mismatches,
        report.assigned,
        report.assigned_zero,
        report.assigned_duplicates
    );
    assert_eq!(report.transport_errors, 0, "{report:?}");
    for status in ["OK", "UNKNOWN_COMPRESSOR", "SERVER_BUSY", "DEADLINE_EXCEEDED"] {
        assert!(report.saw_status(status), "never saw {status}: {report:?}");
    }

    let stats = handle.join();
    assert_eq!(stats.panics.load(Ordering::SeqCst), 0, "panic escaped isolation");
}
