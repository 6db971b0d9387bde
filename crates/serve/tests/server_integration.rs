//! End-to-end tests against a live in-process server: byte-identity with the
//! offline registry, typed error behavior, load shedding, deadlines, and
//! graceful drain.

use qip_core::{Compressor, ErrorBound};
use qip_registry::AnyCompressor;
use qip_serve::wire::{Status, WireBound};
use qip_serve::{Client, ServeConfig, Server};
use qip_tensor::Field;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

const MAX_FRAME: usize = 64 << 20;

fn quick_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

fn client_for(handle: &qip_serve::ServerHandle) -> Client {
    Client::connect(handle.addr(), Duration::from_secs(10), MAX_FRAME).unwrap()
}

/// The attached telemetry hub is process-global and every running server
/// reports into it. A test that attaches one holds [`hub_guard`], which
/// excludes every other server of this file, so the hub counts only that
/// test's requests; a test whose server runs without a hub holds
/// [`hubless`]. Poison-tolerant: a failing test must not cascade.
static HUB_LOCK: RwLock<()> = RwLock::new(());

fn hub_guard() -> RwLockWriteGuard<'static, ()> {
    HUB_LOCK.write().unwrap_or_else(|e| e.into_inner())
}

fn hubless() -> RwLockReadGuard<'static, ()> {
    HUB_LOCK.read().unwrap_or_else(|e| e.into_inner())
}

/// The records of a JSONL dump (events, flight) stamped with `trace`.
fn records_with(jsonl: &str, trace: &str) -> Vec<serde_json::Value> {
    jsonl
        .lines()
        .map(|l| -> serde_json::Value { serde_json::from_str(l).unwrap() })
        .filter(|r| r["trace_id"].as_str() == Some(trace))
        .collect()
}

/// Acceptance criterion: server responses match offline `AnyCompressor`
/// output bit-for-bit, across compressors and field families (reusing the
/// conformance oracles' field generator).
#[test]
fn served_bytes_are_identical_to_offline() {
    let _h = hubless();
    let handle = Server::start(quick_config()).unwrap();
    let mut client = client_for(&handle);

    let dims = [20usize, 18, 16];
    let wire_dims: Vec<u32> = dims.iter().map(|&d| d as u32).collect();
    for name in ["SZ3+QP", "QoZ", "ZFP", "HPEZ+QP"] {
        for family in [
            qip_conformance::FieldFamily::Smooth,
            qip_conformance::FieldFamily::Banded,
        ] {
            let field: Field<f32> = qip_conformance::synth(family, 7, &dims);
            let offline = AnyCompressor::by_name(name)
                .unwrap()
                .compress(&field, ErrorBound::Abs(1e-3))
                .unwrap();

            let resp = client
                .compress(name, 32, &wire_dims, WireBound::Abs(1e-3), field.to_le_bytes(), 0)
                .unwrap();
            assert_eq!(resp.status, Status::Ok, "{name}/{family:?}: {}", resp.reason());
            assert_eq!(resp.payload, offline, "{name}/{family:?}: served stream differs");

            // And back: served decompression matches offline decompression.
            let offline_field: Field<f32> =
                AnyCompressor::by_name(name).unwrap().decompress(&offline).unwrap();
            let resp = client.decompress(32, resp.payload, 0).unwrap();
            assert_eq!(resp.status, Status::Ok, "{name}/{family:?}: {}", resp.reason());
            assert_eq!(
                resp.payload,
                offline_field.to_le_bytes(),
                "{name}/{family:?}: served field differs"
            );
        }
    }
    let stats = handle.join();
    assert_eq!(stats.panics.load(std::sync::atomic::Ordering::SeqCst), 0);
}

#[test]
fn f64_round_trip_through_server() {
    let _h = hubless();
    let handle = Server::start(quick_config()).unwrap();
    let mut client = client_for(&handle);
    let dims = [12usize, 12, 12];
    let field: Field<f64> = qip_conformance::synth(qip_conformance::FieldFamily::Turbulent, 3, &dims);
    let resp = client
        .compress("MGARD", 64, &[12, 12, 12], WireBound::Rel(1e-4), field.to_le_bytes(), 0)
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.reason());
    let offline = AnyCompressor::by_name("MGARD")
        .unwrap()
        .compress(&field, ErrorBound::Rel(1e-4))
        .unwrap();
    assert_eq!(resp.payload, offline);
    let back = client.decompress(64, resp.payload, 0).unwrap();
    assert_eq!(back.status, Status::Ok);
    let restored: Field<f64> =
        AnyCompressor::by_name("MGARD").unwrap().decompress(&offline).unwrap();
    assert_eq!(back.payload, restored.to_le_bytes());
    handle.join();
}

#[test]
fn typed_errors_for_bad_requests() {
    let _h = hubless();
    let handle = Server::start(quick_config()).unwrap();

    // Unknown compressor name.
    let mut c = client_for(&handle);
    let payload: Vec<u8> = (0..16u32).flat_map(|v| (v as f32).to_le_bytes()).collect();
    let resp = c.compress("nope", 32, &[16], WireBound::Abs(1e-3), payload.clone(), 0).unwrap();
    assert_eq!(resp.status, Status::UnknownCompressor, "{}", resp.reason());

    // QP suffix on a comparator is rejected, not silently ignored.
    let resp = c.compress("ZFP+QP", 32, &[16], WireBound::Abs(1e-3), payload.clone(), 0).unwrap();
    assert_eq!(resp.status, Status::UnknownCompressor);

    // Payload size disagrees with dims × dtype.
    let resp = c.compress("SZ3", 32, &[17], WireBound::Abs(1e-3), payload.clone(), 0).unwrap();
    assert_eq!(resp.status, Status::BadRequest, "{}", resp.reason());

    // Zero axis.
    let resp = c.compress("SZ3", 32, &[0, 16], WireBound::Abs(1e-3), vec![], 0).unwrap();
    assert_eq!(resp.status, Status::BadRequest);

    // Non-finite / non-positive bound.
    let resp = c.compress("SZ3", 32, &[16], WireBound::Abs(0.0), payload.clone(), 0).unwrap();
    assert_eq!(resp.status, Status::BadRequest);
    let resp =
        c.compress("SZ3", 32, &[16], WireBound::Abs(f64::NAN), payload.clone(), 0).unwrap();
    assert_eq!(resp.status, Status::BadRequest);

    // Garbage handed to decompress → typed FAILED (compressor-level error)
    // or BAD_REQUEST (unknown magic), never a hang or panic.
    let resp = c.decompress(32, vec![0x20, 1, 2, 3], 0).unwrap();
    assert!(
        matches!(resp.status, Status::Failed | Status::BadRequest),
        "got {:?}",
        resp.status
    );
    let resp = c.decompress(32, vec![0xFF; 64], 0).unwrap();
    assert_eq!(resp.status, Status::BadRequest);
    // 0x90, a retired stream tag (docs/FORMAT.md), is a foreign byte like any other.
    let resp = c.decompress(32, vec![0x90, 1, 32, 1, 8, 8, 0], 0).unwrap();
    assert_eq!(resp.status, Status::BadRequest);
    assert_eq!(resp.reason(), "unrecognized stream magic");

    // Ping still answers after all of the above on the same connection.
    let resp = c.ping().unwrap();
    assert_eq!(resp.status, Status::Ok);

    let stats = handle.join();
    assert_eq!(stats.panics.load(std::sync::atomic::Ordering::SeqCst), 0);
}

/// Load-shed acceptance: with tiny queues and slow work, an open-loop burst
/// gets `SERVER_BUSY` answers instead of unbounded queueing, and the queue
/// depth never exceeds its configured bound.
#[test]
fn overload_sheds_with_server_busy() {
    let _h = hubless();
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 2,
        ..quick_config()
    };
    let queue_bound = cfg.queue_depth as u64;
    let handle = Server::start(cfg).unwrap();

    // Each connection fires one slow-ish compress; with 1 worker and queue
    // depth 2, a burst of 10 concurrent requests must shed most of them.
    let dims = [40usize, 40, 40];
    let field: Field<f32> = qip_conformance::synth(qip_conformance::FieldFamily::Turbulent, 1, &dims);
    let payload = field.to_le_bytes();
    let addr = handle.addr();
    let joins: Vec<_> = (0..10)
        .map(|_| {
            let payload = payload.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(120), MAX_FRAME).unwrap();
                c.compress("SZ3", 32, &[40, 40, 40], WireBound::Abs(1e-3), payload, 0)
                    .unwrap()
                    .status
            })
        })
        .collect();
    let statuses: Vec<Status> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let ok = statuses.iter().filter(|s| **s == Status::Ok).count();
    let busy = statuses.iter().filter(|s| **s == Status::ServerBusy).count();
    assert_eq!(ok + busy, statuses.len(), "unexpected statuses: {statuses:?}");
    assert!(busy >= 1, "no request was shed: {statuses:?}");
    assert!(ok >= 1, "no request succeeded: {statuses:?}");

    let stats = handle.join();
    assert!(
        stats.max_queue_depth.load(std::sync::atomic::Ordering::SeqCst) <= queue_bound,
        "queue depth exceeded its bound"
    );
    assert_eq!(stats.shed.load(std::sync::atomic::Ordering::SeqCst), busy as u64);
}

/// A request whose deadline expires while it waits behind slow work is
/// answered `DEADLINE_EXCEEDED` at dequeue, not executed.
#[test]
fn queued_past_deadline_is_answered_deadline_exceeded() {
    let _h = hubless();
    let cfg = ServeConfig { workers: 1, queue_depth: 8, ..quick_config() };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr();

    // Occupy the single worker with slow work.
    let dims = [40usize, 40, 40];
    let field: Field<f32> = qip_conformance::synth(qip_conformance::FieldFamily::Turbulent, 2, &dims);
    let slow_payload = field.to_le_bytes();
    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(addr, Duration::from_secs(120), MAX_FRAME).unwrap();
        c.compress("HPEZ+QP", 32, &[40, 40, 40], WireBound::Abs(1e-4), slow_payload, 0)
            .unwrap()
            .status
    });
    // Wait until the blocker is actually enqueued so it owns the worker
    // before the short-deadline request goes out.
    let stats = handle.stats();
    let wait_deadline = std::time::Instant::now() + Duration::from_secs(30);
    while stats.dispatched.load(std::sync::atomic::Ordering::SeqCst) < 1 {
        assert!(std::time::Instant::now() < wait_deadline, "blocker never reached the queue");
        std::thread::sleep(Duration::from_millis(2));
    }

    // 1 ms deadline: by the time the worker frees up, it has long expired.
    let mut c = client_for(&handle);
    let tiny: Vec<u8> = (0..64u32).flat_map(|v| (v as f32).to_le_bytes()).collect();
    let resp = c.compress("SZ3", 32, &[64], WireBound::Abs(1e-3), tiny, 1).unwrap();
    assert_eq!(resp.status, Status::DeadlineExceeded, "{}", resp.reason());

    assert_eq!(blocker.join().unwrap(), Status::Ok);
    let stats = handle.join();
    assert!(stats.deadline_miss.load(std::sync::atomic::Ordering::SeqCst) >= 1);
}

/// Satellite: graceful shutdown. N in-flight requests all complete with valid
/// responses while new connections are refused.
#[test]
fn graceful_shutdown_finishes_in_flight_and_refuses_new() {
    let _h = hubless();
    let cfg = ServeConfig { workers: 4, queue_depth: 8, ..quick_config() };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr();

    let n = 4;
    let dims = [24usize, 24, 24];
    let field: Field<f32> = qip_conformance::synth(qip_conformance::FieldFamily::Smooth, 5, &dims);
    let payload = field.to_le_bytes();
    let offline = AnyCompressor::by_name("QoZ")
        .unwrap()
        .compress(&field, ErrorBound::Abs(1e-3))
        .unwrap();
    let joins: Vec<_> = (0..n)
        .map(|_| {
            let payload = payload.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(60), MAX_FRAME).unwrap();
                c.compress("QoZ", 32, &[24, 24, 24], WireBound::Abs(1e-3), payload, 0).unwrap()
            })
        })
        .collect();

    // Wait until every request is genuinely in flight (enqueued to a
    // worker), then start draining.
    let stats = handle.stats();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while stats.dispatched.load(std::sync::atomic::Ordering::SeqCst) < n as u64 {
        assert!(std::time::Instant::now() < deadline, "requests never reached the queues");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut handle = handle;
    handle.shutdown();

    // New connections are refused: the listener is closed.
    let refused = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2));
    assert!(refused.is_err(), "connection accepted during drain");

    // Every in-flight request completed with a correct, byte-identical body.
    for j in joins {
        let resp = j.join().unwrap();
        assert_eq!(resp.status, Status::Ok, "{}", resp.reason());
        assert_eq!(resp.payload, offline, "drained response differs from offline bytes");
    }
    let stats = handle.join();
    assert_eq!(stats.ok.load(std::sync::atomic::Ordering::SeqCst), n as u64);
    assert_eq!(stats.panics.load(std::sync::atomic::Ordering::SeqCst), 0);
}

/// The connection cap sheds whole connections with a typed response.
#[test]
fn connection_cap_refuses_with_typed_busy() {
    let _h = hubless();
    let cfg = ServeConfig { max_conns: 1, ..quick_config() };
    let handle = Server::start(cfg).unwrap();

    let mut keeper = client_for(&handle);
    assert_eq!(keeper.ping().unwrap().status, Status::Ok);

    // Second connection: the server pushes a SERVER_BUSY response and closes
    // without waiting for a request, so read it straight off the socket.
    let mut second =
        std::net::TcpStream::connect_timeout(&handle.addr(), Duration::from_secs(5)).unwrap();
    second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let body = qip_serve::wire::read_frame(&mut second, MAX_FRAME).unwrap();
    let resp = qip_serve::wire::decode_response(&body, MAX_FRAME).unwrap();
    assert_eq!(resp.status, Status::ServerBusy, "{}", resp.reason());
    drop(second);

    // The refusal is accounted like any answered frame: one event-log line.
    let log = handle.events_jsonl();
    let refused = records_with(&log, &qip_serve::wire::trace_hex(&resp.trace_id));
    assert_eq!(refused.len(), 1, "{log}");
    assert_eq!(refused[0]["status"].as_str(), Some("SERVER_BUSY"), "{log}");
    assert_eq!(refused[0]["op"].as_str(), Some("connection"), "{log}");

    // The first connection still works.
    assert_eq!(keeper.ping().unwrap().status, Status::Ok);
    drop(keeper);
    let stats = handle.join();
    assert!(stats.conns_refused.load(std::sync::atomic::Ordering::SeqCst) >= 1);
}

/// Metrics op returns valid Prometheus text when a hub is attached.
#[test]
fn metrics_op_exports_serve_counters() {
    let _guard = hub_guard();
    let hub = std::sync::Arc::new(qip_telemetry::MetricsHub::new());
    qip_telemetry::attach(std::sync::Arc::clone(&hub));
    let handle = Server::start(quick_config()).unwrap();
    let mut c = client_for(&handle);
    let payload: Vec<u8> = (0..256u32).flat_map(|v| (v as f32).to_le_bytes()).collect();
    let resp = c.compress("SZ3", 32, &[256], WireBound::Abs(1e-3), payload, 0).unwrap();
    assert_eq!(resp.status, Status::Ok);
    let resp = c.metrics().unwrap();
    assert_eq!(resp.status, Status::Ok);
    let text = resp.reason();
    qip_telemetry::detach();
    assert!(text.contains("qip_serve_requests"), "missing serve counters:\n{text}");
    qip_telemetry::export::check_prometheus_text(&text).unwrap();
    qip_telemetry::export::check_serve_families(&text).unwrap();
    handle.join();
}

/// COMPRESS_TILED answers a container byte-identical to the offline
/// `TiledCompressor`, and READ_REGION serves exactly the region's bytes.
#[test]
fn tiled_ops_round_trip_and_match_offline() {
    let _h = hubless();
    let handle = Server::start(quick_config()).unwrap();
    let mut c = client_for(&handle);

    let dims = [40usize, 33];
    let field: Field<f32> = qip_conformance::synth(qip_conformance::FieldFamily::Smooth, 5, &dims);
    let offline_tc =
        qip_container::TiledCompressor::new(AnyCompressor::by_name("SZ3+QP").unwrap(), 16)
            .unwrap();
    let offline = offline_tc.compress(&field, ErrorBound::Abs(1e-3)).unwrap();

    let resp = c
        .compress_tiled("SZ3+QP", 32, &[40, 33], 16, WireBound::Abs(1e-3), field.to_le_bytes(), 0)
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.reason());
    assert_eq!(resp.payload, offline, "served container differs from offline");
    let container = resp.payload;

    // Region read matches slicing the offline full decode.
    let full: Field<f32> = offline_tc.decompress(&offline).unwrap();
    let resp = c.read_region(32, &[10, 20], &[12, 9], container.clone(), 0).unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.reason());
    assert_eq!(resp.payload, full.subregion(&[10, 20], &[12, 9]).to_le_bytes());

    // Plain DECOMPRESS understands 0xB0 containers too (self-describing).
    let resp = c.decompress(32, container, 0).unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.reason());
    assert_eq!(resp.payload, full.to_le_bytes());

    let stats = handle.join();
    assert_eq!(stats.panics.load(std::sync::atomic::Ordering::SeqCst), 0);
}

/// ROADMAP item 1's served rows of the non-finite contract: with NaN / ±Inf
/// planted, COMPRESS and COMPRESS_TILED answer every registry compressor
/// with the library's own stream — which violates no bound — or, for MGARD
/// and ZFP only (no lossless channel), FAILED with the library's typed error.
#[test]
fn planted_non_finite_samples_are_served_losslessly_or_refused() {
    let _h = hubless();
    let handle = Server::start(quick_config()).unwrap();
    let mut c = client_for(&handle);
    let plants: [&[f32]; 3] =
        [&[f32::NAN], &[f32::INFINITY], &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40]];
    let refusal = qip_core::CompressError::Unsupported("non-finite sample").to_string();
    let (eb, wire, dims) = (ErrorBound::Abs(1e-3), WireBound::Abs(1e-3), [24, 20, 16]);
    let mut refused = 0;
    for plant in plants {
        let mut field = qip_data::miranda_like(0, &[24, 20, 16]);
        for (k, &v) in plant.iter().enumerate() {
            field.as_mut_slice()[3000 + 1117 * k] = v;
        }
        for comp in AnyCompressor::registry() {
            let name = Compressor::<f32>::name(&comp);
            let tiled = qip_container::TiledCompressor::new(comp.clone(), 8).unwrap();
            let raw = field.to_le_bytes();
            for (library, resp) in [
                (comp.compress(&field, eb), c.compress(&name, 32, &dims, wire, raw.clone(), 0)),
                (tiled.compress(&field, eb), c.compress_tiled(&name, 32, &dims, 8, wire, raw, 0)),
            ] {
                let (resp, what) = (resp.unwrap(), format!("{name} with {plant:?}"));
                match library {
                    Ok(stream) => {
                        assert_eq!(resp.status, Status::Ok, "{what}: {}", resp.reason());
                        assert!(resp.payload == stream, "{what}: served stream differs");
                        let report = qip_inspect::inspect_bytes_with_original(&stream, &field);
                        assert_eq!(report.unwrap().error_budget.unwrap().violations, 0, "{what}");
                    }
                    Err(e) => {
                        assert!(name.starts_with("MGARD") || name == "ZFP", "{what}: {e}");
                        assert_eq!((e.to_string(), resp.status), (refusal.clone(), Status::Failed));
                        assert_eq!(resp.reason(), refusal);
                        refused += 1;
                    }
                }
            }
        }
    }
    // MGARD, MGARD+QP and ZFP, flat and tiled, for each plant.
    assert_eq!(refused, 3 * 3 * 2);
    assert_eq!(handle.join().panics.load(std::sync::atomic::Ordering::SeqCst), 0);
}

/// READ_REGION's failure modes are typed: BAD_REGION for regions the field
/// does not contain, BAD_REQUEST for non-container payloads, and
/// UNKNOWN_COMPRESSOR (with the canonical-name listing) for bad tile names.
#[test]
fn tiled_ops_answer_typed_errors() {
    let _h = hubless();
    let handle = Server::start(quick_config()).unwrap();
    let mut c = client_for(&handle);

    let dims = [24usize, 24];
    let field: Field<f32> = qip_conformance::synth(qip_conformance::FieldFamily::Banded, 2, &dims);
    let resp = c
        .compress_tiled("SZ3", 32, &[24, 24], 8, WireBound::Abs(1e-3), field.to_le_bytes(), 0)
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.reason());
    let container = resp.payload;

    // Out of bounds, zero extent, rank mismatch: all BAD_REGION.
    let resp = c.read_region(32, &[20, 0], &[8, 8], container.clone(), 0).unwrap();
    assert_eq!(resp.status, Status::BadRegion, "{}", resp.reason());
    assert!(resp.reason().contains("out of bounds"), "{}", resp.reason());
    let resp = c.read_region(32, &[0, 0], &[8, 0], container.clone(), 0).unwrap();
    assert_eq!(resp.status, Status::BadRegion, "{}", resp.reason());
    let resp = c.read_region(32, &[0], &[8], container.clone(), 0).unwrap();
    assert_eq!(resp.status, Status::BadRegion, "{}", resp.reason());

    // A non-container payload is refused before any parse.
    let resp = c.read_region(32, &[0, 0], &[8, 8], vec![0x20, 1, 2, 3], 0).unwrap();
    assert_eq!(resp.status, Status::BadRequest, "{}", resp.reason());

    // Unknown tile compressor lists the canonical names.
    let resp = c
        .compress_tiled("nope", 32, &[24, 24], 8, WireBound::Abs(1e-3), field.to_le_bytes(), 0)
        .unwrap();
    assert_eq!(resp.status, Status::UnknownCompressor);
    assert!(resp.reason().contains("MGARD"), "{}", resp.reason());

    // A tile edge below the minimum is a BAD_REQUEST, not a panic.
    let resp = c
        .compress_tiled("SZ3", 32, &[24, 24], 4, WireBound::Abs(1e-3), field.to_le_bytes(), 0)
        .unwrap();
    assert_eq!(resp.status, Status::BadRequest, "{}", resp.reason());

    let stats = handle.join();
    assert_eq!(stats.panics.load(std::sync::atomic::Ordering::SeqCst), 0);
}

/// Tentpole: every response — success, typed error, inline op — echoes the
/// client-chosen trace ID byte-for-byte, and the per-request event log
/// records the same ID with stage timings.
#[test]
fn trace_ids_echo_across_statuses_and_land_in_the_event_log() {
    let _h = hubless();
    let handle = Server::start(quick_config()).unwrap();
    let mut c = client_for(&handle);
    let t: qip_serve::wire::TraceId = *b"0123456789abcdef";
    c.set_trace_id(t);
    let payload: Vec<u8> = (0..64u32).flat_map(|v| (v as f32).to_le_bytes()).collect();

    let resp = c.ping().unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.trace_id, t, "ping echo");

    let resp = c.compress("SZ3", 32, &[64], WireBound::Abs(1e-3), payload.clone(), 0).unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.trace_id, t, "compress echo");

    let resp = c.compress("nope", 32, &[64], WireBound::Abs(1e-3), payload.clone(), 0).unwrap();
    assert_eq!(resp.status, Status::UnknownCompressor);
    assert_eq!(resp.trace_id, t, "typed-error echo");

    let resp = c.compress("SZ3", 32, &[63], WireBound::Abs(1e-3), payload, 0).unwrap();
    assert_eq!(resp.status, Status::BadRequest);
    assert_eq!(resp.trace_id, t, "bad-request echo");

    for resp in [c.metrics().unwrap(), c.flight().unwrap(), c.tails().unwrap()] {
        assert_eq!(resp.status, Status::Ok, "{}", resp.reason());
        assert_eq!(resp.trace_id, t, "inline-op echo");
    }

    let hex = qip_serve::wire::trace_hex(&t);
    let mine = records_with(&handle.events_jsonl(), &hex);
    assert!(mine.len() >= 7, "expected >=7 events for {hex}, got {mine:?}");
    // Worker-path events carry the full stage breakdown.
    assert!(
        mine.iter().any(|e| e["stages"]["compress"].as_u64().is_some()
            && e["queue_wait_ns"].as_u64().is_some()),
        "no compress stage timing in {mine:?}"
    );
    handle.join();
}

/// Tentpole: requests sent with a zero trace ID get a server-assigned ID
/// that is nonzero and unique across the run.
#[test]
fn server_assigned_trace_ids_are_unique_and_nonzero() {
    let _h = hubless();
    let handle = Server::start(quick_config()).unwrap();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..4 {
        let mut c = client_for(&handle);
        assert_eq!(c.trace_id(), qip_serve::wire::ZERO_TRACE, "default asks for assignment");
        for _ in 0..8 {
            let resp = c.ping().unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert_ne!(resp.trace_id, qip_serve::wire::ZERO_TRACE, "assigned ID must be nonzero");
            assert!(seen.insert(resp.trace_id), "assigned ID repeated");
        }
    }
    assert_eq!(seen.len(), 32);
    handle.join();
}

/// FLIGHT op round-trip: with a hub attached, `flight` returns the flight
/// recorder's JSONL and `tails` the tail-sampler reservoir, both stamped
/// with the request trace IDs that produced them. Inline answers (the
/// flight op itself) leave no tail sample.
#[test]
fn flight_op_serves_recorder_and_tail_dumps_remotely() {
    let _guard = hub_guard();
    // Sample every request; the write guard keeps every other server of this
    // file from feeding the process-global hub meanwhile.
    let hub = std::sync::Arc::new(qip_telemetry::MetricsHub::with_tail(64, 1));
    qip_telemetry::attach(std::sync::Arc::clone(&hub));
    let handle = Server::start(quick_config()).unwrap();
    let mut c = client_for(&handle);
    let t: qip_serve::wire::TraceId = [0x42; 16];
    c.set_trace_id(t);
    let hex = qip_serve::wire::trace_hex(&t);

    let payload: Vec<u8> = (0..256u32).flat_map(|v| (v as f32).to_le_bytes()).collect();
    let resp = c.compress("SZ3", 32, &[256], WireBound::Abs(1e-3), payload, 0).unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.reason());

    // Flight recorder: the compress call landed with the trace ID stamped.
    let flight = c.flight().unwrap();
    assert_eq!(flight.status, Status::Ok);
    let text = flight.reason();
    assert!(
        records_with(&text, &hex).iter().any(|r| r["op"].as_str() == Some("compress")),
        "no trace-stamped compress record in flight dump:\n{text}"
    );

    // Tail sampler: a worker accounts its request before answering it, so
    // the reservoir already holds the compress request, and only it: the
    // inline flight op left no sample. Its `request` is the event itself.
    let tails = c.tails().unwrap();
    assert_eq!(tails.status, Status::Ok);
    let text = tails.reason();
    let samples: Vec<serde_json::Value> =
        text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
    assert_eq!(samples.len(), 1, "{text}");
    let (request, sampled) = (&samples[0]["request"], samples[0]["sampled"].as_bool());
    let who = (request["trace_id"].as_str(), request["op"].as_str());
    assert_eq!((who, sampled), ((Some(&*hex), Some("compress")), Some(true)), "{text}");

    // The same request also shows up in the event log: one trace ID ties
    // wire response, flight record, tail sample, and event line together.
    assert!(!records_with(&handle.events_jsonl(), &hex).is_empty());

    qip_telemetry::detach();
    handle.join();
}

/// One frame that does not parse is one bad frame, however many sinks see it.
#[test]
fn one_malformed_frame_counts_one_bad_frame() {
    let _h = hubless();
    let handle = Server::start(quick_config()).unwrap();
    let mut raw = std::net::TcpStream::connect_timeout(&handle.addr(), Duration::from_secs(5)).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    qip_serve::wire::write_frame(&mut raw, b"not a sealed request").unwrap();
    let body = qip_serve::wire::read_frame(&mut raw, MAX_FRAME).unwrap();
    let resp = qip_serve::wire::decode_response(&body, MAX_FRAME).unwrap();
    assert_eq!(resp.status, Status::BadFrame, "{}", resp.reason());
    let events = records_with(&handle.events_jsonl(), &qip_serve::wire::trace_hex(&resp.trace_id));
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!(events[0]["op"].as_str(), Some("connection"), "{events:?}");
    drop(raw);
    let stats = handle.join();
    assert_eq!(stats.bad_frames.load(std::sync::atomic::Ordering::SeqCst), 1);
}

/// A declared length above the cap is answered TOO_LARGE and accounted like
/// any other answered frame: one request count, one event, one bad frame.
#[test]
fn one_over_cap_length_is_one_too_large_request_and_one_event() {
    let _guard = hub_guard();
    let hub = std::sync::Arc::new(qip_telemetry::MetricsHub::new());
    qip_telemetry::attach(std::sync::Arc::clone(&hub));
    let cfg = ServeConfig { max_frame_bytes: 1 << 10, ..quick_config() };
    let handle = Server::start(cfg).unwrap();
    let mut raw = std::net::TcpStream::connect_timeout(&handle.addr(), Duration::from_secs(5)).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    std::io::Write::write_all(&mut raw, &(1u32 << 20).to_le_bytes()).unwrap();
    let body = qip_serve::wire::read_frame(&mut raw, MAX_FRAME).unwrap();
    let resp = qip_serve::wire::decode_response(&body, MAX_FRAME).unwrap();
    assert_eq!(resp.status, Status::TooLarge, "{}", resp.reason());
    let events = handle.events_jsonl();
    drop(raw);
    let stats = handle.join();
    qip_telemetry::detach();
    let too_large = |r: &serde_json::Value| r["status"].as_str() == Some("TOO_LARGE");
    let logged = events.lines().map(|l| serde_json::from_str(l).unwrap()).filter(too_large);
    assert_eq!(logged.count(), 1, "{events}");
    let requests = hub.snapshot().counters.into_iter().filter(|(k, _)| {
        k.name == "qip.serve.requests"
            && k.labels.contains(&("status".into(), "TOO_LARGE".into()))
            && k.labels.contains(&("op".into(), "connection".into()))
    });
    assert_eq!(requests.map(|(_, n)| n).collect::<Vec<_>>(), [1]);
    assert_eq!(stats.bad_frames.load(std::sync::atomic::Ordering::SeqCst), 1);
}

/// Every worker request is timed once: the hub's `qip.serve.request_ns` sum
/// is exactly the event log's `total_ns` sum, and each tail sample's
/// `request` is its event: it serializes to the event-log line with the
/// same trace ID, stages included.
#[test]
fn worker_requests_feed_every_sink_one_duration() {
    let _guard = hub_guard();
    // Every request is sampled, so every one leaves a tail sample.
    let hub = std::sync::Arc::new(qip_telemetry::MetricsHub::with_tail(64, 1));
    qip_telemetry::attach(std::sync::Arc::clone(&hub));
    let handle = Server::start(quick_config()).unwrap();
    let mut c = client_for(&handle);
    let payload: Vec<u8> = (0..256u32).flat_map(|v| (v as f32).to_le_bytes()).collect();
    for i in 0..6u8 {
        c.set_trace_id([i + 1; 16]);
        let resp = c.compress("SZ3", 32, &[256], WireBound::Abs(1e-3), payload.clone(), 0).unwrap();
        assert_eq!(resp.status, Status::Ok, "{}", resp.reason());
    }
    let log = handle.events_jsonl();
    drop(c);
    handle.join();
    qip_telemetry::detach();

    let events: Vec<(serde_json::Value, &str)> =
        log.lines().map(|l| (serde_json::from_str(l).unwrap(), l)).collect();
    assert_eq!(events.len(), 6);
    let total = |(r, _): &(serde_json::Value, &str)| r["total_ns"].as_u64().unwrap();
    let hists = hub.snapshot().hists;
    let request_ns = hists.iter().filter(|(k, _)| k.name == "qip.serve.request_ns");
    let summed: Vec<(u64, u64)> = request_ns.map(|(_, h)| (h.count, h.sum)).collect();
    assert_eq!(summed, [(6, events.iter().map(total).sum())]);
    let tails = hub.tail.records();
    assert_eq!(tails.len(), 6);
    for tail in &tails {
        let id = tail.request.trace_id.as_str();
        let line = events.iter().find(|(e, _)| e["trace_id"].as_str() == Some(id)).map(|e| e.1);
        assert_eq!(Some(&*serde_json::to_string(&tail.request).unwrap()), line, "{id}");
        let stages: Vec<&str> = tail.request.stages.0.iter().map(|(stage, _)| *stage).collect();
        assert_eq!(stages, ["dequeue", "parse", "compress", "respond"], "{id}");
    }
}
