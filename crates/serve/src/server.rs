//! The threaded TCP server: accept loop, bounded per-worker queues,
//! deadline enforcement, panic isolation, and graceful drain.
//!
//! # Thread topology
//!
//! ```text
//! accept thread ──> per-connection reader thread ──┬─> worker queue 0 ─> worker 0
//!                       │ (parses frames,          ├─> worker queue 1 ─> worker 1
//!                       │  sheds on full queues)   └─> …
//!                       └─> per-connection writer thread <── responses (mpsc)
//! ```
//!
//! Every request is answered by a typed response or the connection closes
//! cleanly; nothing blocks forever (socket read/write timeouts bound every
//! I/O wait) and a panic inside a compressor call is caught per-request, so a
//! poisoned input can never take a worker down.

use crate::exec::{check_deadline, execute, OpError};
use crate::wire::{self, Op, OpKind, ReadFrameError, Request, Response, Status, TraceId};
use qip_core::CompressCtx;
use qip_telemetry::{MetricsHub, RequestEvent, Ring, StageTimer, Stages, DEFAULT_EVENT_CAPACITY};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs. The defaults favor robustness over peak throughput;
/// see `docs/serving.md` for guidance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (each owns one [`CompressCtx`] and one bounded queue).
    pub workers: usize,
    /// Per-worker queue capacity. A request that finds every queue full is
    /// shed with [`Status::ServerBusy`] instead of waiting.
    pub queue_depth: usize,
    /// Maximum simultaneously-open client connections; excess connections
    /// receive a `SERVER_BUSY` response and are closed immediately.
    pub max_conns: usize,
    /// Hard cap on a frame body (and therefore on any request payload).
    pub max_frame_bytes: usize,
    /// Deadline applied when a request carries `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Upper bound a client may request; larger asks are clamped to this.
    pub max_deadline: Duration,
    /// Socket read timeout: bounds both idle keep-alive connections and
    /// slow-loris writers (a peer trickling a frame is cut off here).
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8),
            queue_depth: 64,
            max_conns: 256,
            max_frame_bytes: 64 << 20,
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// Always-on server counters (plain atomics; mirrored into qip-telemetry when
/// a metrics hub is attached). Exposed through [`ServerHandle::stats`] so
/// tests and load generators can assert on behavior without a hub.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted and served.
    pub conns_accepted: AtomicU64,
    /// Connections refused at the connection cap.
    pub conns_refused: AtomicU64,
    /// Frames that parsed into a request.
    pub requests: AtomicU64,
    /// Requests answered with `OK`.
    pub ok: AtomicU64,
    /// Requests shed with `SERVER_BUSY` (all queues full), and connections
    /// refused at the connection cap.
    pub shed: AtomicU64,
    /// Requests successfully enqueued to a worker (lets harnesses confirm
    /// work is in flight before triggering a drain).
    pub dispatched: AtomicU64,
    /// Requests answered `DEADLINE_EXCEEDED` (at dequeue or mid-pipeline).
    pub deadline_miss: AtomicU64,
    /// Panics caught and converted to `INTERNAL` responses.
    pub panics: AtomicU64,
    /// Typed compressor failures (`FAILED` responses).
    pub failed: AtomicU64,
    /// Unparseable frames answered `BAD_FRAME`/`TOO_LARGE`.
    pub bad_frames: AtomicU64,
    /// High-water mark of any single worker queue.
    pub max_queue_depth: AtomicU64,
    /// Connections currently open.
    pub open_conns: AtomicUsize,
}

impl ServeStats {
    fn bump_max_queue(&self, depth: usize) {
        self.max_queue_depth.fetch_max(depth as u64, Ordering::Relaxed);
    }
}

/// One queued unit of work.
struct Job {
    req: Request,
    resp_tx: mpsc::Sender<Vec<u8>>,
    received: Instant,
    deadline: Instant,
}

/// Why a push was refused. The job rides in a `Box` so the happy-path
/// `Result` stays register-sized (`Op` carries whole payloads).
enum PushRefused {
    /// The queue is at capacity: shed with `SERVER_BUSY`.
    Full(Box<Job>),
    /// The server is draining: refuse with `SHUTTING_DOWN`.
    Draining(Box<Job>),
}

/// Bounded MPSC queue with condvar wakeups; `try_push` never blocks (the
/// load-shedding contract: a full queue is an immediate `SERVER_BUSY`, not
/// an unbounded backlog).
struct WorkQueue {
    inner: Mutex<VecDeque<Job>>,
    ready: Condvar,
    cap: usize,
}

impl WorkQueue {
    fn new(cap: usize) -> Self {
        WorkQueue { inner: Mutex::new(VecDeque::with_capacity(cap)), ready: Condvar::new(), cap }
    }

    fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Enqueue unless full or draining. Returns the new depth on success.
    ///
    /// The drain check happens *under the queue mutex* — the same mutex
    /// [`WorkQueue::pop`] holds when it decides to exit — so a job can never
    /// be enqueued after the workers have already observed "draining and
    /// empty" and left: either the push lands first (and the exiting worker
    /// still sees a non-empty queue), or the drain flag is visible to the
    /// push and the job is refused.
    fn try_push(&self, job: Job, drain: &AtomicBool) -> Result<usize, PushRefused> {
        let mut q = self.inner.lock().unwrap();
        if drain.load(Ordering::SeqCst) {
            return Err(PushRefused::Draining(Box::new(job)));
        }
        if q.len() >= self.cap {
            return Err(PushRefused::Full(Box::new(job)));
        }
        q.push_back(job);
        let depth = q.len();
        drop(q);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocking pop; returns `None` once `drain` is set and the queue is
    /// empty (the graceful-shutdown exit condition — queued work finishes).
    fn pop(&self, drain: &AtomicBool) -> Option<Job> {
        let mut q = self.inner.lock().unwrap();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if drain.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self.ready.wait_timeout(q, Duration::from_millis(50)).unwrap();
            q = guard;
        }
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// Shared server state.
struct Shared {
    config: ServeConfig,
    stats: Arc<ServeStats>,
    queues: Vec<Arc<WorkQueue>>,
    draining: AtomicBool,
    rr: AtomicUsize,
    /// High half of server-assigned trace IDs: per-run random-ish prefix
    /// (boot time ⊕ pid), forced nonzero so a minted ID is never ZERO_TRACE.
    trace_prefix: u64,
    /// Low half of server-assigned trace IDs: unique per mint.
    trace_counter: AtomicU64,
    /// Per-request structured event log.
    events: Ring<RequestEvent>,
}

impl Shared {
    /// Assign a trace ID to a request that arrived without one. Prefix ⊕
    /// counter layout keeps IDs unique within a run and distinguishable
    /// across runs, and never equal to `ZERO_TRACE`.
    fn mint_trace(&self) -> TraceId {
        let n = self.trace_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let mut id = [0u8; 16];
        id[..8].copy_from_slice(&self.trace_prefix.to_le_bytes());
        id[8..].copy_from_slice(&n.to_le_bytes());
        id
    }

    /// Answer a frame without worker dispatch (ping, metrics and flight
    /// replies; shed, refused and bad frames): [`Shared::inline_frame`], then
    /// hand it to the writer. False when the writer is gone.
    fn reply_inline(
        &self,
        resp_tx: &mpsc::Sender<Vec<u8>>,
        op: &'static str,
        received: Instant,
        resp: Response,
    ) -> bool {
        resp_tx.send(self.inline_frame(op, received, &resp)).is_ok()
    }

    /// Account an answer given without worker dispatch as one event with a
    /// single `inline` stage, and encode it.
    fn inline_frame(&self, op: &'static str, received: Instant, resp: &Response) -> Vec<u8> {
        let total_ns = received.elapsed().as_nanos() as u64;
        let event = RequestEvent {
            trace_id: wire::trace_hex(&resp.trace_id),
            op,
            status: resp.status.name(),
            queue_wait_ns: 0,
            stages: Stages(vec![("inline", total_ns)]),
            total_ns,
        };
        self.account(resp.status, false, event);
        wire::encode_response(resp)
    }

    /// Account one answered frame, once and with one duration: the always-on
    /// stats, then in one pass over the hub (no-op when dormant) the request
    /// counter, the latency histogram, the SLO and — for worker requests
    /// (`tail`) — the tail sampler, then the event log. Every sink sees
    /// `event.total_ns`; `event` carries `op` and `status` by name, and
    /// `op` labels every sink.
    fn account(&self, status: Status, tail: bool, event: RequestEvent) {
        let op = event.op;
        let stat = match status {
            Status::Ok => Some(&self.stats.ok),
            Status::ServerBusy => Some(&self.stats.shed),
            Status::DeadlineExceeded => Some(&self.stats.deadline_miss),
            Status::Internal => Some(&self.stats.panics),
            Status::Failed => Some(&self.stats.failed),
            Status::BadFrame | Status::TooLarge | Status::BadRequest
            | Status::UnknownCompressor | Status::BadRegion => Some(&self.stats.bad_frames),
            Status::ShuttingDown => None,
        };
        if let Some(stat) = stat {
            stat.fetch_add(1, Ordering::Relaxed);
        }
        // Server-caused failures (panics, shed load, missed deadlines) burn
        // the SLO error budget; client mistakes (bad frames, corrupt
        // payloads, unknown names) and drain refusals don't, mirroring
        // availability-SLO practice.
        let is_error =
            matches!(status, Status::Internal | Status::ServerBusy | Status::DeadlineExceeded);
        qip_telemetry::with_hub(|h| {
            h.counter_add("qip.serve.requests", &[("op", op), ("status", status.name())], 1);
            h.observe("qip.serve.request_ns", &[("op", op)], event.total_ns);
            h.slo.record(op, is_error, event.total_ns);
            if tail {
                h.tail.finish(&event);
            }
        });
        self.events.push(event);
    }

    /// Export the live queue depths as gauges (called around scrapes).
    fn publish_queue_depths(&self) {
        qip_telemetry::with_hub(|h| {
            for (i, q) in self.queues.iter().enumerate() {
                h.gauge_set("qip.serve.queue_depth", &[("worker", &format!("w{i}"))], q.len() as f64);
            }
            h.slo.publish(h);
        });
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::join`] leaves detached threads running; always join (or
/// [`ServerHandle::shutdown`] + join) in orderly shutdown paths.
pub struct Server;

impl Server {
    /// Bind, spawn the worker pool and accept loop, and return a handle.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServeStats::default());
        let queues: Vec<Arc<WorkQueue>> =
            (0..config.workers.max(1)).map(|_| Arc::new(WorkQueue::new(config.queue_depth.max(1)))).collect();
        let boot_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let shared = Arc::new(Shared {
            config,
            stats: Arc::clone(&stats),
            queues,
            draining: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
            trace_prefix: (boot_ns ^ ((std::process::id() as u64) << 32)) | 1,
            trace_counter: AtomicU64::new(0),
            events: Ring::with_capacity(DEFAULT_EVENT_CAPACITY),
        });

        let mut worker_joins = Vec::new();
        for (i, q) in shared.queues.iter().enumerate() {
            let q = Arc::clone(q);
            let sh = Arc::clone(&shared);
            worker_joins.push(
                std::thread::Builder::new()
                    .name(format!("qip-serve-worker-{i}"))
                    .spawn(move || worker_loop(&sh, &q))?,
            );
        }

        let accept_shared = Arc::clone(&shared);
        let accept_join = std::thread::Builder::new()
            .name("qip-serve-accept".into())
            .spawn(move || accept_loop(listener, &accept_shared))?;

        Ok(ServerHandle { addr, shared, accept_join: Some(accept_join), worker_joins })
    }
}

/// Handle to a running server: address, live stats, shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_join: Option<std::thread::JoinHandle<()>>,
    worker_joins: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The always-on counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }

    /// The per-request structured event log as JSON Lines (one line per
    /// finished request: trace ID, op, status, queue wait, stage durations).
    pub fn events_jsonl(&self) -> String {
        self.shared.events.dump_jsonl()
    }

    /// Begin graceful drain: stop accepting new connections (the listener is
    /// closed before this returns, so fresh connects are refused by the OS),
    /// stop reading new requests on open connections, and let every queued
    /// and in-flight request finish. Returns once the listener is closed;
    /// call [`ServerHandle::join`] to wait for the drain to complete.
    pub fn shutdown(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection so it observes the
        // flag and drops the listener.
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
        for q in &self.shared.queues {
            q.wake_all();
        }
    }

    /// Drain and wait for every worker and connection to finish. Implies
    /// [`ServerHandle::shutdown`] if not already called.
    pub fn join(mut self) -> Arc<ServeStats> {
        self.shutdown();
        for j in self.worker_joins.drain(..) {
            let _ = j.join();
        }
        // Connection threads are detached; they exit once their sockets
        // close or time out. Wait (bounded) for them to wind down so tests
        // observing `open_conns == 0` are deterministic.
        let patience = Instant::now() + self.shared.config.read_timeout + Duration::from_secs(5);
        while self.shared.stats.open_conns.load(Ordering::SeqCst) > 0 && Instant::now() < patience
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        Arc::clone(&self.shared.stats)
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break; // drop the listener: new connections now get ECONNREFUSED
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let open = shared.stats.open_conns.load(Ordering::SeqCst);
        if open >= shared.config.max_conns {
            shared.stats.conns_refused.fetch_add(1, Ordering::Relaxed);
            refuse_connection(stream, shared);
            continue;
        }
        shared.stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
        shared.stats.open_conns.fetch_add(1, Ordering::SeqCst);
        let sh = Arc::clone(shared);
        let res = std::thread::Builder::new()
            .name("qip-serve-conn".into())
            .spawn(move || {
                connection_loop(stream, &sh);
                sh.stats.open_conns.fetch_sub(1, Ordering::SeqCst);
            });
        if res.is_err() {
            shared.stats.open_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The op label of an answer the connection gives before any op is known —
/// a refused connection, an over-cap length prefix, a frame that does not
/// parse — so those never count as a real op. It has no wire code.
const CONNECTION: &str = "connection";

/// Over the connection cap: answer with a typed `SERVER_BUSY`, accounted as
/// a shed frame is, and close.
fn refuse_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let received = Instant::now();
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let resp = Response {
        id: 0,
        status: Status::ServerBusy,
        payload: b"connection cap reached".to_vec(),
        // The refused frame was never read, so no client trace ID exists;
        // even this response carries a (minted) one.
        trace_id: shared.mint_trace(),
    };
    let _ = wire::write_frame(&mut stream, &shared.inline_frame(CONNECTION, received, &resp));
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reader side of one connection. Parses frames, answers cheap ops inline,
/// dispatches compress/decompress to the worker pool, sheds on full queues.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let cfg = &shared.config;
    if stream.set_read_timeout(Some(cfg.read_timeout)).is_err()
        || stream.set_write_timeout(Some(cfg.write_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut read_half = stream;

    // All responses for this connection funnel through one writer thread, so
    // frames never interleave even when several workers answer concurrently.
    let (resp_tx, resp_rx) = mpsc::channel::<Vec<u8>>();
    let writer = std::thread::Builder::new()
        .name("qip-serve-writer".into())
        .spawn(move || writer_loop(write_half, resp_rx));
    let writer = match writer {
        Ok(w) => w,
        Err(_) => return,
    };

    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let body = match wire::read_frame(&mut read_half, cfg.max_frame_bytes) {
            Ok(b) => b,
            Err(ReadFrameError::Eof) | Err(ReadFrameError::Timeout) => break,
            Err(ReadFrameError::TooLarge(n)) => {
                // The declared length is hostile; answer and cut the
                // connection (we cannot resync the stream past it).
                let payload =
                    format!("declared frame length {n} exceeds cap {}", cfg.max_frame_bytes);
                let resp = Response {
                    id: 0,
                    status: Status::TooLarge,
                    payload: payload.into_bytes(),
                    trace_id: shared.mint_trace(),
                };
                shared.reply_inline(&resp_tx, CONNECTION, Instant::now(), resp);
                break;
            }
            Err(ReadFrameError::Io(_)) => break, // mid-frame disconnect
        };
        let received = Instant::now();
        let mut req = match wire::decode_request(&body, cfg.max_frame_bytes) {
            Ok(r) => r,
            Err(e) => {
                let status = match e {
                    wire::WireError::TooLarge(_) => Status::TooLarge,
                    _ => Status::BadFrame,
                };
                // The frame didn't parse, so any client trace ID in it is
                // untrusted; mint a fresh one so even rejections are traced.
                let payload = e.to_string().into_bytes();
                let resp = Response { id: 0, status, payload, trace_id: shared.mint_trace() };
                shared.reply_inline(&resp_tx, CONNECTION, received, resp);
                break; // framing may be out of sync; close after the reply
            }
        };
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        // Server-assigned trace context: a request without a client-chosen
        // trace ID gets one here, before any dispatch, so every downstream
        // record (response frame, flight record, event log, tail sample)
        // carries the same nonzero ID.
        if req.trace_id == wire::ZERO_TRACE {
            req.trace_id = shared.mint_trace();
        }

        let (op, id, trace_id) = (req.op.kind(), req.id, req.trace_id);
        let (status, payload) = match op {
            // Cheap control ops are answered inline — they must keep working
            // even when every worker queue is saturated.
            OpKind::Ping => (Status::Ok, Vec::new()),
            OpKind::Metrics => {
                shared.publish_queue_depths();
                (Status::Ok, hub_dump(qip_telemetry::export::prometheus_text))
            }
            // Remote observability dump: the flight recorder's per-call
            // JSONL, or the tail sampler's reservoir with `tails`.
            OpKind::Flight => match req.op {
                Op::Flight { tails: true } => (Status::Ok, hub_dump(|hub| hub.tail.dump_jsonl())),
                _ => (Status::Ok, hub_dump(|hub| hub.recorder.dump_jsonl())),
            },
            OpKind::Compress | OpKind::Decompress | OpKind::CompressTiled
            | OpKind::ReadRegion => {
                let deadline_req = if req.deadline_ms == 0 {
                    shared.config.default_deadline
                } else {
                    Duration::from_millis(req.deadline_ms as u64)
                };
                let deadline = received + deadline_req.min(shared.config.max_deadline);
                let job = Job { req, resp_tx: resp_tx.clone(), received, deadline };
                // Shed: a refused request is not executed (the job drops here).
                match dispatch(shared, job) {
                    Ok(()) => continue,
                    Err(PushRefused::Full(_)) => {
                        (Status::ServerBusy, b"all worker queues full".to_vec())
                    }
                    Err(PushRefused::Draining(_)) => {
                        (Status::ShuttingDown, b"server is draining".to_vec())
                    }
                }
            }
        };
        let resp = Response { id, status, payload, trace_id };
        if !shared.reply_inline(&resp_tx, op.name(), received, resp) {
            break;
        }
    }

    // Half-close: stop reading, let queued responses flush, then the writer
    // exits once every outstanding job has answered (all senders dropped).
    drop(resp_tx);
    let _ = writer.join();
}

/// `dump` of the attached hub as a reply payload, or a comment line when no
/// hub is attached.
fn hub_dump(dump: impl FnOnce(&MetricsHub) -> String) -> Vec<u8> {
    let mut text = None;
    qip_telemetry::with_hub(|hub| text = Some(dump(hub)));
    text.unwrap_or_else(|| "# no telemetry hub attached\n".to_string()).into_bytes()
}

/// Place a job on the least-loaded worker queue (round-robin tiebreak).
/// Fails only when every queue is at capacity (`Full` → `SERVER_BUSY`) or
/// the server is draining (`Draining` → `SHUTTING_DOWN`).
fn dispatch(shared: &Arc<Shared>, mut job: Job) -> Result<(), PushRefused> {
    let n = shared.queues.len();
    let start = shared.rr.fetch_add(1, Ordering::Relaxed) % n;
    // Pick the shortest queue scanning from a rotating start point.
    let mut order: Vec<usize> = (0..n).map(|i| (start + i) % n).collect();
    order.sort_by_key(|&i| shared.queues[i].len());
    for i in order {
        match shared.queues[i].try_push(job, &shared.draining) {
            Ok(depth) => {
                shared.stats.dispatched.fetch_add(1, Ordering::SeqCst);
                shared.stats.bump_max_queue(depth);
                let depth = shared.queues[i].len() as f64;
                qip_telemetry::with_hub(|h| {
                    h.gauge_set("qip.serve.queue_depth", &[("worker", &format!("w{i}"))], depth)
                });
                return Ok(());
            }
            // Draining is terminal: every queue will refuse the same way.
            Err(PushRefused::Draining(j)) => return Err(PushRefused::Draining(j)),
            Err(PushRefused::Full(j)) => job = *j,
        }
    }
    Err(PushRefused::Full(Box::new(job)))
}

fn writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<Vec<u8>>) {
    while let Ok(frame) = rx.recv() {
        if wire::write_frame(&mut stream, &frame).is_err() {
            // Peer is gone or stuck past the write timeout; drain the channel
            // so job senders never block, then hang up.
            while rx.recv().is_ok() {}
            break;
        }
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// One worker: owns a reusable [`CompressCtx`]; pops jobs until drain.
/// Per job it (1) tags the thread with the request's trace ID so flight
/// records stamped during execution carry it, (2) runs [`run_job`] under a
/// [`StageTimer`], and (3) encodes the response and accounts the request
/// (tail sampler included) before handing the response to the writer, so a
/// client that has its answer also finds it counted and logged.
fn worker_loop(shared: &Arc<Shared>, queue: &Arc<WorkQueue>) {
    let mut ctx = CompressCtx::new();
    while let Some(Job { req, resp_tx, received, deadline }) = queue.pop(&shared.draining) {
        let op = req.op.kind();
        let hex = wire::trace_hex(&req.trace_id);
        let queue_wait_ns = received.elapsed().as_nanos() as u64;
        let mut stages = StageTimer::start();
        let result = {
            let _tag = qip_telemetry::trace_tag(&hex);
            run_job(shared, &req.op, deadline, &mut ctx, &mut stages)
        };
        let (status, payload) = match result {
            Ok(out) => (Status::Ok, out),
            Err((status, reason)) => (status, reason.into_bytes()),
        };
        let resp = Response { id: req.id, status, payload, trace_id: req.trace_id };
        let frame = wire::encode_response(&resp);
        stages.mark("respond");
        let total_ns = received.elapsed().as_nanos() as u64;
        let event = RequestEvent {
            trace_id: hex,
            op: op.name(),
            status: status.name(),
            queue_wait_ns,
            stages: stages.take(),
            total_ns,
        };
        shared.account(status, true, event);
        let _ = resp_tx.send(frame);
    }
}

/// One dequeued job: the deadline checked at dequeue (a request that waited
/// out its budget in the queue is answered without burning CPU on it), then
/// [`execute`] with any panic isolated, then the frame cap on its output.
fn run_job(
    shared: &Shared,
    op: &Op,
    deadline: Instant,
    ctx: &mut CompressCtx,
    stages: &mut StageTimer,
) -> Result<Vec<u8>, OpError> {
    stages.mark("dequeue");
    check_deadline(Some(deadline), "dequeue")?;
    let out = isolate(ctx, |ctx| execute(op, ctx, stages, Some(deadline)))??;
    let cap = shared.config.max_frame_bytes;
    if out.len() > cap {
        let (op, n) = (op.kind().name(), out.len());
        let reason = format!("{op} output ({n} bytes) exceeds the frame cap ({cap})");
        return Err((Status::TooLarge, reason));
    }
    Ok(out)
}

/// `catch_unwind` with the panic payload rendered; resets `ctx` after a
/// caught panic since its pooled buffers may be mid-mutation.
fn isolate<R>(ctx: &mut CompressCtx, f: impl FnOnce(&mut CompressCtx) -> R) -> Result<R, OpError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx))) {
        Ok(r) => Ok(r),
        Err(payload) => {
            *ctx = CompressCtx::new();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err((Status::Internal, format!("isolated panic: {msg}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared() -> Arc<Shared> {
        Arc::new(Shared {
            config: ServeConfig::default(),
            stats: Arc::new(ServeStats::default()),
            queues: vec![Arc::new(WorkQueue::new(4))],
            draining: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
            trace_prefix: 0xABCD_EF01 | 1,
            trace_counter: AtomicU64::new(0),
            events: Ring::with_capacity(DEFAULT_EVENT_CAPACITY),
        })
    }

    #[test]
    fn minted_trace_ids_are_unique_and_never_zero() {
        let shared = test_shared();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = shared.mint_trace();
            assert_ne!(id, wire::ZERO_TRACE);
            assert!(seen.insert(id), "duplicate minted trace ID");
        }
        // Concurrent mints stay unique too.
        let ids: Vec<TraceId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let sh = Arc::clone(&shared);
                    s.spawn(move || (0..250).map(|_| sh.mint_trace()).collect::<Vec<_>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        for id in ids {
            assert!(seen.insert(id), "concurrent duplicate minted trace ID");
        }
    }

    #[test]
    fn inline_events_land_in_the_log_with_the_trace_id() {
        let shared = test_shared();
        let trace = shared.mint_trace();
        let (tx, _rx) = mpsc::channel();
        let resp = Response { id: 1, status: Status::Ok, payload: Vec::new(), trace_id: trace };
        assert!(shared.reply_inline(&tx, OpKind::Ping.name(), Instant::now(), resp));
        let dump = shared.events.dump_jsonl();
        let event: serde_json::Value = serde_json::from_str(dump.trim_end()).unwrap();
        assert_eq!(event["trace_id"].as_str(), Some(&*wire::trace_hex(&trace)), "{dump}");
        assert_eq!((event["op"].as_str(), event["status"].as_str()), (Some("ping"), Some("OK")));
        assert!(event["stages"]["inline"].as_u64().is_some(), "{dump}");
    }

    #[test]
    fn isolate_converts_panics_to_internal_and_resets_ctx() {
        let mut ctx = CompressCtx::new();
        let r = isolate(&mut ctx, |_| panic!("boom {}", 42));
        match r {
            Err((Status::Internal, text)) => assert!(text.contains("boom 42"), "{text}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        // The worker (and its ctx) keep working after the unwind.
        let r = isolate(&mut ctx, |_| 7u32);
        assert_eq!(r.unwrap(), 7);
    }

    #[test]
    fn bounded_queue_sheds_at_capacity_and_drains() {
        let q = WorkQueue::new(2);
        let drain = AtomicBool::new(false);
        let (tx, _rx) = mpsc::channel();
        let job = |id| Job {
            req: Request {
                id,
                deadline_ms: 0,
                op: crate::wire::Op::Ping,
                trace_id: wire::ZERO_TRACE,
            },
            resp_tx: tx.clone(),
            received: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(1),
        };
        assert_eq!(q.try_push(job(1), &drain).map_err(|_| "full").unwrap(), 1);
        assert_eq!(q.try_push(job(2), &drain).map_err(|_| "full").unwrap(), 2);
        match q.try_push(job(3), &drain) {
            Err(PushRefused::Full(_)) => {}
            _ => panic!("third push must shed as Full"),
        }
        // Drain: new pushes are refused, queued jobs still come out, then
        // pop returns None.
        drain.store(true, Ordering::SeqCst);
        match q.try_push(job(4), &drain) {
            Err(PushRefused::Draining(_)) => {}
            _ => panic!("push during drain must be refused as Draining"),
        }
        assert_eq!(q.pop(&drain).unwrap().req.id, 1);
        assert_eq!(q.pop(&drain).unwrap().req.id, 2);
        assert!(q.pop(&drain).is_none());
    }

    #[test]
    fn stream_magic_detection_covers_the_registry() {
        for (magic, name) in
            [(0x20u8, "sz3"), (0x30, "qoz"), (0x40, "hpez"), (0x50, "mgard"), (0x60, "zfp"),
             (0x70, "sperr"), (0x80, "tthresh")]
        {
            assert_eq!(qip_registry::detect_stream(&[magic, 0, 0]), Some(name));
            assert!(qip_registry::AnyCompressor::by_name(name).is_ok(), "{name}");
        }
        // Tiled containers decode without a registry entry (self-describing).
        assert_eq!(qip_registry::detect_stream(&[0xB0]), Some("tiled"));
        assert_eq!(qip_registry::detect_stream(&[0xFF]), None);
        assert_eq!(qip_registry::detect_stream(&[]), None);
    }
}
