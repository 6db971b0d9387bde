//! Chaos client: replay seeded frame corruptions against a live server and
//! classify how it responds.
//!
//! The contract under test: **every** malformed, truncated, oversized, or
//! slow-trickled frame is answered with a typed error response or the
//! connection closes cleanly — never a hang (the client's patience window is
//! the detector), and never a server-side panic (asserted by the caller via
//! [`qip_serve::ServeStats::panics`] / liveness pings after the storm).
//!
//! Corruption is deterministic: case `i` derives everything from
//! `XorShift64::new(seed + i)`, so a failing case replays from its number
//! alone.

use qip_serve::wire::{self, Op, Request, TraceId, WireBound};
use qip_serve::Client;
use qip_fault::XorShift64;
use std::collections::HashSet;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The ways a frame gets mangled. One is picked per case, round-robin, so a
/// 500-case run covers every kind ~100 times (slow-loris is rate-limited —
/// each such case costs a server read-timeout — and its unused turns fall
/// through to bit flips).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Cut the framed bytes at a random point and half-close.
    Truncate,
    /// Flip 1–8 random bits anywhere in the framed bytes.
    BitFlip,
    /// Declare a frame length far above the server's cap.
    OversizeDeclared,
    /// Declare a correct length, send part of the body, then disconnect.
    MidFrameDisconnect,
    /// Trickle the frame a byte at a time, slower than the server's read
    /// timeout, then abandon it.
    SlowLoris,
}

impl Corruption {
    /// Human-readable kind label.
    pub fn name(self) -> &'static str {
        match self {
            Corruption::Truncate => "truncate",
            Corruption::BitFlip => "bitflip",
            Corruption::OversizeDeclared => "oversize_declared",
            Corruption::MidFrameDisconnect => "mid_frame_disconnect",
            Corruption::SlowLoris => "slow_loris",
        }
    }
}

/// How one chaos case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The server answered a typed (non-OK) response.
    TypedError,
    /// The server answered OK — possible when the corruption left the frame
    /// valid (e.g. a bit flip undone by another) or cut at a frame boundary.
    Ok,
    /// The server closed the connection without a response (clean EOF).
    CleanClose,
    /// Nothing happened within the patience window — a hang. Always a bug.
    Hang,
    /// The connection failed before the case could run (e.g. refused).
    ConnectFailed,
}

/// Chaos run parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of corruption cases to replay.
    pub cases: usize,
    /// Base seed; case `i` uses `seed + i`.
    pub seed: u64,
    /// How long the client waits for a response/close before declaring a
    /// hang. Must exceed the server's read timeout for slow-loris cases.
    pub patience: Duration,
    /// Maximum slow-loris cases (each one costs a server read-timeout wait).
    pub max_slow_loris: usize,
    /// Cap for response frames read back.
    pub max_frame: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            cases: 500,
            seed: 0xC4A5_0000,
            patience: Duration::from_secs(10),
            max_slow_loris: 8,
            max_frame: 64 << 20,
        }
    }
}

/// Aggregated chaos results.
#[derive(Debug, Default, Clone)]
pub struct ChaosReport {
    /// Cases run.
    pub cases: usize,
    /// Typed error responses received.
    pub typed_errors: usize,
    /// OK responses (corruption happened to leave a valid frame).
    pub ok: usize,
    /// Clean connection closes without a response.
    pub clean_closes: usize,
    /// Hangs (client patience expired). Any nonzero value is a failure.
    pub hangs: usize,
    /// Connections that could not even be established.
    pub connect_failures: usize,
    /// First few failing cases, as `(case index, corruption kind)`.
    pub failing_cases: Vec<(usize, &'static str)>,
}

impl ChaosReport {
    /// The pass criterion: every case either got a typed answer or a clean
    /// close, and every connection was accepted.
    pub fn all_handled(&self) -> bool {
        self.hangs == 0 && self.connect_failures == 0 && self.cases > 0
    }
}

/// A nonzero trace ID derived from the case rng.
fn rng_trace(rng: &mut XorShift64) -> TraceId {
    let mut t = [0u8; 16];
    t[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
    t[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
    if t == wire::ZERO_TRACE {
        t[0] = 1;
    }
    t
}

/// A well-formed frame to corrupt: varies op and sizes by seed so the
/// corruption lands in different field regions across cases.
fn baseline_frame(rng: &mut XorShift64) -> Vec<u8> {
    let op = match rng.below(3) {
        0 => Op::Ping,
        1 => {
            let n = 16 + rng.below(64);
            Op::Decompress {
                dtype_bits: 32,
                payload: (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect(),
            }
        }
        _ => {
            let dx = 4 + rng.below(8) as u32;
            let dy = 4 + rng.below(8) as u32;
            let payload: Vec<u8> = (0..(dx * dy) as usize)
                .flat_map(|i| ((i as f32) * 0.25).sin().to_le_bytes())
                .collect();
            Op::Compress {
                compressor: "SZ3".into(),
                dtype_bits: 32,
                dims: vec![dx, dy],
                bound: WireBound::Abs(1e-3),
                payload,
            }
        }
    };
    // Half the cases carry a client trace ID, half ask the server to assign
    // one, so corruption lands on both shapes of the trailing trace field.
    let trace_id = if rng.below(2) == 0 { wire::ZERO_TRACE } else { rng_trace(rng) };
    let body =
        wire::encode_request(&Request { id: rng.next_u64(), deadline_ms: 1000, op, trace_id });
    let mut framed = Vec::with_capacity(body.len() + 4);
    framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
    framed.extend_from_slice(&body);
    framed
}

/// After writing the corrupted bytes, wait for the server's verdict.
fn await_verdict(mut stream: TcpStream, cfg: &ChaosConfig) -> Outcome {
    let _ = stream.set_read_timeout(Some(cfg.patience));
    match wire::read_frame(&mut stream, cfg.max_frame) {
        Ok(body) => match wire::decode_response(&body, cfg.max_frame) {
            Ok(resp) if resp.status == wire::Status::Ok => Outcome::Ok,
            Ok(_) => Outcome::TypedError,
            // A garbled response would be a server bug; surface as a hang so
            // the run fails loudly.
            Err(_) => Outcome::Hang,
        },
        Err(wire::ReadFrameError::Eof) => Outcome::CleanClose,
        Err(wire::ReadFrameError::Io(_)) => Outcome::CleanClose, // reset mid-close
        Err(_) => Outcome::Hang,
    }
}

fn run_case(addr: SocketAddr, kind: Corruption, case_seed: u64, cfg: &ChaosConfig) -> Outcome {
    let mut rng = XorShift64::new(case_seed);
    let frame = baseline_frame(&mut rng);
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, cfg.patience) else {
        return Outcome::ConnectFailed;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(cfg.patience));

    match kind {
        Corruption::Truncate => {
            // Cut anywhere, including inside the 4-byte prefix.
            let cut = 1 + rng.below(frame.len() - 1);
            if stream.write_all(&frame[..cut]).is_err() {
                return Outcome::CleanClose;
            }
            let _ = stream.shutdown(Shutdown::Write);
            await_verdict(stream, cfg)
        }
        Corruption::BitFlip => {
            let mut bad = frame;
            // Flip bits in the body only: prefix flips reduce to truncate /
            // oversize, which have their own kinds.
            for _ in 0..1 + rng.below(8) {
                let at = 4 + rng.below(bad.len() - 4);
                bad[at] ^= 1 << rng.below(8);
            }
            if stream.write_all(&bad).is_err() {
                return Outcome::CleanClose;
            }
            let _ = stream.shutdown(Shutdown::Write);
            await_verdict(stream, cfg)
        }
        Corruption::OversizeDeclared => {
            let declared =
                (cfg.max_frame as u64 + 1 + rng.below(1 << 30) as u64).min(u32::MAX as u64);
            let mut bad = (declared as u32).to_le_bytes().to_vec();
            // A little body so the server sees bytes after the hostile prefix.
            bad.extend_from_slice(&frame[4..frame.len().min(64)]);
            if stream.write_all(&bad).is_err() {
                return Outcome::CleanClose;
            }
            let _ = stream.shutdown(Shutdown::Write);
            await_verdict(stream, cfg)
        }
        Corruption::MidFrameDisconnect => {
            // Correct prefix, partial body, abrupt full shutdown.
            let body_sent = rng.below(frame.len() - 4);
            if stream.write_all(&frame[..4 + body_sent]).is_err() {
                return Outcome::CleanClose;
            }
            let _ = stream.shutdown(Shutdown::Both);
            // The server must close its side; it cannot answer a half-frame.
            Outcome::CleanClose
        }
        Corruption::SlowLoris => {
            // Trickle a few bytes with pauses, then stall past the server's
            // read timeout without ever completing the frame.
            let trickle = frame.len().min(12);
            for &b in &frame[..trickle] {
                if stream.write_all(&[b]).is_err() {
                    return Outcome::CleanClose;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            // Do NOT shutdown: the point is to leave the server waiting.
            await_verdict(stream, cfg)
        }
    }
}

/// Replay `cfg.cases` seeded corruptions against `addr`.
pub fn run(addr: SocketAddr, cfg: &ChaosConfig) -> ChaosReport {
    let mut report = ChaosReport::default();
    let mut slow_loris_used = 0usize;
    for i in 0..cfg.cases {
        let mut kind = match i % 5 {
            0 => Corruption::Truncate,
            1 => Corruption::BitFlip,
            2 => Corruption::OversizeDeclared,
            3 => Corruption::MidFrameDisconnect,
            _ => Corruption::SlowLoris,
        };
        if kind == Corruption::SlowLoris {
            if slow_loris_used >= cfg.max_slow_loris {
                kind = Corruption::BitFlip;
            } else {
                slow_loris_used += 1;
            }
        }
        let outcome = run_case(addr, kind, cfg.seed.wrapping_add(i as u64), cfg);
        report.cases += 1;
        match outcome {
            Outcome::TypedError => report.typed_errors += 1,
            Outcome::Ok => report.ok += 1,
            Outcome::CleanClose => report.clean_closes += 1,
            Outcome::Hang => {
                report.hangs += 1;
                if report.failing_cases.len() < 16 {
                    report.failing_cases.push((i, kind.name()));
                }
            }
            Outcome::ConnectFailed => {
                report.connect_failures += 1;
                if report.failing_cases.len() < 16 {
                    report.failing_cases.push((i, kind.name()));
                }
            }
        }
    }
    report
}

/// Results of a [`run_trace_echo`] storm.
#[derive(Debug, Default, Clone)]
pub struct TraceEchoReport {
    /// Responses whose trace IDs were checked against their requests.
    pub checked: usize,
    /// Echo violations, as `"<status>: expected <hex> got <hex>"`. Any entry
    /// is a failure.
    pub mismatches: Vec<String>,
    /// Distinct response status names observed across the run.
    pub statuses_seen: Vec<&'static str>,
    /// Server-assigned trace IDs collected (requests sent with
    /// [`wire::ZERO_TRACE`]).
    pub assigned: usize,
    /// Server-assigned IDs that were all-zero. Any nonzero count is a
    /// failure: the server must always mint a real ID.
    pub assigned_zero: usize,
    /// Server-assigned IDs that collided with an earlier one. Any nonzero
    /// count is a failure: assigned IDs must be unique across a run.
    pub assigned_duplicates: usize,
    /// Requests that failed at the transport level (connect/timeout); these
    /// could not be checked.
    pub transport_errors: usize,
}

impl TraceEchoReport {
    /// The pass criterion: every checked response echoed its request's trace
    /// ID byte-for-byte, and every server-assigned ID was nonzero and unique.
    pub fn all_echoed(&self) -> bool {
        self.checked > 0
            && self.mismatches.is_empty()
            && self.assigned > 0
            && self.assigned_zero == 0
            && self.assigned_duplicates == 0
    }

    /// True when a response with the given status name was observed.
    pub fn saw_status(&self, name: &str) -> bool {
        self.statuses_seen.contains(&name)
    }

    fn check(&mut self, expected: TraceId, resp: &wire::Response) {
        self.checked += 1;
        if !self.statuses_seen.contains(&resp.status.name()) {
            self.statuses_seen.push(resp.status.name());
        }
        if resp.trace_id != expected && self.mismatches.len() < 16 {
            self.mismatches.push(format!(
                "{}: expected {} got {}",
                resp.status.name(),
                wire::trace_hex(&expected),
                wire::trace_hex(&resp.trace_id),
            ));
        }
    }
}

/// A noisy (poorly compressible) f32 field payload, to keep a worker busy.
fn noisy_payload(rng: &mut XorShift64, points: usize) -> Vec<u8> {
    (0..points).flat_map(|_| (((rng.next_u64() & 0xFFFF) as f32) * 0.118).to_le_bytes()).collect()
}

/// A tiny request still unanswered after this long is queued behind the
/// blocker: an idle worker answers it in well under a millisecond.
const STUCK: Duration = Duration::from_millis(60);

/// How many times longer than [`STUCK`] the blocker must run, so it is still
/// running when the overload burst that follows the detection lands.
const BLOCKER_MARGIN: u32 = 10;

/// A noisy SZ3 compress of `planes × 64 × 64` points, to keep a worker busy.
fn blocker_op(rng: &mut XorShift64, planes: u32) -> Op {
    Op::Compress {
        compressor: "SZ3".into(),
        dtype_bits: 32,
        dims: vec![planes, 64, 64],
        bound: WireBound::Abs(1e-3),
        payload: noisy_payload(rng, planes as usize * 64 * 64),
    }
}

/// Size the overload phase's blocker for *this* server and build: time one
/// serial blocker call and grow it until it lasts [`BLOCKER_MARGIN`] ×
/// [`STUCK`] (or its payload reaches half of `max_frame`). A fixed size silently stops blocking once the compressor
/// gets fast enough, which turns every speed-up into a red suite.
fn calibrate_blocker(
    addr: SocketAddr,
    cfg: &ChaosConfig,
    rng: &mut XorShift64,
    report: &mut TraceEchoReport,
) -> u32 {
    let target = STUCK * BLOCKER_MARGIN;
    let max_planes = (cfg.max_frame / 2 / (64 * 64 * 4)).clamp(1, 1 << 16) as u32;
    let mut planes = 64.min(max_planes);
    loop {
        let Ok(mut client) = Client::connect(addr, cfg.patience, cfg.max_frame) else {
            report.transport_errors += 1;
            return planes;
        };
        let expected = rng_trace(rng);
        client.set_trace_id(expected);
        let started = Instant::now();
        match client.call(0, blocker_op(rng, planes)) {
            Ok(resp) => report.check(expected, &resp),
            Err(_) => {
                report.transport_errors += 1;
                return planes;
            }
        }
        let took = started.elapsed();
        if took >= target || planes == max_planes {
            return planes;
        }
        // Cost is linear in points; overshoot a little so one step suffices.
        let grow = target.as_secs_f64() / took.as_secs_f64().max(1e-4) * 1.25;
        planes = ((planes as f64 * grow).ceil() as u32).clamp(planes + 1, max_planes);
    }
}

/// One framed request with an explicit trace ID, written raw (no response
/// read), so several can be in flight at once on separate connections.
fn send_raw(
    addr: SocketAddr,
    cfg: &ChaosConfig,
    deadline_ms: u32,
    op: Op,
    trace_id: TraceId,
) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, cfg.patience)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.patience))?;
    stream.set_write_timeout(Some(cfg.patience))?;
    let body = wire::encode_request(&Request { id: 1, deadline_ms, op, trace_id });
    wire::write_frame(&mut stream, &body)?;
    Ok(stream)
}

/// Whether a response (or a close) shows up on a raw stream within `wait`,
/// without consuming it. A failed send counts as answered: there is nothing
/// to wait for, and `recv_checked` books the transport error.
fn answered_within(
    stream: &std::io::Result<TcpStream>,
    wait: Duration,
    patience: Duration,
) -> bool {
    let Ok(stream) = stream else { return true };
    let _ = stream.set_read_timeout(Some(wait));
    let answered = stream.peek(&mut [0u8; 1]).is_ok();
    let _ = stream.set_read_timeout(Some(patience));
    answered
}

/// Read the one response off a raw stream and check its echo.
fn recv_checked(
    stream: std::io::Result<TcpStream>,
    expected: TraceId,
    cfg: &ChaosConfig,
    report: &mut TraceEchoReport,
) {
    let Ok(mut stream) = stream else {
        report.transport_errors += 1;
        return;
    };
    match wire::read_frame(&mut stream, cfg.max_frame)
        .ok()
        .and_then(|b| wire::decode_response(&b, cfg.max_frame).ok())
    {
        Some(resp) => report.check(expected, &resp),
        None => report.transport_errors += 1,
    }
}

/// Trace-echo storm: drive well-formed requests through every response
/// status the server can produce — success, typed errors, shed
/// (`SERVER_BUSY`), and `DEADLINE_EXCEEDED` — and verify each response
/// echoes its request's trace ID byte-for-byte. Requests sent with
/// [`wire::ZERO_TRACE`] must come back with a server-assigned ID that is
/// nonzero and unique across the run.
///
/// The shed/deadline phase assumes the target server runs with one worker
/// and a queue of two (the chaos suite configures `workers: 1,
/// queue_depth: 2`) and sequences itself on what the server does, not on
/// sleeps: a noisy compress sized by `calibrate_blocker` occupies the
/// worker; tiny requests are sent until one stops coming straight back —
/// that one is queued behind the running blocker; then a 1 ms-deadline
/// request and three more go out pipelined on one connection, which the
/// server reads in order, so the first fills the queue (and expires there)
/// and the rest overflow it and shed.
pub fn run_trace_echo(addr: SocketAddr, cfg: &ChaosConfig) -> TraceEchoReport {
    let mut report = TraceEchoReport::default();
    let mut rng = XorShift64::new(cfg.seed ^ 0x7_1ACE);

    // Phase 1: serial requests covering OK and the typed-error statuses.
    let serial = cfg.cases.clamp(4, 64);
    for _ in 0..serial {
        let Ok(mut client) = Client::connect(addr, cfg.patience, cfg.max_frame) else {
            report.transport_errors += 1;
            continue;
        };
        let payload: Vec<u8> = (0..64u32).flat_map(|v| (v as f32).to_le_bytes()).collect();
        let calls: [(u32, Op); 4] = [
            (0, Op::Ping),
            (
                0,
                Op::Compress {
                    compressor: "no-such-compressor".into(),
                    dtype_bits: 32,
                    dims: vec![64],
                    bound: WireBound::Abs(1e-3),
                    payload: payload.clone(),
                },
            ),
            (0, Op::Decompress { dtype_bits: 32, payload: vec![0xFF; 32] }),
            (
                0,
                Op::Compress {
                    compressor: "SZ3".into(),
                    dtype_bits: 32,
                    dims: vec![64],
                    bound: WireBound::Abs(1e-3),
                    payload,
                },
            ),
        ];
        for (deadline_ms, op) in calls {
            let expected = rng_trace(&mut rng);
            client.set_trace_id(expected);
            match client.call(deadline_ms, op) {
                Ok(resp) => report.check(expected, &resp),
                Err(_) => report.transport_errors += 1,
            }
        }
    }

    // Phase 2: server-assigned IDs — nonzero and unique across the run.
    let mut seen: HashSet<TraceId> = HashSet::new();
    for _ in 0..serial {
        let Ok(mut client) = Client::connect(addr, cfg.patience, cfg.max_frame) else {
            report.transport_errors += 1;
            continue;
        };
        for _ in 0..2 {
            match client.ping() {
                Ok(resp) => {
                    report.check(resp.trace_id, &resp); // echo of assigned = itself
                    report.assigned += 1;
                    if resp.trace_id == wire::ZERO_TRACE {
                        report.assigned_zero += 1;
                    } else if !seen.insert(resp.trace_id) {
                        report.assigned_duplicates += 1;
                    }
                }
                Err(_) => report.transport_errors += 1,
            }
        }
    }

    // Phase 3: overload. Raw streams so requests pile up concurrently.
    let tiny_op = || Op::Compress {
        compressor: "SZ3".into(),
        dtype_bits: 32,
        dims: vec![64],
        bound: WireBound::Abs(1e-3),
        payload: (0..64u32).flat_map(|v| (v as f32).to_le_bytes()).collect(),
    };
    let planes = calibrate_blocker(addr, cfg, &mut rng, &mut report);

    // B0 occupies the worker. Until it gets there tiny requests are answered
    // at once; the first one that is not has taken a queue slot: that is B1.
    let t_b0 = rng_trace(&mut rng);
    let s_b0 = send_raw(addr, cfg, 0, blocker_op(&mut rng, planes), t_b0);
    let give_up = Instant::now() + cfg.patience;
    let (s_b1, t_b1) = loop {
        let t = rng_trace(&mut rng);
        let s = send_raw(addr, cfg, 0, tiny_op(), t);
        if Instant::now() < give_up && answered_within(&s, STUCK, cfg.patience) {
            recv_checked(s, t, cfg, &mut report);
        } else {
            break (s, t);
        }
    };
    // One connection, read in order: D1 (1 ms deadline) takes the last queue
    // slot behind B1 and has expired by dequeue time; the queue is then full,
    // so the three behind it shed with SERVER_BUSY.
    let burst: Vec<TraceId> = (0..4).map(|_| rng_trace(&mut rng)).collect();
    let mut s_burst = TcpStream::connect_timeout(&addr, cfg.patience);
    for (i, &t) in burst.iter().enumerate() {
        let deadline_ms = (i == 0) as u32;
        s_burst = s_burst.and_then(|mut s| {
            let req = Request { id: i as u64, deadline_ms, op: tiny_op(), trace_id: t };
            wire::write_frame(&mut s, &wire::encode_request(&req)).map(|()| s)
        });
    }
    // Shed responses come back immediately, the expired one once B0 and B1
    // are done; each names its request by id.
    match s_burst.and_then(|s| s.set_read_timeout(Some(cfg.patience)).map(|()| s)) {
        Ok(mut s) => {
            for _ in 0..burst.len() {
                match wire::read_frame(&mut s, cfg.max_frame)
                    .ok()
                    .and_then(|b| wire::decode_response(&b, cfg.max_frame).ok())
                {
                    Some(resp) if (resp.id as usize) < burst.len() => {
                        report.check(burst[resp.id as usize], &resp)
                    }
                    _ => report.transport_errors += 1,
                }
            }
        }
        Err(_) => report.transport_errors += burst.len(),
    }
    recv_checked(s_b1, t_b1, cfg, &mut report);
    recv_checked(s_b0, t_b0, cfg, &mut report);

    report
}
