//! Tail sampler: a bounded reservoir of per-request tail-latency records.
//!
//! Serving aggregates (histograms, counters) tell you *that* p99 is slow, not
//! *why*. The sampler closes that gap: for a deterministic 1-in-N sample and
//! for any request whose duration crosses a rolling p99 estimate, it retains
//! a [`TailRecord`] keyed by the request's trace ID — duration, queue wait,
//! status and the rolling p99 estimate at decision time.
//!
//! The sampler opens no trace session. Capture is process-global: a session
//! held for one sampled request would cover its whole time in flight,
//! including every request overlapping it on other workers, and that cost
//! on served traffic is unmeasured. `traced` is therefore always `false` and
//! `report_json` always empty; the two fields keep the `--tails` dump's
//! schema. Workers never block on the sampler beyond one short mutex.
//!
//! The rolling p99 estimate comes from a [`Histogram`] of request durations
//! that is reset every [`ROLLING_WINDOW`] observations, so the threshold
//! tracks recent traffic instead of the whole process lifetime.

use crate::hist::Histogram;
use crate::ring::Ring;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default reservoir capacity (records kept before the oldest is evicted).
pub const DEFAULT_TAIL_CAPACITY: usize = 256;
/// Default deterministic sampling period: request `0, N, 2N, …` are sampled.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;
/// Observations folded into the rolling duration histogram before it resets.
pub const ROLLING_WINDOW: u64 = 65_536;

/// One retained tail sample.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TailRecord {
    /// Trace ID of the request (lower hex, 32 chars).
    pub trace_id: String,
    /// Operation label (`"compress"`, `"read_region"`, …).
    pub op: String,
    /// Response status name (`"OK"`, `"DEADLINE_EXCEEDED"`, …).
    pub status: String,
    /// End-to-end duration (accept → response ready for the writer).
    pub duration_ns: u64,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait_ns: u64,
    /// True when this request was in the deterministic 1-in-N sample.
    pub sampled: bool,
    /// True when the duration crossed the rolling p99 estimate.
    pub over_p99: bool,
    /// The rolling p99 estimate at decision time (0 before any estimate).
    pub p99_estimate_ns: u64,
    /// Always `false`: the sampler opens no trace session (module docs).
    pub traced: bool,
    /// Always `""`: no `TraceReport` is captured per request.
    pub report_json: String,
}

/// Per-request activation handle from [`TailSampler::begin`]; hand it back to
/// [`TailSampler::finish`] when the request completes.
#[derive(Debug, Clone, Copy)]
pub struct TailToken {
    /// This request is in the deterministic sample.
    pub sampled: bool,
}

/// Bounded, thread-safe tail-sample reservoir (see module docs); reads
/// (`len`, `records`, `dump_jsonl` — the `--tails` / FLIGHT(tails) dump) go
/// to its [`Ring`].
pub struct TailSampler {
    sample_every: u64,
    counter: AtomicU64,
    durations: Mutex<Histogram>,
    ring: Ring<TailRecord>,
}

impl Default for TailSampler {
    fn default() -> Self {
        TailSampler::with_config(DEFAULT_TAIL_CAPACITY, DEFAULT_SAMPLE_EVERY)
    }
}

impl TailSampler {
    /// A sampler keeping at most `capacity` records, sampling every
    /// `sample_every`-th request deterministically (min 1 for both).
    pub fn with_config(capacity: usize, sample_every: u64) -> TailSampler {
        TailSampler {
            sample_every: sample_every.max(1),
            counter: AtomicU64::new(0),
            durations: Mutex::new(Histogram::new()),
            ring: Ring::with_capacity(capacity),
        }
    }

    /// Request start: decide the deterministic sample membership. Wait-free.
    pub fn begin(&self) -> TailToken {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        TailToken { sampled: n.is_multiple_of(self.sample_every) }
    }

    /// Request end: update the rolling p99 estimate, and retain a record when
    /// the request was sampled or crossed the estimate.
    pub fn finish(
        &self,
        token: TailToken,
        trace_id: &str,
        op: &str,
        status: &str,
        duration_ns: u64,
        queue_wait_ns: u64,
    ) {
        let p99 = {
            let mut h = self.durations.lock().unwrap();
            let estimate = h.quantile(0.99);
            if h.count() >= ROLLING_WINDOW {
                *h = Histogram::new();
            }
            h.record(duration_ns);
            estimate
        };
        let over_p99 = p99.is_some_and(|p| duration_ns > p);

        if !(token.sampled || over_p99) {
            return;
        }
        self.ring.push(TailRecord {
            trace_id: trace_id.to_string(),
            op: op.to_string(),
            status: status.to_string(),
            duration_ns,
            queue_wait_ns,
            sampled: token.sampled,
            over_p99,
            p99_estimate_ns: p99.unwrap_or(0),
            traced: false,
            report_json: String::new(),
        });
    }

    /// Total requests observed via [`TailSampler::begin`].
    pub fn total_seen(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// The current rolling p99 estimate, if any observations exist.
    pub fn p99_estimate_ns(&self) -> Option<u64> {
        self.durations.lock().unwrap().quantile(0.99)
    }
}

impl std::ops::Deref for TailSampler {
    type Target = Ring<TailRecord>;
    fn deref(&self) -> &Ring<TailRecord> {
        &self.ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish_plain(s: &TailSampler, tok: TailToken, id: &str, ns: u64) {
        s.finish(tok, id, "compress", "OK", ns, 0);
    }

    #[test]
    fn deterministic_sample_is_every_nth_and_opens_no_session() {
        let _t = crate::tests::serial();
        let s = TailSampler::with_config(64, 4);
        for i in 0..12u64 {
            let tok = s.begin();
            assert_eq!(tok.sampled, i % 4 == 0, "request {i}");
            assert!(!crate::capturing(), "request {i}: capture stays off");
            finish_plain(&s, tok, &format!("{i:032x}"), 100);
        }
        assert_eq!(s.total_seen(), 12);
        let ids: Vec<String> = s.records().iter().map(|r| r.trace_id.clone()).collect();
        assert_eq!(
            ids,
            vec![format!("{:032x}", 0u64), format!("{:032x}", 4u64), format!("{:032x}", 8u64)]
        );
        let untraced = |r: &TailRecord| !r.traced && r.report_json.is_empty();
        assert!(s.records().iter().all(|r| r.sampled && !r.over_p99 && untraced(r)));
    }

    #[test]
    fn over_p99_requests_are_retained_even_when_not_sampled() {
        // sample_every large enough that only request 0 is in the sample.
        let s = TailSampler::with_config(64, 1_000_000);
        // Build a tight baseline: 200 fast requests.
        for i in 0..200u64 {
            let tok = s.begin();
            finish_plain(&s, tok, &format!("{i:032x}"), 1_000);
        }
        // A 100x outlier must cross the rolling p99 and be retained.
        let tok = s.begin();
        assert!(!tok.sampled);
        finish_plain(&s, tok, &"ff".repeat(16), 100_000);
        let rec = s.records().pop().expect("outlier retained");
        assert_eq!(rec.trace_id, "ff".repeat(16));
        assert!(rec.over_p99);
        assert!(!rec.sampled);
        assert!(rec.p99_estimate_ns > 0);
        // The fast non-sampled requests were not retained.
        assert_eq!(s.len(), 2, "sample[0] + outlier only");
    }

    #[test]
    fn concurrent_begin_finish_count_every_request() {
        let s = TailSampler::with_config(2048, 1);
        std::thread::scope(|sc| {
            for t in 0..8u64 {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..200u64 {
                        let tok = s.begin();
                        s.finish(tok, &format!("{:032x}", t * 1000 + i), "compress", "OK", i, 0);
                    }
                });
            }
        });
        assert_eq!(s.total_seen(), 1600);
        assert_eq!(s.len(), 1600, "sample_every 1 retains every request");
    }
}
