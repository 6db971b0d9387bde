//! Tail sampler: a bounded reservoir of per-request tail-latency samples.
//!
//! Serving aggregates (histograms, counters) tell you *that* p99 is slow, not
//! *why*. The sampler closes that gap: for a deterministic 1-in-N sample of
//! finished requests and for any request whose duration crosses a rolling
//! p99 estimate, it retains a [`TailSample`]: the request's own
//! [`RequestEvent`] (trace ID, status, queue wait, per-stage durations), the
//! two reasons it was kept and the estimate at decision time.
//!
//! The sampler opens no trace session. Capture is process-global: a session
//! held for one sampled request would cover its whole time in flight,
//! including every request overlapping it on other workers, and that cost
//! on served traffic is unmeasured. Workers never block on the sampler
//! beyond one short mutex.
//!
//! The rolling p99 estimate comes from a [`Histogram`] of request durations
//! that is reset every [`ROLLING_WINDOW`] observations, so the threshold
//! tracks recent traffic instead of the whole process lifetime.

use crate::event::RequestEvent;
use crate::hist::Histogram;
use crate::ring::Ring;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default reservoir capacity (samples kept before the oldest is evicted).
pub const DEFAULT_TAIL_CAPACITY: usize = 256;
/// Default deterministic sampling period: request `0, N, 2N, …` are sampled.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;
/// Observations folded into the rolling duration histogram before it resets.
pub const ROLLING_WINDOW: u64 = 65_536;

/// One retained tail sample: why it was kept, and the request itself.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TailSample {
    /// True when this request was in the deterministic 1-in-N sample.
    pub sampled: bool,
    /// True when its `total_ns` crossed the rolling p99 estimate.
    pub over_p99: bool,
    /// The rolling p99 estimate at decision time (0 before any estimate).
    pub p99_estimate_ns: u64,
    /// The request's event, as the server's event log holds it.
    pub request: RequestEvent,
}

/// Bounded, thread-safe tail-sample reservoir (see module docs); reads
/// (`len`, `records`, `dump_jsonl` — the `--tails` / FLIGHT(tails) dump) go
/// to its [`Ring`].
pub struct TailSampler {
    sample_every: u64,
    counter: AtomicU64,
    durations: Mutex<Histogram>,
    ring: Ring<TailSample>,
}

impl Default for TailSampler {
    fn default() -> Self {
        TailSampler::with_config(DEFAULT_TAIL_CAPACITY, DEFAULT_SAMPLE_EVERY)
    }
}

impl TailSampler {
    /// A sampler keeping at most `capacity` samples, sampling every
    /// `sample_every`-th finished request deterministically (min 1 for both).
    pub fn with_config(capacity: usize, sample_every: u64) -> TailSampler {
        TailSampler {
            sample_every: sample_every.max(1),
            counter: AtomicU64::new(0),
            durations: Mutex::new(Histogram::new()),
            ring: Ring::with_capacity(capacity),
        }
    }

    /// A finished request: count it toward the deterministic sample, update
    /// the rolling p99 estimate, and retain a copy of `request` when it is
    /// in the sample or crossed the estimate.
    pub fn finish(&self, request: &RequestEvent) {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let sampled = n.is_multiple_of(self.sample_every);
        let p99 = {
            let mut h = self.durations.lock().unwrap();
            let estimate = h.quantile(0.99);
            if h.count() >= ROLLING_WINDOW {
                *h = Histogram::new();
            }
            h.record(request.total_ns);
            estimate
        };
        let over_p99 = p99.is_some_and(|p| request.total_ns > p);
        if sampled || over_p99 {
            let (p99_estimate_ns, request) = (p99.unwrap_or(0), request.clone());
            self.ring.push(TailSample { sampled, over_p99, p99_estimate_ns, request });
        }
    }

    /// Total requests observed via [`TailSampler::finish`].
    pub fn total_seen(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// The current rolling p99 estimate, if any observations exist.
    pub fn p99_estimate_ns(&self) -> Option<u64> {
        self.durations.lock().unwrap().quantile(0.99)
    }
}

impl std::ops::Deref for TailSampler {
    type Target = Ring<TailSample>;
    fn deref(&self) -> &Ring<TailSample> {
        &self.ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stages;

    fn request(id: u64, total_ns: u64) -> RequestEvent {
        RequestEvent {
            trace_id: format!("{id:032x}"),
            op: "compress",
            status: "OK",
            queue_wait_ns: 0,
            stages: Stages(vec![("compress", total_ns)]),
            total_ns,
        }
    }

    #[test]
    fn deterministic_sample_is_every_nth_and_opens_no_session() {
        let _t = crate::tests::serial();
        let s = TailSampler::with_config(64, 4);
        for i in 0..12u64 {
            s.finish(&request(i, 100));
            assert!(!crate::capturing(), "request {i}: capture stays off");
        }
        assert_eq!(s.total_seen(), 12);
        let ids: Vec<String> = s.records().iter().map(|r| r.request.trace_id.clone()).collect();
        assert_eq!(
            ids,
            vec![format!("{:032x}", 0u64), format!("{:032x}", 4u64), format!("{:032x}", 8u64)]
        );
        assert!(s.records().iter().all(|r| r.sampled && !r.over_p99));
    }

    #[test]
    fn over_p99_requests_are_retained_even_when_not_sampled() {
        // sample_every large enough that only request 0 is in the sample.
        let s = TailSampler::with_config(64, 1_000_000);
        // Build a tight baseline: 200 fast requests.
        for i in 0..200u64 {
            s.finish(&request(i, 1_000));
        }
        // A 100x outlier must cross the rolling p99 and be retained whole.
        let outlier = request(0xff, 100_000);
        s.finish(&outlier);
        let rec = s.records().pop().expect("outlier retained");
        assert_eq!(rec.request.trace_id, outlier.trace_id);
        assert_eq!(rec.request.stages.0, outlier.stages.0);
        assert!(rec.over_p99);
        assert!(!rec.sampled);
        assert!(rec.p99_estimate_ns > 0);
        // The fast non-sampled requests were not retained.
        assert_eq!(s.len(), 2, "sample[0] + outlier only");
    }

    #[test]
    fn concurrent_finishes_count_every_request() {
        let s = TailSampler::with_config(2048, 1);
        std::thread::scope(|sc| {
            for t in 0..8u64 {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..200u64 {
                        s.finish(&request(t * 1000 + i, i));
                    }
                });
            }
        });
        assert_eq!(s.total_seen(), 1600);
        assert_eq!(s.len(), 1600, "sample_every 1 retains every request");
    }
}
