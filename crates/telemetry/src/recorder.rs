//! Flight recorder: a bounded ring buffer of per-call structured records.
//!
//! Every compress/decompress call through an instrumented entry point appends
//! one [`FlightRecord`] — enough context to triage a production incident
//! post-hoc (which compressor, what shape, what bound, what came out, how
//! long it took, and whether it failed). The buffer is bounded: once full,
//! the oldest record is dropped, so memory stays constant under any traffic.
//! `seq` is monotonically increasing across the process, so dropped records
//! are detectable as gaps.

use crate::ring::Ring;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default ring capacity (records kept before the oldest is evicted).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Per-level QP acceptance rate: the call's `qp.accept_rate` notes.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct LevelRate {
    /// Interpolation level the rate belongs to.
    pub level: u32,
    /// Fraction of points whose predicted quantization index was accepted.
    pub rate: f64,
}

/// One candidate of the encoder's QP level-prefix choice: the call's
/// `qp.index_bytes_est` notes.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct PrefixEstimate {
    /// Candidate prefix: QP kept on levels `1..=max_level`.
    pub max_level: u32,
    /// Estimated index-stream bytes under that prefix (order-0 entropy).
    pub index_bytes: f64,
}

/// One structured record per compress/decompress call.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct FlightRecord {
    /// Monotonic sequence number (process-wide; gaps mean evicted records).
    pub seq: u64,
    /// Trace ID of the serving request this call ran under (32 lower-hex
    /// chars), or `""` for calls outside any request scope. Set from
    /// [`crate::current_trace`] by the instrumentation entry points.
    pub trace_id: String,
    /// `"compress"` or `"decompress"` (`_into` variants share the name).
    pub op: String,
    /// Compressor name as reported by the registry (`"SZ3+QP"`, …).
    pub compressor: String,
    /// Field dimensions.
    pub dims: Vec<u64>,
    /// Scalar type (`"f32"` / `"f64"`).
    pub dtype: String,
    /// The requested bound's epsilon as passed: absolute for an `Abs`
    /// call, relative to the value range for a `Rel` call (0 for decompress).
    pub error_bound: f64,
    /// Uncompressed payload size in bytes.
    pub raw_bytes: u64,
    /// Compressed stream size in bytes (0 when the call failed).
    pub stream_bytes: u64,
    /// Achieved compression ratio `raw_bytes / stream_bytes` (0 on failure).
    pub cr: f64,
    /// Achieved bitrate in bits per value (0 on failure).
    pub bitrate_bits_per_value: f64,
    /// Wall time of the call in nanoseconds.
    pub duration_ns: u64,
    /// `"ok"` or the error rendering (e.g. `"corrupt: truncated header"`).
    pub outcome: String,
    /// Per-level QP accept rates observed during the call (compress only;
    /// empty for compressors without QP gating).
    pub qp_accept_rates: Vec<LevelRate>,
    /// The QP level prefix the stream keeps (its `qp.max_level` note; 0 with
    /// QP off), or `None` for calls that choose none.
    pub qp_max_level: Option<u32>,
    /// The estimated index bytes of every candidate prefix the encoder
    /// weighed, lowest prefix first (empty when it weighed none).
    pub qp_index_bytes_est: Vec<PrefixEstimate>,
}

/// Bounded, thread-safe ring of [`FlightRecord`]s that stamps each with its
/// `seq`; reads (`len`, `records`, `dump_jsonl`) go to the [`Ring`].
pub struct FlightRecorder {
    seq: AtomicU64,
    ring: Ring<FlightRecord>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder { seq: AtomicU64::new(0), ring: Ring::with_capacity(capacity) }
    }

    /// Append a record, evicting the oldest when full. The recorder assigns
    /// `seq`; the caller's value is overwritten.
    pub fn push(&self, mut record: FlightRecord) {
        record.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.ring.push(record);
    }

    /// Total records ever pushed (including evicted ones).
    pub fn total_pushed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

impl std::ops::Deref for FlightRecorder {
    type Target = Ring<FlightRecord>;
    fn deref(&self) -> &Ring<FlightRecord> {
        &self.ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(compressor: &str) -> FlightRecord {
        FlightRecord { compressor: compressor.into(), ..Default::default() }
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let r = FlightRecorder::with_capacity(3);
        for i in 0..5 {
            r.push(rec(&format!("c{i}")));
        }
        assert_eq!(r.total_pushed(), 5);
        let held = r.records();
        // Oldest two evicted; seq shows the gap.
        assert_eq!(held.iter().map(|r| r.seq).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(held[0].compressor, "c2");
    }

    #[test]
    fn concurrent_pushes_assign_unique_seq() {
        let r = FlightRecorder::with_capacity(1024);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        r.push(rec("x"));
                    }
                });
            }
        });
        assert_eq!(r.total_pushed(), 800);
        let mut seqs: Vec<u64> = r.records().iter().map(|x| x.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 800);
    }
}
