//! The per-request record: one [`RequestEvent`] per frame a server answers,
//! carrying the trace ID, op, status, queue wait and per-stage durations
//! (accept → dequeue → parse → compress → respond). It is the one record of
//! a served request: the server's event log keeps every event in a bounded
//! [`Ring`](crate::Ring) (`qip serve --events`), and the
//! [`TailSampler`](crate::TailSampler) keeps the same records for its sample
//! and the requests over its rolling p99. [`FlightRecord`](crate::FlightRecord)
//! is its per-call counterpart.

use serde::Serialize;
use std::time::Instant;

/// Default number of request events retained.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// One finished request.
#[derive(Debug, Clone, Serialize)]
pub struct RequestEvent {
    /// Trace ID (32 lower-hex chars).
    pub trace_id: String,
    /// Op label (`"compress"`, `"ping"`, …).
    pub op: &'static str,
    /// Response status name (`"OK"`, `"SERVER_BUSY"`, …).
    pub status: &'static str,
    /// Time from accept to worker dequeue (0 for inline ops).
    pub queue_wait_ns: u64,
    /// Per-stage durations, in stage order.
    pub stages: Stages,
    /// End-to-end duration from accept to response enqueue.
    pub total_ns: u64,
}

/// Ordered `(stage, duration_ns)` pairs, written as the JSON object
/// `{"dequeue":1,"parse":2,…}` in stage order.
#[derive(Debug, Clone)]
pub struct Stages(pub Vec<(&'static str, u64)>);

impl Serialize for Stages {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (stage, ns)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            stage.write_json(out);
            out.push(':');
            ns.write_json(out);
        }
        out.push('}');
    }
}

/// Accumulates per-stage durations while a request moves through the worker
/// pipeline: each [`StageTimer::mark`] records the time since the previous
/// mark (or construction) under the given label.
pub struct StageTimer {
    last: Instant,
    marks: Vec<(&'static str, u64)>,
}

impl StageTimer {
    /// Start timing now.
    pub fn start() -> StageTimer {
        StageTimer { last: Instant::now(), marks: Vec::with_capacity(4) }
    }

    /// Close the current stage under `label` and start the next one.
    pub fn mark(&mut self, label: &'static str) {
        let now = Instant::now();
        self.marks.push((label, now.duration_since(self.last).as_nanos() as u64));
        self.last = now;
    }

    /// Take the recorded stages.
    pub fn take(&mut self) -> Stages {
        Stages(std::mem::take(&mut self.marks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_their_stages_as_one_ordered_object() {
        let event = RequestEvent {
            trace_id: "ab".repeat(16),
            op: "compress",
            status: "OK",
            queue_wait_ns: 10,
            stages: Stages(vec![("dequeue", 1), ("parse", 2), ("compress", 30), ("respond", 4)]),
            total_ns: 38,
        };
        let head = format!(r#"{{"trace_id":"{}","op":"compress","status":"OK""#, "ab".repeat(16));
        let tail = r#""stages":{"dequeue":1,"parse":2,"compress":30,"respond":4},"total_ns":38}"#;
        let line = format!(r#"{head},"queue_wait_ns":10,{tail}"#);
        assert_eq!(serde_json::to_string(&event).unwrap(), line);
    }

    #[test]
    fn stage_timer_marks_are_ordered_and_nonoverlapping() {
        let mut t = StageTimer::start();
        t.mark("parse");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.mark("compress");
        let Stages(marks) = t.take();
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].0, "parse");
        assert_eq!(marks[1].0, "compress");
        assert!(marks[1].1 >= 2_000_000, "compress stage covers the sleep");
        assert!(t.take().0.is_empty(), "take drains");
    }
}
