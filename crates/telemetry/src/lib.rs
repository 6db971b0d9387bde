//! Observability for the QIP pipeline: always-on production metrics and
//! on-demand trace sessions, behind one run-time gate.
//!
//! * [`hist::Histogram`] — lock-free log-linear (HDR-style) latency
//!   histograms with bounded-relative-error p50/p90/p99 and exact max,
//!   mergeable across threads and processes.
//! * [`hub::MetricsHub`] — the named registry of counters, gauges, and
//!   histograms a process attaches via [`attach`].
//! * [`recorder::FlightRecorder`] — a bounded ring of per-call structured
//!   records (compressor, dims, error bound, achieved ratio, per-level QP
//!   accept rates, duration, outcome) dumpable as JSONL for incident triage.
//! * [`RequestEvent`] — the one per-request record a server keeps: its
//!   event log and the [`TailSampler`]'s reservoir hold the same events.
//! * [`Ring`] — the bounded JSONL ring under the flight recorder, the tail
//!   sampler's reservoir and qip-serve's per-request event log.
//! * [`with_session`] — one diagnostic trace session: [`span`] trees,
//!   counters and values merged into a [`TraceReport`].
//! * [`export`] — Prometheus text exposition and JSON snapshot renderers.
//! * [`flame`] — converts a [`TraceReport`] into collapsed-stack (folded)
//!   format for flamegraph tooling.
//!
//! # The one instrumentation API
//!
//! One call per quantity feeds both sinks by one naming rule.
//! [`count`]`("qp.points", Label::Level(3), n)` adds to the trace counter
//! `qp.points.l3` and to the hub counter `qip.qp.points{level="l3"}`;
//! [`note`] records a per-call value the same way (trace value, and the open
//! [`CallScope`], which [`record_call`] publishes as a `qip.<name>` gauge);
//! [`profile`] is the trace-only value for an O(n) scan; [`capturing`] is the
//! one gate for collecting a statistic at all; [`pause`] silences both sinks;
//! [`span`] / [`span_with`] time a stage of the live session.
//!
//! # Dormant-cost contract
//!
//! With no hub attached and no trace session open, every instrumentation
//! entry point returns after the one relaxed atomic load of [`capturing`].
//! No formatting, no allocation, no locks. Instrumentation only ever
//! *observes* the pipeline — compressed streams are byte-identical with
//! capture on or off (pinned by the `trace_equivalence` integration test).

mod event;
pub mod export;
pub mod flame;
pub mod hist;
pub mod hub;
pub mod recorder;
mod report;
mod ring;
pub mod slo;
pub mod tail;
mod trace;

pub use event::{RequestEvent, StageTimer, Stages, DEFAULT_EVENT_CAPACITY};
pub use hist::{HistSummary, Histogram};
pub use hub::{MetricKey, MetricsHub, Snapshot};
pub use recorder::{FlightRecord, FlightRecorder, LevelRate, PrefixEstimate};
pub use report::{CounterEntry, SpanNode, TraceReport, ValueEntry};
pub use ring::Ring;
pub use slo::{Objective, ObjectiveKind, SloSnapshot, SloTracker};
pub use tail::{TailSample, TailSampler};
pub use trace::{span, span_with, with_session, Span};

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Bit of [`LIVE`]: a hub is attached.
const HUB_LIVE: u8 = 1;
/// Bit of [`LIVE`]: a trace session is open.
const SESSION_LIVE: u8 = 2;
/// Which sinks listen: the one dormant check for both. The hub bit is set
/// strictly after `HUB` is filled and cleared strictly before it is emptied.
static LIVE: AtomicU8 = AtomicU8::new(0);
/// The attached hub. A mutex (not a OnceLock) so tests can attach/detach.
static HUB: Mutex<Option<Arc<MetricsHub>>> = Mutex::new(None);

thread_local! {
    /// Nested [`pause`] guards on this thread (trial tuners).
    static PAUSE_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Open [`CallScope`] on this thread (0 or 1; nested calls don't reopen).
    static CALL_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Values reported via [`note`] inside the open scope.
    static CALL_VALUES: RefCell<Vec<CallValue>> = const { RefCell::new(Vec::new()) };
    /// Trace ID of the serving request currently running on this thread
    /// (set via [`TraceTag`]; empty outside request scope).
    static CURRENT_TRACE: RefCell<String> = const { RefCell::new(String::new()) };
}

/// True when one of `sinks` listens and this thread is not [`pause`]d. When
/// dormant this is a single relaxed atomic load (the `&&` never evaluates
/// its right side), which is the entire hot-path cost.
#[inline]
fn listening(sinks: u8) -> bool {
    LIVE.load(Ordering::Relaxed) & sinks != 0 && PAUSE_DEPTH.with(|d| d.get()) == 0
}

/// True when a hub is attached and telemetry is not paused on this thread.
#[inline]
pub fn active() -> bool {
    listening(HUB_LIVE)
}

/// True when a trace session is open and this thread is not paused.
#[inline]
fn tracing() -> bool {
    listening(SESSION_LIVE)
}

/// Raise or clear the session bit (the trace module's session boundaries).
fn set_session_live(on: bool) {
    if on {
        LIVE.fetch_or(SESSION_LIVE, Ordering::SeqCst);
    } else {
        LIVE.fetch_and(!SESSION_LIVE, Ordering::SeqCst);
    }
}

/// Attach `hub` as the process-wide metrics sink, replacing any previous one.
pub fn attach(hub: Arc<MetricsHub>) {
    *HUB.lock().unwrap() = Some(hub);
    LIVE.fetch_or(HUB_LIVE, Ordering::SeqCst);
}

/// Detach and return the current hub, if any. The hub sink goes dormant.
pub fn detach() -> Option<Arc<MetricsHub>> {
    LIVE.fetch_and(!HUB_LIVE, Ordering::SeqCst);
    HUB.lock().unwrap().take()
}

/// Run `f` against the attached hub; no-op when dormant.
pub fn with_hub<F: FnOnce(&MetricsHub)>(f: F) {
    if !active() {
        return;
    }
    let guard = HUB.lock().unwrap();
    if let Some(hub) = guard.as_ref() {
        let hub = Arc::clone(hub);
        drop(guard); // don't hold the slot lock while touching metric maps
        f(&hub);
    }
}

/// Silence both sinks — the hub and the trace session — on this thread until
/// the guard drops. Trial compressions (SZ3's pipeline selection, the QoZ /
/// HPEZ tuner) run under it, so they never feed the statistics of the run
/// actually kept.
pub fn pause() -> PauseGuard {
    PAUSE_DEPTH.with(|d| d.set(d.get() + 1));
    PauseGuard { _priv: () }
}

/// RAII guard from [`pause`]; re-enables both sinks for this thread on drop.
pub struct PauseGuard {
    _priv: (),
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        PAUSE_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Tag this thread with the trace ID of the request it is serving until the
/// guard drops. While tagged, flight records pushed from this thread carry
/// the ID, tying per-call records to wire-level traces. Works even when
/// telemetry is dormant (the tag is thread-local and costs one refcell swap),
/// so a hub attached mid-request still sees the ID.
pub fn trace_tag(trace_id: &str) -> TraceTag {
    let previous = CURRENT_TRACE.with(|t| std::mem::replace(&mut *t.borrow_mut(), trace_id.to_string()));
    TraceTag { previous }
}

/// The trace ID tagged on this thread via [`trace_tag`] (`""` when none).
pub fn current_trace() -> String {
    CURRENT_TRACE.with(|t| t.borrow().clone())
}

/// RAII guard from [`trace_tag`]; restores the previous tag on drop so
/// nested scopes (inline retries, recursive dispatch) compose.
pub struct TraceTag {
    previous: String,
}

impl Drop for TraceTag {
    fn drop(&mut self) {
        let previous = std::mem::take(&mut self.previous);
        CURRENT_TRACE.with(|t| *t.borrow_mut() = previous);
    }
}

/// The one optional label of a pipeline statistic (see [`count`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Unlabelled: trace `name`, hub `qip.name`.
    None,
    /// An interpolation level: trace `name.l3`, hub `qip.name{level="l3"}`.
    Level(usize),
    /// Any other low-cardinality `(key, value)`: trace `name.value`, hub
    /// `qip.name{key="value"}`.
    Named(&'static str, &'static str),
}

impl Label {
    /// The hub's `(key, value)` pair, `None` when unlabelled.
    fn pair(self) -> Option<(&'static str, Cow<'static, str>)> {
        match self {
            Label::None => None,
            Label::Level(level) => Some(("level", Cow::Owned(format!("l{level}")))),
            Label::Named(key, value) => Some((key, Cow::Borrowed(value))),
        }
    }

    /// The trace session's spelling of `name` under this label.
    fn trace_name(self, name: &str) -> String {
        match self.pair() {
            None => name.to_string(),
            Some((_, value)) => format!("{name}.{value}"),
        }
    }

    /// Run `f` on the hub label set: `first` (if any), then this label.
    fn with_hub_labels<R>(self, first: Option<(&str, &str)>, f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
        let pair = self.pair();
        let labels: Vec<(&str, &str)> =
            first.into_iter().chain(pair.as_ref().map(|(k, v)| (*k, v.as_ref()))).collect();
        f(&labels)
    }
}

/// True when a statistic computed now would be kept: a trace session is open
/// or a hub is attached, and this thread is not [`pause`]d. The one gate for
/// collecting per-point statistics; dormant it is one relaxed load.
#[inline]
pub fn capturing() -> bool {
    listening(HUB_LIVE | SESSION_LIVE)
}

/// Add `n` to a pipeline counter: the trace session's `name[.label]` and the
/// hub's `qip.name{key="label"}` — `count("qp.points", Label::Level(3), n)`
/// feeds `qp.points.l3` and `qip.qp.points{level="l3"}`.
#[inline]
pub fn count(name: &str, label: Label, n: u64) {
    if capturing() {
        count_live(name, label, n);
    }
}

#[inline(never)]
fn count_live(name: &str, label: Label, n: u64) {
    if tracing() {
        trace::counter(&label.trace_name(name), n);
    }
    with_hub(|hub| label.with_hub_labels(None, |l| hub.counter_add(&format!("qip.{name}"), l, n)));
}

/// Record a per-call value: the trace session's `name[.label]` value and, in
/// the open [`CallScope`], the entry [`record_call`] publishes as the gauge
/// `qip.name{compressor, key="label"}`. Last write wins in both, so a trial
/// run that precedes the real compression within one call is overwritten.
#[inline]
pub fn note(name: &str, label: Label, x: f64) {
    if capturing() {
        note_live(name, label, x);
    }
}

#[inline(never)]
fn note_live(name: &str, label: Label, x: f64) {
    if tracing() {
        trace::value(&label.trace_name(name), x);
    }
    if !active() || CALL_DEPTH.with(|d| d.get()) == 0 {
        return;
    }
    CALL_VALUES.with(|vals| {
        let mut vals = vals.borrow_mut();
        match vals.iter_mut().find(|v| v.name == name && v.label == label) {
            Some(v) => v.value = x,
            None => vals.push(CallValue { name: name.to_string(), label, value: x }),
        }
    });
}

/// A value too costly for the always-on path (an O(n) scan, such as a
/// level's index entropy): `f` runs, and its result becomes the trace value
/// `name[.label]`, only inside a live trace session. The hub never sees it.
#[inline]
pub fn profile(name: &str, label: Label, f: impl FnOnce() -> f64) {
    if tracing() {
        trace::value(&label.trace_name(name), f());
    }
}

/// One [`note`] held by the open [`CallScope`].
struct CallValue {
    name: String,
    label: Label,
    value: f64,
}

/// Open per-call collection scope (see [`CallScope::begin`]).
pub struct CallScope {
    _priv: (),
}

impl CallScope {
    /// Open a scope on this thread. Returns `None` when telemetry is dormant
    /// or a scope is already open (nested compressor calls report into the
    /// outermost one), so each top-level call yields exactly one record.
    pub fn begin() -> Option<CallScope> {
        if !active() || CALL_DEPTH.with(|d| d.get()) != 0 {
            return None;
        }
        CALL_DEPTH.with(|d| d.set(1));
        CALL_VALUES.with(|v| v.borrow_mut().clear());
        Some(CallScope { _priv: () })
    }

    /// Close the scope and drain the values reported inside it.
    fn finish(self) -> Vec<CallValue> {
        CALL_VALUES.with(|v| std::mem::take(&mut *v.borrow_mut()))
        // Drop impl resets the depth.
    }
}

impl Drop for CallScope {
    fn drop(&mut self) {
        CALL_DEPTH.with(|d| d.set(0));
    }
}

/// Everything an instrumented entry point knows about one finished call.
pub struct CallReport<'a> {
    /// `"compress"` or `"decompress"`.
    pub op: &'a str,
    /// Registry compressor name (`"SZ3+QP"`, …).
    pub compressor: &'a str,
    /// Field dimensions.
    pub dims: &'a [usize],
    /// Scalar type name (`"f32"` / `"f64"`).
    pub dtype: &'a str,
    /// The requested bound's epsilon as passed: absolute for an `Abs`
    /// call, relative to the value range for a `Rel` call (0 for decompress).
    pub error_bound: f64,
    /// Uncompressed payload size in bytes.
    pub raw_bytes: u64,
    /// Compressed stream size in bytes (0 when the call failed).
    pub stream_bytes: u64,
    /// Wall time of the call in nanoseconds.
    pub duration_ns: u64,
    /// Low-cardinality outcome class for counter labels: `"ok"`,
    /// `"corrupt"`, or `"error"`.
    pub outcome_kind: &'a str,
    /// Full outcome text for the flight record (`"ok"` or error rendering).
    pub outcome: String,
}

/// Record one finished call: updates the hub's histograms/counters, publishes
/// every [`note`] of the scope as the gauge `qip.<name>{compressor[, label]}`
/// and appends a flight record carrying the per-level `qp.accept_rate`s. The
/// scope comes from [`CallScope::begin`] at the start of the call; pass
/// `None` if none was opened (then only a detached record would be
/// meaningless, so this is a no-op when dormant).
pub fn record_call(scope: Option<CallScope>, report: CallReport<'_>) {
    let Some(scope) = scope else { return };
    let values = scope.finish();
    if !active() {
        return; // hub detached mid-call
    }
    let comp = report.compressor;
    let labels = [("compressor", comp)];
    let cr = if report.stream_bytes > 0 {
        report.raw_bytes as f64 / report.stream_bytes as f64
    } else {
        0.0
    };
    // No values, no ratio, no bitrate: a rejected decode has no field, and
    // the empty product of its dims must not read as one value.
    let n_values: u64 = report.dims.iter().map(|&d| d as u64).product();
    let bitrate =
        if cr > 0.0 { report.stream_bytes as f64 * 8.0 / n_values as f64 } else { 0.0 };

    let (mut qp_accept_rates, mut qp_index_bytes_est, mut qp_max_level) = (Vec::new(), Vec::new(), None);
    with_hub(|hub| {
        hub.observe(&format!("qip.{}.duration_ns", report.op), &labels, report.duration_ns);
        hub.counter_add(
            &format!("qip.{}.calls", report.op),
            &[("compressor", comp), ("outcome", report.outcome_kind)],
            1,
        );
        hub.counter_add(&format!("qip.{}.bytes.raw", report.op), &labels, report.raw_bytes);
        hub.counter_add(&format!("qip.{}.bytes.stream", report.op), &labels, report.stream_bytes);
        if cr > 0.0 {
            // CR as a fixed-point histogram (x100) so quantiles are exportable.
            hub.observe(&format!("qip.{}.cr_x100", report.op), &labels, (cr * 100.0) as u64);
        }
        for v in &values {
            let name = format!("qip.{}", v.name);
            v.label.with_hub_labels(Some(labels[0]), |l| hub.gauge_set(&name, l, v.value));
            match (v.name.as_str(), v.label) {
                ("qp.accept_rate", Label::Level(level)) => {
                    qp_accept_rates.push(LevelRate { level: level as u32, rate: v.value })
                }
                ("qp.index_bytes_est", Label::Level(m)) => qp_index_bytes_est
                    .push(PrefixEstimate { max_level: m as u32, index_bytes: v.value }),
                ("qp.max_level", Label::None) => qp_max_level = Some(v.value as u32),
                _ => {}
            }
        }
        qp_accept_rates.sort_by_key(|r| r.level);
        qp_index_bytes_est.sort_by_key(|e| e.max_level);
        hub.recorder.push(FlightRecord {
            seq: 0,
            trace_id: current_trace(),
            op: report.op.to_string(),
            compressor: comp.to_string(),
            dims: report.dims.iter().map(|&d| d as u64).collect(),
            dtype: report.dtype.to_string(),
            error_bound: report.error_bound,
            raw_bytes: report.raw_bytes,
            stream_bytes: report.stream_bytes,
            cr,
            bitrate_bits_per_value: bitrate,
            duration_ns: report.duration_ns,
            outcome: report.outcome.clone(),
            qp_accept_rates: std::mem::take(&mut qp_accept_rates),
            qp_max_level,
            qp_index_bytes_est: std::mem::take(&mut qp_index_bytes_est),
        });
    });
}

/// Append a failure-only flight record (no metrics side effects beyond an
/// error counter). Used by the fault-injection harness to log decode
/// rejections it observes outside the registry entry points.
pub fn record_fault(compressor: &str, op: &str, outcome: &str) {
    if !active() {
        return;
    }
    with_hub(|hub| {
        hub.counter_add("qip.fault.records", &[("compressor", compressor), ("op", op)], 1);
        hub.recorder.push(FlightRecord {
            trace_id: current_trace(),
            op: op.to_string(),
            compressor: compressor.to_string(),
            outcome: outcome.to_string(),
            ..Default::default()
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The hub slot and the trace session are process-global, so every test
    // touching either shares one lock to stay independent of test-thread
    // interleaving. Poison-tolerant: one failing test must not fail the rest.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn dormant_functions_are_noops() {
        let _t = serial();
        detach();
        assert!(!active());
        with_hub(|_| panic!("no hub is attached"));
        count("c", Label::Level(1), 1);
        note("v", Label::None, 1.0);
        assert!(CallScope::begin().is_none());
        record_fault("X", "decompress", "corrupt");
    }

    #[test]
    fn count_names_the_hub_series_by_the_rule_until_detached() {
        let _t = serial();
        let hub = Arc::new(MetricsHub::new());
        attach(Arc::clone(&hub));
        assert!(active());
        count("qp.points", Label::Level(3), 5);
        count("qp.points", Label::Level(3), 2);
        count("sz3.pipeline", Label::Named("pipeline", "lorenzo"), 1);
        count("codec.chunks", Label::None, 4);
        let detached = detach().unwrap();
        assert!(Arc::ptr_eq(&detached, &hub));
        count("codec.chunks", Label::None, 100); // dormant: must not land
        let key = MetricKey::new;
        assert_eq!(
            hub.snapshot().counters,
            vec![
                (key("qip.codec.chunks", &[]), 4),
                (key("qip.qp.points", &[("level", "l3")]), 7),
                (key("qip.sz3.pipeline", &[("pipeline", "lorenzo")]), 1),
            ]
        );
    }

    #[test]
    fn one_pause_guard_silences_both_sinks_nests_and_restores() {
        let _t = serial();
        let hub = Arc::new(MetricsHub::new());
        attach(Arc::clone(&hub));
        let ((), report) = with_session(|| {
            let _outer = span("tune");
            {
                let _p = pause();
                assert!(!capturing() && !active());
                let _hidden = span("trial_compress");
                count("c", Label::None, 1);
                {
                    let _p2 = pause(); // nesting
                    count("c", Label::None, 10);
                }
                assert!(!capturing(), "the outer guard still holds");
                note("trial_value", Label::None, 1.0);
            }
            assert!(capturing() && active());
            count("c", Label::None, 100);
        });
        detach();
        assert!(report.span("tune").is_some());
        assert!(report.span("tune/trial_compress").is_none());
        assert_eq!(report.counter("c"), Some(100));
        assert_eq!(report.value("trial_value"), None);
        assert_eq!(hub.snapshot().counters, vec![(MetricKey::new("qip.c", &[]), 100)]);
    }

    #[test]
    fn call_scope_collects_last_write_wins_and_feeds_record() {
        let _t = serial();
        let hub = Arc::new(MetricsHub::new());
        attach(Arc::clone(&hub));
        let scope = CallScope::begin();
        assert!(scope.is_some());
        assert!(CallScope::begin().is_none()); // no nested scopes
        note("qp.accept_rate", Label::Level(2), 0.5); // trial run…
        note("qp.accept_rate", Label::Level(2), 0.9); // …overwritten by the real one
        note("qp.accept_rate", Label::Level(1), 0.8);
        note("qp.index_bytes_est", Label::Level(1), 310.5);
        note("qp.index_bytes_est", Label::Level(0), 320.0);
        note("qp.max_level", Label::None, 1.0);
        note("qoz.alpha", Label::None, 1.5);
        {
            let _p = pause();
            note("qoz.alpha", Label::None, 9.0); // a paused trial never lands
        }
        record_call(
            scope,
            CallReport {
                op: "compress",
                compressor: "SZ3+QP",
                dims: &[16, 16, 16],
                dtype: "f32",
                error_bound: 1e-3,
                raw_bytes: 16384,
                stream_bytes: 4096,
                duration_ns: 1000,
                outcome_kind: "ok",
                outcome: "ok".into(),
            },
        );
        detach();
        let records = hub.recorder.records();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.cr, 4.0);
        assert_eq!(r.bitrate_bits_per_value, 8.0);
        assert_eq!(
            r.qp_accept_rates,
            vec![LevelRate { level: 1, rate: 0.8 }, LevelRate { level: 2, rate: 0.9 }]
        );
        assert_eq!(r.qp_max_level, Some(1));
        assert_eq!(
            r.qp_index_bytes_est,
            vec![
                PrefixEstimate { max_level: 0, index_bytes: 320.0 },
                PrefixEstimate { max_level: 1, index_bytes: 310.5 },
            ]
        );
        let snap = hub.snapshot();
        let names: Vec<&str> = snap.hists.iter().map(|(k, _)| k.name.as_str()).collect();
        assert!(names.contains(&"qip.compress.duration_ns"));
        assert!(names.contains(&"qip.compress.cr_x100"));
        // Every note is a `qip.<name>` gauge labelled by compressor (+ level).
        let gauge = |name: &str, level: Option<&str>| {
            let mut labels = vec![("compressor".to_string(), "SZ3+QP".to_string())];
            labels.extend(level.map(|l| ("level".to_string(), l.to_string())));
            labels.sort();
            snap.gauges.iter().find(|(k, _)| k.name == name && k.labels == labels).map(|g| g.1)
        };
        assert_eq!(gauge("qip.qp.accept_rate", Some("l2")), Some(0.9));
        assert_eq!(gauge("qip.qp.accept_rate", Some("l1")), Some(0.8));
        assert_eq!(gauge("qip.qoz.alpha", None), Some(1.5));
        assert_eq!(gauge("qip.qp.max_level", None), Some(1.0));
        assert_eq!(gauge("qip.qp.index_bytes_est", Some("l0")), Some(320.0));
        assert_eq!(snap.gauges.len(), 6);
        // A fresh scope starts clean.
        let scope = CallScope::begin();
        assert!(scope.is_none()); // dormant after detach
    }

    #[test]
    fn trace_tag_stamps_flight_records_and_restores_on_drop() {
        let _t = serial();
        let hub = Arc::new(MetricsHub::new());
        attach(Arc::clone(&hub));
        let id = "ab".repeat(16);
        {
            let _tag = trace_tag(&id);
            assert_eq!(current_trace(), id);
            {
                let _nested = trace_tag("cd00");
                assert_eq!(current_trace(), "cd00");
            }
            assert_eq!(current_trace(), id, "nested tag restores the outer one");
            record_fault("SZ3", "decompress", "corrupt: tagged");
        }
        assert_eq!(current_trace(), "");
        record_fault("SZ3", "decompress", "corrupt: untagged");
        detach();
        let recs = hub.recorder.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].trace_id, id);
        assert_eq!(recs[1].trace_id, "");
    }

    #[test]
    fn fault_records_land_in_recorder() {
        let _t = serial();
        let hub = Arc::new(MetricsHub::new());
        attach(Arc::clone(&hub));
        record_fault("MGARD", "decompress", "corrupt: bad magic");
        detach();
        let recs = hub.recorder.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].outcome, "corrupt: bad magic");
        assert_eq!(hub.snapshot().counters[0].1, 1);
    }
}
