//! Zero-overhead-when-off structured instrumentation for the QIP pipeline.
//!
//! Two independent switches keep the hot path honest:
//!
//! * **Compile time** — without the `enabled` cargo feature every entry point
//!   in this crate is an inlined empty function, so instrumented call sites
//!   add zero code to release builds that don't opt in.
//! * **Run time** — with the feature compiled in, capture is still off until
//!   [`set_enabled`]`(true)`; a disabled call site costs one relaxed atomic
//!   load and nothing else. Compressed output must be byte-identical either
//!   way (pinned by the workspace `trace_equivalence` test and CI).
//!
//! Capture model: each thread records into its own buffer (registered in a
//! global list on first use), so spans and counters are lock-free with respect
//! to other threads; [`take_report`] merges every buffer into a single
//! [`TraceReport`]. Span guards must be dropped in LIFO order on their own
//! thread (the natural result of scoped `let _g = span(..)` usage). Spans
//! recorded on worker threads (e.g. the chunked entropy stage's rayon workers)
//! surface as root-level subtrees — a worker does not inherit its spawner's
//! span stack.
//!
//! Tuner trial loops call [`pause`] so that speculative compress runs don't
//! pollute the stats of the pipeline that is eventually chosen; the trial
//! itself is still visible as the enclosing `tune`/`select_pipeline` span.

#![warn(missing_docs)]

mod report;

pub use report::{CounterEntry, SpanNode, TraceReport, ValueEntry};

/// True when the `enabled` cargo feature is compiled in.
#[inline(always)]
pub const fn compiled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
mod imp {
    use crate::TraceReport;
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    /// All thread buffers ever registered; pruned of dead threads whenever a
    /// session boundary walks the list.
    static REGISTRY: Mutex<Vec<Arc<Mutex<ThreadBuf>>>> = Mutex::new(Vec::new());
    /// Serializes sessions: one `with_session` at a time owns the globals.
    static SESSION: Mutex<()> = Mutex::new(());

    thread_local! {
        static PAUSE_DEPTH: Cell<u32> = const { Cell::new(0) };
        static LOCAL: RefCell<Option<Arc<Mutex<ThreadBuf>>>> = const { RefCell::new(None) };
    }

    #[derive(Default)]
    struct ThreadBuf {
        /// Open spans: (path length before this span was pushed, start time).
        stack: Vec<(usize, Instant)>,
        /// Slash-joined path of currently open spans.
        path: String,
        /// path -> (calls, total_ns)
        spans: BTreeMap<String, (u64, u64)>,
        counters: BTreeMap<String, u64>,
        values: BTreeMap<String, f64>,
    }

    impl ThreadBuf {
        fn reset(&mut self) {
            self.stack.clear();
            self.path.clear();
            self.spans.clear();
            self.counters.clear();
            self.values.clear();
        }
    }

    fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn local_buf() -> Arc<Mutex<ThreadBuf>> {
        LOCAL.with(|slot| {
            let mut slot = slot.borrow_mut();
            match &*slot {
                Some(buf) => Arc::clone(buf),
                None => {
                    let buf = Arc::new(Mutex::new(ThreadBuf::default()));
                    lock_ignore_poison(&REGISTRY).push(Arc::clone(&buf));
                    *slot = Some(Arc::clone(&buf));
                    buf
                }
            }
        })
    }

    #[inline]
    pub(super) fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed) && PAUSE_DEPTH.with(|d| d.get() == 0)
    }

    /// Turn runtime capture on or off globally.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// RAII guard suppressing capture on the current thread while alive.
    pub struct PauseGuard(());

    impl PauseGuard {
        pub(super) fn new() -> PauseGuard {
            PAUSE_DEPTH.with(|d| d.set(d.get() + 1));
            PauseGuard(())
        }
    }

    impl Drop for PauseGuard {
        fn drop(&mut self) {
            PAUSE_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        }
    }

    /// RAII timing guard returned by the `span*` functions.
    ///
    /// Holds its thread buffer directly so dropping never touches TLS (safe
    /// even during thread teardown). `None` means capture was off at entry.
    pub struct Span(Option<Arc<Mutex<ThreadBuf>>>);

    impl Span {
        /// A guard that records nothing when dropped.
        #[inline]
        pub fn noop() -> Span {
            Span(None)
        }
    }

    pub fn span_str(name: &str) -> Span {
        if !enabled() {
            return Span(None);
        }
        let buf = local_buf();
        {
            let mut b = lock_ignore_poison(&buf);
            let prev_len = b.path.len();
            if prev_len > 0 {
                b.path.push('/');
            }
            b.path.push_str(name);
            b.stack.push((prev_len, Instant::now()));
        }
        Span(Some(buf))
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let Some(buf) = self.0.take() else { return };
            let mut b = lock_ignore_poison(&buf);
            let Some((prev_len, start)) = b.stack.pop() else { return };
            let elapsed = start.elapsed().as_nanos() as u64;
            let path = b.path.clone();
            let entry = b.spans.entry(path).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += elapsed;
            b.path.truncate(prev_len);
        }
    }

    pub fn counter_str(name: &str, delta: u64) {
        if !enabled() {
            return;
        }
        let buf = local_buf();
        let mut b = lock_ignore_poison(&buf);
        if let Some(v) = b.counters.get_mut(name) {
            *v += delta;
        } else {
            b.counters.insert(name.to_string(), delta);
        }
    }

    pub fn value_str(name: &str, value: f64) {
        if !enabled() {
            return;
        }
        let buf = local_buf();
        let mut b = lock_ignore_poison(&buf);
        if let Some(v) = b.values.get_mut(name) {
            *v = value;
        } else {
            b.values.insert(name.to_string(), value);
        }
    }

    fn clear_all_buffers() {
        let mut reg = lock_ignore_poison(&REGISTRY);
        reg.retain(|buf| Arc::strong_count(buf) > 1);
        for buf in reg.iter() {
            lock_ignore_poison(buf).reset();
        }
    }

    /// Clear all thread buffers and turn capture on. Prefer [`with_session`],
    /// which also serializes against concurrent sessions.
    pub fn begin_session() {
        clear_all_buffers();
        set_enabled(true);
    }

    /// Turn capture off, merge every thread buffer into one report, and reset
    /// the buffers (pruning those belonging to exited threads).
    pub fn take_report() -> TraceReport {
        set_enabled(false);
        let mut spans: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        let mut reg = lock_ignore_poison(&REGISTRY);
        for buf in reg.iter() {
            let mut b = lock_ignore_poison(buf);
            for (path, (calls, ns)) in std::mem::take(&mut b.spans) {
                let e = spans.entry(path).or_insert((0, 0));
                e.0 += calls;
                e.1 += ns;
            }
            for (name, delta) in std::mem::take(&mut b.counters) {
                *counters.entry(name).or_insert(0) += delta;
            }
            for (name, value) in std::mem::take(&mut b.values) {
                values.insert(name, value);
            }
            b.reset();
        }
        reg.retain(|buf| Arc::strong_count(buf) > 1);
        drop(reg);
        TraceReport::from_maps(spans, counters, values)
    }

    /// Run `f` with capture on and return its result together with the merged
    /// report. Sessions are serialized by a global lock; do not nest.
    pub fn with_session<R>(f: impl FnOnce() -> R) -> (R, TraceReport) {
        let _session = lock_ignore_poison(&SESSION);
        begin_session();
        let result = f();
        let report = take_report();
        (result, report)
    }
}

#[cfg(feature = "enabled")]
pub use imp::{begin_session, set_enabled, take_report, with_session, PauseGuard, Span};

/// True when capture is live on this thread: the `enabled` feature is compiled
/// in, [`set_enabled`]`(true)` has been called, and no [`pause`] guard is
/// active. Call sites with non-trivial stat computation should check this
/// first; the `span*`/`counter*`/`value*` functions all check it internally.
#[cfg(feature = "enabled")]
#[inline]
pub fn enabled() -> bool {
    imp::enabled()
}

/// Open a timing span named `name`; it closes (and records elapsed wall time)
/// when the returned guard drops. Nested spans form a tree via slash-joined
/// paths. Guards must drop in LIFO order on the thread that created them.
#[cfg(feature = "enabled")]
#[inline]
pub fn span(name: &'static str) -> Span {
    imp::span_str(name)
}

/// [`span`] with a lazily built name — the closure only runs when capture is
/// live, so call sites can format names without paying when tracing is off.
#[cfg(feature = "enabled")]
#[inline]
pub fn span_with(name: impl FnOnce() -> String) -> Span {
    if imp::enabled() {
        imp::span_str(&name())
    } else {
        Span::noop()
    }
}

/// Add `delta` to the named monotonic counter.
#[cfg(feature = "enabled")]
#[inline]
pub fn counter(name: &str, delta: u64) {
    imp::counter_str(name, delta)
}

/// Record a floating-point observation (last write wins within a session).
#[cfg(feature = "enabled")]
#[inline]
pub fn value(name: &str, value: f64) {
    imp::value_str(name, value)
}

/// Suppress capture on the current thread while the returned guard lives.
/// Used by trial tuners so speculative compress runs don't pollute the stats
/// of the pipeline that is eventually chosen.
#[cfg(feature = "enabled")]
#[inline]
pub fn pause() -> PauseGuard {
    PauseGuard::new()
}

// ---------------------------------------------------------------------------
// Feature-off stubs: every entry point inlines to nothing.
// ---------------------------------------------------------------------------

/// Inert stand-in for the capture guard (feature `enabled` not compiled).
#[cfg(not(feature = "enabled"))]
pub struct Span(());

#[cfg(not(feature = "enabled"))]
impl Span {
    /// A guard that records nothing when dropped.
    #[inline(always)]
    pub fn noop() -> Span {
        Span(())
    }
}

// No-op Drop impls so call sites can `drop(span)` explicitly to close a stage
// early without tripping `clippy::drop_non_drop` in feature-off builds.
#[cfg(not(feature = "enabled"))]
impl Drop for Span {
    #[inline(always)]
    fn drop(&mut self) {}
}

#[cfg(not(feature = "enabled"))]
impl Drop for PauseGuard {
    #[inline(always)]
    fn drop(&mut self) {}
}

/// Inert stand-in for the pause guard (feature `enabled` not compiled).
#[cfg(not(feature = "enabled"))]
pub struct PauseGuard(());

/// Always false: the `enabled` feature is not compiled in.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// No-op: the `enabled` feature is not compiled in.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn set_enabled(_on: bool) {}

/// No-op span (feature `enabled` not compiled).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn span(_name: &'static str) -> Span {
    Span(())
}

/// No-op span; the name closure is never invoked.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn span_with(_name: impl FnOnce() -> String) -> Span {
    Span(())
}

/// No-op counter (feature `enabled` not compiled).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn counter(_name: &str, _delta: u64) {}

/// No-op value (feature `enabled` not compiled).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn value(_name: &str, _value: f64) {}

/// No-op pause guard (feature `enabled` not compiled).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn pause() -> PauseGuard {
    PauseGuard(())
}

/// No-op session start (feature `enabled` not compiled).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn begin_session() {}

/// Always returns an empty report (feature `enabled` not compiled).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn take_report() -> TraceReport {
    TraceReport::default()
}

/// Runs `f` untraced and returns its result with an empty report.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn with_session<R>(f: impl FnOnce() -> R) -> (R, TraceReport) {
    (f(), TraceReport::default())
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn session_captures_nested_spans_and_counters() {
        let ((), report) = with_session(|| {
            let _outer = span("compress");
            {
                let _inner = span("quantize");
                counter("points", 100);
                counter("points", 28);
                value("entropy", 2.25);
            }
            {
                let _inner = span("entropy_encode");
            }
        });
        let compress = report.span("compress").expect("root span");
        assert_eq!(compress.calls, 1);
        assert_eq!(compress.children.len(), 2);
        assert!(report.span("compress/quantize").is_some());
        assert!(report.span("compress/entropy_encode").is_some());
        assert_eq!(report.counter("points"), Some(128));
        assert_eq!(report.value("entropy"), Some(2.25));
        assert!(compress.total_ns >= compress.children.iter().map(|c| c.total_ns).sum::<u64>());
    }

    #[test]
    fn disabled_records_nothing() {
        // Outside a session capture is off: spans/counters are dropped.
        {
            let _g = span("orphan");
            counter("orphan_count", 1);
        }
        let ((), report) = with_session(|| {});
        assert!(report.span("orphan").is_none());
        assert_eq!(report.counter("orphan_count"), None);
        assert!(report.is_empty());
    }

    #[test]
    fn pause_suppresses_capture() {
        let ((), report) = with_session(|| {
            let _outer = span("tune");
            {
                let _p = pause();
                let _hidden = span("trial_compress");
                counter("trial_points", 999);
            }
            counter("kept", 1);
        });
        assert!(report.span("tune").is_some());
        assert!(report.span("tune/trial_compress").is_none());
        assert_eq!(report.counter("trial_points"), None);
        assert_eq!(report.counter("kept"), Some(1));
    }

    #[test]
    fn worker_threads_merge_as_roots() {
        let ((), report) = with_session(|| {
            let _outer = span("encode");
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        let _w = span("chunk");
                        counter("chunks", 1);
                    });
                }
            });
        });
        // Worker spans are root-level: they don't inherit "encode".
        let chunk = report.span("chunk").expect("worker root span");
        assert_eq!(chunk.calls, 3);
        assert!(report.span("encode/chunk").is_none());
        assert_eq!(report.counter("chunks"), Some(3));
    }

    #[test]
    fn sessions_are_isolated() {
        let ((), first) = with_session(|| {
            counter("a", 1);
        });
        let ((), second) = with_session(|| {
            counter("b", 2);
        });
        assert_eq!(first.counter("a"), Some(1));
        assert_eq!(first.counter("b"), None);
        assert_eq!(second.counter("a"), None);
        assert_eq!(second.counter("b"), Some(2));
    }

    #[test]
    fn span_with_builds_name_lazily() {
        let mut built = false;
        {
            let _g = span_with(|| {
                built = true;
                "never".to_string()
            });
        }
        assert!(!built, "name closure must not run while capture is off");
        let ((), report) = with_session(|| {
            let _g = span_with(|| "compress[SZ3]".to_string());
        });
        assert!(report.span("compress[SZ3]").is_some());
    }
}
