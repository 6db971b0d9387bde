//! Trace sessions: scoped timing spans, counters and values merged into one
//! [`TraceReport`].
//!
//! Each thread records into its own buffer (registered in a global list on
//! first use), so spans and counters are lock-free with respect to other
//! threads; the end of a session merges every buffer into one report. Span
//! guards must be dropped in LIFO order on their own thread (the natural
//! result of scoped `let _g = span(..)` usage). Spans recorded on worker
//! threads (e.g. the chunked entropy stage's rayon workers) surface as
//! root-level subtrees — a worker does not inherit its spawner's span stack.
//!
//! One session runs at a time: [`with_session`] holds a process-wide lock
//! from its start to its end.

use crate::TraceReport;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// All thread buffers ever registered; pruned of dead threads whenever a
/// session boundary walks the list.
static REGISTRY: Mutex<Vec<Arc<Mutex<ThreadBuf>>>> = Mutex::new(Vec::new());
/// Held for the whole of a session, so sessions run one at a time.
static SESSION: Mutex<()> = Mutex::new(());

thread_local! {
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

/// RAII timing guard returned by [`span`] and [`span_with`].
///
/// Holds its thread buffer directly so dropping never touches TLS (safe
/// even during thread teardown). `None` means capture was off at entry.
pub struct Span(Option<Arc<Mutex<ThreadBuf>>>);

/// Open a timing span named `name`; it closes (and records elapsed wall time)
/// when the returned guard drops. Nested spans form a tree via slash-joined
/// paths. Guards must drop in LIFO order on the thread that created them.
#[inline]
pub fn span(name: &'static str) -> Span {
    if crate::tracing() {
        open(name)
    } else {
        Span(None)
    }
}

/// [`span`] with a lazily built name — the closure only runs when capture is
/// live, so call sites can format names without paying when tracing is off.
#[inline]
pub fn span_with(name: impl FnOnce() -> String) -> Span {
    if crate::tracing() {
        open(&name())
    } else {
        Span(None)
    }
}

fn open(name: &str) -> Span {
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

/// Add `delta` to the session counter `name`; the caller checked the gate.
pub(crate) fn counter(name: &str, delta: u64) {
    let buf = local_buf();
    let mut b = lock_ignore_poison(&buf);
    if let Some(v) = b.counters.get_mut(name) {
        *v += delta;
    } else {
        b.counters.insert(name.to_string(), delta);
    }
}

/// Set the session value `name` (last write wins); the caller checked the gate.
pub(crate) fn value(name: &str, value: f64) {
    let buf = local_buf();
    let mut b = lock_ignore_poison(&buf);
    if let Some(v) = b.values.get_mut(name) {
        *v = value;
    } else {
        b.values.insert(name.to_string(), value);
    }
}

/// Clear every thread buffer (pruning those of exited threads) and turn
/// capture on; the caller holds [`SESSION`] and must call [`end_session`].
fn begin_session() {
    let mut reg = lock_ignore_poison(&REGISTRY);
    reg.retain(|buf| Arc::strong_count(buf) > 1);
    for buf in reg.iter() {
        lock_ignore_poison(buf).reset();
    }
    crate::set_session_live(true);
}

/// Turn capture off, merge every thread buffer into one report and reset
/// the buffers (pruning those of exited threads).
fn end_session() -> TraceReport {
    crate::set_session_live(false);
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
/// report. Sessions are process-global and run one at a time (a caller
/// waits for the running one); do not nest. A panic in `f` closes the session
/// before it propagates.
pub fn with_session<R>(f: impl FnOnce() -> R) -> (R, TraceReport) {
    let _session = lock_ignore_poison(&SESSION);
    begin_session();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    let report = end_session();
    match result {
        Ok(result) => (result, report),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count, note, Label};

    #[test]
    fn session_captures_nested_spans_and_counters() {
        let _t = crate::tests::serial();
        let ((), report) = with_session(|| {
            let _outer = span("compress");
            {
                let _inner = span("quantize");
                count("points", Label::None, 100);
                count("points", Label::None, 28);
                note("entropy", Label::None, 2.25);
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
        let _t = crate::tests::serial();
        // Outside a session capture is off: spans/counters are dropped.
        {
            let _g = span("orphan");
            count("orphan_count", Label::None, 1);
        }
        let ((), report) = with_session(|| {});
        assert!(report.span("orphan").is_none());
        assert_eq!(report.counter("orphan_count"), None);
        assert!(report.is_empty());
    }

    #[test]
    fn worker_threads_merge_as_roots() {
        let _t = crate::tests::serial();
        let ((), report) = with_session(|| {
            let _outer = span("encode");
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        let _w = span("chunk");
                        count("chunks", Label::None, 1);
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
        let _t = crate::tests::serial();
        let ((), first) = with_session(|| count("a", Label::None, 1));
        let ((), second) = with_session(|| count("b", Label::None, 2));
        assert_eq!(first.counter("a"), Some(1));
        assert_eq!(first.counter("b"), None);
        assert_eq!(second.counter("a"), None);
        assert_eq!(second.counter("b"), Some(2));
    }

    #[test]
    fn span_with_builds_name_lazily() {
        let _t = crate::tests::serial();
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

    #[test]
    fn a_panicking_session_closes_before_it_propagates() {
        let _t = crate::tests::serial();
        let unwound = std::panic::catch_unwind(|| with_session(|| panic!("inside the session")));
        assert!(unwound.is_err());
        assert!(!crate::capturing(), "capture is off again");
        let ((), report) = with_session(|| count("after", Label::None, 1));
        assert_eq!(report.counter("after"), Some(1), "the next session runs");
    }
}
