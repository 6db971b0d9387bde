//! Declarative service-level objectives with multi-window burn rates.
//!
//! An [`Objective`] declares what "good" means for an operation — either
//! availability ("99.9% of requests succeed") or latency ("99% of compress
//! calls finish under 250 ms, and errors count against the budget too").
//! The [`SloTracker`] folds every finished request into sliding time windows
//! and computes the standard multi-window **burn rate**:
//!
//! ```text
//! burn_rate(window) = observed_bad_fraction(window) / (1 - target)
//! ```
//!
//! A burn rate of 1.0 spends the error budget exactly at the sustainable
//! pace; 10.0 exhausts a 3-day budget in ~7 hours. Following SRE practice
//! the tracker evaluates fast windows (5m / 1h) that catch sharp regressions
//! and slow windows (6h / 3d) that catch slow leaks.
//!
//! Time is measured in nanoseconds since tracker construction. Production
//! callers use [`SloTracker::record`] (wall clock); tests inject synthetic
//! timestamps via [`SloTracker::record_at`] / [`SloTracker::snapshot_at`] so
//! burn-rate math is pinned deterministically.

use std::sync::Mutex;
use std::time::Instant;

/// The four canonical burn-rate windows, longest last: label + base seconds.
const WINDOWS: [(&str, u64); 4] = [("5m", 300), ("1h", 3600), ("6h", 21_600), ("3d", 259_200)];
/// Nanoseconds per second: window lengths are whole seconds.
const SEC_NS: u64 = 1_000_000_000;
/// Buckets per ring; bounds memory and sets window-edge granularity (~0.4%).
const RING_BUCKETS: usize = 256;
/// Windows `5m`/`1h` read the fast ring (spanning `1h`), `6h`/`3d` the slow
/// ring (spanning `3d`); this index splits [`WINDOWS`] between them.
const FAST_WINDOWS: usize = 2;

/// What an [`Objective`] promises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObjectiveKind {
    /// `target` fraction of requests must not fail (typed errors, shed,
    /// deadline, internal all count as failures — the caller decides).
    Availability {
        /// Good fraction promised, e.g. `0.999`.
        target: f64,
    },
    /// `target` fraction of requests must finish within `threshold_ns`;
    /// failed requests count against the budget as well.
    Latency {
        /// Latency threshold in nanoseconds.
        threshold_ns: u64,
        /// Good fraction promised, e.g. `0.99`.
        target: f64,
    },
}

impl ObjectiveKind {
    /// The promised good fraction.
    pub fn target(&self) -> f64 {
        match *self {
            ObjectiveKind::Availability { target } => target,
            ObjectiveKind::Latency { target, .. } => target,
        }
    }

    fn is_bad(&self, error: bool, latency_ns: u64) -> bool {
        match *self {
            ObjectiveKind::Availability { .. } => error,
            ObjectiveKind::Latency { threshold_ns, .. } => error || latency_ns > threshold_ns,
        }
    }

    fn kind_label(&self) -> &'static str {
        match self {
            ObjectiveKind::Availability { .. } => "availability",
            ObjectiveKind::Latency { .. } => "latency",
        }
    }
}

/// One declared objective: a name, the op it applies to, and the promise.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Objective name (the `objective` label on exported gauges).
    pub name: String,
    /// Operation label this applies to (`"compress"`, …) or `"*"` for all.
    pub op: String,
    /// The promise itself.
    pub kind: ObjectiveKind,
}

impl Objective {
    /// An availability objective over `op` (`"*"` matches every op).
    pub fn availability(name: &str, op: &str, target: f64) -> Objective {
        Objective {
            name: name.to_string(),
            op: op.to_string(),
            kind: ObjectiveKind::Availability { target },
        }
    }

    /// A latency objective over `op` (`"*"` matches every op).
    pub fn latency(name: &str, op: &str, threshold_ns: u64, target: f64) -> Objective {
        Objective {
            name: name.to_string(),
            op: op.to_string(),
            kind: ObjectiveKind::Latency { threshold_ns, target },
        }
    }

    fn matches(&self, op: &str) -> bool {
        self.op == "*" || self.op == op
    }
}

/// The default serving objectives attached to a fresh hub: 99.9% wildcard
/// availability and 99% of requests under 500 ms.
pub fn default_objectives() -> Vec<Objective> {
    vec![
        Objective::availability("availability", "*", 0.999),
        Objective::latency("latency_500ms", "*", 500_000_000, 0.99),
    ]
}

/// One sliding-window bucket: event totals stamped with their tick.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    tick: u64,
    total: u64,
    bad: u64,
}

/// A fixed ring of time buckets; `tick = at_ns / bucket_ns` indexes modulo
/// the ring, and a bucket is lazily reset when a new tick lands on it, so
/// recording is O(1) and stale epochs are excluded by the tick stamp.
#[derive(Debug, Clone)]
struct Ring {
    bucket_ns: u64,
    buckets: Vec<Bucket>,
}

impl Ring {
    fn spanning(span_ns: u64) -> Ring {
        Ring {
            bucket_ns: (span_ns / RING_BUCKETS as u64).max(1),
            buckets: vec![Bucket::default(); RING_BUCKETS],
        }
    }

    fn record(&mut self, at_ns: u64, bad: bool) {
        let tick = at_ns / self.bucket_ns;
        let slot = &mut self.buckets[(tick % RING_BUCKETS as u64) as usize];
        if slot.tick != tick {
            *slot = Bucket { tick, total: 0, bad: 0 };
        }
        slot.total += 1;
        slot.bad += u64::from(bad);
    }

    /// `(total, bad)` over the trailing `window_ns` ending at `now_ns`.
    fn window_totals(&self, now_ns: u64, window_ns: u64) -> (u64, u64) {
        let now_tick = now_ns / self.bucket_ns;
        let window_ticks = (window_ns / self.bucket_ns).max(1);
        let oldest = now_tick.saturating_sub(window_ticks - 1);
        let mut total = 0;
        let mut bad = 0;
        for b in &self.buckets {
            if b.total > 0 && b.tick >= oldest && b.tick <= now_tick {
                total += b.total;
                bad += b.bad;
            }
        }
        (total, bad)
    }
}

/// Burn rate from a windowed bad fraction and the objective's target.
/// Exposed so callers and tests share one definition.
pub fn burn_rate(total: u64, bad: u64, target: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let error_rate = bad as f64 / total as f64;
    error_rate / (1.0 - target).max(1e-9)
}

/// One window's worth of evaluation inside an [`ObjectiveReport`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct WindowReport {
    /// Window label (`"5m"`, `"1h"`, `"6h"`, `"3d"`).
    pub window: String,
    /// Requests observed in the window.
    pub total: u64,
    /// Requests that violated the objective in the window.
    pub bad: u64,
    /// `bad / total` (0 when empty).
    pub error_rate: f64,
    /// `error_rate / (1 - target)` (0 when empty).
    pub burn_rate: f64,
}

/// Point-in-time evaluation of one objective.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ObjectiveReport {
    /// Objective name.
    pub name: String,
    /// Op filter (`"*"` for all).
    pub op: String,
    /// `"availability"` or `"latency"`.
    pub kind: String,
    /// Latency threshold (0 for availability objectives).
    pub threshold_ns: u64,
    /// Promised good fraction.
    pub target: f64,
    /// Lifetime requests matched.
    pub total: u64,
    /// Lifetime violations.
    pub bad: u64,
    /// Good fraction over the longest (3d) window; 1.0 when empty.
    pub compliance: f64,
    /// True when `compliance < target` (with at least one event observed).
    pub breached: bool,
    /// Per-window evaluation, fast to slow.
    pub windows: Vec<WindowReport>,
}

/// Point-in-time evaluation of every objective in a tracker.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SloSnapshot {
    /// Nanoseconds since tracker construction at evaluation time.
    pub at_ns: u64,
    /// Per-objective reports, in declaration order.
    pub objectives: Vec<ObjectiveReport>,
}

impl SloSnapshot {
    /// Names of objectives currently in breach.
    pub fn breached(&self) -> Vec<String> {
        self.objectives.iter().filter(|o| o.breached).map(|o| o.name.clone()).collect()
    }

    /// Render as a JSON object string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("stub serializer is infallible")
    }
}

struct ObjectiveState {
    obj: Objective,
    total: u64,
    bad: u64,
    /// Spans `1h`; serves the `5m`/`1h` windows.
    fast: Ring,
    /// Spans `3d`; serves the `6h`/`3d` windows.
    slow: Ring,
}

/// Sliding-window SLO evaluator (see module docs). Thread-safe; recording
/// takes one short mutex, which is noise next to a compress call.
pub struct SloTracker {
    start: Instant,
    objectives: Mutex<Vec<ObjectiveState>>,
}

impl Default for SloTracker {
    /// The [`default_objectives`].
    fn default() -> Self {
        SloTracker::new(default_objectives())
    }
}

impl SloTracker {
    /// A tracker over `objectives`.
    pub fn new(objectives: Vec<Objective>) -> SloTracker {
        let fast_span = WINDOWS[FAST_WINDOWS - 1].1 * SEC_NS;
        let slow_span = WINDOWS[WINDOWS.len() - 1].1 * SEC_NS;
        let objectives = objectives
            .into_iter()
            .map(|obj| ObjectiveState {
                obj,
                total: 0,
                bad: 0,
                fast: Ring::spanning(fast_span),
                slow: Ring::spanning(slow_span),
            })
            .collect();
        SloTracker { start: Instant::now(), objectives: Mutex::new(objectives) }
    }

    /// The declared objectives.
    pub fn objectives(&self) -> Vec<Objective> {
        self.objectives.lock().unwrap().iter().map(|s| s.obj.clone()).collect()
    }

    /// Record a finished request against every matching objective, stamped
    /// with the current wall clock.
    pub fn record(&self, op: &str, error: bool, latency_ns: u64) {
        self.record_at(self.start.elapsed().as_nanos() as u64, op, error, latency_ns);
    }

    /// [`SloTracker::record`] with an injected timestamp (ns since start).
    pub fn record_at(&self, at_ns: u64, op: &str, error: bool, latency_ns: u64) {
        let mut objectives = self.objectives.lock().unwrap();
        for state in objectives.iter_mut() {
            if !state.obj.matches(op) {
                continue;
            }
            let bad = state.obj.kind.is_bad(error, latency_ns);
            state.total += 1;
            state.bad += u64::from(bad);
            state.fast.record(at_ns, bad);
            state.slow.record(at_ns, bad);
        }
    }

    /// Evaluate every objective now.
    pub fn snapshot(&self) -> SloSnapshot {
        self.snapshot_at(self.start.elapsed().as_nanos() as u64)
    }

    /// [`SloTracker::snapshot`] with an injected timestamp (ns since start).
    pub fn snapshot_at(&self, now_ns: u64) -> SloSnapshot {
        let objectives = self
            .objectives
            .lock()
            .unwrap()
            .iter()
            .map(|state| {
                let target = state.obj.kind.target();
                let mut windows = Vec::with_capacity(WINDOWS.len());
                let mut longest = (0u64, 0u64);
                for (i, &(label, secs)) in WINDOWS.iter().enumerate() {
                    let window_ns = secs * SEC_NS;
                    let ring = if i < FAST_WINDOWS { &state.fast } else { &state.slow };
                    let (total, bad) = ring.window_totals(now_ns, window_ns);
                    longest = (total, bad);
                    windows.push(WindowReport {
                        window: label.to_string(),
                        total,
                        bad,
                        error_rate: if total == 0 { 0.0 } else { bad as f64 / total as f64 },
                        burn_rate: burn_rate(total, bad, target),
                    });
                }
                let (lt, lb) = longest;
                let compliance = if lt == 0 { 1.0 } else { (lt - lb) as f64 / lt as f64 };
                let threshold_ns = match state.obj.kind {
                    ObjectiveKind::Latency { threshold_ns, .. } => threshold_ns,
                    ObjectiveKind::Availability { .. } => 0,
                };
                ObjectiveReport {
                    name: state.obj.name.clone(),
                    op: state.obj.op.clone(),
                    kind: state.obj.kind.kind_label().to_string(),
                    threshold_ns,
                    target,
                    total: state.total,
                    bad: state.bad,
                    compliance,
                    breached: lt > 0 && compliance < target,
                    windows,
                }
            })
            .collect();
        SloSnapshot { at_ns: now_ns, objectives }
    }

    /// Export the current evaluation as gauges on `hub`:
    /// `qip.slo.burn_rate{objective,window}`, `qip.slo.compliance{objective}`,
    /// and `qip.slo.objective{objective}` (the target, so dashboards can draw
    /// the line without configuration).
    pub fn publish(&self, hub: &crate::hub::MetricsHub) {
        let snap = self.snapshot();
        for obj in &snap.objectives {
            for w in &obj.windows {
                hub.gauge_set(
                    "qip.slo.burn_rate",
                    &[("objective", obj.name.as_str()), ("window", w.window.as_str())],
                    w.burn_rate,
                );
            }
            hub.gauge_set("qip.slo.compliance", &[("objective", obj.name.as_str())], obj.compliance);
            hub.gauge_set("qip.slo.objective", &[("objective", obj.name.as_str())], obj.target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_burn_rate_is_error_rate_over_budget() {
        // target 0.999 → budget 0.1%. 10 errors in 1000 → rate 1% → burn 10.
        let t = SloTracker::new(vec![Objective::availability("avail", "*", 0.999)]);
        let now = 3000 * SEC_NS;
        for i in 0..1000u64 {
            t.record_at(now - (i % 100), "compress", i < 10, 1000);
        }
        let snap = t.snapshot_at(now);
        let obj = &snap.objectives[0];
        assert_eq!(obj.total, 1000);
        assert_eq!(obj.bad, 10);
        for w in &obj.windows {
            assert_eq!(w.total, 1000, "window {}", w.window);
            assert_eq!(w.bad, 10);
            assert!((w.error_rate - 0.01).abs() < 1e-12);
            assert!((w.burn_rate - 10.0).abs() < 1e-6, "burn {} in {}", w.burn_rate, w.window);
        }
        assert!((obj.compliance - 0.99).abs() < 1e-12);
        assert!(obj.breached, "1% errors breaches a 99.9% objective");
        assert_eq!(snap.breached(), vec!["avail".to_string()]);
    }

    #[test]
    fn latency_objective_counts_slow_and_failed_requests() {
        // target 0.9, threshold 100ns → budget 10%. 30 slow in 100 → burn 3.
        let t = SloTracker::new(vec![Objective::latency("lat", "compress", 100, 0.9)]);
        let now = 500 * SEC_NS;
        for i in 0..100u64 {
            let slow = i < 30;
            t.record_at(now, "compress", false, if slow { 500 } else { 50 });
        }
        // An op the objective doesn't cover must not count.
        t.record_at(now, "ping", false, 10_000);
        let snap = t.snapshot_at(now);
        let obj = &snap.objectives[0];
        assert_eq!(obj.total, 100);
        assert_eq!(obj.bad, 30);
        assert!((obj.windows[0].burn_rate - 3.0).abs() < 1e-6);
        // Errors count against latency budgets too.
        t.record_at(now, "compress", true, 1);
        assert_eq!(t.snapshot_at(now).objectives[0].bad, 31);
    }

    #[test]
    fn fast_window_forgets_old_errors_slow_window_remembers() {
        let t = SloTracker::new(vec![Objective::availability("avail", "*", 0.99)]);
        let now = 7200 * SEC_NS; // 2h in, so the 1h fast ring has wrapped cleanly
        // A burst of errors 10 minutes ago: outside 5m, inside 1h/6h/3d.
        for _ in 0..50 {
            t.record_at(now - 600 * SEC_NS, "compress", true, 0);
        }
        // Recent clean traffic.
        for _ in 0..50 {
            t.record_at(now - SEC_NS, "compress", false, 0);
        }
        let snap = t.snapshot_at(now);
        let by_window: Vec<(&str, u64, u64)> = snap.objectives[0]
            .windows
            .iter()
            .map(|w| (w.window.as_str(), w.total, w.bad))
            .collect();
        assert_eq!(by_window[0], ("5m", 50, 0), "burst aged out of the fast window");
        assert_eq!(by_window[1], ("1h", 100, 50));
        assert_eq!(by_window[2], ("6h", 100, 50));
        assert_eq!(by_window[3], ("3d", 100, 50));
        assert_eq!(snap.objectives[0].windows[0].burn_rate, 0.0);
        assert!((snap.objectives[0].windows[1].burn_rate - 50.0).abs() < 1e-6);
    }

    #[test]
    fn empty_tracker_is_compliant_and_burnless() {
        let t = SloTracker::default();
        let snap = t.snapshot_at(0);
        assert_eq!(snap.objectives.len(), 2);
        for obj in &snap.objectives {
            assert!(!obj.breached);
            assert_eq!(obj.compliance, 1.0);
            assert!(obj.windows.iter().all(|w| w.burn_rate == 0.0));
        }
        assert!(snap.breached().is_empty());
    }

    #[test]
    fn publish_exports_the_gauge_families() {
        let hub = crate::hub::MetricsHub::new();
        let t = SloTracker::new(vec![Objective::availability("avail", "*", 0.999)]);
        t.record("compress", false, 100);
        t.publish(&hub);
        let snap = hub.snapshot();
        let names: Vec<&str> = snap.gauges.iter().map(|(k, _)| k.name.as_str()).collect();
        assert!(names.contains(&"qip.slo.burn_rate"));
        assert!(names.contains(&"qip.slo.compliance"));
        assert!(names.contains(&"qip.slo.objective"));
        // Four windows → four burn_rate series for the one objective.
        assert_eq!(names.iter().filter(|n| **n == "qip.slo.burn_rate").count(), 4);
        let target = snap
            .gauges
            .iter()
            .find(|(k, _)| k.name == "qip.slo.objective")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(target, 0.999);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let t = SloTracker::new(vec![Objective::latency("lat", "compress", 100, 0.9)]);
        t.record_at(1000, "compress", false, 500);
        let json: serde_json::Value = serde_json::from_str(&t.snapshot_at(2000).to_json()).unwrap();
        let lat = &json["objectives"][0];
        assert_eq!(lat["name"].as_str(), Some("lat"));
        assert_eq!(lat["kind"].as_str(), Some("latency"));
        assert_eq!(lat["windows"][0]["window"].as_str(), Some("5m"));
        assert!(lat["windows"][0]["burn_rate"].as_f64().is_some());
    }
}
