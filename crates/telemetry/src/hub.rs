//! `MetricsHub`: the named-metric registry a process attaches for telemetry.
//!
//! The hub owns three metric families — monotonic counters, gauges, and
//! [`Histogram`]s — keyed by `(name, labels)`, plus the per-call
//! [`FlightRecorder`]. Lookup takes a short mutex on the family's map; the
//! returned handles are `Arc`ed atomics, so instrumentation sites that keep a
//! handle pay no lock at all on the hot path. Convenience one-shot methods
//! (`counter_add`, `gauge_set`, `observe`) do the lookup inline, which is
//! still cheap relative to a compress call (microseconds vs milliseconds).

use crate::hist::{HistSummary, Histogram};
use crate::recorder::FlightRecorder;
use crate::slo::SloTracker;
use crate::tail::TailSampler;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of one metric series: a name plus ordered `(key, value)` labels.
///
/// Labels are stored raw; escaping for a given wire format happens in the
/// exporter, so the same series renders correctly in both Prometheus text
/// and JSON.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric (family) name, dot-separated by convention (`qip.compress.ns`).
    pub name: String,
    /// Label set, kept sorted by key for a canonical identity.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key; labels are sorted so `[("a","1"),("b","2")]` and
    /// `[("b","2"),("a","1")]` name the same series.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }
}

/// Point-in-time copy of every series in a hub (see [`MetricsHub::snapshot`]).
pub struct Snapshot {
    /// Counter series and their values.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge series and their values.
    pub gauges: Vec<(MetricKey, f64)>,
    /// Histogram series and their summaries.
    pub hists: Vec<(MetricKey, HistSummary)>,
}

/// The process-wide metric registry (attach with [`crate::attach`]).
#[derive(Default)]
pub struct MetricsHub {
    counters: Mutex<BTreeMap<MetricKey, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<AtomicU64>>>, // f64 bit patterns
    hists: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
    /// Per-call flight recorder (bounded; see [`FlightRecorder`]).
    pub recorder: FlightRecorder,
    /// Tail-latency sampler: bounded reservoir of per-request events (see
    /// [`TailSampler`]).
    pub tail: TailSampler,
    /// SLO burn-rate tracker (defaults to [`crate::slo::default_objectives`]).
    pub slo: SloTracker,
}

impl MetricsHub {
    /// A hub whose flight recorder keeps the default number of records.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// A hub whose tail sampler keeps `capacity` samples and samples every
    /// `sample_every`-th finished request (see [`TailSampler::with_config`]).
    /// Private fields rule out struct-update syntax outside this crate, hence
    /// the constructor: tests use it for a reservoir they can predict.
    pub fn with_tail(capacity: usize, sample_every: u64) -> MetricsHub {
        let tail = TailSampler::with_config(capacity, sample_every);
        MetricsHub { tail, ..MetricsHub::default() }
    }

    /// Handle to a counter series, created on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicU64> {
        let key = MetricKey::new(name, labels);
        Arc::clone(self.counters.lock().unwrap().entry(key).or_default())
    }

    /// Add `delta` to a counter series.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.counter(name, labels).fetch_add(delta, Ordering::Relaxed);
    }

    /// Set a gauge series to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let key = MetricKey::new(name, labels);
        let cell = Arc::clone(self.gauges.lock().unwrap().entry(key).or_default());
        cell.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Handle to a histogram series, created on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        Arc::clone(
            self.hists.lock().unwrap().entry(key).or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Record one observation into a histogram series.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.histogram(name, labels).record(value);
    }

    /// Fold every series of `other` into `self` (counters add, gauges take
    /// `other`'s value when set, histograms merge). Lets per-worker hubs be
    /// combined for a fleet-level view, mirroring histogram mergeability.
    pub fn merge(&self, other: &MetricsHub) {
        for (key, v) in other.counters.lock().unwrap().iter() {
            let delta = v.load(Ordering::Relaxed);
            if delta != 0 {
                self.counter_add(
                    &key.name,
                    &key.labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect::<Vec<_>>(),
                    delta,
                );
            }
        }
        for (key, v) in other.gauges.lock().unwrap().iter() {
            let labels: Vec<(&str, &str)> =
                key.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            self.gauge_set(&key.name, &labels, f64::from_bits(v.load(Ordering::Relaxed)));
        }
        for (key, h) in other.hists.lock().unwrap().iter() {
            let labels: Vec<(&str, &str)> =
                key.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            self.histogram(&key.name, &labels).merge(h);
        }
    }

    /// Copy out every series. Metric maps are locked one at a time, so the
    /// snapshot is per-family consistent (adequate for export).
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let hists = self
            .hists
            .lock()
            .unwrap()
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect();
        Snapshot { counters, gauges, hists }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_identity_ignores_label_order() {
        let hub = MetricsHub::new();
        hub.counter_add("c", &[("a", "1"), ("b", "2")], 3);
        hub.counter_add("c", &[("b", "2"), ("a", "1")], 4);
        let snap = hub.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].1, 7);
    }

    #[test]
    fn families_are_independent() {
        let hub = MetricsHub::new();
        hub.counter_add("x", &[], 1);
        hub.gauge_set("x", &[], 2.5);
        hub.observe("x", &[], 9);
        let snap = hub.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.gauges[0].1, 2.5);
        assert_eq!(snap.hists[0].1.count, 1);
    }

    #[test]
    fn merge_folds_all_families() {
        let a = MetricsHub::new();
        let b = MetricsHub::new();
        a.counter_add("c", &[("w", "1")], 5);
        b.counter_add("c", &[("w", "1")], 7);
        b.gauge_set("g", &[], 1.25);
        a.observe("h", &[], 10);
        b.observe("h", &[], 20);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counters[0].1, 12);
        assert_eq!(snap.gauges[0].1, 1.25);
        assert_eq!(snap.hists[0].1.count, 2);
        assert_eq!(snap.hists[0].1.max, 20);
    }

    #[test]
    fn handles_survive_across_lookups() {
        let hub = MetricsHub::new();
        let h1 = hub.counter("c", &[]);
        let h2 = hub.counter("c", &[]);
        h1.fetch_add(1, Ordering::Relaxed);
        h2.fetch_add(1, Ordering::Relaxed);
        assert_eq!(hub.snapshot().counters[0].1, 2);
    }
}
