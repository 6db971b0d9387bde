//! Harness-side spans around the calls into each layer.
//!
//! Spans are recorded from outside the library (in-program `qip-trace` spans
//! are a later change), kept in a `Vec`, and written to `trace.json` when the
//! run ends. A disabled tracer makes `begin`/`end` no-ops, so the untraced and
//! traced passes run the same code and their difference is the tracing cost.

use crate::json::Json;
use crate::stats::self_time;
use std::time::Instant;

/// One recorded span. `parent` indexes the span vector; only workload roots
/// have none.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str, round: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let span = Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            round,
        };
        self.spans.push(span);
        self.stack.push(id);
        // Stamp last, so the bookkeeping above is charged to the parent.
        self.spans[id].start_ns = self.now_ns();
        SpanId(Some(id))
    }

    /// Close a span opened by [`Tracer::begin`]; spans close innermost-first.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let SpanId(Some(id)) = id {
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans must close innermost-first");
            self.spans[id].end_ns = now;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn children_of(&self, id: usize) -> Vec<(u64, u64)> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect()
    }

    /// Self time of every span, by index.
    pub fn self_times(&self) -> Vec<u64> {
        (0..self.spans.len())
            .map(|i| {
                self_time(
                    (self.spans[i].start_ns, self.spans[i].end_ns),
                    &self.children_of(i),
                )
            })
            .collect()
    }

    /// For every phase name (phases are the direct children of the workload
    /// root; each round opens its own): the share of the phases' duration that
    /// their descendants' self times cover, i.e. 1 − the phases' own self-time
    /// share. The acceptance check is ≥ 0.98.
    pub fn phase_coverage(&self) -> Vec<(String, f64)> {
        let selfs = self.self_times();
        let mut totals: Vec<(String, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Phases only: spans whose parent is a workload root.
            if s.parent.is_none_or(|p| self.spans[p].parent.is_some()) {
                continue;
            }
            let at = match totals.iter().position(|(name, _, _)| *name == s.name) {
                Some(at) => at,
                None => {
                    totals.push((s.name.clone(), 0, 0));
                    totals.len() - 1
                }
            };
            totals[at].1 += s.end_ns - s.start_ns;
            totals[at].2 += selfs[i];
        }
        totals
            .into_iter()
            .map(|(name, dur, own)| (name, 1.0 - own as f64 / dur.max(1) as f64))
            .collect()
    }

    /// Structural check used after a traced pass: every span is closed, lies
    /// inside its parent, and only workload roots lack one.
    pub fn check(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} span(s) left open", self.stack.len()));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} '{}' ends before it starts", s.name));
            }
            match s.parent {
                None if s.name != self.workload => {
                    return Err(format!("span {i} '{}' has no parent", s.name));
                }
                None => {}
                Some(p) => {
                    let parent = &self.spans[p];
                    if p >= i || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                        return Err(format!("span {i} '{}' escapes its parent", s.name));
                    }
                }
            }
        }
        Ok(())
    }

    /// The spans as JSON rows `{id, name, start_ns, end_ns, self_ns, parent,
    /// workload, round}`.
    pub fn to_json(&self) -> Vec<Json> {
        let selfs = self.self_times();
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::Int(i as i64)),
                    ("name", Json::str(&s.name)),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    ("self_ns", Json::Int(selfs[i] as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("workload", Json::str(&self.workload)),
                    ("round", Json::Int(s.round as i64)),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_check() {
        let mut t = Tracer::new("w", true);
        let root = t.begin("w", 0);
        let phase = t.begin("A.library", 0);
        let op = t.begin("compress[SZ3]", 1);
        t.end(op);
        t.end(phase);
        t.end(root);
        assert!(t.check().is_ok());
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.phase_coverage().len(), 1);
        assert_eq!(t.to_json().len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new("w", false);
        let id = t.begin("x", 0);
        t.end(id);
        assert!(t.spans().is_empty());
        assert!(t.check().is_ok());
    }

    #[test]
    fn orphan_span_fails_the_check() {
        let mut t = Tracer::new("w", true);
        let id = t.begin("not-the-workload", 0);
        t.end(id);
        assert!(t.check().is_err());
    }
}
