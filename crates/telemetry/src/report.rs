//! Merged trace output: a span tree plus flat counter/value tables.

use serde::Serialize;
use std::collections::BTreeMap;

/// One node of the merged span tree.
#[derive(Debug, Clone, Serialize)]
pub struct SpanNode {
    /// Span name (one path component; the full path is the root-to-node join).
    pub name: String,
    /// Number of times the span was entered.
    pub calls: u64,
    /// Total wall time spent inside the span, nanoseconds.
    pub total_ns: u64,
    /// Wall time not attributed to any child span, nanoseconds.
    pub self_ns: u64,
    /// Child spans, sorted by name.
    pub children: Vec<SpanNode>,
}

/// One named monotonic counter (events, bytes, chunk counts, …).
#[derive(Debug, Clone, Serialize)]
pub struct CounterEntry {
    /// Counter name.
    pub name: String,
    /// Accumulated value over the session.
    pub value: u64,
}

/// One named floating-point observation (entropies, rates, …; last write wins).
#[derive(Debug, Clone, Serialize)]
pub struct ValueEntry {
    /// Value name.
    pub name: String,
    /// Last recorded value.
    pub value: f64,
}

/// The merged result of a trace session.
///
/// Spans recorded on worker threads (e.g. inside the chunked entropy stage's
/// rayon workers) appear as their own root-level subtrees: a thread has no
/// knowledge of the span stack of the thread that spawned it.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TraceReport {
    /// Root spans of the merged tree.
    pub spans: Vec<SpanNode>,
    /// All counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// All values, sorted by name.
    pub values: Vec<ValueEntry>,
}

impl TraceReport {
    /// Build a report from path-keyed aggregates (`"a/b/c"` paths). Missing
    /// intermediate nodes are synthesized with zero calls so the tree is
    /// always well-formed.
    pub fn from_maps(
        spans: BTreeMap<String, (u64, u64)>,
        counters: BTreeMap<String, u64>,
        values: BTreeMap<String, f64>,
    ) -> TraceReport {
        let mut root = SpanNode {
            name: String::new(),
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            children: Vec::new(),
        };
        for (path, (calls, total_ns)) in spans {
            let mut node = &mut root;
            for part in path.split('/') {
                let pos = match node.children.iter().position(|c| c.name == part) {
                    Some(p) => p,
                    None => {
                        node.children.push(SpanNode {
                            name: part.to_string(),
                            calls: 0,
                            total_ns: 0,
                            self_ns: 0,
                            children: Vec::new(),
                        });
                        node.children.len() - 1
                    }
                };
                node = &mut node.children[pos];
            }
            node.calls += calls;
            node.total_ns += total_ns;
        }
        fn finalize(node: &mut SpanNode) {
            let child_total: u64 = node.children.iter().map(|c| c.total_ns).sum();
            node.self_ns = node.total_ns.saturating_sub(child_total);
            node.children.sort_by_key(|c| std::cmp::Reverse(c.total_ns));
            for c in &mut node.children {
                finalize(c);
            }
        }
        finalize(&mut root);
        TraceReport {
            spans: root.children,
            counters: counters
                .into_iter()
                .map(|(name, value)| CounterEntry { name, value })
                .collect(),
            values: values.into_iter().map(|(name, value)| ValueEntry { name, value }).collect(),
        }
    }

    /// True when the session recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.values.is_empty()
    }

    /// Look up a span node by `/`-joined path (e.g. `"compress[SZ3]/quantize"`).
    pub fn span(&self, path: &str) -> Option<&SpanNode> {
        let mut parts = path.split('/');
        let first = parts.next()?;
        let mut node = self.spans.iter().find(|n| n.name == first)?;
        for part in parts {
            node = node.children.iter().find(|n| n.name == part)?;
        }
        Some(node)
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|c| c.name.starts_with(prefix)).map(|c| c.value).sum()
    }

    /// Look up a value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// Serialize the report as a JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace report is always serializable")
    }

    /// Render a human-readable table: the span tree (total/self milliseconds
    /// and call counts), then counters, then values.
    pub fn render(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1e6
        }
        fn walk(node: &SpanNode, depth: usize, out: &mut String) {
            out.push_str(&format!(
                "{:indent$}{:<width$} {:>10.3} ms {:>10.3} ms {:>8}\n",
                "",
                node.name,
                ms(node.total_ns),
                ms(node.self_ns),
                node.calls,
                indent = depth * 2,
                width = 36usize.saturating_sub(depth * 2),
            ));
            for c in &node.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(empty trace report)\n");
            return out;
        }
        out.push_str(&format!(
            "{:<36} {:>13} {:>13} {:>8}\n",
            "span", "total", "self", "calls"
        ));
        for n in &self.spans {
            walk(n, 0, &mut out);
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                out.push_str(&format!("  {:<40} {}\n", c.name, c.value));
            }
        }
        if !self.values.is_empty() {
            out.push_str("values:\n");
            for v in &self.values {
                out.push_str(&format!("  {:<40} {:.4}\n", v.name, v.value));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceReport {
        let mut spans = BTreeMap::new();
        spans.insert("a".to_string(), (1, 100));
        spans.insert("a/b".to_string(), (2, 60));
        spans.insert("a/b/c".to_string(), (4, 10));
        spans.insert("d/e".to_string(), (1, 5)); // missing intermediate "d"
        let mut counters = BTreeMap::new();
        counters.insert("bytes".to_string(), 42);
        let mut values = BTreeMap::new();
        values.insert("entropy".to_string(), 1.5);
        TraceReport::from_maps(spans, counters, values)
    }

    #[test]
    fn tree_structure_and_self_time() {
        let r = sample();
        let a = r.span("a").unwrap();
        assert_eq!(a.calls, 1);
        assert_eq!(a.total_ns, 100);
        assert_eq!(a.self_ns, 40); // 100 − 60 (child b)
        let b = r.span("a/b").unwrap();
        assert_eq!(b.self_ns, 50);
        assert_eq!(r.span("a/b/c").unwrap().calls, 4);
        // Synthesized intermediate keeps the tree navigable.
        let d = r.span("d").unwrap();
        assert_eq!(d.calls, 0);
        assert_eq!(d.self_ns, 0);
        assert_eq!(r.span("d/e").unwrap().total_ns, 5);
        assert!(r.span("nope").is_none());
    }

    #[test]
    fn lookups() {
        let r = sample();
        assert_eq!(r.counter("bytes"), Some(42));
        assert_eq!(r.counter_sum("by"), 42);
        assert_eq!(r.value("entropy"), Some(1.5));
    }

    #[test]
    fn json_and_render() {
        let r = sample();
        let json: serde_json::Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(json["spans"][0]["total_ns"].as_u64(), Some(100));
        assert_eq!(json["counters"][0]["name"].as_str(), Some("bytes"));
        assert_eq!(json["values"][0]["value"].as_f64(), Some(1.5));
        let table = r.render();
        assert!(table.contains("entropy"));
        assert!(TraceReport::default().render().contains("empty"));
    }
}
