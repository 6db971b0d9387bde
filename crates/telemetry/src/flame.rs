//! Flamegraph bridge: collapse a [`TraceReport`] span tree into the
//! folded-stack text format consumed by inferno / flamegraph.pl / speedscope.
//!
//! Each output line is `root;child;grandchild <weight>` where the weight is
//! the node's *self* time in nanoseconds — exactly the semantics flamegraph
//! tools expect (a frame's total width becomes self + descendants). Frames
//! with zero self time are still emitted when they are leaves, so synthesized
//! intermediate nodes never swallow a subtree.

use crate::{SpanNode, TraceReport};

/// Frame separator mandated by the folded format; occurrences inside span
/// names are replaced to keep the stack structure parseable.
const SEP: char = ';';

fn clean(name: &str) -> String {
    name.replace(SEP, ",").replace(['\n', '\r'], " ")
}

/// Convert a report's span tree to collapsed-stack ("folded") format.
/// Returns an empty string for an empty report.
pub fn collapsed_stacks(report: &TraceReport) -> String {
    fn walk(node: &SpanNode, prefix: &str, out: &mut String) {
        let path = if prefix.is_empty() {
            clean(&node.name)
        } else {
            format!("{prefix}{SEP}{}", clean(&node.name))
        };
        if node.self_ns > 0 || node.children.is_empty() {
            out.push_str(&format!("{path} {}\n", node.self_ns));
        }
        for c in &node.children {
            walk(c, &path, out);
        }
    }
    let mut out = String::new();
    for n in &report.spans {
        walk(n, "", &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn report() -> TraceReport {
        let mut spans = BTreeMap::new();
        spans.insert("compress[SZ3]".to_string(), (1, 1000));
        spans.insert("compress[SZ3]/quantize".to_string(), (1, 600));
        spans.insert("compress[SZ3]/quantize/encode".to_string(), (2, 100));
        spans.insert("decompress[SZ3]".to_string(), (1, 50));
        TraceReport::from_maps(spans, BTreeMap::new(), BTreeMap::new())
    }

    #[test]
    fn folded_lines_carry_self_time() {
        let folded = collapsed_stacks(&report());
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"compress[SZ3] 400"), "{folded}");
        assert!(lines.contains(&"compress[SZ3];quantize 500"), "{folded}");
        assert!(lines.contains(&"compress[SZ3];quantize;encode 100"), "{folded}");
        assert!(lines.contains(&"decompress[SZ3] 50"), "{folded}");
        // Every line is `stack <integer>`.
        for line in &lines {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            weight.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn zero_self_leaves_survive_and_separators_are_cleaned() {
        let mut spans = BTreeMap::new();
        // Parent time fully attributed to the child; child name abuses ';'.
        spans.insert("a".to_string(), (1, 100));
        spans.insert("a/b;c".to_string(), (1, 100));
        let r = TraceReport::from_maps(spans, BTreeMap::new(), BTreeMap::new());
        let folded = collapsed_stacks(&r);
        assert!(folded.contains("a;b,c 100"), "{folded}");
        // Parent has zero self and a child: no line of its own.
        assert!(!folded.lines().any(|l| l == "a 0"), "{folded}");
    }

    #[test]
    fn empty_report_folds_to_nothing() {
        assert_eq!(collapsed_stacks(&TraceReport::default()), "");
    }
}
