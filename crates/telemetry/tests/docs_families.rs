//! Docs-vs-exporter cross-check: the canonical metric-name table in
//! `docs/telemetry.md` must agree with the exporter's own family validators.
//!
//! The table documents every serving (`qip_serve_*`) and SLO (`qip_slo_*`)
//! Prometheus family. This test parses those names back out of the markdown
//! and checks, in both directions, that they match the families the code
//! validates (`SERVE_COUNTER_FAMILIES`, `SLO_GAUGE_FAMILIES`, plus the two
//! non-counter serve families `check_serve_families` pins) — and that a
//! fully-populated hub actually renders every documented family in a scrape
//! that passes the strict exposition validator. Editing either side without
//! the other fails here, not in production.

use qip_telemetry::export::{
    check_prometheus_text, check_serve_families, check_slo_families, prometheus_text,
    SERVE_COUNTER_FAMILIES, SLO_GAUGE_FAMILIES,
};
use qip_telemetry::MetricsHub;
use std::collections::BTreeSet;

/// The non-counter serving families `check_serve_families` also pins.
const SERVE_EXTRA_FAMILIES: [&str; 2] = ["qip_serve_queue_depth", "qip_serve_request_ns"];

fn docs_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/telemetry.md");
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Every backticked `qip_…` token in the document with the given prefix.
fn documented_families(doc: &str, prefix: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    for chunk in doc.split('`').skip(1).step_by(2) {
        if chunk.starts_with(prefix)
            && chunk.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            found.insert(chunk.to_string());
        }
    }
    found
}

fn expected_families() -> BTreeSet<String> {
    SERVE_COUNTER_FAMILIES
        .iter()
        .chain(SERVE_EXTRA_FAMILIES.iter())
        .chain(SLO_GAUGE_FAMILIES.iter())
        .map(|s| s.to_string())
        .collect()
}

#[test]
fn documented_families_match_exporter_validators() {
    let doc = docs_text();
    let mut documented = documented_families(&doc, "qip_serve_");
    documented.extend(documented_families(&doc, "qip_slo_"));
    let expected = expected_families();

    let undocumented: Vec<_> = expected.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "families the exporter validates but docs/telemetry.md never mentions: {undocumented:?}"
    );
    let unknown: Vec<_> = documented.difference(&expected).collect();
    assert!(
        unknown.is_empty(),
        "families documented in docs/telemetry.md that no exporter validator knows: {unknown:?}"
    );
}

#[test]
fn every_documented_family_renders_in_a_populated_scrape() {
    // A hub exercising every serving + SLO family.
    let hub = MetricsHub::new();
    hub.counter_add("qip.serve.requests", &[("op", "compress"), ("status", "OK")], 3);
    hub.gauge_set("qip.serve.queue_depth", &[("worker", "w0")], 2.0);
    hub.observe("qip.serve.request_ns", &[("op", "compress")], 250_000);
    hub.slo.record("compress", false, 250_000);
    hub.slo.record("compress", true, 900_000_000);
    hub.slo.publish(&hub);

    let text = prometheus_text(&hub);
    check_prometheus_text(&text).expect("strict exposition validity");
    check_serve_families(&text).expect("serve family shapes");
    check_slo_families(&text).expect("slo family shapes");

    for family in expected_families() {
        assert!(
            text.lines().any(|l| l.starts_with(&format!("# TYPE {family} "))),
            "documented family {family} missing a # TYPE line in a populated scrape"
        );
    }
}
