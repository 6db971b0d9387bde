//! Exporters: Prometheus text exposition format and a JSON snapshot.
//!
//! Both render a [`Snapshot`], so a hub can be exported repeatedly and
//! concurrently with ongoing recording. Histograms are exposed as Prometheus
//! *summary* families (pre-computed quantiles travel with the series, which
//! is what the log-linear histogram gives us without shipping raw buckets);
//! the exact maximum rides along as a companion `<name>_max` gauge.
//!
//! [`check_prometheus_text`] is a small strict validator for the exposition
//! format — used by the unit tests and CI to pin that what we emit actually
//! parses, not just that it looks plausible.

use crate::hist::HistSummary;
use crate::hub::{MetricKey, MetricsHub, Snapshot};

/// Map an internal dot-separated metric name onto the Prometheus name
/// alphabet `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label *value* per the exposition format: backslash, double
/// quote, and line feed must be escaped; everything else is literal.
fn prom_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a label set (optionally with an extra label appended), `{}`-free
/// when empty.
fn prom_labels(key: &MetricKey, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = key
        .labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{}=\"{}\"", k, prom_escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render the hub's current state in Prometheus text exposition format.
pub fn prometheus_text(hub: &MetricsHub) -> String {
    prometheus_text_from(&hub.snapshot())
}

/// Render a previously-taken snapshot in Prometheus text exposition format.
pub fn prometheus_text_from(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    let mut type_line = |out: &mut String, family: &str, kind: &str| {
        if family != last_family {
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            last_family = family.to_string();
        }
    };

    for (key, value) in &snap.counters {
        let family = prom_name(&key.name);
        type_line(&mut out, &family, "counter");
        out.push_str(&format!("{family}{} {value}\n", prom_labels(key, None)));
    }
    for (key, value) in &snap.gauges {
        let family = prom_name(&key.name);
        type_line(&mut out, &family, "gauge");
        out.push_str(&format!("{family}{} {}\n", prom_labels(key, None), fmt_f64(*value)));
    }
    for (key, s) in &snap.hists {
        let family = prom_name(&key.name);
        type_line(&mut out, &family, "summary");
        for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
            out.push_str(&format!(
                "{family}{} {v}\n",
                prom_labels(key, Some(("quantile", q)))
            ));
        }
        out.push_str(&format!("{family}_sum{} {}\n", prom_labels(key, None), s.sum));
        out.push_str(&format!("{family}_count{} {}\n", prom_labels(key, None), s.count));
    }
    // Companion gauges for the exact maxima (a summary has no max sample).
    let mut last_family = String::new();
    for (key, s) in &snap.hists {
        let family = format!("{}_max", prom_name(&key.name));
        if family != last_family {
            out.push_str(&format!("# TYPE {family} gauge\n"));
            last_family = family.clone();
        }
        out.push_str(&format!("{family}{} {}\n", prom_labels(key, None), s.max));
    }
    out
}

/// Strict line-level validator for the Prometheus text exposition format.
///
/// Checks: metric and label names use the legal alphabet, label values are
/// properly quoted/escaped, sample values parse as floats, and every sample
/// belongs to a family announced by a preceding `# TYPE` line (accounting
/// for `_sum`/`_count` on summaries). Returns the first violation.
pub fn check_prometheus_text(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut types: BTreeMap<String, String> = BTreeMap::new();

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    }

    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.splitn(3, ' ');
            match words.next() {
                Some("TYPE") => {
                    let name = words.next().unwrap_or("");
                    let kind = words.next().unwrap_or("");
                    if !valid_name(name) {
                        return err("bad family name in TYPE");
                    }
                    if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                        return err("bad family kind in TYPE");
                    }
                    if types.contains_key(name) {
                        return err("duplicate TYPE for family");
                    }
                    types.insert(name.to_string(), kind.to_string());
                }
                Some("HELP") => {}
                _ => return err("unknown comment directive"),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }

        // Sample line: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let name = &line[..name_end];
        if !valid_name(name) {
            return err("bad metric name");
        }
        let mut rest = &line[name_end..];
        if let Some(body) = rest.strip_prefix('{') {
            let close = body.rfind('}').ok_or_else(|| format!("line {}: unclosed labels", lineno + 1))?;
            let labels = &body[..close];
            rest = &body[close + 1..];
            // Walk `key="value",...` respecting escapes inside values.
            let mut chars = labels.chars().peekable();
            loop {
                let mut key = String::new();
                while let Some(&c) = chars.peek() {
                    if c == '=' {
                        break;
                    }
                    key.push(c);
                    chars.next();
                }
                if !valid_name(&key) {
                    return err("bad label name");
                }
                if chars.next() != Some('=') || chars.next() != Some('"') {
                    return err("label value must be quoted");
                }
                let mut closed = false;
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => match chars.next() {
                            Some('\\') | Some('"') | Some('n') => {}
                            _ => return err("bad escape in label value"),
                        },
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\n' => return err("raw newline in label value"),
                        _ => {}
                    }
                }
                if !closed {
                    return err("unterminated label value");
                }
                match chars.next() {
                    None => break,
                    Some(',') => continue,
                    _ => return err("expected ',' or end of labels"),
                }
            }
        }
        let value = rest.trim_start();
        let value = value.split(' ').next().unwrap_or(""); // optional timestamp after
        let ok = matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok();
        if !ok {
            return err("sample value is not a float");
        }
        // Family membership: exact, or summary's _sum/_count companions.
        let family_ok = types.contains_key(name)
            || [("_sum", "summary"), ("_count", "summary")].iter().any(|(suf, kind)| {
                name.strip_suffix(suf)
                    .is_some_and(|base| types.get(base).map(String::as_str) == Some(kind))
            });
        if !family_ok {
            return err("sample before its # TYPE line");
        }
    }
    Ok(())
}

/// The counter families `qip-serve` records, as exported Prometheus names:
/// `qip.serve.requests{op,status}` counts every answered frame, so shed
/// load, missed deadlines and isolated panics are its `SERVER_BUSY`,
/// `DEADLINE_EXCEEDED` and `INTERNAL` series. Beside it,
/// `qip.serve.queue_depth` is a gauge and `qip.serve.request_ns` a latency
/// histogram (exported as a summary).
pub const SERVE_COUNTER_FAMILIES: [&str; 1] = ["qip_serve_requests"];

/// Validate a scrape from a serving process: the text must be well-formed
/// ([`check_prometheus_text`]), must carry the `qip_serve_requests` counter,
/// and every serve family that does appear must be announced with the
/// expected type (`counter` for requests, `gauge` for queue depth,
/// `summary` for the latency histogram).
pub fn check_serve_families(text: &str) -> Result<(), String> {
    check_prometheus_text(text)?;
    let type_of = |family: &str| -> Option<String> {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("# TYPE {family} ")).map(str::to_string))
    };
    if type_of("qip_serve_requests").is_none() {
        return Err("scrape has no qip_serve_requests family".to_string());
    }
    let others = [("qip_serve_queue_depth", "gauge"), ("qip_serve_request_ns", "summary")];
    for (family, want) in SERVE_COUNTER_FAMILIES.map(|f| (f, "counter")).into_iter().chain(others) {
        match type_of(family) {
            Some(kind) if kind != want => {
                return Err(format!("{family} announced as {kind}, expected {want}"))
            }
            _ => {}
        }
    }
    Ok(())
}

/// The gauge families [`crate::SloTracker::publish`] exports, as Prometheus
/// names: per-objective multi-window burn rates
/// (`qip_slo_burn_rate{objective,window}`), compliance over the long window
/// (`qip_slo_compliance{objective}`), and the declared target
/// (`qip_slo_objective{objective}`).
pub const SLO_GAUGE_FAMILIES: [&str; 3] =
    ["qip_slo_burn_rate", "qip_slo_compliance", "qip_slo_objective"];

/// Validate a scrape from a process that publishes SLOs: the text must be
/// well-formed and carry every [`SLO_GAUGE_FAMILIES`] family, announced as a
/// gauge.
pub fn check_slo_families(text: &str) -> Result<(), String> {
    check_prometheus_text(text)?;
    for family in SLO_GAUGE_FAMILIES {
        let kind = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("# TYPE {family} ")))
            .ok_or_else(|| format!("scrape has no {family} family"))?;
        if kind != "gauge" {
            return Err(format!("{family} announced as {kind}, expected gauge"));
        }
    }
    Ok(())
}

#[derive(serde::Serialize)]
struct LabelOut {
    key: String,
    value: String,
}

#[derive(serde::Serialize)]
struct CounterOut {
    name: String,
    labels: Vec<LabelOut>,
    value: u64,
}

#[derive(serde::Serialize)]
struct GaugeOut {
    name: String,
    labels: Vec<LabelOut>,
    value: f64,
}

#[derive(serde::Serialize)]
struct HistOut {
    name: String,
    labels: Vec<LabelOut>,
    summary: HistSummary,
}

#[derive(serde::Serialize)]
struct SnapshotOut {
    counters: Vec<CounterOut>,
    gauges: Vec<GaugeOut>,
    histograms: Vec<HistOut>,
}

fn labels_out(key: &MetricKey) -> Vec<LabelOut> {
    key.labels
        .iter()
        .map(|(k, v)| LabelOut { key: k.clone(), value: v.clone() })
        .collect()
}

/// Render the hub's current state as a JSON object
/// (`{"counters":[...],"gauges":[...],"histograms":[...]}`).
pub fn json_snapshot(hub: &MetricsHub) -> String {
    let snap = hub.snapshot();
    let out = SnapshotOut {
        counters: snap
            .counters
            .iter()
            .map(|(k, v)| CounterOut { name: k.name.clone(), labels: labels_out(k), value: *v })
            .collect(),
        gauges: snap
            .gauges
            .iter()
            .map(|(k, v)| GaugeOut { name: k.name.clone(), labels: labels_out(k), value: *v })
            .collect(),
        histograms: snap
            .hists
            .iter()
            .map(|(k, s)| HistOut { name: k.name.clone(), labels: labels_out(k), summary: *s })
            .collect(),
    };
    serde_json::to_string(&out).expect("snapshot is always serializable")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hub() -> MetricsHub {
        let hub = MetricsHub::new();
        hub.counter_add("qip.compress.calls", &[("compressor", "SZ3+QP")], 3);
        hub.counter_add("qip.compress.calls", &[("compressor", "ZFP")], 1);
        hub.gauge_set("qoz.alpha", &[("compressor", "QoZ")], 1.75);
        for v in [100u64, 200, 300, 4000] {
            hub.observe("qip.compress.duration_ns", &[("compressor", "SZ3+QP")], v);
        }
        hub
    }

    #[test]
    fn prometheus_output_is_valid_and_complete() {
        let hub = sample_hub();
        let text = prometheus_text(&hub);
        check_prometheus_text(&text).unwrap();
        assert!(text.contains("# TYPE qip_compress_calls counter"));
        assert!(text.contains("qip_compress_calls{compressor=\"SZ3+QP\"} 3"));
        assert!(text.contains("# TYPE qip_compress_duration_ns summary"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("qip_compress_duration_ns_count{compressor=\"SZ3+QP\"} 4"));
        assert!(text.contains("qip_compress_duration_ns_sum{compressor=\"SZ3+QP\"} 4600"));
        assert!(text.contains("# TYPE qip_compress_duration_ns_max gauge"));
        // TYPE appears once per family even with several label sets.
        assert_eq!(text.matches("# TYPE qip_compress_calls counter").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let hub = MetricsHub::new();
        hub.counter_add("c", &[("path", "a\\b\"c\nd")], 1);
        let text = prometheus_text(&hub);
        check_prometheus_text(&text).unwrap();
        assert!(text.contains(r#"path="a\\b\"c\nd""#), "got: {text}");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(check_prometheus_text("no_type_line 1\n").is_err());
        assert!(check_prometheus_text("# TYPE x counter\nx{bad name=\"v\"} 1\n").is_err());
        assert!(check_prometheus_text("# TYPE x counter\nx{a=\"v} 1\n").is_err());
        assert!(check_prometheus_text("# TYPE x counter\nx abc\n").is_err());
        assert!(check_prometheus_text("# TYPE x counter\n# TYPE x counter\n").is_err());
        assert!(check_prometheus_text("# TYPE x counter\nx{a=\"v\"} 1\n").is_ok());
        assert!(check_prometheus_text("# TYPE x summary\nx_count 4\n").is_ok());
        // _sum/_count only piggyback on summaries, not counters.
        assert!(check_prometheus_text("# TYPE x counter\nx_count 4\n").is_err());
    }

    #[test]
    fn serve_families_render_and_validate() {
        let hub = MetricsHub::new();
        hub.counter_add("qip.serve.requests", &[("op", "compress"), ("status", "OK")], 5);
        hub.counter_add("qip.serve.requests", &[("op", "compress"), ("status", "SERVER_BUSY")], 2);
        hub.gauge_set("qip.serve.queue_depth", &[("worker", "w0")], 3.0);
        for v in [10_000u64, 20_000, 1_000_000] {
            hub.observe("qip.serve.request_ns", &[("op", "compress")], v);
        }
        let text = prometheus_text(&hub);
        check_serve_families(&text).unwrap();
        assert!(text.contains("qip_serve_requests{op=\"compress\",status=\"SERVER_BUSY\"} 2"));
        assert!(text.contains("# TYPE qip_serve_queue_depth gauge"));
        assert!(text.contains("# TYPE qip_serve_request_ns summary"));
    }

    #[test]
    fn serve_family_check_rejects_wrong_shapes() {
        // Missing the requests family entirely.
        let hub = MetricsHub::new();
        hub.counter_add("qip.other", &[], 1);
        assert!(check_serve_families(&prometheus_text(&hub)).is_err());
        // Family present under the wrong type.
        let wrong = "# TYPE qip_serve_requests gauge\nqip_serve_requests 1\n";
        assert!(check_serve_families(wrong).is_err());
        // Requests present as a proper counter passes even with others absent.
        let ok = "# TYPE qip_serve_requests counter\nqip_serve_requests{op=\"ping\"} 1\n";
        check_serve_families(ok).unwrap();
    }

    #[test]
    fn slo_families_render_and_validate() {
        let hub = MetricsHub::new();
        hub.slo.record("compress", false, 1_000);
        hub.slo.record("compress", true, 2_000_000_000);
        hub.slo.publish(&hub);
        let text = prometheus_text(&hub);
        check_slo_families(&text).unwrap();
        assert!(text.contains("qip_slo_burn_rate{objective=\"availability\",window=\"5m\"}"));
        assert!(text.contains("qip_slo_compliance{objective=\"latency_500ms\"}"));
        assert!(text.contains("qip_slo_objective{objective=\"availability\"} 0.999"));
        // A scrape without the SLO gauges is rejected.
        assert!(check_slo_families("# TYPE x counter\nx 1\n").is_err());
        // And so is one announcing them under the wrong type.
        let wrong = "# TYPE qip_slo_burn_rate counter\nqip_slo_burn_rate 1\n\
                     # TYPE qip_slo_compliance gauge\nqip_slo_compliance 1\n\
                     # TYPE qip_slo_objective gauge\nqip_slo_objective 1\n";
        assert!(check_slo_families(wrong).is_err());
    }

    #[test]
    fn gauge_non_finite_values_render_as_prometheus_tokens() {
        let hub = MetricsHub::new();
        hub.gauge_set("g", &[], f64::INFINITY);
        let text = prometheus_text(&hub);
        check_prometheus_text(&text).unwrap();
        assert!(text.contains("g +Inf"));
    }

    #[test]
    fn json_snapshot_shape() {
        let hub = sample_hub();
        let json: serde_json::Value = serde_json::from_str(&json_snapshot(&hub)).unwrap();
        let calls = &json["counters"][0];
        assert_eq!(calls["name"].as_str(), Some("qip.compress.calls"));
        assert_eq!(calls["labels"][0]["key"].as_str(), Some("compressor"));
        assert_eq!(calls["labels"][0]["value"].as_str(), Some("SZ3+QP"));
        assert_eq!(calls["value"].as_u64(), Some(3));
        assert_eq!(json["histograms"][0]["summary"]["count"].as_u64(), Some(4));
    }
}
