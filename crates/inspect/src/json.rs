//! Hand-rolled deterministic JSON for [`InspectReport`].
//!
//! The report is the unit the test suite pins byte-for-byte across runs and
//! thread counts, so serialization must be fully deterministic: fixed key
//! order, no maps, shortest-roundtrip float formatting (Rust's `{}` for
//! `f64`), and non-finite values rendered as `null` (JSON has no NaN).

use crate::{ErrorBudget, Heatmap, InspectReport, LevelReport, QpReport, TileRollup};

/// Serialize a report. Keys appear in declaration order of the structs.
pub fn report_to_json(r: &InspectReport) -> String {
    let mut s = String::with_capacity(1024);
    s.push('{');
    kv_str(&mut s, "kind", r.kind);
    s.push(',');
    kv_str(&mut s, "compressor", &r.compressor);
    s.push(',');
    kv_u64(&mut s, "scalar_bits", r.scalar_bits as u64);
    s.push(',');
    key(&mut s, "dims");
    usize_array(&mut s, &r.dims);
    s.push(',');
    kv_u64(&mut s, "stream_bytes", r.stream_bytes);
    s.push(',');
    kv_u64(&mut s, "raw_bytes", r.raw_bytes);
    s.push(',');
    kv_f64(&mut s, "ratio", r.ratio);
    s.push(',');
    kv_f64(&mut s, "abs_bound", r.abs_bound);
    s.push(',');
    key(&mut s, "ledger");
    s.push('[');
    for (i, e) in r.ledger.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        kv_str(&mut s, "component", &e.component);
        s.push(',');
        kv_u64(&mut s, "bytes", e.bytes);
        s.push('}');
    }
    s.push(']');
    s.push(',');
    key(&mut s, "qp");
    match &r.qp {
        None => s.push_str("null"),
        Some(qp) => qp_json(&mut s, qp),
    }
    s.push(',');
    key(&mut s, "heatmap");
    match &r.heatmap {
        None => s.push_str("null"),
        Some(h) => heatmap_json(&mut s, h),
    }
    s.push(',');
    key(&mut s, "tiles");
    match &r.tiles {
        None => s.push_str("null"),
        Some(t) => tiles_json(&mut s, t),
    }
    s.push(',');
    key(&mut s, "error_budget");
    match &r.error_budget {
        None => s.push_str("null"),
        Some(e) => budget_json(&mut s, e),
    }
    s.push('}');
    s
}

fn qp_json(s: &mut String, qp: &QpReport) {
    s.push('{');
    kv_bool(s, "enabled", qp.enabled);
    s.push(',');
    key(s, "levels");
    s.push('[');
    for (i, l) in qp.levels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        level_json(s, l);
    }
    s.push(']');
    s.push(',');
    kv_u64(s, "anchors", qp.anchors);
    s.push(',');
    kv_u64(s, "unpredictable", qp.unpredictable);
    s.push('}');
}

fn level_json(s: &mut String, l: &LevelReport) {
    s.push('{');
    kv_u64(s, "level", l.level as u64);
    s.push(',');
    kv_u64(s, "points", l.points);
    s.push(',');
    kv_u64(s, "accepted", l.accepted);
    s.push(',');
    kv_u64(s, "rejected", l.rejected);
    s.push(',');
    kv_u64(s, "fired", l.fired);
    s.push(',');
    kv_f64(s, "accept_rate", l.accept_rate);
    s.push(',');
    kv_f64(s, "fire_rate", l.fire_rate);
    s.push(',');
    kv_f64(s, "index_bits", l.index_bits);
    s.push(',');
    kv_bool(s, "bits_exact", l.bits_exact);
    s.push('}');
}

fn heatmap_json(s: &mut String, h: &Heatmap) {
    s.push('{');
    key(s, "grid");
    usize_array(s, &h.grid);
    s.push(',');
    key(s, "points");
    u64_array(s, &h.points);
    s.push(',');
    key(s, "accepted");
    u64_array(s, &h.accepted);
    s.push(',');
    key(s, "fired");
    u64_array(s, &h.fired);
    s.push('}');
}

fn tiles_json(s: &mut String, t: &TileRollup) {
    s.push('{');
    kv_u64(s, "tiles", t.tiles as u64);
    s.push(',');
    kv_u64(s, "min_tile_bytes", t.min_tile_bytes);
    s.push(',');
    kv_u64(s, "median_tile_bytes", t.median_tile_bytes);
    s.push(',');
    kv_u64(s, "max_tile_bytes", t.max_tile_bytes);
    s.push(',');
    key(s, "by_compressor");
    s.push('[');
    for (i, (name, tiles, bytes)) in t.by_compressor.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        kv_str(s, "compressor", name);
        s.push(',');
        kv_u64(s, "tiles", *tiles as u64);
        s.push(',');
        kv_u64(s, "bytes", *bytes);
        s.push('}');
    }
    s.push(']');
    s.push('}');
}

fn budget_json(s: &mut String, e: &ErrorBudget) {
    s.push('{');
    kv_f64(s, "bound", e.bound);
    s.push(',');
    kv_f64(s, "max_abs_error", e.max_abs_error);
    s.push(',');
    kv_f64(s, "max_margin", e.max_margin);
    s.push(',');
    kv_f64(s, "mean_margin", e.mean_margin);
    s.push(',');
    kv_u64(s, "violations", e.violations);
    s.push(',');
    // Present only when some sample was NaN or ±Inf, so reports of finite
    // fields keep their bytes.
    if e.nonfinite > 0 {
        kv_u64(s, "nonfinite", e.nonfinite);
        s.push(',');
    }
    key(s, "margin_histogram");
    u64_array(s, &e.margin_histogram);
    s.push(',');
    kv_f64(s, "psnr", e.psnr);
    s.push(',');
    key(s, "level_psnr");
    s.push('[');
    for (i, (lvl, p)) in e.level_psnr.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        kv_u64(s, "level", *lvl as u64);
        s.push(',');
        kv_f64(s, "psnr", *p);
        s.push('}');
    }
    s.push(']');
    s.push('}');
}

fn key(s: &mut String, k: &str) {
    s.push('"');
    s.push_str(k);
    s.push_str("\":");
}

fn kv_str(s: &mut String, k: &str, v: &str) {
    key(s, k);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

fn kv_u64(s: &mut String, k: &str, v: u64) {
    key(s, k);
    s.push_str(&v.to_string());
}

fn kv_bool(s: &mut String, k: &str, v: bool) {
    key(s, k);
    s.push_str(if v { "true" } else { "false" });
}

fn kv_f64(s: &mut String, k: &str, v: f64) {
    key(s, k);
    push_f64(s, v);
}

/// Shortest-roundtrip decimal; `null` for non-finite (JSON has no NaN/inf).
fn push_f64(s: &mut String, v: f64) {
    if !v.is_finite() {
        s.push_str("null");
    } else {
        let text = format!("{v}");
        s.push_str(&text);
        // `{}` omits ".0" for integral floats; keep them typed as floats so
        // downstream tooling never reparses a rate as an integer.
        if !text.contains('.') && !text.contains('e') && !text.contains("inf") {
            s.push_str(".0");
        }
    }
}

fn usize_array(s: &mut String, v: &[usize]) {
    s.push('[');
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
}

fn u64_array(s: &mut String, v: &[u64]) {
    s.push('[');
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
}
