//! Terminal rendering for [`InspectReport`]: a fixed-width component ledger
//! plus the QP / tile / error-budget summaries the CLI prints.

use crate::InspectReport;
use std::fmt::Write as _;

/// Render the report as an aligned plain-text table.
pub fn render_table(r: &InspectReport) -> String {
    let mut out = String::with_capacity(1024);
    let dims: Vec<String> = r.dims.iter().map(|d| d.to_string()).collect();
    let _ = writeln!(
        out,
        "{} stream ({}-bit, {}), {} bytes for {} raw ({:.2}x), abs bound {:e}",
        r.compressor,
        r.scalar_bits,
        dims.join("x"),
        r.stream_bytes,
        r.raw_bytes,
        r.ratio,
        r.abs_bound,
    );
    let _ = writeln!(out, "  {:<18} {:>12} {:>8}", "component", "bytes", "share");
    for e in &r.ledger {
        let share = if r.stream_bytes > 0 {
            e.bytes as f64 / r.stream_bytes as f64 * 100.0
        } else {
            0.0
        };
        let _ = writeln!(out, "  {:<18} {:>12} {:>7.2}%", e.component, e.bytes, share);
    }
    let _ = writeln!(out, "  {:<18} {:>12} {:>7.2}%", "total", r.ledger_total(), 100.0);

    if let Some(qp) = &r.qp {
        let _ = writeln!(
            out,
            "QP {} — anchors {}, unpredictable {}",
            if qp.enabled { format!("enabled on levels ≤ {}", qp.max_level) } else { "disabled".into() },
            qp.anchors,
            qp.unpredictable,
        );
        if !qp.levels.is_empty() {
            let _ = writeln!(
                out,
                "  {:<6} {:>10} {:>10} {:>8} {:>8} {:>8} {:>12}",
                "level", "points", "accepted", "fired", "acc%", "fire%", "index bits"
            );
            for l in &qp.levels {
                let _ = writeln!(
                    out,
                    "  {:<6} {:>10} {:>10} {:>8} {:>7.1}% {:>7.1}% {:>11.0}{}",
                    l.level,
                    l.points,
                    l.accepted,
                    l.fired,
                    l.accept_rate * 100.0,
                    l.fire_rate * 100.0,
                    l.index_bits,
                    if l.bits_exact { " " } else { "~" },
                );
            }
        }
    }

    if let Some(t) = &r.tiles {
        let _ = writeln!(
            out,
            "tiles: {} (bytes min {} / median {} / max {})",
            t.tiles, t.min_tile_bytes, t.median_tile_bytes, t.max_tile_bytes
        );
        for c in &t.by_compressor {
            let _ = writeln!(out, "  {}: {} tiles, {} bytes", c.compressor, c.tiles, c.bytes);
        }
    }

    if let Some(e) = &r.error_budget {
        let _ = writeln!(
            out,
            "error budget: max |err| {:e} ({:.1}% of bound), mean margin {:.3}, violations {}",
            e.max_abs_error,
            e.max_margin * 100.0,
            e.mean_margin,
            e.violations,
        );
        if e.nonfinite > 0 {
            let _ = writeln!(
                out,
                "  {} non-finite samples (kept bit-exact or counted as violations; margins above are over finite errors)",
                e.nonfinite
            );
        }
        if e.psnr.is_finite() {
            let _ = writeln!(out, "  PSNR {:.2} dB", e.psnr);
        }
        for l in &e.level_psnr {
            if l.psnr.is_finite() {
                let _ = writeln!(out, "  level {}: PSNR {:.2} dB", l.level, l.psnr);
            }
        }
        let total: u64 = e.margin_histogram.iter().sum();
        if total > 0 {
            let _ = writeln!(out, "  |err|/bound histogram (10 buckets over [0,1]):");
            let width = 32usize;
            let max = e.margin_histogram.iter().copied().max().unwrap_or(1).max(1);
            for (i, &count) in e.margin_histogram.iter().enumerate() {
                let bar = (count as usize * width / max as usize).min(width);
                let _ = writeln!(
                    out,
                    "    {:>3.1}-{:<3.1} {:>10} {}",
                    i as f64 / 10.0,
                    (i + 1) as f64 / 10.0,
                    count,
                    "#".repeat(bar),
                );
            }
        }
    }
    out
}
