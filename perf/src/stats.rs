//! The estimator arithmetic: fastest round, percentiles, geometric mean, and
//! span self time. Everything a gated number passes through lives here so it
//! can be unit-tested without running a compressor.

/// The fastest (smallest) sample — the gated estimate of a cell. On a shared
/// VM the minimum over interleaved rounds repeats to a few percent where the
/// median does not (see perf/README.md, "Noise").
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Percentile `p` (0–100) by linear interpolation between order statistics.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest percentile of the reporting ladder that still has at least ten
/// samples beyond it, or `None` when even p75 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per-mille, so that "ten beyond p99.9 of 10 000" is exact.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Self time of a span: its duration minus the part of it its children cover.
/// Children are `(start, end)` intervals; overlap between children is counted
/// once and anything outside the parent is ignored.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = span.0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.1 - span.0) - covered
}

/// How much worse `second` is than `first`, as a share of `first`
/// (positive = worse), given the metric's direction.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert!((percentile(&s, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[2.0, 4.0], 50.0), 3.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(101), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.2, 1.2, 1.2]) - 1.2).abs() < 1e-12);
        // Symmetric in ratio space, unlike the arithmetic mean.
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_covered_interval_once() {
        // Two disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
        // Overlapping children count their union.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // Children outside the parent are clipped.
        assert_eq!(self_time((20, 80), &[(0, 30), (70, 200)]), 40);
        // No children: self time is the whole span.
        assert_eq!(self_time((5, 9), &[]), 4);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) - 0.10).abs() < 1e-12);
    }
}
