//! The one stopwatch of `qip-bench`: the paired A/B loop behind `repro
//! monitor`'s ≤ 2 % telemetry-overhead gate. Throughput itself is measured by
//! `perf/` (docs/benchmarks.md).

use std::hint::black_box;
use std::time::Instant;

fn timed<R>(f: &mut impl FnMut() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// What [`paired`] measured.
#[derive(Debug)]
pub struct Paired<A, B> {
    /// Result of the last call of `a`.
    pub a: A,
    /// Result of the last call of `b`.
    pub b: B,
    /// Fastest timed call of `a`, seconds.
    pub a_s: f64,
    /// Fastest timed call of `b`, seconds.
    pub b_s: f64,
    /// Median over rounds of `t(b) / t(a)`.
    pub ratio: f64,
}

/// A/B timing for a ratio gate: one untimed warm-up of each side, then
/// `rounds` rounds that time `a` and `b` back to back, alternating which goes
/// first. A slow spell of the machine scales both halves of a round and
/// cancels in its ratio, so the median ratio resolves differences the two
/// minima cannot (`perf/`'s estimator for `qp_*_slowdown`, perf/README.md).
pub fn paired<A, B>(
    rounds: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> Paired<A, B> {
    let (mut out_a, mut out_b) = (black_box(a()), black_box(b()));
    let mut times = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (t_a, t_b);
        if round % 2 == 0 {
            (out_a, t_a) = timed(&mut a);
            (out_b, t_b) = timed(&mut b);
        } else {
            (out_b, t_b) = timed(&mut b);
            (out_a, t_a) = timed(&mut a);
        }
        times.push((t_a, t_b));
    }
    let (a_s, b_s, ratio) = summarize(&times);
    Paired { a: out_a, b: out_b, a_s, b_s, ratio }
}

/// `(min t(a), min t(b), median t(b)/t(a))` over per-round `(t(a), t(b))`.
fn summarize(times: &[(f64, f64)]) -> (f64, f64, f64) {
    assert!(!times.is_empty(), "paired timing needs at least one round");
    let a_s = times.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
    let b_s = times.iter().map(|t| t.1).fold(f64::INFINITY, f64::min);
    let mut ratios: Vec<f64> = times.iter().map(|t| t.1 / t.0).collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let ratio = if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    };
    (a_s, b_s, ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_takes_both_minima_and_the_median_ratio() {
        // Round 2 met a slow spell (both halves 10x): it moves neither the
        // minima nor the median ratio, which a ratio of means would feel.
        let times = [(2.0, 2.2), (20.0, 30.0), (1.0, 1.0), (4.0, 4.4), (2.0, 2.4)];
        let (a_s, b_s, ratio) = summarize(&times);
        assert_eq!((a_s, b_s), (1.0, 1.0));
        // Ratios 1.1 1.5 1.0 1.1 1.2.
        assert!((ratio - 1.1).abs() < 1e-12, "{ratio}");
        // Even count: mean of the two middle ratios.
        let (_, _, even) = summarize(&[(1.0, 1.0), (1.0, 1.2), (1.0, 1.4), (1.0, 3.0)]);
        assert!((even - 1.3).abs() < 1e-12, "{even}");
    }

    #[test]
    fn call_order() {
        let log = std::cell::RefCell::new(String::new());
        paired(3, || log.borrow_mut().push('a'), || log.borrow_mut().push('b'));
        assert_eq!(*log.borrow(), "ababbaab", "warm-up, then ab / ba / ab");
    }
}
