//! The encoder's choice of QP level prefix.
//!
//! [`QpConfig::max_level`] is a ceiling: QP runs on levels `1..=max_level`
//! while the passes are quantized, and once the last pass is done the
//! encoder keeps the prefix `m ∈ 0..=max_level` whose index stream has the
//! lowest order-0 entropy under one shared code — QP on one level moves the
//! code lengths of every other, so candidates are scored over the whole
//! stream, not level by level. The levels above `m` are inverted back to
//! `Q` in place and `m` is what the header says; the decoder reads a prefix
//! as it always has.
//!
//! [`QpChoice`] holds what that takes, per call and without allocating on a
//! warm context: dense histograms of `Q` and `Q′` per QP-active level plus
//! one of every other index (a bounded symbol window and escape buckets by
//! sign and bit length, 32 KB in all), and the geometry of every
//! transformed pass for the undo. The histograms sample one stream position
//! in four: a histogram increment costs a few cycles (most indices
//! land in one bin, so consecutive increments wait on each other), and a
//! quarter of a stream's symbols pins its order-0 entropy well enough to
//! rank prefixes.

use crate::qp::{QpConfig, QpEngine, QpVisit};
use qip_metrics::entropy_of_counts;
use qip_quant::UNPRED;

/// Counters across all of one call's histograms: 32 KB of `u32`.
const COUNTERS: usize = 8192;

/// Escape buckets behind a histogram's window: one per sign and bit length
/// of the magnitude. The unpredictable label (`i32::MIN`, the one value of
/// 32 bits) gets the last one to itself.
const ESCAPES: usize = 2 * 32;

/// The histograms count one stream position in this many, never two
/// neighbours: see [`sampled`].
const STRIDE: usize = 4;

/// Positions per group of the sampling pattern, whose phase turns by one
/// from group to group.
const GROUP: usize = 32;

/// Whether the histograms count stream position `p`: every [`STRIDE`]-th
/// position, the phase shifted by one every [`GROUP`] positions so that a
/// pass whose rows are a multiple of `STRIDE` long still has every column
/// sampled.
fn sampled(p: usize) -> bool {
    (p + p / GROUP).is_multiple_of(STRIDE)
}

/// Per-call state of the level-prefix choice (see the module docs). Lives
/// in [`crate::CompressCtx`]; [`QpChoice::begin`] resets it.
#[derive(Debug, Default)]
pub struct QpChoice {
    /// Candidate prefixes are `0..=ceiling`; 0 when there is nothing to
    /// choose (QP off, or no interpolation level).
    ceiling: usize,
    /// Symbols `-half..=half` have a bin of their own in every histogram;
    /// the rest fall into [`ESCAPES`] buckets by sign and bit length.
    half: u32,
    /// `2·ceiling + 1` histograms of [`QpChoice::bins`] counters: every index
    /// off the QP-active levels, then `Q` and `Q′` of levels `1..=ceiling`.
    hist: Vec<u32>,
    /// Every transformed pass: its level, where its indices start in the
    /// stream, and its visit geometry.
    passes: Vec<(usize, usize, QpVisit)>,
    /// Symbols in the stream, sampled or not.
    symbols: u64,
}

impl QpChoice {
    /// Start a call that quantizes `levels` interpolation levels under `qp`.
    pub fn begin(&mut self, qp: &QpConfig, levels: usize) {
        self.ceiling = if qp.is_enabled() {
            qp.max_level.min(levels)
        } else {
            0
        };
        self.passes.clear();
        self.hist.clear();
        self.symbols = 0;
        if self.ceiling == 0 {
            return;
        }
        let slots = 2 * self.ceiling + 1;
        self.half = ((COUNTERS / slots).saturating_sub(ESCAPES + 1) / 2) as u32;
        self.hist.reserve_exact(COUNTERS.max(slots * self.bins()));
        self.hist.resize(slots * self.bins(), 0);
    }

    /// The highest level QP ran on, and so the highest candidate prefix.
    pub fn ceiling(&self) -> usize {
        self.ceiling
    }

    /// Symbols with a bin of their own.
    fn window(&self) -> usize {
        2 * self.half as usize + 1
    }

    /// Counters per histogram: the symbol window and the escape buckets.
    fn bins(&self) -> usize {
        self.window() + ESCAPES
    }

    /// One histogram.
    #[cfg(test)]
    fn slot(&self, slot: usize) -> &[u32] {
        &self.hist[slot * self.bins()..][..self.bins()]
    }

    /// The escape bucket of a symbol outside the window: its sign's and
    /// magnitude's bit length's.
    fn escape(&self, v: i32) -> usize {
        let bits = 32 - v.unsigned_abs().leading_zeros() as usize;
        self.window() + 32 * (v < 0) as usize + bits - 1
    }

    /// How many symbols escape bucket `k` stands for (each is priced at
    /// `log2` of it on top of the bucket's own code): the magnitudes of its
    /// bit length outside the window; one for the label.
    fn escape_width(&self, k: usize) -> f64 {
        if k == ESCAPES - 1 {
            debug_assert_eq!(self.escape(UNPRED), self.window() + k);
            return 1.0;
        }
        let bits = (k % 32 + 1) as u32;
        let lo = (1u64 << (bits - 1)).max(self.half as u64 + 1);
        let hi = (1u64 << bits) - 1;
        (hi + 1).saturating_sub(lo).max(1) as f64
    }

    /// Count a stretch of `level`'s indices that starts at position `at` of
    /// the stream: `Q` (`transformed = false`) or, on a QP-active level, the
    /// `Q′` QP made of it.
    pub fn tally(&mut self, level: usize, transformed: bool, at: usize, q: &[i32]) {
        if self.ceiling == 0 {
            return;
        }
        let slot = match level {
            1.. if level <= self.ceiling => 2 * level - 1 + transformed as usize,
            _ => 0,
        };
        if !transformed {
            self.symbols += q.len() as u64;
        }
        let (half, width, bins) = (self.half, self.window() as u32, self.bins());
        let start = slot * bins;
        let end = at + q.len();
        for g in at / GROUP..end.div_ceil(GROUP) {
            let from = (g * GROUP).max(at);
            let first = from + (STRIDE - (from + g) % STRIDE) % STRIDE;
            let to = ((g + 1) * GROUP).min(end);
            debug_assert!(first >= to || sampled(first));
            for &v in q
                .get(first - at..to - at)
                .unwrap_or_default()
                .iter()
                .step_by(STRIDE)
            {
                let i = (v as u32).wrapping_add(half);
                let b = if i < width {
                    i as usize
                } else {
                    self.escape(v)
                };
                self.hist[start + b] += 1;
            }
        }
    }

    /// Note a pass QP transformed: `level`, its first index at `base` of the
    /// stream, its geometry.
    pub fn record(&mut self, level: usize, base: usize, visit: QpVisit) {
        if self.ceiling > 0 {
            self.passes.push((level, base, visit));
        }
    }

    /// Estimated bits of the index stream that keeps `Q′` on levels
    /// `1..=m` and `Q` above: the sampled symbols' order-0 entropy, a symbol
    /// in an escape bucket priced as the bucket's code plus a uniform pick
    /// among the magnitudes it stands for, scaled to the whole stream.
    pub fn index_bits(&self, m: usize) -> f64 {
        let bins = self.bins();
        let count = |b: usize| -> u64 {
            let kept = |l: usize| self.hist[(2 * l - 1 + (l <= m) as usize) * bins + b] as u64;
            self.hist[b] as u64 + (1..=self.ceiling).map(kept).sum::<u64>()
        };
        let n: u64 = (0..self.bins()).map(count).sum();
        let escaped: f64 = (0..ESCAPES)
            .map(|k| count(self.window() + k) as f64 * self.escape_width(k).log2())
            .sum();
        let sampled = entropy_of_counts(n, (0..self.bins()).map(count)) * n as f64 + escaped;
        sampled * self.symbols as f64 / n.max(1) as f64
    }

    /// The prefix to keep: the candidate with the fewest estimated bits,
    /// the lower one on a tie (so a level where QP changed nothing is
    /// never kept); 0 when there is nothing to choose.
    pub fn choose(&self) -> usize {
        if self.ceiling == 0 {
            return 0;
        }
        let mut best = (0, self.index_bits(0));
        for m in 1..=self.ceiling {
            let bits = self.index_bits(m);
            if bits < best.1 {
                best = (m, bits);
            }
        }
        best.0
    }

    /// Invert every recorded pass above level `m` back to `Q`, in place on
    /// the stream `qprime`, with the engine that transformed it.
    pub fn undo(&self, qp: &QpEngine, m: usize, qprime: &mut [i32]) {
        for &(level, base, visit) in self.passes.iter().filter(|p| p.0 > m) {
            visit.inverse(qp, level, &mut qprime[base..][..visit.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::{Condition, PredMode};

    /// A 3-D pass lattice of `c` points per axis (axes 0, 1, 2; the last
    /// runs along the row), with the given (left, top, back) axes.
    fn visit(c: [usize; 3], axes: [Option<usize>; 3]) -> QpVisit {
        let dist = |a: usize| c[a + 1..].iter().product::<usize>();
        QpVisit::new(
            axes.map(|a| a.map(|a| (dist(a), c[a]))),
            axes.map(|a| a == Some(2)),
            c[2],
            c.iter().product(),
        )
    }

    /// Sign-clustered indices with unpredictable labels and outliers
    /// sprinkled in.
    fn indices(n: usize, seed: u32) -> Vec<i32> {
        (0..n as u32)
            .map(|i| {
                let h = i
                    .wrapping_mul(2_654_435_761)
                    .wrapping_add(seed)
                    .rotate_left(7);
                let sign = if (i / 200) % 2 == 0 { 1 } else { -1 };
                match h % 29 {
                    0 => UNPRED,
                    1 => 3_000 + (h % 5) as i32,
                    _ => sign * (1 + (h % 3) as i32),
                }
            })
            .collect()
    }

    #[test]
    fn forward_then_undo_restores_q_for_every_mode_and_condition() {
        let modes = [
            PredMode::Back1,
            PredMode::Top1,
            PredMode::Left1,
            PredMode::Lorenzo2d,
            PredMode::Lorenzo3d,
        ];
        let conds = [
            Condition::CaseI,
            Condition::CaseII,
            Condition::CaseIII,
            Condition::CaseIV,
        ];
        // Two passes per level, one with the row along an involved axis.
        let geometry = [
            visit([5, 6, 7], [Some(1), Some(0), Some(2)]),
            visit([4, 5, 9], [Some(2), Some(1), Some(0)]),
        ];
        for mode in modes {
            for condition in conds {
                let qp = QpEngine::new(QpConfig {
                    mode,
                    condition,
                    max_level: 2,
                });
                let mut choice = QpChoice::default();
                choice.begin(qp.config(), 3);
                let mut stream = Vec::new();
                let mut want = Vec::new();
                for level in [3, 2, 1] {
                    for (k, v) in geometry.iter().enumerate() {
                        let q = indices(v.len(), (level * 7 + k) as u32);
                        let base = stream.len();
                        stream.extend_from_slice(&q);
                        want.extend_from_slice(&q);
                        if qp.active(level) {
                            v.forward(&qp, level, &mut stream[base..]);
                            choice.record(level, base, *v);
                        }
                    }
                }
                assert!(stream != want, "{mode:?} {condition:?}: QP fired nowhere");
                choice.undo(&qp, 0, &mut stream);
                assert!(
                    stream == want,
                    "{mode:?} {condition:?}: undo is not the inverse"
                );
            }
        }
    }

    #[test]
    fn estimate_is_the_entropy_of_the_candidate_stream() {
        let qp = QpConfig::best_fit();
        let mut choice = QpChoice::default();
        choice.begin(&qp, 4);
        assert_eq!(choice.ceiling(), 2);
        let (other, q1, q2) = (indices(300, 1), indices(900, 2), indices(400, 3));
        let t1: Vec<i32> = q1
            .iter()
            .map(|&v| if v == UNPRED { v } else { v / 4 })
            .collect();
        let t2: Vec<i32> = q2
            .iter()
            .map(|&v| if v == UNPRED { v } else { 7 * v })
            .collect();
        // The stream: `other`, then level 1's run, then level 2's.
        choice.tally(3, false, 0, &other);
        for (level, at, q, t) in [(1, 300, &q1, &t1), (2, 1200, &q2, &t2)] {
            choice.tally(level, false, at, q);
            choice.tally(level, true, at, t);
        }
        // Outside the window a symbol is its bucket (sign, bit length) plus
        // log2 of the magnitudes the bucket holds beyond the window.
        let half = choice.half as i64;
        let bucket = |v: i32| -> (i64, f64) {
            if v == UNPRED || (-half..=half).contains(&(v as i64)) {
                return (v as i64, 0.0);
            }
            let bits = 64 - (v as i64).unsigned_abs().leading_zeros() as i64;
            let lo = (1i64 << (bits - 1)).max(half + 1);
            (
                i64::MAX - 2 * bits - (v < 0) as i64,
                (((1i64 << bits) - lo) as f64).log2(),
            )
        };
        for (m, parts) in [(0, [&q1, &q2]), (1, [&t1, &q2]), (2, [&t1, &t2])] {
            let stream: Vec<i32> = other
                .iter()
                .chain(parts[0])
                .chain(parts[1])
                .copied()
                .collect();
            let symbols: Vec<(i64, f64)> = stream
                .iter()
                .enumerate()
                .filter(|&(p, _)| sampled(p))
                .map(|(_, &v)| bucket(v))
                .collect();
            let mut ids: Vec<i64> = symbols.iter().map(|s| s.0).collect();
            ids.sort_unstable();
            let counts = ids.chunk_by(|a, b| a == b).map(|c| c.len() as u64);
            let n = symbols.len() as u64;
            let extra: f64 = symbols.iter().map(|s| s.1).sum();
            let scale = stream.len() as f64 / n as f64;
            let want = (entropy_of_counts(n, counts) * n as f64 + extra) * scale;
            assert!((choice.index_bits(m) - want).abs() < 1e-6 * want, "m = {m}");
        }
        // Level 1 collapses onto 0 and wins; level 2 widens the spread.
        assert_eq!(choice.choose(), 1);
    }

    #[test]
    fn a_level_qp_left_unchanged_is_not_kept() {
        let mut choice = QpChoice::default();
        choice.begin(&QpConfig::best_fit(), 5);
        let q = indices(1000, 4);
        for level in 1..=2 {
            choice.tally(level, false, 1000 * level, &q);
            choice.tally(level, true, 1000 * level, &q);
        }
        assert_eq!(choice.choose(), 0);
        choice.begin(&QpConfig::off(), 5);
        assert_eq!(
            (choice.ceiling(), choice.hist.len(), choice.choose()),
            (0, 0, 0)
        );
    }

    #[test]
    fn stretches_sample_the_positions_the_pattern_names() {
        let mut choice = QpChoice::default();
        choice.begin(&QpConfig::best_fit(), 3);
        // Position p holds p: the histogram's window then lists what was
        // counted, whatever the stretches' boundaries.
        let stream: Vec<i32> = (0..300).collect();
        for (at, to) in [(0, 5), (5, 37), (37, 38), (38, 101), (101, 300)] {
            choice.tally(1, false, at, &stream[at..to]);
        }
        let counted: Vec<usize> = (0..300)
            .filter(|&v| choice.slot(1)[choice.half as usize + v] > 0)
            .collect();
        let want: Vec<usize> = (0..300).filter(|&p| sampled(p)).collect();
        assert_eq!(counted, want);
        assert_eq!(want.len(), 300 / STRIDE);
    }

    #[test]
    fn histograms_stay_within_32_kb() {
        let mut choice = QpChoice::default();
        for max_level in [1, 2, 3, 8, 40] {
            choice.begin(
                &QpConfig {
                    max_level,
                    ..QpConfig::best_fit()
                },
                40,
            );
            assert!(choice.hist.len() <= COUNTERS, "max_level {max_level}");
        }
    }
}
