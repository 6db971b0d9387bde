//! Property suite for the QP row kernels (`QpEngine::row_taps` + `gate_at` /
//! `forward` / `inverse` / `may_open`): for every mode × condition × level
//! they must agree with the point API (`gated_predict` / `transform` on
//! [`Neighbors`]) that qip-interp's reference oracle runs, in place on a
//! pass's indices in visit order, and the two directions must be exact
//! inverses — on rows cut into tiles (a tile continuing a row reads the last
//! point of the tile before as its row tap), rows whose every point depends
//! on the one before, rows where none does, absent taps, the `UNPRED`
//! sentinel among the taps and in `Q′`, zeros, mixed signs and `i32`
//! extremes. The decoder's dependency probe is checked exhaustively.

use proptest::test_runner::TestRng;
use qip_core::{Condition, Neighbors, PredMode, QpConfig, QpEngine, QpTaps, UNPRED};
use std::ops::Range;

const MODES: [PredMode; 6] = [
    PredMode::Off,
    PredMode::Back1,
    PredMode::Top1,
    PredMode::Left1,
    PredMode::Lorenzo2d,
    PredMode::Lorenzo3d,
];
const CONDITIONS: [Condition; 4] = [
    Condition::CaseI,
    Condition::CaseII,
    Condition::CaseIII,
    Condition::CaseIV,
];

/// Index values biased toward the cases the gate distinguishes.
fn draw(rng: &mut TestRng) -> i32 {
    const POOL: [i32; 10] = [0, 1, -1, 2, -3, 7, UNPRED, i32::MAX, i32::MIN + 1, -40_000];
    match rng.below(4) {
        0 => rng.next_u64() as i32,
        1 => (rng.below(9) as i32) - 4,
        _ => POOL[rng.below(POOL.len())],
    }
}

/// The point API's view of the lattice around visit index `at`: a neighbor
/// exists iff every axis it steps along has a distance here, and diagonal
/// distances are sums of their components.
fn neighbors_at(q: &[i32], at: usize, offs: [Option<usize>; 3]) -> Neighbors {
    let [l, t, b] = offs;
    let get = |o: Option<usize>| o.map(|o| q[at - o]);
    let add = |x: Option<usize>, y: Option<usize>| Some(x? + y?);
    Neighbors {
        left: get(l),
        top: get(t),
        diag: get(add(l, t)),
        back: get(b),
        left_back: get(add(l, b)),
        top_back: get(add(t, b)),
        diag_back: get(add(add(l, t), b)),
    }
}

/// Drop the row axis's distance at a row's first point, where its neighbor
/// does not exist yet.
fn offs_at(offs: [Option<usize>; 3], along_row: [bool; 3], first: bool) -> [Option<usize>; 3] {
    std::array::from_fn(|a| offs[a].filter(|_| !(first && along_row[a])))
}

/// `gated_predict` as the `(open, c)` pair the row kernels return.
fn want(qp: &QpEngine, level: usize, nb: &Neighbors) -> (bool, i32) {
    qp.gated_predict(level, nb).map_or((false, 0), |c| (true, c))
}

#[test]
fn gate_at_equals_gated_predict_on_equivalent_neighbors() {
    let mut rng = TestRng::from_seed(0x51_AB1E);
    for mode in MODES {
        for condition in CONDITIONS {
            let qp = QpEngine::new(QpConfig {
                mode,
                condition,
                max_level: 2,
            });
            for level in [1usize, 2, 3] {
                for _ in 0..400 {
                    // Distances 1/3/9 keep all seven combinations distinct.
                    let offs: [Option<usize>; 3] =
                        std::array::from_fn(|a| (rng.below(4) > 0).then_some(3usize.pow(a as u32)));
                    let row_axis = rng.below(4);
                    let along_row: [bool; 3] = std::array::from_fn(|a| a == row_axis);
                    let q: Vec<i32> = (0..14).map(|_| draw(&mut rng)).collect();
                    let at = 13;
                    let taps = qp.row_taps(level, offs, along_row);
                    for first in [false, true] {
                        let nb = neighbors_at(&q, at, offs_at(offs, along_row, first));
                        assert_eq!(
                            qp.gate_at(&taps, first, &q, at),
                            want(&qp, level, &nb),
                            "{mode:?} {condition:?} l{level} offs={offs:?} row={along_row:?} \
                             first={first} nb={nb:?}"
                        );
                    }
                }
            }
        }
    }
}

/// One pass lattice in visit order: `counts` lattice points per axis,
/// row-major with rows along the last axis, and the axis that plays each of
/// the left / top / back roles (`None`: the field lacks it).
struct Lattice {
    counts: [usize; 3],
    roles: [Option<usize>; 3],
}

impl Lattice {
    fn random(rng: &mut TestRng) -> Self {
        // Rows past 64 points cross the kernels' chunks.
        let counts = [1 + rng.below(3), 1 + rng.below(4), 1 + rng.below(150)];
        let mut axes = [0usize, 1, 2];
        for i in (1..3).rev() {
            axes.swap(i, rng.below(i + 1));
        }
        let roles = axes.map(|a| (rng.below(5) > 0).then_some(a));
        Lattice { counts, roles }
    }

    fn len(&self) -> usize {
        self.counts.iter().product()
    }

    /// Visit distance of the −1 lattice neighbor along `axis`.
    fn dist(&self, axis: usize) -> usize {
        self.counts[axis + 1..].iter().product()
    }

    fn coord(&self, at: usize, axis: usize) -> usize {
        (at / self.dist(axis)) % self.counts[axis]
    }

    /// Each role's neighbor distance at point `at`, `None` where the point
    /// lies on the lattice's first line along that axis.
    fn offs_at(&self, at: usize) -> [Option<usize>; 3] {
        self.roles.map(|r| r.and_then(|a| (self.coord(at, a) > 0).then(|| self.dist(a))))
    }

    /// The row kernels' taps for the row starting at `row`.
    fn taps(&self, qp: &QpEngine, level: usize, row: usize) -> QpTaps {
        let offs = self
            .roles
            .map(|r| r.and_then(|a| (a == 2 || self.coord(row, a) > 0).then(|| self.dist(a))));
        qp.row_taps(level, offs, self.roles.map(|r| r == Some(2)))
    }

    /// Every row cut into tiles at random points: `(row start, tile)`.
    fn tiles(&self, rng: &mut TestRng) -> Vec<(usize, Range<usize>)> {
        let m = self.counts[2];
        let mut out = Vec::new();
        for row in (0..self.len()).step_by(m) {
            let mut j0 = 0;
            while j0 < m {
                let t = if rng.below(2) == 0 { m - j0 } else { 1 + rng.below(m - j0) };
                out.push((row, row + j0..row + j0 + t));
                j0 += t;
            }
        }
        out
    }
}

/// The indices of one pass: random draws, or a flavor that makes the
/// decoder's probe mark nearly every point (one strict sign, no label) or
/// none (labels and zeros, which shut every signed condition).
fn pass_indices(rng: &mut TestRng, n: usize) -> Vec<i32> {
    match rng.below(4) {
        0 => (0..n).map(|_| 1 + rng.below(5) as i32).collect(),
        1 => (0..n).map(|_| if rng.below(2) == 0 { UNPRED } else { 0 }).collect(),
        _ => (0..n).map(|_| draw(rng)).collect(),
    }
}

#[test]
fn in_place_passes_match_the_point_transform_and_invert_exactly() {
    let mut rng = TestRng::from_seed(0xF0_12AD);
    let (mut passes, mut collisions) = (0usize, 0usize);
    for mode in MODES {
        for condition in CONDITIONS {
            let qp = QpEngine::new(QpConfig {
                mode,
                condition,
                max_level: 2,
            });
            for level in [1usize, 2, 3] {
                for _ in 0..40 {
                    passes += 1;
                    let lat = Lattice::random(&mut rng);
                    let q = pass_indices(&mut rng, lat.len());
                    let tiles = lat.tiles(&mut rng);
                    let ctx = || format!("{mode:?} {condition:?} l{level} {:?} {:?}", lat.counts, lat.roles);

                    // Forward in place, tiles last first so every neighbor
                    // still holds `Q`.
                    let mut qprime = q.clone();
                    let mut accepted = 0;
                    for (row, run) in tiles.iter().rev() {
                        let taps = lat.taps(&qp, level, *row);
                        accepted += qp.forward(&taps, run.start == *row, &mut qprime, run.clone());
                    }
                    let mut open = 0;
                    for at in 0..q.len() {
                        let nb = neighbors_at(&q, at, lat.offs_at(at));
                        open += qp.gate_open(level, &nb) as usize;
                        assert_eq!(qprime[at], qp.transform(q[at], level, &nb), "{} at={at}", ctx());
                    }
                    assert_eq!(accepted, open, "{}", ctx());

                    // `Q − c` can wrap onto the sentinel at the i32 extremes
                    // (never inside a quantizer radius); the label then wins
                    // on decode by design, so such passes have no inverse.
                    if q.iter().zip(&qprime).any(|(&q, &p)| p == UNPRED && q != UNPRED) {
                        collisions += 1;
                        continue;
                    }

                    // Inverse in place, tiles in visit order: recovers `Q`,
                    // and the gate `gate_at` reports on the recovered array
                    // is the one the forward saw.
                    let mut back = qprime.clone();
                    for (row, run) in &tiles {
                        let taps = lat.taps(&qp, level, *row);
                        qp.inverse(&taps, run.start == *row, &mut back, run.clone());
                        for at in run.clone() {
                            let nb = neighbors_at(&q, at, lat.offs_at(at));
                            let got = qp.gate_at(&taps, at == *row, &back, at);
                            assert_eq!(got, want(&qp, level, &nb), "{} at={at}", ctx());
                        }
                    }
                    assert_eq!(back, q, "{}", ctx());
                }
            }
        }
    }
    assert!(
        collisions * 4 < passes,
        "{collisions} sentinel collisions in {passes} passes"
    );
}

#[test]
fn the_dependency_probe_never_misses_an_open_gate() {
    // If the gate opens for some value of the tap along the row, it opens
    // for +1 or for −1: a point the probe leaves unmarked has `Q = Q′`
    // whatever its row tap turns out to be.
    const VALUES: [i32; 8] = [UNPRED, -2, -1, 0, 1, 2, i32::MAX, i32::MIN + 1];
    let neighbors = |v: &[i32]| match *v {
        [l] => Neighbors { left: Some(l), ..Neighbors::default() },
        [l, t, d] => Neighbors::plane(Some(l), Some(t), Some(d)),
        [l, t, b, d, lb, tb, db] => Neighbors {
            left: Some(l),
            top: Some(t),
            back: Some(b),
            diag: Some(d),
            left_back: Some(lb),
            top_back: Some(tb),
            diag_back: Some(db),
        },
        _ => unreachable!(),
    };
    // Neighbor count, the mode involving that many in canonical order, and
    // how many leading slots a tap along the row can occupy (left, top; and
    // back in 3-D).
    for (n, mode, slots) in [
        (1usize, PredMode::Left1, 1usize),
        (3, PredMode::Lorenzo2d, 2),
        (7, PredMode::Lorenzo3d, 3),
    ] {
        for condition in CONDITIONS {
            let qp = QpEngine::new(QpConfig { mode, condition, max_level: 1 });
            for slot in 0..slots {
                let mut opened = 0usize;
                for code in 0..VALUES.len().pow(n as u32 - 1) {
                    let mut v = [0i32; 7];
                    let mut c = code;
                    for (_, x) in v[..n].iter_mut().enumerate().filter(|&(i, _)| i != slot) {
                        *x = VALUES[c % VALUES.len()];
                        c /= VALUES.len();
                    }
                    let marked = qp.may_open(&v[..n], slot);
                    for x in VALUES {
                        v[slot] = x;
                        if qp.gated_predict(1, &neighbors(&v[..n])).is_some() {
                            opened += 1;
                            assert!(marked, "{mode:?} {condition:?} slot {slot}: {:?}", &v[..n]);
                        }
                    }
                }
                assert!(opened > 0, "{mode:?} {condition:?} slot {slot}: no gate ever opened");
            }
        }
    }
}
