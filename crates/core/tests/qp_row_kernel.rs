//! Property suite for the QP row kernel (`QpEngine::row_taps` + `gate_at` /
//! `forward_row` / `inverse_row`): for every mode × condition × level it
//! must agree with the point API (`gated_predict` / `transform` on
//! [`Neighbors`]) that qip-interp's reference oracle runs, and the two row
//! directions must be exact inverses — on neighbor sets with absent taps,
//! the `UNPRED` sentinel, zeros, mixed signs and `i32` extremes.

use proptest::test_runner::TestRng;
use qip_core::{Condition, Neighbors, PredMode, QpConfig, QpEngine, UNPRED};

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

/// The point API's view of the lattice around `flat`: a neighbor exists iff
/// every axis it steps along has an offset here.
fn neighbors_at(qstore: &[i32], flat: usize, offs: [Option<usize>; 3]) -> Neighbors {
    let [l, t, b] = offs;
    let get = |o: Option<usize>| o.map(|o| qstore[flat - o]);
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

/// Drop the row axis's offset at a row's first point, where its neighbor
/// does not exist yet.
fn offs_at(offs: [Option<usize>; 3], along_row: [bool; 3], first: bool) -> [Option<usize>; 3] {
    std::array::from_fn(|a| offs[a].filter(|_| !(first && along_row[a])))
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
                    // Offsets 1/3/9 keep all seven combinations distinct.
                    let offs: [Option<usize>; 3] =
                        std::array::from_fn(|a| (rng.below(4) > 0).then_some(3usize.pow(a as u32)));
                    let row_axis = rng.below(4);
                    let along_row: [bool; 3] = std::array::from_fn(|a| a == row_axis);
                    let qstore: Vec<i32> = (0..14).map(|_| draw(&mut rng)).collect();
                    let flat = 13;
                    let taps = qp.row_taps(level, offs, along_row);
                    for first in [false, true] {
                        let nb = neighbors_at(&qstore, flat, offs_at(offs, along_row, first));
                        let want = match qp.gated_predict(level, &nb) {
                            Some(c) => (true, c),
                            None => (false, 0),
                        };
                        assert_eq!(
                            qp.gate_at(&taps, first, &qstore, flat),
                            want,
                            "{mode:?} {condition:?} l{level} offs={offs:?} row={along_row:?} \
                             first={first} nb={nb:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn rows_match_the_point_transform_and_invert_exactly() {
    let mut rng = TestRng::from_seed(0xF0_12AD);
    let (mut rows, mut collisions) = (0usize, 0usize);
    for mode in MODES {
        for condition in CONDITIONS {
            let qp = QpEngine::new(QpConfig {
                mode,
                condition,
                max_level: 2,
            });
            for level in [1usize, 2, 3] {
                for _ in 0..60 {
                    // A row of `len` points, `stp` apart, inside a plane of
                    // earlier rows (`top` = one row up, `back` = one plane
                    // up); `left` runs along the row.
                    rows += 1;
                    let len = 1 + rng.below(40);
                    let stp = 1 + rng.below(2);
                    let row = len * stp + 2;
                    let flat0 = 5 * row + 1;
                    let offs = [
                        Some(stp),
                        (rng.below(3) > 0).then_some(row),
                        (rng.below(3) > 0).then_some(3 * row),
                    ];
                    let along_row = [true, false, false];
                    let mut qstore: Vec<i32> = (0..flat0 + row).map(|_| draw(&mut rng)).collect();
                    let q: Vec<i32> = (0..len).map(|_| draw(&mut rng)).collect();
                    let taps = qp.row_taps(level, offs, along_row);

                    let before = qstore.clone();
                    let mut qprime = vec![0; len];
                    let accepted =
                        qp.forward_row(&taps, true, &q, &mut qprime, &mut qstore, flat0, stp);

                    // Point-API oracle over the updated store.
                    let mut open = 0;
                    for k in 0..len {
                        let flat = flat0 + k * stp;
                        assert_eq!(qstore[flat], q[k]);
                        let nb = neighbors_at(&qstore, flat, offs_at(offs, along_row, k == 0));
                        open += qp.gate_open(level, &nb) as usize;
                        assert_eq!(
                            qprime[k],
                            qp.transform(q[k], level, &nb),
                            "{mode:?} {condition:?} l{level} k={k} nb={nb:?}"
                        );
                    }
                    assert_eq!(accepted, open, "{mode:?} {condition:?} l{level}");

                    // `Q − c` can wrap onto the sentinel at the i32 extremes
                    // (never inside a quantizer radius); the label then wins
                    // on decode by design, so such rows have no inverse.
                    if q.iter()
                        .zip(&qprime)
                        .any(|(&q, &p)| p == UNPRED && q != UNPRED)
                    {
                        collisions += 1;
                        continue;
                    }

                    // Inverse from the pre-row store recovers Q and the store.
                    let mut decoded = before;
                    let mut back = vec![0; len];
                    qp.inverse_row(&taps, true, &qprime, &mut back, &mut decoded, flat0, stp);
                    assert_eq!(back, q, "{mode:?} {condition:?} l{level}");
                    assert_eq!(decoded, qstore, "{mode:?} {condition:?} l{level}");
                }
            }
        }
    }
    assert!(
        collisions * 4 < rows,
        "{collisions} sentinel collisions in {rows} rows"
    );
}
