//! The case matrix: the one generator every property of this crate runs
//! over.
//!
//! A [`Case`] is a field family × precision × shape × bound, plus an
//! optional plant of non-finite samples. The matrix is a short list of fixed
//! hostile rows ([`hostile`]) followed by seeded draws ([`Case::drawn`]):
//! rank 1–4, every axis 2–13 (2–7 at rank 4), `Abs` bounds over 1e-1..1e-5
//! (down to 1e-8 in f64) and `Rel` bounds over 1e-2..1e-4. Every case is a
//! pure function of its fields, so the [`Case`] a failure prints replays it
//! exactly.

use crate::fields::{synth, FieldFamily};
use qip_core::ErrorBound;
use qip_fault::XorShift64;
use qip_tensor::{Field, Scalar};

/// Samples written over a generated field: `values[k]` lands at flat index
/// `start + k * stride` (skipped when a shrunk field no longer reaches it).
#[derive(Debug, Clone, Copy)]
pub struct Plant {
    /// The planted values, in order.
    pub values: &'static [f64],
    /// Flat index of the first planted sample.
    pub start: usize,
    /// Flat distance between planted samples.
    pub stride: usize,
}

/// One case of the matrix.
#[derive(Debug, Clone)]
pub struct Case {
    /// `"drawn"`, or the name of the hostile row.
    pub row: &'static str,
    /// Field seed.
    pub seed: u64,
    /// Field family.
    pub family: FieldFamily,
    /// `"f32"` or `"f64"`.
    pub dtype: &'static str,
    /// Field dimensions.
    pub dims: Vec<usize>,
    /// The requested bound.
    pub bound: ErrorBound,
    /// Non-finite (or subnormal) samples planted over the field.
    pub plant: Option<Plant>,
}

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Case { row, seed, family, dtype, dims, bound, plant } = self;
        write!(f, "{row} {} {dtype} {dims:?} {bound:?} seed {seed:#018x}", family.name())?;
        match plant {
            Some(Plant { values, start, stride }) => {
                write!(f, " plant {values:?} from {start} every {stride}")
            }
            None => Ok(()),
        }
    }
}

/// The families a draw picks from. White noise is the `radius` row's: at
/// the drawn bounds it is one more wide-alphabet case beside `Adversarial`.
const DRAWN_FAMILIES: [FieldFamily; 5] = [
    FieldFamily::Smooth,
    FieldFamily::Turbulent,
    FieldFamily::Banded,
    FieldFamily::Constant,
    FieldFamily::Adversarial,
];

impl Case {
    /// The seeded draw behind `seed`.
    pub fn drawn(seed: u64) -> Case {
        let mut rng = XorShift64::new(seed);
        let family = DRAWN_FAMILIES[rng.below(DRAWN_FAMILIES.len())];
        let dtype = if rng.below(2) == 0 { "f32" } else { "f64" };
        let ndim = 1 + rng.below(4);
        // Rank 4 keeps its axes to 2–7, so no draw outgrows 13³ points.
        let span = if ndim == 4 { 6 } else { 12 };
        let dims: Vec<usize> = (0..ndim).map(|_| 2 + rng.below(span)).collect();
        let decades = if dtype == "f64" { 8 } else { 5 };
        let bound = if rng.below(2) == 0 {
            ErrorBound::Abs(10f64.powi(-1 - rng.below(decades) as i32))
        } else {
            ErrorBound::Rel(10f64.powi(-2 - rng.below(3) as i32))
        };
        Case { row: "drawn", seed, family, dtype, dims, bound, plant: None }
    }

    /// The same case at other dimensions (the minimizer's step).
    pub fn at(&self, dims: &[usize]) -> Case {
        Case { dims: dims.to_vec(), ..self.clone() }
    }

    /// The case's field.
    pub fn field<T: Scalar>(&self) -> Field<T> {
        let mut field = synth(self.family, self.seed, &self.dims);
        if let Some(p) = self.plant {
            let data = field.as_mut_slice();
            for (k, &v) in p.values.iter().enumerate() {
                if let Some(x) = data.get_mut(p.start + k * p.stride) {
                    *x = T::from_f64(v);
                }
            }
        }
        field
    }
}

/// The non-finite plants: NaN, +Inf, and NaN, ±Inf with a subnormal.
const PLANTS: [&[f64]; 3] =
    [&[f64::NAN], &[f64::INFINITY], &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-40]];
/// Where the plants go in a 24×20×16 field, as (first sample, stride). The
/// last three are where MGARD's sweeps once smeared the mixed plant; the
/// last one sits on a coarse node.
const PLACEMENTS: [(usize, usize); 4] = [(3000, 1117), (3840, 17), (100, 2000), (0, 1)];

/// The fixed hostile rows, each named by its `row`:
///
/// - `chunked`: more than 2¹⁷ points, so the entropy stage frames several
///   chunks;
/// - `1xNx1`, `below-min-tile` (smaller than the container's `MIN_TILE` on
///   every axis) and `rank4`: the shapes nobody generates;
/// - `constant-rel`: zero value range under a `Rel` bound;
/// - `non-finite`: each of the three plants at each of the four placements;
/// - `radius`: white noise at `Abs(range / 2¹⁷)`, whose indices straddle the
///   quantizer radius.
pub fn hostile() -> Vec<Case> {
    use FieldFamily::{Constant, Noise, Smooth, Turbulent};
    let fixed = |row, family, dtype, dims: &[usize], bound| Case {
        row,
        seed: 0x5EED,
        family,
        dtype,
        dims: dims.to_vec(),
        bound,
        plant: None,
    };
    let abs = ErrorBound::Abs(1e-3);
    let mut rows = vec![
        fixed("chunked", Smooth, "f32", &[65, 47, 43], abs),
        fixed("1xNx1", Smooth, "f32", &[1, 100, 1], abs),
        fixed("below-min-tile", Turbulent, "f64", &[5, 7, 3], abs),
        fixed("rank4", Smooth, "f32", &[5, 12, 10, 9], abs),
        fixed("constant-rel", Constant, "f32", &[12, 10, 8], ErrorBound::Rel(1e-3)),
    ];
    for values in PLANTS {
        for (start, stride) in PLACEMENTS {
            let plant = Some(Plant { values, start, stride });
            rows.push(Case { plant, ..fixed("non-finite", Smooth, "f32", &[24, 20, 16], abs) });
        }
    }
    let noise = fixed("radius", Noise, "f64", &[24, 20, 16], abs);
    let range = noise.field::<f64>().value_range();
    rows.push(Case { bound: ErrorBound::Abs(range / 131_072.0), ..noise });
    rows
}

/// The matrix: every [`hostile`] row, then `drawn` seeded draws from `seed0`.
pub fn matrix(drawn: usize, seed0: u64) -> Vec<Case> {
    let seeds = (0..drawn as u64).map(|i| seed0 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    hostile().into_iter().chain(seeds.map(Case::drawn)).collect()
}

/// Greedy minimizer: halve one axis at a time (never below 2) while `fails`
/// still holds at the smaller dims. The field generators are
/// coordinate-based, so a shrunk field is a genuinely smaller counterexample,
/// not a crop of the original.
pub fn minimize(dims: &[usize], mut fails: impl FnMut(&[usize]) -> bool) -> Vec<usize> {
    let mut dims = dims.to_vec();
    loop {
        let mut shrunk = false;
        for axis in 0..dims.len() {
            while dims[axis] > 2 {
                let mut candidate = dims.clone();
                candidate[axis] = (candidate[axis] / 2).max(2);
                if !fails(&candidate) {
                    break;
                }
                dims = candidate;
                shrunk = true;
            }
        }
        if !shrunk {
            return dims;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn draws_are_deterministic_and_diverse() {
        assert_eq!(Case::drawn(7).to_string(), Case::drawn(7).to_string());
        let draws: Vec<Case> = (0..400).map(Case::drawn).collect();
        let families: BTreeSet<&str> = draws.iter().map(|c| c.family.name()).collect();
        assert_eq!(families.len(), DRAWN_FAMILIES.len());
        let ranks: BTreeSet<usize> = draws.iter().map(|c| c.dims.len()).collect();
        assert_eq!(ranks, BTreeSet::from([1, 2, 3, 4]));
        let rels = draws.iter().filter(|c| matches!(c.bound, ErrorBound::Rel(_))).count();
        assert!(rels > 120 && rels < 280, "Rel draw share skewed: {rels}/400");
        let tightest = |dtype| {
            let abs = draws.iter().filter(|c| c.dtype == dtype).filter_map(|c| match c.bound {
                ErrorBound::Abs(e) => Some(e),
                _ => None,
            });
            abs.fold(1.0, f64::min)
        };
        assert!(tightest("f64") < 2e-8 && tightest("f32") > 5e-6);
    }

    #[test]
    fn hostile_rows_are_what_they_say() {
        let rows = hostile();
        let row = |name| rows.iter().find(|c| c.row == name).unwrap();
        assert!(row("chunked").dims.iter().product::<usize>() > 1 << 17);
        assert!(row("below-min-tile").dims.iter().all(|&d| d < 8));
        assert_eq!(row("rank4").dims.len(), 4);
        assert_eq!(row("constant-rel").field::<f32>().value_range(), 0.0);
        let planted: Vec<&Case> = rows.iter().filter(|c| c.row == "non-finite").collect();
        assert_eq!(planted.len(), PLANTS.len() * PLACEMENTS.len());
        for c in planted {
            let odd = c.field::<f32>().as_slice().iter().filter(|v| !v.is_normal()).count();
            assert_eq!(odd, c.plant.unwrap().values.len(), "{c}");
        }
    }

    #[test]
    fn minimizer_shrinks_a_synthetic_failure() {
        assert_eq!(minimize(&[13, 11, 9], |d| d[0] >= 5), [6, 2, 2]);
        assert_eq!(minimize(&[13, 11, 9], |_| false), [13, 11, 9]);
    }
}
