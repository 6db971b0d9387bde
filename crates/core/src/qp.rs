//! The adaptive quantization index prediction engine (paper Sec. V).
//!
//! QP is a reversible transform on the quantization index array, applied
//! point-by-point *inside* the base compressor's quantization loop
//! (Algorithm 1): the compressor emits `Q'[i] = Q[i] − quant_pred(...)` and
//! the decompressor inverts it with `Q[i] = Q'[i] + quant_pred(...)`, using
//! only indices it has already reconstructed. The engine is pure — the base
//! compressor supplies the neighbor indices on the current pass lattice via
//! [`Neighbors`] — which is what makes the method generic across MGARD, SZ3,
//! QoZ and HPEZ.
//!
//! The configuration axes mirror the paper's exploration:
//! * [`PredMode`] — prediction dimension (Fig. 7): 1-D along the
//!   interpolation direction (`Back1`) or either orthogonal axis
//!   (`Top1`/`Left1`), 2-D Lorenzo on the orthogonal plane, 3-D Lorenzo.
//! * [`Condition`] — gating cases I–IV (Fig. 8).
//! * `max_level` — highest interpolation level that still predicts (Fig. 9);
//!   a ceiling the encoder chooses under ([`crate::qp_choice`]).
//!
//! [`QpConfig::best_fit`] is the paper's Algorithm 2: 2-D Lorenzo, Case III,
//! levels 1–2.

use crate::CompressError;
use qip_codec::{ByteReader, ByteWriter};
use qip_predict::{lorenzo2, lorenzo3};
use qip_quant::UNPRED;
use std::ops::Range;

/// Prediction dimension/direction for `quant_pred` (paper Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredMode {
    /// QP disabled: the identity transform.
    Off,
    /// 1-D along the interpolation direction ("1D-Back").
    Back1,
    /// 1-D along the first orthogonal axis ("1D-Top").
    Top1,
    /// 1-D along the second orthogonal axis ("1D-Left").
    Left1,
    /// 2-D Lorenzo on the plane orthogonal to the interpolation direction
    /// (the paper's pick).
    Lorenzo2d,
    /// 3-D Lorenzo including the interpolation direction.
    Lorenzo3d,
}

impl PredMode {
    /// Stable stream tag.
    pub fn tag(self) -> u8 {
        match self {
            PredMode::Off => 0,
            PredMode::Back1 => 1,
            PredMode::Top1 => 2,
            PredMode::Left1 => 3,
            PredMode::Lorenzo2d => 4,
            PredMode::Lorenzo3d => 5,
        }
    }

    /// Inverse of [`PredMode::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => PredMode::Off,
            1 => PredMode::Back1,
            2 => PredMode::Top1,
            3 => PredMode::Left1,
            4 => PredMode::Lorenzo2d,
            5 => PredMode::Lorenzo3d,
            _ => return None,
        })
    }
}

/// Adaptive gating condition (paper Fig. 8 / Sec. V-C2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// Case I: predict everywhere the neighbors exist.
    CaseI,
    /// Case II: skip when any involved neighbor is unpredictable.
    CaseII,
    /// Case III: Case II **and** the left/top neighbors share a strict sign
    /// (the clustering indicator; the paper's pick).
    CaseIII,
    /// Case IV: Case II **and** *all* involved neighbors share a strict sign.
    CaseIV,
}

impl Condition {
    /// Stable stream tag.
    pub fn tag(self) -> u8 {
        match self {
            Condition::CaseI => 0,
            Condition::CaseII => 1,
            Condition::CaseIII => 2,
            Condition::CaseIV => 3,
        }
    }

    /// Inverse of [`Condition::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Condition::CaseI,
            1 => Condition::CaseII,
            2 => Condition::CaseIII,
            3 => Condition::CaseIV,
            _ => return None,
        })
    }
}

/// Neighbor quantization indices on the current pass lattice, as seen from
/// the point being coded. `None` means the neighbor does not exist (outside
/// the field, or not part of this pass).
///
/// Axis naming follows the paper: *left*/*top* span the plane orthogonal to
/// the interpolation direction; *back* is along the interpolation direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Neighbors {
    /// Orthogonal-plane neighbor at −s₁.
    pub left: Option<i32>,
    /// Orthogonal-plane neighbor at −s₂.
    pub top: Option<i32>,
    /// Orthogonal-plane diagonal at −s₁−s₂.
    pub diag: Option<i32>,
    /// Neighbor at −s_b along the interpolation direction.
    pub back: Option<i32>,
    /// −s₁−s_b neighbor (3-D Lorenzo only).
    pub left_back: Option<i32>,
    /// −s₂−s_b neighbor (3-D Lorenzo only).
    pub top_back: Option<i32>,
    /// −s₁−s₂−s_b neighbor (3-D Lorenzo only).
    pub diag_back: Option<i32>,
}

impl Neighbors {
    /// Plane-only neighbors (sufficient for all modes except 3-D Lorenzo).
    pub fn plane(left: Option<i32>, top: Option<i32>, diag: Option<i32>) -> Self {
        Neighbors { left, top, diag, ..Default::default() }
    }
}

/// QP configuration: one per compressed stream, stored in the header so the
/// decompressor applies the identical inverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpConfig {
    /// Prediction dimension/direction.
    pub mode: PredMode,
    /// Gating condition.
    pub condition: Condition,
    /// Highest interpolation level on which prediction fires (level 1 is the
    /// finest). Levels above carry <2 % of the data (paper Sec. V-C3). To
    /// the encoders it is a ceiling: they keep the prefix `0..=max_level`
    /// their index entropy favours and write that into the stream
    /// ([`crate::QpChoice`]); in a stream it is the prefix QP ran on.
    pub max_level: usize,
}

impl QpConfig {
    /// The paper's best-fit configuration (Algorithm 2): 2-D Lorenzo,
    /// Case III, levels 1–2.
    pub fn best_fit() -> Self {
        QpConfig { mode: PredMode::Lorenzo2d, condition: Condition::CaseIII, max_level: 2 }
    }

    /// QP disabled (the vanilla base compressor).
    pub fn off() -> Self {
        QpConfig { mode: PredMode::Off, condition: Condition::CaseI, max_level: 0 }
    }

    /// Whether this config ever transforms anything.
    pub fn is_enabled(&self) -> bool {
        self.mode != PredMode::Off && self.max_level >= 1
    }

    /// The level prefix QP covers: `max_level`, or 0 when disabled.
    pub fn prefix(&self) -> usize {
        if self.is_enabled() {
            self.max_level
        } else {
            0
        }
    }

    /// Where [`QpConfig::write`] puts the `max_level` byte, from its start.
    pub const MAX_LEVEL_AT: usize = 2;

    /// Serialize (3 bytes).
    pub fn write(&self, w: &mut ByteWriter) {
        w.put_u8(self.mode.tag());
        w.put_u8(self.condition.tag());
        w.put_u8(self.max_level.min(255) as u8);
    }

    /// Deserialize a config written by [`QpConfig::write`].
    pub fn read(r: &mut ByteReader) -> Result<Self, CompressError> {
        let mode = PredMode::from_tag(r.get_u8()?)
            .ok_or(CompressError::WrongFormat("bad QP mode tag"))?;
        let condition = Condition::from_tag(r.get_u8()?)
            .ok_or(CompressError::WrongFormat("bad QP condition tag"))?;
        let max_level = r.get_u8()? as usize;
        Ok(QpConfig { mode, condition, max_level })
    }
}

impl Default for QpConfig {
    fn default() -> Self {
        QpConfig::best_fit()
    }
}

/// The QP transform engine. Stateless; cheap to copy into inner loops.
///
/// ```
/// use qip_core::{Neighbors, QpConfig, QpEngine};
///
/// let qp = QpEngine::new(QpConfig::best_fit());
/// // A positive cluster on the orthogonal plane (paper Fig. 5's phenomenon):
/// let nb = Neighbors::plane(Some(4), Some(5), Some(4));
/// // 2-D Lorenzo predicts 4 + 5 − 4 = 5; the clustered index collapses to 0.
/// let q = 5;
/// let q_prime = qp.transform(q, 1, &nb);
/// assert_eq!(q_prime, 0);
/// // The decompressor inverts it exactly from the same neighbors:
/// assert_eq!(qp.recover(q_prime, 1, &nb), q);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QpEngine {
    config: QpConfig,
}

/// In Case I the unpredictable label takes part in arithmetic; its magnitude
/// is meaningless (real SZ3 stores unpredictables in a reserved bin), so it
/// contributes zero — matching the paper's observation that Case I degrades
/// near unpredictable data rather than exploding.
#[inline]
fn val(v: i32) -> i64 {
    if v == UNPRED {
        0
    } else {
        v as i64
    }
}

/// The gate and the compensation — the one definition every QP loop in the
/// workspace evaluates. `v` holds the involved neighbors in the mode's
/// canonical order: `[n]` for the 1-D modes, `[left, top, diag]` for 2-D
/// Lorenzo, `[left, top, back, diag, left_back, top_back, diag_back]` for
/// 3-D Lorenzo; `C` is the [`Condition::tag`]. Returns `(open, c)` with
/// `c = 0` when the gate is closed, so `q ∓ c` is the transform either way.
///
/// Both parameters are compile-time so a row loop is straight-line code:
/// non-short-circuit `|`/`&` and a masked `c` throughout, because the
/// operands are data (index signs flip point to point) and branches on them
/// would mispredict. The sum runs in `i64` and truncates once, like the
/// scalar `quant_pred` always did: seven `i32` terms cannot overflow `i64`,
/// so operand order is free and the truncated result is bit-identical.
#[inline(always)]
fn gate<const N: usize, const C: u8>(v: [i32; N]) -> (bool, i32) {
    let any_unpred = v.iter().fold(false, |acc, &n| acc | (n == UNPRED));
    let open = match C {
        CASE_I => true,
        CASE_II => !any_unpred,
        // Strict same-sign check on the plane neighbors (left/top), or on
        // the single neighbor for the 1-D modes.
        CASE_III => {
            let (a, b) = (v[0], v[N.min(2) - 1]);
            !any_unpred & (((a > 0) & (b > 0)) | ((a < 0) & (b < 0)))
        }
        _ => {
            let all_pos = v.iter().fold(true, |acc, &n| acc & (n > 0));
            let all_neg = v.iter().fold(true, |acc, &n| acc & (n < 0));
            !any_unpred & (all_pos | all_neg)
        }
    };
    // Only Case I can reach the sum with a sentinel among the operands (the
    // other cases mask `c` away), so only it pays for the substitution.
    let val = |n: i32| if C == CASE_I { val(n) } else { n as i64 };
    let c: i64 = match v.as_slice() {
        [n] => val(*n),
        [l, t, d] => lorenzo2(val(*l), val(*t), val(*d)),
        [l, t, b, d, lb, tb, db] => {
            lorenzo3(val(*l), val(*t), val(*b), val(*d), val(*lb), val(*tb), val(*db))
        }
        _ => unreachable!("QP modes involve 1, 3 or 7 neighbors"),
    };
    (open, c as i32 & -(open as i32))
}

const CASE_I: u8 = 0;
const CASE_II: u8 = 1;
const CASE_III: u8 = 2;
const CASE_IV: u8 = 3;

/// Run `$body` with `$gate` bound to [`gate`] for `$n` neighbors under the
/// runtime `$cond`: the one place a [`Condition`] becomes a const parameter.
macro_rules! with_gate {
    ($cond:expr, $n:literal, |$gate:ident| $body:expr) => {
        match $cond {
            Condition::CaseI => {
                let $gate = gate::<$n, CASE_I>;
                $body
            }
            Condition::CaseII => {
                let $gate = gate::<$n, CASE_II>;
                $body
            }
            Condition::CaseIII => {
                let $gate = gate::<$n, CASE_III>;
                $body
            }
            Condition::CaseIV => {
                let $gate = gate::<$n, CASE_IV>;
                $body
            }
        }
    };
}

/// [`with_gate!`] for a resolved row: the neighbor count comes from the taps.
macro_rules! with_row_gate {
    ($taps:expr, $cond:expr, |$gate:ident| $body:expr) => {
        match $taps.n {
            1 => with_gate!($cond, 1, |$gate| $body),
            3 => with_gate!($cond, 3, |$gate| $body),
            _ => with_gate!($cond, 7, |$gate| $body),
        }
    };
}

/// The involved neighbors of one row run, resolved by [`QpEngine::row_taps`]:
/// their distances *behind* the point in the pass's visit order — row-major
/// over the pass lattice, the order the entropy coder sees the indices in —
/// in the canonical order `gate` expects. In that order a neighbor sits at
/// the same distance from every point of a pass (the product of the lattice
/// counts over the later axes; 1 along the row), so everything the point API
/// re-derives per point — which mode, which axes exist, whether the row lies
/// on the lattice's first line — is constant along a row and lives here, and
/// the per-point work is plain `i32` loads from contiguous slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpTaps {
    offs: [usize; 7],
    /// Involved-neighbor count (1, 3 or 7), or 0 when an involved neighbor
    /// cannot exist anywhere on the row: the gate is provably closed.
    n: usize,
    /// Position in `offs` of the tap one point back along the row (distance
    /// 1), when an involved axis runs along it. The row's first point then
    /// has no such neighbor (closed there), and for every later point it is
    /// the index the inverse recovered just before: its one serial
    /// dependency.
    row_tap: Option<usize>,
}

impl QpTaps {
    /// Taps of a row on which the transform is the identity.
    pub const CLOSED: QpTaps = QpTaps { offs: [0; 7], n: 0, row_tap: None };

    /// How many leading points of a run pass through untransformed: the
    /// row's first point when a tap runs along the row, all `len` of them
    /// when the row is closed.
    fn skip(&self, first: bool, len: usize) -> usize {
        match self.n {
            0 => len,
            _ => ((first && self.row_tap.is_some()) as usize).min(len),
        }
    }

    #[inline(always)]
    fn load<const N: usize>(&self, q: &[i32], at: usize) -> [i32; N] {
        std::array::from_fn(|k| q[at - self.offs[k]])
    }

    /// Each tap's values for the `row_tap.len()` points from visit index
    /// `at` on: a slice of `done` (everything before the run) for the taps
    /// in earlier rows, `row_tap` — whatever the caller holds for it — for
    /// the tap along the row.
    #[inline(always)]
    fn sources<'a, const N: usize>(
        &self,
        done: &'a [i32],
        at: usize,
        row_tap: &'a [i32],
    ) -> [&'a [i32]; N] {
        let len = row_tap.len();
        std::array::from_fn(|i| match self.row_tap {
            Some(r) if r == i => row_tap,
            _ => &done[at - self.offs[i]..][..len],
        })
    }
}

impl QpEngine {
    /// Engine for a fixed configuration.
    pub fn new(config: QpConfig) -> Self {
        QpEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &QpConfig {
        &self.config
    }

    /// Whether QP transforms anything on `level`: enabled, and the level
    /// within `max_level`.
    pub fn active(&self, level: usize) -> bool {
        self.config.is_enabled() && level <= self.config.max_level
    }

    /// Whether the gating condition admits a prediction at this point (paper
    /// Fig. 8): QP enabled, level within range, every involved neighbor
    /// present, and the configured [`Condition`] satisfied. This is the
    /// "accept" event in the per-level gating-rate telemetry; when the gate
    /// is open, [`QpEngine::predict`] computes the actual compensation.
    pub fn gate_open(&self, level: usize, nb: &Neighbors) -> bool {
        self.gated_predict(level, nb).is_some()
    }

    /// Fused gate check + compensation: `Some(c)` when the gate is open
    /// (where `c` is what [`QpEngine::predict`] returns), `None` when it is
    /// closed. This is the point API of qip-interp's test oracle, the
    /// row-kernel property suite and the doc-tests; it evaluates the same
    /// `gate` the row kernels run on visit-ordered slices.
    pub fn gated_predict(&self, level: usize, nb: &Neighbors) -> Option<i32> {
        if !self.active(level) {
            return None;
        }
        let cond = self.config.condition;
        let (open, c) = match self.config.mode {
            PredMode::Off => return None,
            PredMode::Back1 => with_gate!(cond, 1, |g| g([nb.back?])),
            PredMode::Top1 => with_gate!(cond, 1, |g| g([nb.top?])),
            PredMode::Left1 => with_gate!(cond, 1, |g| g([nb.left?])),
            PredMode::Lorenzo2d => with_gate!(cond, 3, |g| g([nb.left?, nb.top?, nb.diag?])),
            PredMode::Lorenzo3d => with_gate!(cond, 7, |g| g([
                nb.left?,
                nb.top?,
                nb.back?,
                nb.diag?,
                nb.left_back?,
                nb.top_back?,
                nb.diag_back?,
            ])),
        };
        open.then_some(c)
    }

    /// The `quant_pred` subroutine (paper Algorithm 2, generalized to every
    /// configuration): the compensation to subtract from the current index.
    pub fn predict(&self, level: usize, nb: &Neighbors) -> i32 {
        self.gated_predict(level, nb).unwrap_or(0)
    }

    /// Compression side (Algorithm 1 line 7): `Q'[i] = Q[i] − quant_pred`.
    /// Unpredictable labels pass through untouched so the decompressor can
    /// recognize them before inverting.
    #[inline]
    pub fn transform(&self, q: i32, level: usize, nb: &Neighbors) -> i32 {
        if q == UNPRED {
            q
        } else {
            // Wrapping keeps transform/recover exact inverses of each other
            // over all of i32, so a corrupted index array cannot overflow
            // (and panic) the debug build on the decode side.
            q.wrapping_sub(self.predict(level, nb))
        }
    }

    /// Decompression side: `Q[i] = Q'[i] + quant_pred`, the exact inverse of
    /// [`QpEngine::transform`] given identical neighbors.
    #[inline]
    pub fn recover(&self, q_prime: i32, level: usize, nb: &Neighbors) -> i32 {
        if q_prime == UNPRED {
            q_prime
        } else {
            q_prime.wrapping_add(self.predict(level, nb))
        }
    }
}

/// Points per chunk of a run: one bit each in the inverse's `u64` mark word.
const CHUNK: usize = 64;

/// The two row-tap values the dependency probe tries: one of each strict
/// sign.
const PROBE: [i32; 2] = [1, -1];

/// Stand-in values for the row tap where a sweep does not read it.
const NO_ROW_TAP: [i32; CHUNK] = [0; CHUNK];

/// Row kernels: the production form of the transform, in place on the
/// visit-ordered index array `q` — the array the entropy coder reads
/// (compression) or wrote (decompression). `run` is consecutive points of
/// one row (a whole row, or one row tile) and `first` says it starts at the
/// row's first point. Every tap but the one along the row reaches into
/// earlier rows, i.e. before `run.start`.
impl QpEngine {
    /// Resolve the involved neighbors for one row of a pass on `level`.
    ///
    /// `offs` holds the visit distance of the −step lattice neighbor along
    /// the (left, top, back) axes — `None` when the axis does not exist or
    /// the row lies on the lattice's first line along it; `along_row` marks
    /// the axis the row itself runs along (distance 1; its neighbor exists
    /// from the second point on). Diagonal distances are sums of their
    /// components, so the three axes decide the whole involved set.
    pub fn row_taps(
        &self,
        level: usize,
        offs: [Option<usize>; 3],
        along_row: [bool; 3],
    ) -> QpTaps {
        if !self.active(level) {
            return QpTaps::CLOSED;
        }
        let one = |axis: usize| match offs[axis] {
            Some(o) => QpTaps {
                offs: [o, 0, 0, 0, 0, 0, 0],
                n: 1,
                row_tap: along_row[axis].then_some(0),
            },
            None => QpTaps::CLOSED,
        };
        match (self.config.mode, offs) {
            (PredMode::Back1, _) => one(2),
            (PredMode::Top1, _) => one(1),
            (PredMode::Left1, _) => one(0),
            (PredMode::Lorenzo2d, [Some(l), Some(t), _]) => QpTaps {
                offs: [l, t, l + t, 0, 0, 0, 0],
                n: 3,
                row_tap: along_row[..2].iter().position(|&r| r),
            },
            (PredMode::Lorenzo3d, [Some(l), Some(t), Some(b)]) => QpTaps {
                offs: [l, t, b, l + t, l + b, t + b, l + t + b],
                n: 7,
                row_tap: along_row.iter().position(|&r| r),
            },
            _ => QpTaps::CLOSED,
        }
    }

    /// Gate + compensation for the single point at visit index `at` of `q`
    /// (`first`: it is its row's first point), every neighbor holding `Q`:
    /// `(open, c)` with `c = 0` when closed — what
    /// [`QpEngine::gated_predict`] returns on the equivalent [`Neighbors`].
    /// The forensic decoders use it to recover per-point decisions.
    pub fn gate_at(&self, taps: &QpTaps, first: bool, q: &[i32], at: usize) -> (bool, i32) {
        if taps.skip(first, 1) == 1 {
            return (false, 0);
        }
        with_row_gate!(taps, self.config.condition, |g| g(taps.load(q, at)))
    }

    /// The decoder's dependency probe at a point whose tap `slot` — the one
    /// along the row — is not recovered yet: whether the gate opens with
    /// that tap at +1 or at −1, the others as in `v` (canonical order, 1, 3
    /// or 7 of them). Every condition asks the row tap at most to be a
    /// label-free index of one strict sign, so a gate the probe finds shut
    /// stays shut whatever the row tap turns out to be, and the point has
    /// `Q = Q′` (pinned exhaustively by the row-kernel suite).
    pub fn may_open(&self, v: &[i32], slot: usize) -> bool {
        let cond = self.config.condition;
        let load = |i: usize| v[i];
        match (v.len(), slot) {
            (1, _) => with_gate!(cond, 1, |g| probe::<1, 0>(&g, load)),
            (3, 0) => with_gate!(cond, 3, |g| probe::<3, 0>(&g, load)),
            (3, _) => with_gate!(cond, 3, |g| probe::<3, 1>(&g, load)),
            (_, 0) => with_gate!(cond, 7, |g| probe::<7, 0>(&g, load)),
            (_, 1) => with_gate!(cond, 7, |g| probe::<7, 1>(&g, load)),
            _ => with_gate!(cond, 7, |g| probe::<7, 2>(&g, load)),
        }
    }

    /// Compression side: `Q → Q′` over `q[run]` in place ([`UNPRED`] passes
    /// through); returns how many gates were open. Every neighbor must
    /// still hold `Q`, so a pass is transformed rows last first (a run is
    /// transformed back to front). All of `Q` is known: nothing is serial.
    pub fn forward(&self, taps: &QpTaps, first: bool, q: &mut [i32], run: Range<usize>) -> usize {
        let skip = taps.skip(first, run.len());
        if skip == run.len() {
            return 0;
        }
        with_row_gate!(taps, self.config.condition, |g| forward_run(taps, skip, q, run, g))
    }

    /// Decompression side: `Q′ → Q` over `q[run]` in place ([`UNPRED`]
    /// passes through); every neighbor before `run.start` must hold `Q`
    /// already. Without a tap along the row this is one branchless sweep.
    /// With one, a branchless sweep first marks the points whose gate
    /// [may open](QpEngine::may_open), and only those are resolved, in
    /// order; every other point keeps `Q = Q′`.
    pub fn inverse(&self, taps: &QpTaps, first: bool, q: &mut [i32], run: Range<usize>) {
        let skip = taps.skip(first, run.len());
        if skip < run.len() {
            with_row_gate!(taps, self.config.condition, |g| inverse_run(taps, skip, q, run, g))
        }
    }
}

/// Where a pass's QP neighbors sit in its visit order — row-major over the
/// pass lattice, the order the entropy coder sees the indices in. The −step
/// lattice neighbor along axis `a` is `Π_{b>a} counts[b]` points back (1
/// along the row) for every point of the pass; a row only decides which of
/// the neighbors exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpVisit {
    /// Per (left, top, back) axis: the neighbor's visit distance and the
    /// pass's lattice count along the axis; `None` when the field lacks it.
    axes: [Option<(usize, usize)>; 3],
    /// Which of the three runs along the row.
    along_row: [bool; 3],
    row_len: usize,
    len: usize,
}

impl QpVisit {
    /// The geometry of a pass of `len` points in rows of `row_len`: per
    /// (left, top, back) axis the neighbor's visit distance and the pass's
    /// lattice count along it, and which axis runs along the row.
    pub fn new(
        axes: [Option<(usize, usize)>; 3],
        along_row: [bool; 3],
        row_len: usize,
        len: usize,
    ) -> Self {
        QpVisit { axes, along_row, row_len, len }
    }

    /// Points the pass visits.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The QP taps on `level` of the row that starts at visit index `v`: an
    /// axis's neighbor exists unless the row lies on the lattice's first
    /// line along it, and along the row from the row's second point on.
    pub fn taps(&self, qp: &QpEngine, level: usize, v: usize) -> QpTaps {
        let offs = std::array::from_fn(|i| {
            let (off, count) = self.axes[i]?;
            (self.along_row[i] || !(v / off).is_multiple_of(count)).then_some(off)
        });
        qp.row_taps(level, offs, self.along_row)
    }

    /// The pass's rows as visit ranges, first to last.
    fn rows(&self) -> impl DoubleEndedIterator<Item = Range<usize>> {
        let m = self.row_len;
        (0..self.len / m.max(1)).map(move |r| r * m..(r + 1) * m)
    }

    /// `Q → Q′` on `level` over the whole pass, in place on `q` (its
    /// indices in visit order): rows last first, so every neighbor still
    /// holds `Q`. Returns how many gates were open.
    pub fn forward(&self, qp: &QpEngine, level: usize, q: &mut [i32]) -> usize {
        self.rows().rev().map(|run| qp.forward(&self.taps(qp, level, run.start), true, q, run)).sum()
    }

    /// `Q′ → Q` on `level` over the whole pass, in place on `q`: the
    /// decoder's row kernel, rows first to last, so every neighbor holds
    /// `Q` again by the time a row reads it. The exact inverse of
    /// [`QpVisit::forward`].
    pub fn inverse(&self, qp: &QpEngine, level: usize, q: &mut [i32]) {
        for run in self.rows() {
            qp.inverse(&self.taps(qp, level, run.start), true, q, run);
        }
    }
}

/// The neighbors of one point with the row tap — slot `R` — at `x`, the
/// others from `load`.
#[inline(always)]
fn with_row_tap<const N: usize, const R: usize>(load: impl Fn(usize) -> i32, x: i32) -> [i32; N] {
    std::array::from_fn(|i| if i == R { x } else { load(i) })
}

/// [`QpEngine::may_open`] for one (neighbor count, condition) pair and row
/// tap slot `R`: the gate at each [`PROBE`] value of the row tap.
#[inline(always)]
fn probe<const N: usize, const R: usize>(
    gate: &impl Fn([i32; N]) -> (bool, i32),
    load: impl Fn(usize) -> i32,
) -> bool {
    PROBE.iter().fold(false, |open, &x| open | gate(with_row_tap::<N, R>(&load, x)).0)
}

/// [`QpEngine::forward`] for one (neighbor count, condition) pair: the
/// first `skip` points pass through, the rest go through `gate`, chunks last
/// first so the row tap still reads `Q` (copied out before the chunk is
/// written).
#[inline(always)]
fn forward_run<const N: usize>(
    taps: &QpTaps,
    skip: usize,
    q: &mut [i32],
    run: Range<usize>,
    gate: impl Fn([i32; N]) -> (bool, i32),
) -> usize {
    let at = run.start;
    let (done, rest) = q.split_at_mut(at);
    let row = &mut rest[..run.len()];
    let mut accepted = 0usize;
    let mut hi = row.len();
    while hi > skip {
        let lo = hi.saturating_sub(CHUNK).max(skip);
        let mut prev = [0i32; CHUNK];
        let prev = &mut prev[..hi - lo];
        if taps.row_tap.is_some() {
            for (k, p) in (lo..hi).zip(prev.iter_mut()) {
                *p = if k == 0 { done[at - 1] } else { row[k - 1] };
            }
        }
        let srcs = taps.sources::<N>(done, at + lo, prev);
        for (j, v) in row[lo..hi].iter_mut().enumerate() {
            let (open, c) = gate(std::array::from_fn(|i| srcs[i][j]));
            accepted += open as usize;
            // Wrapping keeps forward/inverse exact inverses over all of i32,
            // so a corrupted index array cannot overflow on the decode side.
            *v = if *v == UNPRED { UNPRED } else { v.wrapping_sub(c) };
        }
        hi = lo;
    }
    accepted
}

/// [`QpEngine::inverse`] for one (neighbor count, condition) pair.
#[inline(always)]
fn inverse_run<const N: usize>(
    taps: &QpTaps,
    skip: usize,
    q: &mut [i32],
    run: Range<usize>,
    gate: impl Fn([i32; N]) -> (bool, i32),
) {
    let at = run.start;
    let (done, rest) = q.split_at_mut(at);
    let row = &mut rest[..run.len()];
    match taps.row_tap {
        None => inverse_sweep(taps, skip, done, row, gate),
        Some(0) => inverse_marked::<N, 0>(taps, skip, done, row, gate),
        Some(1) => inverse_marked::<N, 1>(taps, skip, done, row, gate),
        Some(_) => inverse_marked::<N, 2>(taps, skip, done, row, gate),
    }
}

/// The inverse of a run with no tap along the row: every tap sits in an
/// earlier row (`done`), so nothing is serial.
#[inline(always)]
fn inverse_sweep<const N: usize>(
    taps: &QpTaps,
    skip: usize,
    done: &[i32],
    row: &mut [i32],
    gate: impl Fn([i32; N]) -> (bool, i32),
) {
    let at = done.len();
    let mut lo = skip;
    while lo < row.len() {
        let hi = (lo + CHUNK).min(row.len());
        let srcs = taps.sources::<N>(done, at + lo, &NO_ROW_TAP[..hi - lo]);
        for (j, v) in row[lo..hi].iter_mut().enumerate() {
            let (_, c) = gate(std::array::from_fn(|i| srcs[i][j]));
            *v = if *v == UNPRED { UNPRED } else { v.wrapping_add(c) };
        }
        lo = hi;
    }
}

/// The inverse of a run whose tap `R` runs along the row, a chunk at a
/// time: a branch-free sweep marks, one bit each, the points whose gate
/// opens for either [`PROBE`] value of the row tap — only they depend on the
/// point before — and only those are resolved, in order. Every other point
/// keeps `Q = Q′`.
#[inline(always)]
fn inverse_marked<const N: usize, const R: usize>(
    taps: &QpTaps,
    skip: usize,
    done: &[i32],
    row: &mut [i32],
    gate: impl Fn([i32; N]) -> (bool, i32),
) {
    let at = done.len();
    assert_eq!(taps.offs[R], 1, "the row tap is the previous point");
    let mut lo = skip;
    while lo < row.len() {
        let hi = (lo + CHUNK).min(row.len());
        let srcs = taps.sources::<N>(done, at + lo, &NO_ROW_TAP[..hi - lo]);
        let mut marks = 0u64;
        for (j, &v) in row[lo..hi].iter().enumerate() {
            marks |= (((v != UNPRED) & probe::<N, R>(&gate, |i| srcs[i][j])) as u64) << j;
        }
        // A marked point's row tap is the point before it: carried in a
        // register when that point was just resolved too.
        let (mut carried, mut prev) = (usize::MAX, 0);
        while marks != 0 {
            let j = marks.trailing_zeros() as usize;
            marks &= marks - 1;
            let k = lo + j;
            if j != carried {
                prev = if k == 0 { done[at - 1] } else { row[k - 1] };
            }
            let (_, c) = gate(with_row_tap::<N, R>(|i| srcs[i][j], prev));
            prev = row[k].wrapping_add(c);
            row[k] = prev;
            carried = j + 1;
        }
        lo = hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_modes() -> Vec<PredMode> {
        vec![
            PredMode::Off,
            PredMode::Back1,
            PredMode::Top1,
            PredMode::Left1,
            PredMode::Lorenzo2d,
            PredMode::Lorenzo3d,
        ]
    }

    fn all_conditions() -> Vec<Condition> {
        vec![Condition::CaseI, Condition::CaseII, Condition::CaseIII, Condition::CaseIV]
    }

    fn full_neighbors(v: i32) -> Neighbors {
        Neighbors {
            left: Some(v),
            top: Some(v),
            diag: Some(v),
            back: Some(v),
            left_back: Some(v),
            top_back: Some(v),
            diag_back: Some(v),
        }
    }

    #[test]
    fn config_tags_roundtrip() {
        for m in all_modes() {
            assert_eq!(PredMode::from_tag(m.tag()), Some(m));
        }
        for c in all_conditions() {
            assert_eq!(Condition::from_tag(c.tag()), Some(c));
        }
        assert_eq!(PredMode::from_tag(99), None);
        assert_eq!(Condition::from_tag(99), None);
    }

    #[test]
    fn config_stream_roundtrip() {
        for m in all_modes() {
            for c in all_conditions() {
                let cfg = QpConfig { mode: m, condition: c, max_level: 3 };
                let mut w = ByteWriter::new();
                cfg.write(&mut w);
                let bytes = w.finish();
                let got = QpConfig::read(&mut ByteReader::new(&bytes)).unwrap();
                assert_eq!(got, cfg);
            }
        }
    }

    #[test]
    fn best_fit_matches_algorithm2() {
        let c = QpConfig::best_fit();
        assert_eq!(c.mode, PredMode::Lorenzo2d);
        assert_eq!(c.condition, Condition::CaseIII);
        assert_eq!(c.max_level, 2);
        assert!(c.is_enabled());
        assert!(!QpConfig::off().is_enabled());
    }

    #[test]
    fn transform_recover_inverse_all_configs() {
        // Reversibility f⁻¹(f(Q)) = Q for every mode × condition × neighbor set.
        let neighbor_sets = [
            Neighbors::default(),
            Neighbors::plane(Some(3), Some(2), Some(1)),
            Neighbors::plane(Some(-3), Some(-2), Some(-1)),
            Neighbors::plane(Some(3), None, Some(1)),
            Neighbors::plane(Some(UNPRED), Some(2), Some(1)),
            full_neighbors(5),
            full_neighbors(-7),
            full_neighbors(UNPRED),
        ];
        for m in all_modes() {
            for c in all_conditions() {
                for lvl in [1usize, 2, 3] {
                    let eng = QpEngine::new(QpConfig { mode: m, condition: c, max_level: 2 });
                    for nb in &neighbor_sets {
                        for q in [-100, -1, 0, 1, 100, UNPRED] {
                            let t = eng.transform(q, lvl, nb);
                            assert_eq!(
                                eng.recover(t, lvl, nb),
                                q,
                                "mode={m:?} cond={c:?} lvl={lvl} nb={nb:?} q={q}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn best_fit_predicts_cluster() {
        // A positive cluster: left=top=diag=4 predicts 4.
        let eng = QpEngine::new(QpConfig::best_fit());
        let nb = Neighbors::plane(Some(4), Some(4), Some(4));
        assert_eq!(eng.predict(1, &nb), 4);
        assert_eq!(eng.transform(4, 1, &nb), 0); // cluster collapses to zero
    }

    #[test]
    fn case3_requires_same_strict_sign() {
        let eng = QpEngine::new(QpConfig::best_fit());
        // Mixed signs: no prediction.
        assert_eq!(eng.predict(1, &Neighbors::plane(Some(4), Some(-4), Some(0))), 0);
        // Zero neighbor: no prediction (strict sign).
        assert_eq!(eng.predict(1, &Neighbors::plane(Some(0), Some(4), Some(0))), 0);
        // Both negative: predicts.
        assert_eq!(eng.predict(1, &Neighbors::plane(Some(-2), Some(-3), Some(-1))), -4);
    }

    #[test]
    fn case2_skips_unpredictable_neighbors() {
        let eng = QpEngine::new(QpConfig {
            mode: PredMode::Lorenzo2d,
            condition: Condition::CaseII,
            max_level: 2,
        });
        assert_eq!(eng.predict(1, &Neighbors::plane(Some(UNPRED), Some(4), Some(1))), 0);
        assert_eq!(eng.predict(1, &Neighbors::plane(Some(2), Some(4), Some(1))), 5);
    }

    #[test]
    fn case1_predicts_through_unpredictable_as_zero() {
        let eng = QpEngine::new(QpConfig {
            mode: PredMode::Lorenzo2d,
            condition: Condition::CaseI,
            max_level: 2,
        });
        // UNPRED left counts as 0: prediction = 0 + 4 − 1 = 3.
        assert_eq!(eng.predict(1, &Neighbors::plane(Some(UNPRED), Some(4), Some(1))), 3);
    }

    #[test]
    fn case4_needs_all_same_sign() {
        let eng = QpEngine::new(QpConfig {
            mode: PredMode::Lorenzo2d,
            condition: Condition::CaseIV,
            max_level: 2,
        });
        // left/top positive but diag negative: Case IV refuses, Case III accepts.
        let nb = Neighbors::plane(Some(2), Some(3), Some(-1));
        assert_eq!(eng.predict(1, &nb), 0);
        let eng3 = QpEngine::new(QpConfig::best_fit());
        assert_eq!(eng3.predict(1, &nb), 6);
    }

    #[test]
    fn level_gate() {
        let eng = QpEngine::new(QpConfig::best_fit()); // max_level = 2
        let nb = Neighbors::plane(Some(2), Some(3), Some(1));
        assert_ne!(eng.predict(1, &nb), 0);
        assert_ne!(eng.predict(2, &nb), 0);
        assert_eq!(eng.predict(3, &nb), 0);
        assert_eq!(eng.predict(9, &nb), 0);
    }

    #[test]
    fn missing_neighbor_disables_prediction() {
        let eng = QpEngine::new(QpConfig::best_fit());
        assert_eq!(eng.predict(1, &Neighbors::plane(None, Some(3), Some(1))), 0);
        assert_eq!(eng.predict(1, &Neighbors::plane(Some(3), None, Some(1))), 0);
        assert_eq!(eng.predict(1, &Neighbors::plane(Some(3), Some(3), None)), 0);
    }

    #[test]
    fn one_d_modes_use_their_axis() {
        let nb = Neighbors {
            left: Some(10),
            top: Some(20),
            diag: Some(30),
            back: Some(40),
            ..Default::default()
        };
        let mk = |m| {
            QpEngine::new(QpConfig { mode: m, condition: Condition::CaseI, max_level: 2 })
        };
        assert_eq!(mk(PredMode::Left1).predict(1, &nb), 10);
        assert_eq!(mk(PredMode::Top1).predict(1, &nb), 20);
        assert_eq!(mk(PredMode::Back1).predict(1, &nb), 40);
    }

    #[test]
    fn lorenzo3d_mode_uses_all_seven() {
        let eng = QpEngine::new(QpConfig {
            mode: PredMode::Lorenzo3d,
            condition: Condition::CaseI,
            max_level: 2,
        });
        // Constant neighborhood of 5: 3-D Lorenzo gives 5+5+5−5−5−5+5 = 5.
        assert_eq!(eng.predict(1, &full_neighbors(5)), 5);
        // Any missing corner: no prediction.
        let mut nb = full_neighbors(5);
        nb.diag_back = None;
        assert_eq!(eng.predict(1, &nb), 0);
    }

    #[test]
    fn off_mode_is_identity() {
        let eng = QpEngine::new(QpConfig::off());
        let nb = full_neighbors(9);
        for q in [-5, 0, 5, UNPRED] {
            assert_eq!(eng.transform(q, 1, &nb), q);
        }
    }
}
