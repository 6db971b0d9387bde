//! The tile walk — the interpolation engine's one lattice driver.
//!
//! The walk is organised around *rows*: the innermost axis (unit stride in
//! row-major layout) is processed in cache-blocked tiles of `TILE` points,
//! with
//!
//! * boundary-case classification hoisted out of the inner loop — for outer
//!   axes the spline case is constant along a row; for the inner axis the row
//!   splits into at most four contiguous case segments computed once per
//!   pass — so the per-point work is straight-line tap loads and
//!   multiply-add chains (the baseline x86-64 target has no FMA, and its
//!   SSE2 vectors hold two f64);
//! * the quantizer running branchless over 64-lane chunks
//!   ([`qip_quant::LinearQuantizer::quantize_lanes`]), emitting indices
//!   unconditionally plus an unpredictable-point bitmap that the (rare)
//!   side-channel patch-up consumes afterwards;
//! * QP run on the index stream itself, in the order the entropy coder sees
//!   it: a pass's neighbors sit at constant distances in its visit order
//!   ([`qip_core::QpVisit`], resolved once per pass; the row only
//!   decides which exist, [`qip_core::QpTaps`]). The encoder transforms
//!   each quantized pass in place, rows last first; the decoder inverts
//!   each tile's slice of the decoded stream in place just before it
//!   dequantizes it. QP-inactive levels have closed taps: nothing to do.
//!
//! Byte identity with the point-by-point reference walk (the `cfg(test)`
//! oracle in `reference.rs`; per point: `predict_point`, one quantize, QP
//! through `Neighbors`) is a hard invariant: every f64 operation happens in
//! the same order with the same operands (axis-major accumulation,
//! `acc / used` division, verbatim reconstruction expression), and emission
//! order is the reference's row-major visit order. The oracle's suite diffs
//! the two across a seeded sweep; the conformance golden vectors pin
//! production against committed streams.

use crate::config::EngineConfig;
use crate::engine::{transform_pass, CompressSink, DecompressSink, PointSink, Probe, QuantCapture};
use crate::lattice::{build_passes, for_each_point, for_each_row, num_levels, Pass};
use qip_core::{CompressError, QpEngine, QpTaps};
use qip_predict::{cubic_interior, linear_edge2, linear_mid, quad_begin, quad_end, InterpKind};
use qip_quant::UNPRED;
use qip_tensor::Scalar;

/// Points per cache-blocked row tile. The per-tile scratch (f64 accumulator +
/// prediction, gathered values, indices, reconstructions) stays ≈18 KB — L1
/// resident — while the tile's tap reads touch at most four neighbor rows.
const TILE: usize = 512;

/// One resolved 1-D spline boundary case: which tap pattern a run of points
/// uses. Mirrors the `predict_1d` match arms exactly (same predictor
/// functions, same operand order) so contributions are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tap {
    /// `cubic_interior(m3, m1, p1, p3)`
    CubicInterior,
    /// `quad_begin(m1, p1, p3)`
    QuadBegin,
    /// `quad_end(m3, m1, p1)`
    QuadEnd,
    /// `linear_mid(m1, p1)`
    LinearMid,
    /// `linear_edge2(m3, m1)`
    LinearEdge2,
    /// copy `m1`
    Copy,
}

/// Classify the boundary case from neighbor availability, replicating the
/// `predict_1d` decision tree (`m3` = `coord ≥ 3s`, `p1` = `coord + s < d`,
/// `p3` = `coord + 3s < d`).
fn classify(kind: InterpKind, m3: bool, p1: bool, p3: bool) -> Tap {
    match kind {
        InterpKind::Linear => {
            if p1 {
                Tap::LinearMid
            } else if m3 {
                Tap::LinearEdge2
            } else {
                Tap::Copy
            }
        }
        InterpKind::Cubic => match (m3, p1, p3) {
            (true, true, true) => Tap::CubicInterior,
            (false, true, true) => Tap::QuadBegin,
            (true, true, false) => Tap::QuadEnd,
            (false, true, false) => Tap::LinearMid,
            (true, false, _) => Tap::LinearEdge2,
            (false, false, _) => Tap::Copy,
        },
    }
}

/// Case segmentation of a pass's inner-axis rows. Interpolation axes always
/// have `start = s`, `step = 2s`, so `coord(j) = s + 2sj`: the `m3` tap exists
/// from `j ≥ 1` and the forward taps vanish monotonically at `jb1`/`jb3` —
/// at most four contiguous segments, shared by every row of the pass.
fn inner_segs(kind: InterpKind, d: usize, s: usize, m: usize) -> Segs {
    let mut segs = Segs::EMPTY;
    if m == 0 {
        return segs;
    }
    // p1(j) ⇔ 2s(j+1) < d; p3(j) ⇔ 2s(j+1) + 2s < d. Both monotone in j.
    let jb1 = if d > 2 * s { (d - 2 * s).div_ceil(2 * s).min(m) } else { 0 };
    let jb3 = if d > 4 * s { (d - 4 * s).div_ceil(2 * s).min(m) } else { 0 };
    segs.push((0, 1, classify(kind, false, jb1 > 0, jb3 > 0)));
    let c3 = jb3.max(1);
    let c1 = jb1.max(1);
    if c3 > 1 {
        segs.push((1, c3, classify(kind, true, true, true)));
    }
    if c1 > c3 {
        segs.push((c3, c1, classify(kind, true, true, false)));
    }
    if m > c1 {
        segs.push((c1, m, classify(kind, true, false, false)));
    }
    segs
}

/// The (at most four) `[j0, j1)` case runs of [`inner_segs`], inline.
#[derive(Clone, Copy)]
struct Segs {
    runs: [(usize, usize, Tap); 4],
    len: usize,
}

impl Segs {
    const EMPTY: Segs = Segs { runs: [(0, 0, Tap::Copy); 4], len: 0 };

    fn push(&mut self, run: (usize, usize, Tap)) {
        self.runs[self.len] = run;
        self.len += 1;
    }

    fn as_slice(&self) -> &[(usize, usize, Tap)] {
        &self.runs[..self.len]
    }
}

/// Add one axis's 1-D spline contribution for points `j ∈ [j0, j1)` of a row
/// into `acc[j - j_base]`. `row_flat` is the flat index of the row's first
/// point, `stp` the flat step between consecutive row points, `off` the flat
/// offset of one stride `s` along the contributing axis.
#[allow(clippy::too_many_arguments)]
fn add_axis_contrib<T: Scalar>(
    acc: &mut [f64],
    buf: &[T],
    tap: Tap,
    row_flat: usize,
    stp: usize,
    off: usize,
    j0: usize,
    j1: usize,
    j_base: usize,
) {
    match tap {
        Tap::CubicInterior => {
            for j in j0..j1 {
                let f = row_flat + j * stp;
                acc[j - j_base] += cubic_interior(
                    buf[f - 3 * off].to_f64(),
                    buf[f - off].to_f64(),
                    buf[f + off].to_f64(),
                    buf[f + 3 * off].to_f64(),
                );
            }
        }
        Tap::QuadBegin => {
            for j in j0..j1 {
                let f = row_flat + j * stp;
                acc[j - j_base] += quad_begin(
                    buf[f - off].to_f64(),
                    buf[f + off].to_f64(),
                    buf[f + 3 * off].to_f64(),
                );
            }
        }
        Tap::QuadEnd => {
            for j in j0..j1 {
                let f = row_flat + j * stp;
                acc[j - j_base] += quad_end(
                    buf[f - 3 * off].to_f64(),
                    buf[f - off].to_f64(),
                    buf[f + off].to_f64(),
                );
            }
        }
        Tap::LinearMid => {
            for j in j0..j1 {
                let f = row_flat + j * stp;
                acc[j - j_base] += linear_mid(buf[f - off].to_f64(), buf[f + off].to_f64());
            }
        }
        Tap::LinearEdge2 => {
            for j in j0..j1 {
                let f = row_flat + j * stp;
                acc[j - j_base] += linear_edge2(buf[f - 3 * off].to_f64(), buf[f - off].to_f64());
            }
        }
        Tap::Copy => {
            for j in j0..j1 {
                acc[j - j_base] += buf[row_flat + j * stp - off].to_f64();
            }
        }
    }
}

/// Fill `acc[0..t]` with the summed per-axis contributions for row points
/// `j ∈ [j0, j0 + t)`. Axes accumulate in `active` order (axis-major), so
/// per-point f64 addition order matches the scalar `predict_point` exactly.
#[allow(clippy::too_many_arguments)]
fn predict_tile<T: Scalar>(
    buf: &[T],
    dims: &[usize],
    strides: &[usize],
    pass: &Pass,
    kind: InterpKind,
    active: &[usize],
    segs: &[(usize, usize, Tap)],
    coords: &[usize; 4],
    flat0: usize,
    j0: usize,
    t: usize,
    acc: &mut [f64],
) {
    let s = pass.stride;
    let inner = dims.len() - 1;
    let stp = pass.step[inner] * strides[inner];
    acc[..t].fill(0.0);
    for &a in active {
        let off = s * strides[a];
        if a == inner {
            for &(a0, a1, tap) in segs {
                let lo = a0.max(j0);
                let hi = a1.min(j0 + t);
                if lo < hi {
                    add_axis_contrib(&mut acc[..t], buf, tap, flat0, stp, off, lo, hi, j0);
                }
            }
        } else {
            let c = coords[a];
            let d = dims[a];
            let tap = classify(kind, c >= 3 * s, c + s < d, c + 3 * s < d);
            add_axis_contrib(&mut acc[..t], buf, tap, flat0, stp, off, j0, j0 + t, j0);
        }
    }
}

/// Shared prologue for both drivers: resolve the level schedule and feed the
/// anchor grid through the sink. Returns `None` when there are no levels.
fn run_anchors<T: Scalar, S: PointSink<T>>(
    cfg: &EngineConfig,
    dims: &[usize],
    strides: &[usize],
    buf: &mut [T],
    sink: &mut S,
) -> Result<Option<usize>, CompressError> {
    let max_dim = dims.iter().copied().max().unwrap_or(0);
    let levels = num_levels(max_dim);
    let start_level = match cfg.anchor_log2 {
        Some(m) => (m as usize).min(levels).max(1.min(levels)),
        None => levels,
    };
    let anchor_step = 1usize << start_level;
    let anchor_pass = Pass::uniform(dims.len(), start_level.max(1), anchor_step, anchor_step);
    let mut err: Result<(), CompressError> = Ok(());
    for_each_point(&anchor_pass, dims, strides, |_c, flat| {
        if err.is_ok() {
            err = sink.anchor(flat, buf);
        }
    });
    err?;
    Ok((levels > 0).then_some(start_level))
}


/// Tile scratch of the drivers, borrowed from a [`qip_core::CompressCtx`]
/// on the buffer-reusing paths so a warm context allocates nothing here.
pub(crate) struct Scratch<'a> {
    /// Per-tile accumulator (`[..TILE]`) and prediction (`[TILE..]`).
    pub(crate) f64s: &'a mut Vec<f64>,
    /// Per-tile quantization indices.
    pub(crate) idx: &'a mut Vec<i32>,
}

/// One row tile as the shared walk hands it to a driver's body: points
/// `j0 .. j0 + pred.len()` of the row starting at `row_coords`/`flat0`.
struct Tile<'a> {
    level: usize,
    /// The row's QP taps ([`QpTaps::CLOSED`] on QP-inactive levels).
    taps: QpTaps,
    flat0: usize,
    /// Flat step between consecutive row points.
    stp: usize,
    j0: usize,
    pred: &'a [f64],
}

impl Tile<'_> {
    /// Flat index of the tile's first point.
    fn flat(&self) -> usize {
        self.flat0 + self.j0 * self.stp
    }
}

/// The walk both drivers share: anchors, then levels → passes → rows → tiles
/// in the reference visit order, with the tile's spline prediction computed
/// before `body` runs, and `pass_done` after the last tile of each pass.
/// Both get the sink back (the walk needs it between tiles); `body` owns
/// everything asymmetric about a tile.
#[allow(clippy::too_many_arguments)]
fn walk_tiles<T: Scalar, S: PointSink<T>>(
    cfg: &EngineConfig,
    dims: &[usize],
    strides: &[usize],
    buf: &mut [T],
    sink: &mut S,
    f64s: &mut Vec<f64>,
    mut body: impl FnMut(&mut S, &mut [T], &Tile<'_>) -> Result<(), CompressError>,
    mut pass_done: impl FnMut(&mut S, &Pass),
) -> Result<(), CompressError> {
    let Some(start_level) = run_anchors(cfg, dims, strides, buf, sink)? else {
        return Ok(());
    };
    let ndim = dims.len();
    let inner = ndim - 1;
    f64s.clear();
    f64s.resize(2 * TILE, 0.0);
    let (acc, pred) = f64s.split_at_mut(TILE);
    let qp = QpEngine::new(cfg.qp);

    for level in (1..=start_level).rev() {
        let _lvl = qip_telemetry::span_with(|| format!("level_{level}"));
        let params = sink.params_for_level(level, &*buf, dims, strides)?;
        let passes = build_passes(ndim, level, &params.order, cfg.passes);
        for pass in &passes {
            if pass.is_empty(dims) {
                continue;
            }
            // Axis-mask filter with the scalar path's fall-back-to-all rule.
            let mut active = [0usize; 4];
            let mut n_active = 0;
            for all in [false, true] {
                for &a in &pass.interp_axes {
                    if all || params.axis_mask & (1 << a) != 0 {
                        active[n_active] = a;
                        n_active += 1;
                    }
                }
                if n_active > 0 {
                    break;
                }
            }
            let active = &active[..n_active];
            let used = n_active as f64;
            let m = pass.row_len(dims);
            let segs = if active.contains(&inner) {
                inner_segs(params.kind, dims[inner], pass.stride, m)
            } else {
                Segs::EMPTY
            };
            let stp = pass.step[inner] * strides[inner];
            let visit = qp.active(level).then(|| pass.qp_visit(dims));
            // Visit index of the row's first point within the pass.
            let mut v = 0usize;
            for_each_row(pass, dims, strides, |row_coords, flat0| {
                let taps = visit.map_or(QpTaps::CLOSED, |visit| visit.taps(&qp, level, v));
                v += m;
                let mut j0 = 0usize;
                while j0 < m {
                    let t = TILE.min(m - j0);
                    predict_tile(
                        buf,
                        dims,
                        strides,
                        pass,
                        params.kind,
                        active,
                        segs.as_slice(),
                        row_coords,
                        flat0,
                        j0,
                        t,
                        acc,
                    );
                    for (p, &a) in pred[..t].iter_mut().zip(&acc[..t]) {
                        *p = a / used;
                    }
                    let tile = Tile {
                        level,
                        taps,
                        flat0,
                        stp,
                        j0,
                        pred: &pred[..t],
                    };
                    body(sink, buf, &tile)?;
                    j0 += t;
                }
                Ok(())
            })?;
            pass_done(sink, pass);
        }
    }
    Ok(())
}

/// Vectorized compression driver: batched row prediction, branchless
/// 64-lane quantization with an unpredictable-point bitmap, emission of `Q`
/// in reference visit order, and the forward QP transform over each pass as
/// it completes. On return `buf` holds the encoder's reconstruction — what
/// the decoder will produce.
pub(crate) fn run_compress_vec<T: Scalar>(
    cfg: &EngineConfig,
    dims: &[usize],
    strides: &[usize],
    buf: &mut [T],
    sink: &mut CompressSink<'_>,
    scratch: Scratch<'_>,
    mut capture: Option<&mut QuantCapture>,
) -> Result<(), CompressError> {
    let Scratch { f64s, idx } = scratch;
    idx.clear();
    idx.resize(TILE, 0);
    let mut cur = [T::ZERO; TILE];
    let mut rec = [T::ZERO; TILE];

    let body = |sink: &mut CompressSink<'_>, buf: &mut [T], tile: &Tile<'_>| {
        let t = tile.pred.len();
        let (level, stp, flat) = (tile.level, tile.stp, tile.flat());
        let quant = sink.quantizers[level.min(sink.quantizers.len() - 1)];
        for (k, c) in cur[..t].iter_mut().enumerate() {
            *c = buf[flat + k * stp];
        }
        // Branchless quantization, 64 lanes per bitmap word; unpredictable
        // lanes get their label patched in afterwards (rare).
        let mut masks = [0u64; TILE / 64];
        for (w, k) in (0..t).step_by(64).enumerate() {
            let l = 64.min(t - k);
            masks[w] = quant.quantize_lanes(
                &cur[k..k + l],
                &tile.pred[k..k + l],
                &mut idx[k..k + l],
                &mut rec[k..k + l],
            );
        }
        for (w, &mask) in masks.iter().enumerate() {
            let mut bits = mask;
            while bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                idx[k] = UNPRED;
                rec[k] = cur[k];
                // Serialized inline, in emission order.
                cur[k].write_le(sink.unpred);
            }
        }
        sink.qprime.extend_from_slice(&idx[..t]);
        for (k, &r) in rec[..t].iter().enumerate() {
            buf[flat + k * stp] = r;
        }
        Ok(())
    };
    // The pass's `Q` is the tail of the stream: `Q → Q′` in place.
    let pass_done = |sink: &mut CompressSink<'_>, pass: &Pass| {
        let (stats, capture) = (sink.stats.as_mut(), capture.as_deref_mut());
        transform_pass(&sink.qp, pass, dims, strides, sink.qprime, sink.choice, stats, capture);
    };
    walk_tiles(cfg, dims, strides, buf, sink, f64s, body, pass_done)
}

/// Vectorized decompression driver: batched row prediction, the tile's
/// slice of the decoded index stream inverted `Q′ → Q` in place (a no-op on
/// QP-inactive levels), one straight-line dequantization from it, and the
/// unpredictable-channel patch-up in emission order. Value-identical to the
/// reference walk, including which error a short channel produces. A
/// `probe` (forensic decodes only; tested once per tile) additionally gets
/// every point's `Q`, level and gate decision.
pub(crate) fn run_decompress_vec<T: Scalar>(
    cfg: &EngineConfig,
    dims: &[usize],
    strides: &[usize],
    buf: &mut [T],
    sink: &mut DecompressSink<'_, T>,
    scratch: Scratch<'_>,
    mut probe: Option<&mut Probe>,
) -> Result<(), CompressError> {
    let body = |sink: &mut DecompressSink<'_, T>, buf: &mut [T], tile: &Tile<'_>| {
        let (level, stp, flat) = (tile.level, tile.stp, tile.flat());
        let quant = sink.quantizers[level.min(sink.quantizers.len() - 1)];
        // A short index stream still decodes its prefix first, so whichever
        // channel runs dry first in visit order names the error — exactly
        // what the point-by-point reference reports.
        let start = sink.q_cursor;
        let run = start..start + tile.pred.len().min(sink.qprime.len() - start);
        sink.q_cursor = run.end;
        sink.qp.inverse(&tile.taps, tile.j0 == 0, sink.qprime, run.clone());
        let q = &sink.qprime[run.clone()];
        let mut any_unpred = false;
        for (k, (&qk, &pk)) in q.iter().zip(tile.pred).enumerate() {
            any_unpred |= qk == UNPRED;
            buf[flat + k * stp] = quant.recover(pk, qk);
        }
        if any_unpred {
            for (k, _) in q.iter().enumerate().filter(|(_, &qk)| qk == UNPRED) {
                buf[flat + k * stp] = *sink
                    .unpred
                    .get(sink.unpred_cursor)
                    .ok_or(CompressError::WrongFormat("unpredictable channel exhausted"))?;
                sink.unpred_cursor += 1;
            }
        }
        if run.len() < tile.pred.len() {
            return Err(CompressError::WrongFormat("quantization index stream exhausted"));
        }
        if let Some(pr) = probe.as_deref_mut() {
            probe_tile(pr, &sink.qp, tile, sink.qprime, run);
        }
        Ok(())
    };
    walk_tiles(cfg, dims, strides, buf, sink, scratch.f64s, body, |_, _| {})
}

/// Record one decoded tile — its points at `run` of the stream `q`, already
/// inverted — into a forensic probe. A point's neighbors are earlier points,
/// which hold `Q` by now, so the gate evaluated here is the one the inverse
/// saw; QP-inactive levels have closed taps. Out of line: plain decodes never
/// get here.
#[cold]
fn probe_tile(pr: &mut Probe, qp: &QpEngine, tile: &Tile<'_>, q: &[i32], run: std::ops::Range<usize>) {
    for (k, at) in run.enumerate() {
        let (open, _) = qp.gate_at(&tile.taps, tile.j0 == 0 && k == 0, q, at);
        pr.point(tile.level, tile.flat() + k * tile.stp, at, q[at], open);
    }
}
