//! The interpolation compression/decompression driver.
//!
//! One code path walks levels → passes → lattice points for both directions;
//! a `PointSink` supplies the asymmetric part (quantize-and-record vs
//! read-and-reconstruct). This makes the iteration order — which the QP
//! transform's reversibility depends on — symmetric by construction.

use crate::config::{order_from_tag, order_tag, EngineConfig, LevelParams, PassStructure};
use crate::kernels::Scratch;
use crate::lattice::{build_passes, for_each_point, num_levels, Pass};
use crate::select::choose_level_params;
use qip_codec::{encode_indices, encode_indices_into, ByteReader, ByteWriter};
use qip_core::{
    CompressCtx, CompressError, Compressor, ErrorBound, Neighbors, QpEngine, StreamHeader,
};
use qip_metrics::entropy;
use qip_predict::{
    cubic_interior, linear_edge2, linear_mid, quad_begin, quad_end, InterpKind,
};
use qip_quant::{LinearQuantizer, Quantized, QuantizerBank, UNPRED};
use qip_tensor::{Field, Scalar};

/// Stream format version byte. Version 2 allows the quantization index block
/// to use the chunked (mode 4) entropy framing for large fields.
const FMT_VERSION: u8 = 2;

/// An interpolation-based compressor instance (SZ3/QoZ/HPEZ are thin
/// configuration wrappers around this).
#[derive(Debug, Clone)]
pub struct InterpEngine {
    cfg: EngineConfig,
}

impl InterpEngine {
    /// Engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        InterpEngine { cfg }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Mutable access (used by the compressor crates' tuners).
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.cfg
    }
}

/// Captured quantization state for the characterization experiments (paper
/// Figs. 3–5): the original index array `Q`, the QP-transformed array `Q'`,
/// and the interpolation level of every point — all in spatial (row-major)
/// layout. Anchor points carry index 0 and level 0.
#[derive(Debug, Clone, Default)]
pub struct QuantCapture {
    /// Original quantization indices (`UNPRED` marks unpredictable points).
    pub q: Vec<i32>,
    /// QP-transformed indices actually handed to the encoder.
    pub q_prime: Vec<i32>,
    /// Interpolation level per point (1 = finest; 0 = anchor/seed).
    pub level: Vec<u8>,
}

impl QuantCapture {
    fn zeros(n: usize) -> Self {
        QuantCapture { q: vec![0; n], q_prime: vec![0; n], level: vec![0; n] }
    }

    /// Fraction of points per interpolation level where QP actually fired
    /// (`Q' ≠ Q`): the adaptivity profile behind the paper's Figs. 8–9.
    /// Returns `(level, points, fire_rate)` sorted by level.
    pub fn fire_rate_by_level(&self) -> Vec<(u8, usize, f64)> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<u8, (usize, usize)> = BTreeMap::new();
        for ((&q, &qp), &lvl) in self.q.iter().zip(&self.q_prime).zip(&self.level) {
            let e = counts.entry(lvl).or_insert((0, 0));
            e.0 += 1;
            if q != qp {
                e.1 += 1;
            }
        }
        counts
            .into_iter()
            .map(|(lvl, (n, fired))| (lvl, n, fired as f64 / n.max(1) as f64))
            .collect()
    }
}

/// 1-D spline prediction along `axis` at the pass stride, with boundary
/// degradation (cubic → quadratic → linear → extrapolation → copy).
#[inline]
fn predict_1d<T: Scalar>(
    buf: &[T],
    dim: usize,
    axis_stride: usize,
    coord: usize,
    flat: usize,
    s: usize,
    kind: InterpKind,
) -> f64 {
    debug_assert!(coord >= s);
    let m1 = buf[flat - s * axis_stride].to_f64();
    let p1 = (coord + s < dim).then(|| buf[flat + s * axis_stride].to_f64());
    match kind {
        InterpKind::Linear => match p1 {
            Some(p1) => linear_mid(m1, p1),
            None => {
                if coord >= 3 * s {
                    linear_edge2(buf[flat - 3 * s * axis_stride].to_f64(), m1)
                } else {
                    m1
                }
            }
        },
        InterpKind::Cubic => {
            let m3 = (coord >= 3 * s).then(|| buf[flat - 3 * s * axis_stride].to_f64());
            let p3 = (coord + 3 * s < dim).then(|| buf[flat + 3 * s * axis_stride].to_f64());
            match (m3, p1, p3) {
                (Some(m3), Some(p1), Some(p3)) => cubic_interior(m3, m1, p1, p3),
                (None, Some(p1), Some(p3)) => quad_begin(m1, p1, p3),
                (Some(m3), Some(p1), None) => quad_end(m3, m1, p1),
                (None, Some(p1), None) => linear_mid(m1, p1),
                (Some(m3), None, _) => linear_edge2(m3, m1),
                (None, None, _) => m1,
            }
        }
    }
}

/// Multi-axis prediction: the mean of the 1-D predictions along each
/// interpolation axis (a single axis for directional passes; HPEZ's
/// multi-dimensional interpolation for parity-class passes).
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn predict_point<T: Scalar>(
    buf: &[T],
    dims: &[usize],
    strides: &[usize],
    coords: &[usize],
    flat: usize,
    pass: &Pass,
    kind: InterpKind,
    axis_mask: u8,
) -> f64 {
    let s = pass.stride;
    let mut acc = 0.0;
    let mut used = 0usize;
    for &a in &pass.interp_axes {
        if axis_mask & (1 << a) != 0 {
            acc += predict_1d(buf, dims[a], strides[a], coords[a], flat, s, kind);
            used += 1;
        }
    }
    if used == 0 {
        // Every odd axis frozen: fall back to the full set.
        for &a in &pass.interp_axes {
            acc += predict_1d(buf, dims[a], strides[a], coords[a], flat, s, kind);
            used += 1;
        }
    }
    acc / used as f64
}

/// Resolve the QP neighbor values for the current point from the pass
/// geometry and the already-reconstructed index store.
#[inline]
pub(crate) fn qp_neighbors(
    qstore: &[i32],
    pass: &Pass,
    coords: &[usize],
    flat: usize,
    strides: &[usize],
) -> Neighbors {
    let (la, ta, ba) = pass.qp_axes;
    let avail = |a: Option<usize>| -> Option<usize> {
        let a = a?;
        (coords[a] >= pass.start[a] + pass.step[a]).then(|| pass.step[a] * strides[a])
    };
    let l = avail(la);
    let t = avail(ta);
    let b = avail(ba);
    let get = |off: Option<usize>| off.map(|o| qstore[flat - o]);
    let combine = |x: Option<usize>, y: Option<usize>| match (x, y) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    };
    Neighbors {
        left: get(l),
        top: get(t),
        diag: get(combine(l, t)),
        back: get(b),
        left_back: get(combine(l, b)),
        top_back: get(combine(t, b)),
        diag_back: get(combine(combine(l, t), b)),
    }
}

/// The asymmetric half of the pipeline.
pub(crate) trait PointSink<T: Scalar> {
    /// Per-level parameters: chosen and recorded at compression, replayed at
    /// decompression.
    fn params_for_level(
        &mut self,
        level: usize,
        buf: &[T],
        dims: &[usize],
        strides: &[usize],
    ) -> Result<LevelParams, CompressError>;

    /// Handle an anchor-grid point (raw, lossless).
    fn anchor(&mut self, flat: usize, buf: &mut [T]) -> Result<(), CompressError>;

    /// Handle one interpolated point: returns the value to write into the
    /// working buffer, the *original* quantization index for the store, and
    /// the transformed index that goes to (or came from) the encoder.
    fn handle(
        &mut self,
        current: T,
        pred: f64,
        level: usize,
        nb: &Neighbors,
    ) -> Result<(T, i32, i32), CompressError>;

    /// [`PointSink::handle`] plus the point's flat index. The scalar
    /// reference driver calls this variant so position-aware sinks (the
    /// forensic decoder's spatial accept map) can observe *where* each
    /// decision landed; everything else inherits this delegation.
    fn handle_at(
        &mut self,
        _flat: usize,
        current: T,
        pred: f64,
        level: usize,
        nb: &Neighbors,
    ) -> Result<(T, i32, i32), CompressError> {
        self.handle(current, pred, level, nb)
    }
}

/// Shared driver: walks the full lattice schedule, feeding the sink.
fn run_pipeline<T: Scalar, S: PointSink<T>>(
    cfg: &EngineConfig,
    dims: &[usize],
    strides: &[usize],
    buf: &mut [T],
    sink: &mut S,
    mut capture: Option<&mut QuantCapture>,
) -> Result<(), CompressError> {
    let max_dim = dims.iter().copied().max().unwrap_or(0);
    let levels = num_levels(max_dim);
    let start_level = match cfg.anchor_log2 {
        Some(m) => (m as usize).min(levels).max(1.min(levels)),
        None => levels,
    };

    // Anchor grid: the known lattice before the first processed level.
    let anchor_step = 1usize << start_level;
    let anchor_pass = Pass::uniform(dims.len(), start_level.max(1), anchor_step, anchor_step);
    let mut anchor_flats = Vec::new();
    for_each_point(&anchor_pass, dims, strides, |_c, flat| anchor_flats.push(flat));
    for flat in anchor_flats {
        sink.anchor(flat, buf)?;
    }
    if levels == 0 {
        return Ok(());
    }

    let qp = QpEngine::new(cfg.qp);
    let qp_enabled = cfg.qp.is_enabled();
    let mut qstore = vec![0i32; buf.len()];

    for level in (1..=start_level).rev() {
        let _lvl = qip_trace::span_with(|| format!("level_{level}"));
        let params = sink.params_for_level(level, buf, dims, strides)?;
        let passes = build_passes(dims.len(), level, &params.order, cfg.passes);
        for pass in &passes {
            if pass.is_empty(dims) {
                continue;
            }
            // Collect the pass points first so we can hand `buf` mutably to
            // the sink inside the loop.
            let mut result: Result<(), CompressError> = Ok(());
            let mut coords_buf: Vec<(Vec<usize>, usize)> = Vec::with_capacity(pass.len(dims));
            for_each_point(pass, dims, strides, |c, flat| {
                coords_buf.push((c.to_vec(), flat));
            });
            for (coords, flat) in coords_buf {
                let pred = predict_point(
                    buf,
                    dims,
                    strides,
                    &coords,
                    flat,
                    pass,
                    params.kind,
                    params.axis_mask,
                );
                let nb = if qp_enabled && level <= cfg.qp.max_level {
                    qp_neighbors(&qstore, pass, &coords, flat, strides)
                } else {
                    Neighbors::default()
                };
                let _ = &qp;
                match sink.handle_at(flat, buf[flat], pred, level, &nb) {
                    Ok((value, q, q_prime)) => {
                        buf[flat] = value;
                        qstore[flat] = q;
                        if let Some(cap) = capture.as_deref_mut() {
                            cap.q[flat] = q;
                            cap.q_prime[flat] = q_prime;
                            cap.level[flat] = level as u8;
                        }
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            result?;
        }
    }
    Ok(())
}

/// Buffer-reusing variant of [`run_pipeline`]: identical visit order and
/// arithmetic, but the per-pass lattice point list and the reconstructed
/// index store live in a caller-owned arena. Flat `[usize; 4]` coordinates
/// replace the one-heap-`Vec`-per-lattice-point of the allocating driver,
/// which is the engine's dominant allocation cost.
#[allow(clippy::too_many_arguments)] // one slot per arena channel, by design
fn run_pipeline_ctx<T: Scalar, S: PointSink<T>>(
    cfg: &EngineConfig,
    dims: &[usize],
    strides: &[usize],
    buf: &mut [T],
    sink: &mut S,
    points: &mut Vec<([usize; 4], usize)>,
    qstore: &mut Vec<i32>,
    mut capture: Option<&mut QuantCapture>,
) -> Result<(), CompressError> {
    debug_assert!(dims.len() <= 4, "caller checks dimensionality");
    let max_dim = dims.iter().copied().max().unwrap_or(0);
    let levels = num_levels(max_dim);
    let start_level = match cfg.anchor_log2 {
        Some(m) => (m as usize).min(levels).max(1.min(levels)),
        None => levels,
    };

    let anchor_step = 1usize << start_level;
    let anchor_pass = Pass::uniform(dims.len(), start_level.max(1), anchor_step, anchor_step);
    points.clear();
    for_each_point(&anchor_pass, dims, strides, |_c, flat| points.push(([0; 4], flat)));
    for &(_, flat) in points.iter() {
        sink.anchor(flat, buf)?;
    }
    if levels == 0 {
        return Ok(());
    }

    let qp_enabled = cfg.qp.is_enabled();
    qstore.clear();
    qstore.resize(buf.len(), 0);

    for level in (1..=start_level).rev() {
        let _lvl = qip_trace::span_with(|| format!("level_{level}"));
        let params = sink.params_for_level(level, buf, dims, strides)?;
        let passes = build_passes(dims.len(), level, &params.order, cfg.passes);
        for pass in &passes {
            if pass.is_empty(dims) {
                continue;
            }
            points.clear();
            for_each_point(pass, dims, strides, |c, flat| {
                let mut coords = [0usize; 4];
                coords[..c.len()].copy_from_slice(c);
                points.push((coords, flat));
            });
            for &(coords, flat) in points.iter() {
                let coords = &coords[..dims.len()];
                let pred = predict_point(
                    buf,
                    dims,
                    strides,
                    coords,
                    flat,
                    pass,
                    params.kind,
                    params.axis_mask,
                );
                let nb = if qp_enabled && level <= cfg.qp.max_level {
                    qp_neighbors(qstore, pass, coords, flat, strides)
                } else {
                    Neighbors::default()
                };
                let (value, q, q_prime) = sink.handle(buf[flat], pred, level, &nb)?;
                buf[flat] = value;
                qstore[flat] = q;
                if let Some(cap) = capture.as_deref_mut() {
                    cap.q[flat] = q;
                    cap.q_prime[flat] = q_prime;
                    cap.level[flat] = level as u8;
                }
            }
        }
    }
    Ok(())
}

/// Per-level quantization/QP statistics, collected only while tracing.
#[derive(Default)]
pub(crate) struct LevelStat {
    pub(crate) points: u64,
    pub(crate) accept: u64,
    pub(crate) fired: u64,
    pub(crate) qprime_start: usize,
}

/// Per-run pipeline statistics, collected only while tracing (the sink holds
/// `None` otherwise, so the untraced hot path pays nothing per point).
pub(crate) struct SinkStats {
    pub(crate) predictable: u64,
    pub(crate) unpredictable: u64,
    pub(crate) levels: Vec<LevelStat>,
}

impl SinkStats {
    /// Stats collector when capture is live at compress entry — either a
    /// qip-trace session or an attached qip-telemetry hub — else `None` (the
    /// dormant hot path pays only the two relaxed flag loads).
    fn new_if_tracing(start_level: usize) -> Option<SinkStats> {
        (qip_trace::enabled() || qip_telemetry::active()).then(|| SinkStats {
            predictable: 0,
            unpredictable: 0,
            levels: (0..=start_level).map(|_| LevelStat::default()).collect(),
        })
    }

    /// Emit the collected counters and per-level values. `qprime` is the full
    /// transformed index stream, contiguous per level (coarsest first), so
    /// the recorded offsets delimit each level's segment for the entropy
    /// computation (the signal behind the paper's Fig. 9 level gate).
    fn emit(self, qprime: &[i32]) {
        let telemetry = qip_telemetry::active();
        qip_trace::counter("quant.predictable", self.predictable);
        qip_trace::counter("quant.unpredictable", self.unpredictable);
        if telemetry {
            qip_telemetry::counter_add("qip.quant.predictable", &[], self.predictable);
            qip_telemetry::counter_add("qip.quant.unpredictable", &[], self.unpredictable);
        }
        let max = self.levels.len().saturating_sub(1);
        for level in 1..=max {
            let ls = &self.levels[level];
            if ls.points == 0 {
                continue;
            }
            let end =
                if level > 1 { self.levels[level - 1].qprime_start } else { qprime.len() };
            let rate = ls.accept as f64 / ls.points as f64;
            qip_trace::counter_owned(format!("qp.points.l{level}"), ls.points);
            qip_trace::counter_owned(format!("qp.accept.l{level}"), ls.accept);
            qip_trace::counter_owned(format!("qp.fired.l{level}"), ls.fired);
            qip_trace::value_owned(format!("qp.accept_rate.l{level}"), rate);
            if telemetry {
                let lvl = format!("l{level}");
                let labels = [("level", lvl.as_str())];
                qip_telemetry::counter_add("qip.qp.points", &labels, ls.points);
                qip_telemetry::counter_add("qip.qp.accept", &labels, ls.accept);
                qip_telemetry::counter_add("qip.qp.fired", &labels, ls.fired);
                // Harvested by the registry entry point into the flight
                // record and per-compressor gauges.
                qip_telemetry::call_value(&format!("qp.accept_rate.l{level}"), rate);
            }
            // Per-level entropy is an O(n) scan per level — a profiling
            // signal for trace sessions only, too costly for the always-on
            // telemetry hub (which keeps only the counter-grade stats above).
            if qip_trace::enabled() {
                if let Some(seg) = qprime.get(ls.qprime_start..end) {
                    qip_trace::value_owned(format!("interp.entropy.l{level}"), entropy(seg));
                }
            }
        }
    }
}

/// Compression-side sink. The output channels borrow the caller's buffers so
/// the allocating path (fresh locals) and the buffer-reusing path (a
/// [`CompressCtx`] arena) share this one implementation — byte-identical
/// streams by construction.
pub(crate) struct CompressSink<'a> {
    pub(crate) cfg: EngineConfig,
    pub(crate) qp: QpEngine,
    pub(crate) level_tags: Vec<(u8, u8, u8)>,
    pub(crate) anchors: &'a mut Vec<u8>,
    pub(crate) unpred: &'a mut Vec<u8>,
    pub(crate) qprime: &'a mut Vec<i32>,
    pub(crate) quantizers: &'a [LinearQuantizer],
    pub(crate) stats: Option<SinkStats>,
}

/// Record the per-channel byte breakdown of one compressed stream (no-op
/// unless capture is live).
fn trace_compress_bytes<T: Scalar>(
    points: usize,
    anchors: &[u8],
    unpred: &[u8],
    index_bytes: &[u8],
) {
    if qip_trace::enabled() {
        qip_trace::counter("interp.bytes.in", (points * T::BYTES) as u64);
        qip_trace::counter("interp.bytes.anchors", anchors.len() as u64);
        qip_trace::counter("interp.bytes.unpred", unpred.len() as u64);
        qip_trace::counter("interp.bytes.index", index_bytes.len() as u64);
    }
    if qip_telemetry::active() {
        qip_telemetry::counter_add("qip.interp.bytes.in", &[], (points * T::BYTES) as u64);
        qip_telemetry::counter_add("qip.interp.bytes.anchors", &[], anchors.len() as u64);
        qip_telemetry::counter_add("qip.interp.bytes.unpred", &[], unpred.len() as u64);
        qip_telemetry::counter_add("qip.interp.bytes.index", &[], index_bytes.len() as u64);
    }
}

/// Build the per-level quantizer bank used while compressing.
fn build_quantizers(cfg: &EngineConfig, eb: f64, max_level: usize, bank: &mut QuantizerBank) {
    bank.clear();
    for l in 0..=max_level {
        bank.push(LinearQuantizer::with_radius(cfg.level_eb(eb, l.max(1)), cfg.radius));
    }
}

impl<T: Scalar> PointSink<T> for CompressSink<'_> {
    fn params_for_level(
        &mut self,
        level: usize,
        buf: &[T],
        dims: &[usize],
        strides: &[usize],
    ) -> Result<LevelParams, CompressError> {
        let params = choose_level_params(&self.cfg, dims, strides, buf, level);
        self.level_tags
            .push((params.kind.tag(), order_tag(&params.order), params.axis_mask));
        if let Some(st) = &mut self.stats {
            if let Some(ls) = st.levels.get_mut(level) {
                ls.qprime_start = self.qprime.len();
            }
        }
        Ok(params)
    }

    fn anchor(&mut self, flat: usize, buf: &mut [T]) -> Result<(), CompressError> {
        buf[flat].write_le(self.anchors);
        Ok(())
    }

    fn handle(
        &mut self,
        current: T,
        pred: f64,
        level: usize,
        nb: &Neighbors,
    ) -> Result<(T, i32, i32), CompressError> {
        let quant = &self.quantizers[level.min(self.quantizers.len() - 1)];
        if let Some(st) = &mut self.stats {
            if let Some(ls) = st.levels.get_mut(level) {
                ls.points += 1;
                if self.qp.gate_open(level, nb) {
                    ls.accept += 1;
                }
            }
        }
        match quant.quantize(current, pred) {
            Quantized::Pred { index, recon } => {
                let qp = self.qp.transform(index, level, nb);
                self.qprime.push(qp);
                if let Some(st) = &mut self.stats {
                    st.predictable += 1;
                    if qp != index {
                        if let Some(ls) = st.levels.get_mut(level) {
                            ls.fired += 1;
                        }
                    }
                }
                Ok((recon, index, qp))
            }
            Quantized::Unpred => {
                self.qprime.push(UNPRED);
                if let Some(st) = &mut self.stats {
                    st.unpredictable += 1;
                }
                // Serialized inline, in emission order — the same bytes the
                // end-of-run serialization used to produce.
                current.write_le(self.unpred);
                Ok((current, UNPRED, UNPRED))
            }
        }
    }
}

/// Decompression-side sink: read-only views over the decoded channels, so the
/// allocating and buffer-reusing paths share one implementation.
pub(crate) struct DecompressSink<'a, T: Scalar> {
    pub(crate) qp: QpEngine,
    level_tags: &'a [(u8, u8, u8)],
    level_cursor: usize,
    anchors: &'a [T],
    anchor_cursor: usize,
    pub(crate) unpred: &'a [T],
    pub(crate) unpred_cursor: usize,
    pub(crate) qprime: &'a [i32],
    pub(crate) q_cursor: usize,
    pub(crate) quantizers: &'a [LinearQuantizer],
}

impl<T: Scalar> PointSink<T> for DecompressSink<'_, T> {
    fn params_for_level(
        &mut self,
        _level: usize,
        _buf: &[T],
        dims: &[usize],
        _strides: &[usize],
    ) -> Result<LevelParams, CompressError> {
        let &(kind_tag, ord_tag, axis_mask) = self
            .level_tags
            .get(self.level_cursor)
            .ok_or(CompressError::WrongFormat("missing level parameters"))?;
        self.level_cursor += 1;
        let kind = InterpKind::from_tag(kind_tag)
            .ok_or(CompressError::WrongFormat("bad interpolation kind tag"))?;
        let order = order_from_tag(dims.len(), ord_tag)
            .ok_or(CompressError::WrongFormat("bad dimension order tag"))?;
        Ok(LevelParams { kind, order, axis_mask })
    }

    fn anchor(&mut self, flat: usize, buf: &mut [T]) -> Result<(), CompressError> {
        let v = *self
            .anchors
            .get(self.anchor_cursor)
            .ok_or(CompressError::WrongFormat("anchor channel exhausted"))?;
        self.anchor_cursor += 1;
        buf[flat] = v;
        Ok(())
    }

    fn handle(
        &mut self,
        _current: T,
        pred: f64,
        level: usize,
        nb: &Neighbors,
    ) -> Result<(T, i32, i32), CompressError> {
        let q_prime = *self
            .qprime
            .get(self.q_cursor)
            .ok_or(CompressError::WrongFormat("quantization index stream exhausted"))?;
        self.q_cursor += 1;
        let q = self.qp.recover(q_prime, level, nb);
        if q == UNPRED {
            let v = *self
                .unpred
                .get(self.unpred_cursor)
                .ok_or(CompressError::WrongFormat("unpredictable channel exhausted"))?;
            self.unpred_cursor += 1;
            Ok((v, UNPRED, q_prime))
        } else {
            let quant = &self.quantizers[level.min(self.quantizers.len() - 1)];
            Ok((quant.recover::<T>(pred, q), q, q_prime))
        }
    }
}

/// Per-level decision counters recovered by a forensic decode.
#[derive(Debug, Clone, Default)]
pub struct LevelForensics {
    /// Interpolation level (1 = finest).
    pub level: usize,
    /// Interpolated points processed on this level.
    pub points: u64,
    /// Points where the QP gate was open (transform accepted).
    pub accepted: u64,
    /// Points where the transform actually changed the index (`Q' ≠ Q`).
    pub fired: u64,
    /// Start of this level's segment in the transformed index stream.
    pub qprime_start: usize,
    /// End (exclusive) of this level's segment.
    pub qprime_end: usize,
}

/// Exact byte layout of one engine stream (seal excluded — the wrapper owns
/// it). Every field is a contiguous region; [`EngineLayout::total`] must
/// equal the unsealed stream length or the forensic decode refuses.
#[derive(Debug, Clone, Default)]
pub struct EngineLayout {
    /// `StreamHeader` bytes (magic, scalar width, shape, error bound).
    pub header_bytes: u64,
    /// Fixed config prefix (version, α/β, passes, QP config, radius, level).
    pub config_bytes: u64,
    /// Per-level parameter tags (3 bytes per level).
    pub level_tag_bytes: u64,
    /// Block length prefixes (LEB128) for the three channels.
    pub framing_bytes: u64,
    /// Raw anchor-point scalars.
    pub anchor_bytes: u64,
    /// Unpredictable-value side channel.
    pub unpred_bytes: u64,
    /// Entropy-coded quantization index block.
    pub index_bytes: u64,
}

impl EngineLayout {
    /// Sum of every region — must equal the unsealed stream length.
    pub fn total(&self) -> u64 {
        self.header_bytes
            + self.config_bytes
            + self.level_tag_bytes
            + self.framing_bytes
            + self.anchor_bytes
            + self.unpred_bytes
            + self.index_bytes
    }
}

/// Everything a forensic decode recovers from one engine stream: the
/// reconstructed field plus the byte layout, per-level QP decision counters,
/// the transformed index stream, the per-point capture, and a spatial map of
/// where the gate opened.
#[derive(Debug, Clone)]
pub struct EngineForensics<T: Scalar> {
    /// The reconstructed field (bit-identical to a plain decompress).
    pub field: Field<T>,
    /// Exact byte accounting for the unsealed stream.
    pub layout: EngineLayout,
    /// Absolute error bound recorded in the header.
    pub abs_eb: f64,
    /// Coarsest processed level.
    pub start_level: usize,
    /// Per-level decision counters, coarsest first; empty levels omitted.
    pub levels: Vec<LevelForensics>,
    /// The decoded transformed index stream (encoder emission order).
    pub qprime: Vec<i32>,
    /// Per-point indices and levels in spatial layout.
    pub capture: QuantCapture,
    /// Per-point gate map: 0 = anchor, 1 = gate closed, 2 = gate open.
    pub accepted: Vec<u8>,
    /// Anchor-grid point count.
    pub anchors: u64,
    /// Unpredictable (escaped) point count.
    pub unpredictable: u64,
    /// Copy of the entropy-coded index block (for table-level forensics).
    pub index_block: Vec<u8>,
    /// Whether the stream's QP config enables the transform at all.
    pub qp_enabled: bool,
}

/// Decompression sink that additionally records QP decisions per level and
/// per point. Wraps [`DecompressSink`]; reconstruction arithmetic is the
/// inner sink's, untouched.
struct InspectSink<'a, T: Scalar> {
    inner: DecompressSink<'a, T>,
    levels: Vec<LevelForensics>,
    accepted: Vec<u8>,
    unpredictable: u64,
}

impl<T: Scalar> PointSink<T> for InspectSink<'_, T> {
    fn params_for_level(
        &mut self,
        level: usize,
        buf: &[T],
        dims: &[usize],
        strides: &[usize],
    ) -> Result<LevelParams, CompressError> {
        if let Some(ls) = self.levels.get_mut(level) {
            ls.qprime_start = self.inner.q_cursor;
        }
        self.inner.params_for_level(level, buf, dims, strides)
    }

    fn anchor(&mut self, flat: usize, buf: &mut [T]) -> Result<(), CompressError> {
        self.inner.anchor(flat, buf)
    }

    fn handle(
        &mut self,
        current: T,
        pred: f64,
        level: usize,
        nb: &Neighbors,
    ) -> Result<(T, i32, i32), CompressError> {
        self.inner.handle(current, pred, level, nb)
    }

    fn handle_at(
        &mut self,
        flat: usize,
        current: T,
        pred: f64,
        level: usize,
        nb: &Neighbors,
    ) -> Result<(T, i32, i32), CompressError> {
        let open = self.inner.qp.gate_open(level, nb);
        let (value, q, q_prime) = self.inner.handle(current, pred, level, nb)?;
        if let Some(ls) = self.levels.get_mut(level) {
            ls.points += 1;
            if open {
                ls.accepted += 1;
            }
            if q != q_prime {
                ls.fired += 1;
            }
        }
        if q == UNPRED {
            self.unpredictable += 1;
        }
        self.accepted[flat] = if open { 2 } else { 1 };
        Ok((value, q, q_prime))
    }
}

impl<T: Scalar> Compressor<T> for InterpEngine {
    fn name(&self) -> String {
        format!("interp-engine(0x{:02x})", self.cfg.magic)
    }

    fn compress(&self, field: &Field<T>, bound: ErrorBound) -> Result<Vec<u8>, CompressError> {
        self.compress_impl(field, bound, None)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Field<T>, CompressError> {
        self.decompress_impl(bytes)
    }

    fn compress_into(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        out.clear();
        self.compress_append(field, bound, ctx, out)
    }

    fn decompress_into(
        &self,
        bytes: &[u8],
        ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError> {
        self.decompress_with(bytes, ctx)
    }
}

impl InterpEngine {
    /// Compress while capturing the quantization index arrays (the
    /// characterization API used by the paper's Figs. 3–5 experiments).
    pub fn compress_capturing<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
    ) -> Result<(Vec<u8>, QuantCapture), CompressError> {
        let mut cap = QuantCapture::zeros(field.len());
        let bytes = self.compress_impl(field, bound, Some(&mut cap))?;
        Ok((bytes, cap))
    }

    /// Write the stream prefix (header through start level) and return the
    /// start level. Shared by the allocating and buffer-reusing paths.
    fn write_prefix<T: Scalar>(&self, field: &Field<T>, abs_eb: f64, w: &mut ByteWriter) -> usize {
        let cfg = &self.cfg;
        StreamHeader {
            magic: cfg.magic,
            scalar_bits: T::BITS as u8,
            shape: field.shape().clone(),
            abs_eb,
        }
        .write(w);
        w.put_u8(FMT_VERSION);
        w.put_f64(cfg.alpha);
        w.put_f64(cfg.beta);
        w.put_u8(cfg.passes.tag());
        cfg.qp.write(w);
        w.put_u32(cfg.radius as u32);

        let max_dim = field.shape().dims().iter().copied().max().unwrap_or(0);
        let levels = num_levels(max_dim);
        let start_level = match cfg.anchor_log2 {
            Some(m) => (m as usize).min(levels).max(1.min(levels)),
            None => levels,
        };
        w.put_u8(start_level as u8);
        start_level
    }

    fn compress_impl<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        capture: Option<&mut QuantCapture>,
    ) -> Result<Vec<u8>, CompressError> {
        let cfg = &self.cfg;
        let dims = field.shape().dims().to_vec();
        if dims.len() > 4 {
            return Err(CompressError::Unsupported(
                "interpolation engine supports 1-4 dimensions",
            ));
        }
        let strides = field.shape().strides().to_vec();
        let abs_eb = bound.resolve(field).abs;

        let mut w = ByteWriter::with_capacity(field.len() / 4 + 128);
        let start_level = self.write_prefix(field, abs_eb, &mut w);

        if field.is_empty() {
            return Ok(w.finish());
        }

        let mut buf = field.as_slice().to_vec();
        let mut bank = QuantizerBank::new();
        build_quantizers(cfg, abs_eb, start_level, &mut bank);
        bank.trace_levels();
        let (mut anchors, mut unpred, mut qprime) = (Vec::new(), Vec::new(), Vec::new());
        let mut sink = CompressSink {
            cfg: *cfg,
            qp: QpEngine::new(cfg.qp),
            level_tags: Vec::new(),
            anchors: &mut anchors,
            unpred: &mut unpred,
            qprime: &mut qprime,
            quantizers: bank.as_slice(),
            stats: SinkStats::new_if_tracing(start_level),
        };
        {
            let _t = qip_trace::span("quantize");
            match crate::kernels::kernel_mode() {
                crate::kernels::KernelMode::Chunked => {
                    let (mut qstore, mut f64s, mut idx) = (Vec::new(), Vec::new(), Vec::new());
                    let scratch =
                        Scratch { qstore: &mut qstore, f64s: &mut f64s, idx: &mut idx };
                    crate::kernels::run_compress_vec(
                        cfg, &dims, &strides, &mut buf, &mut sink, scratch, capture,
                    )?;
                }
                crate::kernels::KernelMode::ScalarRef => {
                    run_pipeline(cfg, &dims, &strides, &mut buf, &mut sink, capture)?;
                }
            }
        }
        let (level_tags, stats) = (sink.level_tags, sink.stats);
        if let Some(stats) = stats {
            stats.emit(&qprime);
        }

        for &(k, o, m) in &level_tags {
            w.put_u8(k);
            w.put_u8(o);
            w.put_u8(m);
        }
        let index_bytes = {
            let _t = qip_trace::span("entropy_encode");
            encode_indices(&qprime)
        };
        let _t = qip_trace::span("serialize");
        w.put_block(&anchors);
        w.put_block(&unpred);
        w.put_block(&index_bytes);
        trace_compress_bytes::<T>(field.len(), &anchors, &unpred, &index_bytes);
        Ok(w.finish())
    }

    /// Buffer-reusing compression: append the full stream to `out`, taking
    /// every piece of scratch from `ctx`. Appending (rather than clearing)
    /// lets wrapper formats write their magic/tag prefix first and still
    /// share the caller's output buffer.
    ///
    /// The emitted bytes are identical to [`Compressor::compress`]'s: both
    /// paths drive the same sink over the same visit order; only buffer
    /// ownership and the lattice-point driver differ.
    pub fn compress_append<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        let cfg = &self.cfg;
        if field.shape().dims().len() > 4 {
            return Err(CompressError::Unsupported(
                "interpolation engine supports 1-4 dimensions",
            ));
        }
        let abs_eb = bound.resolve(field).abs;

        let mut w = ByteWriter::from_vec(std::mem::take(out));
        let start_level = self.write_prefix(field, abs_eb, &mut w);

        if field.is_empty() {
            *out = w.finish();
            return Ok(());
        }

        let mut buf: Vec<T> = ctx.pools.acquire();
        buf.extend_from_slice(field.as_slice());
        build_quantizers(cfg, abs_eb, start_level, &mut ctx.quantizers);
        ctx.quantizers.trace_levels();
        ctx.anchors.clear();
        ctx.unpred.clear();
        ctx.qprime.clear();
        let mut sink = CompressSink {
            cfg: *cfg,
            qp: QpEngine::new(cfg.qp),
            level_tags: Vec::new(),
            anchors: &mut ctx.anchors,
            unpred: &mut ctx.unpred,
            qprime: &mut ctx.qprime,
            quantizers: ctx.quantizers.as_slice(),
            stats: SinkStats::new_if_tracing(start_level),
        };
        {
            let _t = qip_trace::span("quantize");
            match crate::kernels::kernel_mode() {
                crate::kernels::KernelMode::Chunked => {
                    crate::kernels::run_compress_vec(
                        cfg,
                        field.shape().dims(),
                        field.shape().strides(),
                        &mut buf,
                        &mut sink,
                        Scratch {
                            qstore: &mut ctx.qstore,
                            f64s: &mut ctx.tile_f64,
                            idx: &mut ctx.tile_idx,
                        },
                        None,
                    )?;
                }
                crate::kernels::KernelMode::ScalarRef => {
                    run_pipeline_ctx(
                        cfg,
                        field.shape().dims(),
                        field.shape().strides(),
                        &mut buf,
                        &mut sink,
                        &mut ctx.points,
                        &mut ctx.qstore,
                        None,
                    )?;
                }
            }
        }
        let (level_tags, stats) = (sink.level_tags, sink.stats);
        if let Some(stats) = stats {
            stats.emit(&ctx.qprime);
        }

        for &(k, o, m) in &level_tags {
            w.put_u8(k);
            w.put_u8(o);
            w.put_u8(m);
        }
        {
            let _t = qip_trace::span("entropy_encode");
            encode_indices_into(&ctx.qprime, &mut ctx.stream);
        }
        let _t = qip_trace::span("serialize");
        w.put_block(&ctx.anchors);
        w.put_block(&ctx.unpred);
        w.put_block(&ctx.stream);
        trace_compress_bytes::<T>(field.len(), &ctx.anchors, &ctx.unpred, &ctx.stream);
        ctx.pools.release(buf);
        *out = w.finish();
        Ok(())
    }

    /// Parse and validate everything up to the decoded channels. Shared by
    /// the allocating and buffer-reusing decompression paths so the two can
    /// never drift in what they accept.
    fn parse_stream<'a, T: Scalar>(
        &self,
        bytes: &'a [u8],
    ) -> Result<ParsedStream<'a>, CompressError> {
        let cfg = &self.cfg;
        let mut r = ByteReader::new(bytes);
        let header = StreamHeader::read(&mut r, cfg.magic, T::BITS as u8)?;
        let version = r.get_u8()?;
        if version != FMT_VERSION {
            return Err(CompressError::WrongFormat("unknown format version"));
        }
        let alpha = r.get_f64()?;
        let beta = r.get_f64()?;
        let plausible = |v: f64| v.is_finite() && (1.0..=1e6).contains(&v);
        if !plausible(alpha) || !plausible(beta) {
            return Err(CompressError::WrongFormat("implausible level-bound parameters"));
        }
        let passes = PassStructure::from_tag(r.get_u8()?)
            .ok_or(CompressError::WrongFormat("bad pass structure tag"))?;
        let qp_cfg = qip_core::QpConfig::read(&mut r)?;
        let radius = r.get_u32()? as i32;
        if radius < 2 {
            return Err(CompressError::WrongFormat("bad quantizer radius"));
        }
        let start_level = r.get_u8()? as usize;

        let dims = header.shape.dims().to_vec();
        let n: usize = dims.iter().product();

        // Reconstruct the effective engine config from the stream (so a
        // stream survives engine-default changes).
        let mut eff = *cfg;
        eff.alpha = alpha;
        eff.beta = beta;
        eff.passes = passes;
        eff.qp = qp_cfg;
        eff.radius = radius;
        eff.anchor_log2 = Some(start_level as u32);

        let mut parsed = ParsedStream {
            shape: header.shape,
            abs_eb: header.abs_eb,
            eff,
            start_level,
            level_tags: Vec::new(),
            anchor_bytes: &[],
            unpred_bytes: &[],
            index_block: &[],
            n,
        };
        if n == 0 {
            return Ok(parsed);
        }

        let max_dim = dims.iter().copied().max().unwrap_or(0);
        let levels = num_levels(max_dim);
        let expect_start = (start_level).min(levels.max(1));
        if start_level != expect_start {
            return Err(CompressError::WrongFormat("inconsistent start level"));
        }

        parsed.level_tags.reserve(start_level);
        for _ in 0..start_level {
            let k = r.get_u8()?;
            let o = r.get_u8()?;
            let m = r.get_u8()?;
            parsed.level_tags.push((k, o, m));
        }
        parsed.anchor_bytes = r.get_block()?;
        parsed.unpred_bytes = r.get_block()?;
        parsed.index_block = r.get_block()?;
        Ok(parsed)
    }

    fn decompress_impl<T: Scalar>(&self, bytes: &[u8]) -> Result<Field<T>, CompressError> {
        let p = {
            let _t = qip_trace::span("parse");
            self.parse_stream::<T>(bytes)?
        };
        if p.n == 0 {
            return Ok(Field::zeros(p.shape));
        }

        let _t = qip_trace::span("entropy_decode");
        let mut anchors = Vec::new();
        decode_scalars_into(p.anchor_bytes, &mut anchors, "anchor block misaligned")?;
        let mut unpred = Vec::new();
        decode_scalars_into(p.unpred_bytes, &mut unpred, "unpredictable block misaligned")?;
        let qprime = qip_codec::decode_indices_capped(p.index_block, p.n)?;
        drop(_t);
        let mut bank = QuantizerBank::new();
        build_decode_quantizers(&p.eff, p.abs_eb, p.start_level, &mut bank)?;

        let dims = p.shape.dims().to_vec();
        let strides = p.shape.strides().to_vec();
        let mut buf = qip_core::try_zeroed_vec::<T>(p.n)?;
        let mut sink = DecompressSink {
            qp: QpEngine::new(p.eff.qp),
            level_tags: &p.level_tags,
            level_cursor: 0,
            anchors: &anchors,
            anchor_cursor: 0,
            unpred: &unpred,
            unpred_cursor: 0,
            qprime: &qprime,
            q_cursor: 0,
            quantizers: bank.as_slice(),
        };
        {
            let _t = qip_trace::span("reconstruct");
            match crate::kernels::kernel_mode() {
                crate::kernels::KernelMode::Chunked => {
                    let (mut qstore, mut f64s, mut idx) = (Vec::new(), Vec::new(), Vec::new());
                    let scratch =
                        Scratch { qstore: &mut qstore, f64s: &mut f64s, idx: &mut idx };
                    crate::kernels::run_decompress_vec(
                        &p.eff, &dims, &strides, &mut buf, &mut sink, scratch,
                    )?;
                }
                crate::kernels::KernelMode::ScalarRef => {
                    run_pipeline(&p.eff, &dims, &strides, &mut buf, &mut sink, None)?;
                }
            }
        }
        Ok(Field::from_vec(p.shape, buf)?)
    }

    /// Buffer-reusing decompression: typed channels come from the context's
    /// scalar pools, the index stream decodes into the context's reusable
    /// buffer, and the lattice driver runs on the context arena. Only the
    /// returned field itself is freshly allocated.
    pub fn decompress_with<T: Scalar>(
        &self,
        bytes: &[u8],
        ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError> {
        let p = {
            let _t = qip_trace::span("parse");
            self.parse_stream::<T>(bytes)?
        };
        if p.n == 0 {
            return Ok(Field::zeros(p.shape));
        }

        let _t = qip_trace::span("entropy_decode");
        let mut anchors: Vec<T> = ctx.pools.acquire();
        decode_scalars_into(p.anchor_bytes, &mut anchors, "anchor block misaligned")?;
        let mut unpred: Vec<T> = ctx.pools.acquire();
        decode_scalars_into(p.unpred_bytes, &mut unpred, "unpredictable block misaligned")?;
        qip_codec::decode_indices_capped_into(p.index_block, p.n, &mut ctx.qprime)?;
        drop(_t);
        build_decode_quantizers(&p.eff, p.abs_eb, p.start_level, &mut ctx.quantizers)?;

        let mut buf = qip_core::try_zeroed_vec::<T>(p.n)?;
        let mut sink = DecompressSink {
            qp: QpEngine::new(p.eff.qp),
            level_tags: &p.level_tags,
            level_cursor: 0,
            anchors: &anchors,
            anchor_cursor: 0,
            unpred: &unpred,
            unpred_cursor: 0,
            qprime: &ctx.qprime,
            q_cursor: 0,
            quantizers: ctx.quantizers.as_slice(),
        };
        {
            let _t = qip_trace::span("reconstruct");
            match crate::kernels::kernel_mode() {
                crate::kernels::KernelMode::Chunked => {
                    crate::kernels::run_decompress_vec(
                        &p.eff,
                        p.shape.dims(),
                        p.shape.strides(),
                        &mut buf,
                        &mut sink,
                        Scratch {
                            qstore: &mut ctx.qstore,
                            f64s: &mut ctx.tile_f64,
                            idx: &mut ctx.tile_idx,
                        },
                    )?;
                }
                crate::kernels::KernelMode::ScalarRef => {
                    run_pipeline_ctx(
                        &p.eff,
                        p.shape.dims(),
                        p.shape.strides(),
                        &mut buf,
                        &mut sink,
                        &mut ctx.points,
                        &mut ctx.qstore,
                        None,
                    )?;
                }
            }
        }
        ctx.pools.release(anchors);
        ctx.pools.release(unpred);
        Ok(Field::from_vec(p.shape, buf)?)
    }

    /// Forensic decompression: reconstruct the field exactly as
    /// [`Compressor::decompress`] would, while recovering the stream's byte
    /// layout, per-level QP decision counters, the transformed index stream,
    /// and a per-point gate map. Always runs the scalar reference driver so
    /// the recovered decision record is deterministic regardless of the
    /// process-wide kernel switch; arithmetic is identical by the kernel
    /// equivalence pin, so the field matches either path bit-for-bit.
    pub fn decompress_forensic<T: Scalar>(
        &self,
        bytes: &[u8],
    ) -> Result<EngineForensics<T>, CompressError> {
        use qip_codec::varint::uvarint_len;
        let p = self.parse_stream::<T>(bytes)?;

        let mut layout = EngineLayout {
            header_bytes: 3
                + p.shape.dims().iter().map(|&d| uvarint_len(d as u64)).sum::<u64>()
                + 8,
            config_bytes: 26,
            ..EngineLayout::default()
        };
        if p.n == 0 {
            if layout.total() != bytes.len() as u64 {
                return Err(CompressError::Corrupt("stream layout does not sum"));
            }
            return Ok(EngineForensics {
                field: Field::zeros(p.shape),
                layout,
                abs_eb: p.abs_eb,
                start_level: p.start_level,
                levels: Vec::new(),
                qprime: Vec::new(),
                capture: QuantCapture::zeros(0),
                accepted: Vec::new(),
                anchors: 0,
                unpredictable: 0,
                index_block: Vec::new(),
                qp_enabled: p.eff.qp.is_enabled(),
            });
        }
        layout.level_tag_bytes = 3 * p.start_level as u64;
        layout.framing_bytes = uvarint_len(p.anchor_bytes.len() as u64)
            + uvarint_len(p.unpred_bytes.len() as u64)
            + uvarint_len(p.index_block.len() as u64);
        layout.anchor_bytes = p.anchor_bytes.len() as u64;
        layout.unpred_bytes = p.unpred_bytes.len() as u64;
        layout.index_bytes = p.index_block.len() as u64;
        if layout.total() != bytes.len() as u64 {
            return Err(CompressError::Corrupt("stream layout does not sum"));
        }

        let mut anchors = Vec::new();
        decode_scalars_into(p.anchor_bytes, &mut anchors, "anchor block misaligned")?;
        let mut unpred = Vec::new();
        decode_scalars_into(p.unpred_bytes, &mut unpred, "unpredictable block misaligned")?;
        let qprime = qip_codec::decode_indices_capped(p.index_block, p.n)?;
        let mut bank = QuantizerBank::new();
        build_decode_quantizers(&p.eff, p.abs_eb, p.start_level, &mut bank)?;

        let dims = p.shape.dims().to_vec();
        let strides = p.shape.strides().to_vec();
        let mut buf = qip_core::try_zeroed_vec::<T>(p.n)?;
        let mut cap = QuantCapture::zeros(p.n);
        let mut sink = InspectSink {
            inner: DecompressSink {
                qp: QpEngine::new(p.eff.qp),
                level_tags: &p.level_tags,
                level_cursor: 0,
                anchors: &anchors,
                anchor_cursor: 0,
                unpred: &unpred,
                unpred_cursor: 0,
                qprime: &qprime,
                q_cursor: 0,
                quantizers: bank.as_slice(),
            },
            levels: (0..=p.start_level)
                .map(|level| LevelForensics { level, ..LevelForensics::default() })
                .collect(),
            accepted: vec![0u8; p.n],
            unpredictable: 0,
        };
        run_pipeline(&p.eff, &dims, &strides, &mut buf, &mut sink, Some(&mut cap))?;

        // Close each level's index-stream segment: levels run coarsest first,
        // so level L ends where level L-1 begins (the finest ends the stream).
        let anchors_read = sink.inner.anchor_cursor as u64;
        let unpredictable = sink.unpredictable;
        let accepted = sink.accepted;
        let mut levels = sink.levels;
        for level in 1..=p.start_level {
            let end = if level > 1 { levels[level - 1].qprime_start } else { qprime.len() };
            levels[level].qprime_end = end;
        }
        let levels: Vec<LevelForensics> =
            levels.into_iter().rev().filter(|ls| ls.points > 0).collect();

        Ok(EngineForensics {
            field: Field::from_vec(p.shape, buf)?,
            layout,
            abs_eb: p.abs_eb,
            start_level: p.start_level,
            levels,
            qprime,
            capture: cap,
            accepted,
            anchors: anchors_read,
            unpredictable,
            index_block: p.index_block.to_vec(),
            qp_enabled: p.eff.qp.is_enabled(),
        })
    }
}

/// Everything [`InterpEngine::parse_stream`] extracts from a stream before
/// channel decoding. `n == 0` marks an empty field (no channels present).
struct ParsedStream<'a> {
    shape: qip_tensor::Shape,
    abs_eb: f64,
    eff: EngineConfig,
    start_level: usize,
    level_tags: Vec<(u8, u8, u8)>,
    anchor_bytes: &'a [u8],
    unpred_bytes: &'a [u8],
    index_block: &'a [u8],
    n: usize,
}

/// Decode a little-endian scalar channel into a reusable buffer.
fn decode_scalars_into<T: Scalar>(
    bytes: &[u8],
    out: &mut Vec<T>,
    misaligned: &'static str,
) -> Result<(), CompressError> {
    if !bytes.len().is_multiple_of(T::BYTES) {
        return Err(CompressError::WrongFormat(misaligned));
    }
    out.clear();
    out.reserve(bytes.len() / T::BYTES);
    for chunk in bytes.chunks_exact(T::BYTES) {
        out.push(T::read_le(chunk)?);
    }
    Ok(())
}

/// Build the per-level quantizer bank used while decompressing (fallible:
/// a forged header can declare degenerate per-level bounds).
fn build_decode_quantizers(
    eff: &EngineConfig,
    abs_eb: f64,
    start_level: usize,
    bank: &mut QuantizerBank,
) -> Result<(), CompressError> {
    bank.clear();
    for l in 0..=start_level {
        bank.push(
            LinearQuantizer::try_with_radius(eff.level_eb(abs_eb, l.max(1)), eff.radius)
                .ok_or(CompressError::Corrupt("degenerate per-level error bound"))?,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qip_core::{Condition, PredMode, QpConfig};
    use qip_tensor::Shape;
    use qip_metrics::max_abs_error;

    fn smooth_field(dims: &[usize]) -> Field<f32> {
        Field::from_fn(Shape::new(dims), |c| {
            let x = c.first().copied().unwrap_or(0) as f32;
            let y = c.get(1).copied().unwrap_or(0) as f32;
            let z = c.get(2).copied().unwrap_or(0) as f32;
            (0.11 * x).sin() + (0.07 * y).cos() * 0.5 + 0.02 * z + 0.3 * (0.05 * x * y).sin()
        })
    }

    fn engines() -> Vec<(&'static str, EngineConfig)> {
        vec![
            ("sz3-like", EngineConfig::sz3_like(0x10)),
            ("qoz-like", EngineConfig::qoz_like(0x11)),
            ("hpez-like", EngineConfig::hpez_like(0x12)),
        ]
    }

    #[test]
    fn forensic_decode_matches_plain_and_sums() {
        let field = smooth_field(&[17, 12, 9]);
        for (name, cfg) in engines() {
            for qp in [QpConfig::off(), QpConfig::best_fit()] {
                let mut cfg = cfg;
                cfg.qp = qp;
                let eng = InterpEngine::new(cfg);
                let bytes = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
                let plain: Field<f32> = eng.decompress(&bytes).unwrap();
                let fx = eng.decompress_forensic::<f32>(&bytes).unwrap();
                assert_eq!(fx.field.as_slice(), plain.as_slice(), "{name}");
                assert_eq!(fx.layout.total(), bytes.len() as u64, "{name}");
                let pts: u64 = fx.levels.iter().map(|l| l.points).sum();
                assert_eq!(pts + fx.anchors, field.len() as u64, "{name}");
                assert_eq!(fx.qprime.len() as u64, pts, "{name}");
                // Level segments tile the index stream without gaps.
                let mut cursor = 0usize;
                for ls in fx.levels.iter() {
                    assert_eq!(ls.qprime_start, cursor, "{name} l{}", ls.level);
                    cursor = ls.qprime_end;
                }
                assert_eq!(cursor, fx.qprime.len(), "{name}");
                if !qp.is_enabled() {
                    assert!(fx.levels.iter().all(|l| l.fired == 0), "{name}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_bound_3d_all_presets() {
        let field = smooth_field(&[17, 12, 9]);
        for (name, cfg) in engines() {
            for qp in [QpConfig::off(), QpConfig::best_fit()] {
                let mut cfg = cfg;
                cfg.qp = qp;
                let eng = InterpEngine::new(cfg);
                let bytes = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
                let out: Field<f32> = eng.decompress(&bytes).unwrap();
                assert_eq!(out.shape(), field.shape());
                let err = max_abs_error(&field, &out);
                assert!(err <= 1e-3 + 1e-9, "{name} qp={:?}: err {err}", qp.mode);
            }
        }
    }

    #[test]
    fn qp_does_not_change_decompressed_data() {
        // The paper's core guarantee: QP alters only the encoded stream.
        let field = smooth_field(&[33, 21, 14]);
        for (name, cfg) in engines() {
            let mut with = cfg;
            with.qp = QpConfig::best_fit();
            let mut without = cfg;
            without.qp = QpConfig::off();
            let a: Field<f32> = InterpEngine::new(with)
                .decompress(&InterpEngine::new(with).compress(&field, ErrorBound::Abs(1e-3)).unwrap())
                .unwrap();
            let b: Field<f32> = InterpEngine::new(without)
                .decompress(
                    &InterpEngine::new(without).compress(&field, ErrorBound::Abs(1e-3)).unwrap(),
                )
                .unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "{name}: QP changed the data");
        }
    }

    #[test]
    fn roundtrip_all_qp_modes_and_conditions() {
        let field = smooth_field(&[13, 11, 7]);
        let cfg0 = EngineConfig::sz3_like(0x10);
        for mode in [
            PredMode::Back1,
            PredMode::Top1,
            PredMode::Left1,
            PredMode::Lorenzo2d,
            PredMode::Lorenzo3d,
        ] {
            for cond in
                [Condition::CaseI, Condition::CaseII, Condition::CaseIII, Condition::CaseIV]
            {
                for max_level in [1usize, 2, 4] {
                    let mut cfg = cfg0;
                    cfg.qp = QpConfig { mode, condition: cond, max_level };
                    let eng = InterpEngine::new(cfg);
                    let bytes = eng.compress(&field, ErrorBound::Abs(5e-3)).unwrap();
                    let out: Field<f32> = eng.decompress(&bytes).unwrap();
                    let err = max_abs_error(&field, &out);
                    assert!(
                        err <= 5e-3 + 1e-9,
                        "mode={mode:?} cond={cond:?} lvl={max_level}: err {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_1d_and_2d() {
        for dims in [vec![97usize], vec![31, 22]] {
            let field = smooth_field(&dims);
            for (name, mut cfg) in engines() {
                cfg.qp = QpConfig::best_fit();
                let eng = InterpEngine::new(cfg);
                let bytes = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
                let out: Field<f32> = eng.decompress(&bytes).unwrap();
                let err = max_abs_error(&field, &out);
                assert!(err <= 1e-3 + 1e-9, "{name} dims={dims:?}: err {err}");
            }
        }
    }

    #[test]
    fn relative_bound_resolved_against_range() {
        let field = smooth_field(&[20, 20, 10]);
        let range = field.value_range();
        let eng = InterpEngine::new(EngineConfig::sz3_like(0x10));
        let bytes = eng.compress(&field, ErrorBound::Rel(1e-3)).unwrap();
        let out: Field<f32> = eng.decompress(&bytes).unwrap();
        assert!(max_abs_error(&field, &out) <= 1e-3 * range + 1e-9);
    }

    #[test]
    fn f64_fields() {
        let field = Field::<f64>::from_fn(Shape::d3(12, 10, 8), |c| {
            (c[0] as f64 * 0.2).sin() + (c[1] as f64 * 0.1).cos() + c[2] as f64 * 1e-3
        });
        for (_, mut cfg) in engines() {
            cfg.qp = QpConfig::best_fit();
            let eng = InterpEngine::new(cfg);
            let bytes = eng.compress(&field, ErrorBound::Abs(1e-6)).unwrap();
            let out: Field<f64> = eng.decompress(&bytes).unwrap();
            assert!(max_abs_error(&field, &out) <= 1e-6 + 1e-15);
        }
    }

    #[test]
    fn constant_field_tiny_stream() {
        let field = Field::from_vec(Shape::d3(16, 16, 16), vec![3.25f32; 4096]).unwrap();
        let eng = InterpEngine::new(EngineConfig::sz3_like(0x10));
        let bytes = eng.compress(&field, ErrorBound::Abs(1e-4)).unwrap();
        let out: Field<f32> = eng.decompress(&bytes).unwrap();
        assert_eq!(out.as_slice(), field.as_slice());
        assert!(bytes.len() < 256, "constant field should compress to ~nothing, got {}", bytes.len());
    }

    #[test]
    fn rough_field_falls_back_to_unpredictable() {
        // White noise with a tight bound: mostly unpredictable, still bounded.
        let mut state = 42u64;
        let field = Field::from_fn(Shape::d3(9, 9, 9), |_| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((state >> 40) as f32 / 16777216.0) * 2000.0 - 1000.0
        });
        let eng = InterpEngine::new(EngineConfig::sz3_like(0x10));
        let bytes = eng.compress(&field, ErrorBound::Abs(1e-6)).unwrap();
        let out: Field<f32> = eng.decompress(&bytes).unwrap();
        assert!(max_abs_error(&field, &out) <= 1e-6 + 1e-12);
    }

    #[test]
    fn nan_inputs_survive_via_unpred_channel() {
        let mut field = smooth_field(&[8, 8, 8]);
        field.as_mut_slice()[100] = f32::NAN;
        field.as_mut_slice()[200] = f32::INFINITY;
        let eng = InterpEngine::new(EngineConfig::sz3_like(0x10));
        let bytes = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let out: Field<f32> = eng.decompress(&bytes).unwrap();
        assert!(out.as_slice()[100].is_nan());
        assert!(out.as_slice()[200].is_infinite());
    }

    #[test]
    fn truncated_stream_errors() {
        let field = smooth_field(&[16, 12, 8]);
        let eng = InterpEngine::new(EngineConfig::qoz_like(0x11));
        let bytes = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        for cut in [0, 4, bytes.len() / 3, bytes.len() - 2] {
            assert!(
                <InterpEngine as Compressor<f32>>::decompress(&eng, &bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let field = smooth_field(&[8, 8, 8]);
        let a = InterpEngine::new(EngineConfig::sz3_like(0x10));
        let b = InterpEngine::new(EngineConfig::sz3_like(0x66));
        let bytes = a.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        assert!(<InterpEngine as Compressor<f32>>::decompress(&b, &bytes).is_err());
    }

    #[test]
    fn qp_shrinks_stream_on_clustered_data() {
        // A field with a sharp front: interpolation residuals cluster around
        // the discontinuity, which is exactly what QP exploits.
        let field = Field::<f32>::from_fn(Shape::d3(48, 48, 24), |c| {
            let d = (c[0] as f32 - 24.0).hypot(c[1] as f32 - 24.0);
            if d < 12.0 {
                1.0 + 0.05 * (c[2] as f32 * 0.4).sin()
            } else {
                0.05 * (0.2 * c[0] as f32).sin() * (0.15 * c[1] as f32).cos()
            }
        });
        let mut with = EngineConfig::sz3_like(0x10);
        with.qp = QpConfig::best_fit();
        let mut without = with;
        without.qp = QpConfig::off();
        let b_with =
            InterpEngine::new(with).compress(&field, ErrorBound::Abs(2e-4)).unwrap();
        let b_without =
            InterpEngine::new(without).compress(&field, ErrorBound::Abs(2e-4)).unwrap();
        assert!(
            b_with.len() < b_without.len(),
            "QP should shrink the clustered stream: {} vs {}",
            b_with.len(),
            b_without.len()
        );
    }

    #[test]
    fn empty_field() {
        let field = Field::<f32>::zeros(Shape::d2(0, 7));
        let eng = InterpEngine::new(EngineConfig::sz3_like(0x10));
        let bytes = eng.compress(&field, ErrorBound::Abs(1.0)).unwrap();
        let out: Field<f32> = eng.decompress(&bytes).unwrap();
        assert_eq!(out.shape().dims(), &[0, 7]);
    }

    #[test]
    fn single_point_field() {
        let field = Field::from_vec(Shape::d1(1), vec![42.0f32]).unwrap();
        let eng = InterpEngine::new(EngineConfig::sz3_like(0x10));
        let bytes = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let out: Field<f32> = eng.decompress(&bytes).unwrap();
        assert_eq!(out.as_slice(), &[42.0]);
    }

    #[test]
    fn compress_into_bytes_identical_and_ctx_reusable() {
        // One context threaded through different engines, shapes and scalar
        // types: every stream must match the allocating path bit for bit,
        // and every decompress_with must match decompress exactly.
        let mut ctx = CompressCtx::new();
        let mut out = Vec::new();
        for (name, mut cfg) in engines() {
            cfg.qp = QpConfig::best_fit();
            let eng = InterpEngine::new(cfg);
            for dims in [vec![23usize, 17, 9], vec![41, 8], vec![65]] {
                let field = smooth_field(&dims);
                let a = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
                eng.compress_into(&field, ErrorBound::Abs(1e-3), &mut ctx, &mut out).unwrap();
                assert_eq!(a, out, "{name} dims={dims:?}: compress_into diverged");
                let d1: Field<f32> = eng.decompress(&a).unwrap();
                let d2: Field<f32> = eng.decompress_with(&a, &mut ctx).unwrap();
                assert_eq!(d1.as_slice(), d2.as_slice(), "{name} dims={dims:?}");
            }
            // Interleave an f64 field through the same context.
            let field64 = Field::<f64>::from_fn(Shape::d3(11, 9, 7), |c| {
                (c[0] as f64 * 0.3).sin() + c[1] as f64 * 0.01 + (c[2] as f64 * 0.2).cos()
            });
            let a = eng.compress(&field64, ErrorBound::Abs(1e-6)).unwrap();
            eng.compress_into(&field64, ErrorBound::Abs(1e-6), &mut ctx, &mut out).unwrap();
            assert_eq!(a, out, "{name}: f64 compress_into diverged");
            let d2: Field<f64> = eng.decompress_with(&a, &mut ctx).unwrap();
            let d1: Field<f64> = eng.decompress(&a).unwrap();
            assert_eq!(d2.as_slice(), d1.as_slice());
        }
    }

    #[test]
    fn compress_append_preserves_prefix() {
        let field = smooth_field(&[14, 11, 6]);
        let eng = InterpEngine::new(EngineConfig::sz3_like(0x10));
        let mut ctx = CompressCtx::new();
        let mut out = vec![0xAB, 0xCD];
        eng.compress_append(&field, ErrorBound::Abs(1e-3), &mut ctx, &mut out).unwrap();
        assert_eq!(&out[..2], &[0xAB, 0xCD]);
        assert_eq!(&out[2..], &eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap()[..]);
    }

    #[test]
    fn four_d_supported_small() {
        let field = Field::<f32>::from_fn(Shape::new(&[3, 3, 3, 3]), |c| {
            (c[0] + 2 * c[1] + 3 * c[2] + 4 * c[3]) as f32 * 0.1
        });
        let eng = InterpEngine::new(EngineConfig::sz3_like(0x10));
        let bytes = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let out: Field<f32> = eng.decompress(&bytes).unwrap();
        assert!(qip_metrics::max_abs_error(&field, &out) <= 1e-3 + 1e-9);
    }
}
