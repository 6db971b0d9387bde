//! The interpolation compression/decompression driver.
//!
//! One code path — the tile walk of [`crate::kernels`] — visits levels →
//! passes → rows → tiles for both directions; a `PointSink` and the two tile
//! bodies supply the asymmetric part (quantize-and-record vs
//! read-and-reconstruct). This makes the iteration order — which the QP
//! transform's reversibility depends on — symmetric by construction. Each
//! direction has one body (`compress_impl`, `decompress_impl`); every public
//! entry point is a call to it.

use crate::config::{order_from_tag, order_tag, EngineConfig, LevelParams, PassStructure};
use crate::kernels::Scratch;
use crate::lattice::{for_each_point, num_levels, Pass};
use crate::select::choose_level_params;
use qip_codec::{ByteReader, ByteWriter, EntropyStage, Span, Spans};
use qip_core::{
    CompressCtx, CompressError, Compressor, ErrorBound, QpChoice, QpConfig, QpEngine, StreamHeader,
};
use qip_metrics::entropy;
use qip_predict::{
    cubic_interior, linear_edge2, linear_mid, quad_begin, quad_end, InterpKind,
};
use qip_quant::{LinearQuantizer, QuantizerBank};
use qip_telemetry::span;
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
}

/// Captured quantization state for the characterization experiments (paper
/// Figs. 3–5): the original index array `Q`, the QP-transformed array `Q'`,
/// and the interpolation level of every point — all in spatial (row-major)
/// layout. Anchor points carry index 0 and level 0.
#[derive(Debug, Clone, Default)]
pub struct QuantCapture {
    /// Original quantization indices (`UNPRED` marks unpredictable points).
    pub q: Vec<i32>,
    /// QP-transformed indices on every level QP ran on — up to the
    /// configured ceiling, before the encoder chose its prefix.
    pub q_prime: Vec<i32>,
    /// Interpolation level per point (1 = finest; 0 = anchor/seed).
    pub level: Vec<u8>,
    /// The level prefix the stream keeps: `q_prime` on levels
    /// `1..=max_level`, `q` above (0 when QP is off).
    pub max_level: usize,
}

impl QuantCapture {
    /// A capture of `n` points, all zero.
    pub fn zeros(n: usize) -> Self {
        QuantCapture { q: vec![0; n], q_prime: vec![0; n], level: vec![0; n], max_level: 0 }
    }

    /// The indices with QP on levels `1..=max_level` only: `Q′` there, `Q`
    /// above — what the encoder hands the entropy coder when it keeps that
    /// prefix (in spatial layout, not the coder's order).
    pub fn with_prefix(&self, max_level: usize) -> Vec<i32> {
        let kept = |(i, &lvl): (usize, &u8)| {
            if (lvl as usize) <= max_level { self.q_prime[i] } else { self.q[i] }
        };
        self.level.iter().enumerate().map(kept).collect()
    }

    /// The indices the stream holds: [`QuantCapture::with_prefix`] of the
    /// kept prefix.
    pub fn encoded(&self) -> Vec<i32> {
        self.with_prefix(self.max_level)
    }

    /// Fraction of points per interpolation level where QP actually fired
    /// (`Q' ≠ Q`) on the levels the stream keeps: the adaptivity profile
    /// behind the paper's Figs. 8–9. Returns `(level, points, fire_rate)`
    /// sorted by level.
    pub fn fire_rate_by_level(&self) -> Vec<(u8, usize, f64)> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<u8, (usize, usize)> = BTreeMap::new();
        for ((&q, &qp), &lvl) in self.q.iter().zip(&self.q_prime).zip(&self.level) {
            let e = counts.entry(lvl).or_insert((0, 0));
            e.0 += 1;
            if q != qp && lvl as usize <= self.max_level {
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

/// The asymmetric half of the walk outside the tile bodies of
/// [`crate::kernels`]: per-level parameters and the anchor grid.
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
}

/// Per-run pipeline statistics of the interpolation engine and MGARD alike:
/// the one producer of the `quant.{predictable,unpredictable}`, `qp.*`,
/// `interp.bytes.*` and `interp.entropy.*` families. Collected only while
/// [`qip_telemetry::capturing`]; a sink holds `None` otherwise, so the
/// dormant hot path pays nothing per point.
#[derive(Debug)]
pub struct SinkStats {
    predictable: u64,
    unpredictable: u64,
    /// Indexed by level (slot 0 stays empty), as in [`Probe::levels`].
    levels: Vec<LevelForensics>,
}

impl SinkStats {
    /// A collector over levels `1..=start_level`, or `None` when no sink
    /// would keep what it collects.
    pub fn new_if_capturing(start_level: usize) -> Option<SinkStats> {
        qip_telemetry::capturing().then(|| SinkStats {
            predictable: 0,
            unpredictable: 0,
            levels: blank_levels(start_level),
        })
    }

    /// `level`'s segment of the transformed index stream starts at `at`.
    pub fn begin_level(&mut self, level: usize, at: usize) {
        if let Some(ls) = self.levels.get_mut(level) {
            ls.qprime_start = at;
        }
    }

    /// Count a stretch of `level`'s points: their indices `q`, what QP made
    /// of them, and how many of them the QP gate accepted.
    pub fn row(&mut self, level: usize, accepted: usize, q: &[i32], q_prime: &[i32]) {
        let (mut unpredictable, mut fired) = (0u64, 0u64);
        for (&a, &b) in q.iter().zip(q_prime) {
            unpredictable += (a == qip_quant::UNPRED) as u64;
            fired += (a != b) as u64;
        }
        self.unpredictable += unpredictable;
        self.predictable += q.len() as u64 - unpredictable;
        if let Some(ls) = self.levels.get_mut(level) {
            ls.points += q.len() as u64;
            ls.accepted += accepted as u64;
            ls.fired += fired;
        }
    }

    /// Keep QP's counts on levels `1..=m` only: the encoder undid the rest.
    fn keep_prefix(&mut self, m: usize) {
        for ls in self.levels.iter_mut().skip(m + 1) {
            (ls.accepted, ls.fired) = (0, 0);
        }
    }

    /// Report the run: the counters, the per-level values, and the stream's
    /// `raw` input size beside its three channels. `qprime` is the full
    /// transformed index stream, contiguous per level (coarsest first), so
    /// the recorded starts delimit each level's segment for the entropy
    /// profile (the signal behind the paper's Fig. 9 level gate).
    pub fn emit(self, qprime: &[i32], raw: usize, [anchors, unpred, index]: [&[u8]; 3]) {
        use qip_telemetry::{count, note, profile, Label};
        count("quant.predictable", Label::None, self.predictable);
        count("quant.unpredictable", Label::None, self.unpredictable);
        for ls in self.levels.iter().filter(|ls| ls.points > 0) {
            let level = Label::Level(ls.level);
            count("qp.points", level, ls.points);
            count("qp.accept", level, ls.accepted);
            count("qp.fired", level, ls.fired);
            note("qp.accept_rate", level, ls.accepted as f64 / ls.points as f64);
            let end = match ls.level {
                1 => qprime.len(),
                l => self.levels[l - 1].qprime_start,
            };
            if let Some(seg) = qprime.get(ls.qprime_start..end) {
                profile("interp.entropy", level, || entropy(seg));
            }
        }
        count("interp.bytes.in", Label::None, raw as u64);
        count("interp.bytes.anchors", Label::None, anchors.len() as u64);
        count("interp.bytes.unpred", Label::None, unpred.len() as u64);
        count("interp.bytes.index", Label::None, index.len() as u64);
    }
}

/// The encoder's QP step for the pass just quantized: its indices are the
/// tail of the stream `qprime`, `Q` on entry and `Q′` on return. `choice`
/// counts both and records the pass for a possible undo; the statistics and
/// the capture (cold paths) see both for every point.
#[allow(clippy::too_many_arguments)]
pub fn transform_pass(
    qp: &QpEngine,
    pass: &Pass,
    dims: &[usize],
    strides: &[usize],
    qprime: &mut [i32],
    choice: &mut QpChoice,
    stats: Option<&mut SinkStats>,
    capture: Option<&mut QuantCapture>,
) {
    let (level, active) = (pass.level, qp.active(pass.level));
    let base = qprime.len() - pass.len(dims);
    let q = &mut qprime[base..];
    choice.tally(level, false, base, q);
    let kept = (active && (stats.is_some() || capture.is_some())).then(|| q.to_vec());
    let accepted = if active {
        let visit = pass.qp_visit(dims);
        let accepted = visit.forward(qp, level, q);
        choice.tally(level, true, base, q);
        choice.record(level, base, visit);
        accepted
    } else {
        0
    };
    let before = kept.as_deref().unwrap_or(q);
    if let Some(st) = stats {
        st.row(level, accepted, before, q);
    }
    if let Some(cap) = capture {
        let mut v = 0;
        for_each_point(pass, dims, strides, |_, flat| {
            cap.q[flat] = before[v];
            cap.q_prime[flat] = q[v];
            cap.level[flat] = level as u8;
            v += 1;
        });
    }
}

/// The encoder's level-prefix choice, once every pass is transformed: keep
/// the prefix `choice` scores best, invert the QP levels above it in
/// `qprime`, and — only when a level was undone, so a stream that keeps
/// every level is the one a fixed prefix gives — write the kept prefix into
/// the stream's QP config, which `w` holds from byte `qp_at` on. The
/// statistics and the capture then count QP on the kept levels only.
/// Publishes `qp.max_level` (the stream's prefix, 0 with QP off) and, per
/// candidate, `qp.index_bytes_est`.
pub fn keep_best_prefix(
    qp: &QpEngine,
    choice: &QpChoice,
    qprime: &mut [i32],
    (w, qp_at): (&mut ByteWriter, usize),
    stats: Option<&mut SinkStats>,
    capture: Option<&mut QuantCapture>,
) {
    use qip_telemetry::{capturing, note, Label};
    let ceiling = choice.ceiling();
    let mut written = qp.config().prefix();
    let _t = (ceiling > 0).then(|| span("qp_choose"));
    let m = choice.choose();
    if ceiling > 0 && capturing() {
        for c in 0..=ceiling {
            note("qp.index_bytes_est", Label::Level(c), choice.index_bits(c) / 8.0);
        }
    }
    if m < ceiling {
        choice.undo(qp, m, qprime);
        w.set_u8(qp_at + QpConfig::MAX_LEVEL_AT, m as u8);
        written = m;
        if let Some(st) = stats {
            st.keep_prefix(m);
        }
    }
    if let Some(cap) = capture {
        cap.max_level = m;
    }
    note("qp.max_level", Label::None, written as f64);
}

/// Blank per-level records for levels `0..=start_level`, indexed by level.
fn blank_levels(start_level: usize) -> Vec<LevelForensics> {
    (0..=start_level).map(|level| LevelForensics { level, ..LevelForensics::default() }).collect()
}

/// Compression-side sink. The output channels borrow the caller's
/// [`CompressCtx`] buffers.
pub(crate) struct CompressSink<'a> {
    pub(crate) cfg: EngineConfig,
    pub(crate) qp: QpEngine,
    pub(crate) level_tags: Vec<(u8, u8, u8)>,
    pub(crate) anchors: &'a mut Vec<u8>,
    pub(crate) unpred: &'a mut Vec<u8>,
    pub(crate) qprime: &'a mut Vec<i32>,
    pub(crate) quantizers: &'a [LinearQuantizer],
    pub(crate) choice: &'a mut QpChoice,
    pub(crate) stats: Option<SinkStats>,
}

/// Build the per-level quantizer bank used while compressing.
pub(crate) fn build_quantizers(
    cfg: &EngineConfig,
    eb: f64,
    max_level: usize,
    bank: &mut QuantizerBank,
) {
    bank.clear();
    for l in 0..=max_level {
        bank.push(LinearQuantizer::new(cfg.level_eb(eb, l.max(1))));
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
            st.begin_level(level, self.qprime.len());
        }
        Ok(params)
    }

    fn anchor(&mut self, flat: usize, buf: &mut [T]) -> Result<(), CompressError> {
        buf[flat].write_le(self.anchors);
        Ok(())
    }
}

/// Decompression-side sink: read-only views over the decoded channels, each
/// with its read cursor.
pub(crate) struct DecompressSink<'a, T: Scalar> {
    pub(crate) qp: QpEngine,
    level_tags: &'a [(u8, u8, u8)],
    level_cursor: usize,
    anchors: &'a [T],
    pub(crate) anchor_cursor: usize,
    pub(crate) unpred: &'a [T],
    pub(crate) unpred_cursor: usize,
    /// The decoded index stream: `Q′` until the tile walk inverts it, tile
    /// by tile, into `Q` in place.
    pub(crate) qprime: &'a mut [i32],
    pub(crate) q_cursor: usize,
    pub(crate) quantizers: &'a [LinearQuantizer],
}

impl<'a, T: Scalar> DecompressSink<'a, T> {
    pub(crate) fn new(
        qp: qip_core::QpConfig,
        level_tags: &'a [(u8, u8, u8)],
        anchors: &'a [T],
        unpred: &'a [T],
        qprime: &'a mut [i32],
        quantizers: &'a [LinearQuantizer],
    ) -> Self {
        DecompressSink {
            qp: QpEngine::new(qp),
            level_tags,
            level_cursor: 0,
            anchors,
            anchor_cursor: 0,
            unpred,
            unpred_cursor: 0,
            qprime,
            q_cursor: 0,
            quantizers,
        }
    }
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

/// Everything a forensic decode recovers from one engine or MGARD stream:
/// the reconstructed field, the byte spans its parse read, the transformed
/// index stream and the per-point QP record.
#[derive(Debug, Clone)]
pub struct EngineForensics<T: Scalar> {
    /// The reconstructed field (bit-identical to a plain decompress).
    pub field: Field<T>,
    /// The stream's named byte spans, in stream order, tiling the bytes the
    /// decoder was given (an engine stream's seal belongs to its wrapper).
    pub spans: Vec<Span>,
    /// Absolute error bound recorded in the header.
    pub abs_eb: f64,
    /// The stream's QP config: its `max_level` is the prefix the encoder
    /// kept.
    pub qp: QpConfig,
    /// The decoded transformed index stream (encoder emission order).
    pub qprime: Vec<i32>,
    /// The per-point record, [finished](Probe::finish).
    pub probe: Probe,
}

/// The per-point record of a forensic decode, filled point by point through
/// [`Probe::point`]; `None` on every plain decode.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// Decision counters indexed by level (slot 0 stays empty) while the
    /// decode runs; coarsest first without the empty levels once finished.
    pub levels: Vec<LevelForensics>,
    /// Per-point gate map: 0 = anchor, 1 = gate closed, 2 = gate open.
    pub accepted: Vec<u8>,
    /// Per-point indices and levels in spatial layout.
    pub capture: QuantCapture,
    /// Unpredictable (escaped) point count.
    pub unpredictable: u64,
    /// Anchor-grid (MGARD: coarse-node) point count.
    pub anchors: u64,
    /// The transformed index stream as decoded (encoder emission order),
    /// kept before the decoder inverts it in place: the `Q′` of
    /// [`Probe::point`].
    pub qprime: Vec<i32>,
}

impl Probe {
    /// A blank record for `n` points over levels `1..=start_level` of a
    /// stream under `qp` whose decoded index stream is `qprime`.
    pub fn new(n: usize, start_level: usize, qp: &QpConfig, qprime: &[i32]) -> Self {
        Probe {
            levels: blank_levels(start_level),
            accepted: vec![0; n],
            capture: QuantCapture { max_level: qp.prefix(), ..QuantCapture::zeros(n) },
            qprime: qprime.to_vec(),
            ..Probe::default()
        }
    }

    /// Record the point at `flat`, decoded on `level` from symbol `at` of
    /// the index stream: `q` behind the inverse transform, `open` whether
    /// its QP gate was.
    #[inline]
    pub fn point(&mut self, level: usize, flat: usize, at: usize, q: i32, open: bool) {
        let q_prime = self.qprime[at];
        let ls = &mut self.levels[level];
        if ls.points == 0 {
            ls.qprime_start = at;
        }
        ls.qprime_end = at + 1;
        ls.points += 1;
        ls.accepted += open as u64;
        ls.fired += (q != q_prime) as u64;
        self.unpredictable += (q == qip_quant::UNPRED) as u64;
        self.accepted[flat] = 1 + open as u8;
        self.capture.q[flat] = q;
        self.capture.q_prime[flat] = q_prime;
        self.capture.level[flat] = level as u8;
    }

    /// Close the record: levels coarsest first, empty ones dropped.
    pub fn finish(mut self) -> Self {
        self.levels.retain(|ls| ls.points > 0);
        self.levels.reverse();
        self
    }
}

impl<T: Scalar> Compressor<T> for InterpEngine {
    fn name(&self) -> String {
        format!("interp-engine(0x{:02x})", self.cfg.magic)
    }

    fn compress_into(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        out.clear();
        self.compress_impl(field, bound, None, EntropyStage::Code, ctx, out)
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
        let mut bytes = Vec::new();
        self.compress_impl(
            field,
            bound,
            Some(&mut cap),
            EntropyStage::Code,
            &mut CompressCtx::new(),
            &mut bytes,
        )?;
        Ok((bytes, cap))
    }

    /// Write the stream prefix (header through start level) and return the
    /// start level and where the QP config starts in `w`.
    pub(crate) fn write_prefix<T: Scalar>(
        &self,
        field: &Field<T>,
        abs_eb: f64,
        w: &mut ByteWriter,
    ) -> (usize, usize) {
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
        let qp_at = w.len();
        cfg.qp.write(w);
        // The radius every encoder uses; the decoder honours a stream's own.
        w.put_u32(LinearQuantizer::DEFAULT_RADIUS as u32);

        let max_dim = field.shape().dims().iter().copied().max().unwrap_or(0);
        let levels = num_levels(max_dim);
        let start_level = match cfg.anchor_log2 {
            Some(m) => (m as usize).min(levels).max(1.min(levels)),
            None => levels,
        };
        w.put_u8(start_level as u8);
        (start_level, qp_at)
    }

    /// Buffer-reusing compression: append the full stream to `out`, taking
    /// every piece of scratch from `ctx`. Appending (rather than clearing)
    /// lets wrapper formats write their magic/tag prefix first and still
    /// share the caller's output buffer.
    pub fn compress_append<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        self.compress_impl(field, bound, None, EntropyStage::Code, ctx, out)
    }

    /// [`InterpEngine::compress_append`] with the index block priced instead
    /// of coded ([`EntropyStage::Price`]): quantization and layout are the
    /// same, so the appended length is the stream's priced length, for
    /// trials that only compare lengths.
    pub fn price_append<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        self.compress_impl(field, bound, None, EntropyStage::Price, ctx, out)
    }

    /// The one compression body: appends the stream to `out` with all
    /// scratch from `ctx`; `capture` additionally records `Q`/`Q'`/level per
    /// point, and `stage` says whether the index block is coded or priced.
    fn compress_impl<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        mut capture: Option<&mut QuantCapture>,
        stage: EntropyStage,
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
        let (start_level, qp_at) = self.write_prefix(field, abs_eb, &mut w);

        if field.is_empty() {
            *out = w.finish();
            return Ok(());
        }

        let mut buf: Vec<T> = ctx.pools.acquire();
        buf.extend_from_slice(field.as_slice());
        build_quantizers(cfg, abs_eb, start_level, &mut ctx.quantizers);
        ctx.quantizers.report_levels();
        ctx.anchors.clear();
        ctx.unpred.clear();
        ctx.qprime.clear();
        ctx.qp_choice.begin(&cfg.qp, start_level);
        let mut sink = CompressSink {
            cfg: *cfg,
            qp: QpEngine::new(cfg.qp),
            level_tags: Vec::new(),
            anchors: &mut ctx.anchors,
            unpred: &mut ctx.unpred,
            qprime: &mut ctx.qprime,
            quantizers: ctx.quantizers.as_slice(),
            choice: &mut ctx.qp_choice,
            stats: SinkStats::new_if_capturing(start_level),
        };
        {
            let _t = span("quantize");
            crate::kernels::run_compress_vec(
                cfg,
                field.shape().dims(),
                field.shape().strides(),
                &mut buf,
                &mut sink,
                Scratch { f64s: &mut ctx.tile_f64, idx: &mut ctx.tile_idx },
                capture.as_deref_mut(),
            )?;
        }
        let (qp, level_tags, mut stats) = (sink.qp, sink.level_tags, sink.stats);
        let header = (&mut w, qp_at);
        keep_best_prefix(&qp, &ctx.qp_choice, &mut ctx.qprime, header, stats.as_mut(), capture);

        {
            let _t = span("entropy_encode");
            stage.run(&ctx.qprime, &mut ctx.stream);
        }
        {
            let _t = span("serialize");
            write_body(&mut w, &level_tags, &ctx.anchors, &ctx.unpred, &ctx.stream);
        }
        if let Some(stats) = stats {
            let raw = field.len() * T::BYTES;
            stats.emit(&ctx.qprime, raw, [&ctx.anchors, &ctx.unpred, &ctx.stream]);
        }
        ctx.pools.release(buf);
        *out = w.finish();
        Ok(())
    }

    /// Parse and validate everything up to the decoded channels — the one
    /// description of the stream layout, for every decode entry and for the
    /// forensic span list alike. Bytes behind the index block are corruption.
    pub(crate) fn parse_stream<'a, T: Scalar>(
        &self,
        bytes: &'a [u8],
    ) -> Result<ParsedStream<'a>, CompressError> {
        let _t = span("parse");
        let cfg = &self.cfg;
        let mut r = ByteReader::new(bytes);
        let mut spans = Spans::default();
        let header = StreamHeader::read(&mut r, cfg.magic, T::BITS as u8)?;
        spans.push("header", r.pos());
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
        spans.push("config", r.pos());

        let dims = header.shape.dims().to_vec();
        let n: usize = dims.iter().product();

        // Reconstruct the effective engine config from the stream (so a
        // stream survives engine-default changes).
        let mut eff = *cfg;
        eff.alpha = alpha;
        eff.beta = beta;
        eff.passes = passes;
        eff.qp = qp_cfg;
        eff.anchor_log2 = Some(start_level as u32);

        let mut parsed = ParsedStream {
            shape: header.shape,
            abs_eb: header.abs_eb,
            eff,
            radius,
            start_level,
            level_tags: Vec::new(),
            anchor_bytes: &[],
            unpred_bytes: &[],
            index_block: &[],
            n,
            spans: Vec::new(),
        };
        if n == 0 {
            parsed.spans = spans.finish(&r, 0)?;
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
        spans.push("level_tags", r.pos());
        parsed.anchor_bytes = spans.block("anchors", &mut r)?;
        parsed.unpred_bytes = spans.block("unpred", &mut r)?;
        parsed.index_block = spans.block("index", &mut r)?;
        parsed.spans = spans.finish(&r, 0)?;
        Ok(parsed)
    }

    /// Buffer-reusing decompression: typed channels come from the context's
    /// scalar pools, the index stream decodes into the context's reusable
    /// buffer, and the tile walk runs on the context arena. Only the
    /// returned field itself is freshly allocated.
    pub fn decompress_with<T: Scalar>(
        &self,
        bytes: &[u8],
        ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError> {
        Self::decompress_impl(self.parse_stream::<T>(bytes)?, ctx, None)
    }

    /// The one decompression body — decode a parsed stream's channels and
    /// run the tile walk; `probe` additionally records every point's QP
    /// decision (the forensic decode).
    fn decompress_impl<T: Scalar>(
        p: ParsedStream<'_>,
        ctx: &mut CompressCtx,
        mut probe: Option<&mut Probe>,
    ) -> Result<Field<T>, CompressError> {
        if p.n == 0 {
            return Ok(Field::zeros(p.shape));
        }

        let _t = span("entropy_decode");
        let mut anchors: Vec<T> = ctx.pools.acquire();
        decode_scalars_into(p.anchor_bytes, &mut anchors, "anchor block misaligned")?;
        let mut unpred: Vec<T> = ctx.pools.acquire();
        decode_scalars_into(p.unpred_bytes, &mut unpred, "unpredictable block misaligned")?;
        qip_codec::decode_indices_capped_into(p.index_block, p.n, &mut ctx.qprime)?;
        drop(_t);
        build_decode_quantizers(&p, &mut ctx.quantizers)?;

        // `try_zeroed_vec` validates that `n` is allocatable before the probe
        // sizes its per-point maps to it.
        let mut buf = qip_core::try_zeroed_vec::<T>(p.n)?;
        if let Some(pr) = probe.as_deref_mut() {
            *pr = Probe::new(p.n, p.start_level, &p.eff.qp, &ctx.qprime);
        }
        let mut sink = DecompressSink::new(
            p.eff.qp,
            &p.level_tags,
            &anchors,
            &unpred,
            &mut ctx.qprime,
            ctx.quantizers.as_slice(),
        );
        {
            let _t = span("reconstruct");
            crate::kernels::run_decompress_vec(
                &p.eff,
                p.shape.dims(),
                p.shape.strides(),
                &mut buf,
                &mut sink,
                Scratch { f64s: &mut ctx.tile_f64, idx: &mut ctx.tile_idx },
                probe.as_deref_mut(),
            )?;
        }
        if let Some(pr) = probe {
            pr.anchors = sink.anchor_cursor as u64;
        }
        ctx.pools.release(anchors);
        ctx.pools.release(unpred);
        Ok(Field::from_vec(p.shape, buf)?)
    }

    /// Forensic decompression: reconstruct the field exactly as
    /// [`Compressor::decompress`] does — on the same parse and the same tile
    /// walk — while recovering the stream's byte spans, per-level QP counters,
    /// the transformed index stream, and a per-point gate map.
    pub fn decompress_forensic<T: Scalar>(
        &self,
        bytes: &[u8],
    ) -> Result<EngineForensics<T>, CompressError> {
        let mut p = self.parse_stream::<T>(bytes)?;
        let (spans, abs_eb, qp) = (std::mem::take(&mut p.spans), p.abs_eb, p.eff.qp);
        let mut probe = Probe::default();
        let field = Self::decompress_impl(p, &mut CompressCtx::new(), Some(&mut probe))?;
        let qprime = std::mem::take(&mut probe.qprime);
        Ok(EngineForensics { field, spans, abs_eb, qp, qprime, probe: probe.finish() })
    }
}

/// Write everything behind the prefix — the per-level tags, then the three
/// length-prefixed channels — in the order `parse_stream` reads it back.
pub(crate) fn write_body(
    w: &mut ByteWriter,
    level_tags: &[(u8, u8, u8)],
    anchors: &[u8],
    unpred: &[u8],
    index: &[u8],
) {
    for &(k, o, m) in level_tags {
        w.put_u8(k);
        w.put_u8(o);
        w.put_u8(m);
    }
    w.put_block(anchors);
    w.put_block(unpred);
    w.put_block(index);
}

/// Everything [`InterpEngine::parse_stream`] extracts from a stream before
/// channel decoding. `n == 0` marks an empty field (no channels present).
pub(crate) struct ParsedStream<'a> {
    pub(crate) shape: qip_tensor::Shape,
    pub(crate) abs_eb: f64,
    pub(crate) eff: EngineConfig,
    /// The quantizer radius the stream records.
    pub(crate) radius: i32,
    pub(crate) start_level: usize,
    pub(crate) level_tags: Vec<(u8, u8, u8)>,
    pub(crate) anchor_bytes: &'a [u8],
    pub(crate) unpred_bytes: &'a [u8],
    pub(crate) index_block: &'a [u8],
    pub(crate) n: usize,
    /// Named byte spans in stream order, tiling the stream.
    pub(crate) spans: Vec<Span>,
}

/// Decode a little-endian scalar channel into a reusable buffer.
pub(crate) fn decode_scalars_into<T: Scalar>(
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
pub(crate) fn build_decode_quantizers(
    p: &ParsedStream<'_>,
    bank: &mut QuantizerBank,
) -> Result<(), CompressError> {
    bank.clear();
    for l in 0..=p.start_level {
        bank.push(
            LinearQuantizer::try_with_radius(p.eff.level_eb(p.abs_eb, l.max(1)), p.radius)
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
                assert_eq!(fx.spans.last().unwrap().end, bytes.len(), "{name}");
                let pts: u64 = fx.probe.levels.iter().map(|l| l.points).sum();
                assert_eq!(pts + fx.probe.anchors, field.len() as u64, "{name}");
                assert_eq!(fx.qprime.len() as u64, pts, "{name}");
                // Level segments tile the index stream without gaps.
                let mut cursor = 0usize;
                for ls in fx.probe.levels.iter() {
                    assert_eq!(ls.qprime_start, cursor, "{name} l{}", ls.level);
                    cursor = ls.qprime_end;
                }
                assert_eq!(cursor, fx.qprime.len(), "{name}");
                if !qp.is_enabled() {
                    assert!(fx.probe.levels.iter().all(|l| l.fired == 0), "{name}");
                }
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
        for (_, cfg) in engines() {
            let eng = InterpEngine::new(cfg);
            let bytes = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
            let out: Field<f32> = eng.decompress(&bytes).unwrap();
            // The planted samples come back bit for bit, and no finite
            // neighbour predicted from them leaves the bound.
            let check = qip_metrics::BoundCheck::of(field.as_slice(), out.as_slice(), 1e-3);
            assert!(check.holds(), "{check:?}");
        }
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
        // types: every stream must match a fresh context's bit for bit, and
        // every decompress_with must match decompress exactly.
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
}
