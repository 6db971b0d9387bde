//! MGARD: multigrid adaptive reduction of data.
//!
//! Reimplementation of the MGARD compression model (paper refs \[14\]–\[16\]):
//! unlike the SZ3 family's predict-quantize-feedback loop, MGARD first runs a
//! full **hierarchical multilinear transform** — every non-coarse node is
//! replaced by its detail coefficient against the multilinear interpolation of
//! its surrounding coarse-grid corners — and only then quantizes the
//! coefficient hierarchy level by level. Coarse-level budgets shrink
//! geometrically (`b_l = 0.45·ε·2^{−(l−1)}`, summing to 0.9 ε) so the
//! fine-level reconstruction error, which accumulates corner errors down the
//! hierarchy, provably stays within the requested bound. The conservative
//! budgets are also why MGARD's compression ratios trail SZ3/QoZ/HPEZ at the
//! same bound, matching the paper's Table II ordering.
//!
//! The coefficients are plain interpolation details: MGARD's `L²`
//! projection step is not modelled, and the stream's config byte that once
//! switched an approximation of it on is reserved and must be 0.
//!
//! QP (paper Algorithm 1) hooks into the quantization sweep with the same
//! pass geometry as the interpolation engine, which is what lets the paper
//! report MGARD+QP with no change to MGARD's own machinery.

#![warn(missing_docs)]

use qip_codec::{encode_indices_into, ByteReader, ByteWriter, Span, Spans};
use qip_core::{
    CompressCtx, CompressError, Compressor, ErrorBound, QpConfig, QpEngine, QpTaps, StreamHeader,
};
use qip_interp::lattice::{build_passes, for_each_point, for_each_row, num_levels, Pass};
use qip_interp::{
    keep_best_prefix, transform_pass, EngineForensics, PassStructure, Probe, QuantCapture, SinkStats,
};
use qip_quant::{round_shift, UNPRED};
use qip_telemetry::{span, span_with};
use qip_tensor::{Field, Scalar, Shape};

/// Stream magic for MGARD.
const MAGIC_MGARD: u8 = 0x50;
/// Stream format version. Version 2 allows the quantization index block to
/// use the chunked (mode 4) entropy framing.
const FMT_VERSION: u8 = 2;
/// Quantizer radius for coefficient indices.
const RADIUS: i32 = 1 << 20;
/// Fraction of the user bound actually distributed over the level budgets
/// (headroom for float rounding when casting back to the storage type).
const BUDGET_FRACTION: f64 = 0.9;

/// The MGARD compressor.
#[derive(Debug, Clone)]
pub struct Mgard {
    qp: QpConfig,
}

impl Mgard {
    /// MGARD with QP disabled.
    pub fn new() -> Self {
        Mgard { qp: QpConfig::off() }
    }

    /// Enable/replace the QP configuration (builder style).
    pub fn with_qp(mut self, qp: QpConfig) -> Self {
        self.qp = qp;
        self
    }

    /// The active QP configuration.
    pub fn qp(&self) -> &QpConfig {
        &self.qp
    }

    /// Per-level detail quantization budget.
    fn budget(eb: f64, level: usize) -> f64 {
        BUDGET_FRACTION * eb * 0.5f64.powi(level as i32)
    }

    /// Compress while capturing the coefficient index arrays (the
    /// characterization API used by the paper's Figs. 3-5 experiments).
    pub fn compress_capturing<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
    ) -> Result<(Vec<u8>, QuantCapture), CompressError> {
        let mut cap = QuantCapture::zeros(field.len());
        let mut bytes = Vec::new();
        self.compress_impl(field, bound, Some(&mut cap), &mut CompressCtx::new(), &mut bytes)?;
        Ok((bytes, cap))
    }

    /// Capture only (convenience mirroring the SZ3-family API).
    pub fn quant_capture<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
    ) -> Result<QuantCapture, CompressError> {
        Ok(self.compress_capturing(field, bound)?.1)
    }

    /// **Resolution reduction** (the capability the paper's Table I credits
    /// to MGARD alone): reconstruct only down to interpolation level
    /// `stop_level`, returning the coarse approximation on the stride-
    /// `2^stop_level` lattice — a decimated field whose degrees of freedom
    /// shrink by `8^stop_level` in 3-D, recovered without decoding the finer
    /// detail levels' values.
    ///
    /// `stop_level = 0` reproduces the full-resolution decompression; a
    /// `stop_level` of 32 or more is refused before any decode, as the
    /// container refuses it.
    pub fn decompress_reduced<T: Scalar>(
        &self,
        bytes: &[u8],
        stop_level: usize,
    ) -> Result<Field<T>, CompressError> {
        if stop_level >= 32 {
            return Err(CompressError::Unsupported("stop level out of range"));
        }
        let full: Field<T> =
            decode(parse::<T>(bytes)?, stop_level, &mut CompressCtx::new(), None)?;
        if stop_level == 0 {
            return Ok(full);
        }
        Ok(full.decimate(1 << stop_level))
    }

    /// Forensic decompression: reconstruct the field exactly as
    /// [`Compressor::decompress`] would — on the same parse and the same
    /// sweep — while recovering the stream's byte spans (seal included),
    /// per-level QP decision counters, the transformed coefficient index
    /// stream, and a per-point gate map (`anchors` counts the coarse nodes).
    pub fn decompress_forensic<T: Scalar>(
        &self,
        bytes: &[u8],
    ) -> Result<EngineForensics<T>, CompressError> {
        let mut p = parse::<T>(bytes)?;
        let (spans, abs_eb, qp) = (std::mem::take(&mut p.spans), p.header.abs_eb, p.qp);
        let mut probe = Probe::default();
        let field = decode(p, 0, &mut CompressCtx::new(), Some(&mut probe))?;
        let qprime = std::mem::take(&mut probe.qprime);
        Ok(EngineForensics { field, spans, abs_eb, qp, qprime, probe: probe.finish() })
    }
}

/// The sections of one stream, as [`parse`] reads them; the three channels
/// are absent (empty) for an empty field.
struct Parsed<'a> {
    header: StreamHeader,
    qp: QpConfig,
    levels: usize,
    coarse: &'a [u8],
    unpred: &'a [u8],
    index: &'a [u8],
    /// Named byte spans in stream order, tiling the sealed stream.
    spans: Vec<Span>,
}

/// Verify the seal, then parse the stream's layout: the one description of
/// it, for decoding and forensics alike. Bytes behind the index block are
/// corruption.
fn parse<T: Scalar>(sealed: &[u8]) -> Result<Parsed<'_>, CompressError> {
    let _t = span("parse");
    let bytes = qip_core::integrity::check(sealed)?;
    let mut r = ByteReader::new(bytes);
    let mut spans = Spans::default();
    let header = StreamHeader::read(&mut r, MAGIC_MGARD, T::BITS as u8)?;
    spans.push("header", r.pos());
    let version = r.get_u8()?;
    if version != FMT_VERSION {
        return Err(CompressError::WrongFormat("unknown MGARD format version"));
    }
    if r.get_u8()? != 0 {
        return Err(CompressError::WrongFormat("reserved MGARD config byte is not 0"));
    }
    let qp = QpConfig::read(&mut r)?;
    let mut p = Parsed {
        header,
        qp,
        levels: 0,
        coarse: &[],
        unpred: &[],
        index: &[],
        spans: Vec::new(),
    };
    spans.push("config", r.pos());
    if !p.header.shape.is_empty() {
        p.levels = r.get_u8()? as usize;
        let max_dim = p.header.shape.dims().iter().copied().max().expect("ndim >= 1");
        if p.levels != num_levels(max_dim) {
            return Err(CompressError::WrongFormat("level count mismatch"));
        }
        spans.push("config", r.pos()); // the level count
        p.coarse = spans.block("anchors", &mut r)?;
        p.unpred = spans.block("unpred", &mut r)?;
        p.index = spans.block("index", &mut r)?;
        if !p.coarse.len().is_multiple_of(8) || !p.unpred.len().is_multiple_of(8) {
            return Err(CompressError::WrongFormat("misaligned f64 block"));
        }
    }
    p.spans = spans.finish(&r, sealed.len() - bytes.len())?;
    Ok(p)
}

impl Default for Mgard {
    fn default() -> Self {
        Self::new()
    }
}

/// MGARD is the one base compressor with a native progressive path (paper
/// Table I); exposing it through the capability trait lets `AnyCompressor`
/// consumers find it by downcast instead of matching on the name "MGARD".
impl<T: Scalar> qip_core::ProgressiveDecompress<T> for Mgard {
    fn decompress_reduced(
        &self,
        bytes: &[u8],
        stop_level: usize,
    ) -> Result<Field<T>, CompressError> {
        Mgard::decompress_reduced(self, bytes, stop_level)
    }
}

/// The multi-dimensional passes of `level` on a 1–4-dimensional lattice,
/// axes in reverse order.
fn passes(ndim: usize, level: usize) -> Vec<Pass> {
    build_passes(ndim, level, &[3, 2, 1, 0][4 - ndim..], PassStructure::MultiDim)
}

/// **Decomposition**, in place: from fine to coarse, every pass of a level
/// replaces its points by their detail against the multilinear prediction
/// ([`sweep`]). `buf` is a row-major plane of `shape`'s dims. Public for the
/// identity suite, which diffs it against the point-by-point walk.
#[doc(hidden)]
pub fn decompose(buf: &mut [f64], shape: &Shape) {
    let (dims, strides) = (shape.dims(), shape.strides());
    for level in 1..=num_levels(dims.iter().copied().max().unwrap_or(0)) {
        for pass in passes(dims.len(), level) {
            sweep::<true>(buf, dims, strides, &pass);
        }
    }
}

/// **Recomposition**, the inverse of [`decompose`] from coarse to fine,
/// stopping above `stop_level` (levels ≤ `stop_level` keep their details
/// unexpanded; the stride-`2^stop_level` lattice then holds the coarse
/// approximation).
#[doc(hidden)]
pub fn recompose(buf: &mut [f64], shape: &Shape, stop_level: usize) {
    let (dims, strides) = (shape.dims(), shape.strides());
    let levels = num_levels(dims.iter().copied().max().unwrap_or(0));
    for level in (stop_level.saturating_add(1)..=levels).rev() {
        for pass in passes(dims.len(), level) {
            sweep::<false>(buf, dims, strides, &pass);
        }
    }
}

/// One multilinear pass, row by row and in place: the prediction of a point
/// is the mean of its `2^|O|` corners at ±s along the pass's odd axes `O`
/// (corners outside the field dropped), summed from `0.0` in corner-mask
/// order; `FORWARD` stores `value − prediction`, the inverse
/// `prediction + detail`.
///
/// In place is safe because a pass writes only points that are odd multiples
/// of `s` on its axes and reads only corners that are multiples of `2s` on
/// every axis — nodes no pass of the level writes. Only an axis other than
/// the row's can clip a corner for a whole row, so the valid corners are
/// resolved once per row (1, 2, 4, 8 or 16 of them); along the row only the
/// last point can lose its `+s` corner, and it alone takes the generic path.
fn sweep<const FORWARD: bool>(buf: &mut [f64], dims: &[usize], strides: &[usize], pass: &Pass) {
    if pass.is_empty(dims) {
        return;
    }
    let (s, axes, inner) = (pass.stride, &pass.interp_axes, dims.len() - 1);
    let (m, stp) = (pass.row_len(dims), pass.step[inner]);
    // Offset of a point from its lowest corner (−s on every odd axis).
    let back: usize = axes.iter().map(|&a| s * strides[a]).sum();
    let clipped = axes.contains(&inner) && pass.start[inner] + (m - 1) * stp + s >= dims[inner];
    let full = m - clipped as usize;
    let _ = for_each_row(pass, dims, strides, |coords, flat0| {
        // The corners in mask order, as offsets from the lowest one; `last`
        // drops the `+s` corners along the row (the clipped last point).
        let corners = |last: bool| {
            let (mut offs, mut n) = ([0usize; 16], 0);
            'mask: for mask in 0..1usize << axes.len() {
                let mut off = 0;
                for (_, &a) in axes.iter().enumerate().filter(|&(bit, _)| mask & (1 << bit) != 0) {
                    let outside = if a == inner { last } else { coords[a] + s >= dims[a] };
                    if outside {
                        continue 'mask;
                    }
                    off += 2 * s * strides[a];
                }
                (offs[n], n) = (off, n + 1);
            }
            (offs, n)
        };
        let (lo, (offs, n)) = (flat0 - back, corners(false));
        match n {
            1 => row::<1, FORWARD>(buf, lo, back, stp, full, &offs),
            2 => row::<2, FORWARD>(buf, lo, back, stp, full, &offs),
            4 => row::<4, FORWARD>(buf, lo, back, stp, full, &offs),
            8 => row::<8, FORWARD>(buf, lo, back, stp, full, &offs),
            _ => row::<16, FORWARD>(buf, lo, back, stp, full, &offs),
        }
        if clipped {
            let ((offs, n), lo) = (corners(true), lo + full * stp);
            let sum = offs[..n].iter().fold(0.0f64, |sum, &off| sum + buf[lo + off]);
            update::<FORWARD>(&mut buf[lo + back], sum / n as f64);
        }
        Ok(())
    });
}

/// The first `len` points of a row whose `N` corners are all inside.
#[inline(always)]
fn row<const N: usize, const FORWARD: bool>(buf: &mut [f64], lo: usize, back: usize, stp: usize, len: usize, offs: &[usize; 16]) {
    for base in (0..len).map(|k| lo + k * stp) {
        let sum = offs[..N].iter().fold(0.0f64, |sum, &off| sum + buf[base + off]);
        update::<FORWARD>(&mut buf[base + back], sum / N as f64);
    }
}

#[inline(always)]
fn update<const FORWARD: bool>(v: &mut f64, pred: f64) {
    *v = if FORWARD { *v - pred } else { pred + *v };
}

impl<T: Scalar> Compressor<T> for Mgard {
    fn name(&self) -> String {
        if self.qp.is_enabled() {
            "MGARD+QP".into()
        } else {
            "MGARD".into()
        }
    }

    fn compress_into(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        out.clear();
        self.compress_impl(field, bound, None, ctx, out)
    }

    fn decompress_into(
        &self,
        bytes: &[u8],
        ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError> {
        decode(parse::<T>(bytes)?, 0, ctx, None)
    }
}

impl Mgard {
    fn compress_impl<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        mut capture: Option<&mut QuantCapture>,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        let dims = field.shape().dims().to_vec();
        if dims.len() > 4 {
            return Err(CompressError::Unsupported("MGARD supports 1-4 dimensions"));
        }
        let strides = field.shape().strides().to_vec();
        let abs_eb = bound.resolve(field).abs;

        let mut w = ByteWriter::from_vec(std::mem::take(out));
        StreamHeader {
            magic: MAGIC_MGARD,
            scalar_bits: T::BITS as u8,
            shape: field.shape().clone(),
            abs_eb,
        }
        .write(&mut w);
        w.put_u8(FMT_VERSION);
        w.put_u8(0); // reserved
        let qp_at = w.len();
        self.qp.write(&mut w);
        if field.is_empty() {
            *out = w.finish();
            qip_core::integrity::seal_in_place(out);
            return Ok(());
        }

        let max_dim = dims.iter().copied().max().unwrap();
        let levels = num_levels(max_dim);
        w.put_u8(levels as u8);

        // ---- Transform sweep: values → hierarchical detail coefficients ----
        let transform_span = span("transform");
        let mut buf: Vec<f64> = ctx.pools.acquire();
        // The multilinear sweeps would smear one NaN/±Inf over every
        // coarser node, so a non-finite field is refused, not mis-bounded.
        let mut finite = true;
        buf.extend(field.as_slice().iter().map(|v| {
            let v = v.to_f64();
            finite &= v.is_finite();
            v
        }));
        if !finite {
            ctx.pools.release(buf);
            return Err(CompressError::Unsupported("non-finite sample"));
        }
        decompose(&mut buf, field.shape());
        drop(transform_span);

        // ---- Coarse approximation nodes: stored raw ----
        let coarse_step = 1usize << levels;
        let coarse = Pass::uniform(dims.len(), levels.max(1), coarse_step, coarse_step);
        ctx.anchors.clear();
        let coarse_bytes = &mut ctx.anchors;
        for_each_point(&coarse, &dims, &strides, |_c, flat| {
            coarse_bytes.extend_from_slice(&buf[flat].to_le_bytes());
        });

        // ---- Quantization sweep (coarse → fine), with the QP hook ----
        let quantize_span = span("quantize");
        let mut stats = SinkStats::new_if_capturing(levels);
        let qp = QpEngine::new(self.qp);
        ctx.qp_choice.begin(&self.qp, levels);
        ctx.qprime.clear();
        ctx.qprime.reserve(buf.len());
        let qprime = &mut ctx.qprime;
        ctx.unpred.clear();
        let unpred = &mut ctx.unpred;
        for level in (1..=levels).rev() {
            let _lvl = span_with(|| format!("level_{level}"));
            let b = Self::budget(abs_eb, level);
            if let Some(st) = stats.as_mut() {
                st.begin_level(level, qprime.len());
            }
            for pass in passes(dims.len(), level) {
                if pass.is_empty(&dims) {
                    continue;
                }
                let m = pass.row_len(&dims);
                let stp = pass.step[dims.len() - 1] * strides[dims.len() - 1];
                for_each_row(&pass, &dims, &strides, |_, flat0| {
                    for flat in (0..m).map(|k| flat0 + k * stp) {
                        let detail = buf[flat];
                        let qf = round_shift(detail / (2.0 * b));
                        if !qf.is_finite() || qf.abs() >= RADIUS as f64 {
                            qprime.push(UNPRED);
                            unpred.extend_from_slice(&detail.to_le_bytes());
                        } else {
                            let q = qf as i32;
                            qprime.push(q);
                            buf[flat] = 2.0 * q as f64 * b;
                        }
                    }
                    Ok(())
                })?;
                // Q → Q′ over the pass just quantized, in place.
                let (choice, st, cap) = (&mut ctx.qp_choice, stats.as_mut(), capture.as_deref_mut());
                transform_pass(&qp, &pass, &dims, &strides, qprime, choice, st, cap);
            }
        }
        drop(quantize_span);
        let header = (&mut w, qp_at);
        keep_best_prefix(&qp, &ctx.qp_choice, &mut ctx.qprime, header, stats.as_mut(), capture);

        ctx.pools.release(buf);
        {
            let _t = span("entropy_encode");
            encode_indices_into(&ctx.qprime, &mut ctx.stream);
        }
        let serialize_span = span("serialize");
        w.put_block(&ctx.anchors);
        w.put_block(&ctx.unpred);
        w.put_block(&ctx.stream);
        *out = w.finish();
        drop(serialize_span);
        if let Some(stats) = stats {
            let raw = field.len() * T::BYTES;
            stats.emit(&ctx.qprime, raw, [&ctx.anchors, &ctx.unpred, &ctx.stream]);
        }
        let _t = span("seal");
        qip_core::integrity::seal_in_place(out);
        Ok(())
    }

}

/// Decode a parsed stream's channels and run the sweeps; `probe`
/// additionally records every point's QP decision (the forensic decode).
fn decode<T: Scalar>(
    p: Parsed<'_>,
    stop_level: usize,
    ctx: &mut CompressCtx,
    mut probe: Option<&mut Probe>,
) -> Result<Field<T>, CompressError> {
    let Parsed {
        header,
        qp: qp_cfg,
        levels,
        coarse: coarse_bytes,
        unpred: unpred_bytes,
        index,
        ..
    } = p;
    let dims = header.shape.dims().to_vec();
    let strides = header.shape.strides().to_vec();
    let n = header.shape.len();
    if n == 0 {
        return Ok(Field::zeros(header.shape));
    }
    {
        let _t = span("entropy_decode");
        qip_codec::decode_indices_capped_into(index, n, &mut ctx.qprime)?;
    }
    // `try_zeroed_vec` validates that `n` is allocatable before any of the
    // reusable buffers below are resized to it.
    let mut buf = qip_core::try_zeroed_vec::<f64>(n)?;
    if let Some(pr) = probe.as_deref_mut() {
        *pr = Probe::new(n, levels, &qp_cfg, &ctx.qprime);
        pr.anchors = (coarse_bytes.len() / 8) as u64;
    }
    let mut unpred: Vec<f64> = ctx.pools.acquire();
    unpred.extend(
        unpred_bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())),
    );

    // Coarse nodes.
    let coarse_step = 1usize << levels;
    let coarse = Pass::uniform(dims.len(), levels.max(1), coarse_step, coarse_step);
    {
        let mut cursor = 0usize;
        let mut fail = false;
        for_each_point(&coarse, &dims, &strides, |_c, flat| {
            if let Some(chunk) = coarse_bytes.get(cursor..cursor + 8) {
                buf[flat] = f64::from_le_bytes(chunk.try_into().unwrap());
                cursor += 8;
            } else {
                fail = true;
            }
        });
        if fail || cursor != coarse_bytes.len() {
            return Err(CompressError::WrongFormat("coarse block size mismatch"));
        }
    }

    // Dequantize details (coarse → fine), mirroring the QP transform.
    let dequant_span = span("dequantize");
    let qp = QpEngine::new(qp_cfg);
    let qprime = &mut ctx.qprime;
    let mut q_cursor = 0usize;
    let mut u_cursor = 0usize;
    for level in (1..=levels).rev() {
        let b = Mgard::budget(header.abs_eb, level);
        for pass in passes(dims.len(), level) {
            if pass.is_empty(&dims) {
                continue;
            }
            let m = pass.row_len(&dims);
            let stp = pass.step[dims.len() - 1] * strides[dims.len() - 1];
            let visit = qp.active(level).then(|| pass.qp_visit(&dims));
            let pass_start = q_cursor;
            for_each_row(&pass, &dims, &strides, |_, flat0| {
                // A short index stream still decodes its prefix, so the
                // channel that runs dry first in visit order is reported.
                let row_start = q_cursor;
                let run = row_start..row_start + m.min(qprime.len() - row_start);
                q_cursor = run.end;
                let taps = visit.map_or(QpTaps::CLOSED, |v| v.taps(&qp, level, row_start - pass_start));
                qp.inverse(&taps, true, qprime, run.clone());
                for (k, at) in run.clone().enumerate() {
                    let (flat, qk) = (flat0 + k * stp, qprime[at]);
                    if let Some(pr) = probe.as_deref_mut() {
                        let (open, _) = qp.gate_at(&taps, k == 0, qprime, at);
                        pr.point(level, flat, at, qk, open);
                    }
                    buf[flat] = if qk == UNPRED {
                        u_cursor += 1;
                        *unpred.get(u_cursor - 1).ok_or(CompressError::WrongFormat(
                            "unpredictable channel exhausted",
                        ))?
                    } else {
                        2.0 * qk as f64 * b
                    };
                }
                if run.len() < m {
                    return Err(CompressError::WrongFormat("index stream exhausted"));
                }
                Ok(())
            })?;
        }
    }
    drop(dequant_span);

    // ---- Inverse transform (coarse → fine), optionally stopping early
    // for resolution reduction (levels ≤ stop_level keep their details
    // unexpanded; the coarse lattice then holds the approximation) ----
    {
        let _t = span("inverse_transform");
        recompose(&mut buf, &header.shape, stop_level);
    }

    ctx.pools.release(unpred);
    let data: Vec<T> = buf.into_iter().map(T::from_f64).collect();
    Ok(Field::from_vec(header.shape, data)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qip_tensor::Shape;
    use qip_metrics::max_abs_error;

    fn smooth(dims: &[usize]) -> Field<f32> {
        Field::from_fn(Shape::new(dims), |c| {
            let x = c[0] as f32;
            let y = c.get(1).copied().unwrap_or(0) as f32;
            let z = c.get(2).copied().unwrap_or(0) as f32;
            (0.07 * x).sin() + 0.5 * (0.11 * y).cos() + 0.02 * z
        })
    }

    #[test]
    fn forensic_decode_matches_plain_and_sums() {
        let f = smooth(&[21, 17, 13]);
        for qp in [QpConfig::off(), QpConfig::best_fit()] {
            let m = Mgard::new().with_qp(qp);
            let bytes = m.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
            let plain: Field<f32> = m.decompress(&bytes).unwrap();
            let fx = m.decompress_forensic::<f32>(&bytes).unwrap();
            assert_eq!(fx.field.as_slice(), plain.as_slice());
            assert_eq!(fx.spans.last().unwrap().end, bytes.len());
            let pts: u64 = fx.probe.levels.iter().map(|l| l.points).sum();
            assert_eq!(pts + fx.probe.anchors, f.len() as u64);
            assert_eq!(fx.qprime.len() as u64, pts);
            let mut cursor = 0usize;
            for ls in fx.probe.levels.iter() {
                assert_eq!(ls.qprime_start, cursor, "l{}", ls.level);
                cursor = ls.qprime_end;
            }
            assert_eq!(cursor, fx.qprime.len());
            if !qp.is_enabled() {
                assert!(fx.probe.levels.iter().all(|l| l.fired == 0));
            }
        }
    }

    #[test]
    fn qp_preserves_decompressed_data() {
        let f = smooth(&[30, 24, 12]);
        let plain = Mgard::new();
        let qp = Mgard::new().with_qp(QpConfig::best_fit());
        let a: Field<f32> =
            plain.decompress(&plain.compress(&f, ErrorBound::Abs(1e-4)).unwrap()).unwrap();
        let b: Field<f32> =
            qp.decompress(&qp.compress(&f, ErrorBound::Abs(1e-4)).unwrap()).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    /// Point-API oracle for the row kernels on MGARD's parity-class lattice:
    /// `Q'` recomputed per point from the captured `Q` with
    /// `QpEngine::transform` on explicit [`qip_core::Neighbors`].
    fn oracle_q_prime(
        cap: &QuantCapture,
        dims: &[usize],
        strides: &[usize],
        qp: QpConfig,
    ) -> Vec<i32> {
        let eng = QpEngine::new(qp);
        let mut want = vec![0i32; cap.q.len()];
        for level in 1..=num_levels(*dims.iter().max().unwrap()) {
            for pass in passes(dims.len(), level) {
                for_each_point(&pass, dims, strides, |coords, flat| {
                    let (la, ta, ba) = pass.qp_axes;
                    let off = |a: Option<usize>| {
                        let a = a?;
                        (coords[a] >= pass.start[a] + pass.step[a])
                            .then(|| pass.step[a] * strides[a])
                    };
                    let (l, t, b) = (off(la), off(ta), off(ba));
                    let get = |o: Option<usize>| o.map(|o| cap.q[flat - o]);
                    let add = |x: Option<usize>, y: Option<usize>| Some(x? + y?);
                    let nb = qip_core::Neighbors {
                        left: get(l),
                        top: get(t),
                        diag: get(add(l, t)),
                        back: get(b),
                        left_back: get(add(l, b)),
                        top_back: get(add(t, b)),
                        diag_back: get(add(add(l, t), b)),
                    };
                    want[flat] = eng.transform(cap.q[flat], level, &nb);
                });
            }
        }
        want
    }

    #[test]
    fn every_qp_configuration_matches_the_point_api_and_roundtrips() {
        use qip_core::{Condition, PredMode};
        // Huge samples escape the quantizer, so the sentinel lands among the
        // neighbors (Case I must substitute zero there).
        let mut f = smooth(&[13, 10, 12]);
        for (i, v) in [(77usize, 3.0e9f32), (400, 4.0e12), (401, -2.5e9), (900, -6.0e10)] {
            f.as_mut_slice()[i] = v;
        }
        let (dims, strides) = (f.shape().dims().to_vec(), f.shape().strides().to_vec());
        let plain: Field<f32> = {
            let m = Mgard::new();
            m.decompress(&m.compress(&f, ErrorBound::Abs(1e-3)).unwrap()).unwrap()
        };
        let bits = |f: &Field<f32>| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for mode in [
            PredMode::Back1,
            PredMode::Top1,
            PredMode::Left1,
            PredMode::Lorenzo2d,
            PredMode::Lorenzo3d,
        ] {
            for condition in
                [Condition::CaseI, Condition::CaseII, Condition::CaseIII, Condition::CaseIV]
            {
                for max_level in [1usize, 9] {
                    let qp = QpConfig { mode, condition, max_level };
                    let m = Mgard::new().with_qp(qp);
                    let (bytes, cap) = m.compress_capturing(&f, ErrorBound::Abs(1e-3)).unwrap();
                    assert!(cap.q.contains(&UNPRED), "field must exercise the sentinel");
                    assert_eq!(
                        cap.q_prime,
                        oracle_q_prime(&cap, &dims, &strides, qp),
                        "{qp:?}: Q' diverged from the point API"
                    );
                    let out: Field<f32> = m.decompress(&bytes).unwrap();
                    assert_eq!(bits(&out), bits(&plain), "{qp:?}: QP changed the decoded data");
                    let fx = m.decompress_forensic::<f32>(&bytes).unwrap();
                    assert_eq!(fx.probe.capture.q, cap.q, "{qp:?}: forensic Q");
                    assert_eq!(fx.probe.capture.q_prime, cap.encoded(), "{qp:?}: forensic Q'");
                }
            }
        }
    }

    #[test]
    fn constant_field_compresses_tiny() {
        let f = Field::from_vec(Shape::d3(16, 16, 16), vec![7.5f32; 4096]).unwrap();
        let m = Mgard::new();
        let bytes = m.compress(&f, ErrorBound::Abs(1e-4)).unwrap();
        assert!(bytes.len() < 300, "got {}", bytes.len());
        let out = m.decompress(&bytes).unwrap();
        assert!(max_abs_error(&f, &out) <= 1e-4);
    }

    #[test]
    fn name_reflects_qp() {
        assert_eq!(Compressor::<f32>::name(&Mgard::new()), "MGARD");
        assert_eq!(
            Compressor::<f32>::name(&Mgard::new().with_qp(QpConfig::best_fit())),
            "MGARD+QP"
        );
    }

    #[test]
    fn truncated_and_foreign_streams_rejected() {
        let f = smooth(&[12, 12, 12]);
        let m = Mgard::new();
        let bytes = m.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        for cut in [0, 5, bytes.len() / 2] {
            let res: Result<Field<f32>, _> = m.decompress(&bytes[..cut]);
            assert!(res.is_err(), "cut {cut}");
        }
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        let res: Result<Field<f32>, _> = m.decompress(&wrong);
        assert!(res.is_err());
    }

    #[test]
    fn a_set_reserved_config_byte_is_refused() {
        // The byte behind the version once switched an L² update step on;
        // every encoder writes 0, so a resealed stream with any other value
        // is refused rather than decoded.
        let f = smooth(&[12, 10, 8]);
        let m = Mgard::new();
        let sealed = m.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        let header_end = m.decompress_forensic::<f32>(&sealed).unwrap().spans[0].end;
        let mut body = qip_core::integrity::check(&sealed).unwrap().to_vec();
        assert_eq!((body[header_end], body[header_end + 1]), (FMT_VERSION, 0));
        for v in [1u8, 0xFF] {
            body[header_end + 1] = v;
            let res: Result<Field<f32>, _> = m.decompress(&qip_core::integrity::seal(body.clone()));
            assert!(matches!(res, Err(CompressError::WrongFormat(_))), "byte {v}: {res:?}");
        }
    }

    #[test]
    fn single_point_and_empty() {
        let one = Field::from_vec(Shape::d1(1), vec![5.0f32]).unwrap();
        let m = Mgard::new();
        let out: Field<f32> =
            m.decompress(&m.compress(&one, ErrorBound::Abs(1e-3)).unwrap()).unwrap();
        assert_eq!(out.as_slice(), &[5.0]);

        let empty = Field::<f32>::zeros(Shape::d2(0, 4));
        let out: Field<f32> =
            m.decompress(&m.compress(&empty, ErrorBound::Abs(1.0)).unwrap()).unwrap();
        assert!(out.is_empty());
    }
}
