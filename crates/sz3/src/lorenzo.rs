//! Multidimensional Lorenzo + regression pipeline (SZ3's non-interpolation
//! fallback, i.e. the SZ2 predictor family).
//!
//! 3-D fields are processed block by block (6³, the SZ2 granularity): each
//! block picks between the Lorenzo closed form over already-reconstructed
//! neighbors and a per-block least-squares **linear regression** predictor
//! (see [`crate::regression`]), whichever fit the original samples better;
//! the choice bit and regression coefficients travel in the stream. Smaller
//! or lower-dimensional fields use the plain row-major Lorenzo scan.
//! Residuals go through linear-scaling quantization and the Huffman→LZ
//! stack. The paper's QP method deliberately does **not** apply here —
//! Lorenzo residuals lack the clustering effect (paper Sec. VI-B) — so this
//! pipeline has no QP hook.
//!
//! Both directions make one pass per 6³ block (the plain scan is cut into
//! the same blocks; only its index order differs). The block and a one-point
//! halo of its lower neighbors — zero outside the field — are copied into a
//! small `f64` plane, so every point takes the seven Lorenzo taps at fixed
//! offsets with no condition, and the points are visited hyperplane by
//! hyperplane (`x + y + z` constant), so the quantizer chains of a
//! hyperplane's independent points overlap. Ranks 1 and 2 are 3-D fields
//! with leading axes of extent 1: their taps along those axes read the zero
//! halo, which reproduces the 1-D and 2-D Lorenzo forms up to the sign of a
//! zero prediction — which neither `quantize` nor `recover` can see.

use crate::regression::{centered, FitSums, PlaneFit};
use qip_codec::{ByteReader, ByteWriter, EntropyStage, Span, Spans};
use qip_core::{CompressCtx, CompressError, ErrorBound, StreamHeader};
use qip_predict::lorenzo3;
use qip_quant::{LinearQuantizer, Quantized, UNPRED};
use qip_telemetry::span;
use qip_tensor::{Field, Scalar};

/// Stream magic of the Lorenzo pipeline (nested inside the SZ3 wrapper).
pub const MAGIC: u8 = 0x22;

/// SZ2's block edge for the regression predictor.
const REG_BLOCK: usize = 6;
/// Edge of a block's halo-padded copy.
const PAD: usize = REG_BLOCK + 1;
/// Cells of a halo-padded block.
const CELLS: usize = PAD * PAD * PAD;
/// Points of a full block.
const POINTS: usize = REG_BLOCK * REG_BLOCK * REG_BLOCK;

/// Whether a field of `dims` is coded block by block (the encoder's rule,
/// and the only one the parser accepts).
fn is_blockwise(dims: &[usize]) -> bool {
    dims.len() == 3 && dims.iter().all(|&d| d >= 2 * REG_BLOCK)
}

/// Quantization indices of the *plain row-major Lorenzo scan* of `field`,
/// whatever its shape — not the blockwise Lorenzo/regression plane a 3-D
/// stream with every axis ≥ 12 carries. The characterization hook the
/// workspace's ablations use to verify the paper's rationale that Lorenzo
/// residuals, unlike interpolation residuals, show no clustering for QP to
/// exploit (paper Sec. VI-B).
pub fn quant_indices<T: Scalar>(
    field: &Field<T>,
    bound: ErrorBound,
) -> Result<Vec<i32>, CompressError> {
    let dims = field.shape().dims();
    if dims.len() > 3 {
        return Err(CompressError::Unsupported("Lorenzo pipeline supports 1-3 dimensions"));
    }
    let quant = LinearQuantizer::new(bound.resolve(field).abs);
    let mut ctx = CompressCtx::new();
    encode(field.as_slice(), dims, false, &quant, &mut ctx);
    Ok(ctx.qprime)
}

/// Compress `field` with the Lorenzo pipeline under `bound`.
pub fn compress<T: Scalar>(field: &Field<T>, bound: ErrorBound) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::new();
    compress_append(field, bound, &mut CompressCtx::new(), &mut out)?;
    Ok(out)
}

/// [`compress`] appending to `out`, with the working copy, index plane,
/// unpredictable channel, choice bits and entropy-stage scratch taken from
/// `ctx`. On error nothing has been appended.
pub fn compress_append<T: Scalar>(
    field: &Field<T>,
    bound: ErrorBound,
    ctx: &mut CompressCtx,
    out: &mut Vec<u8>,
) -> Result<(), CompressError> {
    append_with(field, bound, EntropyStage::Code, ctx, out)
}

/// [`compress_append`] with the index block priced instead of coded
/// ([`EntropyStage::Price`]): the appended length is the stream's priced
/// length, for trials that only compare lengths.
pub fn price_append<T: Scalar>(
    field: &Field<T>,
    bound: ErrorBound,
    ctx: &mut CompressCtx,
    out: &mut Vec<u8>,
) -> Result<(), CompressError> {
    append_with(field, bound, EntropyStage::Price, ctx, out)
}

/// The one compression body behind [`compress_append`] and [`price_append`].
fn append_with<T: Scalar>(
    field: &Field<T>,
    bound: ErrorBound,
    stage: EntropyStage,
    ctx: &mut CompressCtx,
    out: &mut Vec<u8>,
) -> Result<(), CompressError> {
    let dims = field.shape().dims();
    if dims.len() > 3 {
        return Err(CompressError::Unsupported("Lorenzo pipeline supports 1-3 dimensions"));
    }
    let abs_eb = bound.resolve(field).abs;
    let mut w = ByteWriter::from_vec(std::mem::take(out));
    StreamHeader {
        magic: MAGIC,
        scalar_bits: T::BITS as u8,
        shape: field.shape().clone(),
        abs_eb,
    }
    .write(&mut w);
    if field.is_empty() {
        *out = w.finish();
        return Ok(());
    }

    let blockwise = is_blockwise(dims);
    w.put_u8(blockwise as u8);
    {
        let _t = span("quantize");
        let buf = encode(field.as_slice(), dims, blockwise, &LinearQuantizer::new(abs_eb), ctx);
        ctx.pools.release(buf);
        if blockwise {
            w.put_block(&ctx.stream);
            w.put_block(&ctx.anchors);
        }
    }
    {
        let _t = span("entropy_encode");
        stage.run(&ctx.qprime, &mut ctx.stream);
    }
    let _t = span("serialize");
    w.put_block(&ctx.unpred);
    w.put_block(&ctx.stream);
    *out = w.finish();
    Ok(())
}

/// The encoder: one pass over the blocks of the field — for a blockwise
/// stream each block's regression-vs-Lorenzo choice on the original samples,
/// then, while the block is in cache, its predict → quantize sweep. Leaves
/// the index plane in `ctx.qprime` (block by block when `blockwise`, else
/// row-major), the unpredictable channel in `ctx.unpred` (in that same scan
/// order), the choice bits in `ctx.stream` and the plane coefficients in
/// `ctx.anchors`. Returns the working plane from `ctx.pools`, which then
/// holds exactly what the decoder will reconstruct.
fn encode<T: Scalar>(
    src: &[T],
    dims: &[usize],
    blockwise: bool,
    quant: &LinearQuantizer,
    ctx: &mut CompressCtx,
) -> Vec<T> {
    let g = Grid::new(dims);
    let mut buf: Vec<T> = ctx.pools.acquire();
    buf.extend_from_slice(src);
    let q = &mut ctx.qprime;
    q.clear();
    // One index per point; amortized growth from a near-fit capacity would
    // double the plane.
    q.reserve_exact(src.len());
    q.resize(src.len(), 0);
    let (bits, coeffs, unpred) = (&mut ctx.stream, &mut ctx.anchors, &mut ctx.unpred);
    bits.clear();
    coeffs.clear();
    unpred.clear();
    if blockwise {
        bits.resize(g.blocks().count().div_ceil(8), 0);
    }

    let mut work = Work::new();
    let mut waves = Wavefronts::new();
    let mut base = 0;
    for (i, b) in g.blocks().enumerate() {
        let order = waves.of(&g, b.ext);
        let fit = if blockwise {
            work.gather(src, &g, &b, false);
            work.choose(&b.ext)
        } else {
            work.gather(&buf, &g, &b, false);
            None
        };
        match fit {
            Some(fit) => {
                bits[i / 8] |= 1 << (i % 8);
                fit.write(coeffs);
                work.fill_plane(&fit, &b.ext);
                work.encode::<true>(quant, order);
            }
            None => {
                if blockwise {
                    // The sweep reads reconstructed neighbors, not originals.
                    work.gather(&buf, &g, &b, true);
                }
                work.encode::<false>(quant, order);
            }
        }
        let ez = b.ext[2];
        for (p, flat, slot) in b.rows(&g, blockwise.then_some(base)) {
            copy_row(&mut buf[flat..flat + ez], &work.val[p..p + ez]);
            copy_row(&mut q[slot..slot + ez], &work.idx[p..p + ez]);
        }
        base += b.len();
    }
    // An unpredictable point kept its original value in `buf`.
    if q.contains(&UNPRED) {
        scan_order(&g, blockwise, |slot, flat| {
            if q[slot] == UNPRED {
                buf[flat].write_le(unpred);
            }
        });
    }
    buf
}

/// A field of rank ≤ 3 seen as 3-D: missing leading axes have extent 1.
#[derive(Debug, Clone, Copy)]
struct Grid {
    dims: [usize; 3],
    strides: [usize; 3],
}

impl Grid {
    fn new(dims: &[usize]) -> Grid {
        let mut d = [1; 3];
        d[3 - dims.len()..].copy_from_slice(dims);
        Grid { dims: d, strides: [d[1] * d[2], d[2], 1] }
    }

    /// Every [`REG_BLOCK`]³ block, clipped at the high faces, in the
    /// row-major block order the stream's choice bits follow.
    fn blocks(&self) -> impl Iterator<Item = Block> {
        let d = self.dims;
        let along = move |a: usize| (0..d[a]).step_by(REG_BLOCK);
        along(0).flat_map(move |x| {
            along(1).flat_map(move |y| {
                along(2).map(move |z| {
                    let origin = [x, y, z];
                    Block { origin, ext: std::array::from_fn(|a| REG_BLOCK.min(d[a] - origin[a])) }
                })
            })
        })
    }
}

/// One block: field coordinates of its first point and its clipped extent.
struct Block {
    origin: [usize; 3],
    ext: [usize; 3],
}

impl Block {
    fn len(&self) -> usize {
        self.ext.iter().product()
    }

    /// `(point, flat, slot)` of the first point of every row (along axis 2)
    /// of the block: its index in the block's work arrays, its field offset,
    /// and its index slot — from `base` on in block order, or the field
    /// offset itself when `base` is `None` (the plain scan).
    fn rows(&self, g: &Grid, base: Option<usize>) -> impl Iterator<Item = (usize, usize, usize)> {
        let ([ox, oy, oz], [ex, ey, ez], [s0, s1, _]) = (self.origin, self.ext, g.strides);
        (0..ex).flat_map(move |x| {
            (0..ey).map(move |y| {
                let flat = (ox + x) * s0 + (oy + y) * s1 + oz;
                (point([x, y, 0]), flat, base.map_or(flat, |b| b + (x * ey + y) * ez))
            })
        })
    }
}

/// Visit every point as `(slot, flat)` in the scan order of the stream's
/// unpredictable channel: block by block when `blockwise`, else row-major.
fn scan_order(g: &Grid, blockwise: bool, mut f: impl FnMut(usize, usize)) {
    if !blockwise {
        (0..g.dims.iter().product()).for_each(|i| f(i, i));
        return;
    }
    let mut base = 0;
    for b in g.blocks() {
        for (_, flat, slot) in b.rows(g, Some(base)) {
            (0..b.ext[2]).for_each(|z| f(slot + z, flat + z));
        }
        base += b.len();
    }
}

/// Index of block-local point `xyz` in the work arrays (row-major 6³).
#[inline(always)]
fn point([x, y, z]: [usize; 3]) -> usize {
    (x * REG_BLOCK + y) * REG_BLOCK + z
}

/// Index of block-local point `xyz` in the halo-padded plane.
#[inline(always)]
fn cell([x, y, z]: [usize; 3]) -> usize {
    ((x + 1) * PAD + y + 1) * PAD + z + 1
}

/// The 3-D Lorenzo prediction of the point at `c` from the seven taps
/// behind it, in `lorenzo3`'s operand order.
#[inline(always)]
fn lorenzo(loc: &[f64; CELLS], c: usize) -> f64 {
    let at = |back: usize| loc[c - back];
    let (x, y) = (PAD * PAD, PAD);
    lorenzo3(at(x), at(y), at(1), at(x + y), at(x + 1), at(y + 1), at(x + y + 1))
}

/// Row-major walk over a block of extent `ext`, with each point's
/// [`centered`] coordinates. They step by 1.0 from the first point's, which
/// is exact: every value is a multiple of ½ below the block edge.
#[inline(always)]
fn for_each_point(ext: &[usize; 3], mut f: impl FnMut([usize; 3], &[f64; 3])) {
    let first = ext.map(|e| centered(e, 0));
    let mut xc = first;
    for x in 0..ext[0] {
        xc[1] = first[1];
        for y in 0..ext[1] {
            xc[2] = first[2];
            for z in 0..ext[2] {
                f([x, y, z], &xc);
                xc[2] += 1.0;
            }
            xc[1] += 1.0;
        }
        xc[0] += 1.0;
    }
}

/// `dst.copy_from_slice(src)` for a block row: a full row is a fixed-size
/// copy, where a copy of run-time length is a library call.
#[inline(always)]
fn copy_row<T: Copy>(dst: &mut [T], src: &[T]) {
    match (<&mut [T; REG_BLOCK]>::try_from(&mut *dst), <&[T; REG_BLOCK]>::try_from(src)) {
        (Ok(d), Ok(s)) => *d = *s,
        _ => dst.copy_from_slice(src),
    }
}

/// One block in flight.
struct Work<T> {
    /// The block and its halo as `f64`, zero outside the field.
    loc: [f64; CELLS],
    /// Per point: the sample to quantize, then its reconstruction.
    val: [T; POINTS],
    /// Per point: its quantization index.
    idx: [i32; POINTS],
    /// Per point of a regression block: the plane's prediction.
    plane: [f64; POINTS],
}

impl<T: Scalar> Work<T> {
    fn new() -> Self {
        Work { loc: [0.0; CELLS], val: [T::ZERO; POINTS], idx: [0; POINTS], plane: [0.0; POINTS] }
    }

    /// Load the halo of block `b` from `plane` and, unless `halo_only`, the
    /// block itself (into both `loc` and `val`).
    fn gather(&mut self, plane: &[T], g: &Grid, b: &Block, halo_only: bool) {
        let ([ox, oy, oz], [ex, ey, ez], [s0, s1, _]) = (b.origin, b.ext, g.strides);
        for hx in 0..=ex {
            for hy in 0..=ey {
                let c = (hx * PAD + hy) * PAD;
                // Field coordinates of the row: (ox + hx − 1, oy + hy − 1, oz − 1 ..).
                if (hx == 0 && ox == 0) || (hy == 0 && oy == 0) {
                    self.loc[c..c + PAD].fill(0.0);
                    continue;
                }
                let flat = (ox + hx - 1) * s0 + (oy + hy - 1) * s1 + oz;
                self.loc[c] = if oz > 0 { plane[flat - 1].to_f64() } else { 0.0 };
                let inside = hx > 0 && hy > 0;
                if inside && halo_only {
                    continue;
                }
                let src = &plane[flat..flat + ez];
                for (l, &v) in self.loc[c + 1..c + PAD].iter_mut().zip(src) {
                    *l = v.to_f64();
                }
                if inside {
                    let p = point([hx - 1, hy - 1, 0]);
                    copy_row(&mut self.val[p..p + ez], src);
                }
            }
        }
    }

    /// SZ2's choice for a block whose original samples and halo are loaded:
    /// the rounded least-squares plane when its error estimate is smaller
    /// than Lorenzo's. Both estimates and the fit's moments accumulate in
    /// row-major block order.
    fn choose(&self, ext: &[usize; 3]) -> Option<PlaneFit> {
        let mut sums = FitSums::default();
        let mut e_lor = 0.0f64;
        for_each_point(ext, |xyz, xc| {
            let c = cell(xyz);
            let d = self.loc[c];
            sums.add(xc, d);
            e_lor += (d - lorenzo(&self.loc, c)).abs();
        });
        let fit = sums.finish().rounded();
        let mut e_reg = 0.0f64;
        for_each_point(ext, |xyz, xc| {
            e_reg += (self.loc[cell(xyz)] - fit.predict(xc)).abs();
        });
        (e_reg < e_lor).then_some(fit)
    }

    /// Evaluate `fit` at every point of a block of extent `ext` into `plane`.
    fn fill_plane(&mut self, fit: &PlaneFit, ext: &[usize; 3]) {
        for_each_point(ext, |xyz, xc| self.plane[point(xyz)] = fit.predict(xc));
    }

    /// The prediction of the point at cell `c` / point `p`: the regression
    /// plane's (`PLANE`) or Lorenzo's.
    #[inline(always)]
    fn predict<const PLANE: bool>(&self, c: usize, p: usize) -> f64 {
        if PLANE {
            self.plane[p]
        } else {
            lorenzo(&self.loc, c)
        }
    }

    /// Quantize every point of the block in wavefront `order`, leaving each
    /// index in `idx` and each reconstruction in `val` and `loc` (an
    /// unpredictable point keeps its original value).
    fn encode<const PLANE: bool>(&mut self, quant: &LinearQuantizer, order: &[[u16; 2]]) {
        for &[c, p] in order {
            let (c, p) = (c as usize, p as usize);
            match quant.quantize(self.val[p], self.predict::<PLANE>(c, p)) {
                Quantized::Pred { index, recon } => {
                    self.idx[p] = index;
                    self.val[p] = recon;
                    self.loc[c] = recon.to_f64();
                }
                Quantized::Unpred => self.idx[p] = UNPRED,
            }
        }
    }

    /// Reconstruct every predictable point of the block in wavefront
    /// `order`; an unpredictable point's escaped value is already in place.
    fn decode<const PLANE: bool>(&mut self, quant: &LinearQuantizer, order: &[[u16; 2]]) {
        for &[c, p] in order {
            let (c, p) = (c as usize, p as usize);
            let index = self.idx[p];
            if index != UNPRED {
                let recon: T = quant.recover(self.predict::<PLANE>(c, p), index);
                self.val[p] = recon;
                self.loc[c] = recon.to_f64();
            }
        }
    }
}

/// The points of a block as `[cell, point]` pairs in wavefront order —
/// hyperplane by hyperplane (`x + y + z` constant), so each point depends
/// only on points of earlier hyperplanes and the quantizer chains of one
/// hyperplane overlap — built once per block extent (a field has at most
/// two extents per axis).
struct Wavefronts {
    order: [[[u16; 2]; POINTS]; 8],
    /// Points per extent; 0 until built.
    len: [usize; 8],
}

impl Wavefronts {
    fn new() -> Self {
        Wavefronts { order: [[[0; 2]; POINTS]; 8], len: [0; 8] }
    }

    fn of(&mut self, g: &Grid, ext: [usize; 3]) -> &[[u16; 2]] {
        let key = (0..3).filter(|&a| ext[a] == g.dims[a].min(REG_BLOCK)).fold(0, |k, a| k | 1 << a);
        if self.len[key] == 0 {
            let mut n = 0;
            for k in 0..ext.iter().sum::<usize>() - 2 {
                for x in 0..ext[0] {
                    for y in 0..ext[1] {
                        if let Some(z) = k.checked_sub(x + y).filter(|&z| z < ext[2]) {
                            self.order[key][n] = [cell([x, y, z]) as u16, point([x, y, z]) as u16];
                            n += 1;
                        }
                    }
                }
            }
            self.len[key] = n;
        }
        &self.order[key][..self.len[key]]
    }
}

/// The sections of one stream, as [`parse`] reads them; all but the header
/// are absent (empty) for an empty field.
pub struct Parsed<'a> {
    /// The common stream header.
    pub header: StreamHeader,
    /// Named byte spans in stream order, tiling the stream.
    pub spans: Vec<Span>,
    /// Whether 6³ blocks chose between Lorenzo and a regression plane.
    blockwise: bool,
    /// One bit per block: set where regression won.
    choice_bits: &'a [u8],
    /// 16 bytes of plane coefficients per regression block.
    coeffs: &'a [u8],
    unpred: &'a [u8],
    index: &'a [u8],
}

/// Parse a stream's layout: the one description of it, for decoding and
/// forensics alike. Bytes behind the index block are corruption, and so is a
/// config byte other than the encoder's rule for the shape.
pub fn parse<T: Scalar>(bytes: &[u8]) -> Result<Parsed<'_>, CompressError> {
    let _t = span("parse");
    let mut r = ByteReader::new(bytes);
    let mut spans = Spans::default();
    let header = StreamHeader::read(&mut r, MAGIC, T::BITS as u8)?;
    spans.push("header", r.pos());
    let mut p = Parsed {
        header,
        spans: Vec::new(),
        blockwise: false,
        choice_bits: &[],
        coeffs: &[],
        unpred: &[],
        index: &[],
    };
    if !p.header.shape.is_empty() {
        let dims = p.header.shape.dims();
        if dims.len() > 3 {
            return Err(CompressError::WrongFormat("Lorenzo pipeline supports 1-3 dimensions"));
        }
        let flag = r.get_u8()?;
        p.blockwise = flag != 0;
        spans.push("config", r.pos());
        if flag > 1 || p.blockwise != is_blockwise(dims) {
            return Err(CompressError::WrongFormat("blockwise flag disagrees with the shape"));
        }
        if p.blockwise {
            p.choice_bits = spans.block("choice_bits", &mut r)?;
            if p.choice_bits.len() != Grid::new(dims).blocks().count().div_ceil(8) {
                return Err(CompressError::WrongFormat("choice bitmap size mismatch"));
            }
            p.coeffs = spans.block("coeffs", &mut r)?;
        }
        p.unpred = spans.block("unpred", &mut r)?;
        if !p.unpred.len().is_multiple_of(T::BYTES) {
            return Err(CompressError::WrongFormat("unpredictable block misaligned"));
        }
        p.index = spans.block("index", &mut r)?;
    }
    p.spans = spans.finish(&r, 0)?;
    Ok(p)
}

/// Decompress a stream produced by [`compress`], with a context of its own.
pub fn decompress<T: Scalar>(bytes: &[u8]) -> Result<Field<T>, CompressError> {
    decode(&parse::<T>(bytes)?, &mut CompressCtx::new())
}

/// Reconstruct the field of a parsed stream: the index plane decodes into
/// the context's reusable buffer and the escaped values come from its scalar
/// pools, so only the returned field itself is freshly allocated.
pub fn decode<T: Scalar>(p: &Parsed<'_>, ctx: &mut CompressCtx) -> Result<Field<T>, CompressError> {
    let shape = &p.header.shape;
    let n = shape.len();
    if n == 0 {
        return Ok(Field::zeros(shape.clone()));
    }
    let quant = LinearQuantizer::try_new(p.header.abs_eb)
        .ok_or(CompressError::Corrupt("degenerate error bound"))?;
    let g = Grid::new(shape.dims());

    // One choice bit per block, and 16 coefficient bytes per set bit.
    let n_blocks = if p.blockwise { g.blocks().count() } else { 0 };
    let uses_regression = |i: usize| p.blockwise && p.choice_bits[i / 8] & (1 << (i % 8)) != 0;
    if p.coeffs.len() != (0..n_blocks).filter(|&i| uses_regression(i)).count() * 16 {
        return Err(CompressError::WrongFormat("coefficient block size mismatch"));
    }

    let entropy = span("entropy_decode");
    let mut unpred: Vec<T> = ctx.pools.acquire();
    unpred.reserve(p.unpred.len() / T::BYTES);
    for chunk in p.unpred.chunks_exact(T::BYTES) {
        unpred.push(T::read_le(chunk)?);
    }
    qip_codec::decode_indices_capped_into(p.index, n, &mut ctx.qprime)?;
    if ctx.qprime.len() != n {
        return Err(CompressError::WrongFormat("index count mismatch"));
    }
    drop(entropy);

    let mut buf = qip_core::try_zeroed_vec::<T>(n)?;
    let _t = span("reconstruct");
    let q = &ctx.qprime;
    // Escaped values go into place first, in scan order; the sweep then
    // leaves their points alone.
    if q.contains(&UNPRED) {
        let (mut escaped, mut exhausted) = (unpred.iter(), false);
        scan_order(&g, p.blockwise, |slot, flat| {
            if q[slot] == UNPRED {
                match escaped.next() {
                    Some(&v) => buf[flat] = v,
                    None => exhausted = true,
                }
            }
        });
        if exhausted {
            ctx.pools.release(unpred);
            return Err(CompressError::WrongFormat("unpredictable channel exhausted"));
        }
    }
    ctx.pools.release(unpred);

    let mut fits = p.coeffs.chunks_exact(16).map(|c| PlaneFit::read(c).expect("exact chunk"));
    let mut work = Work::new();
    let mut waves = Wavefronts::new();
    let mut base = 0;
    for (i, b) in g.blocks().enumerate() {
        let slot0 = p.blockwise.then_some(base);
        let ez = b.ext[2];
        work.gather(&buf, &g, &b, false);
        for (pt, _, slot) in b.rows(&g, slot0) {
            copy_row(&mut work.idx[pt..pt + ez], &q[slot..slot + ez]);
        }
        let order = waves.of(&g, b.ext);
        match uses_regression(i).then(|| fits.next()).flatten() {
            Some(fit) => {
                work.fill_plane(&fit, &b.ext);
                work.decode::<true>(&quant, order);
            }
            None => work.decode::<false>(&quant, order),
        }
        for (pt, flat, _) in b.rows(&g, slot0) {
            copy_row(&mut buf[flat..flat + ez], &work.val[pt..pt + ez]);
        }
        base += b.len();
    }
    Ok(Field::from_vec(shape.clone(), buf)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qip_metrics::max_abs_error;
    use qip_tensor::Shape;

    #[test]
    fn roundtrip_3d() {
        let f = Field::<f32>::from_fn(Shape::d3(14, 11, 9), |c| {
            (c[0] as f32 * 0.3).sin() + c[1] as f32 * 0.05 - c[2] as f32 * 0.02
        });
        let bytes = compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        let out: Field<f32> = decompress(&bytes).unwrap();
        assert!(max_abs_error(&f, &out) <= 1e-3 + 1e-9);
    }

    #[test]
    fn roundtrip_1d_2d() {
        for dims in [vec![50usize], vec![17, 23]] {
            let f = Field::<f64>::from_fn(Shape::new(&dims), |c| {
                c.iter().map(|&x| (x as f64 * 0.2).cos()).sum()
            });
            let bytes = compress(&f, ErrorBound::Abs(1e-5)).unwrap();
            let out: Field<f64> = decompress(&bytes).unwrap();
            assert!(max_abs_error(&f, &out) <= 1e-5 + 1e-12);
        }
    }

    #[test]
    fn planes_compress_to_nearly_nothing() {
        // 2-D Lorenzo is exact on planes: all indices zero.
        let f = Field::<f32>::from_fn(Shape::d2(64, 64), |c| {
            3.0 * c[0] as f32 + 4.0 * c[1] as f32
        });
        let bytes = compress(&f, ErrorBound::Abs(1e-2)).unwrap();
        assert!(bytes.len() < 200, "got {}", bytes.len());
    }

    #[test]
    fn wrong_magic_and_truncation() {
        let f = Field::<f32>::from_fn(Shape::d2(8, 8), |c| c[0] as f32);
        let bytes = compress(&f, ErrorBound::Abs(1e-2)).unwrap();
        let mut foreign = bytes.clone();
        foreign[0] ^= 1;
        assert!(decompress::<f32>(&foreign).is_err());
        assert!(decompress::<f32>(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn empty_field() {
        let f = Field::<f32>::zeros(Shape::d2(0, 3));
        let bytes = compress(&f, ErrorBound::Abs(1.0)).unwrap();
        let out: Field<f32> = decompress(&bytes).unwrap();
        assert!(out.is_empty());
    }

    /// The encoder's working plane after the sweep, for `field` under `bound`.
    fn working_plane<T: Scalar>(field: &Field<T>, bound: ErrorBound) -> Vec<T> {
        let dims = field.shape().dims();
        let quant = LinearQuantizer::new(bound.resolve(field).abs);
        encode(field.as_slice(), dims, is_blockwise(dims), &quant, &mut CompressCtx::new())
    }

    fn recon_equals_decode<T: Scalar>() {
        let shapes: [&[usize]; 9] = [
            &[12, 12, 12],
            &[13, 17, 19],
            &[33, 32, 32],
            &[16, 16, 16],
            &[32, 32, 32],
            &[48, 7, 50],
            &[8, 8, 8],
            &[301],
            &[17, 23],
        ];
        let plants = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-40];
        for dims in shapes {
            let shape = Shape::new(dims);
            let smooth = Field::<T>::from_fn(shape.clone(), |c| {
                let at = |a: usize| c.get(a).copied().unwrap_or(0) as f64;
                T::from_f64((0.21 * at(0)).sin() * (0.13 * at(1)).cos() + 0.05 * at(2))
            });
            let tilted = Field::<T>::from_fn(shape.clone(), |c| {
                let s: usize = c.iter().sum();
                let noise = if s.is_multiple_of(2) { 0.02 } else { -0.02 };
                let plane: f64 = c.iter().enumerate().map(|(a, &x)| x as f64 / (a + 2) as f64).sum();
                T::from_f64(plane + noise)
            });
            // NaN, ±Inf and a subnormal at an interior point, a low-face
            // point, a block edge and the field corner.
            let sites = [7usize, 5, 6, 0].map(|k| {
                let at = |(a, &d): (usize, &usize)| if k == 5 && a == 0 { 0 } else { k.min(d - 1) };
                shape.flat(&dims.iter().enumerate().map(at).collect::<Vec<_>>())
            });
            let mut planted = smooth.as_slice().to_vec();
            for (site, v) in sites.iter().zip(plants) {
                planted[*site] = T::from_f64(v);
            }
            let planted = Field::from_vec(shape.clone(), planted).unwrap();
            for (field, eb) in [(&smooth, 1e-3), (&tilted, 5e-3), (&planted, 1e-3)] {
                let bound = ErrorBound::Abs(eb);
                let recon = working_plane(field, bound);
                let decoded: Field<T> = decompress(&compress(field, bound).unwrap()).unwrap();
                // Bytes, not values: NaN payloads must agree too.
                let bytes = |v: &[T]| {
                    let mut out = Vec::new();
                    v.iter().for_each(|x| x.write_le(&mut out));
                    out
                };
                assert!(bytes(&recon) == bytes(decoded.as_slice()), "{dims:?} eb {eb}");
            }
        }
    }

    #[test]
    fn encoder_reconstruction_equals_the_decoder_output() {
        recon_equals_decode::<f32>();
        recon_equals_decode::<f64>();
    }
}

#[cfg(test)]
mod blockwise_tests {
    use super::*;
    use qip_metrics::max_abs_error;
    use qip_tensor::Shape;

    #[test]
    fn blockwise_roundtrip_bound() {
        // Large 3-D field takes the SZ2 block path.
        let f = Field::<f32>::from_fn(Shape::d3(25, 19, 14), |c| {
            (c[0] as f32 * 0.2).sin() + 0.3 * c[1] as f32 - 0.1 * c[2] as f32
        });
        let bytes = compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        let out: Field<f32> = decompress(&bytes).unwrap();
        assert!(max_abs_error(&f, &out) <= 1e-3 + 1e-9);
    }

    #[test]
    fn regression_wins_on_tilted_planes() {
        // A plane with per-point alternating noise: Lorenzo doubles the noise
        // (second differences), regression averages it away, so blockwise
        // must beat a hypothetical pure-Lorenzo run.
        let f = Field::<f32>::from_fn(Shape::d3(24, 24, 24), |c| {
            let noise = if (c[0] + c[1] + c[2]) % 2 == 0 { 0.02 } else { -0.02 };
            c[0] as f32 * 0.5 + c[1] as f32 * 0.25 - c[2] as f32 * 0.125 + noise
        });
        let bytes = compress(&f, ErrorBound::Abs(5e-3)).unwrap();
        let out: Field<f32> = decompress(&bytes).unwrap();
        assert!(max_abs_error(&f, &out) <= 5e-3 + 1e-9);
        // The pipeline must compress this strongly (regression nails planes).
        assert!(bytes.len() * 6 < f.len() * 4, "got {} bytes", bytes.len());
    }

    #[test]
    fn small_fields_use_plain_scan() {
        // Below the block threshold the plain scan path still round-trips.
        let f = Field::<f32>::from_fn(Shape::d3(8, 8, 8), |c| c[0] as f32);
        let bytes = compress(&f, ErrorBound::Abs(1e-2)).unwrap();
        let out: Field<f32> = decompress(&bytes).unwrap();
        assert!(max_abs_error(&f, &out) <= 1e-2 + 1e-9);
    }
}
