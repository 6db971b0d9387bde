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

use crate::regression::{FitSums, PlaneFit};
use qip_codec::{encode_indices_into, ByteReader, ByteWriter, Span, Spans};
use qip_core::{CompressCtx, CompressError, ErrorBound, StreamHeader};
use qip_predict::{lorenzo2, lorenzo3};
use qip_quant::{LinearQuantizer, Quantized, UNPRED};
use qip_tensor::{Field, Scalar};

/// Stream magic of the Lorenzo pipeline (nested inside the SZ3 wrapper).
pub const MAGIC: u8 = 0x22;

/// SZ2's block edge for the regression predictor.
const REG_BLOCK: usize = 6;

/// Quantization indices of the Lorenzo pipeline in spatial (row-major)
/// order — the characterization hook used by the workspace's ablations to
/// verify the paper's rationale that Lorenzo residuals, unlike interpolation
/// residuals, show no clustering for QP to exploit (paper Sec. VI-B).
pub fn quant_indices<T: Scalar>(
    field: &Field<T>,
    bound: ErrorBound,
) -> Result<Vec<i32>, CompressError> {
    let dims = field.shape().dims();
    if dims.len() > 3 {
        return Err(CompressError::Unsupported("Lorenzo pipeline supports 1-3 dimensions"));
    }
    let quant = LinearQuantizer::new(bound.resolve(field).abs);
    let mut buf = field.as_slice().to_vec();
    let mut q = Vec::with_capacity(buf.len());
    scan_quantize(&quant, dims, field.shape().strides(), &mut buf, &mut q, &mut Vec::new());
    Ok(q)
}

/// Compress `field` with the Lorenzo pipeline under `bound`.
pub fn compress<T: Scalar>(field: &Field<T>, bound: ErrorBound) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::new();
    compress_append(field, bound, &mut CompressCtx::new(), &mut out)?;
    Ok(out)
}

/// [`compress`] appending to `out`, with the working copy, index plane,
/// unpredictable channel and entropy-stage scratch taken from `ctx`. On
/// error nothing has been appended.
pub fn compress_append<T: Scalar>(
    field: &Field<T>,
    bound: ErrorBound,
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

    let blockwise = dims.len() == 3 && dims.iter().all(|&d| d >= 2 * REG_BLOCK);
    w.put_u8(blockwise as u8);

    let quant = LinearQuantizer::new(abs_eb);
    let strides = field.shape().strides();
    let mut buf: Vec<T> = ctx.pools.acquire();
    buf.extend_from_slice(field.as_slice());
    ctx.qprime.clear();
    // One index per point; amortized growth from a near-fit capacity would
    // double the plane.
    ctx.qprime.reserve_exact(field.len());
    ctx.unpred.clear();
    let (q, unpred) = (&mut ctx.qprime, &mut ctx.unpred);

    if blockwise {
        // --- SZ2-style block pipeline: choose Lorenzo vs regression per 6³ ---
        let src = field.as_slice();
        let mut bits = vec![0u8; blocks(dims).count().div_ceil(8)];
        ctx.anchors.clear();
        let coeffs = &mut ctx.anchors;
        for (i, (origin, ext)) in blocks(dims).enumerate() {
            // One walk over the original samples gathers the plane-fit
            // moments and the Lorenzo estimate and caches the block, so the
            // regression estimate below never returns to the field. Every
            // sum accumulates in row-major block order.
            let mut vals = [0.0f64; REG_BLOCK * REG_BLOCK * REG_BLOCK];
            let mut n = 0usize;
            let mut sums = FitSums::new(&ext);
            let mut e_lor = 0.0f64;
            for_block(&origin, &ext, strides, |local, flat| {
                let d = src[flat].to_f64();
                sums.add(&local, d);
                e_lor += (d - predict(src, strides, &global(&origin, &local), flat)).abs();
                vals[n] = d;
                n += 1;
            });
            let fit = sums.finish().rounded();
            let mut e_reg = 0.0f64;
            n = 0;
            for_block(&origin, &ext, strides, |local, _| {
                e_reg += (vals[n] - fit.predict(&ext, &local)).abs();
                n += 1;
            });
            if e_reg < e_lor {
                bits[i / 8] |= 1 << (i % 8);
                fit.write(coeffs);
            }
        }
        w.put_block(&bits);
        w.put_block(coeffs);

        // Compression sweep in block order with quantizer feedback.
        let mut coeff_cursor = 0usize;
        for (i, (origin, ext)) in blocks(dims).enumerate() {
            let fit = (bits[i / 8] & (1 << (i % 8)) != 0).then(|| {
                coeff_cursor += 16;
                PlaneFit::read(&coeffs[coeff_cursor - 16..]).expect("own coeffs")
            });
            for_block(&origin, &ext, strides, |local, flat| {
                let pred = match &fit {
                    Some(f) => f.predict(&ext, &local),
                    None => predict(&buf, strides, &global(&origin, &local), flat),
                };
                quantize_at(&quant, &mut buf, flat, pred, q, unpred);
            });
        }
    } else {
        scan_quantize(&quant, dims, strides, &mut buf, q, unpred);
    }

    w.put_block(unpred);
    encode_indices_into(q, &mut ctx.stream);
    w.put_block(&ctx.stream);
    ctx.pools.release(buf);
    *out = w.finish();
    Ok(())
}

/// Quantize `buf[flat]` against `pred`, emit its index (and, when
/// unpredictable, its bytes) and leave the reconstruction in `buf`.
#[inline]
fn quantize_at<T: Scalar>(
    quant: &LinearQuantizer,
    buf: &mut [T],
    flat: usize,
    pred: f64,
    q: &mut Vec<i32>,
    unpred: &mut Vec<u8>,
) {
    match quant.quantize(buf[flat], pred) {
        Quantized::Pred { index, recon } => {
            q.push(index);
            buf[flat] = recon;
        }
        Quantized::Unpred => {
            q.push(UNPRED);
            buf[flat].write_le(unpred);
        }
    }
}

/// The plain row-major Lorenzo scan with quantizer feedback.
fn scan_quantize<T: Scalar>(
    quant: &LinearQuantizer,
    dims: &[usize],
    strides: &[usize],
    buf: &mut [T],
    q: &mut Vec<i32>,
    unpred: &mut Vec<u8>,
) {
    scan(dims, |flat, coords| {
        let pred = predict(buf, strides, coords, flat);
        quantize_at(quant, buf, flat, pred, q, unpred);
    });
}

/// Row-major walk of a 3-D block: `f(local coordinates, flat field index)`.
#[inline]
fn for_block(
    origin: &[usize; 3],
    ext: &[usize; 3],
    strides: &[usize],
    mut f: impl FnMut([usize; 3], usize),
) {
    for x in 0..ext[0] {
        for y in 0..ext[1] {
            let row =
                (origin[0] + x) * strides[0] + (origin[1] + y) * strides[1] + origin[2] * strides[2];
            for z in 0..ext[2] {
                f([x, y, z], row + z * strides[2]);
            }
        }
    }
}

/// Field coordinates of a block-local point.
#[inline]
fn global(origin: &[usize; 3], local: &[usize; 3]) -> [usize; 3] {
    std::array::from_fn(|a| origin[a] + local[a])
}

/// `(origin, clipped extent)` of every [`REG_BLOCK`]³ block of a 3-D field,
/// in the row-major block order the stream's choice bits follow (the order
/// of `Shape::blocks`, without a heap-allocated origin per block).
fn blocks(dims: &[usize]) -> impl Iterator<Item = ([usize; 3], [usize; 3])> {
    let d: [usize; 3] = std::array::from_fn(|a| dims[a]);
    let along = move |a: usize| (0..d[a]).step_by(REG_BLOCK);
    along(0).flat_map(move |x| {
        along(1).flat_map(move |y| {
            along(2).map(move |z| {
                let origin = [x, y, z];
                (origin, std::array::from_fn(|a| REG_BLOCK.min(d[a] - origin[a])))
            })
        })
    })
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
/// forensics alike. Bytes behind the index block are corruption.
pub fn parse<T: Scalar>(bytes: &[u8]) -> Result<Parsed<'_>, CompressError> {
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
        p.blockwise = r.get_u8()? != 0;
        spans.push("config", r.pos());
        if p.blockwise {
            let dims = p.header.shape.dims();
            if dims.len() != 3 {
                return Err(CompressError::WrongFormat("blockwise mode requires 3-D"));
            }
            p.choice_bits = spans.block("choice_bits", &mut r)?;
            if p.choice_bits.len() != blocks(dims).count().div_ceil(8) {
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
    let (dims, strides) = (shape.dims(), shape.strides());
    let n = shape.len();
    if n == 0 {
        return Ok(Field::zeros(shape.clone()));
    }
    let quant = LinearQuantizer::try_new(p.header.abs_eb)
        .ok_or(CompressError::Corrupt("degenerate error bound"))?;

    // One choice bit per block, and 16 coefficient bytes per set bit.
    let n_blocks = if p.blockwise { blocks(dims).count() } else { 0 };
    let uses_regression = |i: usize| p.choice_bits[i / 8] & (1 << (i % 8)) != 0;
    if p.coeffs.len() != (0..n_blocks).filter(|&i| uses_regression(i)).count() * 16 {
        return Err(CompressError::WrongFormat("coefficient block size mismatch"));
    }

    let mut unpred: Vec<T> = ctx.pools.acquire();
    unpred.reserve(p.unpred.len() / T::BYTES);
    for chunk in p.unpred.chunks_exact(T::BYTES) {
        unpred.push(T::read_le(chunk)?);
    }
    qip_codec::decode_indices_capped_into(p.index, n, &mut ctx.qprime)?;
    if ctx.qprime.len() != n {
        return Err(CompressError::WrongFormat("index count mismatch"));
    }

    let mut buf = qip_core::try_zeroed_vec::<T>(n)?;
    let mut points =
        Points { quant, indices: ctx.qprime.iter(), escaped: unpred.iter(), exhausted: false };
    if p.blockwise {
        let mut fits = p.coeffs.chunks_exact(16).map(|c| PlaneFit::read(c).expect("exact chunk"));
        for (i, (origin, ext)) in blocks(dims).enumerate() {
            let fit = if uses_regression(i) { fits.next() } else { None };
            for_block(&origin, &ext, strides, |local, flat| match &fit {
                Some(f) => points.place(&mut buf, flat, |_| f.predict(&ext, &local)),
                None => points
                    .place(&mut buf, flat, |b| predict(b, strides, &global(&origin, &local), flat)),
            });
        }
    } else {
        scan(dims, |flat, coords| points.place(&mut buf, flat, |b| predict(b, strides, coords, flat)));
    }
    let exhausted = points.exhausted;
    ctx.pools.release(unpred);
    if exhausted {
        return Err(CompressError::WrongFormat("unpredictable channel exhausted"));
    }
    Ok(Field::from_vec(shape.clone(), buf)?)
}

/// The decoder's two channels, consumed one point at a time in scan order.
struct Points<'a, T> {
    quant: LinearQuantizer,
    indices: std::slice::Iter<'a, i32>,
    escaped: std::slice::Iter<'a, T>,
    /// Set once an escape finds the unpredictable channel empty.
    exhausted: bool,
}

impl<T: Scalar> Points<'_, T> {
    /// Reconstruct the next point at `flat`: its escaped value, or `pred` of
    /// the points before it plus its dequantized index.
    #[inline]
    fn place(&mut self, buf: &mut [T], flat: usize, pred: impl FnOnce(&[T]) -> f64) {
        buf[flat] = match self.indices.next() {
            Some(&UNPRED) => self.escaped.next().copied().unwrap_or_else(|| {
                self.exhausted = true;
                T::from_f64(0.0)
            }),
            Some(&idx) => self.quant.recover(pred(buf), idx),
            None => unreachable!("one index per point"),
        };
    }
}

/// Row-major scan calling `f(flat, coords)`.
fn scan(dims: &[usize], mut f: impl FnMut(usize, &[usize])) {
    let ndim = dims.len();
    let total: usize = dims.iter().product();
    let mut coords = [0usize; 3];
    let coords = &mut coords[..ndim];
    for flat in 0..total {
        f(flat, coords);
        for a in (0..ndim).rev() {
            coords[a] += 1;
            if coords[a] < dims[a] {
                break;
            }
            coords[a] = 0;
        }
    }
}

/// N-D Lorenzo prediction (N = `coords.len()` ≤ 3) with zero-padding outside
/// the field.
#[inline]
fn predict<T: Scalar>(buf: &[T], strides: &[usize], coords: &[usize], flat: usize) -> f64 {
    // Interior 3-D points — all but the three low faces — take the seven
    // taps unconditionally.
    if let (&[x, y, z], &[s0, s1, s2]) = (coords, strides) {
        if x.min(y).min(z) > 0 {
            let at = |back: usize| buf[flat - back].to_f64();
            return lorenzo3(
                at(s0),
                at(s1),
                at(s2),
                at(s0 + s1),
                at(s0 + s2),
                at(s1 + s2),
                at(s0 + s1 + s2),
            );
        }
    }
    let at = |mask: &[usize]| -> f64 {
        // mask[i] = 1 means step back along axis i.
        let mut idx = flat;
        for (a, &m) in mask.iter().enumerate() {
            if m == 1 {
                if coords[a] == 0 {
                    return 0.0;
                }
                idx -= strides[a];
            }
        }
        buf[idx].to_f64()
    };
    match coords.len() {
        1 => at(&[1]),
        2 => lorenzo2(at(&[1, 0]), at(&[0, 1]), at(&[1, 1])),
        _ => lorenzo3(
            at(&[1, 0, 0]),
            at(&[0, 1, 0]),
            at(&[0, 0, 1]),
            at(&[1, 1, 0]),
            at(&[1, 0, 1]),
            at(&[0, 1, 1]),
            at(&[1, 1, 1]),
        ),
    }
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
