//! Identity of the Lorenzo/regression pipeline against the walker it had
//! before.
//!
//! `lorenzo::compress_append` makes one pass per 6³ block — choice, then a
//! wavefront sweep over a halo-padded copy of the block with unconditional
//! taps — and `lorenzo::decode` follows the same schedule. The reference below
//! is the pipeline as it was: the coords-mask `predict` walker, a row-major
//! scan with quantizer feedback, the decoder's `Points` cursor. It is kept
//! here, and only here, so every stream class can be checked against it: the
//! same bytes for every field, a bit-equal decode of every stream, and on
//! every damaged stream either the same decode or an error of the same
//! variant.

use qip_core::{CompressCtx, CompressError, ErrorBound};
use qip_sz3::lorenzo;
use qip_tensor::{Field, Scalar, Shape};

mod reference {
    use qip_codec::{encode_indices_into, ByteReader, ByteWriter, Spans};
    use qip_core::{CompressCtx, CompressError, ErrorBound, StreamHeader};
    use qip_predict::{lorenzo2, lorenzo3};
    use qip_quant::{LinearQuantizer, Quantized, UNPRED};
    use qip_sz3::lorenzo::MAGIC;
    use qip_sz3::regression::PlaneFit;
    use qip_tensor::{Field, Scalar};

    const REG_BLOCK: usize = 6;

    /// The plane-fit moments as they were accumulated, per block-local
    /// integer coordinates.
    struct FitSums {
        center: [f64; 3],
        n: usize,
        sum: f64,
        sxy: [f64; 3],
        sxx: [f64; 3],
    }

    impl FitSums {
        fn new(ext: &[usize]) -> Self {
            FitSums {
                center: std::array::from_fn(|a| ext.get(a).map_or(0.0, |&e| center_of(e))),
                n: 0,
                sum: 0.0,
                sxy: [0.0; 3],
                sxx: [0.0; 3],
            }
        }

        fn add(&mut self, coords: &[usize], f: f64) {
            self.n += 1;
            self.sum += f;
            for (a, &c) in coords.iter().enumerate() {
                let xc = c as f64 - self.center[a];
                self.sxy[a] += f * xc;
                self.sxx[a] += xc * xc;
            }
        }

        fn finish(&self) -> PlaneFit {
            let slopes = std::array::from_fn(|a| {
                if self.sxx[a] > 0.0 {
                    self.sxy[a] / self.sxx[a]
                } else {
                    0.0
                }
            });
            PlaneFit { b0: self.sum / self.n as f64, slopes }
        }
    }

    fn center_of(e: usize) -> f64 {
        (e as f64 - 1.0) / 2.0
    }

    /// The plane's prediction as it was computed.
    fn plane_at(fit: &PlaneFit, ext: &[usize], coords: &[usize]) -> f64 {
        let mut v = fit.b0;
        for (a, &c) in coords.iter().enumerate() {
            v += fit.slopes[a] * (c as f64 - center_of(ext[a]));
        }
        v
    }

    pub fn compress<T: Scalar>(field: &Field<T>, bound: ErrorBound) -> Vec<u8> {
        let mut out = Vec::new();
        compress_append(field, bound, &mut CompressCtx::new(), &mut out).unwrap();
        out
    }

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
        ctx.qprime.reserve_exact(field.len());
        ctx.unpred.clear();
        let (q, unpred) = (&mut ctx.qprime, &mut ctx.unpred);

        if blockwise {
            let src = field.as_slice();
            let mut bits = vec![0u8; blocks(dims).count().div_ceil(8)];
            ctx.anchors.clear();
            let coeffs = &mut ctx.anchors;
            for (i, (origin, ext)) in blocks(dims).enumerate() {
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
                    e_reg += (vals[n] - plane_at(&fit, &ext, &local)).abs();
                    n += 1;
                });
                if e_reg < e_lor {
                    bits[i / 8] |= 1 << (i % 8);
                    fit.write(coeffs);
                }
            }
            w.put_block(&bits);
            w.put_block(coeffs);

            let mut coeff_cursor = 0usize;
            for (i, (origin, ext)) in blocks(dims).enumerate() {
                let fit = (bits[i / 8] & (1 << (i % 8)) != 0).then(|| {
                    coeff_cursor += 16;
                    PlaneFit::read(&coeffs[coeff_cursor - 16..]).expect("own coeffs")
                });
                for_block(&origin, &ext, strides, |local, flat| {
                    let pred = match &fit {
                        Some(f) => plane_at(f, &ext, &local),
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

    fn for_block(
        origin: &[usize; 3],
        ext: &[usize; 3],
        strides: &[usize],
        mut f: impl FnMut([usize; 3], usize),
    ) {
        for x in 0..ext[0] {
            for y in 0..ext[1] {
                let row = (origin[0] + x) * strides[0]
                    + (origin[1] + y) * strides[1]
                    + origin[2] * strides[2];
                for z in 0..ext[2] {
                    f([x, y, z], row + z * strides[2]);
                }
            }
        }
    }

    fn global(origin: &[usize; 3], local: &[usize; 3]) -> [usize; 3] {
        std::array::from_fn(|a| origin[a] + local[a])
    }

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

    pub struct Parsed<'a> {
        header: StreamHeader,
        blockwise: bool,
        choice_bits: &'a [u8],
        coeffs: &'a [u8],
        unpred: &'a [u8],
        index: &'a [u8],
    }

    /// The former parse, plus the two rules it lacked (the only behaviour
    /// the production parse changes on purpose): the config byte is 0 or 1
    /// and says blockwise exactly for 3-D fields with every axis ≥ 12, and
    /// the field has at most three axes (the former decoder's scan indexed a
    /// 3-slot coordinate array by the header's rank).
    pub fn parse<T: Scalar>(bytes: &[u8]) -> Result<Parsed<'_>, CompressError> {
        let mut r = ByteReader::new(bytes);
        let mut spans = Spans::default();
        let header = StreamHeader::read(&mut r, MAGIC, T::BITS as u8)?;
        spans.push("header", r.pos());
        let mut p = Parsed {
            header,
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
            let rule = dims.len() == 3 && dims.iter().all(|&d| d >= 2 * REG_BLOCK);
            if flag > 1 || p.blockwise != rule {
                return Err(CompressError::WrongFormat("blockwise flag disagrees with the shape"));
            }
            if p.blockwise {
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
        spans.finish(&r, 0)?;
        Ok(p)
    }

    pub fn decompress<T: Scalar>(bytes: &[u8]) -> Result<Field<T>, CompressError> {
        decode(&parse::<T>(bytes)?, &mut CompressCtx::new())
    }

    pub fn decode<T: Scalar>(
        p: &Parsed<'_>,
        ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError> {
        let shape = &p.header.shape;
        let (dims, strides) = (shape.dims(), shape.strides());
        let n = shape.len();
        if n == 0 {
            return Ok(Field::zeros(shape.clone()));
        }
        let quant = LinearQuantizer::try_new(p.header.abs_eb)
            .ok_or(CompressError::Corrupt("degenerate error bound"))?;

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
            let mut fits =
                p.coeffs.chunks_exact(16).map(|c| PlaneFit::read(c).expect("exact chunk"));
            for (i, (origin, ext)) in blocks(dims).enumerate() {
                let fit = if uses_regression(i) { fits.next() } else { None };
                for_block(&origin, &ext, strides, |local, flat| match &fit {
                    Some(f) => points.place(&mut buf, flat, |_| plane_at(f, &ext, &local)),
                    None => points.place(&mut buf, flat, |b| {
                        predict(b, strides, &global(&origin, &local), flat)
                    }),
                });
            }
        } else {
            scan(dims, |flat, coords| {
                points.place(&mut buf, flat, |b| predict(b, strides, coords, flat))
            });
        }
        let exhausted = points.exhausted;
        ctx.pools.release(unpred);
        if exhausted {
            return Err(CompressError::WrongFormat("unpredictable channel exhausted"));
        }
        Ok(Field::from_vec(shape.clone(), buf)?)
    }

    struct Points<'a, T> {
        quant: LinearQuantizer,
        indices: std::slice::Iter<'a, i32>,
        escaped: std::slice::Iter<'a, T>,
        exhausted: bool,
    }

    impl<T: Scalar> Points<'_, T> {
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

    fn predict<T: Scalar>(buf: &[T], strides: &[usize], coords: &[usize], flat: usize) -> f64 {
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
}

/// The identity suite's shapes: the smallest blockwise field, clipped
/// blocks, the two tile sizes, a 3-D field on the plain scan (one axis
/// below 12), and 1-D and 2-D fields.
const SHAPES: [&[usize]; 9] = [
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

/// Deterministic noise in `[-1, 1)`.
fn noise(i: usize, salt: u64) -> f64 {
    let mut h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 31;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 29;
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

fn coord(c: &[usize], a: usize) -> f64 {
    // Padded like the pipeline does: a 2-D field's axes are the last two.
    let lead = 3 - c.len();
    if a < lead {
        0.0
    } else {
        c[a - lead] as f64
    }
}

/// The fields of the suite, each with the bound it is compressed under.
fn fields<T: Scalar>(dims: &[usize]) -> Vec<(&'static str, Field<T>, ErrorBound)> {
    let shape = Shape::new(dims);
    let strides = shape.strides().to_vec();
    let flat = move |c: &[usize]| c.iter().zip(&strides).map(|(a, s)| a * s).sum::<usize>();
    let smooth = {
        let flat = flat.clone();
        Field::<T>::from_fn(shape.clone(), move |c| {
            let (x, y, z) = (coord(c, 0), coord(c, 1), coord(c, 2));
            T::from_f64((0.21 * x).sin() * (0.13 * y).cos() + 0.05 * z + 1e-3 * noise(flat(c), 1))
        })
    };
    let tilted = {
        let flat = flat.clone();
        Field::<T>::from_fn(shape.clone(), move |c| {
            let (x, y, z) = (coord(c, 0), coord(c, 1), coord(c, 2));
            let checker = if ((x + y + z) as usize).is_multiple_of(2) { 0.02 } else { -0.02 };
            T::from_f64(0.5 * x + 0.25 * y - 0.125 * z + checker + 1e-3 * noise(flat(c), 2))
        })
    };
    // Steps of exactly 2ε·radius, of one bin less, and of none: indices land
    // on the radius (unpredictable) and one inside it.
    let eb = 1.0 / 1024.0;
    let step = 2.0 * eb * qip_quant::LinearQuantizer::DEFAULT_RADIUS as f64;
    let radius = Field::<T>::from_fn(shape.clone(), move |c| {
        let v = match (noise(flat(c), 3) * 3.0 + 3.0) as usize {
            0 | 1 => 0.0,
            2 | 3 => step,
            _ => step - 2.0 * eb,
        };
        T::from_f64(v)
    });
    vec![
        ("constant", Field::from_fn(shape.clone(), |_| T::from_f64(2.5)), ErrorBound::Abs(1e-3)),
        ("smooth", smooth.clone(), ErrorBound::Abs(1e-3)),
        ("smooth-rel", smooth, ErrorBound::Rel(1e-5)),
        ("tilted", tilted, ErrorBound::Abs(5e-3)),
        ("radius", radius, ErrorBound::Abs(eb)),
    ]
}

/// Where the plants go: an interior point, a low-face point, a block edge
/// and the two field corners.
fn plant_sites(dims: &[usize]) -> Vec<Vec<usize>> {
    let clamp = |v: usize, a: usize| v.min(dims[a] - 1);
    let each = |f: &dyn Fn(usize) -> usize| (0..dims.len()).map(|a| clamp(f(a), a)).collect();
    vec![
        each(&|a| 7 + a),
        each(&|a| if a == 0 { 0 } else { 5 + a }),
        each(&|a| if a == 0 { 6 } else { 5 + a }),
        vec![0; dims.len()],
        dims.iter().map(|d| d - 1).collect(),
    ]
}

/// The suite's fields with NaN, ±Inf and a 1e-40 planted together at every
/// site in turn.
fn planted<T: Scalar>(base: &Field<T>) -> Vec<Field<T>> {
    let dims = base.shape().dims().to_vec();
    let plants = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-40];
    plant_sites(&dims)
        .iter()
        .map(|site| {
            let mut v = base.as_slice().to_vec();
            let (at, n) = (base.shape().flat(site), v.len());
            for (k, &p) in plants.iter().enumerate() {
                // Consecutive points along the last axis, wrapping in the field.
                v[(at + k) % n] = T::from_f64(p);
            }
            Field::from_vec(base.shape().clone(), v).unwrap()
        })
        .collect()
}

fn bits<T: Scalar>(f: &Field<T>) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in f.as_slice() {
        v.write_le(&mut out);
    }
    out
}

/// NaN-blind comparison of two decodes of a *damaged* stream: a prediction
/// that reads two NaNs may keep either payload, so only the class of a
/// computed NaN is compared.
fn same_values<T: Scalar>(a: &Field<T>, b: &Field<T>) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| {
            let (x, y) = (x.to_f64(), y.to_f64());
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        })
}

fn same_outcome<T: Scalar>(
    got: &Result<Field<T>, CompressError>,
    want: &Result<Field<T>, CompressError>,
) -> bool {
    match (got, want) {
        (Ok(a), Ok(b)) => same_values(a, b),
        (Err(a), Err(b)) => std::mem::discriminant(a) == std::mem::discriminant(b),
        _ => false,
    }
}

/// One field: byte-equal streams through `compress` and a reused context,
/// and bit-equal decodes through `decompress` and `decode`.
fn check<T: Scalar>(what: &str, field: &Field<T>, bound: ErrorBound, ctx: &mut CompressCtx) {
    let want = reference::compress(field, bound);
    let got = lorenzo::compress(field, bound).unwrap();
    assert!(got == want, "{what}: stream differs from the reference");
    let mut out = vec![0xAB; 5];
    out.clear();
    lorenzo::compress_append(field, bound, ctx, &mut out).unwrap();
    assert!(out == want, "{what}: compress_append on a reused context differs");

    let want: Field<T> = reference::decompress(&want).unwrap();
    let got: Field<T> = lorenzo::decompress(&got).unwrap();
    assert_eq!(bits(&got), bits(&want), "{what}: decode differs from the reference");
    let warm: Field<T> = lorenzo::decode(&lorenzo::parse::<T>(&out).unwrap(), ctx).unwrap();
    assert_eq!(bits(&warm), bits(&want), "{what}: decode on a reused context differs");
}

fn sweep<T: Scalar>(ty: &str) {
    let mut ctx = CompressCtx::new();
    let mut streams = 0;
    for dims in SHAPES {
        for (name, field, bound) in fields::<T>(dims) {
            let what = format!("{ty} {dims:?} {name}");
            check(&what, &field, bound, &mut ctx);
            for (k, f) in planted(&field).iter().enumerate() {
                check(&format!("{what} plant {k}"), f, bound, &mut ctx);
            }
            streams += 1;
        }
    }
    assert_eq!(streams, SHAPES.len() * 5);
}

#[test]
fn f32_streams_and_decodes_equal_the_reference() {
    sweep::<f32>("f32");
}

#[test]
fn f64_streams_and_decodes_equal_the_reference() {
    sweep::<f64>("f64");
}

#[test]
fn regression_and_lorenzo_blocks_both_occur() {
    // The tilted field is where regression wins, the smooth one where
    // Lorenzo does: the suite must exercise both arms of the choice.
    let coeffs = |field: &Field<f32>, bound| {
        let stream = lorenzo::compress(field, bound).unwrap();
        let p = lorenzo::parse::<f32>(&stream).unwrap();
        p.spans.iter().filter(|s| s.name == "coeffs").map(|s| s.end - s.start).sum::<usize>()
    };
    let all = fields::<f32>(&[32, 32, 32]);
    let (_, tilted, b) = &all[3];
    let (_, smooth, b2) = &all[1];
    let n_blocks = 6 * 6 * 6;
    let tilted = coeffs(tilted, *b) / 16;
    assert!(tilted > n_blocks / 2, "regression won {tilted} of {n_blocks} blocks");
    assert!(coeffs(smooth, *b2) / 16 < n_blocks / 2);
}

/// Every cut and 200 bit flips of one stream give the reference's outcome.
fn damage<T: Scalar>(what: &str, stream: &[u8], seed: u64) {
    for cut in 0..stream.len() {
        let got = lorenzo::decompress::<T>(&stream[..cut]);
        let want = reference::decompress::<T>(&stream[..cut]);
        assert!(same_outcome(&got, &want), "{what}: cut at {cut}: {got:?} vs {want:?}");
    }
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ctx = CompressCtx::new();
    for _ in 0..200 {
        let mut bad = stream.to_vec();
        let pos = next() as usize % bad.len();
        bad[pos] ^= 1 << (next() % 8);
        let want = reference::decompress::<T>(&bad);
        let got = lorenzo::decompress::<T>(&bad);
        assert!(same_outcome(&got, &want), "{what}: flip at byte {pos}");
        let warm = lorenzo::parse::<T>(&bad).and_then(|p| lorenzo::decode::<T>(&p, &mut ctx));
        assert!(same_outcome(&warm, &want), "{what}: flip at byte {pos}, reused context");
    }
}

#[test]
fn damaged_streams_decode_like_the_reference() {
    for (i, dims) in SHAPES.iter().enumerate() {
        let all = fields::<f32>(dims);
        for (name, field, bound) in [&all[1], &all[3], &all[4]] {
            let planted = &planted(field)[i % 5];
            for (tag, f) in [("", field), (" planted", planted)] {
                let stream = lorenzo::compress(f, *bound).unwrap();
                damage::<f32>(&format!("f32 {dims:?} {name}{tag}"), &stream, i as u64 + 1);
            }
        }
        let (name, field, bound) = &fields::<f64>(dims)[1];
        let stream = lorenzo::compress(field, *bound).unwrap();
        damage::<f64>(&format!("f64 {dims:?} {name}"), &stream, 0xF64 + i as u64);
    }
}
