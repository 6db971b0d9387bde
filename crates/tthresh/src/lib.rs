//! TTHRESH: Tucker-decomposition (HOSVD) compressor.
//!
//! Reimplementation of the TTHRESH model (paper ref \[11\]): the field is
//! treated as a tensor, factor matrices are obtained per mode from the
//! eigendecomposition of the Gram matrix of the mode unfolding (HOSVD,
//! computed here with a from-scratch cyclic Jacobi eigensolver), and the
//! rotated **core tensor** — whose energy is heavily concentrated — is
//! quantized and entropy-coded. An outlier-correction channel (as in our
//! SPERR) upgrades TTHRESH's native norm-based guarantee to the strict
//! pointwise bound the workspace [`Compressor`] contract requires.
//!
//! The heavy dense linear algebra (Gram matrices, eigensolve, two
//! tensor-times-matrix chains) is what gives TTHRESH its Table IV profile:
//! competitive ratios at the lowest compression speed of the cohort.

#![warn(missing_docs)]

mod linalg;

pub use linalg::{sym_eigen_desc, Jacobi};

use qip_codec::{ByteReader, ByteWriter, Span, Spans};
use qip_core::coeffs::{self, Sections};
use qip_core::{CompressCtx, CompressError, Compressor, ErrorBound, StreamHeader};
use qip_tensor::{Field, Scalar};

/// Stream magic for TTHRESH.
const MAGIC_TTHRESH: u8 = 0x80;
/// Core quantization step as a fraction of the bound.
const STEP_FRACTION: f64 = 0.4;

/// Longest axis TTHRESH takes. The HOSVD builds an `n × n` Gram matrix per
/// mode, so its memory grows with the square of an extent (128 MiB at the
/// cap); every paper dataset's axes (at most 3600) fit under it.
const MAX_EXTENT: usize = 1 << 12;

/// The TTHRESH compressor.
#[derive(Debug, Clone, Default)]
pub struct Tthresh;

impl Tthresh {
    /// A TTHRESH instance.
    pub fn new() -> Self {
        Tthresh
    }
}

/// Gram matrix of the mode-`k` unfolding: `G = A_k · A_kᵀ` (`n_k × n_k`).
fn gram(data: &[f64], dims: &[usize], mode: usize) -> Vec<f64> {
    let nk = dims[mode];
    let ndim = dims.len();
    let mut strides = vec![1usize; ndim];
    for i in (0..ndim.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    let sk = strides[mode];
    let mut g = vec![0.0f64; nk * nk];
    // Iterate all fibers along `mode`; accumulate outer products.
    let total: usize = dims.iter().product();
    let fibers = total / nk;
    let mut fiber = vec![0.0f64; nk];
    for f in 0..fibers {
        // Decompose fiber id into the non-mode coordinates → base offset.
        let mut rem = f;
        let mut base = 0usize;
        for a in (0..ndim).rev() {
            if a == mode {
                continue;
            }
            let c = rem % dims[a];
            rem /= dims[a];
            base += c * strides[a];
        }
        for (i, slot) in fiber.iter_mut().enumerate() {
            *slot = data[base + i * sk];
        }
        for i in 0..nk {
            let fi = fiber[i];
            if fi == 0.0 {
                continue;
            }
            for j in i..nk {
                g[i * nk + j] += fi * fiber[j];
            }
        }
    }
    // Mirror the upper triangle.
    for i in 0..nk {
        for j in 0..i {
            g[i * nk + j] = g[j * nk + i];
        }
    }
    g
}

/// Tensor-times-matrix along `mode`: `Y[i', …] = Σ_i U[i, i'] · X[i, …]`
/// when `transpose` (analysis); `Y[i, …] = Σ_{i'} U[i, i'] · X[i', …]`
/// otherwise (synthesis). `u` is `n_k × n_k` row-major.
fn ttm(data: &[f64], dims: &[usize], mode: usize, u: &[f64], transpose: bool) -> Vec<f64> {
    let nk = dims[mode];
    let ndim = dims.len();
    let mut strides = vec![1usize; ndim];
    for i in (0..ndim.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    let sk = strides[mode];
    let total: usize = dims.iter().product();
    let mut out = vec![0.0f64; total];
    let fibers = total / nk;
    let mut fiber = vec![0.0f64; nk];
    for f in 0..fibers {
        let mut rem = f;
        let mut base = 0usize;
        for a in (0..ndim).rev() {
            if a == mode {
                continue;
            }
            let c = rem % dims[a];
            rem /= dims[a];
            base += c * strides[a];
        }
        for (i, slot) in fiber.iter_mut().enumerate() {
            *slot = data[base + i * sk];
        }
        for ip in 0..nk {
            let mut acc = 0.0f64;
            if transpose {
                for (i, &fv) in fiber.iter().enumerate() {
                    acc += u[i * nk + ip] * fv;
                }
            } else {
                for (i, &fv) in fiber.iter().enumerate() {
                    acc += u[ip * nk + i] * fv;
                }
            }
            out[base + ip * sk] = acc;
        }
    }
    out
}

/// Round a factor matrix to f32 (the stored precision) so encoder and decoder
/// reconstruct with bit-identical factors.
fn round_factor(u: &mut [f64]) {
    for v in u.iter_mut() {
        *v = *v as f32 as f64;
    }
}

impl<T: Scalar> Compressor<T> for Tthresh {
    fn name(&self) -> String {
        "TTHRESH".into()
    }

    fn compress_into(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        _ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        let dims = field.shape().dims().to_vec();
        if dims.len() > 3 {
            return Err(CompressError::Unsupported("TTHRESH supports 1-3 dimensions"));
        }
        if dims.iter().any(|&n| n > MAX_EXTENT) {
            return Err(CompressError::Unsupported("TTHRESH supports axes of at most 4096 points"));
        }
        let abs_eb = bound.resolve(field).abs;
        let mut w = ByteWriter::with_capacity(field.len() / 4 + 256);
        StreamHeader {
            magic: MAGIC_TTHRESH,
            scalar_bits: T::BITS as u8,
            shape: field.shape().clone(),
            abs_eb,
        }
        .write(&mut w);
        if field.is_empty() {
            *out = qip_core::integrity::seal(w.finish());
            return Ok(());
        }

        // ---- HOSVD: factor per mode from the Gram eigendecomposition ----
        let data: Vec<f64> = field.as_slice().iter().map(|v| v.to_f64()).collect();
        let mut factors: Vec<Vec<f64>> = Vec::with_capacity(dims.len());
        for mode in 0..dims.len() {
            let g = gram(&data, &dims, mode);
            let (_vals, mut vecs) = sym_eigen_desc(&g, dims[mode]);
            round_factor(&mut vecs);
            factors.push(vecs);
        }

        // Core = X ×₁ U₁ᵀ ×₂ U₂ᵀ ×₃ U₃ᵀ.
        let mut core = data;
        for (mode, u) in factors.iter().enumerate() {
            core = ttm(&core, &dims, mode, u, true);
        }

        // ---- Quantize the core, then reconstruct exactly as the decoder
        // will, to find the outliers to correct ----
        let step = STEP_FRACTION * abs_eb;
        let (q, raw) = coeffs::quantize(&core, step);
        let mut recon = coeffs::dequantize(&q, &raw, step)?;
        for (mode, u) in factors.iter().enumerate() {
            recon = ttm(&recon, &dims, mode, u, false);
        }

        // ---- Serialize: factors (f32), core indices, raw, corrections ----
        for u in &factors {
            let mut fb = Vec::with_capacity(u.len() * 4);
            for &v in u {
                fb.extend_from_slice(&(v as f32).to_le_bytes());
            }
            w.put_block(&fb);
        }
        coeffs::write(&mut w, &q, &raw, field, &recon, abs_eb);
        *out = qip_core::integrity::seal(w.finish());
        Ok(())
    }

    fn decompress_into(
        &self,
        bytes: &[u8],
        _ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError> {
        decode(&parse::<T>(bytes)?)
    }
}

/// The sections of one stream, as [`parse`] reads them; all but the header
/// are absent for an empty field.
pub struct Parsed<'a> {
    /// The common stream header.
    pub header: StreamHeader,
    /// Named byte spans in stream order, tiling the sealed stream.
    pub spans: Vec<Span>,
    /// One `d × d` factor matrix of `f32` per axis of extent `d`.
    factors: Vec<&'a [u8]>,
    /// The coded core tensor.
    coded: Sections<'a>,
}

/// Verify the seal, then parse the stream's layout: the one description of
/// it, for decoding and forensics alike. Bytes behind the corrections are corruption.
pub fn parse<T: Scalar>(sealed: &[u8]) -> Result<Parsed<'_>, CompressError> {
    let bytes = qip_core::integrity::check(sealed)?;
    let mut r = ByteReader::new(bytes);
    let mut spans = Spans::default();
    let header = StreamHeader::read(&mut r, MAGIC_TTHRESH, T::BITS as u8)?;
    spans.push("header", r.pos());
    let mut p = Parsed { header, spans: Vec::new(), factors: Vec::new(), coded: Sections::default() };
    if !p.header.shape.is_empty() {
        for &d in p.header.shape.dims() {
            let fb = spans.block("factors", &mut r)?;
            // Checked arithmetic: a forged extent near the header cap would
            // overflow `d * d * 4` in release builds and defeat this check.
            if d.checked_mul(d).and_then(|x| x.checked_mul(4)) != Some(fb.len()) {
                return Err(CompressError::WrongFormat("factor matrix size mismatch"));
            }
            p.factors.push(fb);
        }
        p.coded = Sections::parse(&mut spans, &mut r)?;
    }
    p.spans = spans.finish(&r, sealed.len() - bytes.len())?;
    Ok(p)
}

/// Reconstruct the field of a parsed stream.
pub fn decode<T: Scalar>(p: &Parsed<'_>) -> Result<Field<T>, CompressError> {
    let shape = p.header.shape.clone();
    if shape.is_empty() {
        return Ok(Field::zeros(shape));
    }
    let mut core = p.coded.dequantize(shape.len(), STEP_FRACTION * p.header.abs_eb)?;
    for (mode, fb) in p.factors.iter().enumerate() {
        let u: Vec<f64> =
            fb.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")) as f64).collect();
        core = ttm(&core, shape.dims(), mode, &u, false);
    }
    p.coded.correct(&mut core, p.header.abs_eb)?;
    let out: Vec<T> = core.into_iter().map(T::from_f64).collect();
    Ok(Field::from_vec(shape, out)?)
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
            (0.12 * x).sin() * (0.08 * y).cos() + 0.3 * (0.05 * z).sin()
        })
    }

    #[test]
    fn gram_matches_hand_computed_2x2() {
        // X = [[1,2],[3,4]]; mode-0 unfolding rows are (1,2) and (3,4):
        // G = [[5, 11], [11, 25]].
        let g = gram(&[1.0, 2.0, 3.0, 4.0], &[2, 2], 0);
        assert_eq!(g, vec![5.0, 11.0, 11.0, 25.0]);
        // Mode-1 unfolding rows are (1,3) and (2,4): G = [[10,14],[14,20]].
        let g1 = gram(&[1.0, 2.0, 3.0, 4.0], &[2, 2], 1);
        assert_eq!(g1, vec![10.0, 14.0, 14.0, 20.0]);
    }

    #[test]
    fn ttm_identity_is_noop() {
        let dims = [3usize, 4, 5];
        let n = 60;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for mode in 0..3 {
            let nk = dims[mode];
            let mut eye = vec![0.0; nk * nk];
            for i in 0..nk {
                eye[i * nk + i] = 1.0;
            }
            let y = ttm(&x, &dims, mode, &eye, true);
            assert_eq!(y, x);
            let z = ttm(&x, &dims, mode, &eye, false);
            assert_eq!(z, x);
        }
    }

    #[test]
    fn ttm_transpose_then_synthesis_is_identity_for_orthogonal_u() {
        // Rotation matrix (orthogonal): analysis then synthesis restores.
        let dims = [2usize, 3];
        let x: Vec<f64> = (0..6).map(|i| (i as f64).sin()).collect();
        let c = (0.6f64).cos();
        let s = (0.6f64).sin();
        let u = vec![c, -s, s, c];
        let y = ttm(&x, &dims, 0, &u, true);
        let z = ttm(&y, &dims, 0, &u, false);
        for (a, b) in z.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn separable_data_compresses_extremely_well() {
        // Rank-1 tensor: HOSVD concentrates everything in one core entry.
        let f = Field::<f32>::from_fn(Shape::d3(16, 16, 16), |c| {
            (1.0 + c[0] as f32) * 0.1 * (2.0 + c[1] as f32) * 0.05 * (1.0 + c[2] as f32) * 0.02
        });
        let bytes = Tthresh::new().compress(&f, ErrorBound::Rel(1e-3)).unwrap();
        let out: Field<f32> = Tthresh::new().decompress(&bytes).unwrap();
        assert!(max_abs_error(&f, &out) <= 1e-3 * f.value_range() + 1e-12);
        // Factor overhead dominates; the core itself is nearly empty.
        let core_budget = 16 * 16 * 16 * 4;
        assert!(bytes.len() < core_budget, "got {}", bytes.len());
    }

    #[test]
    fn an_axis_past_the_cap_is_refused_before_any_gram() {
        // 131 101 points along one axis would ask for a 137 GB Gram matrix.
        for dims in [vec![131_101usize], vec![1, MAX_EXTENT + 1, 1]] {
            let f = Field::<f32>::zeros(Shape::new(&dims));
            let refused = match Tthresh::new().compress(&f, ErrorBound::Abs(1e-3)) {
                Err(CompressError::Unsupported(m)) => m.contains(&MAX_EXTENT.to_string()),
                _ => false,
            };
            assert!(refused, "{dims:?}");
        }
    }

    #[test]
    fn truncated_rejected() {
        let f = smooth(&[10, 10, 10]);
        let tt = Tthresh::new();
        let bytes = tt.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        for cut in [0, 10, bytes.len() / 2] {
            let res: Result<Field<f32>, _> = tt.decompress(&bytes[..cut]);
            assert!(res.is_err(), "cut {cut}");
        }
    }
}
