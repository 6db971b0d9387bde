//! The coded coefficient channel the transform comparators (SPERR, TTHRESH)
//! share: uniformly quantized coefficients with a raw escape side channel,
//! and pointwise corrections that restore the bound where the inverse
//! transform missed it. Four stream sections — index block, raw escapes,
//! correction count, corrections — with one writer, parser and decoder.

use crate::{try_with_capacity, CompressError};
use qip_codec::{encode_indices, ByteReader, ByteWriter, Spans};
use qip_quant::round_shift;
use qip_tensor::{Field, Scalar};

/// Index marking a coefficient stored raw.
const ESCAPE: i32 = i32::MIN;
/// Coefficient and residual indices at or beyond this magnitude escape.
const Q_CLAMP: i64 = 1 << 30;
/// Residual index marking a correction that stores the exact original.
const EXACT: i64 = i64::MIN + 1;

/// Quantize `coeffs` uniformly at `step`: the indices, and the raw bytes of
/// the coefficients that escaped.
pub fn quantize(coeffs: &[f64], step: f64) -> (Vec<i32>, Vec<u8>) {
    let mut q = Vec::with_capacity(coeffs.len());
    let mut raw: Vec<u8> = Vec::new();
    for &c in coeffs {
        let qi = round_shift(c / step);
        if !qi.is_finite() || qi.abs() >= Q_CLAMP as f64 {
            q.push(ESCAPE);
            raw.extend_from_slice(&c.to_le_bytes());
        } else {
            q.push(qi as i32);
        }
    }
    (q, raw)
}

/// The coefficients `quantize` stands for — what the encoder inverts to find
/// its outliers and what the decoder inverts to reconstruct.
pub fn dequantize(q: &[i32], raw: &[u8], step: f64) -> Result<Vec<f64>, CompressError> {
    let mut escapes = raw.chunks_exact(8);
    let mut coeffs = try_with_capacity::<f64>(q.len())?;
    for &qi in q {
        coeffs.push(if qi == ESCAPE {
            let chunk = escapes
                .next()
                .ok_or(CompressError::WrongFormat("raw coefficient channel exhausted"))?;
            f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
        } else {
            qi as f64 * step
        });
    }
    Ok(coeffs)
}

/// Write the four sections: the indices and escapes of [`quantize`], then a
/// correction for every point of `field` that `recon` — the inverse transform
/// of [`dequantize`] — misses by more than `abs_eb`: (position delta,
/// residual index), so the pointwise error is ≤ `abs_eb` everywhere.
pub fn write<T: Scalar>(
    w: &mut ByteWriter,
    q: &[i32],
    raw: &[u8],
    field: &Field<T>,
    recon: &[f64],
    abs_eb: f64,
) {
    let mut corrections = ByteWriter::new();
    let mut n_corr = 0u64;
    let mut last = 0usize;
    for (i, (&orig, &rec)) in field.as_slice().iter().zip(recon).enumerate() {
        let of = orig.to_f64();
        // The bound must hold on the value *as stored* (after rounding to
        // T), so every check below goes through T::from_f64.
        let stored_err = |v: f64| (T::from_f64(v).to_f64() - of).abs();
        if stored_err(rec) <= abs_eb && of.is_finite() {
            continue;
        }
        let shifted = round_shift((of - rec) / abs_eb);
        let qr = shifted as i64;
        corrections.put_uvarint((i - last) as u64);
        last = i;
        let quantized_ok = shifted.is_finite()
            && shifted.abs() < Q_CLAMP as f64
            && of.is_finite()
            && stored_err(rec + qr as f64 * abs_eb) <= abs_eb;
        if quantized_ok {
            corrections.put_ivarint(qr);
        } else {
            corrections.put_ivarint(EXACT);
            corrections.put_f64(of);
        }
        n_corr += 1;
    }
    w.put_block(&encode_indices(q));
    w.put_block(raw);
    w.put_uvarint(n_corr);
    w.put_block(&corrections.finish());
}

/// The channel's four sections, as [`Sections::parse`] reads them.
#[derive(Default)]
pub struct Sections<'a> {
    index: &'a [u8],
    raw: &'a [u8],
    n_corr: u64,
    corrections: &'a [u8],
}

impl<'a> Sections<'a> {
    /// Parse the sections off `r`, naming their spans.
    pub fn parse(spans: &mut Spans, r: &mut ByteReader<'a>) -> Result<Self, CompressError> {
        let index = spans.block("index", r)?;
        let raw = spans.block("raw", r)?;
        if !raw.len().is_multiple_of(8) {
            return Err(CompressError::WrongFormat("raw coefficient block misaligned"));
        }
        let n_corr = r.get_uvarint()?;
        spans.push("framing", r.pos());
        Ok(Sections { index, raw, n_corr, corrections: spans.block("corrections", r)? })
    }

    /// Decode the `n` coefficients quantized at `step`.
    pub fn dequantize(&self, n: usize, step: f64) -> Result<Vec<f64>, CompressError> {
        let q = qip_codec::decode_indices_capped(self.index, n)?;
        if q.len() != n {
            return Err(CompressError::WrongFormat("coefficient count mismatch"));
        }
        dequantize(&q, self.raw, step)
    }

    /// Apply the corrections to the inverse-transformed `values`.
    pub fn correct(&self, values: &mut [f64], abs_eb: f64) -> Result<(), CompressError> {
        let mut r = ByteReader::new(self.corrections);
        let mut pos = 0usize;
        for k in 0..self.n_corr {
            let delta = r.get_uvarint()? as usize;
            pos = if k == 0 { delta } else { pos.saturating_add(delta) };
            let value = values
                .get_mut(pos)
                .ok_or(CompressError::WrongFormat("correction position out of range"))?;
            match r.get_ivarint()? {
                EXACT => *value = r.get_f64()?,
                qr => *value += qr as f64 * abs_eb,
            }
        }
        if r.remaining() != 0 {
            return Err(CompressError::Corrupt("trailing bytes after the last correction"));
        }
        Ok(())
    }
}
