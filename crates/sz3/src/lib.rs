//! SZ3: dynamic-spline-interpolation error-bounded lossy compressor.
//!
//! Reimplementation of the SZ3 pipeline the paper builds on (paper Sec. IV-A):
//! multilevel linear/cubic interpolation with per-level spline selection, the
//! linear-scaling quantizer, and Huffman→LZ encoding — with the multilevel
//! machinery provided by [`qip_interp`]. Like the original, SZ3 does not run
//! interpolation unconditionally: it also implements the multidimensional
//! **Lorenzo** predictor pipeline and switches to it when a priced trial on
//! a sample block says interpolation loses (the behaviour the paper calls
//! out on SegSalt at 1E-5, where QP is consequently never invoked).
//!
//! QP integration (paper Algorithm 1) is a configuration switch:
//!
//! ```
//! use qip_sz3::Sz3;
//! use qip_core::{Compressor, ErrorBound, QpConfig};
//! use qip_tensor::{Field, Shape};
//!
//! let field = Field::<f32>::from_fn(Shape::d3(32, 32, 32), |c| {
//!     (c[0] as f32 * 0.1).sin() + (c[1] as f32 * 0.07).cos() + c[2] as f32 * 0.01
//! });
//! let plain = Sz3::new();
//! let with_qp = Sz3::new().with_qp(QpConfig::best_fit());
//! let a = plain.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
//! let b = with_qp.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
//! // Same decompressed bytes, different (usually smaller) stream:
//! let da: Field<f32> = plain.decompress(&a).unwrap();
//! let db: Field<f32> = with_qp.decompress(&b).unwrap();
//! assert_eq!(da.as_slice(), db.as_slice());
//! ```

#![warn(missing_docs)]

pub mod lorenzo;
pub mod regression;

use qip_codec::{ByteReader, Span, Spans};
use qip_core::{CompressCtx, CompressError, Compressor, ErrorBound, QpConfig};
use qip_interp::{sample_block, trial_scope, EngineConfig, InterpEngine};
use qip_telemetry::{count, span, Label};
use qip_tensor::{Field, Scalar};

/// Stream magic for the SZ3 wrapper.
const MAGIC_SZ3: u8 = 0x20;
/// Magic for the nested interpolation-engine stream.
const MAGIC_SZ3_INTERP: u8 = 0x21;

/// Predictor pipeline selected for a stream; the discriminant is the
/// stream's pipeline tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// Multilevel interpolation (the common case).
    Interpolation = 0,
    /// Multidimensional Lorenzo scan (small-error-bound fallback).
    Lorenzo = 1,
}

/// Reset `out` to the SZ3 wrapper: magic plus a pipeline tag to be filled in.
fn begin_stream(out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[MAGIC_SZ3, 0]);
}

/// The SZ3 compressor.
#[derive(Debug, Clone)]
pub struct Sz3 {
    qp: QpConfig,
    /// Force a pipeline instead of auto-switching (used by the
    /// characterization experiments, which need the interpolation indices).
    force: Option<Pipeline>,
}

impl Sz3 {
    /// SZ3 with QP disabled and automatic predictor switching.
    pub fn new() -> Self {
        Sz3 { qp: QpConfig::off(), force: None }
    }

    /// Enable/replace the QP configuration (builder style).
    pub fn with_qp(mut self, qp: QpConfig) -> Self {
        self.qp = qp;
        self
    }

    /// Pin the predictor pipeline, disabling the auto-switch.
    pub fn with_pipeline(mut self, p: Pipeline) -> Self {
        self.force = Some(p);
        self
    }

    /// The active QP configuration.
    pub fn qp(&self) -> &QpConfig {
        &self.qp
    }

    /// Capture the quantization index arrays of the interpolation pipeline
    /// (characterization API for the paper's Figs. 3-5). Always uses the
    /// interpolation predictor, since the Lorenzo fallback has no clustering.
    pub fn quant_capture<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
    ) -> Result<qip_interp::QuantCapture, CompressError> {
        Ok(self.engine().compress_capturing(field, bound)?.1)
    }

    /// The interpolation engine behind the wrapper's pipeline tag 0.
    pub fn engine(&self) -> InterpEngine {
        let mut cfg = EngineConfig::sz3_like(MAGIC_SZ3_INTERP);
        cfg.qp = self.qp;
        InterpEngine::new(cfg)
    }

    /// Decide the pipeline from a trial on a central sample block with both
    /// predictors, keeping the one with the smaller stream (mirrors SZ3's
    /// sampling-based predictor selection). Both candidates quantize as the
    /// real run would, but their index blocks are priced
    /// ([`qip_codec::price_indices`]), not coded: only the two lengths are
    /// compared, and a field of at most 32 per axis — its own sample block —
    /// is then compressed once more by the winner. The trial reuses the
    /// caller's context and writes behind the two wrapper bytes `out` holds
    /// on entry, which it leaves holding them again.
    fn choose_pipeline_with<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Pipeline {
        let _trial = trial_scope("select_pipeline");
        let block = &sample_block(field, 32);
        // Resolve the bound against the *full* field so both trials and the
        // real run quantize identically. The trial runs QP-blind (paper
        // Algorithm 1 intercepts the pipeline after predictor selection), so
        // enabling QP never changes which pipeline — and hence which
        // decompressed bytes — a stream produces.
        let abs = bound.resolve(field).as_abs();
        let wrapper = out.len();
        let priced = |run: Result<(), CompressError>, out: &mut Vec<u8>| {
            let len = run.map_or(usize::MAX, |()| out.len() - wrapper);
            // A failed run leaves `out` unspecified.
            begin_stream(out);
            len
        };
        let interp_len = priced(Sz3::new().engine().price_append(block, abs, ctx, out), out);
        let lorenzo_len = priced(lorenzo::price_append(block, abs, ctx, out), out);
        // Mild preference for interpolation (SZ3's default algorithm): the
        // small-block trial systematically understates interpolation, which
        // has fewer levels and proportionally larger header overhead there.
        if (lorenzo_len as f64) < interp_len as f64 * 0.92 {
            Pipeline::Lorenzo
        } else {
            Pipeline::Interpolation
        }
    }

    /// Verify the seal and parse the wrapper — the one description of it,
    /// for decoding, forensics and experiment reporting alike.
    pub fn parse(sealed: &[u8]) -> Result<Sz3Stream<'_>, CompressError> {
        let bytes = qip_core::integrity::check(sealed)?;
        let mut r = ByteReader::new(bytes);
        let mut spans = Spans::default();
        if r.get_u8()? != MAGIC_SZ3 {
            return Err(CompressError::WrongFormat("not an SZ3 stream"));
        }
        let pipeline = match r.get_u8()? {
            0 => Pipeline::Interpolation,
            1 => Pipeline::Lorenzo,
            _ => return Err(CompressError::WrongFormat("bad SZ3 pipeline tag")),
        };
        spans.push("wrapper", r.pos());
        let body = r.rest();
        spans.push("body", r.pos());
        Ok(Sz3Stream { pipeline, body, spans: spans.finish(&r, sealed.len() - bytes.len())? })
    }
}

/// One SZ3 stream, as [`Sz3::parse`] reads it.
pub struct Sz3Stream<'a> {
    /// The predictor pipeline the wrapper's tag names.
    pub pipeline: Pipeline,
    /// The nested stream: an engine stream or a [`lorenzo`] stream.
    pub body: &'a [u8],
    /// `wrapper`, `body` and `seal` spans of the sealed stream.
    pub spans: Vec<Span>,
}

impl Default for Sz3 {
    fn default() -> Self {
        Self::new()
    }
}

/// Count which predictor pipeline the trial selection picked.
fn count_pipeline_choice(p: Pipeline) {
    let name = match p {
        Pipeline::Interpolation => "interpolation",
        Pipeline::Lorenzo => "lorenzo",
    };
    count("sz3.pipeline", Label::Named("pipeline", name), 1);
}

impl<T: Scalar> Compressor<T> for Sz3 {
    fn name(&self) -> String {
        if self.qp.is_enabled() {
            "SZ3+QP".into()
        } else {
            "SZ3".into()
        }
    }

    fn compress_into(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        begin_stream(out);
        let pipeline = match self.force {
            Some(p) => p,
            // Small fields: interpolation, no trial needed.
            None if field.len() < 4096 => Pipeline::Interpolation,
            None => self.choose_pipeline_with(field, bound, ctx, out),
        };
        count_pipeline_choice(pipeline);
        out[1] = pipeline as u8;
        match pipeline {
            Pipeline::Interpolation => self.engine().compress_append(field, bound, ctx, out)?,
            Pipeline::Lorenzo => lorenzo::compress_append(field, bound, ctx, out)?,
        }
        let _t = span("seal");
        qip_core::integrity::seal_in_place(out);
        Ok(())
    }

    fn decompress_into(
        &self,
        bytes: &[u8],
        ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError> {
        let stream = Sz3::parse(bytes)?;
        match stream.pipeline {
            Pipeline::Interpolation => self.engine().decompress_with(stream.body, ctx),
            Pipeline::Lorenzo => lorenzo::decode(&lorenzo::parse::<T>(stream.body)?, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qip_metrics::max_abs_error;
    use qip_tensor::Shape;

    fn smooth(dims: &[usize]) -> Field<f32> {
        Field::from_fn(Shape::new(dims), |c| {
            let x = c[0] as f32;
            let y = c.get(1).copied().unwrap_or(0) as f32;
            let z = c.get(2).copied().unwrap_or(0) as f32;
            (0.09 * x).sin() * (0.05 * y).cos() + 0.01 * z
        })
    }

    #[test]
    fn qp_preserves_decompressed_data() {
        let f = smooth(&[40, 30, 20]);
        let plain = Sz3::new();
        let qp = Sz3::new().with_qp(QpConfig::best_fit());
        let a: Field<f32> =
            plain.decompress(&plain.compress(&f, ErrorBound::Abs(1e-4)).unwrap()).unwrap();
        let b: Field<f32> =
            qp.decompress(&qp.compress(&f, ErrorBound::Abs(1e-4)).unwrap()).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn name_reflects_qp() {
        assert_eq!(Compressor::<f32>::name(&Sz3::new()), "SZ3");
        assert_eq!(Compressor::<f32>::name(&Sz3::new().with_qp(QpConfig::best_fit())), "SZ3+QP");
    }

    #[test]
    fn forced_pipelines_roundtrip() {
        let f = smooth(&[30, 22, 11]);
        for p in [Pipeline::Interpolation, Pipeline::Lorenzo] {
            let sz3 = Sz3::new().with_pipeline(p);
            let bytes = sz3.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
            assert_eq!(Sz3::parse(&bytes).unwrap().pipeline, p);
            let out = sz3.decompress(&bytes).unwrap();
            assert!(max_abs_error(&f, &out) <= 1e-3 + 1e-9);
        }
    }

    #[test]
    fn decompress_either_pipeline_without_hint() {
        // The auto decompressor must handle streams regardless of the
        // pipeline chosen at compression time.
        let f = smooth(&[34, 34, 8]);
        let enc_l = Sz3::new().with_pipeline(Pipeline::Lorenzo);
        let bytes = enc_l.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        let out = Sz3::new().decompress(&bytes).unwrap();
        assert!(max_abs_error(&f, &out) <= 1e-3 + 1e-9);
    }

    #[test]
    fn garbage_rejected() {
        let res: Result<Field<f32>, _> = Sz3::new().decompress(&[0u8; 3]);
        assert!(res.is_err());
        assert!(Sz3::parse(&qip_core::integrity::seal(vec![MAGIC_SZ3, 7])).is_err());
    }
}
