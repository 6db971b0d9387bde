//! The compressor trait and error type shared across the workspace.

use crate::{CompressCtx, ErrorBound};
use qip_codec::CodecError;
use qip_tensor::{Field, Scalar, TensorError};

/// Errors surfaced by compression or decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Underlying codec failure (truncated/corrupt stream).
    Codec(CodecError),
    /// Underlying tensor failure (shape/buffer mismatch).
    Tensor(TensorError),
    /// The stream was produced by a different compressor or format version.
    WrongFormat(&'static str),
    /// The input violates a precondition of this compressor.
    Unsupported(&'static str),
    /// The stream failed an integrity or consistency check (bit rot,
    /// truncation past the header, or a forged/damaged trailer).
    Corrupt(&'static str),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Codec(e) => write!(f, "codec error: {e}"),
            CompressError::Tensor(e) => write!(f, "tensor error: {e}"),
            CompressError::WrongFormat(m) => write!(f, "wrong format: {m}"),
            CompressError::Unsupported(m) => write!(f, "unsupported input: {m}"),
            CompressError::Corrupt(m) => write!(f, "corrupt stream: {m}"),
        }
    }
}

impl std::error::Error for CompressError {}

impl From<CodecError> for CompressError {
    fn from(e: CodecError) -> Self {
        CompressError::Codec(e)
    }
}

impl From<TensorError> for CompressError {
    fn from(e: TensorError) -> Self {
        CompressError::Tensor(e)
    }
}

/// Fallibly allocate a zero-initialised decode buffer of `n` elements.
///
/// Decoders size their output from header fields; even after the integrity
/// trailer passes, a forged-but-consistent stream can declare volumes near the
/// header cap, so the allocation must fail as [`CompressError::Corrupt`]
/// rather than abort the process.
pub fn try_zeroed_vec<T: Clone + Default>(n: usize) -> Result<Vec<T>, CompressError> {
    let mut v = Vec::new();
    v.try_reserve_exact(n)
        .map_err(|_| CompressError::Corrupt("declared size exceeds available memory"))?;
    v.resize(n, T::default());
    Ok(v)
}

/// Fallibly reserve capacity for `n` elements (empty vector, `Corrupt` on
/// allocation failure). Companion to [`try_zeroed_vec`] for buffers filled
/// by `push`.
pub fn try_with_capacity<T>(n: usize) -> Result<Vec<T>, CompressError> {
    let mut v = Vec::new();
    v.try_reserve_exact(n)
        .map_err(|_| CompressError::Corrupt("declared size exceeds available memory"))?;
    Ok(v)
}

/// An error-bounded lossy compressor over fields of `T`.
///
/// Streams are self-describing: `decompress` recovers the shape from the
/// stream header, and the error-bound contract is
/// `|d[i] − decompress(compress(d))[i]| ≤ ε` for the resolved absolute ε.
///
/// An implementation writes one body per direction: the required
/// [`compress_into`](Compressor::compress_into) and
/// [`decompress_into`](Compressor::decompress_into) take everything a call
/// can be given (scratch context, output buffer). `compress` / `decompress`
/// are those two under a fresh [`CompressCtx`], defined here and nowhere else,
/// so both entry points produce identical bytes by construction.
pub trait Compressor<T: Scalar> {
    /// Short stable name used in experiment reports ("SZ3", "QoZ+QP", …).
    fn name(&self) -> String;

    /// Compress `field` under `bound` into `out`, reusing scratch from `ctx`.
    ///
    /// `out` is cleared first and holds the whole stream on success. A
    /// compressor without reusable scratch ignores `ctx`; one with it must
    /// never let state leak between calls (pinned by the workspace
    /// equivalence tests).
    fn compress_into(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError>;

    /// Decompress a stream produced by this compressor, reusing scratch from
    /// `ctx`.
    fn decompress_into(
        &self,
        bytes: &[u8],
        ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError>;

    /// [`Compressor::compress_into`] with a fresh context and output buffer.
    fn compress(&self, field: &Field<T>, bound: ErrorBound) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::new();
        self.compress_into(field, bound, &mut CompressCtx::new(), &mut out)?;
        Ok(out)
    }

    /// [`Compressor::decompress_into`] with a fresh context.
    fn decompress(&self, bytes: &[u8]) -> Result<Field<T>, CompressError> {
        self.decompress_into(bytes, &mut CompressCtx::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions() {
        let c: CompressError = CodecError::UnexpectedEof.into();
        assert!(matches!(c, CompressError::Codec(_)));
        let t: CompressError = TensorError::BadBytes("x").into();
        assert!(matches!(t, CompressError::Tensor(_)));
    }

    #[test]
    fn display_messages() {
        let c = CompressError::WrongFormat("not an SZ3 stream");
        assert!(c.to_string().contains("not an SZ3 stream"));
    }
}
