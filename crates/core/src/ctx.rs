//! Reusable compression scratch arena.
//!
//! Every `compress`/`decompress` call in the workspace historically allocated
//! its working state — quantization-index streams, channel buffers,
//! per-level quantizers, entropy-stage output — from scratch. A
//! [`CompressCtx`] owns all of that once; threading it through
//! [`Compressor::compress_into`](crate::Compressor::compress_into) /
//! [`Compressor::decompress_into`](crate::Compressor::decompress_into) lets a
//! long-running caller (bench harness, streaming service, CLI batch mode)
//! amortize those allocations across calls.
//!
//! The arena is deliberately type-erased where possible (`Vec<i32>`,
//! `Vec<u8>`) and typed through [`ScalarPools`] where not, so one context
//! serves fields of any shape and scalar type interchangeably. Compressors
//! must clear/resize every buffer they use before reading it — reuse may
//! never leak state between calls (pinned by the workspace equivalence
//! tests).

use crate::QpChoice;
use qip_quant::QuantizerBank;
use qip_tensor::ScalarPools;

/// Scratch arena for the buffer-reusing compression paths.
///
/// All fields are plain buffers; `CompressCtx::default()` is empty and every
/// buffer grows on first use, so creating one is cheap. A context is not
/// shareable across threads mid-call (the compressors take `&mut`), but may
/// be moved freely between calls.
#[derive(Debug, Default)]
pub struct CompressCtx {
    /// The quantization-index stream in the entropy coder's order: the
    /// engines quantize into it and run QP on it in place (`Q → Q′` before
    /// the entropy stage, `Q′ → Q` after it).
    pub qprime: Vec<i32>,
    /// Anchor-channel (or coarse-level) byte scratch.
    pub anchors: Vec<u8>,
    /// Unpredictable-channel byte scratch.
    pub unpred: Vec<u8>,
    /// Typed scalar working planes (`f32`/`f64` working copies of fields).
    pub pools: ScalarPools,
    /// Per-level quantizer bank.
    pub quantizers: QuantizerBank,
    /// Entropy-stage / nested-stream output scratch.
    pub stream: Vec<u8>,
    /// Row-tile `f64` scratch of the chunked kernels (accumulator and
    /// prediction of the tile in flight).
    pub tile_f64: Vec<f64>,
    /// Row-tile quantization-index scratch of the chunked kernels.
    pub tile_idx: Vec<i32>,
    /// The QP level-prefix choice's histograms and pass records.
    pub qp_choice: QpChoice,
}

impl CompressCtx {
    /// Create an empty context. Buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all retained capacity, returning the context to its pristine
    /// state. Useful after compressing an unusually large field.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_empty_and_reset_drops_capacity() {
        let mut ctx = CompressCtx::new();
        assert!(ctx.qprime.is_empty());
        ctx.qprime.resize(1024, 0);
        ctx.stream.extend_from_slice(&[1, 2, 3]);
        ctx.reset();
        assert!(ctx.qprime.is_empty() && ctx.qprime.capacity() == 0);
        assert!(ctx.stream.is_empty());
    }
}
