//! Multilevel interpolation compression engine (the SZ3-family substrate).
//!
//! This crate implements the interpolation-based compression pipeline that
//! SZ3, QoZ and HPEZ share (paper Sec. IV-A): the field is decomposed into
//! levels with stride `2^(l−1)`; each level predicts its new lattice points by
//! spline interpolation from already-reconstructed points, quantizes the
//! residuals, and hands the quantization index array to the Huffman→LZ stack.
//! The QP hook (paper Algorithm 1) fires inside each interpolation pass with
//! the pass geometry, so the same engine serves as the integration surface for
//! the paper's contribution.
//!
//! Engine features are orthogonal switches, combined differently by the three
//! compressors built on top (QoZ and HPEZ are the two presets of [`Tuned`]):
//!
//! | feature | SZ3 | QoZ | HPEZ |
//! |---|---|---|---|
//! | per-level linear/cubic auto-selection | ✓ | ✓ | ✓ |
//! | anchor grid stored losslessly | — | ✓ | ✓ |
//! | per-level error bounds (α/β) | — | ✓ | ✓ |
//! | per-level dimension-order auto-tuning | — | — | ✓ |
//! | multi-dimensional (parity-class) interpolation | — | — | ✓ |
//!
//! The driver ([`engine`] over the tile walk in [`kernels`]) visits levels →
//! passes → rows → tiles in one code path shared by compression and
//! decompression, which makes the two sides symmetric by construction — the
//! property QP's reversibility depends on. The point-by-point form of the same
//! walk is an in-crate test oracle (`reference.rs`, `cfg(test)` only).

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod kernels;
pub mod lattice;
#[cfg(test)]
mod reference;
pub mod select;
pub mod tuned;

pub use config::{EngineConfig, LevelParams, PassStructure};
pub use engine::{
    keep_best_prefix, transform_pass, EngineForensics, InterpEngine, LevelForensics, Probe,
    QuantCapture, SinkStats,
};
pub use tuned::{sample_block, trial_scope, Preset, Tuned};
