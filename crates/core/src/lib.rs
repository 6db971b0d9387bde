//! The paper's primary contribution: adaptive **Quantization index Prediction**
//! (QP) for interpolation-based error-bounded lossy compressors, plus the
//! shared compressor abstractions the rest of the workspace builds on.
//!
//! # What QP is
//!
//! Interpolation-based compressors emit a quantization index array `Q` whose
//! entries remain spatially correlated in the plane orthogonal to each
//! interpolation pass (the "clustering effect", paper Sec. IV). QP applies a
//! *reversible* integer prediction `Q'[i] = Q[i] − quant_pred(Q[1..i−1])`
//! inline with the quantization loop, lowering the entropy handed to the
//! Huffman/LZ stage without changing a single decompressed value.
//!
//! The engine in [`qp`] implements the generic Algorithm 1 hook and the
//! best-fit `quant_pred` subroutine of Algorithm 2 — 2-D Lorenzo on the
//! orthogonal plane, Case III gating, levels 1–2 — together with every other
//! configuration the paper explores (prediction dimension, Fig. 7; condition
//! cases, Fig. 8; start level, Fig. 9).
//!
//! # Shared abstractions
//!
//! [`Compressor`], [`ErrorBound`], [`CompressError`] and the self-describing
//! [`header`] are used by every compressor (`qip-sz3`, `qip-interp`'s QoZ and
//! HPEZ presets, `qip-mgard`, and the transform-based comparators).

#![warn(missing_docs)]

pub mod bound;
pub mod capability;
pub mod coeffs;
pub mod compressor;
pub mod ctx;
pub mod header;
pub mod integrity;
pub mod qp;
pub mod qp_choice;

pub use bound::{ErrorBound, ResolvedBound};
pub use capability::{ProgressiveDecompress, RegionDecompress};
pub use compressor::{try_with_capacity, try_zeroed_vec, CompressError, Compressor};
pub use ctx::CompressCtx;
pub use header::StreamHeader;
pub use qp::{Condition, Neighbors, PredMode, QpConfig, QpEngine, QpTaps, QpVisit};
pub use qp_choice::QpChoice;

/// Re-export of the reserved unpredictable-data label.
pub use qip_quant::UNPRED;
