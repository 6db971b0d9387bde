//! # QIP — Adaptive Quantization Index Prediction for scientific lossy compressors
//!
//! Facade crate re-exporting the whole workspace. See the README for a tour and
//! `DESIGN.md` for the system inventory; the per-crate docs carry the details.
//!
//! Quick taste (see `examples/quickstart.rs` for the full version):
//!
//! ```
//! use qip::prelude::*;
//!
//! let field = qip::data::miranda_like(0, &[32, 32, 32]);
//! let sz3 = qip::sz3::Sz3::default().with_qp(QpConfig::best_fit());
//! let bytes = sz3.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
//! let restored: Field<f32> = sz3.decompress(&bytes).unwrap();
//! assert!(qip::metrics::max_abs_error(&field, &restored) <= 1e-3 + 1e-9);
//! ```

#![warn(missing_docs)]

pub use qip_codec as codec;
pub use qip_container as container;
pub use qip_core as core;
pub use qip_data as data;
pub use qip_inspect as inspect;
pub use qip_interp as interp;
pub use qip_metrics as metrics;
pub use qip_mgard as mgard;
pub use qip_predict as predict;
pub use qip_quant as quant;
pub use qip_registry as registry;
pub use qip_serve as serve;
pub use qip_sperr as sperr;
pub use qip_sz3 as sz3;
pub use qip_telemetry as telemetry;
pub use qip_tensor as tensor;
pub use qip_transfer as transfer;
pub use qip_tthresh as tthresh;
pub use qip_zfp as zfp;

/// The name the frozen `perf/src/layers.rs` imports; delete with ROADMAP item 2.
pub mod parallel {
    pub use qip_container::TiledCompressor as BlockParallel;
}

/// Common imports for downstream users: field container, error bound, the
/// compressor trait (plus the region/progressive capability traits), and the
/// QP configuration type.
pub mod prelude {
    pub use qip_core::{
        Compressor, ErrorBound, ProgressiveDecompress, QpConfig, RegionDecompress,
    };
    pub use qip_tensor::{Field, Region, Scalar, Shape};
}
