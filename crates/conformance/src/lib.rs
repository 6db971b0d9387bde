//! qip-conformance: format pinning, the case matrix, and the properties
//! that run over it, for the QIP workspace.
//!
//! Each part is a library module, so the integration tests (here and in the
//! root package) and the `repro conformance` experiment in `qip-bench` run
//! the same code:
//!
//! - [`matrix`](mod@matrix) — the one case generator: seeded draws of
//!   family × dtype × rank 1–4 × bound, plus fixed hostile rows (a chunked
//!   field, 1×N×1, below `MIN_TILE`, rank 4, constant under `Rel`,
//!   non-finite plants, white noise at the quantizer radius).
//! - [`contract`] — the bound property: every point meets the bound by
//!   `qip_metrics::BoundCheck`, the workspace's one definition (no slack; a
//!   non-finite sample comes back with the same bits), for every registry
//!   compressor through `compress`,
//!   `compress_into` on a dirty context, and the tiled container, and every
//!   QP-on stream decodes to its QP-off twin's bits; violations are
//!   minimized and carry a stage trace.
//! - [`differential`] — path identity: serial, reusable-context and traced
//!   runs are byte/bit identical, one context reused across every case.
//! - [`tiles`] — tiled identity: at 1, 2 and 8 workers, tile streams equal
//!   the inner compressor's, the writer equals the parallel path, and every
//!   read path (`read_region` over seam-crossing and seeded random regions
//!   included) is byte-identical to slicing the full decode.
//! - [`golden`] — committed golden fixtures in two grids served by one
//!   pipeline: flat streams per registry compressor × precision ×
//!   dimensionality (`manifest.tsv`), and tiled containers
//!   (`tiled_manifest.tsv`). [`Grid::verify`] detects encoder drift, decoder
//!   drift, and fixture rot; [`Grid::bless`] regenerates the fixtures after
//!   an *intentional* format change (`repro conformance --bless`).
//!
//! Synthetic inputs come from [`fields`], whose generators are arithmetic-only
//! so fixtures are bit-reproducible across platforms.

#![warn(missing_docs)]

pub mod contract;
pub mod differential;
pub mod fields;
pub mod golden;
pub mod matrix;
pub mod tiles;

pub use contract::{contract_suite, ContractStats, Violation};
pub use differential::{path_identity_suite, Divergence};
pub use fields::{synth, FieldFamily};
pub use golden::{
    default_dir, tiled_specs, vector_specs, GoldenFinding, Grid, VectorSpec, GOLDEN_BOUND,
};
pub use matrix::{hostile, matrix, Case};
pub use tiles::{tile_identity_suite, SWEEP_THREADS};
