//! qip-conformance: format pinning, differential oracles, and the
//! error-bound contract suite for the QIP workspace.
//!
//! Three pillars, each a library module so both the integration tests here
//! and the `repro conformance` experiment in `qip-bench` run the same code:
//!
//! - [`golden`] — committed golden fixtures in two grids served by one
//!   pipeline: flat streams per registry compressor × precision ×
//!   dimensionality (`manifest.tsv`), and tiled containers
//!   (`tiled_manifest.tsv`). [`Grid::verify`] detects encoder drift, decoder
//!   drift, and fixture rot; [`Grid::bless`] regenerates the fixtures after
//!   an *intentional* format change (`repro conformance --bless`).
//! - [`differential`] — the four execution paths (serial, reusable-ctx,
//!   traced, tiled) must produce byte/bit-identical results, and the
//!   tiled path must be invariant under `RAYON_NUM_THREADS`.
//! - [`contract`] — a seeded random suite asserting the paper's reversibility
//!   contract pointwise (`|d − d'| ≤ ε`) for every registry compressor, with
//!   greedy counterexample minimization and stage-trace replay on failure.
//! - [`tiles`] — the region oracle of the tiled container format:
//!   `read_region` over seeded random regions is byte-identical to slicing
//!   the full decode.
//!
//! Synthetic inputs come from [`fields`], whose generators are arithmetic-only
//! so fixtures are bit-reproducible across platforms.

#![warn(missing_docs)]

pub mod contract;
pub mod differential;
pub mod fields;
pub mod golden;
pub mod tiles;

pub use contract::{contract_suite, ContractStats, Violation};
pub use differential::{path_identity_suite, thread_sweep_suite, Divergence, SWEEP_THREADS};
pub use fields::{synth, FieldFamily};
pub use golden::{
    default_dir, tiled_specs, vector_specs, GoldenFinding, Grid, VectorSpec, GOLDEN_BOUND,
};
pub use tiles::{region_oracle_suite, RegionDivergence, REGION_CASES};
