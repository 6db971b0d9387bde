//! One module per paper table/figure group (see DESIGN.md §4 for the index),
//! plus `conformance` (the golden-vector suite and its `--bless` tool) and
//! `monitor` (the ≤ 2 % telemetry-overhead gate).

pub mod ablate;
pub mod characterize;
pub mod config_explore;
pub mod conformance;
pub mod monitor;
pub mod rd;
pub mod sota;
pub mod transfer;

use std::path::PathBuf;

/// Common experiment options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Per-axis divisor applied to the paper dims (1 = paper size).
    pub scale: usize,
    /// Number of fields per dataset to evaluate.
    pub fields: usize,
    /// Output directory for JSONL records and image dumps.
    pub out: PathBuf,
}

impl Default for Opts {
    fn default() -> Self {
        Opts { scale: 4, fields: 1, out: PathBuf::from("results") }
    }
}

/// The relative error bounds used across the evaluation sweeps.
pub const EB_SWEEP: [f64; 4] = [1e-2, 1e-3, 1e-4, 1e-5];
