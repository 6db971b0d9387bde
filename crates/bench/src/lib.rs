//! Experiment harness behind the `repro` CLI.
//!
//! Everything the paper's evaluation section needs in one place: a unified
//! compressor registry ([`AnyCompressor`]), measured runs with timing
//! ([`run_once`]), PSNR alignment by bisection ([`find_eb_for_psnr`], used by
//! Table II's "align PSNR to 75" protocol), plain-text/JSONL reporting, and the
//! one timing module the overhead gates share ([`timing`]). Throughput is
//! measured by `perf/`, not here.

#![warn(missing_docs)]

pub mod alloc_track;
pub mod experiments;
pub mod registry;
pub mod report;
pub mod runner;
pub mod timing;

pub use registry::AnyCompressor;
pub use report::{print_table, write_jsonl};
pub use runner::{find_eb_for_psnr, run_once, PsnrMiss, RunRecord};
