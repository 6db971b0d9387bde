//! Experiment harness behind the `repro` CLI.
//!
//! What `repro` holds: the paper's evaluation section (Tables I, II, IV and
//! Figs. 3–18) with its runner ([`run_once`]), PSNR alignment by bisection
//! ([`find_eb_for_psnr`], Table II's "align PSNR to 75" protocol) and
//! plain-text/JSONL reporting; the golden-vector conformance suite with its
//! `--bless` tool; and `monitor`, the ≤ 2 % telemetry-overhead gate, whose
//! paired stopwatch is [`timing`]. Compressors come from
//! `qip_registry::AnyCompressor`. Throughput is measured by `perf/`, not here;
//! the serving, tiled-container and forensics gates live in those crates'
//! test suites.

#![warn(missing_docs)]

pub mod alloc_track;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod timing;

pub use report::{print_table, write_jsonl};
pub use runner::{find_eb_for_psnr, run_once, PsnrMiss, RunRecord};
