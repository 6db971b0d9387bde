//! One module per paper table/figure group (see DESIGN.md §4 for the index).

pub mod ablate;
pub mod characterize;
pub mod config_explore;
pub mod conformance;
pub mod inspect;
pub mod monitor;
pub mod rd;
pub mod serve;
pub mod slo;
pub mod sota;
pub mod tiles;
pub mod transfer;

use std::path::{Path, PathBuf};

/// Canonical cross-run benchmark history file: `BENCH_history.jsonl` at the
/// repository root. Every writer appends here regardless of `--out` (per-run
/// artifacts like `BENCH_serve.json` still land in `--out`), so the trend
/// file cannot split between `results/` and the root again.
/// `QIP_BENCH_HISTORY=PATH` overrides the location — tests use it to keep
/// smoke runs from appending to the committed file.
pub fn history_path() -> PathBuf {
    if let Some(p) = std::env::var_os("QIP_BENCH_HISTORY") {
        return PathBuf::from(p);
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels below the repo root")
        .join("BENCH_history.jsonl")
}

/// Append one run to a history file as the self-contained line
/// `{"ts_unix":…,"scale":…,"<key>":<doc>}`, creating parent directories as
/// needed. The key names the writer (`"serve"`, `"slo"`; hand-written `perf/`
/// lines use `"perf"`), so a reader picks its own lines out of the shared
/// file.
pub fn append_history_at<T: serde::Serialize>(
    path: &Path,
    key: &str,
    scale: usize,
    doc: &T,
) -> std::io::Result<()> {
    use std::io::Write;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"ts_unix\":{ts},\"scale\":{scale},\"{key}\":{}}}\n",
        serde_json::to_string(doc).expect("serializable document")
    );
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(line.as_bytes())?;
    eprintln!("[history appended to {}]", path.display());
    Ok(())
}

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
