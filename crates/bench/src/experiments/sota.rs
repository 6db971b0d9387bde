//! Comparison with the state of the art: paper Table IV.
//!
//! Eleven rows — the four base compressors, their +QP versions, and the
//! transform-based comparators ZFP / TTHRESH / SPERR — on Miranda and
//! SegSalt at relative bounds 1E-3 and 1E-5, reporting CR, PSNR and both
//! throughputs.

use super::Opts;
use crate::report::{fmt, print_table, write_jsonl};
use crate::runner::{run_once, RunRecord};
use qip_core::Compressor;
use qip_data::Dataset;
use qip_registry::AnyCompressor;

/// Table IV's compressor rows, in paper order.
fn rows() -> Vec<AnyCompressor> {
    let mut out = Vec::new();
    for base in ["MGARD", "SZ3", "QoZ", "HPEZ"] {
        out.push(AnyCompressor::by_name(base).unwrap());
        out.push(AnyCompressor::by_name(&format!("{base}+QP")).unwrap());
    }
    out.extend(AnyCompressor::comparators());
    out
}

/// Run Table IV.
pub fn run(opts: &Opts) {
    let mut records: Vec<RunRecord> = Vec::new();
    for ds in [Dataset::Miranda, Dataset::SegSalt] {
        let dims = ds.scaled_dims(opts.scale);
        let field = ds.generate_f32(0, &dims);
        let mut table = Vec::new();
        for comp in rows() {
            let mut row = vec![Compressor::<f32>::name(&comp)];
            for &eb in &[1e-3f64, 1e-5] {
                let rec = run_once(&comp, ds.name(), 0, &field, eb);
                row.extend([
                    fmt(rec.cr),
                    fmt(rec.psnr),
                    fmt(rec.compress_mbs),
                    fmt(rec.decompress_mbs),
                ]);
                records.push(rec);
            }
            table.push(row);
        }
        print_table(
            &format!("Table IV ({}) — eb 1E-3 then 1E-5", ds.name()),
            &[
                "Compressor",
                "CR@1e-3",
                "PSNR",
                "Sc MB/s",
                "Sd MB/s",
                "CR@1e-5",
                "PSNR",
                "Sc MB/s",
                "Sd MB/s",
            ],
            &table,
        );
    }
    let _ = write_jsonl(&opts.out, "table4", &records);
}
