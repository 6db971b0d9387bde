//! Rate-distortion sweeps: paper Figs. 10–15.
//!
//! For every dataset: the four base compressors with and without QP, across
//! the error-bound sweep. QP never changes the decompressed data, so each
//! `+QP` point is a pure left-shift of its base point in the rate-distortion
//! plane — exactly the presentation of the paper's figures. The harness also
//! reports the maximum CR increase and the PSNR where it occurs (the paper's
//! per-figure annotation).

use super::{Opts, EB_SWEEP};
use crate::report::{fmt, print_table, write_jsonl};
use crate::runner::{run_once, RunRecord};
use qip_core::{Compressor, QpConfig};
use qip_data::Dataset;
use qip_registry::AnyCompressor;

/// Run the rate-distortion sweep for one dataset (one paper figure).
pub fn run_dataset(ds: Dataset, opts: &Opts) {
    let dims = ds.scaled_dims(opts.scale);
    let n_fields = opts.fields.min(ds.n_fields()).max(1);
    let mut records: Vec<RunRecord> = Vec::new();
    let mut rows = Vec::new();

    for field_idx in 0..n_fields {
        // S3D is natively double precision; everything else f32.
        if ds.is_double() {
            let field = ds.generate_f64(field_idx, &dims);
            for base in AnyCompressor::base_four(QpConfig::off()) {
                let name = Compressor::<f64>::name(&base);
                let with = AnyCompressor::by_name(&format!("{name}+QP")).unwrap();
                for &eb in &EB_SWEEP {
                    records.push(run_once(&base, ds.name(), field_idx, &field, eb));
                    records.push(run_once(&with, ds.name(), field_idx, &field, eb));
                }
            }
        } else {
            let field = ds.generate_f32(field_idx, &dims);
            for base in AnyCompressor::base_four(QpConfig::off()) {
                let name = Compressor::<f32>::name(&base);
                let with = AnyCompressor::by_name(&format!("{name}+QP")).unwrap();
                for &eb in &EB_SWEEP {
                    records.push(run_once(&base, ds.name(), field_idx, &field, eb));
                    records.push(run_once(&with, ds.name(), field_idx, &field, eb));
                }
            }
        }
    }

    // Table: one row per (compressor, eb), averaging over fields.
    let mut base_names: Vec<String> = Vec::new();
    for r in &records {
        let base = r.compressor.trim_end_matches("+QP").to_string();
        if !base_names.contains(&base) {
            base_names.push(base);
        }
    }
    let mut best_gain: (f64, f64, String) = (0.0, 0.0, String::new());
    for base in &base_names {
        for &eb in &EB_SWEEP {
            let pick = |suffix: &str| -> Vec<&RunRecord> {
                let want = format!("{base}{suffix}");
                records
                    .iter()
                    .filter(|r| r.compressor == want && r.rel_eb == eb)
                    .collect()
            };
            let avg = |rs: &[&RunRecord], f: fn(&RunRecord) -> f64| -> f64 {
                if rs.is_empty() {
                    return f64::NAN;
                }
                rs.iter().map(|r| f(r)).sum::<f64>() / rs.len() as f64
            };
            let plain = pick("");
            let qp = pick("+QP");
            let (cr0, cr1) = (avg(&plain, |r| r.cr), avg(&qp, |r| r.cr));
            let psnr = avg(&plain, |r| r.psnr);
            let gain = (cr1 / cr0 - 1.0) * 100.0;
            if gain > best_gain.0 {
                best_gain = (gain, psnr, base.clone());
            }
            rows.push(vec![
                base.clone(),
                format!("{eb:.0e}"),
                fmt(avg(&plain, |r| r.bitrate)),
                fmt(psnr),
                fmt(cr0),
                fmt(cr1),
                format!("{gain:+.1}%"),
            ]);
        }
    }
    print_table(
        &format!(
            "Rate-distortion, {} dataset (dims {dims:?}, {n_fields} field(s))",
            ds.name()
        ),
        &["Compressor", "eb", "bitrate", "PSNR", "CR", "CR+QP", "QP gain"],
        &rows,
    );
    println!(
        "max QP improvement: {:+.1}% on {} at PSNR {:.2}",
        best_gain.0, best_gain.2, best_gain.1
    );
    let _ = write_jsonl(&opts.out, &format!("rd_{}", ds.name().to_lowercase()), &records);
}
