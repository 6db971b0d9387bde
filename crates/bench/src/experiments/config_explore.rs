//! QP configuration exploration: paper Figs. 7, 8, 9.
//!
//! Each experiment measures the *compression ratio increase rate* of a QP
//! configuration over the vanilla base compressor (SZ3, interpolation
//! pipeline pinned so the Lorenzo switch can't mask the comparison), on the
//! paper's two exploration fields (SegSalt Pressure-like and Miranda
//! Velocityx-like) across the error-bound sweep.

use super::{Opts, EB_SWEEP};
use crate::report::{print_table, write_jsonl};
use qip_core::{Compressor, Condition, PredMode, QpConfig};
use qip_data::Dataset;
use qip_interp::QuantCapture;
use qip_sz3::{Pipeline, Sz3};
use qip_tensor::Field;
use serde::Serialize;

#[derive(Serialize)]
struct ConfigRecord {
    experiment: &'static str,
    dataset: String,
    rel_eb: f64,
    config: String,
    cr_base: f64,
    cr_qp: f64,
    increase_pct: f64,
}

fn exploration_fields(opts: &Opts) -> Vec<(String, Field<f32>)> {
    vec![
        (
            "SegSalt/Pressure".into(),
            Dataset::SegSalt.generate_f32(0, &Dataset::SegSalt.scaled_dims(opts.scale)),
        ),
        (
            "Miranda/Velocityx".into(),
            Dataset::Miranda.generate_f32(0, &Dataset::Miranda.scaled_dims(opts.scale)),
        ),
    ]
}

fn sweep(
    experiment: &'static str,
    title: &str,
    opts: &Opts,
    configs: &[(String, QpConfig)],
) {
    let fields = exploration_fields(opts);
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (ds, field) in &fields {
        for &eb in &EB_SWEEP {
            let base = Sz3::new().with_pipeline(Pipeline::Interpolation);
            let base_len = base
                .compress(field, qip_core::ErrorBound::Rel(eb))
                .expect("base compression")
                .len() as f64;
            let mut row = vec![ds.clone(), format!("{eb:.0e}")];
            for (label, cfg) in configs {
                let c = Sz3::new().with_pipeline(Pipeline::Interpolation).with_qp(*cfg);
                let len = c
                    .compress(field, qip_core::ErrorBound::Rel(eb))
                    .expect("qp compression")
                    .len() as f64;
                let inc = (base_len / len - 1.0) * 100.0;
                row.push(format!("{inc:+.2}%"));
                records.push(ConfigRecord {
                    experiment,
                    dataset: ds.clone(),
                    rel_eb: eb,
                    config: label.clone(),
                    cr_base: 1.0,
                    cr_qp: base_len / len,
                    increase_pct: inc,
                });
            }
            rows.push(row);
        }
    }
    let mut headers: Vec<&str> = vec!["dataset", "eb"];
    let labels: Vec<String> = configs.iter().map(|(l, _)| l.clone()).collect();
    headers.extend(labels.iter().map(|s| s.as_str()));
    print_table(title, &headers, &rows);
    let _ = write_jsonl(&opts.out, experiment, &records);
}

/// Paper Fig. 7: prediction dimension (1D-Back / 1D-Top / 1D-Left / 2D / 3D).
pub fn fig7(opts: &Opts) {
    let mk = |mode| QpConfig { mode, condition: Condition::CaseIII, max_level: 2 };
    let configs = vec![
        ("1D-Back".to_string(), mk(PredMode::Back1)),
        ("1D-Top".to_string(), mk(PredMode::Top1)),
        ("1D-Left".to_string(), mk(PredMode::Left1)),
        ("2D".to_string(), mk(PredMode::Lorenzo2d)),
        ("3D".to_string(), mk(PredMode::Lorenzo3d)),
    ];
    sweep("fig7_dims", "Fig. 7: CR increase rate by prediction dimension", opts, &configs);
}

/// Paper Fig. 8: gating condition Cases I–IV.
pub fn fig8(opts: &Opts) {
    let mk = |condition| QpConfig { mode: PredMode::Lorenzo2d, condition, max_level: 2 };
    let configs = vec![
        ("Case I".to_string(), mk(Condition::CaseI)),
        ("Case II".to_string(), mk(Condition::CaseII)),
        ("Case III".to_string(), mk(Condition::CaseIII)),
        ("Case IV".to_string(), mk(Condition::CaseIV)),
    ];
    sweep("fig8_conditions", "Fig. 8: CR increase rate by condition case", opts, &configs);
}

/// Paper Fig. 9: start level (highest level still predicted).
///
/// The encoder treats `max_level` as a ceiling and keeps the prefix its
/// index entropy favours, so the paper's forced-prefix curve ("levels ≤ l")
/// is computed, not compressed: one capture under ceiling 5 holds `Q′` on
/// every level, and `forced_prefix_len` prices each prefix. The
/// "adaptive" column is the encoder's own stream under that ceiling, and
/// "kept" the prefix it chose.
pub fn fig9(opts: &Opts) {
    const CEILING: usize = 5;
    let fields = exploration_fields(opts);
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let sz3 = || Sz3::new().with_pipeline(Pipeline::Interpolation);
    let qp =
        QpConfig { mode: PredMode::Lorenzo2d, condition: Condition::CaseIII, max_level: CEILING };
    for (ds, field) in &fields {
        for &eb in &EB_SWEEP {
            let bound = qip_core::ErrorBound::Rel(eb);
            let base_len = sz3().compress(field, bound).expect("base compression").len() as f64;
            let with = sz3().with_qp(qp);
            let len = with.compress(field, bound).expect("qp compression").len();
            let cap = with.quant_capture(field, bound).expect("capture");
            let mut row = vec![ds.clone(), format!("{eb:.0e}")];
            let forced = (1..=CEILING)
                .map(|l| (format!("levels ≤{l}"), forced_prefix_len(len, &cap, l)));
            for (label, len) in forced.chain([("adaptive".to_string(), len)]) {
                let inc = (base_len / len as f64 - 1.0) * 100.0;
                row.push(format!("{inc:+.2}%"));
                records.push(ConfigRecord {
                    experiment: "fig9_levels",
                    dataset: ds.clone(),
                    rel_eb: eb,
                    config: label,
                    cr_base: 1.0,
                    cr_qp: base_len / len as f64,
                    increase_pct: inc,
                });
            }
            row.push(cap.max_level.to_string());
            rows.push(row);
        }
    }
    let labels: Vec<String> = (1..=CEILING).map(|l| format!("levels ≤{l}")).collect();
    let mut headers: Vec<&str> = vec!["dataset", "eb"];
    headers.extend(labels.iter().map(|s| s.as_str()));
    headers.extend(["adaptive", "kept"]);
    print_table("Fig. 9: CR increase rate by start level (forced) and adaptive", &headers, &rows);
    let _ = write_jsonl(&opts.out, "fig9_levels", &records);
}

/// The stream length had the encoder kept QP on levels `1..=l` instead of
/// the prefix it chose: `stream_len` with its index block repriced by
/// [`qip_codec::lossless::encode_indices`] over the capture's `Q`/`Q′`
/// prefix. Both index streams are encoded in spatial layout, so the coder's
/// order-dependent stages see the same order on either side.
pub(crate) fn forced_prefix_len(stream_len: usize, cap: &QuantCapture, l: usize) -> usize {
    let size = |q: Vec<i32>| qip_codec::lossless::encode_indices(&q).len();
    stream_len + size(cap.with_prefix(l)) - size(cap.encoded())
}
