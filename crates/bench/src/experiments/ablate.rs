//! Ablations beyond the paper's own sweeps (DESIGN.md §8).
//!
//! Five studies isolating the design choices the paper argues for:
//! 1. level-gated vs all-levels QP (the paper's Sec. V-C3 rationale),
//! 2. Case I at large bounds (the unpredictable-data guard's value),
//! 3. the lossless (LZ) stage's contribution on top of Huffman,
//! 4. QoZ's anchor grid on/off,
//! 5. QP applied to Lorenzo-pipeline indices (the paper's "future work"
//!    question: does the method generalize beyond interpolation? — spoiler,
//!    Sec. VI-B: Lorenzo residuals lack the clustering QP needs).

use super::config_explore::forced_prefix_len;
use super::Opts;
use crate::report::{print_table, write_jsonl};
use qip_codec::{huffman, lossless};
use qip_core::{Compressor, Condition, ErrorBound, PredMode, QpConfig};
use qip_data::Dataset;
use qip_interp::{EngineConfig, InterpEngine};
use qip_metrics::entropy;
use qip_sz3::{lorenzo, Pipeline, Sz3};
use serde::Serialize;

#[derive(Serialize)]
struct AblateRecord {
    study: &'static str,
    variant: String,
    rel_eb: f64,
    bytes: usize,
    cr_vs_baseline: f64,
}

/// Run all ablation studies on the SegSalt-like exploration field.
pub fn run(opts: &Opts) {
    let dims = Dataset::SegSalt.scaled_dims(opts.scale);
    let field = Dataset::SegSalt.generate_f32(0, &dims);
    let mut records = Vec::new();

    // --- 1. QP level gate ---------------------------------------------------
    // The forced prefixes are priced from one all-levels capture (the encoder
    // itself keeps the prefix its index entropy favours: the adaptive row).
    {
        let mut rows = Vec::new();
        for &eb in &[1e-3f64, 1e-4] {
            let base = Sz3::new().with_pipeline(Pipeline::Interpolation);
            let base_len =
                base.compress(&field, ErrorBound::Rel(eb)).unwrap().len() as f64;
            let qp =
                QpConfig { mode: PredMode::Lorenzo2d, condition: Condition::CaseIII, max_level: 200 };
            let with = Sz3::new().with_pipeline(Pipeline::Interpolation).with_qp(qp);
            let adaptive = with.compress(&field, ErrorBound::Rel(eb)).unwrap().len();
            let cap = with.quant_capture(&field, ErrorBound::Rel(eb)).unwrap();
            let kept = format!("adaptive (kept ≤{})", cap.max_level);
            for (label, len) in [
                ("levels ≤2 (paper)", forced_prefix_len(adaptive, &cap, 2)),
                ("all levels", forced_prefix_len(adaptive, &cap, 200)),
                (kept.as_str(), adaptive),
            ] {
                rows.push(vec![
                    label.to_string(),
                    format!("{eb:.0e}"),
                    len.to_string(),
                    format!("{:+.2}%", (base_len / len as f64 - 1.0) * 100.0),
                ]);
                records.push(AblateRecord {
                    study: "level_gate",
                    variant: label.into(),
                    rel_eb: eb,
                    bytes: len,
                    cr_vs_baseline: base_len / len as f64,
                });
            }
        }
        print_table(
            "Ablation 1: QP level gate (vs vanilla SZ3)",
            &["variant", "eb", "bytes", "CR gain"],
            &rows,
        );
    }

    // --- 2. Case I at large bounds ------------------------------------------
    {
        let mut rows = Vec::new();
        for &eb in &[1e-1f64, 1e-2, 1e-4] {
            let base = Sz3::new().with_pipeline(Pipeline::Interpolation);
            let base_len =
                base.compress(&field, ErrorBound::Rel(eb)).unwrap().len() as f64;
            for cond in [Condition::CaseI, Condition::CaseIII] {
                let qp =
                    QpConfig { mode: PredMode::Lorenzo2d, condition: cond, max_level: 2 };
                let len = Sz3::new()
                    .with_pipeline(Pipeline::Interpolation)
                    .with_qp(qp)
                    .compress(&field, ErrorBound::Rel(eb))
                    .unwrap()
                    .len();
                rows.push(vec![
                    format!("{cond:?}"),
                    format!("{eb:.0e}"),
                    format!("{:+.2}%", (base_len / len as f64 - 1.0) * 100.0),
                ]);
                records.push(AblateRecord {
                    study: "case1_large_eb",
                    variant: format!("{cond:?}"),
                    rel_eb: eb,
                    bytes: len,
                    cr_vs_baseline: base_len / len as f64,
                });
            }
        }
        print_table(
            "Ablation 2: gating condition at large bounds (vs vanilla SZ3)",
            &["condition", "eb", "CR gain"],
            &rows,
        );
    }

    // --- 3. Lossless stage contribution -------------------------------------
    {
        let mut rows = Vec::new();
        let sz3 = Sz3::new().with_qp(QpConfig::best_fit());
        for &eb in &[1e-3f64, 1e-5] {
            let cap = sz3.quant_capture(&field, ErrorBound::Rel(eb)).unwrap();
            let huff_only = huffman::encode(&cap.encoded()).len();
            let full = lossless::encode_indices(&cap.encoded()).len();
            rows.push(vec![
                format!("{eb:.0e}"),
                huff_only.to_string(),
                full.to_string(),
                format!("{:+.2}%", (huff_only as f64 / full as f64 - 1.0) * 100.0),
            ]);
            records.push(AblateRecord {
                study: "lz_stage",
                variant: "huffman+lz".into(),
                rel_eb: eb,
                bytes: full,
                cr_vs_baseline: huff_only as f64 / full as f64,
            });
        }
        print_table(
            "Ablation 3: LZ stage on top of Huffman (index stream only)",
            &["eb", "Huffman bytes", "Huffman+LZ bytes", "LZ gain"],
            &rows,
        );
    }

    // --- 5. QP on Lorenzo residuals (future-work probe) ----------------------
    {
        use qip_core::{Neighbors, QpEngine};
        let mut rows = Vec::new();
        for &eb in &[1e-3f64, 1e-4] {
            // Interpolation indices: QP reduces entropy substantially.
            let sz3 = Sz3::new().with_qp(QpConfig::best_fit());
            let cap = sz3.quant_capture(&field, ErrorBound::Rel(eb)).unwrap();
            let interp_drop = entropy(&cap.q) - entropy(&cap.q_prime);

            // Lorenzo indices: apply the same 2-D Lorenzo Case III transform
            // on the row-major scan lattice and measure the entropy change.
            let q = lorenzo::quant_indices(&field, ErrorBound::Rel(eb)).unwrap();
            let dims = field.shape().dims();
            let strides = field.shape().strides();
            let engine = QpEngine::new(QpConfig::best_fit());
            let (s1, s2) = (strides[dims.len() - 2], strides[dims.len() - 1]);
            let (d1, d2) = (dims[dims.len() - 2], dims[dims.len() - 1]);
            let mut qprime = Vec::with_capacity(q.len());
            let mut c2 = 0usize;
            let mut c1 = 0usize;
            for (i, &qi) in q.iter().enumerate() {
                let nb = Neighbors::plane(
                    (c1 > 0).then(|| q[i - s1]),
                    (c2 > 0).then(|| q[i - s2]),
                    (c1 > 0 && c2 > 0).then(|| q[i - s1 - s2]),
                );
                qprime.push(engine.transform(qi, 1, &nb));
                c2 += 1;
                if c2 == d2 {
                    c2 = 0;
                    c1 = (c1 + 1) % d1;
                }
            }
            let lorenzo_drop = entropy(&q) - entropy(&qprime);
            rows.push(vec![
                format!("{eb:.0e}"),
                format!("{interp_drop:+.3} bits"),
                format!("{lorenzo_drop:+.3} bits"),
            ]);
            records.push(AblateRecord {
                study: "qp_on_lorenzo",
                variant: "entropy_drop_interp_vs_lorenzo".into(),
                rel_eb: eb,
                bytes: 0,
                cr_vs_baseline: interp_drop / lorenzo_drop.max(1e-9),
            });
        }
        print_table(
            "Ablation 5: QP entropy reduction — interpolation vs Lorenzo indices",
            &["eb", "interp H(Q)−H(Q')", "Lorenzo H(Q)−H(Q')"],
            &rows,
        );
    }

    // --- 4. QoZ anchor grid --------------------------------------------------
    {
        let mut rows = Vec::new();
        for &eb in &[1e-3f64, 1e-5] {
            for (label, anchor) in [("anchors every 64", Some(6u32)), ("no anchors", None)] {
                let mut cfg = EngineConfig::qoz_like(0x7E);
                cfg.anchor_log2 = anchor;
                let len = InterpEngine::new(cfg)
                    .compress(&field, ErrorBound::Rel(eb))
                    .unwrap()
                    .len();
                rows.push(vec![label.to_string(), format!("{eb:.0e}"), len.to_string()]);
                records.push(AblateRecord {
                    study: "anchors",
                    variant: label.into(),
                    rel_eb: eb,
                    bytes: len,
                    cr_vs_baseline: 1.0,
                });
            }
        }
        print_table("Ablation 4: QoZ anchor grid", &["variant", "eb", "bytes"], &rows);
    }

    let _ = write_jsonl(&opts.out, "ablations", &records);
}
