//! The pipeline trial never changes a byte.
//!
//! A field of at most 32 per axis is its own sample block, and SZ3 then
//! keeps the winning trial stream instead of compressing a third time. Pinned
//! here: whatever `compress_into` emits — kept trial stream or fresh run,
//! whole-field or sampled block, QP off or on, either pipeline — equals the
//! stream of the same compressor with that pipeline forced, and equals
//! `compress`, on one context reused across every case.

use qip_core::{CompressCtx, Compressor, ErrorBound, QpConfig};
use qip_sz3::{Pipeline, Sz3};
use qip_tensor::{Field, Scalar};

const SHAPES: [[usize; 3]; 4] = [[16, 16, 16], [32, 32, 32], [33, 32, 32], [48, 48, 48]];

/// Checks one case and returns the pipeline it chose.
fn check<T: Scalar>(
    field: &Field<T>,
    bound: ErrorBound,
    qp: QpConfig,
    ctx: &mut CompressCtx,
    out: &mut Vec<u8>,
) -> Pipeline {
    let what = format!("{:?} {bound:?} {qp:?}", field.shape().dims());
    let sz3 = Sz3::new().with_qp(qp);
    sz3.compress_into(field, bound, ctx, out).unwrap();
    let pipeline = Sz3::parse(out).unwrap().pipeline;
    let forced = sz3.clone().with_pipeline(pipeline).compress(field, bound).unwrap();
    assert!(*out == forced, "{what}: auto stream != forced {pipeline:?} stream");
    assert!(*out == sz3.compress(field, bound).unwrap(), "{what}: compress_into != compress");
    let back: Field<T> = sz3.decompress(out).unwrap();
    assert_eq!(back.shape(), field.shape(), "{what}");
    pipeline
}

#[test]
fn auto_stream_equals_the_forced_pipeline_stream() {
    let mut ctx = CompressCtx::new();
    let mut out = vec![0xAA; 9]; // dirty reused buffer
    let mut chosen: Vec<(bool, Pipeline)> = Vec::new();
    for dims in SHAPES {
        let whole = dims.iter().all(|&d| d <= 32);
        // Smooth turbulence under a loose bound, where interpolation wins,
        // and vortex winds under tight ones, where Lorenzo does.
        let smooth = qip_data::miranda_like(7, &dims);
        let windy = qip_data::hurricane_like(7, &dims);
        for (field, bound) in [
            (&smooth, ErrorBound::Rel(1e-2)),
            (&smooth, ErrorBound::Rel(1e-3)),
            (&windy, ErrorBound::Rel(1e-4)),
            (&windy, ErrorBound::Abs(1e-3)),
        ] {
            for qp in [QpConfig::off(), QpConfig::best_fit()] {
                chosen.push((whole, check(field, bound, qp, &mut ctx, &mut out)));
            }
        }
    }
    for whole in [true, false] {
        for p in [Pipeline::Interpolation, Pipeline::Lorenzo] {
            assert!(chosen.contains(&(whole, p)), "no case chose {p:?} with whole-field = {whole}");
        }
    }
}

#[test]
fn f64_and_four_d_fields_take_the_same_path() {
    let mut ctx = CompressCtx::new();
    let mut out = Vec::new();
    let f = qip_data::s3d_like(3, &[32, 24, 32]);
    check(&f, ErrorBound::Rel(1e-4), QpConfig::off(), &mut ctx, &mut out);
    check(&f, ErrorBound::Rel(1e-4), QpConfig::best_fit(), &mut ctx, &mut out);
    // 4-D: the Lorenzo trial is unsupported, so the interpolation trial
    // stream is the one kept.
    let dims = [8usize, 8, 8, 9];
    let g = Field::<f32>::from_fn(qip_tensor::Shape::new(&dims), |c| {
        (c[0] as f32 * 0.3).sin() + (c[1] + c[2]) as f32 * 0.05 - (c[3] as f32 * 0.2).cos()
    });
    let p = check(&g, ErrorBound::Abs(1e-3), QpConfig::off(), &mut ctx, &mut out);
    assert_eq!(p, Pipeline::Interpolation);
}

/// A disabled QP configuration other than `QpConfig::off()` is written into
/// the stream header, so the (QP-off) trial stream must not stand in for it.
#[test]
fn disabled_but_distinct_qp_config_is_not_served_the_trial_stream() {
    let mut qp = QpConfig::best_fit();
    qp.max_level = 0;
    assert!(!qp.is_enabled() && qp != QpConfig::off());
    let f = qip_data::miranda_like(2, &[32, 32, 32]);
    check(&f, ErrorBound::Rel(1e-3), qp, &mut CompressCtx::new(), &mut Vec::new());
}
