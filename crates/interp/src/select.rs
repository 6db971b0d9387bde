//! Per-level parameter auto-selection (compression side only).
//!
//! Every preset chooses the interpolation family per level, HPEZ additionally
//! the axes its multi-dimensional passes average over, by measuring
//! prediction error on a sample of the level's points (the choice is
//! recorded in the stream, so the decompressor never repeats the search).
//! Sampling reads the working buffer as-is: processed points hold
//! reconstructed values, unprocessed points still hold originals — the same
//! approximation the original auto-tuners make.

use crate::config::{default_order, EngineConfig, LevelParams, PassStructure};
use crate::engine::predict_point;
use crate::lattice::{build_passes, for_each_point, Pass};
use qip_predict::InterpKind;
use qip_tensor::Scalar;

/// Target number of sampled points per pass during selection.
const SAMPLE_TARGET: usize = 384;

/// Mean absolute prediction error of a (kind, axis-mask) candidate on a
/// sample of the points of `passes` (one level's passes under one order).
fn sampled_error<T: Scalar>(
    passes: &[Pass],
    dims: &[usize],
    strides: &[usize],
    buf: &[T],
    kind: InterpKind,
    axis_mask: u8,
) -> f64 {
    let mut err = 0.0f64;
    let mut count = 0usize;
    for pass in passes {
        let total = pass.len(dims);
        if total == 0 {
            continue;
        }
        let m = ((total as f64 / SAMPLE_TARGET as f64).powf(1.0 / dims.len() as f64).ceil()
            as usize)
            .max(1);
        let sub = pass.subsampled(m);
        for_each_point(&sub, dims, strides, |coords, flat| {
            let pred = predict_point(buf, dims, strides, coords, flat, pass, kind, axis_mask);
            err += (pred - buf[flat].to_f64()).abs();
            count += 1;
        });
    }
    if count == 0 {
        0.0
    } else {
        err / count as f64
    }
}

/// Choose this level's interpolation kind (linear or cubic) and, for
/// multi-dimensional passes, its axis mask; the order is always the
/// [`default_order`].
pub fn choose_level_params<T: Scalar>(
    cfg: &EngineConfig,
    dims: &[usize],
    strides: &[usize],
    buf: &[T],
    level: usize,
) -> LevelParams {
    let order = default_order(dims.len());
    let passes = build_passes(dims.len(), level, &order, cfg.passes);

    // HPEZ-style dynamic dimension freezing: for multi-dimensional passes,
    // also search which axes may contribute to the prediction.
    let masks: Vec<u8> = if cfg.passes == PassStructure::MultiDim {
        (1u8..(1 << dims.len())).collect()
    } else {
        vec![0xFF]
    };

    // First strict minimum in (kind, mask) iteration order.
    let mut best: Option<(f64, InterpKind, u8)> = None;
    for kind in [InterpKind::Linear, InterpKind::Cubic] {
        for &axis_mask in &masks {
            let e = sampled_error(&passes, dims, strides, buf, kind, axis_mask);
            if best.is_none_or(|(be, ..)| e < be) {
                best = Some((e, kind, axis_mask));
            }
        }
    }
    let (_, kind, axis_mask) = best.expect("at least one candidate");
    LevelParams { kind, order, axis_mask }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qip_tensor::{Field, Shape};

    fn strides_of(dims: &[usize]) -> Vec<usize> {
        Shape::new(dims).strides().to_vec()
    }

    #[test]
    fn cubic_wins_on_smooth_cubic_data() {
        let dims = [65usize];
        let field = Field::<f64>::from_fn(Shape::new(&dims), |c| {
            let t = c[0] as f64 / 8.0;
            t * t * t - 2.0 * t * t + t
        });
        let cfg = EngineConfig::sz3_like(0);
        let p = choose_level_params(&cfg, &dims, &strides_of(&dims), field.as_slice(), 1);
        assert_eq!(p.kind, InterpKind::Cubic);
    }

    #[test]
    fn selection_deterministic() {
        let dims = [21usize, 18, 11];
        let field = Field::<f32>::from_fn(Shape::new(&dims), |c| {
            ((c[0] * 3 + c[1] * 5 + c[2] * 7) % 23) as f32 * 0.1
        });
        let cfg = EngineConfig::hpez_like(0);
        let a = choose_level_params(&cfg, &dims, &strides_of(&dims), field.as_slice(), 2);
        let b = choose_level_params(&cfg, &dims, &strides_of(&dims), field.as_slice(), 2);
        assert_eq!(a, b);
    }
}
