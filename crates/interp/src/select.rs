//! Per-level parameter auto-selection (compression side only).
//!
//! SZ3/QoZ choose the interpolation family per level, HPEZ additionally the
//! dimension order, by measuring prediction error on a sample of the level's
//! points (the choice is recorded in the stream, so the decompressor never
//! repeats the search). Sampling reads the working buffer as-is: processed
//! points hold reconstructed values, unprocessed points still hold originals
//! — the same approximation the original auto-tuners make.

use crate::config::{default_order, EngineConfig, LevelParams, PassStructure, ORDERS_2D, ORDERS_3D};
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

/// Choose this level's interpolation kind and dimension order.
pub fn choose_level_params<T: Scalar>(
    cfg: &EngineConfig,
    dims: &[usize],
    strides: &[usize],
    buf: &[T],
    level: usize,
) -> LevelParams {
    let kinds: &[InterpKind] = if cfg.select_kind {
        &[InterpKind::Linear, InterpKind::Cubic]
    } else {
        std::slice::from_ref(&cfg.fixed_kind)
    };
    // Dimension order only matters for directional passes (parity classes
    // are order-insensitive up to sequencing), so the order search is skipped
    // for multi-dimensional structures in favor of the axis-mask search.
    let orders: Vec<Vec<usize>> =
        if cfg.select_order && cfg.passes == PassStructure::Directional {
            match dims.len() {
                2 => ORDERS_2D.iter().map(|o| o.to_vec()).collect(),
                3 => ORDERS_3D.iter().map(|o| o.to_vec()).collect(),
                _ => vec![default_order(dims.len())],
            }
        } else {
            vec![default_order(dims.len())]
        };
    // The level's passes depend on the order alone: build them once, not
    // once per (kind, mask) candidate.
    let passes_by_order: Vec<Vec<Pass>> =
        orders.iter().map(|o| build_passes(dims.len(), level, o, cfg.passes)).collect();

    // HPEZ-style dynamic dimension freezing: for multi-dimensional passes,
    // also search which axes may contribute to the prediction.
    let masks: Vec<u8> = if cfg.passes == PassStructure::MultiDim && cfg.select_order {
        (1u8..(1 << dims.len())).collect()
    } else {
        vec![0xFF]
    };

    // First strict minimum in (kind, order, mask) iteration order.
    let mut best: Option<(f64, InterpKind, usize, u8)> = None;
    for &kind in kinds {
        for (o, passes) in passes_by_order.iter().enumerate() {
            for &axis_mask in &masks {
                let e = sampled_error(passes, dims, strides, buf, kind, axis_mask);
                if best.is_none_or(|(be, ..)| e < be) {
                    best = Some((e, kind, o, axis_mask));
                }
            }
        }
    }
    let (_, kind, o, axis_mask) = best.expect("at least one candidate");
    LevelParams { kind, order: orders[o].clone(), axis_mask }
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
    fn fixed_kind_respected_when_selection_off() {
        let dims = [33usize, 17];
        let field = Field::<f32>::from_fn(Shape::new(&dims), |c| (c[0] + c[1]) as f32);
        let mut cfg = EngineConfig::sz3_like(0);
        cfg.select_kind = false;
        cfg.fixed_kind = InterpKind::Linear;
        let p = choose_level_params(&cfg, &dims, &strides_of(&dims), field.as_slice(), 1);
        assert_eq!(p.kind, InterpKind::Linear);
        assert_eq!(p.order, default_order(2));
    }

    #[test]
    fn order_selection_prefers_smooth_axis() {
        // Data varying wildly along axis 1 but smoothly along axis 0:
        // interpolating along axis 0 first (where prediction is cheap) should
        // be preferred by at least not being worse.
        let dims = [33usize, 33];
        let field = Field::<f32>::from_fn(Shape::new(&dims), |c| {
            (c[0] as f32) * 0.01 + ((c[1] * 7919) % 97) as f32
        });
        let mut cfg = EngineConfig::hpez_like(0);
        cfg.select_order = true;
        let p = choose_level_params(&cfg, &dims, &strides_of(&dims), field.as_slice(), 1);
        assert_eq!(p.order.len(), 2);
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
