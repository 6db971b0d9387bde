//! Bit identity of MGARD's in-place row kernels (`decompose` / `recompose`)
//! against the former point-by-point walk.
//!
//! The production sweeps resolve a row's corners once and update the plane
//! in place. The reference below is the walk as first written — every point
//! handed its coordinates by `for_each_point`, its `2^|O|` corners rebuilt by
//! a mask loop with bounds tests (`corner_avg`), every result staged as a
//! `(flat, value)` pair and scattered back after the pass — kept here, and
//! only here, so every shape, rank and stop level can be checked bit for bit
//! against it.

use qip_core::{CompressError, Compressor, ErrorBound, QpConfig};
use qip_interp::lattice::{build_passes, for_each_point, num_levels, Pass};
use qip_interp::PassStructure;
use qip_mgard::{decompose, recompose, Mgard};
use qip_metrics::max_abs_error;
use qip_tensor::{Field, Shape};

mod reference {
    use super::*;

    /// Multilinear prediction: mean of the `2^|O|` coarse corners at ±s
    /// along the odd axes (boundary corners that fall outside the field are
    /// dropped).
    fn corner_avg(
        buf: &[f64],
        dims: &[usize],
        strides: &[usize],
        coords: &[usize],
        flat: usize,
        pass: &Pass,
    ) -> f64 {
        let s = pass.stride;
        let axes = &pass.interp_axes;
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for mask in 0..1usize << axes.len() {
            let mut idx = flat as isize;
            let mut ok = true;
            for (bit, &a) in axes.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    if coords[a] + s >= dims[a] {
                        ok = false;
                        break;
                    }
                    idx += (s * strides[a]) as isize;
                } else {
                    idx -= (s * strides[a]) as isize;
                }
            }
            if ok {
                sum += buf[idx as usize];
                count += 1;
            }
        }
        assert!(count > 0);
        sum / count as f64
    }

    /// One pass, staged: `forward` stores `value − prediction`, the inverse
    /// `prediction + detail`.
    fn pass_staged(
        buf: &mut [f64],
        dims: &[usize],
        strides: &[usize],
        pass: &Pass,
        forward: bool,
        pairs: &mut Vec<(usize, f64)>,
    ) {
        if pass.is_empty(dims) {
            return;
        }
        pairs.clear();
        for_each_point(pass, dims, strides, |coords, flat| {
            let pred = corner_avg(buf, dims, strides, coords, flat, pass);
            pairs.push((flat, if forward { buf[flat] - pred } else { pred + buf[flat] }));
        });
        for &(flat, v) in pairs.iter() {
            buf[flat] = v;
        }
    }

    pub fn decompose(buf: &mut [f64], shape: &Shape) {
        let (dims, strides) = (shape.dims(), shape.strides());
        let order: Vec<usize> = (0..dims.len()).rev().collect();
        let mut pairs = Vec::new();
        for level in 1..=num_levels(*dims.iter().max().unwrap()) {
            for pass in build_passes(dims.len(), level, &order, PassStructure::MultiDim) {
                pass_staged(buf, dims, strides, &pass, true, &mut pairs);
            }
        }
    }

    pub fn recompose(buf: &mut [f64], shape: &Shape, stop_level: usize) {
        let (dims, strides) = (shape.dims(), shape.strides());
        let order: Vec<usize> = (0..dims.len()).rev().collect();
        let mut pairs = Vec::new();
        for level in ((stop_level + 1).max(1)..=num_levels(*dims.iter().max().unwrap())).rev() {
            for pass in build_passes(dims.len(), level, &order, PassStructure::MultiDim) {
                pass_staged(buf, dims, strides, &pass, false, &mut pairs);
            }
        }
    }

    /// MGARD's quantizer applied to a decomposed plane, as the decoder
    /// rebuilds it: each detail of level `l` becomes `2·q·b_l`, or stays raw
    /// when it escapes the radius; coarse nodes stay raw.
    pub fn quantize(buf: &mut [f64], shape: &Shape, eb: f64) {
        let dims = shape.dims();
        let levels = num_levels(*dims.iter().max().unwrap());
        let mut coords = vec![0usize; dims.len()];
        for v in buf.iter_mut() {
            let level = 1 + coords.iter().map(|&c| if c == 0 { 64 } else { c.trailing_zeros() as usize }).min().unwrap();
            if level <= levels {
                let b = 0.9 * eb * 0.5f64.powi(level as i32);
                let qf = (*v / (2.0 * b)).round();
                if qf.is_finite() && qf.abs() < (1 << 20) as f64 {
                    *v = 2.0 * qf as i32 as f64 * b;
                }
            }
            for a in (0..dims.len()).rev() {
                coords[a] += 1;
                if coords[a] < dims[a] {
                    break;
                }
                coords[a] = 0;
            }
        }
    }
}

/// The shapes of the four benchmark workloads.
const WORKLOAD_SHAPES: [&[usize]; 4] = [&[64, 96, 96], &[96, 96, 64], &[96, 96, 64], &[32, 48, 48]];

/// Edge shapes: degenerate axes, single points, odd and even extents, rank 4.
const EDGE_SHAPES: [&[usize]; 10] = [
    &[1, 40, 1],
    &[2, 2, 2],
    &[1, 1, 1],
    &[3, 1, 7],
    &[9, 6, 5, 7],
    &[16, 9, 12, 5],
    &[2, 33, 2, 17],
    &[1000],
    &[2],
    &[65, 3],
];

/// A deterministic plane mixing a smooth trend, noise, exact zeros and
/// negative zeros (the sums start from `0.0`, so `-0.0` corners must add the
/// same way).
fn plane(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (0..n)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            match state >> 60 {
                0 => 0.0,
                1 => -0.0,
                _ => (i as f64 * 0.013).sin() * 40.0 + noise,
            }
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn all_shapes() -> impl Iterator<Item = &'static [usize]> {
    EDGE_SHAPES.into_iter().chain(WORKLOAD_SHAPES)
}

#[test]
fn decompose_matches_the_point_walk() {
    for dims in all_shapes() {
        let shape = Shape::new(dims);
        let mut new = plane(shape.len(), 1);
        let mut old = new.clone();
        decompose(&mut new, &shape);
        reference::decompose(&mut old, &shape);
        assert!(bits(&new) == bits(&old), "{dims:?}: decomposition diverged");
    }
}

#[test]
fn recompose_matches_the_point_walk_at_every_stop_level() {
    for dims in all_shapes() {
        let shape = Shape::new(dims);
        let levels = num_levels(*dims.iter().max().unwrap());
        // An arbitrary coefficient plane, and the decomposition of one.
        let mut decomposed = plane(shape.len(), 2);
        reference::decompose(&mut decomposed, &shape);
        for coeffs in [plane(shape.len(), 3), decomposed] {
            for stop in 0..=levels {
                let mut new = coeffs.clone();
                let mut old = coeffs.clone();
                recompose(&mut new, &shape, stop);
                reference::recompose(&mut old, &shape, stop);
                assert!(bits(&new) == bits(&old), "{dims:?} stop {stop}: recomposition diverged");
            }
        }
    }
}

#[test]
fn reduced_decompression_matches_the_point_walk() {
    let shapes = EDGE_SHAPES.into_iter().chain([WORKLOAD_SHAPES[3]]);
    for dims in shapes {
        let shape = Shape::new(dims);
        let levels = num_levels(*dims.iter().max().unwrap());
        let field = Field::<f64>::from_vec(shape.clone(), plane(shape.len(), 4)).unwrap();
        let eb = 1e-2;
        for qp in [QpConfig::off(), QpConfig::best_fit()] {
            let m = Mgard::new().with_qp(qp);
            let bytes = m.compress(&field, ErrorBound::Abs(eb)).unwrap();
            let mut coeffs = field.as_slice().to_vec();
            reference::decompose(&mut coeffs, &shape);
            reference::quantize(&mut coeffs, &shape, eb);
            for stop in 0..=levels {
                let mut old = coeffs.clone();
                reference::recompose(&mut old, &shape, stop);
                let old = Field::from_vec(shape.clone(), old).unwrap().decimate(1 << stop);
                let new: Field<f64> = m.decompress_reduced(&bytes, stop).unwrap();
                assert_eq!(new.shape(), old.shape(), "{dims:?} stop {stop}");
                assert!(
                    bits(new.as_slice()) == bits(old.as_slice()),
                    "{dims:?} qp={qp:?} stop {stop}: reduced decode diverged"
                );
            }
            let full: Field<f64> = m.decompress(&bytes).unwrap();
            let plain: Field<f64> = m.decompress_reduced(&bytes, 0).unwrap();
            assert!(bits(full.as_slice()) == bits(plain.as_slice()), "{dims:?}: stop 0");
        }
    }
}

#[test]
fn sweeps_are_exact_on_linear_fields() {
    // Multilinear prediction is exact on linear fields at any level, so every
    // detail of a point whose corners are all inside is (close to) zero. A
    // level writes no node that a coarser level reads, so the details of
    // levels 2 and 3 are predicted from the original linear values too.
    let shape = Shape::d3(9, 9, 9);
    let linear = |c: &[usize]| 2.0 * c[2] as f64 - c[1] as f64 + 0.5 * c[0] as f64 + 3.0;
    let mut buf: Vec<f64> = (0..729).map(|i| linear(&[i / 81, i / 9 % 9, i % 9])).collect();
    let orig = buf.clone();
    decompose(&mut buf, &shape);
    let mut checked = [0usize; 3];
    for (i, d) in buf.iter().enumerate() {
        let c = [i / 81, i / 9 % 9, i % 9];
        for (k, s) in [1usize, 2, 4].into_iter().enumerate() {
            // A node of stride `s`: a multiple of `s` on every axis, an odd
            // multiple on at least one, and every `+s` corner inside.
            let of_level = c.iter().all(|&x| x % s == 0) && c.iter().any(|&x| (x / s) % 2 == 1);
            if of_level && c.iter().all(|&x| x + s < 9) {
                assert!(d.abs() < 1e-9, "stride {s} at {c:?}: detail {d}");
                checked[k] += 1;
            }
        }
    }
    // 8³ − 4³ finest nodes, 4³ − 2³ at stride 2, 2³ − 1 at stride 4.
    assert_eq!(checked, [448, 56, 7]);
    recompose(&mut buf, &shape, 0);
    for (a, b) in buf.iter().zip(&orig) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn stop_levels_the_container_refuses_are_refused() {
    let f = Field::<f32>::from_fn(Shape::d3(16, 16, 16), |c| (c[0] + 2 * c[1] + c[2]) as f32);
    let m = Mgard::new();
    let bytes = m.compress(&f, ErrorBound::Abs(1e-2)).unwrap();
    for stop in [32usize, 64, 65, usize::MAX] {
        let res: Result<Field<f32>, _> = m.decompress_reduced(&bytes, stop);
        assert!(
            matches!(res, Err(CompressError::Unsupported("stop level out of range"))),
            "stop {stop}: {res:?}"
        );
    }
    // The highest accepted stop level is the coarse lattice itself.
    let coarse: Field<f32> = m.decompress_reduced(&bytes, 31).unwrap();
    assert_eq!(coarse.shape().dims(), &[1, 1, 1]);
}

#[test]
fn reduced_decompression_matches_decimated_full() {
    // The coarse lattice of the reduced reconstruction approximates the
    // decimated original within a few levels' error budgets.
    let f = Field::<f32>::from_fn(Shape::d3(33, 29, 21), |c| {
        (c[0] as f32 * 0.15).sin() + 0.4 * (c[1] as f32 * 0.1).cos() + c[2] as f32 * 0.01
    });
    let m = Mgard::new();
    let bytes = m.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
    for stop in [1usize, 2] {
        let reduced: Field<f32> = m.decompress_reduced(&bytes, stop).unwrap();
        let expect = f.decimate(1 << stop);
        assert_eq!(reduced.shape(), expect.shape(), "stop {stop}");
        // Coarse nodes carry the full hierarchy error budget at most.
        let err = max_abs_error(&expect, &reduced);
        assert!(err <= 1e-3 + 1e-9, "stop {stop}: err {err}");
    }
}

#[test]
fn stop_level_zero_is_full_resolution() {
    let f = Field::<f32>::from_fn(Shape::d3(17, 15, 11), |c| (c[0] + c[1] + c[2]) as f32);
    let m = Mgard::new();
    let bytes = m.compress(&f, ErrorBound::Abs(1e-2)).unwrap();
    let full: Field<f32> = m.decompress(&bytes).unwrap();
    let reduced: Field<f32> = m.decompress_reduced(&bytes, 0).unwrap();
    assert_eq!(full.as_slice(), reduced.as_slice());
}
