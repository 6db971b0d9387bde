//! Property tests: the error-bound contract holds for every compressor on
//! randomized fields (the workspace's core invariant).

use proptest::prelude::*;
use qip::prelude::*;

/// Random small 3-D fields mixing smooth structure with noise, the hardest
/// regime for bound enforcement (many unpredictable points).
fn arb_field() -> impl Strategy<Value = Field<f32>> {
    (
        2usize..14,
        2usize..14,
        2usize..14,
        0.0f32..10.0,
        0.0f32..2.0,
        any::<u64>(),
    )
        .prop_map(|(a, b, c, amp, noise, seed)| {
            let mut state = seed | 1;
            Field::from_fn(Shape::d3(a, b, c), |co| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let n = ((state >> 40) as f32 / 16_777_216.0) - 0.5;
                amp * ((co[0] as f32 * 0.4).sin() + (co[1] as f32 * 0.3).cos())
                    + 0.1 * co[2] as f32
                    + noise * n
            })
        })
}

/// All 11 registry compressors: base four with QP off, base four with QP
/// best-fit, and the three comparators.
fn compressors() -> Vec<qip::registry::AnyCompressor> {
    qip::registry::AnyCompressor::registry()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn absolute_bound_holds_for_all_compressors(field in arb_field(), exp in -5i32..-1) {
        let eb = 10f64.powi(exp);
        for comp in compressors() {
            let bytes = comp.compress(&field, ErrorBound::Abs(eb)).expect("compress");
            let out: Field<f32> = comp.decompress(&bytes).expect("decompress");
            let err = qip::metrics::max_abs_error(&field, &out);
            prop_assert!(
                err <= eb * (1.0 + 1e-9),
                "{}: err {} > eb {}",
                Compressor::<f32>::name(&comp),
                err,
                eb
            );
        }
    }

    #[test]
    fn relative_bound_holds_for_all_compressors(field in arb_field(), exp in -4i32..-1) {
        let rel = 10f64.powi(exp);
        let abs = rel * field.value_range();
        for comp in compressors() {
            let bytes = comp.compress(&field, ErrorBound::Rel(rel)).expect("compress");
            let out: Field<f32> = comp.decompress(&bytes).expect("decompress");
            let err = qip::metrics::max_abs_error(&field, &out);
            prop_assert!(
                err <= abs * (1.0 + 1e-9) + f64::MIN_POSITIVE,
                "{}: err {} > {}",
                Compressor::<f32>::name(&comp),
                err,
                abs
            );
        }
    }

    #[test]
    fn streams_decode_to_original_shape(field in arb_field()) {
        for comp in compressors() {
            let bytes = comp.compress(&field, ErrorBound::Rel(1e-2)).expect("compress");
            let out: Field<f32> = comp.decompress(&bytes).expect("decompress");
            prop_assert_eq!(out.shape(), field.shape());
        }
    }

    #[test]
    fn truncated_streams_never_panic(field in arb_field(), cut_num in 0usize..100) {
        for comp in compressors() {
            let bytes = comp.compress(&field, ErrorBound::Rel(1e-2)).expect("compress");
            let cut = cut_num * bytes.len() / 100;
            // Must return (Ok or Err), never panic.
            let _: Result<Field<f32>, _> = comp.decompress(&bytes[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn double_precision_bound_holds(seed in any::<u64>(), exp in -8i32..-2) {
        let eb = 10f64.powi(exp);
        let mut state = seed | 1;
        let field = Field::<f64>::from_fn(Shape::d3(9, 8, 7), |c| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (c[0] as f64 * 0.3).sin() + ((state >> 40) as f64 / 1.6e7) * 0.01
        });
        for comp in compressors() {
            let bytes = Compressor::<f64>::compress(&comp, &field, ErrorBound::Abs(eb)).expect("compress");
            let out: Field<f64> = comp.decompress(&bytes).expect("decompress");
            let err = qip::metrics::max_abs_error(&field, &out);
            prop_assert!(err <= eb * (1.0 + 1e-9), "{}: err {err} > eb {eb}", Compressor::<f64>::name(&comp));
        }
    }
}

/// Non-finite and subnormal samples come back as the same bit pattern and
/// never poison a finite neighbour, through both entry points, flat and tiled,
/// for every registry compressor — or, for MGARD and ZFP (whose transforms
/// have no lossless channel), `compress` refuses the field with a typed error.
/// Never a stream that violates the bound.
#[test]
fn planted_non_finite_samples_violate_no_bound() {
    use qip::container::TiledCompressor;
    use qip::core::{CompressCtx, CompressError};
    use qip::registry::AnyCompressor;
    use qip::sz3::{Pipeline, Sz3};

    let plants: [&[f32]; 3] =
        [&[f32::NAN], &[f32::INFINITY], &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40]];
    // (first sample, stride): the last three are where MGARD's sweeps used to
    // smear the mixed plant (the last one sits on a coarse node).
    let placements = [(3000, 1117), (3840, 17), (100, 2000), (0, 1)];
    let mut comps: Vec<Box<dyn Compressor<f32>>> =
        vec![Box::new(Sz3::new().with_pipeline(Pipeline::Lorenzo))];
    for comp in AnyCompressor::registry() {
        comps.push(Box::new(TiledCompressor::new(comp.clone(), 8).unwrap()));
        comps.push(Box::new(comp));
    }
    let (mut ctx, mut into) = (CompressCtx::new(), Vec::new());
    let mut refused = 0;
    for (plant, (start, stride)) in
        plants.iter().flat_map(|p| placements.iter().map(move |at| (p, at)))
    {
        let mut field = qip::data::miranda_like(0, &[24, 20, 16]);
        for (k, &v) in plant.iter().enumerate() {
            field.as_mut_slice()[start + stride * k] = v;
        }
        for comp in &comps {
            let what = format!("{} with {plant:?} planted from {start}", comp.name());
            let bound = ErrorBound::Abs(1e-3);
            let plain = comp.compress(&field, bound);
            let reused =
                comp.compress_into(&field, bound, &mut ctx, &mut into).map(|()| into.clone());
            for stream in [plain, reused] {
                match stream {
                    Ok(stream) => {
                        let report =
                            qip::inspect::inspect_bytes_with_original(&stream, &field).unwrap();
                        assert_eq!(report.error_budget.unwrap().violations, 0, "{what}");
                    }
                    Err(CompressError::Unsupported("non-finite sample")) => {
                        assert!(what.starts_with("MGARD") || what.starts_with("ZFP"), "{what}");
                        refused += 1;
                    }
                    Err(e) => panic!("{what}: {e}"),
                }
            }
        }
    }
    // MGARD, MGARD+QP and ZFP, flat and tiled, through both entry points.
    assert_eq!(refused, plants.len() * placements.len() * 6 * 2);
}

/// Indices at the quantizer radius: white noise under `Abs(range / 2¹⁷)`
/// puts `(d − p)/2ε` on both sides of ±32 768, so QP meets `|Q|` near the
/// radius next to `UNPRED`-dense neighbourhoods. No registry compressor, bare
/// or tiled, through either entry point, violates the bound, and every QP-on
/// stream decodes to the bits of its QP-off twin's.
#[test]
fn indices_at_the_quantizer_radius_violate_no_bound() {
    use qip::container::TiledCompressor;
    use qip::core::CompressCtx;
    use qip::registry::AnyCompressor;
    use std::collections::HashMap;

    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let field = Field::<f64>::from_fn(Shape::d3(24, 20, 16), |_| {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 1e3 - 500.0
    });
    let bound = ErrorBound::Abs(field.value_range() / 131_072.0);
    let mut comps: Vec<Box<dyn Compressor<f64>>> = Vec::new();
    for comp in AnyCompressor::registry() {
        comps.push(Box::new(TiledCompressor::new(comp.clone(), 8).unwrap()));
        comps.push(Box::new(comp));
    }
    let (mut ctx, mut into) = (CompressCtx::new(), Vec::new());
    let mut qp_off: HashMap<String, Vec<u64>> = HashMap::new();
    let (mut twins, mut escaped) = (0, 0);
    for comp in &comps {
        let name = comp.name();
        let plain = comp.compress(&field, bound).unwrap();
        comp.compress_into(&field, bound, &mut ctx, &mut into).unwrap();
        for (entry, stream) in [("compress", &plain), ("compress_into", &into)] {
            let what = format!("{name} through {entry}");
            let report = qip::inspect::inspect_bytes_with_original(stream, &field).unwrap();
            assert_eq!(report.error_budget.unwrap().violations, 0, "{what}");
            escaped += report.qp.map_or(0, |qp| qp.unpredictable);
            let out: Field<f64> = comp.decompress(stream).unwrap();
            let bits: Vec<u64> = out.as_slice().iter().map(|v| v.to_bits()).collect();
            let base = name.replace("+QP", "");
            if base == name {
                qp_off.insert(base, bits);
            } else {
                assert!(qp_off[&base] == bits, "{what} decodes unlike {base}");
                twins += 1;
            }
        }
    }
    // The four QP-on bases, flat and tiled, through both entry points; and
    // the radius was crossed.
    assert_eq!(twins, 4 * 2 * 2);
    assert!(escaped > 0, "no index reached the quantizer radius");
}
