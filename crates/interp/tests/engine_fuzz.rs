//! Property tests for the interpolation engine: random shapes, values,
//! bounds and engine configurations; the error bound and QP invariance must
//! survive everything.

use proptest::prelude::*;
use qip_core::{Compressor, Condition, ErrorBound, PredMode, QpConfig};
use qip_interp::{EngineConfig, InterpEngine, PassStructure};
use qip_tensor::{Field, Shape};

fn arb_dims() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        (2usize..40).prop_map(|a| vec![a]),
        ((2usize..20), (2usize..20)).prop_map(|(a, b)| vec![a, b]),
        ((2usize..12), (2usize..12), (2usize..12)).prop_map(|(a, b, c)| vec![a, b, c]),
    ]
}

fn arb_config() -> impl Strategy<Value = EngineConfig> {
    (
        any::<bool>(),                    // anchors
        any::<bool>(),                    // multidim
        0u8..6,                           // qp mode tag
        0u8..4,                           // qp condition tag
        0usize..4,                        // qp max level
        prop_oneof![Just(1.0f64), Just(1.25), Just(2.0)],
    )
        .prop_map(|(anchor, md, mode, cond, lvl, alpha)| {
            let mut cfg = EngineConfig::sz3_like(0x55);
            cfg.anchor_log2 = anchor.then_some(4);
            cfg.passes = if md { PassStructure::MultiDim } else { PassStructure::Directional };
            cfg.alpha = alpha;
            cfg.beta = 4.0;
            cfg.qp = QpConfig {
                mode: PredMode::from_tag(mode).unwrap(),
                condition: Condition::from_tag(cond).unwrap(),
                max_level: lvl,
            };
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn bound_holds_under_any_config(
        (dims, cfg) in (arb_dims(), arb_config()),
        exp in -4i32..-1,
        seed in any::<u64>(),
        amp in 0.0f32..5.0,
        noise in 0.0f32..1.0,
    ) {
        let eb = 10f64.powi(exp);
        let mut state = seed | 1;
        let field = Field::<f32>::from_fn(Shape::new(&dims), |c| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let n = ((state >> 40) as f32 / 16_777_216.0) - 0.5;
            amp * (c[0] as f32 * 0.3).sin()
                + c.get(1).map(|&y| 0.1 * y as f32).unwrap_or(0.0)
                + noise * n
        });
        let eng = InterpEngine::new(cfg);
        let bytes = eng.compress(&field, ErrorBound::Abs(eb)).unwrap();
        let out: Field<f32> = eng.decompress(&bytes).unwrap();
        let err = qip_metrics::max_abs_error(&field, &out);
        prop_assert!(err <= eb * (1.0 + 1e-9), "cfg {cfg:?}: err {err} > {eb}");
    }

    #[test]
    fn qp_output_invariance_under_any_config(
        (dims, cfg) in (arb_dims(), arb_config()),
        field_seed in any::<u64>(),
    ) {
        let mut state = field_seed | 1;
        let field = Field::<f32>::from_fn(Shape::new(&dims), |c| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (c[0] as f32 * 0.2).cos() + ((state >> 44) as f32) * 1e-4
        });
        let mut plain_cfg = cfg;
        plain_cfg.qp = QpConfig::off();
        let with = InterpEngine::new(cfg);
        let plain = InterpEngine::new(plain_cfg);
        let a: Field<f32> = with
            .decompress(&with.compress(&field, ErrorBound::Abs(1e-3)).unwrap())
            .unwrap();
        let b: Field<f32> = plain
            .decompress(&plain.compress(&field, ErrorBound::Abs(1e-3)).unwrap())
            .unwrap();
        prop_assert_eq!(a.as_slice(), b.as_slice(), "cfg {:?}", cfg);
    }

    #[test]
    fn corrupted_streams_never_panic(
        (dims, cfg) in (arb_dims(), arb_config()),
        flip_at in any::<u32>(),
        flip_bits in any::<u8>(),
    ) {
        let field = Field::<f32>::from_fn(Shape::new(&dims), |c| c[0] as f32 * 0.5);
        let eng = InterpEngine::new(cfg);
        let mut bytes = eng.compress(&field, ErrorBound::Abs(1e-2)).unwrap();
        if !bytes.is_empty() {
            let pos = flip_at as usize % bytes.len();
            bytes[pos] ^= flip_bits | 1;
            // Either a clean error or a decoded field — never a panic. A
            // corrupted stream that still parses may decode to garbage; that
            // is acceptable (no integrity checksums by design, as in SZ3).
            let _ = <InterpEngine as Compressor<f32>>::decompress(&eng, &bytes);
        }
    }
}

#[test]
fn four_d_rtm_native_roundtrip() {
    // 4-D time series compressed natively (real SZ3 supports 4-D); the
    // time axis becomes just another interpolation dimension.
    let dims = [6usize, 10, 10, 8];
    let field = Field::<f32>::from_fn(Shape::new(&dims), |c| {
        let t = c[0] as f32 * 0.5;
        ((c[1] as f32 - 5.0).hypot(c[2] as f32 - 5.0) - t).sin() * (-(c[3] as f32) * 0.1).exp()
    });
    for structure in [PassStructure::Directional, PassStructure::MultiDim] {
        let mut cfg = EngineConfig::sz3_like(0x55);
        cfg.passes = structure;
        cfg.qp = QpConfig::best_fit();
        let eng = InterpEngine::new(cfg);
        let bytes = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let out: Field<f32> = eng.decompress(&bytes).unwrap();
        let err = qip_metrics::max_abs_error(&field, &out);
        assert!(err <= 1e-3 + 1e-9, "{structure:?}: err {err}");
    }
}

#[test]
fn four_d_mgard_roundtrip() {
    use qip_core::Compressor as _;
    let dims = [5usize, 8, 8, 6];
    let field = Field::<f32>::from_fn(Shape::new(&dims), |c| {
        (c[0] as f32 * 0.4).sin() + c[1] as f32 * 0.1 - c[3] as f32 * 0.05
    });
    let m = qip_mgard::Mgard::new().with_qp(QpConfig::best_fit());
    let bytes = m.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
    let out: Field<f32> = m.decompress(&bytes).unwrap();
    assert!(qip_metrics::max_abs_error(&field, &out) <= 1e-3 + 1e-9);
}

#[test]
fn fire_rates_respect_the_level_gate() {
    // With max_level = 2, no point above level 2 may be transformed.
    let field = Field::<f32>::from_fn(Shape::new(&[40, 40, 24]), |c| {
        let d = (c[0] as f32 - 20.0).hypot(c[1] as f32 - 20.0);
        if d < 9.0 { 1.0 } else { 0.1 * (c[2] as f32 * 0.3).sin() }
    });
    let mut cfg = EngineConfig::sz3_like(0x55);
    cfg.qp = QpConfig::best_fit();
    let eng = InterpEngine::new(cfg);
    let (_, cap) = eng.compress_capturing(&field, ErrorBound::Abs(2e-4)).unwrap();
    let rates = cap.fire_rate_by_level();
    let mut fired_low = 0.0;
    for (lvl, n, rate) in rates {
        assert!(n > 0);
        if lvl > 2 {
            assert_eq!(rate, 0.0, "level {lvl} fired despite the gate");
        } else if lvl >= 1 {
            fired_low += rate;
        }
    }
    assert!(fired_low > 0.0, "QP never fired on the clustered field");
}
