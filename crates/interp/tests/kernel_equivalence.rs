//! Differential kernel-equivalence suite: the chunked, lane-oriented drivers
//! must be byte/bit-identical to the retained scalar reference pipeline.
//!
//! Each case compresses and decompresses the same field under both
//! [`KernelMode`]s and diffs everything observable: the compressed stream
//! bytes, the captured quantization index arrays (`Q`, `Q'`, per-point
//! level), the decompressed field bits, and the buffer-reusing ctx paths.
//! The sweep covers 1-D/2-D/3-D/4-D shapes with odd/prime edge lengths and
//! chunk-boundary ±1 sizes (63/64/65 around the 64-lane quantizer word,
//! 511/512/513 around the row tile), f32 + f64, all three engine presets,
//! and QP off vs. best-fit — with NaN/∞ injections to exercise the
//! unpredictable bitmap patch-up. On top of that every QP mode × condition ×
//! start level runs through both directions, and streams with a short index
//! or unpredictable channel must fail with the *same* error on both paths.

use qip_codec::{ByteReader, ByteWriter};
use qip_core::{
    CompressCtx, CompressError, Compressor, Condition, ErrorBound, PredMode, QpConfig,
};
use qip_interp::{set_kernel_mode, EngineConfig, InterpEngine, KernelMode};
use qip_tensor::{Field, Scalar, Shape};
use std::sync::{Mutex, MutexGuard};

/// The kernel mode is process-global; serialize tests that flip it.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard: hold the lock, restore the chunked default on drop.
struct ModeGuard<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

fn lock_modes() -> ModeGuard<'static> {
    let guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ModeGuard(guard)
}

impl Drop for ModeGuard<'_> {
    fn drop(&mut self) {
        set_kernel_mode(KernelMode::Chunked);
    }
}

/// Deterministic xorshift state for field synthesis.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Mixed-texture field: smooth base + localized noise + a few non-finite
/// points, so every quantizer outcome (predictable, out-of-radius, NaN/∞)
/// appears in the sweep.
fn field_for<T: Scalar>(dims: &[usize], seed: u64) -> Field<T> {
    let mut state = seed | 1;
    let mut f = Field::<T>::from_fn(Shape::new(dims), |c| {
        let x = c.first().copied().unwrap_or(0) as f64;
        let y = c.get(1).copied().unwrap_or(0) as f64;
        let z = c.get(2).copied().unwrap_or(0) as f64;
        T::from_f64((0.13 * x).sin() + (0.09 * y).cos() * 0.5 + 0.02 * z)
    });
    let n = f.len();
    if n >= 8 {
        let slice = f.as_mut_slice();
        for _ in 0..(n / 7).max(1) {
            // Noise spikes: some land out of quantizer range under tight eb.
            let i = (next(&mut state) as usize) % n;
            let spike = ((next(&mut state) % 2000) as f64 - 1000.0) * 0.25;
            slice[i] = T::from_f64(spike);
        }
        let i = (next(&mut state) as usize) % n;
        slice[i] = T::from_f64(f64::NAN);
        let j = (next(&mut state) as usize) % n;
        slice[j] = T::from_f64(f64::INFINITY);
    }
    f
}

fn engines() -> Vec<EngineConfig> {
    vec![
        EngineConfig::sz3_like(0x10),
        EngineConfig::qoz_like(0x11),
        EngineConfig::hpez_like(0x12),
    ]
}

/// Everything observable from one compress/decompress round under one mode.
struct ModeOutput {
    bytes: Vec<u8>,
    ctx_bytes: Vec<u8>,
    q: Vec<i32>,
    q_prime: Vec<i32>,
    level: Vec<u8>,
    decoded_bits: Vec<u64>,
    ctx_decoded_bits: Vec<u64>,
}

fn run_mode<T: Scalar>(
    mode: KernelMode,
    eng: &InterpEngine,
    field: &Field<T>,
    eb: f64,
) -> ModeOutput {
    set_kernel_mode(mode);
    let (bytes, cap) = eng.compress_capturing(field, ErrorBound::Abs(eb)).unwrap();
    let mut ctx = CompressCtx::new();
    let mut ctx_bytes = Vec::new();
    eng.compress_into(field, ErrorBound::Abs(eb), &mut ctx, &mut ctx_bytes).unwrap();
    let decoded: Field<T> = eng.decompress(&bytes).unwrap();
    let ctx_decoded: Field<T> = eng.decompress_into(&bytes, &mut ctx).unwrap();
    let bits =
        |f: &Field<T>| f.as_slice().iter().map(|v| v.to_f64().to_bits()).collect::<Vec<u64>>();
    ModeOutput {
        bytes,
        ctx_bytes,
        q: cap.q,
        q_prime: cap.q_prime,
        level: cap.level,
        decoded_bits: bits(&decoded),
        ctx_decoded_bits: bits(&ctx_decoded),
    }
}

fn diff_case<T: Scalar>(dims: &[usize], cfg: EngineConfig, qp: QpConfig, eb: f64, seed: u64) {
    let mut cfg = cfg;
    cfg.qp = qp;
    let eng = InterpEngine::new(cfg);
    let field = field_for::<T>(dims, seed);
    let chunked = run_mode(KernelMode::Chunked, &eng, &field, eb);
    let scalar = run_mode(KernelMode::ScalarRef, &eng, &field, eb);
    let tag = format!("dims={dims:?} magic=0x{:02x} qp={qp:?} eb={eb}", cfg.magic);
    assert_eq!(chunked.bytes, scalar.bytes, "{tag}: compressed stream diverged");
    assert_eq!(chunked.ctx_bytes, scalar.ctx_bytes, "{tag}: ctx stream diverged");
    assert_eq!(chunked.bytes, chunked.ctx_bytes, "{tag}: ctx vs plain diverged");
    assert_eq!(chunked.q, scalar.q, "{tag}: Q diverged");
    assert_eq!(chunked.q_prime, scalar.q_prime, "{tag}: Q' diverged");
    assert_eq!(chunked.level, scalar.level, "{tag}: level map diverged");
    assert_eq!(chunked.decoded_bits, scalar.decoded_bits, "{tag}: decode diverged");
    assert_eq!(
        chunked.ctx_decoded_bits, scalar.ctx_decoded_bits,
        "{tag}: ctx decode diverged"
    );
}

#[test]
fn chunk_boundary_sizes_1d() {
    let _g = lock_modes();
    // 64-lane quantizer word boundaries and the 512-point row tile boundary,
    // each ±1, plus tiny/prime lengths.
    for n in [1usize, 2, 3, 5, 7, 63, 64, 65, 127, 509, 511, 512, 513] {
        for cfg in engines() {
            for qp in [QpConfig::off(), QpConfig::best_fit()] {
                diff_case::<f32>(&[n], cfg, qp, 1e-3, 0xA1 + n as u64);
            }
        }
    }
}

#[test]
fn odd_prime_2d() {
    let _g = lock_modes();
    for dims in [[9usize, 7], [17, 16], [31, 33], [13, 5], [1, 19], [64, 3]] {
        for cfg in engines() {
            for qp in [QpConfig::off(), QpConfig::best_fit()] {
                diff_case::<f32>(&dims, cfg, qp, 1e-3, 0xB2 + dims[0] as u64);
            }
        }
    }
}

#[test]
fn odd_prime_3d() {
    let _g = lock_modes();
    for dims in [[7usize, 11, 13], [17, 9, 8], [33, 5, 6], [2, 3, 65]] {
        for cfg in engines() {
            for qp in [QpConfig::off(), QpConfig::best_fit()] {
                diff_case::<f32>(&dims, cfg, qp, 1e-3, 0xC3 + dims[2] as u64);
            }
        }
    }
}

#[test]
fn f64_fields_and_tight_bounds() {
    let _g = lock_modes();
    for dims in [vec![127usize], vec![19, 23], vec![11, 13, 7]] {
        for cfg in engines() {
            diff_case::<f64>(&dims, cfg, QpConfig::best_fit(), 1e-9, 0xD4);
            diff_case::<f64>(&dims, cfg, QpConfig::off(), 1e-2, 0xD5);
        }
    }
    // f32 with a bound tight enough that storage rounding trips the
    // post-reconstruction check — the third unpredictable condition.
    for cfg in engines() {
        diff_case::<f32>(&[33, 18], cfg, QpConfig::best_fit(), 1e-7, 0xD6);
    }
}

#[test]
fn four_d_small() {
    let _g = lock_modes();
    for cfg in engines() {
        for qp in [QpConfig::off(), QpConfig::best_fit()] {
            diff_case::<f32>(&[3, 3, 3, 3], cfg, qp, 1e-3, 0xE5);
            diff_case::<f32>(&[5, 2, 4, 3], cfg, qp, 1e-3, 0xE6);
        }
    }
}

#[test]
fn every_qp_mode_condition_and_start_level() {
    let _g = lock_modes();
    let modes = [
        PredMode::Back1,
        PredMode::Top1,
        PredMode::Left1,
        PredMode::Lorenzo2d,
        PredMode::Lorenzo3d,
    ];
    let conditions =
        [Condition::CaseI, Condition::CaseII, Condition::CaseIII, Condition::CaseIV];
    // Rows of length 1 (inner extent 1–2), rows that end on / one short of /
    // one past the 512-point tile (inner extents 511–513 and 1023–1026: the
    // level-1 pass along the inner axis visits every other point), plus a
    // 3-D and a 4-D shape so the back taps and 3-D Lorenzo have neighbors.
    let shapes: [&[usize]; 9] = [
        &[7, 1],
        &[5, 2],
        &[3, 511],
        &[2, 512],
        &[3, 513],
        &[2, 1023],
        &[2, 1026],
        &[6, 5, 9],
        &[3, 4, 3, 5],
    ];
    for mode in modes {
        for condition in conditions {
            for max_level in [1usize, 2, 9] {
                let qp = QpConfig { mode, condition, max_level };
                for (i, dims) in shapes.iter().enumerate() {
                    // Rotate the presets over the shapes: every configuration
                    // meets all three pass structures.
                    let cfg = engines()[(i + max_level) % 3];
                    diff_case::<f32>(dims, cfg, qp, 1e-3, 0xF7 + i as u64);
                }
                diff_case::<f64>(&[5, 6, 7], engines()[max_level % 3], qp, 1e-6, 0xF8);
            }
        }
    }
}

/// Rebuild an engine stream with its index channel cut to `keep` symbols and
/// its unpredictable channel `unpred_short` values short.
fn truncate_channels(
    fx: &qip_interp::EngineForensics<f32>,
    bytes: &[u8],
    keep: usize,
    unpred_short: usize,
) -> Vec<u8> {
    let prefix =
        (fx.layout.header_bytes + fx.layout.config_bytes + fx.layout.level_tag_bytes) as usize;
    let mut r = ByteReader::new(&bytes[prefix..]);
    let (anchors, unpred) = (r.get_block().unwrap(), r.get_block().unwrap());
    let mut w = ByteWriter::new();
    w.put_bytes(&bytes[..prefix]);
    w.put_block(anchors);
    w.put_block(&unpred[..unpred.len() - 4 * unpred_short]);
    w.put_block(&qip_codec::encode_indices(&fx.qprime[..keep]));
    w.finish()
}

#[test]
fn short_channels_fail_identically_on_both_paths() {
    let _g = lock_modes();
    let decode_errors = |eng: &InterpEngine, bytes: &[u8]| -> [CompressError; 2] {
        let plain = Compressor::<f32>::decompress(eng, bytes).map(|_| ());
        let ctx = eng.decompress_with::<f32>(bytes, &mut CompressCtx::new()).map(|_| ());
        [plain.unwrap_err(), ctx.unwrap_err()]
    };
    for (dims, qp) in [
        (vec![2usize, 1300], QpConfig::off()),
        (vec![2, 1300], QpConfig::best_fit()),
        (
            vec![4, 5, 260],
            QpConfig { mode: PredMode::Lorenzo3d, condition: Condition::CaseI, max_level: 9 },
        ),
    ] {
        for mut cfg in engines() {
            cfg.qp = qp;
            let eng = InterpEngine::new(cfg);
            let field = field_for::<f32>(&dims, 0x7C);
            set_kernel_mode(KernelMode::Chunked);
            let bytes = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
            let fx = eng.decompress_forensic::<f32>(&bytes).unwrap();
            let (n, escaped) = (fx.qprime.len(), fx.unpredictable as usize);
            assert!(escaped >= 2, "the field must exercise the side channel");

            // Every tile boundary of the index stream ±1, both ends, and the
            // full stream with only the side channel short.
            let mut cuts: Vec<(usize, usize)> = vec![(n, 1), (n - 1, 1), (0, 0), (1, 0)];
            for edge in (512..n).step_by(512) {
                cuts.extend([(edge - 1, 0), (edge, 0), (edge + 1, 0), (edge, 1)]);
            }
            cuts.push((n - 1, 0));
            let mut messages = std::collections::BTreeSet::new();
            for (keep, unpred_short) in cuts {
                let cut = truncate_channels(&fx, &bytes, keep, unpred_short);
                set_kernel_mode(KernelMode::Chunked);
                let chunked = decode_errors(&eng, &cut);
                set_kernel_mode(KernelMode::ScalarRef);
                let scalar = decode_errors(&eng, &cut);
                assert_eq!(
                    chunked, scalar,
                    "dims={dims:?} magic=0x{:02x} qp={qp:?} keep={keep}/{n} short={unpred_short}",
                    cfg.magic
                );
                messages.insert(chunked[0].to_string());
            }
            // Both channels were seen running dry.
            assert_eq!(messages.len(), 2, "{messages:?}");
        }
    }
}
