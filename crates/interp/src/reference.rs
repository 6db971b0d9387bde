//! The reference oracle: the point-by-point lattice walk, compiled only under
//! `cfg(test)`.
//!
//! Production visits the lattice in 512-point row tiles
//! ([`crate::kernels`]); this module visits it one point at a time — per
//! point one [`predict_point`], one quantize or recover, and the QP transform
//! through a resolved [`Neighbors`] set — in the same order. [`compress`] and
//! [`decompress`] replace *only* that walk and its per-point arithmetic: the
//! stream prefix, `choose_level_params` (through [`CompressSink`]), the
//! entropy stage, the body layout and `parse_stream` are production's, so a
//! difference between the two sides is a difference in the walk.
//!
//! The suite below diffs the two across a seeded sweep: streams, captured
//! `Q`/`Q'`/level arrays, decoded bits, the forensic decode's whole decision
//! record, the encoder-side reconstruction, and which error a short channel
//! produces.

use crate::config::EngineConfig;
use crate::engine::{
    build_decode_quantizers, build_quantizers, decode_scalars_into, predict_point, write_body,
    CompressSink, DecompressSink, InterpEngine, PointSink, Probe, QuantCapture,
};
use crate::lattice::{build_passes, for_each_point, num_levels, Pass};
use qip_codec::{encode_indices, ByteWriter};
use qip_core::{CompressError, ErrorBound, Neighbors, QpChoice, QpConfig, QpEngine};
use qip_quant::{Quantized, QuantizerBank, UNPRED};
use qip_tensor::{Field, Scalar};

/// The per-point form of what the two tile bodies of `kernels.rs` do for up
/// to 512 points at a time.
trait PointHandler<T: Scalar>: PointSink<T> {
    /// Handle one interpolated point: returns the value to write into the
    /// working buffer, the *original* quantization index for the store, and
    /// the transformed index that goes to (or came from) the encoder.
    fn handle(
        &mut self,
        current: T,
        pred: f64,
        level: usize,
        nb: &Neighbors,
    ) -> Result<(T, i32, i32), CompressError>;
}

impl<T: Scalar> PointHandler<T> for CompressSink<'_> {
    fn handle(
        &mut self,
        current: T,
        pred: f64,
        level: usize,
        nb: &Neighbors,
    ) -> Result<(T, i32, i32), CompressError> {
        let quant = &self.quantizers[level.min(self.quantizers.len() - 1)];
        match quant.quantize(current, pred) {
            Quantized::Pred { index, recon } => {
                let qp = self.qp.transform(index, level, nb);
                self.qprime.push(qp);
                Ok((recon, index, qp))
            }
            Quantized::Unpred => {
                self.qprime.push(UNPRED);
                current.write_le(self.unpred);
                Ok((current, UNPRED, UNPRED))
            }
        }
    }
}

impl<T: Scalar> PointHandler<T> for DecompressSink<'_, T> {
    fn handle(
        &mut self,
        _current: T,
        pred: f64,
        level: usize,
        nb: &Neighbors,
    ) -> Result<(T, i32, i32), CompressError> {
        let q_prime = *self
            .qprime
            .get(self.q_cursor)
            .ok_or(CompressError::WrongFormat("quantization index stream exhausted"))?;
        self.q_cursor += 1;
        let q = self.qp.recover(q_prime, level, nb);
        if q == UNPRED {
            let v = *self
                .unpred
                .get(self.unpred_cursor)
                .ok_or(CompressError::WrongFormat("unpredictable channel exhausted"))?;
            self.unpred_cursor += 1;
            Ok((v, UNPRED, q_prime))
        } else {
            let quant = &self.quantizers[level.min(self.quantizers.len() - 1)];
            Ok((quant.recover::<T>(pred, q), q, q_prime))
        }
    }
}

/// Resolve the QP neighbor values for the current point from the pass
/// geometry and the spatial plane of the indices reconstructed so far.
fn qp_neighbors(
    indices: &[i32],
    pass: &Pass,
    coords: &[usize],
    flat: usize,
    strides: &[usize],
) -> Neighbors {
    let (la, ta, ba) = pass.qp_axes;
    let avail = |a: Option<usize>| -> Option<usize> {
        let a = a?;
        (coords[a] >= pass.start[a] + pass.step[a]).then(|| pass.step[a] * strides[a])
    };
    let l = avail(la);
    let t = avail(ta);
    let b = avail(ba);
    let get = |off: Option<usize>| off.map(|o| indices[flat - o]);
    let combine = |x: Option<usize>, y: Option<usize>| match (x, y) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    };
    Neighbors {
        left: get(l),
        top: get(t),
        diag: get(combine(l, t)),
        back: get(b),
        left_back: get(combine(l, b)),
        top_back: get(combine(t, b)),
        diag_back: get(combine(combine(l, t), b)),
    }
}

/// The walk: anchors, then levels → passes → lattice points, feeding the
/// sink. `record` sees every interpolated point after it is handled:
/// `(flat, level, Q, Q', neighbors)`.
fn run_pipeline<T: Scalar, S: PointHandler<T>>(
    cfg: &EngineConfig,
    dims: &[usize],
    strides: &[usize],
    buf: &mut [T],
    sink: &mut S,
    mut record: impl FnMut(usize, usize, i32, i32, &Neighbors),
) -> Result<(), CompressError> {
    let max_dim = dims.iter().copied().max().unwrap_or(0);
    let levels = num_levels(max_dim);
    let start_level = match cfg.anchor_log2 {
        Some(m) => (m as usize).min(levels).max(1.min(levels)),
        None => levels,
    };

    // Anchor grid: the known lattice before the first processed level.
    let anchor_step = 1usize << start_level;
    let anchor_pass = Pass::uniform(dims.len(), start_level.max(1), anchor_step, anchor_step);
    let mut anchor_flats = Vec::new();
    for_each_point(&anchor_pass, dims, strides, |_c, flat| anchor_flats.push(flat));
    for flat in anchor_flats {
        sink.anchor(flat, buf)?;
    }
    if levels == 0 {
        return Ok(());
    }

    let mut indices = vec![0i32; buf.len()];
    for level in (1..=start_level).rev() {
        let params = sink.params_for_level(level, buf, dims, strides)?;
        let qp_active = cfg.qp.is_enabled() && level <= cfg.qp.max_level;
        for pass in &build_passes(dims.len(), level, &params.order, cfg.passes) {
            if pass.is_empty(dims) {
                continue;
            }
            // Collect the pass points first so `buf` can go to the sink
            // mutably inside the loop.
            let mut points: Vec<(Vec<usize>, usize)> = Vec::with_capacity(pass.len(dims));
            for_each_point(pass, dims, strides, |c, flat| points.push((c.to_vec(), flat)));
            for (coords, flat) in points {
                let pred = predict_point(
                    buf,
                    dims,
                    strides,
                    &coords,
                    flat,
                    pass,
                    params.kind,
                    params.axis_mask,
                );
                let nb = if qp_active {
                    qp_neighbors(&indices, pass, &coords, flat, strides)
                } else {
                    Neighbors::default()
                };
                let (value, q, q_prime) = sink.handle(buf[flat], pred, level, &nb)?;
                buf[flat] = value;
                indices[flat] = q;
                record(flat, level, q, q_prime, &nb);
            }
        }
    }
    Ok(())
}

/// What one compression walk leaves behind.
struct Walked<T> {
    level_tags: Vec<(u8, u8, u8)>,
    anchors: Vec<u8>,
    unpred: Vec<u8>,
    qprime: Vec<i32>,
    /// The working buffer: the encoder's idea of the reconstruction.
    recon: Vec<T>,
}

/// Run `walk` over a working copy of `field` with a fresh compression sink.
fn walk_compress<T: Scalar>(
    cfg: &EngineConfig,
    field: &Field<T>,
    abs_eb: f64,
    start_level: usize,
    walk: impl FnOnce(&mut [T], &mut CompressSink<'_>) -> Result<(), CompressError>,
) -> Result<Walked<T>, CompressError> {
    let mut bank = QuantizerBank::new();
    build_quantizers(cfg, abs_eb, start_level, &mut bank);
    let (mut anchors, mut unpred, mut qprime) = (Vec::new(), Vec::new(), Vec::new());
    // Never begun: the walks here choose no prefix themselves.
    let mut choice = QpChoice::default();
    let mut sink = CompressSink {
        cfg: *cfg,
        qp: QpEngine::new(cfg.qp),
        level_tags: Vec::new(),
        anchors: &mut anchors,
        unpred: &mut unpred,
        qprime: &mut qprime,
        quantizers: bank.as_slice(),
        choice: &mut choice,
        stats: None,
    };
    let mut recon = field.as_slice().to_vec();
    walk(&mut recon, &mut sink)?;
    let level_tags = sink.level_tags;
    Ok(Walked { level_tags, anchors, unpred, qprime, recon })
}

/// Reference compression: the stream and the per-point capture.
pub(crate) fn compress<T: Scalar>(
    eng: &InterpEngine,
    field: &Field<T>,
    bound: ErrorBound,
) -> Result<(Vec<u8>, QuantCapture), CompressError> {
    let cfg = eng.config();
    let abs_eb = bound.resolve(field).abs;
    let mut w = ByteWriter::new();
    let (start_level, qp_at) = eng.write_prefix(field, abs_eb, &mut w);
    let mut cap = QuantCapture::zeros(field.len());
    if field.is_empty() {
        return Ok((w.finish(), cap));
    }
    let (dims, strides) = (field.shape().dims(), field.shape().strides());
    // Every emitted index's level and `Q`, in emission order.
    let mut emitted = Vec::new();
    let mut walked = walk_compress(cfg, field, abs_eb, start_level, |buf, sink| {
        run_pipeline(cfg, dims, strides, buf, sink, |flat, level, q, q_prime, _| {
            cap.q[flat] = q;
            cap.q_prime[flat] = q_prime;
            cap.level[flat] = level as u8;
            emitted.push((level, q));
        })
    })?;
    // The level-prefix choice point by point: the same histograms, then `Q`
    // put back on every point above the kept prefix.
    assert_eq!(emitted.len(), walked.qprime.len());
    let mut choice = QpChoice::default();
    choice.begin(&cfg.qp, start_level);
    for (at, (&(level, q), &q_prime)) in emitted.iter().zip(&walked.qprime).enumerate() {
        choice.tally(level, false, at, &[q]);
        if level <= choice.ceiling() {
            choice.tally(level, true, at, &[q_prime]);
        }
    }
    let m = choice.choose();
    cap.max_level = m;
    if m < choice.ceiling() {
        for (out, &(level, q)) in walked.qprime.iter_mut().zip(&emitted) {
            if level > m {
                *out = q;
            }
        }
        w.set_u8(qp_at + QpConfig::MAX_LEVEL_AT, m as u8);
    }
    let index = encode_indices(&walked.qprime);
    write_body(&mut w, &walked.level_tags, &walked.anchors, &walked.unpred, &index);
    Ok((w.finish(), cap))
}

/// Everything the reference decode observes.
pub(crate) struct Decoded<T: Scalar> {
    pub(crate) field: Field<T>,
    /// The decision record, written point by point from [`Neighbors`].
    pub(crate) probe: Probe,
    pub(crate) qprime: Vec<i32>,
}

/// Reference decompression.
pub(crate) fn decompress<T: Scalar>(
    eng: &InterpEngine,
    bytes: &[u8],
) -> Result<Decoded<T>, CompressError> {
    let p = eng.parse_stream::<T>(bytes)?;
    if p.n == 0 {
        let (field, probe) = (Field::zeros(p.shape), Probe::default());
        return Ok(Decoded { field, probe, qprime: Vec::new() });
    }
    let (mut anchors, mut unpred) = (Vec::new(), Vec::new());
    decode_scalars_into(p.anchor_bytes, &mut anchors, "anchor block misaligned")?;
    decode_scalars_into(p.unpred_bytes, &mut unpred, "unpredictable block misaligned")?;
    let mut qprime = qip_codec::decode_indices_capped(p.index_block, p.n)?;
    let mut bank = QuantizerBank::new();
    build_decode_quantizers(&p, &mut bank)?;

    let mut buf = qip_core::try_zeroed_vec::<T>(p.n)?;
    let mut probe = Probe::new(p.n, p.start_level, &p.eff.qp, &qprime);
    let mut sink = DecompressSink::new(
        p.eff.qp,
        &p.level_tags,
        &anchors,
        &unpred,
        &mut qprime,
        bank.as_slice(),
    );
    let qp = QpEngine::new(p.eff.qp);
    let mut cursor = 0usize;
    let (dims, strides) = (p.shape.dims(), p.shape.strides());
    run_pipeline(&p.eff, dims, strides, &mut buf, &mut sink, |flat, level, q, q_prime, nb| {
        let open = qp.gate_open(level, nb);
        let ls = &mut probe.levels[level];
        if ls.points == 0 {
            ls.qprime_start = cursor;
        }
        cursor += 1;
        ls.qprime_end = cursor;
        ls.points += 1;
        ls.accepted += open as u64;
        ls.fired += (q != q_prime) as u64;
        probe.unpredictable += (q == UNPRED) as u64;
        probe.accepted[flat] = if open { 2 } else { 1 };
        probe.capture.q[flat] = q;
        probe.capture.q_prime[flat] = q_prime;
        probe.capture.level[flat] = level as u8;
    })?;
    probe.anchors = sink.anchor_cursor as u64;
    Ok(Decoded { field: Field::from_vec(p.shape, buf)?, probe, qprime })
}

/// The differential suite: production (the tile walk) against the oracle.
///
/// Each case compresses and decompresses the same field on both and diffs
/// everything observable. The sweep covers 1-D/2-D/3-D/4-D shapes with
/// odd/prime edge lengths and chunk-boundary ±1 sizes (63/64/65 around the
/// 64-lane quantizer word, 511/512/513 around the row tile), f32 + f64, all
/// three engine presets, and QP off vs. best-fit — with NaN/∞ injections to
/// exercise the unpredictable bitmap patch-up. On top of that every QP mode ×
/// condition × start level runs through both directions, and streams with a
/// short index or unpredictable channel must fail with the *same* error on
/// every entry point.
mod tests {
    use super::*;
    use crate::kernels::{run_compress_vec, Scratch};
    use qip_codec::ByteReader;
    use qip_core::{CompressCtx, Compressor, Condition, PredMode, QpConfig};
    use qip_tensor::Shape;

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

    fn bits<T: Scalar>(values: &[T]) -> Vec<u64> {
        values.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// The working buffer `run_compress_vec` leaves behind: the encoder-side
    /// reconstruction.
    fn encoder_recon<T: Scalar>(eng: &InterpEngine, field: &Field<T>, abs_eb: f64) -> Vec<T> {
        let cfg = eng.config();
        let (start_level, _) = eng.write_prefix(field, abs_eb, &mut ByteWriter::new());
        let (dims, strides) = (field.shape().dims(), field.shape().strides());
        let (mut f64s, mut idx) = (Vec::new(), Vec::new());
        let scratch = Scratch { f64s: &mut f64s, idx: &mut idx };
        walk_compress(cfg, field, abs_eb, start_level, |buf, sink| {
            run_compress_vec(cfg, dims, strides, buf, sink, scratch, None)
        })
        .unwrap()
        .recon
    }

    fn diff_case<T: Scalar>(dims: &[usize], cfg: EngineConfig, qp: QpConfig, eb: f64, seed: u64) {
        let mut cfg = cfg;
        cfg.qp = qp;
        let eng = InterpEngine::new(cfg);
        let field = field_for::<T>(dims, seed);
        let bound = ErrorBound::Abs(eb);
        let tag = format!("dims={dims:?} magic=0x{:02x} qp={qp:?} eb={eb}", cfg.magic);

        // Compression: stream and capture, plain and through a context.
        let (bytes, cap) = eng.compress_capturing(&field, bound).unwrap();
        let mut ctx = CompressCtx::new();
        let mut ctx_bytes = Vec::new();
        eng.compress_into(&field, bound, &mut ctx, &mut ctx_bytes).unwrap();
        let (ref_bytes, ref_cap) = compress(&eng, &field, bound).unwrap();
        assert_eq!(bytes, ref_bytes, "{tag}: compressed stream diverged");
        assert_eq!(bytes, ctx_bytes, "{tag}: ctx vs plain diverged");
        assert_eq!(cap.q, ref_cap.q, "{tag}: Q diverged");
        assert_eq!(cap.q_prime, ref_cap.q_prime, "{tag}: Q' diverged");
        assert_eq!(cap.max_level, ref_cap.max_level, "{tag}: kept prefix diverged");
        assert_eq!(cap.level, ref_cap.level, "{tag}: level map diverged");

        // Decompression: every entry point decodes the reference's bits.
        let decoded: Field<T> = eng.decompress(&bytes).unwrap();
        let ctx_decoded: Field<T> = eng.decompress_into(&bytes, &mut ctx).unwrap();
        let fx = eng.decompress_forensic::<T>(&bytes).unwrap();
        let want = decompress::<T>(&eng, &bytes).unwrap();
        let want_bits = bits(want.field.as_slice());
        assert_eq!(bits(decoded.as_slice()), want_bits, "{tag}: decode diverged");
        assert_eq!(bits(ctx_decoded.as_slice()), want_bits, "{tag}: ctx decode diverged");
        assert_eq!(bits(fx.field.as_slice()), want_bits, "{tag}: forensic decode diverged");

        // The forensic record equals what the reference walk saw point by
        // point — the probe reads the right index state.
        let key = |l: &crate::LevelForensics| {
            (l.level, l.points, l.accepted, l.fired, l.qprime_start, l.qprime_end)
        };
        let want_levels: Vec<_> =
            want.probe.levels.iter().rev().filter(|l| l.points > 0).map(key).collect();
        assert_eq!(fx.probe.levels.iter().map(key).collect::<Vec<_>>(), want_levels, "{tag}: levels");
        assert_eq!(fx.probe.accepted, want.probe.accepted, "{tag}: accept map diverged");
        assert_eq!(fx.probe.capture.q, want.probe.capture.q, "{tag}: forensic Q diverged");
        assert_eq!(fx.probe.capture.q_prime, want.probe.capture.q_prime, "{tag}: forensic Q'");
        assert_eq!(fx.probe.capture.level, want.probe.capture.level, "{tag}: forensic levels");
        assert_eq!(fx.probe.capture.q, cap.q, "{tag}: decoder Q vs encoder Q");
        assert_eq!(fx.probe.capture.q_prime, cap.encoded(), "{tag}: decoder Q' vs encoder Q'");
        assert_eq!(fx.probe.anchors, want.probe.anchors, "{tag}: anchors");
        assert_eq!(fx.probe.unpredictable, want.probe.unpredictable, "{tag}: unpredictable");
        assert_eq!(fx.qprime, want.qprime, "{tag}: Q' stream");

        // Encoder-side reconstruction equals decoder output bit for bit.
        assert_eq!(bits(&encoder_recon(&eng, &field, eb)), want_bits, "{tag}: encoder recon");
    }

    #[test]
    fn chunk_boundary_sizes_1d() {
        // 64-lane quantizer word boundaries and the 512-point row tile
        // boundary, each ±1, plus tiny/prime lengths.
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
        for cfg in engines() {
            for qp in [QpConfig::off(), QpConfig::best_fit()] {
                diff_case::<f32>(&[3, 3, 3, 3], cfg, qp, 1e-3, 0xE5);
                diff_case::<f32>(&[5, 2, 4, 3], cfg, qp, 1e-3, 0xE6);
            }
        }
    }

    #[test]
    fn every_qp_mode_condition_and_start_level() {
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

    /// Rebuild an engine stream with its index channel cut to `keep` symbols
    /// and its unpredictable channel `unpred_short` values short.
    fn truncate_channels(
        fx: &crate::EngineForensics<f32>,
        bytes: &[u8],
        keep: usize,
        unpred_short: usize,
    ) -> Vec<u8> {
        let prefix = fx.spans.iter().find(|s| s.name == "framing").unwrap().start;
        let mut r = ByteReader::new(&bytes[prefix..]);
        let (anchors, unpred) = (r.get_block().unwrap(), r.get_block().unwrap());
        let mut w = ByteWriter::new();
        w.put_bytes(&bytes[..prefix]);
        w.put_block(anchors);
        w.put_block(&unpred[..unpred.len() - 4 * unpred_short]);
        w.put_block(&encode_indices(&fx.qprime[..keep]));
        w.finish()
    }

    #[test]
    fn short_channels_fail_identically_on_every_entry_point() {
        let decode_errors = |eng: &InterpEngine, bytes: &[u8]| -> [CompressError; 4] {
            let plain = Compressor::<f32>::decompress(eng, bytes).map(|_| ());
            let ctx = eng.decompress_with::<f32>(bytes, &mut CompressCtx::new()).map(|_| ());
            let forensic = eng.decompress_forensic::<f32>(bytes).map(|_| ());
            let reference = decompress::<f32>(eng, bytes).map(|_| ());
            [plain, ctx, forensic, reference].map(Result::unwrap_err)
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
                let bytes = eng.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
                let fx = eng.decompress_forensic::<f32>(&bytes).unwrap();
                let (n, escaped) = (fx.qprime.len(), fx.probe.unpredictable as usize);
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
                    let errors = decode_errors(&eng, &cut);
                    assert!(
                        errors.iter().all(|e| *e == errors[3]),
                        "dims={dims:?} magic=0x{:02x} qp={qp:?} keep={keep}/{n} \
                         short={unpred_short}: {errors:?}",
                        cfg.magic
                    );
                    messages.insert(errors[0].to_string());
                }
                // Both channels were seen running dry.
                assert_eq!(messages.len(), 2, "{messages:?}");
            }
        }
    }
}
