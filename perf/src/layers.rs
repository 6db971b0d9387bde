//! The traced pass: phases A–D again with a span around every call into a
//! layer, the replay decomposition of each compressor's time, and the
//! per-layer micro-measurements. Everything is timed from outside, through
//! the layers' public functions; nothing here is gated.

use crate::bench::{
    compress_cell, decompress_cell, within_bound, Bench, Budget, Cells, Ledger, Recorder, Sample,
    WRAPPED,
};
use crate::spec::{BASES, PER_LAYER};
use crate::stats::{fastest, percentile};
use crate::trace::Tracer;
use qip::codec::lossless::CHUNK_SYMBOLS;
use qip::codec::{huffman, lz, range};
use qip::container::{ContainerInfo, TiledWriter, TILE_DECODES_COUNTER};
use qip::core::{integrity, Compressor, QpConfig};
use qip::interp::{EngineConfig, InterpEngine, QuantCapture};
use qip::parallel::BlockParallel;
use qip::quant::LinearQuantizer;
use qip::registry::AnyCompressor;
use qip::serve::wire::{Status, WireBound};
use qip::telemetry::MetricsHub;
use qip::tensor::Field;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Rounds of the traced phases and repetitions of each replayed child.
const TRACED_ROUNDS: usize = 5;
/// Total rounds of the serve and CLI phases in the traced pass.
const TRACED_SERVE_ROUNDS: usize = 40;
const TRACED_CLI_ROUNDS: usize = 10;

/// [`BASES`] as they appear in metric names.
const BASES_LOWER: [&str; 4] = ["sz3", "qoz", "hpez", "mgard"];

/// The table's own copy of a metric name built at run time.
fn named(name: &str) -> &'static str {
    crate::spec::per_layer(name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .name
}

/// What the traced pass produced.
pub struct LayerRun {
    pub metrics: Vec<(&'static str, f64)>,
    pub cells: Cells,
    pub tracer: Tracer,
}

/// Run `f` up to `reps` times (at least twice) within `secs` and return the
/// fastest time.
fn best_of(reps: usize, secs: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut done = 0;
    while done < 2 || (done < reps && started.elapsed().as_secs_f64() < secs) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
        done += 1;
    }
    best
}

/// Shannon entropy in bits per symbol. Sums in symbol order, so the value
/// repeats exactly (a `HashMap` walk would not).
fn entropy_bits(symbols: &[i32]) -> f64 {
    let mut counts: BTreeMap<i32, u64> = BTreeMap::new();
    for &s in symbols {
        *counts.entry(s).or_default() += 1;
    }
    let n = symbols.len() as f64;
    counts
        .values()
        .map(|&c| c as f64 / n)
        .map(|p| -p * p.log2())
        .sum()
}

/// `(user+nice+system+idle+iowait+irq+softirq+steal, steal)` jiffies so far.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() >= 8).then(|| (fields[..8].iter().sum(), fields[7]))
}

/// Replayed children of one compressor: the entropy stage on its captured Q′
/// and, where the stream carries one, the integrity trailer.
struct Replay {
    encode_s: f64,
    decode_s: f64,
    seal_s: f64,
    check_s: f64,
}

fn replay(
    name: &str,
    q_prime: &[i32],
    stream: Option<&[u8]>,
    secs: f64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Replay {
    let group = tracer.begin(&format!("replay[{name}]"), 0);
    let mut encoded = Vec::new();
    let mut decoded = Vec::new();
    let mut sealed = stream.map(<[u8]>::to_vec).unwrap_or_default();
    let (mut enc, mut dec, mut seal, mut check) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut round = 0;
    while round < 2 || (round < TRACED_ROUNDS && started.elapsed().as_secs_f64() < secs) {
        round += 1;
        let span = tracer.begin("codec.encode_indices", round as u32);
        let t = Instant::now();
        qip::codec::encode_indices_into(q_prime, &mut encoded);
        enc.push(t.elapsed().as_secs_f64());
        tracer.end(span);

        let span = tracer.begin("codec.decode_indices", round as u32);
        let t = Instant::now();
        let r = qip::codec::decode_indices_capped_into(&encoded, q_prime.len(), &mut decoded);
        dec.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        let span = tracer.begin("verify", round as u32);
        ledger.check(r.is_ok() && decoded == q_prime, || {
            format!("{name}: replayed Q' does not round-trip")
        });
        tracer.end(span);
        let Some(stream) = stream else { continue };

        sealed.truncate(stream.len() - integrity::TRAILER_LEN);
        let span = tracer.begin("core.seal", round as u32);
        let t = Instant::now();
        integrity::seal_in_place(&mut sealed);
        seal.push(t.elapsed().as_secs_f64());
        tracer.end(span);

        let span = tracer.begin("core.check", round as u32);
        let t = Instant::now();
        let r = integrity::check(black_box(stream));
        check.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        let span = tracer.begin("verify", round as u32);
        ledger.check(r.is_ok() && sealed == stream, || {
            format!("{name}: replayed seal/check differs")
        });
        tracer.end(span);
    }
    tracer.end(group);
    let fastest_or_zero = |s: &[f64]| if s.is_empty() { 0.0 } else { fastest(s) };
    Replay {
        encode_s: fastest(&enc),
        decode_s: fastest(&dec),
        seal_s: fastest_or_zero(&seal),
        check_s: fastest_or_zero(&check),
    }
}

/// Warm `compress_append` on a bare engine: the engine, its stream and the
/// fastest time.
fn bare_compress<T: Sample>(
    bench: &mut Bench<T>,
    config: EngineConfig,
    secs: f64,
    ledger: &mut Ledger,
) -> (InterpEngine, Vec<u8>, f64) {
    let engine = InterpEngine::new(config);
    let mut out = Vec::new();
    let mut ok = true;
    let secs = best_of(TRACED_ROUNDS, secs, || {
        out.clear();
        ok &= engine
            .compress_append(&bench.field, bench.bound, &mut bench.ctx, &mut out)
            .is_ok();
    });
    ledger.check(ok, || "bare engine compress failed".into());
    (engine, out, secs)
}

/// The traced pass over one set-up workload. `seconds` scales the time each
/// section may take (`None`: the fixed repetition counts above).
pub fn run<T: Sample>(
    bench: &mut Bench<T>,
    seconds: Option<f64>,
    ledger: &mut Ledger,
) -> Result<LayerRun, String> {
    let wall = Instant::now();
    let jiffies_before = cpu_jiffies();
    let spec = bench.spec;
    let n = spec.points();
    let raw_mb = spec.raw_mb();
    // Section time caps below are written for a 20 s run and scale with it.
    let scale = seconds.map_or(1.0, |s| s / 20.0);
    let cap = |secs: f64| {
        if seconds.is_some() {
            secs * scale
        } else {
            f64::INFINITY
        }
    };
    let budget = |secs: f64, rounds: usize| match seconds {
        Some(_) => Budget::seconds(secs * scale).capped(rounds),
        None => Budget::rounds(rounds),
    };
    let mut m: Vec<(&'static str, f64)> = Vec::with_capacity(PER_LAYER.len());

    // Traced rounds of phases A-D. Each is preceded by an untraced phase A on
    // the same warm state: traced / untraced is the tracing overhead.
    let mut tracer = Tracer::new(spec.name, true);
    let root = tracer.begin(spec.name, 0);
    let mut cells = Cells::default();
    let mut untraced = Cells::default();
    let laps = budget(7.0, TRACED_ROUNDS);
    let started = Instant::now();
    let mut rounds = 0;
    while laps.more(rounds, started) {
        rounds += 1;
        tracer.set_enabled(false);
        bench.round_a(
            rounds as u32,
            &mut Recorder {
                tracer: &mut tracer,
                cells: &mut untraced,
                ledger,
            },
        );
        tracer.set_enabled(true);
        bench.round(
            rounds as u32,
            true,
            &mut Recorder {
                tracer: &mut tracer,
                cells: &mut cells,
                ledger,
            },
        )?;
    }
    let traced_a: f64 = untraced.iter().map(|(name, _)| cells.fastest(name)).sum();
    let untraced_a: f64 = untraced.iter().map(|(_, samples)| fastest(samples)).sum();
    let overhead = traced_a / untraced_a - 1.0;
    // The serve and CLI cells are cheap: more rounds give their percentiles
    // something to stand on.
    let mut rec = Recorder {
        tracer: &mut tracer,
        cells: &mut cells,
        ledger,
    };
    let extra = budget(1.5, TRACED_SERVE_ROUNDS - rounds);
    let started = Instant::now();
    let mut round = rounds;
    while extra.more(round - rounds, started) {
        round += 1;
        bench.round_c(round as u32, true, &mut rec)?;
    }
    let extra = budget(1.0, TRACED_CLI_ROUNDS - rounds);
    let started = Instant::now();
    let mut round = rounds;
    while extra.more(round - rounds, started) {
        round += 1;
        bench.round_d(round as u32, &mut rec);
    }

    // Replay decomposition: total = phase-A cell; children replayed on the
    // captured Q' and the emitted stream; the residual is predict + quantize
    // (+ QP) self time; QP cost is the on − off difference of residuals.
    let replay_phase = tracer.begin("R.replay", 0);
    let mut residual: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut wrapped_capture: Option<QuantCapture> = None;
    let mut wrapped_replay: Option<Replay> = None;
    for i in 0..bench.variants.len() {
        let v = &bench.variants[i];
        let span = tracer.begin(&format!("capture[{}]", v.name), 0);
        let capture = v
            .comp
            .quant_capture(&bench.field, bench.bound)
            .expect("the four bases capture")
            .map_err(|e| format!("{}: quant_capture: {e}", v.name))?;
        tracer.end(span);
        let r = replay(
            &v.name,
            &capture.q_prime,
            Some(&v.stream),
            cap(0.4),
            &mut tracer,
            ledger,
        );
        residual.insert(
            v.name.clone(),
            (
                cells.fastest(&compress_cell(&v.name)) - r.encode_s - r.seal_s,
                cells.fastest(&decompress_cell(&v.name)) - r.decode_s - r.check_s,
            ),
        );
        if v.name == WRAPPED {
            wrapped_capture = Some(capture);
            wrapped_replay = Some(r);
        }
    }
    tracer.end(replay_phase);
    tracer.end(root);
    let capture = wrapped_capture.expect("SZ3+QP is a variant");
    let wrapped_replay = wrapped_replay.expect("SZ3+QP is a variant");
    let wrapped_stream = bench.wrapped().stream.clone();
    let flat_compress_s = cells.fastest(&compress_cell(WRAPPED));

    // harness
    {
        let src = vec![0x5Au8; 64 << 20];
        let mut dst = vec![0u8; 64 << 20];
        let secs = best_of(3, cap(0.5), || dst.copy_from_slice(black_box(&src)));
        black_box(&dst);
        m.push(("mem.copy_mbs", (64 << 20) as f64 / 1e6 / secs));
    }
    m.push(("bench.trace_overhead_pct", overhead * 100.0));
    m.push(("bench.rounds", rounds as f64));
    m.push(("data.generate_s", bench.setup.generate_s));
    let tile_extent = [spec.tile; 3];
    let origins: Vec<Vec<usize>> = ContainerInfo::parse(&bench.tiled_stream)
        .map_err(|e| format!("tiled index: {e}"))?
        .0
        .grid()
        .origins()
        .collect();
    {
        let secs = best_of(TRACED_ROUNDS, cap(0.3), || {
            for origin in &origins {
                black_box(bench.field.subregion(origin, &tile_extent));
            }
        });
        m.push(("tensor.subregion_mbs", raw_mb / secs));
    }

    // quant: 64-lane calls over the field against a previous-value predictor.
    {
        let data = bench.field.as_slice();
        let pred: Vec<f64> = std::iter::once(0.0)
            .chain(data[..n - 1].iter().map(|x| x.to_f64()))
            .collect();
        let quantizer = LinearQuantizer::new(bench.abs_eb);
        let mut idx = vec![0i32; n];
        let mut recon = vec![T::ZERO; n];
        let secs = best_of(TRACED_ROUNDS, cap(0.3), || {
            let mut unpred = 0u64;
            for at in (0..n).step_by(64) {
                let to = (at + 64).min(n);
                unpred |= quantizer.quantize_lanes(
                    &data[at..to],
                    &pred[at..to],
                    &mut idx[at..to],
                    &mut recon[at..to],
                );
            }
            black_box(unpred);
        });
        m.push(("quant.quantize_mpts", n as f64 / 1e6 / secs));
        let secs = best_of(TRACED_ROUNDS, cap(0.3), || {
            for ((r, &p), &q) in recon.iter_mut().zip(&pred).zip(&idx) {
                *r = quantizer.recover::<T>(p, q);
            }
            black_box(&recon);
        });
        m.push(("quant.recover_mpts", n as f64 / 1e6 / secs));
    }

    // codec, on SZ3+QP's Q' — each coder on the input size production gives it.
    {
        let q = &capture.q_prime;
        let index_mb = (q.len() * 4) as f64 / 1e6;
        let encoded = qip::codec::encode_indices(q);
        m.push(("codec.encode_mbs", index_mb / wrapped_replay.encode_s));
        m.push(("codec.decode_mbs", index_mb / wrapped_replay.decode_s));
        let chunk = &q[..q.len().min(CHUNK_SYMBOLS)];
        let chunk_mb = (chunk.len() * 4) as f64 / 1e6;
        let mut huff = Vec::new();
        let secs = best_of(TRACED_ROUNDS, cap(0.2), || {
            huff = huffman::encode(black_box(chunk))
        });
        m.push(("codec.huffman_encode_mbs", chunk_mb / secs));
        let mut ok = true;
        let secs = best_of(TRACED_ROUNDS, cap(0.2), || {
            ok &= matches!(huffman::decode_capped(black_box(&huff), chunk.len()), Ok(s) if s == chunk);
        });
        ledger.check(ok, || "huffman chunk does not round-trip".into());
        m.push(("codec.huffman_decode_mbs", chunk_mb / secs));
        let mut lzed = Vec::new();
        let secs = best_of(TRACED_ROUNDS, cap(0.2), || {
            lzed = lz::compress(black_box(&huff))
        });
        m.push(("codec.lz_compress_mbs", huff.len() as f64 / 1e6 / secs));
        let mut ok = true;
        let secs = best_of(TRACED_ROUNDS, cap(0.2), || {
            ok &= matches!(lz::decompress_capped(black_box(&lzed), huff.len()), Ok(b) if b == huff);
        });
        ledger.check(ok, || "lz chunk does not round-trip".into());
        m.push(("codec.lz_decompress_mbs", huff.len() as f64 / 1e6 / secs));
        let prefix = &q[..q.len().min(1 << 16)];
        let prefix_mb = (prefix.len() * 4) as f64 / 1e6;
        let mut ranged = Vec::new();
        let secs = best_of(TRACED_ROUNDS, cap(0.2), || {
            ranged = range::encode(black_box(prefix))
        });
        m.push(("codec.range_encode_mbs", prefix_mb / secs));
        let mut ok = true;
        let secs = best_of(TRACED_ROUNDS, cap(0.2), || {
            ok &= matches!(range::decode_capped(black_box(&ranged), prefix.len()), Ok(s) if s == prefix);
        });
        ledger.check(ok, || "range-coded prefix does not round-trip".into());
        m.push(("codec.range_decode_mbs", prefix_mb / secs));
        m.push((
            "codec.bits_per_symbol",
            encoded.len() as f64 * 8.0 / q.len() as f64,
        ));
        m.push(("codec.lz_gain", lzed.len() as f64 / huff.len() as f64));
    }

    // core
    {
        let passes = (4_000_000 / wrapped_stream.len()).max(1);
        let secs = best_of(TRACED_ROUNDS, cap(0.2), || {
            for _ in 0..passes {
                black_box(integrity::crc32(black_box(&wrapped_stream)));
            }
        });
        m.push((
            "core.crc32_mbs",
            (passes * wrapped_stream.len()) as f64 / 1e6 / secs,
        ));
        m.push((
            "core.seal_check_us",
            (wrapped_replay.seal_s + wrapped_replay.check_s) * 1e6,
        ));
        let fire = capture.fire_rate_by_level();
        let level = |l: u8| fire.iter().find(|f| f.0 == l).map_or(0.0, |f| f.2);
        m.push(("core.qp_fire_rate_l1", level(1)));
        m.push(("core.qp_fire_rate_l2", level(2)));
        m.push((
            "core.qp_entropy_delta_bits",
            entropy_bits(&capture.q_prime) - entropy_bits(&capture.q),
        ));
        let ns_pt = |on: f64, off: f64| (on - off) * 1e9 / n as f64;
        for (base, lower) in BASES.iter().zip(BASES_LOWER) {
            let on = residual[&format!("{base}+QP")];
            let off = residual[*base];
            m.push((
                named(&format!("core.qp_forward_ns_pt.{lower}")),
                ns_pt(on.0, off.0),
            ));
            m.push((
                named(&format!("core.qp_inverse_ns_pt.{lower}")),
                ns_pt(on.1, off.1),
            ));
        }
    }

    // interp: the bare engine, QP off. The wrappers' ratios divide each
    // compressor's phase-A time by its bare engine's.
    let (engine, engine_stream, engine_compress_s) =
        bare_compress(bench, EngineConfig::sz3_like(0x21), cap(0.5), ledger);
    {
        let mut back = None;
        let engine_decompress_s = best_of(TRACED_ROUNDS, cap(0.5), || {
            back = engine
                .decompress_with::<T>(&engine_stream, &mut bench.ctx)
                .ok();
        });
        let within = back
            .as_ref()
            .is_some_and(|f| within_bound(&bench.field, f, bench.abs_eb));
        ledger.check(within, || "bare engine decode breaks the bound".into());
        let (_, engine_capture) = engine
            .compress_capturing(&bench.field, bench.bound)
            .map_err(|e| format!("bare engine capture: {e}"))?;
        let mut idle = Tracer::new(spec.name, false);
        // The engine stream carries no trailer; only the entropy stage is replayed.
        let r = replay(
            "interp",
            &engine_capture.q_prime,
            None,
            cap(0.4),
            &mut idle,
            ledger,
        );
        m.push(("interp.compress_mbs", raw_mb / engine_compress_s));
        m.push(("interp.decompress_mbs", raw_mb / engine_decompress_s));
        m.push((
            "interp.predict_quantize_ns_pt",
            (engine_compress_s - r.encode_s) * 1e9 / n as f64,
        ));
        m.push((
            "interp.reconstruct_ns_pt",
            (engine_decompress_s - r.decode_s) * 1e9 / n as f64,
        ));
        m.push((
            "interp.entropy_share_compress",
            r.encode_s / engine_compress_s,
        ));
        m.push((
            "interp.entropy_share_decompress",
            r.decode_s / engine_decompress_s,
        ));
    }
    let qoz_engine_s = bare_compress(bench, EngineConfig::qoz_like(0x30), cap(0.5), ledger).2;
    let hpez_engine_s = bare_compress(bench, EngineConfig::hpez_like(0x40), cap(0.5), ledger).2;

    // the four bases, from the traced phase A
    let allocs = bench.count_allocs(ledger);
    for (base, lower) in BASES.iter().zip(BASES_LOWER) {
        let on = format!("{base}+QP");
        let rate = |cell: String| raw_mb / cells.fastest(&cell);
        m.push((
            named(&format!("{lower}.compress_mbs")),
            rate(compress_cell(base)),
        ));
        m.push((
            named(&format!("{lower}.decompress_mbs")),
            rate(decompress_cell(base)),
        ));
        m.push((
            named(&format!("{lower}.qp_compress_mbs")),
            rate(compress_cell(&on)),
        ));
        m.push((
            named(&format!("{lower}.qp_decompress_mbs")),
            rate(decompress_cell(&on)),
        ));
        m.push((named(&format!("{lower}.cr")), bench.cr(bench.variant(base))));
        m.push((
            named(&format!("{lower}.qp_cr")),
            bench.cr(bench.variant(&on)),
        ));
        let at = bench
            .variants
            .iter()
            .position(|v| v.name == on)
            .expect("QP-on variant");
        m.push((named(&format!("{lower}.qp_allocs")), allocs[at] as f64));
    }
    m.push((
        "sz3.wrapper_ratio",
        cells.fastest(&compress_cell("SZ3")) / engine_compress_s,
    ));
    m.push((
        "qoz.wrapper_ratio",
        cells.fastest(&compress_cell("QoZ")) / qoz_engine_s,
    ));
    m.push((
        "hpez.wrapper_ratio",
        cells.fastest(&compress_cell("HPEZ")) / hpez_engine_s,
    ));

    // bypass control: transform coders share no interp/QP/Huffman code.
    for (name, compress_metric, decompress_metric) in [
        ("ZFP", "zfp.compress_mbs", "zfp.decompress_mbs"),
        ("SPERR", "sperr.compress_mbs", "sperr.decompress_mbs"),
    ] {
        let comp = AnyCompressor::by_name(name).map_err(|e| e.to_string())?;
        let dynamic = comp.as_dyn::<T>();
        let mut ok = true;
        let secs = best_of(TRACED_ROUNDS, cap(1.0), || {
            ok &= dynamic
                .compress_into(&bench.field, bench.bound, &mut bench.ctx, &mut bench.out)
                .is_ok();
        });
        m.push((compress_metric, raw_mb / secs));
        let stream = bench.out.clone();
        let mut back = None;
        let secs = best_of(TRACED_ROUNDS, cap(1.0), || {
            back = dynamic.decompress_into(&stream, &mut bench.ctx).ok();
        });
        m.push((decompress_metric, raw_mb / secs));
        let within = back.is_some_and(|f| within_bound(&bench.field, &f, bench.abs_eb));
        ledger.check(ok && within, || {
            format!("{name}: failed or breaks the bound")
        });
    }

    // registry / parallel / telemetry
    {
        let any = bench.wrapped().comp.clone();
        let direct = qip::sz3::Sz3::new().with_qp(QpConfig::best_fit());
        let (mut via_dyn, mut via_direct) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while via_dyn.len() < 2
            || (via_dyn.len() < TRACED_ROUNDS && started.elapsed().as_secs_f64() < cap(0.6))
        {
            let t = Instant::now();
            let a = any.as_dyn::<T>().compress_into(
                &bench.field,
                bench.bound,
                &mut bench.ctx,
                &mut bench.out,
            );
            via_dyn.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let b = Compressor::<T>::compress_into(
                &direct,
                &bench.field,
                bench.bound,
                &mut bench.ctx,
                &mut bench.out,
            );
            via_direct.push(t.elapsed().as_secs_f64());
            ledger.check(
                a.is_ok() && b.is_ok() && bench.out == wrapped_stream,
                || "registry dispatch differs".into(),
            );
        }
        m.push((
            "registry.dispatch_ratio",
            fastest(&via_dyn) / fastest(&via_direct),
        ));
        const CALLS: usize = 1_000_000;
        let secs = best_of(3, cap(0.1), || {
            for _ in 0..CALLS {
                black_box(qip::registry::detect_stream(black_box(&wrapped_stream)));
            }
        });
        m.push(("registry.detect_stream_ns", secs * 1e9 / CALLS as f64));

        let blocks = BlockParallel::new(any.clone(), spec.tile).map_err(|e| e.to_string())?;
        let mut stream = Vec::new();
        let secs = best_of(TRACED_ROUNDS, cap(0.8), || {
            stream =
                Compressor::<T>::compress(&blocks, &bench.field, bench.bound).unwrap_or_default();
        });
        let back = Compressor::<T>::decompress(&blocks, &stream);
        let within = back.is_ok_and(|f| within_bound(&bench.field, &f, bench.abs_eb));
        ledger.check(within, || {
            "BlockParallel: failed or breaks the bound".into()
        });
        m.push(("parallel.block_compress_mbs", raw_mb / secs));

        // AnyCompressor's own Compressor impl is where telemetry hooks in.
        let hub = Arc::new(MetricsHub::new());
        let (mut attached, mut detached) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while attached.len() < 2
            || (attached.len() < TRACED_ROUNDS && started.elapsed().as_secs_f64() < cap(0.6))
        {
            for (on, samples) in [(false, &mut detached), (true, &mut attached)] {
                if on {
                    qip::telemetry::attach(Arc::clone(&hub));
                }
                let t = Instant::now();
                let r = Compressor::<T>::compress_into(
                    &any,
                    &bench.field,
                    bench.bound,
                    &mut bench.ctx,
                    &mut bench.out,
                );
                samples.push(t.elapsed().as_secs_f64());
                qip::telemetry::detach();
                ledger.check(r.is_ok() && bench.out == wrapped_stream, || {
                    "telemetry changed the stream".into()
                });
            }
        }
        m.push((
            "telemetry.attached_ratio",
            fastest(&attached) / fastest(&detached),
        ));
    }

    // container
    {
        let t1_compress = cells.fastest("tiled.compress");
        let t1_decode = cells.fastest("tiled.decompress_full");
        let region_s = cells.fastest("tiled.read_region");
        // Two threads bumping the allocator's shared counters would measure
        // the counters; nothing below reads them.
        crate::alloc::set_tracking(false);
        std::env::set_var("RAYON_NUM_THREADS", "2");
        let mut stream = Vec::new();
        let t2_compress = best_of(TRACED_ROUNDS, cap(0.6), || {
            stream = Compressor::<T>::compress(&bench.tiled, &bench.field, bench.bound)
                .unwrap_or_default();
        });
        ledger.check(stream == bench.tiled_stream, || {
            "2-thread tiled stream differs".into()
        });
        let mut back = None;
        let t2_decode = best_of(TRACED_ROUNDS, cap(0.3), || {
            back = qip::container::decompress_full::<T>(&bench.tiled_stream).ok();
        });
        std::env::set_var("RAYON_NUM_THREADS", "1");
        crate::alloc::set_tracking(true);
        ledger.check(
            back.is_some_and(|f| f.as_slice() == bench.tiled_decoded.as_slice()),
            || "2-thread full decode differs".into(),
        );
        m.push(("container.compress_mbs_1t", raw_mb / t1_compress));
        m.push(("container.compress_mbs_2t", raw_mb / t2_compress));
        m.push(("container.full_decode_mbs_1t", raw_mb / t1_decode));
        m.push(("container.full_decode_mbs_2t", raw_mb / t2_decode));
        m.push((
            "container.scaling_eff_2t",
            (t1_compress + t1_decode) / (t2_compress + t2_decode) / 2.0,
        ));
        m.push(("container.tile_penalty", t1_compress / flat_compress_s));
        m.push((
            "container.cr_ratio",
            wrapped_stream.len() as f64 / bench.tiled_stream.len() as f64,
        ));
        m.push(("container.region_read_ms", region_s * 1e3));
        let hub = Arc::new(MetricsHub::new());
        let decodes = hub.counter(TILE_DECODES_COUNTER, &[]);
        qip::telemetry::attach(Arc::clone(&hub));
        let r = qip::container::read_region::<T>(&bench.tiled_stream, &bench.region);
        qip::telemetry::detach();
        ledger.check(r.is_ok(), || "counted read_region failed".into());
        m.push((
            "container.region_tiles_touched",
            decodes.load(Ordering::Relaxed) as f64,
        ));
        m.push(("container.region_vs_full", region_s / t1_decode));
        let mut ok = true;
        let secs = best_of(TRACED_ROUNDS * 2, cap(0.2), || {
            ok &= qip::container::decompress_tile::<T>(&bench.tiled_stream, 0).is_ok();
        });
        ledger.check(ok, || "decompress_tile failed".into());
        m.push(("container.single_tile_us", secs * 1e6));
        let secs = best_of(50, cap(0.1), || {
            black_box(ContainerInfo::parse(black_box(&bench.tiled_stream)).is_ok());
        });
        m.push(("container.index_parse_us", secs * 1e6));
        let tiles: Vec<Field<T>> = origins
            .iter()
            .map(|o| bench.field.subregion(o, &tile_extent))
            .collect();
        let mut written = Vec::new();
        let secs = best_of(TRACED_ROUNDS, cap(0.8), || {
            written = (|| {
                let mut writer = TiledWriter::<T>::new(
                    bench.wrapped().comp.clone(),
                    spec.tile,
                    &spec.dims,
                    bench.abs_eb,
                )?;
                for tile in &tiles {
                    writer.append(tile)?;
                }
                writer.finish()
            })()
            .unwrap_or_default();
        });
        ledger.check(written == bench.tiled_stream, || {
            "TiledWriter stream != TiledCompressor stream".into()
        });
        m.push(("container.writer_append_mbs", raw_mb / secs));
    }

    // serve
    {
        let mut ok = true;
        let secs = best_of(200, cap(0.3), || {
            ok &= matches!(bench.client.ping(), Ok(r) if r.status == Status::Ok)
        });
        ledger.check(ok, || "ping failed".into());
        m.push(("serve.ping_us", secs * 1e6));
        let ms = |cell: &str, p: f64| percentile(cells.samples(cell), p) * 1e3;
        m.push(("serve.compress_p50_ms", ms("serve.compress", 50.0)));
        m.push(("serve.compress_p90_ms", ms("serve.compress", 90.0)));
        m.push(("serve.decompress_p50_ms", ms("serve.decompress", 50.0)));
        m.push(("serve.decompress_p90_ms", ms("serve.decompress", 90.0)));
        let overhead = |served: &str, offline: &str| {
            let diffs: Vec<f64> = cells
                .samples(served)
                .iter()
                .zip(cells.samples(offline))
                .map(|(s, o)| s - o)
                .collect();
            percentile(&diffs, 50.0) * 1e3
        };
        m.push((
            "serve.overhead_compress_ms",
            overhead("serve.compress", "serve.offline_compress"),
        ));
        m.push((
            "serve.overhead_decompress_ms",
            overhead("serve.decompress", "serve.offline_decompress"),
        ));
        let dims = spec.dims.map(|d| d as u32);
        let bits = T::BITS as u8;
        let tiled = bench
            .client
            .compress_tiled(
                WRAPPED,
                bits,
                &dims,
                spec.tile as u32,
                WireBound::Rel(spec.rel_bound),
                bench.raw.clone(),
                0,
            )
            .map_err(|e| format!("serve compress_tiled: {e}"))?;
        bench.refused += (tiled.status != Status::Ok) as u64;
        ledger.check(
            tiled.status == Status::Ok && tiled.payload == bench.tiled_stream,
            || "served container != library container".into(),
        );
        let origin = [(spec.tile / 2) as u32; 3];
        let extent = [spec.tile as u32; 3];
        let expect = bench.region_ref.to_le_bytes();
        let mut samples = Vec::new();
        let started = Instant::now();
        while samples.len() < 2
            || (samples.len() < TRACED_ROUNDS * 2 && started.elapsed().as_secs_f64() < cap(0.4))
        {
            let payload = bench.tiled_stream.clone();
            let t = Instant::now();
            let r = bench.client.read_region(bits, &origin, &extent, payload, 0);
            samples.push(t.elapsed().as_secs_f64());
            let resp = r.map_err(|e| format!("serve read_region: {e}"))?;
            bench.refused += (resp.status != Status::Ok) as u64;
            ledger.check(resp.status == Status::Ok && resp.payload == expect, || {
                "served region != library region".into()
            });
        }
        m.push(("serve.region_rt_ms", fastest(&samples) * 1e3));
        m.push(("serve.refused", bench.refused as f64));
    }

    // cli
    {
        let startup_s = best_of(TRACED_CLI_ROUNDS, cap(0.3), || {
            bench.cli.startup();
        });
        let any = bench.wrapped().comp.clone();
        let mut stream = Vec::new();
        let cold_s = best_of(3, cap(0.6), || {
            stream = Compressor::<T>::compress(&any, &bench.field, bench.bound).unwrap_or_default();
        });
        ledger.check(stream == wrapped_stream, || "cold compress differs".into());
        let compress_s = cells.fastest("cli.compress");
        m.push(("cli.startup_ms", startup_s * 1e3));
        m.push(("cli.compress_ms", compress_s * 1e3));
        m.push(("cli.decompress_ms", cells.fastest("cli.decompress") * 1e3));
        m.push(("cli.cold_lib_compress_ms", cold_s * 1e3));
        m.push((
            "cli.io_overhead_ms",
            (compress_s - startup_s - cold_s) * 1e3,
        ));
    }

    let steal = match (jiffies_before, cpu_jiffies()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0,
        _ => 0.0,
    };
    m.push(("bench.steal_pct", steal));
    m.push(("bench.wall_s", wall.elapsed().as_secs_f64()));

    // Report in the order of the table; a missing or unknown name is a bug
    // in this file, not a measurement.
    let metrics = PER_LAYER
        .iter()
        .map(|spec| {
            let value = m
                .iter()
                .find(|(name, _)| *name == spec.name)
                .map(|(_, v)| *v);
            (
                spec.name,
                value.unwrap_or_else(|| panic!("per-layer metric {} not measured", spec.name)),
            )
        })
        .collect::<Vec<_>>();
    assert_eq!(
        metrics.len(),
        m.len(),
        "a measured metric is missing from PER_LAYER"
    );
    Ok(LayerRun {
        metrics,
        cells,
        tracer,
    })
}
