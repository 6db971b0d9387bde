//! Workspace-wide corruption suite: every compressor in the bench registry
//! (the four interpolation-based compressors with QP off and on, plus the
//! three transform-based comparators, plus the tiled container) must
//! reject damaged streams with an error — never a panic — under thousands of
//! seeded corruptions, and must survive corruptions that carry a valid
//! integrity trailer (reaching the deep parsing layers) without panicking.
//!
//! Any failure message prints the seed; replay it with
//! `qip_fault::corrupt(stream, seed)` / `corrupt_resealed(stream, seed)`.

use qip_registry::AnyCompressor;
use qip_core::{Compressor, ErrorBound, QpConfig};
use qip_tensor::Field;

/// Seeded corruptions per (compressor, stream) for the raw (CRC-gated) pass.
const RAW_SEEDS: u64 = 1000;
/// Seeded corruptions per (compressor, stream) for the resealed (deep) pass.
const RESEALED_SEEDS: u64 = 300;

fn registry() -> Vec<AnyCompressor> {
    AnyCompressor::registry()
}

/// The conformance case matrix's `1xNx1` and `radius` rows (white noise
/// whose indices straddle the quantizer radius), as f32 fields with their
/// bounds.
fn matrix_rows() -> Vec<(Field<f32>, ErrorBound)> {
    qip_conformance::hostile()
        .into_iter()
        .filter(|c| matches!(c.row, "1xNx1" | "radius"))
        .map(|c| (c.field(), c.bound))
        .collect()
}

#[test]
fn raw_corruptions_always_error() {
    for comp in registry() {
        let name = Compressor::<f32>::name(&comp);
        for (fi, (field, bound)) in matrix_rows().iter().enumerate() {
            let stream = comp
                .compress(field, *bound)
                .unwrap_or_else(|e| panic!("{name}: compress failed: {e}"));
            for seed in 0..RAW_SEEDS {
                let (bad, fault) = qip_fault::corrupt(&stream, seed);
                let res: Result<Field<f32>, _> = comp.decompress(&bad);
                if res.is_ok() {
                    let trace = qip_fault::trace_replay(|| {
                        let _: Result<Field<f32>, _> = comp.decompress(&bad);
                    });
                    panic!(
                        "{name} on field {fi} decoded a corrupted stream cleanly: {fault}\n{trace}"
                    );
                }
            }
        }
    }
}

#[test]
fn resealed_corruptions_never_panic() {
    for comp in registry() {
        let name = Compressor::<f32>::name(&comp);
        for (field, bound) in &matrix_rows() {
            let stream = comp
                .compress(field, *bound)
                .unwrap_or_else(|e| panic!("{name}: compress failed: {e}"));
            for seed in 0..RESEALED_SEEDS {
                let (bad, fault) = qip_fault::corrupt_resealed(&stream, seed)
                    .unwrap_or_else(|| panic!("{name}: stream not sealed"));
                // The property: decompress must return (Ok with garbage values
                // is tolerable, Err is typical), not panic, abort, or OOM. A
                // panic is caught and replayed under tracing so the failure
                // message carries the per-stage trace next to `fault`'s seed.
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let r: Result<Field<f32>, _> = comp.decompress(&bad);
                    r
                }));
                match res {
                    Err(_) => {
                        let trace = qip_fault::trace_replay(|| {
                            let _: Result<Field<f32>, _> = comp.decompress(&bad);
                        });
                        panic!("{name} panicked on a resealed corruption: {fault}\n{trace}");
                    }
                    Ok(Ok(out)) => {
                        // If the damaged stream still parses, the declared
                        // shape must at least be internally consistent.
                        if out.len() != out.shape().len() {
                            let trace = qip_fault::trace_replay(|| {
                                let _: Result<Field<f32>, _> = comp.decompress(&bad);
                            });
                            panic!("{name}: inconsistent field from {fault}\n{trace}");
                        }
                    }
                    Ok(Err(_)) => {}
                }
            }
        }
    }
}

#[test]
fn crc_trailer_flags_every_payload_bitflip() {
    // Acceptance check for the integrity layer: flipping any single bit of a
    // compressed stream must surface as CompressError::Corrupt (the CRC gate),
    // for every compressor in the registry.
    let field = qip_data::Dataset::Miranda.generate_f32(5, &[9, 8, 7]);
    for comp in registry() {
        let name = Compressor::<f32>::name(&comp);
        let stream = comp.compress(&field, ErrorBound::Abs(1e-2)).expect("compress");
        // Exhaustive over bytes, seeded over bits, to keep runtime sane.
        let mut rng = qip_fault::XorShift64::new(0xC0FF_EE00);
        for pos in 0..stream.len() {
            let mut bad = stream.clone();
            bad[pos] ^= 1 << rng.below(8);
            let res: Result<Field<f32>, _> = comp.decompress(&bad);
            match res {
                Err(qip_core::CompressError::Corrupt(_)) => {}
                Err(e) => panic!("{name}: flip at byte {pos} gave non-Corrupt error: {e}"),
                Ok(_) => panic!("{name}: flip at byte {pos} decoded cleanly"),
            }
        }
    }
}

#[test]
fn telemetry_flight_recorder_captures_rejections() {
    // With a metrics hub attached, every rejected decode both lands in the
    // hub via the registry entry point and can be annotated with the fault's
    // repro seed via `record_rejection` — the production triage path.
    let field = qip_data::Dataset::SegSalt.generate_f32(1, &[12, 10, 8]);
    let comp = AnyCompressor::by_name("sz3+qp").unwrap();
    let name = Compressor::<f32>::name(&comp);
    let stream = comp.compress(&field, ErrorBound::Abs(1e-3)).expect("compress");
    let hub = std::sync::Arc::new(qip_telemetry::MetricsHub::new());
    qip_telemetry::attach(std::sync::Arc::clone(&hub));
    let mut rejected = 0u64;
    for seed in 0..50u64 {
        let (bad, fault) = qip_fault::corrupt(&stream, seed);
        let res: Result<Field<f32>, _> = comp.decompress(&bad);
        match res {
            Ok(_) => {}
            Err(e) => {
                qip_fault::record_rejection(&fault, &name, &e.to_string());
                rejected += 1;
            }
        }
    }
    qip_telemetry::detach();
    assert_eq!(rejected, 50, "every raw corruption must be rejected");
    let records = hub.recorder.records();
    // One registry-side record plus one fault annotation per rejection (other
    // concurrently running tests may add more; never fewer).
    assert!(records.len() as u64 >= 2 * rejected, "got {} records", records.len());
    let annotated: Vec<_> =
        records.iter().filter(|r| r.outcome.contains("reproduce with qip_fault::")).collect();
    assert!(annotated.len() as u64 >= rejected);
    assert!(annotated.iter().all(|r| r.compressor == name && r.op == "decompress"));
    // The registry-side records classify the CRC rejection as corrupt.
    assert!(records.iter().any(|r| r.outcome.starts_with("corrupt stream:")));
    let jsonl = hub.recorder.dump_jsonl();
    assert!(jsonl.lines().count() >= records.len().min(2));
}

#[test]
fn truncation_at_every_prefix_errors() {
    let field = qip_data::Dataset::Miranda.generate_f32(2, &[10, 9, 8]);
    for comp in registry() {
        let name = Compressor::<f32>::name(&comp);
        let stream = comp.compress(&field, ErrorBound::Abs(1e-2)).expect("compress");
        for cut in 0..stream.len() {
            let res: Result<Field<f32>, _> = comp.decompress(&stream[..cut]);
            assert!(res.is_err(), "{name}: prefix of {cut} bytes decoded cleanly");
        }
    }
}

#[test]
fn lorenzo_config_byte_must_match_the_shape() {
    // The Lorenzo stream's config byte says whether 6³ blocks chose between
    // Lorenzo and regression. The encoder writes 1 exactly for 3-D fields
    // with every axis ≥ 12; any other byte — a value above 1, or the mode
    // the shape does not take — is a format error, resealed or not.
    use qip_sz3::{lorenzo, Pipeline, Sz3};
    let comp = Sz3::new().with_pipeline(Pipeline::Lorenzo);
    for dims in [&[16usize, 16, 16][..], &[13, 12, 20], &[8, 8, 8], &[20, 20], &[64]] {
        let field = qip_data::Dataset::Miranda.generate_f32(4, dims);
        let stream = comp.compress(&field, ErrorBound::Abs(1e-3)).expect("compress");
        let body = Sz3::parse(&stream).expect("parse").spans[1].start;
        let inner = lorenzo::parse::<f32>(&stream[body..stream.len() - 6]).expect("inner parse");
        let at = body + inner.spans.iter().find(|s| s.name == "config").expect("config").start;
        let blockwise = stream[at];
        assert_eq!(blockwise, (dims.len() == 3 && dims.iter().all(|&d| d >= 12)) as u8, "{dims:?}");
        for flag in [blockwise ^ 1, 2, 0x80, 0xFF] {
            let mut bad = stream[..stream.len() - 6].to_vec();
            bad[at] = flag;
            let bad = qip_core::integrity::seal(bad);
            let res: Result<Field<f32>, _> = comp.decompress(&bad);
            assert!(
                matches!(res, Err(qip_core::CompressError::WrongFormat(_))),
                "{dims:?}: config byte {flag} gave {:?}",
                res.map(|f| f.len())
            );
        }
    }
}

/// Seeded corruptions per inner compressor in the tiled-container sweeps
/// (smaller than RAW_SEEDS/RESEALED_SEEDS: the sweep multiplies across four
/// inner compressors).
const TILED_RAW_SEEDS: u64 = 400;
const TILED_RESEALED_SEEDS: u64 = 200;

fn tiled_stream(inner: AnyCompressor) -> Vec<u8> {
    let field = qip_data::Dataset::Miranda.generate_f32(6, &[20, 18, 10]);
    let tiled = qip_container::TiledCompressor::new(inner, 8).expect("valid tile edge");
    tiled.compress(&field, ErrorBound::Abs(1e-3)).expect("compress")
}

/// Recompute every per-tile CRC from the (possibly damaged) payload and
/// reseal the index, so payload corruption survives both container gates and
/// reaches the inner tile decoders — the tiled analogue of
/// `qip_fault::corrupt_resealed`.
fn reseal_tiled(bytes: &[u8]) -> Option<Vec<u8>> {
    let (info, payload) = qip_container::ContainerInfo::parse(bytes).ok()?;
    let tiles: Vec<qip_container::TileEntry> = info
        .tiles
        .iter()
        .map(|t| qip_container::TileEntry {
            offset: t.offset,
            len: t.len,
            crc32: qip_core::integrity::crc32(&payload[t.offset..t.offset + t.len]),
        })
        .collect();
    Some(qip_container::assemble(
        info.bits,
        &info.dims,
        info.tile,
        info.abs_bound,
        &info.compressor,
        &tiles,
        payload,
    ))
}

#[test]
fn tiled_container_raw_corruptions_always_error() {
    // The sealed index covers every header/index byte and each tile stream is
    // CRC-gated, so raw damage anywhere in the container — magic, index,
    // payload, framing — must be rejected, for every inner compressor.
    for inner in AnyCompressor::base_four(QpConfig::best_fit()) {
        let name = Compressor::<f32>::name(&inner);
        let stream = tiled_stream(inner);
        for seed in 0..TILED_RAW_SEEDS {
            let (bad, fault) = qip_fault::corrupt(&stream, seed);
            let res: Result<Field<f32>, _> = qip_container::decompress_full(&bad);
            assert!(res.is_err(), "{name}⊞: decoded corrupted container: {fault}");
        }
    }
}

#[test]
fn tiled_container_every_bitflip_is_rejected() {
    // Exhaustive over bytes, seeded over bits: no single-bit flip anywhere in
    // a container may decode cleanly (index flips fail the seal, payload
    // flips fail a tile CRC, framing flips fail structural validation).
    let stream = tiled_stream(AnyCompressor::by_name("sz3+qp").unwrap());
    let mut rng = qip_fault::XorShift64::new(0x0007_11ED);
    for pos in 0..stream.len() {
        let mut bad = stream.clone();
        bad[pos] ^= 1 << rng.below(8);
        let res: Result<Field<f32>, _> = qip_container::decompress_full(&bad);
        assert!(res.is_err(), "⊞: flip at byte {pos} decoded cleanly");
    }
}

#[test]
fn tiled_payload_resealed_corruptions_never_panic() {
    // Damage that gets past both container gates (tile CRCs recomputed, index
    // resealed) reaches the inner tile decoders; the contract is the same as
    // everywhere else — error is fine, garbage-free Ok is fine, panic never.
    for inner in AnyCompressor::base_four(QpConfig::best_fit()) {
        let name = Compressor::<f32>::name(&inner);
        let stream = tiled_stream(inner);
        let (_, payload) = qip_container::ContainerInfo::parse(&stream).expect("parse");
        let payload_start = stream.len() - payload.len();
        for seed in 0..TILED_RESEALED_SEEDS {
            let mut rng = qip_fault::XorShift64::new(seed ^ 0x0715_3BAD);
            let mut bad = stream.clone();
            let pos = payload_start + rng.below(bad.len() - payload_start);
            let bit = 1u8 << rng.below(8);
            bad[pos] ^= bit;
            let bad = reseal_tiled(&bad).expect("index untouched, reseal must parse");
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let r: Result<Field<f32>, _> = qip_container::decompress_full(&bad);
                r
            }));
            if res.is_err() {
                let trace = qip_fault::trace_replay(|| {
                    let _: Result<Field<f32>, _> = qip_container::decompress_full(&bad);
                });
                panic!(
                    "{name}⊞ panicked on a resealed payload flip (seed {seed}, byte {pos}, bit {bit:#x})\n{trace}"
                );
            }
        }
    }
}

#[test]
fn tiled_index_inconsistencies_error_never_panic() {
    // A hostile writer can produce an index that passes its seal but lies
    // about the payload; every such lie must fail structural validation or a
    // tile CRC — with a typed error, never a panic.
    let stream = tiled_stream(AnyCompressor::by_name("qoz+qp").unwrap());
    let (info, payload) = qip_container::ContainerInfo::parse(&stream).expect("parse");
    let rebuild = |tiles: Vec<qip_container::TileEntry>| {
        qip_container::assemble(
            info.bits,
            &info.dims,
            info.tile,
            info.abs_bound,
            &info.compressor,
            &tiles,
            payload,
        )
    };

    let mut lies: Vec<(String, Vec<qip_container::TileEntry>)> = Vec::new();
    let mut t = info.tiles.clone();
    if let Some(last) = t.last_mut() {
        last.len += 1; // index claims one byte more payload than exists
    }
    lies.push(("inflated last tile length".into(), t));
    let mut t = info.tiles.clone();
    t[0].crc32 ^= 0xDEAD_BEEF; // valid geometry, wrong tile checksum
    lies.push(("wrong tile CRC".into(), t));
    let mut t = info.tiles.clone();
    if t.len() >= 2 {
        t[1].offset += 1; // breaks the contiguity invariant
        lies.push(("non-contiguous offsets".into(), t));
    }
    let mut t = info.tiles.clone();
    t.pop(); // tile count disagrees with the grid geometry
    lies.push(("missing tile entry".into(), t));

    for (what, tiles) in lies {
        let bad = rebuild(tiles);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let r: Result<Field<f32>, _> = qip_container::decompress_full(&bad);
            r
        }));
        match res {
            Err(_) => panic!("⊞ panicked on {what}"),
            Ok(Ok(_)) => panic!("⊞ decoded a container with {what}"),
            Ok(Err(_)) => {}
        }
    }
}

#[test]
fn tiled_region_reads_reject_index_corruption_lazily() {
    // read_region only CRC-gates the tiles it touches, but the sealed index
    // is always verified first — so index damage fails every region read,
    // while a payload lie about an untouched tile must not corrupt a read
    // that never visits it.
    let stream = tiled_stream(AnyCompressor::by_name("hpez+qp").unwrap());
    let region = qip_tensor::Region::new(&[0, 0, 0], &[8, 8, 8]); // tile 0 only
    let clean: Field<f32> = qip_container::read_region(&stream, &region).expect("clean read");

    // Any index bitflip → every region read fails the seal.
    let (_, payload) = qip_container::ContainerInfo::parse(&stream).expect("parse");
    let index_end = stream.len() - payload.len();
    let mut rng = qip_fault::XorShift64::new(0x1D3_C0DE);
    for _ in 0..64 {
        let mut bad = stream.clone();
        let pos = rng.below(index_end);
        bad[pos] ^= 1 << rng.below(8);
        let res: Result<Field<f32>, _> = qip_container::read_region(&bad, &region);
        assert!(res.is_err(), "index flip at byte {pos} survived a region read");
    }

    // Damage confined to the *last* tile's payload (CRC fixed up, index
    // resealed) must leave a region read of tile 0 byte-identical.
    let (info, _) = qip_container::ContainerInfo::parse(&stream).expect("parse");
    let last = info.tiles.last().expect("tiles");
    assert!(last.len > 0, "last tile must have payload");
    let mut bad = stream.clone();
    let pos = index_end + last.offset + last.len / 2;
    bad[pos] ^= 0x10;
    let bad = reseal_tiled(&bad).expect("reseal");
    let got: Field<f32> = qip_container::read_region(&bad, &region)
        .expect("region away from the damage must still decode");
    assert_eq!(got.to_le_bytes(), clean.to_le_bytes());
}
