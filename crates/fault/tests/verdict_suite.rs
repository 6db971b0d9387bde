//! Decode and inspect give one verdict.
//!
//! `qip inspect` reads every stream through its decoder's own parse → decode,
//! so the two accept exactly the same streams. For every registry compressor
//! (f32 and f64), on a 3-D field large enough for SZ3 to pick Lorenzo and for
//! a chunked (mode 4) index block: **for every span the parser reports**, one
//! byte inside it is flipped, the stream resealed, and `decompress(..).is_ok()
//! == inspect_bytes(..).is_ok()` required, with no panic — the span list is
//! the mutator's only input. Two cases that used to disagree must fail on
//! both sides: a byte appended behind the last section, and a Huffman code
//! length of 0 / > 48. `--nocapture` prints the mutations per component.

use qip_core::{integrity, Compressor, ErrorBound, QpConfig};
use qip_inspect::inspect_bytes;
use qip_registry::AnyCompressor;
use qip_sz3::{Pipeline, Sz3};
use qip_tensor::{Field, Scalar, Shape};
use std::collections::BTreeMap;

/// Per component: (mutations, of which still decoded).
type Coverage = BTreeMap<&'static str, (u32, u32)>;

/// `(decompress accepted, inspect accepted)`; a panic on either side fails.
fn verdicts<T: Scalar>(comp: &dyn Compressor<T>, stream: &[u8], what: &str) -> (bool, bool) {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        (comp.decompress(stream).is_ok(), inspect_bytes(stream).is_ok())
    }))
    .unwrap_or_else(|_| panic!("{what}: panicked"))
}

/// Runs every mutation on `comp`'s stream of `field`; returns the stream's kind.
fn check<T: Scalar>(comp: &dyn Compressor<T>, field: &Field<T>, seen: &mut Coverage) -> &'static str {
    let name = format!("{} f{}", comp.name(), T::BITS);
    let stream = comp.compress(field, ErrorBound::Abs(1e-3)).unwrap();
    assert_eq!(verdicts(comp, &stream, &name), (true, true), "{name}: pristine stream");
    let report = inspect_bytes(&stream).unwrap();
    let end = report.spans.iter().try_fold(0, |at, s| (s.start == at).then_some(s.end));
    assert_eq!(end, Some(stream.len()), "{name}: spans do not tile the stream");
    assert_eq!(report.ledger_total(), stream.len() as u64, "{name}: ledger does not sum");
    let payload_len = integrity::check(&stream).unwrap().len();

    // One flipped byte in the middle of every span the parser reported.
    for span in report.spans.iter().filter(|s| s.end > s.start && s.end <= payload_len) {
        let pos = (span.start + span.end) / 2;
        let bad = qip_fault::flip_resealed(&stream, pos, 0x55).unwrap();
        let what = format!("{name}: byte {pos} of {} {}..{}", span.name, span.start, span.end);
        let (decoded, inspected) = verdicts(comp, &bad, &what);
        assert_eq!(decoded, inspected, "{what}: decompress and inspect disagree");
        let slot = seen.entry(span.name).or_default();
        *slot = (slot.0 + 1, slot.1 + decoded as u32);
    }

    // Bytes behind the last section are corruption, for decode and inspect alike.
    let longer = [&stream[..payload_len], &[0]].concat();
    let what = format!("{name}: one byte appended");
    assert_eq!(verdicts(comp, &integrity::seal(longer), &what), (false, false), "{what}");

    // A Huffman code length outside 1..=48: the lengths end a tables span but
    // for the code stream's length varint (a one-symbol chunk has neither).
    for pair in report.spans.windows(2).filter(|p| p[0].name == "index.tables" && p[1].end > p[1].start) {
        let code_bytes = pair[1].end - pair[1].start;
        let pos = pair[0].end - (1..).find(|&k| code_bytes >> (7 * k) == 0).unwrap() - 1;
        for forged in [0u8, 49] {
            let bad = qip_fault::flip_resealed(&stream, pos, stream[pos] ^ forged).unwrap();
            let what = format!("{name}: code length {forged} at byte {pos}");
            assert_eq!(verdicts(comp, &bad, &what), (false, false), "{what}");
            seen.entry("huffman code length").or_default().0 += 1;
        }
    }
    report.kind
}

fn check_dtype<T: Scalar>(field: &Field<T>, seen: &mut Coverage) {
    let mut kinds: Vec<_> = AnyCompressor::registry().iter().map(|c| check::<T>(c, field, seen)).collect();
    // The trial picks Lorenzo here, so interpolation rides along forced.
    // Tilted planes under faint white noise add the rest: regression wins
    // blocks (coefficients), and incompressible indices over three symbols
    // keep a plain-Huffman chunk with its code-length table.
    let interp = Sz3::new().with_qp(QpConfig::best_fit()).with_pipeline(Pipeline::Interpolation);
    kinds.push(check::<T>(&interp, field, seen));
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let planes = Field::<T>::from_fn(Shape::d3(48, 48, 48), |c| {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let noise = ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.006;
        T::from_f64(c[0] as f64 * 0.5 + c[1] as f64 * 0.25 - c[2] as f64 * 0.125 + noise)
    });
    check::<T>(&Sz3::new().with_pipeline(Pipeline::Lorenzo), &planes, seen);
    for kind in ["sz3-lorenzo", "sz3-interp", "qoz", "hpez", "mgard", "zfp", "sperr", "tthresh"] {
        assert!(kinds.contains(&kind), "no {kind} stream was exercised: {kinds:?}");
    }
}

#[test]
fn decode_and_inspect_agree_on_every_span() {
    let mut seen = Coverage::new();
    check_dtype(&qip_data::Dataset::Hurricane.generate_f32(7, &[52, 52, 52]), &mut seen);
    check_dtype(&qip_data::Dataset::Hurricane.generate_f64(7, &[52, 52, 52]), &mut seen);
    println!("{:<20} {:>9} {:>13}", "component", "mutations", "still decoded");
    for (name, (mutations, decoded)) in &seen {
        println!("{name:<20} {mutations:>9} {decoded:>13}");
    }
    // Chunk tags behind a chunk table, Huffman tables and the Lorenzo
    // regression sections were all among the mutated components.
    for component in ["index.tables", "index.payload", "choice_bits", "coeffs", "huffman code length"] {
        assert!(seen.contains_key(component), "{component} never mutated");
    }
    assert!(seen["index.framing"].0 > seen["header"].0, "no chunked index block");
}
