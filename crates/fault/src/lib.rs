//! Deterministic fault injection for compressed streams.
//!
//! Untrusted-stream robustness is only testable if failures reproduce: every
//! corruption here is derived from a single `u64` seed through a tiny
//! xorshift generator, so a failing case can be replayed exactly from the
//! seed printed in the test assertion — no corpus files, no external fuzzer.
//!
//! Two entry points cover the two layers of the decode stack:
//!
//! - [`corrupt`] damages the raw stream (including the CRC32 integrity
//!   trailer added by `qip_core::integrity`). Every such stream must be
//!   rejected by `decompress` — in practice at the trailer check.
//! - [`corrupt_resealed`] damages only the payload and then recomputes a
//!   *valid* trailer. These streams get past the integrity gate and exercise
//!   the parsing and allocation hardening deep inside each decoder; decoding
//!   may succeed or fail, but must never panic, abort, or over-allocate.

#![warn(missing_docs)]

use qip_core::integrity;

/// Replay a failing operation inside a fresh trace session and render the
/// per-stage report, so a corruption-suite failure message carries the
/// pipeline trace next to its repro line. Panics inside `f` are caught (the
/// session always closes and capture switches back off) and folded into the
/// returned text instead of propagating.
pub fn trace_replay<R>(f: impl FnOnce() -> R) -> String {
    let (result, report) =
        qip_telemetry::with_session(|| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
    let mut out = String::new();
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        out.push_str(&format!("replay panicked: {msg}\n"));
    }
    out.push_str("stage trace of the failing run:\n");
    out.push_str(&report.render());
    out
}

/// Feed one observed decode rejection into the attached telemetry hub's
/// flight recorder (no-op when no hub is attached). The record's outcome
/// carries both the decoder's error and the fault's repro line, so a fleet
/// incident can be replayed from the JSONL dump alone.
pub fn record_rejection(fault: &Fault, compressor: &str, error: &str) {
    if !qip_telemetry::active() {
        return;
    }
    qip_telemetry::record_fault(compressor, "decompress", &format!("{error} [{fault}]"));
}

/// Minimal xorshift64* generator: deterministic, dependency-free, and good
/// enough to scatter corruption positions. Not for cryptography or sampling.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Generator seeded with `seed`. The seed is scrambled splitmix-style so
    /// adjacent seeds diverge immediately, and zero (xorshift's fixed point)
    /// is remapped.
    pub fn new(seed: u64) -> Self {
        let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        s ^= s >> 31;
        XorShift64 { state: s.max(1) }
    }

    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// A byte guaranteed to be nonzero (xor-ing it always changes the target).
    pub fn nonzero_byte(&mut self) -> u8 {
        ((self.next_u64() % 255) + 1) as u8
    }
}

/// The corruption families the harness draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Cut the stream short at a seeded position.
    Truncate,
    /// Flip a single bit.
    BitFlip,
    /// Flip 2–8 bits at independent positions.
    MultiBitFlip,
    /// Overwrite a short run of bytes with seeded garbage.
    ByteSplice,
    /// Copy one region of the stream over another (same length).
    DuplicateRegion,
    /// Damage a byte in the leading header region specifically.
    HeaderMutate,
}

const ALL_KINDS: [FaultKind; 6] = [
    FaultKind::Truncate,
    FaultKind::BitFlip,
    FaultKind::MultiBitFlip,
    FaultKind::ByteSplice,
    FaultKind::DuplicateRegion,
    FaultKind::HeaderMutate,
];

/// Record of an applied corruption; its `Display` form contains everything
/// needed to reproduce the stream (the seed and the entry point).
#[derive(Debug, Clone)]
pub struct Fault {
    /// The seed the corruption was derived from.
    pub seed: u64,
    /// Which corruption family fired.
    pub kind: FaultKind,
    /// Whether the trailer was recomputed after the damage.
    pub resealed: bool,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entry = if self.resealed { "corrupt_resealed" } else { "corrupt" };
        write!(
            f,
            "{:?} fault; reproduce with qip_fault::{}(stream, {:#018x})",
            self.kind, entry, self.seed
        )
    }
}

/// Bytes of the stream treated as "header region" by [`FaultKind::HeaderMutate`]:
/// enough to cover magic, scalar width, dimensionality, extents, and the
/// error bound in every workspace format.
const HEADER_REGION: usize = 40;

/// Apply the seeded corruption `kind` to `buf` in place (except truncation,
/// which returns the new length). Guarantees the result differs from the
/// original: positions and values are seeded, and a degenerate draw (e.g. a
/// duplicate of identical bytes) falls back to a bit flip.
fn apply_kind(buf: &mut Vec<u8>, kind: FaultKind, rng: &mut XorShift64) {
    let len = buf.len();
    if len == 0 {
        return;
    }
    let before = buf.clone();
    match kind {
        FaultKind::Truncate => {
            buf.truncate(rng.below(len));
            return; // always differs (shorter)
        }
        FaultKind::BitFlip => {
            let pos = rng.below(len);
            buf[pos] ^= 1 << rng.below(8);
        }
        FaultKind::MultiBitFlip => {
            for _ in 0..2 + rng.below(7) {
                let pos = rng.below(len);
                buf[pos] ^= 1 << rng.below(8);
            }
        }
        FaultKind::ByteSplice => {
            let start = rng.below(len);
            let run = 1 + rng.below(8.min(len - start));
            for b in &mut buf[start..start + run] {
                *b ^= rng.nonzero_byte();
            }
        }
        FaultKind::DuplicateRegion => {
            let run = 1 + rng.below(16.min(len));
            let src = rng.below(len - run + 1);
            let dst = rng.below(len - run + 1);
            let region: Vec<u8> = buf[src..src + run].to_vec();
            buf[dst..dst + run].copy_from_slice(&region);
        }
        FaultKind::HeaderMutate => {
            let pos = rng.below(HEADER_REGION.min(len));
            buf[pos] ^= rng.nonzero_byte();
        }
    }
    if *buf == before {
        // Degenerate draw (cancelling flips, identical duplicate): force a
        // change so "corrupted stream must not decode cleanly" stays testable.
        let pos = rng.below(len);
        buf[pos] ^= 1 << rng.below(8);
    }
}

/// Corrupt `stream` according to `seed`. The returned stream always differs
/// from the input; with the workspace's CRC32 trailer in place, decoding it
/// must return an error (and must never panic).
pub fn corrupt(stream: &[u8], seed: u64) -> (Vec<u8>, Fault) {
    let mut rng = XorShift64::new(seed);
    let kind = ALL_KINDS[rng.below(ALL_KINDS.len())];
    let mut buf = stream.to_vec();
    apply_kind(&mut buf, kind, &mut rng);
    (buf, Fault { seed, kind, resealed: false })
}

/// Corrupt the *payload* of a sealed stream and recompute a valid trailer, so
/// the damage reaches the decoder's parsing layers instead of stopping at the
/// CRC gate. Returns `None` if `stream` does not carry a valid trailer.
///
/// Decoding the result may legitimately succeed (the damage can be semantic
/// garbage that still parses) — the contract under test is the absence of
/// panics, aborts, and unbounded allocations.
pub fn corrupt_resealed(stream: &[u8], seed: u64) -> Option<(Vec<u8>, Fault)> {
    let payload = integrity::check(stream).ok()?;
    let mut rng = XorShift64::new(seed);
    let kind = ALL_KINDS[rng.below(ALL_KINDS.len())];
    let mut buf = payload.to_vec();
    apply_kind(&mut buf, kind, &mut rng);
    Some((integrity::seal(buf), Fault { seed, kind, resealed: true }))
}

/// XOR `mask` into payload byte `pos` of a sealed stream and recompute a
/// valid trailer: [`corrupt_resealed`] aimed at one byte, for damage placed
/// by a span list instead of a seed. `None` if `stream` carries no valid
/// trailer or `pos` lies outside its payload.
pub fn flip_resealed(stream: &[u8], pos: usize, mask: u8) -> Option<Vec<u8>> {
    let mut buf = integrity::check(stream).ok()?.to_vec();
    *buf.get_mut(pos)? ^= mask;
    Some(integrity::seal(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed_sample(n: usize) -> Vec<u8> {
        let payload: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
        integrity::seal(payload)
    }

    #[test]
    fn deterministic_per_seed() {
        let s = sealed_sample(300);
        for seed in 0..200u64 {
            let (a, fa) = corrupt(&s, seed);
            let (b, fb) = corrupt(&s, seed);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(fa.kind, fb.kind);
        }
    }

    #[test]
    fn always_differs_from_original() {
        let s = sealed_sample(128);
        for seed in 0..2000u64 {
            let (c, f) = corrupt(&s, seed);
            assert_ne!(c, s, "seed {seed} ({f})");
        }
    }

    #[test]
    fn raw_corruption_fails_integrity_check() {
        let s = sealed_sample(256);
        for seed in 0..2000u64 {
            let (c, f) = corrupt(&s, seed);
            assert!(integrity::check(&c).is_err(), "seed {seed} ({f}) passed the CRC gate");
        }
    }

    #[test]
    fn resealed_corruption_passes_integrity_check() {
        let s = sealed_sample(256);
        for seed in 0..500u64 {
            let (c, f) = corrupt_resealed(&s, seed).expect("sample is sealed");
            let payload = integrity::check(&c).unwrap_or_else(|e| panic!("seed {seed} ({f}): {e}"));
            // Payload must differ from the original's payload.
            assert_ne!(payload, &s[..s.len() - integrity::TRAILER_LEN], "seed {seed} ({f})");
        }
    }

    #[test]
    fn all_kinds_reachable() {
        let s = sealed_sample(512);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..200u64 {
            seen.insert(format!("{:?}", corrupt(&s, seed).1.kind));
        }
        assert_eq!(seen.len(), ALL_KINDS.len(), "kinds seen: {seen:?}");
    }

    #[test]
    fn unsealed_stream_cannot_be_resealed() {
        assert!(corrupt_resealed(&[1, 2, 3], 9).is_none());
    }

    #[test]
    fn display_carries_seed() {
        let s = sealed_sample(64);
        let (_, f) = corrupt(&s, 0xDEAD_BEEF);
        let msg = f.to_string();
        assert!(msg.contains("0x00000000deadbeef"), "{msg}");
        assert!(msg.contains("corrupt"), "{msg}");
    }

    #[test]
    fn trace_replay_survives_panics_and_mentions_tracing() {
        let text = trace_replay(|| panic!("boom at byte 42"));
        assert!(text.contains("boom at byte 42"), "{text}");
        let calm = trace_replay(|| 1 + 1);
        assert!(!calm.contains("panicked"), "{calm}");
        assert!(calm.contains("stage trace of the failing run"), "{calm}");
    }

    #[test]
    fn tiny_and_empty_streams_handled() {
        for n in 0..8usize {
            let s = vec![0xAB; n];
            for seed in 0..50u64 {
                let _ = corrupt(&s, seed); // must not panic
            }
        }
    }
}
