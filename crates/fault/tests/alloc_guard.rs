//! Decode-side allocation guard: no single allocation made while decoding a
//! (possibly corrupted) stream may exceed 16× the stream's declared
//! uncompressed size. This pins the hardening work in the decoders — index
//! counts capped by the declared volume, LZ expansion capped by the entropy
//! budget, header-volume buffers allocated fallibly — to a measurable bound.
//!
//! A tracking global allocator records the largest single allocation request;
//! corruption is restricted to the stream body *past* the header region (and
//! resealed), so the declared size stays that of the real field and the bound
//! is meaningful.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct TrackingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static MAX_ALLOC: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            MAX_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            MAX_ALLOC.fetch_max(new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// One test at a time: the counters are process-wide, so whatever the other
/// test allocates between its own measurements (a compress, a field) would
/// land in this one's peak.
fn one_test_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    static RUNNING: std::sync::Mutex<()> = std::sync::Mutex::new(());
    RUNNING.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn max_alloc_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    MAX_ALLOC.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let r = f();
    TRACKING.store(false, Ordering::SeqCst);
    (r, MAX_ALLOC.load(Ordering::SeqCst))
}

use qip_registry::AnyCompressor;
use qip_core::{Compressor, ErrorBound, QpConfig};
use qip_tensor::Field;

/// Corrupt only stream bytes past the header region, then reseal, so the
/// declared shape survives and the 16× bound refers to the true field size.
fn corrupt_body_resealed(stream: &[u8], seed: u64) -> Vec<u8> {
    const HEADER_SKIP: usize = 48;
    let payload = qip_core::integrity::check(stream).expect("sealed stream");
    let mut buf = payload.to_vec();
    if buf.len() > HEADER_SKIP + 1 {
        let mut rng = qip_fault::XorShift64::new(seed);
        for _ in 0..1 + rng.below(8) {
            let pos = HEADER_SKIP + rng.below(buf.len() - HEADER_SKIP);
            buf[pos] ^= rng.nonzero_byte();
        }
    }
    qip_core::integrity::seal(buf)
}

#[test]
fn decode_allocations_bounded_by_declared_size() {
    let _alone = one_test_at_a_time();
    let field: Field<f32> = qip_data::Dataset::Miranda.generate_f32(11, &[14, 12, 10]);
    let declared_bytes = field.len() * 4;
    // 16× the declared size, plus a fixed floor for decoder working state
    // (readers, tables, small headers) that doesn't scale with the field.
    let bound = 16 * declared_bytes + (64 << 10);

    let mut all = AnyCompressor::base_four(QpConfig::off());
    all.extend(AnyCompressor::base_four(QpConfig::best_fit()));
    all.extend(AnyCompressor::comparators());

    for comp in all {
        let name = Compressor::<f32>::name(&comp);
        let stream = comp.compress(&field, ErrorBound::Abs(1e-3)).expect("compress");

        // Pristine stream first: the bound must hold on the honest path too.
        let (res, peak) = max_alloc_during(|| comp.decompress(&stream));
        let _: Field<f32> = res.expect("pristine stream decodes");
        assert!(peak <= bound, "{name}: pristine decode allocated {peak} > {bound}");

        for seed in 0..200u64 {
            let bad = corrupt_body_resealed(&stream, seed);
            let (res, peak) = max_alloc_during(|| comp.decompress(&bad));
            let _: Result<Field<f32>, _> = res; // Ok-or-Err both fine
            assert!(
                peak <= bound,
                "{name}: seed {seed:#x} drove a {peak}-byte allocation (> {bound})"
            );
        }
    }
}

/// `stream`, an SZ3 interpolation stream, with its index block — the last
/// section, behind a one-varint length prefix — swapped for `forged`.
fn with_index_block(stream: &[u8], forged: &[u8]) -> Vec<u8> {
    let report = qip_inspect::inspect_bytes(stream).expect("pristine stream inspects");
    let at = report.spans.iter().position(|s| s.name.starts_with("index.")).expect("an index block");
    let mut payload = stream[..report.spans[at - 1].start].to_vec();
    assert!(forged.len() < 1 << 14, "two-byte length prefix");
    payload.extend([forged.len() as u8 | 0x80, (forged.len() >> 7) as u8]);
    payload.extend_from_slice(forged);
    qip_core::integrity::seal(payload)
}

/// Entropy-coder headers no encoder writes but every check accepts: the
/// decoders' tables stay within their fixed budget (docs/robustness.md).
#[test]
fn forged_entropy_headers_stay_within_the_table_budget() {
    let _alone = one_test_at_a_time();
    /// Primary plus secondary Huffman tables, in bytes, whatever the header
    /// declares: (2¹¹ + 2¹⁸) `u32` entries.
    const HUFFMAN_TABLE_BUDGET: usize = ((1 << 11) + (1 << 18)) * 4;

    let field: Field<f32> = qip_data::Dataset::Miranda.generate_f32(11, &[14, 12, 10]);
    let comp = qip_sz3::Sz3::new()
        .with_qp(QpConfig::best_fit())
        .with_pipeline(qip_sz3::Pipeline::Interpolation);
    let stream = comp.compress(&field, ErrorBound::Abs(1e-3)).expect("compress");
    let general = 16 * field.len() * 4 + (64 << 10);

    // Huffman, Kraft-complete with code lengths 1, 2, …, 47, 48, 48 over a
    // 60-byte code stream: sized by "longest code under this prefix", the
    // secondary table behind the all-ones prefix would have 2³⁷ entries.
    let mut huffman = vec![0u8]; // mode: plain Huffman
    huffman.extend([0x90, 0x03, 49, 0]); // 400 symbols, 49 of them distinct, from 0
    huffman.extend([2u8; 48]); // … each one above the last
    huffman.extend((1..=47u8).chain([48, 48]));
    huffman.push(60);
    huffman.extend((0..60u8).map(|i| i.wrapping_mul(37) | 0xE0));
    let (res, peak) = max_alloc_during(|| comp.decompress(&with_index_block(&stream, &huffman)));
    let _: Result<Field<f32>, _> = res;
    assert!(peak >= 4 << 11, "the forged header was rejected before the tables were built");
    assert!(peak <= HUFFMAN_TABLE_BUDGET.min(general), "deep Huffman header: {peak}-byte allocation");

    // Range coder, the largest alphabet the bytes and the count allow: one
    // delta byte per symbol, as many symbols as the field has points.
    let n = field.len();
    let mut range = vec![2u8]; // mode: plain range coder
    range.extend([n as u8 | 0x80, (n >> 7) as u8]); // count
    range.extend([n as u8 | 0x80, (n >> 7) as u8]); // alphabet size
    range.extend(std::iter::repeat_n(2u8, n));
    range.push(16);
    range.extend([0x5A; 16]);
    let (res, peak) = max_alloc_during(|| comp.decompress(&with_index_block(&stream, &range)));
    let _: Result<Field<f32>, _> = res;
    assert!(peak >= 8 * n, "the forged header was rejected before the model was built");
    assert!(peak <= general, "widest range header: {peak}-byte allocation");
}
