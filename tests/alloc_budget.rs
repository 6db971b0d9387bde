//! Allocation-count regression gate for the interpolation family: plain
//! `compress` delegates to `compress_into` with a fresh context, so its
//! request count must stay within a small multiple of one warm
//! `compress_into` call — a slide back to per-point allocation (~5.6M
//! requests on SegSalt before the routing fix) trips this immediately.
//!
//! The decode half: one warm `decompress_into` makes a fixed, small number of
//! requests — the field it returns, the entropy stage's tables, the worker
//! threads — and a slide back to a staged vector per chunk, or to a fresh
//! index plane per call, trips its ceiling. The Lorenzo pipeline's warm
//! `compress_into` has a ceiling of its own.
//!
//! A test binary of its own: the counter is process-wide, so no other test
//! thread may allocate while it is armed — the tests take turns.

use qip::prelude::*;
use qip::registry::AnyCompressor;
use qip_bench::alloc_track::{count_allocs_during, CountingAlloc};
use qip_core::CompressCtx;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Held by whichever test is counting.
static COUNTING: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn plain_compress_stays_within_the_warm_ctx_allocation_budget() {
    let _turn = COUNTING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // 512 000 points: a per-point regression clears the 100 000 floor.
    let ds = qip::data::Dataset::SegSalt;
    let field = ds.generate_f32(0, &[80, 80, 80]);
    let bound = ErrorBound::Rel(1e-3);
    for name in ["SZ3", "SZ3+QP", "QoZ", "QoZ+QP", "HPEZ", "HPEZ+QP"] {
        let comp = AnyCompressor::by_name(name).unwrap();
        let (_, plain) = count_allocs_during(|| comp.compress(&field, bound).unwrap());
        let (mut ctx, mut out) = (CompressCtx::new(), Vec::new());
        comp.compress_into(&field, bound, &mut ctx, &mut out).unwrap();
        let (_, warm) = count_allocs_during(|| {
            comp.compress_into(&field, bound, &mut ctx, &mut out).unwrap()
        });
        assert!(plain > 0 && warm > 0, "{name}: the counting allocator is not installed");
        // Fresh-ctx overhead: arena/pool construction plus trial-compression
        // scratch growth. Generous fixed headroom, but ~50× under the per-point
        // regression this exists to catch.
        let budget = warm.saturating_mul(8).max(100_000);
        assert!(
            plain <= budget,
            "{name} on {}: plain compress made {plain} heap allocation requests \
             (warm compress_into: {warm}, budget: {budget}) — the ctx-arena \
             routing of the plain API has regressed",
            ds.name()
        );
    }
}

/// One warm `compress_into` of SZ3 held to its Lorenzo pipeline, under a
/// ceiling a few requests above what it makes (55; 56 while the choice bitmap
/// was a vector of its own per call). The working plane, index plane, choice
/// bits, plane coefficients and unpredictable channel all live in the
/// context, so what is left is the entropy stage's tables and workers; a
/// per-call plane or bitmap trips the ceiling.
#[test]
fn warm_lorenzo_compress_stays_within_its_allocation_budget() {
    let _turn = COUNTING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let field = qip::data::Dataset::SegSalt.generate_f32(0, &[80, 80, 80]);
    let bound = ErrorBound::Rel(1e-3);
    let lorenzo = qip::sz3::Sz3::new().with_pipeline(qip::sz3::Pipeline::Lorenzo);
    let (mut ctx, mut out) = (CompressCtx::new(), Vec::new());
    lorenzo.compress_into(&field, bound, &mut ctx, &mut out).unwrap();
    let (_, warm) =
        count_allocs_during(|| lorenzo.compress_into(&field, bound, &mut ctx, &mut out).unwrap());
    assert!(warm > 0, "the counting allocator is not installed");
    assert!(
        warm <= 60,
        "one warm Lorenzo compress_into made {warm} heap allocation requests \
         (ceiling: 60) — a per-call plane or bitmap is back"
    );
}

/// One warm `decompress_into` of each QP-on base, and of SZ3 held to its
/// Lorenzo pipeline, well below what it made while every chunk was staged in
/// a vector of its own and the Lorenzo decoder ignored the context
/// (77 / 75 / 88 / 110 / 70). The QP-on bases are held to exactly what they
/// make under `cargo test`, debug or release: 58 / 56 / 68 / 86 (4 fewer
/// with `--nocapture`; MGARD+QP made 87 while its sweeps built an axis-order
/// vector per call). QP runs in place on the decoded index stream, so one
/// more plane per call — an index store, or a copy of `Q′` — is one request
/// over. The Lorenzo pipeline keeps a few requests of headroom (45 under 48;
/// 41 with `--nocapture`).
#[test]
fn warm_decompress_stays_within_its_allocation_budget() {
    let _turn = COUNTING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Two workers whatever the machine: thread spawns are heap requests too.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let field = qip::data::Dataset::SegSalt.generate_f32(0, &[80, 80, 80]);
    let bound = ErrorBound::Rel(1e-3);
    let by_name = |name| Box::new(AnyCompressor::by_name(name).unwrap()) as Box<dyn Compressor<f32>>;
    let lorenzo = qip::sz3::Sz3::new().with_pipeline(qip::sz3::Pipeline::Lorenzo);
    let cases = [
        ("SZ3+QP", by_name("SZ3+QP"), 58),
        ("QoZ+QP", by_name("QoZ+QP"), 56),
        ("HPEZ+QP", by_name("HPEZ+QP"), 68),
        ("MGARD+QP", by_name("MGARD+QP"), 86),
        ("SZ3 held to Lorenzo", Box::new(lorenzo), 48),
    ];
    for (name, comp, ceiling) in cases {
        let stream = comp.compress(&field, bound).unwrap();
        let mut ctx = CompressCtx::new();
        comp.decompress_into(&stream, &mut ctx).unwrap();
        let (_, warm) = count_allocs_during(|| comp.decompress_into(&stream, &mut ctx).unwrap());
        assert!(warm > 0, "{name}: the counting allocator is not installed");
        assert!(
            warm <= ceiling,
            "{name}: one warm decompress_into made {warm} heap allocation requests \
             (ceiling: {ceiling}) — per-chunk staging or a per-call plane is back"
        );
    }
}

/// One warm `compress_into` of each QP-on base, held three requests above
/// what it makes under `cargo test`: 194 / 342 / 380 / 102 (SZ3+QP made 230
/// while the range coder grew its alphabet and its output by doubling). The
/// range coder now sizes both up front, so either one grown by doubling
/// again trips the ceiling.
#[test]
fn warm_compress_stays_within_its_allocation_budget() {
    let _turn = COUNTING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let field = qip::data::Dataset::SegSalt.generate_f32(0, &[80, 80, 80]);
    let bound = ErrorBound::Rel(1e-3);
    let cases = [("SZ3+QP", 197u64), ("QoZ+QP", 345), ("HPEZ+QP", 383), ("MGARD+QP", 105)];
    let mut made = Vec::new();
    for (name, ceiling) in cases {
        let comp = AnyCompressor::by_name(name).unwrap();
        let (mut ctx, mut out) = (CompressCtx::new(), Vec::new());
        comp.compress_into(&field, bound, &mut ctx, &mut out).unwrap();
        let (_, warm) = count_allocs_during(|| {
            comp.compress_into(&field, bound, &mut ctx, &mut out).unwrap()
        });
        assert!(warm > 0, "{name}: the counting allocator is not installed");
        made.push((name, warm, ceiling));
    }
    for &(name, warm, ceiling) in &made {
        assert!(
            warm <= ceiling,
            "{name}: one warm compress_into made {warm} heap allocation requests \
             (ceiling: {ceiling}; all: {made:?}) — a range-coder buffer grows by doubling again"
        );
    }
}
