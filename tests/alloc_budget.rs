//! Allocation-count regression gate for the interpolation family: plain
//! `compress` delegates to `compress_into` with a fresh context, so its
//! request count must stay within a small multiple of one warm
//! `compress_into` call — a slide back to per-point allocation (~5.6M
//! requests on SegSalt before the routing fix) trips this immediately.
//!
//! A test binary of its own with a single test: the counter is process-wide,
//! so no other test thread may allocate while it is armed.

use qip::prelude::*;
use qip::registry::AnyCompressor;
use qip_bench::alloc_track::{count_allocs_during, CountingAlloc};
use qip_core::CompressCtx;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn plain_compress_stays_within_the_warm_ctx_allocation_budget() {
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
