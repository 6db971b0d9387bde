//! The random-access contract, pinned by telemetry: `read_region` decodes
//! **exactly** the tiles the region intersects — no more.
//!
//! This lives alone in its own integration binary because the assertion reads
//! a process-global metrics hub; concurrent tests decoding tiles in the same
//! process would make exact counts racy.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use qip_container::{read_region, TiledCompressor, TILE_DECODES_COUNTER};
use qip_core::{Compressor, ErrorBound};
use qip_registry::AnyCompressor;
use qip_tensor::{Field, Region};

#[test]
fn read_region_decodes_only_intersecting_tiles() {
    let f = qip_data::Dataset::Miranda.generate_f32(3, &[32, 32]);
    let tc = TiledCompressor::new(AnyCompressor::by_name("SZ3").unwrap(), 16).unwrap();
    let bytes = tc.compress(&f, ErrorBound::Abs(1e-3)).unwrap(); // 2×2 grid = 4 tiles

    let hub = Arc::new(qip_telemetry::MetricsHub::new());
    qip_telemetry::attach(hub.clone());
    let counter = hub.counter(TILE_DECODES_COUNTER, &[]);

    // A region inside one tile decodes exactly 1 of the 4 tiles.
    let _: Field<f32> = read_region(&bytes, &Region::new(&[20, 20], &[8, 8])).unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 1);

    // A region straddling the vertical tile seam decodes exactly 2.
    let _: Field<f32> = read_region(&bytes, &Region::new(&[2, 10], &[4, 12])).unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 1 + 2);

    // The full region decodes all 4; a full decompress does too.
    let _: Field<f32> = read_region(&bytes, &Region::full(&[32, 32])).unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 1 + 2 + 4);
    let _: Field<f32> = tc.decompress(&bytes).unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 1 + 2 + 4 + 4);

    // 3-D: a 3×3×2 grid of 18 tiles, clipped to 8 at the end of the last
    // two axes. A one-tile region decodes 1, the full region all 18.
    let f3 = qip_data::Dataset::Miranda.generate_f32(3, &[48, 40, 24]);
    let tc3 = TiledCompressor::new(AnyCompressor::by_name("SZ3+QP").unwrap(), 16).unwrap();
    let bytes3 = tc3.compress(&f3, ErrorBound::Abs(1e-3)).unwrap();
    let decoded = |region: Region| {
        let before = counter.load(Ordering::Relaxed);
        let _: Field<f32> = read_region(&bytes3, &region).unwrap();
        counter.load(Ordering::Relaxed) - before
    };
    // A tile-sized region at tile/2 straddles a corner: 2×2×2 tiles.
    assert_eq!(decoded(Region::new(&[8, 8, 8], &[16, 16, 16])), 8);
    assert_eq!(decoded(Region::new(&[16, 16, 0], &[16, 16, 16])), 1);
    assert_eq!(decoded(Region::full(&[48, 40, 24])), 18);

    qip_telemetry::detach();
}
