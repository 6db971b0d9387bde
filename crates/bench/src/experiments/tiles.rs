//! `repro tiles`: the tiled-container random-access benchmark.
//!
//! Measures what the container format buys over a monolithic stream:
//!
//! 1. **Region-read scaling** — `read_region` latency over a sweep of region
//!    sizes on one fixed field. The requirement is that latency
//!    scales with the *region* (tiles decoded), not the field: every row
//!    records the telemetry tile-decode count, and a single-tile read that
//!    decodes more than its one tile is a hard failure.
//! 2. **Read identity** — every region read must be byte-identical to slicing
//!    the full decompression at the same coordinates (hard gate).
//! 3. **Bound contract** — the container round-trip must honor the absolute
//!    bound every tile was quantized at (hard gate).
//! 4. **Out-of-core writer** — [`qip_container::TiledWriter`] must produce a
//!    container byte-identical to the parallel whole-field path (hard gate).
//! 5. **Progressive decode** — MGARD-tiled coarse reads at stop levels
//!    0/1/2, timed, each checked against decimating the full decode.
//!
//! Results land in `BENCH_tiles.json`; [`run`] returns `Err` when any hard
//! gate fails so `repro` can exit nonzero.

use super::Opts;
use crate::report::{fmt, print_table, write_json};
use crate::timing::fastest;
use qip_container::{TiledCompressor, TiledWriter, TILE_DECODES_COUNTER};
use qip_core::{Compressor, ErrorBound};
use qip_registry::AnyCompressor;
use qip_tensor::{Field, Region};
use serde::Serialize;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Timed repetitions per measurement (the fastest is reported; one untimed
/// warm-up precedes them).
const REPS: usize = 3;

/// One region size in the scaling sweep.
#[derive(Debug, Clone, Serialize)]
pub struct RegionRecord {
    /// Region origin.
    pub origin: Vec<usize>,
    /// Region extent.
    pub extent: Vec<usize>,
    /// Samples the region selects.
    pub region_elems: usize,
    /// Tiles the region intersects (== tiles decoded, asserted).
    pub tiles_decoded: u64,
    /// Total tiles in the container.
    pub tiles_total: usize,
    /// Best-of-`REPS` read latency.
    pub read_ms: f64,
    /// Byte-identity with slicing the full decode (hard gate).
    pub identical: bool,
}

/// One MGARD progressive decode level.
#[derive(Debug, Clone, Serialize)]
pub struct ProgressiveRecord {
    /// Interpolation levels skipped (0 = full resolution).
    pub stop_level: usize,
    /// Samples on the coarse lattice.
    pub coarse_elems: usize,
    /// Best-of-`REPS` decode latency.
    pub decode_ms: f64,
    /// Exactness against decimating the full decode (hard gate).
    pub matches_decimate: bool,
}

/// The full `BENCH_tiles.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct TilesReport {
    /// Field dims the sweep ran on.
    pub dims: Vec<usize>,
    /// Tile edge.
    pub tile: usize,
    /// Tile compressor for the region sweep.
    pub compressor: String,
    /// Container size in bytes.
    pub container_bytes: usize,
    /// Parallel compress latency (fastest of `REPS`).
    pub compress_ms: f64,
    /// Full-container decode latency (the baseline every region read beats).
    pub full_decode_ms: f64,
    /// Max |err| of the container round-trip vs the absolute bound.
    pub max_abs_error: f64,
    /// The absolute bound every tile was quantized at.
    pub abs_bound: f64,
    /// Region scaling sweep, smallest to largest.
    pub regions: Vec<RegionRecord>,
    /// Out-of-core writer byte-identity (hard gate).
    pub writer_identical: bool,
    /// MGARD progressive decode levels.
    pub progressive: Vec<ProgressiveRecord>,
}

/// Run the tiled-container benchmark. Returns `Err` on any hard-gate failure.
pub fn run(opts: &Opts) -> Result<TilesReport, String> {
    // Paper-sized 256^3 divided by --scale, floored so the grid still has
    // several tiles per axis at smoke scales.
    let edge = (256 / opts.scale.max(1)).max(16);
    let dims = vec![edge, edge, edge];
    let tile = 8usize;
    let abs_bound = 1e-3;
    let name = "SZ3+QP";

    let field = qip_data::Dataset::Miranda.generate_f32(0, &dims);
    let tc = TiledCompressor::new(
        AnyCompressor::by_name(name).map_err(|e| format!("tiles: {e}"))?,
        tile,
    )
    .map_err(|e| format!("tiles: {e}"))?;

    // The tile-decode accounting reads the process-global telemetry hub.
    let hub = Arc::new(qip_telemetry::MetricsHub::new());
    qip_telemetry::attach(Arc::clone(&hub));
    let decodes = hub.counter(TILE_DECODES_COUNTER, &[]);
    let result = run_attached(opts, &field, &tc, &dims, tile, abs_bound, name, &decodes);
    qip_telemetry::detach();
    result
}

#[allow(clippy::too_many_arguments)]
fn run_attached(
    opts: &Opts,
    field: &Field<f32>,
    tc: &TiledCompressor,
    dims: &[usize],
    tile: usize,
    abs_bound: f64,
    name: &str,
    decodes: &Arc<std::sync::atomic::AtomicU64>,
) -> Result<TilesReport, String> {
    let (bytes, compress_s) = fastest(REPS, || tc.compress(field, ErrorBound::Abs(abs_bound)));
    let bytes = bytes.map_err(|e| format!("tiles: compress failed: {e}"))?;
    let (info, _) = qip_container::ContainerInfo::parse(&bytes)
        .map_err(|e| format!("tiles: container parse failed: {e}"))?;
    let tiles_total = info.tiles.len();

    let (full, full_decode_s) = fastest(REPS, || tc.decompress(&bytes));
    let full: Field<f32> = full.map_err(|e| format!("tiles: decompress failed: {e}"))?;
    let max_abs_error = qip_metrics::max_abs_error(field, &full);
    let bound_ok = max_abs_error <= abs_bound * (1.0 + 1e-9);

    // Region sweep: one tile, a 2-tile seam straddle, an octant, the full
    // field. Origins are chosen off the grid so clipping paths execute.
    let one = vec![tile; dims.len()];
    let octant: Vec<usize> = dims.iter().map(|&d| d / 2).collect();
    let sweep: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![tile / 2; dims.len()], one.clone()),          // inside a 2^d block, straddles seams
        (vec![0; dims.len()], one.clone()),                 // exactly one tile
        (vec![0; dims.len()], octant.clone()),              // an octant
        (vec![0; dims.len()], dims.to_vec()),               // the whole field
    ];

    let mut regions = Vec::new();
    let mut gates: Vec<String> = Vec::new();
    for (origin, extent) in sweep {
        let region = Region::new(&origin, &extent);
        let before = decodes.load(Ordering::Relaxed);
        let (got, read_s) =
            fastest(REPS, || qip_container::read_region::<f32>(&bytes, &region));
        let got = got.map_err(|e| format!("tiles: read_region {region} failed: {e}"))?;
        let after = decodes.load(Ordering::Relaxed);
        let per_read = (after - before) / (REPS as u64 + 1); // warm-up included

        let want = full.subregion(&origin, &extent);
        let identical = got.as_slice() == want.as_slice();
        if !identical {
            gates.push(format!("region {region}: read differs from slicing the full decode"));
        }
        let expected_tiles: u64 = origin
            .iter()
            .zip(&extent)
            .map(|(&o, &e)| (((o + e - 1) / tile) - o / tile + 1) as u64)
            .product();
        if per_read != expected_tiles {
            gates.push(format!(
                "region {region}: decoded {per_read} tiles, expected {expected_tiles}"
            ));
        }
        regions.push(RegionRecord {
            region_elems: extent.iter().product(),
            tiles_decoded: per_read,
            tiles_total,
            read_ms: read_s * 1e3,
            identical,
            origin,
            extent,
        });
    }
    if !bound_ok {
        gates.push(format!(
            "bound contract: max |err| {max_abs_error:.3e} exceeds abs bound {abs_bound:.3e}"
        ));
    }

    // Out-of-core writer byte-identity.
    let mut w = TiledWriter::<f32>::new(
        AnyCompressor::by_name(name).map_err(|e| format!("tiles: {e}"))?,
        tile,
        dims,
        abs_bound,
    )
    .map_err(|e| format!("tiles: writer: {e}"))?;
    while let Some(origin) = w.next_origin().map(<[usize]>::to_vec) {
        let extent = w.next_extent().expect("origin implies extent");
        w.append(&field.subregion(&origin, &extent))
            .map_err(|e| format!("tiles: writer append: {e}"))?;
    }
    let writer_bytes = w.finish().map_err(|e| format!("tiles: writer finish: {e}"))?;
    let writer_identical = writer_bytes == bytes;
    if !writer_identical {
        gates.push("TiledWriter output differs from the parallel compress path".into());
    }

    // Progressive decode through MGARD tiles.
    let mgard_tc = TiledCompressor::new(
        AnyCompressor::by_name("MGARD").map_err(|e| format!("tiles: {e}"))?,
        tile,
    )
    .map_err(|e| format!("tiles: {e}"))?;
    let mgard_bytes = mgard_tc
        .compress(field, ErrorBound::Abs(abs_bound))
        .map_err(|e| format!("tiles: mgard compress failed: {e}"))?;
    let mgard_full: Field<f32> = mgard_tc
        .decompress(&mgard_bytes)
        .map_err(|e| format!("tiles: mgard decompress failed: {e}"))?;
    let mut progressive = Vec::new();
    for stop_level in [0usize, 1, 2] {
        let (coarse, decode_s) =
            fastest(REPS, || qip_container::decompress_reduced::<f32>(&mgard_bytes, stop_level));
        let coarse = coarse.map_err(|e| format!("tiles: progressive stop {stop_level}: {e}"))?;
        let want = mgard_full.decimate(1 << stop_level);
        let matches_decimate =
            coarse.shape() == want.shape() && coarse.as_slice() == want.as_slice();
        if !matches_decimate {
            gates.push(format!("progressive stop {stop_level}: differs from decimated full decode"));
        }
        progressive.push(ProgressiveRecord {
            stop_level,
            coarse_elems: coarse.len(),
            decode_ms: decode_s * 1e3,
            matches_decimate,
        });
    }

    let report = TilesReport {
        dims: dims.to_vec(),
        tile,
        compressor: name.into(),
        container_bytes: bytes.len(),
        compress_ms: compress_s * 1e3,
        full_decode_ms: full_decode_s * 1e3,
        max_abs_error,
        abs_bound,
        regions,
        writer_identical,
        progressive,
    };

    let rows: Vec<Vec<String>> = report
        .regions
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.extent),
                r.region_elems.to_string(),
                format!("{}/{}", r.tiles_decoded, r.tiles_total),
                fmt(r.read_ms),
                r.identical.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Tiled container region reads ({name}, {dims:?}, tile {tile}; full decode {} ms)",
            fmt(report.full_decode_ms)
        ),
        &["region", "elems", "tiles decoded", "read ms", "identical"],
        &rows,
    );
    let prog_rows: Vec<Vec<String>> = report
        .progressive
        .iter()
        .map(|p| {
            vec![
                p.stop_level.to_string(),
                p.coarse_elems.to_string(),
                fmt(p.decode_ms),
                p.matches_decimate.to_string(),
            ]
        })
        .collect();
    print_table(
        "Progressive decode (MGARD tiles)",
        &["stop level", "coarse elems", "decode ms", "matches decimate"],
        &prog_rows,
    );

    if let Err(e) = write_json(&opts.out, "BENCH_tiles.json", &report) {
        eprintln!("[failed to write BENCH_tiles.json: {e}]");
    }
    if gates.is_empty() {
        Ok(report)
    } else {
        Err(format!("tiles: {} hard gate(s) failed:\n  {}", gates.len(), gates.join("\n  ")))
    }
}
