//! Tiled identity: the tiled container is the inner compressor, tile by
//! tile, whatever the worker count and whichever read path.
//!
//! At 1, 2 and 8 workers, for every registry compressor over the cases it
//! is given (the case matrix's shape rows and a few draws): every tile
//! stream equals the inner compressor's own stream for that tile, the
//! out-of-core [`TiledWriter`] writes the parallel path's bytes, and every
//! read path — [`decompress_tile`], and [`read_region`] on boxes across the
//! tile seams and on 24 seeded random regions — equals slicing the
//! full [`decompress_full`] output. Partial reads are a pure optimization,
//! never a different decode. Tiles are compressed in per-worker runs on one
//! reused context, so this is also where the worker count must not move a
//! byte.
//!
//! The tiled golden containers are the second grid of [`crate::golden`].

use crate::differential::Divergence;
use crate::matrix::Case;
use qip_container::{
    decompress_full, decompress_tile, read_region, ContainerInfo, TiledCompressor, TiledWriter,
    MIN_TILE,
};
use qip_core::{CompressError, Compressor, ErrorBound};
use qip_fault::XorShift64;
use qip_registry::AnyCompressor;
use qip_tensor::{Field, Region, Scalar};

/// The worker counts the tiled identity pins.
pub const SWEEP_THREADS: [usize; 3] = [1, 2, 8];

/// Seeded random regions read per case and worker count.
const REGIONS: usize = 24;

/// The tile edge of the matrix's tiled runs: [`MIN_TILE`], so a drawn case
/// has seams too, or 32 above 2¹⁵ points, where [`MIN_TILE`] would cut
/// hundreds of tiny tiles.
pub fn tile_edge(dims: &[usize]) -> usize {
    if dims.iter().product::<usize>() > 1 << 15 {
        32
    } else {
        MIN_TILE
    }
}

/// Draw a uniformly random valid region inside `dims` (every extent ≥ 1 and
/// in bounds, so [`Region::validate`] always accepts it).
fn random_region(rng: &mut XorShift64, dims: &[usize]) -> Region {
    let mut origin = Vec::with_capacity(dims.len());
    let mut extent = Vec::with_capacity(dims.len());
    for &d in dims {
        let e = 1 + rng.below(d);
        let o = rng.below(d - e + 1);
        origin.push(o);
        extent.push(e);
    }
    Region::new(&origin, &extent)
}

/// Set `RAYON_NUM_THREADS`, run `f`, restore the previous value.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let r = f();
    match prev {
        Some(p) => std::env::set_var("RAYON_NUM_THREADS", p),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    r
}

/// `r`, with `what` failed named in its error.
fn named<V>(what: &str, r: Result<V, CompressError>) -> Result<V, String> {
    r.map_err(|e| format!("{what} failed: {e}"))
}

/// The tiled identities of `inner` on `field` at the current worker count.
/// `reference` pins the stream of the first worker count.
fn tile_identity_one<T: Scalar>(
    inner: &AnyCompressor,
    case: &Case,
    field: &Field<T>,
    abs: f64,
    reference: &mut Option<Vec<u8>>,
) -> Result<(), String> {
    let dims = case.dims.clone();
    let (tile, bound) = (tile_edge(&dims), ErrorBound::Abs(abs));
    let tc = named("TiledCompressor::new", TiledCompressor::new(inner.clone(), tile))?;
    let bytes = match tc.compress(field, bound) {
        // A refusal's legitimacy is the bound property's to judge.
        Err(CompressError::Unsupported(_)) => return Ok(()),
        r => named("compress", r)?,
    };
    if *reference.get_or_insert_with(|| bytes.clone()) != bytes {
        return Err("the stream moved with the worker count".into());
    }

    // Every tile stream is the inner compressor's own stream; the grid has
    // clipped edge tiles, so one worker's context sees several shapes.
    let (info, payload) = named("ContainerInfo::parse", ContainerInfo::parse(&bytes))?;
    let grid = info.grid();
    let extent = vec![tile; dims.len()];
    for (entry, origin) in info.tiles.iter().zip(grid.origins()) {
        let want =
            named("inner compress", inner.compress(&field.subregion(&origin, &extent), bound))?;
        if payload[entry.offset..entry.offset + entry.len] != want[..] {
            return Err(format!("tile at {origin:?} is not the inner compressor's stream"));
        }
    }

    // The out-of-core writer (one context for the whole container).
    let mut w = named("TiledWriter::new", TiledWriter::<T>::new(inner.clone(), tile, &dims, abs))?;
    while let (Some(origin), Some(extent)) =
        (w.next_origin().map(<[usize]>::to_vec), w.next_extent())
    {
        named("TiledWriter::append", w.append(&field.subregion(&origin, &extent)))?;
    }
    if named("TiledWriter::finish", w.finish())? != bytes {
        return Err("the writer's bytes differ from the parallel path's".into());
    }

    // Read paths against slicing the full decode.
    let full: Field<T> = named("decompress_full", decompress_full(&bytes))?;
    if full.shape() != field.shape() {
        return Err(format!("decompress_full returned shape {:?}", full.shape().dims()));
    }
    for (idx, origin) in grid.origins().enumerate() {
        let (o, t) = named("decompress_tile", decompress_tile::<T>(&bytes, idx))?;
        let want = full.subregion(&origin, &grid.clipped_extent(&origin));
        if o != origin || t.to_le_bytes() != want.to_le_bytes() {
            return Err(format!("decompress_tile {idx} is not the slice at {origin:?}"));
        }
    }
    // From the last sample before the first seam to the far corner: both
    // sides of every tile seam on every axis, clipped edge tiles included;
    // then the seeded random regions.
    let last: Vec<usize> = dims.iter().map(|&d| d - 1).collect();
    let seams: Vec<usize> = last.iter().map(|&l| l.min(tile - 1)).collect();
    let mut regions = vec![
        Region::new(&vec![0; dims.len()], &dims),
        Region::new(&last, &vec![1; dims.len()]),
        Region::new(
            &dims.iter().map(|&d| d / 3).collect::<Vec<_>>(),
            &dims.iter().map(|&d| (d / 2).max(1)).collect::<Vec<_>>(),
        ),
        Region::new(&seams, &dims.iter().zip(&seams).map(|(&d, &s)| d - s).collect::<Vec<_>>()),
    ];
    let mut rng = XorShift64::new(case.seed);
    regions.extend((0..REGIONS).map(|_| random_region(&mut rng, &dims)));
    for region in regions {
        let got: Field<T> = named("read_region", read_region(&bytes, &region))?;
        let (origin, extent) = (region.origin(), region.extent());
        if got.to_le_bytes() != full.subregion(origin, extent).to_le_bytes() {
            return Err(format!("read_region at {origin:?}+{extent:?} is not the slice"));
        }
    }
    Ok(())
}

fn tile_identity_case<T: Scalar>(inner: &AnyCompressor, case: &Case) -> Vec<Divergence> {
    let field: Field<T> = case.field();
    let abs = case.bound.resolve(&field).abs;
    let mut reference = None;
    SWEEP_THREADS
        .into_iter()
        .filter_map(|threads| {
            let problem = with_threads(threads, || {
                tile_identity_one(inner, case, &field, abs, &mut reference)
            })
            .err()?;
            Some(Divergence {
                compressor: Compressor::<T>::name(inner),
                case: format!("{case}, tile {}, {threads} workers", tile_edge(&case.dims)),
                problem,
            })
        })
        .collect()
}

/// Run the tiled identities for every registry compressor over `cases`, at
/// [`tile_edge`] and every worker count in [`SWEEP_THREADS`]. Planted rows
/// are the bound property's and are skipped (MGARD and ZFP refuse them).
/// Empty result = every tile, writer and read path agrees, whatever the
/// worker count. Mutates the process-global `RAYON_NUM_THREADS` while it
/// runs.
pub fn tile_identity_suite(cases: &[Case]) -> Vec<Divergence> {
    let mut findings = Vec::new();
    for inner in AnyCompressor::registry() {
        for case in cases.iter().filter(|c| c.plant.is_none()) {
            findings.extend(match case.dtype {
                "f64" => tile_identity_case::<f64>(&inner, case),
                _ => tile_identity_case::<f32>(&inner, case),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_regions_are_always_valid() {
        let mut rng = XorShift64::new(9);
        for dims in [&[1usize][..], &[37], &[13, 11], &[17, 10, 9]] {
            for _ in 0..200 {
                let r = random_region(&mut rng, dims);
                r.validate(dims).expect("generated region must validate");
            }
        }
    }
}
