//! Warm per-worker contexts never change a byte.
//!
//! Tiles are compressed and decoded in contiguous per-worker runs, each run
//! on one reused `CompressCtx`. Whatever the worker count, every tile stream
//! must equal the stream the inner compressor produces for that tile on a
//! fresh context, every read path must equal slicing the full decode, and
//! the bound must hold — on the shapes nobody generates too: 1×N×1, rank 4,
//! and a field smaller than `MIN_TILE` on every axis.
//!
//! One test function: it sweeps `RAYON_NUM_THREADS`, which is process-global.

use qip_container::{
    decompress_full, decompress_tile, read_region, ContainerInfo, TiledCompressor, TiledWriter,
};
use qip_core::{Compressor, ErrorBound};
use qip_registry::AnyCompressor;
use qip_tensor::{Field, Region, Scalar, Shape};

fn sweep<T: Scalar>(name: &str, field: &Field<T>, tile: usize, abs: f64) {
    let inner = AnyCompressor::by_name(name).unwrap();
    let tc = TiledCompressor::new(inner.clone(), tile).unwrap();
    let dims = field.shape().dims().to_vec();
    let mut reference: Option<Vec<u8>> = None;
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let what = format!("{name} {dims:?} tile {tile} at {threads} threads");
        let bytes = tc.compress(field, ErrorBound::Abs(abs)).unwrap();
        assert!(reference.get_or_insert_with(|| bytes.clone()) == &bytes, "{what}: bytes moved");

        // Every tile stream is the inner compressor's own stream; the grid
        // has clipped edge tiles, so one context sees several shapes.
        let (info, payload) = ContainerInfo::parse(&bytes).unwrap();
        let grid = info.grid();
        let extent = vec![tile; dims.len()];
        for (entry, origin) in info.tiles.iter().zip(grid.origins()) {
            let want = inner.compress(&field.subregion(&origin, &extent), ErrorBound::Abs(abs));
            let got = &payload[entry.offset..entry.offset + entry.len];
            assert!(got == want.unwrap().as_slice(), "{what}: tile at {origin:?}");
        }

        // The out-of-core writer (one context for the whole container).
        let mut w = TiledWriter::<T>::new(inner.clone(), tile, &dims, abs).unwrap();
        while let Some(origin) = w.next_origin().map(<[usize]>::to_vec) {
            w.append(&field.subregion(&origin, &w.next_extent().unwrap())).unwrap();
        }
        assert!(w.finish().unwrap() == bytes, "{what}: writer != parallel path");

        // Read paths against slicing the full decode.
        let full: Field<T> = decompress_full(&bytes).unwrap();
        assert_eq!(full.shape(), field.shape(), "{what}");
        assert!(qip_metrics::max_abs_error(field, &full) <= abs * (1.0 + 1e-9), "{what}: bound");
        for (idx, origin) in grid.origins().enumerate() {
            let (o, t) = decompress_tile::<T>(&bytes, idx).unwrap();
            assert_eq!(o, origin, "{what}");
            let want = full.subregion(&origin, &grid.clipped_extent(&origin));
            assert!(t == want, "{what}: decompress_tile {idx}");
        }
        let last: Vec<usize> = dims.iter().map(|&d| d - 1).collect();
        // From the last sample before the first seam to the far corner: both
        // sides of every tile seam on every axis, clipped edge tiles included.
        let seams: Vec<usize> = last.iter().map(|&l| l.min(tile - 1)).collect();
        let boxes = [
            (vec![0; dims.len()], dims.clone()),
            (last, vec![1; dims.len()]),
            (dims.iter().map(|&d| d / 3).collect(), dims.iter().map(|&d| (d / 2).max(1)).collect()),
            (seams.clone(), dims.iter().zip(&seams).map(|(&d, &s)| d - s).collect()),
        ];
        for (origin, extent) in boxes {
            let got: Field<T> = read_region(&bytes, &Region::new(&origin, &extent)).unwrap();
            assert!(got == full.subregion(&origin, &extent), "{what}: region at {origin:?}");
        }
    }
}

#[test]
fn tile_streams_and_read_paths_are_identical_at_every_worker_count() {
    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    sweep("SZ3+QP", &qip_data::segsalt_like(4, &[40, 33, 21]), 16, 1e-4);
    sweep("SZ3", &qip_data::miranda_like(4, &[36, 32, 32]), 32, 1e-3);
    sweep("HPEZ+QP", &qip_data::miranda_like(5, &[50, 37]), 16, 1e-3);
    sweep("MGARD", &qip_data::s3d_like(6, &[20, 18, 17]), 8, 1e-4);
    sweep("ZFP", &qip_data::hurricane_like(7, &[24, 24, 9]), 8, 1e-2);
    sweep("QoZ+QP", &qip_data::miranda_like(8, &[1, 100, 1]), 16, 1e-3);
    sweep("SPERR", &qip_data::miranda_like(9, &[5, 7, 3]), 8, 1e-3);
    let rank4 = Field::<f32>::from_fn(Shape::new(&[5, 12, 10, 9]), |c| {
        (c[0] as f32 * 0.7 + c[1] as f32 * 0.3).sin() + (c[2] as f32 * 0.2).cos() * c[3] as f32 * 0.1
    });
    sweep("MGARD+QP", &rank4, 8, 1e-3);
    match prev {
        Some(p) => std::env::set_var("RAYON_NUM_THREADS", p),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}
