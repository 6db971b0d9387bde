//! Tiled container format: random-access region reads, parallel tile
//! round-trips, and progressive (coarse-first) decoding.
//!
//! The container is the workspace's one partitioner — the CPU analog of the
//! GPU compressors' chunked execution (cuSZ/cuSZ-i, paper Table I) and of the
//! embarrassingly parallel slice decomposition of Sec. VI-E. It splits a field
//! over the fixed [`TileGrid`] geometry, compresses every tile independently
//! with one of the eleven registry compressors (tile boundaries cut prediction
//! context, so ratios drop slightly in exchange for scaling across cores and
//! random access), and prepends a **sealed index** — tile grid
//! geometry, global shape/dtype/bound, and a per-tile `(offset, len, CRC32)`
//! table — so a reader can plan exactly which tiles a request touches before
//! decoding a single payload byte. That turns the all-or-nothing streams the
//! rest of the workspace produces into a serving-friendly format:
//!
//! - [`read_region`] decodes **only** the tiles a [`Region`] intersects
//!   (pinned by the `qip.container.tile_decodes` telemetry counter) and is
//!   byte-identical to slicing the full decompression;
//! - [`decompress_tile`] random-accesses one tile;
//! - [`decompress_reduced`] routes every tile through the inner compressor's
//!   [`ProgressiveDecompress`] capability (MGARD today) for a coarse first
//!   read at a fraction of the full decode cost;
//! - [`TiledWriter`] builds the same container one tile at a time, for
//!   fields too large to materialize — byte-identical to the parallel path.
//!
//! Streams self-describe: the index stores the canonical registry name of the
//! tile compressor, and readers reconstruct it via `AnyCompressor::by_name`,
//! so none of the read APIs need the writing configuration.

#![warn(missing_docs)]

mod format;
mod grid;

pub use format::{assemble, ContainerInfo, TileEntry, FMT_VERSION, MAGIC_TILED};
pub use grid::{TileGrid, MIN_TILE};

use qip_core::{
    CompressCtx, CompressError, Compressor, ErrorBound, ProgressiveDecompress, RegionDecompress,
};
use qip_registry::{detect_stream, AnyCompressor};
use qip_telemetry::{count, span, Label};
use qip_tensor::{Field, Region, Scalar, Shape};
use rayon::prelude::*;
use std::sync::Mutex;

/// Hub name of the `container.tile_decodes` count, bumped once per decoded
/// tile across every read path. The random-access contract is asserted
/// against it: a region covering one tile of N must move it by exactly 1.
pub const TILE_DECODES_COUNTER: &str = "qip.container.tile_decodes";

/// A compressor that tiles the field and round-trips every tile in parallel
/// through an inner registry compressor.
///
/// Implements the whole-field [`Compressor`] contract plus both capability
/// traits: [`RegionDecompress`] (via [`read_region`]) and
/// [`ProgressiveDecompress`] (via [`decompress_reduced`], when the inner
/// compressor is itself progressive).
#[derive(Debug, Clone)]
pub struct TiledCompressor {
    inner: AnyCompressor,
    tile: usize,
}

impl TiledCompressor {
    /// Tile with edge `tile` per axis, compressing tiles with `inner`.
    ///
    /// Returns [`CompressError::Unsupported`] below [`MIN_TILE`].
    pub fn new(inner: AnyCompressor, tile: usize) -> Result<Self, CompressError> {
        grid::check_edge(tile)?;
        Ok(TiledCompressor { inner, tile })
    }

    /// The per-tile compressor.
    pub fn inner(&self) -> &AnyCompressor {
        &self.inner
    }

    /// Tile edge length.
    pub fn tile_edge(&self) -> usize {
        self.tile
    }
}

impl<T: Scalar> Compressor<T> for TiledCompressor {
    fn name(&self) -> String {
        format!("{}⊞{}", Compressor::<T>::name(&self.inner), self.tile)
    }

    fn compress_into(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        _ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        let _t = span("container.compress");
        let dims = field.shape().dims().to_vec();
        // Resolve once against the whole field so every tile quantizes at the
        // same absolute tolerance (and `Rel` keeps its global meaning).
        let abs = bound.resolve(field).abs;
        let name = Compressor::<T>::name(&self.inner);

        let grid = TileGrid::new(&dims, self.tile)?;
        let origins: Vec<Vec<usize>> = grid.origins().collect();
        let extent = vec![self.tile; dims.len()];
        let runs: Vec<Result<TileEncoder, CompressError>> = origins
            .par_chunks(run_len(origins.len()))
            .map(|run| {
                let mut enc = TileEncoder::default();
                for origin in run {
                    enc.push(&self.inner, &field.subregion(origin, &extent), abs)?;
                }
                Ok(enc)
            })
            .collect();

        let mut all = TileEncoder::default();
        for run in runs {
            all.append(run?);
        }
        count("container.tile_encodes", Label::None, all.tiles.len() as u64);
        *out = format::assemble(T::BITS, &dims, self.tile, abs, &name, &all.tiles, &all.payload);
        Ok(())
    }

    fn decompress_into(
        &self,
        bytes: &[u8],
        _ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError> {
        decompress_full(bytes)
    }
}

/// Tiles per worker. Workers take contiguous runs of tiles so that each keeps
/// one warm [`CompressCtx`] for the lifetime of the call.
fn run_len(n_tiles: usize) -> usize {
    n_tiles.div_ceil(rayon::current_num_threads()).max(1)
}

/// One worker's share of a container under construction: a warm context, the
/// tile-stream scratch, and the payload and index entries of the tiles
/// compressed so far.
#[derive(Debug, Default)]
struct TileEncoder {
    ctx: CompressCtx,
    stream: Vec<u8>,
    payload: Vec<u8>,
    tiles: Vec<TileEntry>,
}

impl TileEncoder {
    /// Compress `tile` at the absolute bound and append its stream.
    fn push<T: Scalar>(
        &mut self,
        inner: &AnyCompressor,
        tile: &Field<T>,
        abs: f64,
    ) -> Result<(), CompressError> {
        inner.compress_into(tile, ErrorBound::Abs(abs), &mut self.ctx, &mut self.stream)?;
        self.tiles.push(TileEntry {
            offset: self.payload.len(),
            len: self.stream.len(),
            crc32: qip_core::integrity::crc32(&self.stream),
        });
        self.payload.extend_from_slice(&self.stream);
        Ok(())
    }

    /// Append the tiles of the run that follows this one in grid order.
    fn append(&mut self, next: TileEncoder) {
        if self.payload.is_empty() {
            self.payload = next.payload;
            self.tiles = next.tiles;
            return;
        }
        let base = self.payload.len();
        self.tiles.extend(next.tiles.into_iter().map(|t| TileEntry { offset: base + t.offset, ..t }));
        self.payload.extend_from_slice(&next.payload);
    }
}

/// Decode a whole container. Containers are self-describing (the index names
/// the tile compressor), so unlike [`TiledCompressor::decompress`] this needs
/// no configured instance — [`decompress_any`] routes here.
pub fn decompress_full<T: Scalar>(bytes: &[u8]) -> Result<Field<T>, CompressError> {
    let _t = span("container.decompress");
    let (info, payload) = ContainerInfo::parse(bytes)?;
    let inner = inner_of(&info)?;
    check_bits::<T>(&info)?;
    let shape = Shape::new(&info.dims);
    if shape.is_empty() {
        return Ok(Field::zeros(shape));
    }
    let grid = info.grid();
    let work: Vec<(usize, Vec<usize>)> = grid.origins().enumerate().collect();
    let out = Mutex::new(Field::from_vec(shape.clone(), qip_core::try_zeroed_vec(shape.len())?)?);
    for_each_tile(&info, payload, &work, |ctx, origin, stream| {
        let tile = decode_tile(&inner, stream, &grid.clipped_extent(origin), ctx)?;
        lock(&out).write_subregion(origin, &tile);
        Ok(())
    })?;
    Ok(out.into_inner().expect(POISONED))
}

/// Decode any stream the workspace emits, by its magic byte: a container
/// through [`decompress_full`], a flat stream through the registry compressor
/// [`detect_stream`] names. The one decode-by-magic entry behind
/// `qip decompress` and serve's `DECOMPRESS`.
pub fn decompress_any<T: Scalar>(
    bytes: &[u8],
    ctx: &mut CompressCtx,
) -> Result<Field<T>, CompressError> {
    const FOREIGN: CompressError = CompressError::WrongFormat("unrecognized stream magic");
    match detect_stream(bytes).ok_or(FOREIGN)? {
        "tiled" => decompress_full(bytes),
        name => AnyCompressor::by_name(name).map_err(|_| FOREIGN)?.decompress_into(bytes, ctx),
    }
}

impl<T: Scalar> RegionDecompress<T> for TiledCompressor {
    fn read_region(&self, bytes: &[u8], region: &Region) -> Result<Field<T>, CompressError> {
        read_region(bytes, region)
    }
}

impl<T: Scalar> ProgressiveDecompress<T> for TiledCompressor {
    fn decompress_reduced(
        &self,
        bytes: &[u8],
        stop_level: usize,
    ) -> Result<Field<T>, CompressError> {
        decompress_reduced(bytes, stop_level)
    }
}

/// Reconstruct the per-tile compressor a container names.
fn inner_of(info: &ContainerInfo) -> Result<AnyCompressor, CompressError> {
    AnyCompressor::by_name(&info.compressor)
        .map_err(|_| CompressError::Corrupt("tile index names an unknown compressor"))
}

fn check_bits<T: Scalar>(info: &ContainerInfo) -> Result<(), CompressError> {
    if info.bits != T::BITS {
        return Err(CompressError::WrongFormat("scalar width mismatch"));
    }
    Ok(())
}

const POISONED: &str = "a worker panicked while writing its tile";

fn lock<T>(out: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    out.lock().expect(POISONED)
}

/// CRC-gate tile `idx` and return its stream; every decoded tile passes
/// through here, so the [`TILE_DECODES_COUNTER`] telemetry counter is exact
/// across all read paths.
fn tile_stream<'a>(
    info: &ContainerInfo,
    payload: &'a [u8],
    idx: usize,
) -> Result<&'a [u8], CompressError> {
    let entry = &info.tiles[idx];
    let stream = payload
        .get(entry.offset..entry.offset + entry.len)
        .ok_or(CompressError::Corrupt("tile entry points past the payload"))?;
    if qip_core::integrity::crc32(stream) != entry.crc32 {
        return Err(CompressError::Corrupt("tile payload failed its CRC"));
    }
    count("container.tile_decodes", Label::None, 1);
    Ok(stream)
}

/// Hand the CRC-gated stream of every `(index, origin)` tile in `work` to
/// `decode`, in parallel over contiguous runs of tiles; each run shares one
/// context. `decode` places its tile into the caller's output itself, so no
/// decoded tile outlives its own iteration.
fn for_each_tile(
    info: &ContainerInfo,
    payload: &[u8],
    work: &[(usize, Vec<usize>)],
    decode: impl Fn(&mut CompressCtx, &[usize], &[u8]) -> Result<(), CompressError> + Sync,
) -> Result<(), CompressError> {
    work.par_chunks(run_len(work.len()))
        .map(|run| {
            let mut ctx = CompressCtx::new();
            run.iter()
                .try_for_each(|(idx, origin)| decode(&mut ctx, origin, tile_stream(info, payload, *idx)?))
        })
        .collect()
}

/// Decode one tile stream and check it has the shape the grid gives it.
fn decode_tile<T: Scalar>(
    inner: &AnyCompressor,
    stream: &[u8],
    extent: &[usize],
    ctx: &mut CompressCtx,
) -> Result<Field<T>, CompressError> {
    let tile: Field<T> = inner.decompress_into(stream, ctx)?;
    if tile.shape().dims() != extent {
        return Err(CompressError::Corrupt("tile shape disagrees with the grid"));
    }
    Ok(tile)
}

/// Decode exactly `region` from a container, touching **only** the tiles the
/// region intersects. The result is byte-identical to slicing the full
/// decompression at the same coordinates.
pub fn read_region<T: Scalar>(bytes: &[u8], region: &Region) -> Result<Field<T>, CompressError> {
    let _t = span("container.read_region");
    let (info, payload) = ContainerInfo::parse(bytes)?;
    check_bits::<T>(&info)?;
    region.validate(&info.dims)?;
    let inner = inner_of(&info)?;
    let grid = info.grid();

    let touched: Vec<(usize, Vec<usize>)> = grid
        .origins()
        .enumerate()
        .filter(|(_, origin)| region.intersects(origin, &grid.clipped_extent(origin)))
        .collect();
    count("container.region_reads", Label::None, 1);

    let out_shape = Shape::new(region.extent());
    let out =
        Mutex::new(Field::from_vec(out_shape.clone(), qip_core::try_zeroed_vec(out_shape.len())?)?);
    for_each_tile(&info, payload, &touched, |ctx, origin, stream| {
        let extent = grid.clipped_extent(origin);
        let tile: Field<T> = decode_tile(&inner, stream, &extent, ctx)?;
        // Overlap of this tile with the region, in global coordinates.
        let start: Vec<usize> =
            origin.iter().zip(region.origin()).map(|(&o, &ro)| o.max(ro)).collect();
        let span: Vec<usize> = (0..start.len())
            .map(|a| {
                (origin[a] + extent[a]).min(region.origin()[a] + region.extent()[a]) - start[a]
            })
            .collect();
        let in_tile: Vec<usize> = start.iter().zip(origin).map(|(&s, &o)| s - o).collect();
        let in_out: Vec<usize> =
            start.iter().zip(region.origin()).map(|(&s, &ro)| s - ro).collect();
        lock(&out).copy_box_from(&in_out, &tile, &in_tile, &span);
        Ok(())
    })?;
    Ok(out.into_inner().expect(POISONED))
}

/// Random-access one tile: returns its grid origin and decoded samples.
pub fn decompress_tile<T: Scalar>(
    bytes: &[u8],
    index: usize,
) -> Result<(Vec<usize>, Field<T>), CompressError> {
    let _t = span("container.decompress_tile");
    let (info, payload) = ContainerInfo::parse(bytes)?;
    check_bits::<T>(&info)?;
    let inner = inner_of(&info)?;
    let grid = info.grid();
    let origin = grid
        .origins()
        .nth(index)
        .ok_or(CompressError::Unsupported("tile index out of range"))?;
    let stream = tile_stream(&info, payload, index)?;
    let tile =
        decode_tile(&inner, stream, &grid.clipped_extent(&origin), &mut CompressCtx::new())?;
    Ok((origin, tile))
}

/// Progressive (coarse-first) decode of a whole container: every tile is
/// routed through the inner compressor's [`ProgressiveDecompress`] capability
/// and the coarse tiles are assembled on the stride-`2^stop_level` lattice,
/// exactly as if the full field had been decoded and then decimated.
///
/// Requires the inner compressor to be progressive (MGARD today) and the tile
/// edge to be divisible by `2^stop_level`, so every tile origin lands on the
/// global coarse lattice; both violations are typed
/// [`CompressError::Unsupported`].
pub fn decompress_reduced<T: Scalar>(
    bytes: &[u8],
    stop_level: usize,
) -> Result<Field<T>, CompressError> {
    let _t = span("container.decompress_reduced");
    let (info, payload) = ContainerInfo::parse(bytes)?;
    check_bits::<T>(&info)?;
    let inner = inner_of(&info)?;
    if stop_level >= 32 {
        return Err(CompressError::Unsupported("stop level out of range"));
    }
    let step = 1usize << stop_level;
    if info.tile % step != 0 {
        return Err(CompressError::Unsupported(
            "tile edge not divisible by 2^stop_level; tile origins would miss the coarse lattice",
        ));
    }
    let coarse_dims: Vec<usize> = info.dims.iter().map(|&d| d.div_ceil(step)).collect();
    let shape = Shape::new(&coarse_dims);
    if shape.is_empty() {
        return Ok(Field::zeros(shape));
    }
    let grid = info.grid();
    let progressive = || {
        inner.as_progressive::<T>().ok_or(CompressError::Unsupported(
            "tile compressor has no progressive decode path",
        ))
    };
    progressive()?;
    let work: Vec<(usize, Vec<usize>)> = grid.origins().enumerate().collect();
    let out = Mutex::new(Field::from_vec(shape.clone(), qip_core::try_zeroed_vec(shape.len())?)?);
    for_each_tile(&info, payload, &work, |_ctx, origin, stream| {
        let tile = progressive()?.decompress_reduced(stream, stop_level)?;
        let expect: Vec<usize> =
            grid.clipped_extent(origin).iter().map(|&e| e.div_ceil(step)).collect();
        if tile.shape().dims() != expect.as_slice() {
            return Err(CompressError::Corrupt("coarse tile shape disagrees with the grid"));
        }
        // Tile origins are multiples of the (step-divisible) edge, so they
        // map exactly onto the coarse lattice.
        let coarse_origin: Vec<usize> = origin.iter().map(|&o| o / step).collect();
        lock(&out).write_subregion(&coarse_origin, &tile);
        Ok(())
    })?;
    Ok(out.into_inner().expect(POISONED))
}

/// Out-of-core container builder: feed tiles one at a time in grid-origin
/// order, never materializing the whole field.
///
/// The bound must be **absolute** (a relative bound would need the full
/// field's value range, which an out-of-core producer cannot scan). Output is
/// byte-identical to [`TiledCompressor::compress`] at `ErrorBound::Abs` of
/// the same value.
pub struct TiledWriter<T: Scalar> {
    inner: AnyCompressor,
    name: String,
    grid: TileGrid,
    abs_bound: f64,
    origins: Vec<Vec<usize>>,
    next: usize,
    enc: TileEncoder,
    _scalar: std::marker::PhantomData<T>,
}

impl<T: Scalar> TiledWriter<T> {
    /// Start a container over a `dims`-shaped field at the given absolute
    /// bound, tiling with edge `tile` and compressing with `inner`.
    pub fn new(
        inner: AnyCompressor,
        tile: usize,
        dims: &[usize],
        abs_bound: f64,
    ) -> Result<Self, CompressError> {
        if !abs_bound.is_finite() || abs_bound <= 0.0 {
            return Err(CompressError::Unsupported("absolute bound must be finite and positive"));
        }
        let grid = TileGrid::new(dims, tile)?;
        let origins: Vec<Vec<usize>> = grid.origins().collect();
        let name = Compressor::<T>::name(&inner);
        Ok(TiledWriter {
            inner,
            name,
            grid,
            abs_bound,
            origins,
            next: 0,
            enc: TileEncoder::default(),
            _scalar: std::marker::PhantomData,
        })
    }

    /// Grid origin of the tile [`TiledWriter::append`] expects next, or
    /// `None` when every tile has been written.
    pub fn next_origin(&self) -> Option<&[usize]> {
        self.origins.get(self.next).map(Vec::as_slice)
    }

    /// Clipped extent of the tile [`TiledWriter::append`] expects next.
    pub fn next_extent(&self) -> Option<Vec<usize>> {
        self.next_origin().map(|o| self.grid.clipped_extent(o))
    }

    /// Number of tiles still to append.
    pub fn remaining(&self) -> usize {
        self.origins.len() - self.next
    }

    /// Compress and append the next tile. Its shape must equal
    /// [`TiledWriter::next_extent`] exactly.
    pub fn append(&mut self, tile: &Field<T>) -> Result<(), CompressError> {
        let extent = self
            .next_extent()
            .ok_or(CompressError::Unsupported("every tile has already been appended"))?;
        if tile.shape().dims() != extent.as_slice() {
            return Err(CompressError::Unsupported("tile shape disagrees with the grid"));
        }
        self.enc.push(&self.inner, tile, self.abs_bound)?;
        self.next += 1;
        count("container.tile_encodes", Label::None, 1);
        Ok(())
    }

    /// Seal the index and return the finished container. Fails if any tile
    /// is missing.
    pub fn finish(self) -> Result<Vec<u8>, CompressError> {
        if self.next != self.origins.len() {
            return Err(CompressError::Unsupported("not every tile has been appended"));
        }
        Ok(format::assemble(
            T::BITS,
            self.grid.dims(),
            self.grid.edge(),
            self.abs_bound,
            &self.name,
            &self.enc.tiles,
            &self.enc.payload,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(dims: &[usize]) -> Field<f32> {
        qip_data::Dataset::Miranda.generate_f32(11, dims)
    }

    fn tiled(name: &str, tile: usize) -> TiledCompressor {
        TiledCompressor::new(AnyCompressor::by_name(name).unwrap(), tile).unwrap()
    }

    #[test]
    fn registry_detects_the_container_magic() {
        let bytes = tiled("SZ3", 16).compress(&field(&[40, 33, 21]), ErrorBound::Abs(1e-3)).unwrap();
        assert_eq!(detect_stream(&bytes), Some("tiled"), "registry must classify 0xB0");
    }

    #[test]
    fn tile_seams_cost_a_modest_ratio() {
        // Seams cut prediction context: some ratio, not a collapse.
        let f = field(&[80, 80, 40]);
        let len = |c: &dyn Compressor<f32>| c.compress(&f, ErrorBound::Rel(1e-3)).unwrap().len();
        let (flat, tiles) = (len(&AnyCompressor::by_name("SZ3").unwrap()), len(&tiled("SZ3", 40)));
        assert!((tiles as f64) < flat as f64 * 1.6, "seam cost too large: {flat} -> {tiles}");
    }

    #[test]
    fn rel_bound_resolves_against_whole_field() {
        let f = field(&[30, 30, 30]);
        let tc = tiled("QoZ", 16);
        let bytes = tc.compress(&f, ErrorBound::Rel(1e-3)).unwrap();
        let (info, _) = ContainerInfo::parse(&bytes).unwrap();
        assert!((info.abs_bound - 1e-3 * f.value_range()).abs() < 1e-12);
    }

    #[test]
    fn containers_self_describe_the_inner_compressor() {
        // Decoding ignores the reader's configuration: a container written
        // with HPEZ+QP decodes through a TiledCompressor configured for SZ3,
        // and through every free function.
        let f = field(&[24, 20]);
        let bytes = tiled("HPEZ+QP", 8).compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        let (info, _) = ContainerInfo::parse(&bytes).unwrap();
        assert_eq!(info.compressor, "HPEZ+QP");
        let out: Field<f32> = tiled("SZ3", 16).decompress(&bytes).unwrap();
        assert!(qip_metrics::max_abs_error(&f, &out) <= 1e-3 + 1e-9);
    }

    #[test]
    fn read_region_is_byte_identical_to_slicing_full_decode() {
        let f = field(&[40, 33, 21]);
        let tc = tiled("SZ3+QP", 16);
        let bytes = tc.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        let full: Field<f32> = tc.decompress(&bytes).unwrap();
        for (origin, extent) in [
            (vec![0, 0, 0], vec![40, 33, 21]),
            (vec![3, 5, 7], vec![10, 9, 8]),
            (vec![39, 32, 20], vec![1, 1, 1]),
            (vec![0, 16, 0], vec![16, 17, 21]),
        ] {
            let region = Region::new(&origin, &extent);
            let got: Field<f32> = read_region(&bytes, &region).unwrap();
            let want = full.subregion(&origin, &extent);
            assert_eq!(got.as_slice(), want.as_slice(), "region {region}");
            assert_eq!(got.shape().dims(), extent.as_slice());
        }
    }

    #[test]
    fn read_region_rejects_invalid_regions_with_typed_errors() {
        use qip_tensor::TensorError;
        let f = field(&[20, 20]);
        let bytes = tiled("SZ3", 8).compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        let cases: [(Region, TensorError); 3] = [
            (
                Region::new(&[0], &[5]),
                TensorError::RankMismatch { expected: 2, actual: 1 },
            ),
            (Region::new(&[0, 0], &[5, 0]), TensorError::ZeroExtent { axis: 1 }),
            (
                Region::new(&[16, 0], &[5, 5]),
                TensorError::RegionOutOfBounds { axis: 0, origin: 16, extent: 5, dim: 20 },
            ),
        ];
        for (region, want) in cases {
            match read_region::<f32>(&bytes, &region) {
                Err(CompressError::Tensor(e)) => assert_eq!(e, want),
                other => panic!("{region}: expected typed tensor error, got {other:?}"),
            }
        }
    }

    #[test]
    fn decompress_tile_matches_subregion() {
        let f = field(&[24, 17]);
        let tc = tiled("MGARD", 8);
        let bytes = tc.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        let full: Field<f32> = tc.decompress(&bytes).unwrap();
        let (info, _) = ContainerInfo::parse(&bytes).unwrap();
        let grid = info.grid();
        for (idx, origin) in grid.origins().enumerate() {
            let (o, tile) = decompress_tile::<f32>(&bytes, idx).unwrap();
            assert_eq!(o, origin);
            let want = full.subregion(&origin, &grid.clipped_extent(&origin));
            assert_eq!(tile.as_slice(), want.as_slice(), "tile {idx}");
        }
        assert!(decompress_tile::<f32>(&bytes, grid.count()).is_err());
    }

    #[test]
    fn progressive_matches_full_decode_decimated() {
        let f = field(&[33, 28, 24]);
        let tc = tiled("MGARD", 16);
        let bytes = tc.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        let full: Field<f32> = tc.decompress(&bytes).unwrap();
        for stop in [0usize, 1, 2] {
            let coarse: Field<f32> = decompress_reduced(&bytes, stop).unwrap();
            let want = full.decimate(1 << stop);
            assert_eq!(coarse.shape(), want.shape(), "stop {stop}");
            assert_eq!(coarse.as_slice(), want.as_slice(), "stop {stop}");
        }
    }

    #[test]
    fn progressive_rejections_are_typed() {
        let f = field(&[20, 20]);
        // Non-progressive inner compressor.
        let bytes = tiled("SZ3", 8).compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        assert!(matches!(
            decompress_reduced::<f32>(&bytes, 1),
            Err(CompressError::Unsupported(_))
        ));
        // Tile edge (9) not divisible by 2^1.
        let bytes = tiled("MGARD", 9).compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        assert!(matches!(
            decompress_reduced::<f32>(&bytes, 1),
            Err(CompressError::Unsupported(_))
        ));
    }

    #[test]
    fn capability_traits_are_reachable_through_dyn() {
        let f = field(&[24, 24]);
        let tc = tiled("MGARD", 8);
        let bytes = tc.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        let region_dyn: &dyn RegionDecompress<f32> = &tc;
        let got = region_dyn.read_region(&bytes, &Region::new(&[4, 4], &[8, 8])).unwrap();
        assert_eq!(got.shape().dims(), &[8, 8]);
        let prog_dyn: &dyn ProgressiveDecompress<f32> = &tc;
        let coarse = prog_dyn.decompress_reduced(&bytes, 1).unwrap();
        assert_eq!(coarse.shape().dims(), &[12, 12]);
    }

    #[test]
    fn f64_roundtrip_and_width_mismatch_rejected() {
        let f64_field: Field<f64> = qip_data::Dataset::SegSalt.generate_f64(5, &[20, 18]);
        let tc = tiled("QoZ+QP", 8);
        let bytes = tc.compress(&f64_field, ErrorBound::Abs(1e-4)).unwrap();
        let out: Field<f64> = tc.decompress(&bytes).unwrap();
        assert!(qip_metrics::max_abs_error(&f64_field, &out) <= 1e-4 + 1e-12);
        // Reading at the wrong width is a typed WrongFormat, not garbage.
        let narrow: Result<Field<f32>, _> = tc.decompress(&bytes);
        assert!(matches!(narrow, Err(CompressError::WrongFormat("scalar width mismatch"))));
        assert!(matches!(
            read_region::<f32>(&bytes, &Region::new(&[0, 0], &[4, 4])),
            Err(CompressError::WrongFormat("scalar width mismatch"))
        ));
    }

    #[test]
    fn tiled_writer_is_byte_identical_to_parallel_compress() {
        let f = field(&[40, 33, 21]);
        for name in ["SZ3", "MGARD+QP"] {
            let tc = tiled(name, 16);
            let want = tc.compress(&f, ErrorBound::Abs(1e-3)).unwrap();

            let mut w = TiledWriter::<f32>::new(
                AnyCompressor::by_name(name).unwrap(),
                16,
                f.shape().dims(),
                1e-3,
            )
            .unwrap();
            while let Some(origin) = w.next_origin().map(<[usize]>::to_vec) {
                let extent = w.next_extent().unwrap();
                w.append(&f.subregion(&origin, &extent)).unwrap();
            }
            assert_eq!(w.remaining(), 0);
            let got = w.finish().unwrap();
            assert_eq!(got, want, "{name}: writer and parallel paths diverged");
        }
    }

    #[test]
    fn one_context_across_shapes_and_dtypes_leaks_nothing() {
        // A worker's encoder meets tiles of several shapes (clipped edges)
        // and, across containers, both scalar widths; each stream must equal
        // the one a fresh context produces.
        let codec = AnyCompressor::by_name("SZ3+QP").unwrap();
        let big = field(&[32, 32, 32]);
        let small = big.subregion(&[0, 0, 0], &[32, 9, 17]);
        let wide: Field<f64> = qip_data::Dataset::SegSalt.generate_f64(5, &[20, 18, 16]);
        let mut enc = TileEncoder::default();
        let mut want = Vec::new();
        for round in 0..2 {
            enc.push(&codec, &big, 1e-3).unwrap();
            enc.push(&codec, &wide, 1e-5).unwrap();
            enc.push(&codec, &small, 1e-3).unwrap();
            want.push(codec.compress(&big, ErrorBound::Abs(1e-3)).unwrap());
            want.push(codec.compress(&wide, ErrorBound::Abs(1e-5)).unwrap());
            want.push(codec.compress(&small, ErrorBound::Abs(1e-3)).unwrap());
            assert_eq!(enc.tiles.len(), 3 * (round + 1));
        }
        for (entry, want) in enc.tiles.iter().zip(&want) {
            assert!(&enc.payload[entry.offset..entry.offset + entry.len] == want.as_slice());
            assert_eq!(entry.crc32, qip_core::integrity::crc32(want));
        }
        assert_eq!(enc.payload.len(), want.iter().map(Vec::len).sum::<usize>());

        // The decode side: one context over the same mix.
        let mut ctx = CompressCtx::new();
        for _ in 0..2 {
            let a: Field<f32> = decode_tile(&codec, &want[0], &[32, 32, 32], &mut ctx).unwrap();
            let b: Field<f64> = decode_tile(&codec, &want[1], &[20, 18, 16], &mut ctx).unwrap();
            let c: Field<f32> = decode_tile(&codec, &want[2], &[32, 9, 17], &mut ctx).unwrap();
            assert!(a == codec.decompress(&want[0]).unwrap());
            assert!(b == codec.decompress(&want[1]).unwrap());
            assert!(c == codec.decompress(&want[2]).unwrap());
        }
        assert!(matches!(
            decode_tile::<f32>(&codec, &want[2], &[32, 9, 16], &mut ctx),
            Err(CompressError::Corrupt("tile shape disagrees with the grid"))
        ));
    }

    #[test]
    fn encoder_runs_stitch_in_grid_order() {
        let codec = AnyCompressor::by_name("SZ3").unwrap();
        let f = field(&[16, 16]);
        let mut whole = TileEncoder::default();
        let (mut first, mut second) = (TileEncoder::default(), TileEncoder::default());
        for (k, origin) in [[0usize, 0], [0, 8], [8, 0], [8, 8]].iter().enumerate() {
            let tile = f.subregion(origin, &[8, 8]);
            whole.push(&codec, &tile, 1e-3).unwrap();
            if k < 3 { &mut first } else { &mut second }.push(&codec, &tile, 1e-3).unwrap();
        }
        let mut stitched = TileEncoder::default();
        stitched.append(first);
        stitched.append(second);
        assert_eq!(stitched.payload, whole.payload);
        assert_eq!(stitched.tiles, whole.tiles);
    }

    #[test]
    fn tiled_writer_rejects_misuse() {
        let mut w =
            TiledWriter::<f32>::new(AnyCompressor::by_name("SZ3").unwrap(), 8, &[16, 16], 1e-3)
                .unwrap();
        // Wrong tile shape.
        let bad = Field::<f32>::zeros(Shape::d2(4, 4));
        assert!(w.append(&bad).is_err());
        // Finishing early.
        assert!(w.finish().is_err());
        // Invalid construction.
        assert!(TiledWriter::<f32>::new(
            AnyCompressor::by_name("SZ3").unwrap(),
            4,
            &[16, 16],
            1e-3
        )
        .is_err());
        assert!(TiledWriter::<f32>::new(
            AnyCompressor::by_name("SZ3").unwrap(),
            8,
            &[16, 16],
            0.0
        )
        .is_err());
    }

    #[test]
    fn corrupted_tile_payload_is_caught_by_its_crc() {
        let f = field(&[24, 24]);
        let tc = tiled("SZ3", 8);
        let mut bytes = tc.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        let (info, payload) = ContainerInfo::parse(&bytes).unwrap();
        let payload_start = bytes.len() - payload.len();
        // Flip one bit in the middle tile's payload: full decode fails, and a
        // region read confined to *other* tiles still succeeds.
        let victim = &info.tiles[4];
        bytes[payload_start + victim.offset + victim.len / 2] ^= 0x10;
        let whole: Result<Field<f32>, _> = tc.decompress(&bytes);
        assert!(matches!(whole, Err(CompressError::Corrupt(_))));
        assert!(read_region::<f32>(&bytes, &Region::new(&[0, 0], &[8, 8])).is_ok());
        let touched: Result<Field<f32>, _> =
            read_region(&bytes, &Region::new(&[8, 8], &[8, 8]));
        assert!(matches!(touched, Err(CompressError::Corrupt(_))));
    }

    #[test]
    fn tiny_tiles_rejected_with_typed_error() {
        for bad in [0, 1, MIN_TILE - 1] {
            assert!(matches!(
                TiledCompressor::new(AnyCompressor::by_name("SZ3").unwrap(), bad),
                Err(CompressError::Unsupported(_))
            ));
        }
        assert!(TiledCompressor::new(AnyCompressor::by_name("SZ3").unwrap(), MIN_TILE).is_ok());
    }

    #[test]
    fn one_d_and_f64_region_reads() {
        let f: Field<f64> = qip_data::Dataset::SegSalt.generate_f64(9, &[200]);
        let tc = tiled("HPEZ", 64);
        let bytes = tc.compress(&f, ErrorBound::Abs(1e-4)).unwrap();
        let full: Field<f64> = tc.decompress(&bytes).unwrap();
        let region = Region::new(&[37], &[90]);
        let got: Field<f64> = read_region(&bytes, &region).unwrap();
        assert_eq!(got.as_slice(), full.subregion(&[37], &[90]).as_slice());
    }
}
