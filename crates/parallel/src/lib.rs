//! Block-parallel compression wrapper.
//!
//! The paper's Table I lists GPU support (cuSZ/cuSZ-i-style, refs \[21\]/\[22\])
//! as a distinguishing feature of MGARD and QoZ, and its Sec. VI-E transfer
//! experiment relies on embarrassingly parallel slice decomposition. This
//! crate provides the CPU analog of that chunked execution model: a generic
//! wrapper that splits a field into independent rectangular blocks,
//! compresses them concurrently with rayon, and concatenates the streams.
//!
//! Trade-offs are exactly the ones the GPU compressors accept: block
//! boundaries cut prediction context, so ratios drop slightly versus the
//! monolithic compressor, in exchange for near-linear scaling across cores.
//! The error bound is resolved against the *full* field before the split, so
//! `Rel` bounds mean the same thing as in the wrapped compressor.

#![warn(missing_docs)]

use qip_codec::{ByteReader, ByteWriter};
use qip_core::{CompressCtx, CompressError, Compressor, ErrorBound};
use qip_tensor::{Field, Scalar, Shape};
use rayon::prelude::*;

/// Stream magic for the block-parallel wrapper.
const MAGIC_PAR: u8 = 0x90;
/// Stream format version.
const FMT_VERSION: u8 = 1;

/// Smallest accepted block edge: below this, block boundaries destroy so much
/// prediction context that ratios collapse, so construction refuses outright.
pub const MIN_BLOCK: usize = 8;

/// The fixed grid of edge-`edge` blocks over a field's dims — the one
/// block/tile geometry shared by [`BlockParallel`] and the tiled container
/// (`qip-container`), so both agree on origin order, clipping, and counts.
///
/// Origins enumerate in row-major order (last axis fastest), matching
/// [`qip_tensor::Shape::blocks`]; edge blocks are clipped to the field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGrid {
    shape: Shape,
    edge: usize,
}

impl TileGrid {
    /// The grid of `edge`-sized blocks over `dims`.
    ///
    /// Returns [`CompressError::Unsupported`] when `edge` is below
    /// [`MIN_BLOCK`] (same rationale as [`BlockParallel::new`]); dims must be
    /// 1–4-D like every workspace shape.
    pub fn new(dims: &[usize], edge: usize) -> Result<Self, CompressError> {
        if edge < MIN_BLOCK {
            return Err(CompressError::Unsupported(
                "block edge below 8 per axis destroys prediction context",
            ));
        }
        if dims.is_empty() || dims.len() > 4 {
            return Err(CompressError::WrongFormat("dimensionality out of range"));
        }
        Ok(TileGrid { shape: Shape::new(dims), edge })
    }

    /// Block edge length per axis (edge blocks are clipped).
    pub fn edge(&self) -> usize {
        self.edge
    }

    /// The gridded field's dims.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Block origins in canonical (row-major, last-axis-fastest) order.
    pub fn origins(&self) -> qip_tensor::BlockIter {
        self.shape.blocks(self.edge)
    }

    /// Total number of blocks (`∏ ceil(d / edge)`; 0 when any dim is 0).
    pub fn count(&self) -> usize {
        if self.shape.is_empty() {
            return 0;
        }
        self.shape.dims().iter().map(|&d| d.div_ceil(self.edge)).product()
    }

    /// The clipped extent of the block at `origin`.
    pub fn clipped_extent(&self, origin: &[usize]) -> Vec<usize> {
        origin
            .iter()
            .zip(self.shape.dims())
            .map(|(&o, &d)| self.edge.min(d.saturating_sub(o)))
            .collect()
    }
}

/// A compressor wrapper that processes independent blocks in parallel.
#[derive(Debug, Clone)]
pub struct BlockParallel<C> {
    inner: C,
    block: usize,
}

impl<C> BlockParallel<C> {
    /// Wrap `inner`, splitting fields into blocks of `block` per axis
    /// (clipped at field edges). 64 matches the GPU compressors' chunking.
    ///
    /// Returns [`CompressError::Unsupported`] when `block` is below
    /// [`MIN_BLOCK`], so callers wiring a user-supplied block size get a
    /// typed error instead of a panic.
    pub fn new(inner: C, block: usize) -> Result<Self, CompressError> {
        if block < MIN_BLOCK {
            return Err(CompressError::Unsupported(
                "block edge below 8 per axis destroys prediction context",
            ));
        }
        Ok(BlockParallel { inner, block })
    }

    /// The wrapped compressor.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Block edge length.
    pub fn block_size(&self) -> usize {
        self.block
    }
}

impl<T, C> Compressor<T> for BlockParallel<C>
where
    T: Scalar,
    C: Compressor<T> + Sync,
{
    fn name(&self) -> String {
        format!("{}∥{}", self.inner.name(), self.block)
    }

    fn compress_into(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        _ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        let dims = field.shape().dims().to_vec();
        // Resolve the bound once against the whole field so every block
        // quantizes at the same absolute tolerance.
        let abs = bound.resolve(field).as_abs();

        let mut w = ByteWriter::with_capacity(field.len() / 4 + 64);
        w.put_u8(MAGIC_PAR);
        w.put_u8(FMT_VERSION);
        w.put_u8(T::BITS as u8);
        w.put_u8(dims.len() as u8);
        for &d in &dims {
            w.put_uvarint(d as u64);
        }
        w.put_uvarint(self.block as u64);
        if field.is_empty() {
            *out = qip_core::integrity::seal(w.finish());
            return Ok(());
        }

        let grid = TileGrid::new(&dims, self.block)?;
        let origins: Vec<Vec<usize>> = grid.origins().collect();
        let extent = vec![self.block; dims.len()];
        let streams: Vec<Result<Vec<u8>, CompressError>> = origins
            .par_iter()
            .map(|origin| {
                let blk = field.subregion(origin, &extent);
                self.inner.compress(&blk, abs)
            })
            .collect();

        w.put_uvarint(streams.len() as u64);
        for s in streams {
            w.put_block(&s?);
        }
        *out = qip_core::integrity::seal(w.finish());
        Ok(())
    }

    fn decompress_into(
        &self,
        bytes: &[u8],
        _ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError> {
        let bytes = qip_core::integrity::check(bytes)?;
        let mut r = ByteReader::new(bytes);
        if r.get_u8()? != MAGIC_PAR {
            return Err(CompressError::WrongFormat("not a block-parallel stream"));
        }
        if r.get_u8()? != FMT_VERSION {
            return Err(CompressError::WrongFormat("unknown block-parallel version"));
        }
        if r.get_u8()? != T::BITS as u8 {
            return Err(CompressError::WrongFormat("scalar width mismatch"));
        }
        let ndim = r.get_u8()? as usize;
        if ndim == 0 || ndim > 4 {
            return Err(CompressError::WrongFormat("dimensionality out of range"));
        }
        let mut dims = Vec::with_capacity(ndim);
        let mut volume: u128 = 1;
        for _ in 0..ndim {
            let d = r.get_uvarint()? as usize;
            volume = volume.saturating_mul(d.max(1) as u128);
            dims.push(d);
        }
        if volume > (1u128 << 36) {
            return Err(CompressError::WrongFormat("implausible field volume"));
        }
        let block = r.get_uvarint()? as usize;
        if block < MIN_BLOCK {
            return Err(CompressError::WrongFormat("block size below minimum"));
        }
        let shape = Shape::new(&dims);
        if shape.is_empty() {
            return Ok(Field::zeros(shape));
        }

        let n_blocks = r.get_uvarint()? as usize;
        let grid = TileGrid::new(&dims, block)?;
        let origins: Vec<Vec<usize>> = grid.origins().collect();
        if origins.len() != n_blocks {
            return Err(CompressError::WrongFormat("block count mismatch"));
        }
        let mut payloads = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            payloads.push(r.get_block()?);
        }

        let blocks: Vec<Result<Field<T>, CompressError>> =
            payloads.par_iter().map(|p| self.inner.decompress(p)).collect();

        let mut out = Field::from_vec(shape.clone(), qip_core::try_zeroed_vec::<T>(shape.len())?)?;
        for (origin, blk) in origins.iter().zip(blocks) {
            let blk = blk?;
            // Defensive: the block shape must match its clipped extent.
            for (a, (&o, &e)) in origin.iter().zip(blk.shape().dims()).enumerate() {
                if o + e > dims[a] {
                    return Err(CompressError::WrongFormat("block exceeds field"));
                }
            }
            out.write_subregion(origin, &blk);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qip_core::QpConfig;
    use qip_sz3::Sz3;

    fn field(dims: &[usize]) -> Field<f32> {
        qip_data::Dataset::Miranda.generate_f32(0, dims)
    }

    #[test]
    fn roundtrip_bound_held() {
        let f = field(&[70, 50, 40]);
        let par = BlockParallel::new(Sz3::new().with_qp(QpConfig::best_fit()), 32).expect("valid block size");
        let bytes = par.compress(&f, ErrorBound::Rel(1e-3)).unwrap();
        let out = par.decompress(&bytes).unwrap();
        let abs = 1e-3 * f.value_range();
        assert!(qip_metrics_max_abs(&f, &out) <= abs * (1.0 + 1e-9));
    }

    fn qip_metrics_max_abs(a: &Field<f32>, b: &Field<f32>) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn parallel_deterministic() {
        let f = field(&[64, 48, 33]);
        let par = BlockParallel::new(Sz3::new(), 32).expect("valid block size");
        let a = par.compress(&f, ErrorBound::Rel(1e-3)).unwrap();
        let b = par.compress(&f, ErrorBound::Rel(1e-3)).unwrap();
        assert_eq!(a, b, "parallel compression must be deterministic");
    }

    #[test]
    fn matches_serial_per_block_semantics() {
        // Each block decompresses to exactly what the inner compressor would
        // produce for that block at the same absolute bound.
        let f = field(&[40, 40, 20]);
        let inner = Sz3::new();
        let par = BlockParallel::new(inner.clone(), 20).expect("valid block size");
        let abs = ErrorBound::Abs(ErrorBound::Rel(1e-3).absolute(f.value_range()));
        let bytes = par.compress(&f, ErrorBound::Rel(1e-3)).unwrap();
        let whole = par.decompress(&bytes).unwrap();
        for origin in f.shape().blocks(20) {
            let blk = f.subregion(&origin, &[20, 20, 20]);
            let direct: Field<f32> =
                inner.decompress(&inner.compress(&blk, abs).unwrap()).unwrap();
            let got = whole.subregion(&origin, &[20, 20, 20]);
            assert_eq!(direct.as_slice(), got.as_slice(), "origin {origin:?}");
        }
    }

    #[test]
    fn edge_blocks_clipped() {
        // Dims not divisible by the block size.
        let f = field(&[37, 29, 21]);
        let par = BlockParallel::new(Sz3::new(), 16).expect("valid block size");
        let bytes = par.compress(&f, ErrorBound::Rel(1e-2)).unwrap();
        let out: Field<f32> = par.decompress(&bytes).unwrap();
        assert_eq!(out.shape(), f.shape());
    }

    #[test]
    fn small_field_single_block() {
        let f = field(&[10, 10, 10]);
        let par = BlockParallel::new(Sz3::new(), 64).expect("valid block size");
        let bytes = par.compress(&f, ErrorBound::Rel(1e-3)).unwrap();
        let out: Field<f32> = par.decompress(&bytes).unwrap();
        assert_eq!(out.shape(), f.shape());
    }

    #[test]
    fn truncation_and_foreign_rejected() {
        let f = field(&[32, 32, 16]);
        let par = BlockParallel::new(Sz3::new(), 16).expect("valid block size");
        let bytes = par.compress(&f, ErrorBound::Rel(1e-3)).unwrap();
        for cut in [0, 3, bytes.len() / 2] {
            let r: Result<Field<f32>, _> = par.decompress(&bytes[..cut]);
            assert!(r.is_err(), "cut {cut}");
        }
        // A plain SZ3 stream is not a block-parallel stream.
        let plain = Sz3::new().compress(&f, ErrorBound::Rel(1e-3)).unwrap();
        let r: Result<Field<f32>, _> = par.decompress(&plain);
        assert!(r.is_err());
    }

    #[test]
    fn ratio_cost_is_modest() {
        // Block boundaries cost some ratio but not a collapse.
        let f = field(&[80, 80, 40]);
        let mono = Sz3::new();
        let par = BlockParallel::new(Sz3::new(), 40).expect("valid block size");
        let a = mono.compress(&f, ErrorBound::Rel(1e-3)).unwrap().len();
        let b = par.compress(&f, ErrorBound::Rel(1e-3)).unwrap().len();
        assert!(
            (b as f64) < a as f64 * 1.6,
            "block-parallel ratio cost too large: {a} -> {b}"
        );
    }

    #[test]
    fn tiny_blocks_rejected_with_typed_error() {
        for bad in [0, 1, 4, MIN_BLOCK - 1] {
            match BlockParallel::new(Sz3::new(), bad) {
                Err(CompressError::Unsupported(msg)) => {
                    assert!(msg.contains("block edge"), "{msg}")
                }
                other => panic!("block {bad}: expected Unsupported, got {other:?}"),
            }
        }
        // The boundary itself is accepted.
        let ok = BlockParallel::new(Sz3::new(), MIN_BLOCK).expect("MIN_BLOCK is valid");
        assert_eq!(ok.block_size(), MIN_BLOCK);
    }

    #[test]
    fn tile_grid_counts_clips_and_orders() {
        let grid = TileGrid::new(&[37, 29], 16).unwrap();
        let origins: Vec<_> = grid.origins().collect();
        assert_eq!(origins.len(), grid.count());
        assert_eq!(grid.count(), 3 * 2);
        assert_eq!(origins[0], vec![0, 0]);
        assert_eq!(origins[1], vec![0, 16]); // last axis fastest
        assert_eq!(grid.clipped_extent(&[32, 16]), vec![5, 13]);
        assert_eq!(grid.clipped_extent(&[0, 0]), vec![16, 16]);
        // Degenerate and invalid grids.
        assert_eq!(TileGrid::new(&[0, 10], 8).unwrap().count(), 0);
        assert!(TileGrid::new(&[10, 10], MIN_BLOCK - 1).is_err());
    }

    #[test]
    fn tile_grid_matches_block_parallel_geometry() {
        // The wrapper and the grid must agree on the block decomposition —
        // qip-container leans on this equivalence for its tile index.
        let f = field(&[37, 29, 21]);
        let grid = TileGrid::new(f.shape().dims(), 16).unwrap();
        let from_shape: Vec<_> = f.shape().blocks(16).collect();
        let from_grid: Vec<_> = grid.origins().collect();
        assert_eq!(from_shape, from_grid);
        for o in &from_grid {
            let blk = f.subregion(o, &[16, 16, 16]);
            assert_eq!(blk.shape().dims(), grid.clipped_extent(o).as_slice());
        }
    }
}
