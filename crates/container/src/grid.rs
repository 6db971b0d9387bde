//! The workspace's one partitioner: the fixed grid of tiles over a field.

use qip_core::CompressError;
use qip_tensor::Shape;

/// Smallest accepted tile edge: below this, tile boundaries destroy so much
/// prediction context that ratios collapse, so construction refuses outright.
pub const MIN_TILE: usize = 8;

/// [`CompressError::Unsupported`] when `edge` is below [`MIN_TILE`], so callers
/// wiring a user-supplied tile size get a typed error instead of a panic.
pub(crate) fn check_edge(edge: usize) -> Result<(), CompressError> {
    if edge < MIN_TILE {
        return Err(CompressError::Unsupported(
            "tile edge below 8 per axis destroys prediction context",
        ));
    }
    Ok(())
}

/// The fixed grid of edge-`edge` tiles over a field's dims — the only code
/// that cuts a field into independently compressed boxes, so every writer and
/// reader agrees on origin order, clipping, and counts.
///
/// Origins enumerate in row-major order (last axis fastest), matching
/// [`qip_tensor::Shape::blocks`]; edge tiles are clipped to the field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGrid {
    shape: Shape,
    edge: usize,
}

impl TileGrid {
    /// The grid of `edge`-sized tiles over `dims`.
    ///
    /// Returns [`CompressError::Unsupported`] when `edge` is below
    /// [`MIN_TILE`]; dims must be 1–4-D like every workspace shape.
    pub fn new(dims: &[usize], edge: usize) -> Result<Self, CompressError> {
        check_edge(edge)?;
        if dims.is_empty() || dims.len() > 4 {
            return Err(CompressError::WrongFormat("dimensionality out of range"));
        }
        Ok(TileGrid { shape: Shape::new(dims), edge })
    }

    /// Tile edge length per axis (edge tiles are clipped).
    pub fn edge(&self) -> usize {
        self.edge
    }

    /// The gridded field's dims.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Tile origins in canonical (row-major, last-axis-fastest) order.
    pub fn origins(&self) -> qip_tensor::BlockIter {
        self.shape.blocks(self.edge)
    }

    /// Total number of tiles (`∏ ceil(d / edge)`; 0 when any dim is 0).
    pub fn count(&self) -> usize {
        if self.shape.is_empty() {
            return 0;
        }
        self.shape.dims().iter().map(|&d| d.div_ceil(self.edge)).product()
    }

    /// The clipped extent of the tile at `origin`.
    pub fn clipped_extent(&self, origin: &[usize]) -> Vec<usize> {
        origin
            .iter()
            .zip(self.shape.dims())
            .map(|(&o, &d)| self.edge.min(d.saturating_sub(o)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(TileGrid::new(&[10, 10], MIN_TILE - 1).is_err());
    }

    #[test]
    fn tile_grid_matches_subregion_geometry() {
        // The grid and `Field::subregion` must agree on the decomposition —
        // the tile index leans on this equivalence.
        let f = qip_data::Dataset::Miranda.generate_f32(0, &[37, 29, 21]);
        let grid = TileGrid::new(f.shape().dims(), 16).unwrap();
        for o in grid.origins() {
            let blk = f.subregion(&o, &[16, 16, 16]);
            assert_eq!(blk.shape().dims(), grid.clipped_extent(&o).as_slice());
        }
    }
}
