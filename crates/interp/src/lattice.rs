//! Level/pass lattice geometry and iteration.
//!
//! A level with stride `s = 2^(l−1)` starts from the known lattice of points
//! whose coordinates are all multiples of `2s` and fills in the rest. Each
//! *pass* visits the points of one parity class in row-major order; the
//! geometry below encodes, per axis, the first coordinate and the spacing of
//! the pass lattice, which is exactly what the QP hook needs to locate
//! same-pass neighbors (paper Algorithm 2's strides `s₁`, `s₂`).

use crate::config::PassStructure;
use qip_core::{CompressError, QpVisit};

/// Up to four per-axis values or axis indices, stored inline. Pass geometry
/// is rebuilt for every level and every tuning candidate, so it must not
/// allocate. Orders like the slice it dereferences to, shorter first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct AxisVec {
    len: usize,
    vals: [usize; 4],
}

impl AxisVec {
    /// `n` copies of `v`.
    pub fn splat(v: usize, n: usize) -> Self {
        std::iter::repeat_n(v, n).collect()
    }
}

impl std::ops::Deref for AxisVec {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.vals[..self.len]
    }
}

impl std::ops::DerefMut for AxisVec {
    fn deref_mut(&mut self) -> &mut [usize] {
        &mut self.vals[..self.len]
    }
}

impl FromIterator<usize> for AxisVec {
    /// Panics beyond four entries (the workspace's maximum rank).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut v = AxisVec::default();
        for x in iter {
            v.vals[v.len] = x;
            v.len += 1;
        }
        v
    }
}

impl<'a> IntoIterator for &'a AxisVec {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One interpolation pass: a parity class of the level's new points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pass {
    /// Interpolation level (1 = finest).
    pub level: usize,
    /// Level stride `s`.
    pub stride: usize,
    /// First coordinate of the pass lattice, per axis.
    pub start: AxisVec,
    /// Spacing of the pass lattice, per axis.
    pub step: AxisVec,
    /// Axes along which the point is interpolated (one for directional
    /// passes; the odd-parity axes for multi-dimensional passes).
    pub interp_axes: AxisVec,
    /// QP neighbor axes: (left, top, back). Offsets are the pass lattice
    /// `step` along each axis. `None` when the field has too few dimensions.
    pub qp_axes: (Option<usize>, Option<usize>, Option<usize>),
}

impl Pass {
    /// The lattice of every `step`-th point from the origin on all `ndim`
    /// axes, with nothing to interpolate: the anchor and coarse grids.
    pub fn uniform(ndim: usize, level: usize, stride: usize, step: usize) -> Pass {
        Pass {
            level,
            stride,
            start: AxisVec::splat(0, ndim),
            step: AxisVec::splat(step, ndim),
            interp_axes: AxisVec::default(),
            qp_axes: (None, None, None),
        }
    }

    /// Number of lattice points along each axis within `dims`.
    pub fn counts(&self, dims: &[usize]) -> AxisVec {
        (0..dims.len()).map(|a| self.count_along(dims, a)).collect()
    }

    /// Number of lattice points along axis `a` within `dims`.
    fn count_along(&self, dims: &[usize], a: usize) -> usize {
        let (d, st, sp) = (dims[a], self.start[a], self.step[a]);
        if st < d {
            1 + (d - 1 - st) / sp
        } else {
            0
        }
    }

    /// Point count of every row of the pass (its extent along the last axis).
    pub fn row_len(&self, dims: &[usize]) -> usize {
        self.count_along(dims, dims.len() - 1)
    }

    /// Total number of points this pass visits within `dims`.
    pub fn len(&self, dims: &[usize]) -> usize {
        self.counts(dims).iter().product()
    }

    /// True if the pass visits nothing within `dims`.
    pub fn is_empty(&self, dims: &[usize]) -> bool {
        self.len(dims) == 0
    }

    /// The pass's QP neighbor geometry in its visit order, resolved once
    /// per pass.
    pub fn qp_visit(&self, dims: &[usize]) -> QpVisit {
        let counts = self.counts(dims);
        let inner = dims.len() - 1;
        let (la, ta, ba) = self.qp_axes;
        let axes = [la, ta, ba];
        QpVisit::new(
            axes.map(|a| a.map(|a| (counts[a + 1..].iter().product(), counts[a]))),
            axes.map(|a| a == Some(inner)),
            counts[inner],
            counts.iter().product(),
        )
    }

    /// A coarser copy of this pass that keeps every `m`-th lattice point per
    /// axis (used by the per-level parameter selection sampling).
    pub fn subsampled(&self, m: usize) -> Pass {
        let mut p = self.clone();
        for sp in p.step.iter_mut() {
            *sp *= m.max(1);
        }
        p
    }
}

/// Visit every pass lattice point inside `dims` in row-major order, calling
/// `f(coords, flat_index)`.
pub fn for_each_point(
    pass: &Pass,
    dims: &[usize],
    strides: &[usize],
    mut f: impl FnMut(&[usize], usize),
) {
    let counts = pass.counts(dims);
    let total: usize = counts.iter().product();
    if total == 0 {
        return;
    }
    let ndim = dims.len();
    let mut coords = pass.start;
    let mut flat: usize = coords.iter().zip(strides).map(|(&c, &s)| c * s).sum();
    let mut idx = [0usize; 4];
    loop {
        f(&coords, flat);
        // Row-major odometer with incremental flat index maintenance.
        let mut axis = ndim;
        loop {
            if axis == 0 {
                return;
            }
            axis -= 1;
            idx[axis] += 1;
            if idx[axis] < counts[axis] {
                coords[axis] += pass.step[axis];
                flat += pass.step[axis] * strides[axis];
                break;
            }
            // Rewind this axis.
            flat -= idx[axis].saturating_sub(1) * pass.step[axis] * strides[axis];
            coords[axis] = pass.start[axis];
            idx[axis] = 0;
        }
    }
}

/// Visit each row of a pass (a run of lattice points along the last axis) in
/// the row-major order [`for_each_point`] visits their points, calling
/// `f(coords, flat0)` with the coordinates and flat index of the row's first
/// point; the first error `f` returns ends the walk. Supports up to four
/// dimensions.
pub fn for_each_row(
    pass: &Pass,
    dims: &[usize],
    strides: &[usize],
    mut f: impl FnMut(&[usize; 4], usize) -> Result<(), CompressError>,
) -> Result<(), CompressError> {
    let ndim = dims.len();
    let counts = pass.counts(dims);
    if counts.contains(&0) {
        return Ok(());
    }
    let inner = ndim - 1;
    let mut coords = [0usize; 4];
    coords[..ndim].copy_from_slice(&pass.start);
    let mut idx = [0usize; 4];
    loop {
        let flat0: usize = (0..ndim).map(|a| coords[a] * strides[a]).sum();
        f(&coords, flat0)?;
        // Row-major odometer over the outer axes (last outer axis fastest).
        let mut axis = inner;
        loop {
            if axis == 0 {
                return Ok(());
            }
            axis -= 1;
            idx[axis] += 1;
            if idx[axis] < counts[axis] {
                coords[axis] += pass.step[axis];
                break;
            }
            idx[axis] = 0;
            coords[axis] = pass.start[axis];
        }
    }
}

/// Number of interpolation levels for a field whose largest extent is
/// `max_dim`: the smallest `L` with `2^L ≥ max_dim` (so the initial known
/// lattice of stride `2^L` contains only the origin). Zero for trivial fields.
pub fn num_levels(max_dim: usize) -> usize {
    if max_dim <= 1 {
        return 0;
    }
    let mut l = 0usize;
    while (1usize << l) < max_dim {
        l += 1;
    }
    l
}

/// Build the passes of one level.
///
/// * Directional (paper Fig. 2): one pass per axis in `order`; the pass along
///   `order[k]` has odd coordinates on that axis, spacing `s` on axes already
///   done this level and `2s` on the rest.
/// * Multi-dimensional (HPEZ): one pass per non-empty subset of axes
///   (ordered by subset size, then by `order` position); every axis has
///   spacing `2s`, odd axes start at `s`.
pub fn build_passes(
    ndim: usize,
    level: usize,
    order: &[usize],
    structure: PassStructure,
) -> Vec<Pass> {
    assert!(level >= 1);
    assert_eq!(order.len(), ndim);
    let s = 1usize << (level - 1);
    let two_s = s << 1;
    let mut passes = Vec::new();

    match structure {
        PassStructure::Directional => {
            for (k, &axis) in order.iter().enumerate() {
                let mut start = AxisVec::splat(0, ndim);
                let mut step = AxisVec::splat(two_s, ndim);
                start[axis] = s;
                for &done in &order[..k] {
                    step[done] = s;
                }
                let mut orth = (0..ndim).filter(|&a| a != axis);
                let qp_axes = (orth.next(), orth.next(), Some(axis));
                passes.push(Pass {
                    level,
                    stride: s,
                    start,
                    step,
                    interp_axes: AxisVec::splat(axis, 1),
                    qp_axes,
                });
            }
        }
        PassStructure::MultiDim => {
            // Subsets ordered by cardinality, then lexicographically in
            // `order` positions.
            let mut subsets: Vec<AxisVec> = (1u32..(1 << ndim))
                .map(|mask| (0..ndim).filter(|&k| mask & (1 << k) != 0).map(|k| order[k]).collect())
                .collect();
            subsets.sort_unstable();
            for odd in subsets {
                let mut start = AxisVec::splat(0, ndim);
                for &a in &odd {
                    start[a] = s;
                }
                // Fixed QP axis naming for parity-class lattices: the two
                // lowest axes span the plane, the third is "back".
                let qp_axes = match ndim {
                    1 => (Some(0), None, None),
                    2 => (Some(0), Some(1), None),
                    _ => (Some(0), Some(1), Some(2)),
                };
                passes.push(Pass {
                    level,
                    stride: s,
                    start,
                    step: AxisVec::splat(two_s, ndim),
                    interp_axes: odd,
                    qp_axes,
                });
            }
        }
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn strides_of(dims: &[usize]) -> Vec<usize> {
        let mut s = vec![1usize; dims.len()];
        for i in (0..dims.len() - 1).rev() {
            s[i] = s[i + 1] * dims[i + 1];
        }
        s
    }

    #[test]
    fn num_levels_examples() {
        assert_eq!(num_levels(1), 0);
        assert_eq!(num_levels(2), 1);
        assert_eq!(num_levels(3), 2);
        assert_eq!(num_levels(8), 3);
        assert_eq!(num_levels(9), 4);
        assert_eq!(num_levels(1008), 10);
    }

    /// Every point not on the coarse (2s) lattice is visited exactly once per
    /// level, for both pass structures: the partition property both the
    /// compressor and decompressor rely on.
    fn check_partition(dims: &[usize], level: usize, structure: PassStructure) {
        let order: Vec<usize> = (0..dims.len()).rev().collect();
        let passes = build_passes(dims.len(), level, &order, structure);
        let strides = strides_of(dims);
        let mut seen = HashSet::new();
        for p in &passes {
            for_each_point(p, dims, &strides, |_c, flat| {
                assert!(seen.insert(flat), "point {flat} visited twice");
            });
        }
        // Expected: all points on the s-lattice minus those on the 2s-lattice.
        let s = 1usize << (level - 1);
        let mut expected = 0usize;
        let total: usize = dims.iter().product();
        for flat in 0..total {
            let mut rem = flat;
            let mut on_s = true;
            let mut on_2s = true;
            for (i, &d) in dims.iter().enumerate() {
                let _ = d;
                let c = rem / strides[i];
                rem %= strides[i];
                if !c.is_multiple_of(s) {
                    on_s = false;
                }
                if !c.is_multiple_of(2 * s) {
                    on_2s = false;
                }
            }
            if on_s && !on_2s {
                expected += 1;
                assert!(seen.contains(&flat), "point {flat} missed");
            }
        }
        assert_eq!(seen.len(), expected);
    }

    #[test]
    fn directional_partition_3d() {
        for level in 1..=3 {
            check_partition(&[7, 6, 5], level, PassStructure::Directional);
        }
    }

    #[test]
    fn multidim_partition_3d() {
        for level in 1..=3 {
            check_partition(&[7, 6, 5], level, PassStructure::MultiDim);
        }
    }

    #[test]
    fn partition_2d_and_1d() {
        for structure in [PassStructure::Directional, PassStructure::MultiDim] {
            check_partition(&[9, 4], 1, structure);
            check_partition(&[9, 4], 2, structure);
            check_partition(&[11], 1, structure);
            check_partition(&[11], 2, structure);
        }
    }

    #[test]
    fn partition_covers_whole_field_across_levels() {
        // Union over all levels plus the origin = every point, each exactly once.
        let dims = [5usize, 6, 7];
        let strides = strides_of(&dims);
        let order = vec![2, 1, 0];
        let mut seen = HashSet::new();
        seen.insert(0usize); // seed point
        let max_dim = 7;
        for level in (1..=num_levels(max_dim)).rev() {
            for p in build_passes(3, level, &order, PassStructure::Directional) {
                for_each_point(&p, &dims, &strides, |_c, flat| {
                    assert!(seen.insert(flat), "flat {flat} duplicated at level {level}");
                });
            }
        }
        assert_eq!(seen.len(), 5 * 6 * 7);
    }

    #[test]
    fn directional_pass_strides_match_paper_fig2() {
        // Level 1 (s = 1), order z→y→x on (x=axis0, y=axis1, z=axis2):
        // pass 0 (along axis 2): new points stride 2×2 in the xy plane,
        // pass 1 (along axis 1): 1×2, pass 2 (along axis 0): 1×1.
        let passes = build_passes(3, 1, &[2, 1, 0], PassStructure::Directional);
        assert_eq!(*passes[0].step, [2, 2, 2]);
        assert_eq!(*passes[0].start, [0, 0, 1]);
        assert_eq!(*passes[1].step, [2, 2, 1]);
        assert_eq!(*passes[1].start, [0, 1, 0]);
        assert_eq!(*passes[2].step, [2, 1, 1]);
        assert_eq!(*passes[2].start, [1, 0, 0]);
    }

    #[test]
    fn multidim_pass_order_by_cardinality() {
        let passes = build_passes(3, 1, &[2, 1, 0], PassStructure::MultiDim);
        let sizes: Vec<usize> = passes.iter().map(|p| p.interp_axes.len()).collect();
        assert_eq!(sizes, vec![1, 1, 1, 2, 2, 2, 3]);
        assert_eq!(passes.len(), 7);
    }

    #[test]
    fn empty_pass_when_dim_too_small() {
        // Level 3 (s = 4) along an axis of extent 3: no odd multiples of 4.
        let passes = build_passes(1, 3, &[0], PassStructure::Directional);
        assert!(passes[0].is_empty(&[3]));
        assert_eq!(passes[0].len(&[5]), 1); // coordinate 4 only
    }

    #[test]
    fn subsampled_keeps_lattice_alignment() {
        let passes = build_passes(2, 1, &[1, 0], PassStructure::Directional);
        let sub = passes[0].subsampled(3);
        assert_eq!(sub.start, passes[0].start);
        for (a, b) in sub.step.iter().zip(&passes[0].step) {
            assert_eq!(*a, b * 3);
        }
    }

    #[test]
    fn for_each_point_flat_indices_consistent() {
        let dims = [4usize, 6, 8];
        let strides = strides_of(&dims);
        for p in build_passes(3, 2, &[0, 1, 2], PassStructure::Directional) {
            for_each_point(&p, &dims, &strides, |c, flat| {
                let expect: usize = c.iter().zip(&strides).map(|(&a, &b)| a * b).sum();
                assert_eq!(flat, expect);
                for (i, &coord) in c.iter().enumerate() {
                    assert!(coord < dims[i]);
                    assert_eq!((coord - p.start[i]) % p.step[i], 0);
                }
            });
        }
    }
}
