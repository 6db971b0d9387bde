//! Shannon entropy of quantization index arrays.
//!
//! The paper uses entropy three ways: globally (problem formulation, Sec. V-A),
//! per rectangular region (the "regional entropy" above each subplot of
//! Fig. 5), and per slice along a plane with a stride (Fig. 4, where the
//! stride-2 sub-lattice isolates the last interpolation level).

use std::collections::BTreeMap;

/// Histogram of symbol occurrences, in symbol order, so every walk over it
/// (and so every sum [`entropy`] takes) repeats exactly.
pub fn symbol_histogram(symbols: impl IntoIterator<Item = i32>) -> BTreeMap<i32, u64> {
    let mut h = BTreeMap::new();
    for s in symbols {
        *h.entry(s).or_insert(0u64) += 1;
    }
    h
}

/// Shannon entropy `H = −Σ p·log2(p)` in bits/symbol of an i32 symbol stream.
///
/// Returns 0.0 for empty input.
pub fn entropy(symbols: &[i32]) -> f64 {
    let hist = symbol_histogram(symbols.iter().copied());
    entropy_of_counts(symbols.len() as u64, hist.values().copied())
}

/// Shannon entropy in bits/symbol of `n` symbols whose per-symbol
/// occurrence counts are `counts` (zero counts contribute nothing): the one
/// estimator behind [`entropy`] and the QP encoder's level-prefix choice,
/// which scores candidate streams from histograms without materializing
/// them.
///
/// Returns 0.0 when `n` is 0.
pub fn entropy_of_counts(n: u64, counts: impl IntoIterator<Item = u64>) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let mut h = 0.0;
    for count in counts.into_iter().filter(|&c| c > 0) {
        let p = count as f64 / n;
        h -= p * p.log2();
    }
    h
}

/// Entropy of the symbols inside the rectangular region
/// `origin..origin+extent` of a row-major array with the given `dims`,
/// sampling every `stride`-th point per axis.
///
/// This is the "regional entropy" annotated in the paper's Fig. 5, where
/// Regions 1 and 2 are plotted with strides 1×2 and 2×2.
pub fn entropy_region(
    q: &[i32],
    dims: &[usize],
    origin: &[usize],
    extent: &[usize],
    stride: &[usize],
) -> f64 {
    assert_eq!(dims.len(), origin.len());
    assert_eq!(dims.len(), extent.len());
    assert_eq!(dims.len(), stride.len());
    let ndim = dims.len();
    let mut strides_flat = vec![1usize; ndim];
    for i in (0..ndim.saturating_sub(1)).rev() {
        strides_flat[i] = strides_flat[i + 1] * dims[i + 1];
    }
    let counts: Vec<usize> = (0..ndim)
        .map(|a| {
            let avail = dims[a].saturating_sub(origin[a]).min(extent[a]);
            avail.div_ceil(stride[a].max(1))
        })
        .collect();
    let total: usize = counts.iter().product();
    if total == 0 {
        return 0.0;
    }
    let mut idx = vec![0usize; ndim];
    let mut samples = Vec::with_capacity(total);
    for _ in 0..total {
        let flat: usize = (0..ndim)
            .map(|a| (origin[a] + idx[a] * stride[a]) * strides_flat[a])
            .sum();
        samples.push(q[flat]);
        for a in (0..ndim).rev() {
            idx[a] += 1;
            if idx[a] < counts[a] {
                break;
            }
            idx[a] = 0;
        }
    }
    entropy(&samples)
}

/// Per-slice entropy along `axis` of a 3-D row-major array, sampling the
/// in-plane points at the given `stride` (paper Fig. 4 uses stride 2 to focus
/// on the last interpolation level).
///
/// Returns one entropy value per slice index along `axis`.
pub fn entropy_by_slice(q: &[i32], dims: &[usize; 3], axis: usize, stride: usize) -> Vec<f64> {
    assert!(axis < 3);
    assert_eq!(q.len(), dims[0] * dims[1] * dims[2]);
    let strides_flat = [dims[1] * dims[2], dims[2], 1];
    let others: Vec<usize> = (0..3).filter(|&a| a != axis).collect();
    let mut out = Vec::with_capacity(dims[axis]);
    for s in 0..dims[axis] {
        let mut samples = Vec::new();
        let mut i = 0;
        while i < dims[others[0]] {
            let mut j = 0;
            while j < dims[others[1]] {
                let flat =
                    s * strides_flat[axis] + i * strides_flat[others[0]] + j * strides_flat[others[1]];
                samples.push(q[flat]);
                j += stride;
            }
            i += stride;
        }
        out.push(entropy(&samples));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_constant_is_zero() {
        assert_eq!(entropy(&[7; 100]), 0.0);
        assert_eq!(entropy(&[]), 0.0);
    }

    #[test]
    fn entropy_of_uniform_two_symbols_is_one_bit() {
        let q: Vec<i32> = (0..100).map(|i| i % 2).collect();
        assert!((entropy(&q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_uniform_k_symbols_is_log2k() {
        let q: Vec<i32> = (0..1024).map(|i| i % 16).collect();
        assert!((entropy(&q) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_upper_bound_log2_n() {
        // n distinct symbols: entropy = log2(n), the maximum possible.
        let q: Vec<i32> = (0..37).collect();
        assert!((entropy(&q) - (37f64).log2()).abs() < 1e-12);
    }

    #[test]
    fn counts_and_symbols_agree() {
        let q: Vec<i32> = (0..500).map(|i| (i * i) % 23 - 11).collect();
        let h = symbol_histogram(q.iter().copied());
        assert_eq!(entropy_of_counts(q.len() as u64, h.values().copied()), entropy(&q));
        assert_eq!(entropy_of_counts(4, [4, 0, 0]), 0.0);
        assert_eq!(entropy_of_counts(0, []), 0.0);
    }

    #[test]
    fn histogram_counts() {
        let h = symbol_histogram([1, 1, 2, 3, 3, 3]);
        assert_eq!(h[&1], 2);
        assert_eq!(h[&2], 1);
        assert_eq!(h[&3], 3);
    }

    #[test]
    fn region_entropy_picks_subarray() {
        // 4x4 array: left half zeros, right half alternating.
        let dims = [4usize, 4usize];
        let mut q = vec![0i32; 16];
        for r in 0..4 {
            for c in 2..4 {
                q[r * 4 + c] = ((r + c) % 2) as i32;
            }
        }
        let left = entropy_region(&q, &dims, &[0, 0], &[4, 2], &[1, 1]);
        let right = entropy_region(&q, &dims, &[0, 2], &[4, 2], &[1, 1]);
        assert_eq!(left, 0.0);
        assert!((right - 1.0).abs() < 1e-12);
    }

    #[test]
    fn region_entropy_with_stride() {
        // Stride 2 on an alternating pattern samples a constant sub-lattice.
        let dims = [4usize, 4usize];
        let q: Vec<i32> = (0..16).map(|i| i % 2).collect();
        let h = entropy_region(&q, &dims, &[0, 0], &[4, 4], &[2, 2]);
        assert_eq!(h, 0.0);
    }

    #[test]
    fn region_entropy_clips_to_bounds() {
        let dims = [2usize, 2usize];
        let q = vec![0, 1, 2, 3];
        // extent larger than array: clipped, no panic.
        let h = entropy_region(&q, &dims, &[0, 0], &[10, 10], &[1, 1]);
        assert!((h - 2.0).abs() < 1e-12);
        // origin outside: empty region.
        assert_eq!(entropy_region(&q, &dims, &[5, 0], &[1, 1], &[1, 1]), 0.0);
    }

    #[test]
    fn by_slice_shapes_and_values() {
        // 2x3x4 volume, slice entropies along each axis have matching lengths.
        let dims = [2usize, 3, 4];
        let q: Vec<i32> = (0..24).map(|i| i % 3).collect();
        assert_eq!(entropy_by_slice(&q, &dims, 0, 1).len(), 2);
        assert_eq!(entropy_by_slice(&q, &dims, 1, 1).len(), 3);
        assert_eq!(entropy_by_slice(&q, &dims, 2, 1).len(), 4);
    }

    #[test]
    fn by_slice_constant_slices() {
        // Volume where value == slice index along axis 0: each slice constant.
        let dims = [3usize, 4, 5];
        let mut q = vec![0i32; 60];
        for z in 0..3 {
            for i in 0..20 {
                q[z * 20 + i] = z as i32;
            }
        }
        let h = entropy_by_slice(&q, &dims, 0, 1);
        assert!(h.iter().all(|&e| e == 0.0));
        // Along the other axes every slice mixes all three symbols equally.
        let h1 = entropy_by_slice(&q, &dims, 1, 1);
        for e in h1 {
            assert!((e - (3f64).log2()).abs() < 1e-9);
        }
    }

    #[test]
    fn by_slice_stride_subsamples() {
        let dims = [1usize, 4, 4];
        // Checkerboard in the plane; stride-2 sampling sees a constant.
        let q: Vec<i32> = (0..16).map(|i| (i / 4 + i % 4) % 2).collect();
        let full = entropy_by_slice(&q, &dims, 0, 1);
        let strided = entropy_by_slice(&q, &dims, 0, 2);
        assert!((full[0] - 1.0).abs() < 1e-12);
        assert_eq!(strided[0], 0.0);
    }
}
