//! Owned field of scalar samples on a regular grid.

use crate::shape::MAX_NDIM;
use crate::{Scalar, Shape, TensorError};

/// Flat offset of the first element of every innermost (contiguous) row of
/// the `extent` box at `origin`, in row-major order. Empty boxes yield
/// nothing.
struct BoxRows {
    outer: usize,
    strides: [usize; MAX_NDIM],
    extent: [usize; MAX_NDIM],
    idx: [usize; MAX_NDIM],
    flat: usize,
    remaining: usize,
}

impl BoxRows {
    fn new(strides: &[usize], origin: &[usize], extent: &[usize]) -> Self {
        let outer = extent.len() - 1;
        let mut rows = BoxRows {
            outer,
            strides: [0; MAX_NDIM],
            extent: [0; MAX_NDIM],
            idx: [0; MAX_NDIM],
            flat: origin.iter().zip(strides).map(|(&o, &s)| o * s).sum(),
            remaining: if extent.contains(&0) { 0 } else { extent[..outer].iter().product() },
        };
        rows.strides[..outer].copy_from_slice(&strides[..outer]);
        rows.extent[..outer].copy_from_slice(&extent[..outer]);
        rows
    }
}

impl Iterator for BoxRows {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let start = self.flat;
        // Odometer over the outer axes, last outer axis fastest.
        for a in (0..self.outer).rev() {
            self.idx[a] += 1;
            self.flat += self.strides[a];
            if self.idx[a] < self.extent[a] {
                break;
            }
            self.flat -= self.extent[a] * self.strides[a];
            self.idx[a] = 0;
        }
        Some(start)
    }
}

/// An owned, row-major N-d array of samples.
///
/// This is the unit of compression throughout the workspace: datasets are
/// collections of named `Field`s, compressors map a `Field` to bytes and back.
#[derive(Debug, Clone, PartialEq)]
pub struct Field<T: Scalar> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Scalar> Field<T> {
    /// Wrap an existing buffer. Fails if the length does not match the shape.
    pub fn from_vec(shape: Shape, data: Vec<T>) -> Result<Self, TensorError> {
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: data.len() });
        }
        Ok(Field { shape, data })
    }

    /// All-zero field.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.len();
        Field { shape, data: vec![T::ZERO; n] }
    }

    /// Build a field by evaluating `f` at every coordinate.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        let ndim = shape.ndim();
        let mut coords = vec![0usize; ndim];
        for _ in 0..shape.len() {
            data.push(f(&coords));
            for axis in (0..ndim).rev() {
                coords[axis] += 1;
                if coords[axis] < shape.dim(axis) {
                    break;
                }
                coords[axis] = 0;
            }
        }
        Field { shape, data }
    }

    /// The field's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the field holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the sample buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the sample buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Sample at a coordinate tuple.
    #[inline]
    pub fn get(&self, coords: &[usize]) -> T {
        self.data[self.shape.flat(coords)]
    }

    /// Overwrite the sample at a coordinate tuple.
    #[inline]
    pub fn set(&mut self, coords: &[usize], v: T) {
        let i = self.shape.flat(coords);
        self.data[i] = v;
    }

    /// Minimum and maximum finite sample values; `None` for empty fields or
    /// fields with no finite samples.
    pub fn min_max(&self) -> Option<(T, T)> {
        let mut it = self.data.iter().copied().filter(|v| v.is_finite());
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for v in it {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        Some((lo, hi))
    }

    /// Value range `max - min` as `f64`; `0.0` for constant/empty fields.
    pub fn value_range(&self) -> f64 {
        match self.min_max() {
            Some((lo, hi)) => hi.to_f64() - lo.to_f64(),
            None => 0.0,
        }
    }

    /// Extract the (ndim-1)-d plane at `index` along `axis`.
    pub fn slice_plane(&self, axis: usize, index: usize) -> Result<Field<T>, TensorError> {
        let ndim = self.shape.ndim();
        if axis >= ndim {
            return Err(TensorError::AxisOutOfRange { axis, ndim });
        }
        if index >= self.shape.dim(axis) {
            return Err(TensorError::IndexOutOfRange { axis, index, extent: self.shape.dim(axis) });
        }
        let out_shape = self.shape.drop_axis(axis);
        let mut out = Vec::with_capacity(out_shape.len());
        let mut coords = vec![0usize; ndim];
        coords[axis] = index;
        let rest: Vec<usize> = (0..ndim).filter(|&a| a != axis).collect();
        // Odometer over the remaining axes, last-fastest to keep output row-major.
        let total = out_shape.len();
        for _ in 0..total {
            out.push(self.data[self.shape.flat(&coords)]);
            for &a in rest.iter().rev() {
                coords[a] += 1;
                if coords[a] < self.shape.dim(a) {
                    break;
                }
                coords[a] = 0;
            }
        }
        Field::from_vec(out_shape, out)
    }

    /// Extract a rectangular subregion `origin..origin+extent` (clipped to the field).
    pub fn subregion(&self, origin: &[usize], extent: &[usize]) -> Field<T> {
        assert_eq!(origin.len(), self.shape.ndim());
        assert_eq!(extent.len(), self.shape.ndim());
        let clipped: Vec<usize> = origin
            .iter()
            .zip(extent)
            .zip(self.shape.dims())
            .map(|((&o, &e), &d)| e.min(d.saturating_sub(o)))
            .collect();
        let out_shape = Shape::new(&clipped);
        let mut out = Vec::with_capacity(out_shape.len());
        let row = clipped[clipped.len() - 1];
        for start in BoxRows::new(self.shape.strides(), origin, &clipped) {
            out.extend_from_slice(&self.data[start..start + row]);
        }
        Field { shape: out_shape, data: out }
    }

    /// Write `block` into this field at `origin` (the inverse of
    /// [`Field::subregion`]); the block must fit entirely inside the field.
    pub fn write_subregion(&mut self, origin: &[usize], block: &Field<T>) {
        let zero = [0usize; MAX_NDIM];
        let ndim = block.shape().ndim();
        self.copy_box_from(origin, block, &zero[..ndim], block.shape().dims());
    }

    /// Copy the `extent` box at `src_origin` of `src` to `origin` of this
    /// field, one innermost contiguous run at a time. The box must fit
    /// entirely inside both fields.
    pub fn copy_box_from(
        &mut self,
        origin: &[usize],
        src: &Field<T>,
        src_origin: &[usize],
        extent: &[usize],
    ) {
        let ndim = self.shape.ndim();
        assert_eq!(origin.len(), ndim);
        assert_eq!(src.shape().ndim(), ndim);
        assert_eq!(src_origin.len(), ndim);
        assert_eq!(extent.len(), ndim);
        for (a, &e) in extent.iter().enumerate() {
            let (o, so) = (origin[a], src_origin[a]);
            assert!(
                o + e <= self.shape.dim(a),
                "block exceeds field along axis {a}: {o}+{e} > {}",
                self.shape.dim(a)
            );
            assert!(
                so + e <= src.shape().dim(a),
                "box exceeds source along axis {a}: {so}+{e} > {}",
                src.shape().dim(a)
            );
        }
        let row = extent[ndim - 1];
        let from = BoxRows::new(src.shape().strides(), src_origin, extent);
        for (to, from) in BoxRows::new(self.shape.strides(), origin, extent).zip(from) {
            self.data[to..to + row].copy_from_slice(&src.data[from..from + row]);
        }
    }

    /// Serialize to little-endian bytes (shape is *not* included).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() * T::BYTES);
        for &v in &self.data {
            v.write_le(&mut out);
        }
        out
    }

    /// Deserialize from little-endian bytes produced by [`Field::to_le_bytes`].
    pub fn from_le_bytes(shape: Shape, bytes: &[u8]) -> Result<Self, TensorError> {
        if bytes.len() != shape.len() * T::BYTES {
            return Err(TensorError::LengthMismatch {
                expected: shape.len() * T::BYTES,
                actual: bytes.len(),
            });
        }
        let mut data = Vec::with_capacity(shape.len());
        for chunk in bytes.chunks_exact(T::BYTES) {
            data.push(T::read_le(chunk)?);
        }
        Ok(Field { shape, data })
    }

    /// Downsample by keeping every `factor`-th sample along every axis.
    /// Used to build reduced-size experiment workloads from full-size shapes.
    pub fn decimate(&self, factor: usize) -> Field<T> {
        assert!(factor >= 1);
        let dims: Vec<usize> = self.shape.dims().iter().map(|&d| d.div_ceil(factor)).collect();
        let out_shape = Shape::new(&dims);
        let ndim = dims.len();
        let mut coords = vec![0usize; ndim];
        let mut out = Vec::with_capacity(out_shape.len());
        for _ in 0..out_shape.len() {
            let src: Vec<usize> = coords.iter().map(|&c| c * factor).collect();
            out.push(self.data[self.shape.flat(&src)]);
            for axis in (0..ndim).rev() {
                coords[axis] += 1;
                if coords[axis] < dims[axis] {
                    break;
                }
                coords[axis] = 0;
            }
        }
        Field { shape: out_shape, data: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_field(shape: Shape) -> Field<f32> {
        let n = shape.len();
        Field::from_vec(shape, (0..n).map(|i| i as f32).collect()).unwrap()
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Field::<f32>::from_vec(Shape::d2(2, 2), vec![0.0; 3]).is_err());
        assert!(Field::<f32>::from_vec(Shape::d2(2, 2), vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_fn_matches_coords() {
        let f = Field::<f32>::from_fn(Shape::d2(3, 4), |c| (c[0] * 10 + c[1]) as f32);
        assert_eq!(f.get(&[2, 3]), 23.0);
        assert_eq!(f.get(&[0, 0]), 0.0);
    }

    #[test]
    fn min_max_ignores_nonfinite() {
        let f =
            Field::from_vec(Shape::d1(4), vec![1.0f32, f32::NAN, -3.0, 2.0]).unwrap();
        assert_eq!(f.min_max(), Some((-3.0, 2.0)));
        assert_eq!(f.value_range(), 5.0);
    }

    #[test]
    fn min_max_empty() {
        let f = Field::<f32>::zeros(Shape::d2(0, 5));
        assert_eq!(f.min_max(), None);
        assert_eq!(f.value_range(), 0.0);
    }

    #[test]
    fn slice_plane_axis0() {
        let f = seq_field(Shape::d3(2, 3, 4));
        let p = f.slice_plane(0, 1).unwrap();
        assert_eq!(p.shape().dims(), &[3, 4]);
        assert_eq!(p.get(&[0, 0]), 12.0);
        assert_eq!(p.get(&[2, 3]), 23.0);
    }

    #[test]
    fn slice_plane_axis2() {
        let f = seq_field(Shape::d3(2, 3, 4));
        let p = f.slice_plane(2, 3).unwrap();
        assert_eq!(p.shape().dims(), &[2, 3]);
        assert_eq!(p.get(&[0, 0]), 3.0);
        assert_eq!(p.get(&[1, 2]), 23.0);
    }

    #[test]
    fn slice_plane_bad_args() {
        let f = seq_field(Shape::d3(2, 3, 4));
        assert!(f.slice_plane(3, 0).is_err());
        assert!(f.slice_plane(1, 3).is_err());
    }

    #[test]
    fn subregion_interior_and_clipped() {
        let f = seq_field(Shape::d2(4, 5));
        let r = f.subregion(&[1, 2], &[2, 2]);
        assert_eq!(r.shape().dims(), &[2, 2]);
        assert_eq!(r.as_slice(), &[7.0, 8.0, 12.0, 13.0]);
        let clipped = f.subregion(&[3, 3], &[10, 10]);
        assert_eq!(clipped.shape().dims(), &[1, 2]);
        assert_eq!(clipped.as_slice(), &[18.0, 19.0]);
    }

    #[test]
    fn byte_roundtrip() {
        let f = seq_field(Shape::d2(3, 3));
        let bytes = f.to_le_bytes();
        let g = Field::<f32>::from_le_bytes(Shape::d2(3, 3), &bytes).unwrap();
        assert_eq!(f, g);
        assert!(Field::<f32>::from_le_bytes(Shape::d2(3, 3), &bytes[1..]).is_err());
    }

    #[test]
    fn decimate_keeps_every_kth() {
        let f = seq_field(Shape::d2(4, 6));
        let d = f.decimate(2);
        assert_eq!(d.shape().dims(), &[2, 3]);
        assert_eq!(d.as_slice(), &[0.0, 2.0, 4.0, 12.0, 14.0, 16.0]);
    }

    #[test]
    fn write_subregion_inverts_subregion() {
        let f = seq_field(Shape::d3(4, 5, 6));
        let block = f.subregion(&[1, 2, 3], &[2, 2, 2]);
        let mut g = Field::<f32>::zeros(Shape::d3(4, 5, 6));
        g.write_subregion(&[1, 2, 3], &block);
        assert_eq!(g.subregion(&[1, 2, 3], &[2, 2, 2]), block);
        // Outside the block stays zero.
        assert_eq!(g.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    #[should_panic]
    fn write_subregion_rejects_overflow() {
        let mut g = Field::<f32>::zeros(Shape::d2(4, 4));
        let block = Field::<f32>::zeros(Shape::d2(3, 3));
        g.write_subregion(&[2, 2], &block);
    }

    /// Element-by-element odometer, the definition the row copies must match.
    fn odometer(origin: &[usize], extent: &[usize], mut f: impl FnMut(&[usize])) {
        if extent.contains(&0) {
            return;
        }
        let mut coords = origin.to_vec();
        loop {
            f(&coords);
            let mut axis = coords.len();
            loop {
                if axis == 0 {
                    return;
                }
                axis -= 1;
                coords[axis] += 1;
                if coords[axis] < origin[axis] + extent[axis] {
                    break;
                }
                coords[axis] = origin[axis];
            }
        }
    }

    #[test]
    fn row_copies_match_the_odometer_on_every_rank() {
        // (dims, origin, extent): interior, clipped, single-element,
        // whole-field and fully-outside boxes on 1-D … 4-D fields.
        let cases: &[(&[usize], &[usize], &[usize])] = &[
            (&[17], &[3], &[9]),
            (&[17], &[16], &[5]),
            (&[17], &[17], &[2]),
            (&[6, 7], &[0, 0], &[6, 7]),
            (&[6, 7], &[5, 6], &[1, 1]),
            (&[6, 7], &[2, 3], &[9, 2]),
            (&[5, 6, 7], &[1, 2, 3], &[3, 3, 3]),
            (&[5, 6, 7], &[4, 0, 6], &[8, 6, 8]),
            (&[5, 6, 7], &[0, 6, 0], &[5, 1, 7]),
            (&[3, 4, 5, 6], &[1, 1, 1, 1], &[2, 2, 3, 4]),
            (&[3, 4, 5, 6], &[2, 3, 4, 5], &[1, 1, 1, 1]),
            (&[3, 4, 5, 6], &[0, 2, 0, 3], &[3, 9, 5, 9]),
        ];
        for &(dims, origin, extent) in cases {
            let f = seq_field(Shape::new(dims));
            let clipped: Vec<usize> = (0..dims.len())
                .map(|a| extent[a].min(dims[a].saturating_sub(origin[a])))
                .collect();
            let mut want = Vec::new();
            odometer(origin, &clipped, |c| want.push(f.get(c)));
            let block = f.subregion(origin, extent);
            assert_eq!(block.shape().dims(), clipped.as_slice(), "{dims:?} {origin:?}");
            assert_eq!(block.as_slice(), want.as_slice(), "{dims:?} {origin:?} {extent:?}");

            if block.is_empty() {
                continue;
            }
            let mut got = Field::<f32>::from_vec(Shape::new(dims), vec![-1.0; f.len()]).unwrap();
            got.write_subregion(origin, &block);
            let mut expect = vec![-1.0f32; f.len()];
            odometer(origin, &clipped, |c| expect[f.shape().flat(c)] = f.get(c));
            assert_eq!(got.as_slice(), expect.as_slice(), "{dims:?} {origin:?} {extent:?}");
        }
    }

    #[test]
    fn copy_box_moves_an_interior_box_between_offsets() {
        let src = seq_field(Shape::d3(4, 5, 6));
        let mut dst = Field::<f32>::zeros(Shape::d3(3, 3, 8));
        dst.copy_box_from(&[1, 0, 5], &src, &[2, 3, 1], &[2, 2, 3]);
        let mut expect = Field::<f32>::zeros(Shape::d3(3, 3, 8));
        odometer(&[0, 0, 0], &[2, 2, 3], |c| {
            expect.set(&[1 + c[0], c[1], 5 + c[2]], src.get(&[2 + c[0], 3 + c[1], 1 + c[2]]));
        });
        assert_eq!(dst, expect);
    }

    #[test]
    #[should_panic(expected = "box exceeds source")]
    fn copy_box_rejects_a_box_outside_the_source() {
        let src = Field::<f32>::zeros(Shape::d2(3, 3));
        Field::<f32>::zeros(Shape::d2(8, 8)).copy_box_from(&[0, 0], &src, &[2, 0], &[2, 2]);
    }

    #[test]
    fn decimate_identity() {
        let f = seq_field(Shape::d3(2, 3, 4));
        assert_eq!(f.decimate(1), f);
    }
}
