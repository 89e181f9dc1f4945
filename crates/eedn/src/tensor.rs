//! A minimal dense tensor: row-major `f32` data plus a shape.
//!
//! The training stack only needs rank-2 `(batch, features)` and rank-4
//! `(batch, channels, height, width)` tensors, but the type is
//! rank-agnostic. Indexing helpers exist for both common ranks; bulk math
//! stays on the flat data slice for speed.

use serde::{Deserialize, Serialize};

/// A dense row-major tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "tensor needs at least one dimension");
        assert!(shape.iter().all(|&d| d > 0), "zero-sized dimension in {shape:?}");
        Tensor { shape: shape.to_vec(), data: vec![0.0; shape.iter().product()] }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let vol: usize = shape.iter().product();
        assert_eq!(data.len(), vol, "data length {} != shape volume {vol}", data.len());
        assert!(!shape.is_empty() && shape.iter().all(|&d| d > 0));
        Tensor { shape: shape.to_vec(), data }
    }

    /// Builds a rank-2 tensor from rows.
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged or empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "no rows");
        let d = rows[0].len();
        assert!(d > 0, "empty rows");
        let mut data = Vec::with_capacity(rows.len() * d);
        for r in rows {
            assert_eq!(r.len(), d, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor { shape: vec![rows.len(), d], data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true for valid tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read access.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat write access.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Unwraps the flat data, handing its allocation back to the caller.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of equal volume.
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    pub fn reshape(mut self, shape: &[usize]) -> Tensor {
        let vol: usize = shape.iter().product();
        assert_eq!(self.data.len(), vol, "reshape volume mismatch");
        self.shape = shape.to_vec();
        self
    }

    /// Element at `(i, j)` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the index is out of bounds.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Mutable element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the index is out of bounds.
    #[inline]
    pub fn at2_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        &mut self.data[i * self.shape[1] + j]
    }

    /// Element at `(n, c, h, w)` of a rank-4 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the index is out of bounds.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (_, cs, hs, ws) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cs + c) * hs + h) * ws + w]
    }

    /// Mutable element at `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the index is out of bounds.
    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (_, cs, hs, ws) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        &mut self.data[((n * cs + c) * hs + h) * ws + w]
    }

    /// One row of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of range.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 2, "row() needs a rank-2 tensor");
        let d = self.shape[1];
        &self.data[i * d..(i + 1) * d]
    }

    /// Mutable row of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.shape.len(), 2, "row_mut() needs a rank-2 tensor");
        let d = self.shape[1];
        &mut self.data[i * d..(i + 1) * d]
    }

    /// Contiguous channel planes `c0 .. c0 + count` of sample `n` in a
    /// rank-4 tensor — the view `im2col` packs from.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the range is out of bounds.
    pub fn channels(&self, n: usize, c0: usize, count: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 4, "channels() needs a rank-4 tensor");
        let (cs, plane) = (self.shape[1], self.shape[2] * self.shape[3]);
        assert!(c0 + count <= cs, "channel range out of bounds");
        &self.data[(n * cs + c0) * plane..][..count * plane]
    }

    /// Mutable contiguous channel planes of sample `n`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the range is out of bounds.
    pub fn channels_mut(&mut self, n: usize, c0: usize, count: usize) -> &mut [f32] {
        assert_eq!(self.shape.len(), 4, "channels_mut() needs a rank-4 tensor");
        let (cs, plane) = (self.shape[1], self.shape[2] * self.shape[3]);
        assert!(c0 + count <= cs, "channel range out of bounds");
        &mut self.data[(n * cs + c0) * plane..][..count * plane]
    }

    /// Applies `f` to every element, in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_volume() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rank2_indexing_row_major() {
        let t = Tensor::from_vec(&[2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.at2(0, 2), 2.0);
        assert_eq!(t.at2(1, 0), 3.0);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn rank4_indexing() {
        let mut t = Tensor::zeros(&[2, 3, 4, 5]);
        *t.at4_mut(1, 2, 3, 4) = 9.0;
        assert_eq!(t.at4(1, 2, 3, 4), 9.0);
        // The last element of the flat buffer.
        assert_eq!(t.data()[2 * 3 * 4 * 5 - 1], 9.0);
    }

    #[test]
    fn from_rows_and_reshape() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(t.shape(), &[2, 2]);
        let r = t.reshape(&[4]);
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn map_in_place() {
        let mut t = Tensor::from_vec(&[3], vec![1.0, -2.0, 3.0]);
        t.map_in_place(f32::abs);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "volume mismatch")]
    fn bad_reshape_panics() {
        Tensor::zeros(&[2, 2]).reshape(&[5]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Tensor::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
