//! Dense matrix and vector types.
//!
//! These are the reference representations: every sparse format converts to
//! and from [`DenseMatrix`], and the golden kernels compare against plain
//! dense matrix-vector products computed here.

use crate::{Result, SparseError};
use std::ops::{Index, IndexMut};

/// A row-major dense `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Create a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create from a row-major data slice.
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(SparseError::DimensionMismatch {
                what: format!("{} data elements for a {rows}x{cols} matrix", data.len()),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Count of entries that are exactly zero.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|v| **v == 0.0).count()
    }

    /// Fraction of zero entries, the paper's "sparsity".
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.count_zeros() as f64 / self.data.len() as f64
    }

    /// Dense matrix-vector product `y = A * x`.
    pub fn matvec(&self, x: &DenseVector) -> Result<DenseVector> {
        if x.len() != self.cols {
            return Err(SparseError::DimensionMismatch {
                what: format!("matrix has {} cols, vector has {} entries", self.cols, x.len()),
            });
        }
        let mut y = vec![0.0f32; self.rows];
        for r in 0..self.rows {
            let mut s = 0.0f32;
            for c in 0..self.cols {
                s += self[(r, c)] * x[c];
            }
            y[r] = s;
        }
        Ok(DenseVector::from(y))
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

/// A dense `f32` vector.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseVector {
    data: Vec<f32>,
}

impl DenseVector {
    /// A zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        DenseVector { data: vec![0.0; n] }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Backing storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Fraction of exactly-zero entries.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|v| **v == 0.0).count() as f64 / self.data.len() as f64
    }

    /// Maximum absolute elementwise difference against `other`.
    ///
    /// Used by tests to compare simulator-produced results with golden
    /// results under floating-point reassociation.
    pub fn max_abs_diff(&self, other: &DenseVector) -> f32 {
        assert_eq!(self.len(), other.len(), "max_abs_diff on different lengths");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }
}

impl From<Vec<f32>> for DenseVector {
    fn from(data: Vec<f32>) -> Self {
        DenseVector { data }
    }
}

impl Index<usize> for DenseVector {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for DenseVector {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.as_slice().len(), 12);
        assert_eq!(m.count_zeros(), 12);
        assert_eq!(m.sparsity(), 1.0);
    }

    #[test]
    fn from_row_major_checks_length() {
        assert!(DenseMatrix::from_row_major(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_row_major(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn index_is_row_major() {
        let m = DenseMatrix::from_row_major(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4., 5., 6.]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = DenseMatrix::from_row_major(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let x = DenseVector::from(vec![1., 0., -1.]);
        let y = m.matvec(&x).unwrap();
        assert_eq!(y.as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn matvec_rejects_bad_shape() {
        let m = DenseMatrix::zeros(2, 3);
        let x = DenseVector::zeros(4);
        assert!(m.matvec(&x).is_err());
    }

    #[test]
    fn vector_sparsity() {
        let v = DenseVector::from(vec![0.0, 1.0, 0.0, 2.0]);
        assert_eq!(v.sparsity(), 0.5);
        assert_eq!(DenseVector::zeros(0).sparsity(), 0.0);
    }

    #[test]
    fn max_abs_diff_works() {
        let a = DenseVector::from(vec![1.0, 2.0]);
        let b = DenseVector::from(vec![1.5, 1.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
