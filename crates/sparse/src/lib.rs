//! Sparse matrix and vector formats for the HHT (Hardware Helper Thread)
//! model, together with *golden* (purely functional) kernels used to verify
//! the cycle-level simulator's results.
//!
//! The paper's HHT operates on compressed sparse row (CSR) data. CSC backs
//! the column-oriented software baseline, COO is the triplet interchange
//! form, and the hierarchical bit-vector (SMASH) format is §6's format
//! ablation. The other §1 background formats (BCSR, ELL, DIA, run-length,
//! plain bit-vector) feed no kernel or measurement and are not modelled.
//!
//! # Layout
//!
//! - [`dense`] — dense matrix/vector reference types.
//! - [`csr`], [`csc`], [`coo`], [`smash`] — the compressed formats.
//! - [`vector`] — compressed sparse vectors (for SpMSpV).
//! - [`kernels`] — golden SpMV / SpMSpV / SpMM implementations.
//! - [`generate`] — reproducible random and structured generators.
//! - [`io`] — MatrixMarket (`.mtx`) reader/writer for real collection
//!   matrices (§4 evaluates Texas A&M collection inputs).
//!
//! # Quick example
//!
//! ```
//! use hht_sparse::{CsrMatrix, DenseVector, kernels};
//!
//! // 2x3 matrix [[1,0,2],[0,3,0]] times [1,1,1] = [3,3]
//! let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
//! let v = DenseVector::from(vec![1.0, 1.0, 1.0]);
//! let y = kernels::spmv(&m, &v).unwrap();
//! assert_eq!(y.as_slice(), &[3.0, 3.0]);
//! ```

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod error;
pub mod generate;
pub mod hash;
pub mod io;
pub mod kernels;
pub mod smash;
pub mod vector;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::{DenseMatrix, DenseVector};
pub use error::SparseError;
pub use hash::StableHasher;
pub use smash::SmashMatrix;
pub use vector::SparseVector;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SparseError>;

/// Common interface implemented by every sparse matrix format.
///
/// All formats can enumerate their structural non-zeros as `(row, col, val)`
/// triplets in row-major order, which is how the property tests check every
/// format against CSR.
pub trait SparseFormat {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Number of columns.
    fn cols(&self) -> usize;
    /// Number of stored (structural) non-zero entries.
    fn nnz(&self) -> usize;
    /// Enumerate stored entries as `(row, col, value)` in row-major order.
    fn triplets(&self) -> Vec<(usize, usize, f32)>;

    /// Fraction of entries that are *not* stored, in `[0, 1]`.
    ///
    /// This matches the paper's definition of sparsity ("% of zeros").
    fn sparsity(&self) -> f64 {
        let total = self.rows() * self.cols();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / total as f64
    }

    /// Materialize as a dense matrix (zero-filled where unstored).
    fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows(), self.cols());
        for (r, c, v) in self.triplets() {
            d[(r, c)] = v;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparsity_of_empty_matrix_is_zero() {
        let m = CooMatrix::new(0, 0);
        assert_eq!(m.sparsity(), 0.0);
    }

    #[test]
    fn doc_example_runs() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
        let v = DenseVector::from(vec![1.0, 1.0, 1.0]);
        let y = kernels::spmv(&m, &v).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 3.0]);
    }
}
