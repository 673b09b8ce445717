//! Compressed Sparse Column (CSC) — the column-major dual of CSR (§1 \[19]).

use crate::{CooMatrix, Result, SparseError, SparseFormat};

/// A CSC sparse matrix with `u32` indices and `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<u32>,
    row_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CscMatrix {
    /// Build from `(row, col, value)` triplets.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<Self> {
        Ok(Self::from_coo(&CooMatrix::from_triplets(rows, cols, triplets)?))
    }

    /// Build from a COO matrix (resorted column-major internally).
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let mut entries: Vec<(usize, usize, f32)> = coo.entries().to_vec();
        entries.sort_unstable_by_key(|&(r, c, _)| (c, r));
        let cols = coo.cols();
        let mut col_ptr = vec![0u32; cols + 1];
        let mut row_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for &(r, c, v) in &entries {
            col_ptr[c + 1] += 1;
            row_idx.push(r as u32);
            values.push(v);
        }
        for c in 0..cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        CscMatrix { rows: coo.rows(), cols, col_ptr, row_idx, values }
    }

    /// Build from raw arrays, validating structure.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        col_ptr: Vec<u32>,
        row_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        if col_ptr.len() != cols + 1 || col_ptr.first() != Some(&0) {
            return Err(SparseError::InvalidStructure {
                what: "col_ptr must have cols+1 entries starting at 0".into(),
            });
        }
        if row_idx.len() != values.len() || *col_ptr.last().unwrap() as usize != row_idx.len() {
            return Err(SparseError::InvalidStructure {
                what: "col_ptr[last], row_idx and values disagree on nnz".into(),
            });
        }
        for w in col_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::InvalidStructure {
                    what: "col_ptr is not monotone".into(),
                });
            }
        }
        for c in 0..cols {
            let seg = &row_idx[col_ptr[c] as usize..col_ptr[c + 1] as usize];
            for w in seg.windows(2) {
                if w[1] <= w[0] {
                    return Err(SparseError::InvalidStructure {
                        what: format!("row indices in column {c} not strictly increasing"),
                    });
                }
            }
            if let Some(&r) = seg.last() {
                if r as usize >= rows {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r as usize,
                        col: c,
                        rows,
                        cols,
                    });
                }
            }
        }
        Ok(CscMatrix { rows, cols, col_ptr, row_idx, values })
    }

    /// Column pointer array (`cols() + 1` offsets).
    pub fn col_ptr(&self) -> &[u32] {
        &self.col_ptr
    }

    /// Row index of each stored entry (column-major order).
    pub fn row_indices(&self) -> &[u32] {
        &self.row_idx
    }

    /// Stored values (column-major order).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Row indices and values of one column, as parallel slices.
    pub fn col(&self, c: usize) -> (&[u32], &[f32]) {
        let lo = self.col_ptr[c] as usize;
        let hi = self.col_ptr[c + 1] as usize;
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }
}

impl SparseFormat for CscMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn triplets(&self) -> Vec<(usize, usize, f32)> {
        let mut out = Vec::with_capacity(self.nnz());
        for c in 0..self.cols {
            let (rows, vals) = self.col(c);
            for (r, v) in rows.iter().zip(vals) {
                out.push((*r as usize, c, *v));
            }
        }
        out.sort_unstable_by_key(|&(r, c, _)| (r, c));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    fn fig1_triplets() -> Vec<(usize, usize, f32)> {
        vec![(0, 0, 5.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 1.0)]
    }

    #[test]
    fn csc_layout_is_column_major() {
        let m = CscMatrix::from_triplets(3, 3, &fig1_triplets()).unwrap();
        assert_eq!(m.col_ptr(), &[0, 2, 2, 4]);
        assert_eq!(m.row_indices(), &[0, 2, 0, 1]);
        assert_eq!(m.values(), &[5.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn col_accessor() {
        let m = CscMatrix::from_triplets(3, 3, &fig1_triplets()).unwrap();
        let (rows, vals) = m.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[5.0, 1.0]);
        let (rows, _) = m.col(1);
        assert!(rows.is_empty());
    }

    #[test]
    fn triplets_agree_with_csr() {
        let t = fig1_triplets();
        let csc = CscMatrix::from_triplets(3, 3, &t).unwrap();
        let csr = CsrMatrix::from_triplets(3, 3, &t).unwrap();
        assert_eq!(csc.triplets(), csr.triplets());
        assert_eq!(csc.to_dense(), csr.to_dense());
    }

    #[test]
    fn from_raw_validation() {
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CscMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).is_err());
        assert!(CscMatrix::from_raw(2, 2, vec![0, 2, 2], vec![1, 0], vec![1.0, 2.0]).is_err());
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1, 1], vec![7], vec![1.0]).is_err());
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
    }
}
