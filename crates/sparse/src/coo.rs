//! Coordinate-list (COO) format.
//!
//! COO stores one `(row, col, value)` triplet per non-zero. It is the
//! interchange format of this crate: every other format can be built from a
//! sorted COO and can enumerate itself back into triplets.

use crate::{DenseMatrix, Result, SparseError, SparseFormat};

/// A coordinate-list sparse matrix with entries kept sorted row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f32)>,
}

impl CooMatrix {
    /// An empty `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix { rows, cols, entries: Vec::new() }
    }

    /// Build from triplets. Entries are sorted row-major; duplicate
    /// coordinates and out-of-bounds indices are rejected.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<Self> {
        let mut entries: Vec<(usize, usize, f32)> = Vec::with_capacity(triplets.len());
        for &(r, c, v) in triplets {
            if r >= rows || c >= cols {
                return Err(SparseError::IndexOutOfBounds { row: r, col: c, rows, cols });
            }
            entries.push((r, c, v));
        }
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        for w in entries.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                return Err(SparseError::DuplicateEntry { row: w[0].0, col: w[0].1 });
            }
        }
        Ok(CooMatrix { rows, cols, entries })
    }

    /// Build from a dense matrix, storing only entries that are not exactly
    /// zero.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut entries = Vec::new();
        for r in 0..d.rows() {
            for c in 0..d.cols() {
                let v = d[(r, c)];
                if v != 0.0 {
                    entries.push((r, c, v));
                }
            }
        }
        CooMatrix { rows: d.rows(), cols: d.cols(), entries }
    }

    /// Insert one entry, keeping the row-major ordering.
    ///
    /// Returns an error on out-of-bounds or duplicate coordinates.
    pub fn push(&mut self, row: usize, col: usize, val: f32) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        match self.entries.binary_search_by_key(&(row, col), |&(r, c, _)| (r, c)) {
            Ok(_) => Err(SparseError::DuplicateEntry { row, col }),
            Err(pos) => {
                self.entries.insert(pos, (row, col, val));
                Ok(())
            }
        }
    }

    /// Borrow the sorted entry list.
    pub fn entries(&self) -> &[(usize, usize, f32)] {
        &self.entries
    }

    /// Look up an entry; `None` if the coordinate is structurally zero.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        self.entries
            .binary_search_by_key(&(row, col), |&(r, c, _)| (r, c))
            .ok()
            .map(|i| self.entries[i].2)
    }
}

impl SparseFormat for CooMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.entries.len()
    }
    fn triplets(&self) -> Vec<(usize, usize, f32)> {
        self.entries.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sorts_row_major() {
        let m = CooMatrix::from_triplets(3, 3, &[(2, 0, 1.0), (0, 1, 2.0), (0, 0, 3.0)]).unwrap();
        assert_eq!(m.entries(), &[(0, 0, 3.0), (0, 1, 2.0), (2, 0, 1.0)]);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let e = CooMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(e, SparseError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn rejects_duplicates() {
        let e = CooMatrix::from_triplets(2, 2, &[(1, 1, 1.0), (1, 1, 2.0)]).unwrap_err();
        assert!(matches!(e, SparseError::DuplicateEntry { row: 1, col: 1 }));
    }

    #[test]
    fn push_keeps_order_and_rejects_dups() {
        let mut m = CooMatrix::new(2, 2);
        m.push(1, 0, 4.0).unwrap();
        m.push(0, 1, 5.0).unwrap();
        assert_eq!(m.entries(), &[(0, 1, 5.0), (1, 0, 4.0)]);
        assert!(m.push(0, 1, 9.0).is_err());
        assert!(m.push(5, 0, 1.0).is_err());
    }

    #[test]
    fn get_finds_stored_entries_only() {
        let m = CooMatrix::from_triplets(2, 2, &[(0, 1, 5.0)]).unwrap();
        assert_eq!(m.get(0, 1), Some(5.0));
        assert_eq!(m.get(1, 1), None);
    }

    #[test]
    fn dense_round_trip() {
        let d = DenseMatrix::from_row_major(2, 3, vec![0., 1., 0., 2., 0., 3.]).unwrap();
        let m = CooMatrix::from_dense(&d);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn sparsity_matches_definition() {
        let m = CooMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        assert_eq!(m.sparsity(), 0.75);
    }
}
