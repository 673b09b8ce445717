//! Compressed Sparse Row (CSR) — the format the paper's HHT is designed for.
//!
//! Per §2/Fig. 1: a `row_ptr` array (the paper's *rows*) holds, for each row,
//! the index into `col_idx` (*cols*) where that row's column indices start;
//! `values` (*vals*) holds the non-zero values in the same order. The HHT's
//! memory-mapped registers (`M_Rows_Base`, `M_Cols_Base`, …) point at exactly
//! these three arrays, so [`CsrMatrix`] exposes them in the flat `u32`/`f32`
//! layout the simulated memory image uses.

use crate::{CooMatrix, DenseMatrix, Result, SparseError, SparseFormat};

/// A CSR sparse matrix with `u32` indices and `f32` values (SEW = 32).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build from raw CSR arrays, validating every structural invariant:
    /// `row_ptr.len() == rows + 1`, `row_ptr` monotone non-decreasing,
    /// `row_ptr[0] == 0`, `row_ptr[rows] == col_idx.len() == values.len()`,
    /// all column indices in range and strictly increasing within a row.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1 {
            return Err(SparseError::InvalidStructure {
                what: format!("row_ptr has {} entries, expected {}", row_ptr.len(), rows + 1),
            });
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::InvalidStructure {
                what: format!("row_ptr[0] = {}, expected 0", row_ptr[0]),
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::InvalidStructure {
                what: format!("{} column indices but {} values", col_idx.len(), values.len()),
            });
        }
        if *row_ptr.last().unwrap() as usize != col_idx.len() {
            return Err(SparseError::InvalidStructure {
                what: format!(
                    "row_ptr[last] = {} but nnz = {}",
                    row_ptr.last().unwrap(),
                    col_idx.len()
                ),
            });
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::InvalidStructure {
                    what: "row_ptr is not monotone non-decreasing".into(),
                });
            }
        }
        for r in 0..rows {
            let (lo, hi) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
            let row_cols = &col_idx[lo..hi];
            for w in row_cols.windows(2) {
                if w[1] <= w[0] {
                    return Err(SparseError::InvalidStructure {
                        what: format!("column indices in row {r} are not strictly increasing"),
                    });
                }
            }
            if let Some(&c) = row_cols.last() {
                if c as usize >= cols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: c as usize,
                        rows,
                        cols,
                    });
                }
            }
        }
        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values })
    }

    /// Build from `(row, col, value)` triplets in any order. Errors, in
    /// order of precedence: the first out-of-bounds triplet in input order,
    /// the first duplicate coordinate in row-major order, then a row,
    /// column or non-zero count past the `u32` index range.
    ///
    /// Built directly by two stable sorts: the entries are ordered by
    /// column, then by row, so each row comes out with its columns
    /// ascending (duplicates adjacent). Both are counting sorts, except
    /// that a matrix with more columns than entries has its column order
    /// merge-sorted instead, so nothing is allocated per column. Besides
    /// the output it holds at most 8 bytes per entry.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<Self> {
        for &(row, col, _) in triplets {
            if row >= rows || col >= cols {
                return Err(SparseError::IndexOutOfBounds { row, col, rows, cols });
            }
        }
        let limit = u32::MAX as usize;
        if rows > limit || cols > limit || triplets.len() > limit {
            // Past the index range: the COO path still reports a duplicate
            // before the range error.
            return Self::try_from_coo(&CooMatrix::from_triplets(rows, cols, triplets)?);
        }
        let mut row_ptr = vec![0u32; rows + 1];
        for &(r, _, _) in triplets {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        // Pass 2, fed pass 1's column order: stable by row, so each row's
        // columns come out ascending.
        let mut next = row_ptr[..rows].to_vec();
        let mut col_idx = vec![0u32; triplets.len()];
        let mut values = vec![0f32; triplets.len()];
        let mut place = |r: usize, c: usize, v: f32| {
            let k = next[r] as usize;
            col_idx[k] = c as u32;
            values[k] = v;
            next[r] += 1;
        };
        // Pass 1: the entries in column order, input order within a
        // column.
        if cols <= triplets.len() {
            let mut start = vec![0u32; cols + 1];
            for &(_, c, _) in triplets {
                start[c + 1] += 1;
            }
            for c in 0..cols {
                start[c + 1] += start[c];
            }
            let mut fill = start.clone();
            let mut by_col = vec![(0u32, 0f32); triplets.len()];
            for &(r, c, v) in triplets {
                by_col[fill[c] as usize] = (r as u32, v);
                fill[c] += 1;
            }
            for (c, span) in start.windows(2).enumerate() {
                for &(r, v) in &by_col[span[0] as usize..span[1] as usize] {
                    place(r as usize, c, v);
                }
            }
        } else {
            let mut by_col: Vec<u32> = (0..triplets.len() as u32).collect();
            by_col.sort_by_key(|&i| triplets[i as usize].1);
            for i in by_col {
                let (r, c, v) = triplets[i as usize];
                place(r, c, v);
            }
        }
        for (r, span) in row_ptr.windows(2).enumerate() {
            let row = &col_idx[span[0] as usize..span[1] as usize];
            if let Some(w) = row.windows(2).find(|w| w[0] == w[1]) {
                return Err(SparseError::DuplicateEntry { row: r, col: w[0] as usize });
            }
        }
        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values })
    }

    /// [`from_coo`](CsrMatrix::from_coo) for a COO matrix whose shape is
    /// not known to fit: rejects a row, column or non-zero count past the
    /// `u32` index range instead of letting the indices wrap.
    pub(crate) fn try_from_coo(coo: &CooMatrix) -> Result<Self> {
        let limit = u32::MAX as usize;
        if coo.rows() > limit || coo.cols() > limit || coo.nnz() > limit {
            return Err(SparseError::InvalidStructure {
                what: format!(
                    "{}x{} matrix with {} non-zeros exceeds the u32 index range",
                    coo.rows(),
                    coo.cols(),
                    coo.nnz()
                ),
            });
        }
        Ok(Self::from_coo(coo))
    }

    /// Build from a sorted COO matrix (infallible: COO maintains the needed
    /// invariants). Its rows, columns and non-zeros must each fit a `u32`;
    /// [`from_triplets`](CsrMatrix::from_triplets) checks that.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let rows = coo.rows();
        let mut row_ptr = vec![0u32; rows + 1];
        let mut col_idx = Vec::with_capacity(coo.nnz());
        let mut values = Vec::with_capacity(coo.nnz());
        for &(r, c, v) in coo.entries() {
            row_ptr[r + 1] += 1;
            col_idx.push(c as u32);
            values.push(v);
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix { rows, cols: coo.cols(), row_ptr, col_idx, values }
    }

    /// Build from a dense matrix keeping entries that are not exactly zero.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        Self::from_coo(&CooMatrix::from_dense(d))
    }

    /// The paper's *rows* array: `rows() + 1` offsets into [`col_indices`].
    ///
    /// [`col_indices`]: CsrMatrix::col_indices
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The paper's *cols* array: column index of each non-zero.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// The paper's *vals* array: non-zero values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Column indices and values of one row, as parallel slices.
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of non-zeros in row `r` (the paper's `nnz` in Algorithm 1).
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Largest row population, used to size HHT buffers in tests.
    pub fn max_row_nnz(&self) -> usize {
        (0..self.rows).map(|r| self.row_nnz(r)).max().unwrap_or(0)
    }
}

impl SparseFormat for CsrMatrix {
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
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                out.push((r, *c as usize, *v));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 3x3 example of the paper's Fig. 1:
    /// [[5, 0, 2], [0, 0, 3], [1, 0, 0]]
    fn fig1() -> CsrMatrix {
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 5.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 1.0)])
            .unwrap()
    }

    #[test]
    fn fig1_arrays_match_paper_layout() {
        let m = fig1();
        assert_eq!(m.row_ptr(), &[0, 2, 3, 4]);
        assert_eq!(m.col_indices(), &[0, 2, 2, 0]);
        assert_eq!(m.values(), &[5.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn row_accessors() {
        let m = fig1();
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 1);
        assert_eq!(m.max_row_nnz(), 2);
        let (c, v) = m.row(0);
        assert_eq!(c, &[0, 2]);
        assert_eq!(v, &[5.0, 2.0]);
    }

    #[test]
    fn from_raw_validates_row_ptr_length() {
        let e = CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(e, SparseError::InvalidStructure { .. }));
    }

    #[test]
    fn from_raw_validates_monotonicity() {
        let e = CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(e, SparseError::InvalidStructure { .. }));
    }

    #[test]
    fn from_raw_validates_nnz_agreement() {
        let e = CsrMatrix::from_raw(1, 2, vec![0, 2], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(e, SparseError::InvalidStructure { .. }));
        let e = CsrMatrix::from_raw(1, 2, vec![0, 1], vec![0, 1], vec![1.0]).unwrap_err();
        assert!(matches!(e, SparseError::InvalidStructure { .. }));
    }

    #[test]
    fn from_raw_validates_column_order_and_bounds() {
        // duplicate column in a row
        let e = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(e, SparseError::InvalidStructure { .. }));
        // out of range column
        let e = CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(e, SparseError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn from_raw_accepts_valid_input() {
        let m = CsrMatrix::from_raw(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1., 2., 3.]).unwrap();
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn triplets_round_trip_via_dense() {
        let m = fig1();
        let d = m.to_dense();
        assert_eq!(d[(0, 0)], 5.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(2, 0)], 1.0);
        let back = CsrMatrix::from_dense(&d);
        assert_eq!(back, m);
    }

    #[test]
    fn shapes_past_the_u32_range_are_rejected() {
        let wide = u32::MAX as usize + 1;
        let e = CsrMatrix::from_triplets(1, 5_000_000_000, &[(0, 4_999_999_998, 2.5)]).unwrap_err();
        assert!(matches!(e, SparseError::InvalidStructure { .. }), "{e}");
        assert!(CsrMatrix::from_triplets(wide, 1, &[]).is_err());
        assert!(CsrMatrix::from_triplets(usize::MAX, 1, &[]).is_err());
        // The widest shape that fits still builds.
        let m = CsrMatrix::from_triplets(1, wide - 1, &[(0, wide - 2, 1.0)]).unwrap();
        assert_eq!(m.col_indices(), &[u32::MAX - 1]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(4, 4, &[(3, 3, 1.0)]).unwrap();
        assert_eq!(m.row_ptr(), &[0, 0, 0, 0, 1]);
        assert_eq!(m.row_nnz(0), 0);
        assert_eq!(m.row_nnz(3), 1);
    }

    #[test]
    fn a_duplicate_outranks_the_range_error() {
        let wide = u32::MAX as usize + 1;
        let e = CsrMatrix::from_triplets(1, wide, &[(0, 3, 1.0), (0, 3, 2.0)]).unwrap_err();
        assert_eq!(e, SparseError::DuplicateEntry { row: 0, col: 3 });
    }

    /// The row-bucketing construction the counting sort replaced: one
    /// counting pass buckets the entries by row, then each row's columns
    /// are comparison-sorted. Kept as the reference the counting sort must
    /// match bit for bit, errors included.
    fn bucket_sort_reference(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<CsrMatrix> {
        for &(row, col, _) in triplets {
            if row >= rows || col >= cols {
                return Err(SparseError::IndexOutOfBounds { row, col, rows, cols });
            }
        }
        let mut row_ptr = vec![0u32; rows + 1];
        for &(r, _, _) in triplets {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut next = row_ptr[..rows].to_vec();
        let mut entries = vec![(0u32, 0f32); triplets.len()];
        for &(r, c, v) in triplets {
            entries[next[r] as usize] = (c as u32, v);
            next[r] += 1;
        }
        for (r, span) in row_ptr.windows(2).enumerate() {
            let row = &mut entries[span[0] as usize..span[1] as usize];
            row.sort_unstable_by_key(|&(c, _)| c);
            if let Some(w) = row.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(SparseError::DuplicateEntry { row: r, col: w[0].0 as usize });
            }
        }
        let (col_idx, values) = entries.into_iter().unzip();
        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values })
    }

    /// The counting sort and the reference agree bit for bit: the same
    /// arrays (values compared as bit patterns) or the same error.
    fn assert_matches_reference(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) {
        let bits = |r: Result<CsrMatrix>| {
            r.map(|m| {
                let v: Vec<u32> = m.values.iter().map(|v| v.to_bits()).collect();
                (m.rows, m.cols, m.row_ptr, m.col_idx, v)
            })
        };
        assert_eq!(
            bits(CsrMatrix::from_triplets(rows, cols, triplets)),
            bits(bucket_sort_reference(rows, cols, triplets)),
            "{rows}x{cols} from {triplets:?}"
        );
    }

    #[test]
    fn the_counting_sort_matches_the_bucket_sort_on_edge_cases() {
        type Triplets = &'static [(usize, usize, f32)];
        let cases: &[(usize, usize, Triplets)] = &[
            (0, 0, &[]),
            (3, 3, &[]),
            (1, 1, &[(0, 0, -0.0)]),
            (1, 1, &[(0, 0, 1.5), (0, 0, 2.5)]),
            (2, 5, &[(1, 4, 1.0), (0, 3, 2.0), (1, 0, 3.0), (0, 1, 4.0)]),
            (5, 2, &[(4, 1, 1.0), (0, 1, 2.0), (4, 0, 3.0), (2, 0, 4.0)]),
            // Duplicates in two rows: the lower row's is reported, and
            // within it the lower column's.
            (3, 4, &[(2, 1, 1.0), (1, 3, 1.0), (2, 1, 2.0), (1, 3, 2.0), (1, 2, 0.0), (1, 2, 3.0)]),
            // Out of range outranks a duplicate, the first in input order
            // wins.
            (2, 2, &[(0, 0, 1.0), (0, 0, 1.0), (0, 2, 1.0), (3, 0, 1.0)]),
            (2, 2, &[(2, 0, 1.0), (0, 5, 1.0)]),
            // More columns than entries: the column order is merge-sorted.
            (2, 9, &[(1, 8, 1.0), (0, 8, 2.0), (1, 2, 3.0)]),
            (2, 9, &[(1, 8, 1.0), (1, 3, 2.0), (1, 8, 3.0)]),
        ];
        for &(rows, cols, triplets) in cases {
            assert_matches_reference(rows, cols, triplets);
        }
        for seed in 0..8 {
            let m = crate::generate::random_csr(40 + seed as usize, 33, 0.9, seed);
            let mut t = m.triplets();
            t.reverse();
            let shift = seed as usize * 7 % t.len().max(1);
            t.rotate_left(shift);
            assert_matches_reference(m.rows(), m.cols(), &t);
        }
    }

    mod direct_build {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The direct build equals a COO sort then `from_coo` on valid
            /// input and returns the same error on out-of-bounds or
            /// duplicate input. `wrap` folds coordinates into the shape
            /// (in bounds, duplicates common); `dedup` keeps each
            /// coordinate's first triplet only.
            #[test]
            fn direct_build_matches_the_coo_path(
                rows in 1usize..7,
                cols in 1usize..7,
                raw in proptest::collection::vec((0usize..8, 0usize..8, -4i32..5), 0..24),
                wrap in any::<bool>(),
                dedup in any::<bool>(),
            ) {
                let mut triplets: Vec<(usize, usize, f32)> = Vec::new();
                for &(r, c, v) in &raw {
                    let (r, c) = if wrap { (r % rows, c % cols) } else { (r, c) };
                    if !(dedup && triplets.iter().any(|t| (t.0, t.1) == (r, c))) {
                        triplets.push((r, c, v as f32));
                    }
                }
                let direct = CsrMatrix::from_triplets(rows, cols, &triplets);
                let via_coo = CooMatrix::from_triplets(rows, cols, &triplets)
                    .map(|coo| CsrMatrix::from_coo(&coo));
                prop_assert_eq!(direct, via_coo);
                assert_matches_reference(rows, cols, &triplets);
            }
        }
    }
}
