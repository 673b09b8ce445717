//! Golden (functional) kernels.
//!
//! These implement the algorithms of the paper in plain Rust with no timing
//! model. The cycle-level simulator's numeric results are cross-checked
//! against these in every integration test, so any bug in the simulated
//! RISC-V kernels or the HHT engines shows up as a numeric mismatch.

use crate::{CsrMatrix, DenseVector, Result, SparseError, SparseFormat, SparseVector};

/// CSR SpMV — the paper's Algorithm 1: `y = M * v` with dense `v`.
pub fn spmv(m: &CsrMatrix, v: &DenseVector) -> Result<DenseVector> {
    if v.len() != m.cols() {
        return Err(SparseError::DimensionMismatch {
            what: format!("matrix has {} cols, vector has {}", m.cols(), v.len()),
        });
    }
    let mut y = DenseVector::zeros(m.rows());
    for i in 0..m.rows() {
        let (cols, vals) = m.row(i);
        let mut s = 0.0f32;
        for (c, a) in cols.iter().zip(vals) {
            s += a * v[*c as usize];
        }
        y[i] = s;
    }
    Ok(y)
}

/// SpMSpV: `y = M * x` with sparse `x`, dense result.
///
/// Row-wise intersection of each CSR row's column indices with the
/// vector's non-zero indices — the index-matching work that variant-1 of the
/// HHT performs in hardware (§5.1). A position map of `x` (`slot[c]` is one
/// plus the position of column `c` among its non-zeros, 0 where `x` is
/// structurally zero) finds each row's matches in one pass over the row.
/// Both index lists are sorted, so the matches come in the order a
/// two-pointer merge finds them: the same products, summed in the same
/// order, in time linear in `nnz(M) + nnz(x)`.
pub fn spmspv(m: &CsrMatrix, x: &SparseVector) -> Result<DenseVector> {
    if x.len() != m.cols() {
        return Err(SparseError::DimensionMismatch {
            what: format!("matrix has {} cols, sparse vector has {}", m.cols(), x.len()),
        });
    }
    let mut slot = vec![0u32; x.len()];
    for (k, &c) in x.indices().iter().enumerate() {
        slot[c as usize] = k as u32 + 1;
    }
    let xv = x.values();
    let mut y = DenseVector::zeros(m.rows());
    for i in 0..m.rows() {
        let (cols, vals) = m.row(i);
        let mut s = 0.0f32;
        for (c, a) in cols.iter().zip(vals) {
            let k = slot[*c as usize];
            if k != 0 {
                s += a * xv[k as usize - 1];
            }
        }
        y[i] = s;
    }
    Ok(y)
}

/// Aligned pair stream plus per-row boundaries (see
/// [`spmspv_aligned_pairs`]).
pub type AlignedPairs = (Vec<(f32, f32)>, Vec<usize>);

/// The aligned `(matrix value, vector value)` pair stream that the HHT
/// SpMSpV **variant-1** engine supplies to the CPU (§5.1): for each row, the
/// pairs whose indices match, in order. The row boundaries are returned so
/// tests can reconstruct per-row accumulation.
pub fn spmspv_aligned_pairs(m: &CsrMatrix, x: &SparseVector) -> Result<AlignedPairs> {
    if x.len() != m.cols() {
        return Err(SparseError::DimensionMismatch { what: "matrix/vector width mismatch".into() });
    }
    let xi = x.indices();
    let xv = x.values();
    let mut pairs = Vec::new();
    let mut row_bounds = Vec::with_capacity(m.rows() + 1);
    row_bounds.push(0);
    for i in 0..m.rows() {
        let (cols, vals) = m.row(i);
        let (mut a, mut b) = (0usize, 0usize);
        while a < cols.len() && b < xi.len() {
            match cols[a].cmp(&xi[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    pairs.push((vals[a], xv[b]));
                    a += 1;
                    b += 1;
                }
            }
        }
        row_bounds.push(pairs.len());
    }
    Ok((pairs, row_bounds))
}

/// The vector-value stream that the HHT SpMSpV **variant-2** engine supplies
/// (§5.1): for every non-zero of the matrix (in CSR order), the vector value
/// at that column if present, else `0.0`. At high sparsities most entries
/// are zero — the "wasted computations" the paper discusses.
pub fn spmspv_value_or_zero(m: &CsrMatrix, x: &SparseVector) -> Result<Vec<f32>> {
    if x.len() != m.cols() {
        return Err(SparseError::DimensionMismatch { what: "matrix/vector width mismatch".into() });
    }
    Ok(m.col_indices().iter().map(|&c| x.get(c as usize)).collect())
}

/// SpMM: `Y = A * B` with CSR `A` and CSR `B`, producing CSR. Included for
/// completeness of the kernel library (the paper's motivating algorithms in
/// §1 include SpGEMM-based graph kernels).
pub fn spmm(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            what: format!("A is {}x{}, B is {}x{}", a.rows(), a.cols(), b.rows(), b.cols()),
        });
    }
    let mut triplets = Vec::new();
    let mut acc = vec![0.0f32; b.cols()];
    let mut touched: Vec<usize> = Vec::new();
    for i in 0..a.rows() {
        let (acols, avals) = a.row(i);
        for (k, av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(*k as usize);
            for (j, bv) in bcols.iter().zip(bvals) {
                let j = *j as usize;
                if acc[j] == 0.0 {
                    touched.push(j);
                }
                acc[j] += av * bv;
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            if acc[j] != 0.0 {
                triplets.push((i, j, acc[j]));
            }
            acc[j] = 0.0;
        }
        touched.clear();
    }
    CsrMatrix::from_triplets(a.rows(), b.cols(), &triplets)
}

/// Metadata-access accounting for the motivation study (§2): the number of
/// indirect accesses (`v[cols[.]]`), metadata loads (`rows`/`cols` words)
/// and useful value loads performed by Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCounts {
    /// Loads of `M_rows[.]` words.
    pub row_ptr_loads: usize,
    /// Loads of `M_cols[.]` words (metadata).
    pub col_idx_loads: usize,
    /// Indirect loads `v[cols[.]]`.
    pub indirect_loads: usize,
    /// Loads of `M_vals[.]` (useful data).
    pub value_loads: usize,
}

impl AccessCounts {
    /// Fraction of loads that are metadata or indirect — the "metadata
    /// overhead" of §2.
    pub fn metadata_fraction(&self) -> f64 {
        let total =
            self.row_ptr_loads + self.col_idx_loads + self.indirect_loads + self.value_loads;
        if total == 0 {
            return 0.0;
        }
        (self.row_ptr_loads + self.col_idx_loads + self.indirect_loads) as f64 / total as f64
    }
}

/// Count the memory accesses Algorithm 1 performs for `m`.
pub fn spmv_access_counts(m: &CsrMatrix) -> AccessCounts {
    AccessCounts {
        row_ptr_loads: m.rows() + 1,
        col_idx_loads: m.nnz(),
        indirect_loads: m.nnz(),
        value_loads: m.nnz(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> CsrMatrix {
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 5.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 1.0)])
            .unwrap()
    }

    #[test]
    fn spmv_matches_dense_matvec() {
        let m = fig1();
        let v = DenseVector::from(vec![1.0, 2.0, 3.0]);
        let sparse_y = spmv(&m, &v).unwrap();
        let dense_y = m.to_dense().matvec(&v).unwrap();
        assert_eq!(sparse_y, dense_y);
        assert_eq!(sparse_y.as_slice(), &[11.0, 9.0, 1.0]);
    }

    #[test]
    fn spmv_rejects_bad_width() {
        assert!(spmv(&fig1(), &DenseVector::zeros(4)).is_err());
    }

    #[test]
    fn spmspv_matches_spmv_on_densified_vector() {
        let m = fig1();
        let x = SparseVector::from_pairs(3, &[(0, 2.0), (2, -1.0)]).unwrap();
        let y1 = spmspv(&m, &x).unwrap();
        let y2 = spmv(&m, &x.to_dense()).unwrap();
        assert_eq!(y1, y2);
        assert_eq!(y1.as_slice(), &[8.0, -3.0, 2.0]);
    }

    /// The two-pointer row merge `spmspv` used to be: the reference its
    /// position-map walk must match bit for bit.
    fn spmspv_merge(m: &CsrMatrix, x: &SparseVector) -> Vec<u32> {
        let (xi, xv) = (x.indices(), x.values());
        (0..m.rows())
            .map(|i| {
                let (cols, vals) = m.row(i);
                let mut s = 0.0f32;
                let (mut a, mut b) = (0usize, 0usize);
                while a < cols.len() && b < xi.len() {
                    match cols[a].cmp(&xi[b]) {
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                        std::cmp::Ordering::Equal => {
                            s += vals[a] * xv[b];
                            a += 1;
                            b += 1;
                        }
                    }
                }
                s.to_bits()
            })
            .collect()
    }

    #[test]
    fn spmspv_matches_the_row_merge() {
        use crate::generate::{random_csr, random_dense_vector, random_sparse_vector};
        let bits = |y: DenseVector| y.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut cases = Vec::new();
        for (rows, cols) in [(1, 1), (7, 3), (3, 9), (64, 64), (40, 100), (100, 40)] {
            for m_sparsity in [0.0, 0.5, 0.9, 0.99, 1.0] {
                for seed in 0..4u64 {
                    let m = random_csr(rows, cols, m_sparsity, seed);
                    for x_sparsity in [0.0, 0.3, 0.9, 1.0] {
                        cases.push((m.clone(), random_sparse_vector(cols, x_sparsity, seed ^ 7)));
                    }
                    cases.push((m.clone(), SparseVector::zeros(cols)));
                    let full = SparseVector::from_dense(&random_dense_vector(cols, seed ^ 9));
                    assert_eq!(full.nnz(), cols, "a full x");
                    cases.push((m, full));
                }
            }
        }
        // An empty row between full ones, against every subset of a width-3 x.
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.5), (0, 2, -2.0), (2, 1, 0.25)]).unwrap();
        for mask in 0..8usize {
            let pairs: Vec<_> =
                (0..3).filter(|c| mask >> c & 1 == 1).map(|c| (c, c as f32 - 0.75)).collect();
            cases.push((m.clone(), SparseVector::from_pairs(3, &pairs).unwrap()));
        }
        for (m, x) in &cases {
            assert_eq!(bits(spmspv(m, x).unwrap()), spmspv_merge(m, x), "{m:?} x {x:?}");
        }
    }

    #[test]
    fn aligned_pairs_reconstruct_spmspv() {
        let m = fig1();
        let x = SparseVector::from_pairs(3, &[(0, 2.0), (2, -1.0)]).unwrap();
        let (pairs, bounds) = spmspv_aligned_pairs(&m, &x).unwrap();
        let y = spmspv(&m, &x).unwrap();
        assert_eq!(bounds.len(), m.rows() + 1);
        for i in 0..m.rows() {
            let s: f32 = pairs[bounds[i]..bounds[i + 1]].iter().map(|(a, b)| a * b).sum();
            assert_eq!(s, y[i]);
        }
    }

    #[test]
    fn value_or_zero_reconstructs_spmspv() {
        let m = fig1();
        let x = SparseVector::from_pairs(3, &[(2, -1.0)]).unwrap();
        let stream = spmspv_value_or_zero(&m, &x).unwrap();
        assert_eq!(stream.len(), m.nnz());
        // Multiply against vals in CSR order and accumulate per row.
        let y = spmspv(&m, &x).unwrap();
        let mut k = 0;
        for i in 0..m.rows() {
            let (_, vals) = m.row(i);
            let s: f32 = vals.iter().zip(&stream[k..k + vals.len()]).map(|(a, b)| a * b).sum();
            assert_eq!(s, y[i]);
            k += vals.len();
        }
    }

    #[test]
    fn value_or_zero_is_mostly_zero_at_high_sparsity() {
        let m = fig1();
        let x = SparseVector::zeros(3);
        let stream = spmspv_value_or_zero(&m, &x).unwrap();
        assert!(stream.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn spmm_matches_dense_product() {
        let a = fig1();
        let b = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (2, 1, 2.0)]).unwrap();
        let c = spmm(&a, &b).unwrap();
        let cd = c.to_dense();
        // dense check
        let ad = a.to_dense();
        let bd = b.to_dense();
        for i in 0..3 {
            for j in 0..2 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += ad[(i, k)] * bd[(k, j)];
                }
                assert_eq!(cd[(i, j)], s);
            }
        }
    }

    #[test]
    fn spmm_rejects_bad_shapes() {
        let a = fig1();
        let b = CsrMatrix::from_triplets(2, 2, &[]).unwrap();
        assert!(spmm(&a, &b).is_err());
    }

    #[test]
    fn access_counts_match_algorithm1() {
        let m = fig1();
        let c = spmv_access_counts(&m);
        assert_eq!(c.row_ptr_loads, 4);
        assert_eq!(c.col_idx_loads, 4);
        assert_eq!(c.indirect_loads, 4);
        assert_eq!(c.value_loads, 4);
        // 3 of every 4 loads are metadata/indirect here.
        assert!((c.metadata_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn metadata_fraction_of_empty_is_zero() {
        assert_eq!(AccessCounts::default().metadata_fraction(), 0.0);
    }
}
