//! Reproducible random and structured matrix/vector generators.
//!
//! The paper's primary evaluation uses "randomly generated matrices with
//! varying degrees of sparsity" (§4); the SuiteSparse-profile generators in
//! `hht-workloads` build on the structured generators here.

use crate::{CooMatrix, CsrMatrix, DenseVector, SparseVector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Draw a non-zero value uniformly from `[-1, 1] \ {0}`.
fn nonzero_value(rng: &mut SmallRng) -> f32 {
    loop {
        let v: f32 = rng.gen_range(-1.0..=1.0);
        if v != 0.0 {
            return v;
        }
    }
}

/// Generate a random `rows x cols` CSR matrix with the given sparsity
/// (fraction of zeros, per the paper's definition) using the seed for
/// reproducibility.
///
/// The generator places `round((1 - sparsity) * rows * cols)` non-zeros at
/// distinct uniformly random coordinates, so the realized sparsity is exact
/// up to rounding.
pub fn random_csr(rows: usize, cols: usize, sparsity: f64, seed: u64) -> CsrMatrix {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let total = rows * cols;
    let nnz = ((1.0 - sparsity) * total as f64).round() as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity(nnz);
    if nnz * 3 < total {
        // Sparse regime: rejection-sample coordinates. The value is drawn
        // before the duplicate test, so a rejected draw still consumes one.
        let mut seen = HashSet::with_capacity(nnz);
        while triplets.len() < nnz {
            let r = rng.gen_range(0..rows);
            let c = rng.gen_range(0..cols);
            let v = nonzero_value(&mut rng);
            if seen.insert(r * cols + c) {
                triplets.push((r, c, v));
            }
        }
    } else {
        // Dense regime: partial Fisher-Yates over all coordinates.
        let mut coords: Vec<usize> = (0..total).collect();
        for i in 0..nnz {
            let j = rng.gen_range(i..total);
            coords.swap(i, j);
        }
        let mut chosen = coords[..nnz].to_vec();
        chosen.sort_unstable();
        triplets.extend(
            chosen.into_iter().map(|flat| (flat / cols, flat % cols, nonzero_value(&mut rng))),
        );
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("distinct in-range coordinates")
}

/// Generate a random dense vector of length `n` with entries in `[-1, 1]`,
/// all non-zero.
pub fn random_dense_vector(n: usize, seed: u64) -> DenseVector {
    let mut rng = SmallRng::seed_from_u64(seed);
    DenseVector::from((0..n).map(|_| nonzero_value(&mut rng)).collect::<Vec<_>>())
}

/// Generate a random sparse vector of length `n` with the given sparsity.
pub fn random_sparse_vector(n: usize, sparsity: f64, seed: u64) -> SparseVector {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let nnz = ((1.0 - sparsity) * n as f64).round() as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..nnz {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    let pairs: Vec<(usize, f32)> =
        idx[..nnz].iter().map(|&i| (i, nonzero_value(&mut rng))).collect();
    SparseVector::from_pairs(n, &pairs).expect("generated indices are unique and in range")
}

/// A banded matrix: non-zeros only within `bandwidth` of the diagonal, all
/// band slots filled. Typical of discretized-PDE SuiteSparse matrices.
pub fn banded_csr(n: usize, bandwidth: usize, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for i in 0..n {
        let lo = i.saturating_sub(bandwidth);
        let hi = (i + bandwidth + 1).min(n);
        for j in lo..hi {
            triplets.push((i, j, nonzero_value(&mut rng)));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("band coordinates are valid")
}

/// A power-law (graph-like) matrix: row populations follow a Zipf-like
/// distribution, columns uniform. Typical of web/social-graph SuiteSparse
/// matrices.
pub fn power_law_csr(n: usize, avg_row_nnz: f64, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(n, n);
    // Zipf weights w_i = 1/(i+1); scale so the mean matches avg_row_nnz.
    let hn: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
    let scale = avg_row_nnz * n as f64 / hn;
    for i in 0..n {
        let target = ((scale / (i + 1) as f64).round() as usize).min(n);
        let mut placed = 0usize;
        let mut attempts = 0usize;
        while placed < target && attempts < 4 * n {
            let c = rng.gen_range(0..n);
            if coo.push(i, c, nonzero_value(&mut rng)).is_ok() {
                placed += 1;
            }
            attempts += 1;
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// A block-diagonal matrix of dense `block x block` blocks. Typical of
/// multi-body / circuit SuiteSparse matrices.
pub fn block_diagonal_csr(n: usize, block: usize, seed: u64) -> CsrMatrix {
    assert!(block > 0 && n.is_multiple_of(block), "block must tile n");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for b in (0..n).step_by(block) {
        for i in 0..block {
            for j in 0..block {
                triplets.push((b + i, b + j, nonzero_value(&mut rng)));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("block coordinates are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseFormat;

    #[test]
    fn random_csr_hits_target_sparsity() {
        for &s in &[0.1, 0.5, 0.9] {
            let m = random_csr(64, 64, s, 42);
            assert!((m.sparsity() - s).abs() < 0.01, "sparsity {} vs {}", m.sparsity(), s);
        }
    }

    /// The construction `random_csr` replaced: the same draws, inserted
    /// one by one into a sorted COO matrix (quadratic in the non-zeros).
    fn random_csr_by_coo_insertion(
        rows: usize,
        cols: usize,
        sparsity: f64,
        seed: u64,
    ) -> CsrMatrix {
        let total = rows * cols;
        let nnz = ((1.0 - sparsity) * total as f64).round() as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(rows, cols);
        if nnz * 3 < total {
            let mut placed = 0usize;
            while placed < nnz {
                let r = rng.gen_range(0..rows);
                let c = rng.gen_range(0..cols);
                if coo.push(r, c, nonzero_value(&mut rng)).is_ok() {
                    placed += 1;
                }
            }
        } else {
            let mut coords: Vec<usize> = (0..total).collect();
            for i in 0..nnz {
                let j = rng.gen_range(i..total);
                coords.swap(i, j);
            }
            let mut chosen = coords[..nnz].to_vec();
            chosen.sort_unstable();
            for flat in chosen {
                coo.push(flat / cols, flat % cols, nonzero_value(&mut rng)).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Both regimes (sparsity above and below 2/3), square and
    /// rectangular, build exactly the matrix the COO insertion built.
    #[test]
    fn random_csr_matches_the_coo_insertion_construction() {
        for (rows, cols) in [(64, 64), (37, 90), (128, 17)] {
            for sparsity in [0.0, 0.3, 0.6, 0.7, 0.9, 0.99, 1.0] {
                for seed in [0, 1, 7, 0xB00C, u64::MAX] {
                    assert_eq!(
                        random_csr(rows, cols, sparsity, seed),
                        random_csr_by_coo_insertion(rows, cols, sparsity, seed),
                        "{rows}x{cols} sparsity {sparsity} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_csr_is_reproducible() {
        let a = random_csr(32, 32, 0.7, 7);
        let b = random_csr(32, 32, 0.7, 7);
        assert_eq!(a, b);
        let c = random_csr(32, 32, 0.7, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_csr_extremes() {
        let full = random_csr(8, 8, 0.0, 1);
        assert_eq!(full.nnz(), 64);
        let empty = random_csr(8, 8, 1.0, 1);
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn random_dense_vector_has_no_zeros() {
        let v = random_dense_vector(256, 3);
        assert!(v.as_slice().iter().all(|x| *x != 0.0));
        assert_eq!(v.len(), 256);
    }

    #[test]
    fn random_sparse_vector_hits_sparsity() {
        let v = random_sparse_vector(200, 0.8, 5);
        assert_eq!(v.nnz(), 40);
        assert_eq!(v.len(), 200);
        // reproducible
        assert_eq!(v, random_sparse_vector(200, 0.8, 5));
    }

    #[test]
    fn banded_structure() {
        let m = banded_csr(16, 1, 9);
        // tridiagonal: 16 + 15 + 15 nnz
        assert_eq!(m.nnz(), 46);
        for (r, c, _) in m.triplets() {
            assert!(r.abs_diff(c) <= 1);
        }
    }

    #[test]
    fn power_law_rows_decay() {
        let m = power_law_csr(64, 4.0, 11);
        assert!(m.row_nnz(0) >= m.row_nnz(63));
        assert!(m.nnz() > 0);
    }

    #[test]
    fn block_diagonal_structure() {
        let m = block_diagonal_csr(12, 3, 13);
        assert_eq!(m.nnz(), 12 / 3 * 9);
        for (r, c, _) in m.triplets() {
            assert_eq!(r / 3, c / 3);
        }
    }
}
