//! Seeded input generation. The benchmark owns its generator, so the
//! inputs of a seed never change with the library, and a 512x512 matrix
//! takes O(nnz) to build.

use crate::adapter::{Job, Kernel};
use hht_sparse::{CsrMatrix, DenseVector, SparseVector};
use std::sync::Arc;

/// Sparsity of every generated matrix and sparse operand (the paper's
/// headline shape).
pub const SPARSITY: f64 = 0.9;

/// A deterministic 64-bit mix of a seed and two stream ids (splitmix64
/// finaliser), so every input depends on the workload seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[-1, 1]` without 0.
    fn value(&mut self) -> f32 {
        loop {
            let v = (2.0 * self.unit() - 1.0) as f32;
            if v != 0.0 {
                return v;
            }
        }
    }
}

/// A square `n x n` CSR matrix with `round((1 - sparsity) * n * n)`
/// non-zeros at distinct uniformly random coordinates.
pub fn csr(n: usize, sparsity: f64, seed: u64) -> CsrMatrix {
    let mut rng = Rng::new(seed);
    let total = n * n;
    let nnz = ((1.0 - sparsity) * total as f64).round() as usize;
    let mut taken = vec![false; total];
    let mut triplets = Vec::with_capacity(nnz);
    while triplets.len() < nnz {
        let flat = rng.below(total);
        if !taken[flat] {
            taken[flat] = true;
            triplets.push((flat / n, flat % n, rng.value()));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("distinct in-range coordinates")
}

/// A dense vector of `n` non-zero values in `[-1, 1]`.
pub fn dense(n: usize, seed: u64) -> DenseVector {
    let mut rng = Rng::new(seed);
    DenseVector::from((0..n).map(|_| rng.value()).collect::<Vec<_>>())
}

/// A sparse vector of length `n` with `round((1 - sparsity) * n)` non-zeros.
pub fn sparse(n: usize, sparsity: f64, seed: u64) -> SparseVector {
    let mut rng = Rng::new(seed);
    let nnz = ((1.0 - sparsity) * n as f64).round() as usize;
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..nnz {
        let j = i + rng.below(n - i);
        idx.swap(i, j);
    }
    let pairs: Vec<(usize, f32)> = idx[..nnz].iter().map(|&i| (i, rng.value())).collect();
    SparseVector::from_pairs(n, &pairs).expect("distinct in-range indices")
}

/// A `kernel` job on an `n x n` matrix drawn from `matrix_seed`, with a
/// dense (SpMV) or sparse (SpMSpV) operand drawn from `operand_seed`, on
/// behalf of tenant 0.
pub fn job(kernel: Kernel, n: usize, matrix_seed: u64, operand_seed: u64) -> Job {
    let m = Arc::new(csr(n, SPARSITY, matrix_seed));
    let x = || Arc::new(sparse(n, SPARSITY, operand_seed));
    match kernel {
        Kernel::Spmv => Job::spmv(0, m, Arc::new(dense(n, operand_seed))),
        Kernel::SpmspvV1 => Job::spmspv_v1(0, m, x()),
        Kernel::SpmspvV2 => Job::spmspv_v2(0, m, x()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_sparse::SparseFormat;

    #[test]
    fn shapes_and_counts_are_exact() {
        let m = csr(64, 0.9, 1);
        assert_eq!(m.nnz(), 410);
        assert_eq!(sparse(100, 0.9, 2).nnz(), 10);
        assert_eq!(dense(7, 3).len(), 7);
    }

    #[test]
    fn same_seed_same_input() {
        assert_eq!(csr(32, 0.8, 5).content_hash(), csr(32, 0.8, 5).content_hash());
        assert_ne!(csr(32, 0.8, 5).content_hash(), csr(32, 0.8, 6).content_hash());
    }
}
