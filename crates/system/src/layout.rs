//! RAM image construction for a problem instance.
//!
//! Software (the host side of the reproduction) lays out the CSR arrays,
//! the vector(s) and the output array in the simulated 1 MB SRAM; the
//! resulting [`ProblemLayout`] carries the base addresses the kernels and
//! the HHT MMR programming need.

use hht_mem::ByteStore;
use hht_sparse::{CsrMatrix, DenseMatrix, DenseVector, SmashMatrix, SparseFormat, SparseVector};

/// Base addresses of every array placed in SRAM for one problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemLayout {
    /// CSR row-pointer array (`rows() + 1` words).
    pub rows_base: u32,
    /// CSR column-index array (`nnz` words).
    pub cols_base: u32,
    /// CSR value array (`nnz` words). For SMASH problems this is the packed
    /// value array.
    pub vals_base: u32,
    /// Dense vector (SpMV) base; 0 when absent.
    pub v_base: u32,
    /// Sparse vector index array base; 0 when absent.
    pub x_idx_base: u32,
    /// Sparse vector value array base; 0 when absent.
    pub x_vals_base: u32,
    /// Output vector `y` base.
    pub y_base: u32,
    /// SMASH level-0 bitmap base; 0 when absent.
    pub smash_l0_base: u32,
    /// SMASH level-1 bitmap base; 0 when no summary level.
    pub smash_l1_base: u32,
    /// Matrix shape and counts.
    pub num_rows: u32,
    /// Number of matrix columns.
    pub num_cols: u32,
    /// Matrix stored non-zero count.
    pub m_nnz: u32,
    /// Sparse vector non-zero count (0 for dense-vector problems).
    pub x_nnz: u32,
}

/// Incremental RAM image builder with word-aligned bump allocation.
#[derive(Debug)]
pub struct ImageBuilder<'a> {
    image: &'a mut ByteStore,
    cursor: u32,
}

impl<'a> ImageBuilder<'a> {
    /// Start allocating at `base` (must be word-aligned).
    pub fn new(image: &'a mut ByteStore, base: u32) -> Self {
        assert_eq!(base % 4, 0, "image base must be word aligned");
        ImageBuilder { image, cursor: base }
    }

    /// Next free address.
    pub fn cursor(&self) -> u32 {
        self.cursor
    }

    fn reserve(&mut self, words: usize) -> u32 {
        let addr = self.cursor;
        // In u64: a request past the 32-bit address space must be rejected
        // here, not wrap to a small reservation.
        let bytes = 4 * words as u64;
        let end = addr as u64 + bytes;
        assert!(
            end <= self.image.size() as u64,
            "problem does not fit in SRAM ({bytes} bytes needed past {addr:#x})"
        );
        // Keep arrays 32-byte separated to mimic alignment padding (an end
        // at the very top of the address space leaves no room for more).
        self.cursor = u32::try_from(end.next_multiple_of(32)).unwrap_or(u32::MAX);
        addr
    }

    /// Place a `u32` array, returning its base address.
    pub fn place_words(&mut self, words: &[u32]) -> u32 {
        let addr = self.reserve(words.len().max(1));
        self.image.load_words(addr, words);
        addr
    }

    /// Place an `f32` array, returning its base address.
    pub fn place_f32s(&mut self, values: &[f32]) -> u32 {
        let addr = self.reserve(values.len().max(1));
        self.image.load_f32s(addr, values);
        addr
    }

    /// Reserve a zeroed output array of `words` words.
    pub fn place_output(&mut self, words: usize) -> u32 {
        self.reserve(words.max(1))
    }
}

/// Lay out a CSR SpMV problem (`y = M * v`, dense `v`).
pub fn layout_spmv(image: &mut ByteStore, m: &CsrMatrix, v: &DenseVector) -> ProblemLayout {
    assert_eq!(m.cols(), v.len(), "matrix/vector width mismatch");
    let mut b = ImageBuilder::new(image, 0x100);
    let rows_base = b.place_words(m.row_ptr());
    let cols_base = b.place_words(m.col_indices());
    let vals_base = b.place_f32s(m.values());
    let v_base = b.place_f32s(v.as_slice());
    let y_base = b.place_output(m.rows());
    ProblemLayout {
        rows_base,
        cols_base,
        vals_base,
        v_base,
        x_idx_base: 0,
        x_vals_base: 0,
        y_base,
        smash_l0_base: 0,
        smash_l1_base: 0,
        num_rows: m.rows() as u32,
        num_cols: m.cols() as u32,
        m_nnz: m.nnz() as u32,
        x_nnz: 0,
    }
}

/// Lay out a CSR SpMSpV problem (`y = M * x`, sparse `x`).
pub fn layout_spmspv(image: &mut ByteStore, m: &CsrMatrix, x: &SparseVector) -> ProblemLayout {
    assert_eq!(m.cols(), x.len(), "matrix/vector width mismatch");
    let mut b = ImageBuilder::new(image, 0x100);
    let rows_base = b.place_words(m.row_ptr());
    let cols_base = b.place_words(m.col_indices());
    let vals_base = b.place_f32s(m.values());
    let x_idx_base = b.place_words(x.indices());
    let x_vals_base = b.place_f32s(x.values());
    let y_base = b.place_output(m.rows());
    ProblemLayout {
        rows_base,
        cols_base,
        vals_base,
        v_base: 0,
        x_idx_base,
        x_vals_base,
        y_base,
        smash_l0_base: 0,
        smash_l1_base: 0,
        num_rows: m.rows() as u32,
        num_cols: m.cols() as u32,
        m_nnz: m.nnz() as u32,
        x_nnz: x.nnz() as u32,
    }
}

/// Lay out a *dense* matrix-vector problem (`vals_base` holds the
/// row-major dense matrix) — the expansion baseline of the §6 discussion
/// ("at lower sparsities, such expansion can improve performance").
pub fn layout_dense(image: &mut ByteStore, m: &DenseMatrix, v: &DenseVector) -> ProblemLayout {
    assert_eq!(m.cols(), v.len(), "matrix/vector width mismatch");
    let mut b = ImageBuilder::new(image, 0x100);
    let vals_base = b.place_f32s(m.as_slice());
    let v_base = b.place_f32s(v.as_slice());
    let y_base = b.place_output(m.rows());
    ProblemLayout {
        rows_base: 0,
        cols_base: 0,
        vals_base,
        v_base,
        x_idx_base: 0,
        x_vals_base: 0,
        y_base,
        smash_l0_base: 0,
        smash_l1_base: 0,
        num_rows: m.rows() as u32,
        num_cols: m.cols() as u32,
        m_nnz: (m.rows() * m.cols()) as u32,
        x_nnz: 0,
    }
}

/// Lay out a SMASH SpMV problem: hierarchical bitmaps + packed values +
/// dense vector.
pub fn layout_smash_spmv(image: &mut ByteStore, m: &SmashMatrix, v: &DenseVector) -> ProblemLayout {
    assert_eq!(m.cols(), v.len(), "matrix/vector width mismatch");
    let mut b = ImageBuilder::new(image, 0x100);
    let smash_l0_base = b.place_words(m.level(0));
    let smash_l1_base = if m.num_levels() > 1 { b.place_words(m.level(1)) } else { 0 };
    let vals_base = b.place_f32s(m.values());
    let v_base = b.place_f32s(v.as_slice());
    let y_base = b.place_output(m.rows());
    ProblemLayout {
        rows_base: 0,
        cols_base: 0,
        vals_base,
        v_base,
        x_idx_base: 0,
        x_vals_base: 0,
        y_base,
        smash_l0_base,
        smash_l1_base,
        num_rows: m.rows() as u32,
        num_cols: m.cols() as u32,
        m_nnz: m.nnz() as u32,
        x_nnz: 0,
    }
}

/// Split `m`'s rows into `n` contiguous shards, balancing non-zeros (the
/// work driver for both the CPU inner loops and the HHT gather streams)
/// rather than row counts. Returns `n` half-open row ranges `(r0, r1)`
/// that partition `[0, rows)` in order; a shard can be empty when the
/// matrix has fewer (or much heavier) rows than shards.
pub fn row_shards(m: &CsrMatrix, n: usize) -> Vec<(usize, usize)> {
    row_shards_range(m, 0, m.rows(), n)
}

/// [`row_shards`] over a row *sub-range*: split `[row0, row1)` into `n`
/// contiguous shards balancing the range's non-zeros. The failover path
/// uses this to re-shard a quarantined tile's unfinished rows across the
/// surviving tiles with the same nnz-balancing rule the initial sharding
/// used. `row_shards(m, n)` is exactly `row_shards_range(m, 0, rows, n)`.
pub fn row_shards_range(m: &CsrMatrix, row0: usize, row1: usize, n: usize) -> Vec<(usize, usize)> {
    assert!(n > 0, "at least one shard");
    assert!(row0 <= row1 && row1 <= m.rows(), "shard range out of bounds");
    let ptr = m.row_ptr();
    let base = ptr[row0] as u64;
    let total = ptr[row1] as u64 - base;
    let mut out = Vec::with_capacity(n);
    let mut r0 = row0;
    for i in 0..n {
        let mut r1 = if i == n - 1 {
            row1
        } else {
            // Extend while cumulative nnz stays within this shard's even
            // share of the range total.
            let target = base + total * (i as u64 + 1) / n as u64;
            let mut r = r0;
            while r < row1 && ptr[r + 1] as u64 <= target {
                r += 1;
            }
            r
        };
        if r1 < r0 {
            r1 = r0;
        }
        out.push((r0, r1));
        r0 = r1;
    }
    out
}

/// Derive per-shard [`ProblemLayout`]s from an already-built full image.
///
/// Each shard gets its own *rebased* copy of its row-pointer slice
/// (`ptr[r0..=r1] - ptr[r0]`, placed after the main image), so both the
/// CPU kernels (which index `cols`/`vals` at `base + 4*ptr[r]`) and the
/// HHT engines (which stream `cols` from offset 0 and compare absolute
/// row-end pointers against a from-zero element cursor) see a
/// self-consistent `m_nnz`-element sub-problem. The shards *share* the
/// full image's column/value arrays (shifted to the shard's first
/// non-zero), input vector and output array (shifted to the shard's first
/// row) — row-disjoint shards write disjoint `y` words.
pub fn shard_layouts(
    image: &mut ByteStore,
    l: &ProblemLayout,
    m: &CsrMatrix,
    shards: &[(usize, usize)],
) -> Vec<ProblemLayout> {
    let ptr = m.row_ptr();
    // Resume the bump allocator after the full image: every placed array
    // ends 32-byte aligned, so the first free byte is the aligned end of
    // the output array.
    let start = (l.y_base + 4 * l.num_rows + 31) & !31;
    let mut b = ImageBuilder::new(image, start);
    shards
        .iter()
        .map(|&(r0, r1)| {
            let nnz0 = ptr[r0];
            let rebased: Vec<u32> = ptr[r0..=r1].iter().map(|p| p - nnz0).collect();
            let rows_base = b.place_words(&rebased);
            ProblemLayout {
                rows_base,
                cols_base: l.cols_base + 4 * nnz0,
                vals_base: l.vals_base + 4 * nnz0,
                y_base: l.y_base + 4 * r0 as u32,
                num_rows: (r1 - r0) as u32,
                m_nnz: ptr[r1] - nnz0,
                ..*l
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_sparse::generate;

    #[test]
    fn spmv_layout_places_all_arrays() {
        let mut image = ByteStore::new(1 << 20);
        let m = generate::random_csr(16, 16, 0.5, 1);
        let v = generate::random_dense_vector(16, 2);
        let l = layout_spmv(&mut image, &m, &v);
        // Arrays readable back.
        assert_eq!(image.read_u32s(l.rows_base, 17), m.row_ptr());
        assert_eq!(image.read_u32s(l.cols_base, m.nnz()), m.col_indices());
        assert_eq!(image.read_f32s(l.vals_base, m.nnz()), m.values());
        assert_eq!(image.read_f32s(l.v_base, 16), v.as_slice());
        assert!(l.y_base > l.v_base);
        assert_eq!(l.m_nnz, m.nnz() as u32);
    }

    #[test]
    fn arrays_do_not_overlap() {
        let mut image = ByteStore::new(1 << 20);
        let m = generate::random_csr(32, 32, 0.3, 3);
        let v = generate::random_dense_vector(32, 4);
        let l = layout_spmv(&mut image, &m, &v);
        let ends = [
            (l.rows_base, 33 * 4),
            (l.cols_base, m.nnz() * 4),
            (l.vals_base, m.nnz() * 4),
            (l.v_base, 32 * 4),
            (l.y_base, 32 * 4),
        ];
        for (i, (a, alen)) in ends.iter().enumerate() {
            for (b, blen) in ends.iter().skip(i + 1) {
                let (a0, a1) = (*a, a + *alen as u32);
                let (b0, b1) = (*b, b + *blen as u32);
                assert!(a1 <= b0 || b1 <= a0, "overlap between {a0:#x} and {b0:#x}");
            }
        }
    }

    #[test]
    fn spmspv_layout_places_vector_arrays() {
        let mut image = ByteStore::new(1 << 20);
        let m = generate::random_csr(16, 16, 0.5, 5);
        let x = generate::random_sparse_vector(16, 0.5, 6);
        let l = layout_spmspv(&mut image, &m, &x);
        assert_eq!(image.read_u32s(l.x_idx_base, x.nnz()), x.indices());
        assert_eq!(image.read_f32s(l.x_vals_base, x.nnz()), x.values());
        assert_eq!(l.x_nnz, x.nnz() as u32);
    }

    #[test]
    fn smash_layout() {
        let mut image = ByteStore::new(1 << 20);
        let m = SmashMatrix::from_triplets(64, 64, &[(0, 0, 1.0), (63, 63, 2.0)]).unwrap();
        let v = generate::random_dense_vector(64, 7);
        let l = layout_smash_spmv(&mut image, &m, &v);
        assert_ne!(l.smash_l0_base, 0);
        assert_ne!(l.smash_l1_base, 0);
        assert_eq!(image.read_u32s(l.smash_l0_base, m.level(0).len()), m.level(0));
    }

    #[test]
    #[should_panic(expected = "fit in SRAM")]
    fn overflow_is_detected() {
        let mut image = ByteStore::new(4096);
        let m = generate::random_csr(64, 64, 0.1, 1);
        let v = generate::random_dense_vector(64, 2);
        let _ = layout_spmv(&mut image, &m, &v);
    }

    /// 4 GiB of output words: the byte count must not wrap to a small
    /// reservation that passes the fit check.
    #[test]
    #[should_panic(expected = "does not fit")]
    fn reservations_past_the_address_space_are_rejected() {
        let mut image = ByteStore::new(1 << 20);
        ImageBuilder::new(&mut image, 0x100).place_output(1 << 30);
    }

    #[test]
    fn row_shards_partition_all_rows() {
        for n in [1, 2, 3, 4, 8] {
            let m = generate::random_csr(61, 61, 0.7, 9);
            let shards = row_shards(&m, n);
            assert_eq!(shards.len(), n);
            assert_eq!(shards[0].0, 0);
            assert_eq!(shards[n - 1].1, m.rows());
            for w in shards.windows(2) {
                assert_eq!(w[0].1, w[1].0, "shards must be contiguous");
            }
            let nnz: usize =
                shards.iter().map(|&(r0, r1)| (m.row_ptr()[r1] - m.row_ptr()[r0]) as usize).sum();
            assert_eq!(nnz, m.nnz());
        }
    }

    #[test]
    fn row_shards_range_partitions_a_sub_range() {
        let m = generate::random_csr(61, 61, 0.7, 9);
        for (row0, row1) in [(0, 61), (10, 50), (17, 18), (30, 30)] {
            for n in [1, 2, 3, 5] {
                let shards = row_shards_range(&m, row0, row1, n);
                assert_eq!(shards.len(), n);
                assert_eq!(shards[0].0, row0);
                assert_eq!(shards[n - 1].1, row1);
                for w in shards.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "shards must be contiguous");
                }
            }
        }
        // The full range reproduces row_shards exactly.
        for n in [1, 2, 4, 8] {
            assert_eq!(row_shards_range(&m, 0, 61, n), row_shards(&m, n));
        }
    }

    #[test]
    fn shard_layouts_rebase_row_pointers() {
        let mut image = ByteStore::new(1 << 20);
        let m = generate::random_csr(64, 64, 0.5, 5);
        let v = generate::random_dense_vector(64, 6);
        let l = layout_spmv(&mut image, &m, &v);
        let shards = row_shards(&m, 4);
        let ls = shard_layouts(&mut image, &l, &m, &shards);
        let ptr = m.row_ptr();
        let mut nnz = 0u32;
        let mut rows = 0u32;
        for (sl, &(r0, r1)) in ls.iter().zip(&shards) {
            // Rebased pointer slice starts at 0 and ends at the shard nnz.
            let p = image.read_u32s(sl.rows_base, r1 - r0 + 1);
            assert_eq!(p[0], 0);
            assert_eq!(*p.last().unwrap(), sl.m_nnz);
            assert_eq!(sl.m_nnz, ptr[r1] - ptr[r0]);
            // Shifted views line up with the full arrays.
            assert_eq!(sl.cols_base, l.cols_base + 4 * ptr[r0]);
            assert_eq!(sl.vals_base, l.vals_base + 4 * ptr[r0]);
            assert_eq!(sl.y_base, l.y_base + 4 * r0 as u32);
            assert_eq!(sl.v_base, l.v_base);
            assert_eq!(sl.num_cols, l.num_cols);
            // Shard copies live past the full image.
            assert!(sl.rows_base >= l.y_base + 4 * l.num_rows);
            nnz += sl.m_nnz;
            rows += sl.num_rows;
        }
        assert_eq!(nnz, l.m_nnz);
        assert_eq!(rows, l.num_rows);
    }
}
