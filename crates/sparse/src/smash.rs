//! Hierarchical bit-vector format in the style of SMASH (§1 \[21], §6).
//!
//! A hierarchy of bitmaps over the row-major entry stream: the lowest level
//! has one presence bit per matrix entry; each higher level has one bit per
//! `FANOUT`-bit group of the level below, set when *any* bit in the group is
//! set. Locating the value for a coordinate walks the hierarchy from the
//! top, skipping all-zero regions — §6 notes that this "complicated
//! indexing" means an HHT programmed for SMASH performs more work than the
//! CPU, which is the ablation `figures -- ablate-format` reproduces.

use crate::{CooMatrix, Result, SparseFormat};

/// Bits summarized by one bit of the next level up.
pub const FANOUT: usize = 32;

/// A SMASH-style hierarchical bitmap sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SmashMatrix {
    rows: usize,
    cols: usize,
    /// `levels[0]` is the finest bitmap (one bit per entry, packed in u32);
    /// each subsequent level summarizes `FANOUT` bits of the previous one.
    /// The last level always fits in a handful of words.
    levels: Vec<Vec<u32>>,
    values: Vec<f32>,
}

fn bit(bits: &[u32], pos: usize) -> bool {
    bits[pos / 32] & (1 << (pos % 32)) != 0
}

fn set_bit(bits: &mut [u32], pos: usize) {
    bits[pos / 32] |= 1 << (pos % 32);
}

impl SmashMatrix {
    /// Build from `(row, col, value)` triplets.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<Self> {
        Ok(Self::from_coo(&CooMatrix::from_triplets(rows, cols, triplets)?))
    }

    /// Build from a COO matrix, constructing the full hierarchy.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let (rows, cols) = (coo.rows(), coo.cols());
        let nbits = (rows * cols).max(1);
        let mut level0 = vec![0u32; nbits.div_ceil(32)];
        let mut values = Vec::with_capacity(coo.nnz());
        for &(r, c, v) in coo.entries() {
            set_bit(&mut level0, r * cols + c);
            values.push(v);
        }
        let mut levels = vec![level0];
        // Build summary levels until one fits in a single u32 word.
        loop {
            let below = levels.last().unwrap();
            let below_bits = below.len() * 32;
            if below_bits <= FANOUT {
                break;
            }
            let this_bits = below_bits.div_ceil(FANOUT);
            let mut level = vec![0u32; this_bits.div_ceil(32)];
            // One u32 word of the level below == one FANOUT-bit group.
            for (g, w) in below.iter().enumerate() {
                if *w != 0 {
                    set_bit(&mut level, g);
                }
            }
            levels.push(level);
        }
        SmashMatrix { rows, cols, levels, values }
    }

    /// Number of hierarchy levels (≥ 1).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Borrow one level's packed bitmap (level 0 is the finest).
    pub fn level(&self, i: usize) -> &[u32] {
        &self.levels[i]
    }

    /// Packed non-zero values, row-major order.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Look up `(row, col)` by walking the hierarchy top-down.
    ///
    /// Returns `(value, probes)` where `probes` counts the bitmap words
    /// touched — the metric that makes SMASH indexing "more work" in §6.
    pub fn get_counting(&self, row: usize, col: usize) -> (Option<f32>, usize) {
        let pos = row * self.cols + col;
        let mut probes = 0usize;
        // Walk from the coarsest level down; bail early on a cleared summary
        // bit.
        for li in (1..self.levels.len()).rev() {
            // Position of the summary bit covering `pos` at level li:
            // each level-li bit covers FANOUT^li entry bits.
            let span = FANOUT.pow(li as u32);
            let p = pos / span;
            probes += 1;
            if !bit(&self.levels[li], p) {
                return (None, probes);
            }
        }
        probes += 1;
        if !bit(&self.levels[0], pos) {
            return (None, probes);
        }
        // Rank within level 0 gives the value slot.
        let mut rank = 0usize;
        let word = pos / 32;
        for w in &self.levels[0][..word] {
            rank += w.count_ones() as usize;
            probes += 1;
        }
        let b = pos % 32;
        if b > 0 {
            rank += (self.levels[0][word] & ((1u32 << b) - 1)).count_ones() as usize;
        }
        (Some(self.values[rank]), probes)
    }

    /// Look up `(row, col)` without probe accounting.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        self.get_counting(row, col).0
    }
}

impl SparseFormat for SmashMatrix {
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
        let mut k = 0usize;
        for pos in 0..self.rows * self.cols {
            if bit(&self.levels[0], pos) {
                out.push((pos / self.cols, pos % self.cols, self.values[k]));
                k += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn small_matrix_has_one_level() {
        let m = SmashMatrix::from_triplets(3, 3, &[(0, 0, 5.0)]).unwrap();
        assert_eq!(m.num_levels(), 1);
        assert_eq!(m.get(0, 0), Some(5.0));
        assert_eq!(m.get(1, 1), None);
    }

    #[test]
    fn large_matrix_builds_hierarchy() {
        // 64x64 = 4096 bits -> level1 has 128 bits -> level2 has 4 bits.
        let m = SmashMatrix::from_triplets(64, 64, &[(0, 0, 1.0), (63, 63, 2.0)]).unwrap();
        assert_eq!(m.num_levels(), 3);
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(63, 63), Some(2.0));
        assert_eq!(m.get(30, 30), None);
    }

    #[test]
    fn summary_bits_enable_early_exit() {
        let m = SmashMatrix::from_triplets(64, 64, &[(0, 0, 1.0)]).unwrap();
        // A probe far away from the only nnz should stop at a summary level
        // with fewer word touches than a full rank scan.
        let (v, probes_far) = m.get_counting(63, 63);
        assert_eq!(v, None);
        let (v, probes_hit) = m.get_counting(0, 0);
        assert_eq!(v, Some(1.0));
        assert!(probes_far <= probes_hit + m.num_levels());
        // The far miss must terminate above level 0.
        assert!(probes_far < m.num_levels() + 1 + m.level(0).len());
    }

    #[test]
    fn round_trip_with_csr() {
        let t = vec![(0, 1, 1.0), (5, 0, 2.0), (17, 33, 3.0), (63, 63, 4.0)];
        let s = SmashMatrix::from_triplets(64, 64, &t).unwrap();
        let c = CsrMatrix::from_triplets(64, 64, &t).unwrap();
        assert_eq!(s.triplets(), c.triplets());
    }

    #[test]
    fn empty_matrix_probes_do_not_panic() {
        let m = SmashMatrix::from_triplets(8, 8, &[]).unwrap();
        assert_eq!(m.get(3, 3), None);
        assert!(m.triplets().is_empty());
    }
}
