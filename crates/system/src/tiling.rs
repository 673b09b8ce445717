//! Tiled SpMV on the HHT (§5.5 fn. 6).
//!
//! The paper's synthesized HHT was verified on 16×16 matrices ("Due to the
//! limitations of the Synopsys tool available to us, we were unable to
//! obtain the results for larger matrix size") and states that "any bigger
//! matrices can be broken into 16*16 sized matrices on HHT and supply
//! vector values to RISCV core". This module implements that software
//! tiling scheme:
//!
//! - the host splits the matrix into `tile x tile` blocks, storing each
//!   non-empty block as a local-index CSR in SRAM plus an 8-word *tile
//!   descriptor* (array bases, row count, nnz);
//! - a single kernel loops over the descriptor table, reprogramming the
//!   HHT MMRs per tile and accumulating partial sums into `y`;
//! - the per-tile MMR reprogramming and `y` read-modify-write are the
//!   tiling overhead the `ablate-tiling` figure quantifies.

use crate::config::SystemConfig;
use crate::kernels::emit_hht_setup_regs;
use crate::layout::ImageBuilder;
use crate::runner::{sram_with_footprint, RunOutput};
use crate::system::System;
use hht_accel::hht::window;
use hht_accel::mmr::reg;
use hht_accel::Mode;
use hht_isa::builder::KernelBuilder;
use hht_isa::{FReg, Program, Reg, VReg};
use hht_mem::map;
use hht_sparse::{kernels as golden, CsrMatrix, DenseVector, SparseFormat};

/// Word offsets inside one 8-word tile descriptor.
mod desc {
    pub const ROWS_BASE: i32 = 0;
    pub const COLS_BASE: i32 = 4;
    pub const VALS_BASE: i32 = 8;
    pub const V_BASE: i32 = 12;
    pub const Y_BASE: i32 = 16;
    pub const NUM_ROWS: i32 = 20;
    pub const M_NNZ: i32 = 24;
    /// Descriptor stride in bytes.
    pub const STRIDE: i32 = 32;
}

/// Result of a tiled run.
#[derive(Debug, Clone)]
pub struct TiledRun {
    /// Output and statistics.
    pub out: RunOutput,
    /// Number of non-empty tiles processed.
    pub tiles: usize,
}

/// Split `m` into `tile x tile` blocks and lay each non-empty block out in
/// SRAM, returning the descriptor-table base and the tile count. `v_base`
/// and `y_base` are the already-placed full vectors.
fn build_tiles(
    b: &mut ImageBuilder<'_>,
    m: &CsrMatrix,
    tile: usize,
    v_base: u32,
    y_base: u32,
) -> (u32, usize) {
    let triplets = m.triplets();
    let blocks_r = m.rows().div_ceil(tile);
    let blocks_c = m.cols().div_ceil(tile);
    // Bucket triplets into blocks (block-row-major).
    let mut buckets: Vec<Vec<(usize, usize, f32)>> = vec![Vec::new(); blocks_r * blocks_c];
    for (r, c, val) in triplets {
        let (rb, cb) = (r / tile, c / tile);
        buckets[rb * blocks_c + cb].push((r % tile, c % tile, val));
    }
    let mut descriptors: Vec<u32> = Vec::new();
    let mut tiles = 0usize;
    for rb in 0..blocks_r {
        let rows_in_block = (m.rows() - rb * tile).min(tile);
        for cb in 0..blocks_c {
            let bucket = &buckets[rb * blocks_c + cb];
            if bucket.is_empty() {
                continue;
            }
            let cols_in_block = (m.cols() - cb * tile).min(tile);
            let sub = CsrMatrix::from_triplets(rows_in_block, cols_in_block, bucket)
                .expect("local tile coordinates are valid");
            let rows_base = b.place_words(sub.row_ptr());
            let cols_base = b.place_words(sub.col_indices());
            let vals_base = b.place_f32s(sub.values());
            descriptors.extend_from_slice(&[
                rows_base,
                cols_base,
                vals_base,
                v_base + 4 * (cb * tile) as u32,
                y_base + 4 * (rb * tile) as u32,
                rows_in_block as u32,
                sub.nnz() as u32,
                0,
            ]);
            tiles += 1;
        }
    }
    let desc_base = b.place_words(&descriptors);
    (desc_base, tiles)
}

/// The tile-loop kernel: per descriptor, reprogram the HHT and run the
/// accumulating SpMV inner loop.
fn tiled_kernel(desc_base: u32, tiles: usize) -> Program {
    let (a0, a2, a5) = (Reg::a(0), Reg::a(2), Reg::a(5));
    let a6 = Reg::a(6);
    let (s0, s1, s2, s4, s5, s6) =
        (Reg::s(0), Reg::s(1), Reg::s(2), Reg::s(4), Reg::s(5), Reg::s(6));
    let (s10, s11) = (Reg::s(10), Reg::s(11));
    let (t0, t2, t5, t6) = (Reg::t(0), Reg::t(2), Reg::t(5), Reg::t(6));
    let (v0, v2, v3, v4, v5) =
        (VReg::new(0), VReg::new(2), VReg::new(3), VReg::new(4), VReg::new(5));
    let (fa0, fa1) = (FReg::a(0), FReg::a(1));
    let mut b = KernelBuilder::new(0);
    b.li(t6, map::HHT_MMR_BASE as i32);
    // Mode and element size are tile-invariant: program them once.
    b.li(t5, 4);
    b.sw(t5, reg::ELEMENT_SIZES as i32, t6);
    b.li(t5, Mode::SpMV as i32);
    b.sw(t5, reg::MODE as i32, t6);
    b.li(a6, (map::HHT_BUF_BASE + window::PRIMARY) as i32);
    b.li(s11, desc_base as i32);
    b.li(s10, tiles as i32);
    let tile_loop = b.here();
    b.name("tile_loop");
    let all_done = b.label();
    b.beqz(s10, all_done);
    // Load the descriptor.
    b.lw(a0, desc::ROWS_BASE, s11);
    b.lw(t0, desc::COLS_BASE, s11);
    b.lw(a2, desc::VALS_BASE, s11);
    b.lw(t2, desc::V_BASE, s11);
    b.lw(s6, desc::Y_BASE, s11); // y cursor for this tile's row block
    b.lw(a5, desc::NUM_ROWS, s11);
    b.lw(t5, desc::M_NNZ, s11);
    // Reprogram the HHT from registers (START last).
    emit_hht_setup_regs(&mut b, t6, a0, t0, a2, t2, a5, t5);
    // Accumulating SpMV over the tile's rows.
    b.li(s0, 0);
    b.lw(s1, 0, a0);
    b.addi(s5, a0, 4);
    b.slli(t0, s1, 2);
    b.add(s4, a2, t0);
    let row_loop = b.here();
    let tile_done = b.label();
    b.bge(s0, a5, tile_done);
    b.lw(t2, 0, s5);
    b.sub(s2, t2, s1);
    b.vsetvli(t0, Reg::ZERO);
    b.vmv_v_i(v0, 0);
    let inner = b.here();
    let row_done = b.label();
    b.beqz(s2, row_done);
    b.vsetvli(t5, s2);
    b.vle32(v2, a6);
    b.vle32(v3, s4);
    b.vfmacc_vv(v0, v2, v3);
    b.slli(t0, t5, 2);
    b.add(s4, s4, t0);
    b.sub(s2, s2, t5);
    b.j(inner);
    b.bind(row_done);
    b.vsetvli(t0, Reg::ZERO);
    b.vmv_v_i(v4, 0);
    b.vfredosum_vs(v5, v0, v4);
    b.vfmv_f_s(fa0, v5);
    // Accumulate into y (other column-blocks of this row contribute too).
    b.flw(fa1, 0, s6);
    b.fadd_s(fa0, fa0, fa1);
    b.fsw(fa0, 0, s6);
    b.addi(s6, s6, 4);
    b.addi(s5, s5, 4);
    b.mv(s1, t2);
    b.addi(s0, s0, 1);
    b.j(row_loop);
    b.bind(tile_done);
    b.addi(s11, s11, desc::STRIDE);
    b.addi(s10, s10, -1);
    b.j(tile_loop);
    b.bind(all_done);
    b.ebreak();
    b.build()
}

/// Run SpMV through the HHT in `tile x tile` blocks, verifying against the
/// golden kernel.
pub fn run_spmv_tiled(cfg: &SystemConfig, m: &CsrMatrix, v: &DenseVector, tile: usize) -> TiledRun {
    assert!(tile >= 1, "tile must be positive");
    assert_eq!(m.cols(), v.len(), "matrix/vector width mismatch");
    // Size the SRAM: tiles add (tile+1) row-ptr words per non-empty block
    // plus the descriptor table; over-provision generously.
    let blocks = m.rows().div_ceil(tile) * m.cols().div_ceil(tile);
    let words = 2 * m.nnz() + blocks * (tile + 1 + 8) + v.len() + m.rows() + 64;
    let needed = 0x100 + 4 * words as u64 + 32 * (blocks as u64 + 8);
    let mut sram = sram_with_footprint(cfg, needed);
    let mut builder = ImageBuilder::new(&mut sram, 0x100);
    let v_base = builder.place_f32s(v.as_slice());
    let y_base = builder.place_output(m.rows());
    let (desc_base, tiles) = build_tiles(&mut builder, m, tile, v_base, y_base);
    let program = tiled_kernel(desc_base, tiles);
    let mut sys = System::new(cfg, program, sram);
    let stats = sys.run().expect("tiled SpMV kernel fault");
    let y = sys.read_output(y_base, m.rows());
    let gold = golden::spmv(m, v).expect("shapes validated");
    let scale = gold.as_slice().iter().fold(1.0f32, |a, b| a.max(b.abs()));
    assert!(y.max_abs_diff(&gold) <= 1e-3 * scale, "tiled SpMV diverges from golden (tile={tile})");
    // Counters first, then drain: `take_events` resets the sink rings.
    let sched = sys.sched_stats();
    let dropped = sys.obs_drops();
    let events = sys.take_events();
    TiledRun { out: RunOutput { y, stats, events, recovery: None, sched, dropped }, tiles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use hht_sparse::generate;

    #[test]
    fn tiled_matches_untiled_numerically() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(48, 48, 0.6, 7);
        let v = generate::random_dense_vector(48, 8);
        let untiled = runner::run_spmv_hht(&cfg, &m, &v);
        for tile in [8usize, 16, 24, 48] {
            let t = run_spmv_tiled(&cfg, &m, &v, tile);
            assert!(t.out.y.max_abs_diff(&untiled.y) < 1e-3, "tile={tile} diverges");
        }
    }

    #[test]
    fn paper_tile_size_16() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(64, 64, 0.5, 17);
        let v = generate::random_dense_vector(64, 18);
        let t = run_spmv_tiled(&cfg, &m, &v, 16);
        // 4x4 block grid at 50% sparsity: every block non-empty.
        assert_eq!(t.tiles, 16);
    }

    #[test]
    fn tiling_overhead_shrinks_with_tile_size() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(64, 64, 0.5, 27);
        let v = generate::random_dense_vector(64, 28);
        let small = run_spmv_tiled(&cfg, &m, &v, 8);
        let large = run_spmv_tiled(&cfg, &m, &v, 32);
        assert!(
            small.out.stats.cycles > large.out.stats.cycles,
            "8-tiles ({}) should cost more than 32-tiles ({})",
            small.out.stats.cycles,
            large.out.stats.cycles
        );
    }

    #[test]
    fn non_divisible_dimensions() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(37, 53, 0.7, 37);
        let v = generate::random_dense_vector(53, 38);
        let t = run_spmv_tiled(&cfg, &m, &v, 16);
        assert!(t.tiles > 0);
    }

    #[test]
    fn empty_matrix_tiles_to_nothing() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(16, 16, 1.0, 47);
        let v = generate::random_dense_vector(16, 48);
        let t = run_spmv_tiled(&cfg, &m, &v, 8);
        assert_eq!(t.tiles, 0);
        assert!(t.out.y.as_slice().iter().all(|x| *x == 0.0));
    }
}
