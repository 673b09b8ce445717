//! Work-efficient CSC SpMSpV baseline (the algorithm class of the paper's
//! related work \[43\], Azad & Buluç): instead of merging per row, iterate
//! only the non-zero entries of `x` and scatter each column's
//! contribution:
//!
//! ```text
//! for (j, xv) in x.nonzeros():        // x_nnz outer steps
//!     for k in col_ptr[j]..col_ptr[j+1]:
//!         y[row_idx[k]] += vals[k] * xv   // indirect *store*
//! ```
//!
//! Work is `O(x_nnz + touched_nnz)` instead of the row-merge baseline's
//! `O(rows * x_nnz + m_nnz)`, at the price of indirect scatter stores.
//! `figures -- ablate-baseline` compares both against the HHT variants:
//! the choice of CPU baseline is the main free variable behind the Fig. 5
//! magnitude difference documented in EXPERIMENTS.md.

use crate::layout::{ImageBuilder, ProblemLayout};
use hht_isa::builder::KernelBuilder;
use hht_isa::{FReg, Program, Reg};
use hht_mem::ByteStore;
use hht_sparse::{CscMatrix, SparseFormat, SparseVector};

/// Lay out a CSC SpMSpV problem. Field reuse in [`ProblemLayout`]:
/// `rows_base` = CSC column pointers, `cols_base` = CSC row indices,
/// `vals_base` = CSC values.
pub fn layout_spmspv_csc(image: &mut ByteStore, m: &CscMatrix, x: &SparseVector) -> ProblemLayout {
    assert_eq!(m.cols(), x.len(), "matrix/vector width mismatch");
    let mut b = ImageBuilder::new(image, 0x100);
    let col_ptr_base = b.place_words(m.col_ptr());
    let row_idx_base = b.place_words(m.row_indices());
    let vals_base = b.place_f32s(m.values());
    let x_idx_base = b.place_words(x.indices());
    let x_vals_base = b.place_f32s(x.values());
    let y_base = b.place_output(m.rows());
    ProblemLayout {
        rows_base: col_ptr_base,
        cols_base: row_idx_base,
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

/// The column-scatter SpMSpV kernel (scalar; the scatter prevents
/// straightforward vectorization without `vsuxei32`, which the paper's
/// core also lacks).
pub fn spmspv_csc_baseline(l: &ProblemLayout) -> Program {
    let (a0, a1, a2, a3, a4, a7) =
        (Reg::a(0), Reg::a(1), Reg::a(2), Reg::a(3), Reg::a(4), Reg::a(7));
    let (s0, s1, s2, s3) = (Reg::s(0), Reg::s(1), Reg::s(2), Reg::s(3));
    let (t0, t1, t2, t3) = (Reg::t(0), Reg::t(1), Reg::t(2), Reg::t(3));
    let (fa0, fa1, fa2) = (FReg::a(0), FReg::a(1), FReg::a(2));
    let mut b = KernelBuilder::new(0);
    b.li(a0, l.rows_base as i32); // CSC col_ptr
    b.li(a1, l.cols_base as i32); // CSC row_idx
    b.li(a2, l.vals_base as i32); // CSC vals
    b.li(a3, l.x_idx_base as i32);
    b.li(a4, l.x_vals_base as i32);
    b.li(a7, l.y_base as i32);
    b.li(s0, l.x_nnz as i32); // outer counter
    let done = b.label();
    b.beqz(s0, done);
    let outer = b.here();
    b.name("outer");
    // j = *x_idx++, xv = *x_vals++
    b.lw(t0, 0, a3);
    b.flw(fa0, 0, a4);
    b.addi(a3, a3, 4);
    b.addi(a4, a4, 4);
    // k = col_ptr[j], end = col_ptr[j+1]
    b.slli(t1, t0, 2);
    b.add(t1, a0, t1);
    b.lw(s1, 0, t1);
    b.lw(s2, 4, t1);
    // cursor into row_idx / vals
    b.slli(t2, s1, 2);
    b.add(s3, a1, t2); // row_idx cursor
    b.add(t3, a2, t2); // vals cursor
    let col_done = b.label();
    b.bge(s1, s2, col_done);
    let inner = b.here();
    b.name("scatter");
    b.lw(t2, 0, s3); // r = row_idx[k]
    b.flw(fa1, 0, t3); // A[r][j]
    b.slli(t2, t2, 2);
    b.add(t2, a7, t2);
    b.flw(fa2, 0, t2); // y[r]
    b.fmadd_s(fa2, fa1, fa0, fa2);
    b.fsw(fa2, 0, t2); // y[r] += A*xv  (the indirect store)
    b.addi(s3, s3, 4);
    b.addi(t3, t3, 4);
    b.addi(s1, s1, 1);
    b.blt(s1, s2, inner);
    b.bind(col_done);
    b.addi(s0, s0, -1);
    b.bnez(s0, outer);
    b.bind(done);
    b.ebreak();
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_isa::Instr;

    #[test]
    fn kernel_has_indirect_store_and_no_vector_ops() {
        let l = ProblemLayout {
            rows_base: 0x100,
            cols_base: 0x200,
            vals_base: 0x300,
            v_base: 0,
            x_idx_base: 0x400,
            x_vals_base: 0x500,
            y_base: 0x600,
            smash_l0_base: 0,
            smash_l1_base: 0,
            num_rows: 8,
            num_cols: 8,
            m_nnz: 12,
            x_nnz: 4,
        };
        let p = spmspv_csc_baseline(&l);
        assert!(!p.instrs().iter().any(|i| i.is_vector()));
        assert!(p.instrs().iter().any(|i| matches!(i, Instr::Fsw { .. })));
        assert!(p.symbol("outer").is_some());
    }
}
