//! SpMV kernels: CSR Algorithm 1, baseline and HHT-assisted, in both the
//! vectorized (RVV) and scalar forms.

use super::emit_hht_setup;
use crate::layout::ProblemLayout;
use hht_accel::hht::window;
use hht_accel::Mode;
use hht_isa::builder::KernelBuilder;
use hht_isa::{FReg, Program, Reg, VReg};
use hht_mem::map;

const A0: Reg = Reg::a(0);
const A1: Reg = Reg::a(1);
const A2: Reg = Reg::a(2);
const A3: Reg = Reg::a(3);
const A4: Reg = Reg::a(4);
const A5: Reg = Reg::a(5);
const A6: Reg = Reg::a(6);

fn emit_bases(b: &mut KernelBuilder, l: &ProblemLayout) {
    b.li(A0, l.rows_base as i32);
    b.li(A1, l.cols_base as i32);
    b.li(A2, l.vals_base as i32);
    b.li(A3, l.v_base as i32);
    b.li(A4, l.y_base as i32);
    b.li(A5, l.num_rows as i32);
}

/// Baseline SpMV (Algorithm 1). `vectorized = false` emits the pure scalar
/// loop (used when VL = 1, Fig. 8); otherwise the RVV strip-mined loop
/// whose inner body is: load column indices, scale to byte offsets, gather
/// `v` with the indexed load, load values, fused multiply-accumulate.
pub fn spmv_baseline(l: &ProblemLayout, vectorized: bool) -> Program {
    if vectorized {
        spmv_baseline_vector(l)
    } else {
        spmv_baseline_scalar(l)
    }
}

fn spmv_baseline_vector(l: &ProblemLayout) -> Program {
    let mut b = KernelBuilder::new(0);
    let (s0, s1, s2, s3, s4, s5, s6) =
        (Reg::s(0), Reg::s(1), Reg::s(2), Reg::s(3), Reg::s(4), Reg::s(5), Reg::s(6));
    let (t0, t2, t5, t6) = (Reg::t(0), Reg::t(2), Reg::t(5), Reg::t(6));
    let (v0, v1, v2, v3, v4, v5) =
        (VReg::new(0), VReg::new(1), VReg::new(2), VReg::new(3), VReg::new(4), VReg::new(5));
    emit_bases(&mut b, l);
    b.li(s0, 0); // row index i
    b.lw(s1, 0, A0); // prev = rows[0]
    b.addi(s5, A0, 4); // &rows[i+1]
    b.mv(s6, A4); // y cursor
    b.slli(t0, s1, 2);
    b.add(s3, A1, t0); // cols cursor
    b.add(s4, A2, t0); // vals cursor
    let row_loop = b.here();
    b.name("row_loop");
    let done = b.label();
    b.bge(s0, A5, done);
    b.lw(t2, 0, s5); // rows[i+1]
    b.sub(s2, t2, s1); // nnz this row
    b.vsetvli(t0, Reg::ZERO); // full width for the accumulator
    b.vmv_v_i(v0, 0);
    let inner = b.here();
    b.name("inner");
    let row_done = b.label();
    b.beqz(s2, row_done);
    b.vsetvli(t5, s2); // vl = min(VLMAX, remaining)
    b.vle32(v1, s3); // column indices
    b.vsll_vi(v1, v1, 2); // element index -> byte offset
    b.vluxei32(v2, A3, v1); // gather v[cols[k]]
    b.vle32(v3, s4); // matrix values
    b.vfmacc_vv(v0, v2, v3);
    b.slli(t6, t5, 2);
    b.add(s3, s3, t6);
    b.add(s4, s4, t6);
    b.sub(s2, s2, t5);
    b.j(inner);
    b.bind(row_done);
    b.vsetvli(t0, Reg::ZERO);
    b.vmv_v_i(v4, 0);
    b.vfredosum_vs(v5, v0, v4);
    b.vfmv_f_s(FReg::a(0), v5);
    b.fsw(FReg::a(0), 0, s6);
    b.addi(s6, s6, 4);
    b.addi(s5, s5, 4);
    b.mv(s1, t2);
    b.addi(s0, s0, 1);
    b.j(row_loop);
    b.bind(done);
    b.ebreak();
    b.build()
}

fn spmv_baseline_scalar(l: &ProblemLayout) -> Program {
    let mut b = KernelBuilder::new(0);
    let (s0, s1, s3, s4, s5, s6) =
        (Reg::s(0), Reg::s(1), Reg::s(3), Reg::s(4), Reg::s(5), Reg::s(6));
    let (t0, t2, t3, t5) = (Reg::t(0), Reg::t(2), Reg::t(3), Reg::t(5));
    let (fa0, fa1, fa2) = (FReg::a(0), FReg::a(1), FReg::a(2));
    emit_bases(&mut b, l);
    b.li(s0, 0);
    b.lw(s1, 0, A0);
    b.addi(s5, A0, 4);
    b.mv(s6, A4);
    b.slli(t0, s1, 2);
    b.add(s3, A1, t0); // cols cursor
    b.add(s4, A2, t0); // vals cursor
    let row_loop = b.here();
    let done = b.label();
    b.bge(s0, A5, done);
    b.lw(t2, 0, s5); // rows[i+1]
    b.mv(t3, s1); // k = rows[i]
    b.fmv_w_x(fa0, Reg::ZERO); // s = 0
    let inner = b.here();
    let row_done = b.label();
    b.bge(t3, t2, row_done);
    b.lw(t5, 0, s3); // col
    b.slli(t5, t5, 2);
    b.add(t5, A3, t5);
    b.flw(fa1, 0, t5); // v[col] — the indirect access
    b.flw(fa2, 0, s4); // vals[k]
    b.fmadd_s(fa0, fa1, fa2, fa0);
    b.addi(s3, s3, 4);
    b.addi(s4, s4, 4);
    b.addi(t3, t3, 1);
    b.j(inner);
    b.bind(row_done);
    b.fsw(fa0, 0, s6);
    b.addi(s6, s6, 4);
    b.addi(s5, s5, 4);
    b.mv(s1, t2);
    b.addi(s0, s0, 1);
    b.j(row_loop);
    b.bind(done);
    b.ebreak();
    b.build()
}

/// HHT-assisted SpMV: the CPU programs the accelerator, then consumes
/// pre-gathered vector values from the primary window — no column loads,
/// no address arithmetic, no gather (§3.1: "The CPU performs vector loads
/// of buffered values and multiply-accumulates into the output vector").
pub fn spmv_hht(l: &ProblemLayout, vectorized: bool) -> Program {
    if vectorized {
        spmv_hht_vector(l, Mode::SpMV)
    } else {
        spmv_hht_scalar(l, Mode::SpMV)
    }
}

/// HHT-assisted SpMV with the *programmable* back-end of §7: identical
/// CPU-side code, but `MODE` selects the helper-core microprogram instead
/// of the ASIC gather FSM.
pub fn spmv_hht_programmable(l: &ProblemLayout, vectorized: bool) -> Program {
    if vectorized {
        spmv_hht_vector(l, Mode::ProgrammableSpMV)
    } else {
        spmv_hht_scalar(l, Mode::ProgrammableSpMV)
    }
}

fn spmv_hht_vector(l: &ProblemLayout, mode: Mode) -> Program {
    let mut b = KernelBuilder::new(0);
    let (s0, s1, s2, s4, s5, s6) =
        (Reg::s(0), Reg::s(1), Reg::s(2), Reg::s(4), Reg::s(5), Reg::s(6));
    let (t0, t2, t5, t6) = (Reg::t(0), Reg::t(2), Reg::t(5), Reg::t(6));
    let (v0, v2, v3, v4, v5) =
        (VReg::new(0), VReg::new(2), VReg::new(3), VReg::new(4), VReg::new(5));
    emit_bases(&mut b, l);
    emit_hht_setup(&mut b, l, mode);
    b.li(A6, (map::HHT_BUF_BASE + window::PRIMARY) as i32);
    b.li(s0, 0);
    b.lw(s1, 0, A0);
    b.addi(s5, A0, 4);
    b.mv(s6, A4);
    b.slli(t0, s1, 2);
    b.add(s4, A2, t0); // vals cursor
    let row_loop = b.here();
    let done = b.label();
    b.bge(s0, A5, done);
    b.lw(t2, 0, s5);
    b.sub(s2, t2, s1);
    b.vsetvli(t0, Reg::ZERO);
    b.vmv_v_i(v0, 0);
    let inner = b.here();
    let row_done = b.label();
    b.beqz(s2, row_done);
    b.vsetvli(t5, s2);
    b.vle32(v2, A6); // gathered v values from the HHT window
    b.vle32(v3, s4); // matrix values
    b.vfmacc_vv(v0, v2, v3);
    b.slli(t6, t5, 2);
    b.add(s4, s4, t6);
    b.sub(s2, s2, t5);
    b.j(inner);
    b.bind(row_done);
    b.vsetvli(t0, Reg::ZERO);
    b.vmv_v_i(v4, 0);
    b.vfredosum_vs(v5, v0, v4);
    b.vfmv_f_s(FReg::a(0), v5);
    b.fsw(FReg::a(0), 0, s6);
    b.addi(s6, s6, 4);
    b.addi(s5, s5, 4);
    b.mv(s1, t2);
    b.addi(s0, s0, 1);
    b.j(row_loop);
    b.bind(done);
    b.ebreak();
    b.build()
}

fn spmv_hht_scalar(l: &ProblemLayout, mode: Mode) -> Program {
    let mut b = KernelBuilder::new(0);
    let (s0, s1, s4, s5, s6) = (Reg::s(0), Reg::s(1), Reg::s(4), Reg::s(5), Reg::s(6));
    let (t0, t2, t3) = (Reg::t(0), Reg::t(2), Reg::t(3));
    let (fa0, fa1, fa2) = (FReg::a(0), FReg::a(1), FReg::a(2));
    emit_bases(&mut b, l);
    emit_hht_setup(&mut b, l, mode);
    b.li(A6, (map::HHT_BUF_BASE + window::PRIMARY) as i32);
    b.li(s0, 0);
    b.lw(s1, 0, A0);
    b.addi(s5, A0, 4);
    b.mv(s6, A4);
    b.slli(t0, s1, 2);
    b.add(s4, A2, t0);
    let row_loop = b.here();
    let done = b.label();
    b.bge(s0, A5, done);
    b.lw(t2, 0, s5);
    b.mv(t3, s1);
    b.fmv_w_x(fa0, Reg::ZERO);
    let inner = b.here();
    let row_done = b.label();
    b.bge(t3, t2, row_done);
    b.flw(fa1, 0, A6); // gathered v value (may stall until HHT fills)
    b.flw(fa2, 0, s4); // vals[k]
    b.fmadd_s(fa0, fa1, fa2, fa0);
    b.addi(s4, s4, 4);
    b.addi(t3, t3, 1);
    b.j(inner);
    b.bind(row_done);
    b.fsw(fa0, 0, s6);
    b.addi(s6, s6, 4);
    b.addi(s5, s5, 4);
    b.mv(s1, t2);
    b.addi(s0, s0, 1);
    b.j(row_loop);
    b.bind(done);
    b.ebreak();
    b.build()
}

/// Dense matrix-vector product: no metadata at all, `rows x cols` fused
/// multiply-accumulates over unit-stride streams. This is the "expand
/// sparse data into dense by inserting zeroes" comparator of §6 (\[40\],
/// \[23\]): at low sparsity it beats the sparse code because every load is
/// sequential and there is no index work.
pub fn dense_matvec(l: &ProblemLayout) -> Program {
    let mut b = KernelBuilder::new(0);
    let (s0, s2, s3, s6, s8) = (Reg::s(0), Reg::s(2), Reg::s(3), Reg::s(6), Reg::s(8));
    let (t0, t3, t5, t6) = (Reg::t(0), Reg::t(3), Reg::t(5), Reg::t(6));
    let (v0, v1, v2, v4, v5) =
        (VReg::new(0), VReg::new(1), VReg::new(2), VReg::new(4), VReg::new(5));
    b.li(A2, l.vals_base as i32); // dense matrix, row-major
    b.li(A3, l.v_base as i32);
    b.li(A4, l.y_base as i32);
    b.li(A5, l.num_rows as i32);
    b.li(s8, l.num_cols as i32);
    b.li(s0, 0);
    b.mv(s6, A4); // y cursor
    b.mv(s3, A2); // matrix cursor (runs continuously row-major)
    let row_loop = b.here();
    let done = b.label();
    b.bge(s0, A5, done);
    b.vsetvli(t0, Reg::ZERO);
    b.vmv_v_i(v0, 0);
    b.mv(t3, s8); // columns remaining
    b.mv(s2, A3); // v cursor restarts per row
    let inner = b.here();
    let row_done = b.label();
    b.beqz(t3, row_done);
    b.vsetvli(t5, t3);
    b.vle32(v1, s3); // matrix row slice
    b.vle32(v2, s2); // v slice
    b.vfmacc_vv(v0, v1, v2);
    b.slli(t6, t5, 2);
    b.add(s3, s3, t6);
    b.add(s2, s2, t6);
    b.sub(t3, t3, t5);
    b.j(inner);
    b.bind(row_done);
    b.vsetvli(t0, Reg::ZERO);
    b.vmv_v_i(v4, 0);
    b.vfredosum_vs(v5, v0, v4);
    b.vfmv_f_s(FReg::a(0), v5);
    b.fsw(FReg::a(0), 0, s6);
    b.addi(s6, s6, 4);
    b.addi(s0, s0, 1);
    b.j(row_loop);
    b.bind(done);
    b.ebreak();
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_layout() -> ProblemLayout {
        ProblemLayout {
            rows_base: 0x100,
            cols_base: 0x200,
            vals_base: 0x300,
            v_base: 0x400,
            x_idx_base: 0,
            x_vals_base: 0,
            y_base: 0x500,
            smash_l0_base: 0,
            smash_l1_base: 0,
            num_rows: 8,
            num_cols: 8,
            m_nnz: 16,
            x_nnz: 0,
        }
    }

    #[test]
    fn baseline_vector_uses_gather() {
        let p = spmv_baseline(&dummy_layout(), true);
        assert!(p.instrs().iter().any(|i| matches!(i, hht_isa::Instr::Vluxei32 { .. })));
        assert!(p.instrs().iter().any(|i| matches!(i, hht_isa::Instr::Ebreak)));
    }

    #[test]
    fn hht_vector_has_no_gather_and_no_col_loads() {
        let p = spmv_hht(&dummy_layout(), true);
        assert!(!p.instrs().iter().any(|i| matches!(i, hht_isa::Instr::Vluxei32 { .. })));
        assert!(!p.instrs().iter().any(|i| matches!(i, hht_isa::Instr::VsllVI { .. })));
    }

    #[test]
    fn scalar_variants_have_no_vector_instructions() {
        for p in [spmv_baseline(&dummy_layout(), false), spmv_hht(&dummy_layout(), false)] {
            assert!(!p.instrs().iter().any(|i| i.is_vector()), "scalar kernel uses vector op");
        }
    }

    #[test]
    fn hht_kernels_program_the_mmrs() {
        let p = spmv_hht(&dummy_layout(), true);
        let mmr_stores =
            p.instrs().iter().filter(|i| matches!(i, hht_isa::Instr::Sw { .. })).count();
        assert!(mmr_stores >= 12, "expected MMR programming stores");
    }
}
