//! Drive the simulator directly with hand-written RISC-V assembly.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```
//!
//! Shows the lower layers of the stack: the text assembler, the SRAM image
//! builder, the MMIO-programmed HHT and the single-tile `System` — the
//! pieces the kernel library uses under the hood. The kernel computes a
//! dot product of a gathered slice: `sum(v[idx[i]] * w[i])`, first with an
//! explicit CPU-side gather, then by programming the HHT's SpMV engine to
//! stream `v[idx[i]]` through the buffer window.

use hht::accel::mmr::reg;
use hht::isa::asm::assemble;
use hht::mem::{map, Sram};
use hht::system::config::SystemConfig;
use hht::system::System;

const N: usize = 64;
const IDX: u32 = 0x1000; // index array
const V: u32 = 0x2000; // gather source
const W: u32 = 0x3000; // weights
const OUT: u32 = 0x4000; // result

fn image(cfg: &SystemConfig) -> Sram {
    let mut sram = Sram::new(cfg.ram_size, cfg.ram_word_cycles);
    // A permutation-ish index pattern and two value arrays.
    let idx: Vec<u32> = (0..N as u32).map(|i| (i * 7) % N as u32).collect();
    sram.load_words(IDX, &idx);
    sram.load_f32s(V, &(0..N).map(|i| i as f32).collect::<Vec<_>>());
    sram.load_f32s(W, &(0..N).map(|i| 1.0 + (i % 3) as f32).collect::<Vec<_>>());
    sram
}

fn main() {
    let cfg = SystemConfig::paper_default();

    // --- CPU-only version: scalar loop with the indirect access. ---
    let baseline_src = format!(
        r#"
        li   a0, {IDX}
        li   a1, {V}
        li   a2, {W}
        li   a3, {n}
        fmv.w.x fa0, zero        # acc = 0
    loop:
        lw   t0, 0(a0)           # idx[i]
        slli t0, t0, 2
        add  t0, a1, t0
        flw  fa1, 0(t0)          # v[idx[i]]  (the indirect access)
        flw  fa2, 0(a2)          # w[i]
        fmadd.s fa0, fa1, fa2, fa0
        addi a0, a0, 4
        addi a2, a2, 4
        addi a3, a3, -1
        bnez a3, loop
        li   t1, {OUT}
        fsw  fa0, 0(t1)
        ebreak
    "#,
        n = N
    );
    let program = assemble(&baseline_src).expect("baseline assembles");
    let mut sys = System::new(&cfg, program, image(&cfg));
    let base = sys.run().expect("baseline runs");
    let y_base = sys.mem().read_f32(OUT);
    println!("CPU-only gather:  sum = {y_base}, {} cycles", base.cycles);

    // --- HHT version: program the SpMV engine to stream v[idx[i]]. ---
    // The index array plays the role of the CSR cols array.
    let hht_src = format!(
        r#"
        # program the HHT MMRs (Sec. 3.1), START bit last
        li   t6, {mmr}
        li   t5, {IDX}
        sw   t5, {r_cols}(t6)    # M_Cols_Base := idx array
        li   t5, {V}
        sw   t5, {r_vbase}(t6)   # V_Base := gather source
        li   t5, {n}
        sw   t5, {r_nnz}(t6)     # M_NNZ := element count
        li   t5, 4
        sw   t5, {r_esz}(t6)     # ElementSizes := 4-byte words
        sw   zero, {r_mode}(t6)  # MODE := SpMV gather
        li   t5, 1
        sw   t5, {r_start}(t6)   # Start
        # consume the stream
        li   a1, {win}
        li   a2, {W}
        li   a3, {n}
        fmv.w.x fa0, zero
    loop:
        flw  fa1, 0(a1)          # pre-gathered v[idx[i]] (may stall)
        flw  fa2, 0(a2)
        fmadd.s fa0, fa1, fa2, fa0
        addi a2, a2, 4
        addi a3, a3, -1
        bnez a3, loop
        li   t1, {OUT}
        fsw  fa0, 0(t1)
        ebreak
    "#,
        mmr = map::HHT_MMR_BASE,
        win = map::HHT_BUF_BASE,
        r_cols = reg::M_COLS_BASE,
        r_vbase = reg::V_BASE,
        r_nnz = reg::M_NNZ,
        r_esz = reg::ELEMENT_SIZES,
        r_mode = reg::MODE,
        r_start = reg::START,
        n = N
    );
    let program = assemble(&hht_src).expect("HHT kernel assembles");
    let mut sys = System::new(&cfg, program, image(&cfg));
    let hht = sys.run().expect("HHT kernel runs");
    let y_hht = sys.mem().read_f32(OUT);
    println!("HHT-gathered:     sum = {y_hht}, {} cycles", hht.cycles);
    assert_eq!(y_base, y_hht, "both versions must agree");
    println!(
        "speedup {:.2}x, CPU waited {} cycles for the HHT",
        base.cycles as f64 / hht.cycles as f64,
        hht.core.hht_wait_cycles
    );
}
