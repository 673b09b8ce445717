//! Profile a kernel: execution trace + instruction-mix histogram.
//!
//! ```text
//! cargo run --release --example profile_kernel
//! ```
//!
//! Runs the baseline and HHT SpMV kernels with tracing enabled and prints
//! each one's instruction mix — making the §2 "metadata overhead" argument
//! visible instruction by instruction: the baseline spends a large share
//! on gathers, column loads and address arithmetic that simply vanish from
//! the HHT version's CPU stream.

use hht::accel::{Hht, HhtParams};
use hht::mem::{ByteStore, Dram, DramConfig, FabricPort, SharedMemory};
use hht::sim::profile::InstructionMix;
use hht::sim::Core;
use hht::sparse::generate;
use hht::system::config::SystemConfig;
use hht::system::{kernels, layout};

fn traced_run(cfg: &SystemConfig, hht_kernel: bool) -> (InstructionMix, u64) {
    let m = generate::random_csr(64, 64, 0.6, 7);
    let v = generate::random_dense_vector(64, 8);
    let mut image = ByteStore::new(cfg.ram_size);
    let l = layout::layout_spmv(&mut image, &m, &v);
    let program =
        if hht_kernel { kernels::spmv_hht(&l, true) } else { kernels::spmv_baseline(&l, true) };
    let mut core = Core::new(cfg.core, program);
    core.enable_trace();
    let mut hht = Hht::new(HhtParams::default());
    // The paper's single shared RAM port: one bank, one tile, flat timing.
    let shared = SharedMemory::new(image, cfg.ram_word_cycles, 1, 1);
    let mut mem = Dram::new(shared, DramConfig::flat());
    let mut now = 0u64;
    while !core.halted() {
        core.step(now, &mut FabricPort::new(&mut mem, 0), &mut hht);
        hht.step(now, &mut FabricPort::new(&mut mem, 0));
        now += 1;
    }
    (InstructionMix::from_trace(&core.trace()), now)
}

fn main() {
    let cfg = SystemConfig::paper_default();
    let (base_mix, base_cycles) = traced_run(&cfg, false);
    let (hht_mix, hht_cycles) = traced_run(&cfg, true);
    println!("== baseline SpMV (Algorithm 1), {base_cycles} cycles ==");
    println!("{base_mix}\n");
    println!("== HHT SpMV, {hht_cycles} cycles ==");
    println!("{hht_mix}\n");
    println!(
        "the gather + metadata instructions ({} of {}) disappear from the CPU stream,",
        base_mix.total() - hht_mix.total(),
        base_mix.total()
    );
    println!(
        "cutting cycles {base_cycles} -> {hht_cycles} ({:.2}x)",
        base_cycles as f64 / hht_cycles as f64
    );
}
