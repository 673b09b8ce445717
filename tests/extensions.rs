//! Integration tests for the features beyond the paper's headline
//! evaluation: the programmable HHT (§7), 16×16 tiling (§5.5 fn. 6), the
//! L1D "high-performance integration" (§3.2), the dense-expansion
//! crossover (§6), MatrixMarket I/O, and conv-layer lowering.

use hht::sim::config::CacheGeometry;
use hht::sparse::{generate, io, SparseFormat};
use hht::system::config::SystemConfig;
use hht::system::{experiments, runner, tiling};
use std::io::Cursor;

#[test]
fn programmable_hht_is_correct_but_slower_than_asic() {
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(64, 64, 0.6, 3);
    let v = generate::random_dense_vector(64, 4);
    let asic = runner::run_spmv_hht(&cfg, &m, &v);
    let prog = runner::run_spmv_hht_programmable(&cfg, &m, &v);
    assert_eq!(asic.y, prog.y, "both back-ends must compute the same result");
    assert!(
        prog.stats.cycles > asic.stats.cycles,
        "the microprogrammed gather ({}) must cost more than the FSM ({})",
        prog.stats.cycles,
        asic.stats.cycles
    );
}

#[test]
fn programmable_gap_narrows_at_high_sparsity() {
    // Fewer elements per row -> fixed overheads dominate -> the per-element
    // microprogram penalty matters less.
    let cfg = SystemConfig::paper_default();
    let pts = experiments::programmable_ablation(&cfg, 64, 1);
    let lo = &pts[0];
    let hi = &pts[8];
    let gap_lo = lo.asic_speedup() / lo.programmable_speedup();
    let gap_hi = hi.asic_speedup() / hi.programmable_speedup();
    assert!(gap_hi < gap_lo, "gap should narrow: {gap_lo} -> {gap_hi}");
}

#[test]
fn tiled_spmv_matches_untiled_at_paper_tile_size() {
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(80, 80, 0.7, 13);
    let v = generate::random_dense_vector(80, 14);
    let untiled = runner::run_spmv_hht(&cfg, &m, &v);
    let tiled = tiling::run_spmv_tiled(&cfg, &m, &v, 16);
    assert!(tiled.out.y.max_abs_diff(&untiled.y) < 1e-3);
    // Tiling costs extra cycles (MMR reprogramming + y read-modify-write).
    assert!(tiled.out.stats.cycles > untiled.stats.cycles);
}

#[test]
fn l1d_changes_timing_not_results() {
    let cfg = SystemConfig::paper_default().with_ram_word_cycles(4);
    let cached = cfg.with_l1d(CacheGeometry::embedded_4k());
    let m = generate::random_csr(64, 64, 0.5, 23);
    let v = generate::random_dense_vector(64, 24);
    let plain = runner::run_spmv_baseline(&cfg, &m, &v);
    let with_cache = runner::run_spmv_baseline(&cached, &m, &v);
    assert_eq!(plain.y, with_cache.y);
    // Sequential CSR streams cache well: the cached baseline is faster on
    // slow memory.
    assert!(
        with_cache.stats.cycles < plain.stats.cycles,
        "cache should help on 4-cycle memory ({} !< {})",
        with_cache.stats.cycles,
        plain.stats.cycles
    );
    assert!(with_cache.stats.core.l1d_hits > with_cache.stats.core.l1d_misses);
}

#[test]
fn l1d_composes_over_dram_backend() {
    // The L1D is a tags-only layer above the memory port: a hit skips the
    // port entirely, a miss issues a burst line fill through the
    // split-transaction request path and pays the DRAM toll (row extras,
    // window, budget) like any other transaction. Stacking it over the
    // DRAM backend must change timing only — same results, fewer slow
    // transactions, and the row extras the core does pay must show up in
    // the per-tile counters.
    use hht::mem::DramConfig;
    let dram = SystemConfig::paper_default().with_dram(DramConfig::slow_300ns());
    let cached = dram.with_l1d(CacheGeometry::embedded_4k());
    let m = generate::random_csr(64, 64, 0.5, 23);
    let v = generate::random_dense_vector(64, 24);
    let plain = runner::run_spmv_baseline(&dram, &m, &v);
    let with_cache = runner::run_spmv_baseline(&cached, &m, &v);
    assert_eq!(plain.y, with_cache.y, "the cache must not change the numeric result");
    assert!(
        with_cache.stats.cycles < plain.stats.cycles,
        "line fills should amortize 300ns-class rows ({} !< {})",
        with_cache.stats.cycles,
        plain.stats.cycles
    );
    assert!(with_cache.stats.core.l1d_hits > with_cache.stats.core.l1d_misses);
    // The misses that do go out pay DRAM row timing.
    let extras = with_cache.stats.sram.cpu_row_hit_extra + with_cache.stats.sram.cpu_row_miss_extra;
    assert!(extras > 0, "line fills over DRAM must accrue row extras");
}

#[test]
fn l1d_over_flat_dram_is_bit_identical_to_l1d_over_shared() {
    // Composability corollary of the flat-Dram differential: inserting a
    // zero-effect DRAM stage under the cache must be observationally
    // invisible, burst line fills included.
    use hht::mem::DramConfig;
    let cached = SystemConfig::paper_default()
        .with_ram_word_cycles(4)
        .with_l1d(CacheGeometry::embedded_4k());
    let m = generate::random_csr(64, 64, 0.5, 23);
    let v = generate::random_dense_vector(64, 24);
    let shared = runner::run_spmv_baseline(&cached, &m, &v);
    let flat = runner::run_spmv_baseline(&cached.with_dram(DramConfig::flat()), &m, &v);
    assert_eq!(shared.stats, flat.stats);
    assert_eq!(shared.y, flat.y);
}

#[test]
fn dense_expansion_crossover_exists_for_the_baseline() {
    let cfg = SystemConfig::paper_default();
    let pts = experiments::crossover(&cfg, 96, 1);
    // At 10% sparsity the dense kernel beats the sparse *baseline*
    // (the [40]/[23] observation)...
    assert!(pts[0].dense_cycles < pts[0].sparse_baseline_cycles);
    // ...but at 90% sparsity sparse wins comfortably.
    assert!(pts[8].sparse_baseline_cycles < pts[8].dense_cycles);
    // The HHT beats the baseline at every sparsity.
    for p in &pts {
        assert!(p.sparse_hht_cycles < p.sparse_baseline_cycles);
    }
}

#[test]
fn matrix_market_round_trips_through_the_simulator() {
    // Write a generated matrix to .mtx, read it back, and run both copies:
    // identical cycle counts and results.
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(48, 48, 0.8, 33);
    let mut buf = Vec::new();
    io::write_matrix_market(&mut buf, &m).unwrap();
    let m2 = io::read_matrix_market_csr(Cursor::new(buf)).unwrap();
    assert_eq!(m, m2);
    let v = generate::random_dense_vector(48, 34);
    let a = runner::run_spmv_hht(&cfg, &m, &v);
    let b = runner::run_spmv_hht(&cfg, &m2, &v);
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.y, b.y);
}

#[test]
fn conv_layers_lower_and_accelerate() {
    let cfg = SystemConfig::paper_default();
    for (name, layer) in hht::workloads::conv::suite() {
        let w = layer.lowered_weights();
        let patch = layer.input_patch(0);
        let base = runner::run_spmv_baseline(&cfg, &w, &patch);
        let hht_run = runner::run_spmv_hht(&cfg, &w, &patch);
        let speedup = base.stats.cycles as f64 / hht_run.stats.cycles as f64;
        assert!(speedup > 1.3, "{name}: speedup {speedup}");
        assert_eq!(hht_run.y.len(), layer.out_channels);
    }
}

#[test]
fn csc_baseline_is_work_efficient_and_correct() {
    let cfg = SystemConfig::paper_default();
    for s in [0.5, 0.9] {
        let m = generate::random_csr(64, 64, s, 53);
        let x = generate::random_sparse_vector(64, s, 54);
        let merge = runner::run_spmspv_baseline(&cfg, &m, &x);
        let csc = runner::run_spmspv_csc_baseline(&cfg, &m, &x);
        assert!(csc.y.max_abs_diff(&merge.y) < 1e-3);
        // Column scatter does O(touched) work instead of O(rows * x_nnz):
        // it must be much faster than the row merge.
        assert!(
            csc.stats.cycles * 2 < merge.stats.cycles,
            "csc {} vs merge {}",
            csc.stats.cycles,
            merge.stats.cycles
        );
    }
}

#[test]
fn motivation_shows_metadata_dominates_baseline() {
    let cfg = SystemConfig::paper_default();
    let pts = experiments::motivation(&cfg, 96, 1);
    for p in &pts {
        // Algorithm 1: 2 of 3 per-nnz loads are metadata/indirect, plus the
        // row-pointer array.
        assert!(p.metadata_load_fraction > 0.6, "meta fraction {}", p.metadata_load_fraction);
        // Offloading strips both instructions and memory beats from the CPU.
        assert!(p.hht_instr_per_nnz < p.baseline_instr_per_nnz);
        assert!(p.hht_beats_per_nnz < p.baseline_beats_per_nnz / 2.0);
    }
}

#[test]
fn execution_trace_is_inspectable() {
    use hht::isa::Instr;
    use hht::mem::mmio::NullDevice;
    use hht::mem::{ByteStore, Dram, DramConfig, FabricPort, SharedMemory};
    use hht::sim::{Core, CoreConfig};
    use hht::system::{kernels, layout};
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(16, 16, 0.5, 43);
    let v = generate::random_dense_vector(16, 44);
    let mut image = ByteStore::new(cfg.ram_size);
    let l = layout::layout_spmv(&mut image, &m, &v);
    let program = kernels::spmv_baseline(&l, true);
    let shared = SharedMemory::new(image, cfg.ram_word_cycles, 1, 1);
    let mut mem = Dram::new(shared, DramConfig::flat());
    let mut core = Core::new(CoreConfig::paper_default(), program);
    core.enable_trace();
    let mut dev = NullDevice;
    let mut now = 0u64;
    while !core.halted() {
        core.step(now, &mut FabricPort::new(&mut mem, 0), &mut dev);
        now += 1;
        assert!(now < 10_000_000, "runaway");
    }
    // The baseline trace contains gathers; the per-group count matches the
    // strip-mined structure (one vluxei32 per inner iteration).
    let gathers = core.trace().iter().filter(|e| matches!(e.instr, Instr::Vluxei32 { .. })).count();
    let groups: usize = (0..m.rows()).map(|r| m.row_nnz(r).div_ceil(8)).sum();
    assert_eq!(gathers, groups);
    // Disassembled trace mentions the gather mnemonic.
    assert!(core.trace_to_string().contains("vluxei32.v"));
}
