//! Allocation regression: a one-tile run makes a fixed handful of heap
//! allocations (scheduler queues, the final statistics snapshot), however
//! many cycles it steps. The core's memory ops reuse core-owned buffers
//! and the scheduler's solo run allocates nothing per cycle, so a run's
//! allocation count must not grow with the problem.
//!
//! This is its own test binary because the counting `#[global_allocator]`
//! is process-wide; it counts only on the thread that arms it.

use hht::mem::Sram;
use hht::sparse::{generate, kernels as golden, DenseVector};
use hht::system::config::SystemConfig;
use hht::system::{kernels, layout, System};
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        Heap.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        Heap.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Assembles one kernel for a problem layout (`true` = vectorized).
type BuildKernel = fn(&layout::ProblemLayout, bool) -> hht::isa::Program;

/// Heap allocations made by `sys.run()` alone, plus its output.
fn run_counted(mut sys: System, y_base: u32, rows: usize) -> (u64, DenseVector) {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let res = sys.run();
    ARMED.with(|a| a.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed);
    res.expect("kernel runs to ebreak");
    (allocs, sys.read_output(y_base, rows))
}

#[test]
fn one_tile_runs_allocate_a_bounded_handful() {
    const LIMIT: u64 = 32;
    let cfg = SystemConfig::paper_default();
    let vector = cfg.core.vlen > 1;
    for rows in [64usize, 256] {
        let m = generate::random_csr(rows, rows, 0.9, rows as u64);
        let v = generate::random_dense_vector(rows, rows as u64 ^ 1);
        let x = generate::random_sparse_vector(rows, 0.9, rows as u64 ^ 2);
        let spmv_gold = golden::spmv(&m, &v).expect("square shapes");
        let spmspv_gold = golden::spmspv(&m, &x).expect("square shapes");
        let cases: [(&str, bool, BuildKernel); 5] = [
            ("spmv_baseline", true, kernels::spmv_baseline),
            ("spmv_hht", true, kernels::spmv_hht),
            ("spmspv_baseline", false, |l, _| kernels::spmspv_baseline(l)),
            ("spmspv_hht_v1", false, |l, _| kernels::spmspv_hht_v1(l)),
            ("spmspv_hht_v2", false, |l, _| kernels::spmspv_hht_v2(l)),
        ];
        for (name, dense_operand, build) in cases {
            let mut sram = Sram::new(cfg.ram_size, cfg.ram_word_cycles);
            let l = if dense_operand {
                layout::layout_spmv(&mut sram, &m, &v)
            } else {
                layout::layout_spmspv(&mut sram, &m, &x)
            };
            let sys = System::new(&cfg, build(&l, vector), sram);
            let (allocs, y) = run_counted(sys, l.y_base, rows);
            let gold = if dense_operand { &spmv_gold } else { &spmspv_gold };
            assert!(y.max_abs_diff(gold) <= 1e-3, "{name} rows={rows}: wrong result");
            assert!(allocs < LIMIT, "{name} rows={rows}: {allocs} allocations in run()");
        }
    }
}
