//! Allocation regression: a one-tile run makes a fixed handful of heap
//! allocations (scheduler queues, the final statistics snapshot), however
//! many cycles it steps. The core's memory ops reuse core-owned buffers,
//! the scheduler's solo run (and the core-alone loop inside it) and the
//! per-cycle oracle allocate nothing per cycle, so a run's allocation
//! count must not grow with the problem.
//!
//! This is its own test binary because the counting `#[global_allocator]`
//! is process-wide; it counts only on the thread that arms it, into that
//! thread's own counter.

use hht::mem::ByteStore;
use hht::sparse::{generate, kernels as golden, CscMatrix, DenseVector, SparseFormat};
use hht::system::config::SystemConfig;
use hht::system::{kernels, layout, System};
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Per thread, so tests running in parallel do not count each other.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let res = sys.run();
    ARMED.with(|a| a.set(false));
    let allocs = ALLOCS.with(Cell::get);
    res.expect("kernel runs to ebreak");
    (allocs, sys.read_output(y_base, rows))
}

#[test]
fn one_tile_runs_allocate_a_bounded_handful() {
    const LIMIT: u64 = 32;
    for skip in [true, false] {
        let cfg = SystemConfig::paper_default().with_cycle_skip(skip);
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
                let mut image = ByteStore::new(cfg.ram_size);
                let l = if dense_operand {
                    layout::layout_spmv(&mut image, &m, &v)
                } else {
                    layout::layout_spmspv(&mut image, &m, &x)
                };
                let sys = System::new(&cfg, build(&l, vector), image);
                let (allocs, y) = run_counted(sys, l.y_base, rows);
                let gold = if dense_operand { &spmv_gold } else { &spmspv_gold };
                assert!(
                    y.max_abs_diff(gold) <= 1e-3,
                    "{name} rows={rows} skip={skip}: wrong result"
                );
                assert!(
                    allocs < LIMIT,
                    "{name} rows={rows} skip={skip}: {allocs} allocations in run()"
                );
            }
        }
    }
}

/// Heap allocations of one software baseline's `run()` on a `rows`-square
/// problem: the kernels whose whole run is the core-alone loop.
fn baseline_allocs(cfg: &SystemConfig, name: &str, rows: usize) -> u64 {
    let m = generate::random_csr(rows, rows, 0.9, rows as u64);
    let v = generate::random_dense_vector(rows, rows as u64 ^ 1);
    let x = generate::random_sparse_vector(rows, 0.9, rows as u64 ^ 2);
    // Fully backed, as the runner backs the whole image: a store to `y`
    // never grows the backing mid-run.
    let mut image = ByteStore::from_vec(vec![0; cfg.ram_size as usize], cfg.ram_size);
    let (l, program, gold) = match name {
        "spmv_scalar" | "spmv_vector" => {
            let l = layout::layout_spmv(&mut image, &m, &v);
            let p = kernels::spmv_baseline(&l, name == "spmv_vector");
            (l, p, golden::spmv(&m, &v).expect("square shapes"))
        }
        "spmspv_merge" => {
            let l = layout::layout_spmspv(&mut image, &m, &x);
            (l, kernels::spmspv_baseline(&l), golden::spmspv(&m, &x).expect("square shapes"))
        }
        "spmspv_csc" => {
            let csc = CscMatrix::from_triplets(rows, rows, &m.triplets()).expect("valid triplets");
            let l = kernels::layout_spmspv_csc(&mut image, &csc, &x);
            (l, kernels::spmspv_csc_baseline(&l), golden::spmspv(&m, &x).expect("square shapes"))
        }
        _ => {
            let d = m.to_dense();
            let l = layout::layout_dense(&mut image, &d, &v);
            (l, kernels::dense_matvec(&l), d.matvec(&v).expect("square shapes"))
        }
    };
    let (allocs, y) = run_counted(System::new(cfg, program, image), l.y_base, rows);
    assert!(y.max_abs_diff(&gold) <= 1e-3, "{name} rows={rows}: wrong result");
    allocs
}

/// A software baseline never starts an engine, so the event queue runs it
/// in the core-alone loop end to end: its allocations are the scheduler's
/// fixed set, the same at 64 and at 256 rows.
#[test]
fn baseline_runs_allocate_the_same_at_any_size() {
    let cfg = SystemConfig::paper_default();
    for name in ["spmv_scalar", "spmv_vector", "spmspv_merge", "spmspv_csc", "dense_matvec"] {
        let small = baseline_allocs(&cfg, name, 64);
        let large = baseline_allocs(&cfg, name, 256);
        assert_eq!(small, large, "{name}: allocations grew with the problem");
    }
}
