//! Multi-tile fabric demo: row-block sharded SpMV across 4 CPU+HHT tiles
//! over a banked shared memory.
//!
//! ```text
//! cargo run --release --example fabric_run
//! ```
//!
//! Runs the same SpMV problem on one tile and on a 4-tile fabric (8 shared
//! banks, round-robin arbitration), prints the wall-cycle speedup, the
//! shared-memory bank-conflict accounting and a per-tile stall breakdown,
//! and writes a Chrome trace-event JSON file with **one process lane per
//! tile** — open it in `chrome://tracing` or <https://ui.perfetto.dev> to
//! see all four tiles' CPU stalls, HHT back-end activity and bank
//! arbitration side by side on one cycle axis.

use hht::obs::chrome::chrome_trace_json_tiles;
use hht::sparse::generate;
use hht::system::config::{SystemConfig, TraceConfig};
use hht::system::{runner, FabricConfig};

fn main() {
    let n = 256;
    let cfg = SystemConfig::paper_default().with_trace(TraceConfig::enabled());
    // The paper's headline shape at reduced n: 10% density (90% sparsity).
    let m = generate::random_csr(n, n, 0.9, 0xFAB);
    let v = generate::random_dense_vector(n, 0xFAC);

    let single = runner::run_spmv_fabric(&cfg, FabricConfig::scaled(1), &m, &v);
    let fabric = runner::run_spmv_fabric(&cfg, FabricConfig::scaled(4), &m, &v);
    let s = &fabric.stats;

    println!("== SpMV {n}x{n}, 90% sparsity: 1 tile vs 4 tiles ==");
    println!("1-tile wall cycles   {:>8}", single.stats.cycles);
    println!("4-tile wall cycles   {:>8}", s.cycles);
    println!("speedup              {:>8.3}x", single.stats.cycles as f64 / s.cycles as f64);
    println!(
        "bank conflicts       {:>8}  ({:.1}% of {} accesses, {} cross-tile)",
        s.mem.conflicts,
        100.0 * s.bank_conflict_frac(),
        s.mem.accesses,
        s.mem.cross_tile_conflicts,
    );

    println!("\nper-tile breakdown (each tile's own completion cycle):");
    for (t, tile) in s.tiles.iter().enumerate() {
        let snap = tile.snapshot();
        snap.validate().expect("per-tile stall histogram must sum to the wait counters");
        println!(
            "  tile {t}: {:>7} cycles, {:>6} instrs, {:>6} elements via HHT",
            tile.cycles, tile.core.instructions, tile.hht.elements_delivered
        );
        for (label, cycles) in snap.stalls.entries() {
            if cycles > 0 {
                let pct = 100.0 * cycles as f64 / tile.cycles as f64;
                println!("    {label:<18} {cycles:>7}  ({pct:5.1}% of tile run)");
            }
        }
    }

    let merged = s.merged().snapshot();
    merged.validate().expect("merged stall histogram must sum to the wait counters");
    println!(
        "\nmerged: {} tile-cycles total, cpu_wait {:.4}, hht_wait {:.4}",
        merged.cycles, merged.cpu_wait_frac, merged.hht_wait_frac
    );

    let trace_path = std::env::temp_dir().join("hht_fabric_trace.json");
    std::fs::write(&trace_path, chrome_trace_json_tiles(&fabric.tile_events, &[]))
        .expect("write trace");
    println!(
        "\n{} events across {} tile lanes; Chrome trace written to {}",
        fabric.tile_events.iter().map(Vec::len).sum::<usize>(),
        fabric.tile_events.len(),
        trace_path.display()
    );
    println!("open it in chrome://tracing or https://ui.perfetto.dev");
}
