//! Exact counters summed over the fabric passes of one benchmark pass,
//! with the cross-checks between independent counters.

use hht_mem::SharedMemStats;
use hht_prof::{CpiStack, FabricCpi};
use hht_system::runner::FabricRunOutput;

/// Simulated and scheduler counters over a set of fabric runs. Every field
/// repeats exactly for the same inputs, so two passes compare with `==`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Fabric runs folded in.
    pub runs: u64,
    /// Simulated wall cycles (the last tile's completion, per run).
    pub sim_cycles: u64,
    /// CPI stack merged over every tile of every run.
    pub cpi: CpiStack,
    /// Tile-slots idle after their tile halted, summed over runs.
    pub idle_after_halt: u64,
    /// Cycles the scheduler stepped.
    pub stepped_cycles: u64,
    /// Cycles the scheduler fast-forwarded.
    pub skipped_cycles: u64,
    /// Fast-forward spans taken.
    pub skip_spans: u64,
    /// Event-queue pops over all tiles.
    pub tile_pops: u64,
    /// Parked spans over all tiles.
    pub parks: u64,
    /// Instructions retired over all cores.
    pub instructions: u64,
    /// Stream elements the HHTs delivered.
    pub elements_delivered: u64,
    /// Cycles the HHT back-ends were busy.
    pub hht_busy_cycles: u64,
    /// CPU reads that stalled on an empty HHT window.
    pub cpu_stall_reads: u64,
    /// Shared-memory counters.
    pub mem: SharedMemStats,
}

impl Counts {
    /// Fold one run in, checking its counters against each other. `flat`
    /// says the machine has no DRAM timing, so every DRAM counter must be
    /// zero.
    pub fn add_run(&mut self, run: &FabricRunOutput, flat: bool) -> Result<(), String> {
        let st = &run.stats;
        let cpi = FabricCpi::from_fabric(st)?;
        let tiles = st.tiles.len() as u64;
        let tile_cycles: u64 = st.tiles.iter().map(|t| t.cycles).sum();
        if cpi.merged.total() != tile_cycles {
            return Err(format!(
                "CPI stack sums to {} but the tiles ran {tile_cycles} cycles",
                cpi.merged.total()
            ));
        }
        if cpi.merged.total() + cpi.idle_after_halt != st.cycles * tiles {
            return Err("CPI stack plus idle slots differ from wall cycles x tiles".into());
        }
        let sched = run.sched;
        if tiles == 1 && sched.stepped_cycles + sched.skipped_cycles != st.cycles {
            return Err(format!(
                "one tile: stepped {} + skipped {} != {} cycles",
                sched.stepped_cycles, sched.skipped_cycles, st.cycles
            ));
        }
        let m = &st.mem;
        let dram = [
            cpi.merged.mem_row_hit,
            cpi.merged.mem_row_miss,
            cpi.merged.mem_mlp_stall,
            m.row_hits,
            m.row_misses,
            m.window_stalls,
            m.bandwidth_stalls,
        ];
        if flat && dram.iter().any(|&c| c != 0) {
            return Err(format!("flat memory reports DRAM counters {dram:?}"));
        }

        self.runs += 1;
        self.sim_cycles += st.cycles;
        self.cpi.add(&cpi.merged);
        self.idle_after_halt += cpi.idle_after_halt;
        self.stepped_cycles += sched.stepped_cycles;
        self.skipped_cycles += sched.skipped_cycles;
        self.skip_spans += sched.skip_spans;
        for t in &run.tile_sched {
            self.tile_pops += t.pops;
            self.parks += t.parks;
        }
        for t in &st.tiles {
            self.instructions += t.core.instructions;
            self.elements_delivered += t.hht.elements_delivered;
            self.hht_busy_cycles += t.hht.busy_cycles;
            self.cpu_stall_reads += t.hht.cpu_stall_reads;
        }
        self.mem.absorb(m);
        Ok(())
    }

    /// Instructions per tile-cycle.
    pub fn ipc(&self) -> f64 {
        ratio(self.instructions, self.cpi.cycles)
    }

    /// Share of simulated cycles the scheduler fast-forwarded.
    pub fn skip_frac(&self) -> f64 {
        ratio(self.skipped_cycles, self.stepped_cycles + self.skipped_cycles)
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
