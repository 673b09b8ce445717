//! The programmable HHT of §7 ("Conclusions"):
//!
//! > "To provide flexibility of sparse data representations (e.g., CSR,
//! > COO, Bit vector, SMASH), it may be worth considering a programmable
//! > HHT, using a simple RISCV like core. Such a HHT core can be even
//! > simpler than traditional 32-bit integer RISCV."
//!
//! This engine replaces the [`GatherEngine`](crate::engine::GatherEngine)
//! FSM with a second, tiny in-order RV32I core (`hht-sim` with
//! [`CoreConfig::helper_default`]) executing a *gather microprogram* built
//! at START from the same MMR configuration. The helper core's loads go
//! through the shared SRAM port as the HHT requester (CPU keeps priority),
//! and it publishes gathered values by storing to a magic output address
//! that this wrapper routes into the CPU-side FIFO.
//!
//! The price of flexibility is throughput: the FSM engine spends two
//! memory accesses per element, while the microprogram also executes ~7
//! instructions of loop overhead per element — the `ablate-programmable`
//! figure quantifies the gap, and the area/power model
//! (`hht_energy::inventory::programmable_hht_inventory`) prices the core.

use crate::engine::{Engine, EngineStats, Outputs};
use crate::mmr::EngineConfig;
use hht_isa::builder::KernelBuilder;
use hht_isa::{Program, Reg};
use hht_mem::mmio::{MmioDevice, MmioReadResult};
use hht_mem::MemoryPort;
use hht_sim::{Core, CoreConfig};

/// The magic store address the microprogram pushes gathered words to.
/// It sits in the HHT MMR window, which the helper core cannot otherwise
/// reach — the wrapper's capture device claims it.
pub const OUT_PORT: u32 = hht_mem::map::HHT_MMR_BASE + 0xF00;

/// Device presented to the helper core: swallows stores to [`OUT_PORT`]
/// into a queue the engine drains into the CPU-side FIFO.
#[derive(Debug, Default)]
struct OutCapture {
    pushed: Vec<u32>,
}

impl MmioDevice for OutCapture {
    fn mmio_read(&mut self, _addr: u32, _now: u64) -> MmioReadResult {
        MmioReadResult::Data(0)
    }
    fn mmio_write(&mut self, addr: u32, value: u32, _now: u64) {
        if addr == OUT_PORT {
            self.pushed.push(value);
        }
    }
}

/// Build the SpMV gather microprogram for a latched configuration:
///
/// ```text
/// for k in 0..m_nnz { out = v[4 * cols[k]] }
/// ```
fn gather_microprogram(cfg: &EngineConfig) -> Program {
    let (a0, a1, a2, t0, t1, t2) =
        (Reg::a(0), Reg::a(1), Reg::a(2), Reg::t(0), Reg::t(1), Reg::t(2));
    let mut b = KernelBuilder::new(0);
    b.li(a0, cfg.cols_base as i32); // cols cursor
    b.li(a1, cfg.v_base as i32); // gather source
    b.li(a2, cfg.m_nnz as i32); // elements remaining
    b.li(t2, OUT_PORT as i32); // output port
    let done = b.label();
    b.beqz(a2, done); // nnz == 0: nothing to do
    let top = b.here();
    b.lw(t0, 0, a0); // cols[k]
    b.slli(t0, t0, 2);
    b.add(t0, a1, t0);
    b.lw(t1, 0, t0); // v[cols[k]]
    b.sw(t1, 0, t2); // push to the CPU-side buffer
    b.addi(a0, a0, 4);
    b.addi(a2, a2, -1);
    b.bnez(a2, top); // bottom-test loop: one branch per element
    b.bind(done);
    b.ebreak();
    b.build()
}

/// The programmable back-end: a helper core running the gather
/// microprogram. Supports the SpMV mode (the §7 sketch); the point of the
/// design is that *other* formats become a software change, not an RTL
/// change.
pub struct ProgrammableEngine {
    core: Core,
    capture: OutCapture,
    m_nnz: u32,
    supplied: u32,
    /// mem_beats already accounted into EngineStats.
    beats_seen: u64,
}

impl std::fmt::Debug for ProgrammableEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgrammableEngine")
            .field("m_nnz", &self.m_nnz)
            .field("supplied", &self.supplied)
            .field("halted", &self.core.halted())
            .finish()
    }
}

impl ProgrammableEngine {
    /// Create the engine for a latched SpMV configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        let program = gather_microprogram(&cfg);
        ProgrammableEngine {
            core: Core::new(CoreConfig::helper_default(), program),
            capture: OutCapture::default(),
            m_nnz: cfg.m_nnz,
            supplied: 0,
            beats_seen: 0,
        }
    }

    /// The helper core's own performance counters (instructions executed
    /// per element is the §7 flexibility cost).
    pub fn core_stats(&self) -> hht_sim::CoreStats {
        self.core.stats()
    }
}

impl Engine for ProgrammableEngine {
    fn step(
        &mut self,
        now: u64,
        sram: &mut dyn MemoryPort,
        out: Outputs<'_>,
        stats: &mut EngineStats,
    ) {
        if self.core.halted() {
            return;
        }
        // Throttle: never let the microprogram produce into a full FIFO
        // (the store would be lost). One store per instruction at most, so
        // one free slot suffices.
        if out.primary.is_full() {
            stats.stall_out_full += 1;
            return;
        }
        self.core.step(now, sram, &mut self.capture);
        debug_assert!(
            self.core.error().is_none(),
            "gather microprogram fault: {:?}",
            self.core.error()
        );
        // Account memory reads made by the helper this step.
        let beats = self.core.stats().mem_beats;
        stats.mem_reads += beats - self.beats_seen;
        self.beats_seen = beats;
        for v in self.capture.pushed.drain(..) {
            out.primary.push(v);
            self.supplied += 1;
        }
    }

    fn done(&self) -> bool {
        self.core.halted() && self.supplied == self.m_nnz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::ElemFifo;
    use crate::mmr::Mode;
    use crate::test_port::{port, ram};

    fn cfg(cols_base: u32, v_base: u32, m_nnz: u32) -> EngineConfig {
        EngineConfig {
            num_rows: 0,
            rows_base: 0,
            cols_base,
            vals_base: 0,
            v_base,
            v_idx_base: 0,
            v_vals_base: 0,
            v_nnz: 0,
            m_nnz,
            elem_size: 4,
            num_cols: 0,
            mode: Mode::SpMV,
        }
    }

    fn run(
        engine: &mut ProgrammableEngine,
        sram: &mut dyn MemoryPort,
        budget: u64,
    ) -> (Vec<u32>, EngineStats) {
        let mut primary = ElemFifo::new(16);
        let mut secondary = ElemFifo::new(1);
        let mut counts = ElemFifo::new(1);
        let mut stats = EngineStats::default();
        let mut got = Vec::new();
        for now in 0..budget {
            engine.step(
                now,
                sram,
                Outputs { primary: &mut primary, secondary: &mut secondary, counts: &mut counts },
                &mut stats,
            );
            while let Some(v) = primary.pop() {
                got.push(v);
            }
            if engine.done() {
                break;
            }
        }
        assert!(engine.done(), "programmable engine did not finish");
        (got, stats)
    }

    #[test]
    fn gathers_like_the_asic_engine() {
        let mut sram = ram(4096, 1);
        sram.inner_mut().load_words(0x100, &[2, 0, 3, 1]);
        sram.inner_mut().load_f32s(0x200, &[10.0, 11.0, 12.0, 13.0]);
        let mut e = ProgrammableEngine::new(cfg(0x100, 0x200, 4));
        let (got, stats) = run(&mut e, &mut port(&mut sram), 10_000);
        let vals: Vec<f32> = got.iter().map(|b| f32::from_bits(*b)).collect();
        assert_eq!(vals, vec![12.0, 10.0, 13.0, 11.0]);
        // Two loads per element, as in the FSM engine.
        assert_eq!(stats.mem_reads, 8);
    }

    #[test]
    fn slower_than_fsm_engine_per_element() {
        // The flexibility cost of §7: the microprogram needs instruction
        // fetch/execute on top of the two loads.
        let n = 32u32;
        let mk_sram = || {
            let mut s = ram(65536, 1);
            s.inner_mut().load_words(0x100, &(0..n).collect::<Vec<_>>());
            s.inner_mut().load_f32s(0x1000, &vec![1.0; n as usize]);
            s
        };
        let mut sram = mk_sram();
        let mut prog = ProgrammableEngine::new(cfg(0x100, 0x1000, n));
        let t0 = {
            let mut primary = ElemFifo::new(1024);
            let mut secondary = ElemFifo::new(1);
            let mut counts = ElemFifo::new(1);
            let mut stats = EngineStats::default();
            let mut now = 0;
            while !prog.done() {
                prog.step(
                    now,
                    &mut port(&mut sram),
                    Outputs {
                        primary: &mut primary,
                        secondary: &mut secondary,
                        counts: &mut counts,
                    },
                    &mut stats,
                );
                now += 1;
            }
            now
        };
        let mut sram = mk_sram();
        let mut fsm = crate::engine::GatherEngine::new(cfg(0x100, 0x1000, n), 8);
        let t1 = {
            let mut primary = ElemFifo::new(1024);
            let mut secondary = ElemFifo::new(1);
            let mut counts = ElemFifo::new(1);
            let mut stats = EngineStats::default();
            let mut now = 0;
            while !crate::engine::Engine::done(&fsm) {
                crate::engine::Engine::step(
                    &mut fsm,
                    now,
                    &mut port(&mut sram),
                    Outputs {
                        primary: &mut primary,
                        secondary: &mut secondary,
                        counts: &mut counts,
                    },
                    &mut stats,
                );
                now += 1;
            }
            now
        };
        assert!(t0 > t1, "programmable ({t0}) must be slower than ASIC FSM ({t1})");
    }

    #[test]
    fn throttles_on_full_fifo() {
        let mut sram = ram(4096, 1);
        sram.inner_mut().load_words(0x100, &[0, 1, 2, 3]);
        sram.inner_mut().load_f32s(0x200, &[1.0, 2.0, 3.0, 4.0]);
        let mut e = ProgrammableEngine::new(cfg(0x100, 0x200, 4));
        let mut primary = ElemFifo::new(2);
        let mut secondary = ElemFifo::new(1);
        let mut counts = ElemFifo::new(1);
        let mut stats = EngineStats::default();
        for now in 0..200 {
            e.step(
                now,
                &mut port(&mut sram),
                Outputs { primary: &mut primary, secondary: &mut secondary, counts: &mut counts },
                &mut stats,
            );
        }
        assert_eq!(primary.len(), 2);
        assert!(stats.stall_out_full > 0);
        assert!(!e.done());
    }

    #[test]
    fn zero_nnz_halts_immediately() {
        let mut sram = ram(256, 1);
        let mut e = ProgrammableEngine::new(cfg(0x10, 0x20, 0));
        let (got, _) = run(&mut e, &mut port(&mut sram), 100);
        assert!(got.is_empty());
    }
}
