//! The warm fabric pool: a `FabricProvider` that recycles retired
//! fabrics' memory buffers across jobs.
//!
//! A fabric's dominant allocation is its shared memory's host backing:
//! the problem image's footprint (a few KB for a 64-row job, about 200 KB
//! for a 512-row one at 90% sparsity), not the simulated RAM's logical
//! size. [`FabricPool::acquire`] resets a spare fabric in place via
//! [`Fabric::reset_for`] — bit-identical to fresh construction, pinned by
//! the determinism suite — and banks the retired buffer;
//! [`FabricPool::image_buffer`] hands banked buffers back to the next
//! image build. In steady state a serving loop therefore stops allocating
//! image-sized memory entirely.

use hht_isa::Program;
use hht_mem::SharedMemory;
use hht_system::config::SystemConfig;
use hht_system::fabric::{Fabric, FabricConfig};
use hht_system::runner::FabricProvider;

/// Bounded pool of spare fabrics and recycled image buffers for one
/// config shape. Also the provider-side half of the pool-reuse statistics
/// reported in `BENCH_serve.json`.
pub struct FabricPool {
    spares: Vec<Fabric>,
    buffers: Vec<Vec<u8>>,
    cap: usize,
    /// Acquires satisfied by resetting a warm spare.
    pub reuses: u64,
    /// Acquires that had to construct a fabric from scratch.
    pub builds: u64,
    /// Image builds that started from a recycled buffer.
    pub buffer_reuses: u64,
}

impl FabricPool {
    /// A pool keeping at most `cap` spare fabrics (and as many buffers).
    pub fn new(cap: usize) -> Self {
        FabricPool {
            spares: Vec::new(),
            buffers: Vec::new(),
            cap,
            reuses: 0,
            builds: 0,
            buffer_reuses: 0,
        }
    }

    /// Spare fabrics currently parked.
    pub fn spares(&self) -> usize {
        self.spares.len()
    }

    /// Fraction of acquires served from a warm spare.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.reuses + self.builds;
        if total == 0 {
            0.0
        } else {
            self.reuses as f64 / total as f64
        }
    }
}

impl FabricProvider for FabricPool {
    fn image_buffer(&mut self) -> Vec<u8> {
        match self.buffers.pop() {
            Some(b) => {
                self.buffer_reuses += 1;
                b
            }
            None => Vec::new(),
        }
    }

    fn acquire(
        &mut self,
        cfg: &SystemConfig,
        fab: FabricConfig,
        programs: Vec<Program>,
        mem: SharedMemory,
    ) -> Fabric {
        match self.spares.pop() {
            Some(mut f) => {
                self.reuses += 1;
                let retired = f.reset_for(cfg, fab, programs, mem);
                if self.buffers.len() < self.cap {
                    self.buffers.push(retired);
                }
                f
            }
            None => {
                self.builds += 1;
                Fabric::new(cfg, fab, programs, mem)
            }
        }
    }

    fn release(&mut self, fabric: Fabric) {
        if self.spares.len() < self.cap {
            self.spares.push(fabric);
        }
    }
}
