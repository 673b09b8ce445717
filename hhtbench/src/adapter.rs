//! The benchmark's single door into the simulator.
//!
//! Every call into the `hht-system` runners and the `hht-serve` service
//! goes through this module, so an API change on that side (for example
//! folding the runner's entry points into one `run`) edits this file and
//! nothing else of the benchmark.

use hht_serve::{Response, ServeStats, Service, ServiceConfig};
use hht_sparse::{kernels, DenseVector};
use hht_system::config::SystemConfig;
use hht_system::fabric::FabricConfig;
use hht_system::runner::{self, ColdStart, FabricPlan, FabricRunOutput};

/// A job is a service request: kernel, matrix and operand in, `y` out.
/// The fabric runners ignore its tenant.
pub use hht_serve::{KernelKind as Kernel, Operand, Request as Job, Served};

/// The reference result from the `hht-sparse` golden kernels.
pub fn golden(job: &Job) -> DenseVector {
    let y = match &job.operand {
        Operand::Dense(v) => kernels::spmv(&job.matrix, v),
        Operand::Sparse(x) => kernels::spmspv(&job.matrix, x),
    };
    y.expect("generated operands match their matrices")
}

/// Cycles of the job on one software core (no HHT) of the same machine.
/// Both SpMSpV variants compare against the same scalar-merge baseline.
pub fn baseline_cycles(cfg: &SystemConfig, job: &Job) -> u64 {
    let out = match &job.operand {
        Operand::Dense(v) => runner::run_spmv_baseline(cfg, &job.matrix, v),
        Operand::Sparse(x) => runner::run_spmspv_baseline(cfg, &job.matrix, x),
    };
    out.stats.cycles
}

/// The one-shot fabric runner: layout, image, simulation and the runner's
/// own golden check in one call.
pub fn run_oneshot(cfg: &SystemConfig, fab: FabricConfig, job: &Job) -> FabricRunOutput {
    let m = &job.matrix;
    match (&job.operand, job.kernel) {
        (Operand::Dense(v), _) => runner::run_spmv_fabric(cfg, fab, m, v),
        (Operand::Sparse(x), Kernel::SpmspvV2) => runner::run_spmspv_fabric_v2(cfg, fab, m, x),
        (Operand::Sparse(x), _) => runner::run_spmspv_fabric_v1(cfg, fab, m, x),
    }
}

/// Layout half of the one-shot runner: the problem image, its layout and
/// the attempt-0 shards.
pub fn plan(cfg: &SystemConfig, fab: FabricConfig, job: &Job) -> FabricPlan {
    let m = &job.matrix;
    match &job.operand {
        Operand::Dense(v) => runner::plan_spmv_fabric(cfg, fab, m, v),
        Operand::Sparse(x) => runner::plan_spmspv_fabric(cfg, fab, m, x),
    }
}

/// Simulation half of the one-shot runner. With a fresh plan and
/// [`ColdStart`] the library documents this as bit-identical to
/// [`run_oneshot`]; the benchmark checks that it is.
pub fn run_planned(
    cfg: &SystemConfig,
    fab: FabricConfig,
    job: &Job,
    plan: &FabricPlan,
) -> FabricRunOutput {
    let m = &job.matrix;
    match &job.operand {
        Operand::Dense(v) => runner::run_spmv_fabric_planned(cfg, fab, m, v, plan, &mut ColdStart),
        Operand::Sparse(x) => {
            let v2 = job.kernel == Kernel::SpmspvV2;
            runner::run_spmspv_fabric_planned(cfg, fab, m, x, v2, plan, &mut ColdStart)
        }
    }
}

/// Bytes of a plan's problem image.
pub fn plan_image_bytes(plan: &FabricPlan) -> usize {
    plan.image.len()
}

/// One single-threaded `hht-serve` service (`jobs: 1`, defaults otherwise).
pub struct Server(Service);

impl Server {
    /// A fresh service with empty caches and pools.
    pub fn new(cfg: SystemConfig, fab: FabricConfig) -> Self {
        Server(Service::new(cfg, fab, ServiceConfig { jobs: 1, ..ServiceConfig::default() }))
    }

    /// Submit one wave (at most one request per tenant) and wait for every
    /// response, in request order.
    pub fn submit_wave(&mut self, wave: &[Job]) -> Vec<Response> {
        self.0.run_stream(wave)
    }

    /// The service's accumulated counters.
    pub fn stats(&self) -> ServeStats {
        self.0.stats()
    }
}
