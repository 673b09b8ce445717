//! Post-run performance analysis: where did the cycles go, and is the
//! build getting slower?
//!
//! The simulator's counters ([`SystemStats`](hht_system::system::SystemStats)
//! and friends) say *what happened*; this crate turns them into *answers*:
//!
//! - [`cpi`] — the top-down CPI stack: every simulated cycle attributed to
//!   exactly one bucket of a fixed hierarchy (issue / vector / memory-wait
//!   / HHT-wait / fault-recovery), with an exact-sum invariant against the
//!   run's total cycles, per tile and merged across a fabric.
//! - [`classify`](mod@classify) — a bottleneck classifier over the stack
//!   (compute-bound / latency-bound / bandwidth-bound) plus the
//!   "cycles hidden by the HHT" estimate.
//! - [`host`] — host-side self-profiling: phase timers (layout / run /
//!   export), cycle-skip efficiency, and simulated-cycles-per-host-second
//!   throughput.
//! - [`recovery`] — fault-domain attribution: joins the runner's
//!   [`FabricRecovery`](hht_system::runner::FabricRecovery) record with
//!   the per-tile CPI stacks into per-tile verdicts (health, failovers,
//!   recovery cycles).
//! - [`bench`](mod@bench) — the canonical `BENCH_core.json` report and the tolerance
//!   comparator the CI regression gate runs.
//!
//! Everything here is *derived* from counters after the run: nothing in
//! this crate touches simulated timing.

pub mod bench;
pub mod classify;
pub mod cpi;
pub mod host;
pub mod recovery;

pub use bench::{BenchConfig, BenchReport, FabricBenchConfig, FailoverBenchConfig, BENCH_SCHEMA};
pub use classify::{classify, classify_with_bus, Bottleneck, BottleneckReport};
pub use cpi::{CpiStack, FabricCpi};
pub use host::{HostProfile, Stopwatch};
pub use recovery::{FabricRecoveryReport, TileVerdict};
