//! Fault-domain recovery attribution: per-tile verdicts after a degraded
//! fabric run.
//!
//! The runner's [`FabricRecovery`] records *what the policy decided*
//! (health transitions, attempts, failovers); the per-tile
//! [`CpiStack`] records *what the decisions cost*
//! (every failed-attempt and backoff cycle lands in the `fault_recovery`
//! bucket). This module joins the two into one report: for each fault
//! domain, its final health, how many attempts it sank, and how many of
//! its cycles went to recovery instead of work — with the same exact-sum
//! discipline as the rest of the crate (a tile's `recovery_cycles` is its
//! CPI stack's `fault_recovery` bucket, never an estimate).

use crate::cpi::CpiStack;
use hht_system::fabric::{FabricStats, TileHealth};
use hht_system::runner::FabricRecovery;

/// One fault domain's verdict after a recovered run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileVerdict {
    /// Global (original) tile index.
    pub tile: usize,
    /// Final health state.
    pub health: TileHealth,
    /// Failed attempts this domain caused (its `faults.failovers`).
    pub failovers: u64,
    /// Cycles this domain burned on failed attempts and retry backoff —
    /// exactly its CPI stack's `fault_recovery` bucket minus the HHT
    /// retry-protocol share, i.e. `faults.failed_cycles`.
    pub recovery_cycles: u64,
    /// The domain's total accumulated cycles across every attempt.
    pub cycles: u64,
}

impl TileVerdict {
    /// Fraction of this domain's cycles lost to recovery.
    pub fn recovery_frac(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.recovery_cycles as f64 / self.cycles as f64
    }
}

/// Per-tile fault-domain verdicts for one recovered fabric run.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRecoveryReport {
    /// One verdict per original tile.
    pub tiles: Vec<TileVerdict>,
    /// Attempts the run took (1 = clean).
    pub attempts: usize,
    /// Total retry-backoff cycles charged to the wall clock.
    pub backoff_cycles: u64,
    /// Degraded wall cycles (every attempt plus backoff and any fallback).
    pub wall_cycles: u64,
    /// `Some(reason)` when the run abandoned the fabric for the software
    /// baseline.
    pub fallback: Option<String>,
}

impl FabricRecoveryReport {
    /// Join the runner's recovery record with the run's statistics. The
    /// per-tile CPI stacks are built (and therefore exact-sum validated)
    /// on the way; mismatched tile counts or broken stacks are errors.
    pub fn new(stats: &FabricStats, rec: &FabricRecovery) -> Result<FabricRecoveryReport, String> {
        if stats.tiles.len() != rec.health.len() {
            return Err(format!(
                "stats cover {} tiles but the recovery record has {}",
                stats.tiles.len(),
                rec.health.len()
            ));
        }
        let tiles = stats
            .tiles
            .iter()
            .enumerate()
            .map(|(t, s)| {
                // Validates the exact-sum invariant per tile.
                CpiStack::from_stats(s)?;
                Ok(TileVerdict {
                    tile: t,
                    health: rec.health[t],
                    failovers: s.faults.failovers,
                    recovery_cycles: s.faults.failed_cycles,
                    cycles: s.cycles,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FabricRecoveryReport {
            tiles,
            attempts: rec.attempts.len(),
            backoff_cycles: rec.backoff_cycles,
            wall_cycles: stats.cycles,
            fallback: rec.fallback.clone(),
        })
    }

    /// Domains never quarantined.
    pub fn survivors(&self) -> usize {
        self.tiles.iter().filter(|t| !t.health.is_quarantined()).count()
    }

    /// Render as an aligned text table, one row per fault domain.
    pub fn render(&self) -> String {
        let health = |h: &TileHealth| match h {
            TileHealth::Healthy => "healthy".to_string(),
            TileHealth::Suspected { retries } => format!("suspected({retries})"),
            TileHealth::Quarantined => "quarantined".to_string(),
        };
        let mut s = format!(
            "fabric recovery — {} wall cycles, {} attempt(s), {}/{} survivors, backoff {}\n",
            self.wall_cycles,
            self.attempts,
            self.survivors(),
            self.tiles.len(),
            self.backoff_cycles,
        );
        if let Some(reason) = &self.fallback {
            s += &format!("  software fallback: {reason}\n");
        }
        s += "  tile  health          failovers  recovery_cycles        cycles  recovery%\n";
        for t in &self.tiles {
            s += &format!(
                "  {:>4}  {:<14}  {:>9}  {:>15}  {:>12}  {:>8.1}%\n",
                t.tile,
                health(&t.health),
                t.failovers,
                t.recovery_cycles,
                t.cycles,
                100.0 * t.recovery_frac(),
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_fault::{FaultEvent, FaultKind, FaultPlan};
    use hht_sparse::generate;
    use hht_system::config::SystemConfig;
    use hht_system::fabric::FabricConfig;
    use hht_system::runner;

    fn robust() -> SystemConfig {
        SystemConfig::paper_default().with_hht_timeout(64).with_recovery(true)
    }

    #[test]
    fn report_names_the_quarantined_domain_and_its_cost() {
        let m = generate::random_csr(48, 48, 0.5, 0xEC0);
        let v = generate::random_dense_vector(48, 0xEC1);
        let plan = FaultPlan::new(vec![FaultEvent::on_tile(100, FaultKind::TileKill, 1)]);
        let out =
            runner::run_spmv_fabric_with_plan(&robust(), FabricConfig::scaled(4), &m, &v, plan);
        let rec = out.recovery.expect("kill triggers recovery");
        let report = FabricRecoveryReport::new(&out.stats, &rec).unwrap();
        assert_eq!(report.tiles.len(), 4);
        assert_eq!(report.survivors(), 3);
        assert_eq!(report.tiles[1].health, TileHealth::Quarantined);
        assert_eq!(report.tiles[1].failovers, 1);
        assert!(report.tiles[1].recovery_cycles > 0);
        assert!(report.attempts >= 2);
        assert!(report.fallback.is_none());
        let text = report.render();
        assert!(text.contains("quarantined"), "{text}");
        assert!(text.contains("3/4 survivors"), "{text}");
    }

    #[test]
    fn clean_run_report_is_all_healthy_or_absent() {
        let m = generate::random_csr(32, 32, 0.5, 0xEC2);
        let v = generate::random_dense_vector(32, 0xEC3);
        let out = runner::run_spmv_fabric(&robust(), FabricConfig::scaled(2), &m, &v);
        assert!(out.recovery.is_none(), "clean runs carry no recovery record");
    }

    #[test]
    fn mismatched_tile_counts_are_rejected() {
        let stats = FabricStats { cycles: 0, tiles: Vec::new(), mem: Default::default() };
        let rec = FabricRecovery {
            health: vec![TileHealth::Healthy],
            attempts: Vec::new(),
            backoff_cycles: 0,
            fallback: None,
            fallback_cycles: 0,
        };
        assert!(FabricRecoveryReport::new(&stats, &rec).is_err());
    }
}
