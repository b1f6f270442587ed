//! Execution statistics.

use serde::Serialize;

/// Counters collected while executing one filter instance on one SM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct InstanceStats {
    /// Warps the instance occupies (`ceil(active_threads / 32)`).
    pub warps: u32,
    /// Warp-wide instructions issued (divergent branches issue both arms).
    pub warp_instructions: u64,
    /// Warp-wide device-memory access instructions issued.
    pub mem_access_insts: u64,
    /// 64-byte device-memory transactions after coalescing analysis.
    pub mem_transactions: u64,
    /// Warp-wide shared-memory accesses (when staging through shared).
    pub shared_accesses: u64,
    /// Extra serialization passes from shared-memory bank conflicts.
    pub bank_conflict_passes: u64,
    /// Branches where a warp's lanes disagreed (both arms executed).
    pub divergent_branches: u64,
    /// Warp-wide local-memory accesses from register spills.
    pub spill_access_insts: u64,
    /// Transactions generated by spill traffic (always coalesced: local
    /// memory is interleaved per thread).
    pub spill_transactions: u64,
}

impl InstanceStats {
    /// Accumulates `other` into `self` (used when one logical instance is
    /// split across warps).
    pub fn merge(&mut self, other: &InstanceStats) {
        self.warp_instructions += other.warp_instructions;
        self.mem_access_insts += other.mem_access_insts;
        self.mem_transactions += other.mem_transactions;
        self.shared_accesses += other.shared_accesses;
        self.bank_conflict_passes += other.bank_conflict_passes;
        self.divergent_branches += other.divergent_branches;
        self.spill_access_insts += other.spill_access_insts;
        self.spill_transactions += other.spill_transactions;
    }
}

/// Counters and modeled time for one kernel launch (or an accumulation of
/// several — see [`LaunchStats::merge`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LaunchStats {
    /// Busy cycles per SM (index = SM id) for the slowest launch merged in.
    pub per_sm_cycles: Vec<f64>,
    /// Total modeled cycles including launch overhead and the global
    /// bandwidth bound.
    pub cycles: f64,
    /// `cycles / shader clock`, in seconds.
    pub time_secs: f64,
    /// Number of kernel launches folded into these stats.
    pub launches: u64,
    /// Total warp instructions.
    pub warp_instructions: u64,
    /// Total device-memory access instructions.
    pub mem_access_insts: u64,
    /// Total 64-byte device-memory transactions.
    pub mem_transactions: u64,
    /// Total shared-memory accesses.
    pub shared_accesses: u64,
    /// Total bank-conflict serialization passes.
    pub bank_conflict_passes: u64,
    /// Total divergent branches.
    pub divergent_branches: u64,
    /// Total spill transactions.
    pub spill_transactions: u64,
    /// Extra cycles attributable to injected faults — launch-overhead
    /// spikes on completed launches, plus the truthfully-billed cost of
    /// failed attempts that a retrying executor folded in. Included in
    /// [`LaunchStats::cycles`]; broken out here so experiments can report
    /// fault overhead separately.
    pub fault_overhead_cycles: f64,
    /// The checkpoint-protocol share of
    /// [`LaunchStats::fault_overhead_cycles`]: state capture/commit
    /// copies before launches and restore copies after transient faults,
    /// priced by the timing model's checkpoint cost model. Always
    /// `<= fault_overhead_cycles`; zero when no fault plan is armed.
    pub checkpoint_cycles: f64,
    /// The failed-attempt share of
    /// [`LaunchStats::fault_overhead_cycles`]: cycles the device burned
    /// on launch attempts that faulted before a retrying executor
    /// re-issued them (rejected launches, aborted prefixes, watchdog
    /// intervals). Disjoint from [`LaunchStats::checkpoint_cycles`].
    pub failed_attempt_cycles: f64,
    /// The replay share of [`LaunchStats::fault_overhead_cycles`]: full
    /// launches re-executed from the last committed checkpoint when the
    /// commit interval k exceeds 1 — up to k−1 already-successful
    /// launches billed again after a fault inside the window. Zero at
    /// k = 1. Disjoint from the other fault-overhead components.
    pub replay_cycles: f64,
    /// The overhead-spike share of
    /// [`LaunchStats::fault_overhead_cycles`]: extra launch-overhead
    /// cycles from injected [`crate::FaultKind::OverheadSpike`] faults on
    /// launches that completed. Disjoint from the other components.
    pub spike_cycles: f64,
    /// The device-failover share of
    /// [`LaunchStats::fault_overhead_cycles`]: when a whole device is
    /// lost mid-run, the cost of shipping the last committed k-launch
    /// checkpoint (`CommitWindow` state words) to a healthy replica plus
    /// the launches inside the open commit window that the replica
    /// re-executes. Zero without device-grain faults. Disjoint from the
    /// other components.
    pub failover_cycles: f64,
    /// Launch attempts that faulted and were re-issued by a retrying
    /// executor. Zero when no fault plan is armed or every attempt
    /// succeeded first try.
    pub retries: u64,
    /// Launches dispatched as captured-graph replays (the steady-state
    /// doorbell path) rather than host driver launches. Informational:
    /// replay cycles are productive work, not fault overhead.
    pub graph_replays: u64,
    /// Steady-state graph captures performed (once per capture; a
    /// failover re-captures on the replacement device).
    pub graph_captures: u64,
    /// One-time graph-capture cycles folded into [`LaunchStats::cycles`]
    /// by the executor. Productive cost, not fault overhead — broken out
    /// so benches can report capture amortization honestly.
    pub graph_capture_cycles: f64,
    /// Fixed launch-path cycles this launch paid (the driver overhead
    /// for a host launch, the doorbell for a replay); accumulates under
    /// [`LaunchStats::merge`] into the total launch-path tax, which is
    /// exactly what graph dispatch exists to shrink.
    pub launch_path_cycles: f64,
}

impl LaunchStats {
    /// Accumulates another launch's stats (times add; counters add).
    pub fn merge(&mut self, other: &LaunchStats) {
        self.cycles += other.cycles;
        self.time_secs += other.time_secs;
        self.launches += other.launches;
        self.warp_instructions += other.warp_instructions;
        self.mem_access_insts += other.mem_access_insts;
        self.mem_transactions += other.mem_transactions;
        self.shared_accesses += other.shared_accesses;
        self.bank_conflict_passes += other.bank_conflict_passes;
        self.divergent_branches += other.divergent_branches;
        self.spill_transactions += other.spill_transactions;
        self.fault_overhead_cycles += other.fault_overhead_cycles;
        self.checkpoint_cycles += other.checkpoint_cycles;
        self.failed_attempt_cycles += other.failed_attempt_cycles;
        self.replay_cycles += other.replay_cycles;
        self.spike_cycles += other.spike_cycles;
        self.failover_cycles += other.failover_cycles;
        self.retries += other.retries;
        self.graph_replays += other.graph_replays;
        self.graph_captures += other.graph_captures;
        self.graph_capture_cycles += other.graph_capture_cycles;
        self.launch_path_cycles += other.launch_path_cycles;
        if other.per_sm_cycles.len() > self.per_sm_cycles.len() {
            self.per_sm_cycles = other.per_sm_cycles.clone();
        }
    }

    /// Cycles spent on productive work: total wall cycles minus every
    /// fault-attributable component. Non-negative whenever the billing
    /// invariant ([`LaunchStats::assert_billing`]) holds.
    #[must_use]
    pub fn productive_cycles(&self) -> f64 {
        self.cycles - self.fault_overhead_cycles
    }

    /// Checks the fault-billing accounting invariant:
    ///
    /// * the disjoint components — failed attempts, checkpoint protocol,
    ///   replayed launches, overhead spikes, device failovers — sum
    ///   exactly to
    ///   [`LaunchStats::fault_overhead_cycles`];
    /// * fault overhead never exceeds total wall cycles (productive
    ///   cycles are non-negative).
    ///
    /// Returns a description of the first violated clause, or `Ok(())`.
    /// The tolerance scales with the magnitudes involved so accumulated
    /// floating-point error over long traces never trips it.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated clause.
    pub fn check_billing(&self) -> Result<(), String> {
        let parts = self.failed_attempt_cycles
            + self.checkpoint_cycles
            + self.replay_cycles
            + self.spike_cycles
            + self.failover_cycles;
        let tol = 1e-6 * (1.0 + self.cycles.abs() + parts.abs());
        if (parts - self.fault_overhead_cycles).abs() > tol {
            return Err(format!(
                "fault-overhead components (failed {} + checkpoint {} + replay {} + spike {} + \
                 failover {} = {parts}) do not sum to fault_overhead_cycles {}",
                self.failed_attempt_cycles,
                self.checkpoint_cycles,
                self.replay_cycles,
                self.spike_cycles,
                self.failover_cycles,
                self.fault_overhead_cycles
            ));
        }
        if self.fault_overhead_cycles > self.cycles + tol {
            return Err(format!(
                "fault_overhead_cycles {} exceeds total wall cycles {}",
                self.fault_overhead_cycles, self.cycles
            ));
        }
        Ok(())
    }

    /// Panics unless [`LaunchStats::check_billing`] passes — the
    /// executor-facing form of the accounting assertion.
    ///
    /// # Panics
    ///
    /// When the billing invariant is violated.
    pub fn assert_billing(&self) {
        if let Err(msg) = self.check_billing() {
            panic!("launch-stats billing invariant violated: {msg}");
        }
    }

    /// Fraction of memory access instructions that coalesced perfectly
    /// (2 transactions per warp access = fully coalesced; higher ratios
    /// mean serialization). Returns `None` when no accesses happened.
    #[must_use]
    pub fn transactions_per_access(&self) -> Option<f64> {
        if self.mem_access_insts == 0 {
            None
        } else {
            Some(self.mem_transactions as f64 / self.mem_access_insts as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_time() {
        let mut a = LaunchStats {
            cycles: 100.0,
            time_secs: 1e-6,
            launches: 1,
            warp_instructions: 10,
            mem_transactions: 4,
            ..LaunchStats::default()
        };
        let b = LaunchStats {
            cycles: 50.0,
            time_secs: 5e-7,
            launches: 2,
            warp_instructions: 5,
            mem_transactions: 2,
            fault_overhead_cycles: 8.0,
            failover_cycles: 8.0,
            ..LaunchStats::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 150.0);
        assert_eq!(a.launches, 3);
        assert_eq!(a.warp_instructions, 15);
        assert_eq!(a.mem_transactions, 6);
        assert_eq!(a.failover_cycles, 8.0);
        a.assert_billing();
    }

    #[test]
    fn billing_invariant_accepts_consistent_and_rejects_inconsistent_splits() {
        let good = LaunchStats {
            cycles: 1_000.0,
            fault_overhead_cycles: 300.0,
            failed_attempt_cycles: 100.0,
            checkpoint_cycles: 90.0,
            replay_cycles: 40.0,
            spike_cycles: 30.0,
            failover_cycles: 40.0,
            ..LaunchStats::default()
        };
        good.assert_billing();
        assert_eq!(good.productive_cycles(), 700.0);

        let leaky = LaunchStats {
            failed_attempt_cycles: 0.0,
            ..good.clone()
        };
        assert!(leaky.check_billing().is_err(), "components must sum");

        let overdrawn = LaunchStats {
            cycles: 200.0,
            ..good
        };
        assert!(
            overdrawn.check_billing().is_err(),
            "overhead must not exceed wall cycles"
        );
    }

    #[test]
    fn transactions_per_access_handles_zero() {
        assert_eq!(LaunchStats::default().transactions_per_access(), None);
        let s = LaunchStats {
            mem_access_insts: 4,
            mem_transactions: 8,
            ..LaunchStats::default()
        };
        assert_eq!(s.transactions_per_access(), Some(2.0));
    }
}
