//! The timing model: counted work → cycles → seconds.
//!
//! Every constant lives here so that EXPERIMENTS.md can document the whole
//! calibration in one place. The model is analytical but driven entirely by
//! *measured* per-instance counters (warp instructions actually issued,
//! transactions actually generated by the observed addresses), so the
//! relative behaviour of schedules — the thing the paper's figures compare —
//! comes from mechanism, not from tuning.

use serde::Serialize;

use crate::stats::InstanceStats;
use crate::SimError;

/// Wall-clock watchdog interval: a kernel that makes no progress for this
/// long is killed. Models the CUDA-era display watchdog (~2 s on the
/// paper's driver stack).
pub const WATCHDOG_SECS: f64 = 2.0;

/// Where the pre-launch snapshot of stateful filters' state words lives,
/// and therefore what a checkpoint/restore pair costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum CheckpointMode {
    /// Capture reads the state words back to the host before every launch
    /// and restore writes them back over PCIe: each direction pays the
    /// fixed host-transfer latency plus a per-word cost.
    #[default]
    HostRoundTrip,
    /// The state words are double-buffered on the device: every launch
    /// commits the live state to the alternate buffer with one extra
    /// device-side state write, and restore copies the last committed
    /// buffer back — no host round trip on either path.
    DeviceDoubleBuffered,
}

impl std::fmt::Display for CheckpointMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CheckpointMode::HostRoundTrip => "host-round-trip",
            CheckpointMode::DeviceDoubleBuffered => "device-double-buffered",
        })
    }
}

/// Cycle-level cost parameters of the modeled device.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingModel {
    /// Shader (scalar unit) clock in Hz.
    pub clock_hz: f64,
    /// Cycles to issue one warp-wide instruction (warp 32 / 8 SUs = 4).
    pub issue_cycles: f64,
    /// Device-memory round-trip latency in cycles (the paper: "400–600
    /// cycle latency of the global memory").
    pub mem_latency: f64,
    /// Device-wide bus occupancy per 64-byte transaction, in shader
    /// cycles: 64 B at ~62 GB/s is ~1.03 ns = ~1.7 cycles at 1.625 GHz.
    pub bus_cycles_per_transaction: f64,
    /// Extra cycles per shared-memory bank-conflict pass.
    pub bank_conflict_cycles: f64,
    /// Fixed cycles per kernel launch (driver + dispatch; ~10 µs on the
    /// era's CUDA stack). Coarsening the software pipeline amortizes this
    /// (Figure 11).
    pub launch_overhead_cycles: f64,
    /// Cycles per block's worth of scheduling overhead inside a launch.
    pub block_overhead_cycles: f64,
    /// Fixed cycles per instance execution on an SM (barrier + staging
    /// predicate dispatch in the generated kernel). Larger per-filter
    /// thread counts amortize this — one force behind the profiling
    /// phase's preference for high SMT degrees.
    pub instance_overhead_cycles: f64,
    /// Memory-level parallelism per warp: independent loads a warp keeps
    /// in flight (compiler-scheduled load batching + the G80 scoreboard).
    /// Divides the per-warp latency chain.
    pub mlp: f64,
    /// Fixed cycles per host↔device transfer (PCIe round-trip setup +
    /// driver synchronisation, ~5 µs on the era's stack). Paid once per
    /// checkpoint capture and once per restore in
    /// [`CheckpointMode::HostRoundTrip`].
    pub host_transfer_latency_cycles: f64,
    /// Incremental cycles per 32-bit word of a host↔device transfer.
    pub host_transfer_cycles_per_word: f64,
    /// Cycles per 32-bit word of a device-side state copy (one read +
    /// one write through global memory) — the per-launch commit cost of
    /// [`CheckpointMode::DeviceDoubleBuffered`].
    pub state_commit_cycles_per_word: f64,
    /// Fixed cycles to begin capturing a steady-state execution graph:
    /// the driver round trips that set up stream capture and instantiate
    /// the executable graph. Paid once per capture, never per replay.
    pub graph_capture_base_cycles: f64,
    /// Incremental capture cycles per recorded node (one deferred launch
    /// record each).
    pub graph_capture_cycles_per_node: f64,
    /// Incremental capture cycles per recorded event edge (event create
    /// + record + wait wiring).
    pub graph_capture_cycles_per_edge: f64,
    /// Fixed cycles per replay of a captured graph: one doorbell write
    /// instead of a full driver launch path — node starts are gated by
    /// on-device events, not host dispatch. This is the whole point of
    /// graph dispatch: it replaces [`TimingModel::launch_overhead_cycles`]
    /// (~16 000 cycles) in the steady state.
    pub graph_replay_overhead_cycles: f64,
}

impl TimingModel {
    /// Calibration for the GeForce 8800 GTS 512.
    #[must_use]
    pub fn gts512() -> TimingModel {
        TimingModel {
            clock_hz: 1.625e9,
            issue_cycles: 4.0,
            mem_latency: 450.0,
            bus_cycles_per_transaction: 1.7,
            bank_conflict_cycles: 4.0,
            launch_overhead_cycles: 16_000.0,
            block_overhead_cycles: 200.0,
            instance_overhead_cycles: 300.0,
            mlp: 4.0,
            host_transfer_latency_cycles: 8_000.0,
            host_transfer_cycles_per_word: 4.0,
            state_commit_cycles_per_word: 8.0,
            graph_capture_base_cycles: 24_000.0,
            graph_capture_cycles_per_node: 600.0,
            graph_capture_cycles_per_edge: 150.0,
            graph_replay_overhead_cycles: 400.0,
        }
    }

    /// Busy cycles one SM spends executing one instance.
    ///
    /// `max(throughput bound, latency bound)`:
    ///
    /// * throughput: every issued warp instruction costs
    ///   [`TimingModel::issue_cycles`], plus bank-conflict passes;
    /// * latency: one warp's serial chain — its share of compute plus one
    ///   memory round-trip per memory access instruction it issues. With
    ///   `W` resident warps the other `W−1` warps hide that latency, which
    ///   is exactly the SMT effect the paper's profiling phase searches
    ///   for: more threads → more warps → smaller per-warp chain.
    #[must_use]
    pub fn instance_cycles(&self, s: &InstanceStats) -> f64 {
        let w = f64::from(s.warps.max(1));
        let compute = s.warp_instructions as f64 * self.issue_cycles
            + s.bank_conflict_passes as f64 * self.bank_conflict_cycles;
        // A perfectly coalesced warp access is two 64-byte transactions;
        // serialized accesses issue up to 32, each a full round trip, so
        // the latency chain is driven by transactions, floored by the
        // access count.
        let accesses = (s.mem_access_insts + s.spill_access_insts) as f64;
        let eff_accesses = accesses.max((s.mem_transactions + s.spill_transactions) as f64 / 2.0);
        let latency_chain = eff_accesses / w / self.mlp.max(1.0) * self.mem_latency + compute / w;
        compute.max(latency_chain) + self.instance_overhead_cycles
    }

    /// Total launch cycles: the slowest SM or the device-wide bandwidth
    /// bound, whichever binds, plus fixed launch overhead.
    #[must_use]
    pub fn launch_cycles(&self, per_sm: &[f64], total_transactions: u64, blocks: u64) -> f64 {
        let sm_bound = per_sm.iter().copied().fold(0.0f64, f64::max);
        let bus_bound = total_transactions as f64 * self.bus_cycles_per_transaction;
        sm_bound.max(bus_bound)
            + self.launch_overhead_cycles
            + blocks as f64 * self.block_overhead_cycles
    }

    /// Total cycles for one replay of a captured graph: identical SM /
    /// bus / block economics to [`TimingModel::launch_cycles`] — the
    /// device does the same work — but the fixed host launch path is
    /// replaced by the near-zero replay doorbell.
    #[must_use]
    pub fn replay_cycles(&self, per_sm: &[f64], total_transactions: u64, blocks: u64) -> f64 {
        let sm_bound = per_sm.iter().copied().fold(0.0f64, f64::max);
        let bus_bound = total_transactions as f64 * self.bus_cycles_per_transaction;
        sm_bound.max(bus_bound)
            + self.graph_replay_overhead_cycles
            + blocks as f64 * self.block_overhead_cycles
    }

    /// One-time cost of capturing a steady-state graph of `nodes`
    /// instance nodes and `edges` event edges. Amortized over every
    /// replay of the capture.
    #[must_use]
    pub fn graph_capture_cycles(&self, nodes: u64, edges: u64) -> f64 {
        self.graph_capture_base_cycles
            + nodes as f64 * self.graph_capture_cycles_per_node
            + edges as f64 * self.graph_capture_cycles_per_edge
    }

    /// Per-replay launch-path savings graph dispatch buys: the host
    /// launch overhead a replay does *not* pay, minus the doorbell it
    /// does.
    #[must_use]
    pub fn replay_savings_cycles(&self) -> f64 {
        (self.launch_overhead_cycles - self.graph_replay_overhead_cycles).max(0.0)
    }

    /// Converts cycles to seconds.
    #[must_use]
    pub fn secs(&self, cycles: f64) -> f64 {
        cycles / self.clock_hz
    }

    /// Instruction budget implied by the watchdog interval: the
    /// warp-instructions the device could issue in `WATCHDOG_SECS` at
    /// full rate. A kernel that exhausts this budget cannot be making
    /// forward progress on any launch this simulator models.
    #[must_use]
    pub fn watchdog_budget_insts(&self) -> u64 {
        (self.clock_hz * WATCHDOG_SECS / self.issue_cycles.max(1.0)) as u64
    }

    /// Cycles a failed launch attempt truthfully costs the pipeline, by
    /// failure mode:
    ///
    /// * a rejected launch burns one driver round trip (the fixed launch
    ///   overhead);
    /// * a detected memory fault burns the launch overhead plus the
    ///   aborted prefix's block dispatch;
    /// * a watchdog kill burns the full watchdog interval — the device
    ///   sat on the hung kernel until the budget ran out — plus the
    ///   launch overhead.
    #[must_use]
    pub fn failed_attempt_cycles(&self, err: &SimError) -> f64 {
        match err {
            SimError::LaunchFailed { .. } => self.launch_overhead_cycles,
            SimError::MemFault { .. } => self.launch_overhead_cycles + self.block_overhead_cycles,
            SimError::WatchdogTimeout { budget, .. } => {
                *budget as f64 * self.issue_cycles + self.launch_overhead_cycles
            }
            _ => 0.0,
        }
    }

    /// Cycles a failed *replay* attempt truthfully costs: like
    /// [`TimingModel::failed_attempt_cycles`], but the fixed driver
    /// launch path a host attempt burns is replaced by the replay
    /// doorbell — a rejected replay is cheap, while a watchdog kill
    /// still burns the whole hang budget.
    #[must_use]
    pub fn failed_replay_attempt_cycles(&self, err: &SimError) -> f64 {
        match err {
            SimError::LaunchFailed { .. } => self.graph_replay_overhead_cycles,
            SimError::MemFault { .. } => {
                self.graph_replay_overhead_cycles + self.block_overhead_cycles
            }
            SimError::WatchdogTimeout { budget, .. } => {
                *budget as f64 * self.issue_cycles + self.graph_replay_overhead_cycles
            }
            _ => 0.0,
        }
    }

    /// Cycles to capture `words` state words to the host (one
    /// device→host transfer). Zero words cost nothing: there is no state
    /// to checkpoint and no transfer happens.
    #[must_use]
    pub fn checkpoint_capture_cycles(&self, words: u64) -> f64 {
        if words == 0 {
            0.0
        } else {
            self.host_transfer_latency_cycles + words as f64 * self.host_transfer_cycles_per_word
        }
    }

    /// Cycles to restore `words` state words from the host (one
    /// host→device transfer) — symmetric with
    /// [`TimingModel::checkpoint_capture_cycles`].
    #[must_use]
    pub fn checkpoint_restore_cycles(&self, words: u64) -> f64 {
        self.checkpoint_capture_cycles(words)
    }

    /// Cycles for a device-side copy of `words` state words: the
    /// double-buffered commit (live → shadow before each launch) and the
    /// double-buffered restore (shadow → live after a transient fault)
    /// both pay exactly this.
    #[must_use]
    pub fn state_copy_cycles(&self, words: u64) -> f64 {
        words as f64 * self.state_commit_cycles_per_word
    }

    /// Expected checkpoint cycles per launch in `mode`, given the state
    /// footprint and the expected number of restores per launch (from the
    /// fault plan's transient rates): one capture/commit per launch plus
    /// `expected_restores` restore copies.
    #[must_use]
    pub fn checkpoint_cycles_per_launch(
        &self,
        mode: CheckpointMode,
        words: u64,
        expected_restores: f64,
    ) -> f64 {
        match mode {
            CheckpointMode::HostRoundTrip => {
                self.checkpoint_capture_cycles(words)
                    + expected_restores * self.checkpoint_restore_cycles(words)
            }
            CheckpointMode::DeviceDoubleBuffered => {
                (1.0 + expected_restores) * self.state_copy_cycles(words)
            }
        }
    }

    /// Expected checkpoint-protocol cycles per launch when state commits
    /// every `k` launches instead of every launch.
    ///
    /// The commit amortizes (`commit / k`) but a transient fault inside
    /// the window now pays a restore *plus* the replay of every launch
    /// committed since the last checkpoint — `(k − 1) / 2` launches in
    /// expectation for a fault uniform over the window, each re-executed
    /// at `mean_launch_cycles`. `fault_rate` is the observed per-launch
    /// transient-fault probability (not the planned one): the controller
    /// feeds back what the device actually did.
    #[must_use]
    pub fn checkpoint_interval_cycles_per_launch(
        &self,
        mode: CheckpointMode,
        words: u64,
        fault_rate: f64,
        mean_launch_cycles: f64,
        k: u64,
    ) -> f64 {
        let k = k.max(1) as f64;
        let (commit, restore) = match mode {
            CheckpointMode::HostRoundTrip => (
                self.checkpoint_capture_cycles(words),
                self.checkpoint_restore_cycles(words),
            ),
            CheckpointMode::DeviceDoubleBuffered => {
                (self.state_copy_cycles(words), self.state_copy_cycles(words))
            }
        };
        commit / k + fault_rate.max(0.0) * (restore + (k - 1.0) / 2.0 * mean_launch_cycles.max(0.0))
    }

    /// The commit interval `k ∈ 1..=k_max` minimizing the expected
    /// per-launch checkpoint + replay cost under the *observed* fault
    /// rate. Stateless programs (zero words) always prefer `k = 1`:
    /// commits are free, so spacing them only buys replay exposure. Ties
    /// resolve to the smaller k (less replay exposure for the same
    /// expected cost).
    #[must_use]
    pub fn preferred_checkpoint_interval(
        &self,
        mode: CheckpointMode,
        words: u64,
        fault_rate: f64,
        mean_launch_cycles: f64,
        k_max: u64,
    ) -> u64 {
        let mut best = 1u64;
        let mut best_cost = f64::INFINITY;
        for k in 1..=k_max.max(1) {
            let cost = self.checkpoint_interval_cycles_per_launch(
                mode,
                words,
                fault_rate,
                mean_launch_cycles,
                k,
            );
            if cost < best_cost - 1e-9 {
                best_cost = cost;
                best = k;
            }
        }
        best
    }

    /// The cheaper checkpoint mode for this state footprint and expected
    /// restore rate. With no state words both modes are free and the
    /// host round trip wins by default (no shadow buffer to allocate);
    /// otherwise whichever expected per-launch cost is lower.
    #[must_use]
    pub fn preferred_checkpoint_mode(&self, words: u64, expected_restores: f64) -> CheckpointMode {
        if words == 0 {
            return CheckpointMode::HostRoundTrip;
        }
        let rt = self.checkpoint_cycles_per_launch(
            CheckpointMode::HostRoundTrip,
            words,
            expected_restores,
        );
        let db = self.checkpoint_cycles_per_launch(
            CheckpointMode::DeviceDoubleBuffered,
            words,
            expected_restores,
        );
        if db < rt {
            CheckpointMode::DeviceDoubleBuffered
        } else {
            CheckpointMode::HostRoundTrip
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::gts512()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(warps: u32, insts: u64, accesses: u64) -> InstanceStats {
        InstanceStats {
            warps,
            warp_instructions: insts,
            mem_access_insts: accesses,
            ..InstanceStats::default()
        }
    }

    #[test]
    fn more_warps_hide_latency() {
        let m = TimingModel::gts512();
        // Same total work split across 1 vs 8 warps.
        let t1 = m.instance_cycles(&stats(1, 80, 8));
        let t8 = m.instance_cycles(&stats(8, 80, 8));
        assert!(t8 < t1, "8 warps ({t8}) should beat 1 warp ({t1})");
    }

    #[test]
    fn compute_bound_when_enough_warps() {
        let m = TimingModel::gts512();
        // Lots of compute, one access, many warps: throughput bound.
        let s = stats(16, 10_000, 16);
        let c = m.instance_cycles(&s);
        assert!((c - (40_000.0 + m.instance_overhead_cycles)).abs() < 1.0);
    }

    #[test]
    fn launch_includes_overhead_and_bus_bound() {
        let m = TimingModel::gts512();
        let quiet = m.launch_cycles(&[100.0, 50.0], 0, 2);
        assert!(
            (quiet - (100.0 + m.launch_overhead_cycles + 2.0 * m.block_overhead_cycles)).abs()
                < 1e-9
        );
        // Huge transaction count makes the bus the bottleneck.
        let busy = m.launch_cycles(&[100.0], 1_000_000, 1);
        assert!(busy > 1_000_000.0);
    }

    #[test]
    fn replay_is_cheap_and_capture_amortizes_in_a_few_replays() {
        let m = TimingModel::gts512();
        let host = m.launch_cycles(&[100.0], 0, 2);
        let replay = m.replay_cycles(&[100.0], 0, 2);
        assert!(
            (host - replay - m.replay_savings_cycles()).abs() < 1e-9,
            "replay must save exactly the launch-path delta: host {host}, replay {replay}"
        );
        // A 10-node, 4-edge capture pays for itself within two replays
        // at the stock calibration — the steady state of every pipelined
        // benchmark replays far more often than that.
        let cap = m.graph_capture_cycles(10, 4);
        assert!(cap < 2.0 * m.replay_savings_cycles(), "capture {cap}");
        // Failed attempts: a rejected replay burns the doorbell, not the
        // driver path; a watchdog kill still burns the hang budget.
        let rejected = SimError::LaunchFailed { launch: 0 };
        assert!(m.failed_replay_attempt_cycles(&rejected) < m.failed_attempt_cycles(&rejected));
        let hung = SimError::WatchdogTimeout {
            budget: 1000,
            launch: 0,
        };
        assert!(
            m.failed_replay_attempt_cycles(&hung) >= 1000.0 * m.issue_cycles,
            "a hung replay still burned the watchdog budget"
        );
    }

    #[test]
    fn secs_uses_clock() {
        let m = TimingModel::gts512();
        assert!((m.secs(1.625e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn checkpoint_costs_scale_with_words_and_zero_state_is_free() {
        let m = TimingModel::gts512();
        assert_eq!(m.checkpoint_capture_cycles(0), 0.0);
        assert_eq!(m.state_copy_cycles(0), 0.0);
        let one = m.checkpoint_capture_cycles(1);
        let many = m.checkpoint_capture_cycles(100);
        assert!(one >= m.host_transfer_latency_cycles);
        assert!(many > one);
        assert!((many - one - 99.0 * m.host_transfer_cycles_per_word).abs() < 1e-9);
        assert_eq!(
            m.checkpoint_restore_cycles(8),
            m.checkpoint_capture_cycles(8)
        );
    }

    #[test]
    fn double_buffering_beats_host_round_trip_for_small_state() {
        // A handful of state words: the host transfer is dominated by its
        // fixed latency, the device copy by its per-word cost — double
        // buffering must win, and the preference function must say so.
        let m = TimingModel::gts512();
        for restores in [0.0, 0.1, 2.0] {
            let rt = m.checkpoint_cycles_per_launch(CheckpointMode::HostRoundTrip, 4, restores);
            let db =
                m.checkpoint_cycles_per_launch(CheckpointMode::DeviceDoubleBuffered, 4, restores);
            assert!(
                db < rt,
                "db {db} should beat rt {rt} at {restores} restores"
            );
        }
        assert_eq!(
            m.preferred_checkpoint_mode(4, 0.5),
            CheckpointMode::DeviceDoubleBuffered
        );
        assert_eq!(
            m.preferred_checkpoint_mode(0, 0.5),
            CheckpointMode::HostRoundTrip
        );
    }

    #[test]
    fn interval_model_spaces_commits_at_low_fault_rates_only() {
        let m = TimingModel::gts512();
        let words = 16;
        let launch = 20_000.0;
        // Low observed fault rate: the commit amortization dominates the
        // replay exposure, so the model spreads commits out.
        let low =
            m.preferred_checkpoint_interval(CheckpointMode::HostRoundTrip, words, 0.001, launch, 4);
        assert!(low > 1, "low fault rate should space commits, got k={low}");
        // A near-certain fault per launch: every skipped commit costs a
        // replay, so committing every launch wins.
        let high =
            m.preferred_checkpoint_interval(CheckpointMode::HostRoundTrip, words, 0.9, launch, 4);
        assert_eq!(high, 1, "high fault rate must commit every launch");
        // Stateless programs have free commits: nothing to amortize.
        assert_eq!(
            m.preferred_checkpoint_interval(CheckpointMode::HostRoundTrip, 0, 0.001, launch, 4),
            1
        );
        // k=1 degenerates to the per-launch cost model (no replay term).
        let per_launch = m.checkpoint_cycles_per_launch(CheckpointMode::HostRoundTrip, words, 0.05);
        let at_one = m.checkpoint_interval_cycles_per_launch(
            CheckpointMode::HostRoundTrip,
            words,
            0.05,
            launch,
            1,
        );
        assert!((per_launch - at_one).abs() < 1e-9);
    }

    #[test]
    fn host_round_trip_wins_when_device_copies_are_expensive() {
        // Force the crossover: a per-word device copy costlier than the
        // whole transfer makes the round trip the modeled winner.
        let m = TimingModel {
            host_transfer_latency_cycles: 10.0,
            host_transfer_cycles_per_word: 1.0,
            state_commit_cycles_per_word: 1_000.0,
            ..TimingModel::gts512()
        };
        assert_eq!(
            m.preferred_checkpoint_mode(8, 0.0),
            CheckpointMode::HostRoundTrip
        );
    }
}
