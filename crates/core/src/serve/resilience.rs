//! Online adaptive resilience: the fault-rate controller and the chaos
//! storm generator.
//!
//! [`FaultController`] closes the fault loop at run time: it switches a
//! noisy Throughput tenant to [`FaultPolicy::TailLatency`]. Each
//! completed job feeds a per-tenant EWMA of the observed retry rate
//! (retries per launch — the serving-time measurement of the fault rate
//! the compile-time policy reasons about). When the EWMA crosses the
//! upper hysteresis band — the serve options' `retry_warn_threshold` —
//! the tenant is switched to TailLatency;
//! when it falls below the lower band (a configurable fraction of the
//! upper), it switches back. A dwell of `dwell_jobs` observations
//! between switches keeps a noisy tenant from thrashing the compile
//! cache with alternating policies.
//!
//! The same observation stream drives the checkpoint-interval choice:
//! the controller extends the timing model's checkpoint cost model
//! ([`TimingModel::preferred_checkpoint_interval`]) with the *observed*
//! fault rate and the tenant's observed mean launch cost, and the
//! engine runs each tenant at the argmin commit interval `k` — commits
//! amortize over `k` launches, recovery replays at most `k − 1`.
//!
//! The controller keeps no log: each observation returns what it
//! changed ([`Adjustment`]), and the serving loop records every change
//! as one entry of its timeline. Because observations arrive in the
//! loop's deterministic completion order and the EWMA is pure
//! arithmetic, two runs over the same trace and fault seed record
//! byte-identical changes — the chaos soak harness locks this down.
//!
//! [`ChaosStorm`] generates the adversarial fault environments the soak
//! harness runs under: bursty *hang trains* (consecutive attempt
//! ordinals pinned to [`FaultKind::Hang`], modeling a wedged SM that
//! trips the watchdog several launches in a row), correlated
//! *corruption clusters*, a background transient-failure rate, and an
//! optional mid-trace device *brownout* that shrinks the usable SM
//! range and forces the partitioner to recut. Storms are pure functions
//! of their seed.

use std::collections::BTreeMap;

use gpusim::{FaultKind, FaultPlan, TimingModel};

use crate::hash::splitmix64;
use crate::pipeline::FaultPolicy;
use crate::plan::CheckpointPlan;
use crate::serve::metrics::ratio;

/// EWMA smoothing weight of the newest per-job retry-rate sample.
const EWMA_ALPHA: f64 = 0.35;
/// Lower hysteresis band as a fraction of the upper band (the serve
/// options' `retry_warn_threshold`). A TailLatency override reverts to
/// Throughput only once the EWMA falls below `upper * HYSTERESIS_RATIO`,
/// so a rate hovering at the threshold cannot thrash.
const HYSTERESIS_RATIO: f64 = 0.3;
/// Largest commit interval the checkpoint cost model may choose.
const K_MAX: u64 = 4;

/// Configuration for the online fault-rate controller. Disabled by
/// default: an engine with `enabled: false` behaves byte- and
/// cycle-identically to one without any controller at all.
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// Master switch. When off, the controller never overrides a
    /// policy, always reports commit interval 1, and logs nothing.
    pub enabled: bool,
    /// Minimum completed jobs between switches for one tenant — both
    /// before the first switch (the EWMA needs evidence) and between
    /// consecutive ones (dwell).
    pub dwell_jobs: u64,
    /// Overrides every run's retry budget (attempts per launch,
    /// including the first). Chaos storms pin fault *trains* that a
    /// default budget of 3 could exhaust; soak configs raise it so a
    /// storm stresses recovery instead of killing the trace.
    pub retry_max_attempts: Option<u32>,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            enabled: false,
            dwell_jobs: 2,
            retry_max_attempts: None,
        }
    }
}

/// What one observation changed. Nothing changes under a disabled
/// controller.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Adjustment {
    /// The tenant's retry-rate EWMA after the observation.
    pub ewma: f64,
    /// `(from, to)` when the checkpoint commit interval changed.
    pub interval: Option<(u32, u32)>,
    /// The new policy when the observation switched it.
    pub policy: Option<FaultPolicy>,
}

/// Per-tenant controller state.
#[derive(Debug, Clone, Default)]
struct TenantControl {
    /// Retry-rate EWMA (`None` until the first observation).
    ewma: Option<f64>,
    /// The active policy override (`None` = the job's own QoS policy).
    policy: Option<FaultPolicy>,
    /// Observations since the last policy switch (or ever).
    jobs_since_switch: u64,
    /// The commit interval currently in force (0 = never chosen = 1).
    interval: u32,
}

/// The online fault-rate controller: retry-rate EWMAs, hysteretic
/// policy switching, and observed-rate checkpoint-interval selection.
#[derive(Debug, Clone)]
pub struct FaultController {
    opts: ResilienceOptions,
    timing: TimingModel,
    /// Upper hysteresis band — the serve options' warn threshold.
    upper_band: f64,
    tenants: BTreeMap<String, TenantControl>,
}

impl FaultController {
    /// A controller with `upper_band` as its switch-up threshold
    /// (the serve options pass their `retry_warn_threshold`).
    #[must_use]
    pub fn new(opts: ResilienceOptions, timing: TimingModel, upper_band: f64) -> FaultController {
        FaultController {
            opts,
            timing,
            upper_band: upper_band.max(0.0),
            tenants: BTreeMap::new(),
        }
    }

    /// Whether the controller acts at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.opts.enabled
    }

    /// The policy `tenant` should compile and run under right now:
    /// the controller's override when one is in force, else `default`
    /// (the job's own QoS policy).
    #[must_use]
    pub fn policy_for(&self, tenant: &str, default: FaultPolicy) -> FaultPolicy {
        if !self.opts.enabled {
            return default;
        }
        self.tenants
            .get(tenant)
            .and_then(|t| t.policy)
            .unwrap_or(default)
    }

    /// The checkpoint commit interval `tenant` should run at — the cost
    /// model's argmin under the observed fault rate, or 1 before any
    /// observation (and always 1 when disabled).
    #[must_use]
    pub fn interval_for(&self, tenant: &str) -> u32 {
        if !self.opts.enabled {
            return 1;
        }
        self.tenants.get(tenant).map_or(1, |t| t.interval.max(1))
    }

    /// The retry-budget override runs should use, when configured.
    #[must_use]
    pub fn max_attempts_override(&self) -> Option<u32> {
        if self.opts.enabled {
            self.opts.retry_max_attempts
        } else {
            None
        }
    }

    /// Feeds one completed job's launch/retry counters into the
    /// tenant's EWMA, re-derives the commit interval from the cost
    /// model, and applies the hysteresis rule. Returns what changed: the
    /// serving loop records an interval change, and for a policy switch
    /// also pre-spawns the recompile.
    ///
    /// Only tenants whose `default_policy` is Throughput are managed:
    /// an Interactive tenant's TailLatency is a QoS guarantee the
    /// controller must not trade away, and "switch back" below the
    /// lower band must never demote it.
    pub fn observe_job(
        &mut self,
        tenant: &str,
        launches: u64,
        retries: u64,
        productive_cycles: f64,
        checkpoint: &CheckpointPlan,
        default_policy: FaultPolicy,
    ) -> Adjustment {
        if !self.opts.enabled {
            return Adjustment::default();
        }
        let sample = ratio(retries, launches);
        let t = self.tenants.entry(tenant.to_string()).or_default();
        let ewma = match t.ewma {
            Some(e) => (1.0 - EWMA_ALPHA) * e + EWMA_ALPHA * sample,
            None => sample,
        };
        t.ewma = Some(ewma);
        t.jobs_since_switch += 1;

        // Commit-interval selection: the timing model's cost-per-launch
        // argmin at the *observed* rate and mean launch cost. Stateless
        // tenants (no words to commit) always run at 1.
        let mean_launch = if launches == 0 {
            0.0
        } else {
            productive_cycles / launches as f64
        };
        let k = if checkpoint.state_words == 0 {
            1
        } else {
            u32::try_from(self.timing.preferred_checkpoint_interval(
                checkpoint.mode,
                checkpoint.state_words,
                ewma,
                mean_launch,
                K_MAX,
            ))
            .unwrap_or(1)
        };
        let prev_k = t.interval.max(1);
        t.interval = k;
        let mut changed = Adjustment {
            ewma,
            interval: (k != prev_k).then_some((prev_k, k)),
            policy: None,
        };

        if default_policy != FaultPolicy::Throughput
            || t.jobs_since_switch < self.opts.dwell_jobs.max(1)
        {
            return changed;
        }
        let current = t.policy.unwrap_or(default_policy);
        let lower = self.upper_band * HYSTERESIS_RATIO;
        let switched = match current {
            FaultPolicy::Throughput if ewma > self.upper_band => Some(FaultPolicy::TailLatency),
            FaultPolicy::TailLatency if ewma < lower => Some(FaultPolicy::Throughput),
            _ => None,
        };
        if let Some(to) = switched {
            t.policy = Some(to);
            t.jobs_since_switch = 0;
        }
        changed.policy = switched;
        changed
    }
}

/// A mid-trace device brownout: at `at_secs` of virtual time the usable
/// SM range shrinks to `total_sms`, forcing the partitioner to recut
/// every tenant into the smaller device (and the cache to recompile at
/// the new slice widths).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutSpec {
    /// Virtual time the brownout takes effect.
    pub at_secs: f64,
    /// SMs that remain usable.
    pub total_sms: u32,
}

/// A seeded fault-storm description: everything the chaos soak harness
/// throws at a serving trace, derived purely from `seed` so the same
/// storm replays byte-identically.
#[derive(Debug, Clone)]
pub struct ChaosStorm {
    /// Seed for both the background rates and the burst placement.
    pub seed: u64,
    /// Attempt-ordinal horizon bursts are placed in. Fault ordinals are
    /// per-run (each job's device counts attempts from 0), so a horizon
    /// near a job's attempt count makes bursts *correlated across
    /// jobs* — the same storm hits every run the same way.
    pub horizon_attempts: u64,
    /// Bursty hang trains: runs of consecutive attempt ordinals pinned
    /// to [`FaultKind::Hang`].
    pub hang_trains: u32,
    /// Consecutive hang ordinals per train. A train hits one launch's
    /// successive attempts, so it must stay below the retry budget for
    /// jobs to survive.
    pub train_len: u32,
    /// Correlated corruption clusters (consecutive ordinals pinned to
    /// [`FaultKind::MemCorruption`]).
    pub corruption_clusters: u32,
    /// Consecutive corruption ordinals per cluster.
    pub cluster_len: u32,
    /// Background launch-failure rate, per mille per attempt.
    pub launch_failure_permille: u32,
    /// Background hang rate, per mille per attempt.
    pub hang_permille: u32,
    /// Background overhead-spike rate, per mille per attempt.
    pub spike_permille: u32,
    /// Optional mid-trace brownout.
    pub brownout: Option<BrownoutSpec>,
}

impl Default for ChaosStorm {
    fn default() -> Self {
        ChaosStorm {
            seed: 0xC4A0_55EE,
            horizon_attempts: 64,
            hang_trains: 2,
            train_len: 2,
            corruption_clusters: 2,
            cluster_len: 2,
            launch_failure_permille: 15,
            hang_permille: 0,
            spike_permille: 10,
            brownout: None,
        }
    }
}

impl ChaosStorm {
    /// The deterministic fault plan this storm injects: background
    /// rates plus pinned bursts at seed-derived attempt ordinals.
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        let horizon = self.horizon_attempts.max(1);
        let mut fp = FaultPlan::new(self.seed)
            .with_launch_failures(self.launch_failure_permille)
            .with_hangs(self.hang_permille)
            .with_overhead_spikes(self.spike_permille, 4.0);
        for train in 0..self.hang_trains {
            let base = splitmix64(self.seed ^ (0xA11 + u64::from(train))) % horizon;
            for j in 0..u64::from(self.train_len) {
                fp = fp.at_launch(base + j, FaultKind::Hang);
            }
        }
        for cluster in 0..self.corruption_clusters {
            let base = splitmix64(self.seed ^ (0xBEEF + u64::from(cluster))) % horizon;
            for j in 0..u64::from(self.cluster_len) {
                fp = fp.at_launch(base + j, FaultKind::MemCorruption);
            }
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::CheckpointMode;

    fn plan(words: u64) -> CheckpointPlan {
        CheckpointPlan {
            mode: CheckpointMode::HostRoundTrip,
            state_words: words,
            expected_restores: 0.0,
            host_round_trip_cycles: 0.0,
            double_buffered_cycles: 0.0,
        }
    }

    fn controller(enabled: bool) -> FaultController {
        FaultController::new(
            ResilienceOptions {
                enabled,
                dwell_jobs: 2,
                ..ResilienceOptions::default()
            },
            TimingModel::gts512(),
            0.05,
        )
    }

    /// The policy one observation switched to, if any.
    fn switch(
        c: &mut FaultController,
        retries: u64,
        p: &CheckpointPlan,
        qos: FaultPolicy,
    ) -> Option<FaultPolicy> {
        c.observe_job("t", 10, retries, 1e6, p, qos).policy
    }

    #[test]
    fn disabled_controller_is_inert() {
        let mut c = controller(false);
        assert_eq!(
            c.observe_job("t", 10, 9, 1e6, &plan(8), FaultPolicy::Throughput),
            Adjustment::default()
        );
        assert_eq!(
            c.policy_for("t", FaultPolicy::Throughput),
            FaultPolicy::Throughput
        );
        assert_eq!(c.interval_for("t"), 1);
    }

    #[test]
    fn hysteresis_switches_up_after_dwell_and_back_below_lower_band() {
        let mut c = controller(true);
        let (p, qos) = (plan(8), FaultPolicy::Throughput);
        // First noisy observation: EWMA over the band but dwell unmet.
        assert_eq!(switch(&mut c, 3, &p, qos), None);
        // Second: dwell satisfied, switch up.
        assert_eq!(switch(&mut c, 3, &p, qos), Some(FaultPolicy::TailLatency));
        assert_eq!(c.policy_for("t", qos), FaultPolicy::TailLatency);
        // Quiet observations: EWMA decays, but no back-switch until it
        // crosses the *lower* band (0.05 * 0.3 = 0.015) and dwells.
        let back: Vec<Adjustment> = (0..12)
            .map(|_| c.observe_job("t", 10, 0, 1e6, &p, qos))
            .filter(|a| a.policy.is_some())
            .collect();
        assert_eq!(back.len(), 1, "exactly one back-switch: {back:?}");
        assert_eq!(back[0].policy, Some(FaultPolicy::Throughput));
        assert!(back[0].ewma < 0.015, "{back:?}");
        assert_eq!(c.policy_for("t", qos), FaultPolicy::Throughput);
    }

    #[test]
    fn interactive_tenants_are_never_demoted() {
        let mut c = controller(true);
        let p = plan(8);
        for _ in 0..8 {
            assert_eq!(
                switch(&mut c, 0, &p, FaultPolicy::TailLatency),
                None,
                "a TailLatency-by-QoS tenant must never switch"
            );
        }
        assert_eq!(
            c.policy_for("t", FaultPolicy::TailLatency),
            FaultPolicy::TailLatency
        );
    }

    #[test]
    fn interval_tracks_the_cost_model_and_stays_one_for_stateless() {
        let mut c = controller(true);
        // Stateless: nothing to commit, k pinned at 1.
        let stateless = c.observe_job("s", 100, 0, 2e6, &plan(0), FaultPolicy::Throughput);
        assert_eq!((stateless.interval, c.interval_for("s")), (None, 1));
        // Stateful at a near-zero observed rate: commits amortize, k > 1,
        // and the observation reports the change.
        let first = c.observe_job("t", 100, 0, 2e6, &plan(16), FaultPolicy::Throughput);
        let k = c.interval_for("t");
        assert!(k > 1, "k = {k}");
        assert_eq!(first.interval, Some((1, k)));
        // Storm of retries: expected replay dominates, k collapses to 1.
        for _ in 0..6 {
            c.observe_job("t", 10, 9, 2e5, &plan(16), FaultPolicy::Throughput);
        }
        assert_eq!(c.interval_for("t"), 1);
    }

    #[test]
    fn storms_are_pure_functions_of_their_seed() {
        let a = ChaosStorm::default().fault_plan();
        let b = ChaosStorm::default().fault_plan();
        assert_eq!(a, b, "same seed, same storm");
        let c = ChaosStorm {
            seed: 7,
            ..ChaosStorm::default()
        }
        .fault_plan();
        assert_ne!(a, c, "different seed, different storm");
        // The storm actually pins bursts: some ordinal in the horizon
        // draws a hang even though the background hang rate is zero.
        let storm = ChaosStorm::default();
        let plan = storm.fault_plan();
        let hangs = (0..storm.horizon_attempts + u64::from(storm.train_len))
            .filter(|&a| plan.draw(a) == Some(FaultKind::Hang))
            .count();
        assert!(
            hangs >= storm.train_len as usize,
            "expected at least one full hang train, saw {hangs} hang ordinals"
        );
    }
}
