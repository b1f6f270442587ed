//! Per-tenant serving metrics and the serializable serve report.
//!
//! Counters accumulate as jobs finish; [`ServeReport`] snapshots them
//! into percentiles, rates, and utilization shares for JSON export
//! (`BENCH_serve.json`, dashboards, tests).

use serde::Serialize;

use crate::serve::cache::CacheStats;
use crate::serve::partition::Slice;

/// Running counters for one tenant.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Jobs admitted and completed.
    pub jobs_accepted: u64,
    /// Jobs rejected by admission control.
    pub jobs_rejected: u64,
    /// Output tokens produced across completed jobs.
    pub tokens_out: u64,
    /// Seconds the tenant's slice spent busy (modeled service time).
    pub busy_secs: f64,
    /// Kernel launches issued.
    pub launches: u64,
    /// Launch attempts that faulted and were re-issued.
    pub retries: u64,
    /// Simulated cycles across completed jobs.
    pub cycles: u64,
    /// The subset of `cycles` attributable to faults (retries,
    /// checkpoint restores and their protocol overhead).
    pub fault_overhead_cycles: u64,
    /// End-to-end latency (arrival → finish) of each completed job.
    pub latencies: Vec<f64>,
    /// Queue wait (arrival → service start) of each completed job.
    pub queue_waits: Vec<f64>,
    /// Compilations served from the cache.
    pub compile_hits: u64,
    /// Compilations that ran the ladder.
    pub compile_misses: u64,
    /// Scheduler runs actually spent on this tenant's compilations
    /// (sum of [`crate::pipeline::DegradationReport::search_invocations`]
    /// over its cache-miss compiles; hits and disk reloads cost zero).
    /// The observable that cache warming and the beam rung both move —
    /// hit rate shows *whether* a compile was avoided, this shows how
    /// much scheduler work the misses that remained actually cost.
    pub search_invocations: u64,
    /// Virtual seconds of this tenant's compile penalty that overlapped
    /// other tenants' execution: the intersection of each cache-miss
    /// compile window with the union of every *other* tenant's service
    /// intervals — the virtual-time measure of compilation hidden behind
    /// execution.
    pub compile_overlap_secs: f64,
    /// Cycles spent on the launch path across completed jobs: full host
    /// launch overhead for host-launched rounds, the doorbell cost for
    /// graph replays. The observable graph dispatch exists to shrink.
    pub launch_path_cycles: u64,
    /// Steady-state rounds dispatched as captured-graph replays.
    pub graph_replays: u64,
    /// One-time graph captures performed (once per graph-dispatched
    /// run, plus re-captures after device-loss failover).
    pub graph_captures: u64,
    /// Cycles spent building captured graphs — the one-time cost the
    /// replay savings must amortize.
    pub graph_capture_cycles: u64,
}

impl ServeMetrics {
    /// Observed retries per launch — the serving-time measurement of the
    /// fault rate the compile-time [`crate::pipeline::FaultPolicy`]
    /// reasons about.
    #[must_use]
    pub fn retry_rate(&self) -> f64 {
        if self.launches == 0 {
            0.0
        } else {
            self.retries as f64 / self.launches as f64
        }
    }

    fn percentile(&self, p: f64) -> f64 {
        percentile_of(&self.latencies, p)
    }
}

/// The `p`-quantile of `samples` by nearest-rank on a sorted copy
/// (0.0 when empty). Order-insensitive, so callers can push samples in
/// whatever order their clocks produce them.
#[must_use]
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One tenant's row of the serve report.
#[derive(Debug, Clone, Serialize)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// The SM slice the tenant held when the report was taken.
    pub slice: Slice,
    /// Jobs admitted and completed.
    pub jobs_accepted: u64,
    /// Jobs rejected by admission control.
    pub jobs_rejected: u64,
    /// Output tokens per second of makespan.
    pub throughput_tokens_per_sec: f64,
    /// Median end-to-end latency in seconds.
    pub p50_latency_secs: f64,
    /// 99th-percentile end-to-end latency in seconds.
    pub p99_latency_secs: f64,
    /// Fraction of the makespan the slice was busy.
    pub slice_utilization: f64,
    /// Observed retries per launch ([`ServeMetrics::retry_rate`]).
    pub retry_rate: f64,
    /// Fraction of simulated cycles spent on fault handling.
    pub fault_overhead_share: f64,
    /// Compilations served from the cache.
    pub compile_hits: u64,
    /// Compilations that ran the ladder.
    pub compile_misses: u64,
    /// Scheduler runs spent on this tenant's compiles
    /// ([`ServeMetrics::search_invocations`]).
    pub search_invocations: u64,
    /// 99th-percentile queue wait (arrival → service start) in seconds.
    pub queue_wait_p99_secs: f64,
    /// Virtual seconds of compile penalty hidden behind other tenants'
    /// execution ([`ServeMetrics::compile_overlap_secs`]).
    pub compile_overlap_secs: f64,
    /// Launch-path cycles across this tenant's completed jobs
    /// ([`ServeMetrics::launch_path_cycles`]): host launch overhead
    /// plus graph-replay doorbells. Compare a graph-dispatched run
    /// against a host-launched run of the same trace to read off the
    /// launch-overhead savings.
    pub launch_path_cycles: u64,
    /// Steady-state rounds dispatched as captured-graph replays.
    pub graph_replays: u64,
    /// One-time graph captures performed for this tenant.
    pub graph_captures: u64,
    /// Cycles spent on graph capture (amortized by the replays above).
    pub graph_capture_cycles: u64,
    /// Fault-policy switches the resilience controller performed for
    /// this tenant (0 under a disabled controller).
    pub policy_switches: u64,
    /// The checkpoint commit interval the tenant currently runs at —
    /// the controller's observed-rate cost-model choice, or 1.
    pub checkpoint_interval: u32,
}

/// The whole serving run, serializable to `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Virtual seconds from first arrival to last finish.
    pub makespan_secs: f64,
    /// Compilation-cache counters.
    pub cache: CacheStats,
    /// Aggregate cache hit rate, duplicated out of `cache` for easy
    /// plotting.
    pub cache_hit_rate: f64,
    /// Partition recuts performed by the demand-driven rebalancer.
    pub rebalances: u64,
    /// Fault-policy switches across all tenants (sum of the per-tenant
    /// [`TenantReport::policy_switches`]).
    pub policy_switches: u64,
    /// Artifacts dispatched onto the shared device.
    pub artifacts: u64,
    /// The subset of `artifacts` carrying a verified tenant-isolation
    /// certificate ([`crate::verify::isolate`]). Dispatch refuses
    /// uncertified artifacts, so this equals `artifacts` on any run that
    /// completed.
    pub certified: u64,
    /// Total compile penalty hidden behind execution across all tenants
    /// (sum of the per-tenant [`TenantReport::compile_overlap_secs`]).
    /// Positive whenever the engine overlapped a cache-miss compile with
    /// another tenant's run.
    pub compile_overlap_secs: f64,
    /// Total launch-path cycles across all tenants (sum of the
    /// per-tenant [`TenantReport::launch_path_cycles`]).
    pub launch_path_cycles: u64,
    /// Total captured-graph replays across all tenants.
    pub graph_replays: u64,
    /// Per-tenant rows, in tenant-name order.
    pub tenants: Vec<TenantReport>,
}

impl TenantReport {
    /// Builds one tenant's row from its counters.
    #[must_use]
    pub fn of(
        tenant: &str,
        metrics: &ServeMetrics,
        slice: Slice,
        makespan_secs: f64,
    ) -> TenantReport {
        let span = makespan_secs.max(f64::MIN_POSITIVE);
        TenantReport {
            tenant: tenant.to_string(),
            slice,
            jobs_accepted: metrics.jobs_accepted,
            jobs_rejected: metrics.jobs_rejected,
            throughput_tokens_per_sec: metrics.tokens_out as f64 / span,
            p50_latency_secs: metrics.percentile(0.50),
            p99_latency_secs: metrics.percentile(0.99),
            slice_utilization: metrics.busy_secs / span,
            retry_rate: metrics.retry_rate(),
            fault_overhead_share: if metrics.cycles == 0 {
                0.0
            } else {
                metrics.fault_overhead_cycles as f64 / metrics.cycles as f64
            },
            compile_hits: metrics.compile_hits,
            compile_misses: metrics.compile_misses,
            search_invocations: metrics.search_invocations,
            queue_wait_p99_secs: percentile_of(&metrics.queue_waits, 0.99),
            compile_overlap_secs: metrics.compile_overlap_secs,
            launch_path_cycles: metrics.launch_path_cycles,
            graph_replays: metrics.graph_replays,
            graph_captures: metrics.graph_captures,
            graph_capture_cycles: metrics.graph_capture_cycles,
            policy_switches: 0,
            checkpoint_interval: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        /// `percentile_of` — the one percentile helper every consumer
        /// (serve report, event engine, fleet bench, chaos harness)
        /// shares — agrees with a sort-based nearest-rank oracle on any
        /// sample multiset, at any quantile, under any input order.
        #[test]
        fn percentile_matches_sort_oracle(
            raw in prop::collection::vec(0u32..10_000, 0..64),
            pm in 0u32..101,
            rot in 0usize..64,
        ) {
            let p = f64::from(pm) / 100.0;
            let samples: Vec<f64> = raw.iter().map(|&v| f64::from(v) / 97.0).collect();
            let oracle = if samples.is_empty() {
                0.0
            } else {
                let mut s = samples.clone();
                s.sort_by(f64::total_cmp);
                s[((p * (s.len() - 1) as f64).round() as usize).min(s.len() - 1)]
            };
            prop_assert_eq!(percentile_of(&samples, p), oracle);
            // Order-insensitivity: rotations and reversals of the same
            // multiset answer identically.
            let mut rotated = samples.clone();
            if !rotated.is_empty() {
                let k = rot % rotated.len();
                rotated.rotate_left(k);
            }
            prop_assert_eq!(percentile_of(&rotated, p), oracle);
            let mut rev = samples;
            rev.reverse();
            prop_assert_eq!(percentile_of(&rev, p), oracle);
        }
    }

    #[test]
    fn retry_rate_is_retries_per_launch() {
        let mut m = ServeMetrics {
            launches: 100,
            retries: 7,
            ..ServeMetrics::default()
        };
        assert!((m.retry_rate() - 0.07).abs() < 1e-12);
        m.launches = 0;
        m.retries = 0;
        assert_eq!(m.retry_rate(), 0.0);
    }

    #[test]
    fn percentiles_from_latencies() {
        let m = ServeMetrics {
            latencies: (1..=100).map(f64::from).collect(),
            ..ServeMetrics::default()
        };
        let p50 = m.percentile(0.50);
        let p99 = m.percentile(0.99);
        assert!((49.0..=52.0).contains(&p50), "p50 = {p50}");
        assert!((98.0..=100.0).contains(&p99), "p99 = {p99}");
        assert!(p99.is_finite());
    }

    #[test]
    fn percentile_is_order_insensitive_and_report_carries_overlap() {
        let forward: Vec<f64> = (1..=50).map(f64::from).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        assert_eq!(
            percentile_of(&forward, 0.99),
            percentile_of(&reversed, 0.99)
        );
        assert_eq!(percentile_of(&[], 0.5), 0.0);

        let m = ServeMetrics {
            queue_waits: vec![0.1, 0.9, 0.4],
            compile_overlap_secs: 1.25,
            ..ServeMetrics::default()
        };
        let row = TenantReport::of(
            "t",
            &m,
            Slice {
                base_sm: 0,
                num_sms: 4,
            },
            10.0,
        );
        assert!((row.queue_wait_p99_secs - 0.9).abs() < 1e-12);
        assert!((row.compile_overlap_secs - 1.25).abs() < 1e-12);
    }
}
