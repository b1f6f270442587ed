//! The serving ledger and the two reports that are views of it.
//!
//! The serving loop ([`crate::fleet::FleetEngine`]) records each job once,
//! as a `Record` in its ledger: pushed when admission decides, filled in
//! when the job settles, rewritten by a failover. Nothing else
//! accumulates. [`ServeReport`] (one device's per-tenant view,
//! `BENCH_serve.json`) and [`FleetReport`] (the fleet's per-device view,
//! `BENCH_fleet.json`) are each one fold over the ledger plus the few
//! facts that are not per-job sums: the makespan bounds, the submitted
//! count, failover latencies, and the store's, router's, partitioner's
//! and controller's own counters.
//!
//! f64 sums are order-sensitive, so each fold fixes its order:
//! per-tenant sums run in settle order, which is per-tenant admission
//! order; compile-overlap windows are swept in global settle order; the
//! fleet merges billed stats in admission order (the ledger's own).

use std::collections::BTreeMap;
use std::sync::Arc;

use gpusim::LaunchStats;
use serde::Serialize;

use crate::exec::GpuRun;
use crate::pipeline::ResilientCompiled;
use crate::serve::cache::{CacheStats, Fetch, StoreStats};
use crate::serve::device_core::DeviceCore;
use crate::serve::partition::Slice;

/// One job's entry in the serving ledger.
pub(crate) struct Record {
    /// The submitting tenant (one shared name per tenant).
    pub(crate) tenant: Arc<str>,
    /// The job's index in its run's trace.
    pub(crate) job: usize,
    /// The device whose admission rejected the job, or that it was
    /// dispatched to and settled on.
    pub(crate) device: u32,
    /// Arrival instant.
    pub(crate) arrival: f64,
    pub(crate) fate: Fate,
}

/// What became of a job, as far as the loop has got.
pub(crate) enum Fate {
    /// Rejected by admission control.
    Rejected { retry_after_secs: f64 },
    /// Admitted on a store miss; waits for its compile.
    Waiting,
    /// Dispatched but never run: refused for carrying no isolation
    /// certificate (`certified == false`), or its execution failed.
    Refused { certified: bool },
    /// Executed.
    Served(Box<Service>),
}

/// Where admission placed a job, beyond its record's device.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Placed {
    /// The tenant's static home device.
    pub(crate) home: u32,
    /// The width the job compiles at and the base SM it is placed at
    /// (SM 0 for a guest: placement is semantics-preserving).
    pub(crate) slice: Slice,
    pub(crate) rerouted: bool,
    pub(crate) key: u64,
}

/// One executed job: its placement, service window and run.
#[derive(Default)]
pub(crate) struct Service {
    /// Position in the ledger's settle order.
    pub(crate) seq: u64,
    pub(crate) placed: Placed,
    pub(crate) fetch: Fetch,
    /// Scheduler searches its store-miss compile paid for (0 on a hit).
    pub(crate) searches: u64,
    /// When its artifact came to exist (−∞: before the run).
    pub(crate) artifact_ready: f64,
    /// Queueing ends at `start`; the head (fetch or compile) runs from
    /// `head_start`, execution on device `on` from `exec_start`.
    pub(crate) start: f64,
    pub(crate) head_start: f64,
    pub(crate) exec_start: f64,
    pub(crate) finish: f64,
    /// The head's seconds as computed; with the run's `time_secs` they
    /// are the busy time (`finish − head_start` rounds differently).
    pub(crate) head_secs: f64,
    pub(crate) tokens: u64,
    /// The run, its stats billed with any failover overhead. The verdict
    /// takes its outputs, and releases the artifact.
    pub(crate) run: GpuRun,
    pub(crate) artifact: Option<Arc<ResilientCompiled>>,
    pub(crate) on: u32,
    /// The launch execution last (re)started from, and how often.
    pub(crate) trace_base: usize,
    pub(crate) failed_over: u32,
    /// Retry hint of a job a failover had nowhere to move.
    pub(crate) abandoned: Option<f64>,
}

impl Record {
    /// The job's service, once it executed.
    pub(crate) fn service(&self) -> Option<&Service> {
        match &self.fate {
            Fate::Served(s) => Some(s),
            _ => None,
        }
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

/// `num / den`, or 0 when `den` is 0: a rate over nothing reads 0, not
/// NaN.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
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
    /// Observed retries per launch — the serving-time measurement of the
    /// fault rate the compile-time [`crate::pipeline::FaultPolicy`]
    /// reasons about.
    pub retry_rate: f64,
    /// Fraction of simulated cycles spent on fault handling.
    pub fault_overhead_share: f64,
    /// Compilations served from the cache.
    pub compile_hits: u64,
    /// Compilations that ran the ladder.
    pub compile_misses: u64,
    /// Scheduler runs actually spent on this tenant's compilations (sum
    /// of [`crate::pipeline::DegradationReport::search_invocations`] over
    /// its cache-miss compiles; hits and disk reloads cost zero). Hit
    /// rate shows *whether* a compile was avoided; this shows what the
    /// misses that remained cost.
    pub search_invocations: u64,
    /// 99th-percentile queue wait (arrival → service start) in seconds.
    pub queue_wait_p99_secs: f64,
    /// Virtual seconds of this tenant's compile heads that overlapped
    /// other tenants' execution: each cache-miss compile window
    /// intersected with the union of every *other* tenant's execution
    /// intervals on the device.
    pub compile_overlap_secs: f64,
    /// Launch-path cycles across this tenant's completed jobs: host
    /// launch overhead plus graph-replay doorbells. Compare a
    /// graph-dispatched run against a host-launched run of the same trace
    /// to read off the launch-overhead savings.
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

/// Per-device row of the fleet report.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceReport {
    /// Device id.
    pub device: u32,
    /// Whether it survived the run.
    pub alive: bool,
    /// Jobs it finished.
    pub jobs_completed: u64,
    /// Virtual seconds of service it delivered.
    pub busy_secs: f64,
    /// Scheduler searches its store-miss compiles paid for.
    pub search_invocations: u64,
}

/// Aggregate fleet counters, serialized into `BENCH_fleet.json`.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Fleet size.
    pub devices: u32,
    /// Devices still alive at the end.
    pub devices_alive: u32,
    /// Last finish minus first arrival.
    pub makespan_secs: f64,
    /// Jobs submitted.
    pub jobs_submitted: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Jobs rejected (admission) or abandoned (no usable device).
    pub jobs_rejected: u64,
    /// Jobs neither completed nor rejected — zero by construction; the
    /// chaos tests assert it stays zero.
    pub jobs_lost: u64,
    /// Output tokens per virtual second across the fleet.
    pub throughput_tokens_per_sec: f64,
    /// Median completed-job latency.
    pub p50_latency_secs: f64,
    /// Tail completed-job latency.
    pub p99_latency_secs: f64,
    /// Checkpoint-shipping failovers performed.
    pub failovers: u64,
    /// Median added latency per failover (new finish − old finish).
    pub failover_p50_secs: f64,
    /// Tail added latency per failover.
    pub failover_p99_secs: f64,
    /// Always 0: hedged dispatch is deleted. Kept, with `hedge_wins` and
    /// `hedge_cycles`, until the benchmark stops reading them.
    pub hedges: u64,
    /// Always 0 (see `hedges`).
    pub hedge_wins: u64,
    /// Total billed cycles.
    pub cycles: u64,
    /// Total fault-overhead cycles (all disjoint components).
    pub fault_overhead_cycles: u64,
    /// The failover share of the overhead.
    pub failover_cycles: u64,
    /// Always 0 (see `hedges`).
    pub hedge_cycles: u64,
    /// Launch-path cycles across completed jobs: host launch overhead
    /// for host-launched rounds, replay doorbells for captured-graph
    /// rounds. Graph dispatch shrinks this; compare against a
    /// host-launched run of the same trace for the savings.
    pub launch_path_cycles: u64,
    /// Steady-state rounds dispatched as captured-graph replays.
    pub graph_replays: u64,
    /// Graph captures paid for (one per graph-dispatched run, plus
    /// re-captures billed into `failover_cycles` when a device dies
    /// mid-replay and the survivor must rebuild the capture).
    pub graph_captures: u64,
    /// Cycles spent building captured graphs.
    pub graph_capture_cycles: u64,
    /// Artifacts dispatched across the fleet.
    pub artifacts: u64,
    /// The subset of `artifacts` carrying a verified tenant-isolation
    /// certificate; dispatch refuses the rest, so this equals
    /// `artifacts` on any completed run.
    pub certified: u64,
    /// Scheduler searches paid for across the fleet's store-miss
    /// compiles (sum of the per-device rows). Warming pushes this
    /// toward zero for a covered trace.
    pub search_invocations: u64,
    /// Artifact-store counters (hit rates, read-repairs, losses).
    pub store: StoreStats,
    /// Router decision-log length (the full log is available via
    /// [`crate::fleet::FleetEngine::router_log`]).
    pub router_decisions: u64,
    /// Per-device rows.
    pub per_device: Vec<DeviceReport>,
}

/// `(artifacts, certified)` over `records`: every dispatch counts as an
/// artifact, and every one that carried a certificate as certified.
fn dispatched<'a>(records: impl Iterator<Item = &'a Record>) -> (u64, u64) {
    records.fold((0, 0), |(a, c), r| match r.fate {
        Fate::Served(_) => (a + 1, c + 1),
        Fate::Refused { certified } => (a + 1, c + u64::from(certified)),
        Fate::Rejected { .. } | Fate::Waiting => (a, c),
    })
}

/// An executed job's record and service: one service window.
type Window<'a> = (&'a Record, &'a Service);

/// Virtual seconds of `[w0, w1)` covered by the union of *other*
/// tenants' execution intervals among `windows`.
fn overlap_with_others(windows: &[Window], tenant: &str, w0: f64, w1: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = (windows.iter())
        .filter(|(r, _)| *r.tenant != *tenant)
        .map(|(_, s)| (s.exec_start, s.finish))
        .filter(|&(s, e)| e > w0 && s < w1)
        .map(|(s, e)| (s.max(w0), e.min(w1)))
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = w0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

impl ServeReport {
    /// Device `device`'s view of `ledger` over `makespan` virtual
    /// seconds: one row per tenant that settled or was rejected there,
    /// with `core`'s slices, recuts and controller state and `cache` the
    /// store's counters. Each window that paid a head (a compile) is
    /// credited with the seconds of it other tenants' execution covered.
    pub(crate) fn of(
        ledger: &[Record],
        device: u32,
        core: &DeviceCore,
        makespan: f64,
        cache: CacheStats,
    ) -> ServeReport {
        let here = || ledger.iter().filter(|r| r.device == device);
        let mut windows: Vec<Window> = here().filter_map(|r| Some((r, r.service()?))).collect();
        windows.sort_by_key(|(_, s)| s.seq);
        // Per tenant: its jobs in settle order, and its rejections.
        let mut rows: BTreeMap<&str, (Vec<Window>, u64)> = BTreeMap::new();
        for &(r, s) in &windows {
            rows.entry(&r.tenant).or_default().0.push((r, s));
        }
        for r in here().filter(|r| matches!(r.fate, Fate::Rejected { .. })) {
            rows.entry(&r.tenant).or_default().1 += 1;
        }
        let span = makespan.max(f64::MIN_POSITIVE);
        let tenants: Vec<TenantReport> = (rows.into_iter())
            .map(|(name, (jobs, jobs_rejected))| {
                let count = |f: fn(&Service) -> u64| jobs.iter().map(|(_, s)| f(s)).sum::<u64>();
                let rounded = |f: fn(&LaunchStats) -> f64| {
                    (jobs.iter())
                        .map(|(_, s)| f(&s.run.stats).round() as u64)
                        .sum::<u64>()
                };
                let (launches, retries) = (count(|s| s.run.launches), count(|s| s.run.retries));
                let cycles = rounded(|st| st.cycles);
                let fault_overhead = rounded(|st| st.fault_overhead_cycles);
                let latencies: Vec<f64> = jobs.iter().map(|(r, s)| s.finish - r.arrival).collect();
                let waits: Vec<f64> = jobs.iter().map(|(r, s)| s.start - r.arrival).collect();
                let misses = jobs.iter().filter(|(_, s)| s.fetch == Fetch::Miss).count() as u64;
                TenantReport {
                    tenant: name.to_string(),
                    slice: core.partitioner.slice(name).unwrap_or_default(),
                    jobs_accepted: jobs.len() as u64,
                    jobs_rejected,
                    throughput_tokens_per_sec: count(|s| s.tokens) as f64 / span,
                    p50_latency_secs: percentile_of(&latencies, 0.50),
                    p99_latency_secs: percentile_of(&latencies, 0.99),
                    slice_utilization: (jobs.iter())
                        .fold(0.0, |busy, (_, s)| busy + (s.head_secs + s.run.time_secs))
                        / span,
                    retry_rate: ratio(retries, launches),
                    fault_overhead_share: ratio(fault_overhead, cycles),
                    compile_hits: jobs.len() as u64 - misses,
                    compile_misses: misses,
                    search_invocations: count(|s| s.searches),
                    queue_wait_p99_secs: percentile_of(&waits, 0.99),
                    compile_overlap_secs: (jobs.iter())
                        .filter(|(_, s)| s.exec_start > s.head_start)
                        .fold(0.0, |sum, (_, s)| {
                            sum + overlap_with_others(&windows, name, s.head_start, s.exec_start)
                        }),
                    launch_path_cycles: rounded(|st| st.launch_path_cycles),
                    graph_replays: count(|s| s.run.stats.graph_replays),
                    graph_captures: count(|s| s.run.stats.graph_captures),
                    graph_capture_cycles: rounded(|st| st.graph_capture_cycles),
                    policy_switches: core.controller.switches_for(name),
                    checkpoint_interval: core.controller.interval_for(name),
                }
            })
            .collect();
        let (artifacts, certified) = dispatched(here());
        ServeReport {
            makespan_secs: makespan,
            cache_hit_rate: cache.hit_rate(),
            cache,
            rebalances: core.partitioner.recut_log.len() as u64,
            policy_switches: tenants.iter().map(|t| t.policy_switches).sum(),
            artifacts,
            certified,
            compile_overlap_secs: tenants.iter().map(|t| t.compile_overlap_secs).sum(),
            launch_path_cycles: tenants.iter().map(|t| t.launch_path_cycles).sum(),
            graph_replays: tenants.iter().map(|t| t.graph_replays).sum(),
            tenants,
        }
    }
}

impl FleetReport {
    /// The fleet's view of `ledger` over devices whose liveness is
    /// `alive`: completed jobs totalled in admission order by the device
    /// that finished them, each dispatch's searches charged to the device
    /// that settled it. The rest is what the loop knows that is not a
    /// per-job sum: trace lengths `submitted`, the `makespan`, each
    /// failover's added latency, and the store's and router's counters.
    pub(crate) fn of(
        ledger: &[Record],
        alive: &[bool],
        submitted: u64,
        makespan: f64,
        failovers: &[f64],
        store: StoreStats,
        router_decisions: u64,
    ) -> FleetReport {
        let n = alive.len();
        let mut rows: Vec<DeviceReport> = (0..n)
            .map(|d| DeviceReport {
                device: d as u32,
                alive: alive[d],
                jobs_completed: 0,
                busy_secs: 0.0,
                search_invocations: 0,
            })
            .collect();
        let (mut completed, mut rejected, mut tokens) = (0u64, 0u64, 0u64);
        let mut latencies = Vec::new();
        let mut stats = LaunchStats::default();
        for r in ledger {
            match &r.fate {
                Fate::Rejected { .. } => rejected += 1,
                Fate::Waiting | Fate::Refused { .. } => {}
                Fate::Served(s) => {
                    rows[r.device as usize].search_invocations += s.searches;
                    if s.abandoned.is_some() {
                        rejected += 1;
                        continue;
                    }
                    completed += 1;
                    tokens += s.tokens;
                    latencies.push(s.finish - r.arrival);
                    stats.merge(&s.run.stats);
                    let row = &mut rows[s.on as usize];
                    row.jobs_completed += 1;
                    row.busy_secs += s.finish - s.exec_start;
                }
            }
        }
        let (artifacts, certified) = dispatched(ledger.iter());
        FleetReport {
            devices: n as u32,
            devices_alive: alive.iter().filter(|&&a| a).count() as u32,
            makespan_secs: makespan,
            jobs_submitted: submitted,
            jobs_completed: completed,
            jobs_rejected: rejected,
            jobs_lost: submitted - completed - rejected,
            throughput_tokens_per_sec: if makespan > 0.0 {
                tokens as f64 / makespan
            } else {
                0.0
            },
            p50_latency_secs: percentile_of(&latencies, 0.50),
            p99_latency_secs: percentile_of(&latencies, 0.99),
            failovers: failovers.len() as u64,
            failover_p50_secs: percentile_of(failovers, 0.50),
            failover_p99_secs: percentile_of(failovers, 0.99),
            hedges: 0,
            hedge_wins: 0,
            cycles: stats.cycles.round() as u64,
            fault_overhead_cycles: stats.fault_overhead_cycles.round() as u64,
            failover_cycles: stats.failover_cycles.round() as u64,
            hedge_cycles: 0,
            launch_path_cycles: stats.launch_path_cycles.round() as u64,
            graph_replays: stats.graph_replays,
            graph_captures: stats.graph_captures,
            graph_capture_cycles: stats.graph_capture_cycles.round() as u64,
            artifacts,
            certified,
            search_invocations: rows.iter().map(|d| d.search_invocations).sum(),
            store,
            router_decisions,
            per_device: rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeOptions;
    use gpusim::Device;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        /// `percentile_of` — the one percentile helper every consumer
        /// (both report folds, the fleet bench, the chaos harness)
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

    /// A job of `tenant` that arrived at 0, started at `start`, spent
    /// `head` compiling (0: a local hit), and finished at `finish`.
    fn served(tenant: &str, seq: u64, start: f64, head: f64, finish: f64) -> Record {
        let service = Service {
            seq,
            fetch: if head > 0.0 {
                Fetch::Miss
            } else {
                Fetch::LocalHit
            },
            start,
            head_start: start,
            exec_start: start + head,
            finish,
            head_secs: head,
            run: GpuRun {
                time_secs: finish - start - head,
                ..GpuRun::default()
            },
            ..Service::default()
        };
        Record {
            tenant: tenant.into(),
            job: 0,
            device: 0,
            arrival: 0.0,
            fate: Fate::Served(Box::new(service)),
        }
    }

    /// Device 0's view of `ledger` and its row of `tenant`.
    fn row(ledger: &[Record], tenant: &str) -> (ServeReport, TenantReport) {
        let opts = ServeOptions::default();
        let device = Device::solo(opts.device.clone(), opts.timing.clone());
        let core = DeviceCore::new(device, &opts, 1);
        let report = ServeReport::of(ledger, 0, &core, 10.0, CacheStats::default());
        let row = report.tenants.iter().find(|t| t.tenant == tenant).cloned();
        (report, row.expect("tenant has a row"))
    }

    #[test]
    fn retry_rate_is_retries_per_launch() {
        let mut ledger = vec![
            served("t", 0, 0.0, 0.0, 1.0),
            served("idle", 1, 0.0, 0.0, 1.0),
        ];
        if let Fate::Served(s) = &mut ledger[0].fate {
            (s.run.launches, s.run.retries) = (100, 7);
        }
        ledger[1].fate = Fate::Rejected {
            retry_after_secs: 1.0,
        };
        assert!((row(&ledger, "t").1.retry_rate - 0.07).abs() < 1e-12);
        // A tenant that never launched reads 0, not NaN, and its empty
        // latency sample reads 0 at every percentile.
        let idle = row(&ledger, "idle").1;
        assert_eq!((idle.jobs_accepted, idle.jobs_rejected), (0, 1));
        assert_eq!(idle.retry_rate, 0.0);
        assert_eq!((idle.p50_latency_secs, idle.p99_latency_secs), (0.0, 0.0));
        assert_eq!(percentile_of(&[], 0.5), 0.0);
    }

    #[test]
    fn percentiles_from_latencies() {
        let ledger: Vec<Record> = (1..=100)
            .map(|i| served("t", i, 0.0, 0.0, i as f64))
            .collect();
        let t = row(&ledger, "t").1;
        let (p50, p99) = (t.p50_latency_secs, t.p99_latency_secs);
        assert!((49.0..=52.0).contains(&p50), "p50 = {p50}");
        assert!((98.0..=100.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn report_rows_carry_queue_waits_and_compile_overlap() {
        // "t" queues 0.1, 0.9 and 0.4 s; its last job compiles for 1.25 s
        // while "o" executes throughout.
        let ledger = [
            served("o", 0, 0.0, 0.0, 10.0),
            served("t", 1, 0.1, 0.0, 0.2),
            served("t", 2, 0.9, 0.0, 1.0),
            served("t", 3, 0.4, 1.25, 2.0),
        ];
        let (report, t) = row(&ledger, "t");
        assert!((t.queue_wait_p99_secs - 0.9).abs() < 1e-12);
        assert!((t.compile_overlap_secs - 1.25).abs() < 1e-12);
        assert_eq!((t.compile_hits, t.compile_misses), (2, 1));
        assert!((report.compile_overlap_secs - 1.25).abs() < 1e-12);
    }

    #[test]
    fn overlap_union_does_not_double_count() {
        let ledger = [
            served("other", 0, 0.0, 0.0, 0.4),
            served("other2", 1, 0.2, 0.0, 0.6),
            served("me", 2, 0.0, 0.0, 10.0),
        ];
        let windows: Vec<Window> = ledger.iter().map(|r| (r, r.service().unwrap())).collect();
        // Window [0.1, 0.7): covered by the union [0.0,0.6) → 0.5, not
        // the 0.3+0.4 a per-interval sum would claim; "me"'s own run is
        // excluded.
        let overlap = overlap_with_others(&windows, "me", 0.1, 0.7);
        assert!((overlap - 0.5).abs() < 1e-12, "overlap = {overlap}");
    }
}
