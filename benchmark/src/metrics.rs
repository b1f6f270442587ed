//! The metric registry — every name this benchmark can print, with its
//! clock, unit, direction and (for end-to-end metrics) regression bound —
//! plus the small statistics the workloads share.
//!
//! `BENCHMARK.json` lists exactly these names; a unit test keeps the two
//! in step.

use std::collections::BTreeMap;

/// Which of the system's clocks a metric is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock of this process. Noisy; compared within a bound.
    Host,
    /// Simulated cycles from `gpusim` counters. Repeats bit-for-bit.
    Device,
    /// The serving engines' virtual seconds. Repeats bit-for-bit.
    Virt,
    /// A deterministic count or ratio of counts.
    Count,
}

impl Clock {
    /// Whether two runs of the same code and seed must agree exactly.
    pub fn deterministic(self) -> bool {
        !matches!(self, Clock::Host)
    }
}

/// One metric's static description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`. Declared for `BENCHMARK.json`, which a
    /// test keeps in step with this registry; the binary never branches
    /// on it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: Clock,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound,
    }
}

/// The end-to-end metrics. The contract this benchmark runs under wants
/// one list reported by every workload, so it holds the four that mean the
/// same thing on all six; the virtual-clock serving metrics and the
/// distance from the paper live with their layers in [`PER_LAYER`].
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower", Clock::Host, 0.25),
    m("host_s", "s", "lower", Clock::Host, 0.15),
    m("device_cycles", "cycles", "lower", Clock::Device, 0.01),
    m("speedup_vs_cpu_geomean", "x", "higher", Clock::Device, 0.01),
];

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: Clock,
) -> MetricDef {
    m(name, unit, better, clock, 0.0)
}

/// The per-layer metrics of the traced run, `<layer>.<metric>`; layers
/// are this repository's modules. A layer that does no work on a
/// workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    l("streamir.sdf_solve_host_s", "s", "lower", Clock::Host),
    l("streamir.cpu_ref_host_s", "s", "lower", Clock::Host),
    l(
        "streamir.cpu_model_cycles",
        "cycles",
        "lower",
        Clock::Device,
    ),
    l("profile.host_s", "s", "lower", Clock::Host),
    l("profile.grid_points", "count", "lower", Clock::Count),
    l("profile.infeasible_points", "count", "lower", Clock::Count),
    l("config.select_host_s", "s", "lower", Clock::Host),
    l("instances.build_host_s", "s", "lower", Clock::Host),
    l("instances.count", "count", "lower", Clock::Count),
    l("instances.deps", "count", "lower", Clock::Count),
    l("schedule.beam_host_s", "s", "lower", Clock::Host),
    l("schedule.heuristic_host_s", "s", "lower", Clock::Host),
    l("schedule.ii_over_lb_geomean", "x", "lower", Clock::Count),
    l(
        "schedule.search_invocations",
        "count",
        "lower",
        Clock::Count,
    ),
    l("schedule.shipped_beam", "count", "higher", Clock::Count),
    l("schedule.shipped_heuristic", "count", "lower", Clock::Count),
    l(
        "schedule.shipped_serial_sas",
        "count",
        "lower",
        Clock::Count,
    ),
    l("formulate.build_host_s", "s", "lower", Clock::Host),
    l("formulate.vars", "count", "lower", Clock::Count),
    l("formulate.constraints", "count", "lower", Clock::Count),
    l("ilp.solve_host_s", "s", "lower", Clock::Host),
    l("ilp.bb_nodes", "count", "lower", Clock::Count),
    l("ilp.lp_solves", "count", "lower", Clock::Count),
    l("ilp.solved_share", "fraction", "higher", Clock::Count),
    l("plan.host_s", "s", "lower", Clock::Host),
    l("plan.buffer_bytes", "bytes", "lower", Clock::Count),
    l("codegen.capture_host_s", "s", "lower", Clock::Host),
    l("codegen.graph_nodes", "count", "lower", Clock::Count),
    l("codegen.event_edges", "count", "lower", Clock::Count),
    l("verify.deps_host_s", "s", "lower", Clock::Host),
    l("verify.events_host_s", "s", "lower", Clock::Host),
    l("verify.bounds_host_s", "s", "lower", Clock::Host),
    l("verify.coalesce_host_s", "s", "lower", Clock::Host),
    l("verify.isolate_host_s", "s", "lower", Clock::Host),
    l("verify.cert_check_host_s", "s", "lower", Clock::Host),
    l("verify.diagnostics", "count", "lower", Clock::Count),
    l("verify.counter_mismatches", "count", "lower", Clock::Count),
    l("pipeline.compile_host_ms_p50", "ms", "lower", Clock::Host),
    l("pipeline.compile_host_ms_max", "ms", "lower", Clock::Host),
    l(
        "pipeline.unattributed_host_share",
        "fraction",
        "lower",
        Clock::Host,
    ),
    l("exec.host_s", "s", "lower", Clock::Host),
    l("exec.launches", "count", "lower", Clock::Count),
    l("exec.retries", "count", "lower", Clock::Count),
    l("exec.host_us_per_launch", "us", "lower", Clock::Host),
    l("gpusim.warp_instructions", "count", "lower", Clock::Device),
    l(
        "gpusim.mwinst_per_host_s",
        "Mwinst/s",
        "higher",
        Clock::Host,
    ),
    l("gpusim.mem_transactions", "count", "lower", Clock::Device),
    l(
        "gpusim.transactions_per_access",
        "x",
        "lower",
        Clock::Device,
    ),
    l("gpusim.shared_accesses", "count", "lower", Clock::Device),
    l(
        "gpusim.bank_conflict_passes",
        "count",
        "lower",
        Clock::Device,
    ),
    l(
        "gpusim.launch_path_cycles",
        "cycles",
        "lower",
        Clock::Device,
    ),
    l(
        "gpusim.graph_capture_cycles",
        "cycles",
        "lower",
        Clock::Device,
    ),
    l("gpusim.graph_replays", "count", "higher", Clock::Device),
    l(
        "gpusim.fault_overhead_cycles",
        "cycles",
        "lower",
        Clock::Device,
    ),
    l("gpusim.checkpoint_cycles", "cycles", "lower", Clock::Device),
    l("gpusim.replay_cycles", "cycles", "lower", Clock::Device),
    l("gpusim.sm_busy_share", "fraction", "higher", Clock::Device),
    l("harness.speedup.Bitonic.swp8", "x", "higher", Clock::Device),
    l(
        "harness.speedup.Bitonic.swpnc",
        "x",
        "higher",
        Clock::Device,
    ),
    l(
        "harness.speedup.Bitonic.serial",
        "x",
        "higher",
        Clock::Device,
    ),
    l("harness.speedup.FFT.swp8", "x", "higher", Clock::Device),
    l("harness.speedup.FFT.swpnc", "x", "higher", Clock::Device),
    l("harness.speedup.FFT.serial", "x", "higher", Clock::Device),
    l("harness.speedup.FMRadio.swp8", "x", "higher", Clock::Device),
    l(
        "harness.speedup.FMRadio.swpnc",
        "x",
        "higher",
        Clock::Device,
    ),
    l(
        "harness.speedup.FMRadio.serial",
        "x",
        "higher",
        Clock::Device,
    ),
    l("harness.host_s.Bitonic", "s", "lower", Clock::Host),
    l("harness.host_s.FFT", "s", "lower", Clock::Host),
    l("harness.host_s.FMRadio", "s", "lower", Clock::Host),
    l("harness.paper_fig10_ratio_err", "x", "lower", Clock::Device),
    l("serve.host_ms_per_job", "ms", "lower", Clock::Host),
    l(
        "serve.loop_overhead_share",
        "fraction",
        "lower",
        Clock::Host,
    ),
    l("serve.events_processed", "count", "lower", Clock::Count),
    l("serve.host_us_per_event", "us", "lower", Clock::Host),
    l("serve.cache_hits", "count", "higher", Clock::Count),
    l("serve.cache_misses", "count", "lower", Clock::Count),
    l("serve.cache_evictions", "count", "lower", Clock::Count),
    l("serve.window_cache_misses", "count", "lower", Clock::Count),
    l("serve.rebalances", "count", "lower", Clock::Count),
    l("serve.policy_switches", "count", "lower", Clock::Count),
    l("serve.jobs_accepted", "count", "higher", Clock::Count),
    l("serve.jobs_rejected", "count", "lower", Clock::Count),
    l("serve.queue_wait_p95_s", "virt_s", "lower", Clock::Virt),
    l("serve.compile_overlap_s", "virt_s", "higher", Clock::Virt),
    l("serve.busy_share", "fraction", "higher", Clock::Virt),
    l("serve.search_invocations", "count", "lower", Clock::Count),
    l(
        "serve.retries_per_launch",
        "fraction",
        "lower",
        Clock::Count,
    ),
    l("serve.virt_latency_p50_s", "virt_s", "lower", Clock::Virt),
    l("serve.virt_latency_p95_s", "virt_s", "lower", Clock::Virt),
    l("serve.virt_latency_max_s", "virt_s", "lower", Clock::Virt),
    l(
        "serve.sustained_jobs_per_virt_s",
        "jobs/virt_s",
        "higher",
        Clock::Virt,
    ),
    l(
        "serve.rate1.virt_latency_p95_s",
        "virt_s",
        "lower",
        Clock::Virt,
    ),
    l(
        "serve.rate2.virt_latency_p95_s",
        "virt_s",
        "lower",
        Clock::Virt,
    ),
    l(
        "serve.rate3.virt_latency_p95_s",
        "virt_s",
        "lower",
        Clock::Virt,
    ),
    l(
        "serve.rate4.virt_latency_p95_s",
        "virt_s",
        "lower",
        Clock::Virt,
    ),
    l(
        "serve.rate1.failed_share",
        "fraction",
        "lower",
        Clock::Count,
    ),
    l(
        "serve.rate2.failed_share",
        "fraction",
        "lower",
        Clock::Count,
    ),
    l(
        "serve.rate3.failed_share",
        "fraction",
        "lower",
        Clock::Count,
    ),
    l(
        "serve.rate4.failed_share",
        "fraction",
        "lower",
        Clock::Count,
    ),
    l("fleet.host_ms_per_job", "ms", "lower", Clock::Host),
    l("fleet.router_decisions", "count", "lower", Clock::Count),
    l("fleet.reroutes", "count", "lower", Clock::Count),
    l("fleet.store_hit_rate", "fraction", "higher", Clock::Count),
    l(
        "fleet.store_remote_hit_rate",
        "fraction",
        "higher",
        Clock::Count,
    ),
    l("fleet.failovers", "count", "lower", Clock::Count),
    l("fleet.failover_cycles", "cycles", "lower", Clock::Device),
    l("fleet.failover_p50_s", "virt_s", "lower", Clock::Virt),
    l("fleet.hedges", "count", "lower", Clock::Count),
    l("fleet.hedge_wins", "count", "higher", Clock::Count),
    l("fleet.hedge_cycles", "cycles", "lower", Clock::Device),
    l("fleet.jobs_lost", "count", "lower", Clock::Count),
    l("fleet.devices_alive", "count", "higher", Clock::Count),
    l("fleet.busy_share", "fraction", "higher", Clock::Virt),
    l("fleet.virt_latency_p50_s", "virt_s", "lower", Clock::Virt),
    l("fleet.virt_latency_p95_s", "virt_s", "lower", Clock::Virt),
    l("process.peak_rss_mib", "MiB", "lower", Clock::Host),
    l("trace.spans", "count", "lower", Clock::Count),
    l("trace.overhead_share", "fraction", "lower", Clock::Host),
];

/// Looks a metric up in either list.
pub fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
/// Whether `name` fits the benchmark contract: starts with a letter or
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
/// Whether `unit` fits the contract: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Named metric values, in name order.
pub type Values = BTreeMap<String, f64>;

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output stream checked equalled its reference.
    pub correct: bool,
    /// Operations attempted (compiles, verifications, executions, jobs,
    /// output comparisons).
    pub attempted: u64,
    /// Operations that errored, were rejected or lost, or mismatched.
    pub failed: u64,
    /// End-to-end metrics (untraced passes).
    pub e2e: Values,
    /// Per-layer metrics (traced run only).
    pub layers: Values,
    /// Things a reader must be told (sample counts, unexercised paths).
    pub notes: Vec<String>,
}

/// Operations attempted and failed, accumulated across phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, succeeded: bool) {
        self.attempted += 1;
        if !succeeded {
            self.failed += 1;
        }
    }
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The `p`-quantile by nearest rank (`ceil(p·n)`-th smallest) and the
/// number of samples strictly beyond that rank. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// The highest of p50/p90/p95/p99 that still has at least ten samples
/// beyond it among `n` — the tail percentile a sample of that size
/// supports. `None` below 20 samples (not even a median qualifies).
pub fn supported_percentile(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90, 0.50]
        .into_iter()
        .find(|&p| n >= (p * n as f64).ceil() as usize + 10)
}

/// Median of host timings (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// One rate step of an open-loop sweep, reduced to what the service-level
/// verdict needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateRow {
    /// Offered jobs per virtual second per tenant.
    pub rate_per_tenant: f64,
    /// Tail latency of the measurement window, virtual seconds.
    pub p95_secs: f64,
    /// Window jobs refused by admission control.
    pub rejected: u64,
    /// Some tenant's backlog was larger at the window's end than at its
    /// start by more than one job.
    pub backlog_growing: bool,
}

/// The tail-latency limit a rate step must meet to count as sustained.
pub const LATENCY_LIMIT_SECS: f64 = 0.020;

impl RateRow {
    pub fn sustained(&self) -> bool {
        self.p95_secs <= LATENCY_LIMIT_SECS && self.rejected == 0 && !self.backlog_growing
    }
}

/// `tenants ×` the highest offered rate whose step is sustained — the
/// highest such rate even when a lower one failed. 0 when none is.
pub fn sustained_jobs_per_sec(rows: &[RateRow], tenants: usize) -> f64 {
    rows.iter()
        .filter(|r| r.sustained())
        .map(|r| r.rate_per_tenant)
        .fold(0.0, f64::max)
        * tenants as f64
}

/// `max(a/b, b/a)`: how far apart two positive figures are, as a ratio.
pub fn ratio_err(ours: f64, theirs: f64) -> f64 {
    (ours / theirs).max(theirs / ours)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_counts_the_tail() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), Some((50.0, 50)));
        assert_eq!(percentile(&s, 0.95), Some((95.0, 5)));
        assert_eq!(percentile(&s, 1.0), Some((100.0, 0)));
        assert_eq!(percentile(&[7.0], 0.95), Some((7.0, 0)));
        assert_eq!(percentile(&[], 0.5), None);
        // 250 window jobs leave 12 samples beyond p95, as the issue sizes it.
        let big: Vec<f64> = (0..250).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.95).unwrap().1, 12);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.50));
        assert_eq!(supported_percentile(100), Some(0.90));
        assert_eq!(supported_percentile(199), Some(0.90));
        assert_eq!(supported_percentile(200), Some(0.95));
        assert_eq!(supported_percentile(1000), Some(0.99));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn row(rate: f64, p95: f64, rejected: u64, growing: bool) -> RateRow {
        RateRow {
            rate_per_tenant: rate,
            p95_secs: p95,
            rejected,
            backlog_growing: growing,
        }
    }

    #[test]
    fn sustained_rate_is_the_highest_passing_step() {
        let rows = [
            row(50.0, 0.005, 0, false),
            row(100.0, 0.005, 0, false),
            row(150.0, 0.006, 0, false),
            row(300.0, 0.030, 0, true),
        ];
        assert_eq!(sustained_jobs_per_sec(&rows, 8), 1200.0);
        // Each failure criterion alone disqualifies a step.
        assert!(!row(10.0, 0.021, 0, false).sustained());
        assert!(!row(10.0, 0.001, 1, false).sustained());
        assert!(!row(10.0, 0.001, 0, true).sustained());
        assert!(row(10.0, LATENCY_LIMIT_SECS, 0, false).sustained());
        assert_eq!(sustained_jobs_per_sec(&[row(10.0, 1.0, 0, false)], 8), 0.0);
    }

    #[test]
    fn sustained_rate_ignores_a_failing_lower_step() {
        // Non-monotone sweep: the definition is the highest passing rate,
        // so a failing low step does not cap the result.
        let rows = [
            row(50.0, 0.500, 3, false),
            row(100.0, 0.005, 0, false),
            row(150.0, 0.500, 0, true),
        ];
        assert_eq!(sustained_jobs_per_sec(&rows, 8), 800.0);
    }

    #[test]
    fn every_registered_name_and_unit_fits_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("speedup×"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("×"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let text = include_str!("../../BENCHMARK.json");
        let v = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (key, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let rows = v.get(key).and_then(|r| r.as_array()).expect(key);
            assert_eq!(rows.len(), defs.len(), "{key} length");
            for (row, d) in rows.iter().zip(defs) {
                assert_eq!(row.get("name").and_then(|s| s.as_str()), Some(d.name));
                assert_eq!(row.get("unit").and_then(|s| s.as_str()), Some(d.unit));
                assert_eq!(row.get("better").and_then(|s| s.as_str()), Some(d.better));
                let bound = row.get("bound").and_then(|b| b.as_f64());
                assert_eq!(bound, bounded.then_some(d.bound), "{}", d.name);
            }
        }
        let workloads = v.get("workloads").and_then(|w| w.as_array()).unwrap();
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").and_then(|s| s.as_str()).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
        let run_seconds = v.get("run_seconds").and_then(|s| s.as_f64());
        assert_eq!(run_seconds, Some(crate::DEFAULT_SECONDS));
    }

    #[test]
    fn ratio_err_is_symmetric_and_at_least_one() {
        assert_eq!(ratio_err(2.0, 4.0), 2.0);
        assert_eq!(ratio_err(4.0, 2.0), 2.0);
        assert_eq!(ratio_err(3.0, 3.0), 1.0);
    }
}
