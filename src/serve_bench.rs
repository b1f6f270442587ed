//! The multi-tenant serving benchmarks behind `BENCH_serve.json` and
//! `BENCH_serve_graph.json` (both `stream-gpu regen` entries).
//!
//! Serves the eight StreamIt benchmarks as eight tenants of one
//! [`swpipe::serve::EventEngine`] over a deterministic arrival trace:
//! one warm-up round that admits every tenant (and recuts the SM
//! partition as each joins), one round compiled at the settled slice
//! widths, then repeat rounds that should hit the compilation cache. A
//! mild fault plan keeps the retry-rate metric exercised.
//!
//! The engine overlaps cache-miss compilations with other tenants'
//! execution on a bounded worker pool (per-job results are pinned by the
//! `serve_engine` known-answer suite), and the report carries the
//! overlap observables: `compile_overlap_secs` per tenant and in total,
//! plus a queue-wait p99.
//!
//! [`run_trace`] renders `BENCH_serve.json` — per-benchmark throughput,
//! p99 latency, cache hit rate, and compile overlap;
//! [`run_warm_differential`] gates that cold run against a warm-started
//! one, and [`run_graph_differential`] renders `BENCH_serve_graph.json`.

use gpusim::FaultPlan;
use serde::Serialize;
use swpipe::serve::{EventEngine, ResilienceOptions, ServeOptions, ServeReport, Verdict};

use crate::suite_trace;

/// Rounds the full benchmark runs: two cold rounds (tenant admission
/// recuts the partition, then the settled widths compile once more) plus
/// four rounds that should mostly hit the compilation cache.
pub const FULL_ROUNDS: usize = 6;
/// Steady-state iterations per job in the full benchmark.
pub const FULL_ITERATIONS: u64 = 4;
/// Arrival rounds of the graph-dispatch differential.
pub const GRAPH_ROUNDS: usize = 2;
/// Steady-state iterations per job in the graph-dispatch differential.
/// Deliberately deeper than [`FULL_ITERATIONS`]: a modulo schedule only
/// has a capturable steady state once the pipeline has filled
/// (`launch rounds > max_stage`, where a coarsened schedule folds
/// several iterations into one round), so the differential runs long
/// enough that every benchmark's steady window dominates — at 48
/// iterations all eight benchmarks replay, including the deeply
/// coarsened DES.
pub const GRAPH_ITERATIONS: u64 = 48;

/// Serves every benchmark as its own tenant for `rounds` round-robin
/// arrival rounds of `iterations`-iteration jobs, returning the report.
///
/// # Panics
///
/// Panics when a benchmark fails to compile or execute, or is rejected —
/// the trace is paced below saturation, so either is a runtime bug and
/// the bench must fail loudly.
#[must_use]
pub fn run_trace(rounds: usize, iterations: u64) -> ServeReport {
    run_trace_configured(rounds, iterations, false, false).0
}

/// [`run_trace`], returning every job's output stream alongside the
/// report, with two switches. `warm` pre-compiles the whole suite at
/// every slice width first ([`EventEngine::warm`]); `graph_dispatch`
/// runs every tenant's steady state as captured-graph replays instead
/// of per-round host launches. The trace, fault plan, and controller
/// configuration are otherwise identical, so any two runs of the same
/// `(rounds, iterations)` are directly comparable — and must be
/// byte-identical in every job's output stream, which is how
/// [`run_warm_differential`] and [`run_graph_differential`] prove their
/// switch is semantics-neutral.
///
/// # Panics
///
/// See [`run_trace`].
#[must_use]
pub fn run_trace_configured(
    rounds: usize,
    iterations: u64,
    warm: bool,
    graph_dispatch: bool,
) -> (ServeReport, Vec<Vec<streamir::ir::Scalar>>) {
    let opts = ServeOptions {
        graph_dispatch,
        // A mild transient-fault environment (3% of launch attempts)
        // so retry-rate and fault-overhead metrics are non-trivial.
        fault_plan: Some(FaultPlan::new(0x5EB7E).with_launch_failures(30)),
        // The online controller runs live: retry-rate EWMAs drive
        // per-tenant checkpoint intervals and any policy switches show
        // up as distinct cache keys in the report.
        resilience: ResilienceOptions {
            enabled: true,
            ..ResilienceOptions::default()
        },
        // Large enough to hold the full warm sweep (8 graphs × 16
        // widths × 2 policies = 256 points): at the default 32-entry
        // bound the sweep evicts its own earliest entries and the
        // serving path's reservations displace the rest before any
        // tenant dispatches — a warm start indistinguishable from cold.
        // The cold trace touches only 14 distinct keys, so the wider
        // bound leaves the committed cold baseline byte-identical.
        cache: swpipe::serve::CacheOptions {
            capacity: 512,
            ..swpipe::serve::CacheOptions::default()
        },
        ..ServeOptions::default()
    };
    let mut engine = EventEngine::new(opts);

    let suite = streambench::suite();
    if warm {
        let graphs: Vec<_> = suite
            .iter()
            .map(|b| b.spec.flatten().expect("benchmark flattens"))
            .collect();
        // `max_tenants = 1` warms *every* width 1..=num_sms, covering
        // the wide slices early arrivals compile at before the
        // partition settles — not just the steady-state widths.
        let report = engine.warm(&graphs, 1);
        assert_eq!(report.failed, 0, "warming must compile every point");
        assert_eq!(
            report.evictions, 0,
            "the warm sweep must fit the cache bound or the warm start is fictional"
        );
    }
    let trace = suite_trace(rounds, iterations);
    let verdicts = engine.serve_trace(&trace).expect("benchmark trace serves");
    let mut outputs = Vec::with_capacity(verdicts.len());
    for (verdict, (job, _)) in verdicts.iter().zip(&trace) {
        match verdict {
            Verdict::Completed(r) => {
                assert!(!r.outputs.is_empty(), "{}: no output", job.tenant);
                outputs.push(r.outputs.clone());
            }
            Verdict::Rejected { retry_after_secs } => {
                panic!("{}: rejected (retry in {retry_after_secs}s)", job.tenant);
            }
        }
    }
    let report = engine.report();
    assert!(report.artifacts > 0, "trace dispatched no artifacts");
    assert_eq!(
        report.certified, report.artifacts,
        "every dispatched artifact must carry a verified isolation certificate"
    );
    (report, outputs)
}

/// Runs the warm-started differential against a cold run of the same
/// trace (`cold` and its per-job `cold_outputs`, as
/// [`run_trace_configured`] returned them): the same `(rounds,
/// iterations)` trace on a cache pre-warmed across the whole suite
/// ([`EventEngine::warm`]). Warming must be semantics-neutral (per-job
/// outputs byte-identical) and must pay off (a strictly higher hit rate
/// than the cold run).
///
/// # Panics
///
/// Panics when any of those acceptance properties fails.
pub fn run_warm_differential(
    rounds: usize,
    iterations: u64,
    cold: &ServeReport,
    cold_outputs: &[Vec<streamir::ir::Scalar>],
) {
    let (warm, warm_outputs) = run_trace_configured(rounds, iterations, true, false);
    assert_eq!(
        cold_outputs, warm_outputs,
        "cache warming must not change any job's output stream"
    );
    assert!(
        warm.cache_hit_rate > cold.cache_hit_rate,
        "warm hit rate {:.3} must beat the cold run's {:.3}",
        warm.cache_hit_rate,
        cold.cache_hit_rate
    );
}

/// One benchmark's row of the graph-dispatch differential: the same
/// trace's launch-path spend under host launches vs. captured-graph
/// replays.
#[derive(Debug, Clone, Serialize)]
pub struct GraphTenantRow {
    /// Tenant (benchmark) name.
    pub tenant: String,
    /// Launch-path cycles with every round host-launched.
    pub host_launch_cycles: u64,
    /// Launch-path cycles with steady-state rounds replayed from the
    /// captured graph (prologue/epilogue still host-launched).
    pub graph_launch_cycles: u64,
    /// One-time capture cycles the replays must amortize.
    pub graph_capture_cycles: u64,
    /// Steady-state rounds dispatched as replays.
    pub graph_replays: u64,
    /// `host_launch_cycles - graph_launch_cycles` — the launch-tax
    /// savings, before the capture cost.
    pub saved_launch_cycles: u64,
    /// Savings net of the capture cost; negative when a trace is too
    /// short to amortize its captures.
    pub net_saved_cycles: i64,
}

/// The graph-dispatch differential artifact (`BENCH_serve_graph.json`).
#[derive(Debug, Clone, Serialize)]
pub struct GraphBenchReport {
    /// Arrival rounds served.
    pub rounds: u64,
    /// Iterations per job.
    pub iterations: u64,
    /// Total launch-path cycles under host launches.
    pub host_launch_cycles: u64,
    /// Total launch-path cycles under graph dispatch.
    pub graph_launch_cycles: u64,
    /// Total capture cycles paid.
    pub graph_capture_cycles: u64,
    /// Total steady-state replays.
    pub graph_replays: u64,
    /// Total launch-tax savings (host − graph), before capture costs.
    pub saved_launch_cycles: u64,
    /// Total savings net of capture costs.
    pub net_saved_cycles: i64,
    /// Fraction of the host run's launch-path spend eliminated.
    pub saved_share: f64,
    /// Per-benchmark rows, in tenant-name order.
    pub tenants: Vec<GraphTenantRow>,
}

/// Runs the graph-dispatch differential: the same trace host-launched
/// and graph-dispatched, asserting that graph dispatch is
/// semantics-neutral (every job's output stream byte-identical) and
/// that it pays (launch-path cycles never higher for any tenant,
/// strictly and measurably lower for the deep pipelines DES and
/// FMRadio, and lower in total even after the capture costs).
///
/// # Panics
///
/// Panics when any of those acceptance properties fails.
#[must_use]
pub fn run_graph_differential(rounds: usize, iterations: u64) -> GraphBenchReport {
    let (host, host_outputs) = run_trace_configured(rounds, iterations, false, false);
    let (graph, graph_outputs) = run_trace_configured(rounds, iterations, false, true);
    assert_eq!(
        host_outputs, graph_outputs,
        "graph dispatch must not change any job's output stream"
    );

    let mut tenants = Vec::with_capacity(host.tenants.len());
    for (h, g) in host.tenants.iter().zip(&graph.tenants) {
        assert_eq!(h.tenant, g.tenant, "tenant rows must align");
        assert!(
            g.launch_path_cycles <= h.launch_path_cycles,
            "{}: graph dispatch raised launch-path cycles ({} > {})",
            g.tenant,
            g.launch_path_cycles,
            h.launch_path_cycles
        );
        let saved = h.launch_path_cycles - g.launch_path_cycles;
        tenants.push(GraphTenantRow {
            tenant: g.tenant.clone(),
            host_launch_cycles: h.launch_path_cycles,
            graph_launch_cycles: g.launch_path_cycles,
            graph_capture_cycles: g.graph_capture_cycles,
            graph_replays: g.graph_replays,
            saved_launch_cycles: saved,
            net_saved_cycles: saved as i64 - g.graph_capture_cycles as i64,
        });
    }
    // The acceptance benchmarks: deep pipelines whose steady state
    // dominates the trace must show a measurable launch-tax cut, not a
    // rounding-level one.
    for name in ["DES", "FMRadio"] {
        let row = tenants
            .iter()
            .find(|t| t.tenant == name)
            .unwrap_or_else(|| panic!("{name} missing from the differential"));
        assert!(
            row.graph_replays > 0,
            "{name}: no steady-state rounds were replayed"
        );
        assert!(
            row.graph_launch_cycles < row.host_launch_cycles,
            "{name}: graph dispatch must strictly cut launch-path cycles \
             ({} vs {})",
            row.graph_launch_cycles,
            row.host_launch_cycles
        );
        assert!(
            row.net_saved_cycles > 0,
            "{name}: replay savings must amortize the capture cost \
             (net {} cycles)",
            row.net_saved_cycles
        );
    }
    let saved = host.launch_path_cycles - graph.launch_path_cycles;
    let capture: u64 = tenants.iter().map(|t| t.graph_capture_cycles).sum();
    let net = saved as i64 - capture as i64;
    assert!(
        net > 0,
        "graph dispatch must save launch cycles in total, net of captures (net {net})"
    );
    GraphBenchReport {
        rounds: rounds as u64,
        iterations,
        host_launch_cycles: host.launch_path_cycles,
        graph_launch_cycles: graph.launch_path_cycles,
        graph_capture_cycles: capture,
        graph_replays: graph.graph_replays,
        saved_launch_cycles: saved,
        net_saved_cycles: net,
        saved_share: if host.launch_path_cycles == 0 {
            0.0
        } else {
            saved as f64 / host.launch_path_cycles as f64
        },
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_drift;
    use serde_json::to_string_pretty as render;

    #[test]
    fn drift_check_accepts_a_faithful_artifact() {
        let report = run_trace(2, 1);
        let json = render(&report);
        assert_eq!(check_drift(&render(&report), &json), Ok(()));
    }

    #[test]
    fn drift_check_catches_schema_and_counter_drift() {
        let report = run_trace(2, 1);
        let json = render(&report);

        let renamed = json.replacen("\"hits\"", "\"hits_old\"", 1);
        let drift = check_drift(&json, &renamed).unwrap_err();
        assert!(
            drift.contains("hits_old"),
            "renamed key must be shown on the differing line: {drift}"
        );

        let mut stale = report.clone();
        stale.cache.hits += 1;
        let drift = check_drift(&render(&stale), &json).unwrap_err();
        assert!(
            drift.contains("\"hits\""),
            "stale counter must be flagged: {drift}"
        );

        // No field is exempt: one tenant's latency moving in its last
        // digits is drift.
        let mut slower = report.clone();
        slower.tenants[0].p99_latency_secs += 1e-9;
        let drift = check_drift(&render(&slower), &json).unwrap_err();
        assert!(drift.contains("p99_latency_secs"), "{drift}");
    }

    #[test]
    fn drift_check_rejects_garbage() {
        let report = run_trace(2, 1);
        assert!(check_drift(&render(&report), "{not json").is_err());
    }

    /// The drift gate needs no serving run: it compares rendered JSON,
    /// so a hand-built report exercises accept, key drift, and counter
    /// drift cheaply.
    fn tiny_graph_report() -> GraphBenchReport {
        GraphBenchReport {
            rounds: 1,
            iterations: 2,
            host_launch_cycles: 320_000,
            graph_launch_cycles: 40_000,
            graph_capture_cycles: 30_000,
            graph_replays: 16,
            saved_launch_cycles: 280_000,
            net_saved_cycles: 250_000,
            saved_share: 0.875,
            tenants: vec![GraphTenantRow {
                tenant: "DES".to_string(),
                host_launch_cycles: 320_000,
                graph_launch_cycles: 40_000,
                graph_capture_cycles: 30_000,
                graph_replays: 16,
                saved_launch_cycles: 280_000,
                net_saved_cycles: 250_000,
            }],
        }
    }

    #[test]
    fn graph_drift_check_accepts_faithful_and_catches_drift() {
        let report = tiny_graph_report();
        let json = render(&report);
        assert_eq!(check_drift(&render(&report), &json), Ok(()));

        let renamed = json.replacen("\"graph_replays\"", "\"replays\"", 1);
        let drift = check_drift(&json, &renamed).unwrap_err();
        assert!(
            drift.contains("\"replays\""),
            "renamed key must be shown on the differing line: {drift}"
        );

        let mut stale = report.clone();
        stale.graph_launch_cycles += 1;
        let drift = check_drift(&render(&stale), &json).unwrap_err();
        assert!(
            drift.contains("graph_launch_cycles"),
            "stale counter must be flagged: {drift}"
        );

        assert!(check_drift(&json, "{not json").is_err());
    }
}
