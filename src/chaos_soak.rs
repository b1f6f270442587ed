//! The chaos soak harness behind `stream-gpu soak`.
//!
//! Serves the StreamIt benchmark suite through the event engine under a
//! seeded fault storm ([`swpipe::serve::ChaosStorm`]): bursty hang
//! trains, correlated corruption clusters, a background transient
//! failure rate, and a mid-trace device brownout that shrinks the
//! usable SM range and forces a partition recut. The online resilience
//! controller runs live — retry-rate EWMAs switch noisy tenants to the
//! tail-latency policy and pick per-tenant checkpoint commit intervals.
//!
//! After the storm, the harness asserts the global soak invariants:
//!
//! 1. **No job lost or double-counted** — every submitted job gets
//!    exactly one verdict, and accepted + rejected counts reconcile
//!    with the trace.
//! 2. **Truthful billing** — per-job billing is asserted inside the
//!    executor ([`gpusim::LaunchStats::check_billing`]: the disjoint
//!    fault components sum to the fault overhead, which never exceeds
//!    wall cycles); the report level re-checks that no tenant's fault
//!    overhead exceeds its total cycles and that token counts
//!    reconcile with the delivered outputs.
//! 3. **Byte-identical survivors** — every job that completes under
//!    the storm produces output byte-identical to a fault-free golden
//!    run of the same trace (faults and brownouts may change *when*,
//!    never *what*).
//! 4. **Deterministic replay** — re-running the same storm seed
//!    reproduces the engine's timeline byte-for-byte, the controller's
//!    policy switches and interval changes included.
//!
//! Writes `CHAOS_soak.json` — the timeline and headline counters — for
//! the CI artifact upload.

use streamir::ir::Scalar;
use swpipe::serve::{
    BrownoutSpec, ChaosStorm, EventEngine, Job, ResilienceOptions, ServeOptions, ServeReport,
    TraceEvent, Verdict,
};

use crate::{suite_trace, write_json};

/// One soak configuration: which storm, how much trace, which knobs.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Storm seed (drives burst placement and the background draws).
    pub seed: u64,
    /// Named storm profile (see [`storm_profile`]).
    pub profile: String,
    /// Round-robin arrival rounds over the benchmark suite.
    pub rounds: usize,
    /// Cap on the number of jobs served (the trace is truncated);
    /// `None` serves every job the rounds generate.
    pub jobs: Option<usize>,
    /// Steady-state iterations per job.
    pub iterations: u64,
    /// Whether the adaptive controller may switch policies (interval
    /// selection and the raised retry budget are always on — a storm
    /// pins fault trains the default budget of 3 could exhaust).
    pub adaptive: bool,
    /// Whether a mid-trace brownout shrinks the device.
    pub brownout: bool,
    /// Whether the storm run dispatches steady states as captured-graph
    /// replays. On by default so every storm in the matrix covers
    /// retries, checkpoint replay, and brownout recuts on the
    /// graph-dispatch path; the golden twin always host-launches, so
    /// the byte-identity invariant doubles as the dispatch
    /// differential.
    pub graph: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 0xC4A0_55EE,
            profile: "default".to_string(),
            rounds: 2,
            jobs: None,
            // Deep enough that coarsened schedules still have a steady
            // window (launch rounds > max_stage) — the storm must
            // exercise captured-graph replays, not just the fill/drain
            // host launches.
            iterations: 16,
            adaptive: true,
            brownout: true,
            graph: true,
        }
    }
}

/// The named storm profiles the CI matrix and local repro share:
/// `default` (bursts + background), `hangs` (hang trains only),
/// `corruption` (corruption clusters only), `quiet` (background noise
/// only, no pinned bursts). Returns `None` for an unknown name so the
/// CLI can fail loudly.
///
/// The emphasized profiles zero out the other burst category and keep
/// their own worst-case pinned chain (all bursts landing adjacent) at
/// six consecutive faults — below the soak's retry budget of 8, so
/// every storm the harness ships is survivable regardless of where
/// the seed places the bursts.
#[must_use]
pub fn storm_profile(name: &str, seed: u64) -> Option<ChaosStorm> {
    let base = ChaosStorm {
        seed,
        horizon_attempts: 24,
        ..ChaosStorm::default()
    };
    match name {
        "default" => Some(base),
        "hangs" => Some(ChaosStorm {
            hang_trains: 3,
            train_len: 2,
            corruption_clusters: 0,
            ..base
        }),
        "corruption" => Some(ChaosStorm {
            corruption_clusters: 3,
            cluster_len: 2,
            hang_trains: 0,
            ..base
        }),
        "quiet" => Some(ChaosStorm {
            hang_trains: 0,
            corruption_clusters: 0,
            ..base
        }),
        _ => None,
    }
}

/// Everything one soak run produces, for invariant checking.
pub struct SoakRun {
    /// Per input job: `Some(outputs)` when completed, `None` when
    /// rejected by admission.
    pub outputs: Vec<Option<Vec<Scalar>>>,
    /// The serve report.
    pub report: ServeReport,
    /// The engine's timeline.
    pub events: Vec<TraceEvent>,
}

/// The storm a soak config injects: the config's named profile at the
/// config's seed. All profiles keep `horizon_attempts` pulled in close
/// to a job's actual attempt count so the pinned bursts land inside
/// real runs (and, because attempt ordinals restart per run, hit every
/// job the same way — correlated faults, not independent noise).
///
/// # Panics
///
/// Panics on an unknown profile name.
#[must_use]
pub fn storm_for(cfg: &SoakConfig) -> ChaosStorm {
    storm_profile(&cfg.profile, cfg.seed)
        .unwrap_or_else(|| panic!("unknown storm profile {:?}", cfg.profile))
}

/// The trace a soak config serves: [`suite_trace`] over the config's
/// rounds, truncated to the config's job cap when one is set.
#[must_use]
pub fn trace_for(cfg: &SoakConfig) -> Vec<(Job, f64)> {
    let mut trace = suite_trace(cfg.rounds, cfg.iterations);
    if let Some(cap) = cfg.jobs {
        trace.truncate(cap);
    }
    trace
}

/// Runs one soak: the storm's fault plan armed, the controller per
/// `cfg`, and (optionally) a brownout to 10 of the 16 SMs halfway
/// through the arrival window.
///
/// # Panics
///
/// Panics when the engine errors — under the retry budget the soak
/// arms, a storm the harness ships must be survivable, so an executor
/// give-up is a harness bug.
#[must_use]
pub fn run_soak(cfg: &SoakConfig) -> SoakRun {
    run_with_plan(cfg, true)
}

/// The fault-free golden twin of [`run_soak`]: same trace, same
/// engine configuration, no fault plan, no brownout — and always
/// host-launched, even when the storm run graph-dispatches. Survivor
/// outputs from the storm run must be byte-identical to this, which
/// makes the invariant a compound one: neither faults nor the dispatch
/// mode may change *what* a job computes, only *when*.
///
/// # Panics
///
/// Panics when the engine errors (fault-free runs must serve).
#[must_use]
pub fn run_golden(cfg: &SoakConfig) -> SoakRun {
    run_with_plan(cfg, false)
}

fn run_with_plan(cfg: &SoakConfig, stormy: bool) -> SoakRun {
    let opts = ServeOptions {
        fault_plan: stormy.then(|| storm_for(cfg).fault_plan()),
        graph_dispatch: stormy && cfg.graph,
        resilience: ResilienceOptions {
            enabled: true,
            // Policy switching is gated by the upper band; pushing it
            // out of reach freezes policies while keeping interval
            // adaptation and the raised budget.
            retry_max_attempts: Some(8),
            ..ResilienceOptions::default()
        },
        retry_warn_threshold: if cfg.adaptive { 0.05 } else { f64::INFINITY },
        ..ServeOptions::default()
    };
    let mut engine = EventEngine::new(opts);
    if stormy && cfg.brownout {
        let last_arrival = cfg.rounds as f64 * (streambench::suite().len() as f64 * 0.05 + 1.0);
        engine = engine.with_brownout(BrownoutSpec {
            at_secs: last_arrival / 2.0,
            total_sms: 10,
        });
    }
    let trace = trace_for(cfg);
    let verdicts = engine.serve_trace(&trace).expect("soak trace serves");
    let outputs = verdicts
        .into_iter()
        .map(|v| match v {
            Verdict::Completed(r) => Some(r.outputs),
            Verdict::Rejected { .. } => None,
        })
        .collect();
    SoakRun {
        outputs,
        report: engine.report(),
        events: engine.trace().to_vec(),
    }
}

/// Runs the storm, its golden twin, and a same-seed replay, and checks
/// every soak invariant. Returns the storm run for reporting.
///
/// # Panics
///
/// Panics with a description of the first violated invariant.
#[must_use]
pub fn assert_invariants(cfg: &SoakConfig) -> SoakRun {
    let stormy = run_soak(cfg);
    let golden = run_golden(cfg);
    let replay = run_soak(cfg);
    let n_jobs = trace_for(cfg).len();

    // 1. No job lost or double-counted.
    assert_eq!(stormy.outputs.len(), n_jobs, "one verdict per input job");
    let completed = stormy.outputs.iter().filter(|o| o.is_some()).count();
    let accepted: u64 = stormy.report.tenants.iter().map(|t| t.jobs_accepted).sum();
    let rejected: u64 = stormy.report.tenants.iter().map(|t| t.jobs_rejected).sum();
    assert_eq!(accepted, completed as u64, "accepted == completed verdicts");
    assert_eq!(
        accepted + rejected,
        n_jobs as u64,
        "accepted + rejected == submitted"
    );

    // 2. Truthful billing: fault overhead within wall cycles per
    // tenant, and token counts reconcile with delivered outputs.
    for t in &stormy.report.tenants {
        assert!(
            (0.0..=1.0).contains(&t.fault_overhead_share),
            "{}: fault overhead exceeds wall cycles (share {})",
            t.tenant,
            t.fault_overhead_share
        );
    }
    let tokens_delivered: u64 = stormy
        .outputs
        .iter()
        .flatten()
        .map(|o| o.len() as u64)
        .sum();
    let tokens_billed: f64 = stormy
        .report
        .tenants
        .iter()
        .map(|t| t.throughput_tokens_per_sec * stormy.report.makespan_secs)
        .sum();
    assert!(
        (tokens_billed - tokens_delivered as f64).abs() < 1e-6 * (1.0 + tokens_delivered as f64),
        "billed tokens {tokens_billed} != delivered {tokens_delivered}"
    );

    // 3. Surviving outputs byte-identical to the fault-free golden run.
    assert_eq!(golden.outputs.len(), stormy.outputs.len());
    let mut compared = 0;
    for (i, (s, g)) in stormy.outputs.iter().zip(&golden.outputs).enumerate() {
        if let (Some(s), Some(g)) = (s, g) {
            assert_eq!(s, g, "job {i}: storm output diverges from golden");
            compared += 1;
        }
    }
    assert!(compared > 0, "no surviving jobs to compare");

    // 4. Same-seed replay reproduces the whole timeline exactly.
    assert_eq!(
        stormy.events, replay.events,
        "the timeline must replay deterministically"
    );

    // 5. When the storm runs graph-dispatched, the coverage must be
    // real: steady states actually replayed from captured graphs (the
    // storm's retries and checkpoint restores therefore exercised the
    // replay path, not just host launches), and the launch path got
    // cheaper than the host-launched golden twin's.
    if cfg.graph {
        assert!(
            stormy.report.graph_replays > 0,
            "graph-dispatched storm replayed nothing: the soak's \
             iterations are too shallow for any steady window"
        );
        assert!(
            stormy.report.launch_path_cycles < golden.report.launch_path_cycles,
            "graph dispatch must cut launch-path cycles ({} vs golden {})",
            stormy.report.launch_path_cycles,
            golden.report.launch_path_cycles
        );
    }
    stormy
}

/// Serializable summary for `CHAOS_soak.json`.
#[derive(serde::Serialize)]
struct SoakSummary {
    seed: u64,
    profile: String,
    jobs: usize,
    completed: usize,
    policy_switches: u64,
    rebalances: u64,
    cache_hit_rate: f64,
    makespan_secs: f64,
    graph_dispatch: bool,
    graph_replays: u64,
    launch_path_cycles: u64,
    events: Vec<TraceEvent>,
}

/// Parses a storm seed, decimal or `0x` hex.
#[must_use]
pub fn parse_u64(s: &str) -> Option<u64> {
    s.strip_prefix("0x")
        .map_or_else(|| s.parse().ok(), |h| u64::from_str_radix(h, 16).ok())
}

/// A storm matrix of seeds (the `stream-gpu soak` command): each seed
/// soaked under `base` and invariant-checked, with the last seed's
/// timeline written to `CHAOS_soak.json`. An empty `seeds` soaks
/// two default seeds.
///
/// # Panics
///
/// Panics on an unknown profile, a violated soak invariant, or when
/// the report cannot be written.
pub fn soak(seeds: &[u64], base: &SoakConfig) {
    let seeds = if seeds.is_empty() {
        &[0xC4A0_55EE, 0x0005_EED5][..]
    } else {
        seeds
    };
    let mut last: Option<(u64, SoakRun)> = None;
    for &seed in seeds {
        let cfg = SoakConfig {
            seed,
            ..base.clone()
        };
        let run = assert_invariants(&cfg);
        let completed = run.outputs.iter().filter(|o| o.is_some()).count();
        println!(
            "seed {seed:#x} ({} storm): {} jobs, {completed} completed, {} policy switch(es), \
             {} rebalance(s), {} timeline entries, makespan {:.3}s — invariants hold",
            cfg.profile,
            run.outputs.len(),
            run.report.policy_switches,
            run.report.rebalances,
            run.events.len(),
            run.report.makespan_secs,
        );
        last = Some((seed, run));
    }
    let (seed, run) = last.expect("at least one seed soaked");
    let summary = SoakSummary {
        seed,
        profile: base.profile.clone(),
        jobs: run.outputs.len(),
        completed: run.outputs.iter().filter(|o| o.is_some()).count(),
        policy_switches: run.report.policy_switches,
        rebalances: run.report.rebalances,
        cache_hit_rate: run.report.cache_hit_rate,
        makespan_secs: run.report.makespan_secs,
        graph_dispatch: base.graph,
        graph_replays: run.report.graph_replays,
        launch_path_cycles: run.report.launch_path_cycles,
        events: run.events,
    };
    write_json(&summary, "CHAOS_soak.json");
    println!("wrote CHAOS_soak.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_resolve_and_unknown_names_do_not() {
        for name in ["default", "hangs", "corruption", "quiet"] {
            let storm = storm_profile(name, 7).expect(name);
            assert_eq!(storm.seed, 7, "{name}: seed must pass through");
        }
        assert!(storm_profile("meteor", 7).is_none());
        let quiet = storm_profile("quiet", 7).unwrap();
        assert_eq!(quiet.hang_trains, 0);
        assert_eq!(quiet.corruption_clusters, 0);
        // Emphasized profiles must keep their worst-case pinned chain
        // (every burst adjacent) below the soak's retry budget of 8.
        for name in ["hangs", "corruption"] {
            let s = storm_profile(name, 7).unwrap();
            let chain = s.hang_trains * s.train_len + s.corruption_clusters * s.cluster_len;
            assert!(
                chain < 8,
                "{name}: worst-case chain {chain} >= retry budget"
            );
        }
    }

    #[test]
    fn job_cap_truncates_the_trace() {
        let cfg = SoakConfig {
            jobs: Some(3),
            ..SoakConfig::default()
        };
        assert_eq!(trace_for(&cfg).len(), 3);
        let uncapped = SoakConfig::default();
        assert_eq!(
            trace_for(&uncapped).len(),
            suite_trace(uncapped.rounds, uncapped.iterations).len()
        );
    }

    #[test]
    fn seed_parsing_accepts_decimal_and_hex() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("0xC4A055EE"), Some(0xC4A0_55EE));
        // CI names the fleet-chaos seeds both ways.
        assert_eq!(parse_u64("0xF1EE700B"), Some(4_058_935_307));
        assert_eq!(parse_u64("--flag"), None);
    }
}
