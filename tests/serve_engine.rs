//! Known-answer tests for the single-device serving engine: every
//! completed job's output equals the CPU interpreter's, and on the suite
//! trace every virtual instant, cache outcome, shipped rung, slice and
//! retry count equals a table captured from the eager one-job-at-a-time
//! server the engine was once differentially tested against — so that
//! oracle's timing power survives its deletion.
//!
//! Covered here:
//! * the full suite (all 8 StreamIt benchmarks × two rounds under a
//!   fault plan) against the captured table and report;
//! * property: random arrival traces serve deterministically across two
//!   same-seed engine runs, and the engine compiles each distinct cache
//!   key the trace addresses exactly once;
//! * regression: a cold-compiling tenant must not delay a hot tenant's
//!   launch-finish virtual times, while the engine reports positive
//!   compile overlap;
//! * out-of-order submission equals the sorted trace (the EWMA
//!   recording fix);
//! * the `SWPIPE_FAULT_MATRIX` kinds serve CPU-identical outputs;
//! * the causal clock: a pending hit executes from its owner's compile
//!   finish, pinned bit for bit.

mod common;

use std::collections::BTreeSet;

use common::{assert_verdicts_match, tiny_job};
use gpusim::FaultPlan;
use proptest::prelude::*;
use streamir::cpu::{self, CpuCostModel};
use streamir::ir::Scalar;
use swpipe::exec::CompileOptions;
use swpipe::pipeline::{LadderRung, PipelineOptions};
use swpipe::serve::{
    cache_key, EventEngine, EventKind, Job, JobResult, QosClass, ServeOptions, ServeReport,
    Verdict, COMPILE_PENALTY_SECS,
};

/// Scheduler searches a served trace paid for, over all its tenants.
fn searches(report: &ServeReport) -> u64 {
    report.tenants.iter().map(|t| t.search_invocations).sum()
}

/// The serving benchmark's arrival trace: every StreamIt benchmark as
/// its own tenant, `rounds` round-robin rounds 0.05 s apart with a 1 s
/// gap between rounds, QoS alternating by round.
fn bench_trace(rounds: usize, iterations: u64) -> Vec<(Job, f64)> {
    let suite = streambench::suite();
    let mut trace = Vec::new();
    let mut now = 0.0;
    for round in 0..rounds {
        for b in &suite {
            trace.push((
                Job {
                    tenant: b.name.to_string(),
                    graph: b.spec.flatten().expect("benchmark flattens"),
                    input: b.input,
                    iterations,
                    qos: if round % 2 == 0 {
                        QosClass::Batch
                    } else {
                        QosClass::Interactive
                    },
                },
                now,
            ));
            now += 0.05;
        }
        now += 1.0;
    }
    trace
}

fn completed<'a>(v: &'a Verdict, ctx: &str) -> &'a JobResult {
    match v {
        Verdict::Completed(r) => r,
        Verdict::Rejected { retry_after_secs } => {
            panic!("{ctx}: unexpected rejection (retry in {retry_after_secs}s)")
        }
    }
}

/// Requires a served job's outputs to be a non-empty prefix of the CPU
/// interpreter's stream for the same program and input.
fn assert_matches_cpu(job: &Job, outputs: &[Scalar], ctx: &str) {
    let graph = &job.graph;
    let steady = streamir::sdf::solve(graph).expect("steady state");
    let iterations =
        (outputs.len() as u64).div_ceil(steady.output_tokens_per_iteration(graph).max(1));
    let needed = steady.input_tokens_for_init(graph)
        + (iterations + 3) * steady.input_tokens_per_iteration(graph)
        + 64;
    let input = (job.input)(needed as usize);
    let reference = cpu::run(
        graph,
        &steady,
        iterations + 1,
        &input,
        &CpuCostModel::default(),
    )
    .expect("CPU reference runs")
    .outputs;
    assert!(!outputs.is_empty(), "{ctx}: no output");
    assert!(
        outputs.len() <= reference.len(),
        "{ctx}: reference too short"
    );
    assert_eq!(
        outputs,
        &reference[..outputs.len()],
        "{ctx}: outputs diverge from the CPU"
    );
}

/// One job of the known-answer table: `f64::to_bits` of start, finish,
/// latency and exec seconds, then cache hit, shipped rung, slice
/// `(base_sm, num_sms)` and retries.
type Known = (u64, u64, u64, u64, bool, LadderRung, (u32, u32), u64);

use LadderRung::Heuristic;

/// `bench_trace(2, 1)` under `FaultPlan::new(0x5EB7E)
/// .with_launch_failures(30)`, served by the eager server one job at a
/// time (every compile paid inline) and by the engine, which agreed bit
/// for bit. Arrivals are the trace's own instants.
#[rustfmt::skip]
const KNOWN: [Known; 16] = [
    (0x0000000000000000, 0x3fe00267cdc89067, 0x3fe00267cdc89067, 0x3f333e6e448334c8, false, Heuristic, (0, 16), 1),
    (0x3fa999999999999a, 0x3fe19bd970c5777a, 0x3fe0023fd72bdde0, 0x3f31feb95eef0208, false, Heuristic, (8, 8), 1),
    (0x3fb999999999999a, 0x3fe3352596d1ed0d, 0x3fe001f2639eb9da, 0x3f2f2639eb9da156, false, Heuristic, (11, 5), 0),
    (0x3fc3333333333334, 0x3fe4d09598b20332, 0x3fe003c8cbe53665, 0x3f3e465f29b324ce, false, Heuristic, (12, 4), 1),
    (0x3fc999999999999a, 0x3fe66818a55e7086, 0x3fe001b23ef80a20, 0x3f2b23ef80a1f89b, false, Heuristic, (13, 3), 0),
    (0x3fd0000000000000, 0x3fe8016c811ec7dc, 0x3fe0016c811ec7dc, 0x3f26c811ec7dbb87, false, Heuristic, (14, 2), 0),
    (0x3fd3333333333333, 0x3fe99ad180ad1dc9, 0x3fe00137e7138430, 0x3f237e713842f6b8, false, Heuristic, (12, 2), 0),
    (0x3fd6666666666666, 0x3feb416893eec559, 0x3fe00e3560bb9226, 0x3f5c6ac177244b71, false, Heuristic, (14, 2), 0),
    (0x3ff6666666666666, 0x3ffe67420ec140dd, 0x3fe001b750b5b4ee, 0x3f2b750b5b4eeb0c, false, Heuristic, (0, 2), 1),
    (0x3ff7333333333333, 0x3fff33f087935775, 0x3fe0017aa8c04884, 0x3f27aa8c0488455f, false, Heuristic, (2, 2), 0),
    (0x3ff8000000000000, 0x4000007f850e2637, 0x3fe001fe143898dc, 0x3f2fe143898daf8d, false, Heuristic, (4, 2), 0),
    (0x3ff8cccccccccccd, 0x400066ef4a31cb1b, 0x3fe002238f2d92d2, 0x3f311c796c969da0, false, Heuristic, (6, 2), 1),
    (0x3ff999999999999a, 0x4000cd31acc95428, 0x3fe001937ff21d6c, 0x3f2937ff21d6b42f, false, Heuristic, (8, 2), 0),
    (0x3ffa666666666667, 0x400133b3b3587d98, 0x3fe0020200952992, 0x3f301004a94c8132, false, Heuristic, (12, 2), 4),
    (0x3ffb333333333334, 0x400199f4019c0478, 0x3fe00169a009ab78, 0x3f269a009ab78714, false, Heuristic, (10, 2), 2),
    (0x3ffc000000000001, 0x4002038d582ee489, 0x3fe00e3560bb9222, 0x3f5c6ac177244b71, false, Heuristic, (14, 2), 0),
];

/// The known-answer core: every benchmark, two rounds (cold admission
/// recuts, then the settled widths under the other fault policy), a mild
/// fault plan. Every output equals the CPU interpreter's; every per-job
/// field equals the captured table bit for bit; the report equals the
/// captured report byte for byte — including the compile overlap the
/// engine observes on this cold-cache multi-tenant trace.
#[test]
fn differential_all_benchmarks_byte_identical() {
    let opts = ServeOptions {
        fault_plan: Some(FaultPlan::new(0x5EB7E).with_launch_failures(30)),
        ..ServeOptions::default()
    };
    let trace = bench_trace(2, 1);
    let mut engine = EventEngine::new(opts).with_workers(3);
    let verdicts = engine.serve_trace(&trace).unwrap();
    let report = engine.report();

    assert_eq!(verdicts.len(), KNOWN.len());
    for (i, ((job, at), (v, known))) in trace.iter().zip(verdicts.iter().zip(&KNOWN)).enumerate() {
        let ctx = format!("job {i} ({})", job.tenant);
        let r = completed(v, &ctx);
        assert_matches_cpu(job, &r.outputs, &ctx);
        let (start, finish, latency, exec, hit, shipped, (base_sm, num_sms), retries) = *known;
        for (field, got, want) in [
            ("arrival", r.arrival_secs.to_bits(), at.to_bits()),
            ("start", r.start_secs.to_bits(), start),
            ("finish", r.finish_secs.to_bits(), finish),
            ("latency", r.latency_secs.to_bits(), latency),
            ("exec", r.exec_secs.to_bits(), exec),
        ] {
            assert_eq!(got, want, "{ctx}: {field} {:#x} vs known {want:#x}", got);
        }
        assert_eq!(r.cache_hit, hit, "{ctx}: cache outcome");
        assert_eq!(r.shipped, shipped, "{ctx}: shipped rung");
        assert_eq!(
            (r.slice.base_sm, r.slice.num_sms),
            (base_sm, num_sms),
            "{ctx}: slice"
        );
        assert_eq!(r.retries, retries, "{ctx}: retries");
    }
    let known = std::fs::read_to_string("tests/data/serve_engine_known_report.json")
        .expect("committed known-answer report");
    assert_eq!(
        serde_json::to_string_pretty(&report),
        known.trim_end(),
        "the report drifted from tests/data/serve_engine_known_report.json"
    );
    assert!(searches(&report) > 0, "a cold trace pays for its searches");
    assert!(
        report.compile_overlap_secs > 0.0,
        "cold-cache multi-tenant trace must overlap compilation with \
         other tenants' execution"
    );
}

/// The pipeline options a Batch job compiles under at `width` SMs and
/// nominal pressure with the default serving options.
fn nominal_batch_options(width: u32) -> PipelineOptions {
    let serve = ServeOptions::default();
    PipelineOptions {
        compile: CompileOptions {
            device: gpusim::DeviceConfig {
                num_sms: width,
                ..serve.device
            },
            timing: serve.timing,
            profile: serve.profile,
            search: serve.search,
        },
        budgets: serve.budgets,
        fault_plan: None,
        policy: QosClass::Batch.policy(),
        graph_dispatch: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    /// Random arrival traces: (1) two engine runs over the same trace
    /// are bit-identical — verdicts and the whole timeline, its recuts
    /// included; (2) the engine compiles each distinct cache key the
    /// trace's dispatches address exactly once — never twice, however
    /// the compiles overlap — and serves every other dispatch as a hit.
    /// (A queue bound above any backlog keeps pressure nominal, so a
    /// job's key is a function of its graph and its slice width.)
    #[test]
    fn random_traces_serve_deterministically(
        picks in prop::collection::vec((0u8..3, 0u32..15), 1..8),
    ) {
        let mut now = 0.0;
        let mut trace: Vec<(Job, f64)> = Vec::new();
        for &(tenant_sel, gap) in &picks {
            now += 0.07 * f64::from(gap + 1);
            let (name, k) = [("a", 2), ("b", 5), ("c", 9)][tenant_sel as usize];
            trace.push((tiny_job(name, k, 1), now));
        }
        // Feed the engine the trace in *reverse* input order: arrivals
        // are out of order, which the event queue must absorb.
        trace.reverse();
        let opts = ServeOptions {
            max_queue: 64,
            ..ServeOptions::default()
        };

        let mut e1 = EventEngine::new(opts.clone());
        let v1 = e1.serve_trace(&trace).unwrap();
        let mut e2 = EventEngine::new(opts);
        let v2 = e2.serve_trace(&trace).unwrap();

        prop_assert_eq!(v1.len(), v2.len());
        for (i, (a, b)) in v1.iter().zip(&v2).enumerate() {
            assert_verdicts_match(a, b, &format!("same-seed run, job {i}"));
        }
        prop_assert_eq!(e1.trace(), e2.trace());

        let distinct: BTreeSet<u64> = trace
            .iter()
            .zip(&v1)
            .map(|((job, _), v)| {
                let r = completed(v, &job.tenant);
                assert_matches_cpu(job, &r.outputs, &job.tenant);
                cache_key(&job.graph, &nominal_batch_options(r.slice.num_sms))
            })
            .collect();
        let report = e1.report();
        prop_assert_eq!(report.cache.misses, distinct.len() as u64);
        prop_assert_eq!(report.cache.hits, (trace.len() - distinct.len()) as u64);
        prop_assert!(searches(&report) >= report.cache.misses);
    }
}

/// Regression: a tenant that arrives cold (cache miss, full compile
/// penalty) must not move a hot tenant's launch-finish virtual times by
/// a single bit, and the engine must report the compile window as
/// overlapped with the hot tenant's execution.
#[test]
fn cold_compile_overlaps_without_delaying_hot_tenant() {
    // Baseline: hot floods (every 0.1 s for 5 s); cold is admitted at
    // t=0.05 and submits one *cache-hit* job (same graph, no compile
    // penalty) at t=5.03 mid-flood.
    let mut base: Vec<(Job, f64)> =
        vec![(tiny_job("hot", 2, 1), 0.0), (tiny_job("cold", 7, 1), 0.05)];
    let mut t = 1.0;
    while t <= 6.0 + 1e-9 {
        base.push((tiny_job("hot", 2, 1), t));
        t += 0.1;
    }
    // Cold warm-ups after the partition settles: the compile cache keys
    // on the slice width, so cold must have compiled this graph at its
    // *current* width for the baseline's t=5.03 job to genuinely hit.
    base.push((tiny_job("cold", 7, 1), 2.5));
    base.push((tiny_job("cold", 7, 1), 4.9));
    base.push((tiny_job("cold", 7, 1), 5.03));
    base.sort_by(|a, b| a.1.total_cmp(&b.1));
    // Test run: the identical (tenant, time) arrival sequence — so the
    // demand-driven partitioner recuts at exactly the same points — but
    // cold's t=5.03 job uses a *new* graph: a guaranteed cache miss that
    // pays the full compile penalty in the middle of the hot flood. Any
    // movement in hot's finish times is then attributable to the cold
    // compile alone.
    let mut with_cold = base.clone();
    for (job, at) in &mut with_cold {
        if job.tenant == "cold" && (*at - 5.03).abs() < 1e-9 {
            *job = tiny_job("cold", 13, 1);
        }
    }

    // The hot flood outruns its compile penalties during partition
    // warm-up; a deep queue keeps admission out of the picture so the
    // comparison is purely about virtual launch times.
    let opts = ServeOptions {
        max_queue: 64,
        ..ServeOptions::default()
    };
    let mut baseline = EventEngine::new(opts.clone());
    let base_v = baseline.serve_trace(&base).unwrap();
    let mut engine = EventEngine::new(opts);
    let cold_v = engine.serve_trace(&with_cold).unwrap();

    // Guard against the scenario going vacuous: the t=5.03 job must be a
    // genuine cache hit in the baseline and a genuine miss in the test
    // run, or the comparison proves nothing about compile overlap.
    let hit_at_503 = |trace: &[(Job, f64)], verdicts: &[Verdict]| -> bool {
        let i = trace
            .iter()
            .position(|(job, at)| job.tenant == "cold" && (*at - 5.03).abs() < 1e-9)
            .expect("trace has the t=5.03 cold job");
        completed(&verdicts[i], "t=5.03 cold job").cache_hit
    };
    assert!(
        hit_at_503(&base, &base_v),
        "baseline's t=5.03 cold job must hit the warm cache"
    );
    assert!(
        !hit_at_503(&with_cold, &cold_v),
        "test run's t=5.03 cold job must be a cold-cache miss"
    );

    let hot_finishes = |trace: &[(Job, f64)], verdicts: &[Verdict]| -> Vec<u64> {
        trace
            .iter()
            .zip(verdicts)
            .filter(|((job, _), _)| job.tenant == "hot")
            .map(|(_, v)| completed(v, "hot job").finish_secs.to_bits())
            .collect()
    };
    assert_eq!(
        hot_finishes(&base, &base_v),
        hot_finishes(&with_cold, &cold_v),
        "cold tenant's compile delayed the hot tenant's launch finishes"
    );

    let base_hot_p99 = baseline
        .report()
        .tenants
        .iter()
        .find(|t| t.tenant == "hot")
        .unwrap()
        .p99_latency_secs;
    let report = engine.report();
    let hot_row = report.tenants.iter().find(|t| t.tenant == "hot").unwrap();
    assert_eq!(
        hot_row.p99_latency_secs.to_bits(),
        base_hot_p99.to_bits(),
        "hot p99 moved: {} vs solo {}",
        hot_row.p99_latency_secs,
        base_hot_p99
    );
    assert!(
        report.compile_overlap_secs > 0.0,
        "the cold compile window must overlap the hot flood's execution"
    );
    // Contrast: the baseline's t=5.03 cold job was a cache hit, so the
    // test run's extra mid-flood compile window strictly adds overlap on
    // top of whatever the shared warm-up misses already credited.
    assert!(
        report.compile_overlap_secs > baseline.report().compile_overlap_secs,
        "the mid-flood miss must add overlap beyond the warm-up's: {} vs {}",
        report.compile_overlap_secs,
        baseline.report().compile_overlap_secs
    );
}

/// The timeline of the shared suite trace, pinned entry by entry kind:
/// two rounds at four iterations under the default options record one
/// entry per occurrence — 16 arrivals, the 8 first-arrival rebalances,
/// 16 dispatches, 13 compile finishes (one per miss) and 16 launch
/// finishes.
#[test]
fn suite_trace_timeline_is_pinned() {
    let trace = stream_gpu::suite_trace(2, 4);
    let mut engine = EventEngine::new(ServeOptions::default());
    engine.serve_trace(&trace).unwrap();
    let count = |kind: EventKind| engine.trace().iter().filter(|e| e.kind == kind).count();
    assert_eq!(engine.trace().len(), 69);
    assert_eq!(
        [
            count(EventKind::Arrival),
            count(EventKind::Rebalance),
            count(EventKind::Dispatch),
            count(EventKind::CompileFinish),
            count(EventKind::LaunchFinish),
        ],
        [16, 8, 16, 13, 16]
    );
}

/// The EWMA fix, end to end: submitting a trace out of order serves
/// byte-identically to submitting it sorted — the engine records demand
/// at each arrival's true time in true time order either way, where
/// clamping an early arrival to a monotone clock would distort the rate
/// estimate (see the partitioner's recut-sequence unit test).
#[test]
fn out_of_order_submission_equals_sorted_trace() {
    let sorted: Vec<(Job, f64)> = (0..8)
        .map(|i| {
            let (name, k) = if i % 2 == 0 { ("a", 3) } else { ("b", 11) };
            (tiny_job(name, k, 1), 0.3 * f64::from(i))
        })
        .collect();
    let mut shuffled = sorted.clone();
    shuffled.reverse();
    shuffled.swap(1, 5);

    let mut e_sorted = EventEngine::new(ServeOptions::default());
    let v_sorted = e_sorted.serve_trace(&sorted).unwrap();
    let mut e_shuffled = EventEngine::new(ServeOptions::default());
    let v_shuffled = e_shuffled.serve_trace(&shuffled).unwrap();

    // The same recuts at the same instants; only trace indices differ.
    let recuts = |engine: &EventEngine| -> Vec<(u64, String)> {
        (engine.trace().iter())
            .filter(|e| e.kind == EventKind::Rebalance)
            .map(|e| (e.time_secs.to_bits(), e.detail.clone()))
            .collect()
    };
    assert_eq!(recuts(&e_sorted), recuts(&e_shuffled));
    for (i, (job, at)) in sorted.iter().enumerate() {
        let j = shuffled
            .iter()
            .position(|(sj, st)| st.to_bits() == at.to_bits() && sj.tenant == job.tenant)
            .expect("same arrivals in both traces");
        assert_verdicts_match(
            &v_sorted[i],
            &v_shuffled[j],
            &format!("arrival at {at}s ({})", job.tenant),
        );
    }
}

/// The CI fault matrix: under each pinned fault kind every job completes
/// with outputs equal to the CPU interpreter's and to a fault-free run
/// of the same trace, and the faults were really injected (retries
/// recorded). Runs one kind when `SWPIPE_FAULT_MATRIX` selects it, all
/// three otherwise.
#[test]
fn fault_matrix_differential_byte_identical() {
    const ITERATIONS: u64 = 16;
    let matrix = std::env::var("SWPIPE_FAULT_MATRIX").ok();
    let kinds: Vec<(&str, FaultPlan)> = vec![
        (
            "launch-failure",
            FaultPlan::new(11).with_launch_failures(100),
        ),
        ("mem-fault", FaultPlan::new(12).with_mem_corruptions(100)),
        ("watchdog", FaultPlan::new(13).with_hangs(80)),
    ];
    let trace: Vec<(Job, f64)> = (0..6)
        .map(|i| {
            let (t, k) = if i % 2 == 0 { ("a", 2) } else { ("b", 5) };
            (tiny_job(t, k, ITERATIONS), 0.2 * f64::from(i))
        })
        .collect();
    let clean = EventEngine::new(ServeOptions::default())
        .serve_trace(&trace)
        .unwrap();
    let mut ran = 0;
    for (name, plan) in kinds {
        if matrix.as_deref().is_some_and(|m| m != name) {
            continue;
        }
        ran += 1;
        let mut engine = EventEngine::new(ServeOptions {
            fault_plan: Some(plan),
            ..ServeOptions::default()
        });
        let verdicts = engine.serve_trace(&trace).unwrap();
        let mut retries = 0;
        for (i, ((job, _), (v, c))) in trace.iter().zip(verdicts.iter().zip(&clean)).enumerate() {
            let ctx = format!("{name}, job {i}");
            let r = completed(v, &ctx);
            assert_matches_cpu(job, &r.outputs, &ctx);
            assert_eq!(
                r.outputs,
                completed(c, &ctx).outputs,
                "{ctx}: faults changed outputs"
            );
            retries += r.retries;
        }
        assert!(retries > 0, "{name}: the plan injected no fault");
    }
    assert!(ran >= 1, "SWPIPE_FAULT_MATRIX selected no known fault kind");
}

/// The causal clock, as a known answer: a second tenant whose dispatch
/// lands on a key another tenant reserved is a pending hit, and it
/// starts executing when the owner's compile finishes — not at its own
/// arrival, before the artifact exists.
#[test]
fn pending_hit_waits_for_the_owners_compile_to_finish() {
    // Two tenants settle into equal slices on their own graphs, then
    // both submit the same new graph: the owner at t = 2.0 (a miss, its
    // compile window [2.0, 2.5)) and the joiner at t = 2.05.
    let trace = vec![
        (tiny_job("owner", 3, 1), 0.0),
        (tiny_job("joiner", 7, 1), 0.05),
        (tiny_job("owner", 3, 1), 1.0),
        (tiny_job("joiner", 7, 1), 1.05),
        (tiny_job("owner", 13, 1), 2.0),
        (tiny_job("joiner", 13, 1), 2.05),
    ];
    let mut engine = EventEngine::new(ServeOptions::default());
    let verdicts = engine.serve_trace(&trace).unwrap();
    let owner = completed(&verdicts[4], "owner");
    let joiner = completed(&verdicts[5], "joiner");
    assert_eq!(
        owner.slice.num_sms, joiner.slice.num_sms,
        "same width, same key"
    );
    assert!(!owner.cache_hit, "the owner pays the compile");
    assert!(joiner.cache_hit, "the joiner lands on the reservation");

    let penalty = COMPILE_PENALTY_SECS;
    let compiled_at = owner.start_secs + penalty;
    assert_eq!(compiled_at, 2.5);
    assert_eq!(
        owner.finish_secs.to_bits(),
        (compiled_at + owner.exec_secs).to_bits()
    );
    assert_eq!(
        joiner.start_secs.to_bits(),
        2.05f64.to_bits(),
        "no queueing"
    );
    assert_eq!(
        joiner.finish_secs.to_bits(),
        (compiled_at + joiner.exec_secs).to_bits(),
        "executes from the compile's finish"
    );
    let report = engine.report();
    assert_eq!((report.cache.misses, report.cache.hits), (4, 2));
}
