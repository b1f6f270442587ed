//! Differential tests for the event-driven serving engine: the
//! discrete-event [`EventEngine`] must be observationally equivalent to
//! the eager [`Server`] — byte-identical per-job results and identical
//! report schedules over every benchmark — while adding what the eager
//! path cannot have: compile/execute overlap, deterministic handling of
//! out-of-order submission, and a bounded compile worker pool.
//!
//! Covered here:
//! * full-suite differential (all 8 StreamIt benchmarks × a seeded
//!   arrival trace, under a fault plan);
//! * property: random arrival traces serve deterministically across two
//!   same-seed engine runs, and the engine never invokes the scheduler
//!   more often than the eager path on the same trace;
//! * regression: a cold-compiling tenant must not delay a hot tenant's
//!   launch-finish virtual times, while the engine reports positive
//!   compile overlap;
//! * out-of-order submission equals the sorted trace (the EWMA
//!   recording fix);
//! * the `SWPIPE_FAULT_MATRIX` kinds stay differentially identical.

use gpusim::FaultPlan;
use proptest::prelude::*;
use streamir::graph::{FilterSpec, FlatGraph, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};
use swpipe::serve::{EventEngine, Job, QosClass, ServeOptions, ServeReport, Server, Verdict};

/// Scheduler searches a served trace paid for, over all its tenants.
fn searches(report: &ServeReport) -> u64 {
    report.tenants.iter().map(|t| t.search_invocations).sum()
}

fn map_filter(name: &str, k: i32) -> StreamSpec {
    let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let x = b.local(ElemTy::I32);
    b.pop_into(0, x);
    b.push(0, Expr::local(x).mul(Expr::i32(k)));
    StreamSpec::filter(FilterSpec::new(name, b.build().unwrap()))
}

fn chain(k: i32) -> FlatGraph {
    StreamSpec::pipeline(vec![map_filter("f", k), map_filter("g", k + 1)])
        .flatten()
        .unwrap()
}

fn tiny_job(tenant: &str, k: i32, iterations: u64) -> Job {
    Job {
        tenant: tenant.to_string(),
        graph: chain(k),
        input: |n| (0..n).map(|i| Scalar::I32(i as i32)).collect(),
        iterations,
        qos: QosClass::Batch,
    }
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

/// Feeds a (time-sorted) trace to the eager server job by job.
fn serve_eager(opts: ServeOptions, trace: &[(Job, f64)]) -> (Vec<Verdict>, ServeReport) {
    let mut server = Server::new(opts);
    let verdicts = trace
        .iter()
        .map(|(job, at)| server.submit(job, *at).expect("eager job serves"))
        .collect();
    (verdicts, server.report())
}

/// Byte-level equality of two verdicts: outputs, every virtual-time
/// field bit-for-bit, cache outcome, shipped rung, slice, retries.
fn assert_verdicts_match(a: &Verdict, b: &Verdict, ctx: &str) {
    match (a, b) {
        (Verdict::Completed(x), Verdict::Completed(y)) => {
            assert_eq!(x.outputs, y.outputs, "{ctx}: outputs diverge");
            for (field, l, r) in [
                ("arrival", x.arrival_secs, y.arrival_secs),
                ("start", x.start_secs, y.start_secs),
                ("finish", x.finish_secs, y.finish_secs),
                ("latency", x.latency_secs, y.latency_secs),
                ("exec", x.exec_secs, y.exec_secs),
            ] {
                assert_eq!(l.to_bits(), r.to_bits(), "{ctx}: {field} {l} vs {r}");
            }
            assert_eq!(x.cache_hit, y.cache_hit, "{ctx}: cache outcome");
            assert_eq!(x.shipped, y.shipped, "{ctx}: shipped rung");
            assert_eq!(x.slice, y.slice, "{ctx}: slice");
            assert_eq!(x.retries, y.retries, "{ctx}: retries");
        }
        (
            Verdict::Rejected {
                retry_after_secs: l,
            },
            Verdict::Rejected {
                retry_after_secs: r,
            },
        ) => {
            assert_eq!(l.to_bits(), r.to_bits(), "{ctx}: retry hint {l} vs {r}");
        }
        _ => panic!("{ctx}: verdict kinds diverge: {a:?} vs {b:?}"),
    }
}

/// A report as JSON with the overlap observables stripped — everything
/// that must match between the eager path (which cannot overlap and
/// reports zero) and the engine.
fn report_sans_overlap(report: &ServeReport) -> serde_json::Value {
    fn strip(v: serde_json::Value) -> serde_json::Value {
        match v {
            serde_json::Value::Object(fields) => serde_json::Value::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "compile_overlap_secs")
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            serde_json::Value::Array(items) => {
                serde_json::Value::Array(items.into_iter().map(strip).collect())
            }
            other => other,
        }
    }
    strip(serde_json::from_str(&serde_json::to_string(report)).expect("report round-trips"))
}

/// The differential core: every benchmark, two rounds (cold admission
/// recuts, then repeats that hit the cache), a mild fault plan. Per-job
/// results must be byte-identical between the eager server and the
/// event engine; the reports must agree on everything except the
/// overlap the engine alone can observe — which must be positive on
/// this cold-cache multi-tenant trace.
#[test]
fn differential_all_benchmarks_byte_identical() {
    let opts = ServeOptions {
        fault_plan: Some(FaultPlan::new(0x5EB7E).with_launch_failures(30)),
        ..ServeOptions::default()
    };
    let trace = bench_trace(2, 1);

    let (eager_v, eager_r) = serve_eager(opts.clone(), &trace);

    let mut engine = EventEngine::new(opts).with_workers(3);
    let engine_v = engine.serve_trace(&trace).unwrap();
    let engine_r = engine.report();

    assert_eq!(eager_v.len(), engine_v.len());
    for (i, (a, b)) in eager_v.iter().zip(&engine_v).enumerate() {
        assert_verdicts_match(a, b, &format!("job {i} ({})", trace[i].0.tenant));
    }
    assert_eq!(
        report_sans_overlap(&eager_r),
        report_sans_overlap(&engine_r),
        "reports diverge beyond the overlap observables"
    );
    assert!(searches(&eager_r) > 0, "a cold trace pays for its searches");
    assert!(
        searches(&engine_r) <= searches(&eager_r),
        "engine paid for {} searches, eager only {}",
        searches(&engine_r),
        searches(&eager_r)
    );
    assert!(
        eager_r.compile_overlap_secs == 0.0,
        "the eager path cannot overlap compilation with execution"
    );
    assert!(
        engine_r.compile_overlap_secs > 0.0,
        "cold-cache multi-tenant trace must overlap compilation with \
         other tenants' execution"
    );
    for t in &engine_r.tenants {
        assert!(t.queue_wait_p99_secs >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    /// Random arrival traces: (1) two engine runs over the same trace
    /// are bit-identical — verdicts, the processed-event trace, and the
    /// recut log; (2) the engine never invokes the scheduler more often
    /// than the eager path serving the time-sorted equivalent.
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

        let mut e1 = EventEngine::new(ServeOptions::default());
        let v1 = e1.serve_trace(&trace).unwrap();
        let engine_searches = searches(&e1.report());

        let mut e2 = EventEngine::new(ServeOptions::default());
        let v2 = e2.serve_trace(&trace).unwrap();

        prop_assert_eq!(v1.len(), v2.len());
        for (i, (a, b)) in v1.iter().zip(&v2).enumerate() {
            assert_verdicts_match(a, b, &format!("same-seed run, job {i}"));
        }
        prop_assert_eq!(e1.trace(), e2.trace());
        prop_assert_eq!(e1.recut_log(), e2.recut_log());

        let mut sorted = trace.clone();
        sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
        let eager_searches = searches(&serve_eager(ServeOptions::default(), &sorted).1);
        prop_assert!(
            engine_searches <= eager_searches,
            "engine {} searches vs eager {}",
            engine_searches,
            eager_searches
        );
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
        match &verdicts[i] {
            Verdict::Completed(r) => r.cache_hit,
            Verdict::Rejected { .. } => panic!("t=5.03 cold job rejected"),
        }
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
            .map(|(_, v)| match v {
                Verdict::Completed(r) => r.finish_secs.to_bits(),
                Verdict::Rejected { .. } => panic!("hot job rejected"),
            })
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

/// The EWMA fix, end to end: submitting a trace out of order serves
/// byte-identically to submitting it sorted — the engine records demand
/// at arrival-event dequeue in true time order either way, where the
/// eager server would have clamped the early arrival to its clock (see
/// the partitioner's `recut_log` unit test for the divergence).
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

    assert_eq!(e_sorted.recut_log(), e_shuffled.recut_log());
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

/// The CI fault matrix, differentially: under each pinned fault kind
/// the engine and the eager server serve byte-identical results — the
/// per-artifact fault plan is cloned into both paths' run options, so
/// fault injection cannot tell them apart. Runs one kind when
/// `SWPIPE_FAULT_MATRIX` selects it, all three otherwise.
#[test]
fn fault_matrix_differential_byte_identical() {
    let matrix = std::env::var("SWPIPE_FAULT_MATRIX").ok();
    let kinds: Vec<(&str, FaultPlan)> = vec![
        (
            "launch-failure",
            FaultPlan::new(11).with_launch_failures(100),
        ),
        ("mem-fault", FaultPlan::new(12).with_mem_corruptions(100)),
        ("watchdog", FaultPlan::new(13).with_hangs(80)),
    ];
    let mut ran = 0;
    for (name, plan) in kinds {
        if matrix.as_deref().is_some_and(|m| m != name) {
            continue;
        }
        ran += 1;
        let opts = ServeOptions {
            fault_plan: Some(plan),
            ..ServeOptions::default()
        };
        let trace: Vec<(Job, f64)> = (0..6)
            .map(|i| {
                let (t, k) = if i % 2 == 0 { ("a", 2) } else { ("b", 5) };
                (tiny_job(t, k, 2), 0.2 * f64::from(i))
            })
            .collect();
        let (eager_v, eager_r) = serve_eager(opts.clone(), &trace);
        let mut engine = EventEngine::new(opts);
        let engine_v = engine.serve_trace(&trace).unwrap();
        for (i, (a, b)) in eager_v.iter().zip(&engine_v).enumerate() {
            assert_verdicts_match(a, b, &format!("{name}, job {i}"));
        }
        assert_eq!(
            report_sans_overlap(&eager_r),
            report_sans_overlap(&engine.report()),
            "{name}: reports diverge"
        );
    }
    assert!(ran >= 1, "SWPIPE_FAULT_MATRIX selected no known fault kind");
}
