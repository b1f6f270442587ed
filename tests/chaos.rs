//! Chaos and adaptive-resilience acceptance tests for the serving
//! engine, locking down ISSUE 6's three criteria:
//!
//! * **(a) invisibility** — on a fault-free trace, an engine with the
//!   adaptive controller enabled is byte- and cycle-identical to one
//!   without it: same verdict bits, same event trace, same report;
//! * **(b) adaptation pays** — under a sustained hang storm, the
//!   adaptive policy (retry-rate EWMA switching the noisy tenant from
//!   Throughput to TailLatency) achieves a lower queue-wait p99 than
//!   the frozen static policy, with byte-identical outputs;
//! * **brownout** — a mid-trace device brownout recuts every tenant
//!   into the shrunk SM range without changing a single output byte;
//! * **determinism** — same seed, same storm: verdicts and the
//!   engine's whole timeline, the controller's changes included, replay
//!   byte-for-byte (property-tested across seeds).
//!
//! Criterion (c) — the model-chosen commit interval beating `k = 1` at
//! low fault rates — lives in `tests/resilience.rs` next to the
//! executor-level checkpoint tests.

mod common;

use common::{assert_verdicts_match, map_filter, tiny_job};
use gpusim::FaultPlan;
use proptest::prelude::*;
use streamir::graph::{FilterSpec, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};
use swpipe::serve::{
    BrownoutSpec, ChaosStorm, EventEngine, EventKind, Job, QosClass, ResilienceOptions,
    ServeOptions, TenantReport, TraceEvent, Verdict,
};

/// The controller's changes on a timeline: its policy switches and
/// interval changes.
fn controller_entries(timeline: &[TraceEvent]) -> Vec<&TraceEvent> {
    (timeline.iter())
        .filter(|e| matches!(e.kind, EventKind::PolicySwitch | EventKind::IntervalChange))
        .collect()
}

/// A small two-tenant trace of stateless tiny jobs.
fn tiny_trace(jobs: usize, iterations: u64) -> Vec<(Job, f64)> {
    (0..jobs)
        .map(|i| {
            let (name, k) = if i % 2 == 0 { ("a", 3) } else { ("b", 7) };
            (tiny_job(name, k, iterations), 0.2 * i as f64)
        })
        .collect()
}

/// Criterion (a): with no faults the controller observes a zero retry
/// rate, never crosses any band, and must be invisible — an engine with
/// the controller enabled serves a fault-free trace byte- and
/// cycle-identically to one with it disabled: same verdict bits, same
/// timeline, same serialized report, and no controller change on it.
#[test]
fn fault_free_controller_is_byte_and_cycle_invisible() {
    let trace = tiny_trace(8, 2);
    let mut plain = EventEngine::new(ServeOptions::default());
    let v_plain = plain.serve_trace(&trace).unwrap();

    let opts = ServeOptions {
        resilience: ResilienceOptions {
            enabled: true,
            ..ResilienceOptions::default()
        },
        ..ServeOptions::default()
    };
    let mut adaptive = EventEngine::new(opts);
    let v_adaptive = adaptive.serve_trace(&trace).unwrap();

    assert_eq!(v_plain.len(), v_adaptive.len());
    for (i, (a, b)) in v_plain.iter().zip(&v_adaptive).enumerate() {
        assert_verdicts_match(a, b, &format!("fault-free job {i}"));
    }
    assert_eq!(
        plain.trace(),
        adaptive.trace(),
        "the controller must not reorder or add events on a fault-free trace"
    );
    let changes = controller_entries(adaptive.trace());
    assert!(
        changes.is_empty(),
        "zero retries must change nothing: {changes:?}"
    );
    assert_eq!(
        serde_json::to_string(&plain.report()),
        serde_json::to_string(&adaptive.report()),
        "fault-free reports must serialize identically"
    );
}

/// A stateful tenant's commit-interval change is recorded once, as an
/// `IntervalChange` entry at the finish of the job whose observation
/// made it: with no faults the cost model amortizes commits over more
/// than one launch, so the first job moves the interval off 1, and the
/// report's interval is the entry's target.
#[test]
fn interval_change_is_one_timeline_entry() {
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let acc = f.state(ElemTy::I32, Scalar::I32(0));
    let x = f.local(ElemTy::I32);
    f.pop_into(0, x);
    f.store_state(acc, Expr::state(acc).add(Expr::local(x)));
    f.push(0, Expr::state(acc));
    let accumulator = StreamSpec::filter(FilterSpec::new("acc", f.build().unwrap()));
    let job = Job {
        graph: StreamSpec::pipeline(vec![map_filter("pre", 3), accumulator])
            .flatten()
            .unwrap(),
        ..tiny_job("s", 3, 4)
    };
    let trace: Vec<(Job, f64)> = (0..3).map(|i| (job.clone(), f64::from(i))).collect();
    let opts = ServeOptions {
        resilience: ResilienceOptions {
            enabled: true,
            ..ResilienceOptions::default()
        },
        ..ServeOptions::default()
    };
    let mut engine = EventEngine::new(opts);
    let verdicts = engine.serve_trace(&trace).unwrap();
    let changes = controller_entries(engine.trace());
    assert_eq!(changes.len(), 1, "{changes:?}");
    let change = changes[0];
    assert_eq!(
        (change.kind, change.job),
        (EventKind::IntervalChange, Some(0))
    );
    let Verdict::Completed(first) = &verdicts[0] else {
        panic!("the first job completes");
    };
    assert_eq!(change.time_secs.to_bits(), first.finish_secs.to_bits());
    let k = tenant_row(&engine.report().tenants, "s").checkpoint_interval;
    assert!(k > 1, "k = {k}");
    assert!(change.detail.starts_with(&format!("1->{k} ")), "{change:?}");
}

fn tenant_row<'a>(rows: &'a [TenantReport], name: &str) -> &'a TenantReport {
    rows.iter()
        .find(|t| t.tenant == name)
        .unwrap_or_else(|| panic!("no report row for tenant {name}"))
}

/// Criterion (b): one noisy Throughput tenant under a sustained hang
/// storm, served twice over the identical backlogged trace — once with
/// policy switching live (upper band 0.05) and once frozen (band at
/// infinity). The adaptive run must actually switch, must deliver
/// byte-identical outputs (policies trade time, never correctness), and
/// must beat the static run's queue-wait p99: TailLatency's fault
/// reserve inflates the II, the schedule needs fewer stages, each job
/// runs fewer launches, and fewer launches draw fewer multi-second
/// watchdog hangs.
#[test]
fn adaptive_policy_beats_static_under_hang_storm() {
    let bench = streambench::by_name("FMRadio").expect("suite has FMRadio");
    let trace: Vec<(Job, f64)> = (0..12)
        .map(|i| {
            (
                Job {
                    tenant: "noisy".to_string(),
                    graph: bench.spec.flatten().expect("benchmark flattens"),
                    input: bench.input,
                    iterations: 6,
                    qos: QosClass::Batch,
                },
                0.01 * i as f64,
            )
        })
        .collect();
    let storm = FaultPlan::new(0xBAD_5EED)
        .with_hangs(120)
        .with_launch_failures(40);
    let opts_with_band = |band: f64| ServeOptions {
        fault_plan: Some(storm.clone()),
        resilience: ResilienceOptions {
            enabled: true,
            dwell_jobs: 1,
            retry_max_attempts: Some(10),
        },
        retry_warn_threshold: band,
        max_queue: 64,
        ..ServeOptions::default()
    };

    let mut adaptive = EventEngine::new(opts_with_band(0.05));
    let v_adaptive = adaptive.serve_trace(&trace).unwrap();
    let mut static_policy = EventEngine::new(opts_with_band(f64::INFINITY));
    let v_static = static_policy.serve_trace(&trace).unwrap();

    // Same storm, same trace: every job completes either way and the
    // outputs must not depend on which policy served them.
    for (i, (a, s)) in v_adaptive.iter().zip(&v_static).enumerate() {
        match (a, s) {
            (Verdict::Completed(x), Verdict::Completed(y)) => {
                assert_eq!(x.outputs, y.outputs, "job {i}: outputs diverge");
            }
            _ => panic!("job {i}: a storm the budget survives must complete"),
        }
    }

    let a_report = adaptive.report();
    let s_report = static_policy.report();
    let a_row = tenant_row(&a_report.tenants, "noisy");
    let s_row = tenant_row(&s_report.tenants, "noisy");
    assert!(
        a_row.policy_switches >= 1,
        "the hang storm must push the EWMA over the band: {:?}",
        controller_entries(adaptive.trace())
    );
    assert_eq!(
        s_row.policy_switches, 0,
        "an infinite band must freeze the policy"
    );
    assert!(
        a_row.queue_wait_p99_secs < s_row.queue_wait_p99_secs,
        "adaptive queue-wait p99 {} must beat static {}",
        a_row.queue_wait_p99_secs,
        s_row.queue_wait_p99_secs
    );
}

/// A mid-trace brownout shrinks the device out from under a served
/// trace: the partitioner recuts every tenant into the surviving SM
/// range, the recut is one brownout entry on the timeline and is counted
/// in the report's `rebalances`, every post-brownout slice fits the
/// shrunk device — and not one output byte changes relative to the
/// full-width run (slice width trades time, never values).
#[test]
fn brownout_recuts_without_changing_outputs() {
    let trace = tiny_trace(10, 2);
    let mut full = EventEngine::new(ServeOptions::default());
    let v_full = full.serve_trace(&trace).unwrap();

    let brownout = BrownoutSpec {
        at_secs: 0.9,
        total_sms: 6,
    };
    let mut browned = EventEngine::new(ServeOptions::default()).with_brownout(brownout);
    let v_browned = browned.serve_trace(&trace).unwrap();

    assert_eq!(v_full.len(), v_browned.len());
    let mut compared = 0;
    for (i, (f, b)) in v_full.iter().zip(&v_browned).enumerate() {
        if let (Verdict::Completed(x), Verdict::Completed(y)) = (f, b) {
            assert_eq!(x.outputs, y.outputs, "job {i}: brownout changed outputs");
            compared += 1;
        }
    }
    assert!(compared > 0, "no completed jobs to compare");

    // Recuts counted on each timeline: every rebalance, and the
    // brownout's own recut (the trace has admitted tenants by then).
    let recuts = |timeline: &[TraceEvent]| {
        (timeline.iter())
            .filter(|e| matches!(e.kind, EventKind::Rebalance | EventKind::Brownout))
            .count() as u64
    };
    let brownouts: Vec<&TraceEvent> = (browned.trace().iter())
        .filter(|e| e.kind == EventKind::Brownout)
        .collect();
    assert_eq!(brownouts.len(), 1, "one brownout, one entry: {brownouts:?}");
    assert!(
        brownouts[0].detail.starts_with("sms=6 "),
        "the entry carries the recut widths: {brownouts:?}"
    );
    assert_eq!(recuts(browned.trace()), browned.report().rebalances);
    assert_eq!(recuts(full.trace()), full.report().rebalances);
    assert!(
        browned.report().rebalances > full.report().rebalances,
        "the brownout must force an extra recut: {} vs {}",
        browned.report().rebalances,
        full.report().rebalances
    );
    // Every job that *arrived* after the brownout ran inside the
    // shrunk range.  (Jobs arriving earlier may have been sliced at
    // dispatch time, before the recut, even if they started later.)
    for v in &v_browned {
        if let Verdict::Completed(r) = v {
            if r.arrival_secs >= brownout.at_secs {
                assert!(
                    r.slice.base_sm + r.slice.num_sms <= brownout.total_sms,
                    "slice [{}+{}] escapes the {}-SM brownout",
                    r.slice.base_sm,
                    r.slice.num_sms,
                    brownout.total_sms
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Same seed, same storm, same decisions: serving the same trace
    /// twice under one [`ChaosStorm`] reproduces the verdict bits and
    /// the whole timeline, the controller's changes included,
    /// byte-for-byte — the replay invariant the chaos soak harness
    /// leans on, property-tested across storm seeds.
    #[test]
    fn same_seed_storms_replay_decision_logs_exactly(seed in 1u64..1_000_000) {
        let storm = ChaosStorm {
            seed,
            horizon_attempts: 12,
            ..ChaosStorm::default()
        };
        let opts = ServeOptions {
            fault_plan: Some(storm.fault_plan()),
            resilience: ResilienceOptions {
                enabled: true,
                dwell_jobs: 1,
                retry_max_attempts: Some(8),
            },
            retry_warn_threshold: 0.05,
            ..ServeOptions::default()
        };
        let trace = tiny_trace(6, 2);

        let mut e1 = EventEngine::new(opts.clone());
        let v1 = e1.serve_trace(&trace).unwrap();
        let mut e2 = EventEngine::new(opts);
        let v2 = e2.serve_trace(&trace).unwrap();

        prop_assert_eq!(v1.len(), v2.len());
        for (i, (a, b)) in v1.iter().zip(&v2).enumerate() {
            assert_verdicts_match(a, b, &format!("seed {seed}, job {i}"));
        }
        prop_assert_eq!(e1.trace(), e2.trace());
    }
}
