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
//! * **determinism** — same seed, same storm: verdicts, the
//!   controller's decision log, and the engine's event trace replay
//!   byte-for-byte (property-tested across seeds).
//!
//! Criterion (c) — the model-chosen commit interval beating `k = 1` at
//! low fault rates — lives in `tests/resilience.rs` next to the
//! executor-level checkpoint tests.

use gpusim::FaultPlan;
use proptest::prelude::*;
use streamir::graph::{FilterSpec, FlatGraph, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};
use swpipe::serve::{
    BrownoutSpec, ChaosStorm, EventEngine, Job, QosClass, ResilienceOptions, ServeOptions,
    TenantReport, Verdict,
};

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

/// A small two-tenant trace of stateless tiny jobs.
fn tiny_trace(jobs: usize, iterations: u64) -> Vec<(Job, f64)> {
    (0..jobs)
        .map(|i| {
            let (name, k) = if i % 2 == 0 { ("a", 3) } else { ("b", 7) };
            (tiny_job(name, k, iterations), 0.2 * i as f64)
        })
        .collect()
}

/// Byte-level equality of two verdicts (same contract as the
/// serve_engine differential suite: every virtual-time field compared
/// bit-for-bit).
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

/// Criterion (a): with no faults the controller observes a zero retry
/// rate, never crosses any band, and must be invisible — an engine with
/// the controller enabled serves a fault-free trace byte- and
/// cycle-identically to one with it disabled: same verdict bits, same
/// processed-event trace, same serialized report, and an empty decision
/// log.
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
    assert!(
        adaptive.decisions().is_empty(),
        "zero retries must produce zero decisions: {:?}",
        adaptive.decisions()
    );
    assert_eq!(
        serde_json::to_string(&plain.report()),
        serde_json::to_string(&adaptive.report()),
        "fault-free reports must serialize identically"
    );
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
        adaptive.decisions()
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
/// range, the recut is logged, every post-brownout slice fits the
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

    assert!(
        browned.recut_log().len() > full.recut_log().len(),
        "the brownout must force an extra recut: {} vs {}",
        browned.recut_log().len(),
        full.recut_log().len()
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
    /// twice under one [`ChaosStorm`] reproduces the verdict bits, the
    /// controller's decision log, and the processed-event trace
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
        prop_assert_eq!(e1.decisions(), e2.decisions());
        prop_assert_eq!(e1.trace(), e2.trace());
    }
}
