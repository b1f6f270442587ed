//! Fleet acceptance tests (ISSUE 7):
//!
//! * **Differential failover** — a mid-run device loss over the full
//!   benchmark suite completes every job with outputs byte-identical
//!   to a fault-free single-device reference, with the failover
//!   overhead billed into the disjoint `failover_cycles` component and
//!   the billing invariant intact;
//! * **Completion-or-rejection** — rolling kill storms lose no jobs:
//!   every submission completes or is rejected, even when no usable
//!   failover target remains;
//! * **One timeline** — under a storm, each arrival has one `Dispatch`
//!   entry carrying its route, each health transition, failover and
//!   abandon one entry, and `router_decisions` counts exactly those;
//! * **Determinism** — same-seed fleet chaos replays to identical
//!   timelines, reports, and output bytes, property-tested
//!   over random traces × device counts ∈ {2, 4, 8}, and no job ever
//!   executes before its artifact's compile finishes;
//! * **Replication dividend** — the cross-device artifact store's hit
//!   rate beats a solo device's disk tier on the same trace.
//! * **Solo is a fleet of one** — a 1-device, replication-1 fleet
//!   serves the suite trace bit-identically to the solo `EventEngine`,
//!   with and without faults and the controller;
//! * **One causal clock** — a rerouted remote hit starts executing at
//!   its artifact's compile finish plus the fetch, pinned bit for bit.

use proptest::prelude::*;
use streamir::graph::{FilterSpec, FlatGraph, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};

use gpusim::{DeviceFaultPlan, DeviceId, FaultPlan};
use stream_gpu::fleet_bench;
use swpipe::fleet::{
    Fetch, FleetEngine, FleetOptions, FleetStorm, FleetVerdict, RackBrownout, Router,
    FETCH_PENALTY_SECS,
};
use swpipe::serve::{
    EventEngine, EventKind, Job, QosClass, ResilienceOptions, ServeOptions, Verdict,
    COMPILE_PENALTY_SECS,
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

fn tiny_job(tenant: &str, k: i32, iterations: u64, qos: QosClass) -> Job {
    Job {
        tenant: tenant.to_string(),
        graph: chain(k),
        input: |n| (0..n).map(|i| Scalar::I32(i as i32)).collect(),
        iterations,
        qos,
    }
}

/// A three-tenant round-robin trace of tiny stateless jobs.
fn tiny_trace(jobs: usize, iterations: u64) -> Vec<(Job, f64)> {
    (0..jobs)
        .map(|i| {
            let (name, k) = match i % 3 {
                0 => ("a", 3),
                1 => ("b", 7),
                _ => ("c", 11),
            };
            let qos = if i % 3 == 1 {
                QosClass::Interactive
            } else {
                QosClass::Batch
            };
            (tiny_job(name, k, iterations, qos), 0.2 * i as f64)
        })
        .collect()
}

fn outputs_of(v: &FleetVerdict) -> &[Scalar] {
    match v {
        FleetVerdict::Completed(r) => &r.outputs,
        FleetVerdict::Rejected { .. } => panic!("expected a completed job"),
    }
}

/// "Solo is a fleet of one": [`EventEngine`] is the fleet loop at
/// N = 1, where routing and replication are no-ops, so a 1-device,
/// R = 1 fleet must reproduce it bit for bit —
/// per-job outputs and virtual instants, the makespan, and the store
/// counters — with and without launch faults and the online controller
/// (whose commit interval then replaces the configured one: 1 for the
/// engine, `FleetOptions::checkpoint_interval` for the fleet).
#[test]
fn one_device_fleet_serves_bit_identically_to_the_solo_engine() {
    let trace = stream_gpu::suite_trace(2, 2);
    let stormy = ServeOptions {
        fault_plan: Some(FaultPlan::new(0x5EB7E).with_launch_failures(30)),
        resilience: ResilienceOptions {
            enabled: true,
            ..ResilienceOptions::default()
        },
        ..fleet_bench::base_serve_options()
    };
    for (name, base) in [
        ("fault-free", fleet_bench::base_serve_options()),
        ("stormy", stormy),
    ] {
        let penalty = COMPILE_PENALTY_SECS;
        let mut solo = EventEngine::new(base.clone());
        let solo_verdicts = solo.serve_trace(&trace).expect("solo trace serves");
        let solo_report = solo.report();

        let opts = FleetOptions {
            base,
            ..fleet_bench::solo_options()
        };
        let (fleet_report, _, fleet_verdicts) = fleet_bench::run_fleet(opts, &trace);

        assert_eq!(solo_verdicts.len(), fleet_verdicts.len());
        for (i, (s, f)) in solo_verdicts.iter().zip(&fleet_verdicts).enumerate() {
            let (Verdict::Completed(s), FleetVerdict::Completed(f)) = (s, f) else {
                panic!("{name} job {i}: completion pattern diverged");
            };
            assert_eq!(s.outputs, f.outputs, "{name} job {i}: outputs diverge");
            // The fleet reports when execution began: after the compile
            // head of a miss.
            let exec_start = s.start_secs + if s.cache_hit { 0.0 } else { penalty };
            for (field, l, r) in [
                ("finish", s.finish_secs, f.finish_secs),
                ("latency", s.latency_secs, f.latency_secs),
                ("exec start", exec_start, f.start_secs),
            ] {
                assert_eq!(
                    l.to_bits(),
                    r.to_bits(),
                    "{name} job {i}: {field} {l} vs {r}"
                );
            }
            assert_eq!(s.retries, f.stats.retries, "{name} job {i}: retries");
        }
        assert_eq!(
            solo_report.makespan_secs.to_bits(),
            fleet_report.makespan_secs.to_bits()
        );
        assert_eq!(solo_report.cache.misses, fleet_report.store.misses);
        assert_eq!(solo_report.cache.hits, fleet_report.store.local_hits);
        assert_eq!(solo_report.artifacts, fleet_report.artifacts);
    }
}

/// ISSUE 7 acceptance: for the full benchmark suite, a mid-run device
/// loss completes every job with per-job outputs byte-identical to a
/// fault-free single-device reference, the failover overhead billed
/// into the disjoint `failover_cycles` component.
#[test]
fn device_loss_failover_matches_fault_free_reference_on_the_suite() {
    let trace = stream_gpu::suite_trace(1, 4);

    // Fault-free single-device reference.
    let (_, _, reference) = fleet_bench::run_fleet(fleet_bench::solo_options(), &trace);

    // Probe a fault-free 4-device fleet to find a job's execution
    // window, then kill its device mid-execution so the failover has
    // real state to ship and launches to replay.
    let probe_opts = fleet_bench::fleet_options(4);
    let (_, _, probe) = fleet_bench::run_fleet(probe_opts.clone(), &trace);
    let (victim_idx, victim_dev, kill_at) = probe
        .iter()
        .enumerate()
        .filter_map(|(i, v)| match v {
            FleetVerdict::Completed(r) => {
                let window = r.finish_secs - r.start_secs;
                (window > 0.0).then_some((i, r.device, r.start_secs + 0.5 * window, window))
            }
            FleetVerdict::Rejected { .. } => None,
        })
        .max_by(|a, b| a.3.total_cmp(&b.3))
        .map(|(i, d, t, _)| (i, d, t))
        .expect("some job has a positive execution window");

    let disturbed_opts = FleetOptions {
        device_faults: DeviceFaultPlan::new().with_loss(DeviceId(victim_dev), kill_at),
        ..probe_opts
    };
    let mut engine = FleetEngine::new(disturbed_opts);
    let verdicts = engine.run(&trace).expect("disturbed trace serves");
    let report = engine.report();

    assert!(
        report.failovers >= 1,
        "the kill must catch an in-flight job"
    );
    assert_eq!(report.jobs_lost, 0);
    assert!(report.failover_cycles > 0, "shipped state is never free");

    let mut saw_failover = false;
    for (i, (v, r)) in verdicts.iter().zip(&reference).enumerate() {
        let (FleetVerdict::Completed(d), FleetVerdict::Completed(_)) = (v, r) else {
            panic!("job {i}: both runs must complete every job");
        };
        assert_eq!(
            d.outputs,
            outputs_of(r),
            "job {i} ({}): outputs diverge from the fault-free reference",
            trace[i].0.tenant
        );
        d.stats
            .check_billing()
            .unwrap_or_else(|e| panic!("job {i}: {e}"));
        if d.failed_over > 0 {
            saw_failover = true;
            assert_ne!(d.device, victim_dev, "failed-over job left the dead device");
            assert!(
                d.stats.failover_cycles > 0.0,
                "job {i}: failover billed nothing"
            );
        }
    }
    assert!(saw_failover, "no per-job failover recorded");
    let FleetVerdict::Completed(d) = &verdicts[victim_idx] else {
        panic!("targeted job must complete");
    };
    assert!(
        d.failed_over >= 1,
        "the targeted job was mid-execution at the kill"
    );
}

/// The causal clock across devices, as a known answer: a tenant's
/// second job finds its home full (one in-flight job allowed), is
/// rerouted to the other device and fetches the artifact its first job
/// is still compiling at home. The fetch starts once that compile
/// finishes, so execution starts at compile finish + fetch, never
/// earlier.
#[test]
fn rerouted_remote_hit_starts_after_the_compile_and_the_fetch() {
    let tenant = "hot";
    let home = Router::new(2).home(tenant).index();
    let opts = FleetOptions {
        devices: 2,
        replication: 1,
        base: ServeOptions {
            max_queue: 1,
            ..ServeOptions::default()
        },
        ..FleetOptions::default()
    };
    let trace = [
        (tiny_job(tenant, 5, 2, QosClass::Batch), 0.0),
        (tiny_job(tenant, 5, 2, QosClass::Batch), 0.1),
    ];
    let (report, _, verdicts) = fleet_bench::run_fleet(opts.clone(), &trace);
    let (FleetVerdict::Completed(owner), FleetVerdict::Completed(guest)) =
        (&verdicts[0], &verdicts[1])
    else {
        panic!("both jobs complete");
    };
    assert_eq!((owner.fetch, owner.device), (Fetch::Miss, home));
    assert!(guest.rerouted, "home is full, so the job was rerouted");
    assert_eq!(guest.fetch, Fetch::RemoteHit);
    assert_eq!(report.store.remote_hits, 1);

    let compiled_at = owner.arrival_secs + COMPILE_PENALTY_SECS;
    assert_eq!(owner.start_secs.to_bits(), compiled_at.to_bits());
    assert_eq!(
        guest.start_secs.to_bits(),
        (compiled_at + FETCH_PENALTY_SECS).to_bits(),
        "the fetch waits for the compile: execution starts at {}",
        guest.start_secs
    );
    assert_eq!(guest.artifact_ready_secs.to_bits(), compiled_at.to_bits());
    assert_eq!(report.fault_overhead_cycles, 0, "waiting is not billed");
}

/// Rolling device kills never lose a job: every submission completes
/// or is rejected, and the report's conservation counters agree.
#[test]
fn rolling_kill_storm_loses_no_jobs() {
    let trace = tiny_trace(12, 2);
    let storm = FleetStorm {
        seed: 0xDEAD_BEEF,
        kills: 3,
        kill_start_secs: 0.3,
        kill_every_secs: 0.5,
        min_alive: 1,
        partitions: 1,
        partition_start_secs: 0.9,
        partition_every_secs: 1.0,
        partition_heal_secs: 0.4,
        rack: None,
    };
    let opts = FleetOptions {
        devices: 4,
        device_faults: storm.device_fault_plan(4),
        ..FleetOptions::default()
    };
    let mut engine = FleetEngine::new(opts);
    let verdicts = engine.run(&trace).expect("storm trace serves");
    let report = engine.report();

    assert_eq!(verdicts.len(), trace.len());
    assert_eq!(report.jobs_submitted, trace.len() as u64);
    assert_eq!(report.jobs_lost, 0, "completion-or-rejection violated");
    assert_eq!(
        report.jobs_completed + report.jobs_rejected,
        report.jobs_submitted
    );
    assert!(report.devices_alive >= 1);
}

/// The timeline records each occurrence once under a storm of kills,
/// partitions and a healing rack brownout: every arrival has exactly one
/// `Arrival` and one `Dispatch` entry, the dispatch's route word agrees
/// with where it landed, and `router_decisions` equals the entries of
/// the routing and health kinds, counted here kind by kind.
#[test]
fn storm_timeline_records_each_occurrence_once() {
    let trace = tiny_trace(12, 2);
    let storm = FleetStorm {
        seed: 0xDEAD_BEEF,
        kills: 2,
        kill_start_secs: 0.3,
        kill_every_secs: 0.7,
        min_alive: 1,
        partitions: 1,
        partition_start_secs: 0.9,
        partition_every_secs: 1.0,
        partition_heal_secs: 0.4,
        rack: Some(RackBrownout {
            at_secs: 0.5,
            devices: 4,
            total_sms: 4,
            heal_secs: 0.8,
        }),
    };
    let opts = FleetOptions {
        devices: 4,
        device_faults: storm.device_fault_plan(4),
        ..FleetOptions::default()
    };
    let mut engine = FleetEngine::new(opts);
    engine.run(&trace).expect("storm trace serves");
    let (report, timeline) = (engine.report(), engine.trace());

    let of = |kind: EventKind| timeline.iter().filter(move |e| e.kind == kind);
    for i in 0..trace.len() as u64 {
        let arrivals: Vec<_> = of(EventKind::Arrival)
            .filter(|e| e.job == Some(i))
            .collect();
        let dispatches: Vec<_> = of(EventKind::Dispatch)
            .filter(|e| e.job == Some(i))
            .collect();
        assert_eq!((arrivals.len(), dispatches.len()), (1, 1), "job {i}");
        let (home, landed) = (arrivals[0].device, dispatches[0].device);
        match dispatches[0].router_action() {
            Some("home") => assert_eq!(landed, home, "job {i}"),
            Some("reroute") => assert_ne!(landed, home, "job {i}"),
            Some("reject") => {}
            other => panic!("job {i}: dispatch without a route: {other:?}"),
        }
    }
    let routing = [
        EventKind::Dispatch,
        EventKind::DeviceLoss,
        EventKind::LinkPartition,
        EventKind::PartitionHeal,
        EventKind::Brownout,
        EventKind::BrownoutHeal,
        EventKind::Failover,
        EventKind::Abandon,
    ];
    let counted: usize = routing.iter().map(|&k| of(k).count()).sum();
    assert_eq!(report.router_decisions, counted as u64);
    assert_eq!(engine.router_log().len(), counted);
    assert_eq!(of(EventKind::DeviceLoss).count(), 2, "both kills strike");
    assert!(of(EventKind::Brownout).count() > 0 && of(EventKind::BrownoutHeal).count() > 0);
    assert_eq!(of(EventKind::Failover).count() as u64, report.failovers);
    let rejects = (of(EventKind::Dispatch))
        .filter(|e| e.router_action() == Some("reject"))
        .count();
    assert_eq!(
        (rejects + of(EventKind::Abandon).count()) as u64,
        report.jobs_rejected
    );
}

/// When a device dies and nothing usable remains (the only other
/// device is partitioned), in-flight jobs are *rejected* — surfaced to
/// the caller with a retry hint — never silently dropped.
#[test]
fn loss_with_no_usable_target_rejects_instead_of_losing() {
    let tenant = "solo-tenant";
    let home = Router::new(2).home(tenant).index();
    let other = 1 - home;
    let trace = vec![(tiny_job(tenant, 3, 2, QosClass::Batch), 0.0)];
    // Partition the alternate first, then kill the home while the job
    // is still paying its compile penalty.
    let plan = DeviceFaultPlan::new()
        .with_partition(DeviceId(other), 0.1, 60.0)
        .with_loss(DeviceId(home), 0.2);
    let opts = FleetOptions {
        devices: 2,
        device_faults: plan,
        ..FleetOptions::default()
    };
    let mut engine = FleetEngine::new(opts);
    let verdicts = engine.run(&trace).expect("trace serves");
    let report = engine.report();

    let FleetVerdict::Rejected { retry_after_secs } = &verdicts[0] else {
        panic!("the abandoned job must surface as a rejection");
    };
    assert!(
        *retry_after_secs > 0.0,
        "the heal hint points at the partition"
    );
    assert_eq!(report.jobs_rejected, 1);
    assert_eq!(report.jobs_lost, 0);
    assert!(
        report.router_decisions > 0
            && (engine.trace().iter()).any(|e| e.kind == EventKind::Abandon && e.job == Some(0)),
        "the abandon is on the timeline"
    );
}

/// The replication dividend: after a device kill forces a tenant off
/// its home, an R = 2 store serves the rerouted job from a surviving
/// replica while an R = 1 store has lost its only copy and must
/// recompile. (The full-suite hit-rate comparison against a solo disk
/// tier lives in `fleet_bench::run_bench`, which CI runs in release.)
#[test]
fn replication_turns_post_kill_reroutes_into_hits() {
    let tenant = "a";
    let home = Router::new(2).home(tenant).index();
    // One job compiles at t = 0 on the home; the home dies while the
    // fleet is idle; a content-identical job arrives after the kill
    // and is rerouted to the survivor.
    let trace = vec![
        (tiny_job(tenant, 3, 2, QosClass::Batch), 0.0),
        (tiny_job(tenant, 3, 2, QosClass::Batch), 2.0),
    ];
    let plan = DeviceFaultPlan::new().with_loss(DeviceId(home), 1.0);

    let run = |replication: u32| {
        let opts = FleetOptions {
            devices: 2,
            replication,
            device_faults: plan.clone(),
            ..FleetOptions::default()
        };
        fleet_bench::run_fleet(opts, &trace)
    };
    let (r1, _, _) = run(1);
    let (r2, _, v2) = run(2);

    assert_eq!(
        r1.store.misses, 2,
        "R = 1: the kill destroyed the only replica"
    );
    assert_eq!(r1.store.entries_lost, 1);
    assert_eq!(
        r2.store.misses, 1,
        "R = 2: the rerouted job hits the survivor"
    );
    assert_eq!(r2.store.entries_lost, 0);
    assert!(r2.store.hit_rate() > r1.store.hit_rate());
    let FleetVerdict::Completed(second) = &v2[1] else {
        panic!("rerouted job completes");
    };
    assert!(second.rerouted, "home is dead, so the job was rerouted");
    assert_ne!(second.device, home);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Same seed, same storm, same fleet: two runs replay to identical
    /// timelines, identical serialized reports, and
    /// identical output bytes — across random traces and device counts
    /// ∈ {2, 4, 8}. And whatever the storm does, every completed job's
    /// execution starts no earlier than its key's compile finishes (a
    /// miss that never failed over starts exactly then), and a fresh
    /// fleet runs no artifact it did not compile.
    #[test]
    fn same_seed_fleet_chaos_replays_identically(
        seed in 0u64..1_000_000,
        di in 0usize..3,
        extra in 0usize..5,
    ) {
        let devices = [2u32, 4, 8][di];
        let trace = tiny_trace(6 + extra, 2);
        let storm = FleetStorm {
            seed,
            kills: 2,
            min_alive: 1,
            partitions: 2,
            ..FleetStorm::default()
        };
        let opts = FleetOptions {
            devices,
            device_faults: storm.device_fault_plan(devices),
            ..FleetOptions::default()
        };

        let mut a = FleetEngine::new(opts.clone());
        let va = a.run(&trace).expect("first run serves");
        let mut b = FleetEngine::new(opts);
        let vb = b.run(&trace).expect("second run serves");

        prop_assert_eq!(a.trace(), b.trace(), "timelines diverge");
        prop_assert_eq!(
            serde_json::to_string(a.trace()),
            serde_json::to_string(b.trace()),
            "serialized timelines diverge"
        );
        prop_assert_eq!(
            serde_json::to_string(&a.report()),
            serde_json::to_string(&b.report()),
            "reports diverge"
        );
        for (i, (x, y)) in va.iter().zip(&vb).enumerate() {
            match (x, y) {
                (FleetVerdict::Completed(l), FleetVerdict::Completed(r)) => {
                    prop_assert_eq!(&l.outputs, &r.outputs, "job {} outputs diverge", i);
                    prop_assert!(l.artifact_ready_secs.is_finite(), "job {} compiled nowhere", i);
                    prop_assert!(
                        l.start_secs >= l.artifact_ready_secs,
                        "job {} executes at {} an artifact compiled at {}",
                        i,
                        l.start_secs,
                        l.artifact_ready_secs
                    );
                    if l.fetch == Fetch::Miss && l.failed_over == 0 {
                        prop_assert_eq!(
                            l.start_secs.to_bits(),
                            l.artifact_ready_secs.to_bits(),
                            "job {} compile finish",
                            i
                        );
                    }
                    prop_assert_eq!(
                        l.finish_secs.to_bits(),
                        r.finish_secs.to_bits(),
                        "job {} finish diverges",
                        i
                    );
                }
                (
                    FleetVerdict::Rejected { retry_after_secs: l },
                    FleetVerdict::Rejected { retry_after_secs: r },
                ) => prop_assert_eq!(l.to_bits(), r.to_bits(), "job {} hint diverges", i),
                _ => prop_assert!(false, "job {} verdict kind diverges", i),
            }
        }
    }
}
