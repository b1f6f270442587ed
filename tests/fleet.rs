//! Fleet acceptance tests (ISSUE 7):
//!
//! * **Differential failover** — a mid-run device loss over the full
//!   benchmark suite completes every job with outputs byte-identical
//!   to a fault-free single-device reference, with the failover
//!   overhead billed into the disjoint `failover_cycles` component and
//!   the billing invariant intact;
//! * **Hedged dispatch** — a hedge backup that wins bills the loser's
//!   burn into the winner's disjoint `hedge_cycles` without changing a
//!   single output byte;
//! * **Completion-or-rejection** — rolling kill storms lose no jobs:
//!   every submission completes or is rejected, even when no usable
//!   failover target remains;
//! * **Determinism** — same-seed fleet chaos replays to identical
//!   router decision logs, reports, and output bytes, property-tested
//!   over random traces × device counts ∈ {2, 4, 8};
//! * **Replication dividend** — the cross-device artifact store's hit
//!   rate beats a solo device's disk tier on the same trace.
//! * **Solo is a fleet of one** — a 1-device, replication-1, hedge-off
//!   fleet serves the suite trace bit-identically to the solo
//!   `EventEngine`.

use proptest::prelude::*;
use streamir::graph::{FilterSpec, FlatGraph, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};

use gpusim::{DeviceFaultPlan, DeviceId};
use stream_gpu::fleet_bench;
use swpipe::fleet::{FleetEngine, FleetOptions, FleetStorm, FleetVerdict, HedgeOptions, Router};
use swpipe::serve::{EventEngine, Job, QosClass, ServeOptions, Verdict};

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

fn no_hedge(opts: FleetOptions) -> FleetOptions {
    FleetOptions {
        hedge: HedgeOptions {
            enabled: false,
            ..HedgeOptions::default()
        },
        ..opts
    }
}

fn outputs_of(v: &FleetVerdict) -> &[Scalar] {
    match v {
        FleetVerdict::Completed(r) => &r.outputs,
        FleetVerdict::Rejected { .. } => panic!("expected a completed job"),
    }
}

/// "Solo is a fleet of one": routing, replication and hedging are
/// no-ops at N = 1, so the fleet loop must reproduce the solo event
/// engine bit for bit — per-job outputs and virtual instants, the
/// makespan, and the miss count. The invariant a later merge of the two
/// event loops leans on.
#[test]
fn one_device_fleet_serves_bit_identically_to_the_solo_engine() {
    let trace = stream_gpu::suite_trace(2, 2);

    let mut solo = EventEngine::new(fleet_bench::base_serve_options());
    let solo_verdicts = solo.serve_trace(&trace).expect("solo trace serves");
    let solo_report = solo.report();

    let (fleet_report, _, fleet_verdicts) =
        fleet_bench::run_fleet(fleet_bench::solo_options(), &trace);

    assert_eq!(solo_verdicts.len(), fleet_verdicts.len());
    for (i, (s, f)) in solo_verdicts.iter().zip(&fleet_verdicts).enumerate() {
        match (s, f) {
            (Verdict::Completed(s), FleetVerdict::Completed(f)) => {
                assert_eq!(s.outputs, f.outputs, "job {i}: outputs diverge");
                assert_eq!(
                    s.finish_secs.to_bits(),
                    f.finish_secs.to_bits(),
                    "job {i}: finish {} vs {}",
                    s.finish_secs,
                    f.finish_secs
                );
                assert_eq!(
                    s.latency_secs.to_bits(),
                    f.latency_secs.to_bits(),
                    "job {i}: latency {} vs {}",
                    s.latency_secs,
                    f.latency_secs
                );
            }
            _ => panic!("job {i}: completion pattern diverged between solo and 1-device fleet"),
        }
    }
    assert_eq!(
        solo_report.makespan_secs.to_bits(),
        fleet_report.makespan_secs.to_bits()
    );
    assert_eq!(solo_report.cache.misses, fleet_report.store.misses);
}

/// ISSUE 7 acceptance: for the full benchmark suite, a mid-run device
/// loss completes every job with per-job outputs byte-identical to a
/// fault-free single-device reference, the failover overhead billed
/// into the disjoint `failover_cycles` component.
#[test]
fn device_loss_failover_matches_fault_free_reference_on_the_suite() {
    let trace = stream_gpu::suite_trace(1, 4);

    // Fault-free single-device reference.
    let (_, _, reference) = fleet_bench::run_fleet(no_hedge(fleet_bench::solo_options()), &trace);

    // Probe a fault-free 4-device fleet to find a job's execution
    // window, then kill its device mid-execution so the failover has
    // real state to ship and launches to replay.
    let probe_opts = no_hedge(fleet_bench::fleet_options(4));
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

/// A hedge backup that wins bills the loser's burned cycles into the
/// winner's disjoint `hedge_cycles` — and changes no output byte
/// relative to an unhedged run.
#[test]
fn hedged_dispatch_bills_loser_burn_into_winner() {
    // One Interactive tenant, two devices: the first job pays the
    // 0.5 s compile penalty, so the p99-derived hedge delay (floored at
    // 0.25 s) arms a backup that fetches from the store and wins.
    let trace: Vec<(Job, f64)> = (0..3)
        .map(|i| {
            (
                tiny_job("hot", 5, 2, QosClass::Interactive),
                2.0 * f64::from(i),
            )
        })
        .collect();
    let base = FleetOptions {
        devices: 2,
        base: ServeOptions::default(),
        replication: 2,
        ..FleetOptions::default()
    };

    let (unhedged_report, _, unhedged) = fleet_bench::run_fleet(no_hedge(base.clone()), &trace);
    assert_eq!(unhedged_report.hedges, 0);

    let mut engine = FleetEngine::new(base);
    let verdicts = engine.run(&trace).expect("hedged trace serves");
    let report = engine.report();

    assert!(report.hedges >= 1, "the cold compile must arm a hedge");
    assert!(
        report.hedge_wins >= 1,
        "the backup skips the compile and wins"
    );
    assert!(report.hedge_cycles > 0, "the loser's burn is billed");

    let mut saw_winning_hedge = false;
    for (i, (v, r)) in verdicts.iter().zip(&unhedged).enumerate() {
        let FleetVerdict::Completed(d) = v else {
            panic!("job {i}: completes");
        };
        assert_eq!(d.outputs, outputs_of(r), "job {i}: hedging changed outputs");
        d.stats
            .check_billing()
            .unwrap_or_else(|e| panic!("job {i}: {e}"));
        if d.hedged && d.hedge_won {
            saw_winning_hedge = true;
            assert!(d.stats.hedge_cycles > 0.0, "job {i}: winner bills the burn");
        }
    }
    assert!(saw_winning_hedge);
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
    let opts = no_hedge(FleetOptions {
        devices: 2,
        device_faults: plan,
        ..FleetOptions::default()
    });
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
        report.router_decisions > 0 && engine.router_log().iter().any(|d| d.action == "abandon"),
        "the abandon is logged"
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
        let opts = no_hedge(FleetOptions {
            devices: 2,
            replication,
            device_faults: plan.clone(),
            ..FleetOptions::default()
        });
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
    /// router decision logs, identical serialized reports, and
    /// identical output bytes — across random traces and device counts
    /// ∈ {2, 4, 8}.
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

        prop_assert_eq!(
            serde_json::to_string(&a.router_log().to_vec()),
            serde_json::to_string(&b.router_log().to_vec()),
            "router decision logs diverge"
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
