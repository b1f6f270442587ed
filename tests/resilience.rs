//! Robustness tests: the degradation ladder of the resilient compilation
//! driver, and the retry-with-relaunch property — under a seedable
//! fault-injection plan (launch failures, transient memory corruptions,
//! watchdog-killed hangs, launch-overhead spikes) every benchmark's
//! output stream stays bit-identical to the fault-free run, with the
//! retry cost billed truthfully into the timing model.

use std::sync::OnceLock;
use std::time::Duration;

use gpusim::{CheckpointMode, FaultKind, FaultPlan};
use proptest::prelude::*;
use streamir::graph::{FilterSpec, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};
use swpipe::exec::{
    self, CheckpointSpec, CompileOptions, Compiled, RetryPolicy, RunOptions, Scheme,
};
use swpipe::pipeline::{
    FaultPolicy, LadderRung, PipelineOptions, ResilientPipeline, RungOutcome, StageBudgets,
};
use swpipe::profile::TIME_UNIT_CYCLES;
use swpipe::schedule::{self, SearchOptions};

// ---------------------------------------------------------------------
// The degradation ladder: one test per rung asserting the
// DegradationReport names that rung as the one that shipped.
// ---------------------------------------------------------------------

fn map_filter(name: &str, f: impl FnOnce(Expr) -> Expr) -> StreamSpec {
    let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let x = b.local(ElemTy::I32);
    b.pop_into(0, x);
    b.push(0, f(Expr::local(x)));
    StreamSpec::filter(FilterSpec::new(name, b.build().unwrap()))
}

fn ladder_graph() -> streamir::graph::FlatGraph {
    StreamSpec::pipeline(vec![
        map_filter("scale", |x| x.mul(Expr::i32(3))),
        map_filter("bias", |x| x.add(Expr::i32(7))),
        map_filter("square", |x| x.clone().mul(x)),
    ])
    .flatten()
    .unwrap()
}

fn pipeline_with(budgets: StageBudgets) -> ResilientPipeline {
    ResilientPipeline::new(PipelineOptions {
        compile: CompileOptions::small_test(),
        budgets,
        ..PipelineOptions::default()
    })
}

/// A pipeline with a stateful running accumulator in front — the graph
/// the checkpoint protocol actually has something to protect on.
fn stateful_graph() -> streamir::graph::FlatGraph {
    let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let acc = b.state(ElemTy::I32, Scalar::I32(0));
    let x = b.local(ElemTy::I32);
    b.pop_into(0, x);
    b.store_state(acc, Expr::state(acc).add(Expr::local(x)));
    b.push(0, Expr::state(acc));
    StreamSpec::pipeline(vec![
        StreamSpec::filter(FilterSpec::new("acc", b.build().unwrap())),
        map_filter("bias", |x| x.add(Expr::i32(1))),
    ])
    .flatten()
    .unwrap()
}

fn run_resilient(rc: &swpipe::pipeline::ResilientCompiled, iters: u64) -> Vec<Scalar> {
    let input: Vec<Scalar> = (0..exec::required_input(&rc.compiled, iters))
        .map(|i| Scalar::I32(i as i32 % 41 - 20))
        .collect();
    exec::execute(&rc.compiled, rc.scheme, iters, &input)
        .unwrap()
        .outputs
}

#[test]
fn rung_exact_ilp_ships_under_default_budgets() {
    let rc = pipeline_with(StageBudgets::default())
        .compile(&ladder_graph())
        .unwrap();
    assert_eq!(
        rc.report.shipped,
        LadderRung::ExactIlp,
        "degradation report: {}",
        rc.report
    );
    assert!(!rc.report.degraded());
    assert!(matches!(
        rc.report.shipped_attempt().unwrap().outcome,
        RungOutcome::Shipped
    ));
    assert!(rc.compiled.report.used_ilp);
    assert!(!run_resilient(&rc, 4).is_empty());
}

#[test]
fn rung_relaxed_ilp_ships_when_exact_budget_is_exhausted() {
    let rc = pipeline_with(StageBudgets {
        exact_ilp: Duration::ZERO,
        ..StageBudgets::default()
    })
    .compile(&ladder_graph())
    .unwrap();
    assert_eq!(
        rc.report.shipped,
        LadderRung::RelaxedIlp,
        "degradation report: {}",
        rc.report
    );
    assert!(rc.report.degraded());
    assert_eq!(rc.report.attempts[0].outcome, RungOutcome::SkippedBudget);
    assert!(rc.compiled.report.used_ilp);
    assert!(!run_resilient(&rc, 4).is_empty());
}

#[test]
fn rung_heuristic_ships_when_both_ilp_budgets_are_exhausted() {
    let rc = pipeline_with(StageBudgets {
        exact_ilp: Duration::ZERO,
        relaxed_ilp: Duration::ZERO,
        ..StageBudgets::default()
    })
    .compile(&ladder_graph())
    .unwrap();
    assert_eq!(
        rc.report.shipped,
        LadderRung::Heuristic,
        "degradation report: {}",
        rc.report
    );
    assert!(!rc.compiled.report.used_ilp);
    assert_eq!(rc.scheme, Scheme::Swp { coarsening: 1 });
    assert!(!run_resilient(&rc, 4).is_empty());
}

#[test]
fn rung_serial_sas_ships_when_every_scheduler_budget_is_exhausted() {
    let rc = pipeline_with(StageBudgets {
        exact_ilp: Duration::ZERO,
        relaxed_ilp: Duration::ZERO,
        heuristic: Duration::ZERO,
        ..StageBudgets::default()
    })
    .compile(&ladder_graph())
    .unwrap();
    assert_eq!(
        rc.report.shipped,
        LadderRung::SerialSas,
        "degradation report: {}",
        rc.report
    );
    assert_eq!(rc.scheme, Scheme::Serial { batch: 1 });
    assert_eq!(rc.report.attempts.len(), 4);

    // The last rung must still compute the right stream: compare with
    // the CPU reference.
    let iters = 4u64;
    let graph = ladder_graph();
    let steady = streamir::sdf::solve(&graph).unwrap();
    let n_input = exec::required_input(&rc.compiled, iters);
    let cpu_per_iter = steady.input_tokens_per_iteration(&graph).max(1);
    let input: Vec<Scalar> = (0..n_input + 2 * cpu_per_iter + 64)
        .map(|i| Scalar::I32(i as i32 % 41 - 20))
        .collect();
    // On the simulator, where the shipped schedule shapes the outputs.
    let opts = RunOptions::default();
    let gpu = exec::simulate(
        &rc.compiled,
        rc.scheme,
        iters,
        &input[..n_input as usize],
        &opts,
    )
    .unwrap();
    let cpu_init = steady.input_tokens_for_init(&graph);
    let cpu_iters = (n_input.saturating_sub(cpu_init)).div_ceil(cpu_per_iter) + 1;
    let cpu = streamir::cpu::run(
        &graph,
        &steady,
        cpu_iters,
        &input,
        &streamir::cpu::CpuCostModel::default(),
    )
    .unwrap();
    assert!(!gpu.outputs.is_empty());
    assert!(gpu.outputs.len() <= cpu.outputs.len());
    assert_eq!(gpu.outputs[..], cpu.outputs[..gpu.outputs.len()]);
}

// ---------------------------------------------------------------------
// The retry property: across the whole benchmark suite, a fault-injected
// run whose faults stay below the retry bound is bit-identical to the
// fault-free run, and the retry cost shows up in the modeled time.
// ---------------------------------------------------------------------

struct CachedBench {
    name: &'static str,
    compiled: Compiled,
    input: Vec<Scalar>,
    iters: u64,
    clean_outputs: Vec<Scalar>,
    clean_cycles: f64,
}

fn suite_cache() -> &'static [CachedBench] {
    static CACHE: OnceLock<Vec<CachedBench>> = OnceLock::new();
    CACHE.get_or_init(|| {
        streambench::suite()
            .into_iter()
            .map(|b| {
                let graph = b
                    .spec
                    .flatten()
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name));
                let compiled = exec::compile(&graph, &CompileOptions::small_test())
                    .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
                let iters = 4u64;
                let n_input = exec::required_input(&compiled, iters);
                let input = (b.input)(n_input as usize);
                let clean = exec::execute(&compiled, Scheme::Swp { coarsening: 1 }, iters, &input)
                    .unwrap_or_else(|e| panic!("{}: execute: {e}", b.name));
                assert_eq!(clean.retries, 0);
                CachedBench {
                    name: b.name,
                    compiled,
                    input,
                    iters,
                    clean_outputs: clean.outputs,
                    clean_cycles: clean.stats.cycles,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// For every benchmark in the suite: inject a seeded mix of launch
    /// failures, transient memory corruptions, a watchdog-killed hang,
    /// and launch-overhead spikes. As long as no single launch exhausts
    /// the retry bound, the output stream is bit-identical to the
    /// fault-free run and the failed attempts are billed into the
    /// modeled cycles.
    #[test]
    fn faulted_runs_are_bit_identical_after_retries(seed in 1u64..1_000_000) {
        let mut total_retries = 0u64;
        for cb in suite_cache() {
            // Background fault rates, plus pinned faults on the first
            // three launch attempts so every case provably exercises a
            // launch failure, a memory fault, and a watchdog kill.
            let plan = FaultPlan::new(seed)
                .with_launch_failures(60)
                .with_mem_corruptions(40)
                .with_hangs(25)
                .with_overhead_spikes(40, 5.0)
                .at_launch(0, FaultKind::LaunchFailure)
                .at_launch(1, FaultKind::MemCorruption)
                .at_launch(2, FaultKind::Hang);
            let opts = RunOptions {
                fault_plan: Some(plan),
                retry: RetryPolicy { max_attempts: 12 },
                checkpoint: CheckpointSpec::Auto,
                placement: None,
                checkpoint_interval: 1,
                watchdog_margin: None,
                graph_dispatch: false,
            };
            let faulted = exec::execute_with(
                &cb.compiled,
                Scheme::Swp { coarsening: 1 },
                cb.iters,
                &cb.input,
                &opts,
            );
            let faulted = match faulted {
                Ok(run) => run,
                Err(e) => {
                    return Err(TestCaseError::Fail(
                        format!("{} (seed {seed}): {e}", cb.name),
                    ))
                }
            };
            prop_assert_eq!(
                &faulted.outputs,
                &cb.clean_outputs,
                "{} (seed {}): faulted run diverged",
                cb.name,
                seed
            );
            // The three pinned faults alone force three retries.
            prop_assert!(faulted.retries >= 3, "{}: {} retries", cb.name, faulted.retries);
            prop_assert!(faulted.stats.fault_overhead_cycles > 0.0);
            // Billing is truthful: the faulted run can only be slower.
            prop_assert!(
                faulted.stats.cycles >= cb.clean_cycles,
                "{}: faulted {} < clean {}",
                cb.name,
                faulted.stats.cycles,
                cb.clean_cycles
            );
            total_retries += faulted.retries;
        }
        prop_assert!(total_retries >= 3 * suite_cache().len() as u64);
    }
}

/// ROADMAP 4(g): the adaptive watchdog over a commit window used to
/// livelock. DCT's third launch is legitimately bigger than 4 x its
/// predecessors, so the tightened budget kills it and doubles; the window
/// replay that follows re-ran a small launch, and observing *its* success
/// re-tightened the budget the kill had just raised — forever. A replay is
/// no new evidence: the run now returns, with the CPU reference's stream
/// and exact billing.
#[test]
fn adaptive_watchdog_over_a_commit_window_terminates_on_dct() {
    let b = streambench::by_name("DCT").expect("suite benchmark");
    let graph = b.spec.flatten().unwrap();
    let compiled = exec::compile(&graph, &CompileOptions::small_test()).unwrap();
    let iters = 4u64;
    let steady = streamir::sdf::solve(&graph).unwrap();
    let n_input = exec::required_input(&compiled, iters);
    let cpu_per_iter = steady.input_tokens_per_iteration(&graph).max(1);
    let input = (b.input)((n_input + 2 * cpu_per_iter + 64) as usize);
    let opts = RunOptions {
        fault_plan: Some(FaultPlan::new(13).with_hangs(30)),
        retry: RetryPolicy { max_attempts: 6 },
        checkpoint_interval: 2,
        watchdog_margin: Some(4),
        ..RunOptions::default()
    };
    let scheme = Scheme::Swp { coarsening: 1 };
    let gpu = exec::execute_with(&compiled, scheme, iters, &input[..n_input as usize], &opts)
        .expect("a false kill retries for free until the budget fits the launch");
    assert!(gpu.retries > 0, "the tightened watchdog must have killed");
    assert!(gpu.stats.replay_cycles > 0.0, "with a launch to replay");
    gpu.stats.assert_billing();

    let cpu_init = steady.input_tokens_for_init(&graph);
    let cpu_iters = (n_input.saturating_sub(cpu_init)).div_ceil(cpu_per_iter) + 1;
    let cpu = streamir::cpu::run(
        &graph,
        &steady,
        cpu_iters,
        &input,
        &streamir::cpu::CpuCostModel::default(),
    )
    .unwrap();
    assert!(!gpu.outputs.is_empty());
    assert_eq!(gpu.outputs[..], cpu.outputs[..gpu.outputs.len()]);
}

// ---------------------------------------------------------------------
// Fault-aware scheduling: the reserve, the two policies, and the
// checkpoint protocol that backs recovery.
// ---------------------------------------------------------------------

#[test]
fn serial_sas_rung_ships_a_validated_single_sm_schedule() {
    let rc = pipeline_with(StageBudgets {
        exact_ilp: Duration::ZERO,
        relaxed_ilp: Duration::ZERO,
        heuristic: Duration::ZERO,
        ..StageBudgets::default()
    })
    .compile(&ladder_graph())
    .unwrap();
    assert_eq!(rc.report.shipped, LadderRung::SerialSas);
    let c = &rc.compiled;
    assert!(
        c.schedule.sm_of.iter().all(|&s| s == 0),
        "serial SAS must place every instance on SM 0: {:?}",
        c.schedule.sm_of
    );
    schedule::validate(&c.ig, &c.exec_cfg, &c.schedule, 1, 1)
        .expect("the serial SAS rung must ship a schedule that validates on one SM");
    let shipped = rc.report.shipped_attempt().unwrap();
    assert_eq!(shipped.nominal_ii, Some(c.report.nominal_ii));
    assert_eq!(shipped.fault_adjusted_ii, Some(c.report.nominal_ii));
}

#[test]
fn armed_checkpointing_is_never_free_for_stateful_programs() {
    let scheme = Scheme::Swp { coarsening: 1 };
    let iters = 4u64;
    // A zero-rate but *armed* fault plan: no fault ever fires, yet the
    // checkpoint protocol must still bill every state capture — this is
    // the regression test for the free-checkpoint bug.
    let armed = RunOptions {
        fault_plan: Some(FaultPlan::new(5)),
        retry: RetryPolicy::default(),
        checkpoint: CheckpointSpec::Auto,
        placement: None,
        checkpoint_interval: 1,
        watchdog_margin: None,
        graph_dispatch: false,
    };

    let stateful = exec::compile(&stateful_graph(), &CompileOptions::small_test()).unwrap();
    let input: Vec<Scalar> = (0..exec::required_input(&stateful, iters))
        .map(|i| Scalar::I32(i as i32 % 7))
        .collect();
    let clean = exec::execute(&stateful, scheme, iters, &input).unwrap();
    let run = exec::execute_with(&stateful, scheme, iters, &input, &armed).unwrap();
    assert_eq!(run.retries, 0);
    assert_eq!(run.outputs, clean.outputs);
    assert!(
        run.stats.checkpoint_cycles > 0.0,
        "state captures must be billed even when no fault fires"
    );
    assert!(run.stats.fault_overhead_cycles >= run.stats.checkpoint_cycles);
    assert!(
        run.stats.cycles > clean.stats.cycles,
        "fault_overhead_cycles must strictly increase total cycles: \
         armed {} vs clean {}",
        run.stats.cycles,
        clean.stats.cycles
    );

    // A stateless program has nothing to snapshot: arming the plan must
    // not invent checkpoint cost.
    let stateless = exec::compile(&ladder_graph(), &CompileOptions::small_test()).unwrap();
    let input: Vec<Scalar> = (0..exec::required_input(&stateless, iters))
        .map(|i| Scalar::I32(i as i32 % 7))
        .collect();
    let sl_clean = exec::execute(&stateless, scheme, iters, &input).unwrap();
    let sl_run = exec::execute_with(&stateless, scheme, iters, &input, &armed).unwrap();
    assert_eq!(sl_run.stats.checkpoint_cycles, 0.0);
    assert_eq!(sl_run.outputs, sl_clean.outputs);
    assert_eq!(sl_run.stats.cycles, sl_clean.stats.cycles);
}

#[test]
fn double_buffered_checkpoint_recovers_bit_identically_and_is_cheaper() {
    let compiled = exec::compile(&stateful_graph(), &CompileOptions::small_test()).unwrap();
    let scheme = Scheme::Swp { coarsening: 1 };
    let iters = 4u64;
    let input: Vec<Scalar> = (0..exec::required_input(&compiled, iters))
        .map(|i| Scalar::I32(i as i32 % 7))
        .collect();
    let clean = exec::execute(&compiled, scheme, iters, &input).unwrap();

    let plan = FaultPlan::new(21)
        .with_launch_failures(150)
        .with_mem_corruptions(80)
        .at_launch(0, FaultKind::LaunchFailure)
        .at_launch(1, FaultKind::MemCorruption);
    let run_with = |spec: CheckpointSpec| {
        exec::execute_with(
            &compiled,
            scheme,
            iters,
            &input,
            &RunOptions {
                fault_plan: Some(plan.clone()),
                retry: RetryPolicy { max_attempts: 16 },
                checkpoint: spec,
                placement: None,
                checkpoint_interval: 1,
                watchdog_margin: None,
                graph_dispatch: false,
            },
        )
        .unwrap()
    };
    let rt = run_with(CheckpointSpec::Force(CheckpointMode::HostRoundTrip));
    let db = run_with(CheckpointSpec::Force(CheckpointMode::DeviceDoubleBuffered));
    let auto = run_with(CheckpointSpec::Auto);

    for (name, run) in [
        ("host-round-trip", &rt),
        ("double-buffered", &db),
        ("auto", &auto),
    ] {
        assert_eq!(run.outputs, clean.outputs, "{name}: recovery diverged");
        assert!(run.retries >= 2, "{name}: pinned faults must force retries");
        assert!(run.stats.checkpoint_cycles > 0.0, "{name}");
    }
    assert_eq!(rt.checkpoint_mode, CheckpointMode::HostRoundTrip);
    assert_eq!(db.checkpoint_mode, CheckpointMode::DeviceDoubleBuffered);
    // The cost model must select the cheaper mode, and the billed cycles
    // must agree with that ranking.
    assert_eq!(auto.checkpoint_mode, CheckpointMode::DeviceDoubleBuffered);
    assert!(
        rt.stats.checkpoint_cycles > db.stats.checkpoint_cycles,
        "round-trip {} must out-price double-buffered {}",
        rt.stats.checkpoint_cycles,
        db.stats.checkpoint_cycles
    );
}

#[test]
fn tail_latency_policy_reduces_makespan_variance_under_faults() {
    let graph = ladder_graph();
    let plan = FaultPlan::new(9)
        .with_launch_failures(250)
        .at_launch(2, FaultKind::LaunchFailure)
        .at_launch(5, FaultKind::LaunchFailure);
    let compile_under = |policy: FaultPolicy| {
        ResilientPipeline::new(PipelineOptions {
            compile: CompileOptions::small_test(),
            fault_plan: Some(plan.clone()),
            policy,
            ..PipelineOptions::default()
        })
        .compile(&graph)
        .unwrap()
    };
    let tp = compile_under(FaultPolicy::Throughput);
    let tl = compile_under(FaultPolicy::TailLatency);
    assert_eq!(tp.report.policy, FaultPolicy::Throughput);
    assert_eq!(tl.report.policy, FaultPolicy::TailLatency);
    assert!(
        tl.compiled.schedule.ii > tp.compiled.schedule.ii,
        "tail-latency must reserve headroom: II {} vs {}",
        tl.compiled.schedule.ii,
        tp.compiled.schedule.ii
    );
    assert!(tl.compiled.report.fault_reserve > 0);
    assert_eq!(tp.compiled.report.fault_reserve, 0);
    // Both policies predict the same fault-adjusted effect per rung.
    let (tpa, tla) = (
        tp.report.shipped_attempt().unwrap(),
        tl.report.shipped_attempt().unwrap(),
    );
    assert!(tpa.fault_adjusted_ii.unwrap() > tpa.nominal_ii.unwrap());
    assert!(tla.fault_adjusted_ii.unwrap() > tla.nominal_ii.unwrap());

    let iters = 16u64;
    let run = |rc: &swpipe::pipeline::ResilientCompiled| {
        let input: Vec<Scalar> = (0..exec::required_input(&rc.compiled, iters))
            .map(|i| Scalar::I32(i as i32 % 41 - 20))
            .collect();
        let opts = RunOptions {
            retry: RetryPolicy { max_attempts: 16 },
            ..rc.run_options.clone()
        };
        exec::execute_with(&rc.compiled, rc.scheme, iters, &input, &opts).unwrap()
    };
    let tp_run = run(&tp);
    let tl_run = run(&tl);
    assert_eq!(
        tp_run.outputs, tl_run.outputs,
        "policies must agree on the stream"
    );
    assert!(tp_run.retries >= 2, "pinned faults must fire");
    assert!(!tp_run.launch_cycles.is_empty());
    assert_eq!(tp_run.launch_cycles.len(), tl_run.launch_cycles.len());

    // Per-launch overshoot over the *planned* launch budget (the
    // schedule's II in cycles plus the modeled launch/block overheads).
    // The tail-latency schedule plans for retries, so fault spikes eat
    // into its reserve instead of blowing past the budget — its makespan
    // variance must come out lower.
    let overshoot_variance = |rc: &swpipe::pipeline::ResilientCompiled, run: &exec::GpuRun| {
        let planned = rc.compiled.schedule.ii as f64 * TIME_UNIT_CYCLES
            + rc.compiled.timing.launch_overhead_cycles
            + f64::from(rc.compiled.device.num_sms) * rc.compiled.timing.block_overhead_cycles;
        let over: Vec<f64> = run
            .launch_cycles
            .iter()
            .map(|&c| (c - planned).max(0.0))
            .collect();
        let mean = over.iter().sum::<f64>() / over.len() as f64;
        over.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / over.len() as f64
    };
    let tp_var = overshoot_variance(&tp, &tp_run);
    let tl_var = overshoot_variance(&tl, &tl_run);
    assert!(
        tl_var < tp_var,
        "tail-latency variance {tl_var} must be below throughput variance {tp_var}"
    );
}

/// The CI fault matrix: one pinned fault kind per job, selected with the
/// `SWPIPE_FAULT_MATRIX` environment variable (all three locally).
#[test]
fn fault_matrix_pinned_kinds_recover_bit_identically() {
    let matrix = std::env::var("SWPIPE_FAULT_MATRIX").ok();
    let kinds: Vec<(&str, FaultPlan)> = vec![
        (
            "launch-failure",
            FaultPlan::new(11)
                .with_launch_failures(300)
                .at_launch(0, FaultKind::LaunchFailure),
        ),
        (
            "mem-fault",
            FaultPlan::new(12)
                .with_mem_corruptions(300)
                .at_launch(0, FaultKind::MemCorruption),
        ),
        (
            "watchdog",
            FaultPlan::new(13)
                .with_hangs(200)
                .at_launch(0, FaultKind::Hang),
        ),
    ];
    let compiled = exec::compile(&stateful_graph(), &CompileOptions::small_test()).unwrap();
    let scheme = Scheme::Swp { coarsening: 1 };
    let iters = 4u64;
    let input: Vec<Scalar> = (0..exec::required_input(&compiled, iters))
        .map(|i| Scalar::I32(i as i32 % 7))
        .collect();
    let clean = exec::execute(&compiled, scheme, iters, &input).unwrap();
    let mut ran = 0;
    for (name, plan) in kinds {
        if matrix.as_deref().is_some_and(|m| m != name) {
            continue;
        }
        ran += 1;
        let run = exec::execute_with(
            &compiled,
            scheme,
            iters,
            &input,
            &RunOptions {
                fault_plan: Some(plan),
                retry: RetryPolicy { max_attempts: 16 },
                checkpoint: CheckpointSpec::Auto,
                placement: None,
                checkpoint_interval: 1,
                watchdog_margin: None,
                graph_dispatch: false,
            },
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(run.outputs, clean.outputs, "{name}: recovery diverged");
        assert!(
            run.retries >= 1,
            "{name}: the pinned fault must force a retry"
        );
        assert!(run.stats.fault_overhead_cycles > 0.0, "{name}");
    }
    assert!(ran >= 1, "SWPIPE_FAULT_MATRIX selected no known fault kind");
}

// ---------------------------------------------------------------------
// k-launch commit intervals: the cost model's chosen interval must beat
// the every-launch baseline at low fault rates, and every interval must
// replay to the same stream.
// ---------------------------------------------------------------------

fn stateful_cache() -> &'static (Compiled, Vec<Scalar>, Vec<Scalar>) {
    static CACHE: OnceLock<(Compiled, Vec<Scalar>, Vec<Scalar>)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let compiled = exec::compile(&stateful_graph(), &CompileOptions::small_test()).unwrap();
        let input: Vec<Scalar> = (0..exec::required_input(&compiled, 12))
            .map(|i| Scalar::I32(i as i32 % 7))
            .collect();
        let clean = exec::execute(&compiled, Scheme::Swp { coarsening: 1 }, 12, &input).unwrap();
        (compiled, input, clean.outputs)
    })
}

fn run_at_interval(plan: &FaultPlan, k: u32) -> exec::GpuRun {
    let (compiled, input, _) = stateful_cache();
    exec::execute_with(
        compiled,
        Scheme::Swp { coarsening: 1 },
        12,
        input,
        &RunOptions {
            fault_plan: Some(plan.clone()),
            retry: RetryPolicy { max_attempts: 12 },
            checkpoint: CheckpointSpec::Auto,
            placement: None,
            checkpoint_interval: k,
            watchdog_margin: None,
            graph_dispatch: false,
        },
    )
    .unwrap()
}

/// Acceptance criterion (c): probe the device at `k = 1`, feed the
/// *observed* fault rate and mean launch cost back into the cost model,
/// and the interval it picks must spend fewer checkpoint + replay cycles
/// than committing every launch — with a bit-identical stream.
#[test]
fn model_chosen_commit_interval_beats_k1_at_low_fault_rates() {
    let (compiled, _, clean_outputs) = stateful_cache();
    // A low background fault rate: rare enough that commits dominate
    // replays, which is exactly the regime where spacing commits wins.
    let plan = FaultPlan::new(77).with_launch_failures(8);

    let probe = run_at_interval(&plan, 1);
    assert_eq!(&probe.outputs, clean_outputs, "probe diverged");
    assert_eq!(probe.checkpoint_interval, 1);

    let observed_rate = probe.retries as f64 / probe.launches as f64;
    let mean_launch = probe.stats.productive_cycles() / probe.launches as f64;
    let words = swpipe::plan::state_words(&compiled.graph);
    assert!(words > 0, "the stateful graph must have state to protect");
    let k_star = compiled.timing.preferred_checkpoint_interval(
        probe.checkpoint_mode,
        words,
        observed_rate,
        mean_launch,
        4,
    );
    assert!(
        k_star > 1,
        "at observed rate {observed_rate} the model must space commits, chose k={k_star}"
    );

    let tuned = run_at_interval(&plan, u32::try_from(k_star).unwrap());
    assert_eq!(&tuned.outputs, clean_outputs, "k={k_star} run diverged");
    assert_eq!(u64::from(tuned.checkpoint_interval), k_star);
    let probe_cost = probe.stats.checkpoint_cycles + probe.stats.replay_cycles;
    let tuned_cost = tuned.stats.checkpoint_cycles + tuned.stats.replay_cycles;
    assert!(
        tuned_cost < probe_cost,
        "k={k_star} must be cheaper: {tuned_cost} vs k=1's {probe_cost}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Replay-from-input correctness: under a seeded fault storm, every
    /// commit interval `k ∈ 2..=4` produces the byte-identical stream the
    /// `k = 1` run (and the fault-free run) produces — replayed launches
    /// re-execute from the last committed state without double-billing
    /// the stream.
    #[test]
    fn any_commit_interval_replays_to_the_same_stream(
        seed in 1u64..1_000_000,
        k in 2u32..5,
    ) {
        let (_, _, clean_outputs) = stateful_cache();
        let plan = FaultPlan::new(seed)
            .with_launch_failures(80)
            .with_mem_corruptions(50)
            .with_hangs(25)
            .at_launch(1, FaultKind::LaunchFailure)
            .at_launch(3, FaultKind::MemCorruption);
        let base = run_at_interval(&plan, 1);
        let spaced = run_at_interval(&plan, k);
        prop_assert_eq!(&base.outputs, clean_outputs, "k=1 (seed {}) diverged", seed);
        prop_assert_eq!(
            &spaced.outputs,
            clean_outputs,
            "k={} (seed {}) diverged",
            k,
            seed
        );
        prop_assert!(spaced.retries >= 2, "pinned faults must fire (k={})", k);
        prop_assert_eq!(base.stats.replay_cycles, 0.0, "k=1 never replays");
        // A fault after the first committed launch of a window forces a
        // replay, and that replay is billed.
        if spaced.stats.replay_cycles > 0.0 {
            prop_assert!(spaced.stats.fault_overhead_cycles >= spaced.stats.replay_cycles);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The fault-aware search: any requested reserve shows up one-for-one
    /// in the shipped II (fault-adjusted = nominal + reserve), never
    /// undercuts the fault-oblivious II, and the schedule still validates.
    #[test]
    fn fault_adjusted_ii_dominates_nominal_and_both_validate(reserve in 1u64..6) {
        let c = exec::compile(&ladder_graph(), &CompileOptions::small_test()).unwrap();
        let nominal = schedule::find(
            &c.ig,
            &c.exec_cfg,
            c.device.num_sms,
            &SearchOptions { fault_reserve: 0, ..SearchOptions::default() },
        )
        .unwrap();
        let reserved = schedule::find(
            &c.ig,
            &c.exec_cfg,
            c.device.num_sms,
            &SearchOptions { fault_reserve: reserve, ..SearchOptions::default() },
        )
        .unwrap();
        prop_assert_eq!(reserved.1.final_ii, reserved.1.nominal_ii + reserve);
        prop_assert!(reserved.1.final_ii >= nominal.1.final_ii + reserve);
        prop_assert_eq!(reserved.0.ii, reserved.1.final_ii);
        schedule::validate(&c.ig, &c.exec_cfg, &nominal.0, c.device.num_sms, 1)
            .expect("fault-oblivious schedule must validate");
        schedule::validate(&c.ig, &c.exec_cfg, &reserved.0, c.device.num_sms, 1)
            .expect("fault-reserved schedule must validate");
    }
}

/// The initialization phase is host work: it draws no fault, consumes no
/// launch ordinal and spends no watchdog budget. A known answer captured
/// when the init phase still ran on the reference interpreter: a stateful
/// filter priming a peeking window (so the init phase fires both), under
/// launch failures and hangs with a 2-launch commit window, reproduces the
/// same per-launch cycles, retries and output to the bit.
#[test]
fn init_firings_leave_the_fault_draws_and_billing_of_a_run_unchanged() {
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let y = f.state(ElemTy::I32, Scalar::I32(3));
    let x = f.local(ElemTy::I32);
    f.pop_into(0, x);
    f.store_state(y, Expr::state(y).div(Expr::i32(2)).add(Expr::local(x)));
    f.push(0, Expr::state(y));
    let iir = StreamSpec::filter(FilterSpec::new("iir", f.build().unwrap()));
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    f.push(
        0,
        Expr::peek(0, Expr::i32(0)).add(Expr::peek(0, Expr::i32(3))),
    );
    f.pop(0);
    let window = StreamSpec::filter(FilterSpec::new("window", f.build().unwrap()));
    let graph = StreamSpec::pipeline(vec![
        map_filter("pre", |x| x.mul(Expr::i32(3))),
        iir,
        window,
    ])
    .flatten()
    .unwrap();
    let c = exec::compile(&graph, &CompileOptions::small_test()).unwrap();
    assert!(
        c.ig.init.iter().filter(|&&i| i > 0).count() >= 2,
        "{:?}",
        c.ig.init
    );
    let (scheme, iters) = (Scheme::Swp { coarsening: 1 }, 12);
    let input: Vec<Scalar> = (0..exec::required_input(&c, iters))
        .map(|i| Scalar::I32(i as i32 % 37 - 18))
        .collect();
    let opts = RunOptions {
        fault_plan: Some(FaultPlan::new(11).with_launch_failures(60).with_hangs(40)),
        retry: RetryPolicy { max_attempts: 8 },
        checkpoint_interval: 2,
        ..RunOptions::default()
    };
    let run = exec::execute_with(&c, scheme, iters, &input, &opts).unwrap();
    let clean = exec::execute(&c, scheme, iters, &input).unwrap();
    assert_eq!(run.outputs, clean.outputs);
    assert_eq!(
        run.launch_cycles,
        [
            39834.0,
            42208.0,
            42216.0,
            42208.0,
            42216.0,
            42208.0,
            42216.0,
            42208.0,
            42216.0,
            42208.0,
            3250074232.0,
            42208.0,
            19190.0,
            17742.5
        ]
    );
    assert_eq!((run.retries, run.stats.cycles), (2, 3250573110.5));
    let head: Vec<i32> = run.outputs[..6].iter().map(|v| v.as_i32()).collect();
    let sum: i64 = run.outputs.iter().map(|v| i64::from(v.as_i32())).sum();
    assert_eq!((run.outputs.len(), sum), (384, -1433));
    assert_eq!(head, [-141, -163, -168, -165, -157, -147]);
}
