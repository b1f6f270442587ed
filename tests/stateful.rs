//! End-to-end tests of stateful filters — the paper's stated future work
//! ("Handling stateful filters on GPUs is a possible future work"),
//! implemented here: state variables persist across firings, stateful
//! filters run single-threaded with device-resident state, their
//! instances are serialized by explicit dependences (giving a non-zero
//! RecMII), and coarsening is rejected because it would interleave
//! sub-firings out of state order.

use streamir::cpu::{self, CpuCostModel};
use streamir::graph::{FilterSpec, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};
use swpipe::exec::{self, CompileOptions, Scheme};
use swpipe::instances::{self, ExecConfig};

/// A running-sum accumulator: `state += input; push state`.
fn accumulator(name: &str) -> StreamSpec {
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let acc = f.state(ElemTy::I32, Scalar::I32(0));
    let x = f.local(ElemTy::I32);
    f.pop_into(0, x);
    f.store_state(acc, Expr::state(acc).add(Expr::local(x)));
    f.push(0, Expr::state(acc));
    StreamSpec::filter(FilterSpec::new(name, f.build().expect("valid")))
}

/// A one-pole IIR filter over integers: `y = y/2 + x; push y`.
fn iir(name: &str) -> StreamSpec {
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let y = f.state(ElemTy::I32, Scalar::I32(0));
    let x = f.local(ElemTy::I32);
    f.pop_into(0, x);
    f.store_state(y, Expr::state(y).div(Expr::i32(2)).add(Expr::local(x)));
    f.push(0, Expr::state(y));
    StreamSpec::filter(FilterSpec::new(name, f.build().expect("valid")))
}

fn stateless_map(name: &str, k: i32) -> StreamSpec {
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let x = f.local(ElemTy::I32);
    f.pop_into(0, x);
    f.push(0, Expr::local(x).mul(Expr::i32(k)));
    StreamSpec::filter(FilterSpec::new(name, f.build().expect("valid")))
}

#[test]
fn cpu_accumulator_is_a_prefix_sum() {
    let g = accumulator("acc").flatten().unwrap();
    let s = streamir::sdf::solve(&g).unwrap();
    let input: Vec<Scalar> = (1..=8).map(Scalar::I32).collect();
    let run = cpu::run(&g, &s, 8, &input, &CpuCostModel::default()).unwrap();
    let got: Vec<i32> = run.outputs.iter().map(|v| v.as_i32()).collect();
    assert_eq!(got, vec![1, 3, 6, 10, 15, 21, 28, 36]);
}

#[test]
fn gpu_stateful_pipeline_matches_cpu_bit_exact() {
    // stateless → stateful → stateless: the stateful stage serializes, its
    // neighbours stay data-parallel.
    let spec = StreamSpec::pipeline(vec![
        stateless_map("pre", 3),
        iir("iir"),
        stateless_map("post", 2),
    ]);
    let graph = spec.flatten().unwrap();
    let compiled = exec::compile(&graph, &CompileOptions::small_test()).unwrap();
    // The stateful stage must be single-threaded.
    assert_eq!(compiled.exec_cfg.threads[1], 1);

    let iters = 8;
    let n_input = exec::required_input(&compiled, iters);
    let input: Vec<Scalar> = (0..n_input + 64)
        .map(|i| Scalar::I32(i as i32 % 50 - 25))
        .collect();
    // On the simulator: the executor's state handling shapes only a
    // simulated run's outputs.
    let gpu = exec::simulate(
        &compiled,
        Scheme::Swp { coarsening: 1 },
        iters,
        &input[..n_input as usize],
        &exec::RunOptions::default(),
    )
    .unwrap();

    let steady = streamir::sdf::solve(&graph).unwrap();
    let per = steady.input_tokens_per_iteration(&graph).max(1);
    let cpu_iters = n_input.div_ceil(per) + 1;
    let cpu = cpu::run(&graph, &steady, cpu_iters, &input, &CpuCostModel::default()).unwrap();
    assert!(!gpu.outputs.is_empty());
    assert_eq!(gpu.outputs[..], cpu.outputs[..gpu.outputs.len()]);
}

#[test]
fn stateful_coarsening_is_rejected() {
    let graph = iir("iir").flatten().unwrap();
    let compiled = exec::compile(&graph, &CompileOptions::small_test()).unwrap();
    let e = exec::execute(&compiled, Scheme::Swp { coarsening: 4 }, 8, &[]).unwrap_err();
    assert!(matches!(e, swpipe::Error::Api(_)), "{e}");
}

#[test]
fn stateful_instances_have_serial_dependences() {
    // A stateful filter after a 1→4 expander fires 4 instances per
    // iteration; they must be chained, including the iteration wrap.
    let mut up = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let x = up.local(ElemTy::I32);
    up.pop_into(0, x);
    for i in 0..4 {
        up.push(0, Expr::local(x).add(Expr::i32(i)));
    }
    let spec = StreamSpec::pipeline(vec![
        StreamSpec::filter(FilterSpec::new("up", up.build().unwrap())),
        accumulator("acc"),
    ]);
    let graph = spec.flatten().unwrap();
    let cfg = ExecConfig {
        regs_per_thread: 16,
        threads_per_block: 4,
        threads: vec![1, 1],
        delay: vec![5, 5],
    };
    let ig = instances::build(&graph, &cfg).unwrap();
    assert_eq!(ig.reps, vec![1, 4]);
    let state_deps: Vec<_> = ig.deps.iter().filter(|d| d.edge.is_none()).collect();
    // k=1..3 chained (3 deps) + the wrap-around (1 dep).
    assert_eq!(state_deps.len(), 4);
    assert!(state_deps.iter().any(|d| d.jlag == -1));
    // The wrap makes the instance graph cyclic: RecMII is nonzero.
    assert!(ig.rec_mii(&cfg) > 0);
}

#[test]
fn stateful_requires_single_thread_in_model() {
    let graph = accumulator("acc").flatten().unwrap();
    let cfg = ExecConfig::uniform(1, 4, 16, 5); // 4 threads: invalid
    let err = instances::build(&graph, &cfg).unwrap_err();
    assert!(
        matches!(err, swpipe::Error::Api(ref m) if m.contains("single-threaded")),
        "multi-threaded stateful must be rejected with a typed error, got: {err}"
    );
}

#[test]
fn interpreter_rejects_stateless_entry_for_stateful_filter() {
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let sid = f.state(ElemTy::I32, Scalar::I32(7));
    let x = f.local(ElemTy::I32);
    f.pop_into(0, x);
    f.push(0, Expr::state(sid).add(Expr::local(x)));
    let wf = f.build().unwrap();
    assert!(wf.is_stateful());
    assert_eq!(wf.initial_state(), vec![Scalar::I32(7)]);

    let mut ch = streamir::ir::interp::VecChannels::new(vec![vec![Scalar::I32(1)]], 1);
    let mut counts = streamir::ir::OpCensus::default();
    let e = streamir::ir::interp::execute(&wf, &mut ch, &mut counts).unwrap_err();
    assert!(matches!(e, streamir::Error::Trap(_)));

    // With persistent state it works and the state evolves.
    let mut state = wf.initial_state();
    streamir::ir::interp::execute_stateful(&wf, &mut ch, &mut state, &mut counts).unwrap();
    assert_eq!(ch.outputs[0], vec![Scalar::I32(8)]);
}

/// A feedback loop (running sum via the loop, not via state) executes on
/// the GPU bit-exactly: the joiner merges input with the fed-back
/// accumulator, the body adds, the splitter returns the sum outward and
/// around. The loop's single initial token caps the execution at one
/// thread per instance — the structural analogue of statefulness.
#[test]
fn feedback_loop_runs_on_gpu() {
    use streamir::graph::{FeedbackLoopSpec, SplitterKind};

    let body = {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        let s = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.pop_into(0, s);
        let sum = Expr::local(x).add(Expr::local(s));
        f.push(0, sum.clone());
        f.push(0, sum);
        StreamSpec::filter(FilterSpec::new("add", f.build().unwrap()))
    };
    let spec = StreamSpec::feedback_loop(FeedbackLoopSpec {
        joiner: [1, 1],
        body: Box::new(body),
        splitter: SplitterKind::RoundRobin(vec![1, 1]),
        feedback: None,
        initial: vec![Scalar::I32(0)],
    });
    let graph = spec.flatten().unwrap();
    let compiled = exec::compile(&graph, &CompileOptions::small_test()).unwrap();
    // The loop cap forces single-threaded instances.
    assert!(compiled.exec_cfg.threads.iter().all(|&t| t == 1));

    let iters = 16;
    let n_input = exec::required_input(&compiled, iters);
    let input: Vec<Scalar> = (1..=n_input as i32 + 8).map(Scalar::I32).collect();
    let gpu = exec::simulate(
        &compiled,
        Scheme::Swp { coarsening: 1 },
        iters,
        &input[..n_input as usize],
        &exec::RunOptions::default(),
    )
    .unwrap();

    // Prefix sums of 1, 2, 3, ...
    let expect: Vec<i32> = (1..=gpu.outputs.len() as i32)
        .scan(0, |acc, x| {
            *acc += x;
            Some(*acc)
        })
        .collect();
    let got: Vec<i32> = gpu.outputs.iter().map(|v| v.as_i32()).collect();
    assert!(!got.is_empty());
    assert_eq!(got, expect);

    // And the CPU executor agrees, as always.
    let steady = streamir::sdf::solve(&graph).unwrap();
    let cpu = cpu::run(&graph, &steady, iters, &input, &CpuCostModel::default()).unwrap();
    assert_eq!(gpu.outputs[..], cpu.outputs[..gpu.outputs.len()]);
}

/// Recovery as a known answer, captured before the executor's launch loops
/// were merged into one: a stateful pipeline under a 3 % launch-failure
/// plan, a 3-launch commit window and graph dispatch. Seed 34 faults three
/// graph replays (launches 7, 14 and 22, with one, two and one completed
/// launches in the window), so the numbers below pin what each launch is
/// billed, the order stats merge in, and that recovery re-enters the
/// captured graph: every failed attempt and every replay costs a doorbell,
/// not a host launch.
#[test]
fn stateful_recovery_reproduces_the_known_run() {
    use gpusim::{CheckpointMode, FaultPlan, LaunchStats};
    use swpipe::exec::{RetryPolicy, RunOptions};

    let spec = StreamSpec::pipeline(vec![
        stateless_map("pre", 3),
        iir("iir"),
        stateless_map("post", 2),
    ]);
    let graph = spec.flatten().unwrap();
    let compiled = exec::compile(&graph, &CompileOptions::small_test()).unwrap();
    let (scheme, iters) = (Scheme::Swp { coarsening: 1 }, 24);
    let input: Vec<Scalar> = (0..exec::required_input(&compiled, iters))
        .map(|i| Scalar::I32(i as i32 % 50 - 25))
        .collect();
    let opts = RunOptions {
        fault_plan: Some(FaultPlan::new(34).with_launch_failures(30)),
        retry: RetryPolicy { max_attempts: 6 },
        checkpoint_interval: 3,
        graph_dispatch: true,
        ..RunOptions::default()
    };
    let run = exec::execute_with(&compiled, scheme, iters, &input, &opts).unwrap();

    let clean = exec::execute(&compiled, scheme, iters, &input).unwrap();
    assert_eq!(run.outputs, clean.outputs);
    assert_eq!(
        run.stats,
        LaunchStats {
            per_sm_cycles: vec![0.0, 565.0, 0.0, 0.0],
            cycles: 866250.0,
            time_secs: 0.000533076923076923,
            launches: 26,
            warp_instructions: 8832,
            mem_access_insts: 3168,
            mem_transactions: 4032,
            shared_accesses: 1632,
            bank_conflict_passes: 96,
            divergent_branches: 0,
            spill_transactions: 0,
            fault_overhead_cycles: 107728.0,
            checkpoint_cycles: 96.0,
            failed_attempt_cycles: 1200.0,
            replay_cycles: 106432.0,
            spike_cycles: 0.0,
            failover_cycles: 0.0,
            retries: 3,
            graph_replays: 22,
            graph_captures: 1,
            graph_capture_cycles: 54000.0,
            launch_path_cycles: 72800.0,
        }
    );
    assert_eq!(
        run.launch_cycles,
        [
            17373.0, 42208.0, 26608.0, 26616.0, 26608.0, 26608.0, 26616.0, 53624.0, 26608.0,
            26616.0, 26608.0, 26608.0, 26616.0, 26608.0, 80232.0, 26616.0, 26608.0, 26608.0,
            26616.0, 26608.0, 26608.0, 26616.0, 53624.0, 26608.0, 42216.0, 17365.0
        ]
    );
    assert_eq!((run.launches, run.retries, run.buffer_bytes), (26, 3, 1024));
    assert_eq!(run.time_secs, run.stats.time_secs);
    assert_eq!(run.checkpoint_mode, CheckpointMode::DeviceDoubleBuffered);
    assert_eq!(run.checkpoint_interval, 3);
}
