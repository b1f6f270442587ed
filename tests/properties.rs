//! Property-based tests spanning the workspace: random stream programs
//! are generated, flattened, steady-state-solved, scheduled, and executed
//! on both the CPU reference and the simulated GPU — the fundamental
//! invariant being that every path preserves the sequential stream
//! semantics bit-for-bit.

use proptest::prelude::*;
use streamir::cpu::{self, CpuCostModel};
use streamir::graph::{FilterSpec, SplitterKind, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar, Stmt};
use swpipe::exec::{self, CompileOptions, Scheme};
use swpipe::instances::{self, ExecConfig};
use swpipe::schedule::{self, SchedulerKind, SearchOptions};

/// A random arithmetic map filter with the given pop/push rates.
fn rate_filter(name: String, pop: u32, push: u32, seed: i32) -> StreamSpec {
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let acc = f.local(ElemTy::I32);
    let x = f.local(ElemTy::I32);
    f.assign(acc, Expr::i32(seed));
    f.for_loop(0, pop as i32, |_, _| {
        vec![
            Stmt::Pop {
                port: 0,
                dst: Some(x),
            },
            Stmt::Assign(acc, Expr::local(acc).mul(Expr::i32(3)).add(Expr::local(x))),
        ]
    });
    f.for_loop(0, push as i32, |_, j| {
        vec![Stmt::Push {
            port: 0,
            value: Expr::local(acc).add(Expr::local(j).mul(Expr::i32(seed | 1))),
        }]
    });
    StreamSpec::filter(FilterSpec::new(name, f.build().expect("valid")))
}

/// Strategy: a random pipeline / split-join composition, depth <= 2.
fn stream_strategy() -> impl Strategy<Value = StreamSpec> {
    let leaf = (1u32..4, 1u32..4, -3i32..4).prop_map(|(pop, push, seed)| {
        rate_filter(format!("f{pop}_{push}_{seed}"), pop, push, seed)
    });
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(StreamSpec::pipeline),
            // Branches must share an aggregate push/pop ratio for the
            // balance equations to be consistent; replicate one branch
            // shape (the flattener disambiguates filter names).
            (inner, 2usize..4, 1u32..3).prop_map(|(branch, n, w)| {
                StreamSpec::split_join(
                    SplitterKind::round_robin_uniform(n, w),
                    vec![branch; n],
                    vec![w; n],
                )
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any well-formed composition flattens, solves, and balances: for
    /// every channel, producer tokens equal consumer tokens per iteration.
    #[test]
    fn steady_state_balances(spec in stream_strategy()) {
        let g = spec.flatten().expect("flattens");
        let s = streamir::sdf::solve(&g).expect("solves");
        for (i, e) in g.edges().iter().enumerate() {
            let eid = streamir::graph::EdgeId(i as u32);
            let produced = u64::from(s.reps(e.src)) * u64::from(g.push_rate(eid));
            let consumed = u64::from(s.reps(e.dst)) * u64::from(g.pop_rate(eid));
            prop_assert_eq!(produced, consumed);
        }
    }

    /// The heuristic scheduler always produces a validator-clean schedule,
    /// whatever the graph shape.
    #[test]
    fn heuristic_schedules_validate(spec in stream_strategy(), sms in 1u32..5) {
        let g = spec.flatten().expect("flattens");
        let cfg = ExecConfig::uniform(g.len(), 4, 16, 10);
        let ig = instances::build(&g, &cfg).expect("builds");
        let (sched, _) = schedule::find(
            &ig,
            &cfg,
            sms,
            &SearchOptions { scheduler: SchedulerKind::Heuristic, ..SearchOptions::default() },
        ).expect("schedules");
        schedule::validate(&ig, &cfg, &sched, sms, 16).expect("validates");
    }

    /// CPU executor and GPU simulator agree bit-for-bit on random graphs
    /// through the full compile-and-execute pipeline.
    #[test]
    fn gpu_matches_cpu_on_random_graphs(spec in stream_strategy()) {
        let g = spec.flatten().expect("flattens");
        let compiled = match exec::compile(&g, &CompileOptions::small_test()) {
            Ok(c) => c,
            Err(e) => return Err(TestCaseError::fail(format!("compile: {e}"))),
        };
        let iters = 2u64;
        let n_input = exec::required_input(&compiled, iters);
        let steady = streamir::sdf::solve(&g).expect("solves");
        let per = steady.input_tokens_per_iteration(&g).max(1);
        let input: Vec<Scalar> = (0..n_input + 2 * per)
            .map(|i| Scalar::I32((i as i32).wrapping_mul(7) % 1000 - 500))
            .collect();
        let gpu = exec::execute(&compiled, Scheme::Swp { coarsening: 1 }, iters,
                                &input[..n_input as usize]).expect("executes");
        let cpu_iters = (n_input.saturating_sub(steady.input_tokens_for_init(&g)))
            .div_ceil(per) + 1;
        let cpu = cpu::run(&g, &steady, cpu_iters, &input, &CpuCostModel::default())
            .expect("cpu runs");
        prop_assert!(gpu.outputs.len() <= cpu.outputs.len());
        prop_assert_eq!(&gpu.outputs[..], &cpu.outputs[..gpu.outputs.len()]);
    }

    /// The GPU's warp-synchronous evaluator agrees bit-for-bit with the
    /// reference interpreter on randomly generated work functions (random
    /// expression shapes, loops, divergent branches).
    #[test]
    fn warp_interpreter_matches_reference(
        seed in 0i32..1000,
        pop in 1u32..5,
        push in 1u32..5,
        taps in 0i32..6,
    ) {
        use gpusim::{BlockWork, BufferBinding, DeviceConfig, Gpu, InstanceExec,
                     Kernel, Launch, Layout};
        use streamir::ir::interp::{self, VecChannels};
        use streamir::ir::OpCensus;

        // A filter mixing arithmetic, a peeking loop, and a divergent branch.
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let acc = f.local(ElemTy::I32);
        let x = f.local(ElemTy::I32);
        f.assign(acc, Expr::i32(seed));
        f.for_loop(0, taps, |_, j| {
            vec![Stmt::Assign(
                acc,
                Expr::local(acc)
                    .mul(Expr::i32(5))
                    .add(Expr::peek(0, Expr::local(j).rem(Expr::i32(pop as i32)))),
            )]
        });
        f.for_loop(0, pop as i32, |_, _| {
            vec![
                Stmt::Pop { port: 0, dst: Some(x) },
                Stmt::Assign(acc, Expr::local(acc).bitxor(Expr::local(x))),
            ]
        });
        f.if_else(
            Expr::local(acc).rem(Expr::i32(2)).eq(Expr::i32(0)),
            vec![Stmt::Assign(acc, Expr::local(acc).shr(Expr::i32(1)))],
            vec![Stmt::Assign(acc, Expr::local(acc).mul(Expr::i32(3)).add(Expr::i32(1)))],
        );
        f.for_loop(0, push as i32, |_, j| {
            vec![Stmt::Push {
                port: 0,
                value: Expr::local(acc).add(Expr::local(j)),
            }]
        });
        let wf = f.build().expect("valid");

        let threads = 32u32;
        let in_tokens = threads * pop;
        let out_tokens = threads * push;
        let inputs: Vec<Scalar> = (0..in_tokens)
            .map(|i| Scalar::I32((i as i32).wrapping_mul(2654435761u32 as i32) >> 8))
            .collect();

        // Reference: thread t consumes [t*pop, (t+1)*pop).
        let mut expect = Vec::new();
        for t in 0..threads {
            let window = inputs[(t * pop) as usize..((t + 1) * pop) as usize].to_vec();
            let mut ch = VecChannels::new(vec![window], 1);
            let mut counts = OpCensus::default();
            interp::execute(&wf, &mut ch, &mut counts).expect("reference runs");
            expect.extend(ch.outputs[0].clone());
        }

        // GPU: one warp over a sequential buffer.
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let inp = gpu.alloc_tokens(in_tokens);
        let out = gpu.alloc_tokens(out_tokens);
        for (i, &v) in inputs.iter().enumerate() {
            gpu.memory_mut().write_token(inp + i as u32, v);
        }
        let kernel = Kernel::load(&wf);
        let launch = Launch {
            threads_per_block: threads,
            regs_per_thread: 32,
            blocks: vec![BlockWork {
                items: vec![InstanceExec {
                    kernel: &kernel,
                    active_threads: threads,
                    inputs: vec![BufferBinding::whole(inp, in_tokens, ElemTy::I32, Layout::Sequential, pop)],
                    outputs: vec![BufferBinding::whole(out, out_tokens, ElemTy::I32, Layout::Sequential, push)],
                    shared_staging: false,
                    state_base: None,
                    label: None,
                }],
            }],
            sm_offset: 0,
        };
        gpu.run(&launch).expect("gpu runs");
        for (i, &e) in expect.iter().enumerate() {
            let got = gpu.memory().read_token(out + i as u32, ElemTy::I32);
            prop_assert_eq!(got, e, "token {}", i);
        }
    }

    /// Buffer bindings are bijective: over one region, every (lane, token)
    /// pair of the consumer maps to a distinct in-range address.
    #[test]
    fn transposed_binding_is_injective(
        rate in 1u32..9,
        firings in 1u64..40,
    ) {
        use gpusim::{BufferBinding, Layout};
        let region = u64::from(rate) * firings;
        let b = BufferBinding {
            base_word: 0,
            region_tokens: region,
            regions: 1,
            layout: Layout::Transposed { group: 16 },
            consumer_rate: rate,
            endpoint_rate: rate,
            abs_start: 0,
        };
        let mut seen = std::collections::HashSet::new();
        for lane in 0..firings as u32 {
            for n in 0..u64::from(rate) {
                let a = b.addr(lane, n);
                prop_assert!(a < region, "addr {a} outside region {region}");
                prop_assert!(seen.insert(a), "duplicate address {a}");
            }
        }
    }
}

/// A random (possibly branching, peeking, array/table-using) work
/// function for the validator-vs-interpreter agreement property below.
#[allow(clippy::too_many_arguments)]
fn random_work(
    pop: u32,
    push: u32,
    peek_extra: u32,
    use_array: bool,
    use_table: bool,
    branch: u8,
    seed: i32,
) -> streamir::ir::WorkFunction {
    use streamir::ir::Table;
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let acc = f.local(ElemTy::I32);
    let x = f.local(ElemTy::I32);
    f.assign(acc, Expr::i32(seed));
    let arr = use_array.then(|| f.array(ElemTy::I32, 4));
    let tab = use_table.then(|| f.table(Table::i32(&[2, 3, 5, 7])));
    for d in 0..peek_extra {
        f.assign(
            acc,
            Expr::local(acc).add(Expr::peek(0, Expr::i32(d as i32))),
        );
    }
    f.for_loop(0, pop as i32, |_, _| {
        vec![
            Stmt::Pop {
                port: 0,
                dst: Some(x),
            },
            Stmt::Assign(acc, Expr::local(acc).mul(Expr::i32(3)).add(Expr::local(x))),
        ]
    });
    if let Some(a) = arr {
        f.store(a, Expr::i32(1), Expr::local(acc));
        f.assign(acc, Expr::local(acc).add(Expr::load(a, Expr::i32(1))));
    }
    if let Some(t) = tab {
        f.assign(acc, Expr::local(acc).add(Expr::table(t, Expr::i32(2))));
    }
    match branch {
        // A constant branch: still a branch to the validator.
        1 => {
            f.if_else(
                Expr::i32(1),
                vec![Stmt::Assign(acc, Expr::local(acc).add(Expr::i32(1)))],
                vec![],
            );
        }
        // A data-dependent branch with asymmetric arms, so the static
        // worst-case census strictly dominates one dynamic path.
        2 => {
            f.if_else(
                Expr::local(acc).lt(Expr::i32(0)),
                vec![Stmt::Assign(acc, Expr::local(acc).neg())],
                vec![
                    Stmt::Assign(acc, Expr::local(acc).add(Expr::i32(5))),
                    Stmt::Assign(x, Expr::local(acc).mul(Expr::i32(2))),
                ],
            );
        }
        _ => {}
    }
    f.for_loop(0, push as i32, |_, j| {
        vec![Stmt::Push {
            port: 0,
            value: Expr::local(acc).add(Expr::local(j)),
        }]
    });
    f.build().expect("generated work function validates")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The validator's static channel rates equal the interpreter's
    /// dynamic pop/push counts, and its op census equals the dynamic
    /// operation counts exactly on branch-free bodies (and dominates
    /// them per class when the body branches).
    #[test]
    fn static_rates_and_census_agree_with_dynamic_execution(
        pop in 1u32..4,
        push in 1u32..4,
        peek_extra in 0u32..4,
        array_sel in 0u8..2,
        table_sel in 0u8..2,
        branch in 0u8..3,
        seed in -10i32..10,
    ) {
        use streamir::ir::{interp, OpCensus};
        let wf = random_work(pop, push, peek_extra, array_sel == 1, table_sel == 1, branch, seed);
        let info = wf.info().clone();

        let supply = (pop.max(peek_extra) + 4) as usize;
        let tokens: Vec<Scalar> = (0..supply).map(|i| Scalar::I32(i as i32 - 3)).collect();
        let mut ch = interp::VecChannels::new(vec![tokens], 1);
        let mut counts = OpCensus::default();
        interp::execute(&wf, &mut ch, &mut counts).expect("firing runs");

        // Static rates = dynamic consumption/production.
        prop_assert_eq!(ch.cursors[0] as u32, info.inputs[0].pop);
        prop_assert_eq!(ch.cursors[0] as u32, wf.pop_rate(0));
        prop_assert_eq!(ch.outputs[0].len() as u32, info.outputs[0]);
        prop_assert_eq!(wf.push_rate(0), info.outputs[0]);
        prop_assert_eq!(wf.peek_rate(0), pop.max(peek_extra));
        prop_assert_eq!(wf.is_peeking(), peek_extra > pop);
        prop_assert_eq!(info.has_branches, branch != 0);

        // Static census: exact without branches, a per-class upper bound
        // (worst case over arms) with them.
        if info.has_branches {
            prop_assert!(counts.alu <= info.census.alu);
            prop_assert!(counts.transcendental <= info.census.transcendental);
            prop_assert!(counts.channel_reads <= info.census.channel_reads);
            prop_assert!(counts.channel_writes <= info.census.channel_writes);
            prop_assert!(counts.array_ops <= info.census.array_ops);
            prop_assert!(counts.table_loads <= info.census.table_loads);
            prop_assert!(counts.control <= info.census.control);
            // Channel traffic is rate-static even under branches.
            prop_assert_eq!(counts.channel_reads, info.census.channel_reads);
            prop_assert_eq!(counts.channel_writes, info.census.channel_writes);
        } else {
            prop_assert_eq!(&counts, &info.census);
        }
    }
}

/// The simulator against both of its independent oracles at once, on the
/// eight suite graphs and on seeded random ones, under every scheme:
/// the output stream is the CPU interpreter's, and the memory counters
/// are the static verifier's prediction.
#[test]
fn every_scheme_matches_the_cpu_and_the_verifier_on_suite_and_random_graphs() {
    use swpipe::learn::dataset::random_sources;
    use swpipe::verify::{self, StaticCounters};

    let mut sources = stream_gpu::learn_gen::suite_sources();
    sources.extend(random_sources(6, 0x5eed));
    let iters = 4u64;
    for s in &sources {
        let name = &s.name;
        let c = exec::compile(&s.graph, &CompileOptions::small_test())
            .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let n_input = exec::required_input(&c, iters);
        let steady = streamir::sdf::solve(&s.graph).expect("solves");
        let per = steady.input_tokens_per_iteration(&s.graph).max(1);
        let input = (s.input)((n_input + 2 * per + 64) as usize);
        let cpu_iters = n_input
            .saturating_sub(steady.input_tokens_for_init(&s.graph))
            .div_ceil(per)
            + 1;
        let cpu = cpu::run(
            &s.graph,
            &steady,
            cpu_iters,
            &input,
            &CpuCostModel::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: cpu: {e}"));
        for scheme in [
            Scheme::Swp { coarsening: 1 },
            Scheme::SwpNc { coarsening: 1 },
            Scheme::SwpRaw { coarsening: 1 },
            Scheme::Serial { batch: 1 },
        ] {
            let run = exec::execute(&c, scheme, iters, &input[..n_input as usize])
                .unwrap_or_else(|e| panic!("{name}/{scheme:?}: execute: {e}"));
            assert!(!run.outputs.is_empty(), "{name}/{scheme:?}: no output");
            assert_eq!(
                run.outputs[..],
                cpu.outputs[..run.outputs.len()],
                "{name}/{scheme:?}: outputs differ from the CPU interpreter's"
            );
            let predicted = verify::predict(&c, scheme, iters)
                .unwrap_or_else(|e| panic!("{name}/{scheme:?}: predict: {e}"));
            assert!(predicted.exact, "{name}/{scheme:?}: prediction not exact");
            assert_eq!(
                predicted.counters,
                StaticCounters::of_stats(&run.stats),
                "{name}/{scheme:?}: counters differ from the verifier's prediction"
            );
        }
    }
}

/// Field-for-field equality of two executions, errors compared by message.
fn assert_same_run(a: &swpipe::Result<exec::GpuRun>, b: &swpipe::Result<exec::GpuRun>, ctx: &str) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.outputs, b.outputs, "{ctx}: outputs");
            assert_eq!(a.stats, b.stats, "{ctx}: launch statistics");
            assert_eq!(a.launch_cycles, b.launch_cycles, "{ctx}: per-launch cycles");
            assert_eq!(a.time_secs, b.time_secs, "{ctx}: modeled time");
            assert_eq!((a.launches, a.retries), (b.launches, b.retries), "{ctx}");
            assert_eq!(a.buffer_bytes, b.buffer_bytes, "{ctx}: buffer plan");
            assert_eq!(a.checkpoint_mode, b.checkpoint_mode, "{ctx}");
            assert_eq!(a.checkpoint_interval, b.checkpoint_interval, "{ctx}");
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{ctx}: errors"),
        (a, b) => panic!("{ctx}: one path failed and the other did not: {a:?} vs {b:?}"),
    }
}

/// Prepare once, serve many: every dispatch of an artifact through its
/// one shared prepared form — consecutive ones, and two racing to build
/// it from two threads — equals a fresh `execute_with` field for field,
/// fault-free and under launch failures (a relaunch reuses the prepared
/// launch shape), k-launch checkpointing (the commit window's replay
/// rebuilds any ordinal) and hangs under the adaptive watchdog over that
/// same window.
#[test]
fn prepared_dispatches_equal_fresh_executions_under_every_fault_regime() {
    use gpusim::FaultPlan;
    use swpipe::exec::{RetryPolicy, RunOptions};
    use swpipe::pipeline::{PipelineOptions, ResilientPipeline, StageBudgets};

    // The serving path's ladder: no budget for the ILP rungs.
    let pipeline = ResilientPipeline::new(PipelineOptions {
        compile: CompileOptions::small_test(),
        budgets: StageBudgets {
            exact_ilp: std::time::Duration::ZERO,
            relaxed_ilp: std::time::Duration::ZERO,
            ..StageBudgets::default()
        },
        ..PipelineOptions::default()
    });
    let faulty =
        |plan: FaultPlan, checkpoint_interval: u32, watchdog_margin: Option<u32>| RunOptions {
            fault_plan: Some(plan),
            retry: RetryPolicy { max_attempts: 6 },
            checkpoint_interval,
            watchdog_margin,
            graph_dispatch: true,
            ..RunOptions::default()
        };
    let regimes = [
        ("fault-free", RunOptions::default()),
        (
            "launch failures",
            faulty(FaultPlan::new(7).with_launch_failures(30), 1, None),
        ),
        (
            "k-launch checkpoints",
            faulty(FaultPlan::new(11).with_launch_failures(30), 3, None),
        ),
        (
            "hangs",
            faulty(FaultPlan::new(13).with_hangs(30), 3, Some(4)),
        ),
    ];
    let iters = 4u64;
    let mut retries = [0u64; 4];
    for s in &stream_gpu::learn_gen::suite_sources() {
        let artifact = pipeline.compile(&s.graph).expect("suite graph compiles");
        let input = (s.input)(exec::required_input(&artifact.compiled, iters) as usize);
        let fresh = |opts: &RunOptions| {
            exec::execute_with(&artifact.compiled, artifact.scheme, iters, &input, opts)
        };

        // Two threads meet at the barrier before the prepared form exists.
        let barrier = std::sync::Barrier::new(2);
        let racer = || {
            barrier.wait();
            artifact.execute(iters, &input, &regimes[0].1)
        };
        let (left, right) = std::thread::scope(|scope| {
            let other = scope.spawn(racer);
            (racer(), other.join().expect("dispatch thread ran"))
        });
        let reference = fresh(&regimes[0].1);
        assert!(reference.is_ok(), "{}: {reference:?}", s.name);
        assert_same_run(&left, &reference, &format!("{}: racing dispatch", s.name));
        assert_same_run(&right, &reference, &format!("{}: racing dispatch", s.name));

        for (r, (regime, opts)) in regimes.iter().enumerate() {
            let reference = fresh(opts);
            retries[r] += reference.as_ref().map_or(0, |run| run.retries);
            for n in 0..3 {
                let ctx = format!("{} under {regime}, dispatch {n}", s.name);
                assert_same_run(&artifact.execute(iters, &input, opts), &reference, &ctx);
            }
        }
    }

    assert_eq!(retries[0], 0);
    assert!(
        retries[1..].iter().all(|&n| n > 0),
        "every faulty regime must exercise recovery: {retries:?}"
    );

    // A trapping work function reports the same trap with the same context.
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let x = f.local(ElemTy::I32);
    f.pop_into(0, x);
    f.push(0, Expr::i32(100).div(Expr::local(x)));
    let graph = StreamSpec::filter(FilterSpec::new("reciprocal", f.build().expect("valid")))
        .flatten()
        .expect("flattens");
    let artifact = pipeline
        .compile(&graph)
        .expect("profiles on non-zero tokens");
    let zeros = vec![Scalar::I32(0); exec::required_input(&artifact.compiled, 1) as usize];
    let opts = RunOptions::default();
    let fresh = exec::execute_with(&artifact.compiled, artifact.scheme, 1, &zeros, &opts);
    let message = fresh
        .as_ref()
        .expect_err("dividing by a zero token traps")
        .to_string();
    assert!(
        message.contains("work function trapped: integer division by zero"),
        "{message}"
    );
    assert_same_run(&artifact.execute(1, &zeros, &opts), &fresh, "trap");
}

/// Fault semantics as known answers, captured from the lane-by-lane
/// evaluator this simulator core replaced: where an injected memory
/// corruption is detected, what an injected hang reports, and exactly
/// which words each aborted launch had already written. The kernel peeks,
/// pops and pushes through a transposed input over five full warps and a
/// half one, so both trips land mid-launch.
#[test]
fn fault_trip_sites_and_partial_writes_are_pinned() {
    use gpusim::{
        BlockWork, BufferBinding, DeviceConfig, FaultKind, FaultPlan, Gpu, InstanceExec, Kernel,
        Launch, Layout, SimError,
    };
    use swpipe::hash::Fnv;

    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let acc = f.local(ElemTy::I32);
    let x = f.local(ElemTy::I32);
    f.assign(acc, Expr::i32(0));
    f.for_loop(0, 4, |_, j| {
        vec![Stmt::Assign(
            acc,
            Expr::local(acc)
                .mul(Expr::i32(5))
                .add(Expr::peek(0, Expr::local(j))),
        )]
    });
    f.for_loop(0, 2, |_, _| {
        vec![
            Stmt::Pop {
                port: 0,
                dst: Some(x),
            },
            Stmt::Assign(acc, Expr::local(acc).bitxor(Expr::local(x))),
        ]
    });
    f.push(0, Expr::local(acc));
    f.push(0, Expr::local(acc).add(Expr::local(x)));
    let wf = f.build().expect("valid");

    let threads = 176u32;
    let (in_tokens, out_tokens) = (threads * 2 + 2, threads * 2);
    let layout = Layout::Transposed { group: 128 };
    let mut gpu = Gpu::new(DeviceConfig::small_test());
    let inp = gpu.alloc_tokens(in_tokens);
    let out = gpu.alloc_tokens(out_tokens);
    for i in 0..in_tokens {
        let slot = layout.slot(u64::from(i), 2, u64::from(in_tokens)) as u32;
        gpu.memory_mut()
            .write_token(inp + slot, Scalar::I32(i as i32 * 37 - 1000));
    }
    gpu.inject_faults(
        FaultPlan::new(0x5eed)
            .at_launch(0, FaultKind::MemCorruption)
            .at_launch(1, FaultKind::Hang),
    );
    let kernel = Kernel::load(&wf);
    let launch = Launch {
        threads_per_block: threads,
        regs_per_thread: 32,
        blocks: vec![BlockWork {
            items: vec![InstanceExec {
                kernel: &kernel,
                active_threads: threads,
                inputs: vec![BufferBinding::whole(inp, in_tokens, ElemTy::I32, layout, 2)],
                outputs: vec![BufferBinding::whole(
                    out,
                    out_tokens,
                    ElemTy::I32,
                    Layout::Sequential,
                    2,
                )],
                shared_staging: false,
                state_base: None,
                label: None,
            }],
        }],
        sm_offset: 0,
    };
    // (non-zero words, FNV-1a of the whole output buffer)
    let image = |gpu: &Gpu| {
        let mut h = Fnv::new();
        let mut written = 0;
        for i in 0..out_tokens {
            let w = gpu.memory().read(u64::from(out + i)).expect("in range");
            h.write(&w.to_le_bytes());
            written += u32::from(w != 0);
        }
        (written, h.finish())
    };

    let budget = gpu.watchdog_budget();
    assert_eq!(budget, 812_500_000);
    assert_eq!(
        gpu.run(&launch).unwrap_err(),
        SimError::MemFault {
            addr: 430,
            launch: 0
        }
    );
    assert_eq!(image(&gpu), (32, 13273767069423559650));
    assert_eq!(
        gpu.run(&launch).unwrap_err(),
        SimError::WatchdogTimeout { budget, launch: 1 }
    );
    assert_eq!(image(&gpu), (256, 15447679417037834595));
    gpu.run(&launch).expect("the third attempt is fault-free");
    assert_eq!(image(&gpu), (352, 12709742269725053885));
}
