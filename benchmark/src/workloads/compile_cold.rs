//! `compile_cold` — what a cache miss costs.
//!
//! Sixteen cold `ResilientPipeline::compile` calls at the serving
//! configuration (small profiling grid, committed cost model so the beam
//! rung ships, ILP rungs unbudgeted, serve_bench's 3 % launch-failure
//! plan, graph dispatch on): the eight suite graphs at slice widths 16
//! and 4, fault policies alternating. Each artifact is re-verified
//! (`verify::verify`, certificate re-check). After the timed region every
//! artifact is executed for a few iterations: that is how a compiler's
//! output is checked (output streams against the CPU interpreter, the
//! verifier's static traffic prediction against the simulator's counters),
//! and the run time of the generated code is the other half of the
//! compile-time trade-off — `device_cycles` here is what a faster compile
//! that ships a worse schedule would move. profile/schedule/plan/codegen/
//! verify do all the work; serve and fleet do none, gpusim works only
//! inside profiling.
//!
//! The issue sizes this at 8 graphs × 4 widths × 2 policies = 64
//! compiles; the run-time cap of the benchmark contract leaves room for
//! 16 per pass (compile time does not depend on the width, so the mix is
//! representative).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ilp::{SolveOptions, SolveOutcome};
use swpipe::exec::{self, Compiled, RunOptions, Scheme};
use swpipe::harness::geometric_mean;
use swpipe::learn::dataset::random_sources;
use swpipe::pipeline::{
    FaultPolicy, LadderRung, PipelineOptions, ResilientCompiled, ResilientPipeline,
};
use swpipe::plan::{self, LayoutKind};
use swpipe::profile::TIME_UNIT_CYCLES;
use swpipe::schedule::{self, SchedulerKind, SearchOptions};
use swpipe::serve::CacheOptions;
use swpipe::verify::{self, isolate, StaticCounters};
use swpipe::{codegen, config, formulate, instances, profile};

use crate::common::{
    cost_model, cpu_reference, device_metrics, device_output_tokens, matches_reference, measure,
    measure_setup, pipeline_options, serve_options, CpuRef, Plan, SimTotals, Suite,
};
use crate::gen::{seeded_input, SplitMix64};
use crate::metrics::{median, Ops, Outcome, Values};
use crate::trace::{reference_host_metrics, secs_in, Phase, Tracer};

/// Slice widths compiled per graph.
const WIDTHS: [u32; 2] = [16, 4];
/// Device iterations each artifact is verified at and executed for.
const CHECK_ITERATIONS: u64 = 8;
/// Random stream graphs drawn for the ILP micro-set, the largest instance
/// graph kept (the in-house simplex takes seconds per LP beyond that),
/// and the SM counts solved at.
const MICRO_SOURCES: usize = 12;
const MICRO_MAX_INSTANCES: usize = 16;
const MICRO_SMS: [u32; 2] = [2, 4];
/// Branch-and-bound node cap of the micro-set: small enough that the time
/// budget never binds, so node and LP counts repeat exactly.
const MICRO_MAX_NODES: u64 = 64;

struct Config {
    bench: usize,
    popts: PipelineOptions,
}

struct Setup {
    suite: Suite,
    /// The sixteen compile requests, in seeded order.
    configs: Vec<Config>,
}

fn setup(tr: &Tracer, seed: u64) -> Setup {
    let model = tr.span("learn", "CostModel::from_json", 0, cost_model);
    let suite = Suite::load(tr, seed);
    let serve = serve_options(&model, true, CacheOptions::default());
    let policies = [FaultPolicy::Throughput, FaultPolicy::TailLatency];
    let mut configs = Vec::new();
    for bench in 0..suite.len() {
        for (w, &width) in WIDTHS.iter().enumerate() {
            configs.push(Config {
                bench,
                popts: pipeline_options(&serve, width, policies[(bench + w) % 2]),
            });
        }
    }
    // One compile before timing (the same one on every seed), so the
    // first timed one does not pay for first-touch page faults and
    // allocator growth.
    let warm = &configs[0];
    tr.span("pipeline", "ResilientPipeline::compile", 0, || {
        ResilientPipeline::new(warm.popts.clone()).compile(&suite.graphs[warm.bench])
    })
    .expect("warm-up compile succeeds");
    SplitMix64::new(seed).shuffle(&mut configs);
    Setup { suite, configs }
}

/// The deterministic record of one compile.
#[derive(Debug, Clone, PartialEq)]
struct Shipped {
    config: usize,
    rung: LadderRung,
    ii: u64,
    lower_bound: u64,
    searches: u64,
    verified: bool,
    diagnostics: usize,
    predicted: StaticCounters,
    certified: bool,
}

struct Pass {
    shipped: Vec<Shipped>,
    artifacts: Vec<ResilientCompiled>,
    compile_ms: Vec<f64>,
    ops: Ops,
}

/// One pass: every config compiled and re-verified. The host seconds of
/// each config (compile, verify, certificate check) are its operation.
fn pass(s: &Setup, tr: &Tracer) -> (Pass, Vec<f64>) {
    let mut op_secs = vec![0.0; s.configs.len()];
    let mut out = Pass {
        shipped: Vec::new(),
        artifacts: Vec::new(),
        compile_ms: Vec::new(),
        ops: Ops::default(),
    };
    for (i, cfg) in s.configs.iter().enumerate() {
        let op = i as u64;
        let graph = &s.suite.graphs[cfg.bench];
        let t = Instant::now();
        let compiled = tr.span("pipeline", "ResilientPipeline::compile", op, || {
            ResilientPipeline::new(cfg.popts.clone()).compile(graph)
        });
        out.compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.ops.record(compiled.is_ok());
        let Ok(rc) = compiled else {
            op_secs[i] = t.elapsed().as_secs_f64();
            continue;
        };

        let verdict = tr.span("verify", "verify::verify", op, || {
            verify::verify(&rc.compiled, rc.scheme, CHECK_ITERATIONS)
        });
        let verified = verdict.as_ref().is_ok_and(|v| v.passes());
        out.ops.record(verified);
        let certified = rc.isolation.as_ref().is_some_and(|cert| {
            tr.span("verify", "verify::verify_certificate", op, || {
                verify::verify_certificate(&rc.compiled, rc.scheme, cert)
            })
            .is_ok()
        });
        out.ops.record(certified);
        out.shipped.push(Shipped {
            config: i,
            rung: rc.report.shipped,
            ii: rc.compiled.schedule.ii,
            lower_bound: rc.compiled.report.lower_bound,
            searches: rc.report.search_invocations(),
            verified,
            diagnostics: verdict.as_ref().map_or(0, |v| v.diagnostics.len()),
            predicted: verdict.map(|v| v.prediction.counters).unwrap_or_default(),
            certified,
        });
        op_secs[i] = t.elapsed().as_secs_f64();
        out.artifacts.push(rc);
    }
    (out, op_secs)
}

/// Executes every artifact fault-free for a few iterations: outputs
/// against the CPU interpreter, simulated counters against the verifier's
/// static prediction, and the cycles of the compiled code.
struct Checked {
    /// Suite index, simulated cycles and speedup over the CPU model of
    /// each artifact's run.
    runs: Vec<(usize, f64, f64)>,
    counter_mismatches: u64,
    cpu_cycles: f64,
    sim: SimTotals,
    correct: bool,
}

fn check(s: &Setup, p: &Pass, tr: &Tracer, ops: &mut Ops) -> Checked {
    tr.set_phase(Phase::Check);
    let mut out = Checked {
        runs: Vec::new(),
        counter_mismatches: 0,
        cpu_cycles: 0.0,
        sim: SimTotals::default(),
        correct: true,
    };
    let mut references: BTreeMap<usize, CpuRef> = BTreeMap::new();
    for (shipped, rc) in p.shipped.iter().zip(&p.artifacts) {
        let op = shipped.config as u64;
        let bench = s.configs[shipped.config].bench;
        let input = seeded_input(bench);
        let tokens = input(exec::required_input(&rc.compiled, CHECK_ITERATIONS) as usize);
        let opts = RunOptions {
            graph_dispatch: true,
            ..RunOptions::default()
        };
        let t = Instant::now();
        let run = tr.span("exec", "exec::execute_with", op, || {
            exec::execute_with(&rc.compiled, rc.scheme, CHECK_ITERATIONS, &tokens, &opts)
        });
        let host = t.elapsed().as_secs_f64();
        ops.record(run.is_ok());
        let Ok(run) = run else {
            out.correct = false;
            continue;
        };
        out.sim.add(&run.stats, host, Some(&rc.compiled));

        let fresh = references
            .get(&bench)
            .is_none_or(|r| r.outputs.len() < run.outputs.len());
        if fresh {
            let r = cpu_reference(tr, op, &s.suite.graphs[bench], &input, run.outputs.len());
            out.cpu_cycles += r.cycles;
            references.insert(bench, r);
        }
        let reference = &references[&bench];
        let equal = matches_reference(&run.outputs, &reference.outputs);
        ops.record(equal);
        out.correct &= equal;

        let counted = StaticCounters::of_stats(&run.stats) == shipped.predicted;
        ops.record(counted);
        out.counter_mismatches += u64::from(!counted);

        let per_token = run.time_secs / device_output_tokens(&rc.compiled, CHECK_ITERATIONS) as f64;
        out.runs.push((
            bench,
            run.stats.cycles,
            reference.secs_per_token / per_token,
        ));
    }
    // The seed shuffles the compile order; sums must not depend on it.
    out.runs
        .sort_by(|a, b| a.partial_cmp(b).expect("cycles and speedups are finite"));
    out
}

/// What the staged drive of one config produced, for the layer metrics.
#[derive(Default)]
struct Staged {
    grid_points: u64,
    infeasible_points: u64,
    instances: u64,
    deps: u64,
    buffer_bytes: u64,
    graph_nodes: u64,
    event_edges: u64,
}

/// Drives the public stage functions in pipeline order for one compile
/// request — the same calls `ResilientPipeline::compile` makes for the
/// beam rung — so each layer's share of a compile can be read off spans.
fn staged_compile(
    tr: &Tracer,
    op: u64,
    graph: &streamir::graph::FlatGraph,
    popts: &PipelineOptions,
    acc: &mut Staged,
) -> Option<u64> {
    let copts = &popts.compile;
    let num_sms = copts.device.num_sms;
    // Feedback graphs may need thread counts below the grid's smallest
    // entry, exactly as the pipeline's front end extends it.
    let mut grid = copts.profile.clone();
    let loop_depth = graph.edges().iter().map(|e| e.initial.len() as u32);
    if let Some(cap) = loop_depth.filter(|&d| d > 0).min() {
        if !grid.thread_counts.iter().any(|&t| t <= cap) {
            grid.thread_counts.push(cap.max(1));
        }
    }
    let table = tr
        .span("profile", "profile::profile", op, || {
            profile::profile(graph, &grid, &copts.device, &copts.timing)
        })
        .ok()?;
    let points = table.times.iter().flatten().flatten();
    acc.grid_points += points.clone().count() as u64;
    acc.infeasible_points += points.filter(|t| t.is_none()).count() as u64;

    let selection = tr
        .span("config", "config::select", op, || {
            config::select(graph, &table)
        })
        .ok()?;
    let exec_cfg = selection.exec.clone();
    let ig = tr
        .span("instances", "instances::build", op, || {
            instances::build(graph, &exec_cfg)
        })
        .ok()?;
    acc.instances += ig.len() as u64;
    acc.deps += ig.deps.len() as u64;

    let reserve = popts.fault_plan.as_ref().map_or(0, |fp| {
        let cycles = fp.expected_retry_cycles(&copts.timing, copts.timing.watchdog_budget_insts());
        (cycles / TIME_UNIT_CYCLES).ceil() as u64
    });
    let search = SearchOptions {
        coarsening_max: if instances::requires_serial_iterations(graph) {
            1
        } else {
            copts.search.coarsening_max
        },
        fault_reserve: match popts.policy {
            FaultPolicy::Throughput => 0,
            FaultPolicy::TailLatency => reserve,
        },
        ..copts.search.clone()
    };
    let (sched, report) = tr
        .span("schedule", "schedule::find_beam", op, || {
            schedule::find_beam(&ig, &exec_cfg, num_sms, &search)
        })
        .ok()?;
    // The rung the ladder would fall to without a cost model, for scale.
    let heuristic = SearchOptions {
        scheduler: SchedulerKind::Heuristic,
        ..search.clone()
    };
    let _ = tr.span("schedule", "schedule::find", op, || {
        schedule::find(&ig, &exec_cfg, num_sms, &heuristic)
    });

    let mut diags = tr.span("verify", "verify::check_schedule", op, || {
        verify::check_schedule(graph, &ig, &exec_cfg, &sched, num_sms, 1)
    });
    let capture = tr.span("codegen", "codegen::capture_graph", op, || {
        codegen::capture_graph(&ig, &sched, 1)
    });
    acc.graph_nodes += capture.node_count();
    acc.event_edges += capture.edge_count();
    diags.extend(tr.span("verify", "verify::check_capture", op, || {
        verify::check_capture(graph, &ig, &sched, 1, &capture)
    }));
    let buffers = tr.span("plan", "plan::plan", op, || {
        plan::plan(graph, &ig, Some(&sched), 1, LayoutKind::Optimized)
    });
    acc.buffer_bytes += buffers.total_bytes();
    diags.extend(tr.span("verify", "verify::check_plan", op, || {
        verify::check_plan(graph, &ig, Some(&sched), &buffers)
    }));
    if !verify::passes(&diags) {
        return None;
    }

    let ii = sched.ii;
    let compiled = Compiled {
        graph: graph.clone(),
        exec_cfg,
        selection,
        ig,
        schedule: sched,
        report,
        device: copts.device.clone(),
        timing: copts.timing.clone(),
    };
    let scheme = Scheme::Swp { coarsening: 1 };
    let cert = tr
        .span("verify", "isolate::certify", op, || {
            isolate::certify(&compiled, scheme)
        })
        .ok()?
        .certificate?;
    tr.span("verify", "verify::verify_certificate", op, || {
        verify::verify_certificate(&compiled, scheme, &cert)
    })
    .ok()?;
    tr.span("verify", "verify::predict_with_plan", op, || {
        verify::predict_with_plan(&compiled, scheme, CHECK_ITERATIONS, &buffers)
    })
    .ok()?;
    Some(ii)
}

/// Formulates and solves the scheduling ILP on a fixed micro-set of
/// random stream graphs. The serving path gives the ILP rungs no budget,
/// so nothing end-to-end moves with these today; they are written down so
/// a later ILP speed-up or deletion has a number to move.
fn ilp_micro_set(tr: &Tracer, seed: u64, layers: &mut Values) {
    let base = swpipe::exec::CompileOptions::small_test();
    let opts = SolveOptions {
        max_nodes: MICRO_MAX_NODES,
        time_budget: Duration::from_secs(30),
        feasibility_only: true,
        ..SolveOptions::default()
    };
    let (mut vars, mut rows, mut nodes, mut lps, mut solved, mut tried) = (0, 0, 0, 0, 0u64, 0u64);
    for (i, source) in random_sources(MICRO_SOURCES, seed).iter().enumerate() {
        let op = i as u64;
        let front = tr.span("profile", "profile::profile[micro]", op, || {
            let table = profile::profile(&source.graph, &base.profile, &base.device, &base.timing)?;
            let exec_cfg = config::select(&source.graph, &table)?.exec;
            let ig = instances::build(&source.graph, &exec_cfg)?;
            Ok::<_, swpipe::Error>((exec_cfg, ig))
        });
        let Ok((exec_cfg, ig)) = front else { continue };
        if ig.len() > MICRO_MAX_INSTANCES {
            continue;
        }
        let longest = exec_cfg.delay.iter().copied().max().unwrap_or(1);
        for sms in MICRO_SMS {
            let ii = ig
                .res_mii(&exec_cfg, sms)
                .max(ig.rec_mii(&exec_cfg))
                .max(longest)
                .max(1);
            let (model, _) = tr.span("formulate", "formulate::build_model", op, || {
                formulate::build_model(&ig, &exec_cfg, sms, ii, 1, 0)
            });
            vars += model.num_vars();
            rows += model.num_constraints();
            let (outcome, stats) = tr.span("ilp", "ilp::solve_with_stats", op, || {
                ilp::solve_with_stats(&model, &opts)
            });
            tried += 1;
            solved += u64::from(matches!(
                outcome,
                SolveOutcome::Optimal(_) | SolveOutcome::Feasible(_)
            ));
            nodes += stats.nodes;
            lps += stats.lp_solves;
        }
    }
    layers.insert("formulate.vars".into(), vars as f64);
    layers.insert("formulate.constraints".into(), rows as f64);
    layers.insert("ilp.bb_nodes".into(), nodes as f64);
    layers.insert("ilp.lp_solves".into(), lps as f64);
    layers.insert(
        "ilp.solved_share".into(),
        solved as f64 / tried.max(1) as f64,
    );
}

fn layer_metrics(
    s: &Setup,
    p: &Pass,
    c: &Checked,
    tr: &Tracer,
    seed: u64,
    ops: &mut Ops,
) -> Values {
    tr.set_phase(Phase::Extra);
    let mut layers = Values::new();
    let mut staged = Staged::default();
    for shipped in &p.shipped {
        let cfg = &s.configs[shipped.config];
        let graph = &s.suite.graphs[cfg.bench];
        // The staged drive must ship the II the monolithic compile did.
        let ii = staged_compile(tr, shipped.config as u64, graph, &cfg.popts, &mut staged);
        ops.record(ii == Some(shipped.ii));
    }
    ilp_micro_set(tr, seed, &mut layers);

    let spans = tr.spans();
    let secs = |name: &str| secs_in(&spans, Phase::Extra, name);
    let mut put = |name: &str, v: f64| {
        layers.insert(name.into(), v);
    };
    put("profile.host_s", secs("profile::profile"));
    put("profile.grid_points", staged.grid_points as f64);
    put("profile.infeasible_points", staged.infeasible_points as f64);
    put("config.select_host_s", secs("config::select"));
    put("instances.build_host_s", secs("instances::build"));
    put("instances.count", staged.instances as f64);
    put("instances.deps", staged.deps as f64);
    put("schedule.beam_host_s", secs("schedule::find_beam"));
    put("schedule.heuristic_host_s", secs("schedule::find"));
    put("formulate.build_host_s", secs("formulate::build_model"));
    put("ilp.solve_host_s", secs("ilp::solve_with_stats"));
    put("plan.host_s", secs("plan::plan"));
    put("plan.buffer_bytes", staged.buffer_bytes as f64);
    put("codegen.capture_host_s", secs("codegen::capture_graph"));
    put("codegen.graph_nodes", staged.graph_nodes as f64);
    put("codegen.event_edges", staged.event_edges as f64);
    put("verify.deps_host_s", secs("verify::check_schedule"));
    put("verify.events_host_s", secs("verify::check_capture"));
    put("verify.bounds_host_s", secs("verify::check_plan"));
    put("verify.coalesce_host_s", secs("verify::predict_with_plan"));
    put("verify.isolate_host_s", secs("isolate::certify"));
    put(
        "verify.cert_check_host_s",
        secs("verify::verify_certificate"),
    );

    // From the monolithic compiles of the traced pass.
    let ratios: Vec<f64> = p
        .shipped
        .iter()
        .map(|x| x.ii as f64 / x.lower_bound.max(1) as f64)
        .collect();
    put("schedule.ii_over_lb_geomean", geometric_mean(&ratios));
    put(
        "schedule.search_invocations",
        p.shipped.iter().map(|x| x.searches).sum::<u64>() as f64,
    );
    let shipped_by = |rung: LadderRung| p.shipped.iter().filter(|x| x.rung == rung).count() as f64;
    put("schedule.shipped_beam", shipped_by(LadderRung::Beam));
    put(
        "schedule.shipped_heuristic",
        shipped_by(LadderRung::Heuristic),
    );
    put(
        "schedule.shipped_serial_sas",
        shipped_by(LadderRung::SerialSas),
    );
    put(
        "verify.diagnostics",
        p.shipped.iter().map(|x| x.diagnostics).sum::<usize>() as f64,
    );
    put("verify.counter_mismatches", c.counter_mismatches as f64);
    put("pipeline.compile_host_ms_p50", median(&p.compile_ms));
    put(
        "pipeline.compile_host_ms_max",
        p.compile_ms.iter().copied().fold(0.0, f64::max),
    );
    // Monolithic compile time that the staged public calls do not cover
    // (ladder bookkeeping, the second capture, artifact assembly).
    let staged_secs: f64 = [
        "profile::profile",
        "config::select",
        "instances::build",
        "schedule::find_beam",
        "verify::check_schedule",
        "codegen::capture_graph",
        "verify::check_capture",
        "plan::plan",
        "verify::check_plan",
        "isolate::certify",
    ]
    .iter()
    .map(|name| secs(name))
    .sum();
    let monolithic = secs_in(&spans, Phase::Timed, "ResilientPipeline::compile");
    put(
        "pipeline.unattributed_host_share",
        1.0 - staged_secs / monolithic,
    );
    put("streamir.cpu_model_cycles", c.cpu_cycles);
    reference_host_metrics(&spans, &mut layers);
    c.sim.write(&mut layers);
    layers
}

pub fn run(plan: &Plan, tr: &Tracer) -> Outcome {
    let mut ops = Ops::default();
    let mut out = Outcome::default();
    let (s, setup_s) = measure_setup(plan, tr, |tr| setup(tr, plan.seed));
    let measured = measure(
        plan,
        tr,
        &mut ops,
        |tr| pass(&s, tr),
        |a, b| a.shipped == b.shipped,
    );
    let p = &measured.first;
    ops.add(p.ops);
    let checked = check(&s, p, tr, &mut ops);

    let speedups: Vec<f64> = checked.runs.iter().map(|r| r.2).collect();
    device_metrics(
        checked.runs.iter().map(|r| r.1).sum(),
        &speedups,
        &mut out.e2e,
    );
    out.notes.push(format!(
        "{} cold compiles per pass, {} passes; device metrics are of each artifact's \
         {CHECK_ITERATIONS}-iteration check run",
        s.configs.len(),
        measured.passes
    ));
    if plan.trace {
        out.layers = layer_metrics(&s, p, &checked, tr, plan.seed, &mut ops);
    }
    out.correct = checked.correct && checked.counter_mismatches == 0;
    super::finish(out, ops, setup_s, &measured)
}
