//! `exec_steady` — pure device-side work.
//!
//! The eight suite artifacts are compiled in set-up (serving
//! configuration, 16 SMs, fault-free); the timed region executes each
//! under SWP8 with graph dispatch for its pipeline depth plus four
//! rounds — fill, four steady-state rounds replayed from the captured
//! graph, drain — and every output stream is compared with
//! `streamir::cpu::run` on the same input. gpusim and `swpipe::exec` do
//! everything here; the compiler, the verifier and the serving engines do
//! nothing, so a simulator speed-up must show in `host_s` only and a
//! timing-model change in `device_cycles` only.
//!
//! The issue sizes this at a flat 256 iterations per graph. That is 32
//! rounds, which leaves DES (50 stages deep) without one steady round and
//! costs 10 s a pass; sizing each run by its own depth gives every graph
//! the same four steady rounds for 308 launches instead of 394, so two
//! passes fit a run.

use std::time::Instant;

use gpusim::LaunchStats;
use streamir::ir::Scalar;
use swpipe::exec::{self, GpuRun, RunOptions, Scheme};
use swpipe::instances;
use swpipe::pipeline::{FaultPolicy, ResilientCompiled, ResilientPipeline};
use swpipe::serve::CacheOptions;
use swpipe::verify::{self, StaticCounters};

use crate::common::{
    cost_model, cpu_reference, device_metrics, device_output_tokens, matches_reference, measure,
    measure_setup, pipeline_options, serve_options, Plan, SimTotals, Suite,
};
use crate::gen::seeded_input;
use crate::metrics::{Ops, Outcome, Values};
use crate::trace::{reference_host_metrics, Phase, Tracer};

/// The paper's headline coarsening.
const COARSENING: u32 = 8;
/// Launch rounds each graph runs with every pipeline stage active.
const STEADY_ROUNDS: u64 = 4;

struct Program {
    artifact: ResilientCompiled,
    scheme: Scheme,
    /// Basic iterations run: `coarsening × (stages + STEADY_ROUNDS)`.
    iterations: u64,
    tokens: Vec<Scalar>,
}

struct Setup {
    suite: Suite,
    programs: Vec<Program>,
}

fn setup(tr: &Tracer, seed: u64) -> Setup {
    let model = tr.span("learn", "CostModel::from_json", 0, cost_model);
    let suite = Suite::load(tr, seed);
    let serve = serve_options(&model, false, CacheOptions::default());
    let popts = pipeline_options(&serve, serve.device.num_sms, FaultPolicy::Throughput);
    let programs = (0..suite.len())
        .map(|b| {
            let graph = &suite.graphs[b];
            let artifact = tr
                .span("pipeline", "ResilientPipeline::compile", b as u64, || {
                    ResilientPipeline::new(popts.clone()).compile(graph)
                })
                .expect("suite benchmark compiles");
            // Stateful filters and feedback loops cannot be coarsened.
            let coarsening = if instances::requires_serial_iterations(graph) {
                1
            } else {
                COARSENING
            };
            let rounds = artifact.compiled.schedule.max_stage() + STEADY_ROUNDS;
            let iterations = u64::from(coarsening) * rounds;
            let needed = exec::required_input(&artifact.compiled, iterations);
            Program {
                artifact,
                scheme: Scheme::Swp { coarsening },
                iterations,
                tokens: seeded_input(b)(needed as usize),
            }
        })
        .collect();
    Setup { suite, programs }
}

struct Pass {
    runs: Vec<Option<GpuRun>>,
    host_secs: Vec<f64>,
}

/// One pass: every graph executed once; each execution is an operation.
fn pass(s: &Setup, tr: &Tracer) -> (Pass, Vec<f64>) {
    let opts = RunOptions {
        graph_dispatch: true,
        ..RunOptions::default()
    };
    let mut out = Pass {
        runs: Vec::new(),
        host_secs: Vec::new(),
    };
    for (b, p) in s.programs.iter().enumerate() {
        let t = Instant::now();
        let run = tr.span("exec", "exec::execute_with", b as u64, || {
            exec::execute_with(
                &p.artifact.compiled,
                p.scheme,
                p.iterations,
                &p.tokens,
                &opts,
            )
        });
        out.host_secs.push(t.elapsed().as_secs_f64());
        out.runs.push(run.ok());
    }
    let op_secs = out.host_secs.clone();
    (out, op_secs)
}

fn same(a: &Pass, b: &Pass) -> bool {
    fn results(p: &Pass) -> Vec<Option<(&[Scalar], &LaunchStats)>> {
        p.runs
            .iter()
            .map(|r| r.as_ref().map(|r| (r.outputs.as_slice(), &r.stats)))
            .collect()
    }
    results(a) == results(b)
}

pub fn run(plan: &Plan, tr: &Tracer) -> Outcome {
    let mut ops = Ops::default();
    let mut out = Outcome::default();
    let (s, setup_s) = measure_setup(plan, tr, |tr| setup(tr, plan.seed));
    let measured = measure(plan, tr, &mut ops, |tr| pass(&s, tr), same);

    tr.set_phase(Phase::Check);
    let (mut cycles, mut speedups) = (0.0, Vec::new());
    let mut sim = SimTotals::default();
    let (mut mismatches, mut cpu_cycles, mut buffer_bytes) = (0u64, 0.0, 0u64);
    out.correct = true;
    for (b, run) in measured.first.runs.iter().enumerate() {
        ops.record(run.is_some());
        let Some(run) = run else {
            out.correct = false;
            continue;
        };
        let p = &s.programs[b];
        sim.add(
            &run.stats,
            measured.first.host_secs[b],
            Some(&p.artifact.compiled),
        );
        buffer_bytes += run.buffer_bytes;
        let input = seeded_input(b);
        let reference = cpu_reference(tr, b as u64, &s.suite.graphs[b], &input, run.outputs.len());
        cpu_cycles += reference.cycles;
        let equal = matches_reference(&run.outputs, &reference.outputs);
        ops.record(equal);
        out.correct &= equal;

        // The verifier's static traffic prediction must equal what the
        // simulator counted, at the scheme and length actually run.
        let predicted = tr.span("verify", "verify::verify", b as u64, || {
            verify::verify(&p.artifact.compiled, p.scheme, p.iterations)
        });
        let counted = predicted.is_ok_and(|v| {
            v.passes() && v.prediction.counters == StaticCounters::of_stats(&run.stats)
        });
        ops.record(counted);
        mismatches += u64::from(!counted);

        let tokens = device_output_tokens(&p.artifact.compiled, p.iterations) as f64;
        cycles += run.stats.cycles;
        speedups.push(reference.secs_per_token / (run.time_secs / tokens));
    }
    out.correct &= mismatches == 0;

    device_metrics(cycles, &speedups, &mut out.e2e);
    out.notes.push(format!(
        "{} graphs x (pipeline depth + {STEADY_ROUNDS} rounds) = {} iterations per pass, {} \
         passes",
        s.programs.len(),
        s.programs.iter().map(|p| p.iterations).sum::<u64>(),
        measured.passes
    ));
    if plan.trace {
        let mut layers = Values::new();
        sim.write(&mut layers);
        reference_host_metrics(&tr.spans(), &mut layers);
        layers.insert("plan.buffer_bytes".into(), buffer_bytes as f64);
        layers.insert("verify.counter_mismatches".into(), mismatches as f64);
        layers.insert("streamir.cpu_model_cycles".into(), cpu_cycles);
        out.layers = layers;
    }
    super::finish(out, ops, setup_s, &measured)
}
