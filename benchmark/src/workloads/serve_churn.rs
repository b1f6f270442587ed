//! `serve_churn` — the write side of the compilation cache.
//!
//! A cold `EventEngine` with an 8-entry cache (below the distinct-key
//! count), serve_bench's 3 % launch-failure plan with the resilience
//! controller on, and tenants joining in waves (2 → 4 → 8) at 2 jobs/s
//! each, so the partition recuts and slice widths, policies and cache
//! keys keep changing: misses, reservations, evictions and recompiles,
//! and the 0.5 s compile-penalty path that ROADMAP item 1(b) will
//! replace. A cache or admission change tuned on `serve_steady`'s reads
//! that costs writes shows here.
//!
//! Arrivals are exactly periodic and the same on every seed (the seed
//! moves only the input data), so rate estimates are exact and the recut
//! sequence repeats: which cache keys a recut touches decides every
//! metric here, and those must compare across seeds. The issue sizes this at
//! ≈ 200 jobs; the contract's cap leaves 112.

use std::time::Instant;

use swpipe::pipeline::{FaultPolicy, ResilientPipeline};
use swpipe::serve::{CacheOptions, Job, ServeOptions};

use crate::common::{
    cost_model, device_metrics, latency_metrics, measure, measure_setup, pipeline_options,
    serve_options, Plan, Suite,
};
use crate::gen::{arrivals, ArrivalSpec};
use crate::metrics::{Ops, Outcome};
use crate::serving::{check_samples, device_work, job, serve_step, traced_layers, StepRun};
use crate::trace::{Phase, Tracer};

/// Offered jobs per virtual second per tenant.
const RATE: f64 = 2.0;
/// Jobs a tenant sends during each wave it is present for.
const JOBS_PER_WAVE: usize = 8;
/// The wave each suite benchmark joins in: 2, then 2 more, then 4 more.
const JOIN_WAVE: [usize; 8] = [0, 0, 1, 1, 2, 2, 2, 2];
const WAVES: usize = 3;
const ITERATIONS: u64 = 4;
/// Below the number of distinct (graph, width, policy) keys the waves
/// touch, so the LRU bound evicts.
const CACHE_CAPACITY: usize = 8;

struct Setup {
    suite: Suite,
    opts: ServeOptions,
    trace: Vec<(Job, f64)>,
    meta: Vec<(usize, bool)>,
}

fn setup(tr: &Tracer, seed: u64) -> Setup {
    let model = tr.span("learn", "CostModel::from_json", 0, cost_model);
    let suite = Suite::load(tr, seed);
    let cache = CacheOptions {
        capacity: CACHE_CAPACITY,
        disk_dir: None,
    };
    let opts = serve_options(&model, true, cache);
    // One compile before timing, so the cold engine's first miss does not
    // also pay for first-touch page faults and allocator growth.
    let warm = pipeline_options(&opts, opts.device.num_sms, FaultPolicy::Throughput);
    tr.span("pipeline", "ResilientPipeline::compile", 0, || {
        ResilientPipeline::new(warm).compile(&suite.graphs[0])
    })
    .expect("warm-up compile succeeds");
    let wave_secs = JOBS_PER_WAVE as f64 / RATE;
    let (mut trace, mut meta) = (Vec::new(), Vec::new());
    for (bench, &wave) in JOIN_WAVE.iter().enumerate() {
        let spec = ArrivalSpec {
            rate: RATE,
            jobs: JOBS_PER_WAVE * (WAVES - wave),
            slot: bench,
            slots: suite.len(),
            start: wave as f64 * wave_secs,
        };
        for at in arrivals(&spec) {
            trace.push((job(&suite, bench, ITERATIONS), at));
            meta.push((bench, true));
        }
    }
    Setup {
        suite,
        opts,
        trace,
        meta,
    }
}

/// One pass, one operation: the whole trace through a cold engine.
fn pass(s: &Setup, tr: &Tracer) -> (Option<StepRun>, Vec<f64>) {
    let t = Instant::now();
    let run = serve_step(tr, 0, s.opts.clone(), &s.trace, &s.meta).ok();
    (run, vec![t.elapsed().as_secs_f64()])
}

fn same(a: &Option<StepRun>, b: &Option<StepRun>) -> bool {
    a.as_ref().map(|r| &r.served) == b.as_ref().map(|r| &r.served)
}

pub fn run(plan: &Plan, tr: &Tracer) -> Outcome {
    let mut ops = Ops::default();
    let mut out = Outcome::default();
    let (s, setup_s) = measure_setup(plan, tr, |tr| setup(tr, plan.seed));
    let measured = measure(plan, tr, &mut ops, |tr| pass(&s, tr), same);
    let Some(step) = measured.first.as_ref() else {
        ops.record(false);
        out.notes.push("the trace failed to serve".into());
        return super::finish(out, ops, setup_s, &measured);
    };

    for served in &step.served {
        ops.record(served.done.is_some());
    }
    tr.set_phase(Phase::Check);
    let reference = check_samples(tr, &s.suite, &step.served, &mut ops);
    let certified = step.report.certified == step.report.artifacts;
    ops.record(certified);
    out.correct = reference.correct && certified;

    let (cycles, speedups) = device_work(&step.served, &reference, s.opts.timing.clock_hz);
    device_metrics(cycles, &speedups, &mut out.e2e);
    let latencies: Vec<f64> = step
        .served
        .iter()
        .filter_map(|j| j.done.as_ref())
        .map(|d| d.latency_secs)
        .collect();
    latency_metrics("serve", &latencies, &mut out.layers, &mut out.notes);
    let cache = &step.report.cache;
    out.notes.push(format!(
        "{} jobs per pass, {} passes; cache {} hits / {} misses / {} evictions, {} recuts, \
         {} policy switches",
        step.served.len(),
        measured.passes,
        cache.hits,
        cache.misses,
        cache.evictions,
        step.report.rebalances,
        step.report.policy_switches,
    ));
    if cache.misses == 0 || cache.evictions == 0 {
        out.notes.push(
            "WARNING: no cache misses or no evictions — this run did not exercise the cache's \
             write side, which is what the workload is for"
                .into(),
        );
    }

    if plan.trace {
        let traced = (&s.opts, &s.suite, ITERATIONS);
        traced_layers(tr, traced, &[step], step, &reference, &mut out.layers);
    }
    super::finish(out, ops, setup_s, &measured)
}
