//! `serve_steady` — load, instead of the committed idle traces.
//!
//! Eight tenants (the suite) send 2-iteration jobs to one `EventEngine`
//! (two compile workers) in an open loop on the virtual clock: exactly
//! periodic per-tenant arrivals, evenly staggered, at four fixed rates —
//! one well under the knee, the reference, one just under the knee and one
//! past it. Each rate step is a fresh, unmodified engine over a warmed
//! disk tier; a step's first twelve jobs per tenant are its warm-up
//! window, the rest its measurement window. The serve layer (event loop,
//! admission, partition, cache reads) does the work that is not job
//! simulation here; the compiler does nothing.
//!
//! The warm-up window is as long as the partition takes to settle. Every
//! tenant's join recuts it, and the ramp's last cut (3,2,2,2,2,2,2,1)
//! holds until the rate estimates have converged far enough for the
//! engine's own hysteresis to recut to two SMs each — at a tenant's
//! seventh or eighth arrival, depending on the rate. From there the
//! partition is at rest and the window sees no recut and no cache miss.
//! The knee is then MatrixMult's: its 2.8 ms jobs saturate a two-SM slice
//! at 357 jobs/s, so 300 is sustained and 450 grows a backlog.
//!
//! Arrivals do not depend on the seed (see `gen::arrivals`); the seed
//! moves the input data. The issue's seeded phase and ±10 % jitter are
//! left out: a jittered gap pushes a recut — with its 0.5 s cache misses,
//! a full queue and rejections — into the window on some seeds and not on
//! others, and the contract this benchmark runs under wants workloads on
//! which no operation fails and device metrics that compare across seeds.
//!
//! Set-up fills the disk tier by serving the warm-up window of every step
//! once (a dry run: exactly the keys the ramps ask for), where the issue
//! suggests `warm(&graphs, 8)` — that sweep is 144 compiles and 19 s.
//! The issue sizes a step at ≥ 250 window jobs of 4 iterations; at 9 ms
//! of host time a job the contract's cap leaves 2-iteration jobs, 200 of
//! them in the reference step's window (ten samples beyond p95) and 64 in
//! each of the other three, so that two passes fit a run.
//!
//! Generator lateness is zero by construction: arrivals are instants on
//! the virtual clock, not wall-clock sends.

use std::path::{Path, PathBuf};
use std::time::Instant;

use swpipe::serve::{CacheOptions, Job, ServeOptions};

use crate::common::{
    cost_model, device_metrics, latency_metrics, measure, measure_setup, serve_options, Plan, Suite,
};
use crate::gen::{arrivals, ArrivalSpec};
use crate::metrics::{percentile, sustained_jobs_per_sec, Ops, Outcome, RateRow};
use crate::serving::{
    backlog_growing, check_samples, device_work, job, serve_step, traced_layers, Served, StepRun,
};
use crate::trace::{Phase, Tracer};

/// Offered jobs per virtual second per tenant, one step each.
const RATES: [f64; 4] = [100.0, 200.0, 300.0, 450.0];
/// The step whose window gives the latency metrics.
const REFERENCE: usize = 1;
/// Warm-up jobs per tenant per step, before the window: the partition's
/// last recut comes at a tenant's eighth arrival at the latest.
const WARMUP_JOBS: usize = 12;
/// Window jobs per tenant per step.
const WINDOW_JOBS: [usize; 4] = [8, 25, 8, 8];
const ITERATIONS: u64 = 2;
/// In-memory cache entries per engine: above every step's key count.
const CACHE_CAPACITY: usize = 64;

struct Step {
    trace: Vec<(Job, f64)>,
    /// Suite index and window membership of each job.
    meta: Vec<(usize, bool)>,
}

struct Setup {
    suite: Suite,
    opts: ServeOptions,
    steps: Vec<Step>,
    /// The warmed disk tier every pass copies from.
    warm_dir: PathBuf,
    /// Where passes put their per-step copies.
    pass_dir: PathBuf,
}

fn step(suite: &Suite, k: usize) -> Step {
    let (mut trace, mut meta) = (Vec::new(), Vec::new());
    for bench in 0..suite.len() {
        let spec = ArrivalSpec {
            rate: RATES[k],
            jobs: WARMUP_JOBS + WINDOW_JOBS[k],
            slot: bench,
            slots: suite.len(),
            start: 0.0,
        };
        for (n, at) in arrivals(&spec).into_iter().enumerate() {
            trace.push((job(suite, bench, ITERATIONS), at));
            meta.push((bench, n >= WARMUP_JOBS));
        }
    }
    Step { trace, meta }
}

fn with_disk_tier(opts: &ServeOptions, dir: &Path) -> ServeOptions {
    ServeOptions {
        cache: CacheOptions {
            capacity: CACHE_CAPACITY,
            disk_dir: Some(dir.to_path_buf()),
        },
        ..opts.clone()
    }
}

fn setup(tr: &Tracer, seed: u64) -> Setup {
    let model = tr.span("learn", "CostModel::from_json", 0, cost_model);
    let suite = Suite::load(tr, seed);
    let opts = serve_options(&model, false, CacheOptions::default());
    let root = crate::scratch_dir("serve_steady");
    let _ = std::fs::remove_dir_all(&root);
    let (warm_dir, pass_dir) = (root.join("warm"), root.join("pass"));
    let steps: Vec<Step> = (0..RATES.len()).map(|k| step(&suite, k)).collect();
    // Dry run: the warm-up jobs of every step, through an engine that
    // persists what it compiles. The timed engines then find every key
    // their ramps and windows ask for already on disk.
    for (k, full) in steps.iter().enumerate() {
        let (trace, meta): (Vec<_>, Vec<_>) = full
            .trace
            .iter()
            .zip(&full.meta)
            .filter(|(_, &(_, window))| !window)
            .map(|(job, meta)| (job.clone(), *meta))
            .unzip();
        let tier = with_disk_tier(&opts, &warm_dir);
        serve_step(tr, k as u64, tier, &trace, &meta).expect("dry run serves");
    }
    Setup {
        suite,
        opts,
        steps,
        warm_dir,
        pass_dir,
    }
}

/// A fresh copy of the warmed disk tier, so every pass (and every step)
/// starts from the same cache contents whatever earlier ones compiled.
fn fresh_tier(s: &Setup, k: usize) -> PathBuf {
    let dir = s.pass_dir.join(format!("step-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    for entry in std::fs::read_dir(&s.warm_dir)
        .expect("warm tier exists")
        .flatten()
    {
        std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("tier entry copies");
    }
    dir
}

/// One pass: the four rate steps; each step (tier copy, engine, trace,
/// report) is an operation.
fn pass(s: &Setup, tr: &Tracer) -> (Vec<Option<StepRun>>, Vec<f64>) {
    (0..s.steps.len())
        .map(|k| {
            let t = Instant::now();
            let dir = fresh_tier(s, k);
            let step = &s.steps[k];
            let opts = with_disk_tier(&s.opts, &dir);
            let run = serve_step(tr, k as u64, opts, &step.trace, &step.meta).ok();
            (run, t.elapsed().as_secs_f64())
        })
        .unzip()
}

fn same(a: &[Option<StepRun>], b: &[Option<StepRun>]) -> bool {
    fn served(steps: &[Option<StepRun>]) -> Vec<Option<&[Served]>> {
        steps
            .iter()
            .map(|r| r.as_ref().map(|r| r.served.as_slice()))
            .collect()
    }
    served(a) == served(b)
}

pub fn run(plan: &Plan, tr: &Tracer) -> Outcome {
    let mut ops = Ops::default();
    let mut out = Outcome::default();
    let (s, setup_s) = measure_setup(plan, tr, |tr| setup(tr, plan.seed));
    let measured = measure(plan, tr, &mut ops, |tr| pass(&s, tr), |a, b| same(a, b));
    let steps: Vec<&StepRun> = measured.first.iter().flatten().collect();
    ops.failed += (measured.first.len() - steps.len()) as u64;
    let Some(reference_step) = measured.first[REFERENCE].as_ref() else {
        out.notes.push("the reference step failed to serve".into());
        return super::finish(out, ops, setup_s, &measured);
    };

    // Every job is an operation; a rejected one failed.
    for served in steps.iter().flat_map(|s| &s.served) {
        ops.record(served.done.is_some());
    }
    tr.set_phase(Phase::Check);
    let reference = check_samples(tr, &s.suite, &reference_step.served, &mut ops);
    out.correct = reference.correct;
    let certified = steps
        .iter()
        .all(|s| s.report.certified == s.report.artifacts);
    ops.record(certified);
    out.correct &= certified;

    fn window(step: &StepRun) -> impl Iterator<Item = &Served> {
        step.served.iter().filter(|j| j.window)
    }
    // Device work is every step's window; latency is the reference step's.
    let all_windows = steps.iter().flat_map(|s| window(s));
    let (cycles, speedups) = device_work(all_windows, &reference, s.opts.timing.clock_hz);
    device_metrics(cycles, &speedups, &mut out.e2e);
    let latencies: Vec<f64> = window(reference_step)
        .filter_map(|j| j.done.as_ref())
        .map(|d| d.latency_secs)
        .collect();
    latency_metrics("serve", &latencies, &mut out.layers, &mut out.notes);

    let mut rows = Vec::new();
    for (k, step) in measured.first.iter().enumerate() {
        let Some(step) = step else { continue };
        let jobs = window(step).count();
        let latencies: Vec<f64> = window(step)
            .filter_map(|j| j.done.as_ref())
            .map(|d| d.latency_secs)
            .collect();
        let rejected = (jobs - latencies.len()) as u64;
        let row = RateRow {
            rate_per_tenant: RATES[k],
            p95_secs: percentile(&latencies, 0.95).map_or(f64::INFINITY, |p| p.0),
            rejected,
            backlog_growing: backlog_growing(&step.served),
        };
        let misses = window(step)
            .filter(|j| j.done.as_ref().is_some_and(|d| !d.cache_hit))
            .count();
        out.notes.push(format!(
            "rate {} jobs/s/tenant: {} window jobs, p95 {:.6} virt_s, {} rejected, {} window \
             cache misses, {} recuts, backlog {} => {}",
            RATES[k],
            jobs,
            row.p95_secs,
            rejected,
            misses,
            step.report.rebalances,
            if row.backlog_growing {
                "growing"
            } else {
                "steady"
            },
            if row.sustained() {
                "sustained"
            } else {
                "not sustained"
            },
        ));
        out.layers.insert(
            format!("serve.rate{}.virt_latency_p95_s", k + 1),
            row.p95_secs,
        );
        out.layers.insert(
            format!("serve.rate{}.failed_share", k + 1),
            rejected as f64 / jobs.max(1) as f64,
        );
        rows.push(row);
    }
    out.layers.insert(
        "serve.sustained_jobs_per_virt_s".into(),
        sustained_jobs_per_sec(&rows, s.suite.len()),
    );
    out.notes.push(format!(
        "open loop on the virtual clock: generator lateness 0 by construction; {} passes",
        measured.passes
    ));

    if plan.trace {
        let traced = (&s.opts, &s.suite, ITERATIONS);
        traced_layers(
            tr,
            traced,
            &steps,
            reference_step,
            &reference,
            &mut out.layers,
        );
    }
    let _ = std::fs::remove_dir_all(s.warm_dir.parent().expect("scratch root"));
    super::finish(out, ops, setup_s, &measured)
}
