//! What the two `EventEngine` workloads share: building jobs, serving a
//! trace through a fresh engine, reading verdicts back into per-job
//! records, and replaying artifacts directly to price the event loop.

use std::collections::BTreeMap;
use std::time::Instant;

use streamir::ir::Scalar;
use swpipe::exec::{self, RunOptions, SmPlacement};
use swpipe::pipeline::ResilientPipeline;
use swpipe::serve::{EventEngine, Job, QosClass, ServeOptions, ServeReport, Verdict};

use crate::common::{cpu_reference, matches_reference, pipeline_options, SimTotals, Suite};
use crate::gen::seeded_input;
use crate::metrics::{percentile, Ops, Values};
use crate::trace::{reference_host_metrics, Phase, Tracer};

/// Compile workers per engine: with the generator thread, three threads
/// at most, and at most two busy at once on this two-core box.
pub const COMPILE_WORKERS: usize = 2;

/// Suite benchmark `bench` as a job of `iterations` steady iterations.
/// QoS alternates across the suite, so both fault policies serve while
/// each tenant's repeat jobs stay content-identical.
pub fn job(suite: &Suite, bench: usize, iterations: u64) -> Job {
    Job {
        tenant: suite.names[bench].to_string(),
        graph: suite.graphs[bench].clone(),
        input: seeded_input(bench),
        iterations,
        qos: if bench.is_multiple_of(2) {
            QosClass::Batch
        } else {
            QosClass::Interactive
        },
    }
}

/// A completed job, as the engine reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    pub latency_secs: f64,
    pub queue_wait_secs: f64,
    pub finish_secs: f64,
    pub exec_secs: f64,
    pub cache_hit: bool,
    pub width: u32,
    pub base_sm: u32,
    pub outputs: Vec<Scalar>,
}

/// One job of a trace and what became of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Suite index of the tenant's benchmark.
    pub bench: usize,
    pub arrival_secs: f64,
    /// Inside the measurement window (after the warm-up jobs).
    pub window: bool,
    /// `None` when admission control rejected it.
    pub done: Option<Done>,
}

/// One trace served through one fresh engine.
pub struct StepRun {
    pub served: Vec<Served>,
    pub report: ServeReport,
    /// Events the engine processed.
    pub events: usize,
    /// Wall-clock of `serve_trace` alone.
    pub host_secs: f64,
}

/// Serves `trace` through a fresh `EventEngine` over `opts`. `meta` gives
/// each job's suite index and whether it is in the measurement window.
pub fn serve_step(
    tr: &Tracer,
    op: u64,
    opts: ServeOptions,
    trace: &[(Job, f64)],
    meta: &[(usize, bool)],
) -> swpipe::Result<StepRun> {
    let mut engine = tr.span("serve", "EventEngine::new", op, || {
        EventEngine::new(opts).with_workers(COMPILE_WORKERS)
    });
    let t = Instant::now();
    let verdicts = tr.span("serve", "EventEngine::serve_trace", op, || {
        engine.serve_trace(trace)
    })?;
    let host_secs = t.elapsed().as_secs_f64();
    let report = tr.span("serve", "EventEngine::report", op, || engine.report());
    let events = tr.span("serve", "EventEngine::trace", op, || engine.trace().len());
    let served = verdicts
        .into_iter()
        .zip(trace.iter().zip(meta))
        .map(|(verdict, ((_, arrival), &(bench, window)))| Served {
            bench,
            arrival_secs: *arrival,
            window,
            done: match verdict {
                Verdict::Completed(r) => Some(Done {
                    latency_secs: r.latency_secs,
                    queue_wait_secs: r.start_secs - r.arrival_secs,
                    finish_secs: r.finish_secs,
                    exec_secs: r.exec_secs,
                    cache_hit: r.cache_hit,
                    width: r.slice.num_sms,
                    base_sm: r.slice.base_sm,
                    outputs: r.outputs,
                }),
                Verdict::Rejected { .. } => None,
            },
        })
        .collect();
    Ok(StepRun {
        served,
        report,
        events,
        host_secs,
    })
}

/// Whether some tenant's backlog — its earlier jobs still unfinished at
/// an arrival — is more than one job larger at its last window arrival
/// than at its first.
pub fn backlog_growing(served: &[Served]) -> bool {
    let mut by_tenant: BTreeMap<usize, Vec<&Served>> = BTreeMap::new();
    for s in served {
        by_tenant.entry(s.bench).or_default().push(s);
    }
    by_tenant.values().any(|jobs| {
        let backlog_at = |k: usize| {
            jobs[..k]
                .iter()
                .filter_map(|j| j.done.as_ref())
                .filter(|d| d.finish_secs > jobs[k].arrival_secs)
                .count()
        };
        let window: Vec<usize> = (0..jobs.len()).filter(|&k| jobs[k].window).collect();
        match (window.first(), window.last()) {
            (Some(&first), Some(&last)) => backlog_at(last) > backlog_at(first) + 1,
            _ => false,
        }
    })
}

/// CPU-model seconds per output token of each suite benchmark, from the
/// independent interpreter, and the check of sampled output streams
/// against it: the first completed window job of every tenant.
pub struct Reference {
    pub secs_per_token: Vec<f64>,
    pub cpu_cycles: f64,
    pub correct: bool,
}

pub fn check_samples(tr: &Tracer, suite: &Suite, served: &[Served], ops: &mut Ops) -> Reference {
    let mut out = Reference {
        secs_per_token: vec![0.0; suite.len()],
        cpu_cycles: 0.0,
        correct: true,
    };
    for bench in 0..suite.len() {
        let sample = served
            .iter()
            .filter(|s| s.bench == bench && s.window)
            .find_map(|s| s.done.as_ref());
        let Some(done) = sample else { continue };
        let input = seeded_input(bench);
        let reference = cpu_reference(
            tr,
            bench as u64,
            &suite.graphs[bench],
            &input,
            done.outputs.len(),
        );
        let equal = matches_reference(&done.outputs, &reference.outputs);
        ops.record(equal);
        out.correct &= equal;
        out.secs_per_token[bench] = reference.secs_per_token;
        out.cpu_cycles += reference.cycles;
    }
    out
}

/// The device work of the completed jobs among `served`: the simulated
/// cycles of their executions, and each one's CPU-model time over its
/// device time.
pub fn device_work<'s>(
    served: impl IntoIterator<Item = &'s Served>,
    reference: &Reference,
    clock_hz: f64,
) -> (f64, Vec<f64>) {
    let mut cycles = 0.0;
    let mut speedups = Vec::new();
    for s in served {
        let Some(d) = &s.done else { continue };
        cycles += d.exec_secs * clock_hz;
        speedups.push(reference.secs_per_token[s.bench] * d.outputs.len() as f64 / d.exec_secs);
    }
    (cycles, speedups)
}

/// Runs each distinct (tenant, slice) of `served` once more, directly
/// through `exec::execute_with` with no engine around it, and returns the
/// host seconds those jobs would have cost without the event loop (one
/// replay's time × the jobs it stands for) with the replays' counters.
fn replay_direct(
    tr: &Tracer,
    opts: &ServeOptions,
    suite: &Suite,
    served: &[Served],
    iterations: u64,
) -> (f64, SimTotals) {
    let mut groups: BTreeMap<(usize, u32, u32), u64> = BTreeMap::new();
    for s in served {
        if let Some(d) = &s.done {
            *groups.entry((s.bench, d.width, d.base_sm)).or_default() += 1;
        }
    }
    let mut direct_secs = 0.0;
    let mut sim = SimTotals::default();
    for (&(bench, width, base_sm), &count) in &groups {
        let op = bench as u64;
        let job = job(suite, bench, iterations);
        let popts = pipeline_options(opts, width, job.qos.policy());
        let artifact = tr.span("pipeline", "ResilientPipeline::compile", op, || {
            ResilientPipeline::new(popts).compile(&job.graph)
        });
        let Ok(artifact) = artifact else { continue };
        let tokens = (job.input)(exec::required_input(&artifact.compiled, iterations) as usize);
        let run_opts = RunOptions {
            placement: Some(SmPlacement {
                device: opts.device.clone(),
                base_sm,
            }),
            ..artifact.run_options.clone()
        };
        let t = Instant::now();
        let run = tr.span("exec", "exec::execute_with", op, || {
            exec::execute_with(
                &artifact.compiled,
                artifact.scheme,
                iterations,
                &tokens,
                &run_opts,
            )
        });
        let host = t.elapsed().as_secs_f64();
        if let Ok(run) = run {
            direct_secs += host * count as f64;
            sim.add(&run.stats, host, Some(&artifact.compiled));
        }
    }
    (direct_secs, sim)
}

/// What a traced run adds to `layers` for an `EventEngine` workload: the
/// `serve.*` metrics of `steps`, and — from replaying the headline step's
/// jobs directly — the event loop's share of its host time and the
/// `gpusim.*` / `exec.*` counters the engine does not expose.
pub fn traced_layers(
    tr: &Tracer,
    (opts, suite, iterations): (&ServeOptions, &Suite, u64),
    steps: &[&StepRun],
    headline: &StepRun,
    reference: &Reference,
    layers: &mut Values,
) {
    tr.set_phase(Phase::Extra);
    layer_metrics(steps, headline, layers);
    let (direct, sim) = replay_direct(tr, opts, suite, &headline.served, iterations);
    layers.insert(
        "serve.loop_overhead_share".into(),
        1.0 - direct / headline.host_secs,
    );
    sim.write(layers);
    layers.insert("streamir.cpu_model_cycles".into(), reference.cpu_cycles);
    reference_host_metrics(&tr.spans(), layers);
}

/// The `serve.*` layer metrics of a set of steps (all but the per-rate
/// rows, which only a sweep has).
fn layer_metrics(steps: &[&StepRun], headline: &StepRun, layers: &mut Values) {
    let mut put = |name: &str, v: f64| {
        layers.insert(format!("serve.{name}"), v);
    };
    let jobs: usize = steps.iter().map(|s| s.served.len()).sum();
    let events: usize = steps.iter().map(|s| s.events).sum();
    let host: f64 = steps.iter().map(|s| s.host_secs).sum();
    let sum = |f: &dyn Fn(&ServeReport) -> f64| steps.iter().map(|s| f(&s.report)).sum::<f64>();
    put("host_ms_per_job", host * 1e3 / jobs.max(1) as f64);
    put("events_processed", events as f64);
    put("host_us_per_event", host * 1e6 / events.max(1) as f64);
    put("cache_hits", sum(&|r| r.cache.hits as f64));
    put("cache_misses", sum(&|r| r.cache.misses as f64));
    put("cache_evictions", sum(&|r| r.cache.evictions as f64));
    let window_misses = steps
        .iter()
        .flat_map(|s| &s.served)
        .filter(|s| s.window && s.done.as_ref().is_some_and(|d| !d.cache_hit))
        .count();
    put("window_cache_misses", window_misses as f64);
    put("rebalances", sum(&|r| r.rebalances as f64));
    put("policy_switches", sum(&|r| r.policy_switches as f64));
    put(
        "jobs_accepted",
        sum(&|r| r.tenants.iter().map(|t| t.jobs_accepted).sum::<u64>() as f64),
    );
    put(
        "jobs_rejected",
        sum(&|r| r.tenants.iter().map(|t| t.jobs_rejected).sum::<u64>() as f64),
    );
    put("compile_overlap_s", sum(&|r| r.compile_overlap_secs));
    put(
        "search_invocations",
        sum(&|r| r.tenants.iter().map(|t| t.search_invocations).sum::<u64>() as f64),
    );
    // The headline step's window, as a user of that step sees it.
    let done: Vec<&Done> = headline
        .served
        .iter()
        .filter(|s| s.window)
        .filter_map(|s| s.done.as_ref())
        .collect();
    let waits: Vec<f64> = done.iter().map(|d| d.queue_wait_secs).collect();
    put(
        "queue_wait_p95_s",
        percentile(&waits, 0.95).map_or(0.0, |p| p.0),
    );
    put(
        "virt_latency_max_s",
        done.iter().map(|d| d.latency_secs).fold(0.0, f64::max),
    );
    let tenants = &headline.report.tenants;
    let mean = |f: &dyn Fn(&swpipe::serve::TenantReport) -> f64| {
        tenants.iter().map(f).sum::<f64>() / tenants.len().max(1) as f64
    };
    put("busy_share", mean(&|t| t.slice_utilization));
    put("retries_per_launch", mean(&|t| t.retry_rate));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(bench: usize, arrival: f64, finish: f64, window: bool) -> Served {
        Served {
            bench,
            arrival_secs: arrival,
            window,
            done: Some(Done {
                latency_secs: finish - arrival,
                queue_wait_secs: 0.0,
                finish_secs: finish,
                exec_secs: 0.001,
                cache_hit: true,
                width: 2,
                base_sm: 0,
                outputs: Vec::new(),
            }),
        }
    }

    #[test]
    fn a_keeping_up_tenant_has_no_growing_backlog() {
        // Each job finishes before the next arrives.
        let jobs: Vec<Served> = (0..10)
            .map(|k| served(0, k as f64, k as f64 + 0.5, k >= 2))
            .collect();
        assert!(!backlog_growing(&jobs));
    }

    #[test]
    fn an_overloaded_tenant_has_one() {
        // Service takes 1.5 gaps: the backlog grows by one every two jobs.
        let mut free_at = 0.0f64;
        let jobs: Vec<Served> = (0..12)
            .map(|k| {
                let arrival = k as f64;
                free_at = free_at.max(arrival) + 1.5;
                served(0, arrival, free_at, k >= 2)
            })
            .collect();
        assert!(backlog_growing(&jobs));
        // One slow tenant is enough, whatever the others do.
        let mut mixed: Vec<Served> = (0..12)
            .map(|k| served(1, k as f64, k as f64 + 0.1, k >= 2))
            .collect();
        mixed.extend(jobs);
        assert!(backlog_growing(&mixed));
    }
}
