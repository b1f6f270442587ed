//! What the six workloads share: the run plan and its timing loops, the
//! suite with seeded inputs, the serving configuration, the independent
//! CPU reference, and process memory.

use std::time::Instant;

use gpusim::{DeviceConfig, FaultPlan, LaunchStats};
use streambench::PaperData;
use streamir::cpu::{self, CpuCostModel};
use streamir::graph::FlatGraph;
use streamir::ir::Scalar;
use swpipe::exec::{CompileOptions, Compiled};
use swpipe::harness::geometric_mean;
use swpipe::learn::{CostModel, CostModelHandle};
use swpipe::pipeline::{FaultPolicy, PipelineOptions};
use swpipe::schedule::{SchedulerKind, SearchOptions};
use swpipe::serve::{CacheOptions, ResilienceOptions, ServeOptions};

use crate::gen;
use crate::metrics::{median, percentile, supported_percentile, Ops, Values};
use crate::trace::{Phase, Tracer};

/// How one invocation was asked to run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Seconds the timed region may fill with whole passes.
    pub seconds: f64,
    /// Exactly this many passes instead of filling `seconds`.
    pub runs: Option<usize>,
    /// Produce the per-layer metrics (traced run) instead of end-to-end.
    pub trace: bool,
}

/// Set-ups an untraced run times.
const SETUP_REPS: usize = 3;

/// Runs the set-up and times it. An untraced run sets up three times and
/// reports the median, as the benchmark contract asks; a traced run sets
/// up once, inside spans.
pub fn measure_setup<T>(plan: &Plan, tr: &Tracer, mut setup: impl FnMut(&Tracer) -> T) -> (T, f64) {
    tr.set_phase(Phase::Setup);
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let product = setup(tr);
        secs.push(t.elapsed().as_secs_f64());
        if plan.trace || secs.len() == SETUP_REPS {
            return (product, median(&secs));
        }
    }
}

/// What [`measure`] learned about the timed region.
pub struct Measured<T> {
    /// The first pass's product (the traced pass's, in a traced run).
    pub first: T,
    /// Host seconds of one pass: the sum, over the pass's operations, of
    /// each operation's fastest repetition.
    pub host_s: f64,
    pub passes: usize,
    /// `(traced − untraced) / untraced` pass time; 0 in an untraced run.
    pub trace_overhead: f64,
}

/// Repeats the timed region. A pass returns its product and the host
/// seconds of each of its operations. Untraced: `plan.runs` passes when
/// given, otherwise whole passes until `plan.seconds` have gone by, and at
/// least two. Traced: one untraced pass as the baseline, then one pass
/// inside spans.
///
/// `host_s` sums each operation's fastest repetition rather than taking a
/// median pass. Every pass does identical work, and this box's noise is
/// one-sided and bursty: for seconds at a time the simulator runs up to
/// 1.8x slower with the other core idle and no steal time reported
/// (contention from outside the VM). A burst spoils whichever operations
/// it overlaps; the fastest repetition of each is the one it missed. A
/// run fits two to five passes, too few for a median to shed a spoiled
/// one: over the same ten runs the quartile spread of the median pass was
/// 1.2 to 10.0 % by workload, of this figure 0.8 to 4.5 % (README,
/// Steadiness, which also derives the bound on `host_s` from it).
///
/// Every later pass must reproduce the first one's deterministic part
/// (`same`) or the run counts a failure: device- and virtual-clock
/// results may not depend on which pass computed them.
pub fn measure<T>(
    plan: &Plan,
    tr: &Tracer,
    ops: &mut Ops,
    mut pass: impl FnMut(&Tracer) -> (T, Vec<f64>),
    same: impl Fn(&T, &T) -> bool,
) -> Measured<T> {
    let quiet = Tracer::new(false);
    let began = Instant::now();
    let mut fastest: Vec<f64> = Vec::new();
    let mut first: Option<T> = None;
    let mut passes = 0;
    let mut repeatable = true;
    loop {
        let (product, op_secs) = std::hint::black_box(pass(&quiet));
        passes += 1;
        if fastest.is_empty() {
            fastest = op_secs;
        } else {
            for (best, secs) in fastest.iter_mut().zip(op_secs) {
                *best = best.min(secs);
            }
        }
        match &first {
            None => first = Some(product),
            Some(f) => repeatable &= same(f, &product),
        }
        let done = match (plan.trace, plan.runs) {
            (true, _) => true,
            (false, Some(n)) => passes >= n.max(1),
            (false, None) => passes >= 2 && began.elapsed().as_secs_f64() >= plan.seconds,
        };
        if done {
            break;
        }
    }
    let mut first = first.expect("one pass ran");
    let host_s: f64 = fastest.iter().sum();
    let mut trace_overhead = 0.0;
    if plan.trace {
        tr.set_phase(Phase::Timed);
        let (traced, op_secs) = pass(tr);
        trace_overhead = (op_secs.iter().sum::<f64>() - host_s) / host_s;
        repeatable &= same(&first, &traced);
        first = traced;
    }
    // One operation however many passes ran, so that operation counts do
    // not depend on how fast the host happened to be.
    ops.record(repeatable);
    Measured {
        first,
        host_s,
        passes,
        trace_overhead,
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The committed learned cost model, parsed (part of every set-up).
pub fn cost_model() -> CostModelHandle {
    let model = CostModel::from_json(include_str!("../../models/cost_model.json"))
        .expect("models/cost_model.json parses");
    CostModelHandle::new(model)
}

/// The eight StreamIt benchmarks, flattened, with seeded inputs.
pub struct Suite {
    pub names: Vec<&'static str>,
    pub graphs: Vec<FlatGraph>,
    pub paper: Vec<PaperData>,
}

impl Suite {
    pub fn load(tr: &Tracer, seed: u64) -> Suite {
        let suite = streambench::suite();
        gen::install_inputs(suite.iter().map(|b| b.input).collect(), seed);
        Suite {
            names: suite.iter().map(|b| b.name).collect(),
            paper: suite.iter().map(|b| b.paper).collect(),
            graphs: suite
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    tr.span("streamir", "flatten", i as u64, || b.spec.flatten())
                        .expect("suite benchmark flattens")
                })
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Index of the benchmark called `name`.
    pub fn index_of(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("no suite benchmark named {name}"))
    }
}

/// serve_bench's transient-fault environment: 3 % of launch attempts fail.
pub fn launch_fault_plan() -> FaultPlan {
    FaultPlan::new(0x5EB7E).with_launch_failures(30)
}

/// The serving configuration every workload starts from: graph dispatch
/// on, the committed cost model installed so compiles ship from the beam
/// rung, ILP rungs unbudgeted (the `ServeOptions` default), optionally
/// serve_bench's fault environment with the resilience controller live.
pub fn serve_options(model: &CostModelHandle, faults: bool, cache: CacheOptions) -> ServeOptions {
    ServeOptions {
        graph_dispatch: true,
        search: SearchOptions {
            scheduler: SchedulerKind::Heuristic,
            cost_model: Some(model.clone()),
            ..SearchOptions::default()
        },
        fault_plan: faults.then(launch_fault_plan),
        resilience: ResilienceOptions {
            enabled: faults,
            ..ResilienceOptions::default()
        },
        cache,
        ..ServeOptions::default()
    }
}

/// What the serving path compiles a job under on a `width`-SM slice at
/// nominal queue pressure — the same content `serve` addresses its cache
/// by, rebuilt here from public fields.
pub fn pipeline_options(opts: &ServeOptions, width: u32, policy: FaultPolicy) -> PipelineOptions {
    PipelineOptions {
        compile: CompileOptions {
            device: DeviceConfig {
                num_sms: width,
                ..opts.device.clone()
            },
            timing: opts.timing.clone(),
            profile: opts.profile.clone(),
            search: opts.search.clone(),
        },
        budgets: opts.budgets.clone(),
        fault_plan: opts.fault_plan.clone(),
        policy,
        graph_dispatch: opts.graph_dispatch,
    }
}

/// The independent CPU interpreter's run of a graph: the reference every
/// output stream is compared with, and the CPU-model time per token.
pub struct CpuRef {
    pub outputs: Vec<Scalar>,
    /// CPU-model seconds per steady-state output token.
    pub secs_per_token: f64,
    /// CPU-model cycles of the steady phase.
    pub cycles: f64,
}

/// Runs `graph` on `streamir::cpu` for enough steady iterations to yield
/// at least `min_outputs` tokens from `input(n)`.
pub fn cpu_reference(
    tr: &Tracer,
    op: u64,
    graph: &FlatGraph,
    input: &dyn Fn(usize) -> Vec<Scalar>,
    min_outputs: usize,
) -> CpuRef {
    let steady = tr
        .span("streamir", "sdf::solve", op, || streamir::sdf::solve(graph))
        .expect("suite graph has a steady state");
    let out_per_iter = steady.output_tokens_per_iteration(graph).max(1);
    let in_per_iter = steady.input_tokens_per_iteration(graph);
    let iterations = (min_outputs as u64).div_ceil(out_per_iter) + 1;
    let needed = steady.input_tokens_for_init(graph) + (iterations + 2) * in_per_iter + 64;
    let tokens = input(needed as usize);
    let run = tr
        .span("streamir", "cpu::run", op, || {
            cpu::run(
                graph,
                &steady,
                iterations,
                &tokens,
                &CpuCostModel::default(),
            )
        })
        .expect("CPU reference runs");
    CpuRef {
        secs_per_token: run.time_secs / (iterations * out_per_iter) as f64,
        cycles: run.cycles,
        outputs: run.outputs,
    }
}

/// Whether a device output stream equals the reference: every token, in
/// order, with the reference at least as long.
pub fn matches_reference(device: &[Scalar], reference: &[Scalar]) -> bool {
    !device.is_empty() && device.len() <= reference.len() && device == &reference[..device.len()]
}

/// Steady-state output tokens of `iterations` device iterations — the
/// harness's analytic count (device iterations are instance-graph
/// iterations: each instance fires `threads` times).
pub fn device_output_tokens(c: &Compiled, iterations: u64) -> u64 {
    let per_iter = c.graph.output().map_or(1, |e| {
        u64::from(c.ig.reps[e.0 as usize])
            * u64::from(c.graph.node(e).work.push_rate(0))
            * u64::from(c.exec_cfg.threads[e.0 as usize])
    });
    (iterations * per_iter).max(1)
}

/// The share of SM time a steady-state round keeps busy under the
/// artifact's modulo schedule: instance delays over `SMs × II`. 1.0 is a
/// perfectly packed schedule. (`LaunchStats::per_sm_cycles` only keeps
/// one launch of a merged run, usually a fill launch, so the planned
/// figure is the one that describes the steady state.)
pub fn planned_busy_share(c: &Compiled) -> f64 {
    let work: u64 =
        c.ig.list
            .iter()
            .map(|&(node, _)| c.exec_cfg.delay[node.0 as usize])
            .sum();
    work as f64 / (f64::from(c.device.num_sms) * c.schedule.ii as f64)
}

/// `gpusim` counters summed over a set of runs, as per-layer metrics.
#[derive(Default)]
pub struct SimTotals {
    stats: LaunchStats,
    busy_share_sum: f64,
    runs: u64,
    host_secs: f64,
}

impl SimTotals {
    /// Folds in one run of `artifact` (when the caller holds it) that
    /// took `host_secs` of wall-clock to simulate.
    pub fn add(&mut self, stats: &LaunchStats, host_secs: f64, artifact: Option<&Compiled>) {
        self.stats.merge(stats);
        if let Some(c) = artifact {
            self.busy_share_sum += planned_busy_share(c);
            self.runs += 1;
        }
        self.host_secs += host_secs;
    }

    pub fn write(&self, out: &mut Values) {
        let s = &self.stats;
        let mut put = |name: &str, v: f64| {
            out.insert(format!("gpusim.{name}"), v);
        };
        put("warp_instructions", s.warp_instructions as f64);
        if self.host_secs > 0.0 {
            put(
                "mwinst_per_host_s",
                s.warp_instructions as f64 / 1e6 / self.host_secs,
            );
        }
        put("mem_transactions", s.mem_transactions as f64);
        put(
            "transactions_per_access",
            s.transactions_per_access().unwrap_or(0.0),
        );
        put("shared_accesses", s.shared_accesses as f64);
        put("bank_conflict_passes", s.bank_conflict_passes as f64);
        put("launch_path_cycles", s.launch_path_cycles);
        put("graph_capture_cycles", s.graph_capture_cycles);
        put("graph_replays", s.graph_replays as f64);
        put("fault_overhead_cycles", s.fault_overhead_cycles);
        put("checkpoint_cycles", s.checkpoint_cycles);
        put("replay_cycles", s.replay_cycles);
        if self.runs > 0 {
            put("sm_busy_share", self.busy_share_sum / self.runs as f64);
        }
        out.insert("exec.launches".into(), s.launches as f64);
        out.insert("exec.retries".into(), s.retries as f64);
        // Runs folded in without a host time (the fleet's job statistics)
        // have no host-clock figures to report.
        if self.host_secs > 0.0 && s.launches > 0 {
            out.insert("exec.host_s".into(), self.host_secs);
            out.insert(
                "exec.host_us_per_launch".into(),
                self.host_secs * 1e6 / s.launches as f64,
            );
        }
    }
}

/// The two device-clock end-to-end metrics, defined the same way on
/// every workload: the simulated cycles billed to the device work the
/// workload completed, and the geomean over that work of CPU-model seconds
/// per token ÷ GPU-simulator seconds per token (the paper's headline).
pub fn device_metrics(cycles: f64, speedups: &[f64], out: &mut Values) {
    out.insert("device_cycles".into(), cycles);
    out.insert("speedup_vs_cpu_geomean".into(), geometric_mean(speedups));
}

/// `<layer>.virt_latency_p50_s` and `_p95_s` of a serving workload's
/// completed jobs (arrival to finish on the virtual clock), with a note
/// of the sample size and the highest percentile it supports.
pub fn latency_metrics(layer: &str, latencies: &[f64], out: &mut Values, notes: &mut Vec<String>) {
    for (name, p) in [("virt_latency_p50_s", 0.50), ("virt_latency_p95_s", 0.95)] {
        let value = percentile(latencies, p).map_or(0.0, |q| q.0);
        out.insert(format!("{layer}.{name}"), value);
    }
    let supported = supported_percentile(latencies.len()).map_or(
        "too few to leave ten samples beyond any percentile".into(),
        |p| format!("ten samples lie beyond p{:.0} at most", p * 100.0),
    );
    notes.push(format!(
        "{layer}.virt_latency_p95_s is over {} completed jobs: {supported}",
        latencies.len()
    ));
}
