//! The three GPU execution schemes: SWP, SWPNC, and Serial.
//!
//! [`compile`] runs the paper's whole trajectory — profile, select,
//! instance model, II search — producing a [`Compiled`] program.
//! [`execute`] then runs a scheme over the simulator:
//!
//! * [`Scheme::Swp`] — the software-pipelined kernel with the coalescing
//!   buffer layout; one launch per coarsened iteration; instances gated by
//!   staging predicates during pipeline fill and drain.
//! * [`Scheme::SwpNc`] — identical schedule over the natural FIFO layout;
//!   filters whose working set fits in shared memory stage through it.
//! * [`Scheme::Serial`] — one kernel per filter per batch in a SAS
//!   schedule, fully data-parallel within the filter, coalesced layout,
//!   buffers constrained to a single batch in flight.

use std::ops::Range;

use gpusim::{
    BlockWork, CheckpointMode, DeviceConfig, Dispatch, FaultPlan, Gpu, InstanceExec, Kernel,
    Launch, LaunchStats, TimingModel,
};
use streamir::graph::{EdgeId, FlatGraph, NodeId};
use streamir::ir::Scalar;

use crate::codegen::{self, CapturedGraph, ProgramBuffers};
use crate::config::{self, Selection};
use crate::instances::{self, ExecConfig, InstanceGraph};
use crate::plan::{self, BufferPlan, LayoutKind};
use crate::profile::{self, staging_fits, ProfileOptions};
use crate::schedule::{self, Schedule, SearchOptions, SearchReport};
use crate::{Error, Result};

mod recovery;

use recovery::{Checkpointer, Sequencer};

/// Everything [`compile`] needs to know.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// The simulated device.
    pub device: DeviceConfig,
    /// Its timing calibration.
    pub timing: TimingModel,
    /// The profiling grid.
    pub profile: ProfileOptions,
    /// The II search configuration.
    pub search: SearchOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            device: DeviceConfig::gts512(),
            timing: TimingModel::gts512(),
            profile: ProfileOptions::paper(),
            search: SearchOptions::default(),
        }
    }
}

impl CompileOptions {
    /// A small configuration for tests and examples: few threads, the
    /// heuristic scheduler, a small device.
    #[must_use]
    pub fn small_test() -> CompileOptions {
        CompileOptions {
            device: DeviceConfig::small_test(),
            timing: TimingModel::gts512(),
            profile: ProfileOptions::small(&[16, 32]),
            search: SearchOptions {
                scheduler: crate::schedule::SchedulerKind::Heuristic,
                ..SearchOptions::default()
            },
        }
    }
}

/// A fully scheduled stream program, ready to execute under any scheme.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The flattened graph.
    pub graph: FlatGraph,
    /// The selected execution configuration.
    pub exec_cfg: ExecConfig,
    /// Full selection diagnostics (candidate table).
    pub selection: Selection,
    /// The instance-level model.
    pub ig: InstanceGraph,
    /// The software-pipelined schedule.
    pub schedule: Schedule,
    /// How the schedule was found.
    pub report: SearchReport,
    /// Device shape used for compilation and execution.
    pub device: DeviceConfig,
    /// Timing model used for execution.
    pub timing: TimingModel,
}

/// The front half of the trajectory (profile → select → instance model),
/// shared between [`compile`] and the resilient pipeline driver
/// ([`crate::pipeline::ResilientPipeline`]), which tries several
/// scheduling rungs over the same front-end result.
pub(crate) struct FrontEnd {
    pub selection: Selection,
    pub exec_cfg: ExecConfig,
    pub ig: InstanceGraph,
    /// The search options with the coarsening cap already applied.
    pub search: SearchOptions,
}

pub(crate) fn compile_front(graph: &FlatGraph, opts: &CompileOptions) -> Result<FrontEnd> {
    // Feedback graphs may need thread counts below the grid's smallest
    // entry (capped by the loop's initial-token depth): extend the grid.
    let mut profile_opts = opts.profile.clone();
    if let Some(cap) = graph
        .edges()
        .iter()
        .filter(|e| !e.initial.is_empty())
        .map(|e| e.initial.len() as u32)
        .min()
    {
        if !profile_opts.thread_counts.iter().any(|&t| t <= cap) {
            profile_opts.thread_counts.push(cap.max(1));
        }
    }
    let table = profile::profile(graph, &profile_opts, &opts.device, &opts.timing)?;
    let selection = config::select(graph, &table)?;
    let exec_cfg = selection.exec.clone();
    let ig = instances::build(graph, &exec_cfg)?;
    // Stateful filters and feedback loops cannot be coarsened (sub-firing
    // interleaving would break their cross-iteration serial chains), so
    // the schedule only needs C = 1.
    let mut search = opts.search.clone();
    if instances::requires_serial_iterations(graph) {
        search.coarsening_max = 1;
    }
    Ok(FrontEnd {
        selection,
        exec_cfg,
        ig,
        search,
    })
}

/// Compiles a graph end-to-end (Figure 5 of the paper).
///
/// # Errors
///
/// Any stage can fail: infeasible configuration grid, inconsistent rates,
/// schedule search exhaustion. Errors carry the failing stage's context.
pub fn compile(graph: &FlatGraph, opts: &CompileOptions) -> Result<Compiled> {
    let fe = compile_front(graph, opts)?;
    let (schedule, report) = schedule::find(&fe.ig, &fe.exec_cfg, opts.device.num_sms, &fe.search)?;
    Ok(Compiled {
        graph: graph.clone(),
        exec_cfg: fe.exec_cfg,
        selection: fe.selection,
        ig: fe.ig,
        schedule,
        report,
        device: opts.device.clone(),
        timing: opts.timing.clone(),
    })
}

/// Which execution scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Optimized software pipelining; `coarsening` basic iterations per
    /// kernel launch (the paper's SWP / SWP4 / SWP8 / SWP16).
    Swp {
        /// Basic iterations per launch.
        coarsening: u32,
    },
    /// Software pipelining without coalescing (natural FIFO layout;
    /// shared-memory staging where the working set fits).
    SwpNc {
        /// Basic iterations per launch.
        coarsening: u32,
    },
    /// Serialized SAS execution: one kernel per filter per batch.
    Serial {
        /// Basic iterations per batch (buffer-constrained to match SWP8).
        batch: u32,
    },
    /// Ablation variant: software pipelining on the natural FIFO layout
    /// with shared-memory staging disabled — isolates the buffer-layout
    /// contribution from the staging fallback.
    SwpRaw {
        /// Basic iterations per launch.
        coarsening: u32,
    },
}

/// Bounded retry policy for transient device faults (injected launch
/// failures, detected memory corruptions, watchdog kills).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per launch, including the first (1 = no retry).
    /// A launch still faulted after this many attempts propagates its
    /// error.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

/// How the executor picks the checkpoint protocol protecting stateful
/// filter state across retried launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointSpec {
    /// Let the cost model decide ([`crate::plan::checkpoint_plan`]): the
    /// cheaper of the two modes for this program's state footprint and
    /// the fault plan's expected restore rate.
    #[default]
    Auto,
    /// Force a specific mode (experiments and A/B tests).
    Force(CheckpointMode),
}

/// Pins a compiled program onto a contiguous SM slice of a larger
/// physical device: a program compiled for `k` SMs executes its `k`
/// blocks on SMs `[base_sm, base_sm + k)` of `device`. The multi-tenant
/// runtime uses this to co-schedule tenants on disjoint slices; because
/// both the functional semantics and the launch timing bound are
/// placement-invariant, a sliced run is byte- and cycle-identical to a
/// solo run on a `k`-SM device.
#[derive(Debug, Clone)]
pub struct SmPlacement {
    /// The physical device executed on (its SM count may exceed the
    /// compiled device's).
    pub device: DeviceConfig,
    /// First SM of this program's slice.
    pub base_sm: u32,
}

/// Execution-time options: fault injection and the retry policy.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Fault plan installed on the device before the first launch.
    pub fault_plan: Option<FaultPlan>,
    /// How many times a transiently-faulted launch is re-attempted.
    pub retry: RetryPolicy,
    /// Checkpoint-protocol selection. Only billed (and, for the
    /// double-buffered mode, only materialized on the device) when a
    /// fault plan is armed; fault-free runs are byte-identical across
    /// all settings.
    pub checkpoint: CheckpointSpec,
    /// Execute on an SM slice of a larger device instead of the compiled
    /// device (multi-tenant co-scheduling). `None` runs on the compiled
    /// device at offset 0.
    pub placement: Option<SmPlacement>,
    /// Commit the stateful-state checkpoint every `k` launches instead of
    /// every launch (`0` and `1` both mean every launch). Recovery from a
    /// transient fault then restores the last committed snapshot and
    /// *replays* the up-to-`k − 1` launches completed since it, with the
    /// replays truthfully billed into [`LaunchStats::replay_cycles`].
    /// Channel buffers gain `k − 1` extra live windows per channel
    /// ([`crate::plan::plan_with_replay_slack`]) so replayed launches
    /// never read overwritten regions. Only takes effect when a fault
    /// plan is armed; fault-free and scaled-measurement runs always
    /// commit per launch and plan canonical buffers.
    pub checkpoint_interval: u32,
    /// Adaptive hang-detection margin (the tail-latency watchdog). When
    /// set, each successful launch tightens the device's watchdog
    /// instruction budget to `margin ×` the largest instruction count
    /// any successful launch has issued, so a hang is killed after a
    /// small multiple of a legitimate launch instead of burning the
    /// full display-watchdog interval
    /// ([`gpusim::timing::WATCHDOG_SECS`]). A kill that was the
    /// tightened budget's own fault — a later launch legitimately
    /// bigger than everything seen so far — self-corrects: every kill
    /// at a tightened budget doubles the armed budget before the retry
    /// and is billed but *not* counted against
    /// [`RetryPolicy::max_attempts`], so a wrongly-killed launch always
    /// makes progress and only kills at the device's true budget can
    /// exhaust the retry bound. Only takes effect when a fault plan is
    /// armed; fault-free and scaled-measurement runs keep the device
    /// default. `None` (the default) never tightens.
    pub watchdog_margin: Option<u32>,
    /// Dispatch the steady-state window of SWP-family schemes as replays
    /// of a captured graph instead of host-driven launches. The capture
    /// ([`crate::codegen::capture_graph`]) is billed once at steady
    /// entry; every steady launch then pays the doorbell
    /// ([`gpusim::TimingModel::graph_replay_overhead_cycles`]) instead of
    /// the host launch overhead. Prologue (fill) and epilogue (drain)
    /// launches stay host-launched — their staging predicates differ per
    /// iteration. Checkpoint-window recovery re-enters the captured
    /// graph for steady ordinals: a replayed steady launch is replayed
    /// *as a graph replay*, billed into the same disjoint fault buckets.
    /// Functionally inert — per-job outputs are byte-identical to
    /// host-launch mode — and ignored by the serial scheme, which has no
    /// fixed steady-state graph to capture.
    pub graph_dispatch: bool,
}

/// The outcome of a GPU execution.
#[derive(Debug, Clone)]
pub struct GpuRun {
    /// The graph-output stream: init-phase tokens followed by
    /// `iterations` steady iterations' worth.
    pub outputs: Vec<Scalar>,
    /// Merged statistics over every launch.
    pub stats: LaunchStats,
    /// Total modeled time in seconds.
    pub time_secs: f64,
    /// Kernel launches issued.
    pub launches: u64,
    /// Launch attempts that faulted transiently and were re-run from the
    /// last consistent buffer state (their cost is billed into
    /// [`LaunchStats::fault_overhead_cycles`] and the total time).
    pub retries: u64,
    /// Total channel-buffer bytes of the plan (Table II's quantity).
    pub buffer_bytes: u64,
    /// The checkpoint mode the run protected stateful state with
    /// (cost-model choice under [`CheckpointSpec::Auto`]).
    pub checkpoint_mode: CheckpointMode,
    /// The commit interval the run actually used: state committed every
    /// this-many launches (1 unless a fault plan was armed and
    /// [`RunOptions::checkpoint_interval`] asked for more).
    pub checkpoint_interval: u32,
    /// Modeled cycles of each completed launch, in issue order — the
    /// per-launch trace makespan-variance experiments need. Empty for
    /// scaled measurement runs ([`measure`]), where most launches are
    /// extrapolated rather than simulated.
    pub launch_cycles: Vec<f64>,
}

/// Input tokens an execution of `iterations` basic steady iterations
/// consumes (initialization phase + iterations, plus the entry filter's
/// peek slack). Returns 0 for graphs without an external input.
#[must_use]
pub fn required_input(c: &Compiled, iterations: u64) -> u64 {
    let Some(entry) = c.graph.input() else {
        return 0;
    };
    let work = &c.graph.node(entry).work;
    let pop = work.pop_rate(0);
    let peek = work.peek_rate(0);
    let t = c.exec_cfg.threads[entry.0 as usize];
    let per_inst = u64::from(pop) * u64::from(t);
    let per_iter = u64::from(c.ig.reps[entry.0 as usize]) * per_inst;
    let init = u64::from(c.ig.init[entry.0 as usize]) * per_inst;
    init + iterations * per_iter + u64::from(peek - pop)
}

/// Executes `iterations` basic steady iterations under `scheme`.
///
/// `input` must supply the initialization phase plus all iterations
/// (`init + iterations × per-iteration` tokens).
///
/// # Errors
///
/// * [`Error::Api`] if `iterations` is not a multiple of the scheme's
///   coarsening/batch factor.
/// * [`Error::Stream`] for insufficient input.
/// * [`Error::Sim`] for device faults.
pub fn execute(c: &Compiled, scheme: Scheme, iterations: u64, input: &[Scalar]) -> Result<GpuRun> {
    execute_with(c, scheme, iterations, input, &RunOptions::default())
}

/// [`execute`] with explicit [`RunOptions`]: install a fault plan on the
/// device and/or bound the retry policy. With an exhausting fault plan
/// (more consecutive transient faults on one launch than
/// [`RetryPolicy::max_attempts`]) the transient error propagates as
/// [`Error::Sim`].
///
/// Prepares `c` for `scheme` and runs it once; to run one artifact many
/// times, [`crate::pipeline::ResilientCompiled::execute`] keeps the
/// prepared form.
///
/// # Errors
///
/// As for [`execute`].
pub fn execute_with(
    c: &Compiled,
    scheme: Scheme,
    iterations: u64,
    input: &[Scalar],
    opts: &RunOptions,
) -> Result<GpuRun> {
    Prepared::new(c, scheme)?.run(c, iterations, input, false, opts)
}

/// The (iteration granule, buffer layout) shape of a scheme. Shared by
/// the executor and the static verifier so both plan identical buffers.
pub(crate) fn scheme_shape(scheme: Scheme) -> (u32, LayoutKind) {
    match scheme {
        Scheme::Swp { coarsening } => (coarsening.max(1), LayoutKind::Optimized),
        Scheme::SwpNc { coarsening } | Scheme::SwpRaw { coarsening } => {
            (coarsening.max(1), LayoutKind::Sequential)
        }
        Scheme::Serial { batch } => (batch.max(1), LayoutKind::Optimized),
    }
}

/// What every instance of one node launches with.
#[derive(Debug)]
struct NodeLaunch {
    kernel: Kernel,
    threads: u32,
    /// The channel behind each input (output) port; `None` is the
    /// graph's external stream.
    inputs: Vec<Option<EdgeId>>,
    outputs: Vec<Option<EdgeId>>,
    /// Stage the working set through shared memory: the scheme stages and
    /// the window fits at `threads`.
    staging: bool,
    /// `name[k]` of each steady instance `k`.
    labels: Vec<String>,
}

/// How a scheme's launch ordinals enumerate instances.
#[derive(Debug)]
enum Walk {
    /// Ordinal `r` is software-pipelined kernel iteration `r`: per-SM
    /// instance lists ordered by offset, ties by instance id (the paper:
    /// "ties are broken arbitrarily"), gated by the staging predicate.
    /// `capture` is the steady window's captured graph.
    Swp {
        order: Vec<Vec<usize>>,
        capture: CapturedGraph,
    },
    /// Ordinals enumerate `(batch, node)` pairs in issue order, nodes in
    /// topological order: one kernel per filter per batch.
    Serial { topo: Vec<NodeId> },
}

/// The `(node, batch)` a serial launch ordinal stands for.
fn serial_step(topo: &[NodeId], ordinal: u64) -> (NodeId, u64) {
    let nodes = topo.len() as u64;
    (topo[(ordinal % nodes) as usize], ordinal / nodes)
}

/// Everything about running one artifact under one scheme that is a pure
/// function of the artifact: loaded kernels, the port wiring and staging
/// decision of every node, the launch enumeration, the captured steady
/// graph and the canonical buffer plan. Built once
/// ([`crate::pipeline::ResilientCompiled`] keeps it), then every run — and
/// the static verifier, which must enumerate the very launches the
/// executor issues — reads it; what a run still derives is what depends on
/// the job (device memory, the init phase over its input, fault draws).
///
/// Always pass the [`Compiled`] it was prepared from.
#[derive(Debug)]
pub(crate) struct Prepared {
    scheme: Scheme,
    nodes: Vec<NodeLaunch>,
    walk: Walk,
    plan: BufferPlan,
}

impl Prepared {
    pub(crate) fn new(c: &Compiled, scheme: Scheme) -> Result<Prepared> {
        let (granule, kind) = scheme_shape(scheme);
        let staged = !matches!(scheme, Scheme::SwpRaw { .. });
        let nodes = (c.graph.nodes().iter().enumerate())
            .map(|(v, node)| {
                let threads = c.exec_cfg.threads[v];
                NodeLaunch {
                    kernel: Kernel::load(&node.work),
                    threads,
                    inputs: c.graph.input_wiring(NodeId(v as u32)),
                    outputs: c.graph.output_wiring(NodeId(v as u32)),
                    staging: staged && staging_fits(&node.work, threads, &c.device),
                    labels: (0..c.ig.reps[v])
                        .map(|k| format!("{}[{k}]", node.name))
                        .collect(),
                }
            })
            .collect();
        let (walk, sched) = match scheme {
            Scheme::Serial { .. } => (
                Walk::Serial {
                    topo: c.graph.topo_order()?,
                },
                None,
            ),
            _ => {
                let sched = &c.schedule;
                let mut order = vec![Vec::new(); c.device.num_sms as usize];
                let mut idx: Vec<usize> = (0..c.ig.len()).collect();
                idx.sort_by_key(|&i| (sched.offset[i], i));
                for i in idx {
                    order[sched.sm_of[i] as usize].push(i);
                }
                let capture = codegen::capture_graph(&c.ig, sched, granule);
                (Walk::Swp { order, capture }, Some(sched))
            }
        };
        Ok(Prepared {
            scheme,
            nodes,
            walk,
            plan: plan::plan(&c.graph, &c.ig, sched, granule, kind),
        })
    }

    pub(crate) fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The canonical (no replay slack) buffer plan.
    pub(crate) fn plan(&self) -> &BufferPlan {
        &self.plan
    }

    /// Each node's loaded kernel, in node order — the values launched
    /// instances point at.
    pub(crate) fn kernels(&self) -> impl Iterator<Item = &Kernel> {
        self.nodes.iter().map(|n| &n.kernel)
    }

    /// Launches an `iterations`-long run issues: fill, steady and drain
    /// kernel iterations, or one kernel per node per batch.
    pub(crate) fn launch_count(&self, c: &Compiled, iterations: u64) -> u64 {
        let rounds = iterations / u64::from(scheme_shape(self.scheme).0);
        match &self.walk {
            Walk::Swp { .. } => rounds + c.schedule.max_stage(),
            Walk::Serial { topo } => rounds * topo.len() as u64,
        }
    }

    /// Visits the instances of launch `ordinal` of an `iterations`-long
    /// run as `(block, node, instance)`, each block's in execution order.
    /// The executor and the static verifier both enumerate launches
    /// through here, so they cannot disagree on what a launch contains.
    pub(crate) fn for_each_instance<'p>(
        &'p self,
        c: &Compiled,
        buffers: &ProgramBuffers,
        ordinal: u64,
        iterations: u64,
        mut visit: impl FnMut(usize, NodeId, InstanceExec<'p>),
    ) {
        let granule = u64::from(scheme_shape(self.scheme).0);
        match &self.walk {
            Walk::Swp { order, .. } => {
                let kernel_iters = iterations / granule;
                for (sm, items) in order.iter().enumerate() {
                    for &i in items {
                        let f = c.schedule.stage[i];
                        if ordinal < f || ordinal - f >= kernel_iters {
                            continue; // staging predicate: filling or draining
                        }
                        let (v, k) = c.ig.list[i];
                        for sub in 0..granule {
                            let b = (ordinal - f) * granule + sub;
                            visit(sm, v, self.instance(c, buffers, v, k, b));
                        }
                    }
                }
            }
            // Every instance of the node over one batch, round-robin over
            // the SMs.
            Walk::Serial { topo } => {
                let (node, batch_no) = serial_step(topo, ordinal);
                let num_sms = c.device.num_sms as usize;
                let mut slot = 0usize;
                for sub in 0..granule {
                    let b = batch_no * granule + sub;
                    for k in 0..c.ig.reps[node.0 as usize] {
                        visit(slot % num_sms, node, self.instance(c, buffers, node, k, b));
                        slot += 1;
                    }
                }
            }
        }
    }

    /// Instance `k` of `node` at basic iteration `b`: the node's prepared
    /// launch shape with every port bound at that iteration.
    fn instance<'p>(
        &'p self,
        c: &Compiled,
        buffers: &ProgramBuffers,
        node: NodeId,
        k: u32,
        b: u64,
    ) -> InstanceExec<'p> {
        let n = &self.nodes[node.0 as usize];
        let input = |port: &Option<EdgeId>| match port {
            Some(e) => buffers.consumer_binding(&c.ig, e.0 as usize, b, k),
            None => buffers.input_binding(b, k),
        };
        let output = |port: &Option<EdgeId>| match port {
            Some(e) => buffers.producer_binding(&c.ig, e.0 as usize, b, k),
            None => buffers.output_binding(b, k),
        };
        InstanceExec {
            kernel: &n.kernel,
            active_threads: n.threads,
            inputs: n.inputs.iter().map(input).collect(),
            outputs: n.outputs.iter().map(output).collect(),
            shared_staging: n.staging,
            state_base: buffers.state_base[node.0 as usize],
            label: Some(&n.labels[k as usize]),
        }
    }

    fn launch<'p>(
        &'p self,
        c: &Compiled,
        buffers: &ProgramBuffers,
        ordinal: u64,
        iterations: u64,
        sm_offset: u32,
    ) -> Launch<'p> {
        let mut blocks = vec![BlockWork::default(); c.device.num_sms as usize];
        self.for_each_instance(c, buffers, ordinal, iterations, |block, _, inst| {
            blocks[block].items.push(inst);
        });
        let threads_per_block = match &self.walk {
            Walk::Swp { .. } => c.exec_cfg.threads_per_block,
            Walk::Serial { topo } => c.exec_cfg.threads[serial_step(topo, ordinal).0 .0 as usize],
        };
        Launch {
            threads_per_block,
            regs_per_thread: c.exec_cfg.regs_per_thread,
            blocks,
            sm_offset,
        }
    }

    /// The launch ordinals of an `iterations`-long run in which every
    /// instance's staging predicate holds, i.e. whose launches are one
    /// fixed graph. Empty for the serial scheme, which has no fixed
    /// steady-state graph to capture, so graph dispatch is ignored there.
    fn steady_window(&self, c: &Compiled, iterations: u64) -> Range<u64> {
        match &self.walk {
            // From the last stage filling to the first one draining.
            Walk::Swp { .. } => {
                c.schedule.max_stage()..iterations / u64::from(scheme_shape(self.scheme).0)
            }
            Walk::Serial { .. } => 0..0,
        }
    }

    /// How a scaled measurement ([`measure`]) shortens an `iterations`-long
    /// run, as `(sample, skipped)`: it skips a stretch of launches whose
    /// counters repeat, counting each `sample`-long group of them as the
    /// merged stats of the `sample` ordinals it simulated earlier. Launches
    /// between `sample` and `skipped` are simulated to verify that claim.
    /// `None` when every launch is simulated anyway.
    fn extrapolation(&self, c: &Compiled, iterations: u64) -> Option<(Range<u64>, Range<u64>)> {
        match &self.walk {
            // Fill exactly, two steady launches (the second verifies the
            // first), the rest of the steady window by scaling, drain
            // exactly. A run inside the window scaled mode allocates
            // buffers for (`max_stage + 4` kernel iterations) is simulated
            // whole.
            Walk::Swp { .. } => {
                let steady = self.steady_window(c, iterations);
                let (first, rest) = (steady.start..steady.start + 1, steady.start + 2..steady.end);
                (steady.end > steady.start + 4).then_some((first, rest))
            }
            // Every batch is counter-identical (one kernel per filter over
            // the same shapes): simulate the first and scale.
            Walk::Serial { topo } => {
                let (batch, launches) = (topo.len() as u64, self.launch_count(c, iterations));
                (launches > batch).then_some((0..batch, batch..launches))
            }
        }
    }

    /// What launch `ordinal` was doing, for an error it raised.
    fn context(&self, c: &Compiled, ordinal: u64) -> String {
        match &self.walk {
            Walk::Swp { .. } => format!("software-pipelined kernel iteration {ordinal}"),
            Walk::Serial { topo } => {
                let (node, batch_no) = serial_step(topo, ordinal);
                format!(
                    "serial kernel for filter '{}' (batch {batch_no})",
                    c.graph.node(node).name
                )
            }
        }
    }

    /// Executes `iterations` basic steady iterations of `c` (`scaled`:
    /// measure instead, see [`measure`]).
    pub(crate) fn run(
        &self,
        c: &Compiled,
        iterations: u64,
        input: &[Scalar],
        scaled: bool,
        opts: &RunOptions,
    ) -> Result<GpuRun> {
        let (granule, kind) = scheme_shape(self.scheme);
        let serial = matches!(self.walk, Walk::Serial { .. });
        if iterations == 0 || !iterations.is_multiple_of(u64::from(granule)) {
            return Err(Error::Api(format!(
                "iterations ({iterations}) must be a positive multiple of the \
                 coarsening/batch factor ({granule})"
            )));
        }
        if granule > 1 && !serial && instances::requires_serial_iterations(&c.graph) {
            return Err(Error::Api(
                "stateful filters and feedback loops cannot be coarsened: \
                 sub-firing interleaving would break their cross-iteration \
                 serial order (run with coarsening 1)"
                    .into(),
            ));
        }
        // k-launch checkpointing only matters (and is only billed) under an
        // armed fault plan; scaled measurement extrapolates merged steady
        // launches, so it always commits per launch over canonical buffers.
        let armed = opts.fault_plan.is_some();
        let interval = if armed && !scaled {
            opts.checkpoint_interval.max(1)
        } else {
            1
        };
        // The adaptive watchdog has the same gate: fault-free runs must be
        // byte- and cycle-identical across all settings, and scaled
        // measurement merges steady launches into outsized composites the
        // tightened budget would wrongly kill.
        let watchdog_margin = if armed && !scaled {
            u64::from(opts.watchdog_margin.unwrap_or(0))
        } else {
            0
        };
        let slack_plan;
        let plan = if interval == 1 {
            &self.plan
        } else {
            let sched = (!serial).then_some(&c.schedule);
            slack_plan =
                plan::plan_with_replay_slack(&c.graph, &c.ig, sched, granule, kind, interval - 1);
            &slack_plan
        };

        // In scaled mode only a bounded window of launches is simulated, so
        // buffers (and the required input) cover just that window; addresses
        // of far-future iterations wrap harmlessly (their data is not used).
        let alloc_iters = if scaled {
            iterations.min((c.schedule.max_stage() + 4) * u64::from(granule))
        } else {
            iterations
        };
        let (exec_device, sm_offset) = match &opts.placement {
            Some(p) => {
                if p.base_sm + c.device.num_sms > p.device.num_sms {
                    return Err(Error::Api(format!(
                        "SM slice [{}, {}) does not fit the {}-SM execution device",
                        p.base_sm,
                        p.base_sm + c.device.num_sms,
                        p.device.num_sms
                    )));
                }
                (p.device.clone(), p.base_sm)
            }
            None => (c.device.clone(), 0),
        };
        let mut gpu = Gpu::with_timing(exec_device, c.timing.clone());
        if let Some(fault_plan) = &opts.fault_plan {
            gpu.inject_faults(fault_plan.clone());
        }
        let buffers = codegen::allocate(&mut gpu, &c.graph, &c.ig, &c.exec_cfg, plan, alloc_iters)?;
        check_input_len(&buffers, input)?;
        let init_out = buffers.seed_init_state(&mut gpu, &c.graph, &c.ig, &c.exec_cfg, input)?;
        if buffers.input.is_some() {
            buffers.write_input(&mut gpu, input);
        }

        let ckpt_plan = plan::checkpoint_plan(&c.graph, &c.timing, opts.fault_plan.as_ref());
        let mode = match opts.checkpoint {
            CheckpointSpec::Auto => ckpt_plan.mode,
            CheckpointSpec::Force(m) => m,
        };
        let state = (c.graph.nodes().iter().zip(&buffers.state_base))
            .filter_map(|(node, base)| Some(((*base)?, node.work.states().len().max(1) as u32)))
            .collect();
        let checkpoint = Checkpointer::new(&mut gpu, state, mode, armed)?;

        // The steady window is the only region where launches are a fixed
        // graph. Capture it once (billed as productive cycles, not fault
        // overhead) and replay it; fill and drain stay host-launched.
        let replayed = if opts.graph_dispatch {
            self.steady_window(c, iterations)
        } else {
            0..0
        };
        let mut billed = LaunchStats::default();
        match &self.walk {
            Walk::Swp { capture, .. } if !replayed.is_empty() => {
                let cost = gpu
                    .timing()
                    .graph_capture_cycles(capture.node_count(), capture.edge_count());
                billed.graph_captures += 1;
                billed.graph_capture_cycles += cost;
                billed.cycles += cost;
                billed.time_secs += gpu.timing().secs(cost);
            }
            _ => {}
        }
        let build = |r: u64| {
            let dispatch = if replayed.contains(&r) {
                Dispatch::GraphReplay
            } else {
                Dispatch::HostLaunch
            };
            (self.launch(c, &buffers, r, iterations, sm_offset), dispatch)
        };
        let mut seq = Sequencer::new(
            &mut gpu,
            build,
            checkpoint,
            opts.retry,
            interval,
            watchdog_margin,
            billed,
        );

        // The one launch loop: every ordinal of the run in issue order,
        // simulated unless the plan extrapolates it from its sample.
        let launches = self.launch_count(c, iterations);
        let (sampled, skipped) = (scaled.then(|| self.extrapolation(c, iterations)))
            .flatten()
            .unwrap_or((launches..launches, launches..launches));
        let mut sample = LaunchStats::default();
        let mut ordinal = 0;
        while ordinal < launches {
            if skipped.contains(&ordinal) {
                let span = sampled.end - sampled.start;
                seq.extrapolate(&sample, span);
                ordinal += span;
                continue;
            }
            let stats = seq
                .issue(ordinal)
                .map_err(|e| e.in_context(self.context(c, ordinal)))?;
            if sampled.contains(&ordinal) {
                sample.merge(&stats);
            } else if (sampled.end..skipped.start).contains(&ordinal) {
                debug_assert_eq!(
                    stats.warp_instructions, sample.warp_instructions,
                    "steady launches must be counter-identical (data-independent control flow)"
                );
            }
            ordinal += 1;
        }
        let (totals, launches, trace) = seq.finish();

        let outputs = if scaled {
            Vec::new()
        } else {
            collect_output(c, &buffers, &gpu, iterations, init_out)
        };
        Ok(GpuRun {
            outputs,
            time_secs: totals.time_secs,
            launches,
            retries: totals.retries,
            buffer_bytes: plan.total_bytes(),
            checkpoint_mode: mode,
            checkpoint_interval: interval,
            launch_cycles: if scaled { Vec::new() } else { trace },
            stats: totals,
        })
    }
}

/// Measures `iterations` steady iterations under `scheme` without full
/// functional execution: the pipeline fill and drain launches are
/// simulated exactly, two steady-window launches are simulated and
/// verified to have identical counters (true whenever control flow is
/// data-independent, as in the whole benchmark suite), and the steady
/// window is scaled to the requested length. This matches how the paper
/// measures long runs, at simulation cost independent of `iterations`.
///
/// The returned [`GpuRun::outputs`] is empty (skipped iterations leave
/// the output buffer undefined); use [`execute`] when outputs matter.
///
/// # Errors
///
/// As for [`execute`].
pub fn measure(c: &Compiled, scheme: Scheme, iterations: u64, input: &[Scalar]) -> Result<GpuRun> {
    Prepared::new(c, scheme)?.run(c, iterations, input, true, &RunOptions::default())
}

/// Input tokens [`measure`] needs: enough for the initialization phase
/// plus the simulated window (fill + verification launches).
#[must_use]
pub fn measure_input(c: &Compiled, scheme: Scheme) -> u64 {
    let window = (c.schedule.max_stage() + 4) * u64::from(scheme_shape(scheme).0);
    required_input(c, window)
}

fn check_input_len(buffers: &ProgramBuffers, input: &[Scalar]) -> Result<()> {
    if let Some(io) = &buffers.input {
        // The allocation already covers init + iterations (+ peek slack);
        // require the caller to fill everything but the slack.
        let needed = io.tokens;
        if (input.len() as u64) < needed {
            return Err(Error::Stream(streamir::Error::InsufficientInput {
                needed: needed as usize,
                got: input.len(),
            }));
        }
    }
    Ok(())
}

fn collect_output(
    c: &Compiled,
    buffers: &ProgramBuffers,
    gpu: &Gpu,
    iterations: u64,
    init_out: Vec<Scalar>,
) -> Vec<Scalar> {
    let Some(io) = &buffers.output else {
        return init_out;
    };
    let steady = iterations * u64::from(io.reps) * io.per_inst;
    let mut out = init_out;
    out.extend(buffers.read_output(gpu, &c.graph, io.init_tokens, steady));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamir::cpu::{self, CpuCostModel};
    use streamir::graph::{FilterSpec, SplitterKind, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder};

    fn map_filter(name: &str, f: impl FnOnce(Expr) -> Expr) -> StreamSpec {
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = b.local(ElemTy::I32);
        b.pop_into(0, x);
        b.push(0, f(Expr::local(x)));
        StreamSpec::filter(FilterSpec::new(name, b.build().unwrap()))
    }

    /// Compiles, runs CPU + the given scheme for `iters` iterations, and
    /// asserts bit-identical output streams.
    fn assert_gpu_matches_cpu(spec: &StreamSpec, scheme: Scheme, iters: u64) -> GpuRun {
        let graph = spec.flatten().unwrap();
        let opts = CompileOptions::small_test();
        let c = compile(&graph, &opts).unwrap();

        let steady = streamir::sdf::solve(&graph).unwrap();
        // Input sized for the GPU's instance-level init + iterations.
        let per_iter = c
            .graph
            .input()
            .map(|e| {
                u64::from(c.ig.reps[e.0 as usize])
                    * u64::from(c.graph.node(e).work.pop_rate(0))
                    * u64::from(c.exec_cfg.threads[e.0 as usize])
            })
            .unwrap_or(0);
        let init_in = c
            .graph
            .input()
            .map(|e| {
                u64::from(c.ig.init[e.0 as usize])
                    * u64::from(c.graph.node(e).work.pop_rate(0))
                    * u64::from(c.exec_cfg.threads[e.0 as usize])
            })
            .unwrap_or(0);
        let entry_peek_slack = c
            .graph
            .input()
            .map(|e| {
                let w = &c.graph.node(e).work;
                u64::from(w.peek_rate(0) - w.pop_rate(0))
            })
            .unwrap_or(0);
        let total_in = init_in + iters * per_iter + entry_peek_slack;
        let cpu_per_iter = steady.input_tokens_per_iteration(&c.graph).max(1);
        let input_full: Vec<Scalar> = (0..total_in + 2 * cpu_per_iter)
            .map(|i| Scalar::I32(i as i32 % 101 - 50))
            .collect();

        let run = execute(&c, scheme, iters, &input_full[..total_in as usize]).unwrap();

        // CPU reference: both executors emit prefixes of the same output
        // stream; run the CPU long enough to cover the GPU's emission and
        // compare the common prefix.
        let gpu_consumed = init_in + iters * per_iter;
        let cpu_init = steady.input_tokens_for_init(&c.graph);
        let cpu_iters = (gpu_consumed.saturating_sub(cpu_init)).div_ceil(cpu_per_iter) + 1;
        let cpu_run = cpu::run(
            &c.graph,
            &steady,
            cpu_iters,
            &input_full,
            &CpuCostModel::default(),
        )
        .unwrap();
        assert!(!run.outputs.is_empty(), "the GPU run must produce output");
        assert!(
            run.outputs.len() <= cpu_run.outputs.len(),
            "CPU run covers the GPU emission"
        );
        assert_eq!(
            run.outputs,
            cpu_run.outputs[..run.outputs.len()],
            "GPU and CPU output streams must agree bit-for-bit"
        );
        run
    }

    #[test]
    fn swp_pipeline_matches_cpu() {
        let spec = StreamSpec::pipeline(vec![
            map_filter("dbl", |x| x.mul(Expr::i32(2))),
            map_filter("inc", |x| x.add(Expr::i32(1))),
            map_filter("sq", |x| x.clone().mul(x)),
        ]);
        let run = assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 1 }, 4);
        assert!(run.time_secs > 0.0);
        assert!(run.launches >= 4);
    }

    #[test]
    fn swp_coarsening_reduces_launches() {
        let spec = StreamSpec::pipeline(vec![
            map_filter("a", |x| x.add(Expr::i32(3))),
            map_filter("b", |x| x.mul(Expr::i32(5))),
        ]);
        let r1 = assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 1 }, 8);
        let r4 = assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 4 }, 8);
        assert!(r4.launches < r1.launches);
        assert!(r4.time_secs < r1.time_secs, "coarsening amortizes launches");
    }

    #[test]
    fn swpnc_stages_through_shared_when_window_fits() {
        // Small working set: SWPNC brings it into shared memory with
        // coalesced bulk copies — the paper's Filterbank/FMRadio regime,
        // where SWPNC stays competitive.
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let acc = b.local(ElemTy::I32);
        let x = b.local(ElemTy::I32);
        b.assign(acc, Expr::i32(0));
        for _ in 0..4 {
            b.pop_into(0, x);
            b.assign(acc, Expr::local(acc).add(Expr::local(x)));
        }
        for _ in 0..4 {
            b.push(0, Expr::local(acc));
        }
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter(FilterSpec::new("sum4", b.build().unwrap())),
            map_filter("dec", |x| x.sub(Expr::i32(1))),
        ]);
        let nc = assert_gpu_matches_cpu(&spec, Scheme::SwpNc { coarsening: 2 }, 4);
        assert!(
            nc.stats.shared_accesses > 0,
            "fitting working set must be staged through shared memory"
        );
    }

    #[test]
    fn swpnc_serializes_when_window_exceeds_shared() {
        // A 1024-token window per thread: 4 threads x 2048 tokens x 4 B =
        // 32 KB > 16 KB shared memory, so SWPNC must hit device memory
        // with strided (serialized) accesses — the regime where the paper
        // reports SWPNC collapsing to ~1.2x.
        let wide = || {
            let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
            let acc = b.local(ElemTy::I32);
            b.assign(acc, Expr::i32(0));
            b.for_loop(0, 1024, |f, _| {
                let x = f.local(ElemTy::I32);
                vec![
                    streamir::ir::Stmt::Pop {
                        port: 0,
                        dst: Some(x),
                    },
                    streamir::ir::Stmt::Assign(acc, Expr::local(acc).add(Expr::local(x))),
                ]
            });
            b.for_loop(0, 1024, |_, i| {
                vec![streamir::ir::Stmt::Push {
                    port: 0,
                    value: Expr::local(acc).add(Expr::local(i)),
                }]
            });
            b.build().unwrap()
        };
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter(FilterSpec::new("wide", wide())),
            StreamSpec::filter(FilterSpec::new("wide2", wide())),
        ]);
        let swp = assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 1 }, 2);
        let nc = assert_gpu_matches_cpu(&spec, Scheme::SwpNc { coarsening: 1 }, 2);
        assert_eq!(nc.stats.shared_accesses, 0, "window cannot be staged");
        assert!(
            nc.stats.mem_transactions > 2 * swp.stats.mem_transactions,
            "uncoalesced SWPNC must serialize (nc={} vs swp={})",
            nc.stats.mem_transactions,
            swp.stats.mem_transactions
        );
        // At this reduced scale (a single warp per SM) both schemes are
        // latency-bound, so modeled *time* can tie; the full-scale
        // benchmark harness exercises the bandwidth-bound regime where
        // the transaction gap becomes the Figure 10 speedup gap.
    }

    #[test]
    fn serial_matches_cpu_with_more_launches() {
        let spec = StreamSpec::pipeline(vec![
            map_filter("p", |x| x.add(Expr::i32(7))),
            map_filter("q", |x| x.mul(Expr::i32(3))),
            map_filter("r", |x| x.sub(Expr::i32(2))),
        ]);
        let swp = assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 4 }, 8);
        let serial = assert_gpu_matches_cpu(&spec, Scheme::Serial { batch: 4 }, 8);
        assert!(
            serial.launches > swp.launches,
            "serial launches one kernel per filter"
        );
    }

    #[test]
    fn split_join_executes_correctly_on_gpu() {
        let spec = StreamSpec::pipeline(vec![
            map_filter("pre", |x| x.add(Expr::i32(1))),
            StreamSpec::split_join(
                SplitterKind::RoundRobin(vec![1, 1]),
                vec![
                    map_filter("evens", |x| x.mul(Expr::i32(10))),
                    map_filter("odds", |x| x.neg()),
                ],
                vec![1, 1],
            ),
            map_filter("post", |x| x.sub(Expr::i32(5))),
        ]);
        assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 2 }, 4);
    }

    #[test]
    fn peeking_filter_executes_correctly_on_gpu() {
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        b.push(
            0,
            Expr::peek(0, Expr::i32(0))
                .add(Expr::peek(0, Expr::i32(1)))
                .add(Expr::peek(0, Expr::i32(2))),
        );
        b.pop(0);
        let spec = StreamSpec::pipeline(vec![
            map_filter("gen", |x| x.mul(Expr::i32(3))),
            StreamSpec::filter(FilterSpec::new("ma3", b.build().unwrap())),
        ]);
        assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 1 }, 4);
    }

    #[test]
    fn multirate_graph_executes_correctly_on_gpu() {
        // up: 1 -> 3; down: 2 -> 1 (instances rescale).
        let mut up = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = up.local(ElemTy::I32);
        up.pop_into(0, x);
        for i in 0..3 {
            up.push(0, Expr::local(x).add(Expr::i32(i)));
        }
        let mut down = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let a = down.local(ElemTy::I32);
        let b2 = down.local(ElemTy::I32);
        down.pop_into(0, a);
        down.pop_into(0, b2);
        down.push(0, Expr::local(a).add(Expr::local(b2)));
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter(FilterSpec::new("up", up.build().unwrap())),
            StreamSpec::filter(FilterSpec::new("down", down.build().unwrap())),
        ]);
        assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 2 }, 4);
    }

    #[test]
    fn iteration_granularity_is_enforced() {
        let spec = map_filter("id", |x| x);
        let graph = spec.flatten().unwrap();
        let c = compile(&graph, &CompileOptions::small_test()).unwrap();
        let e = execute(&c, Scheme::Swp { coarsening: 4 }, 6, &[]).unwrap_err();
        assert!(matches!(e, Error::Api(_)));
    }

    #[test]
    fn a_trap_names_the_launch_it_happened_in() {
        let spec = StreamSpec::pipeline(vec![
            map_filter("pre", |x| x.sub(Expr::i32(3))),
            map_filter("reciprocal", |x| Expr::i32(100).div(x)),
        ]);
        let c = compile(&spec.flatten().unwrap(), &CompileOptions::small_test()).unwrap();
        // Every token is 3, so `reciprocal` divides by zero as soon as the
        // pipeline has filled (SWP) or its kernel runs (serial).
        let threes = vec![Scalar::I32(3); required_input(&c, 2) as usize];
        let trap = |scheme| execute(&c, scheme, 2, &threes).unwrap_err().to_string();
        let stage = c.schedule.stage[c.ig.len() - 1];
        assert_eq!(
            trap(Scheme::Swp { coarsening: 1 }),
            format!(
                "simulator error: device trap: work function trapped: integer division by \
                 zero (while software-pipelined kernel iteration {stage})"
            )
        );
        assert_eq!(
            trap(Scheme::Serial { batch: 1 }),
            "simulator error: device trap: work function trapped: integer division by zero \
             (while serial kernel for filter 'reciprocal' (batch 0))"
        );
    }

    fn compiled_three_stage() -> (Compiled, Vec<Scalar>, u64) {
        let spec = StreamSpec::pipeline(vec![
            map_filter("dbl", |x| x.mul(Expr::i32(2))),
            map_filter("inc", |x| x.add(Expr::i32(1))),
            map_filter("sq", |x| x.clone().mul(x)),
        ]);
        let graph = spec.flatten().unwrap();
        let c = compile(&graph, &CompileOptions::small_test()).unwrap();
        let iters = 4u64;
        let input: Vec<Scalar> = (0..required_input(&c, iters))
            .map(|i| Scalar::I32(i as i32 % 53 - 26))
            .collect();
        (c, input, iters)
    }

    #[test]
    fn graph_dispatch_is_byte_identical_and_cheaper() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let host = execute(&c, scheme, iters, &input).unwrap();
        let opts = RunOptions {
            graph_dispatch: true,
            ..RunOptions::default()
        };
        let replayed = execute_with(&c, scheme, iters, &input, &opts).unwrap();
        assert_eq!(host.outputs, replayed.outputs);
        assert_eq!(host.launches, replayed.launches);
        assert_eq!(replayed.stats.graph_captures, 1);
        let kernel_iters = iters; // coarsening 1
        let steady = kernel_iters - c.schedule.max_stage();
        assert_eq!(replayed.stats.graph_replays, steady);
        assert_eq!(host.stats.graph_replays, 0);
        // Every steady launch trades the host launch overhead for the
        // replay doorbell; the fixed launch tax shrinks by exactly the
        // per-replay savings (the capture cost is billed separately).
        let saved = steady as f64 * c.timing.replay_savings_cycles();
        assert!(
            (host.stats.launch_path_cycles - replayed.stats.launch_path_cycles - saved).abs()
                < 1e-6,
            "host tax {} replay tax {} expected saving {saved}",
            host.stats.launch_path_cycles,
            replayed.stats.launch_path_cycles
        );
        assert!(
            replayed.stats.cycles + 1e-9
                < host.stats.cycles - saved + replayed.stats.graph_capture_cycles + 1e-6,
            "replay run must be cheaper by the savings minus the capture"
        );
        replayed.stats.assert_billing();
        // Serial has no steady-state graph: the flag is inert.
        let serial_host = execute(&c, Scheme::Serial { batch: 1 }, iters, &input).unwrap();
        let serial_graph =
            execute_with(&c, Scheme::Serial { batch: 1 }, iters, &input, &opts).unwrap();
        assert_eq!(serial_host.outputs, serial_graph.outputs);
        assert_eq!(serial_graph.stats.graph_replays, 0);
        assert_eq!(serial_graph.stats.graph_captures, 0);
        assert_eq!(
            serial_host.stats.launch_path_cycles,
            serial_graph.stats.launch_path_cycles
        );
    }

    #[test]
    fn graph_dispatch_recovers_faults_byte_identically() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let clean = execute(&c, scheme, iters, &input).unwrap();
        for k in [1u32, 3] {
            let mk = |graph_dispatch: bool| RunOptions {
                fault_plan: Some(
                    FaultPlan::new(0xFA117)
                        .with_launch_failures(120)
                        .with_mem_corruptions(80)
                        .with_hangs(40),
                ),
                retry: RetryPolicy { max_attempts: 12 },
                checkpoint_interval: k,
                graph_dispatch,
                ..RunOptions::default()
            };
            let host = execute_with(&c, scheme, iters, &input, &mk(false)).unwrap();
            let graph = execute_with(&c, scheme, iters, &input, &mk(true)).unwrap();
            // The fault plan draws per lifetime attempt ordinal and both
            // modes issue attempts in the same order, so recovery behaves
            // identically and outputs match the fault-free run.
            assert_eq!(clean.outputs, host.outputs, "k={k}");
            assert_eq!(clean.outputs, graph.outputs, "k={k}");
            assert_eq!(host.retries, graph.retries, "k={k}");
            host.stats.assert_billing();
            graph.stats.assert_billing();
        }
    }

    #[test]
    fn transient_faults_retry_bit_identically_with_truthful_billing() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let clean = execute(&c, scheme, iters, &input).unwrap();
        let opts = RunOptions {
            fault_plan: Some(
                FaultPlan::new(0xFA117)
                    .with_launch_failures(120)
                    .with_mem_corruptions(80)
                    .with_hangs(40)
                    .with_overhead_spikes(60, 6.0),
            ),
            retry: RetryPolicy { max_attempts: 8 },
            checkpoint: CheckpointSpec::Auto,
            placement: None,
            checkpoint_interval: 1,
            watchdog_margin: None,
            graph_dispatch: false,
        };
        let faulted = execute_with(&c, scheme, iters, &input, &opts).unwrap();
        assert_eq!(
            clean.outputs, faulted.outputs,
            "retried execution must be bit-identical to the fault-free run"
        );
        assert!(
            faulted.retries > 0,
            "the plan's rates must actually exercise the retry path"
        );
        assert!(faulted.stats.fault_overhead_cycles > 0.0);
        assert!(
            faulted.time_secs > clean.time_secs,
            "failed attempts and spikes must be billed into the total time"
        );
        assert_eq!(clean.retries, 0);
    }

    #[test]
    fn exhausted_retries_propagate_the_transient_error() {
        let (c, input, iters) = compiled_three_stage();
        // Three consecutive pinned failures on the first launch exhaust a
        // 3-attempt policy.
        let plan = FaultPlan::new(1)
            .at_launch(0, gpusim::FaultKind::LaunchFailure)
            .at_launch(1, gpusim::FaultKind::LaunchFailure)
            .at_launch(2, gpusim::FaultKind::LaunchFailure);
        let opts = RunOptions {
            fault_plan: Some(plan.clone()),
            retry: RetryPolicy { max_attempts: 3 },
            checkpoint: CheckpointSpec::Auto,
            placement: None,
            checkpoint_interval: 1,
            watchdog_margin: None,
            graph_dispatch: false,
        };
        let e = execute_with(&c, Scheme::Swp { coarsening: 1 }, iters, &input, &opts).unwrap_err();
        assert_eq!(
            e.to_string(),
            "simulator error: launch attempt 2 failed before device work (injected fault) \
             (while relaunching a faulted steady-state launch (gave up after 3 attempts))"
        );
        match e {
            Error::Sim { source, .. } => assert!(source.is_transient()),
            other => panic!("expected a simulator error, got {other}"),
        }
        // One more attempt allowed: the fourth draw is unpinned and clean.
        let opts = RunOptions {
            fault_plan: Some(plan),
            retry: RetryPolicy { max_attempts: 4 },
            checkpoint: CheckpointSpec::Auto,
            placement: None,
            checkpoint_interval: 1,
            watchdog_margin: None,
            graph_dispatch: false,
        };
        let run = execute_with(&c, Scheme::Swp { coarsening: 1 }, iters, &input, &opts).unwrap();
        assert_eq!(run.retries, 3);
    }

    #[test]
    fn serial_scheme_retries_too() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Serial { batch: 1 };
        let clean = execute(&c, scheme, iters, &input).unwrap();
        let opts = RunOptions {
            fault_plan: Some(FaultPlan::new(77).with_launch_failures(200)),
            retry: RetryPolicy { max_attempts: 8 },
            checkpoint: CheckpointSpec::Auto,
            placement: None,
            checkpoint_interval: 1,
            watchdog_margin: None,
            graph_dispatch: false,
        };
        let faulted = execute_with(&c, scheme, iters, &input, &opts).unwrap();
        assert_eq!(clean.outputs, faulted.outputs);
        assert!(faulted.retries > 0);
    }

    #[test]
    fn k_launch_replay_is_byte_identical_across_intervals() {
        let (c, input, iters) = compiled_three_stage();
        for scheme in [Scheme::Swp { coarsening: 1 }, Scheme::Serial { batch: 1 }] {
            let clean = execute(&c, scheme, iters, &input).unwrap();
            for k in 1..=4u32 {
                let opts = RunOptions {
                    fault_plan: Some(
                        FaultPlan::new(0xFA117)
                            .with_launch_failures(120)
                            .with_mem_corruptions(80)
                            .with_hangs(40),
                    ),
                    retry: RetryPolicy { max_attempts: 12 },
                    checkpoint: CheckpointSpec::Auto,
                    placement: None,
                    checkpoint_interval: k,
                    watchdog_margin: None,
                    graph_dispatch: false,
                };
                let run = execute_with(&c, scheme, iters, &input, &opts)
                    .unwrap_or_else(|e| panic!("{scheme:?} k={k}: {e}"));
                assert_eq!(
                    clean.outputs, run.outputs,
                    "{scheme:?}: k={k} replay must be byte-identical to fault-free"
                );
                assert_eq!(run.checkpoint_interval, k);
                run.stats.assert_billing();
                if k == 1 {
                    assert_eq!(run.stats.replay_cycles, 0.0, "k=1 never replays");
                }
            }
        }
    }

    #[test]
    fn replay_after_in_window_fault_is_billed_and_exact() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let clean = execute(&c, scheme, iters, &input).unwrap();
        // One pinned failure on the second lifetime attempt: launch 0
        // succeeds (window of one committed launch), launch 1 faults, so
        // a k=4 window must restore and replay launch 0 before retrying.
        let opts = RunOptions {
            fault_plan: Some(FaultPlan::new(9).at_launch(1, gpusim::FaultKind::LaunchFailure)),
            retry: RetryPolicy { max_attempts: 4 },
            checkpoint: CheckpointSpec::Auto,
            placement: None,
            checkpoint_interval: 4,
            watchdog_margin: None,
            graph_dispatch: false,
        };
        let run = execute_with(&c, scheme, iters, &input, &opts).unwrap();
        assert_eq!(clean.outputs, run.outputs);
        assert_eq!(run.retries, 1);
        assert!(
            run.stats.replay_cycles > 0.0,
            "the committed in-window launch must be replayed and billed"
        );
        assert!(
            run.stats.failed_attempt_cycles > 0.0,
            "the pinned failure must be billed as a failed attempt"
        );
        run.stats.assert_billing();
    }

    #[test]
    fn tightened_watchdog_detects_hangs_cheaper_with_identical_outputs() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let clean = execute(&c, scheme, iters, &input).unwrap();
        // Hangs pinned after the first success, so the tuner has armed a
        // tightened budget by the time each one fires.
        let plan = FaultPlan::new(3)
            .at_launch(2, gpusim::FaultKind::Hang)
            .at_launch(5, gpusim::FaultKind::Hang);
        let run_with = |margin: Option<u32>| {
            execute_with(
                &c,
                scheme,
                iters,
                &input,
                &RunOptions {
                    fault_plan: Some(plan.clone()),
                    retry: RetryPolicy { max_attempts: 8 },
                    checkpoint: CheckpointSpec::Auto,
                    placement: None,
                    checkpoint_interval: 1,
                    watchdog_margin: margin,
                    graph_dispatch: false,
                },
            )
            .unwrap()
        };
        let loose = run_with(None);
        let tight = run_with(Some(4));
        assert_eq!(loose.outputs, clean.outputs);
        assert_eq!(tight.outputs, clean.outputs);
        assert!(loose.retries >= 2 && tight.retries >= 2);
        assert!(
            tight.stats.failed_attempt_cycles < loose.stats.failed_attempt_cycles,
            "a tightened watchdog must bill hangs cheaper: {} vs {}",
            tight.stats.failed_attempt_cycles,
            loose.stats.failed_attempt_cycles
        );
        assert!(tight.stats.cycles < loose.stats.cycles);
        tight.stats.assert_billing();
    }
}
