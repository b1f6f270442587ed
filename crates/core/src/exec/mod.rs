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
use std::sync::{Mutex, OnceLock};

use gpusim::{
    BlockWork, CheckpointMode, DeviceConfig, Dispatch, FaultPlan, Gpu, InstanceBills, InstanceExec,
    Launch, LaunchStats, TimingModel,
};
use streamir::graph::{EdgeId, FlatGraph, NodeId};
use streamir::hash::Fnv;
use streamir::ir::Scalar;

use crate::codegen::{self, CapturedGraph, Kernels, ProgramBuffers};
use crate::config::{self, Selection};
use crate::instances::{self, ExecConfig, InstanceGraph};
use crate::plan::{self, BufferPlan, LayoutKind};
use crate::profile::{self, staging_fits, ProfileOptions};
use crate::schedule::{self, Schedule, SearchOptions, SearchReport};
use crate::{Error, Result};

mod firing;
mod recovery;

use firing::FiringPlan;
pub use firing::InitState;
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
    /// ([`gpusim::TimingModel::watchdog_budget_insts`]). A kill that was the
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
#[derive(Debug, Clone, Default)]
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
/// Prepares `c` for `scheme` and runs it once, as a kept [`Prepared`]
/// runs its first job of a shape: a fault-free run of a value-oblivious
/// artifact is priced from its kernels' walks and its outputs fired on
/// the host, any other run is simulated ([`Prepared::execute`]). Stats,
/// outputs and errors are the simulator's ([`simulate`]) either way. To
/// run one artifact many times, keep the [`Prepared`] form
/// ([`crate::pipeline::ResilientCompiled::execute`] does).
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
    Prepared::of(c, scheme)?.run(c, iterations, input, opts)
}

/// The reference executor: [`execute_with`] with every launch run on the
/// simulator, the input written to device memory and the outputs read
/// back from it. [`execute_with`] and every kept [`Prepared`] return what
/// this returns, bit for bit; tests that check the simulator itself, or
/// check a faster path against it, call this.
///
/// # Errors
///
/// As for [`execute`].
pub fn simulate(
    c: &Compiled,
    scheme: Scheme,
    iterations: u64,
    input: &[Scalar],
    opts: &RunOptions,
) -> Result<GpuRun> {
    let looped = Prepared::of(c, scheme)?.run_loop(c, iterations, input, Loop::Simulate, opts)?;
    Ok(looped.run)
}

/// The (iteration granule, buffer layout) shape of a scheme.
fn scheme_shape(scheme: Scheme) -> (u32, LayoutKind) {
    match scheme {
        Scheme::Swp { coarsening } => (coarsening.max(1), LayoutKind::Optimized),
        Scheme::SwpNc { coarsening } | Scheme::SwpRaw { coarsening } => {
            (coarsening.max(1), LayoutKind::Sequential)
        }
        Scheme::Serial { batch } => (batch.max(1), LayoutKind::Optimized),
    }
}

/// Rejects an `iterations`-long run that is not a whole number of
/// `scheme`'s granules: the part of [`check_iterations`] that holds for
/// every graph, so it can be checked before compiling.
pub(crate) fn check_granule(scheme: Scheme, iterations: u64) -> Result<()> {
    let granule = scheme_shape(scheme).0;
    if iterations == 0 || !iterations.is_multiple_of(u64::from(granule)) {
        return Err(Error::Api(format!(
            "iterations ({iterations}) must be a positive multiple of the \
             coarsening/batch factor ({granule})"
        )));
    }
    Ok(())
}

/// Rejects an `iterations`-long run of `c` that `scheme` cannot issue:
/// one that is not a whole number of the scheme's granules, or a
/// coarsened one of a graph whose iterations must stay serial. The
/// executor and the static verifier share it.
pub(crate) fn check_iterations(c: &Compiled, scheme: Scheme, iterations: u64) -> Result<()> {
    check_granule(scheme, iterations)?;
    if scheme_shape(scheme).0 > 1
        && !matches!(scheme, Scheme::Serial { .. })
        && instances::requires_serial_iterations(&c.graph)
    {
        return Err(Error::Api(
            "stateful filters and feedback loops cannot be coarsened: \
             sub-firing interleaving would break their cross-iteration \
             serial order (run with coarsening 1)"
                .into(),
        ));
    }
    Ok(())
}

/// Rejects a schedule the pipelined walk cannot index: one that does not
/// cover every instance, or places one off the device. Only a schedule
/// read back from outside the program (a disk cache entry) can be; the
/// static verifier reports every finer fault.
fn check_shape(c: &Compiled) -> Result<()> {
    let (s, n, sms) = (&c.schedule, c.ig.len(), c.device.num_sms);
    let covers = [s.sm_of.len(), s.offset.len(), s.stage.len()] == [n; 3];
    if covers && s.sm_of.iter().all(|&sm| sm < sms) {
        return Ok(());
    }
    Err(Error::Api(format!(
        "schedule does not place each of the {n} instances on one of {sms} SMs"
    )))
}

/// What every instance of one node launches with, besides the graph's
/// kernel for it ([`Kernels`]).
#[derive(Debug)]
struct NodeLaunch {
    threads: u32,
    /// The channel behind each input (output) port; `None` is the
    /// graph's external stream.
    inputs: Vec<Option<EdgeId>>,
    outputs: Vec<Option<EdgeId>>,
    /// Stage the working set through shared memory: the scheme stages and
    /// the window fits at `threads`.
    staging: bool,
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

/// What [`Prepared::run_loop`] does with each launch of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loop {
    /// Every launch on the simulator, over the input written to device
    /// memory, with the outputs read back ([`simulate`]).
    Simulate,
    /// Every launch priced from its kernels' walks
    /// ([`Gpu::price_memoized`], one [`InstanceBills`] for the loop): no
    /// input written, no init phase fired, no output read. The caller
    /// fires the outputs on the host. Only for a value-oblivious
    /// artifact, whose launches read no value.
    Price,
    /// A scaled measurement ([`measure`]): priced as [`Loop::Price`] when
    /// the artifact is value-oblivious, else simulated, and extrapolated
    /// over the steady window.
    Measure,
}

/// A run's launch loop, done ([`Prepared::run_loop`]).
struct Looped {
    run: GpuRun,
    /// The input tokens the run required.
    input_tokens: u64,
    /// The loop's instance bills and tape replays
    /// ([`InstanceBills::counts`]); zero for a simulated loop.
    #[cfg(test)]
    bills: (u64, u64),
}

/// Kept bills per prepared artifact; the oldest goes first when one more
/// would not fit. Counted over ten-second runs of every benchmark
/// workload, no prepared artifact met more than three run shapes
/// (`serve_steady`; two on `fleet_storm`) and none dropped a bill.
const KEPT_BILLS: usize = 16;

/// What a fault-free run's bill depends on besides the artifact: every
/// [`RunOptions`] field a fault-free run reads, and its length.
#[derive(Debug, Clone, PartialEq)]
struct BillKey {
    iterations: u64,
    /// The execution device and slice offset.
    placement: Option<(DeviceConfig, u32)>,
    graph_dispatch: bool,
    checkpoint: CheckpointSpec,
}

impl BillKey {
    fn of(iterations: u64, opts: &RunOptions) -> BillKey {
        BillKey {
            iterations,
            placement: (opts.placement.as_ref()).map(|p| (p.device.clone(), p.base_sm)),
            graph_dispatch: opts.graph_dispatch,
            checkpoint: opts.checkpoint,
        }
    }
}

/// The bill of a priced fault-free run: its [`GpuRun`] without the
/// outputs, and the input tokens it required.
#[derive(Debug)]
struct Bill {
    key: BillKey,
    run: GpuRun,
    input_tokens: u64,
}

/// Everything about running one artifact under one scheme that is a pure
/// function of the artifact: the port wiring and staging decision of every
/// node, the launch enumeration, the captured steady graph and the
/// canonical buffer plan, and — derived when first needed — the dataflow
/// firing plans and the bills of fault-free runs. The kernels it launches
/// are the graph's, decoded once per work function and shared with the
/// profiler and every other prepared form of the graph.
/// Built once ([`crate::pipeline::ResilientCompiled`] keeps it), then
/// every run — and the static verifier, which must enumerate the very
/// launches the executor issues — reads it; what a run still derives is
/// what depends on the job (device memory, values, fault draws).
#[derive(Debug)]
pub struct Prepared {
    /// [`source_digest`] of the artifact a [`Prepared::new`] prepared:
    /// [`Prepared::execute`] runs no other. `None` inside the crate,
    /// whose every prepared form stays beside its artifact.
    source: Option<u64>,
    scheme: Scheme,
    nodes: Vec<NodeLaunch>,
    walk: Walk,
    plan: BufferPlan,
    /// Derived by the first run: the verifier prepares artifacts too and
    /// never fires their init phase.
    init: OnceLock<FiringPlan>,
    /// One granule of steady iterations fired on the host, derived by the
    /// first fault-free run of a value-oblivious artifact; `None` when it
    /// cannot stand in for the simulator ([`Prepared::steady_plan`]).
    steady: OnceLock<Option<FiringPlan>>,
    /// Bills of priced fault-free runs of a value-oblivious artifact,
    /// oldest first ([`Prepared::run`]).
    bills: Mutex<Vec<Bill>>,
}

impl Prepared {
    /// Prepares `c` to run under `scheme` through [`Prepared::execute`],
    /// which refuses every other artifact.
    ///
    /// # Errors
    ///
    /// [`Error::Api`] for a schedule that does not place every instance
    /// on the device (only one read back from outside the program can
    /// fail so); a cyclic graph under the serial scheme.
    pub fn new(c: &Compiled, scheme: Scheme) -> Result<Prepared> {
        Ok(Prepared {
            source: Some(source_digest(c)),
            ..Prepared::of(c, scheme)?
        })
    }

    /// [`Prepared::new`] without the digest, for a caller that keeps the
    /// prepared form beside `c`.
    pub(crate) fn of(c: &Compiled, scheme: Scheme) -> Result<Prepared> {
        let (granule, kind) = scheme_shape(scheme);
        let staged = !matches!(scheme, Scheme::SwpRaw { .. });
        let nodes = (c.graph.nodes().iter().enumerate())
            .map(|(v, node)| {
                let threads = c.exec_cfg.threads[v];
                NodeLaunch {
                    threads,
                    inputs: c.graph.input_wiring(NodeId(v as u32)),
                    outputs: c.graph.output_wiring(NodeId(v as u32)),
                    staging: staged && staging_fits(&node.work, threads, &c.device),
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
                check_shape(c)?;
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
            source: None,
            scheme,
            nodes,
            walk,
            plan: plan::plan(&c.graph, &c.ig, sched, granule, kind),
            init: OnceLock::new(),
            steady: OnceLock::new(),
            bills: Mutex::new(Vec::new()),
        })
    }

    /// The artifact's initialization schedule.
    fn init_plan(&self, c: &Compiled) -> &FiringPlan {
        (self.init).get_or_init(|| FiringPlan::init(&c.graph, &c.ig, &c.exec_cfg))
    }

    /// One granule of steady iterations as a firing plan, from where the
    /// init phase leaves the channels; `None` when either stalls.
    fn steady_plan(&self, c: &Compiled) -> Option<&FiringPlan> {
        let derive = || {
            let init = self.init_plan(c);
            let window = u64::from(self.granule());
            let steady = FiringPlan::steady(&c.graph, &c.ig, &c.exec_cfg, init, window);
            (!init.stalls() && !steady.stalls()).then_some(steady)
        };
        self.steady.get_or_init(derive).as_ref()
    }

    pub(crate) fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The scheme's iteration granule: basic iterations per launch (SWP
    /// family) or per batch (serial).
    pub(crate) fn granule(&self) -> u32 {
        scheme_shape(self.scheme).0
    }

    /// The pipeline schedule the launches and the plan follow: `c`'s, or
    /// `None` for the serial walk, which plans its buffers without one
    /// (stage span zero by construction).
    pub(crate) fn schedule<'c>(&self, c: &'c Compiled) -> Option<&'c Schedule> {
        self.capture().map(|_| &c.schedule)
    }

    /// The steady window's captured graph; `None` for the serial walk.
    pub(crate) fn capture(&self) -> Option<&CapturedGraph> {
        match &self.walk {
            Walk::Swp { capture, .. } => Some(capture),
            Walk::Serial { .. } => None,
        }
    }

    /// The canonical (no replay slack) buffer plan.
    pub(crate) fn plan(&self) -> &BufferPlan {
        &self.plan
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
    pub(crate) fn for_each_instance<'c>(
        &self,
        c: &'c Compiled,
        buffers: &ProgramBuffers,
        ordinal: u64,
        iterations: u64,
        mut visit: impl FnMut(usize, NodeId, InstanceExec<'c>),
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
            // Every instance of the node over one batch in (batch, k)
            // order, round-robin over the SMs; a stateful node's all on
            // one, which runs them in that order.
            Walk::Serial { topo } => {
                let (node, batch_no) = serial_step(topo, ordinal);
                let blocks = if c.graph.node(node).work.is_stateful() {
                    1
                } else {
                    c.device.num_sms as usize
                };
                let mut slot = 0usize;
                for sub in 0..granule {
                    let b = batch_no * granule + sub;
                    for k in 0..c.ig.reps[node.0 as usize] {
                        visit(slot % blocks, node, self.instance(c, buffers, node, k, b));
                        slot += 1;
                    }
                }
            }
        }
    }

    /// Instance `k` of `node` at basic iteration `b`: the node's prepared
    /// launch shape with every port bound at that iteration.
    fn instance<'c>(
        &self,
        c: &'c Compiled,
        buffers: &ProgramBuffers,
        node: NodeId,
        k: u32,
        b: u64,
    ) -> InstanceExec<'c> {
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
            kernel: Kernels::of(&c.graph).node(node.0 as usize),
            active_threads: n.threads,
            inputs: n.inputs.iter().map(input).collect(),
            outputs: n.outputs.iter().map(output).collect(),
            shared_staging: n.staging,
            state_base: buffers.state_base[node.0 as usize],
            label: Some((&c.graph.node(node).name, k)),
        }
    }

    fn launch<'c>(
        &self,
        c: &'c Compiled,
        buffers: &ProgramBuffers,
        ordinal: u64,
        iterations: u64,
        sm_offset: u32,
    ) -> Launch<'c> {
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

    /// [`execute_with`] the artifact [`Prepared::new`] prepared. A
    /// fault-free run of an artifact whose kernels are all
    /// value-oblivious ([`gpusim::Kernel::value_oblivious`]) bills the
    /// same whatever values it moves: the first run of each shape
    /// (iterations, placement, graph dispatch, checkpoint selection) is
    /// priced from the kernels' walks and keeps its bill, every later one
    /// returns that bill, and each fires its outputs on the host.
    ///
    /// # Errors
    ///
    /// [`Error::Api`] when `c` is not that artifact; otherwise as for
    /// [`execute`].
    pub fn execute(
        &self,
        c: &Compiled,
        iterations: u64,
        input: &[Scalar],
        opts: &RunOptions,
    ) -> Result<GpuRun> {
        if self.source != Some(source_digest(c)) {
            return Err(Error::Api(
                "a prepared form runs only the artifact it was prepared from".into(),
            ));
        }
        self.run(c, iterations, input, opts)
    }

    /// Executes `iterations` basic steady iterations of `c`.
    ///
    /// A fault-free run of a value-oblivious artifact
    /// ([`Kernels::value_oblivious`]) whose firing plans do not stall
    /// bills the same whatever values it moves. The first of each shape
    /// ([`BillKey`]) prices its launch loop ([`Loop::Price`]) and keeps
    /// the bill; each later one returns that bill. Either way the outputs
    /// come from the dataflow firing plans ([`FiringPlan`]), not the
    /// device. Any other run is simulated.
    ///
    /// Fails as the simulator fails: a priced run makes every check the
    /// simulated one makes before its first launch, in the same order,
    /// and a kept bill's key fixes every check before the input's length
    /// (the kept run passed them). No input makes a value-oblivious
    /// kernel trap or outrun the watchdog, and a launch the walk cannot
    /// price runs.
    pub(crate) fn run(
        &self,
        c: &Compiled,
        iterations: u64,
        input: &[Scalar],
        opts: &RunOptions,
    ) -> Result<GpuRun> {
        let steady = if opts.fault_plan.is_none() && Kernels::of(&c.graph).value_oblivious() {
            self.steady_plan(c)
        } else {
            None
        };
        let Some(steady) = steady else {
            return Ok(self.run_loop(c, iterations, input, Loop::Simulate, opts)?.run);
        };
        let key = BillKey::of(iterations, opts);
        let bill = match self.kept(&key) {
            Some((bill, input_tokens)) => {
                check_input_len(input_tokens, input)?;
                bill
            }
            None => {
                let looped = self.run_loop(c, iterations, input, Loop::Price, opts)?;
                self.keep(key, &looped.run, looped.input_tokens);
                looped.run
            }
        };
        let mut fired = (self.init_plan(c)).run(&c.graph, input, InitState::start(&c.graph))?;
        for _ in 0..iterations / u64::from(self.granule()) {
            fired = steady.run(&c.graph, input, fired)?;
        }
        Ok(GpuRun {
            outputs: fired.output,
            ..bill
        })
    }

    /// The kept bill of a run shaped `key`, with the input tokens it
    /// required.
    fn kept(&self, key: &BillKey) -> Option<(GpuRun, u64)> {
        (self.bills.lock().expect("bills"))
            .iter()
            .find(|b| b.key == *key)
            .map(|b| (b.run.clone(), b.input_tokens))
    }

    /// Keeps the bill of a priced run shaped `key`.
    fn keep(&self, key: BillKey, run: &GpuRun, input_tokens: u64) {
        let mut bills = self.bills.lock().expect("bills");
        if bills.iter().any(|b| b.key == key) {
            return;
        }
        if bills.len() == KEPT_BILLS {
            bills.remove(0);
        }
        let run = GpuRun {
            outputs: Vec::new(),
            ..run.clone()
        };
        bills.push(Bill {
            key,
            run,
            input_tokens,
        });
    }

    /// Runs the launch loop of `iterations` basic steady iterations of
    /// `c` as `how` says.
    fn run_loop(
        &self,
        c: &Compiled,
        iterations: u64,
        input: &[Scalar],
        how: Loop,
        opts: &RunOptions,
    ) -> Result<Looped> {
        let scaled = how == Loop::Measure;
        check_iterations(c, self.scheme, iterations)?;
        let (granule, kind) = scheme_shape(self.scheme);
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
            let sched = self.schedule(c);
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
        // The allocation covers init + iterations (+ peek slack); the
        // caller must fill everything but the slack.
        let input_tokens = buffers.input.as_ref().map_or(0, |io| io.tokens);
        check_input_len(input_tokens, input)?;
        // A priced loop writes no input and fires no init phase: no
        // launch reads a value.
        let priced = match how {
            Loop::Simulate => false,
            Loop::Price => true,
            Loop::Measure => Kernels::of(&c.graph).value_oblivious(),
        };
        let mut init_out = Vec::new();
        if !priced {
            let start = InitState::start(&c.graph);
            let init = (self.init_plan(c)).run(&c.graph, input, start)?;
            init_out = buffers.seed_init_state(&mut gpu, &c.ig, init);
            if buffers.input.is_some() {
                buffers.write_input(&mut gpu, input);
            }
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
        if let Some(capture) = self.capture().filter(|_| !replayed.is_empty()) {
            let cost = gpu
                .timing()
                .graph_capture_cycles(capture.node_count(), capture.edge_count());
            billed.graph_captures += 1;
            billed.graph_capture_cycles += cost;
            billed.cycles += cost;
            billed.time_secs += gpu.timing().secs(cost);
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
        seq.bills = priced.then(InstanceBills::default);

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
                seq.extrapolate(&sample);
                ordinal += sampled.end - sampled.start;
                continue;
            }
            let stats = seq
                .issue(ordinal)
                .map_err(|e| e.in_context(self.context(c, ordinal)))?;
            if sampled.contains(&ordinal) {
                sample.merge(&stats);
            } else if (sampled.end..skipped.start).contains(&ordinal) && !identical(&stats, &sample)
            {
                return Err(Error::Api(format!(
                    "scaled measurement needs counter-identical steady launches \
                     (data-independent control flow), but launch {ordinal} differs \
                     from sampled launch {}",
                    sampled.start
                )));
            }
            ordinal += 1;
        }
        #[cfg(test)]
        let bills = (seq.bills.as_ref()).map_or((0, 0), InstanceBills::counts);
        let (totals, trace) = seq.finish();

        let outputs = if how == Loop::Simulate {
            collect_output(c, &buffers, &gpu, iterations, init_out)
        } else {
            Vec::new()
        };
        let run = GpuRun {
            outputs,
            time_secs: totals.time_secs,
            launches,
            retries: totals.retries,
            buffer_bytes: plan.total_bytes(),
            checkpoint_mode: mode,
            checkpoint_interval: interval,
            launch_cycles: if scaled { Vec::new() } else { trace },
            stats: totals,
        };
        Ok(Looped {
            run,
            input_tokens,
            #[cfg(test)]
            bills,
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
/// When every kernel of `c` is value-oblivious
/// ([`gpusim::Kernel::value_oblivious`]), the launches are priced from their
/// abstract walks ([`gpusim::Gpu::price_dispatched`]) rather than
/// simulated, with bit-identical stats: no input token is written and no
/// init phase fires. A launch the walk cannot price exactly still runs.
///
/// The returned [`GpuRun::outputs`] is empty (skipped iterations leave
/// the output buffer undefined); use [`execute`] when outputs matter.
///
/// # Errors
///
/// As for [`execute`].
pub fn measure(c: &Compiled, scheme: Scheme, iterations: u64, input: &[Scalar]) -> Result<GpuRun> {
    let opts = RunOptions::default();
    let looped = Prepared::of(c, scheme)?.run_loop(c, iterations, input, Loop::Measure, &opts)?;
    Ok(looped.run)
}

/// Input tokens [`measure`] needs: enough for the initialization phase
/// plus the simulated window (fill + verification launches).
#[must_use]
pub fn measure_input(c: &Compiled, scheme: Scheme) -> u64 {
    let window = (c.schedule.max_stage() + 4) * u64::from(scheme_shape(scheme).0);
    required_input(c, window)
}

/// Two launches' stats agree in every counter, and in their cycles bit
/// for bit.
fn identical(a: &LaunchStats, b: &LaunchStats) -> bool {
    let bits = |s: &LaunchStats| {
        let per_sm = s.per_sm_cycles.iter().map(|c| c.to_bits());
        (s.cycles.to_bits(), per_sm.collect::<Vec<_>>())
    };
    a == b && bits(a) == bits(b)
}

/// A digest of everything in `c` a prepared form and its bills derive
/// from: the graph's content, the execution configuration, the schedule,
/// the device and the timing model (the instance model follows from the
/// graph and the configuration).
fn source_digest(c: &Compiled) -> u64 {
    let mut h = Fnv::resume(c.graph.content_hash());
    h.str_args(format_args!(
        "{:?} {:?} {:?} {:?}",
        c.exec_cfg, c.schedule, c.device, c.timing
    ));
    h.finish()
}

fn check_input_len(needed: u64, input: &[Scalar]) -> Result<()> {
    if (input.len() as u64) < needed {
        return Err(Error::Stream(streamir::Error::InsufficientInput {
            needed: needed as usize,
            got: input.len(),
        }));
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
    use gpusim::Kernel;
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

    /// `iir → window`: a stateful filter (`y = y / 2 + x`) feeding a
    /// 3-tap peeking window.
    fn iir_window() -> StreamSpec {
        let mut iir = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let y = iir.state(ElemTy::I32, Scalar::I32(5));
        let x = iir.local(ElemTy::I32);
        iir.pop_into(0, x);
        iir.store_state(y, Expr::state(y).div(Expr::i32(2)).add(Expr::local(x)));
        iir.push(0, Expr::state(y));
        let mut window = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let sum = Expr::peek(0, Expr::i32(0)).add(Expr::peek(0, Expr::i32(2)));
        window.push(0, sum);
        window.pop(0);
        StreamSpec::pipeline(vec![
            StreamSpec::filter(FilterSpec::new("iir", iir.build().unwrap())),
            StreamSpec::filter(FilterSpec::new("window", window.build().unwrap())),
        ])
    }

    /// Every kernel of `c` is value-oblivious: runs reuse bills and
    /// measurements price.
    fn priced(c: &Compiled) -> bool {
        Kernels::of(&c.graph).value_oblivious()
    }

    /// Compiles, runs CPU + the given scheme for `iters` iterations on
    /// the simulator (the scheme's walk, bindings and staging shape only
    /// a simulated run's outputs), and asserts bit-identical output
    /// streams.
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

        let input = &input_full[..total_in as usize];
        let run = simulate(&c, scheme, iters, input, &RunOptions::default()).unwrap();

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

    /// A stateful filter's instances run in order under the serial walk
    /// too, so its output is the CPU reference's.
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
        for batch in [1, 2] {
            assert_gpu_matches_cpu(&iir_window(), Scheme::Serial { batch }, 4);
        }
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
        // A varying divisor: measurement runs the launches too, and traps
        // where execution does.
        assert!(!priced(&c));
        let trap = |scheme| {
            let e = execute(&c, scheme, 2, &threes).unwrap_err().to_string();
            assert_eq!(measure(&c, scheme, 2, &threes).unwrap_err().to_string(), e);
            e
        };
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

    #[test]
    fn scaled_measurement_rejects_steady_launches_that_differ() {
        // `gate` only multiplies nonzero tokens. Iteration 0 (the sampled
        // launch) pops zeros, iteration 1 (the launch simulated to verify
        // it) pops ones, so the branch diverges only in the second.
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = b.local(ElemTy::I32);
        b.pop_into(0, x);
        let triple = streamir::ir::Stmt::Assign(x, Expr::local(x).mul(Expr::i32(3)));
        b.if_else(Expr::local(x).ne(Expr::i32(0)), vec![triple], vec![]);
        b.push(0, Expr::local(x));
        let spec = StreamSpec::filter(FilterSpec::new("gate", b.build().unwrap()));
        let c = compile(&spec.flatten().unwrap(), &CompileOptions::small_test()).unwrap();
        let scheme = Scheme::Swp { coarsening: 1 };
        assert!(!priced(&c), "a varying branch runs");
        let first = required_input(&c, 1);
        let input: Vec<Scalar> = (0..measure_input(&c, scheme))
            .map(|i| Scalar::I32(i32::from(i >= first)))
            .collect();
        let e = measure(&c, scheme, 64, &input).unwrap_err();
        assert_eq!(
            e.to_string(),
            "api misuse: scaled measurement needs counter-identical steady launches \
             (data-independent control flow), but launch 1 differs from sampled launch 0"
        );
        let zeros = vec![Scalar::I32(0); input.len()];
        assert!(measure(&c, scheme, 64, &zeros).is_ok());
    }

    /// The kernel each instance of every launch of a short run of `p`
    /// hands out, by node.
    fn launched<'c>(p: &Prepared, c: &'c Compiled) -> Vec<(NodeId, &'c Kernel)> {
        let iters = u64::from(p.granule()) * (c.schedule.max_stage() + 1);
        let mut gpu = Gpu::with_timing(c.device.clone(), c.timing.clone());
        let buffers =
            codegen::allocate(&mut gpu, &c.graph, &c.ig, &c.exec_cfg, p.plan(), iters).unwrap();
        let mut kernels = Vec::new();
        for r in 0..p.launch_count(c, iters) {
            p.for_each_instance(c, &buffers, r, iters, |_, v, inst| {
                kernels.push((v, inst.kernel));
            });
        }
        kernels
    }

    /// Nodes with one work function share one decoded kernel, the graph's
    /// ([`Kernels`]), and the shared kernels still compute the CPU
    /// reference's bytes. On every suite graph, the table the profiler
    /// prices from is the one every artifact's clone of the graph reads:
    /// prepared forms under SWP, SWPNC, Serial and SWP8 at two slice
    /// widths, and an artifact reloaded from the disk tier, launch its
    /// kernels, one per work class. The tables hold the suite's 113
    /// distinct work functions.
    #[test]
    fn nodes_with_one_work_function_share_one_kernel() {
        let double = |name| map_filter(name, |x| x.mul(Expr::i32(2)));
        let spec = StreamSpec::pipeline(vec![
            double("a"),
            double("b"),
            map_filter("c", |x| x.add(Expr::i32(1))),
            double("d"),
        ]);
        let graph = spec.flatten().unwrap();
        let k = Kernels::of(&graph);
        assert!(std::ptr::eq(k.node(0), k.node(1)) && std::ptr::eq(k.node(0), k.node(3)));
        assert!(!std::ptr::eq(k.node(0), k.node(2)));
        assert_eq!(k.classes.len(), 2);
        assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 1 }, 4);

        use crate::pipeline::FaultPolicy;
        use crate::serve::cache::{ArtifactStore, CacheOptions};
        use crate::serve::{pipeline_options_for, Pressure, ServeOptions};
        let serving = |sms| {
            let serve = ServeOptions::default();
            pipeline_options_for(&serve, sms, Pressure::Nominal, FaultPolicy::Throughput)
        };
        let dir = std::env::temp_dir().join(format!("swpipe-kernels-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = || {
            ArtifactStore::new(CacheOptions {
                capacity: 8,
                disk_dir: Some(dir.clone()),
            })
        };
        let (mut writer, mut reader) = (store(), store());
        let mut decoded = 0;
        for b in streambench::suite() {
            let graph = b.spec.flatten().unwrap();
            let table = Kernels::of(&graph);
            decoded += table.classes.len();
            let same = |v: NodeId, k: &Kernel| std::ptr::eq(k, table.node(v.0 as usize));
            let one_per_class = |kernels: Vec<(NodeId, &Kernel)>, ctx: &str| {
                assert!(kernels.iter().all(|&(v, k)| same(v, k)), "{} {ctx}", b.name);
                let mut distinct: Vec<*const Kernel> =
                    kernels.iter().map(|&(_, k)| k as _).collect();
                distinct.sort();
                distinct.dedup();
                assert_eq!(distinct.len(), table.classes.len(), "{} {ctx}", b.name);
            };
            for sms in [1, 2] {
                let c = compile(&graph, &serving(sms).compile).unwrap();
                assert!(std::ptr::eq(Kernels::of(&c.graph), table), "{}", b.name);
                for scheme in [
                    Scheme::Swp { coarsening: 1 },
                    Scheme::SwpNc { coarsening: 1 },
                    Scheme::Serial { batch: 1 },
                    Scheme::Swp { coarsening: 8 },
                ] {
                    let p = Prepared::new(&c, scheme).unwrap();
                    one_per_class(launched(&p, &c), &format!("{scheme:?} on {sms} SMs"));
                }
            }
            let opts = serving(2);
            let served = |store: &mut ArtifactStore| {
                store
                    .get_or_compile(&graph, &opts, gpusim::DeviceId(0), &[0])
                    .unwrap()
            };
            assert!(!served(&mut writer).1, "{}: compiled", b.name);
            let (reloaded, hit) = served(&mut reader);
            assert!(hit, "{}: reloaded", b.name);
            let c = &reloaded.compiled;
            one_per_class(launched(&reloaded.prepared, c), "reloaded");
        }
        assert_eq!(reader.cache_stats().disk_loads, 8);
        assert_eq!(decoded, 113);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A launch that rejects an instance of a prepared artifact names it
    /// `name[k]`: here the stateful `iir`'s sixth instance in its serial
    /// launch, widened to two threads.
    #[test]
    fn a_rejected_instance_is_named_by_filter_and_index() {
        let c = compile(
            &iir_window().flatten().unwrap(),
            &CompileOptions::small_test(),
        )
        .unwrap();
        let p = Prepared::new(&c, Scheme::Serial { batch: 1 }).unwrap();
        let mut gpu = Gpu::with_timing(c.device.clone(), c.timing.clone());
        let buffers = codegen::allocate(&mut gpu, &c.graph, &c.ig, &c.exec_cfg, p.plan(), 1);
        let mut launch = p.launch(&c, &buffers.unwrap(), 0, 1, 0);
        assert!(launch.blocks[0].items.len() > 5, "iir has more instances");
        launch.threads_per_block = 2;
        launch.blocks[0].items[5].active_threads = 2;
        assert_eq!(
            gpu.run(&launch).unwrap_err().to_string(),
            "infeasible launch configuration: instance iir[5] is stateful and must run \
             single-threaded, got 2"
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

    /// On the simulator, whose outputs depend on the launches each
    /// dispatch path sends.
    #[test]
    fn graph_dispatch_is_byte_identical_and_cheaper() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let host = simulate(&c, scheme, iters, &input, &RunOptions::default()).unwrap();
        let opts = RunOptions {
            graph_dispatch: true,
            ..RunOptions::default()
        };
        let replayed = simulate(&c, scheme, iters, &input, &opts).unwrap();
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
        let serial = Scheme::Serial { batch: 1 };
        let serial_host = simulate(&c, serial, iters, &input, &RunOptions::default()).unwrap();
        let serial_graph = simulate(&c, serial, iters, &input, &opts).unwrap();
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

    /// Every launch of every suite artifact under SWP, SWPNC and Serial,
    /// priced and run over the buffers the run allocates: the stats agree
    /// bit for bit. Every artifact but DES, whose S-boxes index by data,
    /// is priced.
    #[test]
    fn every_suite_launch_prices_as_it_runs() {
        for b in streambench::suite() {
            let graph = b.spec.flatten().unwrap();
            let c = compile(&graph, &CompileOptions::small_test()).unwrap();
            let schemes = [
                Scheme::Swp { coarsening: 1 },
                Scheme::SwpNc { coarsening: 1 },
                Scheme::Serial { batch: 1 },
            ];
            for scheme in schemes {
                let ctx = format!("{} under {scheme:?}", b.name);
                let p = Prepared::new(&c, scheme).unwrap();
                assert_eq!(priced(&c), b.name != "DES", "{ctx}");
                let reuses = priced(&c) && p.steady_plan(&c).is_some();
                assert_eq!(
                    reuses,
                    b.name != "DES",
                    "{ctx}: fault-free runs reuse bills"
                );
                let iters = c.schedule.max_stage() + 2;
                let input = (b.input)(required_input(&c, iters) as usize);
                let mut gpu = Gpu::with_timing(c.device.clone(), c.timing.clone());
                let buffers =
                    codegen::allocate(&mut gpu, &c.graph, &c.ig, &c.exec_cfg, p.plan(), iters)
                        .unwrap();
                let start = InitState::start(&c.graph);
                let init = (p.init_plan(&c)).run(&c.graph, &input, start);
                buffers.seed_init_state(&mut gpu, &c.ig, init.unwrap());
                buffers.write_input(&mut gpu, &input);
                for r in 0..p.launch_count(&c, iters) {
                    let launch = p.launch(&c, &buffers, r, iters, 0);
                    let ran = gpu.run(&launch).expect(&ctx);
                    let priced = gpu.price_dispatched(&launch, Dispatch::HostLaunch);
                    assert!(identical(&priced.expect(&ctx), &ran), "{ctx}, launch {r}");
                }
            }
        }
    }

    /// [`measure`]'s launch loop over `c`, by hand: every launch it
    /// prices, in issue order, each priced both through one memo for the
    /// whole loop and through a fresh memo of its own, which must agree
    /// bit for bit. Returns the fresh-memo loop's totals, folded as
    /// [`Prepared::simulate`] folds them, and the shared memo's instance
    /// bills and tape replays.
    fn measured_by_hand(c: &Compiled, p: &Prepared, iterations: u64) -> (LaunchStats, (u64, u64)) {
        let granule = u64::from(scheme_shape(p.scheme).0);
        let alloc_iters = iterations.min((c.schedule.max_stage() + 4) * granule);
        let mut gpu = Gpu::with_timing(c.device.clone(), c.timing.clone());
        let buffers = codegen::allocate(
            &mut gpu,
            &c.graph,
            &c.ig,
            &c.exec_cfg,
            p.plan(),
            alloc_iters,
        )
        .unwrap();
        let launches = p.launch_count(c, iterations);
        let (sampled, skipped) = p.extrapolation(c, iterations).unwrap();
        let mut bills = InstanceBills::default();
        let (mut totals, mut sample) = (LaunchStats::default(), LaunchStats::default());
        let mut ordinal = 0;
        while ordinal < launches {
            if skipped.contains(&ordinal) {
                totals.merge(&sample);
                ordinal += sampled.end - sampled.start;
                continue;
            }
            let launch = p.launch(c, &buffers, ordinal, iterations, 0);
            let dispatch = Dispatch::HostLaunch;
            let fresh = gpu.price_memoized(&launch, dispatch, &mut InstanceBills::default());
            let shared = gpu.price_memoized(&launch, dispatch, &mut bills);
            let (fresh, shared) = (fresh.unwrap(), shared.unwrap());
            assert!(identical(&fresh, &shared), "launch {ordinal}");
            if sampled.contains(&ordinal) {
                sample.merge(&fresh);
            }
            totals.merge(&fresh);
            ordinal += 1;
        }
        (totals, bills.counts())
    }

    /// A scaled measurement of each value-oblivious suite artifact at the
    /// paper's scaled configuration, under SWP8, SWPNC and SwpRaw, bills
    /// through its loop's one memo what the same loop bills with a fresh
    /// memo per launch: every counter, and the cycles bit for bit. The
    /// memo's instance bills and tape replays are pinned, so a change to
    /// the work a measurement does shows as a diff of counts.
    #[test]
    fn a_scaled_measurement_bills_each_placement_once() {
        let opts = crate::harness::HarnessOptions::paper_scaled();
        let schemes = [
            ("SWP8", Scheme::Swp { coarsening: 8 }),
            ("SWPNC", Scheme::SwpNc { coarsening: 8 }),
            ("SwpRaw", Scheme::SwpRaw { coarsening: 8 }),
        ];
        let mut got = Vec::new();
        for b in streambench::suite().into_iter().filter(|b| b.name != "DES") {
            let graph = b.spec.flatten().unwrap();
            let c = compile(&graph, &opts.compile).unwrap();
            assert!(priced(&c), "{}", b.name);
            for (label, scheme) in schemes {
                let input = (b.input)(measure_input(&c, scheme) as usize);
                let run = measure(&c, scheme, opts.iterations, &input).unwrap();
                let p = Prepared::of(&c, scheme).unwrap();
                let (totals, (bills, replays)) = measured_by_hand(&c, &p, opts.iterations);
                assert!(identical(&run.stats, &totals), "{} {label}", b.name);
                got.push((b.name, label, bills, replays));
            }
        }
        // Per artifact: instance bills and tape replays, the same under
        // every scheme.
        let want = [
            ("Bitonic", 9_936, 1_336),
            ("BitonicRec", 11_040, 1_392),
            ("DCT", 17_264, 3_016),
            ("FFT", 3_136, 680),
            ("Filterbank", 18_944, 18_304),
            ("FMRadio", 7_568, 5_456),
            ("MatrixMult", 11_304, 3_760),
        ];
        let want: Vec<_> = (want.iter())
            .flat_map(|&(name, bills, replays)| {
                (schemes.iter()).map(move |&(label, _)| (name, label, bills, replays))
            })
            .collect();
        assert_eq!(got, want);
    }

    /// One `exec_steady`-shaped pass over the suite, each artifact run as
    /// [`execute_with`] runs it: a fresh prepared form, SWP8 (coarsening 1
    /// for a graph whose iterations must stay serial) for its pipeline
    /// depth plus four rounds, graph dispatch, fault-free. Seven runs are
    /// priced, keeping their bills, and one, DES's, is simulated and keeps
    /// none. Each priced loop's instance bills and tape replays are
    /// pinned, so a change to the work a first run does shows as a diff of
    /// counts. A second run of the same prepared form keeps no new bill.
    #[test]
    fn an_exec_steady_pass_prices_seven_runs_and_simulates_des() {
        let opts = RunOptions {
            graph_dispatch: true,
            ..RunOptions::default()
        };
        let mut got = Vec::new();
        for b in streambench::suite() {
            let graph = b.spec.flatten().unwrap();
            let c = compile(&graph, &CompileOptions::small_test()).unwrap();
            let serial = instances::requires_serial_iterations(&graph);
            let coarsening = if serial { 1 } else { 8 };
            let iters = u64::from(coarsening) * (c.schedule.max_stage() + 4);
            let input = (b.input)(required_input(&c, iters) as usize);
            let p = Prepared::of(&c, Scheme::Swp { coarsening }).unwrap();
            p.run(&c, iters, &input, &opts).unwrap();
            let priced = kept(&p) == 1;
            p.run(&c, iters, &input, &opts).unwrap();
            assert_eq!(kept(&p), usize::from(priced), "{}", b.name);
            let counts = priced.then(|| {
                let looped = p.run_loop(&c, iters, &input, Loop::Price, &opts);
                looped.unwrap().bills
            });
            got.push((b.name, counts));
        }
        let want = [
            ("Bitonic", Some((10_800, 1_576))),
            ("BitonicRec", Some((11_040, 1_968))),
            ("DCT", Some((19_920, 6_192))),
            ("DES", None),
            ("FFT", Some((3_584, 896))),
            ("Filterbank", Some((9_408, 8_768))),
            ("FMRadio", Some((6_240, 3_936))),
            ("MatrixMult", Some((15_072, 7_056))),
        ];
        assert_eq!(got, want);
    }

    /// One steady SWP launch of each suite artifact at the paper's scaled
    /// configuration, priced (DES runs): its busiest SM's cycles against
    /// that SM's planned load, Σ d(v) × [`crate::profile::TIME_UNIT_CYCLES`]
    /// over the instances the schedule put there, and the filters it
    /// holds. The busiest planned SM is `II` time units in every case. On
    /// DCT, FFT and MatrixMult a producer whose pushes the consumer's rate
    /// transposes runs several times the time its profile gave it.
    #[test]
    fn the_busiest_sm_of_a_steady_launch_against_its_plan() {
        let opts = crate::harness::HarnessOptions::paper_scaled();
        let scheme = Scheme::Swp { coarsening: 1 };
        let mut got = Vec::new();
        for b in streambench::suite() {
            let graph = b.spec.flatten().unwrap();
            let c = compile(&graph, &opts.compile).unwrap();
            let p = Prepared::new(&c, scheme).unwrap();
            let ordinal = c.schedule.max_stage();
            let iters = ordinal + 1;
            let mut gpu = Gpu::with_timing(c.device.clone(), c.timing.clone());
            let buffers =
                codegen::allocate(&mut gpu, &c.graph, &c.ig, &c.exec_cfg, p.plan(), iters).unwrap();
            let launch = p.launch(&c, &buffers, ordinal, iters, 0);
            let stats = gpu.price_dispatched(&launch, Dispatch::HostLaunch).unwrap();
            let mut planned = vec![0u64; c.device.num_sms as usize];
            let mut held = vec![Vec::new(); planned.len()];
            for (i, &(v, _)) in c.ig.list.iter().enumerate() {
                let sm = c.schedule.sm_of[i] as usize;
                planned[sm] += c.exec_cfg.delay[v.0 as usize];
                let name = c.graph.node(v).name.as_str();
                if !held[sm].contains(&name) {
                    held[sm].push(name);
                }
            }
            assert_eq!(planned.iter().max(), Some(&c.schedule.ii), "{}", b.name);
            // The first of the SMs that run longest.
            let per_sm = &stats.per_sm_cycles;
            let busiest =
                (0..per_sm.len()).fold(0, |m, sm| if per_sm[sm] > per_sm[m] { sm } else { m });
            let unit = crate::profile::TIME_UNIT_CYCLES;
            let ratio = per_sm[busiest] / (planned[busiest] as f64 * unit);
            got.push((
                b.name,
                busiest,
                format!("{ratio:.3}"),
                held[busiest].join(" "),
            ));
        }
        let want = [
            ("Bitonic", 2, "1.142", "split#3 ce_k8j2_b0_s0 split#6"),
            ("BitonicRec", 5, "1.070", "join join#9 mce_rr_1 split#10"),
            ("DCT", 1, "3.854", "dct_row1 join"),
            ("DES", 6, "0.997", "sbox0 roundout2 expandkey4 sbox14"),
            ("FFT", 3, "5.302", "reorder16"),
            ("Filterbank", 8, "1.059", FILTERBANK_SM8),
            (
                "FMRadio",
                0,
                "0.977",
                "front_lpf eq_hi3 eq_sub5 eq_amp6 eq_hi7",
            ),
            ("MatrixMult", 1, "7.459", "b_rep"),
        ];
        let want: Vec<_> = (want.iter())
            .map(|&(name, sm, ratio, held)| (name, sm, ratio.to_owned(), held.to_owned()))
            .collect();
        assert_eq!(got, want);
    }

    /// What Filterbank's busiest steady SM holds: both halves of every
    /// band, band 0's upsampler and the final sum.
    const FILTERBANK_SM8: &str = "analysis0 up0 synthesis0 analysis1 synthesis1 analysis2 \
        synthesis2 analysis3 synthesis3 analysis4 synthesis4 analysis5 synthesis5 analysis6 \
        synthesis6 analysis7 synthesis7 bank_sum";

    /// Bills `p` keeps.
    fn kept(p: &Prepared) -> usize {
        p.bills.lock().unwrap().len()
    }

    /// A run's output tokens, bit for bit.
    fn output_bits(run: &GpuRun) -> Vec<u32> {
        run.outputs.iter().map(|t| t.to_bits()).collect()
    }

    /// `len` input tokens of `input`, shifted by `skew` so that two skews
    /// move different values through the graph.
    fn skewed(input: fn(usize) -> Vec<Scalar>, len: u64, skew: usize) -> Vec<Scalar> {
        input(len as usize + skew).split_off(skew)
    }

    /// Runs `p` twice on different inputs: the first run keeps its bill,
    /// and the second is marked as having reused it — a bill whose launch
    /// count is off by a million shows through.
    fn second_run_reuses_the_bill(
        p: &Prepared,
        c: &Compiled,
        iters: u64,
        inputs: [&[Scalar]; 2],
        opts: &RunOptions,
    ) -> GpuRun {
        p.execute(c, iters, inputs[0], opts).unwrap();
        const MARK: u64 = 1_000_000;
        p.bills
            .lock()
            .unwrap()
            .iter_mut()
            .for_each(|b| b.run.launches += MARK);
        let mut run = p.execute(c, iters, inputs[1], opts).unwrap();
        p.bills
            .lock()
            .unwrap()
            .iter_mut()
            .for_each(|b| b.run.launches -= MARK);
        assert!(
            run.launches > MARK,
            "the second run must reuse the kept bill"
        );
        run.launches -= MARK;
        run
    }

    /// What does not keep a bill: a run under a fault plan and every run
    /// of DES (its S-boxes index by data); [`measure`] never looks for
    /// one. A stateful filter and a feedback loop do, under the pipelined
    /// and the serial walk, their batches firing on the warp core one at
    /// a time, as do seeded random graphs, and their fired outputs are
    /// the simulator's.
    #[test]
    fn faults_and_des_simulate_and_stateful_graphs_reuse_bills() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let p = Prepared::new(&c, scheme).unwrap();
        let armed = RunOptions {
            fault_plan: Some(FaultPlan::new(1)),
            ..RunOptions::default()
        };
        p.execute(&c, iters, &input, &armed).unwrap();
        assert_eq!(kept(&p), 0, "faulted runs");

        let des = streambench::suite()
            .into_iter()
            .find(|b| b.name == "DES")
            .unwrap();
        let c = compile(&des.spec.flatten().unwrap(), &CompileOptions::small_test()).unwrap();
        let p = Prepared::new(&c, scheme).unwrap();
        let input = (des.input)(required_input(&c, 2) as usize);
        p.execute(&c, 2, &input, &RunOptions::default()).unwrap();
        assert!(!priced(&c) && kept(&p) == 0, "DES");

        let mut add = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let (x, s) = (add.local(ElemTy::I32), add.local(ElemTy::I32));
        add.pop_into(0, x);
        add.pop_into(0, s);
        add.push(0, Expr::local(x).add(Expr::local(s)));
        add.push(0, Expr::local(x).sub(Expr::local(s)));
        let feedback = StreamSpec::feedback_loop(streamir::graph::FeedbackLoopSpec {
            joiner: [1, 1],
            body: Box::new(StreamSpec::filter(FilterSpec::new(
                "add",
                add.build().unwrap(),
            ))),
            splitter: SplitterKind::RoundRobin(vec![1, 1]),
            feedback: None,
            initial: vec![Scalar::I32(0)],
        });
        let ramp = |n: usize| {
            (0..n)
                .map(|i| Scalar::I32(i as i32 * 7 % 23 - 11))
                .collect()
        };
        let mut graphs = vec![
            (
                "stateful",
                iir_window().flatten().unwrap(),
                ramp as fn(usize) -> Vec<Scalar>,
            ),
            ("feedback", feedback.flatten().unwrap(), ramp),
        ];
        let random = crate::learn::dataset::random_sources(4, 0x5eed).into_iter();
        graphs.extend(random.map(|s| ("random", s.graph, s.input)));
        for (name, graph, input) in graphs {
            let c = compile(&graph, &CompileOptions::small_test()).unwrap();
            for scheme in [Scheme::Swp { coarsening: 1 }, Scheme::Serial { batch: 1 }] {
                let ctx = format!("{name} {scheme:?}");
                let p = Prepared::new(&c, scheme).unwrap();
                assert!(priced(&c), "{ctx}");
                let len = required_input(&c, 4);
                let (first, second) = (skewed(input, len, 0), skewed(input, len, 3));
                let simulated = simulate(&c, scheme, 4, &second, &RunOptions::default()).unwrap();
                let opts = RunOptions::default();
                let run = second_run_reuses_the_bill(&p, &c, 4, [&first, &second], &opts);
                assert_eq!(output_bits(&run), output_bits(&simulated), "{ctx}");
            }
        }
    }

    /// A priced first run fails as the simulator fails, through a fresh
    /// [`Prepared`] and through [`execute_with`], and the checks come in
    /// the simulator's order: a bad iteration granule before a slice that
    /// does not fit, that before input too short for the run. A fresh
    /// prepared form refuses an artifact other than its own before it
    /// runs anything. A run that reuses a bill fails on short input as
    /// the simulator does. A run the watchdog kills keeps no bill, so
    /// every later run of its shape is priced and killed the same way. A
    /// prepared form that kept a bill refuses an artifact whose clock
    /// changed.
    #[test]
    fn a_kept_bill_fails_as_the_simulator_fails() {
        let (mut c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 2 };
        assert!(priced(&c));
        let narrow = RunOptions {
            placement: Some(SmPlacement {
                device: c.device.clone(),
                base_sm: 1,
            }),
            ..RunOptions::default()
        };
        let short = &input[..input.len() - 1];
        let first_runs_fail_as_simulated = |c: &Compiled, iters, input, opts: &RunOptions| {
            let want = simulate(c, scheme, iters, input, opts).unwrap_err();
            let fresh = Prepared::new(c, scheme).unwrap();
            assert_eq!(fresh.execute(c, iters, input, opts).unwrap_err(), want);
            assert_eq!(kept(&fresh), 0);
            assert_eq!(
                execute_with(c, scheme, iters, input, opts).unwrap_err(),
                want
            );
            want
        };
        let granule = first_runs_fail_as_simulated(&c, iters + 1, short, &narrow);
        assert!(
            granule.to_string().contains("coarsening/batch factor"),
            "{granule}"
        );
        let slice = first_runs_fail_as_simulated(&c, iters, short, &narrow);
        assert!(slice.to_string().contains("does not fit"), "{slice}");
        let opts = RunOptions::default();
        let e = first_runs_fail_as_simulated(&c, iters, short, &opts);
        assert!(matches!(
            e,
            Error::Stream(streamir::Error::InsufficientInput { .. })
        ));

        let p = Prepared::new(&c, scheme).unwrap();
        let (mut other, _, _) = compiled_three_stage();
        other.timing.clock_hz *= 2.0;
        let refused = p.execute(&other, iters, &input, &opts).unwrap_err();
        assert!(matches!(refused, Error::Api(_)), "{refused}");
        assert_eq!(kept(&p), 0);
        p.execute(&c, iters, &input, &opts).unwrap();
        assert_eq!(kept(&p), 1);
        assert_eq!(p.execute(&c, iters, short, &opts).unwrap_err(), e);

        c.timing.clock_hz = 4.0;
        let stale = p.execute(&c, iters, &input, &opts).unwrap_err();
        assert!(matches!(stale, Error::Api(_)), "{stale}");
        let killed = first_runs_fail_as_simulated(&c, iters, &input, &opts);
        assert!(
            killed.to_string().contains("instruction budget"),
            "{killed}"
        );
        let p = Prepared::new(&c, scheme).unwrap();
        for _ in 0..2 {
            assert_eq!(p.execute(&c, iters, &input, &opts).unwrap_err(), killed);
            assert_eq!(kept(&p), 0);
        }
    }

    /// A watchdog budget below a launch's instructions kills a priced
    /// measurement as it kills execution: the launch runs, and the
    /// simulator's own timeout gives up after the same retries.
    #[test]
    fn a_tiny_watchdog_budget_kills_a_priced_measurement_like_a_run() {
        let (mut c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        assert!(priced(&c));
        // The budget is the instructions the clock issues in the
        // watchdog interval: a slow enough clock leaves a handful.
        c.timing.clock_hz = 4.0;
        let budget = c.timing.watchdog_budget_insts();
        assert!(budget > 0 && budget < 8, "{budget}");
        let killed = simulate(&c, scheme, iters, &input, &RunOptions::default()).unwrap_err();
        assert!(
            killed
                .to_string()
                .contains(&format!("instruction budget of {budget}")),
            "{killed}"
        );
        assert_eq!(measure(&c, scheme, iters, &input).unwrap_err(), killed);
    }
}
