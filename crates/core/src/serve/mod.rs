//! Multi-tenant stream-serving runtime.
//!
//! [`EventEngine`] accepts jobs — a stream graph, an input batch, a QoS
//! class — from named tenants and runs them on spatially-partitioned
//! slices of one simulated device:
//!
//! * **Compilation cache** ([`cache`]): content-addressed by a stable
//!   hash of the graph and every compile option; hits re-run the static
//!   verifier but never the scheduler; LRU-bounded in memory with an
//!   optional JSON disk tier.
//! * **SM partitioning** ([`partition`]): disjoint contiguous slices per
//!   tenant, demand-rebalanced from EWMA arrival-rate estimates. Slice
//!   placement is semantics-preserving: a tenant on a `k`-SM slice gets
//!   byte- and cycle-identical results to a solo `k`-SM device.
//! * **Admission control** ([`admission`]): bounded per-tenant queues
//!   with reject-and-retry-after backpressure; below the bound, queue
//!   pressure sheds *compile effort* down
//!   [`crate::pipeline::ResilientPipeline`]'s degradation ladder before
//!   it sheds jobs.
//! * **Metrics** ([`metrics`]): per-tenant throughput, p50/p99 latency,
//!   cache hit rate, slice utilization, retry rate and fault-overhead
//!   share, exported as a serializable [`ServeReport`].
//!
//! All of that state, and the per-job lifecycle over it (admit → run →
//! place the service window → roll up metrics → report), lives once in
//! the crate-private device core (`device_core.rs`). The engine drives it from
//! a discrete-event loop that overlaps cache-miss compiles with other
//! tenants' execution; [`Server`] drives the same core eagerly, one job
//! at a time, and exists only as the differential oracle the engine is
//! tested against — it is not a serving path.
//!
//! Time is virtual: each job is simulated and its modeled service time
//! advances a per-tenant busy horizon, so a whole arrival trace can be
//! served deterministically in one process without wall-clock sleeps.

pub mod admission;
pub mod cache;
mod device_core;
pub mod engine;
mod event;
pub mod metrics;
pub mod partition;
pub mod resilience;
pub mod warm;

use std::collections::BTreeMap;

use gpusim::{DeviceConfig, FaultPlan, TimingModel};
use streamir::graph::FlatGraph;
use streamir::ir::Scalar;

use crate::exec::{required_input, CompileOptions, GpuRun, RunOptions, SmPlacement};
use crate::pipeline::{FaultPolicy, LadderRung, PipelineOptions, ResilientCompiled, StageBudgets};
use crate::profile::ProfileOptions;
use crate::schedule::{SchedulerKind, SearchOptions};
use crate::Result;

pub use admission::{budgets_for, AdmissionController, Decision, Pressure, RouteDecision};
pub use cache::{cache_key, CacheOptions, CacheStats, CompilationCache, Lookup};
pub use engine::{EventEngine, EventKind, TraceEvent};
pub(crate) use event::Event;
pub use metrics::{ServeMetrics, ServeReport, TenantReport};
pub use partition::{placement_universe, Partitioner, RateEstimator, RecutRecord, Slice};
pub use resilience::{
    BrownoutSpec, ChaosStorm, ControllerDecision, FaultController, ResilienceOptions,
};
pub use warm::{warm_cache, WarmReport};

/// The quality-of-service class a tenant submits under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosClass {
    /// Latency-sensitive: compiles under [`FaultPolicy::TailLatency`] so
    /// the schedule reserves retry headroom.
    Interactive,
    /// Throughput-oriented: compiles under [`FaultPolicy::Throughput`].
    Batch,
}

impl QosClass {
    /// The fault policy this class compiles under.
    #[must_use]
    pub fn policy(self) -> FaultPolicy {
        match self {
            QosClass::Interactive => FaultPolicy::TailLatency,
            QosClass::Batch => FaultPolicy::Throughput,
        }
    }
}

/// One unit of work: a graph to compile (or hit in the cache) and run
/// for `iterations` steady-state iterations.
#[derive(Clone)]
pub struct Job {
    /// The submitting tenant.
    pub tenant: String,
    /// The stream program.
    pub graph: FlatGraph,
    /// Input generator: called with the exact token count the compiled
    /// program needs for `iterations`.
    pub input: fn(usize) -> Vec<Scalar>,
    /// Steady-state iterations to run.
    pub iterations: u64,
    /// QoS class (selects the compile-time fault policy).
    pub qos: QosClass,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The physical device all tenants share.
    pub device: DeviceConfig,
    /// Its timing calibration.
    pub timing: TimingModel,
    /// Profiling grid for compilations.
    pub profile: ProfileOptions,
    /// Base II-search options (scheduler kind, relaxation loop).
    pub search: SearchOptions,
    /// Ladder budgets under nominal queue pressure. The default zeroes
    /// the ILP rungs: on a serving path a compile is charged against job
    /// latency, and the heuristic rung compiles the benchmark suite in
    /// ~100 ms where the ILP rungs take tens of seconds per slice width.
    /// Deployments that can afford offline compiles (warming a
    /// persistent cache) can restore [`StageBudgets::default`].
    pub budgets: StageBudgets,
    /// Fault plan tenants run under (also baked into compilations).
    pub fault_plan: Option<FaultPlan>,
    /// Per-tenant in-flight job bound for admission control.
    pub max_queue: usize,
    /// Compilation-cache sizing and persistence.
    pub cache: CacheOptions,
    /// Virtual seconds charged for a cache-miss compilation (models the
    /// compile latency a real deployment would pay on the serving path).
    pub compile_penalty_secs: f64,
    /// Retry-rate threshold above which a Throughput tenant gets a
    /// TailLatency recommendation — and, when the resilience controller
    /// is enabled, the controller's upper hysteresis band, so the
    /// recommendation and the actual decision share one threshold.
    pub retry_warn_threshold: f64,
    /// EWMA weight for arrival-rate estimation.
    pub rate_alpha: f64,
    /// Online fault-rate controller configuration (event engine only;
    /// disabled by default, in which case the engine is byte- and
    /// cycle-identical to one without a controller).
    pub resilience: ResilienceOptions,
    /// Compile every tenant's artifact for captured-graph steady-state
    /// dispatch ([`crate::exec::RunOptions::graph_dispatch`]): one
    /// capture billed at steady entry, then doorbell-cost replays instead
    /// of host launches. Keyed into the compilation cache, so flipping it
    /// never aliases host-launched artifacts. Per-job outputs are
    /// byte-identical either way.
    pub graph_dispatch: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            device: DeviceConfig::gts512(),
            timing: TimingModel::gts512(),
            profile: ProfileOptions::small(&[16, 32]),
            search: SearchOptions {
                scheduler: SchedulerKind::Heuristic,
                ..SearchOptions::default()
            },
            budgets: StageBudgets {
                exact_ilp: std::time::Duration::ZERO,
                relaxed_ilp: std::time::Duration::ZERO,
                heuristic: std::time::Duration::from_secs(10),
                ..StageBudgets::default()
            },
            fault_plan: None,
            max_queue: 8,
            cache: CacheOptions::default(),
            compile_penalty_secs: 0.5,
            retry_warn_threshold: 0.05,
            rate_alpha: 0.3,
            resilience: ResilienceOptions::default(),
            graph_dispatch: false,
        }
    }
}

/// What happened to a submitted job.
#[derive(Debug)]
pub enum Verdict {
    /// Admitted, compiled (or cache-hit), executed.
    Completed(Box<JobResult>),
    /// Rejected by admission control; retry after the hinted delay.
    Rejected {
        /// Virtual seconds until a queue slot is expected to free.
        retry_after_secs: f64,
    },
}

/// The record of one completed job.
#[derive(Debug)]
pub struct JobResult {
    /// The program's output stream.
    pub outputs: Vec<Scalar>,
    /// Arrival instant (virtual seconds).
    pub arrival_secs: f64,
    /// When service began (arrival, or later if the slice was busy).
    pub start_secs: f64,
    /// When service finished.
    pub finish_secs: f64,
    /// `finish - arrival`.
    pub latency_secs: f64,
    /// The modeled execution time alone (no compile penalty, no queue
    /// wait) — exactly the simulator's total for this run, so a sliced
    /// run can be compared cycle-exactly against a solo reference.
    pub exec_secs: f64,
    /// Whether compilation was served from the cache.
    pub cache_hit: bool,
    /// The ladder rung whose artifact ran.
    pub shipped: LadderRung,
    /// The SM slice the job ran on.
    pub slice: Slice,
    /// Launch attempts that faulted and were re-issued during the run.
    pub retries: u64,
}

/// The exact compile configuration one job compiles under on a slice of
/// `slice_sms` SMs at queue `pressure` with fault policy `policy`. Every
/// path that compiles — the event engine's compile tasks, the fleet,
/// the warm sweep, the eager oracle — builds its options here, so a given
/// `(job, slice, pressure, policy)` is content-addressed identically by
/// the cache no matter which path compiles it. The policy is explicit
/// (rather than read off the job's QoS class) because the resilience
/// controller may override it; both policies' artifacts then coexist in
/// the cache under distinct keys.
pub(crate) fn pipeline_options_for(
    opts: &ServeOptions,
    slice_sms: u32,
    pressure: Pressure,
    policy: FaultPolicy,
) -> PipelineOptions {
    PipelineOptions {
        compile: CompileOptions {
            device: DeviceConfig {
                num_sms: slice_sms,
                ..opts.device.clone()
            },
            timing: opts.timing.clone(),
            profile: opts.profile.clone(),
            search: opts.search.clone(),
        },
        budgets: budgets_for(pressure, &opts.budgets),
        fault_plan: opts.fault_plan.clone(),
        policy,
        graph_dispatch: opts.graph_dispatch,
    }
}

/// Runs one job's artifact on its slice: generates exactly the input the
/// compiled program needs, places it at `base_sm` on the shared device,
/// and executes under the artifact's own run options (fault plan,
/// retry, checkpoint) with the caller's commit interval and optional
/// retry-budget override layered on top. Shared by the device core and
/// the fleet so per-job results are byte-identical by construction; the
/// core passes its controller's choices (`(1, None)` when disabled, as
/// in the eager oracle), the fleet its fixed commit interval.
///
/// Serving shares one device across tenants, so an artifact is refused
/// here unless it carries a tenant-isolation certificate
/// ([`crate::verify::isolate`]) proving its accesses stay inside its own
/// arena under any placement.
pub(crate) fn run_artifact(
    artifact: &ResilientCompiled,
    job: &Job,
    device: &DeviceConfig,
    base_sm: u32,
    checkpoint_interval: u32,
    max_attempts: Option<u32>,
) -> Result<GpuRun> {
    if artifact.isolation.is_none() {
        return Err(crate::Error::Api(format!(
            "tenant '{}': artifact carries no tenant-isolation certificate; \
             refusing to dispatch it onto a shared device",
            job.tenant
        )));
    }
    let needed = required_input(&artifact.compiled, job.iterations);
    let input = (job.input)(needed as usize);
    let mut run_opts = RunOptions {
        placement: Some(SmPlacement {
            device: device.clone(),
            base_sm,
        }),
        checkpoint_interval,
        ..artifact.run_options.clone()
    };
    if let Some(attempts) = max_attempts {
        run_opts.retry.max_attempts = attempts.max(1);
    }
    artifact.execute(job.iterations, &input, &run_opts)
}

/// The eager differential oracle: the same device core the event engine
/// holds, driven one job at a time with every compile paid inline. Not a
/// serving path — `tests/serve_engine.rs` replays traces through both and
/// requires byte-identical per-job results.
pub struct Server {
    core: device_core::DeviceCore,
}

impl Server {
    /// A fresh oracle over `opts.device`. It never adapts: the online
    /// controller is forced off, so every job runs at commit interval 1
    /// under its own QoS policy with the artifact's own retry budget.
    #[must_use]
    pub fn new(mut opts: ServeOptions) -> Server {
        opts.resilience.enabled = false;
        Server {
            core: device_core::DeviceCore::new(opts),
        }
    }

    /// Submits a job arriving at virtual time `arrival_secs` (arrivals
    /// must be non-decreasing; earlier instants are clamped to the
    /// current clock). The job is simulated eagerly; the verdict carries
    /// either the completed result or the admission rejection.
    ///
    /// # Errors
    ///
    /// Compilation or execution errors, and [`crate::Error::Api`] when
    /// the tenant population would exceed one tenant per SM.
    pub fn submit(&mut self, job: &Job, arrival_secs: f64) -> Result<Verdict> {
        let now = self.core.arrive(arrival_secs);
        self.core.partitioner.observe(&job.tenant, now)?;
        let (slice, pressure) = match self.core.admit(&job.tenant, job.qos, now) {
            Ok(admitted) => admitted,
            Err(rejected) => return Ok(rejected),
        };
        let popts =
            pipeline_options_for(&self.core.opts, slice.num_sms, pressure, job.qos.policy());
        let (artifact, cache_hit) = self.core.cache.get_or_compile(&job.graph, &popts)?;
        let settled = self.core.settle(job, &artifact, cache_hit, slice, now)?;
        Ok(Verdict::Completed(Box::new(settled.result)))
    }

    /// Compilation-cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> &CacheStats {
        self.core.cache.stats()
    }

    /// Snapshots the serving run into a serializable report.
    #[must_use]
    pub fn report(&self) -> ServeReport {
        self.core.report(&BTreeMap::new())
    }
}
