//! Multi-tenant stream-serving runtime.
//!
//! [`EventEngine`] accepts jobs — a stream graph, an input batch, a QoS
//! class — from named tenants and runs them on spatially-partitioned
//! slices of one simulated device:
//!
//! * **Compilation cache** ([`cache`]): the one artifact store,
//!   content-addressed by a stable hash of the graph and every compile
//!   option; hits re-run the static verifier but never the scheduler; for
//!   one device, LRU-bounded in memory with an optional JSON disk tier.
//! * **SM partitioning** ([`partition`]): disjoint contiguous slices per
//!   tenant, demand-rebalanced from EWMA arrival-rate estimates. Slice
//!   placement is semantics-preserving: a tenant on a `k`-SM slice gets
//!   byte- and cycle-identical results to a solo `k`-SM device.
//! * **Admission control** ([`admission`]): bounded per-tenant queues
//!   with reject-and-retry-after backpressure; below the bound, queue
//!   pressure sheds *compile effort* down
//!   [`crate::pipeline::ResilientPipeline`]'s degradation ladder before
//!   it sheds jobs.
//! * **Reports** ([`metrics`]): the loop records each job once, in one
//!   ledger; [`ServeReport`] (per-tenant throughput, p50/p99 latency,
//!   cache hit rate, slice utilization, retry rate, fault-overhead
//!   share) and the fleet's report are folds over it.
//!
//! A device's state and the per-job lifecycle over it (run the artifact,
//! place the service window) live once, in the crate-private device
//! core. The one discrete-event serving loop,
//! [`crate::fleet::FleetEngine`], drives N cores over one store;
//! [`EventEngine`] is that loop at N = 1. Cache-miss compiles overlap
//! other tenants' execution on a bounded worker pool.
//!
//! Time is virtual: each job is simulated and its modeled service time
//! advances a per-tenant busy horizon, so a whole arrival trace can be
//! served deterministically in one process without wall-clock sleeps.

pub mod admission;
pub mod cache;
pub(crate) mod device_core;
pub mod engine;
mod event;
pub mod metrics;
pub mod partition;
pub mod resilience;
pub mod warm;

use gpusim::{DeviceConfig, FaultPlan, TimingModel};
use streamir::graph::FlatGraph;
use streamir::ir::Scalar;

use crate::exec::CompileOptions;
use crate::pipeline::{FaultPolicy, LadderRung, PipelineOptions, StageBudgets};
use crate::profile::ProfileOptions;
use crate::schedule::{SchedulerKind, SearchOptions};

pub use admission::{budgets_for, AdmissionController, Decision, Pressure, RouteDecision};
pub use cache::{cache_key, ArtifactStore, CacheOptions, CacheStats, Fetch, Lookup, StoreStats};
pub use engine::{EventEngine, EventKind, TraceEvent};
pub(crate) use event::Event;
pub use metrics::{ServeReport, TenantReport};
pub use partition::{placement_universe, Partitioner, RateEstimator, RecutRecord, Slice};
pub use resilience::{
    BrownoutSpec, ChaosStorm, ControllerDecision, FaultController, ResilienceOptions,
};
pub use warm::WarmReport;

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

/// Virtual seconds charged for a cache-miss compilation: the compile
/// latency a real deployment would pay on the serving path, whichever
/// ladder rung ran.
pub const COMPILE_PENALTY_SECS: f64 = 0.5;

/// EWMA weight of the partitioner's arrival-rate estimates.
pub(crate) const RATE_ALPHA: f64 = 0.3;

/// Serving configuration (per device, in a fleet).
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
    /// Compilation-cache sizing and persistence of a single device (a
    /// fleet's replicated store is unbounded and memory-only).
    pub cache: CacheOptions,
    /// Retry-rate threshold above which the resilience controller, when
    /// enabled, switches a Throughput tenant to TailLatency (its upper
    /// hysteresis band).
    pub retry_warn_threshold: f64,
    /// Online fault-rate controller configuration (disabled by default,
    /// in which case serving is byte- and cycle-identical to serving
    /// without a controller).
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
            retry_warn_threshold: 0.05,
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
/// path that compiles — the serving loop's compile tasks and the warm
/// sweep — builds its options here, so a given
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
