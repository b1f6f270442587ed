//! The one serving loop: N simulated devices behind one deterministic
//! router in a single discrete-event loop.
//!
//! [`FleetEngine`] holds one device core per device (partitioner,
//! admission, controller, busy horizons, metrics) and one
//! [`ArtifactStore`], and coordinates:
//!
//! * **Routing** ([`router`]): rendezvous-hashed tenant homes, health
//!   bookkeeping (loss is permanent, partitions heal), and an
//!   append-only decision log that same-seed runs reproduce
//!   byte-identically.
//! * **Replicated artifacts**: the store at replication factor R with
//!   lazy read-repair, so failover never recompiles what any reachable
//!   replica already holds.
//! * **Checkpoint-shipping failover**: when a device dies, each in-flight
//!   job resumes on a healthy replica from its last k-launch commit —
//!   the commit's state words ship at modeled host-transfer cost, the
//!   launches past it replay, and the overhead is billed into the
//!   disjoint [`gpusim::LaunchStats::failover_cycles`]. Outputs are
//!   byte-identical to an undisturbed run.
//! * **Chaos** ([`storm`]): seeded rolling kills, rack brownouts and
//!   partition trains, expressed as a [`gpusim::DeviceFaultPlan`].
//!
//! [`crate::serve::EventEngine`] is this loop over one device, whose
//! store is its own LRU/disk cache at R = 1: routing always lands home,
//! and a loss has no second device, so both are no-ops.
//!
//! Events are totally ordered by `(virtual_time, device, tenant, seq)`,
//! so a replay is bit-identical. A store miss compiles on a bounded
//! worker pool while the loop keeps serving, and resolves before
//! anything reads its job's window — the tenant's next dispatch, a
//! dispatch that lands on its reservation, a device loss's failover
//! sweep, or the end-of-trace drain. One causal clock governs artifacts:
//! a key reserved this run exists from its compile's virtual finish, and
//! no job — hit, pending hit, remote fetch, reroute or failover — starts
//! executing it earlier. A job leaves the live set once its finish is
//! behind the clock; completed jobs are totalled in admission order.

pub mod router;
pub mod storm;

pub use crate::serve::cache::{ArtifactStore, Fetch, StoreStats};
pub use router::{Health, Router, RouterDecision};
pub use storm::{FleetStorm, RackBrownout};

use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

use serde::Serialize;

use gpusim::{Device, DeviceFaultKind, DeviceFaultPlan, DeviceId, LaunchStats};
use streamir::graph::FlatGraph;
use streamir::ir::Scalar;

use crate::exec::GpuRun;
use crate::pipeline::{PipelineOptions, ResilientCompiled, ResilientPipeline};
use crate::schedule::SearchInterrupt;
use crate::serve::cache::{verify_artifact, Lookup};
use crate::serve::device_core::{DeviceCore, Placement};
use crate::serve::metrics::percentile_of;
use crate::serve::{
    pipeline_options_for, warm, Decision, Event, EventKind, Job, JobResult, Pressure,
    RouteDecision, ServeOptions, ServeReport, Slice, TraceEvent, Verdict, WarmReport,
};
use crate::{Error, Result};

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Number of simulated devices (identical hardware, distinct ids).
    pub devices: u32,
    /// The per-device serving configuration (hardware, budgets, queue
    /// bound, compile penalty).
    pub base: ServeOptions,
    /// Artifact-store replication factor R.
    pub replication: u32,
    /// Virtual seconds to ship an artifact between devices on a remote
    /// store hit (small next to a compile, which is the point). The ship
    /// starts once the artifact exists.
    pub fetch_penalty_secs: f64,
    /// Commit interval k for the k-launch checkpoint protocol; failover
    /// replays at most `k − 1` launches.
    pub checkpoint_interval: u32,
    /// Device-grain fault schedule.
    pub device_faults: DeviceFaultPlan,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            devices: 2,
            base: ServeOptions::default(),
            replication: 2,
            fetch_penalty_secs: 0.05,
            checkpoint_interval: 4,
            device_faults: DeviceFaultPlan::new(),
        }
    }
}

/// What happened to one submitted job.
#[derive(Debug)]
pub enum FleetVerdict {
    /// Admitted somewhere and executed to completion (possibly after
    /// reroutes or failovers).
    Completed(Box<FleetJobResult>),
    /// Rejected — by admission control, or abandoned because no usable
    /// device remained to fail over to. Never silently lost.
    Rejected {
        /// Virtual seconds until retry is worthwhile.
        retry_after_secs: f64,
    },
}

/// The record of one completed fleet job.
#[derive(Debug)]
pub struct FleetJobResult {
    /// The program's output stream — byte-identical to a fault-free
    /// single-device run of the same job.
    pub outputs: Vec<Scalar>,
    /// The submitting tenant.
    pub tenant: String,
    /// Arrival instant.
    pub arrival_secs: f64,
    /// When execution began on the device that ultimately finished it.
    pub start_secs: f64,
    /// When the job's artifact came to exist in virtual time: its
    /// compile's finish, or −∞ for one that existed before the run.
    /// Never later than `start_secs`.
    pub artifact_ready_secs: f64,
    /// When service finished.
    pub finish_secs: f64,
    /// `finish - arrival`.
    pub latency_secs: f64,
    /// The tenant's static home device.
    pub home: u32,
    /// The device that finished the job.
    pub device: u32,
    /// Whether admission sent it somewhere other than home.
    pub rerouted: bool,
    /// Device losses this job survived via checkpoint-shipping.
    pub failed_over: u32,
    /// Always `false`: hedged dispatch is deleted. Kept until the
    /// benchmark stops reading it.
    pub hedged: bool,
    /// How the artifact store served the (final) dispatch.
    pub fetch: Fetch,
    /// Merged launch statistics, including the disjoint
    /// `failover_cycles` component. The billing invariant holds:
    /// overhead components sum exactly to `fault_overhead_cycles ≤
    /// cycles`.
    pub stats: gpusim::LaunchStats,
}

/// Per-device row of the fleet report.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceReport {
    /// Device id.
    pub device: u32,
    /// Whether it survived the run.
    pub alive: bool,
    /// Jobs it finished.
    pub jobs_completed: u64,
    /// Virtual seconds of service it delivered.
    pub busy_secs: f64,
    /// Scheduler searches its store-miss compiles paid for.
    pub search_invocations: u64,
}

/// Aggregate fleet counters, serialized into `BENCH_fleet.json`.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Fleet size.
    pub devices: u32,
    /// Devices still alive at the end.
    pub devices_alive: u32,
    /// Last finish minus first arrival.
    pub makespan_secs: f64,
    /// Jobs submitted.
    pub jobs_submitted: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Jobs rejected (admission) or abandoned (no usable device).
    pub jobs_rejected: u64,
    /// Jobs neither completed nor rejected — zero by construction; the
    /// chaos tests assert it stays zero.
    pub jobs_lost: u64,
    /// Output tokens per virtual second across the fleet.
    pub throughput_tokens_per_sec: f64,
    /// Median completed-job latency.
    pub p50_latency_secs: f64,
    /// Tail completed-job latency.
    pub p99_latency_secs: f64,
    /// Checkpoint-shipping failovers performed.
    pub failovers: u64,
    /// Median added latency per failover (new finish − old finish).
    pub failover_p50_secs: f64,
    /// Tail added latency per failover.
    pub failover_p99_secs: f64,
    /// Always 0: hedged dispatch is deleted. Kept, with `hedge_wins` and
    /// `hedge_cycles`, until the benchmark stops reading them.
    pub hedges: u64,
    /// Always 0 (see `hedges`).
    pub hedge_wins: u64,
    /// Total billed cycles.
    pub cycles: u64,
    /// Total fault-overhead cycles (all disjoint components).
    pub fault_overhead_cycles: u64,
    /// The failover share of the overhead.
    pub failover_cycles: u64,
    /// Always 0 (see `hedges`).
    pub hedge_cycles: u64,
    /// Launch-path cycles across completed jobs: host launch overhead
    /// for host-launched rounds, replay doorbells for captured-graph
    /// rounds. Graph dispatch shrinks this; compare against a
    /// host-launched run of the same trace for the savings.
    pub launch_path_cycles: u64,
    /// Steady-state rounds dispatched as captured-graph replays.
    pub graph_replays: u64,
    /// Graph captures paid for (one per graph-dispatched run, plus
    /// re-captures billed into `failover_cycles` when a device dies
    /// mid-replay and the survivor must rebuild the capture).
    pub graph_captures: u64,
    /// Cycles spent building captured graphs.
    pub graph_capture_cycles: u64,
    /// Artifacts dispatched across the fleet.
    pub artifacts: u64,
    /// The subset of `artifacts` carrying a verified tenant-isolation
    /// certificate; dispatch refuses the rest, so this equals
    /// `artifacts` on any completed run.
    pub certified: u64,
    /// Scheduler searches paid for across the fleet's store-miss
    /// compiles (sum of the per-device rows). Warming pushes this
    /// toward zero for a covered trace.
    pub search_invocations: u64,
    /// Artifact-store counters (hit rates, read-repairs, losses).
    pub store: StoreStats,
    /// Router decision-log length (the full log is available via
    /// [`FleetEngine::router_log`]).
    pub router_decisions: u64,
    /// Per-device rows.
    pub per_device: Vec<DeviceReport>,
}

/// What admission decided for one job: where it runs and what it
/// compiles.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placed {
    /// Position in admission order.
    ordinal: usize,
    device: u32,
    /// The tenant's static home device.
    home: u32,
    /// The width the job compiles at and the base SM it is placed at
    /// (SM 0 for a guest: placement is semantics-preserving).
    slice: Slice,
    arrival: f64,
    rerouted: bool,
    key: u64,
}

/// One settled job. Failover rewrites `device`, the window and the
/// billed stats; the outputs never change.
pub(crate) struct Running {
    placed: Placed,
    device: u32,
    /// Service start (queueing over, fetch or compile begins).
    start: f64,
    /// When execution proper began on the device that holds the job.
    exec_start: f64,
    /// When its artifact came to exist ([`FleetEngine::ready_at`]).
    artifact_ready: f64,
    finish: f64,
    /// Absolute launch index the current execution started from (0
    /// originally; the committed index after a failover).
    trace_base: usize,
    artifact: Arc<ResilientCompiled>,
    run: GpuRun,
    fetch: Fetch,
    failed_over: u32,
}

/// Where one job of the trace stands.
pub(crate) enum Slot {
    /// Not dispatched yet.
    Open,
    /// A store miss waiting for its compile.
    Waiting(Placed),
    /// Settled: in flight until its finish, completed after.
    Settled(Box<Running>),
    /// Rejected by admission, or abandoned with no usable failover
    /// target.
    Rejected { retry_after_secs: f64 },
}

impl Slot {
    /// The single-device verdict: `start_secs` is the service start.
    pub(crate) fn into_verdict(self) -> Verdict {
        match self {
            Slot::Settled(r) => Verdict::Completed(Box::new(JobResult {
                arrival_secs: r.placed.arrival,
                start_secs: r.start,
                finish_secs: r.finish,
                latency_secs: r.finish - r.placed.arrival,
                exec_secs: r.run.time_secs,
                cache_hit: r.fetch != Fetch::Miss,
                shipped: r.artifact.report.shipped,
                slice: r.placed.slice,
                retries: r.run.retries,
                outputs: r.run.outputs,
            })),
            Slot::Rejected { retry_after_secs } => Verdict::Rejected { retry_after_secs },
            Slot::Open | Slot::Waiting(_) => unreachable!("every job completes or is rejected"),
        }
    }

    /// The fleet verdict: `start_secs` is when execution began on the
    /// device that finished the job.
    fn into_fleet_verdict(self, tenant: &str) -> FleetVerdict {
        match self {
            Slot::Settled(r) => FleetVerdict::Completed(Box::new(FleetJobResult {
                tenant: tenant.to_string(),
                arrival_secs: r.placed.arrival,
                start_secs: r.exec_start,
                artifact_ready_secs: r.artifact_ready,
                finish_secs: r.finish,
                latency_secs: r.finish - r.placed.arrival,
                home: r.placed.home,
                device: r.device,
                rerouted: r.placed.rerouted,
                failed_over: r.failed_over,
                hedged: false,
                fetch: r.fetch,
                outputs: r.run.outputs,
                stats: r.run.stats,
            })),
            Slot::Rejected { retry_after_secs } => FleetVerdict::Rejected { retry_after_secs },
            Slot::Open | Slot::Waiting(_) => unreachable!("every job completes or is rejected"),
        }
    }
}

#[derive(Debug, Clone)]
enum EvKind {
    /// Job `trace[i]` arrives.
    Arrival(usize),
    /// A store-miss compile's virtual penalty window closed.
    CompileFinish,
    /// A job's service finished (virtual time).
    LaunchFinish,
    /// A periodic observability tick.
    Checkpoint,
    /// The controller switched the policy of the tenant of `trace[i]`,
    /// whose graph is recompiled under the new policy.
    PolicySwitch(usize),
    /// Device fault `plan.events()[i]` strikes.
    Fault(usize),
    /// A link partition heals.
    PartitionHeal,
    /// A brownout restores capacity.
    BrownoutHeal { restore_sms: u32 },
}

type Ev = Event<EvKind>;

/// A ladder compile in flight on the worker pool.
struct PendingCompile {
    key: u64,
    interrupt: SearchInterrupt,
    handle: JoinHandle<Result<ResilientCompiled>>,
}

impl PendingCompile {
    fn join(self) -> Result<ResilientCompiled> {
        self.handle
            .join()
            .unwrap_or_else(|_| Err(Error::Api("compile worker panicked".into())))
    }
}

/// What the served runs add up to.
#[derive(Default)]
struct Totals {
    submitted: u64,
    completed: u64,
    rejected: u64,
    tokens_out: u64,
    latencies: Vec<f64>,
    /// Every completed job's billed stats, merged in admission order.
    stats: LaunchStats,
    /// Per device: jobs finished there and their execution seconds.
    per_device: Vec<(u64, f64)>,
    failover_latencies: Vec<f64>,
    first_arrival: Option<f64>,
    last_finish: f64,
}

/// The discrete-event serving loop over N devices.
pub struct FleetEngine {
    pub(crate) opts: FleetOptions,
    router: Router,
    store: ArtifactStore,
    pub(crate) devices: Vec<DeviceCore>,
    /// Bound on concurrent ladder compiles; spawning past it joins the
    /// *oldest* one — deterministic, unlike waiting on whichever thread
    /// finishes first.
    pub(crate) workers: usize,
    /// Virtual seconds between observability checkpoints (0 = none).
    pub(crate) checkpoint_period_secs: f64,
    /// Every processed event, in processing order.
    pub(crate) trace: Vec<TraceEvent>,
    totals: Totals,
    // The run in progress.
    heap: BinaryHeap<Ev>,
    next_seq: u64,
    clock: f64,
    slots: Vec<Slot>,
    /// Job indices in admission order.
    admitted: Vec<usize>,
    /// Admission ordinals of settled jobs not yet finished at the clock.
    live: BTreeSet<usize>,
    /// Store-miss jobs awaiting their compile, FIFO per tenant.
    waiting: BTreeMap<String, VecDeque<usize>>,
    /// Compiles in flight, in spawn order.
    pending: Vec<PendingCompile>,
    /// Artifacts already joined and fulfilled, by key.
    ready: HashMap<u64, Arc<ResilientCompiled>>,
    /// The virtual instant each key compiled this run exists; a key
    /// absent here existed before the run (disk, warm, an earlier run).
    compiled_at: HashMap<u64, f64>,
}

impl FleetEngine {
    /// A fresh fleet of `opts.devices` identical devices sharing an
    /// R-replicated store.
    #[must_use]
    pub fn new(opts: FleetOptions) -> FleetEngine {
        let n = opts.devices.max(1);
        let devices = (0..n)
            .map(|d| {
                let (config, timing) = (opts.base.device.clone(), opts.base.timing.clone());
                DeviceCore::new(Device::new(DeviceId(d), config, timing), &opts.base)
            })
            .collect();
        FleetEngine {
            router: Router::new(n),
            store: ArtifactStore::replicated(opts.replication),
            devices,
            workers: 4,
            checkpoint_period_secs: 0.0,
            trace: Vec::new(),
            totals: Totals::default(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            clock: f64::NEG_INFINITY,
            slots: Vec::new(),
            admitted: Vec::new(),
            live: BTreeSet::new(),
            waiting: BTreeMap::new(),
            pending: Vec::new(),
            ready: HashMap::new(),
            compiled_at: HashMap::new(),
            opts,
        }
    }

    /// The single-device loop: one device whose store is its own LRU/disk
    /// cache (R = 1), committing every launch unless the controller
    /// chooses otherwise, with nothing to route to.
    pub(crate) fn solo(base: ServeOptions) -> FleetEngine {
        let cache = ArtifactStore::new(base.cache.clone());
        let mut solo = FleetEngine::new(FleetOptions {
            devices: 1,
            base,
            replication: 1,
            checkpoint_interval: 1,
            ..FleetOptions::default()
        });
        solo.store = cache;
        solo
    }

    /// The router's append-only decision log — the determinism witness
    /// the chaos CI job uploads.
    #[must_use]
    pub fn router_log(&self) -> &[RouterDecision] {
        self.router.log()
    }

    /// Artifact-store counters.
    #[must_use]
    pub fn store_stats(&self) -> &StoreStats {
        self.store.stats()
    }

    /// Pre-compiles `graphs` into the store over graphs × plausible
    /// widths for up to `max_tenants` tenants per device × both policies
    /// (see `serve::warm`). Warming is offline: it charges no device's
    /// `search_invocations` and leaves the store's counters untouched.
    pub fn warm(&mut self, graphs: &[FlatGraph], max_tenants: usize) -> WarmReport {
        let usable = self.router.usable_devices();
        warm::sweep(
            &mut self.store,
            &usable,
            &self.opts.base,
            graphs,
            max_tenants,
        )
    }

    /// Serves an arrival trace to completion and returns one verdict per
    /// job, in submission order. Every job completes or is rejected —
    /// never silently lost — no matter what the device-fault plan does.
    ///
    /// # Errors
    ///
    /// Compilation or execution errors, and [`crate::Error::Api`] when a
    /// home device's tenant population would exceed one tenant per SM.
    pub fn run(&mut self, trace: &[(Job, f64)]) -> Result<Vec<FleetVerdict>> {
        let slots = self.serve(trace)?;
        Ok(slots
            .into_iter()
            .zip(trace)
            .map(|(slot, (job, _))| slot.into_fleet_verdict(&job.tenant))
            .collect())
    }

    /// Runs the loop over `trace` and returns every job's final slot. On
    /// error, in-flight compiles are interrupted (collapsing them to the
    /// serial rung), joined, and their reservations abandoned, so the
    /// store never dangles a pending entry.
    pub(crate) fn serve(&mut self, trace: &[(Job, f64)]) -> Result<Vec<Slot>> {
        self.begin(trace);
        if let Err(e) = self.drive(trace) {
            for p in &self.pending {
                p.interrupt.raise();
            }
            for p in std::mem::take(&mut self.pending) {
                let key = p.key;
                let _ = p.join();
                self.store.abandon(key);
            }
            return Err(e);
        }
        self.total_up();
        Ok(std::mem::take(&mut self.slots))
    }

    fn begin(&mut self, trace: &[(Job, f64)]) {
        self.heap.clear();
        self.next_seq = 0;
        self.clock = f64::NEG_INFINITY;
        self.waiting.clear();
        self.ready.clear();
        self.compiled_at.clear();
        self.admitted.clear();
        self.live.clear();
        self.slots = trace.iter().map(|_| Slot::Open).collect();
        self.totals.submitted += trace.len() as u64;
        // Arrivals first, so arrival `i` takes sequence number `i`.
        for (i, (job, at)) in trace.iter().enumerate() {
            let home = self.router.home(&job.tenant).0;
            self.schedule(*at, home, &job.tenant, EvKind::Arrival(i));
        }
        let faults = self.opts.device_faults.clone();
        for (i, fault) in faults.events().iter().enumerate() {
            self.schedule(fault.at_secs, fault.device.0, "", EvKind::Fault(i));
        }
        if self.checkpoint_period_secs > 0.0 {
            if let Some(first) = trace.iter().map(|(_, t)| *t).min_by(f64::total_cmp) {
                let at = first + self.checkpoint_period_secs;
                self.schedule(at, 0, "", EvKind::Checkpoint);
            }
        }
    }

    /// Drains the queue, then resolves leftover pending compiles in
    /// tenant-name order (which schedules more events), until both are
    /// empty.
    fn drive(&mut self, trace: &[(Job, f64)]) -> Result<()> {
        loop {
            while let Some(ev) = self.heap.pop() {
                self.clock = self.clock.max(ev.time);
                let (slots, admitted, clock) = (&self.slots, &self.admitted, self.clock);
                self.live.retain(
                    |&o| matches!(&slots[admitted[o]], Slot::Settled(r) if r.finish > clock),
                );
                self.handle(trace, ev)?;
            }
            if self.waiting.values().all(VecDeque::is_empty) {
                // Pre-spawned policy-switch recompiles may outlive every
                // dispatch; join them so their reservations are
                // fulfilled before the trace returns.
                while !self.pending.is_empty() {
                    let oldest = self.pending.remove(0);
                    self.join_and_fulfill(oldest)?;
                }
                return Ok(());
            }
            self.resolve_all(trace)?;
        }
    }

    /// Queues `kind` under the next sequence number.
    fn schedule(&mut self, time: f64, device: u32, tenant: &str, kind: EvKind) {
        self.heap.push(Ev {
            time,
            device,
            tenant: tenant.to_string(),
            seq: self.next_seq,
            kind,
        });
        self.next_seq += 1;
    }

    fn log(&mut self, ev: &Ev, kind: EventKind, detail: String) {
        self.trace.push(TraceEvent {
            time_secs: ev.time,
            tenant: ev.tenant.clone(),
            seq: ev.seq,
            kind,
            detail,
        });
    }

    fn handle(&mut self, trace: &[(Job, f64)], ev: Ev) -> Result<()> {
        match ev.kind {
            EvKind::Arrival(i) => self.dispatch(trace, &ev, i)?,
            EvKind::CompileFinish => self.log(&ev, EventKind::CompileFinish, String::new()),
            EvKind::LaunchFinish => self.log(&ev, EventKind::LaunchFinish, String::new()),
            EvKind::Checkpoint => {
                let done = (self.slots.iter())
                    .filter(|s| matches!(s, Slot::Settled(_) | Slot::Rejected { .. }))
                    .count();
                self.log(&ev, EventKind::Checkpoint, format!("jobs_done={done}"));
                if !self.heap.is_empty() {
                    let next = ev.time + self.checkpoint_period_secs;
                    self.schedule(next, 0, "", EvKind::Checkpoint);
                }
            }
            EvKind::PolicySwitch(i) => self.policy_switch(trace, &ev, i)?,
            EvKind::Fault(i) => self.fault(trace, &ev, i)?,
            EvKind::PartitionHeal => {
                let (t, d) = (ev.time, DeviceId(ev.device));
                self.router.heal(d);
                let detail = String::new();
                self.router
                    .log_decision(t, "", None, "partition-heal", Some(d), detail);
            }
            EvKind::BrownoutHeal { restore_sms } => {
                let d = DeviceId(ev.device);
                if self.router.alive(d) {
                    let p = &mut self.devices[ev.device as usize].partitioner;
                    let floor = (p.slices().len() as u32).max(1);
                    p.set_capacity(restore_sms.max(floor), ev.time)?;
                    let detail = format!("restored to {restore_sms} SMs");
                    self.router
                        .log_decision(ev.time, "", None, "brownout-heal", Some(d), detail);
                }
            }
        }
        Ok(())
    }

    /// Every tenant's slice width on `device`, `name:width` comma-joined
    /// in name order — the trace detail of a recut.
    fn slice_widths(&self, device: u32) -> String {
        let slices = self.devices[device as usize].partitioner.slices();
        let widths: Vec<String> = (slices.iter())
            .map(|(t, s)| format!("{t}:{}", s.num_sms))
            .collect();
        widths.join(",")
    }

    /// One arrival: the home partitioner observes the demand at its true
    /// time (and recuts when it drifted), the tenant's pending compiles
    /// settle, admission places the job, and the store serves a hit now
    /// or starts a miss compiling.
    fn dispatch(&mut self, trace: &[(Job, f64)], ev: &Ev, i: usize) -> Result<()> {
        let job = &trace[i].0;
        let (t, home) = (ev.time, ev.device);
        self.totals.first_arrival.get_or_insert(t);
        // The home partitioner observes every arrival — dead or alive —
        // so slice widths are a pure function of the trace.
        let recut = self.devices[home as usize]
            .partitioner
            .record_arrival(&job.tenant, t)?;
        self.log(ev, EventKind::Arrival, format!("job={i}"));
        if recut {
            self.devices[home as usize].partitioner.recut_at(t);
            self.log(ev, EventKind::Rebalance, self.slice_widths(home));
        }
        let slice = self.devices[home as usize]
            .partitioner
            .slice(&job.tenant)
            .expect("observed tenant has a slice");
        self.resolve(trace, &job.tenant)?;
        let Some((device, slice, pressure, rerouted)) = self.admit(trace, ev, i, slice) else {
            self.log(ev, EventKind::Dispatch, format!("job={i} rejected"));
            return Ok(());
        };

        // The compile policy is the controller's effective choice: the
        // job's own QoS policy unless an adaptive switch is in force.
        let policy = self.devices[device as usize]
            .controller
            .policy_for(&job.tenant, job.qos.policy());
        let popts = pipeline_options_for(&self.opts.base, slice.num_sms, pressure, policy);
        let usable = self.router.usable_devices();
        let (key, lookup) =
            self.store
                .lookup_or_reserve(&job.graph, &popts, DeviceId(device), &usable)?;
        let placed = Placed {
            ordinal: self.admitted.len(),
            device,
            home,
            slice,
            arrival: t,
            rerouted,
            key,
        };
        self.admitted.push(i);
        let outcome = match lookup {
            Lookup::Hit(artifact, fetch) => {
                self.settle(trace, i, placed, artifact, fetch)?;
                "hit"
            }
            Lookup::PendingHit(fetch) => {
                // Another dispatch reserved this key and the artifact is
                // deterministic: join its compile and serve it verified,
                // like any other hit.
                let artifact = self.artifact_for(key)?;
                verify_artifact(&artifact)?;
                self.settle(trace, i, placed, artifact, fetch)?;
                "pending-hit"
            }
            Lookup::Miss => {
                self.spawn_compile(key, &job.graph, popts)?;
                self.slots[i] = Slot::Waiting(placed);
                self.waiting
                    .entry(job.tenant.clone())
                    .or_default()
                    .push_back(i);
                "miss"
            }
        };
        self.log(ev, EventKind::Dispatch, format!("job={i} {outcome}"));
        Ok(())
    }

    /// Admission at the tenant's home, rerouted to the best usable
    /// alternate when home is down or full. Returns the serving device,
    /// the slice to compile at and place on, the compile pressure and
    /// whether the job was rerouted — or `None` once a rejection is
    /// recorded.
    fn admit(
        &mut self,
        trace: &[(Job, f64)],
        ev: &Ev,
        i: usize,
        slice: Slice,
    ) -> Option<(u32, Slice, Pressure, bool)> {
        let (job, t, home) = (&trace[i].0, ev.time, DeviceId(ev.device));
        let tenant = job.tenant.as_str();
        let home_finishes = self.backlog(trace, tenant, home.0, t);
        let alternates = (self.router.usable_devices().iter())
            .filter(|&&d| d != home.0)
            .count();
        let routed = self.devices[home.0 as usize].admission.decide_routed(
            self.router.usable(home),
            &home_finishes,
            t,
            alternates,
            self.router.heal_hint_secs(t),
        );
        let (device, retry_after_secs, detail) = match routed {
            RouteDecision::Admit(p) => {
                self.router
                    .log_decision(t, tenant, Some(i), "home", Some(home), String::new());
                return Some((home.0, slice, p, false));
            }
            RouteDecision::Reject { retry_after_secs } => (
                home,
                retry_after_secs,
                format!("retry after {retry_after_secs:.3}s"),
            ),
            RouteDecision::Reroute => {
                let target = (self.router.route(tenant, Some(home)))
                    .expect("Reroute implies a usable alternate");
                let finishes = self.backlog(trace, tenant, target.0, t);
                let admission = &self.devices[target.0 as usize].admission;
                match admission.decide_event(&finishes, t) {
                    Decision::Admit(p) => {
                        let detail = format!("home dev{} unusable or full", home.0);
                        self.router.log_decision(
                            t,
                            tenant,
                            Some(i),
                            "reroute",
                            Some(target),
                            detail,
                        );
                        let guest = Slice {
                            base_sm: 0,
                            num_sms: slice.num_sms,
                        };
                        return Some((target.0, guest, p, true));
                    }
                    Decision::Reject { retry_after_secs } => (
                        target,
                        retry_after_secs,
                        "alternate also saturated".to_string(),
                    ),
                }
            }
        };
        self.router
            .log_decision(t, tenant, Some(i), "reject", Some(device), detail);
        self.devices[device.0 as usize].reject(tenant);
        self.slots[i] = Slot::Rejected { retry_after_secs };
        self.totals.rejected += 1;
        None
    }

    /// Finish times of the tenant's live jobs on `device` after `now` —
    /// admission's per-(tenant, device) backlog.
    fn backlog(&self, trace: &[(Job, f64)], tenant: &str, device: u32, now: f64) -> Vec<f64> {
        (self.live.iter().map(|&o| self.admitted[o]))
            .filter_map(|j| match &self.slots[j] {
                Slot::Settled(r) if r.device == device && trace[j].0.tenant == tenant => {
                    Some(r.finish)
                }
                _ => None,
            })
            .filter(|&f| f > now)
            .collect()
    }

    /// Virtual seconds a dispatch pays to obtain its artifact, by how
    /// the store served it: nothing locally, a ship across devices, or
    /// a full compile.
    fn fetch_cost(&self, fetch: Fetch) -> f64 {
        match fetch {
            Fetch::LocalHit => 0.0,
            Fetch::RemoteHit => self.opts.fetch_penalty_secs,
            Fetch::Miss => self.opts.base.compile_penalty_secs,
        }
    }

    /// Moves the tenant's busy horizon on `device` to `until`.
    fn occupy(&mut self, device: u32, tenant: &str, until: f64) {
        self.devices[device as usize].tenant(tenant).busy_until = until;
    }

    /// Settles job `i` on its device's core, no earlier than its artifact
    /// exists, and schedules what follows from its window. A miss's own
    /// window fixes when its artifact exists.
    fn settle(
        &mut self,
        trace: &[(Job, f64)],
        i: usize,
        placed: Placed,
        artifact: Arc<ResilientCompiled>,
        fetch: Fetch,
    ) -> Result<()> {
        let job = &trace[i].0;
        let head_secs = self.fetch_cost(fetch);
        let available_at = if fetch == Fetch::Miss {
            f64::NEG_INFINITY
        } else {
            self.ready_at(trace, placed.key)?
        };
        let at = Placement {
            slice: placed.slice,
            arrival: placed.arrival,
            fetch,
            head_secs,
            available_at,
        };
        let interval = self.opts.checkpoint_interval;
        let s = self.devices[placed.device as usize].settle(job, &artifact, &at, interval)?;
        let rec = Running {
            placed,
            device: placed.device,
            start: s.start,
            exec_start: s.exec_start,
            artifact_ready: if fetch == Fetch::Miss {
                s.exec_start
            } else {
                available_at
            },
            finish: s.finish,
            trace_base: 0,
            artifact,
            run: s.run,
            fetch,
            failed_over: 0,
        };
        self.totals.last_finish = self.totals.last_finish.max(rec.finish);
        // A controller switch becomes an event at the finish, so its
        // recompile is pre-spawned in deterministic event order.
        if s.switched {
            self.schedule(rec.finish, rec.device, &job.tenant, EvKind::PolicySwitch(i));
        }
        if fetch == Fetch::Miss {
            self.compiled_at.insert(placed.key, s.exec_start);
            self.schedule(s.exec_start, rec.device, &job.tenant, EvKind::CompileFinish);
        }
        self.schedule(rec.finish, rec.device, &job.tenant, EvKind::LaunchFinish);
        self.live.insert(placed.ordinal);
        self.slots[i] = Slot::Settled(Box::new(rec));
        Ok(())
    }

    /// When `key`'s artifact exists in virtual time: its compile's finish
    /// for a key compiled this run, −∞ for one that existed before it. A
    /// reservation whose owner still waits settles the owner's tenant
    /// first, since the owner's window fixes the instant.
    fn ready_at(&mut self, trace: &[(Job, f64)], key: u64) -> Result<f64> {
        let owner = (self.waiting.iter())
            .find(|(_, q)| {
                (q.iter()).any(|&j| matches!(&self.slots[j], Slot::Waiting(p) if p.key == key))
            })
            .map(|(tenant, _)| tenant.clone());
        if let Some(tenant) = owner {
            self.resolve(trace, &tenant)?;
        }
        Ok(self.compiled_at(key))
    }

    /// [`FleetEngine::ready_at`] once no owner waits.
    fn compiled_at(&self, key: u64) -> f64 {
        self.compiled_at
            .get(&key)
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Settles every pending store-miss job of `tenant`, oldest first.
    /// Runs before anything reads those jobs' windows, so per-tenant
    /// completion order is arrival order.
    fn resolve(&mut self, trace: &[(Job, f64)], tenant: &str) -> Result<()> {
        while let Some(i) = self.waiting.get_mut(tenant).and_then(VecDeque::pop_front) {
            let Slot::Waiting(placed) = self.slots[i] else {
                unreachable!("a queued job is waiting");
            };
            let artifact = self.artifact_for(placed.key)?;
            self.settle(trace, i, placed, artifact, Fetch::Miss)?;
        }
        Ok(())
    }

    /// [`FleetEngine::resolve`] for every tenant, in name order.
    fn resolve_all(&mut self, trace: &[(Job, f64)]) -> Result<()> {
        let tenants: Vec<String> = self.waiting.keys().cloned().collect();
        for tenant in tenants {
            self.resolve(trace, &tenant)?;
        }
        Ok(())
    }

    /// Hands a ladder compile to the worker pool, joining the oldest
    /// in-flight compile first when the pool is at its bound.
    fn spawn_compile(
        &mut self,
        key: u64,
        graph: &FlatGraph,
        mut opts: PipelineOptions,
    ) -> Result<()> {
        while self.pending.len() >= self.workers {
            let oldest = self.pending.remove(0);
            self.join_and_fulfill(oldest)?;
        }
        let interrupt = SearchInterrupt::armed();
        opts.compile.search.interrupt = interrupt.clone();
        let graph = graph.clone();
        let handle = std::thread::spawn(move || ResilientPipeline::new(opts).compile(&graph));
        self.pending.push(PendingCompile {
            key,
            interrupt,
            handle,
        });
        Ok(())
    }

    fn join_and_fulfill(&mut self, p: PendingCompile) -> Result<()> {
        let key = p.key;
        match p.join() {
            Ok(artifact) => {
                let artifact = Arc::new(artifact);
                self.store.fulfill(key, &artifact);
                self.ready.insert(key, artifact);
                Ok(())
            }
            Err(e) => {
                self.store.abandon(key);
                Err(e)
            }
        }
    }

    /// The artifact for a reserved key: already joined, or joined now.
    fn artifact_for(&mut self, key: u64) -> Result<Arc<ResilientCompiled>> {
        if let Some(a) = self.ready.get(&key) {
            return Ok(Arc::clone(a));
        }
        let pos = (self.pending.iter().position(|p| p.key == key))
            .ok_or_else(|| Error::Api(format!("no compile in flight for cache key {key:016x}")))?;
        let p = self.pending.remove(pos);
        self.join_and_fulfill(p)?;
        Ok(Arc::clone(&self.ready[&key]))
    }

    /// Applies a controller-ordered policy switch: re-addresses the
    /// triggering job's graph under the new policy and, on a miss,
    /// pre-spawns the recompile so the artifact is (being) built before
    /// the tenant's next dispatch asks for it. Pre-warming uses nominal
    /// budgets; a dispatch under elevated pressure addresses a different
    /// key and simply compiles then.
    fn policy_switch(&mut self, trace: &[(Job, f64)], ev: &Ev, i: usize) -> Result<()> {
        let job = &trace[i].0;
        let home = self.router.home(&job.tenant).0 as usize;
        let Some(slice) = self.devices[home].partitioner.slice(&job.tenant) else {
            self.log(ev, EventKind::PolicySwitch, format!("job={i} no-slice"));
            return Ok(());
        };
        let policy = self.devices[ev.device as usize]
            .controller
            .policy_for(&job.tenant, job.qos.policy());
        let popts = pipeline_options_for(&self.opts.base, slice.num_sms, Pressure::Nominal, policy);
        let usable = self.router.usable_devices();
        let device = DeviceId(ev.device);
        let outcome = match self
            .store
            .lookup_or_reserve(&job.graph, &popts, device, &usable)?
        {
            (_, Lookup::Hit(..)) => "cached",
            (_, Lookup::PendingHit(_)) => "compiling",
            (key, Lookup::Miss) => {
                self.spawn_compile(key, &job.graph, popts)?;
                let penalty = self.opts.base.compile_penalty_secs;
                self.compiled_at.insert(key, ev.time + penalty);
                "recompile"
            }
        };
        let detail = format!("job={i} policy={policy} {outcome}");
        self.log(ev, EventKind::PolicySwitch, detail);
        Ok(())
    }

    /// Applies one device-grain fault event.
    fn fault(&mut self, trace: &[(Job, f64)], ev: &Ev, i: usize) -> Result<()> {
        let fault = self.opts.device_faults.events()[i].clone();
        let (d, t) = (fault.device, fault.at_secs);
        if !self.router.alive(d) {
            return Ok(());
        }
        match fault.kind {
            DeviceFaultKind::Loss => {
                // Pending compiles resolve before the sweep reads their
                // windows.
                self.resolve_all(trace)?;
                self.router.mark_dead(d);
                self.store.drop_device(d);
                self.router
                    .log_decision(t, "", None, "kill", Some(d), String::new());
                self.failover_sweep(trace, d, t);
            }
            DeviceFaultKind::Brownout {
                total_sms,
                heal_secs,
            } => {
                let p = &mut self.devices[d.0 as usize].partitioner;
                let restore_sms = p.capacity();
                let target = total_sms.max((p.slices().len() as u32).max(1));
                // Capacity changes can only fail when shrinking below
                // one SM per tenant, which the floor prevents.
                p.set_capacity(target, t)
                    .expect("brownout capacity floored at tenant count");
                let detail = format!("{restore_sms} -> {target} SMs");
                self.router
                    .log_decision(t, "", None, "brownout", Some(d), detail);
                let detail = format!("sms={target} {}", self.slice_widths(d.0));
                self.log(ev, EventKind::Brownout, detail);
                if let Some(heal) = heal_secs {
                    self.schedule(t + heal, d.0, "", EvKind::BrownoutHeal { restore_sms });
                }
            }
            DeviceFaultKind::LinkPartition { heal_secs } => {
                self.router.mark_partitioned(d, t + heal_secs);
                let detail = format!("heals at {:.3}s", t + heal_secs);
                self.router
                    .log_decision(t, "", None, "partition", Some(d), detail);
                self.schedule(t + heal_secs, d.0, "", EvKind::PartitionHeal);
            }
        }
        Ok(())
    }

    /// Fails every job in flight on a lost device over to a healthy
    /// replica: ship the last k-launch commit's state words, replay the
    /// launches past the commit, bill the overhead into the disjoint
    /// `failover_cycles` component. Jobs with no usable target are
    /// rejected (never lost).
    fn failover_sweep(&mut self, trace: &[(Job, f64)], dead: DeviceId, t: f64) {
        let timing = self.opts.base.timing.clone();
        for o in self.live.clone() {
            let j = self.admitted[o];
            let Slot::Settled(mut r) = std::mem::replace(&mut self.slots[j], Slot::Open) else {
                unreachable!("live jobs are settled");
            };
            let tenant = trace[j].0.tenant.as_str();
            if r.device != dead.0 || r.finish <= t {
                self.slots[j] = Slot::Settled(r);
                continue;
            }
            let Some(target) = self.router.route(tenant, None) else {
                let retry_after_secs = self.router.heal_hint_secs(t);
                let detail = "no usable device to fail over to".to_string();
                self.router
                    .log_decision(t, tenant, Some(j), "abandon", None, detail);
                self.slots[j] = Slot::Rejected { retry_after_secs };
                self.totals.rejected += 1;
                self.live.remove(&o);
                continue;
            };

            let usable = self.router.usable_devices();
            let key = r.placed.key;
            let fetch =
                (self.store.fetch(key, target, &usable)).expect("artifact verified at insert");
            if fetch == Fetch::Miss {
                // Every replica died with the fleet's losses: pay a
                // recompile and restore the store from the job's own
                // copy of the artifact.
                self.store
                    .insert(key, Arc::clone(&r.artifact), target, &usable);
            }
            let fetch_cost = self.fetch_cost(fetch);

            let old_finish = r.finish;
            let tbusy = self.devices[target.0 as usize].busy_until(tenant);

            // Cycles to ship the last commit's state and to replay the
            // launches past it, and the launch execution resumes from.
            let (ship, replay, committed) = if r.exec_start >= t {
                // Never started executing: pure re-dispatch, no state to
                // ship, no launches to replay.
                (0.0, 0.0, r.trace_base)
            } else {
                let elapsed = (t - r.exec_start) * timing.clock_hz;
                let k = r.run.checkpoint_interval.max(1) as usize;
                let mut completed = r.trace_base;
                let mut cum = 0.0;
                for &lc in &r.run.launch_cycles[r.trace_base..] {
                    if cum + lc <= elapsed {
                        cum += lc;
                        completed += 1;
                    } else {
                        break;
                    }
                }
                let committed = r.trace_base.max(completed - completed % k);
                let replay: f64 = r.run.launch_cycles[committed..completed].iter().sum();
                let state_words = r.artifact.report.checkpoint.state_words;
                let ship = timing.host_transfer_latency_cycles
                    + state_words as f64 * timing.host_transfer_cycles_per_word;
                // A graph-dispatched run re-enters its captured graph at
                // the committed node, but the capture itself was
                // device-resident state the dead device took with it:
                // re-entry on the replacement pays one fresh capture,
                // billed as failover overhead (the original capture
                // stays billed as productive cycles). The per-launch
                // trace already carries replay-path costs for steady
                // launches, so the window replay below re-enters at
                // doorbell cost, exactly as the original run paid.
                let recapture = if r.run.stats.graph_captures > 0 {
                    r.run.stats.graph_capture_cycles / r.run.stats.graph_captures as f64
                } else {
                    0.0
                };
                let overhead = ship + replay + recapture;
                let stats = &mut r.run.stats;
                stats.cycles += overhead;
                stats.fault_overhead_cycles += overhead;
                stats.failover_cycles += overhead;
                stats.assert_billing();
                (ship, replay, committed)
            };
            let prefix: f64 = r.run.launch_cycles[..committed].iter().sum();
            let remaining = r.run.time_secs - timing.secs(prefix);
            let ready = t.max(tbusy).max(self.compiled_at(key));
            r.exec_start = ready + fetch_cost + timing.secs(ship);
            r.finish = r.exec_start + timing.secs(replay) + remaining;
            r.trace_base = committed;

            self.occupy(target.0, tenant, r.finish);
            r.device = target.0;
            r.failed_over += 1;
            let totals = &mut self.totals;
            totals
                .failover_latencies
                .push((r.finish - old_finish).max(0.0));
            totals.last_finish = totals.last_finish.max(r.finish);
            let detail = format!("{fetch:?} fetch, resumed from launch {}", r.trace_base);
            self.router
                .log_decision(t, tenant, Some(j), "failover", Some(target), detail);
            self.slots[j] = Slot::Settled(r);
        }
    }

    /// Totals the drained run's completed jobs in admission order.
    fn total_up(&mut self) {
        let t = &mut self.totals;
        t.per_device.resize(self.devices.len(), (0, 0.0));
        for &j in &self.admitted {
            if let Slot::Settled(r) = &self.slots[j] {
                t.completed += 1;
                t.tokens_out += r.run.outputs.len() as u64;
                t.latencies.push(r.finish - r.placed.arrival);
                t.stats.merge(&r.run.stats);
                let d = &mut t.per_device[r.device as usize];
                d.0 += 1;
                d.1 += r.finish - r.exec_start;
            }
        }
    }

    fn makespan(&self) -> f64 {
        (self.totals.last_finish - self.totals.first_arrival.unwrap_or(0.0)).max(0.0)
    }

    /// Device 0's serving report — the single-device view of a run.
    pub(crate) fn serve_report(&self) -> ServeReport {
        let cache = self.store.cache_stats();
        self.devices[0].report(self.makespan(), cache)
    }

    /// Snapshots the run into a serializable report. Call after
    /// [`FleetEngine::run`].
    #[must_use]
    pub fn report(&self) -> FleetReport {
        let (t, devices) = (&self.totals, &self.devices);
        let makespan = self.makespan();
        let alive = |d: usize| self.router.alive(DeviceId(d as u32));
        FleetReport {
            devices: devices.len() as u32,
            devices_alive: (0..devices.len()).filter(|&d| alive(d)).count() as u32,
            makespan_secs: makespan,
            jobs_submitted: t.submitted,
            jobs_completed: t.completed,
            jobs_rejected: t.rejected,
            jobs_lost: t.submitted - t.completed - t.rejected,
            throughput_tokens_per_sec: if makespan > 0.0 {
                t.tokens_out as f64 / makespan
            } else {
                0.0
            },
            p50_latency_secs: percentile_of(&t.latencies, 0.50),
            p99_latency_secs: percentile_of(&t.latencies, 0.99),
            failovers: t.failover_latencies.len() as u64,
            failover_p50_secs: percentile_of(&t.failover_latencies, 0.50),
            failover_p99_secs: percentile_of(&t.failover_latencies, 0.99),
            hedges: 0,
            hedge_wins: 0,
            cycles: t.stats.cycles.round() as u64,
            fault_overhead_cycles: t.stats.fault_overhead_cycles.round() as u64,
            failover_cycles: t.stats.failover_cycles.round() as u64,
            hedge_cycles: 0,
            launch_path_cycles: t.stats.launch_path_cycles.round() as u64,
            graph_replays: t.stats.graph_replays,
            graph_captures: t.stats.graph_captures,
            graph_capture_cycles: t.stats.graph_capture_cycles.round() as u64,
            artifacts: devices.iter().map(|d| d.artifacts).sum(),
            certified: devices.iter().map(|d| d.certified).sum(),
            search_invocations: devices.iter().map(DeviceCore::search_invocations).sum(),
            store: self.store.stats().clone(),
            router_decisions: self.router.log().len() as u64,
            per_device: (devices.iter().enumerate())
                .map(|(d, core)| {
                    let (jobs_completed, busy_secs) =
                        t.per_device.get(d).copied().unwrap_or_default();
                    DeviceReport {
                        device: d as u32,
                        alive: alive(d),
                        jobs_completed,
                        busy_secs,
                        search_invocations: core.search_invocations(),
                    }
                })
                .collect(),
        }
    }
}
