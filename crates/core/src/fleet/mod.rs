//! The one serving loop: N simulated devices behind one deterministic
//! router in a single discrete-event loop.
//!
//! [`FleetEngine`] holds one device core per device (partitioner,
//! admission, controller, busy horizons), one [`ArtifactStore`] and one
//! job ledger, and coordinates:
//!
//! * **Routing** ([`router`]): rendezvous-hashed tenant homes and health
//!   bookkeeping (loss is permanent, partitions heal).
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
//! behind the clock.
//!
//! Each job is recorded once, in the ledger (`serve::metrics`), in
//! admission order: pushed when admission decides, filled in when the
//! job settles, rewritten by a failover. The record is the job's only
//! state: verdicts are read off it, and [`FleetReport`] and
//! [`crate::serve::ServeReport`] are folds over the ledger.
//!
//! Each occurrence is recorded once, on the timeline
//! ([`FleetEngine::trace`], one [`TraceEvent`] per entry), by
//! `FleetEngine::log` alone: the router, partitioner and controller
//! decide and return, and the loop writes what they decided. An
//! arrival's routing verdict is its `Dispatch` entry, a recut is its
//! `Rebalance` or brownout entry, a controller change its `PolicySwitch`
//! or `IntervalChange` entry. The reports count recuts and router
//! decisions off it, and same-seed runs reproduce it byte-identically.

pub mod router;
pub mod storm;

pub use crate::serve::cache::{ArtifactStore, Fetch, StoreStats};
pub use crate::serve::metrics::{DeviceReport, FleetReport};
pub use router::{Health, Router};
pub use storm::{FleetStorm, RackBrownout};

use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

use gpusim::{Device, DeviceFaultKind, DeviceFaultPlan, DeviceId};
use streamir::graph::FlatGraph;
use streamir::ir::Scalar;

use crate::pipeline::{PipelineOptions, ResilientCompiled, ResilientPipeline};
use crate::schedule::SearchInterrupt;
use crate::serve::cache::{verify_artifact, Lookup};
use crate::serve::device_core::{fetch_cost, DeviceCore};
use crate::serve::metrics::{Fate, Placed, Record, Service};
use crate::serve::{
    pipeline_options_for, warm, Decision, Event, EventKind, Job, JobResult, Pressure,
    RouteDecision, ServeOptions, ServeReport, Slice, TraceEvent, Verdict, WarmReport,
    COMPILE_PENALTY_SECS,
};
use crate::{Error, Result};

/// Virtual seconds to ship an artifact between devices on a remote store
/// hit (small next to a compile, which is the point). The ship starts
/// once the artifact exists.
pub const FETCH_PENALTY_SECS: f64 = 0.05;

/// Bound on concurrent ladder compiles unless
/// [`crate::serve::EventEngine::with_workers`] sets another.
const WORKERS: usize = 4;

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Number of simulated devices (identical hardware, distinct ids).
    pub devices: u32,
    /// The per-device serving configuration (hardware, budgets, queue
    /// bound, controller).
    pub base: ServeOptions,
    /// Artifact-store replication factor R.
    pub replication: u32,
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

#[derive(Debug, Clone)]
enum EvKind {
    /// Job `trace[i]` arrives.
    Arrival(usize),
    /// An occurrence about job `trace[i]` known before its instant — a
    /// compile or launch finish, an interval change — to record then.
    Record(usize, EventKind, String),
    /// Settling job `trace[i]` switched its tenant's policy at retry-rate
    /// EWMA `.1`; the tenant's graph is recompiled under the new policy.
    PolicySwitch(usize, f64),
    /// Device fault `plan.events()[i]` strikes.
    Fault(usize),
    /// A link partition heals.
    PartitionHeal,
    /// A brownout restores capacity.
    BrownoutHeal { restore_sms: u32 },
}

impl EvKind {
    /// The trace index of the job the event concerns.
    fn job(&self) -> Option<usize> {
        match self {
            EvKind::Arrival(i) | EvKind::Record(i, ..) | EvKind::PolicySwitch(i, _) => Some(*i),
            EvKind::Fault(_) | EvKind::PartitionHeal | EvKind::BrownoutHeal { .. } => None,
        }
    }
}

type Ev = Event<EvKind>;

/// One routing or health entry of the timeline, by the router's action
/// ([`TraceEvent::router_action`]).
#[derive(Debug, Clone, Copy)]
pub struct RouterEntry<'a> {
    /// `home`, `reroute`, `reject`, `kill`, `partition`,
    /// `partition-heal`, `brownout`, `brownout-heal`, `failover` or
    /// `abandon`.
    pub action: &'a str,
}

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
    /// The timeline: one entry per occurrence, in processing order.
    trace: Vec<TraceEvent>,
    /// One record per dispatched job of every run, in admission order.
    ledger: Vec<Record>,
    /// Every tenant's name, shared by its records and queued events.
    names: HashSet<Arc<str>>,
    /// Jobs settled so far: the next ledger service's `seq`.
    settles: u64,
    /// Trace lengths served. Not the ledger's length: a job that never
    /// reached admission is lost, and the chaos tests assert none is.
    submitted: u64,
    /// The makespan's bounds: the first arrival, and the latest finish
    /// ever scheduled (a job failed over or later abandoned included).
    first_arrival: Option<f64>,
    last_finish: f64,
    /// Added latency of each failover.
    failover_latencies: Vec<f64>,
    // The run in progress.
    heap: BinaryHeap<Ev>,
    next_seq: u64,
    clock: f64,
    /// The run's first ledger entry.
    run_from: usize,
    /// Ledger entries of settled jobs not yet finished at the clock.
    live: BTreeSet<usize>,
    /// Store-miss jobs awaiting their compile, FIFO per tenant.
    waiting: BTreeMap<String, VecDeque<(usize, Placed)>>,
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
                let device = Device::new(DeviceId(d), config, timing);
                DeviceCore::new(device, &opts.base, opts.checkpoint_interval)
            })
            .collect();
        FleetEngine {
            router: Router::new(n),
            store: ArtifactStore::replicated(opts.replication),
            devices,
            workers: WORKERS,
            trace: Vec::new(),
            ledger: Vec::new(),
            names: HashSet::new(),
            settles: 0,
            submitted: 0,
            first_arrival: None,
            last_finish: 0.0,
            failover_latencies: Vec::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            clock: f64::NEG_INFINITY,
            run_from: 0,
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

    /// The timeline of every run so far: one entry per occurrence, in
    /// processing order — the determinism witness the chaos CI jobs
    /// upload.
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The timeline's routing and health entries, the ones
    /// [`FleetReport::router_decisions`] counts, by router action. A view
    /// of [`FleetEngine::trace`], kept because the benchmark's fleet
    /// workload counts reroutes through it.
    #[must_use]
    pub fn router_log(&self) -> Vec<RouterEntry<'_>> {
        (self.trace.iter())
            .filter_map(TraceEvent::router_action)
            .map(|action| RouterEntry { action })
            .collect()
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
        self.verdicts(
            trace,
            // `start_secs` is when execution began on the device that
            // finished the job.
            |tenant, arrival_secs, s| {
                FleetVerdict::Completed(Box::new(FleetJobResult {
                    tenant: tenant.to_string(),
                    arrival_secs,
                    start_secs: s.exec_start,
                    artifact_ready_secs: s.artifact_ready,
                    finish_secs: s.finish,
                    latency_secs: s.finish - arrival_secs,
                    home: s.placed.home,
                    device: s.on,
                    rerouted: s.placed.rerouted,
                    failed_over: s.failed_over,
                    hedged: false,
                    fetch: s.fetch,
                    outputs: std::mem::take(&mut s.run.outputs),
                    stats: s.run.stats.clone(),
                }))
            },
            |retry_after_secs| FleetVerdict::Rejected { retry_after_secs },
        )
    }

    /// [`FleetEngine::run`] with the single-device verdicts, whose
    /// `start_secs` is the service start.
    pub(crate) fn serve_solo(&mut self, trace: &[(Job, f64)]) -> Result<Vec<Verdict>> {
        self.verdicts(
            trace,
            |_, arrival_secs, s| {
                let shipped = (s.artifact.as_ref()).map(|a| a.report.shipped);
                Verdict::Completed(Box::new(JobResult {
                    arrival_secs,
                    start_secs: s.start,
                    finish_secs: s.finish,
                    latency_secs: s.finish - arrival_secs,
                    exec_secs: s.run.time_secs,
                    cache_hit: s.fetch != Fetch::Miss,
                    shipped: shipped.expect("a finished run holds its artifact"),
                    slice: s.placed.slice,
                    retries: s.run.retries,
                    outputs: std::mem::take(&mut s.run.outputs),
                }))
            },
            |retry_after_secs| Verdict::Rejected { retry_after_secs },
        )
    }

    /// Serves `trace` and returns its verdicts in submission order:
    /// `completed` of each finished job's tenant, arrival and service,
    /// and `rejected` of each rejected or abandoned job's retry hint.
    /// The ledger keeps every record but drops each finished job's
    /// artifact and launch trace, which only the run needed.
    fn verdicts<V>(
        &mut self,
        trace: &[(Job, f64)],
        completed: impl Fn(&str, f64, &mut Service) -> V,
        rejected: impl Fn(f64) -> V,
    ) -> Result<Vec<V>> {
        self.serve(trace)?;
        let mut order: Vec<usize> = (self.run_from..self.ledger.len()).collect();
        order.sort_by_key(|&e| self.ledger[e].job);
        Ok((order.into_iter())
            .map(|e| {
                let rec = &mut self.ledger[e];
                match &mut rec.fate {
                    Fate::Rejected { retry_after_secs } => rejected(*retry_after_secs),
                    Fate::Served(s) => match s.abandoned {
                        Some(retry_after_secs) => rejected(retry_after_secs),
                        None => {
                            let verdict = completed(&rec.tenant, rec.arrival, s);
                            (s.artifact, s.run.launch_cycles) = (None, Vec::new());
                            verdict
                        }
                    },
                    Fate::Waiting | Fate::Refused { .. } => {
                        unreachable!("every job completes or is rejected")
                    }
                }
            })
            .collect())
    }

    /// Runs the loop over `trace`, recording every job in the ledger. On
    /// error, in-flight compiles are interrupted (collapsing them to the
    /// serial rung), joined, and their reservations abandoned, so the
    /// store never dangles a pending entry.
    fn serve(&mut self, trace: &[(Job, f64)]) -> Result<()> {
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
        Ok(())
    }

    fn begin(&mut self, trace: &[(Job, f64)]) {
        self.heap.clear();
        self.next_seq = 0;
        self.clock = f64::NEG_INFINITY;
        self.waiting.clear();
        self.ready.clear();
        self.compiled_at.clear();
        self.live.clear();
        self.run_from = self.ledger.len();
        self.submitted += trace.len() as u64;
        // Arrivals first, so arrival `i` takes sequence number `i`.
        for (i, (job, at)) in trace.iter().enumerate() {
            let home = self.router.home(&job.tenant).0;
            self.schedule(*at, home, &job.tenant, EvKind::Arrival(i));
        }
        let faults = self.opts.device_faults.clone();
        for (i, fault) in faults.events().iter().enumerate() {
            self.schedule(fault.at_secs, fault.device.0, "", EvKind::Fault(i));
        }
    }

    /// Drains the queue, then resolves leftover pending compiles in
    /// tenant-name order (which schedules more events), until both are
    /// empty.
    fn drive(&mut self, trace: &[(Job, f64)]) -> Result<()> {
        loop {
            while let Some(ev) = self.heap.pop() {
                self.clock = self.clock.max(ev.time);
                let (ledger, clock) = (&self.ledger, self.clock);
                self.live
                    .retain(|&e| ledger[e].service().is_some_and(|s| s.finish > clock));
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
        let tenant = self.name(tenant);
        self.heap.push(Ev {
            time,
            device,
            tenant,
            seq: self.next_seq,
            kind,
        });
        self.next_seq += 1;
    }

    /// Appends one entry to the timeline — the only code that does —
    /// stamped with the time, sequence number, device, tenant and job of
    /// the event `ev` that produced it, and returns it for the caller to
    /// name another device, tenant or job.
    fn log(&mut self, ev: &Ev, kind: EventKind, detail: String) -> &mut TraceEvent {
        self.trace.push(TraceEvent {
            time_secs: ev.time,
            device: ev.device,
            tenant: Arc::clone(&ev.tenant),
            job: ev.kind.job().map(|j| j as u64),
            seq: ev.seq,
            kind,
            detail,
        });
        self.trace.last_mut().expect("just pushed")
    }

    fn handle(&mut self, trace: &[(Job, f64)], ev: Ev) -> Result<()> {
        match &ev.kind {
            EvKind::Arrival(i) => self.dispatch(trace, &ev, *i)?,
            EvKind::Record(_, kind, detail) => {
                self.log(&ev, *kind, detail.clone());
            }
            EvKind::PolicySwitch(i, ewma) => self.policy_switch(trace, &ev, *i, *ewma)?,
            EvKind::Fault(i) => self.fault(trace, &ev, *i)?,
            EvKind::PartitionHeal => {
                self.router.heal(DeviceId(ev.device));
                self.log(&ev, EventKind::PartitionHeal, String::new());
            }
            EvKind::BrownoutHeal { restore_sms } => {
                let d = ev.device;
                if self.router.alive(DeviceId(d)) {
                    let p = &mut self.devices[d as usize].partitioner;
                    let floor = (p.slices().len() as u32).max(1);
                    let restored = (*restore_sms).max(floor);
                    p.set_capacity(restored)?;
                    let detail = format!("sms={restored} {}", self.slice_widths(d));
                    self.log(&ev, EventKind::BrownoutHeal, detail);
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
        self.first_arrival.get_or_insert(t);
        // The home partitioner observes every arrival — dead or alive —
        // so slice widths are a pure function of the trace.
        let recut = self.devices[home as usize]
            .partitioner
            .record_arrival(&job.tenant, t)?;
        self.log(ev, EventKind::Arrival, String::new());
        if recut {
            self.devices[home as usize].partitioner.recut();
            let widths = self.slice_widths(home);
            self.log(ev, EventKind::Rebalance, widths);
        }
        let slice = self.devices[home as usize]
            .partitioner
            .slice(&job.tenant)
            .expect("observed tenant has a slice");
        self.resolve(trace, &job.tenant)?;
        let Some((device, slice, pressure, rerouted)) = self.admit(trace, ev, i, slice) else {
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
        let entry = self.record(&job.tenant, i, device, t, Fate::Waiting);
        let placed = Placed {
            home,
            slice,
            rerouted,
            key,
        };
        let outcome = match lookup {
            Lookup::Hit(artifact, fetch) => {
                self.settle(trace, entry, placed, artifact, fetch)?;
                "hit"
            }
            Lookup::PendingHit(fetch) => {
                // Another dispatch reserved this key and the artifact is
                // deterministic: join its compile and serve it verified,
                // like any other hit.
                let artifact = self.artifact_for(key)?;
                verify_artifact(&artifact)?;
                self.settle(trace, entry, placed, artifact, fetch)?;
                "pending-hit"
            }
            Lookup::Miss => {
                self.spawn_compile(key, &job.graph, popts)?;
                self.waiting
                    .entry(job.tenant.clone())
                    .or_default()
                    .push_back((entry, placed));
                "miss"
            }
        };
        let route = if rerouted { "reroute" } else { "home" };
        self.log(ev, EventKind::Dispatch, format!("{route} {outcome}"))
            .device = device;
        Ok(())
    }

    /// Admission at the tenant's home, rerouted to the best usable
    /// alternate when home is down or full. Returns the serving device,
    /// the slice to compile at and place on, the compile pressure and
    /// whether the job was rerouted — or `None` once a rejection is
    /// recorded in the ledger and on the timeline.
    fn admit(
        &mut self,
        trace: &[(Job, f64)],
        ev: &Ev,
        i: usize,
        slice: Slice,
    ) -> Option<(u32, Slice, Pressure, bool)> {
        let (job, t, home) = (&trace[i].0, ev.time, DeviceId(ev.device));
        let tenant = job.tenant.as_str();
        let home_finishes = self.backlog(tenant, home.0, t);
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
        let (device, retry_after_secs) = match routed {
            RouteDecision::Admit(p) => return Some((home.0, slice, p, false)),
            RouteDecision::Reject { retry_after_secs } => (home, retry_after_secs),
            RouteDecision::Reroute => {
                let target = (self.router.route(tenant, Some(home)))
                    .expect("Reroute implies a usable alternate");
                let finishes = self.backlog(tenant, target.0, t);
                let admission = &self.devices[target.0 as usize].admission;
                match admission.decide_event(&finishes, t) {
                    Decision::Admit(p) => {
                        let guest = Slice {
                            base_sm: 0,
                            num_sms: slice.num_sms,
                        };
                        return Some((target.0, guest, p, true));
                    }
                    Decision::Reject { retry_after_secs } => (target, retry_after_secs),
                }
            }
        };
        self.record(tenant, i, device.0, t, Fate::Rejected { retry_after_secs });
        let detail = format!("reject retry after {retry_after_secs:.3}s");
        self.log(ev, EventKind::Dispatch, detail).device = device.0;
        None
    }

    /// Finish times of the tenant's live jobs on `device` after `now` —
    /// admission's per-(tenant, device) backlog.
    fn backlog(&self, tenant: &str, device: u32, now: f64) -> Vec<f64> {
        (self.live.iter().map(|&e| &self.ledger[e]))
            .filter(|r| *r.tenant == *tenant)
            .filter_map(Record::service)
            .filter(|s| s.on == device && s.finish > now)
            .map(|s| s.finish)
            .collect()
    }

    /// The one shared copy of `tenant`'s name.
    fn name(&mut self, tenant: &str) -> Arc<str> {
        if let Some(name) = self.names.get(tenant) {
            return Arc::clone(name);
        }
        let name: Arc<str> = tenant.into();
        self.names.insert(Arc::clone(&name));
        name
    }

    /// Appends a ledger record of job `job` and returns its entry.
    fn record(&mut self, tenant: &str, job: usize, device: u32, arrival: f64, fate: Fate) -> usize {
        let tenant = self.name(tenant);
        self.ledger.push(Record {
            tenant,
            job,
            device,
            arrival,
            fate,
        });
        self.ledger.len() - 1
    }

    /// Settles ledger entry `entry`, placed at `placed`, on its device's
    /// core, no earlier than its artifact exists, records its service and
    /// schedules what follows from its window. A miss's own window fixes
    /// when its artifact exists.
    fn settle(
        &mut self,
        trace: &[(Job, f64)],
        entry: usize,
        placed: Placed,
        artifact: Arc<ResilientCompiled>,
        fetch: Fetch,
    ) -> Result<()> {
        let (i, device, arrival) = {
            let rec = &self.ledger[entry];
            (rec.job, rec.device, rec.arrival)
        };
        let job = &trace[i].0;
        let available_at = if fetch == Fetch::Miss {
            f64::NEG_INFINITY
        } else {
            self.ready_at(trace, placed.key)?
        };
        let certified = artifact.isolation.is_some();
        let core = &mut self.devices[device as usize];
        let (mut service, adjusted) =
            match core.settle(job, artifact, placed, arrival, fetch, available_at) {
                Ok(settled) => settled,
                Err(e) => {
                    self.ledger[entry].fate = Fate::Refused { certified };
                    return Err(e);
                }
            };
        service.seq = self.settles;
        self.settles += 1;
        let (exec_start, finish) = (service.exec_start, service.finish);
        self.ledger[entry].fate = Fate::Served(Box::new(service));
        self.last_finish = self.last_finish.max(finish);
        // A controller change becomes an event at the finish, so it is
        // recorded, and a switch's recompile pre-spawned, in
        // deterministic event order.
        let ewma = adjusted.ewma;
        let record = |kind, detail| EvKind::Record(i, kind, detail);
        if let Some((from, to)) = adjusted.interval {
            let change = record(
                EventKind::IntervalChange,
                format!("{from}->{to} ewma={ewma}"),
            );
            self.schedule(finish, device, &job.tenant, change);
        }
        if adjusted.policy.is_some() {
            self.schedule(finish, device, &job.tenant, EvKind::PolicySwitch(i, ewma));
        }
        if fetch == Fetch::Miss {
            self.compiled_at.insert(placed.key, exec_start);
            let compiled = record(EventKind::CompileFinish, String::new());
            self.schedule(exec_start, device, &job.tenant, compiled);
        }
        let finished = record(EventKind::LaunchFinish, String::new());
        self.schedule(finish, device, &job.tenant, finished);
        self.live.insert(entry);
        Ok(())
    }

    /// When `key`'s artifact exists in virtual time: its compile's finish
    /// for a key compiled this run, −∞ for one that existed before it. A
    /// reservation whose owner still waits settles the owner's tenant
    /// first, since the owner's window fixes the instant.
    fn ready_at(&mut self, trace: &[(Job, f64)], key: u64) -> Result<f64> {
        let owner = (self.waiting.iter())
            .find(|(_, q)| q.iter().any(|(_, p)| p.key == key))
            .map(|(tenant, _)| tenant.clone());
        if let Some(tenant) = owner {
            self.resolve(trace, &tenant)?;
        }
        Ok(self
            .compiled_at
            .get(&key)
            .copied()
            .unwrap_or(f64::NEG_INFINITY))
    }

    /// Settles every pending store-miss job of `tenant`, oldest first.
    /// Runs before anything reads those jobs' windows, so per-tenant
    /// completion order is arrival order.
    fn resolve(&mut self, trace: &[(Job, f64)], tenant: &str) -> Result<()> {
        while let Some((entry, placed)) = self.waiting.get_mut(tenant).and_then(VecDeque::pop_front)
        {
            let artifact = self.artifact_for(placed.key)?;
            self.settle(trace, entry, placed, artifact, Fetch::Miss)?;
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
    fn policy_switch(&mut self, trace: &[(Job, f64)], ev: &Ev, i: usize, ewma: f64) -> Result<()> {
        let job = &trace[i].0;
        let home = self.router.home(&job.tenant).0 as usize;
        let Some(slice) = self.devices[home].partitioner.slice(&job.tenant) else {
            let detail = format!("no-slice ewma={ewma}");
            self.log(ev, EventKind::PolicySwitch, detail);
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
                self.compiled_at.insert(key, ev.time + COMPILE_PENALTY_SECS);
                "recompile"
            }
        };
        let detail = format!("policy={policy} {outcome} ewma={ewma}");
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
                self.log(ev, EventKind::DeviceLoss, String::new());
                self.failover_sweep(ev, d);
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
                p.set_capacity(target)
                    .expect("brownout capacity floored at tenant count");
                let detail = format!("sms={target} {}", self.slice_widths(d.0));
                self.log(ev, EventKind::Brownout, detail);
                if let Some(heal) = heal_secs {
                    self.schedule(t + heal, d.0, "", EvKind::BrownoutHeal { restore_sms });
                }
            }
            DeviceFaultKind::LinkPartition { heal_secs } => {
                self.router.mark_partitioned(d, t + heal_secs);
                let detail = format!("heals at {:.3}s", t + heal_secs);
                self.log(ev, EventKind::LinkPartition, detail);
                self.schedule(t + heal_secs, d.0, "", EvKind::PartitionHeal);
            }
        }
        Ok(())
    }

    /// Fails every job in flight on a lost device over to a healthy
    /// replica: ship the last k-launch commit's state words, replay the
    /// launches past the commit, bill the overhead into the disjoint
    /// `failover_cycles` component. Jobs with no usable target are
    /// rejected (never lost). `ev` is the loss.
    fn failover_sweep(&mut self, ev: &Ev, dead: DeviceId) {
        let (timing, t) = (self.opts.base.timing.clone(), ev.time);
        for e in self.live.clone() {
            let rec = &mut self.ledger[e];
            let (j, tenant) = (rec.job, Arc::clone(&rec.tenant));
            let Fate::Served(s) = &mut rec.fate else {
                continue;
            };
            if s.on != dead.0 || s.finish <= t {
                continue;
            }
            let Some(target) = self.router.route(&tenant, None) else {
                s.abandoned = Some(self.router.heal_hint_secs(t));
                let detail = "no usable device to fail over to".to_string();
                let entry = self.log(ev, EventKind::Abandon, detail);
                (entry.tenant, entry.job) = (tenant, Some(j as u64));
                self.live.remove(&e);
                continue;
            };
            let Some(artifact) = s.artifact.clone() else {
                continue;
            };

            let usable = self.router.usable_devices();
            let key = s.placed.key;
            let fetch =
                (self.store.fetch(key, target, &usable)).expect("artifact verified at insert");
            if fetch == Fetch::Miss {
                // Every replica died with the fleet's losses: pay a
                // recompile and restore the store from the job's own
                // copy of the artifact.
                self.store
                    .insert(key, Arc::clone(&artifact), target, &usable);
            }
            let fetch_cost = fetch_cost(fetch);
            let tbusy = self.devices[target.0 as usize].busy_until(&tenant);
            let compiled = self.compiled_at.get(&key).copied();
            let ready = t.max(tbusy).max(compiled.unwrap_or(f64::NEG_INFINITY));
            let (old_finish, base, run) = (s.finish, s.trace_base, &mut s.run);

            // Cycles to ship the last commit's state and to replay the
            // launches past it, and the launch execution resumes from.
            let (ship, replay, committed) = if s.exec_start >= t {
                // Never started executing: pure re-dispatch, no state to
                // ship, no launches to replay.
                (0.0, 0.0, base)
            } else {
                let elapsed = (t - s.exec_start) * timing.clock_hz;
                let k = run.checkpoint_interval.max(1) as usize;
                let mut completed = base;
                let mut cum = 0.0;
                for &lc in &run.launch_cycles[base..] {
                    if cum + lc <= elapsed {
                        cum += lc;
                        completed += 1;
                    } else {
                        break;
                    }
                }
                let committed = base.max(completed - completed % k);
                let replay: f64 = run.launch_cycles[committed..completed].iter().sum();
                let state_words = artifact.report.checkpoint.state_words;
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
                let stats = &mut run.stats;
                let recapture = if stats.graph_captures > 0 {
                    stats.graph_capture_cycles / stats.graph_captures as f64
                } else {
                    0.0
                };
                let overhead = ship + replay + recapture;
                stats.cycles += overhead;
                stats.fault_overhead_cycles += overhead;
                stats.failover_cycles += overhead;
                stats.assert_billing();
                (ship, replay, committed)
            };
            let prefix: f64 = run.launch_cycles[..committed].iter().sum();
            let remaining = run.time_secs - timing.secs(prefix);
            s.exec_start = ready + fetch_cost + timing.secs(ship);
            s.finish = s.exec_start + timing.secs(replay) + remaining;
            s.on = target.0;
            s.trace_base = committed;
            s.failed_over += 1;
            let finish = s.finish;

            self.devices[target.0 as usize].occupy(&tenant, finish);
            self.failover_latencies.push((finish - old_finish).max(0.0));
            self.last_finish = self.last_finish.max(finish);
            let detail = format!("{fetch:?} fetch, resumed from launch {committed}");
            let entry = self.log(ev, EventKind::Failover, detail);
            (entry.device, entry.tenant, entry.job) = (target.0, tenant, Some(j as u64));
        }
    }

    fn makespan(&self) -> f64 {
        (self.last_finish - self.first_arrival.unwrap_or(0.0)).max(0.0)
    }

    /// Device 0's serving report — the single-device view of the ledger.
    pub(crate) fn serve_report(&self) -> ServeReport {
        let cache = self.store.cache_stats();
        let core = &self.devices[0];
        ServeReport::of(&self.ledger, &self.trace, 0, core, self.makespan(), cache)
    }

    /// Snapshots the run into a serializable report — the fleet view of
    /// the ledger. Call after [`FleetEngine::run`].
    #[must_use]
    pub fn report(&self) -> FleetReport {
        let alive = (0..self.devices.len() as u32)
            .map(|d| self.router.alive(DeviceId(d)))
            .collect::<Vec<_>>();
        FleetReport::of(
            &self.ledger,
            &self.trace,
            &alive,
            self.submitted,
            self.makespan(),
            &self.failover_latencies,
            self.store.stats().clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::engine::tests::job;

    /// A dispatch refused for carrying no isolation certificate still
    /// counts as an artifact, but not as certified, in both views.
    #[test]
    fn refused_dispatch_counts_as_an_uncertified_artifact() {
        let mut engine = FleetEngine::solo(ServeOptions::default());
        let trace = [(job("t", 2), 0.0)];
        let job = &trace[0].0;
        let popts = pipeline_options_for(&engine.opts.base, 4, Pressure::Nominal, job.qos.policy());
        let mut artifact = ResilientPipeline::new(popts).compile(&job.graph).unwrap();
        artifact.isolation = None;
        let entry = engine.record("t", 0, 0, 0.0, Fate::Waiting);
        let (placed, artifact) = (Placed::default(), Arc::new(artifact));
        let refused = engine.settle(&trace, entry, placed, artifact, Fetch::Miss);
        let refusal = refused.unwrap_err().to_string();
        assert!(refusal.contains("isolation certificate"), "{refusal}");
        let (serve, fleet) = (engine.serve_report(), engine.report());
        assert_eq!((serve.artifacts, serve.certified), (1, 0));
        assert_eq!((fleet.artifacts, fleet.certified), (1, 0));
    }
}
