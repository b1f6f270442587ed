//! Deterministic discrete-event serving engine.
//!
//! [`EventEngine`] replaces the eager per-job simulation of
//! [`super::Server::submit`] with an event loop over a virtual clock.
//! Five event kinds — arrival, rebalance, dispatch, compile-finish,
//! launch-finish (plus optional checkpoint ticks) — are totally ordered
//! by the shared serving-event key `(virtual_time, device, tenant, seq)`
//! with `device = 0` throughout, so two runs over the same trace pop the
//! queue in exactly the same order and the whole run is bit-reproducible
//! regardless of wall-clock thread scheduling.
//!
//! **Overlap.** The eager server pays every cache-miss compilation
//! inline: while the degradation ladder runs, nothing else is served.
//! The engine instead claims the cache key with a *reservation*
//! ([`super::cache::Lookup::Miss`]), hands the ladder to a bounded
//! worker pool, and keeps processing events — cache-hit tenants launch
//! while the miss compiles. Each worker's search carries an armed
//! [`SearchInterrupt`], so a compile the engine must give up on (the
//! trace errored out) collapses to the serial rung instead of holding a
//! thread hostage.
//!
//! **Equivalence.** Per-job results are byte-identical to the eager
//! path, by construction rather than by luck:
//!
//! * Arrivals are processed in `(time, tenant, seq)` order — exactly
//!   the order the differential tests feed the eager server.
//! * Admission, the service window (`start = max(arrival, busy_until)`,
//!   `finish = start + compile_penalty + exec`), the metric roll-up and
//!   the report are not re-implemented here: both paths hold the same
//!   device core and call its `admit`/`settle`/`report`, and compile
//!   options come from the one [`super::pipeline_options_for`], so the
//!   cache addresses identical content.
//! * A pending compile's job is *settled* — inflight entry pushed, busy
//!   horizon advanced — before any later same-tenant dispatch reads
//!   that state, which is when the eager path would have had it.
//! * All metric accumulation is order-insensitive (sums, plus
//!   percentiles over sorted copies), so late completions cannot skew
//!   the report.
//!
//! The one intentional divergence: the engine records EWMA arrival
//! observations at arrival-event dequeue with the event's own
//! timestamp, where the eager server clamps out-of-order arrivals to
//! its monotone clock. For sorted traces the two coincide (the
//! differential guarantee); for out-of-order submission the engine is
//! the correct one (see
//! `partition::tests::recut_log_locks_the_sequence_...`).
//!
//! The trace of processed events is exposed via
//! [`EventEngine::trace`]; the report adds
//! [`ServeMetrics::compile_overlap_secs`] — the intersection of each
//! compile-penalty window with the union of *other* tenants' execution
//! intervals — and a queue-wait p99 per tenant.

use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

use serde::Serialize;

use crate::pipeline::{ResilientCompiled, ResilientPipeline};
use crate::schedule::SearchInterrupt;
use crate::serve::cache::{verify_artifact, CacheStats, Lookup};
use crate::serve::device_core::DeviceCore;
use crate::serve::metrics::ServeReport;
use crate::serve::partition::Slice;
use crate::serve::resilience::{BrownoutSpec, ControllerDecision};
use crate::serve::{pipeline_options_for, Event, Job, Pressure, ServeOptions, Verdict};
use crate::{Error, Result};
use streamir::graph::FlatGraph;

/// The kind of a processed event, for the audit trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EventKind {
    /// A job arrived: demand recorded, rebalance/dispatch scheduled.
    Arrival,
    /// The partition was recut from the current demand estimates.
    Rebalance,
    /// Admission decided and the job was served (or rejected).
    Dispatch,
    /// A cache-miss compilation's virtual penalty window closed.
    CompileFinish,
    /// A job's service finished (virtual time).
    LaunchFinish,
    /// A periodic observability tick (when enabled).
    Checkpoint,
    /// The resilience controller switched a tenant's fault policy and
    /// the recompile was pre-spawned on the worker pool.
    PolicySwitch,
    /// A device brownout shrank (or restored) the usable SM range and
    /// forced a partition recut.
    Brownout,
}

/// One processed event, in processing order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// The event's own virtual timestamp. Launch/compile-finish events
    /// are scheduled once their instant is known, which can be after
    /// the clock passed it; the processing order (this log's order)
    /// stays total because their handlers are order-insensitive.
    pub time_secs: f64,
    /// The tenant the event belongs to (empty for checkpoints).
    pub tenant: String,
    /// Tie-break sequence within `(time, tenant)`.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Human-readable detail (admission verdict, cache outcome, ...).
    pub detail: String,
}

/// Events are strided 8 apart per arrival so an arrival's children
/// (rebalance at `+1`, dispatch at `+2`, finishes at `+3`/`+4`) sort
/// between it and the next same-instant arrival.
const SEQ_STRIDE: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    Arrival(usize),
    Rebalance,
    Dispatch(usize),
    CompileFinish,
    LaunchFinish,
    Checkpoint,
    /// Carries the index of the job whose completion triggered the
    /// switch — its graph is what gets recompiled under the new policy.
    PolicySwitch(usize),
    /// Carries the post-brownout device capacity in SMs.
    Brownout(u32),
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

/// A dispatched cache-miss job awaiting its compile.
struct PendingJob {
    key: u64,
    slice: Slice,
    /// The job's clamped arrival instant — `start` is computed against
    /// *this*, not against the clock at resolution time.
    arrival: f64,
}

/// One completed job's virtual service record, for overlap accounting.
struct CompletedJob {
    tenant: String,
    start: f64,
    compile_cost: f64,
    finish: f64,
}

/// Per-trace transient state: the event queue, the worker pool, and the
/// resolution bookkeeping.
struct RunState {
    jobs: Vec<Job>,
    results: Vec<Option<Verdict>>,
    heap: BinaryHeap<Ev>,
    /// Compiles in flight, in spawn order (the pool bound joins the
    /// oldest first — deterministic, unlike completion order).
    pending: Vec<PendingCompile>,
    /// Cache-miss jobs awaiting completion, FIFO per tenant.
    tenant_queue: BTreeMap<String, VecDeque<usize>>,
    job_meta: HashMap<usize, PendingJob>,
    /// Artifacts already joined and fulfilled, by cache key: the very
    /// values the cache slots hold.
    ready: HashMap<u64, Arc<ResilientCompiled>>,
    /// Sequence counter for events scheduled after the arrival block.
    aux_seq: u64,
}

impl RunState {
    /// Queues `kind` for `tenant` at `time` under an explicit sequence
    /// number (arrivals and their strided children).
    fn schedule(&mut self, time: f64, tenant: &str, seq: u64, kind: EvKind) {
        self.heap.push(Ev {
            time,
            device: 0,
            tenant: tenant.to_string(),
            seq,
            kind,
        });
    }

    /// [`RunState::schedule`] under the next auxiliary sequence number —
    /// for events that become known after the arrival block was laid out.
    fn schedule_aux(&mut self, time: f64, tenant: &str, kind: EvKind) {
        self.aux_seq += 1;
        self.schedule(time, tenant, self.aux_seq, kind);
    }
}

/// The deterministic discrete-event serving engine.
pub struct EventEngine {
    /// The device's serving state and job lifecycle, shared with the
    /// eager oracle.
    core: DeviceCore,
    workers: usize,
    checkpoint_period_secs: f64,
    trace: Vec<TraceEvent>,
    completed: Vec<CompletedJob>,
    brownouts: Vec<BrownoutSpec>,
}

impl EventEngine {
    /// A fresh engine over `opts.device` with a default 4-worker
    /// compile pool and no checkpoint ticks.
    #[must_use]
    pub fn new(opts: ServeOptions) -> EventEngine {
        EventEngine {
            core: DeviceCore::new(opts),
            workers: 4,
            checkpoint_period_secs: 0.0,
            trace: Vec::new(),
            completed: Vec::new(),
            brownouts: Vec::new(),
        }
    }

    /// Bounds the compile worker pool at `n` concurrent ladders
    /// (floored at 1). Spawning past the bound joins the *oldest*
    /// in-flight compile — a deterministic choice, unlike waiting on
    /// whichever thread happens to finish first.
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> EventEngine {
        self.workers = n.max(1);
        self
    }

    /// Pre-compiles `graphs` into this engine's cache at every
    /// plausible slice width for up to `max_tenants` tenants, under
    /// both fault policies (see [`super::warm::warm_cache`]). Call
    /// before [`EventEngine::serve_trace`] to take first-submission
    /// compiles off the serving path; statistics are reset so the
    /// subsequent trace reports its own hit rate.
    pub fn warm(&mut self, graphs: &[FlatGraph], max_tenants: usize) -> super::warm::WarmReport {
        super::warm::warm_cache(&mut self.core.cache, &self.core.opts, graphs, max_tenants)
    }

    /// Enables periodic checkpoint events every `secs` of virtual time
    /// (disabled when `secs <= 0`). Checkpoints are observability
    /// ticks: they snapshot the completed-job count into the trace and
    /// never touch serving state.
    #[must_use]
    pub fn with_checkpoint_period(mut self, secs: f64) -> EventEngine {
        self.checkpoint_period_secs = secs;
        self
    }

    /// Schedules a device brownout: at `spec.at_secs` of virtual time
    /// the usable SM range shrinks to `spec.total_sms` and the
    /// partition is recut into it. Later dispatches see the smaller
    /// slices, so their compiles are content-addressed at the new
    /// widths. May be called several times (e.g. brownout then
    /// recovery).
    #[must_use]
    pub fn with_brownout(mut self, spec: BrownoutSpec) -> EventEngine {
        self.brownouts.push(spec);
        self
    }

    /// Serves a whole arrival trace and returns one verdict per input
    /// job, in input order. The trace need not be sorted: events are
    /// ordered by `(arrival, tenant, input index)` internally, which is
    /// also where the engine fixes the eager server's simulation-time
    /// EWMA distortion for out-of-order submission.
    ///
    /// # Errors
    ///
    /// Compilation or execution errors, and [`crate::Error::Api`] when
    /// the tenant population would exceed one tenant per SM. On error,
    /// in-flight compiles are interrupted (collapsing them to the
    /// serial rung), joined, and their cache reservations abandoned, so
    /// the cache never dangles a pending entry.
    pub fn serve_trace(&mut self, trace: &[(Job, f64)]) -> Result<Vec<Verdict>> {
        let mut run = RunState {
            jobs: trace.iter().map(|(j, _)| j.clone()).collect(),
            results: trace.iter().map(|_| None).collect(),
            heap: BinaryHeap::new(),
            pending: Vec::new(),
            tenant_queue: BTreeMap::new(),
            job_meta: HashMap::new(),
            ready: HashMap::new(),
            aux_seq: trace.len() as u64 * SEQ_STRIDE,
        };
        for (i, (job, arrival)) in trace.iter().enumerate() {
            let seq = i as u64 * SEQ_STRIDE;
            run.schedule(*arrival, &job.tenant, seq, EvKind::Arrival(i));
        }
        for spec in &self.brownouts {
            run.schedule_aux(spec.at_secs, "", EvKind::Brownout(spec.total_sms));
        }
        if self.checkpoint_period_secs > 0.0 {
            if let Some(first) = trace.iter().map(|(_, t)| *t).min_by(f64::total_cmp) {
                run.schedule_aux(first + self.checkpoint_period_secs, "", EvKind::Checkpoint);
            }
        }

        let outcome = self.run_events(&mut run);
        if let Err(e) = outcome {
            // Preempt every in-flight ladder so workers collapse to the
            // serial rung promptly, then drop their reservations: the
            // failed trace must not leave pending cache entries behind.
            for p in &run.pending {
                p.interrupt.raise();
            }
            for p in run.pending.drain(..) {
                let key = p.key;
                let _ = p.join();
                self.core.cache.abandon(key);
            }
            return Err(e);
        }
        Ok(run
            .results
            .into_iter()
            .map(|r| r.expect("every arrival was dispatched"))
            .collect())
    }

    /// The full event loop: drain the queue, then resolve leftover
    /// pending compiles in deterministic tenant-name order (which can
    /// schedule more finish events), until both are empty.
    fn run_events(&mut self, run: &mut RunState) -> Result<()> {
        loop {
            while let Some(ev) = run.heap.pop() {
                self.handle(run, ev)?;
            }
            let waiting: Vec<String> = run
                .tenant_queue
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(t, _)| t.clone())
                .collect();
            if waiting.is_empty() {
                // Pre-spawned policy-switch recompiles may outlive every
                // dispatch; join them (oldest first) so their cache
                // reservations are fulfilled before the trace returns.
                while !run.pending.is_empty() {
                    let oldest = run.pending.remove(0);
                    self.join_and_fulfill(run, oldest)?;
                }
                return Ok(());
            }
            for tenant in waiting {
                self.resolve_tenant(run, &tenant)?;
            }
        }
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

    fn handle(&mut self, run: &mut RunState, ev: Ev) -> Result<()> {
        self.core.tick(ev.time);
        match ev.kind {
            EvKind::Arrival(i) => self.on_arrival(run, &ev, i),
            EvKind::Rebalance => {
                self.core.partitioner.recut_at(ev.time);
                self.log(&ev, EventKind::Rebalance, self.slice_widths());
                Ok(())
            }
            EvKind::Dispatch(i) => self.on_dispatch(run, &ev, i),
            EvKind::CompileFinish => {
                self.log(&ev, EventKind::CompileFinish, String::new());
                Ok(())
            }
            EvKind::LaunchFinish => {
                self.log(&ev, EventKind::LaunchFinish, String::new());
                Ok(())
            }
            EvKind::Checkpoint => {
                let done = run.results.iter().filter(|r| r.is_some()).count();
                self.log(&ev, EventKind::Checkpoint, format!("jobs_done={done}"));
                if !run.heap.is_empty() {
                    let next = ev.time + self.checkpoint_period_secs;
                    run.schedule_aux(next, "", EvKind::Checkpoint);
                }
                Ok(())
            }
            EvKind::PolicySwitch(i) => self.on_policy_switch(run, &ev, i),
            EvKind::Brownout(total_sms) => {
                self.core.partitioner.set_capacity(total_sms, ev.time)?;
                let detail = format!("sms={total_sms} {}", self.slice_widths());
                self.log(&ev, EventKind::Brownout, detail);
                Ok(())
            }
        }
    }

    /// Every tenant's slice width, `name:width` comma-joined in name
    /// order — the trace detail of a recut.
    fn slice_widths(&self) -> String {
        let widths: Vec<String> = self
            .core
            .partitioner
            .slices()
            .iter()
            .map(|(t, s)| format!("{t}:{}", s.num_sms))
            .collect();
        widths.join(",")
    }

    /// Applies a controller-ordered policy switch: re-addresses the
    /// triggering job's graph under the new policy and, on a cache
    /// miss, pre-spawns the recompile on the worker pool so the new
    /// artifact is (being) built before the tenant's next dispatch asks
    /// for it — the switch overlaps serving instead of stalling it.
    /// Both policies' artifacts stay cached under distinct keys.
    /// Pre-warming uses nominal budgets; a dispatch under elevated
    /// pressure addresses a different key and simply compiles then.
    fn on_policy_switch(&mut self, run: &mut RunState, ev: &Ev, i: usize) -> Result<()> {
        let Some(slice) = self.core.partitioner.slice(&ev.tenant) else {
            self.log(ev, EventKind::PolicySwitch, format!("job={i} no-slice"));
            return Ok(());
        };
        let job = run.jobs[i].clone();
        let policy = self
            .core
            .controller
            .policy_for(&ev.tenant, job.qos.policy());
        let popts = pipeline_options_for(&self.core.opts, slice.num_sms, Pressure::Nominal, policy);
        let outcome = match self.core.cache.lookup_or_reserve(&job.graph, &popts)? {
            Lookup::Hit(_) => "cached",
            Lookup::PendingHit(_) => "compiling",
            Lookup::Miss(key) => {
                self.spawn_compile(run, key, &job.graph, &popts)?;
                "recompile"
            }
        };
        self.log(
            ev,
            EventKind::PolicySwitch,
            format!("job={i} policy={policy} {outcome}"),
        );
        Ok(())
    }

    fn on_arrival(&mut self, run: &mut RunState, ev: &Ev, i: usize) -> Result<()> {
        self.core.arrive(ev.time);
        // Demand is recorded at the event's own timestamp — true
        // arrival order and true arrival time, never clamped to the
        // simulation clock.
        if self.core.partitioner.record_arrival(&ev.tenant, ev.time)? {
            run.schedule(ev.time, &ev.tenant, ev.seq + 1, EvKind::Rebalance);
        }
        run.schedule(ev.time, &ev.tenant, ev.seq + 2, EvKind::Dispatch(i));
        self.log(ev, EventKind::Arrival, format!("job={i}"));
        Ok(())
    }

    fn on_dispatch(&mut self, run: &mut RunState, ev: &Ev, i: usize) -> Result<()> {
        // Everything this tenant has pending completed before the eager
        // path would have reached this arrival — resolve it first so
        // admission and the busy horizon read the same state.
        self.resolve_tenant(run, &ev.tenant)?;
        let now = ev.time;
        let qos = run.jobs[i].qos;
        let (slice, pressure) = match self.core.admit(&ev.tenant, qos, now) {
            Ok(admitted) => admitted,
            Err(rejected) => {
                run.results[i] = Some(rejected);
                self.log(ev, EventKind::Dispatch, format!("job={i} rejected"));
                return Ok(());
            }
        };

        // The compile policy is the controller's effective choice for
        // this tenant — the job's own QoS policy unless an adaptive
        // switch is in force.
        let policy = self.core.controller.policy_for(&ev.tenant, qos.policy());
        let popts = pipeline_options_for(&self.core.opts, slice.num_sms, pressure, policy);
        let graph = &run.jobs[i].graph;
        let (artifact, outcome) = match self.core.cache.lookup_or_reserve(graph, &popts)? {
            Lookup::Hit(artifact) => (artifact, "hit"),
            Lookup::PendingHit(key) => {
                // Another dispatch reserved this key; the eager path
                // would have had the artifact by now. Join it (the
                // owner's job stays queued until its own resolution
                // point) and serve verified, like any other hit.
                let artifact = self.artifact_for(run, key)?;
                verify_artifact(&artifact)?;
                (artifact, "pending-hit")
            }
            Lookup::Miss(key) => {
                self.spawn_compile(run, key, &run.jobs[i].graph.clone(), &popts)?;
                run.tenant_queue
                    .entry(ev.tenant.clone())
                    .or_default()
                    .push_back(i);
                run.job_meta.insert(
                    i,
                    PendingJob {
                        key,
                        slice,
                        arrival: now,
                    },
                );
                self.log(ev, EventKind::Dispatch, format!("job={i} miss"));
                return Ok(());
            }
        };
        self.complete_job(run, i, &artifact, true, slice, now)?;
        self.log(ev, EventKind::Dispatch, format!("job={i} {outcome}"));
        Ok(())
    }

    /// Hands a ladder compile to the worker pool, joining the oldest
    /// in-flight compile first when the pool is at its bound.
    fn spawn_compile(
        &mut self,
        run: &mut RunState,
        key: u64,
        graph: &streamir::graph::FlatGraph,
        popts: &crate::pipeline::PipelineOptions,
    ) -> Result<()> {
        while run.pending.len() >= self.workers {
            let oldest = run.pending.remove(0);
            self.join_and_fulfill(run, oldest)?;
        }
        let interrupt = SearchInterrupt::armed();
        let mut copts = popts.clone();
        copts.compile.search.interrupt = interrupt.clone();
        let graph = graph.clone();
        let handle = std::thread::spawn(move || ResilientPipeline::new(copts).compile(&graph));
        run.pending.push(PendingCompile {
            key,
            interrupt,
            handle,
        });
        Ok(())
    }

    fn join_and_fulfill(&mut self, run: &mut RunState, p: PendingCompile) -> Result<()> {
        let key = p.key;
        match p.join() {
            Ok(artifact) => {
                let artifact = Arc::new(artifact);
                self.core.cache.fulfill(key, &artifact);
                run.ready.insert(key, artifact);
                Ok(())
            }
            Err(e) => {
                self.core.cache.abandon(key);
                Err(e)
            }
        }
    }

    /// The artifact for a reserved key: already joined, or joined now.
    fn artifact_for(&mut self, run: &mut RunState, key: u64) -> Result<Arc<ResilientCompiled>> {
        if let Some(a) = run.ready.get(&key) {
            return Ok(Arc::clone(a));
        }
        let pos = run
            .pending
            .iter()
            .position(|p| p.key == key)
            .ok_or_else(|| Error::Api(format!("no compile in flight for cache key {key:016x}")))?;
        let p = run.pending.remove(pos);
        self.join_and_fulfill(run, p)?;
        Ok(Arc::clone(&run.ready[&key]))
    }

    /// Completes every pending cache-miss job of `tenant`, oldest
    /// first. Called before any same-tenant dispatch (and at drain), so
    /// per-tenant completion order equals arrival order — the invariant
    /// the busy-horizon and admission math share with the eager path.
    fn resolve_tenant(&mut self, run: &mut RunState, tenant: &str) -> Result<()> {
        while let Some(&i) = run.tenant_queue.get(tenant).and_then(VecDeque::front) {
            run.tenant_queue
                .get_mut(tenant)
                .expect("queue exists")
                .pop_front();
            let meta = run.job_meta.remove(&i).expect("pending job has metadata");
            let artifact = self.artifact_for(run, meta.key)?;
            self.complete_job(run, i, &artifact, false, meta.slice, meta.arrival)?;
        }
        Ok(())
    }

    /// Settles one admitted job on the core, keyed off the job's own
    /// arrival instant, and schedules what follows from it.
    fn complete_job(
        &mut self,
        run: &mut RunState,
        i: usize,
        artifact: &ResilientCompiled,
        cache_hit: bool,
        slice: Slice,
        arrival: f64,
    ) -> Result<()> {
        let settled = self
            .core
            .settle(&run.jobs[i], artifact, cache_hit, slice, arrival)?;
        let tenant = run.jobs[i].tenant.clone();
        let (start, finish) = (settled.result.start_secs, settled.result.finish_secs);
        // A controller switch becomes an explicit engine event (at
        // `finish`, with an aux sequence number) so the recompile is
        // pre-spawned in deterministic event order.
        if settled.switched {
            run.schedule_aux(finish, &tenant, EvKind::PolicySwitch(i));
        }
        if !cache_hit {
            let compiled_at = start + settled.compile_cost;
            run.schedule_aux(compiled_at, &tenant, EvKind::CompileFinish);
        }
        run.schedule_aux(finish, &tenant, EvKind::LaunchFinish);
        self.completed.push(CompletedJob {
            tenant,
            start,
            compile_cost: settled.compile_cost,
            finish,
        });
        run.results[i] = Some(Verdict::Completed(Box::new(settled.result)));
        Ok(())
    }

    /// Virtual seconds of `[w0, w1)` covered by the union of *other*
    /// tenants' execution intervals.
    fn overlap_with_others(&self, tenant: &str, w0: f64, w1: f64) -> f64 {
        let mut clipped: Vec<(f64, f64)> = self
            .completed
            .iter()
            .filter(|c| c.tenant != tenant)
            .map(|c| (c.start + c.compile_cost, c.finish))
            .filter(|&(s, e)| e > w0 && s < w1)
            .map(|(s, e)| (s.max(w0), e.min(w1)))
            .collect();
        clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cursor = w0;
        for (s, e) in clipped {
            let s = s.max(cursor);
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        covered
    }

    /// Per-tenant compile-overlap totals: each cache-miss job's penalty
    /// window intersected with other tenants' execution.
    fn overlap_totals(&self) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        for c in self.completed.iter().filter(|c| c.compile_cost > 0.0) {
            let overlap = self.overlap_with_others(&c.tenant, c.start, c.start + c.compile_cost);
            *totals.entry(c.tenant.clone()).or_insert(0.0) += overlap;
        }
        totals
    }

    /// Compilation-cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> &CacheStats {
        self.core.cache.stats()
    }

    /// The tenant's current SM slice.
    #[must_use]
    pub fn slice(&self, tenant: &str) -> Option<Slice> {
        self.core.partitioner.slice(tenant)
    }

    /// The processed-event audit trace, in processing order.
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The partition recut audit log.
    #[must_use]
    pub fn recut_log(&self) -> &[crate::serve::partition::RecutRecord] {
        &self.core.partitioner.recut_log
    }

    /// The resilience controller's decision log, in virtual-time order.
    /// Empty when the controller is disabled. Deterministic: the same
    /// trace and fault seed always produce a byte-identical log.
    #[must_use]
    pub fn decisions(&self) -> &[ControllerDecision] {
        self.core.controller.decisions()
    }

    /// Snapshots the serving run into a serializable report. Identical
    /// to the eager server's report over the same trace except for the
    /// overlap and queue-wait observables the event model adds.
    #[must_use]
    pub fn report(&self) -> ServeReport {
        self.core.report(&self.overlap_totals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{QosClass, ServeOptions};
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};

    fn map_filter(name: &str, k: i32) -> StreamSpec {
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = b.local(ElemTy::I32);
        b.pop_into(0, x);
        b.push(0, Expr::local(x).mul(Expr::i32(k)));
        StreamSpec::filter(FilterSpec::new(name, b.build().unwrap()))
    }

    fn job(tenant: &str, k: i32) -> Job {
        Job {
            tenant: tenant.into(),
            graph: StreamSpec::pipeline(vec![map_filter("a", k), map_filter("b", k + 1)])
                .flatten()
                .unwrap(),
            input: |n| (0..n).map(|i| Scalar::I32(i as i32)).collect(),
            iterations: 2,
            qos: QosClass::Batch,
        }
    }

    #[test]
    fn engine_serves_a_trace_and_traces_every_event_kind() {
        let mut engine = EventEngine::new(ServeOptions {
            device: gpusim::DeviceConfig {
                num_sms: 8,
                ..gpusim::DeviceConfig::gts512()
            },
            ..ServeOptions::default()
        })
        .with_checkpoint_period(0.25);
        let trace = vec![
            (job("a", 2), 0.0),
            (job("b", 5), 0.1),
            (job("a", 2), 0.2), // same content: cache hit at equal slice
        ];
        let verdicts = engine.serve_trace(&trace).unwrap();
        assert_eq!(verdicts.len(), 3);
        for v in &verdicts {
            match v {
                Verdict::Completed(r) => assert!(!r.outputs.is_empty()),
                Verdict::Rejected { .. } => panic!("nothing should be rejected"),
            }
        }
        let kinds: Vec<EventKind> = engine.trace().iter().map(|e| e.kind).collect();
        for kind in [
            EventKind::Arrival,
            EventKind::Rebalance,
            EventKind::Dispatch,
            EventKind::CompileFinish,
            EventKind::LaunchFinish,
            EventKind::Checkpoint,
        ] {
            assert!(kinds.contains(&kind), "missing {kind:?} in {kinds:?}");
        }
        let report = engine.report();
        assert_eq!(report.tenants.len(), 2);
        assert!(report.makespan_secs > 0.0);
    }

    #[test]
    fn overlap_union_does_not_double_count() {
        let mut engine = EventEngine::new(ServeOptions::default());
        engine.completed = vec![
            CompletedJob {
                tenant: "other".into(),
                start: 0.0,
                compile_cost: 0.0,
                finish: 0.4,
            },
            CompletedJob {
                tenant: "other2".into(),
                start: 0.2,
                compile_cost: 0.0,
                finish: 0.6,
            },
            CompletedJob {
                tenant: "me".into(),
                start: 0.0,
                compile_cost: 0.0,
                finish: 10.0,
            },
        ];
        // Window [0.1, 0.7): covered by the union [0.0,0.6) → 0.5, not
        // the 0.3+0.4 a per-interval sum would claim; "me"'s own run is
        // excluded.
        let overlap = engine.overlap_with_others("me", 0.1, 0.7);
        assert!((overlap - 0.5).abs() < 1e-12, "overlap = {overlap}");
    }
}
