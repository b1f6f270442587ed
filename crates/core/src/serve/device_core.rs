//! The one device-serving core.
//!
//! [`DeviceCore`] owns everything a single device's serving run
//! accumulates — the [`Device`] value, cache, partitioner, admission,
//! fault-rate controller, per-tenant horizons and metrics, clock and
//! makespan bounds — and the per-job lifecycle over it:
//! [`DeviceCore::admit`], [`DeviceCore::settle`] (run the artifact,
//! place its service window, roll it into [`ServeMetrics`], build the
//! [`JobResult`]) and [`DeviceCore::report`].
//!
//! [`super::EventEngine`] drives one from an event loop with overlapped
//! compiles; the eager [`super::Server`] oracle drives one inline. The
//! window formulas and the roll-up exist once, so the two cannot drift
//! apart in bookkeeping; what `tests/serve_engine.rs` still has to
//! prove is that the engine's *control flow* feeds the core the same
//! sequence.

use std::collections::BTreeMap;

use gpusim::Device;

use super::{
    run_artifact, AdmissionController, CompilationCache, Decision, FaultController, Job, JobResult,
    Partitioner, Pressure, QosClass, ServeMetrics, ServeOptions, ServeReport, Slice, TenantReport,
    Verdict,
};
use crate::pipeline::{FaultPolicy, ResilientCompiled};
use crate::Result;

#[derive(Debug, Default)]
struct TenantState {
    metrics: ServeMetrics,
    busy_until: f64,
    /// Finish times of admitted jobs, pruned at each dispatch.
    inflight: Vec<f64>,
    qos: Option<QosClass>,
}

/// One settled job: its public record plus what the event engine needs
/// to schedule the follow-up events.
pub(crate) struct Settled {
    pub(crate) result: JobResult,
    /// Virtual seconds of compile penalty at the head of the service
    /// window (zero on a cache hit).
    pub(crate) compile_cost: f64,
    /// Whether this job's observed retry rate made the controller switch
    /// the tenant's fault policy.
    pub(crate) switched: bool,
}

/// The serving state of one device and the job lifecycle over it.
pub(crate) struct DeviceCore {
    pub(crate) opts: ServeOptions,
    /// The configured hardware as a *value* with the solo identity
    /// (id 0); the fleet stamps out one per member with distinct ids.
    /// Reaching hardware through a `Device` value rather than ambient
    /// `device`/`timing` fields is what lets N of them coexist in one
    /// event loop.
    device: Device,
    pub(crate) cache: CompilationCache,
    pub(crate) partitioner: Partitioner,
    admission: AdmissionController,
    pub(crate) controller: FaultController,
    tenants: BTreeMap<String, TenantState>,
    now: f64,
    first_arrival: Option<f64>,
    last_finish: f64,
    /// Artifacts dispatched, and the subset carrying a verified
    /// isolation certificate. `run_artifact` refuses uncertified
    /// dispatches, so a healthy run keeps these equal.
    artifacts: u64,
    certified: u64,
}

impl DeviceCore {
    pub(crate) fn new(opts: ServeOptions) -> DeviceCore {
        let device = Device::solo(opts.device.clone(), opts.timing.clone());
        DeviceCore {
            cache: CompilationCache::new(opts.cache.clone()),
            partitioner: Partitioner::new(device.config.num_sms, opts.rate_alpha),
            admission: AdmissionController::new(opts.max_queue),
            controller: FaultController::new(
                opts.resilience.clone(),
                opts.timing.clone(),
                opts.retry_warn_threshold,
            ),
            tenants: BTreeMap::new(),
            now: 0.0,
            first_arrival: None,
            last_finish: 0.0,
            artifacts: 0,
            certified: 0,
            device,
            opts,
        }
    }

    /// Advances the monotone clock to `t` (never backwards) and returns it.
    pub(crate) fn tick(&mut self, t: f64) -> f64 {
        self.now = self.now.max(t);
        self.now
    }

    /// [`DeviceCore::tick`] for a job arrival: the first one opens the
    /// makespan.
    pub(crate) fn arrive(&mut self, t: f64) -> f64 {
        let now = self.tick(t);
        self.first_arrival.get_or_insert(now);
        now
    }

    /// Admission for one dispatch of `tenant` at `now`: prunes the
    /// tenant's finished in-flight jobs and decides on what remains.
    /// Admitted jobs get the tenant's current slice and the queue
    /// pressure to compile under; a rejection is counted and returned as
    /// the job's verdict.
    pub(crate) fn admit(
        &mut self,
        tenant: &str,
        qos: QosClass,
        now: f64,
    ) -> std::result::Result<(Slice, Pressure), Verdict> {
        let slice = self
            .partitioner
            .slice(tenant)
            .expect("observed tenant has a slice");
        let state = self.tenants.entry(tenant.to_string()).or_default();
        state.qos = Some(qos);
        state.inflight.retain(|&f| f > now);
        match self.admission.decide_event(&state.inflight, now) {
            Decision::Admit(pressure) => Ok((slice, pressure)),
            Decision::Reject { retry_after_secs } => {
                state.metrics.jobs_rejected += 1;
                Err(Verdict::Rejected { retry_after_secs })
            }
        }
    }

    /// Executes one admitted job on `slice` and settles it: the service
    /// window is placed against the job's own `arrival` instant and the
    /// tenant's busy horizon, the run is rolled into the tenant's
    /// metrics, and its retry rate is fed to the controller at the
    /// finish instant. All accumulation is order-insensitive (sums, plus
    /// percentiles over sorted copies), so a caller may settle jobs of
    /// different tenants in any order.
    pub(crate) fn settle(
        &mut self,
        job: &Job,
        artifact: &ResilientCompiled,
        cache_hit: bool,
        slice: Slice,
        arrival: f64,
    ) -> Result<Settled> {
        self.artifacts += 1;
        if artifact.isolation.is_some() {
            self.certified += 1;
        }
        let run = run_artifact(
            artifact,
            job,
            &self.device.config,
            slice.base_sm,
            self.controller.interval_for(&job.tenant),
            self.controller.max_attempts_override(),
        )?;
        let compile_cost = if cache_hit {
            0.0
        } else {
            self.opts.compile_penalty_secs
        };
        let state = self
            .tenants
            .get_mut(&job.tenant)
            .expect("admitted tenant has state");
        let start = arrival.max(state.busy_until);
        let finish = start + compile_cost + run.time_secs;
        state.busy_until = finish;
        state.inflight.push(finish);
        self.last_finish = self.last_finish.max(finish);

        let m = &mut state.metrics;
        m.jobs_accepted += 1;
        m.tokens_out += run.outputs.len() as u64;
        m.busy_secs += compile_cost + run.time_secs;
        m.launches += run.launches;
        m.retries += run.retries;
        m.cycles += run.stats.cycles.round() as u64;
        m.fault_overhead_cycles += run.stats.fault_overhead_cycles.round() as u64;
        m.launch_path_cycles += run.stats.launch_path_cycles.round() as u64;
        m.graph_replays += run.stats.graph_replays;
        m.graph_captures += run.stats.graph_captures;
        m.graph_capture_cycles += run.stats.graph_capture_cycles.round() as u64;
        m.latencies.push(finish - arrival);
        m.queue_waits.push(start - arrival);
        if cache_hit {
            m.compile_hits += 1;
        } else {
            m.compile_misses += 1;
            m.search_invocations += artifact.report.search_invocations();
        }

        let switched = self
            .controller
            .observe_job(
                &job.tenant,
                finish,
                run.launches,
                run.retries,
                run.stats.productive_cycles(),
                &artifact.report.checkpoint,
                job.qos.policy(),
            )
            .is_some();
        Ok(Settled {
            result: JobResult {
                outputs: run.outputs,
                arrival_secs: arrival,
                start_secs: start,
                finish_secs: finish,
                latency_secs: finish - arrival,
                exec_secs: run.time_secs,
                cache_hit,
                shipped: artifact.report.shipped,
                slice,
                retries: run.retries,
            },
            compile_cost,
            switched,
        })
    }

    /// Snapshots the run into a serializable report. `overlaps` carries
    /// the per-tenant compile-overlap seconds only an event loop can
    /// observe (empty for the eager oracle, which pays compiles inline).
    pub(crate) fn report(&self, overlaps: &BTreeMap<String, f64>) -> ServeReport {
        let makespan = (self.last_finish - self.first_arrival.unwrap_or(0.0)).max(0.0);
        let tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|(name, state)| {
                let slice = self.partitioner.slice(name).unwrap_or(Slice {
                    base_sm: 0,
                    num_sms: 0,
                });
                // The row reports the controller's *effective* policy:
                // a recommendation the controller already acted on is
                // resolved, not re-issued.
                let default = state.qos.map_or(FaultPolicy::Throughput, QosClass::policy);
                let policy = self.controller.policy_for(name, default);
                let mut metrics = state.metrics.clone();
                metrics.compile_overlap_secs = overlaps.get(name).copied().unwrap_or(0.0);
                let mut row = TenantReport::of(
                    name,
                    &metrics,
                    slice,
                    makespan,
                    policy,
                    self.opts.retry_warn_threshold,
                );
                row.policy_switches = self.controller.switches_for(name);
                row.checkpoint_interval = self.controller.interval_for(name);
                row
            })
            .collect();
        ServeReport {
            makespan_secs: makespan,
            cache: self.cache.stats().clone(),
            cache_hit_rate: self.cache.stats().hit_rate(),
            rebalances: self.partitioner.rebalances,
            policy_switches: tenants.iter().map(|t| t.policy_switches).sum(),
            artifacts: self.artifacts,
            certified: self.certified,
            compile_overlap_secs: tenants.iter().map(|t| t.compile_overlap_secs).sum(),
            launch_path_cycles: tenants.iter().map(|t| t.launch_path_cycles).sum(),
            graph_replays: tenants.iter().map(|t| t.graph_replays).sum(),
            tenants,
        }
    }
}
