//! The one device-serving core.
//!
//! [`DeviceCore`] owns everything one device's serving run accumulates —
//! the [`Device`] value, its partitioner, admission, fault-rate
//! controller, per-tenant busy horizons and metrics, and the service
//! windows it placed — and the per-job lifecycle over it:
//! [`DeviceCore::settle`] (run the artifact, place its service window,
//! roll it into [`ServeMetrics`]) and [`DeviceCore::report`]. The serving
//! loop ([`crate::fleet::FleetEngine`]) holds one core per device.

use std::collections::BTreeMap;

use gpusim::Device;

use super::{
    AdmissionController, CacheStats, FaultController, Fetch, Job, Partitioner, ServeMetrics,
    ServeOptions, ServeReport, Slice, TenantReport,
};
use crate::exec::{required_input, GpuRun, RunOptions, SmPlacement};
use crate::pipeline::ResilientCompiled;
use crate::Result;

#[derive(Debug, Default)]
pub(crate) struct TenantState {
    metrics: ServeMetrics,
    pub(crate) busy_until: f64,
}

/// Where and when one admitted job is served on a core: on `slice` (its
/// base SM), no earlier than `arrival`, with `head_secs` of fetch or
/// compile (`fetch`) at the head of its execution, which cannot start
/// before its artifact exists at `available_at`.
pub(crate) struct Placement {
    pub(crate) slice: Slice,
    pub(crate) arrival: f64,
    pub(crate) fetch: Fetch,
    pub(crate) head_secs: f64,
    pub(crate) available_at: f64,
}

/// One settled job's run and service window `[start, exec_start =
/// max(start, available_at) + head, finish)`, and whether its retry rate
/// made the controller switch the tenant's fault policy.
pub(crate) struct Settled {
    pub(crate) run: GpuRun,
    pub(crate) start: f64,
    pub(crate) exec_start: f64,
    pub(crate) finish: f64,
    pub(crate) switched: bool,
}

/// One placed service window, for compile-overlap accounting: its head
/// (compile or fetch) spans `[head_start, exec_start)`, its execution
/// `[exec_start, finish)`.
struct Window {
    tenant: String,
    head_start: f64,
    exec_start: f64,
    finish: f64,
}

/// The serving state of one device and the job lifecycle over it.
pub(crate) struct DeviceCore {
    /// The configured hardware as a *value* with a fleet-unique id, so N
    /// of them coexist in one event loop.
    device: Device,
    pub(crate) partitioner: Partitioner,
    pub(crate) admission: AdmissionController,
    pub(crate) controller: FaultController,
    tenants: BTreeMap<String, TenantState>,
    windows: Vec<Window>,
    /// Artifacts dispatched, and the subset carrying a verified
    /// isolation certificate. Dispatch refuses uncertified artifacts, so
    /// a healthy run keeps these equal.
    pub(crate) artifacts: u64,
    pub(crate) certified: u64,
}

impl DeviceCore {
    pub(crate) fn new(device: Device, opts: &ServeOptions) -> DeviceCore {
        DeviceCore {
            partitioner: Partitioner::new(device.config.num_sms, opts.rate_alpha),
            admission: AdmissionController::new(opts.max_queue),
            controller: FaultController::new(
                opts.resilience.clone(),
                opts.timing.clone(),
                opts.retry_warn_threshold,
            ),
            tenants: BTreeMap::new(),
            windows: Vec::new(),
            artifacts: 0,
            certified: 0,
            device,
        }
    }

    /// The tenant's state on this core, registered on first use.
    pub(crate) fn tenant(&mut self, tenant: &str) -> &mut TenantState {
        self.tenants.entry(tenant.to_string()).or_default()
    }

    /// The tenant's busy horizon here (0 when it never ran here).
    pub(crate) fn busy_until(&self, tenant: &str) -> f64 {
        self.tenants.get(tenant).map_or(0.0, |t| t.busy_until)
    }

    /// Counts one admission rejection of a job of `tenant`.
    pub(crate) fn reject(&mut self, tenant: &str) {
        self.tenant(tenant).metrics.jobs_rejected += 1;
    }

    /// Scheduler searches this core's store-miss compiles paid for.
    pub(crate) fn search_invocations(&self) -> u64 {
        self.tenants
            .values()
            .map(|t| t.metrics.search_invocations)
            .sum()
    }

    /// Executes one admitted job at `at` and settles it: the service
    /// window `[start, finish)` with `start = max(arrival, busy_until)`
    /// and `finish = max(start, available_at) + head + exec` is placed
    /// against the tenant's busy horizon, the run is rolled into the
    /// tenant's metrics, and its retry rate is fed to the controller at
    /// the finish instant. The run commits every `interval` launches
    /// unless the enabled controller chose otherwise.
    ///
    /// Serving shares one device across tenants, so an artifact is
    /// refused here unless it carries a tenant-isolation certificate
    /// ([`crate::verify::isolate`]) proving its accesses stay inside its
    /// own arena under any placement.
    pub(crate) fn settle(
        &mut self,
        job: &Job,
        artifact: &ResilientCompiled,
        at: &Placement,
        interval: u32,
    ) -> Result<Settled> {
        self.artifacts += 1;
        if artifact.isolation.is_none() {
            return Err(crate::Error::Api(format!(
                "tenant '{}': artifact carries no tenant-isolation certificate; \
                 refusing to dispatch it onto a shared device",
                job.tenant
            )));
        }
        self.certified += 1;
        let needed = required_input(&artifact.compiled, job.iterations);
        let input = (job.input)(needed as usize);
        let mut run_opts = RunOptions {
            placement: Some(SmPlacement {
                device: self.device.config.clone(),
                base_sm: at.slice.base_sm,
            }),
            checkpoint_interval: if self.controller.enabled() {
                self.controller.interval_for(&job.tenant)
            } else {
                interval
            },
            ..artifact.run_options.clone()
        };
        if let Some(attempts) = self.controller.max_attempts_override() {
            run_opts.retry.max_attempts = attempts.max(1);
        }
        let run = artifact.execute(job.iterations, &input, &run_opts)?;

        let state = self.tenant(&job.tenant);
        let start = at.arrival.max(state.busy_until);
        let head_start = start.max(at.available_at);
        let exec_start = head_start + at.head_secs;
        let finish = exec_start + run.time_secs;
        state.busy_until = finish;

        let m = &mut state.metrics;
        m.jobs_accepted += 1;
        m.tokens_out += run.outputs.len() as u64;
        m.busy_secs += at.head_secs + run.time_secs;
        m.launches += run.launches;
        m.retries += run.retries;
        m.cycles += run.stats.cycles.round() as u64;
        m.fault_overhead_cycles += run.stats.fault_overhead_cycles.round() as u64;
        m.launch_path_cycles += run.stats.launch_path_cycles.round() as u64;
        m.graph_replays += run.stats.graph_replays;
        m.graph_captures += run.stats.graph_captures;
        m.graph_capture_cycles += run.stats.graph_capture_cycles.round() as u64;
        m.latencies.push(finish - at.arrival);
        m.queue_waits.push(start - at.arrival);
        if at.fetch == Fetch::Miss {
            m.compile_misses += 1;
            m.search_invocations += artifact.report.search_invocations();
        } else {
            m.compile_hits += 1;
        }
        self.windows.push(Window {
            tenant: job.tenant.clone(),
            head_start,
            exec_start,
            finish,
        });

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
            run,
            start,
            exec_start,
            finish,
            switched,
        })
    }

    /// Virtual seconds of `[w0, w1)` covered by the union of *other*
    /// tenants' execution intervals.
    fn overlap_with_others(&self, tenant: &str, w0: f64, w1: f64) -> f64 {
        let mut clipped: Vec<(f64, f64)> = self
            .windows
            .iter()
            .filter(|c| c.tenant != tenant)
            .map(|c| (c.exec_start, c.finish))
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

    /// Snapshots the core into a serializable report over `makespan`
    /// virtual seconds, with `cache` the store's counters. Each window
    /// that paid a head (a compile) is credited with the seconds of it
    /// other tenants' execution covered.
    pub(crate) fn report(&self, makespan: f64, cache: CacheStats) -> ServeReport {
        let mut overlaps: BTreeMap<&str, f64> = BTreeMap::new();
        for w in self.windows.iter().filter(|w| w.exec_start > w.head_start) {
            let covered = self.overlap_with_others(&w.tenant, w.head_start, w.exec_start);
            *overlaps.entry(&w.tenant).or_insert(0.0) += covered;
        }
        let tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|(name, state)| {
                let slice = self.partitioner.slice(name).unwrap_or(Slice {
                    base_sm: 0,
                    num_sms: 0,
                });
                let mut metrics = state.metrics.clone();
                metrics.compile_overlap_secs = overlaps.get(name.as_str()).copied().unwrap_or(0.0);
                let mut row = TenantReport::of(name, &metrics, slice, makespan);
                row.policy_switches = self.controller.switches_for(name);
                row.checkpoint_interval = self.controller.interval_for(name);
                row
            })
            .collect();
        ServeReport {
            makespan_secs: makespan,
            cache_hit_rate: cache.hit_rate(),
            cache,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_union_does_not_double_count() {
        let opts = ServeOptions::default();
        let mut core = DeviceCore::new(
            Device::solo(opts.device.clone(), opts.timing.clone()),
            &opts,
        );
        let window = |tenant: &str, exec_start, finish| Window {
            tenant: tenant.into(),
            head_start: exec_start,
            exec_start,
            finish,
        };
        core.windows = vec![
            window("other", 0.0, 0.4),
            window("other2", 0.2, 0.6),
            window("me", 0.0, 10.0),
        ];
        // Window [0.1, 0.7): covered by the union [0.0,0.6) → 0.5, not
        // the 0.3+0.4 a per-interval sum would claim; "me"'s own run is
        // excluded.
        let overlap = core.overlap_with_others("me", 0.1, 0.7);
        assert!((overlap - 0.5).abs() < 1e-12, "overlap = {overlap}");
    }
}
