//! The one device-serving core.
//!
//! [`DeviceCore`] owns one device's serving state — the [`Device`] value,
//! its partitioner, admission, fault-rate controller and per-tenant busy
//! horizons — and [`DeviceCore::settle`], which runs one job's artifact
//! and places its service window. What a settled job did is recorded
//! once, in the serving loop's ledger ([`super::metrics`]); the core
//! keeps no counters. The serving loop ([`crate::fleet::FleetEngine`])
//! holds one core per device.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpusim::Device;

use super::metrics::{Placed, Service};
use super::resilience::Adjustment;
use super::{AdmissionController, FaultController, Fetch, Job, Partitioner, ServeOptions};
use crate::exec::{required_input, RunOptions, SmPlacement};
use crate::pipeline::ResilientCompiled;
use crate::Result;

/// Virtual seconds a dispatch pays to obtain its artifact, by how the
/// store served it: nothing locally, a ship across devices, or a full
/// compile.
pub(crate) fn fetch_cost(fetch: Fetch) -> f64 {
    match fetch {
        Fetch::LocalHit => 0.0,
        Fetch::RemoteHit => crate::fleet::FETCH_PENALTY_SECS,
        Fetch::Miss => super::COMPILE_PENALTY_SECS,
    }
}

/// The serving state of one device and the job lifecycle over it.
pub(crate) struct DeviceCore {
    /// The configured hardware as a *value* with a fleet-unique id, so N
    /// of them coexist in one event loop.
    device: Device,
    pub(crate) partitioner: Partitioner,
    pub(crate) admission: AdmissionController,
    pub(crate) controller: FaultController,
    /// Runs commit every this-many launches unless the enabled
    /// controller chooses otherwise.
    interval: u32,
    /// Per tenant: when its last job here finishes.
    busy_until: BTreeMap<String, f64>,
}

impl DeviceCore {
    pub(crate) fn new(device: Device, opts: &ServeOptions, interval: u32) -> DeviceCore {
        DeviceCore {
            partitioner: Partitioner::new(device.config.num_sms, super::RATE_ALPHA),
            admission: AdmissionController::new(opts.max_queue),
            controller: FaultController::new(
                opts.resilience.clone(),
                opts.timing.clone(),
                opts.retry_warn_threshold,
            ),
            interval,
            busy_until: BTreeMap::new(),
            device,
        }
    }

    /// The tenant's busy horizon here (0 when it never ran here).
    pub(crate) fn busy_until(&self, tenant: &str) -> f64 {
        self.busy_until.get(tenant).copied().unwrap_or(0.0)
    }

    /// Moves the tenant's busy horizon here to `until`.
    pub(crate) fn occupy(&mut self, tenant: &str, until: f64) {
        match self.busy_until.get_mut(tenant) {
            Some(horizon) => *horizon = until,
            None => {
                self.busy_until.insert(tenant.to_string(), until);
            }
        }
    }

    /// Executes one job admitted at `placed` and settles it: the service
    /// window `[start, finish)` with `start = max(arrival, busy_until)`
    /// and `finish = max(start, available_at) + head + exec` is placed
    /// against the tenant's busy horizon, where the head is what `fetch`
    /// costs and `available_at` when the artifact exists; the run's
    /// retry rate is fed to the controller at the finish instant.
    /// Returns the service, whose `seq` is the caller's to assign, and
    /// what the observation changed in the controller.
    ///
    /// Serving shares one device across tenants, so an artifact is
    /// refused here unless it carries a tenant-isolation certificate
    /// ([`crate::verify::isolate`]) proving its accesses stay inside its
    /// own arena under any placement.
    pub(crate) fn settle(
        &mut self,
        job: &Job,
        artifact: Arc<ResilientCompiled>,
        placed: Placed,
        arrival: f64,
        fetch: Fetch,
        available_at: f64,
    ) -> Result<(Service, Adjustment)> {
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
                device: self.device.config.clone(),
                base_sm: placed.slice.base_sm,
            }),
            checkpoint_interval: if self.controller.enabled() {
                self.controller.interval_for(&job.tenant)
            } else {
                self.interval
            },
            ..artifact.run_options.clone()
        };
        if let Some(attempts) = self.controller.max_attempts_override() {
            run_opts.retry.max_attempts = attempts.max(1);
        }
        let run = artifact.execute(job.iterations, &input, &run_opts)?;

        let head_secs = fetch_cost(fetch);
        let start = arrival.max(self.busy_until(&job.tenant));
        let head_start = start.max(available_at);
        let exec_start = head_start + head_secs;
        let finish = exec_start + run.time_secs;
        self.occupy(&job.tenant, finish);

        let adjusted = self.controller.observe_job(
            &job.tenant,
            run.launches,
            run.retries,
            run.stats.productive_cycles(),
            &artifact.report.checkpoint,
            job.qos.policy(),
        );
        let miss = fetch == Fetch::Miss;
        let service = Service {
            placed,
            fetch,
            searches: if miss {
                artifact.report.search_invocations()
            } else {
                0
            },
            artifact_ready: if miss { exec_start } else { available_at },
            start,
            head_start,
            exec_start,
            finish,
            head_secs,
            tokens: run.outputs.len() as u64,
            run,
            artifact: Some(artifact),
            on: self.device.id.0,
            ..Service::default()
        };
        Ok((service, adjusted))
    }
}
