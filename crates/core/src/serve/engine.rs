//! The single-device serving engine and the serving timeline.
//!
//! [`EventEngine`] is the one serving loop ([`crate::fleet::FleetEngine`])
//! over one device: R = 1 with the device's own LRU-bounded cache and
//! optional disk tier, every launch committed unless the resilience
//! controller chooses otherwise, and no second device to route to or
//! fail over to. What it adds is the single-device view of the
//! loop: verdicts carrying the job's service start and slice, the
//! loop's timeline ([`EventEngine::trace`]), and a
//! [`ServeReport`] — device 0's view of the loop's job ledger — whose
//! `compile_overlap_secs` credits each compile window with the union of
//! *other* tenants' execution it overlapped.
//!
//! The timeline is one [`TraceEvent`] per occurrence, in processing
//! order, appended by the loop alone: the router, partitioner and
//! controller decide and return what they decided, and the loop records
//! it. An arrival's routing verdict is part of its `Dispatch` entry, a
//! recut is its `Rebalance` or brownout entry, and a controller change
//! is its `PolicySwitch` or `IntervalChange` entry. The serve report's
//! `rebalances` and `policy_switches` and the fleet report's
//! `router_decisions` are counts over it.

use std::sync::Arc;

use serde::Serialize;
use streamir::graph::FlatGraph;

use gpusim::DeviceId;

use crate::fleet::FleetEngine;
use crate::serve::resilience::BrownoutSpec;
use crate::serve::{Job, ServeOptions, ServeReport, Verdict, WarmReport};
use crate::Result;

/// What a timeline entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EventKind {
    /// A job arrived at its home device: demand recorded.
    Arrival,
    /// The home partition was recut from the current demand estimates;
    /// the detail is every tenant's `name:width`.
    Rebalance,
    /// Admission decided: the detail's first word is the route (`home`,
    /// `reroute` or `reject`), then the store's outcome or the reason
    /// for the rejection. The entry's device served or rejected the job.
    Dispatch,
    /// A cache-miss compilation's virtual penalty window closed.
    CompileFinish,
    /// A job's service finished (virtual time).
    LaunchFinish,
    /// The resilience controller switched a tenant's fault policy and
    /// the recompile was pre-spawned on the worker pool.
    PolicySwitch,
    /// The resilience controller changed a tenant's checkpoint commit
    /// interval.
    IntervalChange,
    /// A brownout shrank the device's usable SM range and recut its
    /// partition.
    Brownout,
    /// A brownout healed: capacity restored and the partition recut.
    BrownoutHeal,
    /// The device was lost for good.
    DeviceLoss,
    /// The device's link was partitioned.
    LinkPartition,
    /// The device's link partition healed.
    PartitionHeal,
    /// A job in flight on a lost device resumed on this device from its
    /// last checkpoint commit.
    Failover,
    /// A job in flight on a lost device had nowhere to fail over to and
    /// was rejected with a retry hint.
    Abandon,
}

/// One entry of the serving timeline, in processing order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// The entry's virtual timestamp. Launch/compile-finish events
    /// are scheduled once their instant is known, which can be after
    /// the clock passed it; the processing order (this log's order)
    /// stays total because their handlers are order-insensitive.
    pub time_secs: f64,
    /// The device the occurrence happened on.
    pub device: u32,
    /// The tenant the entry belongs to (empty for a device's own
    /// health entries).
    pub tenant: Arc<str>,
    /// The job's index in its run's trace, for entries about one job.
    pub job: Option<u64>,
    /// The sequence number of the event that produced the entry: an
    /// arrival's trace index, shared by its rebalance and dispatch
    /// entries.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Human-readable detail (route, cache outcome, widths, ...).
    pub detail: String,
}

impl TraceEvent {
    /// The router's action this entry records: the route of a dispatch,
    /// or the name of a health transition, failover or abandon. `None`
    /// for entries the router takes no part in.
    #[must_use]
    pub fn router_action(&self) -> Option<&str> {
        Some(match self.kind {
            EventKind::Dispatch => self.detail.split(' ').next().unwrap_or_default(),
            EventKind::DeviceLoss => "kill",
            EventKind::LinkPartition => "partition",
            EventKind::PartitionHeal => "partition-heal",
            EventKind::Brownout => "brownout",
            EventKind::BrownoutHeal => "brownout-heal",
            EventKind::Failover => "failover",
            EventKind::Abandon => "abandon",
            _ => return None,
        })
    }
}

/// The deterministic single-device serving engine.
pub struct EventEngine {
    fleet: FleetEngine,
}

impl EventEngine {
    /// A fresh engine over `opts.device` with a default 4-worker
    /// compile pool.
    #[must_use]
    pub fn new(opts: ServeOptions) -> EventEngine {
        EventEngine {
            fleet: FleetEngine::solo(opts),
        }
    }

    /// Bounds the compile worker pool at `n` concurrent ladders
    /// (floored at 1). Spawning past the bound joins the *oldest*
    /// in-flight compile — a deterministic choice, unlike waiting on
    /// whichever thread happens to finish first.
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> EventEngine {
        self.fleet.workers = n.max(1);
        self
    }

    /// Pre-compiles `graphs` into this engine's cache at every
    /// plausible slice width for up to `max_tenants` tenants, under
    /// both fault policies (see [`super::warm`]). Call before
    /// [`EventEngine::serve_trace`] to take first-submission compiles
    /// off the serving path; the cache's counters are left as they were
    /// so the subsequent trace reports its own hit rate.
    pub fn warm(&mut self, graphs: &[FlatGraph], max_tenants: usize) -> WarmReport {
        self.fleet.warm(graphs, max_tenants)
    }

    /// Schedules a device brownout: at `spec.at_secs` of virtual time
    /// the usable SM range shrinks to `spec.total_sms` (floored at one
    /// SM per admitted tenant) and the partition is recut into it.
    /// Later dispatches see the smaller slices, so their compiles are
    /// content-addressed at the new widths. May be called several times
    /// (e.g. brownout then recovery).
    #[must_use]
    pub fn with_brownout(mut self, spec: BrownoutSpec) -> EventEngine {
        let faults = std::mem::take(&mut self.fleet.opts.device_faults);
        self.fleet.opts.device_faults =
            faults.with_brownout(DeviceId(0), spec.at_secs, spec.total_sms, None);
        self
    }

    /// Serves a whole arrival trace and returns one verdict per input
    /// job, in input order. The trace need not be sorted: events are
    /// ordered by `(arrival, tenant, input index)`, and demand is
    /// recorded at each arrival's true time.
    ///
    /// # Errors
    ///
    /// Compilation or execution errors, and [`crate::Error::Api`] when
    /// the tenant population would exceed one tenant per SM. On error,
    /// in-flight compiles are interrupted, joined, and their cache
    /// reservations abandoned, so the cache never dangles a pending
    /// entry.
    pub fn serve_trace(&mut self, trace: &[(Job, f64)]) -> Result<Vec<Verdict>> {
        self.fleet.serve_solo(trace)
    }

    /// The serving timeline, in processing order.
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        self.fleet.trace()
    }

    /// Snapshots the serving run into a serializable report.
    #[must_use]
    pub fn report(&self) -> ServeReport {
        self.fleet.serve_report()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::serve::cache::tests::chain;
    use crate::serve::{QosClass, TenantReport};
    use streamir::ir::Scalar;

    /// A two-filter job of `tenant` multiplying by `k`, then `k + 1`.
    pub(crate) fn job(tenant: &str, k: i32) -> Job {
        Job {
            tenant: tenant.into(),
            graph: chain(&[("a", k), ("b", k + 1)]),
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
        });
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
        ] {
            assert!(kinds.contains(&kind), "missing {kind:?} in {kinds:?}");
        }
        let report = engine.report();
        assert_eq!(report.tenants.len(), 2);
        assert!(report.makespan_secs > 0.0);
    }

    /// Both reports are views of one ledger, so on the solo loop they
    /// agree wherever they count the same thing.
    #[test]
    fn serve_and_fleet_views_of_one_ledger_agree() {
        let mut engine = EventEngine::new(ServeOptions {
            device: gpusim::DeviceConfig {
                num_sms: 8,
                ..gpusim::DeviceConfig::gts512()
            },
            fault_plan: Some(gpusim::FaultPlan::new(0x1ED6E).with_launch_failures(200)),
            max_queue: 1,
            ..ServeOptions::default()
        });
        // Pairs of jobs 0.1 ms apart: a queue bound of one rejects the
        // second of a pair that arrives while the first still compiles.
        let trace: Vec<(Job, f64)> = [0.0, 1e-4, 1.0, 1.0001]
            .into_iter()
            .flat_map(|at| [(job("a", 2), at), (job("b", 5), at + 0.01)])
            .collect();
        engine.serve_trace(&trace).unwrap();
        let (serve, fleet) = (engine.report(), engine.fleet.report());
        let sum = |f: fn(&TenantReport) -> u64| serve.tenants.iter().map(f).sum::<u64>();
        assert!(fleet.jobs_rejected > 0 && fleet.search_invocations > 0);
        assert!(serve.tenants.iter().any(|t| t.retry_rate > 0.0));
        assert_eq!(sum(|t| t.jobs_accepted), fleet.jobs_completed);
        assert_eq!(sum(|t| t.jobs_rejected), fleet.jobs_rejected);
        assert_eq!(serve.launch_path_cycles, fleet.launch_path_cycles);
        assert_eq!(serve.graph_replays, fleet.graph_replays);
        assert_eq!(serve.artifacts, fleet.artifacts);
        assert_eq!(serve.certified, fleet.certified);
        assert_eq!(sum(|t| t.search_invocations), fleet.search_invocations);
        assert_eq!(serve.makespan_secs.to_bits(), fleet.makespan_secs.to_bits());
    }
}
