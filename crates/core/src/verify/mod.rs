//! Whole-program static verification of compiled stream pipelines.
//!
//! Four analyses, one entry point ([`verify`]) plus a standalone
//! isolation prover ([`isolate::prove`]):
//!
//! * [`deps`] — modulo-schedule dependence checking: every consumer
//!   firing reads FIFO slots already written under the schedule's
//!   (stage, offset, SM) timing, re-derived from the graph rather than
//!   trusted from the scheduler (`V01xx`).
//! * [`bounds`] — buffer-bounds liveness: no rotating channel region is
//!   overwritten before its last read, and region geometry matches the
//!   channel rates (`V03xx`).
//! * [`coalesce`] — static coalescing proof: abstract warp
//!   interpretation of every launch the executor would issue, predicting
//!   the simulator's memory counters exactly and classifying every
//!   uncoalesced access site (`V02xx`).
//! * [`isolate`] — tenant-isolation proof: the same abstract warp
//!   interpretation, but checking that every resolved address stays
//!   inside the region its access site owns, under every placement the
//!   partitioner may assign (`V04xx`).
//!   Successful proofs are stamped into an
//!   [`isolate::IsolationCertificate`] that serving re-verifies cheaply
//!   instead of re-running the proof.
//! * [`events`] — captured-graph event-edge soundness: the steady-state
//!   graph [`crate::codegen::capture_graph`] emits for graph dispatch
//!   must gate every cross-SM dependence on a covering event edge
//!   (missing/stale = race), carry no edge the dependence set does not
//!   demand (surplus = lost overlap), and keep its same-replay edges
//!   acyclic (cycle = replay deadlock), with the dependence set
//!   re-derived from channel geometry rather than trusted from the
//!   emitter (`V05xx`).
//!
//! The abstract interpretation is `gpusim`'s own
//! ([`gpusim::InstanceExec::analyze`]): a second walk over the decoded
//! program the simulator executes. The coalescing and isolation analyses
//! are its [`gpusim::AccessSink`]s, fed by `analyze_launches`.
//!
//! The predicted counters are cross-checked against the simulator's
//! dynamic counters in the test suite and by the `verify-all` binary, so
//! the static model and the simulator can never silently diverge.

pub mod bounds;
pub mod coalesce;
pub mod deps;
pub mod diag;
pub mod events;
pub mod isolate;

pub use bounds::check_plan;
pub use coalesce::{predict, predict_with_plan, Prediction, SiteReport, StaticCounters};
pub use deps::check_schedule;
pub use diag::{max_severity, passes, Code, Diagnostic, Severity};
pub use events::check_capture;
pub use isolate::{prove, verify_certificate, Isolation, IsolationCertificate};

use gpusim::AccessSink;

use crate::codegen::ProgramBuffers;
use crate::exec::{scheme_shape, Compiled, Prepared, Scheme};
use crate::plan;
use crate::Result;

/// The combined result of all three analyses over one compiled pipeline
/// and execution scheme.
#[derive(Debug, Clone)]
pub struct Verification {
    /// All findings, schedule hazards first, then bounds, then
    /// coalescing.
    pub diagnostics: Vec<Diagnostic>,
    /// The traffic prediction, for cross-checking against a dynamic run.
    pub prediction: Prediction,
}

impl Verification {
    /// `true` when no finding reaches [`Severity::Error`].
    #[must_use]
    pub fn passes(&self) -> bool {
        passes(&self.diagnostics)
    }

    /// The highest severity found, `None` when clean.
    #[must_use]
    pub fn max_severity(&self) -> Option<Severity> {
        max_severity(&self.diagnostics)
    }
}

/// Runs the full verifier over `(c, scheme)` as it would execute
/// `iterations` steady-state iterations.
///
/// The serial scheme has no pipeline schedule, so only bounds and
/// coalescing apply; the SWP family is additionally checked for
/// modulo-schedule hazards at the scheme's iteration granule.
///
/// # Errors
///
/// The same shape errors as [`crate::exec::execute`], plus allocation
/// failures while reconstructing the launch sequence.
pub fn verify(c: &Compiled, scheme: Scheme, iterations: u64) -> Result<Verification> {
    let (granule, kind) = scheme_shape(scheme);
    let sched = match scheme {
        Scheme::Serial { .. } => None,
        _ => Some(&c.schedule),
    };
    let mut diagnostics = Vec::new();
    if let Some(s) = sched {
        // The execution granule is the effective cmax: jlag/cmax truncates
        // toward zero, so verifying at the actual granule is the exact
        // requirement (larger granules are stricter).
        diagnostics.extend(deps::check_schedule(
            &c.graph,
            &c.ig,
            &c.exec_cfg,
            s,
            c.device.num_sms,
            granule,
        ));
        // The captured steady-state graph this schedule would replay
        // under graph dispatch must gate exactly the cross-SM dependence
        // set — checked even for host-launched artifacts, so enabling
        // graph dispatch later never changes the verification verdict.
        let cap = crate::codegen::capture_graph(&c.ig, s, granule);
        diagnostics.extend(events::check_capture(&c.graph, &c.ig, s, granule, &cap));
    }
    let plan = plan::plan(&c.graph, &c.ig, sched, granule, kind);
    diagnostics.extend(bounds::check_plan(&c.graph, &c.ig, sched, &plan));
    let prediction = coalesce::predict_with_plan(c, scheme, iterations, &plan)?;
    diagnostics.extend(prediction.diagnostics.iter().cloned());
    Ok(Verification {
        diagnostics,
        prediction,
    })
}

/// Walks every instance of every launch an `iterations`-long run of
/// `prepared` issues over `buffers` abstractly into `sink` — the launches
/// the executor enumerates, through the same function — telling it each
/// instance's node first. Returns the number of launches.
pub(crate) fn analyze_launches<S: AccessSink>(
    c: &Compiled,
    prepared: &Prepared,
    buffers: &ProgramBuffers,
    iterations: u64,
    sink: &mut S,
    at_node: fn(&mut S, u32),
) -> u64 {
    let launches = prepared.launch_count(c, iterations);
    for ordinal in 0..launches {
        prepared.for_each_instance(c, buffers, ordinal, iterations, |_, node, inst| {
            at_node(sink, node.0);
            inst.analyze(&c.device, sink);
        });
    }
    launches
}
