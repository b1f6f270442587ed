//! Whole-program static verification of compiled stream pipelines.
//!
//! Five analyses: four behind one entry point ([`verify`]) and a
//! standalone isolation prover ([`isolate::prove`]):
//!
//! * [`deps`] — modulo-schedule dependence checking: every consumer
//!   firing reads FIFO slots already written under the schedule's
//!   (stage, offset, SM) timing, re-derived from the graph rather than
//!   trusted from the scheduler (`V01xx`).
//! * [`bounds`] — buffer-bounds liveness: no rotating channel region is
//!   overwritten before its last read, and region geometry matches the
//!   channel rates (`V03xx`).
//! * [`coalesce`] — static coalescing proof: every launch the executor
//!   would issue, replayed abstractly, predicting the simulator's memory
//!   counters exactly and classifying every uncoalesced access site
//!   (`V02xx`).
//! * [`isolate`] — tenant-isolation proof: the same replay, checking
//!   that every resolved address stays inside the region its access site
//!   owns, under every placement the partitioner may assign (`V04xx`).
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
//! The abstract interpretation is `gpusim`'s own: one walk per kernel
//! over the decoded program the simulator executes, which
//! [`gpusim::InstanceExec::analyze`] replays over every warp of an
//! instance. The coalescing and isolation analyses are two of its
//! [`gpusim::AccessSink`]s, fed by `analyze_launches`; the simulator's
//! priced bill is the third.
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
use crate::exec::{Compiled, Prepared, Scheme};
use crate::{Error, Result};

/// The combined result of the schedule, event-edge, bounds and
/// coalescing analyses over one compiled pipeline and execution scheme.
#[derive(Debug, Clone)]
pub struct Verification {
    /// All findings, schedule hazards first, then event edges, then
    /// bounds, then coalescing.
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
/// modulo-schedule hazards and captured-graph event edges at the
/// scheme's iteration granule.
///
/// # Errors
///
/// The same shape errors as [`crate::exec::execute`], plus allocation
/// failures while reconstructing the launch sequence.
pub fn verify(c: &Compiled, scheme: Scheme, iterations: u64) -> Result<Verification> {
    let prepared = Prepared::of(c, scheme)?;
    let mut diagnostics = static_checks(c, &prepared);
    let prediction = coalesce::predict_prepared(c, &prepared, iterations, prepared.plan())?;
    diagnostics.extend(prediction.diagnostics.iter().cloned());
    Ok(Verification {
        diagnostics,
        prediction,
    })
}

/// The checks without abstract interpretation, over what `prepared`
/// executes: a pipelined walk's dependence timing at its granule (the
/// effective cmax, since jlag/cmax truncates toward zero) and its own
/// capture's event edges, even when host-launched, so enabling graph
/// dispatch never changes the verdict; then bounds over its own plan.
fn static_checks(c: &Compiled, prepared: &Prepared) -> Vec<Diagnostic> {
    let (granule, s) = (prepared.granule(), &c.schedule);
    let mut diags = Vec::new();
    if let Some(cap) = prepared.capture() {
        diags = deps::check_schedule(&c.graph, &c.ig, &c.exec_cfg, s, c.device.num_sms, granule);
        diags.extend(events::check_capture(&c.graph, &c.ig, s, granule, cap));
    }
    let sched = prepared.schedule(c);
    diags.extend(bounds::check_plan(&c.graph, &c.ig, sched, prepared.plan()));
    diags
}

/// The acceptance gate of every ladder rung, cache hit and disk load:
/// [`static_checks`] over the prepared form the executor runs, plus a
/// serial walk's schedule timing on its one SM. An error rejects the
/// artifact with the whole batch; otherwise the findings are returned.
pub(crate) fn gate(c: &Compiled, prepared: &Prepared) -> Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    if prepared.capture().is_none() {
        let granule = prepared.granule();
        diags = deps::check_schedule(&c.graph, &c.ig, &c.exec_cfg, &c.schedule, 1, granule);
    }
    diags.extend(static_checks(c, prepared));
    if passes(&diags) {
        Ok(diags)
    } else {
        Err(Error::verification(diags))
    }
}

/// Replays its kernel's walk over every instance of every launch an
/// `iterations`-long run of `prepared` issues over `buffers` into `sink`
/// — the launches the executor enumerates, through the same function —
/// telling it each instance's node first. Returns the number of launches.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{compile, CompileOptions};
    use crate::pipeline::{FaultPolicy, ResilientPipeline};
    use crate::profile::ProfileOptions;
    use crate::serve::{pipeline_options_for, Pressure, ServeOptions};
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder, Stmt};

    /// A generator feeding `gate`, whose walk meets both departures from
    /// execution. It branches on the token it pops, and the arm no input
    /// here takes peeks at `5 % 4 - 2`. The validator bounds that depth
    /// by the interval [-2, 1], so the filter builds; the walk folds it
    /// to -1, which names no token, and reports it as data-dependent.
    /// Profiled at 40 threads only: one full warp and a partial one.
    pub(super) fn unresolved_walk() -> Compiled {
        let mut g = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = g.local(ElemTy::I32);
        g.pop_into(0, x);
        g.push(0, Expr::local(x).add(Expr::i32(1)));
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        let depth = Expr::i32(5).rem(Expr::i32(4)).sub(Expr::i32(2));
        f.if_else(
            Expr::local(x).lt(Expr::i32(0)),
            vec![Stmt::Push {
                port: 0,
                value: Expr::peek(0, depth),
            }],
            vec![Stmt::Push {
                port: 0,
                value: Expr::local(x),
            }],
        );
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter(FilterSpec::new("gen", g.build().unwrap())),
            StreamSpec::filter(FilterSpec::new("gate", f.build().unwrap())),
        ]);
        let opts = CompileOptions {
            profile: ProfileOptions::small(&[40]),
            ..CompileOptions::small_test()
        };
        compile(&spec.flatten().unwrap(), &opts).unwrap()
    }

    /// The gate every shipped artifact clears checks what the full
    /// verifier checks at one iteration, over the very prepared form the
    /// artifact executes: every suite program at the serving
    /// configuration (both policies, slices of 1–4 SMs, and the
    /// serial-only saturated preset) passes, with the same schedule,
    /// event-edge and bounds findings as `verify`.
    #[test]
    fn gate_agrees_with_the_verifier_on_every_served_artifact() {
        let serve = ServeOptions::default();
        let presets = [
            (Pressure::Nominal, FaultPolicy::Throughput),
            (Pressure::Nominal, FaultPolicy::TailLatency),
            (Pressure::Saturated, FaultPolicy::Throughput),
        ];
        let mut serial = 0;
        for b in streambench::suite() {
            let graph = b.spec.flatten().unwrap();
            for sms in 1..=4 {
                for (pressure, policy) in presets {
                    let popts = pipeline_options_for(&serve, sms, pressure, policy);
                    let rc = ResilientPipeline::new(popts).compile(&graph).unwrap();
                    let ctx = format!("{} at {sms} SMs, {pressure:?}, {policy}", b.name);
                    let findings = gate(&rc.compiled, &rc.prepared)
                        .unwrap_or_else(|e| panic!("{ctx}: gate rejects: {e}"));
                    let full = verify(&rc.compiled, rc.scheme, 1).unwrap();
                    let static_codes = |d: &&Diagnostic| {
                        let code = d.code.code();
                        ["V01", "V03", "V05"].iter().any(|p| code.starts_with(p))
                    };
                    let expected: Vec<_> = full.diagnostics.iter().filter(static_codes).collect();
                    // The serial rung's schedule is also checked on its
                    // one SM, which `verify` skips for the serial scheme.
                    let checked: Vec<_> = (findings.iter())
                        .filter(|d| {
                            rc.prepared.capture().is_some() || !d.code.code().starts_with("V01")
                        })
                        .collect();
                    assert_eq!(checked, expected, "{ctx}");
                    serial += usize::from(rc.prepared.capture().is_none());
                }
            }
        }
        assert!(serial > 0, "the saturated preset ships serial artifacts");
    }
}
