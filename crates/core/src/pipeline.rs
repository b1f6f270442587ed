//! The gracefully-degrading compilation driver.
//!
//! [`ResilientPipeline`] wraps the paper's compilation trajectory in an
//! explicit degradation ladder. Where [`crate::exec::compile`] commits to
//! one scheduling path and fails the whole compilation when that path
//! fails, the resilient driver walks the rungs, each under its own time
//! budget, and ships the first that produces a valid artifact:
//!
//! 0. [`LadderRung::Beam`] — model-guided beam search
//!    ([`crate::schedule::find_beam`]), tried only when a learned cost
//!    model is installed in `SearchOptions::cost_model`. One scheduler
//!    entry instead of the full ladder's several; candidates are ranked
//!    by the model but gated by the same exact validator and verifier.
//! 1. [`LadderRung::ExactIlp`] — the ILP at the lower-bound II
//!    (`max(ResMII, RecMII)`), no relaxation. The best schedule the
//!    formulation admits.
//! 2. [`LadderRung::RelaxedIlp`] — the paper's Section V loop: relax the
//!    II by 0.5 % per failed candidate and re-solve.
//! 3. [`LadderRung::Heuristic`] — the decomposed scheduler
//!    ([`crate::schedule::heuristic`]): SCC grouping, LPT assignment,
//!    monotone relaxation. Same constraint system, possibly more stages.
//! 4. [`LadderRung::SerialSas`] — give up on software pipelining and ship
//!    the serialized SAS executor ([`Scheme::Serial`]) with a real,
//!    validated single-SM schedule.
//!
//! Every rung's schedule — including the serial rung's — must pass the
//! independent static verifier ([`crate::verify`]: re-derived dependence
//! timing plus buffer-bounds liveness) before its artifact is accepted.
//! A rung whose schedule is rejected fails with the diagnostics and the
//! ladder degrades; if even the serial rung's schedule is rejected, the
//! compilation fails with [`crate::Error::Verification`] rather than
//! shipping an unchecked artifact.
//!
//! Every attempt — shipped, failed, or skipped for an exhausted budget —
//! is recorded in a [`DegradationReport`], so a caller (or an experiment
//! log) can state exactly which rung produced each number.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gpusim::FaultPlan;
use serde::Serialize;
use streamir::graph::FlatGraph;
use streamir::ir::Scalar;

use crate::exec::{compile_front, CompileOptions, Compiled, GpuRun, Prepared, RunOptions, Scheme};
use crate::plan::{self, CheckpointPlan, LayoutKind};
use crate::profile::TIME_UNIT_CYCLES;
use crate::schedule::{self, Schedule, SchedulerKind, SearchOptions, SearchReport};
use crate::{verify, Error, Result};

/// One rung of the degradation ladder, from most to least preferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum LadderRung {
    /// Model-guided beam search (requires a cost model; see
    /// [`crate::learn`]).
    Beam,
    /// The exact ILP at the lower-bound II.
    ExactIlp,
    /// The ILP with the II-relaxation loop.
    RelaxedIlp,
    /// The decomposed heuristic scheduler.
    Heuristic,
    /// Serialized SAS execution without a software pipeline.
    SerialSas,
}

impl fmt::Display for LadderRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LadderRung::Beam => "beam",
            LadderRung::ExactIlp => "exact-ilp",
            LadderRung::RelaxedIlp => "relaxed-ilp",
            LadderRung::Heuristic => "heuristic",
            LadderRung::SerialSas => "serial-sas",
        })
    }
}

/// What happened when one rung was tried.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum RungOutcome {
    /// The rung produced the shipped artifact.
    Shipped,
    /// The rung ran and failed (scheduler error, validation failure, or
    /// it finished past its budget).
    Failed(String),
    /// The rung was not run because its budget was already zero.
    SkippedBudget,
}

/// One ladder attempt, for the report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RungAttempt {
    /// Which rung.
    pub rung: LadderRung,
    /// How it went.
    pub outcome: RungOutcome,
    /// Wall-clock time spent on the rung.
    pub elapsed: Duration,
    /// The nominal (work-only) II of the schedule this rung produced,
    /// `None` when it produced no schedule.
    pub nominal_ii: Option<u64>,
    /// The fault-adjusted II: nominal plus the fault plan's expected
    /// per-launch retry overhead in schedule time units. Under
    /// [`FaultPolicy::TailLatency`] this is the II actually scheduled;
    /// under [`FaultPolicy::Throughput`] it is the predicted effective
    /// II once retries land. Equals `nominal_ii` with no fault plan.
    pub fault_adjusted_ii: Option<u64>,
}

/// How the fault-aware scheduler spends the fault plan's expected retry
/// overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum FaultPolicy {
    /// Schedule at the nominal II — maximum steady-state throughput;
    /// retries surface as per-launch latency spikes.
    #[default]
    Throughput,
    /// Inflate every rung's II floor by the expected per-launch retry
    /// cycles (in schedule time units), so each SM keeps idle headroom
    /// that absorbs retry overhead — lower makespan variance at a lower
    /// nominal rate.
    TailLatency,
}

impl fmt::Display for FaultPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultPolicy::Throughput => "throughput",
            FaultPolicy::TailLatency => "tail-latency",
        })
    }
}

/// The record of a resilient compilation: which rung shipped and what
/// every earlier rung did.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegradationReport {
    /// The rung whose artifact shipped.
    pub shipped: LadderRung,
    /// Every attempt, in ladder order, including the shipped one.
    pub attempts: Vec<RungAttempt>,
    /// The fault policy the ladder compiled under.
    pub policy: FaultPolicy,
    /// The cost-modeled checkpoint decision shipped with the artifact.
    pub checkpoint: CheckpointPlan,
}

impl DegradationReport {
    /// The attempt record of the shipped rung.
    #[must_use]
    pub fn shipped_attempt(&self) -> Option<&RungAttempt> {
        self.attempts.iter().find(|a| a.rung == self.shipped)
    }

    /// `true` when a rung below the preferred ones shipped. The exact
    /// ILP is the preferred classic rung; the beam (when a cost model is
    /// installed) is the preferred cheap rung — neither counts as
    /// degradation.
    #[must_use]
    pub fn degraded(&self) -> bool {
        !matches!(self.shipped, LadderRung::ExactIlp | LadderRung::Beam)
    }

    /// Scheduler runs this compilation actually spent: one per rung
    /// that ran (shipped or failed); budget-skipped rungs cost nothing.
    /// The only search counter there is — per artifact, so attributable —
    /// and the serving reports aggregate it per tenant to make cache
    /// warming observable as scheduler work saved, not just as hit rate.
    /// A disk-rebuilt artifact has no attempt records and reports zero,
    /// which is exact: its compilation cost nothing this process.
    #[must_use]
    pub fn search_invocations(&self) -> u64 {
        self.attempts
            .iter()
            .filter(|a| a.outcome != RungOutcome::SkippedBudget)
            .count() as u64
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shipped {} (policy {}, checkpoint {})",
            self.shipped, self.policy, self.checkpoint.mode
        )?;
        for a in &self.attempts {
            let verdict = match &a.outcome {
                RungOutcome::Shipped => "ok".to_string(),
                RungOutcome::Failed(m) => format!("failed: {m}"),
                RungOutcome::SkippedBudget => "skipped (no budget)".to_string(),
            };
            write!(f, "; {} {}", a.rung, verdict)?;
            if let (Some(nom), Some(adj)) = (a.nominal_ii, a.fault_adjusted_ii) {
                if nom == adj {
                    write!(f, " [II {nom}]")?;
                } else {
                    write!(f, " [II {nom} nominal, {adj} fault-adjusted]")?;
                }
            }
            write!(f, " ({:.1?})", a.elapsed)?;
        }
        Ok(())
    }
}

/// Per-rung time budgets. A rung whose budget is zero is skipped; a rung
/// that finishes after its budget has elapsed is discarded (its artifact
/// would have missed a real deployment's compile-time deadline) and the
/// ladder degrades.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageBudgets {
    /// Budget for the beam rung (only consulted when a cost model is
    /// installed; the beam constructs `beam_width` candidates, so this
    /// is generously above its real cost).
    pub beam: Duration,
    /// Budget for the exact-ILP rung.
    pub exact_ilp: Duration,
    /// Budget for the II-relaxation rung (the whole loop).
    pub relaxed_ilp: Duration,
    /// Budget for the heuristic rung.
    pub heuristic: Duration,
}

impl Default for StageBudgets {
    fn default() -> Self {
        StageBudgets {
            beam: Duration::from_secs(10),
            exact_ilp: Duration::from_secs(20),
            relaxed_ilp: Duration::from_secs(60),
            heuristic: Duration::from_secs(10),
        }
    }
}

/// Options for [`ResilientPipeline`].
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    /// The underlying compilation options (device, timing, profiling
    /// grid, base search parameters). The `scheduler` field is ignored —
    /// the ladder decides the path per rung.
    pub compile: CompileOptions,
    /// Per-rung time budgets.
    pub budgets: StageBudgets,
    /// The fault plan the artifact is expected to run under. Drives the
    /// fault-adjusted II accounting, the scheduler's fault reserve (under
    /// [`FaultPolicy::TailLatency`]), and the checkpoint cost model; it
    /// is also installed in [`ResilientCompiled::run_options`].
    pub fault_plan: Option<FaultPlan>,
    /// How the scheduler spends the expected retry overhead.
    pub policy: FaultPolicy,
    /// Ship artifacts that dispatch their steady state as a captured
    /// graph ([`RunOptions::graph_dispatch`]). Part of the artifact's
    /// identity: the serving cache keys on it, so graph-dispatched and
    /// host-launched artifacts of the same program coexist.
    pub graph_dispatch: bool,
}

/// A resiliently-compiled program: the artifact plus the ladder record.
#[derive(Debug, Clone)]
pub struct ResilientCompiled {
    /// The compiled program. When the [`LadderRung::SerialSas`] rung
    /// shipped, its schedule is a real, verified single-SM SAS schedule —
    /// execute with [`ResilientCompiled::scheme`].
    pub compiled: Compiled,
    /// Which rung shipped, and what every rung did.
    pub report: DegradationReport,
    /// The execution scheme the shipped rung supports: a pipelined
    /// scheme for rungs 1–3, [`Scheme::Serial`] for rung 4.
    pub scheme: Scheme,
    /// Ready-made execution options matching the compile-time fault
    /// assumptions: the ladder's fault plan installed, checkpoint mode
    /// left to the (same) cost model. Pass to
    /// [`crate::exec::execute_with`] so the artifact runs under the
    /// conditions it was scheduled for.
    pub run_options: RunOptions,
    /// Tenant-isolation certificate ([`verify::isolate`]): proof that
    /// every access of this artifact stays inside its own arena under
    /// any SM placement. `None` when the proof failed — the serving
    /// layer refuses to dispatch such an artifact onto a shared device.
    pub isolation: Option<verify::IsolationCertificate>,
    /// The artifact prepared for execution under its scheme, built by the
    /// first [`ResilientCompiled::execute`] and shared by every clone.
    pub(crate) prepared: OnceLock<Arc<Prepared>>,
}

impl ResilientCompiled {
    /// Executes `iterations` basic steady iterations under the artifact's
    /// own scheme: [`crate::exec::execute_with`] over a prepared form that
    /// is built once and reused by every later call, from any thread.
    /// Pass [`ResilientCompiled::run_options`] (or a variation of it) as
    /// `opts`.
    ///
    /// # Errors
    ///
    /// As for [`crate::exec::execute`].
    pub fn execute(&self, iterations: u64, input: &[Scalar], opts: &RunOptions) -> Result<GpuRun> {
        let prepared = match self.prepared.get() {
            Some(p) => p,
            None => {
                let p = Arc::new(Prepared::new(&self.compiled, self.scheme)?);
                self.prepared.get_or_init(|| p)
            }
        };
        prepared.run(&self.compiled, iterations, input, false, opts)
    }
}

/// The gracefully-degrading compilation driver. See the module docs for
/// the ladder.
#[derive(Debug, Clone, Default)]
pub struct ResilientPipeline {
    opts: PipelineOptions,
}

impl ResilientPipeline {
    /// A driver with the given options.
    #[must_use]
    pub fn new(opts: PipelineOptions) -> ResilientPipeline {
        ResilientPipeline { opts }
    }

    /// A driver over [`CompileOptions::small_test`] with default budgets
    /// (tests and examples).
    #[must_use]
    pub fn small_test() -> ResilientPipeline {
        ResilientPipeline::new(PipelineOptions {
            compile: CompileOptions::small_test(),
            budgets: StageBudgets::default(),
            ..PipelineOptions::default()
        })
    }

    /// Compiles `graph`, walking the degradation ladder.
    ///
    /// # Errors
    ///
    /// Front-end failures (profiling, configuration selection, instance
    /// modeling) are not schedulable around and propagate. Scheduling
    /// failures on rungs 1–3 never propagate — the ladder degrades past
    /// them. The [`LadderRung::SerialSas`] rung has no further fallback:
    /// if its schedule cannot be built, or the static verifier rejects
    /// it, the whole compilation fails ([`Error::Verification`] in the
    /// latter case) instead of shipping an unchecked artifact.
    pub fn compile(&self, graph: &FlatGraph) -> Result<ResilientCompiled> {
        let opts = &self.opts;
        let timing = &opts.compile.timing;
        let fe = compile_front(graph, &opts.compile)?;
        let num_sms = opts.compile.device.num_sms;
        let mut attempts = Vec::new();

        // Expected per-launch retry overhead of the fault plan, in
        // schedule time units. Under TailLatency it becomes the
        // scheduler's fault reserve (ResMII inflation); under Throughput
        // it only feeds the fault-adjusted II accounting.
        let reserve_units = opts.fault_plan.as_ref().map_or(0, |fp| {
            let cycles = fp.expected_retry_cycles(timing, timing.watchdog_budget_insts());
            (cycles / TIME_UNIT_CYCLES).ceil() as u64
        });
        let sched_reserve = match opts.policy {
            FaultPolicy::Throughput => 0,
            FaultPolicy::TailLatency => reserve_units,
        };
        let checkpoint = plan::checkpoint_plan(graph, timing, opts.fault_plan.as_ref());

        let budgets = &opts.budgets;
        let base = SearchOptions {
            fault_reserve: sched_reserve,
            ..fe.search.clone()
        };
        let ilp = SearchOptions {
            scheduler: SchedulerKind::Ilp,
            ..base.clone()
        };
        let ladder = [
            // Rung 0: model-guided beam — only when a cost model is
            // installed. One scheduler entry instead of the exact ladder's
            // several; `find_beam` never falls through to the exact path, so
            // a `Beam`-labeled artifact really came from the beam.
            (LadderRung::Beam, budgets.beam, base.clone()),
            // Rung 1: exact ILP — one candidate II, the (fault-adjusted)
            // lower bound.
            (
                LadderRung::ExactIlp,
                budgets.exact_ilp,
                SearchOptions {
                    max_attempts: 1,
                    ilp_budget: budgets.exact_ilp,
                    ..ilp.clone()
                },
            ),
            // Rung 2: the II-relaxation loop.
            (
                LadderRung::RelaxedIlp,
                budgets.relaxed_ilp,
                SearchOptions {
                    ilp_budget: (budgets.relaxed_ilp)
                        .min(fe.search.ilp_budget)
                        .max(Duration::from_millis(1)),
                    ..ilp
                },
            ),
            // Rung 3: the decomposed heuristic.
            (
                LadderRung::Heuristic,
                budgets.heuristic,
                SearchOptions {
                    scheduler: SchedulerKind::Heuristic,
                    ..base
                },
            ),
        ];
        for (rung, budget, search) in ladder {
            let find = match rung {
                LadderRung::Beam if search.cost_model.is_none() => continue,
                LadderRung::Beam => schedule::find_beam,
                _ => schedule::find,
            };
            let interrupt = &fe.search.interrupt;
            let run = || {
                let found = find(&fe.ig, &fe.exec_cfg, num_sms, &search)?;
                verify_rung(graph, &fe, num_sms, &found.0, false)?;
                Ok(found)
            };
            let found = try_rung(rung, budget, reserve_units, interrupt, &mut attempts, run);
            if let Some(found) = found {
                return Ok(assemble(graph, opts, fe, found, rung, attempts, checkpoint));
            }
        }

        // Rung 4: serialized SAS — a real, validated single-SM schedule
        // from the decomposed scheduler (honest SAS II and offsets),
        // gated by the same verifier as every other rung. No further
        // fallback: a rejected schedule fails the compilation rather
        // than shipping unchecked.
        let rung = LadderRung::SerialSas;
        let started = Instant::now();
        let schedule = match serial_sas_schedule(&fe, sched_reserve)
            .and_then(|s| verify_rung(graph, &fe, 1, &s, true).map(|()| s))
        {
            Ok(s) => s,
            Err(e) => {
                let failed = RungOutcome::Failed(e.to_string());
                attempts.push(RungAttempt::new(rung, failed, started.elapsed(), None, 0));
                return Err(e);
            }
        };
        let report = SearchReport::new(schedule.ii, schedule.ii, sched_reserve, 0, started);
        attempts.push(RungAttempt::new(
            rung,
            RungOutcome::Shipped,
            started.elapsed(),
            Some(report.nominal_ii),
            reserve_units,
        ));
        let found = (schedule, report);
        Ok(assemble(graph, opts, fe, found, rung, attempts, checkpoint))
    }
}

impl RungAttempt {
    /// `nominal_ii` is that of the schedule the rung produced, if any;
    /// `reserve_units` the fault plan's expected per-launch retry overhead.
    fn new(
        rung: LadderRung,
        outcome: RungOutcome,
        elapsed: Duration,
        nominal_ii: Option<u64>,
        reserve_units: u64,
    ) -> RungAttempt {
        RungAttempt {
            rung,
            outcome,
            elapsed,
            nominal_ii,
            fault_adjusted_ii: nominal_ii.map(|ii| ii + reserve_units),
        }
    }
}

/// Runs one rung under its budget. Returns the schedule on success;
/// records the attempt — including the nominal and fault-adjusted II of
/// any schedule it produced — either way.
///
/// A raised [`schedule::SearchInterrupt`] short-circuits the rung before
/// any scheduling work starts (and aborts a running search at its next
/// poll point): the rung records [`RungOutcome::Failed`] with the
/// preemption message and the ladder degrades toward the serial rung,
/// which never consults the interrupt — a preempted compile always
/// ships *something*.
fn try_rung(
    rung: LadderRung,
    budget: Duration,
    reserve_units: u64,
    interrupt: &schedule::SearchInterrupt,
    attempts: &mut Vec<RungAttempt>,
    run: impl FnOnce() -> Result<(Schedule, SearchReport)>,
) -> Option<(Schedule, SearchReport)> {
    let mut record = |outcome, elapsed, nominal_ii| {
        attempts.push(RungAttempt::new(
            rung,
            outcome,
            elapsed,
            nominal_ii,
            reserve_units,
        ));
    };
    if budget.is_zero() {
        record(RungOutcome::SkippedBudget, Duration::ZERO, None);
        return None;
    }
    if interrupt.is_raised() {
        let phase = format!("{rung} rung");
        let preempted = Error::Preempted { phase }.to_string();
        record(RungOutcome::Failed(preempted), Duration::ZERO, None);
        return None;
    }
    let started = Instant::now();
    let result = run();
    let elapsed = started.elapsed();
    match result {
        Ok(ok) if elapsed <= budget => {
            record(RungOutcome::Shipped, elapsed, Some(ok.1.nominal_ii));
            Some(ok)
        }
        Ok((_, report)) => {
            let late = format!("finished after the {budget:?} budget elapsed");
            record(RungOutcome::Failed(late), elapsed, Some(report.nominal_ii));
            None
        }
        Err(e) => {
            record(RungOutcome::Failed(e.to_string()), elapsed, None);
            None
        }
    }
}

/// The serial rung's preferred schedule: a real, validated single-SM SAS
/// schedule from the decomposed scheduler — every instance on SM 0, the
/// II an honest makespan (plus any fault reserve) rather than a blind
/// delay sum, offsets respecting the dependence system.
fn serial_sas_schedule(fe: &crate::exec::FrontEnd, fault_reserve: u64) -> Result<Schedule> {
    let sched = schedule::heuristic::schedule(&fe.ig, &fe.exec_cfg, 1, 1, 1, fault_reserve)?;
    schedule::validate(&fe.ig, &fe.exec_cfg, &sched, 1, 1)?;
    Ok(sched)
}

/// The independent acceptance gate every rung's schedule must clear:
/// modulo-schedule dependence timing re-derived from the graph
/// ([`verify::check_schedule`]) plus buffer-bounds liveness over the
/// canonical buffer plan ([`verify::check_plan`]). Any error-severity
/// finding rejects the rung with the full diagnostic batch.
fn verify_rung(
    graph: &FlatGraph,
    fe: &crate::exec::FrontEnd,
    num_sms: u32,
    sched: &Schedule,
    serial: bool,
) -> Result<()> {
    let mut diags = verify::check_schedule(graph, &fe.ig, &fe.exec_cfg, sched, num_sms, 1);
    // Pipelined rungs must also ship a sound steady-state capture: the
    // event-edge set the codegen would emit for this schedule is checked
    // against the independently re-derived dependence set (V05xx), so an
    // artifact can be flipped to graph dispatch at serve time without
    // re-verification.
    if !serial {
        let cap = crate::codegen::capture_graph(&fe.ig, sched, 1);
        diags.extend(verify::check_capture(graph, &fe.ig, sched, 1, &cap));
    }
    // The serial executor plans its buffers without a pipeline schedule
    // (stage span zero by construction); pipelined rungs plan against
    // the schedule they would ship with.
    let plan_sched = if serial { None } else { Some(sched) };
    let plan = plan::plan(graph, &fe.ig, plan_sched, 1, LayoutKind::Optimized);
    diags.extend(verify::check_plan(graph, &fe.ig, plan_sched, &plan));
    if verify::passes(&diags) {
        Ok(())
    } else {
        Err(Error::verification(diags))
    }
}

fn assemble(
    graph: &FlatGraph,
    opts: &PipelineOptions,
    fe: crate::exec::FrontEnd,
    (schedule, report): (Schedule, SearchReport),
    shipped: LadderRung,
    attempts: Vec<RungAttempt>,
    checkpoint: CheckpointPlan,
) -> ResilientCompiled {
    let scheme = match shipped {
        LadderRung::SerialSas => Scheme::Serial { batch: 1 },
        _ => Scheme::Swp { coarsening: 1 },
    };
    let compiled = Compiled {
        graph: graph.clone(),
        exec_cfg: fe.exec_cfg,
        selection: fe.selection,
        ig: fe.ig,
        schedule,
        report,
        device: opts.compile.device.clone(),
        timing: opts.compile.timing.clone(),
    };
    // Run the tenant-isolation prover at the scheme's canonical granule.
    // A failed or errored proof ships `None`: the artifact still runs on
    // a dedicated device, but shared devices refuse to dispatch it.
    let isolation = crate::verify::isolate::certify(&compiled, scheme)
        .ok()
        .and_then(|iso| iso.certificate);
    ResilientCompiled {
        compiled,
        report: DegradationReport {
            shipped,
            attempts,
            policy: opts.policy,
            checkpoint,
        },
        scheme,
        run_options: run_options_for(opts.policy, opts.fault_plan.clone(), opts.graph_dispatch),
        isolation,
        prepared: OnceLock::new(),
    }
}

/// Watchdog tightening factor TailLatency artifacts run with: a hang is
/// killed after at most this multiple of the largest legitimate launch
/// observed, instead of the full display-watchdog interval.
pub const TAIL_LATENCY_WATCHDOG_MARGIN: u32 = 4;

/// The run options an artifact compiled under `policy` ships with: the
/// ladder's fault plan installed, and — the policy's runtime half —
/// the adaptive watchdog armed for [`FaultPolicy::TailLatency`]
/// ([`RunOptions::watchdog_margin`]). Throughput artifacts keep the
/// device's generous display watchdog: a tightened watchdog spends
/// billed false-kill retries to buy hang-detection latency, which is
/// exactly the tail-for-throughput trade the policy axis encodes.
/// Shared by the ladder and the serving cache's disk-reload path so a
/// rebuilt artifact runs byte-identically to a fresh one.
/// `graph_dispatch` arms [`RunOptions::graph_dispatch`]: the artifact's
/// steady state replays its captured graph instead of host-launching
/// (functionally inert; serial artifacts ignore it).
#[must_use]
pub fn run_options_for(
    policy: FaultPolicy,
    fault_plan: Option<FaultPlan>,
    graph_dispatch: bool,
) -> RunOptions {
    RunOptions {
        fault_plan,
        graph_dispatch,
        watchdog_margin: match policy {
            FaultPolicy::Throughput => None,
            FaultPolicy::TailLatency => Some(TAIL_LATENCY_WATCHDOG_MARGIN),
        },
        ..RunOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{self, required_input};
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};

    fn map_filter(name: &str, f: impl FnOnce(Expr) -> Expr) -> StreamSpec {
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = b.local(ElemTy::I32);
        b.pop_into(0, x);
        b.push(0, f(Expr::local(x)));
        StreamSpec::filter(FilterSpec::new(name, b.build().unwrap()))
    }

    fn three_stage() -> FlatGraph {
        StreamSpec::pipeline(vec![
            map_filter("dbl", |x| x.mul(Expr::i32(2))),
            map_filter("inc", |x| x.add(Expr::i32(1))),
            map_filter("sq", |x| x.clone().mul(x)),
        ])
        .flatten()
        .unwrap()
    }

    fn run(rc: &ResilientCompiled, iters: u64) -> Vec<Scalar> {
        let input: Vec<Scalar> = (0..required_input(&rc.compiled, iters))
            .map(|i| Scalar::I32(i as i32 % 37 - 18))
            .collect();
        exec::execute(&rc.compiled, rc.scheme, iters, &input)
            .unwrap()
            .outputs
    }

    #[test]
    fn preferred_rung_is_an_ilp_rung_under_default_budgets() {
        let rc = ResilientPipeline::small_test()
            .compile(&three_stage())
            .unwrap();
        assert!(
            matches!(
                rc.report.shipped,
                LadderRung::ExactIlp | LadderRung::RelaxedIlp
            ),
            "default budgets must ship an ILP rung, got {}",
            rc.report
        );
        assert!(rc.compiled.report.used_ilp);
        assert_eq!(rc.scheme, Scheme::Swp { coarsening: 1 });
        assert!(!run(&rc, 4).is_empty());
    }

    #[test]
    fn zero_ilp_budgets_degrade_to_the_heuristic() {
        let pl = ResilientPipeline::new(PipelineOptions {
            compile: CompileOptions::small_test(),
            budgets: StageBudgets {
                exact_ilp: Duration::ZERO,
                relaxed_ilp: Duration::ZERO,
                ..StageBudgets::default()
            },
            ..PipelineOptions::default()
        });
        let rc = pl.compile(&three_stage()).unwrap();
        assert_eq!(rc.report.shipped, LadderRung::Heuristic);
        assert!(rc.report.degraded());
        assert_eq!(
            rc.report.attempts[0].outcome,
            RungOutcome::SkippedBudget,
            "{}",
            rc.report
        );
        assert_eq!(rc.report.attempts[1].outcome, RungOutcome::SkippedBudget);
        assert!(!rc.compiled.report.used_ilp);
        assert!(!run(&rc, 4).is_empty());
    }

    #[test]
    fn all_zero_budgets_ship_serial_sas() {
        let pl = ResilientPipeline::new(PipelineOptions {
            compile: CompileOptions::small_test(),
            budgets: StageBudgets {
                exact_ilp: Duration::ZERO,
                relaxed_ilp: Duration::ZERO,
                heuristic: Duration::ZERO,
                ..StageBudgets::default()
            },
            ..PipelineOptions::default()
        });
        let rc = pl.compile(&three_stage()).unwrap();
        assert_eq!(rc.report.shipped, LadderRung::SerialSas);
        assert_eq!(rc.scheme, Scheme::Serial { batch: 1 });
        assert_eq!(rc.report.attempts.len(), 4);

        // The serial artifact still computes the right stream: compare
        // against the normally-compiled pipeline under the same scheme.
        let iters = 4u64;
        let reference = {
            let c = exec::compile(&three_stage(), &CompileOptions::small_test()).unwrap();
            let input: Vec<Scalar> = (0..required_input(&c, iters))
                .map(|i| Scalar::I32(i as i32 % 37 - 18))
                .collect();
            exec::execute(&c, Scheme::Serial { batch: 1 }, iters, &input)
                .unwrap()
                .outputs
        };
        assert_eq!(run(&rc, iters), reference);
    }

    #[test]
    fn shipped_artifacts_pass_the_full_verifier() {
        // Both the pipelined and the serial rung ship artifacts the whole
        // verifier (schedule hazards, bounds, coalescing proof) accepts.
        for budgets in [
            StageBudgets::default(),
            StageBudgets {
                exact_ilp: Duration::ZERO,
                relaxed_ilp: Duration::ZERO,
                heuristic: Duration::ZERO,
                ..StageBudgets::default()
            },
        ] {
            let pl = ResilientPipeline::new(PipelineOptions {
                compile: CompileOptions::small_test(),
                budgets,
                ..PipelineOptions::default()
            });
            let rc = pl.compile(&three_stage()).unwrap();
            let v = crate::verify::verify(&rc.compiled, rc.scheme, 4).unwrap();
            assert!(v.passes(), "{} -> {:?}", rc.report, v.diagnostics);
            assert!(v.prediction.exact);
        }
    }

    #[test]
    fn raised_interrupt_preempts_to_the_serial_rung() {
        // A compile whose preemption handle is raised before it starts
        // never runs a scheduler search: every preemptible rung records
        // a preemption failure and the serial rung (which ignores the
        // interrupt) still ships a valid artifact.
        let mut compile = CompileOptions::small_test();
        let interrupt = schedule::SearchInterrupt::armed();
        compile.search.interrupt = interrupt.clone();
        interrupt.raise();
        let rc = ResilientPipeline::new(PipelineOptions {
            compile,
            budgets: StageBudgets::default(),
            ..PipelineOptions::default()
        })
        .compile(&three_stage())
        .unwrap();
        assert_eq!(rc.report.shipped, LadderRung::SerialSas, "{}", rc.report);
        for a in &rc.report.attempts {
            if a.rung == LadderRung::SerialSas {
                continue;
            }
            match &a.outcome {
                RungOutcome::Failed(m) => {
                    assert!(m.contains("preempted"), "{}: {m}", a.rung);
                }
                other => panic!("{}: expected preemption, got {other:?}", a.rung),
            }
        }
        assert!(!run(&rc, 4).is_empty());
    }

    #[test]
    fn interrupt_is_invisible_to_cache_keys_and_equality() {
        // The handle is control plumbing: options with and without an
        // armed interrupt compare equal and debug-format identically, so
        // content-addressed compilation caching cannot observe it.
        let plain = SearchOptions::default();
        let mut armed = SearchOptions::default();
        armed.interrupt = schedule::SearchInterrupt::armed();
        armed.interrupt.raise();
        assert_eq!(plain, armed);
        assert_eq!(format!("{plain:?}"), format!("{armed:?}"));
    }

    #[test]
    fn report_display_names_every_attempt() {
        let pl = ResilientPipeline::new(PipelineOptions {
            compile: CompileOptions::small_test(),
            budgets: StageBudgets {
                exact_ilp: Duration::ZERO,
                relaxed_ilp: Duration::ZERO,
                heuristic: Duration::ZERO,
                ..StageBudgets::default()
            },
            ..PipelineOptions::default()
        });
        let rc = pl.compile(&three_stage()).unwrap();
        let text = rc.report.to_string();
        assert!(text.contains("shipped serial-sas"), "{text}");
        assert!(text.contains("exact-ilp skipped"), "{text}");
        assert!(text.contains("relaxed-ilp skipped"), "{text}");
        assert!(text.contains("heuristic skipped"), "{text}");
    }
}
