//! Schedules, validation, the heuristic scheduler, and the II search loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::instances::{ExecConfig, InstanceGraph};
use crate::{Error, Result};

/// A software-pipelined schedule: for every instance, its SM assignment
/// (`w`), its offset within the kernel (`o`), and its pipeline stage (`f`)
/// — the linear-form schedule `σ(j,k,v) = T·(j + f) + o` of the paper.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Schedule {
    /// The initiation interval `T`.
    pub ii: u64,
    /// SM assignment per instance.
    pub sm_of: Vec<u32>,
    /// Offset `o` per instance, in `[0, T - d(v)]`.
    pub offset: Vec<u64>,
    /// Stage `f` per instance.
    pub stage: Vec<u64>,
}

impl Schedule {
    /// The largest stage number (pipeline depth − 1).
    #[must_use]
    pub fn max_stage(&self) -> u64 {
        self.stage.iter().copied().max().unwrap_or(0)
    }

    /// Shifts stages so the smallest is zero (a pure re-labeling).
    pub fn normalize(&mut self) {
        let min = self.stage.iter().copied().min().unwrap_or(0);
        for s in &mut self.stage {
            *s -= min;
        }
    }

    /// Absolute start time of an instance within iteration 0.
    #[must_use]
    pub fn start(&self, inst: usize) -> u64 {
        self.ii * self.stage[inst] + self.offset[inst]
    }
}

/// Independently re-checks a schedule against the constraint system of
/// Section III — used on every schedule regardless of which scheduler
/// produced it.
///
/// # Errors
///
/// [`Error::InvalidSchedule`] naming the first violated constraint.
pub fn validate(
    ig: &InstanceGraph,
    config: &ExecConfig,
    sched: &Schedule,
    num_sms: u32,
    coarsening_max: u32,
) -> Result<()> {
    let n = ig.len();
    if sched.sm_of.len() != n || sched.offset.len() != n || sched.stage.len() != n {
        return Err(Error::invalid_schedule("length mismatch"));
    }
    let t = sched.ii;

    // Assignment sanity + resource constraint (2).
    let mut load = vec![0u64; num_sms as usize];
    for (i, &(v, k)) in ig.list.iter().enumerate() {
        let p = sched.sm_of[i];
        if p >= num_sms {
            return Err(Error::InvalidSchedule {
                message: format!("assigned to nonexistent SM {p}"),
                instance: Some((v.0, k)),
                stage: Some(sched.stage[i]),
            });
        }
        load[p as usize] += config.delay[v.0 as usize];
        // Wraparound constraint (4): o + d <= T.
        if sched.offset[i] + config.delay[v.0 as usize] > t {
            return Err(Error::InvalidSchedule {
                message: format!(
                    "wraps: o={} d={} T={t}",
                    sched.offset[i], config.delay[v.0 as usize]
                ),
                instance: Some((v.0, k)),
                stage: Some(sched.stage[i]),
            });
        }
    }
    for (p, &l) in load.iter().enumerate() {
        if l > t {
            return Err(Error::invalid_schedule(format!(
                "SM {p} overloaded: {l} > II {t}"
            )));
        }
    }

    // Dependence constraints (8), with iteration lags tightened for
    // coarsened execution: when `C` basic iterations share one launch, a
    // lag of `jlag` basic iterations shrinks to `jlag / C` launches
    // (truncating division = ceiling for negatives), in the worst case
    // over the sub-iteration phase.
    let cmax = i128::from(coarsening_max.max(1));
    for d in &ig.deps {
        if d.consumer == d.producer {
            continue; // in-order sub-firing execution satisfies self-deps
        }
        let c = d.consumer.0 as usize;
        let u = d.producer.0 as usize;
        let (unode, _) = ig.node_of(d.producer);
        let du = config.delay[unode.0 as usize];
        let jlag_eff = i128::from(d.jlag) / cmax;
        let lhs = t as i128 * sched.stage[c] as i128 + sched.offset[c] as i128;
        let base = t as i128 * (jlag_eff + sched.stage[u] as i128);
        // Same-SM: result visible d(u) after the producer starts.
        let (cnode, ck) = ig.node_of(d.consumer);
        if lhs < base + sched.offset[u] as i128 + du as i128 {
            return Err(Error::InvalidSchedule {
                message: format!(
                    "dependence {:?} -> {:?} (jlag {}) violated in time",
                    d.producer, d.consumer, d.jlag
                ),
                instance: Some((cnode.0, ck)),
                stage: Some(sched.stage[c]),
            });
        }
        // Cross-SM: data only visible in the next iteration (g = 1).
        if sched.sm_of[c] != sched.sm_of[u] && lhs < base + t as i128 {
            return Err(Error::InvalidSchedule {
                message: format!(
                    "cross-SM dependence {:?} -> {:?} (jlag {}) needs an extra stage",
                    d.producer, d.consumer, d.jlag
                ),
                instance: Some((cnode.0, ck)),
                stage: Some(sched.stage[c]),
            });
        }
    }
    Ok(())
}

/// The decomposed scheduler: LPT bin-packing for the assignment, then a
/// monotone relaxation for stages and offsets.
///
/// This is the scalable substitute for CPLEX on large instances — it
/// satisfies exactly the same constraint system (see [`validate`]), at the
/// cost of possibly more pipeline stages (more buffering) than the ILP
/// would find.
pub mod heuristic {
    use super::{validate, Schedule};
    use crate::instances::{ExecConfig, InstanceGraph};
    use crate::{Error, Result};

    /// Schedules `ig` on `num_sms` processors with an II no smaller than
    /// `min_ii`, keeping `fault_reserve` time units of every SM's II idle
    /// as headroom for expected retry overhead (0 = fault-oblivious): the
    /// II is raised so each SM's assigned work fits in `II −
    /// fault_reserve`.
    ///
    /// # Errors
    ///
    /// [`Error::ScheduleNotFound`] when even repeated II relaxation cannot
    /// reach a fixpoint (an under-primed recurrence).
    pub fn schedule(
        ig: &InstanceGraph,
        config: &ExecConfig,
        num_sms: u32,
        min_ii: u64,
        coarsening_max: u32,
        fault_reserve: u64,
    ) -> Result<Schedule> {
        if num_sms == 0 {
            return Err(Error::Api("scheduling requires at least one SM".into()));
        }
        // --- Assignment: longest-processing-time greedy over groups. ---
        let groups = SmGroups::of(ig, config);
        let all = (0..groups.members.len()).collect();
        let sm_of = groups.pack_min_load(&groups.heaviest_first(all), num_sms);
        let makespan = makespan(ig, config, &sm_of, num_sms);
        let max_d = super::max_delay(ig, config);
        // Fault headroom raises the II floor above both the makespan and
        // the longest single delay, so every SM keeps `fault_reserve`
        // idle units per interval for retries.
        let mut ii = min_ii
            .max(makespan + fault_reserve)
            .max(max_d + fault_reserve)
            .max(1);

        // --- Stages and offsets: monotone relaxation to a fixpoint. ---
        for _attempt in 0..8 {
            if let Some(sched) = realize(ig, config, &sm_of, ii, coarsening_max) {
                validate(ig, config, &sched, num_sms, coarsening_max)?;
                return Ok(sched);
            }
            // A recurrence is too tight for this II: relax multiplicatively.
            ii = (ii * 3).div_ceil(2).max(ii + 1);
        }
        Err(Error::ScheduleNotFound { last_ii: ii })
    }

    /// The instances in groups that must share an SM, each with its total
    /// delay. Instances on a dependence cycle (stateful chains with their
    /// iteration wrap, feedback loops) must: every cross-SM hop demands an
    /// extra pipeline stage, so a cycle with any cross-SM edge needs its
    /// own stage budget back — impossible. Groups are the strongly
    /// connected components of the dependence graph, in first-instance
    /// order.
    pub(crate) struct SmGroups {
        pub(crate) members: Vec<Vec<usize>>,
        weight: Vec<u64>,
    }

    impl SmGroups {
        pub(crate) fn of(ig: &InstanceGraph, config: &ExecConfig) -> SmGroups {
            let comp = scc_components(ig.len(), &ig.deps);
            let mut by_comp: std::collections::HashMap<usize, Vec<usize>> =
                std::collections::HashMap::new();
            for (i, &c) in comp.iter().enumerate() {
                by_comp.entry(c).or_default().push(i);
            }
            let mut members: Vec<Vec<usize>> = by_comp.into_values().collect();
            members.sort_by_key(|g| g.first().copied());
            let delay = |&i: &usize| config.delay[ig.list[i].0 .0 as usize];
            let weight = members.iter().map(|g| g.iter().map(delay).sum()).collect();
            SmGroups { members, weight }
        }

        /// `order` with the heaviest groups first, ties as they were.
        pub(crate) fn heaviest_first(&self, mut order: Vec<usize>) -> Vec<usize> {
            order.sort_by_key(|&g| std::cmp::Reverse(self.weight[g]));
            order
        }

        /// Greedy packing: each group of `order` in turn onto the SM least
        /// loaded so far.
        pub(crate) fn pack_min_load(&self, order: &[usize], num_sms: u32) -> Vec<u32> {
            let mut load = vec![0u64; num_sms as usize];
            let mut sm_of = vec![0u32; self.members.iter().map(Vec::len).sum()];
            for &g in order {
                let p = (0..num_sms as usize).min_by_key(|&p| load[p]).unwrap_or(0);
                for &i in &self.members[g] {
                    sm_of[i] = p as u32;
                }
                load[p] += self.weight[g];
            }
            sm_of
        }
    }

    /// The heaviest per-SM load of an assignment.
    pub(crate) fn makespan(
        ig: &InstanceGraph,
        config: &ExecConfig,
        sm_of: &[u32],
        num_sms: u32,
    ) -> u64 {
        let mut load = vec![0u64; num_sms as usize];
        for (i, &(v, _)) in ig.list.iter().enumerate() {
            load[sm_of[i] as usize] += config.delay[v.0 as usize];
        }
        load.iter().copied().max().unwrap_or(0)
    }

    /// The schedule pinning `sm_of` at `ii`, stages normalized, or `None`
    /// if the relaxation diverges there. Callers [`validate`] it.
    pub(crate) fn realize(
        ig: &InstanceGraph,
        config: &ExecConfig,
        sm_of: &[u32],
        ii: u64,
        coarsening_max: u32,
    ) -> Option<Schedule> {
        let starts = relax(ig, config, sm_of, ii, coarsening_max)?;
        let mut sched = Schedule {
            ii,
            sm_of: sm_of.to_vec(),
            offset: starts.iter().map(|&x| x % ii).collect(),
            stage: starts.iter().map(|&x| x / ii).collect(),
        };
        sched.normalize();
        Some(sched)
    }

    /// Computes absolute start times satisfying every dependence and the
    /// wraparound rule, or `None` if the relaxation diverges at this II.
    /// Also the beam search's candidate constructor ([`super::beam`]):
    /// a candidate is a pinned (assignment, II) pair and this monotone
    /// relaxation either realizes it or rejects it.
    fn relax(
        ig: &InstanceGraph,
        config: &ExecConfig,
        sm_of: &[u32],
        ii: u64,
        coarsening_max: u32,
    ) -> Option<Vec<u64>> {
        let n = ig.len();
        let mut s = vec![0i128; n];
        let t = ii as i128;
        let clamp_wrap = |x: i128, d: i128| -> i128 {
            if x % t + d > t {
                (x / t + 1) * t
            } else {
                x
            }
        };
        // Initialize with wrap-feasible zeros.
        for (i, &(v, _)) in ig.list.iter().enumerate() {
            s[i] = clamp_wrap(0, config.delay[v.0 as usize] as i128);
        }
        let max_passes = 4 * (n + ig.deps.len()) + 16;
        for _ in 0..max_passes {
            let mut changed = false;
            for d in &ig.deps {
                if d.consumer == d.producer {
                    continue;
                }
                let c = d.consumer.0 as usize;
                let u = d.producer.0 as usize;
                let (unode, _) = ig.node_of(d.producer);
                let (cnode, _) = ig.node_of(d.consumer);
                let du = config.delay[unode.0 as usize] as i128;
                let dc = config.delay[cnode.0 as usize] as i128;
                let jlag_eff = i128::from(d.jlag) / i128::from(coarsening_max.max(1));
                let mut need = s[u] + t * jlag_eff + du;
                if sm_of[c] != sm_of[u] {
                    // Cross-SM: start of the iteration after the producer's
                    // stage (the g = 1 form).
                    need = need.max((s[u].div_euclid(t) + jlag_eff + 1) * t);
                }
                let need = clamp_wrap(need.max(s[c]), dc);
                if need > s[c] {
                    s[c] = need;
                    changed = true;
                }
            }
            if !changed {
                // Shift so the earliest start is within iteration 0.
                let min = s.iter().copied().min().unwrap_or(0);
                let shift = min.div_euclid(t) * t;
                // `shift <= min <= x`, so the subtraction is non-negative;
                // a conversion failure is treated as no fixpoint rather
                // than a panic.
                let mut starts = Vec::with_capacity(s.len());
                for &x in &s {
                    starts.push(u64::try_from(x - shift).ok()?);
                }
                return Some(starts);
            }
        }
        None
    }

    /// Strongly connected components of the instance dependence graph
    /// (Kosaraju), returned as a component id per instance.
    pub(crate) fn scc_components(n: usize, deps: &[crate::instances::Dep]) -> Vec<usize> {
        let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for d in deps {
            let u = d.producer.0 as usize;
            let c = d.consumer.0 as usize;
            if u != c {
                fwd[u].push(c);
                rev[c].push(u);
            }
        }
        // Pass 1: finish order on the forward graph (iterative DFS).
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for start in 0..n {
            if visited[start] {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            visited[start] = true;
            while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
                if *idx < fwd[v].len() {
                    let next = fwd[v][*idx];
                    *idx += 1;
                    if !visited[next] {
                        visited[next] = true;
                        stack.push((next, 0));
                    }
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }
        // Pass 2: components on the reverse graph in reverse finish order.
        let mut comp = vec![usize::MAX; n];
        let mut current = 0usize;
        for &start in order.iter().rev() {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp[start] = current;
            while let Some(v) = stack.pop() {
                for &u in &rev[v] {
                    if comp[u] == usize::MAX {
                        comp[u] = current;
                        stack.push(u);
                    }
                }
            }
            current += 1;
        }
        comp
    }
}

/// A cooperative preemption handle for a running II search.
///
/// The search checks the flag between candidate IIs (and at heuristic
/// entry) and aborts with [`Error::Preempted`] once it is raised — the
/// mechanism the serving engine uses to demote a long compile down the
/// degradation ladder when queue pressure rises.
///
/// The handle is deliberately *invisible* to everything that treats
/// [`SearchOptions`] as compile-request content: its `Debug` output is a
/// constant (so content-addressed cache keys, which hash the options'
/// debug form, do not depend on whether a search was preemptible) and
/// any two handles compare equal (so options equality still means "same
/// search parameters").
#[derive(Clone, Default)]
pub struct SearchInterrupt(Option<Arc<AtomicBool>>);

impl SearchInterrupt {
    /// A fresh, un-raised interrupt handle.
    #[must_use]
    pub fn armed() -> SearchInterrupt {
        SearchInterrupt(Some(Arc::new(AtomicBool::new(false))))
    }

    /// Raises the interrupt: the next poll point in any search carrying
    /// a clone of this handle aborts with [`Error::Preempted`].
    pub fn raise(&self) {
        if let Some(flag) = &self.0 {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the interrupt has been raised. An unarmed (default)
    /// handle is never interrupted.
    #[must_use]
    pub fn is_raised(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Errors with [`Error::Preempted`] when raised — the poll point
    /// searches call between units of work.
    fn check(&self, phase: &str) -> Result<()> {
        if self.is_raised() {
            Err(Error::Preempted {
                phase: phase.to_string(),
            })
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Debug for SearchInterrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Constant regardless of arming or state: the handle is control
        // plumbing, not compile-request content (cache keys hash the
        // options' debug form).
        f.write_str("SearchInterrupt")
    }
}

impl PartialEq for SearchInterrupt {
    fn eq(&self, _: &SearchInterrupt) -> bool {
        true
    }
}

/// Which scheduling path to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// ILP when the formulation is small enough, heuristic otherwise.
    #[default]
    Auto,
    /// Always the exact ILP (may be slow on large graphs).
    Ilp,
    /// Always the decomposed heuristic.
    Heuristic,
}

/// Options for the II search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOptions {
    /// Scheduling path.
    pub scheduler: SchedulerKind,
    /// Time the ILP solver gets per candidate II (paper: 20 s).
    pub ilp_budget: Duration,
    /// Relaxation factor applied to the II on failure (paper: 0.5 %).
    pub relax_factor: f64,
    /// Give up after this many candidate IIs.
    pub max_attempts: u32,
    /// `Auto` switches to the heuristic above this many binary variables.
    pub auto_ilp_var_limit: usize,
    /// The largest coarsening factor the schedule must stay correct for
    /// (cross-iteration dependences tighten accordingly).
    pub coarsening_max: u32,
    /// Fault headroom in schedule time units, reserved idle on every SM
    /// per initiation interval: the fault plan's expected failed-attempt
    /// cycles converted to time units (see
    /// [`gpusim::FaultPlan::expected_retry_cycles`] and
    /// [`crate::profile::TIME_UNIT_CYCLES`]). Inflates ResMII — the
    /// scheduler searches from `max(ResMII, RecMII, max d) + reserve` and
    /// caps per-SM load at `II − reserve`. Zero (the default) keeps the
    /// search fault-oblivious.
    pub fault_reserve: u64,
    /// Cooperative preemption handle, polled between candidate IIs and
    /// at heuristic entry. The default is unarmed (never interrupts);
    /// the handle does not participate in options equality or in the
    /// compilation cache key.
    pub interrupt: SearchInterrupt,
    /// Learned cost model for the beam-search mode ([`find_beam`]).
    /// When set (and the scheduler is not pinned to `Ilp`/`Heuristic`),
    /// [`find`] enumerates candidate (assignment, II) points, ranks
    /// them with the model, and constructs only the top
    /// [`SearchOptions::beam_width`] — falling back to the exact path
    /// when no candidate validates, so correctness never depends on the
    /// model. Unlike [`SearchInterrupt`], the handle *does* participate
    /// in options equality and in the compilation cache key (via its
    /// content digest): two compiles guided by different models are
    /// different compilations.
    pub cost_model: Option<crate::learn::CostModelHandle>,
    /// Candidate points the beam search constructs and validates per
    /// compile (the model ranks the rest away). The anchor candidate —
    /// the LPT assignment at its load floor, i.e. exactly what the
    /// heuristic scheduler would build — is always constructed, so the
    /// beam is never worse than the heuristic.
    pub beam_width: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            scheduler: SchedulerKind::Auto,
            ilp_budget: Duration::from_secs(20),
            relax_factor: 1.005,
            max_attempts: 400,
            auto_ilp_var_limit: 150,
            coarsening_max: 16,
            fault_reserve: 0,
            interrupt: SearchInterrupt::default(),
            cost_model: None,
            beam_width: 4,
        }
    }
}

/// How the schedule was found, for reporting (the paper's Section V
/// discussion of solve times and II relaxation).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SearchReport {
    /// The search's starting point: `max(ResMII, RecMII, max d)` plus the
    /// fault reserve when one was requested.
    pub lower_bound: u64,
    /// The II of the accepted schedule. When a fault reserve was
    /// requested this is the *fault-adjusted* II; the work-only share is
    /// [`SearchReport::nominal_ii`].
    pub final_ii: u64,
    /// The shipped II minus the fault reserve — the initiation interval
    /// chargeable to actual work. Equals [`SearchReport::final_ii`] for a
    /// fault-oblivious search.
    pub nominal_ii: u64,
    /// The fault headroom (in time units) the search reserved per SM.
    pub fault_reserve: u64,
    /// Relaxation over the lower bound, in percent.
    pub relaxation_pct: f64,
    /// Candidate IIs attempted.
    pub attempts: u32,
    /// Total wall-clock time in the solver.
    pub solve_time: Duration,
    /// `true` if the ILP path produced the schedule, `false` for the
    /// heuristic.
    pub used_ilp: bool,
    /// Variables in the last ILP formulation (0 when heuristic-only).
    pub ilp_vars: usize,
    /// Constraints in the last ILP formulation.
    pub ilp_constraints: usize,
}

impl SearchReport {
    /// The report of a search started at `started` that shipped
    /// `final_ii` without the ILP; an ILP path adds its own fields.
    pub(crate) fn new(
        lower_bound: u64,
        final_ii: u64,
        fault_reserve: u64,
        attempts: u32,
        started: Instant,
    ) -> SearchReport {
        SearchReport {
            lower_bound,
            final_ii,
            nominal_ii: final_ii - fault_reserve,
            fault_reserve,
            relaxation_pct: 100.0 * (final_ii as f64 / lower_bound as f64 - 1.0),
            attempts,
            solve_time: started.elapsed(),
            used_ilp: false,
            ilp_vars: 0,
            ilp_constraints: 0,
        }
    }
}

/// Where every II search starts: `max(ResMII, RecMII, max d)`, at least
/// 1, plus the fault reserve.
pub(crate) fn lower_bound(
    ig: &InstanceGraph,
    config: &ExecConfig,
    num_sms: u32,
    reserve: u64,
) -> u64 {
    let work = ig.res_mii(config, num_sms).max(ig.rec_mii(config));
    work.max(max_delay(ig, config)).max(1) + reserve
}

/// The longest single instance.
fn max_delay(ig: &InstanceGraph, config: &ExecConfig) -> u64 {
    let delays = ig.list.iter().map(|&(v, _)| config.delay[v.0 as usize]);
    delays.max().unwrap_or(1)
}

/// Searches for a schedule: start at `max(ResMII, RecMII)`, try the ILP
/// under its budget, relax the II by [`SearchOptions::relax_factor`] on
/// failure — the exact loop of Section V — falling back to the heuristic
/// per [`SchedulerKind`]. A nonzero [`SearchOptions::fault_reserve`]
/// inflates the starting bound and keeps that much of every SM's II idle
/// for retry headroom (threaded into both the ILP capacity constraints
/// and the heuristic).
///
/// # Errors
///
/// [`Error::ScheduleNotFound`] when the attempt budget is exhausted;
/// [`Error::Preempted`] when [`SearchOptions::interrupt`] is raised at a
/// poll point (between candidate IIs, or before the heuristic runs).
pub fn find(
    ig: &InstanceGraph,
    config: &ExecConfig,
    num_sms: u32,
    opts: &SearchOptions,
) -> Result<(Schedule, SearchReport)> {
    let start = Instant::now();
    let reserve = opts.fault_reserve;
    let lower = lower_bound(ig, config, num_sms, reserve);

    // Model-guided beam search: when a cost model is installed and the
    // scheduler is not pinned to an exact path, rank candidate
    // (assignment, II) points with the model and construct only the top
    // beam. A beam winner has already passed [`validate`] — the exact
    // constraint system — so correctness never depends on the model; an
    // empty beam falls through to the exact search below.
    if let Some(model) = &opts.cost_model {
        if !matches!(
            opts.scheduler,
            SchedulerKind::Ilp | SchedulerKind::Heuristic
        ) {
            if let Some(found) = beam::search(ig, config, num_sms, opts, lower, model, start)? {
                return Ok(found);
            }
        }
    }

    let ilp_size = ig.len() * num_sms as usize + crate::formulate::unique_deps(ig).len();
    let use_ilp = match opts.scheduler {
        SchedulerKind::Ilp => true,
        SchedulerKind::Heuristic => false,
        SchedulerKind::Auto => ilp_size <= opts.auto_ilp_var_limit,
    };

    if use_ilp {
        let mut ii = lower;
        let mut vars = 0;
        let mut cons = 0;
        for attempt in 1..=opts.max_attempts {
            opts.interrupt.check("ilp II search")?;
            let (model, handles) = crate::formulate::build_model(
                ig,
                config,
                num_sms,
                ii,
                opts.coarsening_max,
                reserve,
            );
            vars = model.num_vars();
            cons = model.num_constraints();
            let solve_opts = ilp::SolveOptions {
                time_budget: opts.ilp_budget,
                feasibility_only: true,
                ..ilp::SolveOptions::default()
            };
            match ilp::solve(&model, &solve_opts) {
                ilp::SolveOutcome::Optimal(sol) | ilp::SolveOutcome::Feasible(sol) => {
                    let mut sched = crate::formulate::extract_schedule(ig, &handles, &sol, ii);
                    sched.normalize();
                    validate(ig, config, &sched, num_sms, opts.coarsening_max)?;
                    let report = SearchReport {
                        used_ilp: true,
                        ilp_vars: vars,
                        ilp_constraints: cons,
                        ..SearchReport::new(lower, ii, reserve, attempt, start)
                    };
                    return Ok((sched, report));
                }
                _ => {
                    // Relax the II by 0.5% (at least 1) and retry.
                    ii = ((ii as f64 * opts.relax_factor).ceil() as u64).max(ii + 1);
                }
            }
        }
        if opts.scheduler == SchedulerKind::Ilp {
            return Err(Error::ScheduleNotFound { last_ii: ii });
        }
        // Auto: fall through to the heuristic with everything we learned.
        opts.interrupt.check("heuristic fallback")?;
        let sched = heuristic::schedule(ig, config, num_sms, lower, opts.coarsening_max, reserve)?;
        let report = SearchReport {
            ilp_vars: vars,
            ilp_constraints: cons,
            ..SearchReport::new(lower, sched.ii, reserve, opts.max_attempts, start)
        };
        return Ok((sched, report));
    }

    opts.interrupt.check("heuristic scheduling")?;
    let sched = heuristic::schedule(ig, config, num_sms, lower, opts.coarsening_max, reserve)?;
    let report = SearchReport::new(lower, sched.ii, reserve, 1, start);
    Ok((sched, report))
}

/// Beam-only search: like [`find`] with a cost model installed, but with
/// *no* exact-path fallback — an empty beam is
/// [`Error::ScheduleNotFound`] instead of a silent escalation to the
/// ILP/heuristic. The degradation ladder's beam rung uses this so the
/// rung label stays honest (`Beam` never ships an exact-path schedule);
/// callers that want the fallback call [`find`].
///
/// # Errors
///
/// [`Error::Api`] when no cost model is installed;
/// [`Error::ScheduleNotFound`] when no beam candidate validates;
/// [`Error::Preempted`] at an interrupt poll point.
pub fn find_beam(
    ig: &InstanceGraph,
    config: &ExecConfig,
    num_sms: u32,
    opts: &SearchOptions,
) -> Result<(Schedule, SearchReport)> {
    let start = Instant::now();
    let Some(model) = &opts.cost_model else {
        return Err(Error::Api(
            "beam search requires SearchOptions::cost_model".into(),
        ));
    };
    let lower = lower_bound(ig, config, num_sms, opts.fault_reserve);
    beam::search(ig, config, num_sms, opts, lower, model, start)?
        .ok_or(Error::ScheduleNotFound { last_ii: lower })
}

/// The model-guided beam: enumerate candidate (assignment, II) points,
/// rank with the learned cost model, construct only the top
/// [`SearchOptions::beam_width`], and return the best *validated*
/// schedule. Candidate construction reuses the heuristic's monotone
/// relaxation and the winner passes [`validate`] — the exact constraint
/// system — so the model can only mis-rank, never mis-schedule.
pub(crate) mod beam {
    use super::{heuristic, validate, Result, Schedule, SearchOptions, SearchReport};
    use crate::instances::{ExecConfig, InstanceGraph};
    use crate::learn::{features, CostModelHandle};
    use std::time::Instant;

    /// One candidate point: a full SM assignment pinned at one II.
    struct Point {
        sm_of: Vec<u32>,
        ii: u64,
    }

    /// Candidate SM assignments over the SCC groups (cycles must share
    /// an SM, exactly as in the heuristic). Strategy 0 is always the
    /// heuristic's own LPT assignment — the beam's anchor. The rest
    /// diversify: first-index order round-robin (pipeline locality),
    /// first-index min-load, and two deterministically seeded LPT
    /// shuffles (tie-breaks the greedy packing cannot reach).
    pub(crate) fn assignments(
        ig: &InstanceGraph,
        config: &ExecConfig,
        num_sms: u32,
    ) -> Vec<Vec<u32>> {
        let groups = heuristic::SmGroups::of(ig, config);
        let all: Vec<usize> = (0..groups.members.len()).collect();
        let lpt = |order: Vec<usize>| groups.pack_min_load(&groups.heaviest_first(order), num_sms);

        let mut out = Vec::new();
        // Anchor: LPT, identical to heuristic::schedule's assignment.
        out.push(lpt(all.clone()));
        // First-index order, round-robin across SMs.
        let mut rr = vec![0u32; ig.len()];
        for (k, g) in groups.members.iter().enumerate() {
            for &i in g {
                rr[i] = (k as u32) % num_sms;
            }
        }
        out.push(rr);
        // First-index order, min-load packing.
        out.push(groups.pack_min_load(&all, num_sms));
        // Seeded LPT shuffles: deterministic splitmix64 Fisher–Yates
        // over the group order before greedy packing.
        for seed in [1u64, 2] {
            let mut order = all.clone();
            let mut state = seed;
            for i in (1..order.len()).rev() {
                state = crate::hash::splitmix64(state);
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
            out.push(lpt(order));
        }
        out.dedup();
        out
    }

    pub(super) fn search(
        ig: &InstanceGraph,
        config: &ExecConfig,
        num_sms: u32,
        opts: &SearchOptions,
        lower: u64,
        model: &CostModelHandle,
        start: Instant,
    ) -> Result<Option<(Schedule, SearchReport)>> {
        if num_sms == 0 {
            return Ok(None);
        }
        let reserve = opts.fault_reserve;
        // Candidate universe: every assignment at a short ladder of IIs
        // above its own load floor.
        let mut points = Vec::new();
        for sm_of in assignments(ig, config, num_sms) {
            let makespan = heuristic::makespan(ig, config, &sm_of, num_sms);
            // `lower` already covers the longest single delay.
            let floor = lower.max(makespan + reserve);
            for mult in [1.0f64, 1.02, 1.05] {
                let ii = ((floor as f64 * mult).ceil() as u64).max(floor);
                if points
                    .iter()
                    .all(|p: &Point| p.ii != ii || p.sm_of != sm_of)
                {
                    points.push(Point {
                        sm_of: sm_of.clone(),
                        ii,
                    });
                }
            }
        }
        // Rank by predicted cycles; index tie-break keeps the order
        // deterministic under equal predictions.
        let mut ranked: Vec<(f64, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let feats = features::extract(ig, config, num_sms, &p.sm_of, p.ii);
                (model.predict(&feats), i)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Prune to the top beam, but always keep the anchor (point 0:
        // LPT at its floor) — the guarantee that the beam is never worse
        // than the heuristic, whatever the model says.
        let width = opts.beam_width.max(1);
        let mut chosen: Vec<usize> = ranked.iter().take(width).map(|&(_, i)| i).collect();
        if !chosen.contains(&0) {
            chosen.pop();
            chosen.push(0);
        }
        let mut constructed = 0u32;
        let mut best: Option<(Schedule, f64)> = None;
        for idx in chosen {
            opts.interrupt.check("beam candidate construction")?;
            let p = &points[idx];
            let Some(sched) = heuristic::realize(ig, config, &p.sm_of, p.ii, opts.coarsening_max)
            else {
                continue;
            };
            if validate(ig, config, &sched, num_sms, opts.coarsening_max).is_err() {
                continue;
            }
            constructed += 1;
            let predicted = ranked
                .iter()
                .find(|&&(_, i)| i == idx)
                .map_or(f64::INFINITY, |&(c, _)| c);
            let better = match &best {
                None => true,
                Some((b, bp)) => {
                    (sched.ii, predicted).partial_cmp(&(b.ii, *bp))
                        == Some(std::cmp::Ordering::Less)
                }
            };
            if better {
                best = Some((sched, predicted));
            }
        }
        Ok(best.map(|(sched, _)| {
            let report = SearchReport::new(lower, sched.ii, reserve, constructed, start);
            (sched, report)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder};

    fn rate_filter(name: &str, p: u32, q: u32) -> StreamSpec {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        for _ in 0..p {
            f.pop_into(0, x);
        }
        for _ in 0..q {
            f.push(0, Expr::local(x));
        }
        StreamSpec::filter(FilterSpec::new(name, f.build().unwrap()))
    }

    fn chain(n: usize) -> (InstanceGraph, ExecConfig) {
        let stages: Vec<StreamSpec> = (0..n)
            .map(|i| rate_filter(&format!("f{i}"), 1, 1))
            .collect();
        let g = StreamSpec::pipeline(stages).flatten().unwrap();
        let cfg = ExecConfig::uniform(n, 4, 16, 10);
        let ig = instances::build(&g, &cfg).unwrap();
        (ig, cfg)
    }

    #[test]
    fn heuristic_chain_schedules_and_validates() {
        let (ig, cfg) = chain(6);
        let sched = heuristic::schedule(&ig, &cfg, 4, 1, 1, 0).unwrap();
        validate(&ig, &cfg, &sched, 4, 1).unwrap();
        // 6 instances of weight 10 across 4 SMs: makespan 20.
        assert_eq!(sched.ii, 20);
        // Cross-SM hops force pipeline stages.
        assert!(sched.max_stage() >= 1);
    }

    #[test]
    fn fault_reserve_inflates_the_heuristic_ii_and_still_validates() {
        let (ig, cfg) = chain(6);
        let base = heuristic::schedule(&ig, &cfg, 4, 1, 1, 0).unwrap();
        let reserved = heuristic::schedule(&ig, &cfg, 4, 1, 1, 5).unwrap();
        validate(&ig, &cfg, &reserved, 4, 1).unwrap();
        // Each SM's work (20) must fit in II − 5, so the II climbs to 25.
        assert_eq!(reserved.ii, base.ii + 5);
    }

    #[test]
    fn search_report_accounts_nominal_and_fault_adjusted_ii() {
        let (ig, cfg) = chain(6);
        let opts = SearchOptions {
            scheduler: SchedulerKind::Heuristic,
            fault_reserve: 5,
            ..SearchOptions::default()
        };
        let (sched, report) = find(&ig, &cfg, 4, &opts).unwrap();
        validate(&ig, &cfg, &sched, 4, 1).unwrap();
        assert_eq!(report.fault_reserve, 5);
        assert_eq!(report.final_ii, report.nominal_ii + 5);
        assert_eq!(sched.ii, report.final_ii);
        let baseline = find(
            &ig,
            &cfg,
            4,
            &SearchOptions {
                scheduler: SchedulerKind::Heuristic,
                ..SearchOptions::default()
            },
        )
        .unwrap()
        .1;
        assert_eq!(report.nominal_ii, baseline.final_ii);
        assert!(report.lower_bound >= baseline.lower_bound + 5);
    }

    #[test]
    fn heuristic_single_sm_needs_no_stages_across() {
        let (ig, cfg) = chain(3);
        let sched = heuristic::schedule(&ig, &cfg, 1, 1, 1, 0).unwrap();
        validate(&ig, &cfg, &sched, 1, 1).unwrap();
        assert_eq!(sched.ii, 30);
        // All on one SM: plain in-order execution within one iteration.
        assert_eq!(sched.max_stage(), 0);
        assert!(sched.offset.windows(1).len() == 3);
    }

    #[test]
    fn validator_rejects_overload() {
        let (ig, cfg) = chain(3);
        let bad = Schedule {
            ii: 10, // 3 instances x 10 on one SM > 10
            sm_of: vec![0, 0, 0],
            offset: vec![0, 0, 0],
            stage: vec![0, 1, 2],
        };
        let e = validate(&ig, &cfg, &bad, 1, 1).unwrap_err();
        assert!(
            matches!(e, Error::InvalidSchedule { ref message, .. } if message.contains("overloaded"))
        );
    }

    #[test]
    fn validator_rejects_time_violation() {
        let (ig, cfg) = chain(2);
        let bad = Schedule {
            ii: 20,
            sm_of: vec![0, 0],
            offset: vec![10, 0], // consumer at 0 before producer finishing at 20
            stage: vec![0, 0],
        };
        let e = validate(&ig, &cfg, &bad, 1, 1).unwrap_err();
        assert!(
            matches!(e, Error::InvalidSchedule { ref message, .. } if message.contains("dependence"))
        );
    }

    #[test]
    fn validator_rejects_missing_cross_sm_stage() {
        let (ig, cfg) = chain(2);
        let bad = Schedule {
            ii: 20,
            sm_of: vec![0, 1],
            offset: vec![0, 10],
            stage: vec![0, 0], // same iteration across SMs: illegal
        };
        let e = validate(&ig, &cfg, &bad, 2, 1).unwrap_err();
        assert!(
            matches!(e, Error::InvalidSchedule { ref message, .. } if message.contains("cross-SM"))
        );
    }

    #[test]
    fn validator_rejects_wraparound() {
        let (ig, cfg) = chain(1);
        let bad = Schedule {
            ii: 12,
            sm_of: vec![0],
            offset: vec![5], // 5 + 10 > 12
            stage: vec![0],
        };
        let e = validate(&ig, &cfg, &bad, 1, 1).unwrap_err();
        assert!(
            matches!(e, Error::InvalidSchedule { ref message, .. } if message.contains("wraps"))
        );
    }

    #[test]
    fn search_ilp_path_on_small_graph() {
        let (ig, cfg) = chain(3);
        let opts = SearchOptions {
            scheduler: SchedulerKind::Ilp,
            ilp_budget: Duration::from_secs(10),
            ..SearchOptions::default()
        };
        let (sched, report) = find(&ig, &cfg, 2, &opts).unwrap();
        assert!(report.used_ilp);
        assert!(report.final_ii >= report.lower_bound);
        validate(&ig, &cfg, &sched, 2, 1).unwrap();
        // Lower bound: ceil(30/2) = 15; the ILP should reach it or close.
        assert!(
            sched.ii <= 20,
            "ILP II {} too far above lower bound 15",
            sched.ii
        );
    }

    #[test]
    fn search_heuristic_path() {
        let (ig, cfg) = chain(8);
        let opts = SearchOptions {
            scheduler: SchedulerKind::Heuristic,
            ..SearchOptions::default()
        };
        let (sched, report) = find(&ig, &cfg, 4, &opts).unwrap();
        assert!(!report.used_ilp);
        validate(&ig, &cfg, &sched, 4, 1).unwrap();
    }

    #[test]
    fn multirate_schedules_validate() {
        // Paper's Figure 4 rates, scheduled on 2 SMs.
        let g = StreamSpec::pipeline(vec![rate_filter("A", 1, 2), rate_filter("B", 3, 1)])
            .flatten()
            .unwrap();
        let cfg = ExecConfig {
            regs_per_thread: 16,
            threads_per_block: 4,
            threads: vec![4, 4],
            delay: vec![7, 13],
        };
        let ig = instances::build(&g, &cfg).unwrap();
        let sched = heuristic::schedule(&ig, &cfg, 2, 1, 1, 0).unwrap();
        validate(&ig, &cfg, &sched, 2, 1).unwrap();
    }

    #[test]
    fn normalize_shifts_stages() {
        let mut s = Schedule {
            ii: 10,
            sm_of: vec![0, 0],
            offset: vec![0, 0],
            stage: vec![2, 3],
        };
        s.normalize();
        assert_eq!(s.stage, vec![0, 1]);
        assert_eq!(s.start(1), 10);
    }
}
