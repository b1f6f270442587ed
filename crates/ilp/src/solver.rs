//! Branch and bound over the LP relaxation.

use std::time::{Duration, Instant};

use crate::model::{Direction, Model, Sense, VarId, VarTy};
use crate::simplex::{self, LpResult, StandardLp};

/// Knobs for [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Wall-clock budget; on expiry the best incumbent (if any) is
    /// returned as [`SolveOutcome::Feasible`]. The paper allots CPLEX 20
    /// seconds per candidate initiation interval.
    pub time_budget: Duration,
    /// Node budget (branch-and-bound tree size cap).
    pub max_nodes: u64,
    /// Tolerance for calling an LP value integral.
    pub int_tol: f64,
    /// Stop at the first verified integral solution (the paper's ILP is a
    /// constraint problem, not an optimization).
    pub feasibility_only: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            time_budget: Duration::from_secs(20),
            max_nodes: 1_000_000,
            int_tol: 1e-6,
            feasibility_only: false,
        }
    }
}

/// A verified assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Value per variable, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Objective value in the model's own direction (0 for pure
    /// feasibility models).
    pub objective: f64,
}

impl Solution {
    /// The value assigned to `var`.
    #[must_use]
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }
}

/// What the solver concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveOutcome {
    /// Proven optimal (or, in feasibility mode, the first verified
    /// feasible point).
    Optimal(Solution),
    /// A verified feasible point, but the budget expired before proving
    /// optimality.
    Feasible(Solution),
    /// No feasible assignment exists.
    Infeasible,
    /// The objective is unbounded.
    Unbounded,
    /// The budget expired with no feasible point found.
    TimedOut,
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Branch-and-bound nodes processed.
    pub nodes: u64,
    /// LP relaxations solved.
    pub lp_solves: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Solves the model; see [`solve_with_stats`] for search statistics.
#[must_use]
pub fn solve(model: &Model, opts: &SolveOptions) -> SolveOutcome {
    solve_with_stats(model, opts).0
}

/// Solves the model, also returning search statistics.
#[must_use]
pub fn solve_with_stats(model: &Model, opts: &SolveOptions) -> (SolveOutcome, SolveStats) {
    let start = Instant::now();
    let mut stats = SolveStats::default();

    // Fold singleton constraints into bounds before searching.
    let model = match crate::presolve::presolve(model) {
        crate::presolve::Presolved::Infeasible => {
            stats.elapsed = start.elapsed();
            return (SolveOutcome::Infeasible, stats);
        }
        crate::presolve::Presolved::Reduced(m, _) => m,
    };
    let model = &model;

    // Internal form is minimization.
    let maximize = model.direction == Some(Direction::Maximize);
    let obj_terms = model.objective.canonical_terms(model.num_vars());
    let obj: Vec<f64> = if maximize {
        obj_terms.iter().map(|&c| -c).collect()
    } else {
        obj_terms
    };

    let root = Node {
        lo: model.vars.iter().map(|v| v.lo).collect(),
        hi: model.vars.iter().map(|v| v.hi).collect(),
        depth: 0,
    };
    let mut stack = vec![root];
    let mut incumbent: Option<(Vec<f64>, f64)> = None; // (values, min-form obj)
    let mut unbounded = false;
    let mut exhausted = true;

    while let Some(node) = stack.pop() {
        if start.elapsed() > opts.time_budget || stats.nodes >= opts.max_nodes {
            exhausted = false;
            break;
        }
        stats.nodes += 1;

        if node.lo.iter().zip(&node.hi).any(|(&l, &h)| l > h) {
            continue;
        }

        let lp = build_standard(model, &obj, &node);
        stats.lp_solves += 1;
        let (x, lp_obj) = match simplex::run(&lp) {
            LpResult::Infeasible => continue,
            LpResult::Unbounded => {
                if model.num_integer_vars() == 0 || node.depth == 0 {
                    unbounded = true;
                    break;
                }
                continue;
            }
            LpResult::Optimal { x, obj } => (x, obj),
        };
        // Un-shift to model space.
        let values: Vec<f64> = x.iter().zip(&node.lo).map(|(&v, &l)| v + l).collect();
        let lp_obj = lp_obj + obj.iter().zip(&node.lo).map(|(&c, &l)| c * l).sum::<f64>();

        if let Some((_, best)) = &incumbent {
            if !opts.feasibility_only && lp_obj >= *best - 1e-9 {
                continue; // bound prune
            }
        }

        // Prefer branching on a fractional SOS1 group (one child per
        // member, ordered by LP weight): assignment structure stays
        // shallow. Fall back to most-fractional single-variable branching.
        let frac_group = model
            .sos1
            .iter()
            .map(|g| {
                let frac: f64 = g
                    .iter()
                    .map(|v| {
                        let x = values[v.0];
                        (x - x.round()).abs()
                    })
                    .sum();
                (g, frac)
            })
            .filter(|&(_, f)| f > opts.int_tol)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((group, _)) = frac_group {
            // Children: fix each plausibly-chosen member to 1 (zeroing the
            // rest); push in ascending LP-value order so the best child is
            // explored first (stack is LIFO).
            let mut members: Vec<VarId> = group
                .iter()
                .copied()
                .filter(|v| node.hi[v.0] > 0.5) // not already excluded
                .collect();
            members.sort_by(|a, b| values[a.0].total_cmp(&values[b.0]));
            for &pick in &members {
                let mut child = node.clone();
                child.depth += 1;
                for &other in group {
                    if other == pick {
                        child.lo[other.0] = 1.0;
                    } else {
                        child.hi[other.0] = 0.0;
                    }
                }
                stack.push(child);
            }
            continue;
        }

        // Most-fractional integer variable.
        let frac_var = model
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.ty != VarTy::Continuous)
            .map(|(i, _)| (i, (values[i] - values[i].round()).abs()))
            .filter(|&(_, f)| f > opts.int_tol)
            .max_by(|a, b| a.1.total_cmp(&b.1));

        match frac_var {
            None => {
                // Candidate: snap integers exactly, then verify exactly.
                let mut cand = values.clone();
                for (i, v) in model.vars.iter().enumerate() {
                    if v.ty != VarTy::Continuous {
                        cand[i] = cand[i].round();
                    }
                }
                if model.violated_by(&cand, opts.int_tol).is_some() {
                    continue;
                }
                let cand_obj: f64 = obj
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| c * cand[i])
                    .sum::<f64>()
                    + model.objective.constant * if maximize { -1.0 } else { 1.0 };
                let better = incumbent
                    .as_ref()
                    .is_none_or(|(_, best)| cand_obj < *best - 1e-9);
                if better {
                    incumbent = Some((cand, cand_obj));
                    if opts.feasibility_only {
                        exhausted = true;
                        break;
                    }
                }
            }
            Some((i, _)) => {
                let v = values[i];
                let floor = v.floor();
                // Explore the nearer side first (it sits on top of the stack).
                let mut lo_child = node.clone();
                lo_child.hi[i] = floor;
                lo_child.depth += 1;
                let mut hi_child = node.clone();
                hi_child.lo[i] = floor + 1.0;
                hi_child.depth += 1;
                if v - floor < 0.5 {
                    stack.push(hi_child);
                    stack.push(lo_child);
                } else {
                    stack.push(lo_child);
                    stack.push(hi_child);
                }
            }
        }
    }

    stats.elapsed = start.elapsed();
    let outcome = if unbounded {
        SolveOutcome::Unbounded
    } else {
        match incumbent {
            Some((values, min_obj)) => {
                let objective = if maximize { -min_obj } else { min_obj };
                let sol = Solution { values, objective };
                if exhausted {
                    SolveOutcome::Optimal(sol)
                } else {
                    SolveOutcome::Feasible(sol)
                }
            }
            None => {
                if exhausted {
                    SolveOutcome::Infeasible
                } else {
                    SolveOutcome::TimedOut
                }
            }
        }
    };
    (outcome, stats)
}

#[derive(Debug, Clone)]
struct Node {
    lo: Vec<f64>,
    hi: Vec<f64>,
    depth: u32,
}

/// Shifts node bounds into the nonnegative standard form the simplex
/// consumes: `x = lo + x'`, finite upper bounds become rows `x' <= hi-lo`.
fn build_standard(model: &Model, obj: &[f64], node: &Node) -> StandardLp {
    let n = model.num_vars();
    let mut rows = Vec::with_capacity(model.cons.len() + n);
    for c in &model.cons {
        let coeffs = c.expr.canonical_terms(n);
        // Shift: Σ a_i (lo_i + x'_i) sense rhs  =>  Σ a_i x'_i sense rhs - Σ a_i lo_i.
        let shift: f64 = coeffs.iter().zip(&node.lo).map(|(&a, &l)| a * l).sum();
        rows.push((coeffs, c.sense, c.rhs - c.expr.constant - shift));
    }
    for i in 0..n {
        let span = node.hi[i] - node.lo[i];
        if span.is_finite() {
            let mut row = vec![0.0; n];
            row[i] = 1.0;
            rows.push((row, Sense::Le, span));
        }
    }
    StandardLp {
        n,
        rows,
        obj: obj.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    fn expect_optimal(out: SolveOutcome) -> Solution {
        match out {
            SolveOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn pure_lp_is_solved_at_root() {
        let mut m = Model::new();
        let x = m.cont_var("x", 0.0, 10.0);
        let y = m.cont_var("y", 0.0, 10.0);
        m.constraint(m.expr().term(x, 1.0).term(y, 1.0), Sense::Le, 4.0);
        m.maximize(m.expr().term(x, 3.0).term(y, 5.0));
        let s = expect_optimal(solve(&m, &SolveOptions::default()));
        assert!((s.objective - 20.0).abs() < 1e-6);
        assert!((s.value(y) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn knapsack_small() {
        // Classic: values [60,100,120], weights [10,20,30], cap 50 -> 220.
        let mut m = Model::new();
        let items: Vec<VarId> = (0..3).map(|i| m.binary_var(format!("x{i}"))).collect();
        let weights = [10.0, 20.0, 30.0];
        let values = [60.0, 100.0, 120.0];
        let mut w = m.expr();
        let mut v = m.expr();
        for (i, &x) in items.iter().enumerate() {
            w = w.term(x, weights[i]);
            v = v.term(x, values[i]);
        }
        m.constraint(w, Sense::Le, 50.0);
        m.maximize(v);
        let s = expect_optimal(solve(&m, &SolveOptions::default()));
        assert!((s.objective - 220.0).abs() < 1e-6);
        assert_eq!(s.value(items[0]).round(), 0.0);
        assert_eq!(s.value(items[1]).round(), 1.0);
        assert_eq!(s.value(items[2]).round(), 1.0);
    }

    #[test]
    fn integer_rounding_matters() {
        // max y s.t. 2y <= 7, y integer -> 3 (LP gives 3.5).
        let mut m = Model::new();
        let y = m.int_var("y", 0.0, 100.0);
        m.constraint(m.expr().term(y, 2.0), Sense::Le, 7.0);
        m.maximize(m.expr().term(y, 1.0));
        let s = expect_optimal(solve(&m, &SolveOptions::default()));
        assert_eq!(s.value(y).round(), 3.0);
    }

    /// The 3x3 assignment problem, each row optionally declared an SOS1
    /// group. Its optimum is 5: (0,1) = 1, (1,0) = 2, (2,2) = 2.
    fn assignment_3x3(sos1: bool) -> Model {
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut m = Model::new();
        let x: Vec<Vec<VarId>> = (0..3)
            .map(|i| (0..3).map(|j| m.binary_var(format!("x{i}{j}"))).collect())
            .collect();
        for (i, vars) in x.iter().enumerate() {
            let mut row = m.expr();
            let mut col = m.expr();
            for (j, &v) in vars.iter().enumerate() {
                row = row.term(v, 1.0);
                col = col.term(x[j][i], 1.0);
            }
            m.constraint(row, Sense::Eq, 1.0);
            m.constraint(col, Sense::Eq, 1.0);
            if sos1 {
                m.sos1(vars.clone());
            }
        }
        let mut obj = m.expr();
        for (vars, costs) in x.iter().zip(&cost) {
            for (&v, &c) in vars.iter().zip(costs) {
                obj = obj.term(v, c);
            }
        }
        m.minimize(obj);
        m
    }

    #[test]
    fn assignment_problem_3x3() {
        let m = assignment_3x3(false);
        let s = expect_optimal(solve(&m, &SolveOptions::default()));
        assert!((s.objective - 5.0).abs() < 1e-6, "got {}", s.objective);
    }

    #[test]
    fn sos1_branching_solves_assignment() {
        // The same assignment with SOS1 groups declared on every row:
        // group branching must reach the same optimum.
        let m = assignment_3x3(true);
        assert_eq!(m.sos1_groups().len(), 3);
        let (out, stats) = solve_with_stats(&m, &SolveOptions::default());
        let s = match out {
            SolveOutcome::Optimal(s) => s,
            other => panic!("{other:?}"),
        };
        assert!((s.objective - 5.0).abs() < 1e-6);
        assert!(stats.nodes < 200, "SOS branching stays shallow: {stats:?}");
    }

    #[test]
    fn infeasible_integer_model() {
        // 2x == 3 with x integer.
        let mut m = Model::new();
        let x = m.int_var("x", 0.0, 10.0);
        m.constraint(m.expr().term(x, 2.0), Sense::Eq, 3.0);
        assert_eq!(
            solve(&m, &SolveOptions::default()),
            SolveOutcome::Infeasible
        );
    }

    #[test]
    fn feasibility_mode_stops_at_first_solution() {
        // Many feasible points; feasibility mode should do little work.
        let mut m = Model::new();
        let xs: Vec<VarId> = (0..12).map(|i| m.binary_var(format!("x{i}"))).collect();
        let mut sum = m.expr();
        for &x in &xs {
            sum = sum.term(x, 1.0);
        }
        m.constraint(sum, Sense::Ge, 6.0);
        let opts = SolveOptions {
            feasibility_only: true,
            ..SolveOptions::default()
        };
        let (out, stats) = solve_with_stats(&m, &opts);
        assert!(matches!(out, SolveOutcome::Optimal(_)));
        assert!(stats.nodes < 100, "nodes {}", stats.nodes);
    }

    #[test]
    fn time_budget_returns_incumbent_or_timeout() {
        let mut m = Model::new();
        let xs: Vec<VarId> = (0..30).map(|i| m.binary_var(format!("x{i}"))).collect();
        let mut sum = m.expr();
        for (i, &x) in xs.iter().enumerate() {
            sum = sum.term(x, 1.0 + (i as f64) * 0.1);
        }
        m.constraint(sum.clone(), Sense::Ge, 10.0);
        m.minimize(sum);
        let opts = SolveOptions {
            time_budget: Duration::from_millis(0),
            ..SolveOptions::default()
        };
        let out = solve(&m, &opts);
        assert!(matches!(
            out,
            SolveOutcome::TimedOut | SolveOutcome::Feasible(_)
        ));
    }

    #[test]
    fn unbounded_reported() {
        let mut m = Model::new();
        let x = m.cont_var("x", 0.0, f64::INFINITY);
        m.maximize(m.expr().term(x, 1.0));
        assert_eq!(solve(&m, &SolveOptions::default()), SolveOutcome::Unbounded);
    }

    #[test]
    fn negative_lower_bounds_shift_correctly() {
        // min x s.t. x >= -5, x integer in [-10, 10] -> -5... constraint
        // x >= -4.5 -> integer -4.
        let mut m = Model::new();
        let x = m.int_var("x", -10.0, 10.0);
        m.constraint(m.expr().term(x, 1.0), Sense::Ge, -4.5);
        m.minimize(m.expr().term(x, 1.0));
        let s = expect_optimal(solve(&m, &SolveOptions::default()));
        assert_eq!(s.value(x).round(), -4.0);
    }

    #[test]
    fn objective_constant_is_respected() {
        let mut m = Model::new();
        let x = m.int_var("x", 0.0, 5.0);
        m.constraint(m.expr().term(x, 1.0), Sense::Ge, 2.0);
        m.minimize(m.expr().term(x, 1.0).constant(10.0));
        let s = expect_optimal(solve(&m, &SolveOptions::default()));
        assert!((s.objective - 12.0).abs() < 1e-6);
    }
}
