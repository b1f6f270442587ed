//! Buffer-bounds liveness: no token slot is overwritten before its last
//! read.
//!
//! A channel buffer rotates `regions` regions of `region_tokens` tokens;
//! iteration `j`'s traffic lands in region `j mod regions` (plus the
//! resident-token shift). A producer at pipeline stage `f_u` writing
//! iteration `j` coexists with consumers still reading iterations back to
//! `j − span`, where `span` is the largest `f_c − f_u − jlag` over the
//! channel's dependences. With coarsening `C`, each kernel iteration
//! deposits `C` regions. The rotation is therefore overwrite-free exactly
//! when
//!
//! ```text
//! regions ≥ C · (span + 1) + ⌈resident / region_tokens⌉
//! ```
//!
//! [`check_plan`] recomputes `span` from the **re-derived** dependence set
//! (see [`super::deps`]) and flags any channel whose planned rotation is
//! smaller (`V0301`). It also cross-checks region geometry against the
//! channel rates (`V0302`): a transposed region whose token count is not
//! a whole number of consumer firings leaves a partial tail in natural
//! order, which is legal but forfeits the coalescing the layout exists to
//! provide.

use streamir::graph::FlatGraph;

use crate::instances::InstanceGraph;
use crate::plan::BufferPlan;
use crate::schedule::Schedule;
use crate::verify::deps::derive_deps;
use crate::verify::diag::{Code, Diagnostic};
use gpusim::Layout;

/// Checks a buffer plan's rotation capacity and region geometry against
/// the schedule and the channel rates. `schedule` is `None` for the
/// serial scheme, where the stage span is zero by construction.
#[must_use]
pub fn check_plan(
    graph: &FlatGraph,
    ig: &InstanceGraph,
    schedule: Option<&Schedule>,
    plan: &BufferPlan,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let c = u64::from(plan.coarsening.max(1));
    let deps = derive_deps(graph, ig);

    for (i, e) in graph.edges().iter().enumerate() {
        let et = &ig.edges[i];
        let Some(ep) = plan.edges.get(i) else {
            diags.push(
                Diagnostic::new(
                    Code::BufferUnderCapacity,
                    format!("channel #{i} has no buffer in the plan"),
                )
                .at_edge(i as u32),
            );
            continue;
        };
        let src = graph.node(e.src).name.clone();
        let dst = graph.node(e.dst).name.clone();

        let w = et.tokens_per_iter.max(1);
        if ep.region_tokens != w {
            diags.push(
                Diagnostic::new(
                    Code::RegionGeometry,
                    format!(
                        "channel {src} -> {dst}: region holds {} tokens but one steady \
                         iteration moves {w}",
                        ep.region_tokens
                    ),
                )
                .at_edge(i as u32),
            );
        }

        // Required rotation depth from the re-derived dependences.
        let span = schedule.map_or(0, |s| {
            deps.iter()
                .filter(|d| d.edge.map(|e| e.0 as usize) == Some(i))
                .map(|d| {
                    let fc = s.stage[d.consumer] as i64;
                    let fu = s.stage[d.producer] as i64;
                    (fc - fu - d.jlag).max(0) as u64
                })
                .max()
                .unwrap_or(0)
        });
        let required = c * (span + 1) + et.resident.div_ceil(w);
        if u64::from(ep.regions) < required {
            diags.push(
                Diagnostic::new(
                    Code::BufferUnderCapacity,
                    format!(
                        "channel {src} -> {dst} rotates {} regions but the schedule keeps \
                         {required} iterations in flight (stage span {span}, coarsening {c}, \
                         {} resident tokens): the producer would overwrite unread tokens",
                        ep.regions, et.resident
                    ),
                )
                .at_edge(i as u32),
            );
        }

        // Transposed geometry: a region should hold whole consumer
        // firings or the tail falls back to natural (uncoalesced) order.
        if let Layout::Transposed { .. } = ep.layout {
            let rate = u64::from(ep.consumer_rate.max(1));
            if ep.region_tokens % rate != 0 {
                diags.push(
                    Diagnostic::new(
                        Code::RegionGeometry,
                        format!(
                            "channel {src} -> {dst}: transposed region of {} tokens is not a \
                             whole number of consumer firings (rate {rate}); the partial tail \
                             keeps natural order and will not coalesce",
                            ep.region_tokens
                        ),
                    )
                    .at_edge(i as u32),
                );
            }
            if ep.consumer_rate != et.pop_thread.max(1) {
                diags.push(
                    Diagnostic::new(
                        Code::RegionGeometry,
                        format!(
                            "channel {src} -> {dst}: layout transposes at rate {} but the \
                             consumer pops {} per thread",
                            ep.consumer_rate,
                            et.pop_thread.max(1)
                        ),
                    )
                    .at_edge(i as u32),
                );
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{self, ExecConfig};
    use crate::plan::{self, LayoutKind};
    use crate::schedule::heuristic;
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

    fn fixture() -> (FlatGraph, InstanceGraph, Schedule, crate::plan::BufferPlan) {
        let g = StreamSpec::pipeline(vec![rate_filter("A", 1, 2), rate_filter("B", 2, 1)])
            .flatten()
            .unwrap();
        let cfg = ExecConfig::uniform(2, 4, 16, 10);
        let ig = instances::build(&g, &cfg).unwrap();
        let sched = heuristic::schedule(&ig, &cfg, 4, 1, 1, 0).unwrap();
        let p = plan::plan(&g, &ig, Some(&sched), 2, LayoutKind::Optimized);
        (g, ig, sched, p)
    }

    #[test]
    fn canonical_plan_is_clean() {
        let (g, ig, sched, p) = fixture();
        let diags = check_plan(&g, &ig, Some(&sched), &p);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn shrunken_rotation_is_rejected() {
        let (g, ig, sched, mut p) = fixture();
        p.edges[0].regions = p.edges[0].regions.saturating_sub(1);
        let diags = check_plan(&g, &ig, Some(&sched), &p);
        assert!(
            diags.iter().any(|d| d.code == Code::BufferUnderCapacity),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.edge == Some(0)));
    }

    #[test]
    fn partial_firing_region_warns_on_geometry() {
        let (g, ig, sched, mut p) = fixture();
        p.edges[0].region_tokens += 1; // no longer whole firings nor one iteration
        let diags = check_plan(&g, &ig, Some(&sched), &p);
        assert!(
            diags.iter().any(|d| d.code == Code::RegionGeometry),
            "{diags:?}"
        );
    }
}
