//! Event-edge soundness of captured steady-state graphs (`V05xx`).
//!
//! [`check_capture`] proves — independently of the emitter in
//! [`crate::codegen::capture_graph`] — that a captured graph's event-edge
//! set covers exactly the modulo-schedule dependence set. The required
//! set is **re-derived from the channel token geometry** via
//! `deps::derive_deps`, not read back from the instance model
//! the emitter consumed: the emitter and an enumeration bug would have to
//! agree byte-for-byte to slip a race past this pass.
//!
//! The coverage argument: each SM's node sequence is one serial capture
//! stream, so same-SM ordering is implicit; a cross-SM dependence
//! `consumer ← producer` with iteration lag `jlag` requires, at consumer
//! replay `r`, the producer's completion of replay
//! `r - (stage[c] - stage[u] - jlag/C)`. Because a producer's replays
//! complete in order, an edge with lag `L` covers every dependence
//! requiring lag `≥ L`. Hence per cross-SM `(producer, consumer)` pair:
//!
//! * no edge, or only edges with lag **above** the minimal required lag —
//!   a race ([`Code::MissingEventEdge`], error);
//! * an edge **below** the minimal required lag, or with no underlying
//!   dependence at all, or between same-SM endpoints — sound but
//!   overlap-losing ([`Code::SurplusEventEdge`], warning);
//! * a cycle among same-replay (lag-0) edges — replay deadlock
//!   ([`Code::EventEdgeCycle`], error).

use std::collections::BTreeMap;

use streamir::graph::FlatGraph;

use crate::codegen::CapturedGraph;
use crate::instances::{InstId, InstanceGraph};
use crate::schedule::Schedule;
use crate::verify::deps::derive_deps;
use crate::verify::diag::{Code, Diagnostic};

/// Checks `cap` against the dependence set re-derived from `graph`'s
/// channel geometry under `sched` at coarsening granule `coarsening_max`.
/// Returns every finding (not just the first), as `V05xx` diagnostics.
#[must_use]
pub fn check_capture(
    graph: &FlatGraph,
    ig: &InstanceGraph,
    sched: &Schedule,
    coarsening_max: u32,
    cap: &CapturedGraph,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = ig.len();
    if cap.sm_of.len() != n || cap.stage.len() != n {
        diags.push(Diagnostic::new(
            Code::CaptureShape,
            format!(
                "capture places {}/{} instance nodes but the graph has {n}",
                cap.sm_of.len(),
                cap.stage.len()
            ),
        ));
        return diags; // node ids below would be meaningless
    }
    if cap.sm_of != sched.sm_of || cap.stage != sched.stage {
        diags.push(Diagnostic::new(
            Code::CaptureShape,
            "capture's node placement (SM/stage vectors) diverges from the \
             schedule it claims to realize"
                .to_string(),
        ));
        return diags; // per-SM stream membership is untrustworthy
    }

    let name_of = |inst: u32| -> (String, u32, u32) {
        let (v, k) = ig.node_of(InstId(inst));
        (graph.node(v).name.clone(), v.0, k)
    };

    // The required set: minimal lag per cross-SM (producer, consumer)
    // pair, re-derived from channel geometry. Negative candidate lags are
    // V01xx schedule hazards, clamped here exactly as emission clamps.
    let cmax = i128::from(coarsening_max.max(1));
    let mut required: BTreeMap<(u32, u32), (u64, Option<u32>)> = BTreeMap::new();
    for d in derive_deps(graph, ig) {
        if d.consumer == d.producer || sched.sm_of[d.consumer] == sched.sm_of[d.producer] {
            continue;
        }
        let jlag_eff = i128::from(d.jlag) / cmax;
        let lag = sched.stage[d.consumer] as i128 - sched.stage[d.producer] as i128 - jlag_eff;
        let lag = u64::try_from(lag).unwrap_or(0);
        let key = (d.producer as u32, d.consumer as u32);
        let entry = required.entry(key).or_insert((lag, d.edge.map(|e| e.0)));
        if lag < entry.0 {
            *entry = (lag, d.edge.map(|e| e.0));
        }
    }

    // The emitted set: minimal lag per pair; parallel duplicates beyond
    // the strictest edge are already surplus.
    let mut emitted: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for e in &cap.edges {
        let key = (e.producer, e.consumer);
        if e.producer as usize >= n || e.consumer as usize >= n {
            diags.push(Diagnostic::new(
                Code::CaptureShape,
                format!(
                    "event edge {} → {} names a node outside the {n}-instance capture",
                    e.producer, e.consumer
                ),
            ));
            continue;
        }
        match emitted.entry(key) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(e.lag);
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                let l = slot.get_mut();
                let (uname, _, uk) = name_of(e.producer);
                let (cname, cnode, ck) = name_of(e.consumer);
                diags.push(
                    Diagnostic::new(
                        Code::SurplusEventEdge,
                        format!(
                            "duplicate event edge {uname}[{uk}] → {cname}[{ck}]: the \
                             lag-{} edge already gates this pair",
                            (*l).min(e.lag)
                        ),
                    )
                    .at_filter(cname.clone(), cnode),
                );
                *l = (*l).min(e.lag);
            }
        }
    }

    for (&(u, c), &(lreq, dep_edge)) in &required {
        let (uname, _, uk) = name_of(u);
        let (cname, cnode, ck) = name_of(c);
        match emitted.get(&(u, c)) {
            None => {
                let mut diag = Diagnostic::new(
                    Code::MissingEventEdge,
                    format!(
                        "no event edge gates {cname}[{ck}] (SM {}) on {uname}[{uk}] \
                         (SM {}): replay r must wait on the producer's replay r - {lreq}, \
                         or the consumer races past it",
                        sched.sm_of[c as usize], sched.sm_of[u as usize]
                    ),
                )
                .at_filter(cname.clone(), cnode);
                if let Some(e) = dep_edge {
                    diag = diag.at_edge(e);
                }
                diags.push(diag);
            }
            Some(&le) if le > lreq => {
                let mut diag = Diagnostic::new(
                    Code::MissingEventEdge,
                    format!(
                        "stale event edge {uname}[{uk}] → {cname}[{ck}]: lag {le} only \
                         gates on replay r - {le}, but the dependence needs replay \
                         r - {lreq} done — the consumer races {} replays ahead",
                        le - lreq
                    ),
                )
                .at_filter(cname.clone(), cnode);
                if let Some(e) = dep_edge {
                    diag = diag.at_edge(e);
                }
                diags.push(diag);
            }
            Some(&le) if le < lreq => {
                diags.push(
                    Diagnostic::new(
                        Code::SurplusEventEdge,
                        format!(
                            "over-strict event edge {uname}[{uk}] → {cname}[{ck}]: lag \
                             {le} where the dependence only needs {lreq} — the consumer \
                             stalls {} replays of overlap it could have had",
                            lreq - le
                        ),
                    )
                    .at_filter(cname.clone(), cnode),
                );
            }
            Some(_) => {}
        }
    }
    for (&(u, c), _) in emitted.iter().filter(|(k, _)| !required.contains_key(k)) {
        let (uname, _, uk) = name_of(u);
        let (cname, cnode, ck) = name_of(c);
        let same_sm = sched.sm_of[u as usize] == sched.sm_of[c as usize];
        diags.push(
            Diagnostic::new(
                Code::SurplusEventEdge,
                if same_sm {
                    format!(
                        "event edge {uname}[{uk}] → {cname}[{ck}] joins nodes on the \
                         same SM stream, which replay order already serializes — lost \
                         overlap for no added safety"
                    )
                } else {
                    format!(
                        "event edge {uname}[{uk}] → {cname}[{ck}] gates a pair with no \
                         underlying dependence — lost overlap for no added safety"
                    )
                },
            )
            .at_filter(cname.clone(), cnode),
        );
    }

    if let Some(cycle) = lag0_cycle(n, &emitted) {
        let path = cycle
            .iter()
            .map(|&i| {
                let (name, _, k) = name_of(i);
                format!("{name}[{k}]")
            })
            .collect::<Vec<_>>()
            .join(" → ");
        diags.push(Diagnostic::new(
            Code::EventEdgeCycle,
            format!(
                "same-replay (lag-0) event edges form a cycle: {path} — every node \
                 waits for another's completion within the same replay, so the \
                 capture never fires"
            ),
        ));
    }
    diags
}

/// Finds a cycle among the lag-0 edges, if any, returned as the node
/// sequence around the cycle (first node repeated at the end). Edges
/// with lag ≥ 1 wait on *prior* replays and cannot deadlock the current
/// one, so only the same-replay subgraph matters.
fn lag0_cycle(n: usize, emitted: &BTreeMap<(u32, u32), u64>) -> Option<Vec<u32>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (&(u, c), &lag) in emitted {
        if lag == 0 {
            adj[u as usize].push(c);
        }
    }
    // Iterative coloring DFS with an explicit parent chain so the cycle
    // itself can be reported, not just its existence.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    let mut parent: Vec<u32> = vec![u32::MAX; n];
    for start in 0..n as u32 {
        if color[start as usize] != WHITE {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color[start as usize] = GRAY;
        while let Some(&(v, next)) = stack.last() {
            if let Some(&w) = adj[v as usize].get(next) {
                stack.last_mut().expect("nonempty stack").1 += 1;
                match color[w as usize] {
                    WHITE => {
                        color[w as usize] = GRAY;
                        parent[w as usize] = v;
                        stack.push((w, 0));
                    }
                    GRAY => {
                        // Back edge v → w: walk the parent chain from v
                        // up to w to recover the cycle.
                        let mut path = vec![w];
                        let mut cur = v;
                        while cur != w {
                            path.push(cur);
                            cur = parent[cur as usize];
                        }
                        path.push(w);
                        path.reverse();
                        return Some(path);
                    }
                    _ => {}
                }
            } else {
                color[v as usize] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{capture_graph, EventEdge};
    use crate::instances::{self, ExecConfig};
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

    fn fixture() -> (FlatGraph, InstanceGraph, Schedule) {
        let g = StreamSpec::pipeline(vec![
            rate_filter("A", 1, 2),
            rate_filter("B", 2, 1),
            rate_filter("C", 1, 1),
        ])
        .flatten()
        .unwrap();
        let cfg = ExecConfig::uniform(3, 4, 16, 10);
        let ig = instances::build(&g, &cfg).unwrap();
        let sched = heuristic::schedule(&ig, &cfg, 4, 1, 1, 0).unwrap();
        (g, ig, sched)
    }

    #[test]
    fn emitted_capture_is_clean() {
        let (g, ig, sched) = fixture();
        let cap = capture_graph(&ig, &sched, 1);
        let diags = check_capture(&g, &ig, &sched, 1, &cap);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dropped_edge_is_a_race() {
        let (g, ig, sched) = fixture();
        let mut cap = capture_graph(&ig, &sched, 1);
        if cap.edges.is_empty() {
            return; // schedule happened to be single-SM; nothing to drop
        }
        cap.edges.remove(0);
        assert!(check_capture(&g, &ig, &sched, 1, &cap)
            .iter()
            .any(|d| d.code == Code::MissingEventEdge));
    }

    #[test]
    fn stale_lag_is_a_race_and_strict_lag_is_a_warning() {
        let (g, ig, sched) = fixture();
        let cap = capture_graph(&ig, &sched, 1);
        if cap.edges.is_empty() {
            return;
        }
        let mut stale = cap.clone();
        stale.edges[0].lag += 1;
        assert!(check_capture(&g, &ig, &sched, 1, &stale)
            .iter()
            .any(|d| d.code == Code::MissingEventEdge));

        if cap.edges[0].lag > 0 {
            let mut strict = cap;
            strict.edges[0].lag -= 1;
            let diags = check_capture(&g, &ig, &sched, 1, &strict);
            assert!(
                diags.iter().all(|d| d.code != Code::MissingEventEdge),
                "{diags:?}"
            );
            assert!(diags.iter().any(|d| d.code == Code::SurplusEventEdge));
        }
    }

    #[test]
    fn undepended_edge_is_surplus() {
        let (g, ig, sched) = fixture();
        let mut cap = capture_graph(&ig, &sched, 1);
        // A self-loop-free pair with no channel between its nodes: gate
        // the last instance on the first in reverse.
        let n = ig.len() as u32;
        cap.edges.push(EventEdge {
            producer: n - 1,
            consumer: 0,
            lag: 5,
        });
        assert!(check_capture(&g, &ig, &sched, 1, &cap)
            .iter()
            .any(|d| d.code == Code::SurplusEventEdge));
    }

    #[test]
    fn lag0_cycle_is_a_deadlock() {
        let (g, ig, sched) = fixture();
        let mut cap = capture_graph(&ig, &sched, 1);
        let n = ig.len() as u32;
        cap.edges.push(EventEdge {
            producer: 0,
            consumer: n - 1,
            lag: 0,
        });
        cap.edges.push(EventEdge {
            producer: n - 1,
            consumer: 0,
            lag: 0,
        });
        assert!(check_capture(&g, &ig, &sched, 1, &cap)
            .iter()
            .any(|d| d.code == Code::EventEdgeCycle));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (g, ig, sched) = fixture();
        let mut cap = capture_graph(&ig, &sched, 1);
        cap.sm_of.pop();
        cap.stage.pop();
        assert!(check_capture(&g, &ig, &sched, 1, &cap)
            .iter()
            .any(|d| d.code == Code::CaptureShape));

        let mut moved = capture_graph(&ig, &sched, 1);
        moved.sm_of[0] += 1;
        assert!(check_capture(&g, &ig, &sched, 1, &moved)
            .iter()
            .any(|d| d.code == Code::CaptureShape));
    }
}
