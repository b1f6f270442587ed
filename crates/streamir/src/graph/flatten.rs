//! Lowering hierarchical [`StreamSpec`]s to [`FlatGraph`]s.

use std::collections::HashMap;

use crate::ir::{ElemTy, FnBuilder, WorkFunction};
use crate::{Error, Result};

use super::{Edge, FlatGraph, Node, NodeId, Role, SplitterKind, StreamSpec};

type Port = (NodeId, u8);

struct Flattener {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    name_counts: HashMap<String, u32>,
}

fn bad(msg: impl Into<String>) -> Error {
    Error::InvalidGraph(msg.into())
}

/// Flattens `spec`; see [`StreamSpec::flatten`] for the error contract.
pub fn flatten(spec: &StreamSpec) -> Result<FlatGraph> {
    let mut f = Flattener {
        nodes: Vec::new(),
        edges: Vec::new(),
        name_counts: HashMap::new(),
    };
    let (entry, exit) = f.spec(spec)?;
    let graph = FlatGraph::new(
        f.nodes,
        f.edges,
        entry.map(|(n, _)| n),
        exit.map(|(n, _)| n),
    );
    check_wiring(&graph)?;
    Ok(graph)
}

impl Flattener {
    fn add_node(&mut self, name: &str, work: WorkFunction, role: Role) -> NodeId {
        let count = self.name_counts.entry(name.to_owned()).or_insert(0);
        let unique = if *count == 0 {
            name.to_owned()
        } else {
            format!("{name}#{count}")
        };
        *count += 1;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: unique,
            work,
            role,
        });
        id
    }

    fn connect(&mut self, src: Port, dst: Port) -> Result<()> {
        let sty = self.nodes[src.0 .0 as usize].work.output_ports()[src.1 as usize];
        let dty = self.nodes[dst.0 .0 as usize].work.input_ports()[dst.1 as usize];
        if sty != dty {
            return Err(bad(format!(
                "channel element type mismatch: {} produces {sty}, {} consumes {dty}",
                self.nodes[src.0 .0 as usize].name, self.nodes[dst.0 .0 as usize].name
            )));
        }
        self.edges.push(Edge {
            src: src.0,
            src_port: src.1,
            dst: dst.0,
            dst_port: dst.1,
            elem: sty,
            initial: Vec::new(),
        });
        Ok(())
    }

    /// Flattens one sub-spec, returning its external (entry, exit) ports.
    fn spec(&mut self, spec: &StreamSpec) -> Result<(Option<Port>, Option<Port>)> {
        match spec {
            StreamSpec::Filter(fs) => {
                let work = fs.work().clone();
                let n_in = work.input_ports().len();
                let n_out = work.output_ports().len();
                if n_in > 1 || n_out > 1 {
                    return Err(bad(format!(
                        "filter {} has {n_in} inputs / {n_out} outputs; user filters are \
                         at most single-input single-output (use split-join for fan-out)",
                        fs.name()
                    )));
                }
                let id = self.add_node(fs.name(), work, Role::Filter);
                Ok((
                    (n_in == 1).then_some((id, 0)),
                    (n_out == 1).then_some((id, 0)),
                ))
            }
            StreamSpec::Pipeline(stages) => {
                if stages.is_empty() {
                    return Err(bad("empty pipeline"));
                }
                let mut first_entry = None;
                let mut prev_exit: Option<Port> = None;
                for (i, stage) in stages.iter().enumerate() {
                    let (entry, exit) = self.spec(stage)?;
                    if i == 0 {
                        first_entry = entry;
                    } else {
                        match (prev_exit, entry) {
                            (Some(src), Some(dst)) => self.connect(src, dst)?,
                            (None, Some(_)) => {
                                return Err(bad(format!(
                                    "pipeline stage {i} consumes input but the previous \
                                     stage produces none"
                                )))
                            }
                            (Some(_), None) => {
                                return Err(bad(format!(
                                    "pipeline stage {i} takes no input but the previous \
                                     stage produces output"
                                )))
                            }
                            (None, None) => {
                                return Err(bad(format!(
                                    "pipeline stage {i} is disconnected from the previous stage"
                                )))
                            }
                        }
                    }
                    prev_exit = exit;
                }
                Ok((first_entry, prev_exit))
            }
            StreamSpec::SplitJoin {
                splitter,
                branches,
                joiner,
            } => {
                if branches.is_empty() {
                    return Err(bad("split-join with no branches"));
                }
                if joiner.len() != branches.len() {
                    return Err(bad(format!(
                        "joiner has {} weights for {} branches",
                        joiner.len(),
                        branches.len()
                    )));
                }
                if let Some(a) = splitter.arity() {
                    if a != branches.len() {
                        return Err(bad(format!(
                            "splitter has {a} weights for {} branches",
                            branches.len()
                        )));
                    }
                }
                let mut branch_ports = Vec::with_capacity(branches.len());
                for (i, b) in branches.iter().enumerate() {
                    let (entry, exit) = self.spec(b)?;
                    let entry = entry
                        .ok_or_else(|| bad(format!("split-join branch {i} consumes no input")))?;
                    let exit = exit
                        .ok_or_else(|| bad(format!("split-join branch {i} produces no output")))?;
                    branch_ports.push((entry, exit));
                }
                let in_ty = self.nodes[branch_ports[0].0 .0 .0 as usize]
                    .work
                    .input_ports()[branch_ports[0].0 .1 as usize];
                let out_ty = self.nodes[branch_ports[0].1 .0 .0 as usize]
                    .work
                    .output_ports()[branch_ports[0].1 .1 as usize];
                let split_work = splitter_work(splitter, branches.len(), in_ty)?;
                let split_id = self.add_node("split", split_work, Role::Splitter);
                let join_work = joiner_work(joiner, out_ty)?;
                let join_id = self.add_node("join", join_work, Role::Joiner);
                for (i, (entry, exit)) in branch_ports.iter().enumerate() {
                    self.connect((split_id, i as u8), *entry)?;
                    self.connect(*exit, (join_id, i as u8))?;
                }
                Ok((Some((split_id, 0)), Some((join_id, 0))))
            }
            StreamSpec::FeedbackLoop(fl) => {
                let (body_entry, body_exit) = self.spec(&fl.body)?;
                let body_entry =
                    body_entry.ok_or_else(|| bad("feedback-loop body consumes no input"))?;
                let body_exit =
                    body_exit.ok_or_else(|| bad("feedback-loop body produces no output"))?;
                let in_ty =
                    self.nodes[body_entry.0 .0 as usize].work.input_ports()[body_entry.1 as usize];
                let out_ty =
                    self.nodes[body_exit.0 .0 as usize].work.output_ports()[body_exit.1 as usize];
                if in_ty != out_ty {
                    return Err(bad(format!(
                        "feedback-loop body input type {in_ty} differs from output type {out_ty}"
                    )));
                }
                for v in &fl.initial {
                    if v.ty() != in_ty {
                        return Err(bad("feedback-loop initial token type mismatch"));
                    }
                }
                let join_work = joiner_work(&fl.joiner, in_ty)?;
                let join_id = self.add_node("fbjoin", join_work, Role::Joiner);
                let split_work = splitter_work(&fl.splitter, 2, out_ty)?;
                let split_id = self.add_node("fbsplit", split_work, Role::Splitter);
                self.connect((join_id, 0), body_entry)?;
                self.connect(body_exit, (split_id, 0))?;
                // Feedback path: splitter port 1 -> [feedback stream] ->
                // joiner port 1, with the initial tokens queued on the edge
                // that enters the joiner.
                let fb_src: Port = match &fl.feedback {
                    None => (split_id, 1),
                    Some(fb) => {
                        let (fb_entry, fb_exit) = self.spec(fb)?;
                        let fb_entry =
                            fb_entry.ok_or_else(|| bad("feedback stream consumes no input"))?;
                        let fb_exit =
                            fb_exit.ok_or_else(|| bad("feedback stream produces no output"))?;
                        self.connect((split_id, 1), fb_entry)?;
                        fb_exit
                    }
                };
                self.connect(fb_src, (join_id, 1))?;
                let fb_edge = self.edges.len() - 1;
                self.edges[fb_edge].initial = fl.initial.clone();
                Ok((Some((join_id, 0)), Some((split_id, 0))))
            }
        }
    }
}

/// Generates the work function of a splitter node.
fn splitter_work(kind: &SplitterKind, n_branches: usize, ty: ElemTy) -> Result<WorkFunction> {
    let outs = vec![ty; n_branches];
    let mut f = FnBuilder::new(&[ty], &outs);
    let x = f.local(ty);
    match kind {
        SplitterKind::Duplicate => {
            f.pop_into(0, x);
            for port in 0..n_branches {
                f.push(port as u8, crate::ir::Expr::local(x));
            }
        }
        SplitterKind::RoundRobin(weights) => {
            for (port, &w) in weights.iter().enumerate() {
                if w == 0 {
                    return Err(bad("round-robin splitter weight of zero"));
                }
                for _ in 0..w {
                    f.pop_into(0, x);
                    f.push(port as u8, crate::ir::Expr::local(x));
                }
            }
        }
    }
    f.build()
}

/// Generates the work function of a round-robin joiner node.
fn joiner_work(weights: &[u32], ty: ElemTy) -> Result<WorkFunction> {
    let ins = vec![ty; weights.len()];
    let mut f = FnBuilder::new(&ins, &[ty]);
    let x = f.local(ty);
    for (port, &w) in weights.iter().enumerate() {
        if w == 0 {
            return Err(bad("round-robin joiner weight of zero"));
        }
        for _ in 0..w {
            f.pop_into(port as u8, x);
            f.push(0, crate::ir::Expr::local(x));
        }
    }
    f.build()
}

/// Verifies that every internal port is wired exactly once and external
/// ports match the recorded graph input/output.
fn check_wiring(g: &FlatGraph) -> Result<()> {
    for (i, node) in g.nodes().iter().enumerate() {
        let id = NodeId(i as u32);
        for port in 0..node.work.input_ports().len() as u8 {
            let count = g
                .edges()
                .iter()
                .filter(|e| e.dst == id && e.dst_port == port)
                .count();
            let is_graph_input = g.input() == Some(id) && port == 0;
            if is_graph_input {
                if count != 0 {
                    return Err(bad(format!(
                        "graph input port of {} is also fed by a channel",
                        node.name
                    )));
                }
            } else if count != 1 {
                return Err(bad(format!(
                    "input port {port} of {} has {count} producers (expected 1)",
                    node.name
                )));
            }
        }
        for port in 0..node.work.output_ports().len() as u8 {
            let count = g
                .edges()
                .iter()
                .filter(|e| e.src == id && e.src_port == port)
                .count();
            let is_graph_output = g.output() == Some(id) && port == 0;
            if is_graph_output {
                if count != 0 {
                    return Err(bad(format!(
                        "graph output port of {} also feeds a channel",
                        node.name
                    )));
                }
            } else if count != 1 {
                return Err(bad(format!(
                    "output port {port} of {} has {count} consumers (expected 1)",
                    node.name
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FilterSpec;
    use crate::ir::{identity, Expr, Scalar};

    fn id_filter(name: &str) -> StreamSpec {
        StreamSpec::filter(FilterSpec::new(name, identity(ElemTy::I32)))
    }

    /// pop 1, push `n` copies.
    fn expander(name: &str, n: u32) -> StreamSpec {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        for _ in 0..n {
            f.push(0, Expr::local(x));
        }
        StreamSpec::filter(FilterSpec::new(name, f.build().unwrap()))
    }

    #[test]
    fn single_filter_graph() {
        let g = id_filter("only").flatten().unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.input(), Some(NodeId(0)));
        assert_eq!(g.output(), Some(NodeId(0)));
        assert!(g.edges().is_empty());
    }

    #[test]
    fn pipeline_wires_stages_in_order() {
        let g = StreamSpec::pipeline(vec![id_filter("a"), id_filter("b"), id_filter("c")])
            .flatten()
            .unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edges().len(), 2);
        assert_eq!(g.edges()[0].src, NodeId(0));
        assert_eq!(g.edges()[0].dst, NodeId(1));
        assert_eq!(g.input(), Some(NodeId(0)));
        assert_eq!(g.output(), Some(NodeId(2)));
    }

    #[test]
    fn split_join_generates_splitter_and_joiner() {
        let g = StreamSpec::split_join(
            SplitterKind::RoundRobin(vec![2, 3]),
            vec![id_filter("a"), id_filter("b")],
            vec![2, 3],
        )
        .flatten()
        .unwrap();
        assert_eq!(g.len(), 4);
        let split = g
            .nodes()
            .iter()
            .position(|n| n.role == Role::Splitter)
            .unwrap();
        let split_node = &g.nodes()[split];
        assert_eq!(split_node.work.pop_rate(0), 5);
        assert_eq!(split_node.work.push_rate(0), 2);
        assert_eq!(split_node.work.push_rate(1), 3);
        let join = g
            .nodes()
            .iter()
            .position(|n| n.role == Role::Joiner)
            .unwrap();
        let join_node = &g.nodes()[join];
        assert_eq!(join_node.work.pop_rate(0), 2);
        assert_eq!(join_node.work.pop_rate(1), 3);
        assert_eq!(join_node.work.push_rate(0), 5);
    }

    #[test]
    fn duplicate_splitter_copies() {
        let g = StreamSpec::split_join(
            SplitterKind::Duplicate,
            vec![id_filter("a"), id_filter("b"), id_filter("c")],
            vec![1, 1, 1],
        )
        .flatten()
        .unwrap();
        let split = g.nodes().iter().find(|n| n.role == Role::Splitter).unwrap();
        assert_eq!(split.work.pop_rate(0), 1);
        for p in 0..3 {
            assert_eq!(split.work.push_rate(p), 1);
        }
    }

    #[test]
    fn weight_mismatches_rejected() {
        let e = StreamSpec::split_join(
            SplitterKind::RoundRobin(vec![1]),
            vec![id_filter("a"), id_filter("b")],
            vec![1, 1],
        )
        .flatten()
        .unwrap_err();
        assert!(matches!(e, Error::InvalidGraph(_)));

        let e = StreamSpec::split_join(SplitterKind::Duplicate, vec![id_filter("a")], vec![1, 1])
            .flatten()
            .unwrap_err();
        assert!(matches!(e, Error::InvalidGraph(_)));
    }

    #[test]
    fn zero_weight_rejected() {
        let e = StreamSpec::split_join(
            SplitterKind::RoundRobin(vec![1, 0]),
            vec![id_filter("a"), id_filter("b")],
            vec![1, 1],
        )
        .flatten()
        .unwrap_err();
        assert!(matches!(e, Error::InvalidGraph(ref m) if m.contains("zero")));
    }

    #[test]
    fn empty_pipeline_rejected() {
        assert!(matches!(
            StreamSpec::pipeline(vec![]).flatten().unwrap_err(),
            Error::InvalidGraph(_)
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let f32_id = StreamSpec::filter(FilterSpec::new("f", identity(ElemTy::F32)));
        let e = StreamSpec::pipeline(vec![id_filter("i"), f32_id])
            .flatten()
            .unwrap_err();
        assert!(matches!(e, Error::InvalidGraph(ref m) if m.contains("type mismatch")));
    }

    #[test]
    fn feedback_loop_flattens_with_initial_tokens() {
        let fl = StreamSpec::feedback_loop(crate::graph::FeedbackLoopSpec {
            joiner: [1, 1],
            body: Box::new(expander("body", 2)),
            splitter: SplitterKind::RoundRobin(vec![1, 1]),
            feedback: None,
            initial: vec![Scalar::I32(0)],
        });
        let g = fl.flatten().unwrap();
        assert_eq!(g.len(), 3); // joiner, body, splitter
        let fb_edge = g
            .edges()
            .iter()
            .find(|e| !e.initial.is_empty())
            .expect("feedback edge carries initial tokens");
        assert_eq!(fb_edge.initial, vec![Scalar::I32(0)]);
        // Topological order succeeds because the feedback edge breaks the cycle.
        assert_eq!(g.topo_order().unwrap().len(), 3);
    }

    #[test]
    fn duplicate_names_are_disambiguated() {
        let g = StreamSpec::pipeline(vec![id_filter("f"), id_filter("f"), id_filter("f")])
            .flatten()
            .unwrap();
        let names: Vec<_> = g.nodes().iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["f", "f#1", "f#2"]);
    }

    #[test]
    fn filter_count_counts_leaves() {
        let spec = StreamSpec::pipeline(vec![
            id_filter("a"),
            StreamSpec::split_join(
                SplitterKind::Duplicate,
                vec![id_filter("b"), id_filter("c")],
                vec![1, 1],
            ),
        ]);
        assert_eq!(spec.filter_count(), 3);
    }
}
