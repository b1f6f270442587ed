//! The flattened stream graph.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::hash::Fnv;
use crate::ir::{ElemTy, Scalar, WorkFunction};
use crate::{Error, Result};

/// Index of a node in a [`FlatGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a channel (edge) in a [`FlatGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// What kind of node this is; splitters and joiners are the data-movement
/// nodes generated during flattening (the paper calls them "bandwidth
/// hungry by nature, since they only move data around").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A user filter.
    Filter,
    /// A generated splitter (duplicate or round-robin).
    Splitter,
    /// A generated round-robin joiner.
    Joiner,
}

/// A node of the flat graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Diagnostic name (unique within the graph, suffix-disambiguated).
    pub name: String,
    /// The node's work function.
    pub work: WorkFunction,
    /// Filter / splitter / joiner.
    pub role: Role,
}

/// A FIFO channel between two node ports.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Producer node.
    pub src: NodeId,
    /// Producer output port.
    pub src_port: u8,
    /// Consumer node.
    pub dst: NodeId,
    /// Consumer input port.
    pub dst_port: u8,
    /// Token type carried.
    pub elem: ElemTy,
    /// Tokens pre-queued before the first firing (`m_uv` in the paper's
    /// admissibility condition; non-empty only on feedback edges).
    pub initial: Vec<Scalar>,
}

/// A flattened stream graph: filters plus generated splitters/joiners,
/// connected by typed channels, with at most one external input port and
/// one external output port.
///
/// Construct via [`crate::graph::StreamSpec::flatten`]; a `FlatGraph` value
/// satisfies the structural invariants (all internal ports connected exactly
/// once, matching element types). It is immutable from then on, so a
/// clone shares the nodes, the channels and the memoised
/// [`FlatGraph::content_hash`] instead of copying them.
#[derive(Clone)]
pub struct FlatGraph(Arc<Shared>);

struct Shared {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    input: Option<NodeId>,
    output: Option<NodeId>,
    content_hash: OnceLock<u64>,
}

/// Prints exactly what `#[derive(Debug)]` printed when the four fields
/// sat directly in the struct (the memo is not content).
impl fmt::Debug for FlatGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlatGraph")
            .field("nodes", &self.0.nodes)
            .field("edges", &self.0.edges)
            .field("input", &self.0.input)
            .field("output", &self.0.output)
            .finish()
    }
}

impl FlatGraph {
    pub(crate) fn new(
        nodes: Vec<Node>,
        edges: Vec<Edge>,
        input: Option<NodeId>,
        output: Option<NodeId>,
    ) -> FlatGraph {
        FlatGraph(Arc::new(Shared {
            nodes,
            edges,
            input,
            output,
            content_hash: OnceLock::new(),
        }))
    }

    /// The FNV-1a state ([`Fnv::finish`]) after absorbing the graph's
    /// canonical encoding: every node's name, role and pretty-printed
    /// work function, every channel's endpoints, type and initial
    /// tokens, and the external ports. Computed on first use and shared
    /// by every clone; a pure function of content, so two graphs
    /// flattened separately from equal specs agree. Content-addressed
    /// stores [`Fnv::resume`] from it to key `graph + options` without
    /// re-encoding the graph on every lookup.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        *self.0.content_hash.get_or_init(|| {
            let mut h = Fnv::new();
            for node in self.nodes() {
                h.str(&node.name);
                h.str(&format!("{:?}", node.role));
                h.str(&node.work.to_pretty());
            }
            for edge in self.edges() {
                h.str(&format!(
                    "{}:{}->{}:{} {:?} {:?}",
                    edge.src.0, edge.src_port, edge.dst.0, edge.dst_port, edge.elem, edge.initial
                ));
            }
            h.str(&format!("{:?}/{:?}", self.input(), self.output()));
            h.finish()
        })
    }

    /// All nodes, indexable by [`NodeId`].
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.0.nodes
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.0.nodes[id.0 as usize]
    }

    /// All channels, indexable by [`EdgeId`].
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.0.edges
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.0.edges[id.0 as usize]
    }

    /// The node whose input port 0 is fed externally, if any.
    #[must_use]
    pub fn input(&self) -> Option<NodeId> {
        self.0.input
    }

    /// The node whose output port 0 is collected externally, if any.
    #[must_use]
    pub fn output(&self) -> Option<NodeId> {
        self.0.output
    }

    /// Ids of channels entering `node`, ordered by destination port.
    pub fn in_edges(&self, node: NodeId) -> Vec<EdgeId> {
        let mut v: Vec<EdgeId> = (0..self.0.edges.len() as u32)
            .map(EdgeId)
            .filter(|&e| self.0.edges[e.0 as usize].dst == node)
            .collect();
        v.sort_by_key(|&e| self.0.edges[e.0 as usize].dst_port);
        v
    }

    /// Ids of channels leaving `node`, ordered by source port.
    pub fn out_edges(&self, node: NodeId) -> Vec<EdgeId> {
        let mut v: Vec<EdgeId> = (0..self.0.edges.len() as u32)
            .map(EdgeId)
            .filter(|&e| self.0.edges[e.0 as usize].src == node)
            .collect();
        v.sort_by_key(|&e| self.0.edges[e.0 as usize].src_port);
        v
    }

    /// The channel feeding each input port of `node`, in port order. Every
    /// port is wired exactly once, so `None` can only be port 0 of the
    /// graph's external input.
    #[must_use]
    pub fn input_wiring(&self, node: NodeId) -> Vec<Option<EdgeId>> {
        let mut ports = vec![None; self.node(node).work.input_ports().len()];
        for e in self.in_edges(node) {
            ports[usize::from(self.edge(e).dst_port)] = Some(e);
        }
        ports
    }

    /// The channel fed by each output port of `node`, in port order;
    /// `None` is the graph's external output.
    #[must_use]
    pub fn output_wiring(&self, node: NodeId) -> Vec<Option<EdgeId>> {
        let mut ports = vec![None; self.node(node).work.output_ports().len()];
        for e in self.out_edges(node) {
            ports[usize::from(self.edge(e).src_port)] = Some(e);
        }
        ports
    }

    /// Tokens the producer pushes on this channel per firing.
    #[must_use]
    pub fn push_rate(&self, e: EdgeId) -> u32 {
        let edge = self.edge(e);
        self.node(edge.src).work.push_rate(edge.src_port)
    }

    /// Tokens the consumer pops from this channel per firing.
    #[must_use]
    pub fn pop_rate(&self, e: EdgeId) -> u32 {
        let edge = self.edge(e);
        self.node(edge.dst).work.pop_rate(edge.dst_port)
    }

    /// Tokens that must be queued for the consumer's firing rule (peek
    /// depth, at least the pop rate).
    #[must_use]
    pub fn peek_rate(&self, e: EdgeId) -> u32 {
        let edge = self.edge(e);
        self.node(edge.dst).work.peek_rate(edge.dst_port)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.nodes.len()
    }

    /// `true` for a graph with no nodes (never produced by flattening).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.nodes.is_empty()
    }

    /// Count of user filters whose work function peeks beyond what it pops
    /// (the "Peeking Filters" column of Table I).
    #[must_use]
    pub fn peeking_filter_count(&self) -> usize {
        self.0
            .nodes
            .iter()
            .filter(|n| n.role == Role::Filter && n.work.is_peeking())
            .count()
    }

    /// A topological order of the nodes, treating channels that carry
    /// initial tokens as back edges (they are what breaks feedback cycles).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGraph`] if a cycle exists with no initial
    /// tokens anywhere on it — such a graph can never fire.
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let n = self.0.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.0.edges {
            if e.initial.is_empty() {
                indeg[e.dst.0 as usize] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(NodeId(i as u32));
            for e in &self.0.edges {
                if e.src.0 as usize == i && e.initial.is_empty() {
                    let d = e.dst.0 as usize;
                    indeg[d] -= 1;
                    if indeg[d] == 0 {
                        queue.push_back(d);
                    }
                }
            }
        }
        if order.len() != n {
            return Err(Error::InvalidGraph(
                "cycle without initial tokens; the graph can never fire".into(),
            ));
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{FilterSpec, SplitterKind, StreamSpec};
    use crate::ir::{Expr, FnBuilder};

    fn scale(name: &str, k: i32) -> StreamSpec {
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = b.local(ElemTy::I32);
        b.pop_into(0, x);
        b.push(0, Expr::local(x).mul(Expr::i32(k)));
        StreamSpec::filter(FilterSpec::new(name, b.build().unwrap()))
    }

    fn spec() -> StreamSpec {
        StreamSpec::pipeline(vec![
            scale("head", 3),
            StreamSpec::split_join(
                SplitterKind::Duplicate,
                vec![scale("left", 5), scale("right", 7)],
                vec![1, 1],
            ),
        ])
    }

    /// The field-for-field mirror `#[derive(Debug)]` saw before the graph
    /// became a shared value: same struct name, same field names.
    mod derived {
        use super::super::{Edge, Node, NodeId};

        #[derive(Debug)]
        #[allow(dead_code)] // read by the derived `Debug` only
        pub(super) struct FlatGraph<'a> {
            pub nodes: &'a [Node],
            pub edges: &'a [Edge],
            pub input: Option<NodeId>,
            pub output: Option<NodeId>,
        }
    }

    #[test]
    fn debug_output_is_the_derived_four_field_form() {
        let g = spec().flatten().unwrap();
        let _ = g.content_hash(); // a filled memo must not show either
        let mirror = derived::FlatGraph {
            nodes: g.nodes(),
            edges: g.edges(),
            input: g.input(),
            output: g.output(),
        };
        assert_eq!(format!("{g:?}"), format!("{mirror:?}"));
        assert_eq!(format!("{g:#?}"), format!("{mirror:#?}"));
    }

    #[test]
    fn content_hash_is_content_addressed_and_clones_share_the_memo() {
        let (a, b) = (spec().flatten().unwrap(), spec().flatten().unwrap());
        assert!(!Arc::ptr_eq(&a.0, &b.0), "two flattenings, two allocations");
        assert_eq!(a.content_hash(), b.content_hash());

        let fresh = spec().flatten().unwrap();
        let clone = fresh.clone();
        assert!(Arc::ptr_eq(&fresh.0, &clone.0));
        assert!(clone.0.content_hash.get().is_none());
        let hashed = fresh.content_hash();
        assert_eq!(clone.0.content_hash.get(), Some(&hashed));

        let other = StreamSpec::pipeline(vec![scale("head", 3), scale("tail", 4)])
            .flatten()
            .unwrap();
        assert_ne!(other.content_hash(), hashed);
    }
}
