//! Code generation support: device buffer allocation, endpoint bindings,
//! host↔device token transfer, and the CPU-side initialization run.
//!
//! The generated "kernel" is a [`gpusim::Launch`] whose blocks mirror the
//! paper's `switch (blockIdx.x)` arms; this module provides the address
//! math that turns a `(basic iteration, instance)` pair into a
//! [`BufferBinding`] over the planned buffers.

use gpusim::{BufferBinding, Gpu, Layout};
use streamir::channel::Fifo;
use streamir::graph::{EdgeId, FlatGraph, NodeId};
use streamir::ir::interp::{self, Channels};
use streamir::ir::{OpCensus, Scalar};

use crate::instances::{ExecConfig, InstanceGraph};
use crate::plan::BufferPlan;
use crate::schedule::Schedule;
use crate::{Error, Result};

/// One event edge of a captured steady-state graph: at every replay `r`,
/// the `consumer` node's start is gated on the completion event the
/// `producer` node signaled at replay `r - lag`.
///
/// Only **cross-SM** dependences need an explicit edge: each SM's node
/// sequence is captured as one serial stream, so same-SM ordering (within
/// a replay and across successive replays) is implicit in stream order.
/// An edge with lag `L` also covers any dependence that would be
/// satisfied by a larger lag `L' ≥ L` — the producer's replays complete
/// in order, so waiting on a more recent one implies the older ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventEdge {
    /// Instance id of the signaling node.
    pub producer: u32,
    /// Instance id of the gated node.
    pub consumer: u32,
    /// How many replays back the awaited completion event is. `0` gates
    /// on the same replay (events make intra-replay cross-SM waits
    /// expressible; schedules verified hazard-free never need them).
    pub lag: u64,
}

/// The captured steady-state graph of one modulo schedule: one node per
/// filter instance (placed on its scheduled SM at its scheduled stage)
/// and the minimal event-edge set gating cross-SM dependences. Capture is
/// paid once ([`gpusim::TimingModel::graph_capture_cycles`]); every
/// steady-state launch thereafter is a replay at doorbell cost instead of
/// a host-driven launch. Prologue (fill) and epilogue (drain) launches
/// stay host-launched — their staging predicates change per iteration, so
/// they are not a fixed replayable graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedGraph {
    /// Scheduled SM of each instance node (the capture's stream of node
    /// `i` lives on SM `sm_of[i]`).
    pub sm_of: Vec<u32>,
    /// Scheduled pipeline stage of each instance node.
    pub stage: Vec<u64>,
    /// Cross-SM event edges, deduplicated to the minimal (strictest
    /// required) lag per `(producer, consumer)` pair, in sorted order.
    pub edges: Vec<EventEdge>,
}

impl CapturedGraph {
    /// Instance nodes in the capture.
    #[must_use]
    pub fn node_count(&self) -> u64 {
        self.sm_of.len() as u64
    }

    /// Event edges in the capture.
    #[must_use]
    pub fn edge_count(&self) -> u64 {
        self.edges.len() as u64
    }
}

/// Emits the captured steady-state graph for `sched` from the instance
/// model's dependence set.
///
/// A dependence `consumer ← producer` with iteration lag `jlag` requires,
/// at consumer replay `r`, the producer's work of replay
/// `r - (stage[c] - stage[u] - jlag/C)` (truncating division by the
/// coarsening granule `C`, matching the executor's and the verifier's
/// timing model). Same-SM dependences ride the implicit per-SM stream
/// order; cross-SM dependences each contribute a candidate lag, and the
/// emitted edge per pair keeps the minimum (strictest) one. A negative
/// candidate lag means the schedule itself is hazardous — that is
/// `V01xx`'s finding, so emission clamps to 0 and lets the schedule
/// checker own the rejection.
#[must_use]
pub fn capture_graph(ig: &InstanceGraph, sched: &Schedule, coarsening_max: u32) -> CapturedGraph {
    use std::collections::BTreeMap;
    let cmax = i128::from(coarsening_max.max(1));
    let mut min_lag: BTreeMap<(u32, u32), i128> = BTreeMap::new();
    for d in &ig.deps {
        let u = d.producer.0 as usize;
        let c = d.consumer.0 as usize;
        if u == c || sched.sm_of[u] == sched.sm_of[c] {
            continue;
        }
        let jlag_eff = i128::from(d.jlag) / cmax;
        let lag = sched.stage[c] as i128 - sched.stage[u] as i128 - jlag_eff;
        min_lag
            .entry((u as u32, c as u32))
            .and_modify(|l| *l = (*l).min(lag))
            .or_insert(lag);
    }
    let edges = min_lag
        .into_iter()
        .map(|((producer, consumer), lag)| EventEdge {
            producer,
            consumer,
            lag: u64::try_from(lag).unwrap_or(0),
        })
        .collect();
    CapturedGraph {
        sm_of: sched.sm_of.clone(),
        stage: sched.stage.clone(),
        edges,
    }
}

/// Allocated device buffers for one execution.
#[derive(Debug, Clone)]
pub struct ProgramBuffers {
    /// Base word address per channel (aligned with the plan's edges).
    pub edge_base: Vec<u32>,
    /// Per-node device state buffer (stateful filters only).
    pub state_base: Vec<Option<u32>>,
    /// The buffer plan these buffers realise.
    pub plan: BufferPlan,
    /// Graph-input buffer, if the graph has an external input.
    pub input: Option<IoBuffer>,
    /// Graph-output buffer, if the graph has an external output.
    pub output: Option<IoBuffer>,
}

/// A flat (single-region) host-visible stream buffer.
#[derive(Debug, Clone)]
pub struct IoBuffer {
    /// Base word address.
    pub base_word: u32,
    /// Total tokens allocated.
    pub tokens: u64,
    /// Layout (transposed for coalesced schemes).
    pub layout: Layout,
    /// Per-thread rate of the device endpoint (entry pop / exit push).
    pub rate: u32,
    /// Tokens one device instance moves (`rate × threads`).
    pub per_inst: u64,
    /// Tokens the initialization phase moves before steady iteration 0.
    pub init_tokens: u64,
    /// Device-endpoint instances per basic iteration.
    pub reps: u32,
}

impl IoBuffer {
    fn binding(&self, endpoint_rate: u32, abs_start: u64) -> BufferBinding {
        BufferBinding {
            base_word: self.base_word,
            region_tokens: self.tokens.max(1),
            regions: 1,
            layout: self.layout,
            consumer_rate: self.rate.max(1),
            endpoint_rate,
            abs_start,
        }
    }

    /// Device word address of stream token `i`. Indices past the buffer
    /// wrap into it, mirroring [`BufferBinding::addr`]: scaled
    /// measurement allocates only the simulated window, and far-future
    /// tokens alias early slots harmlessly (their values are never
    /// observed).
    #[must_use]
    pub fn slot_addr(&self, i: u64) -> u32 {
        let region = self.tokens.max(1);
        self.base_word + self.layout.slot(i % region, self.rate.max(1), region) as u32
    }
}

/// Allocates every buffer for `basic_iters` steady iterations.
///
/// # Errors
///
/// [`Error::Sim`] when device memory is exhausted.
pub fn allocate(
    gpu: &mut Gpu,
    graph: &FlatGraph,
    ig: &InstanceGraph,
    config: &ExecConfig,
    plan: &BufferPlan,
    basic_iters: u64,
) -> Result<ProgramBuffers> {
    let mut edge_base = Vec::with_capacity(plan.edges.len());
    for ep in &plan.edges {
        let words = ep.region_tokens * u64::from(ep.regions);
        let words = u32::try_from(words).map_err(|_| {
            Error::Api(format!(
                "channel buffer of {words} words exceeds device size"
            ))
        })?;
        edge_base.push(
            gpu.try_alloc_tokens(words)
                .map_err(|e| Error::sim_while(e, "allocating channel buffers"))?,
        );
    }

    let mut state_base = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        if node.work.is_stateful() {
            state_base.push(Some(
                gpu.try_alloc_tokens(node.work.states().len().max(1) as u32)
                    .map_err(|e| {
                        Error::sim_while(
                            e,
                            format!("allocating state buffer for filter '{}'", node.name),
                        )
                    })?,
            ));
        } else {
            state_base.push(None);
        }
    }

    let input = match graph.input() {
        None => None,
        Some(entry) => {
            let work = &graph.node(entry).work;
            let pop = work.pop_rate(0);
            let peek = work.peek_rate(0);
            let t = config.threads[entry.0 as usize];
            let per_inst = u64::from(pop) * u64::from(t);
            let per_iter = u64::from(ig.reps[entry.0 as usize]) * per_inst;
            let init = u64::from(ig.init[entry.0 as usize]) * per_inst;
            let tokens = init + basic_iters * per_iter + u64::from(peek - pop);
            let tokens32 = u32::try_from(tokens.max(1))
                .map_err(|_| Error::Api("input stream exceeds device size".into()))?;
            Some(IoBuffer {
                base_word: gpu.try_alloc_tokens(tokens32)?,
                tokens: tokens.max(1),
                layout: plan.kind.layout(),
                rate: pop.max(1),
                per_inst,
                init_tokens: init,
                reps: ig.reps[entry.0 as usize],
            })
        }
    };

    let output = match graph.output() {
        None => None,
        Some(exit) => {
            let work = &graph.node(exit).work;
            let push = work.push_rate(0);
            let t = config.threads[exit.0 as usize];
            let per_inst = u64::from(push) * u64::from(t);
            let per_iter = u64::from(ig.reps[exit.0 as usize]) * per_inst;
            let init = u64::from(ig.init[exit.0 as usize]) * per_inst;
            let tokens = init + basic_iters * per_iter;
            let tokens32 = u32::try_from(tokens.max(1))
                .map_err(|_| Error::Api("output stream exceeds device size".into()))?;
            Some(IoBuffer {
                base_word: gpu.try_alloc_tokens(tokens32)?,
                tokens: tokens.max(1),
                layout: plan.kind.layout(),
                rate: push.max(1),
                per_inst,
                init_tokens: init,
                reps: ig.reps[exit.0 as usize],
            })
        }
    };

    Ok(ProgramBuffers {
        edge_base,
        state_base,
        plan: plan.clone(),
        input,
        output,
    })
}

impl ProgramBuffers {
    /// Binding for the consumer side of channel `edge_idx`, instance `k`
    /// of the consumer, basic iteration `b`.
    #[must_use]
    pub fn consumer_binding(
        &self,
        ig: &InstanceGraph,
        edge_idx: usize,
        b: u64,
        k: u32,
    ) -> BufferBinding {
        let et = &ig.edges[edge_idx];
        let ep = &self.plan.edges[edge_idx];
        let abs =
            et.init_cons + (b * u64::from(reps_of(ig, et, true)) + u64::from(k)) * et.i_per_inst;
        BufferBinding {
            base_word: self.edge_base[edge_idx],
            region_tokens: ep.region_tokens,
            regions: ep.regions,
            layout: ep.layout,
            consumer_rate: ep.consumer_rate,
            endpoint_rate: et.pop_thread,
            abs_start: abs,
        }
    }

    /// Binding for the producer side of channel `edge_idx`, instance `k`
    /// of the producer, basic iteration `b`.
    #[must_use]
    pub fn producer_binding(
        &self,
        ig: &InstanceGraph,
        edge_idx: usize,
        b: u64,
        k: u32,
    ) -> BufferBinding {
        let et = &ig.edges[edge_idx];
        let ep = &self.plan.edges[edge_idx];
        let abs = et.initial
            + et.init_prod
            + (b * u64::from(reps_of(ig, et, false)) + u64::from(k)) * et.o_per_inst;
        BufferBinding {
            base_word: self.edge_base[edge_idx],
            region_tokens: ep.region_tokens,
            regions: ep.regions,
            layout: ep.layout,
            consumer_rate: ep.consumer_rate,
            endpoint_rate: et.push_thread,
            abs_start: abs,
        }
    }

    /// Binding for the graph-input port of entry instance `k`, basic
    /// iteration `b`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no input.
    #[must_use]
    pub fn input_binding(&self, b: u64, k: u32) -> BufferBinding {
        let io = self.input.as_ref().expect("graph has an input");
        let abs = io.init_tokens + (b * u64::from(io.reps) + u64::from(k)) * io.per_inst;
        io.binding(io.rate, abs)
    }

    /// Binding for the graph-output port of exit instance `k`, basic
    /// iteration `b`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no output.
    #[must_use]
    pub fn output_binding(&self, b: u64, k: u32) -> BufferBinding {
        let io = self.output.as_ref().expect("graph has an output");
        let abs = io.init_tokens + (b * u64::from(io.reps) + u64::from(k)) * io.per_inst;
        io.binding(io.rate, abs)
    }

    /// Writes the whole input stream into the input buffer (host → device
    /// transfer; the "very first input buffer" shuffle of eq. (9)).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no input buffer.
    pub fn write_input(&self, gpu: &mut Gpu, tokens: &[Scalar]) {
        let io = self.input.as_ref().expect("graph has an input buffer");
        for (i, &tok) in tokens.iter().enumerate() {
            gpu.memory_mut().write_token(io.slot_addr(i as u64), tok);
        }
    }

    /// Reads `count` output-stream tokens starting at stream index
    /// `start` (host ← device, undoing the shuffle).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no output buffer.
    #[must_use]
    pub fn read_output(&self, gpu: &Gpu, graph: &FlatGraph, start: u64, count: u64) -> Vec<Scalar> {
        let io = self.output.as_ref().expect("graph has an output buffer");
        let exit = graph.output().expect("graph has an output");
        let ty = graph.node(exit).work.output_ports()[0];
        (0..count)
            .map(|i| gpu.memory().read_token(io.slot_addr(start + i), ty))
            .collect()
    }

    /// Runs the initialization phase on the host CPU and seeds the device
    /// buffers with the resulting resident tokens, consuming a prefix of
    /// `input`. Returns the tokens the init phase pushed to the graph
    /// output (they precede the steady-phase output in the stream).
    ///
    /// # Errors
    ///
    /// Propagates work-function traps; reports insufficient input.
    pub fn seed_init_state(
        &self,
        gpu: &mut Gpu,
        graph: &FlatGraph,
        ig: &InstanceGraph,
        config: &ExecConfig,
        input: &[Scalar],
    ) -> Result<Vec<Scalar>> {
        let (leftover, init_out, _consumed, node_states) =
            run_init_on_cpu(graph, ig, config, input)?;
        for (v, states) in node_states.iter().enumerate() {
            if let Some(base) = self.state_base[v] {
                for (i, &tok) in states.iter().enumerate() {
                    gpu.memory_mut().write_token(base + i as u32, tok);
                }
            }
        }
        for (edge_idx, tokens) in leftover.iter().enumerate() {
            let et = &ig.edges[edge_idx];
            let ep = &self.plan.edges[edge_idx];
            let base = self.edge_base[edge_idx];
            for (j, &tok) in tokens.iter().enumerate() {
                let abs = et.init_cons + j as u64;
                let region = (abs / ep.region_tokens) % u64::from(ep.regions);
                let off =
                    ep.layout
                        .slot(abs % ep.region_tokens, ep.consumer_rate, ep.region_tokens);
                let addr = base + (region * ep.region_tokens + off) as u32;
                gpu.memory_mut().write_token(addr, tok);
            }
        }
        // Init output also lands in the output buffer's prefix so stream
        // indices stay uniform.
        if let Some(io) = &self.output {
            for (i, &tok) in init_out.iter().enumerate() {
                gpu.memory_mut().write_token(io.slot_addr(i as u64), tok);
            }
        }
        Ok(init_out)
    }
}

fn reps_of(_ig: &InstanceGraph, et: &crate::instances::EdgeTokens, consumer: bool) -> u32 {
    // tokens_per_iter = k'_v * I = k'_u * O: recover the repetition counts
    // without threading NodeIds through.
    if consumer {
        (et.tokens_per_iter / et.i_per_inst.max(1)) as u32
    } else {
        (et.tokens_per_iter / et.o_per_inst.max(1)) as u32
    }
}

/// The result of running the initialization schedule on the host:
/// per-edge leftover tokens (FIFO order), the init-phase graph output,
/// input tokens consumed, and each node's post-init persistent state.
pub type InitState = (Vec<Vec<Scalar>>, Vec<Scalar>, usize, Vec<Vec<Scalar>>);

/// Executes the initialization schedule with the reference interpreter.
pub fn run_init_on_cpu(
    graph: &FlatGraph,
    ig: &InstanceGraph,
    config: &ExecConfig,
    input: &[Scalar],
) -> Result<InitState> {
    let n = graph.len();
    let mut fifos: Vec<Fifo> = graph
        .edges()
        .iter()
        .map(|e| {
            let mut f = Fifo::new(e.elem);
            f.extend(e.initial.iter().copied());
            f
        })
        .collect();
    // Remaining basic firings per node: init instances x threads.
    let mut remaining: Vec<u64> = (0..n)
        .map(|v| u64::from(ig.init[v]) * u64::from(config.threads[v]))
        .collect();
    let needed_input: u64 = graph.input().map_or(0, |e| {
        remaining[e.0 as usize] * u64::from(graph.node(e).work.pop_rate(0))
    });
    if (input.len() as u64) < needed_input {
        return Err(Error::Stream(streamir::Error::InsufficientInput {
            needed: needed_input as usize,
            got: input.len(),
        }));
    }

    let mut cursor = 0usize;
    let mut init_out = Vec::new();
    let mut counts = OpCensus::default();
    let mut node_states: Vec<Vec<Scalar>> = graph
        .nodes()
        .iter()
        .map(|node| node.work.initial_state())
        .collect();
    // Port wiring is resolved once per node, not once per basic firing.
    let wiring: Vec<_> = (0..n as u32)
        .map(|v| {
            (
                graph.input_wiring(NodeId(v)),
                graph.output_wiring(NodeId(v)),
            )
        })
        .collect();

    let mut progress = true;
    while progress {
        progress = false;
        for v in 0..n {
            let (in_ports, out_ports) = &wiring[v];
            while remaining[v] > 0 && fireable(graph, in_ports, &fifos) {
                remaining[v] -= 1;
                let mut ch = InitChannels {
                    in_ports,
                    out_ports,
                    fifos: &mut fifos,
                    input,
                    cursor: &mut cursor,
                    outputs: &mut init_out,
                };
                let work = &graph.node(NodeId(v as u32)).work;
                interp::execute_stateful(work, &mut ch, &mut node_states[v], &mut counts)
                    .map_err(Error::Stream)?;
                progress = true;
            }
        }
    }
    if remaining.iter().any(|&r| r > 0) {
        return Err(Error::Stream(streamir::Error::Deadlock {
            stalled: remaining
                .iter()
                .enumerate()
                .filter(|&(_, &r)| r > 0)
                .map(|(v, &r)| format!("{}:{r}", graph.node(NodeId(v as u32)).name))
                .collect(),
        }));
    }
    let leftover: Vec<Vec<Scalar>> = fifos.iter_mut().map(Fifo::drain_all).collect();
    Ok((leftover, init_out, cursor, node_states))
}

fn fireable(graph: &FlatGraph, in_ports: &[Option<EdgeId>], fifos: &[Fifo]) -> bool {
    in_ports
        .iter()
        .flatten()
        .all(|&e| fifos[e.0 as usize].len() as u64 >= u64::from(graph.peek_rate(e)))
}

/// The init phase's view of a node's ports: `None` is the graph's
/// external input (output) stream.
struct InitChannels<'a> {
    in_ports: &'a [Option<EdgeId>],
    out_ports: &'a [Option<EdgeId>],
    fifos: &'a mut [Fifo],
    input: &'a [Scalar],
    cursor: &'a mut usize,
    outputs: &'a mut Vec<Scalar>,
}

impl Channels for InitChannels<'_> {
    fn pop(&mut self, port: u8) -> Scalar {
        match self.in_ports[port as usize] {
            Some(e) => self.fifos[e.0 as usize].pop().expect("firing rule"),
            None => {
                let v = self.input[*self.cursor];
                *self.cursor += 1;
                v
            }
        }
    }
    fn peek(&self, port: u8, depth: u32) -> Scalar {
        match self.in_ports[port as usize] {
            Some(e) => self.fifos[e.0 as usize].peek(depth).expect("firing rule"),
            None => self.input[*self.cursor + depth as usize],
        }
    }
    fn push(&mut self, port: u8, value: Scalar) {
        match self.out_ports[port as usize] {
            Some(e) => self.fifos[e.0 as usize].push(value),
            None => self.outputs.push(value),
        }
    }
}
