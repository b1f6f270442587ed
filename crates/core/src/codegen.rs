//! Code generation support: the graph's decoded kernels, device buffer
//! allocation, endpoint bindings, host↔device token transfer, and seeding
//! the device with what the initialization phase left.
//!
//! The generated "kernel" is a [`gpusim::Launch`] whose blocks mirror the
//! paper's `switch (blockIdx.x)` arms; this module provides the address
//! math that turns a `(basic iteration, instance)` pair into a
//! [`BufferBinding`] over the planned buffers.

use gpusim::{BufferBinding, Gpu, Kernel, Layout};
use streamir::graph::{FlatGraph, NodeId};
use streamir::ir::{ElemTy, Scalar};

use crate::exec::InitState;
use crate::instances::{ExecConfig, InstanceGraph};
use crate::plan::BufferPlan;
use crate::schedule::Schedule;
use crate::{Error, Result};

/// A graph's decoded kernels: one [`Kernel`] per work class — the nodes
/// that share one work function. The profiler, every prepared form of
/// every artifact of the graph, their firing plans and the verifier's
/// walks read this one table ([`Kernels::of`]).
pub(crate) struct Kernels {
    /// The first node of each class, in node order, with its kernel.
    pub(crate) classes: Vec<(NodeId, Kernel)>,
    /// Each node's index into `classes`.
    pub(crate) class_of: Vec<usize>,
}

impl Kernels {
    /// `graph`'s table, decoded on first use and shared by every clone of
    /// the graph ([`FlatGraph::derived`]).
    pub(crate) fn of(graph: &FlatGraph) -> &Kernels {
        graph.derived(|graph| {
            let mut classes: Vec<(NodeId, Kernel)> = Vec::new();
            let class_of = (graph.nodes().iter().enumerate())
                .map(|(v, node)| {
                    let first = classes.iter().position(|(_, k)| *k.work() == node.work);
                    first.unwrap_or_else(|| {
                        classes.push((NodeId(v as u32), Kernel::load(&node.work)));
                        classes.len() - 1
                    })
                })
                .collect();
            Kernels { classes, class_of }
        })
    }

    /// Node `v`'s kernel.
    pub(crate) fn node(&self, v: usize) -> &Kernel {
        &self.classes[self.class_of[v]].1
    }

    /// Every kernel is value-oblivious ([`Kernel::value_oblivious`]): a
    /// scaled measurement prices the graph's launches instead of running
    /// them, and a fault-free run reuses the bill of the first run of its
    /// shape.
    pub(crate) fn value_oblivious(&self) -> bool {
        self.classes.iter().all(|(_, k)| k.value_oblivious())
    }
}

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
}

/// Host → device: writes `tokens` where lanes `0..` of `binding` (an
/// endpoint of rate 1, so lane `i` is stream token `abs_start + i`) touch
/// their token 0, one run at a time.
fn write_stream(gpu: &mut Gpu, binding: &BufferBinding, tokens: &[Scalar]) {
    let words: Vec<u32> = tokens.iter().map(|t| t.to_bits()).collect();
    let lanes = u32::try_from(words.len()).expect("a stream fits in device words");
    for run in binding.runs(0, 0..lanes, 0) {
        (gpu.memory_mut().write_run(&run, &words[run.lane_range()]))
            .expect("a binding addresses only its own buffer");
    }
}

/// Device → host: the `count` tokens [`write_stream`] would write.
fn read_stream(gpu: &Gpu, binding: &BufferBinding, count: u64, ty: ElemTy) -> Vec<Scalar> {
    let lanes = u32::try_from(count).expect("a stream fits in device words");
    let mut words = vec![0; lanes as usize];
    for run in binding.runs(0, 0..lanes, 0) {
        (gpu.memory().read_run(&run, &mut words[run.lane_range()]))
            .expect("a binding addresses only its own buffer");
    }
    words
        .into_iter()
        .map(|w| Scalar::from_bits(ty, w))
        .collect()
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
    /// Tokens past the buffer wrap into it, as [`BufferBinding::addr`]
    /// does: scaled measurement allocates only the simulated window, and
    /// far-future tokens alias early slots harmlessly (their values are
    /// never observed).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no input buffer.
    pub fn write_input(&self, gpu: &mut Gpu, tokens: &[Scalar]) {
        let io = self.input.as_ref().expect("graph has an input buffer");
        write_stream(gpu, &io.binding(1, 0), tokens);
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
        read_stream(gpu, &io.binding(1, start), count, ty)
    }

    /// Seeds the device buffers with what the initialization phase left:
    /// node states, resident channel tokens and the init output. Returns
    /// the init output (it precedes the steady-phase output in the
    /// stream).
    pub fn seed_init_state(
        &self,
        gpu: &mut Gpu,
        ig: &InstanceGraph,
        init: InitState,
    ) -> Vec<Scalar> {
        for (base, states) in self.state_base.iter().zip(&init.states) {
            if let Some(base) = *base {
                for (i, &tok) in states.iter().enumerate() {
                    gpu.memory_mut().write_token(base + i as u32, tok);
                }
            }
        }
        // Resident tokens are what the first steady consumer instance
        // pops first.
        for (edge_idx, tokens) in init.leftover.iter().enumerate() {
            let binding = BufferBinding {
                endpoint_rate: 1,
                ..self.consumer_binding(ig, edge_idx, 0, 0)
            };
            write_stream(gpu, &binding, tokens);
        }
        // Init output also lands in the output buffer's prefix so stream
        // indices stay uniform.
        if let Some(io) = &self.output {
            write_stream(gpu, &io.binding(1, 0), &init.output);
        }
        init.output
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
