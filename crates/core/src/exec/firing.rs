//! The dataflow firing plan on the host.
//!
//! Before the first steady launch the paper's executor runs an
//! initialization schedule that primes every peeking channel: each node
//! fires `init × threads` basic firings, in the fixed-point order of
//! "fire whatever is fireable". Which firings run when is a function of
//! the artifact alone, so [`FiringPlan::init`] derives it once — grouped
//! into batches of firings that are fireable together — along with a
//! small scratch memory layout. [`FiringPlan::steady`] derives the same
//! for a window of steady iterations, starting from the tokens the init
//! phase leaves resident; by rate balance a window leaves every channel
//! holding as many tokens as it found, so one window plan fires a run of
//! any length window by window, the leftover tokens and node states
//! carried from one to the next ([`InitState`]) and scratch memory
//! bounded by the window.
//!
//! [`FiringPlan::run`] fires each batch over the job's input as one
//! [`InstanceExec`] on `gpusim`'s decoded program, one lane per firing:
//! a stateless value-oblivious kernel on the wide executor
//! ([`InstanceExec::execute_wide`]), any other on the warp core. Lanes of
//! a batch read only tokens resident before it and write disjoint
//! positions past them, so the batch equals its firings one after
//! another.

use gpusim::{BufferBinding, DeviceMemory, InstanceExec, Layout};
use streamir::graph::{EdgeId, FlatGraph, NodeId};
use streamir::ir::{ElemTy, Scalar};

use crate::codegen::Kernels;
use crate::instances::{ExecConfig, InstanceGraph};
use crate::{Error, Result};

/// What a firing plan leaves for whatever fires next — the first steady
/// launch after the initialization phase, or the next steady window.
#[derive(Debug, Clone)]
pub struct InitState {
    /// Per channel, the tokens still resident, in FIFO order.
    pub leftover: Vec<Vec<Scalar>>,
    /// Tokens pushed to the graph output so far; the init phase's precede
    /// the steady output.
    pub output: Vec<Scalar>,
    /// Graph-input tokens consumed.
    pub consumed: usize,
    /// Each node's persistent state.
    pub states: Vec<Vec<Scalar>>,
}

impl InitState {
    /// Before any firing: each channel holds its initial tokens and each
    /// node its initial state.
    pub(crate) fn start(graph: &FlatGraph) -> InitState {
        InitState {
            leftover: graph.edges().iter().map(|e| e.initial.clone()).collect(),
            output: Vec::new(),
            consumed: 0,
            states: (graph.nodes().iter())
                .map(|node| node.work.initial_state())
                .collect(),
        }
    }
}

/// A sequential span of scratch words.
#[derive(Debug, Clone, Copy)]
struct Region {
    base: u32,
    tokens: u64,
}

impl Region {
    /// The port of an endpoint moving `rate` tokens per firing whose
    /// lane 0 starts at position `abs_start` of the region.
    fn binding(self, rate: u32, abs_start: u64) -> BufferBinding {
        BufferBinding {
            base_word: self.base,
            region_tokens: self.tokens.max(1),
            regions: 1,
            layout: Layout::Sequential,
            consumer_rate: 1,
            endpoint_rate: rate,
            abs_start,
        }
    }

    fn write(self, mem: &mut DeviceMemory, tokens: &[Scalar]) {
        for (i, &t) in tokens.iter().enumerate() {
            mem.write_token(self.base + i as u32, t);
        }
    }

    fn read(self, mem: &DeviceMemory, span: std::ops::Range<u64>, ty: ElemTy) -> Vec<Scalar> {
        span.map(|j| mem.read_token(self.base + j as u32, ty))
            .collect()
    }
}

/// A stream the schedule moves tokens through — a channel, the graph
/// input's prefix or the graph output — and how far it has got: tokens
/// pushed (resident ones included) and popped.
#[derive(Debug, Clone, Copy)]
struct Stream {
    region: Region,
    pushed: u64,
    popped: u64,
}

impl Stream {
    /// The port of `firings` firings popping `rate` tokens each from the
    /// stream's read position, which moves past them.
    fn pop(&mut self, rate: u32, firings: u64) -> BufferBinding {
        let at = self.popped;
        self.popped += firings * u64::from(rate);
        self.region.binding(rate, at)
    }

    /// [`Stream::pop`]'s counterpart at the write position.
    fn push(&mut self, rate: u32, firings: u64) -> BufferBinding {
        let at = self.pushed;
        self.pushed += firings * u64::from(rate);
        self.region.binding(rate, at)
    }
}

/// Every firing of one node that was fireable at one point of the
/// schedule, with each port bound where its lane 0 starts.
#[derive(Debug)]
struct Batch {
    node: usize,
    firings: u32,
    inputs: Vec<BufferBinding>,
    outputs: Vec<BufferBinding>,
}

/// A firing schedule of one artifact — its init phase, or one window of
/// steady iterations: its batches in firing order, the scratch streams
/// they run over, and the nodes that stall short of what they owe (a
/// deadlocked schedule).
#[derive(Debug)]
pub(crate) struct FiringPlan {
    batches: Vec<Batch>,
    /// One stream per channel, sized for its resident tokens plus every
    /// push, then the graph input's and output's, each where the
    /// schedule leaves it.
    streams: Vec<Stream>,
    /// Indices of the graph input's and output's streams.
    input: Option<usize>,
    output: Option<usize>,
    /// Each stateful node's state words.
    states: Vec<Option<Region>>,
    words: u32,
    /// Graph-input tokens the schedule pops.
    needed_input: u64,
    /// `name:remaining` of each node left short.
    stalled: Vec<String>,
    /// What the firings are, for an error one of them raises.
    phase: &'static str,
}

impl FiringPlan {
    /// The initialization schedule: `init × threads` firings of every
    /// node, from the channels' initial tokens.
    pub(crate) fn init(graph: &FlatGraph, ig: &InstanceGraph, config: &ExecConfig) -> FiringPlan {
        let owed = (0..graph.len())
            .map(|v| u64::from(ig.init[v]) * u64::from(config.threads[v]))
            .collect();
        let resident = (graph.edges().iter())
            .map(|e| e.initial.len() as u64)
            .collect();
        FiringPlan::new(graph, owed, resident, "initialization")
    }

    /// `window` basic steady iterations — `window × reps × threads`
    /// firings of every node — from the tokens `init` leaves resident.
    pub(crate) fn steady(
        graph: &FlatGraph,
        ig: &InstanceGraph,
        config: &ExecConfig,
        init: &FiringPlan,
        window: u64,
    ) -> FiringPlan {
        let owed = (0..graph.len())
            .map(|v| window * u64::from(ig.reps[v]) * u64::from(config.threads[v]))
            .collect();
        let resident = (init.streams[..graph.edges().len()].iter())
            .map(|s| s.pushed - s.popped)
            .collect();
        FiringPlan::new(graph, owed, resident, "steady-state")
    }

    /// Whether some node stalls short of what it owes.
    pub(crate) fn stalls(&self) -> bool {
        !self.stalled.is_empty()
    }

    /// Derives the fixed-point firing order of `remaining[v]` firings of
    /// each node `v`, channel `e` starting with `resident[e]` tokens, and
    /// its scratch layout. A batch is `min(remaining, fireable)` firings
    /// of one node, where `fireable` is how many firings in a row every
    /// input stream's resident tokens can feed given its pop and peek
    /// rates (stateful nodes fire one at a time: their firings chain
    /// through the state).
    fn new(
        graph: &FlatGraph,
        mut remaining: Vec<u64>,
        resident: Vec<u64>,
        phase: &'static str,
    ) -> FiringPlan {
        let n = graph.len();
        let works: Vec<_> = graph.nodes().iter().map(|node| &node.work).collect();
        let mut words = 0u64;
        let mut region = |tokens: u64| {
            let base = u32::try_from(words).expect("a firing plan fits in device words");
            words += tokens;
            Region { base, tokens }
        };
        let mut stream = |tokens: u64, pushed: u64| Stream {
            region: region(tokens),
            pushed,
            popped: 0,
        };
        let mut streams: Vec<Stream> = (graph.edges().iter().zip(resident))
            .map(|(e, resident)| {
                let src = e.src.0 as usize;
                let pushes = remaining[src] * u64::from(works[src].push_rate(e.src_port));
                stream(resident + pushes, resident)
            })
            .collect();
        // The external streams use port 0, as the device buffers do.
        let needed_input = graph.input().map_or(0, |e| {
            remaining[e.0 as usize] * u64::from(works[e.0 as usize].pop_rate(0))
        });
        let input = graph.input().map(|e| {
            let work = works[e.0 as usize];
            let prefix = needed_input + u64::from(work.peek_rate(0) - work.pop_rate(0));
            streams.push(stream(prefix, prefix));
            streams.len() - 1
        });
        let output = graph.output().map(|e| {
            let push = u64::from(works[e.0 as usize].push_rate(0));
            streams.push(stream(remaining[e.0 as usize] * push, 0));
            streams.len() - 1
        });
        let states = (works.iter())
            .map(|w| w.is_stateful().then(|| region(w.states().len() as u64)))
            .collect();
        let words = u32::try_from(words).expect("a firing plan fits in device words");

        // Each port's stream; `None` wiring is the graph's external one.
        let wire = |ports: Vec<Option<EdgeId>>, external: Option<usize>| {
            (ports.into_iter())
                .map(|e| e.map_or_else(|| external.expect("an external port"), |e| e.0 as usize))
                .collect::<Vec<_>>()
        };
        let wiring: Vec<_> = (0..n as u32)
            .map(|v| {
                (
                    wire(graph.input_wiring(NodeId(v)), input),
                    wire(graph.output_wiring(NodeId(v)), output),
                )
            })
            .collect();

        let mut batches = Vec::new();
        let mut progress = true;
        while progress {
            progress = false;
            for v in 0..n {
                let (ins, outs) = &wiring[v];
                let work = works[v];
                while remaining[v] > 0 {
                    let mut fireable = if work.is_stateful() { 1 } else { remaining[v] };
                    for (p, &s) in (0u8..).zip(ins) {
                        let resident = streams[s].pushed - streams[s].popped;
                        fireable = match resident.checked_sub(u64::from(work.peek_rate(p))) {
                            None => 0,
                            Some(_) if work.pop_rate(p) == 0 => fireable,
                            Some(spare) => fireable.min(spare / u64::from(work.pop_rate(p)) + 1),
                        };
                    }
                    if fireable == 0 {
                        break;
                    }
                    let inputs = ((0u8..).zip(ins))
                        .map(|(p, &s)| streams[s].pop(work.pop_rate(p), fireable))
                        .collect();
                    let outputs = ((0u8..).zip(outs))
                        .map(|(p, &s)| streams[s].push(work.push_rate(p), fireable))
                        .collect();
                    batches.push(Batch {
                        node: v,
                        firings: u32::try_from(fireable).expect("a batch fits in lanes"),
                        inputs,
                        outputs,
                    });
                    remaining[v] -= fireable;
                    progress = true;
                }
            }
        }
        let stalled = (remaining.iter().enumerate())
            .filter(|&(_, &r)| r > 0)
            .map(|(v, &r)| format!("{}:{r}", graph.node(NodeId(v as u32)).name))
            .collect();
        FiringPlan {
            batches,
            streams,
            input,
            output,
            states,
            words,
            needed_input,
            stalled,
            phase,
        }
    }

    /// Runs the schedule on scratch memory from where `from` left the
    /// graph, over the graph input past the tokens `from` consumed,
    /// firing each node through the graph's kernel for it ([`Kernels`]).
    ///
    /// # Errors
    ///
    /// [`streamir::Error::InsufficientInput`] when `input` is shorter
    /// than the schedule pops, [`streamir::Error::Deadlock`] when the
    /// schedule stalls, and the device error of a firing that traps.
    pub(crate) fn run(
        &self,
        graph: &FlatGraph,
        input: &[Scalar],
        from: InitState,
    ) -> Result<InitState> {
        let rest = input.get(from.consumed..).unwrap_or_default();
        if (rest.len() as u64) < self.needed_input {
            return Err(Error::Stream(streamir::Error::InsufficientInput {
                needed: from.consumed + self.needed_input as usize,
                got: input.len(),
            }));
        }
        let mut mem = DeviceMemory::new(self.words);
        if let Some(s) = self.input {
            let r = self.streams[s].region;
            r.write(&mut mem, &rest[..rest.len().min(r.tokens as usize)]);
        }
        for (tokens, s) in from.leftover.iter().zip(&self.streams) {
            s.region.write(&mut mem, tokens);
        }
        for (state, r) in from.states.iter().zip(&self.states) {
            if let Some(r) = r {
                r.write(&mut mem, state);
            }
        }
        let kernels = Kernels::of(graph);
        for b in &self.batches {
            let inst = InstanceExec {
                kernel: kernels.node(b.node),
                active_threads: b.firings,
                inputs: b.inputs.clone(),
                outputs: b.outputs.clone(),
                shared_staging: false,
                state_base: self.states[b.node].map(|r| r.base),
                label: None,
            };
            inst.execute_wide(&mut mem).map_err(|e| {
                let name = &graph.node(NodeId(b.node as u32)).name;
                Error::sim_while(e, format!("{} firing of filter '{name}'", self.phase))
            })?;
        }
        if self.stalls() {
            return Err(Error::Stream(streamir::Error::Deadlock {
                stalled: self.stalled.clone(),
            }));
        }
        let leftover = (graph.edges().iter().zip(&self.streams))
            .map(|(e, s)| s.region.read(&mem, s.popped..s.pushed, e.elem))
            .collect();
        let mut output = from.output;
        if let Some((s, exit)) = self.output.zip(graph.output()) {
            let (s, ty) = (self.streams[s], graph.node(exit).work.output_ports()[0]);
            output.extend(s.region.read(&mem, 0..s.pushed, ty));
        }
        let states = (from.states.into_iter().zip(&self.states))
            .map(|(state, r)| match r {
                Some(r) => (state.iter().enumerate())
                    .map(|(i, s)| mem.read_token(r.base + i as u32, s.ty()))
                    .collect(),
                None => state,
            })
            .collect();
        Ok(InitState {
            leftover,
            output,
            consumed: from.consumed + self.input.map_or(0, |s| self.streams[s].popped as usize),
            states,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{self, compile, CompileOptions, Prepared, Scheme};
    use crate::learn::dataset::{random_sources, Source};
    use crate::profile::ProfileOptions;
    use streamir::channel::Fifo;
    use streamir::graph::{EdgeId, FeedbackLoopSpec, FilterSpec, SplitterKind, StreamSpec};
    use streamir::ir::interp::{self, Channels};
    use streamir::ir::{Expr, FnBuilder, OpCensus};

    /// The oracle: the initialization schedule one basic firing at a time
    /// through the reference interpreter, over host FIFOs.
    fn run_on_cpu(
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
        let mut output = Vec::new();
        let mut counts = OpCensus::default();
        let mut states: Vec<Vec<Scalar>> = (graph.nodes().iter())
            .map(|node| node.work.initial_state())
            .collect();
        let mut progress = true;
        while progress {
            progress = false;
            for v in 0..n {
                let in_ports = graph.input_wiring(NodeId(v as u32));
                let out_ports = graph.output_wiring(NodeId(v as u32));
                let fireable = |fifos: &[Fifo]| {
                    (in_ports.iter().flatten())
                        .all(|&e| fifos[e.0 as usize].len() as u64 >= u64::from(graph.peek_rate(e)))
                };
                while remaining[v] > 0 && fireable(&fifos) {
                    remaining[v] -= 1;
                    let mut ch = HostChannels {
                        in_ports: &in_ports,
                        out_ports: &out_ports,
                        fifos: &mut fifos,
                        input,
                        cursor: &mut cursor,
                        outputs: &mut output,
                    };
                    let work = &graph.node(NodeId(v as u32)).work;
                    interp::execute_stateful(work, &mut ch, &mut states[v], &mut counts)
                        .map_err(Error::Stream)?;
                    progress = true;
                }
            }
        }
        if remaining.iter().any(|&r| r > 0) {
            return Err(Error::Stream(streamir::Error::Deadlock {
                stalled: (remaining.iter().enumerate())
                    .filter(|&(_, &r)| r > 0)
                    .map(|(v, &r)| format!("{}:{r}", graph.node(NodeId(v as u32)).name))
                    .collect(),
            }));
        }
        Ok(InitState {
            leftover: fifos.iter_mut().map(Fifo::drain_all).collect(),
            output,
            consumed: cursor,
            states,
        })
    }

    /// A node's ports as the oracle sees them: `None` is the graph's
    /// external input (output) stream.
    struct HostChannels<'a> {
        in_ports: &'a [Option<EdgeId>],
        out_ports: &'a [Option<EdgeId>],
        fifos: &'a mut [Fifo],
        input: &'a [Scalar],
        cursor: &'a mut usize,
        outputs: &'a mut Vec<Scalar>,
    }

    impl Channels for HostChannels<'_> {
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

    /// Token streams as raw bits: the warp core and the interpreter must
    /// agree to the bit, NaNs included.
    fn bits(tokens: &[Scalar]) -> Vec<(ElemTy, u32)> {
        tokens.iter().map(|t| (t.ty(), t.to_bits())).collect()
    }

    fn assert_same(got: &Result<InitState>, want: &Result<InitState>, ctx: &str) {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                let streams =
                    |s: &InitState| s.leftover.iter().map(|l| bits(l)).collect::<Vec<_>>();
                assert_eq!(streams(got), streams(want), "{ctx}: leftovers");
                assert_eq!(bits(&got.output), bits(&want.output), "{ctx}: init output");
                assert_eq!(got.consumed, want.consumed, "{ctx}: input consumed");
                let states = |s: &InitState| s.states.iter().map(|l| bits(l)).collect::<Vec<_>>();
                assert_eq!(states(got), states(want), "{ctx}: node states");
            }
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{ctx}"),
            _ => panic!("{ctx}: warp core {got:?}, interpreter {want:?}"),
        }
    }

    fn stateful_run(plan: &FiringPlan, c: &exec::Compiled, input: &[Scalar]) -> Result<InitState> {
        plan.run(&c.graph, input, InitState::start(&c.graph))
    }

    fn options(width: u32) -> CompileOptions {
        CompileOptions {
            profile: ProfileOptions::small(&[width]),
            ..CompileOptions::small_test()
        }
    }

    /// The plan as served — through each scheme's prepared form — against
    /// the interpreter, on the eight suite graphs and seeded random ones at
    /// two thread widths.
    #[test]
    fn the_warp_core_init_phase_equals_the_interpreter_on_suite_and_random_graphs() {
        let mut sources: Vec<Source> = (streambench::suite().into_iter())
            .map(|b| Source {
                name: b.name.to_string(),
                graph: b.spec.flatten().unwrap(),
                input: b.input,
            })
            .collect();
        sources.extend(random_sources(6, 0x5eed));
        let (mut firings, mut batches) = (0u64, 0usize);
        for Source { name, graph, input } in &sources {
            for width in [16, 4] {
                let c = compile(graph, &options(width))
                    .unwrap_or_else(|e| panic!("{name} w{width}: compile: {e}"));
                let input = input(exec::required_input(&c, 8) as usize);
                let want = run_on_cpu(&c.graph, &c.ig, &c.exec_cfg, &input);
                assert!(want.is_ok(), "{name} w{width}: {want:?}");
                for scheme in [
                    Scheme::Swp { coarsening: 1 },
                    Scheme::Swp { coarsening: 8 },
                    Scheme::SwpNc { coarsening: 1 },
                    Scheme::Serial { batch: 1 },
                ] {
                    let p = Prepared::new(&c, scheme).unwrap();
                    let start = InitState::start(&c.graph);
                    let got = (p.init_plan(&c)).run(&c.graph, &input, start);
                    assert_same(&got, &want, &format!("{name} w{width} {scheme:?}"));
                }
                let plan = FiringPlan::init(&c.graph, &c.ig, &c.exec_cfg);
                firings += (plan.batches.iter())
                    .map(|b| u64::from(b.firings))
                    .sum::<u64>();
                batches += plan.batches.len();
            }
        }
        // Batching is real: far fewer instances than firings.
        assert!(
            firings > 8 * batches as u64,
            "{firings} firings in {batches} batches"
        );
    }

    fn filter(name: &str, wf: streamir::ir::WorkFunction) -> StreamSpec {
        StreamSpec::filter(FilterSpec::new(name, wf))
    }

    /// The feedback loop of `tests/stateful.rs`: one initial token lets
    /// the joiner, body and splitter fire one at a time around the loop,
    /// so its batches stop short of what each node still owes.
    #[test]
    fn a_feedback_loop_runs_in_partial_batches() {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let (x, s) = (f.local(ElemTy::I32), f.local(ElemTy::I32));
        f.pop_into(0, x);
        f.pop_into(0, s);
        let sum = Expr::local(x).add(Expr::local(s));
        f.push(0, sum.clone());
        f.push(0, sum);
        let spec = StreamSpec::feedback_loop(FeedbackLoopSpec {
            joiner: [1, 1],
            body: Box::new(filter("add", f.build().unwrap())),
            splitter: SplitterKind::RoundRobin(vec![1, 1]),
            feedback: None,
            initial: vec![Scalar::I32(0)],
        });
        let graph = spec.flatten().unwrap();
        let mut c = compile(&graph, &CompileOptions::small_test()).unwrap();
        // Owe several firings around the loop so it has to take turns.
        c.ig.init = vec![3; c.graph.len()];
        let input: Vec<Scalar> = (1..=64).map(Scalar::I32).collect();
        let plan = FiringPlan::init(&c.graph, &c.ig, &c.exec_cfg);
        assert!(
            plan.batches.len() > c.graph.len(),
            "{} batches",
            plan.batches.len()
        );
        let want = run_on_cpu(&c.graph, &c.ig, &c.exec_cfg, &input);
        assert!(want.is_ok(), "{want:?}");
        assert_same(&stateful_run(&plan, &c, &input), &want, "feedback loop");
    }

    /// A stateful filter upstream of a peeking one fires during the init
    /// phase, one lane at a time, and leaves its state where the first
    /// steady firing finds it.
    #[test]
    fn a_stateful_filter_with_init_firings_carries_its_state() {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let y = f.state(ElemTy::I32, Scalar::I32(5));
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.store_state(y, Expr::state(y).div(Expr::i32(2)).add(Expr::local(x)));
        f.push(0, Expr::state(y));
        let iir = f.build().unwrap();
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let sum = Expr::peek(0, Expr::i32(0))
            .add(Expr::peek(0, Expr::i32(1)))
            .add(Expr::peek(0, Expr::i32(2)));
        f.push(0, sum);
        f.pop(0);
        let window = f.build().unwrap();
        let graph = StreamSpec::pipeline(vec![filter("iir", iir), filter("window", window)])
            .flatten()
            .unwrap();
        let c = compile(&graph, &CompileOptions::small_test()).unwrap();
        assert!(c.ig.init[0] > 0, "the stateful filter primes the window");
        let input: Vec<Scalar> = (0..exec::required_input(&c, 4))
            .map(|i| Scalar::I32(i as i32 * 7 % 23 - 11))
            .collect();
        let want = run_on_cpu(&c.graph, &c.ig, &c.exec_cfg, &input).unwrap();
        assert_ne!(want.states[0], vec![Scalar::I32(5)], "state moved");
        let p = Prepared::new(&c, Scheme::Swp { coarsening: 1 }).unwrap();
        let start = InitState::start(&c.graph);
        let got = (p.init_plan(&c)).run(&c.graph, &input, start);
        assert_same(&got, &Ok(want), "stateful");
    }

    /// Both errors carry the interpreter's payload: the tokens needed and
    /// got, and the stalled nodes with what each still owes.
    #[test]
    fn short_input_and_deadlock_report_what_the_interpreter_reports() {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let sum = Expr::peek(0, Expr::i32(0)).add(Expr::peek(0, Expr::i32(3)));
        f.push(0, sum);
        f.pop(0);
        f.pop(0);
        let graph = StreamSpec::pipeline(vec![
            filter("fir", f.build().unwrap()),
            filter("fir2", {
                let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
                f.push(0, Expr::peek(0, Expr::i32(2)));
                f.pop(0);
                f.build().unwrap()
            }),
        ])
        .flatten()
        .unwrap();
        let mut c = compile(&graph, &CompileOptions::small_test()).unwrap();
        c.ig.init = vec![2, 3];
        let plan = FiringPlan::init(&c.graph, &c.ig, &c.exec_cfg);
        let input: Vec<Scalar> = (0..4096).map(Scalar::I32).collect();
        let needed = 2 * 2 * c.exec_cfg.threads[0] as usize;
        for got in [0, needed - 1] {
            let want = run_on_cpu(&c.graph, &c.ig, &c.exec_cfg, &input[..got]);
            assert!(
                matches!(&want, Err(Error::Stream(streamir::Error::InsufficientInput { needed: n, got: g }))
                    if (*n, *g) == (needed, got)),
                "{want:?}"
            );
            assert_same(
                &stateful_run(&plan, &c, &input[..got]),
                &want,
                "short input",
            );
        }
        // fir2 owes more firings than fir's init output can feed.
        c.ig.init = vec![1, 4];
        let plan = FiringPlan::init(&c.graph, &c.ig, &c.exec_cfg);
        let want = run_on_cpu(&c.graph, &c.ig, &c.exec_cfg, &input);
        assert!(
            matches!(&want, Err(Error::Stream(streamir::Error::Deadlock { stalled }))
                if stalled.len() == 1 && stalled[0].starts_with("fir2")),
            "{want:?}"
        );
        assert_same(&stateful_run(&plan, &c, &input), &want, "deadlock");
    }
}
