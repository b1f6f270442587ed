//! The abstract warp walk: a second interpretation of the decoded
//! [`Program`] the simulator executes, walked once per kernel.
//!
//! The walk steps one warp through the decoded ops and statements — the
//! ones [`crate::exec`] runs, with the same site numbering, peek counts
//! and stale-peek rule — over a two-point domain per register
//! ([`AbsVal`]), and records a [`Tape`]: every address-relevant event in
//! the order the simulator bills it, each channel access as a token
//! position all lanes share. No operand reads a lane, an instance or an
//! address, and every warp starts from the same constants, so one tape
//! stands for every warp of every instance. [`Tape::replay`] places its
//! accesses through an instance's [`WarpGeometry`]s, warp by warp, into
//! an [`AccessSink`]: the verifier's coalescing prediction and isolation
//! proof ([`InstanceExec::analyze`]), and [`Tape::price`]'s bill.
//!
//! Billing and addressing depend on values only through `if` conditions,
//! array and table indices and peek depths, so the domain is tiny:
//! constants fold with the simulator's own bit-level operators on one
//! lane, an immediate is a uniform constant, and what folding cannot
//! decide (a popped value, a trap) is varying. Where it must, the walk
//! departs from execution: a data-dependent `if` walks both arms, and a
//! statement the simulator would trap on ([`DStmt::Invalid`]) emits
//! nothing. A kernel whose walk meets no such departure — no varying `if`
//! condition, peek depth, divisor, array or table index, and no reached
//! [`DStmt::Invalid`] — is *value-oblivious*: no input can make it trap,
//! diverge or move an access, so its tape is exact, and prices an
//! instance without executing a lane.

use streamir::ir::AccessKind;

use crate::config::DeviceConfig;
use crate::exec::{binary, int_div, stale_peeks, unary, DExpr, DStmt, Op, Program, Src};
use crate::launch::{bill_staging, staging_steps, InstanceExec, Kernel};
use crate::layout::{BufferBinding, WarpAccess, WarpGeometry};
use crate::mem::{bank_conflict_degree, count_transactions};
use crate::stats::InstanceStats;

/// An abstract register: `Some(bits)` when every lane of the warp holds
/// the same bits, `None` when they may differ.
type AbsVal = Option<u32>;

/// The value as a non-negative index, if every lane holds the same one.
fn index(v: AbsVal) -> Option<usize> {
    usize::try_from(v? as i32).ok()
}

/// Joins the values one arm of a varying branch left in `other` into
/// `vals`, the other arm's: equal values stay, unequal ones vary.
fn join(vals: &mut [AbsVal], other: &[AbsVal]) {
    for (v, &o) in vals.iter_mut().zip(other) {
        if *v != o {
            *v = None;
        }
    }
}

/// One warp of a replayed instance: what a sink needs to resolve an
/// event's addresses.
pub struct AbstractWarp<'a> {
    /// The instance being replayed.
    pub inst: &'a InstanceExec<'a>,
    /// Instance-local thread id of lane 0.
    pub lane0: u32,
    /// Active lanes in this warp (1..=32).
    pub active: u32,
    /// Half-warp size for coalescing.
    pub half_warp: u32,
    /// Words per transaction.
    pub txn_words: u64,
}

impl AbstractWarp<'_> {
    /// Refills `out` with the addresses of `access` in every active lane.
    pub fn addresses(&self, access: &Channel<'_>, out: &mut WarpAccess) {
        let mask = u32::MAX >> (32 - self.active);
        access.geometry.access(access.pos, mask, out);
    }
}

/// One warp-wide channel access at a token position all lanes share.
pub struct Channel<'a> {
    /// What the access does, and the input (pop, peek) or output (push)
    /// port it goes through.
    pub kind: AccessKind,
    pub port: u8,
    /// The access site: an index into [`crate::Kernel::sites`].
    pub site: u32,
    /// The token position every lane has reached, peek depth included.
    pub pos: u64,
    /// The port's binding, and the warp's geometry for it.
    pub binding: &'a BufferBinding,
    pub geometry: &'a WarpGeometry,
}

/// Receiver of every address-relevant event of a replayed walk, in the
/// order the simulator bills them. The sink decides what an event means
/// (tally transactions, check containment, bill); the walk decides when
/// events happen.
pub trait AccessSink {
    /// One warp-wide channel access.
    fn channel(&mut self, warp: &AbstractWarp<'_>, access: &Channel<'_>);
    /// `n` stale peek slots one evaluation re-bills: an access
    /// instruction each, with no address.
    fn stale_peeks(&mut self, warp: &AbstractWarp<'_>, n: u32);
    /// One single-lane state-word load or store. State lives in device
    /// memory even under staging.
    fn state(&mut self);
    /// One warp-wide local-memory scratch-array access (always coalesced:
    /// per-thread interleaved).
    fn local_array(&mut self);
    /// A data-dependent peek depth at `site`: the access's address cannot
    /// be resolved statically.
    fn varying_depth(&mut self, warp: &AbstractWarp<'_>, site: u32);
    /// A data-dependent branch; the walk takes both arms next, as the
    /// simulator issues both under divergence.
    fn varying_branch(&mut self);
    /// The staged instance's coalesced bulk copy: `steps` warp-wide steps
    /// covering the window in and the pushes out. Called once per staged
    /// instance, after all its warps.
    fn staging_copy(&mut self, inst: &InstanceExec<'_>, steps: u64);
    /// `slots` issue slots of expressions and statements, besides the
    /// one each channel access and each stale peek slot takes. Ignored
    /// unless the sink counts instructions.
    fn issue(&mut self, _slots: u64) {}
}

impl InstanceExec<'_> {
    /// Replays the kernel's abstract walk, recorded once, over every warp
    /// of this instance into `sink`, then the staging copy the simulator
    /// bills a staged instance.
    pub fn analyze(&self, device: &DeviceConfig, sink: &mut impl AccessSink) {
        let shape = (device.warp_size, u64::from(device.transaction_words()));
        self.kernel.tape().replay(self, shape, sink);
    }
}

/// One event of a walk, in walk order.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A warp-wide channel access: its kind, port and site, and the token
    /// position every lane has reached on the port.
    Channel(AccessKind, u8, u32, u64),
    /// Stale peek slots of one evaluation ([`stale_peeks`]).
    StalePeeks(u32),
    /// A state-word access, and a local-memory array access.
    State,
    LocalArray,
    /// A data-dependent peek depth at a site, and a data-dependent branch.
    VaryingDepth(u32),
    VaryingBranch,
}

/// The walk of one warp of a kernel, recorded once per loaded kernel:
/// what every warp of every instance of it meets, up to the addresses of
/// its channel accesses, which the instance's bindings place.
#[derive(Debug)]
pub(crate) struct Tape {
    /// Every event, in walk order.
    events: Vec<Event>,
    /// Issue slots besides the channel accesses' and stale slots' own.
    issue: u64,
    /// No value-dependent departure from execution was met: the tape is
    /// exact ([`Kernel::value_oblivious`]).
    pub(crate) oblivious: bool,
}

/// The walk's abstract state.
struct Walk<'a> {
    prog: &'a Program,
    regs: Vec<AbsVal>,
    arrays: Vec<AbsVal>,
    /// Per input (output) port: the tokens every lane has popped
    /// (pushed).
    popped: Vec<u64>,
    pushed: Vec<u64>,
    /// The warp's peek-slot high-water mark ([`stale_peeks`]).
    peek_slots: u32,
    tape: Tape,
}

impl Walk<'_> {
    /// One channel access at `ahead` tokens past the port's count.
    fn channel(&mut self, kind: AccessKind, port: u8, site: u32, ahead: u64) {
        let tokens = match kind {
            AccessKind::Push => &self.pushed,
            AccessKind::Pop | AccessKind::Peek => &self.popped,
        };
        let pos = tokens[usize::from(port)] + ahead;
        (self.tape.events).push(Event::Channel(kind, port, site, pos));
    }

    /// Evaluates `e`: its issue slots, its ops' events in order, then the
    /// stale peek slots.
    fn eval(&mut self, e: &DExpr) -> AbsVal {
        let prog = self.prog;
        self.tape.issue += e.issue;
        for op in &prog.ops[e.ops.start as usize..e.ops.end as usize] {
            self.op(op);
        }
        let stale = stale_peeks(&mut self.peek_slots, e.peeks);
        if stale > 0 {
            self.tape.events.push(Event::StalePeeks(stale));
        }
        self.regs[e.out as usize]
    }

    /// An operand's bits, if every lane holds the same: an immediate
    /// always does.
    fn value(&self, s: Src) -> AbsVal {
        match s {
            Src::Reg(r) => self.regs[r as usize],
            Src::Imm(bits) => Some(bits),
        }
    }

    /// The constants `a` and `b` hold, if both are uniform.
    fn consts(&self, a: Src, b: Src) -> Option<(u32, u32)> {
        Some((self.value(a)?, self.value(b)?))
    }

    /// The index `r` holds if it is one constant below `len`; otherwise
    /// the access may trap, and the walk is no longer value-oblivious.
    fn row(&mut self, r: AbsVal, len: usize) -> Option<usize> {
        let row = index(r).filter(|&i| i < len);
        self.tape.oblivious &= row.is_some();
        row
    }

    fn op(&mut self, op: &Op) {
        let (dst, v) = match *op {
            Op::Const { dst, bits } => (dst, Some(bits)),
            Op::Unary { op, dst, a } => (
                dst,
                self.regs[a as usize].map(|x| {
                    let mut lane = [[x], [0]];
                    unary(&mut lane, 1, op, 1, 0);
                    lane[1][0]
                }),
            ),
            Op::Binary { op, dst, a, b } => (
                dst,
                self.consts(a, b).map(|(x, y)| {
                    let mut lane = [[0]];
                    binary(&mut lane, 1, op, 0, Src::Imm(x), Src::Imm(y));
                    lane[0][0]
                }),
            ),
            Op::DivRem { op, dst, a, b } => {
                // Only a zero divisor traps.
                self.tape.oblivious &= self.value(b).is_some_and(|y| y != 0);
                (
                    dst,
                    self.consts(a, b).and_then(|(x, y)| int_div(op, x, y).ok()),
                )
            }
            Op::Peek {
                dst,
                port,
                depth,
                site,
            } => {
                match index(self.regs[depth as usize]) {
                    Some(d) => self.channel(AccessKind::Peek, port, site, d as u64),
                    None => {
                        self.tape.oblivious = false;
                        self.tape.events.push(Event::VaryingDepth(site));
                    }
                }
                (dst, None)
            }
            Op::LoadArr {
                dst,
                ref rows,
                index: i,
            } => {
                if self.prog.arrays_in_local_memory {
                    self.tape.events.push(Event::LocalArray);
                }
                let row = self.row(self.regs[i as usize], rows.len());
                (dst, row.and_then(|i| self.arrays[rows.start as usize + i]))
            }
            Op::LoadTable {
                dst,
                ref words,
                index: i,
            } => {
                let table = &self.prog.table_words[words.start as usize..words.end as usize];
                let row = self.row(self.regs[i as usize], table.len());
                (dst, row.map(|i| table[i]))
            }
            Op::LoadState { dst, .. } => {
                self.tape.events.push(Event::State);
                (dst, None)
            }
        };
        self.regs[dst as usize] = v;
    }

    fn block(&mut self, stmts: &[DStmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &DStmt) {
        match s {
            DStmt::Assign { dst, value } => {
                self.regs[*dst as usize] = self.eval(value);
                self.tape.issue += 1;
            }
            DStmt::StoreState { value, .. } => {
                self.eval(value);
                self.tape.issue += 1;
                self.tape.events.push(Event::State);
            }
            DStmt::Store {
                rows,
                index: i,
                value,
            } => {
                let i = self.eval(i);
                let v = self.eval(value);
                self.tape.issue += 1;
                if self.prog.arrays_in_local_memory {
                    self.tape.events.push(Event::LocalArray);
                }
                let row = self.row(i, rows.len());
                let cells = &mut self.arrays[rows.start as usize..rows.end as usize];
                match row {
                    Some(i) => cells[i] = v,
                    // Unknown index: a weak update, every cell may change.
                    None => cells.fill(None),
                }
            }
            DStmt::Pop { port, dst, site } => {
                self.tape.issue += 1; // address arithmetic
                self.channel(AccessKind::Pop, *port, *site, 0);
                self.popped[usize::from(*port)] += 1;
                if let Some(dst) = dst {
                    self.regs[*dst as usize] = None;
                }
            }
            DStmt::Push { port, value, site } => {
                self.eval(value);
                self.tape.issue += 1;
                self.channel(AccessKind::Push, *port, *site, 0);
                self.pushed[usize::from(*port)] += 1;
            }
            DStmt::For { var, lo, hi, body } => {
                for i in *lo..*hi {
                    self.tape.issue += 1; // induction update + branch
                    self.regs[*var as usize] = Some(i as u32);
                    self.block(body);
                }
            }
            DStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond);
                self.tape.issue += 1; // the branch itself
                match c {
                    Some(c) => self.block(if c != 0 { then_body } else { else_body }),
                    None => {
                        self.tape.oblivious = false;
                        self.tape.events.push(Event::VaryingBranch);
                        // The lanes split: each arm starts where the
                        // branch found the ports, registers and array
                        // cells, and after it they hold what both arms
                        // agree on. The validator makes both arms pop and
                        // push alike. The peek-slot mark is the warp's,
                        // and carries from one arm into the other as it
                        // does in a divergent warp of `crate::exec`.
                        let ports = (self.popped.clone(), self.pushed.clone());
                        let (regs, arrays) = (self.regs.clone(), self.arrays.clone());
                        self.block(then_body);
                        let regs = std::mem::replace(&mut self.regs, regs);
                        let arrays = std::mem::replace(&mut self.arrays, arrays);
                        (self.popped, self.pushed) = ports;
                        self.block(else_body);
                        join(&mut self.regs, &regs);
                        join(&mut self.arrays, &arrays);
                    }
                }
            }
            // The simulator traps here: no access to report.
            DStmt::Invalid(_) => self.tape.oblivious = false,
        }
    }
}

impl Tape {
    /// Walks one warp of `kernel`. One walk stands for every warp of
    /// every instance: no value in it depends on an address or a lane.
    pub(crate) fn record(kernel: &Kernel) -> Tape {
        let (prog, work) = (&kernel.program, kernel.work());
        let mut walk = Walk {
            prog,
            regs: vec![Some(0); prog.regs],
            arrays: vec![Some(0); prog.array_rows],
            popped: vec![0; work.input_ports().len()],
            pushed: vec![0; work.output_ports().len()],
            peek_slots: 0,
            tape: Tape {
                events: Vec::new(),
                issue: 0,
                oblivious: true,
            },
        };
        walk.block(&prog.body);
        walk.tape
    }

    /// Replays the walk over every warp of `inst`, an instance of the
    /// recorded kernel, on a device of `warp` lanes and `txn_words`-word
    /// transactions: each warp's events in walk order, its channel
    /// accesses placed by the warp's geometry for the port, then the
    /// staging copy of a staged instance.
    fn replay(&self, inst: &InstanceExec<'_>, shape: (u32, u64), sink: &mut impl AccessSink) {
        let (warp, txn_words) = shape;
        let geometry = |bindings: &[BufferBinding]| -> Vec<WarpGeometry> {
            bindings.iter().map(|b| b.geometry(0)).collect()
        };
        let (mut ins, mut outs) = (geometry(&inst.inputs), geometry(&inst.outputs));
        let mut at = AbstractWarp {
            inst,
            lane0: 0,
            active: 0,
            half_warp: warp / 2,
            txn_words,
        };
        for lane0 in (0..inst.active_threads).step_by(warp as usize) {
            if lane0 > 0 {
                for g in ins.iter_mut().chain(&mut outs) {
                    g.next_warp(warp);
                }
            }
            (at.lane0, at.active) = (lane0, warp.min(inst.active_threads - lane0));
            sink.issue(self.issue);
            for &event in &self.events {
                match event {
                    Event::Channel(kind, port, site, pos) => {
                        let p = usize::from(port);
                        let (geometry, binding) = match kind {
                            AccessKind::Push => (&outs[p], &inst.outputs[p]),
                            AccessKind::Pop | AccessKind::Peek => (&ins[p], &inst.inputs[p]),
                        };
                        let access = Channel {
                            kind,
                            port,
                            site,
                            pos,
                            binding,
                            geometry,
                        };
                        sink.channel(&at, &access);
                    }
                    Event::StalePeeks(n) => sink.stale_peeks(&at, n),
                    Event::State => sink.state(),
                    Event::LocalArray => sink.local_array(),
                    Event::VaryingDepth(site) => sink.varying_depth(&at, site),
                    Event::VaryingBranch => sink.varying_branch(),
                }
            }
        }
        if inst.shared_staging {
            sink.staging_copy(inst, staging_steps(inst, warp));
        }
    }

    /// What the simulator bills `inst`, an instance of the recorded
    /// kernel, before the spill bill ([`crate::Gpu::run`]'s counters), on
    /// a device of `warp` lanes, `txn_words`-word transactions and
    /// `mem_words` words of memory. `None` when the kernel is not
    /// value-oblivious, or an access may leave device memory, which only
    /// the simulator reports exactly. `access` is scratch space.
    pub(crate) fn price(
        &self,
        inst: &InstanceExec<'_>,
        shape: (u32, u64),
        mem_words: u64,
        access: &mut WarpAccess,
    ) -> Option<InstanceStats> {
        if !self.oblivious {
            return None;
        }
        let states = inst.kernel.work().states().len() as u64;
        let mut bill = Priced {
            stats: InstanceStats {
                warps: inst.active_threads.div_ceil(shape.0),
                ..InstanceStats::default()
            },
            mem_words,
            state_in_memory: (inst.state_base).is_some_and(|b| u64::from(b) + states <= mem_words),
            escapes: false,
            access,
        };
        self.replay(inst, shape, &mut bill);
        (!bill.escapes).then_some(bill.stats)
    }
}

/// [`Tape::price`]'s sink: an instance's counters, billed event by event
/// as the simulator bills them.
struct Priced<'a> {
    stats: InstanceStats,
    /// Device memory's words, whether the state words lie inside it, and
    /// whether some access may leave it.
    mem_words: u64,
    state_in_memory: bool,
    escapes: bool,
    /// The access being billed; each one refills it.
    access: &'a mut WarpAccess,
}

impl AccessSink for Priced<'_> {
    fn channel(&mut self, warp: &AbstractWarp<'_>, access: &Channel<'_>) {
        warp.addresses(access, self.access);
        // A run's addresses never descend: its last is its highest.
        self.escapes |= (self.access.iter()).any(|run| run.last_addr() >= self.mem_words);
        let stats = &mut self.stats;
        // Each channel access is one access instruction.
        stats.warp_instructions += 1;
        if warp.inst.shared_staging {
            stats.shared_accesses += 1;
            stats.bank_conflict_passes += bank_conflict_degree(self.access);
        } else {
            stats.mem_access_insts += 1;
            stats.mem_transactions +=
                count_transactions(self.access, warp.half_warp, warp.txn_words);
        }
    }

    fn stale_peeks(&mut self, warp: &AbstractWarp<'_>, n: u32) {
        // So is each stale slot, with no transaction.
        let (n, stats) = (u64::from(n), &mut self.stats);
        stats.warp_instructions += n;
        if warp.inst.shared_staging {
            stats.shared_accesses += n;
        } else {
            stats.mem_access_insts += n;
        }
    }

    fn state(&mut self) {
        self.escapes |= !self.state_in_memory;
        self.stats.mem_access_insts += 1;
        self.stats.mem_transactions += 1;
    }

    fn local_array(&mut self) {
        self.stats.mem_access_insts += 1;
        self.stats.mem_transactions += 2;
    }

    // A value-oblivious walk meets neither.
    fn varying_depth(&mut self, _: &AbstractWarp<'_>, _: u32) {}
    fn varying_branch(&mut self) {}

    fn staging_copy(&mut self, _: &InstanceExec<'_>, steps: u64) {
        bill_staging(&mut self.stats, steps);
    }

    fn issue(&mut self, slots: u64) {
        self.stats.warp_instructions += slots;
    }
}

#[cfg(test)]
mod tests {
    use streamir::cpu::CpuCostModel;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::WorkFunction;
    use streamir::ir::{access_sites, AccessSite, ElemTy, Expr, FnBuilder, Scalar, Stmt};

    use super::*;
    use crate::{BlockWork, Gpu, Kernel, Launch, Layout, SimError};

    /// Records the site each channel event and unresolved peek names,
    /// checking it against what the event does.
    #[derive(Default)]
    struct Sites {
        named: Vec<AccessSite>,
        varying_branches: u32,
    }

    impl AccessSink for Sites {
        fn channel(&mut self, warp: &AbstractWarp<'_>, access: &Channel<'_>) {
            let site = access_sites(warp.inst.kernel.work())[access.site as usize];
            assert_eq!((site.kind, site.port), (access.kind, access.port));
            self.named.push(site);
        }
        fn stale_peeks(&mut self, _: &AbstractWarp<'_>, _: u32) {}
        fn state(&mut self) {}
        fn local_array(&mut self) {}
        fn varying_depth(&mut self, warp: &AbstractWarp<'_>, site: u32) {
            let site = access_sites(warp.inst.kernel.work())[site as usize];
            assert_eq!(site.kind, AccessKind::Peek);
            self.named.push(site);
        }
        fn varying_branch(&mut self) {
            self.varying_branches += 1;
        }
        fn staging_copy(&mut self, _: &InstanceExec<'_>, _: u64) {}
    }

    /// Walks one warp-wide instance of `wf` (one lane, when stateful) over
    /// whole-buffer bindings.
    fn walk(wf: &WorkFunction) -> Sites {
        let kernel = Kernel::load(wf);
        let binding = |rate: u32| {
            let tokens = 1 << 16;
            BufferBinding::whole(0, tokens, ElemTy::I32, Layout::Sequential, rate.max(1))
        };
        let inst = InstanceExec {
            kernel: &kernel,
            active_threads: if wf.is_stateful() { 1 } else { 32 },
            inputs: (0..wf.input_ports().len() as u8)
                .map(|p| binding(wf.pop_rate(p)))
                .collect(),
            outputs: (0..wf.output_ports().len() as u8)
                .map(|p| binding(wf.push_rate(p)))
                .collect(),
            shared_staging: false,
            state_base: Some(0),
            label: None,
        };
        let mut sites = Sites::default();
        inst.analyze(&DeviceConfig::small_test(), &mut sites);
        sites
    }

    #[test]
    fn decoded_sites_are_the_canonical_access_sites() {
        let suite = streambench::suite()
            .into_iter()
            .map(|b| b.spec.flatten().unwrap());
        let random =
            (swpipe::learn::dataset::random_sources(6, 0x5eed).into_iter()).map(|s| s.graph);
        let mut kernels = 0;
        for graph in suite.chain(random) {
            for node in graph.nodes() {
                let sites = walk(&node.work).named;
                // Every site is reached: the suite's control flow is
                // data-independent and every arm is taken.
                let mut unnamed = access_sites(&node.work);
                unnamed.retain(|s| !sites.contains(s));
                assert!(unnamed.is_empty(), "{}: {unnamed:?} never named", node.name);
                kernels += 1;
            }
        }
        assert!(kernels > 100, "{kernels}");
    }

    #[test]
    fn an_undecodable_arm_emits_nothing_and_shifts_no_later_site() {
        // The validator folds the condition — 1 / 131072 is 0, and 0 < 8 —
        // and never type-checks the dead else arm, whose push is ill-typed
        // and decodes to `DStmt::Invalid`. The walk folds it alike and
        // takes the then arm only.
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        let divisor = Expr::i32(65536).mul(Expr::i32(2));
        f.if_else(
            Expr::i32(1).div(divisor).lt(Expr::i32(8)),
            vec![Stmt::Push {
                port: 0,
                value: Expr::local(x),
            }],
            vec![Stmt::Push {
                port: 0,
                value: Expr::local(x).add(Expr::f32(1.0)),
            }],
        );
        f.pop(0);
        let wf = f.build().unwrap();
        let kernel = Kernel::load(&wf);
        let program = &kernel.program;
        assert!(matches!(&program.body[1], DStmt::If { else_body, .. }
            if matches!(else_body[..], [DStmt::Invalid(_)])));
        assert!(kernel.value_oblivious());

        let sites = walk(&wf);
        assert_eq!(sites.varying_branches, 0);
        let named: Vec<String> = sites.named.iter().map(ToString::to_string).collect();
        // `push[out0]#1`, the invalid arm's, is never named; the later pop
        // is still `pop[in0]#1`, site 3.
        assert_eq!(named, ["pop[in0]#0", "push[out0]#0", "pop[in0]#1"]);
        assert!(matches!(program.body[2], DStmt::Pop { site: 3, .. }));
    }

    /// In `i32`, `65536 · 65536` wraps to 0, and the validator's intervals
    /// say so: they bound neither that divisor nor the condition over it,
    /// so both arms are type-checked. An ill-typed arm does not build; a
    /// well-typed one builds, and the simulator and the CPU reference both
    /// trap on the zero divisor.
    #[test]
    fn a_divisor_that_wraps_to_zero_traps_everywhere() {
        let filter = |else_value: fn(Expr) -> Expr| {
            let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
            let x = f.local(ElemTy::I32);
            f.pop_into(0, x);
            let wrapped = Expr::i32(65536).mul(Expr::i32(65536));
            f.if_else(
                Expr::i32(1).div(wrapped).lt(Expr::i32(8)),
                vec![Stmt::Push {
                    port: 0,
                    value: Expr::local(x),
                }],
                vec![Stmt::Push {
                    port: 0,
                    value: else_value(Expr::local(x)),
                }],
            );
            f.build()
        };
        assert!(filter(|x| x.add(Expr::f32(1.0))).is_err());
        let wf = filter(|x| x.add(Expr::i32(1))).unwrap();

        let kernel = Kernel::load(&wf);
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let (inp, out) = (gpu.alloc_tokens(32), gpu.alloc_tokens(32));
        let binding = |base| BufferBinding::whole(base, 32, ElemTy::I32, Layout::Sequential, 1);
        let launch = Launch {
            threads_per_block: 32,
            regs_per_thread: 16,
            blocks: vec![BlockWork {
                items: vec![InstanceExec {
                    kernel: &kernel,
                    active_threads: 32,
                    inputs: vec![binding(inp)],
                    outputs: vec![binding(out)],
                    shared_staging: false,
                    state_base: None,
                    label: None,
                }],
            }],
            sm_offset: 0,
        };
        assert!(matches!(gpu.run(&launch), Err(SimError::Trap(_))));

        let graph = StreamSpec::filter(FilterSpec::new("wrap", wf))
            .flatten()
            .unwrap();
        let steady = streamir::sdf::solve(&graph).unwrap();
        let input = [Scalar::I32(7)];
        let cpu = streamir::cpu::run(&graph, &steady, 1, &input, &CpuCostModel::default());
        assert!(matches!(cpu, Err(streamir::Error::Trap(_))), "{cpu:?}");
    }
}
