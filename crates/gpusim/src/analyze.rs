//! The abstract warp walk: a second interpretation of the decoded
//! [`Program`] the simulator executes.
//!
//! The static verifier predicts the simulator's memory counters and proves
//! tenant containment without executing a token. Both analyses walk every
//! warp of every instance through the kernel's decoded ops and statements
//! — the ones [`crate::exec`] runs, with the same site numbering, the same
//! peek counts and the same stale-peek rule — over a two-point domain per
//! register ([`AbsVal`]), and resolve every channel access through the
//! warp's [`WarpGeometry`] for the port. An [`AccessSink`] receives every
//! address-relevant event in the order the simulator bills it; the
//! analyses differ only in their sink.
//!
//! Billing and addressing depend on values only through `if` conditions,
//! array and table indices and peek depths, so the domain is tiny:
//! constants fold with the simulator's own bit-level operators on one
//! lane, an immediate operand is a uniform constant, and what folding
//! cannot decide (a popped value, a trap) is varying. Where a static walk
//! must, it departs from execution: a data-dependent `if` walks both arms,
//! and a statement the simulator would trap on ([`DStmt::Invalid`]) emits
//! nothing. It has no masks, no traps and no watchdog, so it is a separate
//! walk over shared data rather than a generic interpreter both would
//! branch inside.
//!
//! A kernel whose walk meets none of those departures — no varying `if`
//! condition, peek depth, divisor, array or table index, and no reached
//! [`DStmt::Invalid`] — is *value-oblivious*: no input can make it trap,
//! diverge or move an access, so its walk is exact, and the same for
//! every warp of every instance up to the addresses of its channel
//! accesses. A [`Kernel`] records that walk once as a [`Tape`], and
//! [`Tape::price`] bills an instance from it without executing a lane.

use streamir::ir::{AccessKind, ElemTy};

use crate::config::DeviceConfig;
use crate::exec::{binary, int_div, stale_peeks, unary, DExpr, DStmt, Op, Program, Src};
use crate::launch::{bill_staging, staging_steps, InstanceExec, Kernel};
use crate::layout::{BufferBinding, Layout, WarpAccess, WarpGeometry, WARP_LANES};
use crate::mem::{bank_conflict_degree, count_transactions};
use crate::stats::InstanceStats;

/// An abstract register: `Some(bits)` when every lane of the warp holds
/// the same bits, `None` when they may differ.
type AbsVal = Option<u32>;

/// The value as a non-negative index, if every lane holds the same one.
fn index(v: AbsVal) -> Option<usize> {
    usize::try_from(v? as i32).ok()
}

/// One warp of an analyzed instance: what a sink needs to resolve an
/// event's addresses.
pub struct AbstractWarp<'a> {
    /// The instance being walked.
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
        access
            .geometry
            .access(access.pos, u32::MAX >> (32 - self.active), out);
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

/// Receiver of every address-relevant event of an abstract walk, in the
/// order the simulator bills them. The sink decides what an event means
/// (tally transactions, check containment); the walk decides when events
/// happen.
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

/// One warp's abstract state, reused from warp to warp.
struct Walk<'a, S> {
    warp: AbstractWarp<'a>,
    prog: &'a Program,
    regs: Vec<AbsVal>,
    arrays: Vec<AbsVal>,
    /// Per input (output) port: the warp's geometry, and the tokens every
    /// lane has popped (pushed).
    ins: Vec<(WarpGeometry, u64)>,
    outs: Vec<(WarpGeometry, u64)>,
    /// The warp's peek-slot high-water mark ([`stale_peeks`]).
    peek_slots: u32,
    /// No value-dependent departure from execution has been met.
    oblivious: bool,
    sink: &'a mut S,
}

impl InstanceExec<'_> {
    /// Walks every warp of this instance abstractly into `sink`, then the
    /// staging copy the simulator bills a staged instance.
    pub fn analyze(&self, device: &DeviceConfig, sink: &mut impl AccessSink) {
        let txn_words = u64::from(device.transaction_words());
        self.walk(device.warp_size, txn_words, sink);
    }

    /// [`InstanceExec::analyze`] on a device of `warp` lanes and
    /// `txn_words`-word transactions. Returns whether the walk was
    /// value-oblivious.
    fn walk(&self, warp: u32, txn_words: u64, sink: &mut impl AccessSink) -> bool {
        let prog = &self.kernel.program;
        let ports =
            |bindings: &[BufferBinding]| bindings.iter().map(|b| (b.geometry(0), 0)).collect();
        let mut walk = Walk {
            warp: AbstractWarp {
                inst: self,
                lane0: 0,
                active: 0,
                half_warp: warp / 2,
                txn_words,
            },
            prog,
            regs: Vec::new(),
            arrays: Vec::new(),
            ins: ports(&self.inputs),
            outs: ports(&self.outputs),
            peek_slots: 0,
            oblivious: true,
            sink,
        };
        for lane0 in (0..self.active_threads).step_by(warp as usize) {
            if lane0 > 0 {
                for (geometry, _) in walk.ins.iter_mut().chain(&mut walk.outs) {
                    geometry.next_warp(warp);
                }
            }
            walk.reset(lane0, warp.min(self.active_threads - lane0));
            walk.block(&prog.body);
        }
        if self.shared_staging {
            walk.sink.staging_copy(self, staging_steps(self, warp));
        }
        walk.oblivious
    }
}

impl<S: AccessSink> Walk<'_, S> {
    fn reset(&mut self, lane0: u32, active: u32) {
        (self.warp.lane0, self.warp.active) = (lane0, active);
        for (v, len) in [
            (&mut self.regs, self.prog.regs),
            (&mut self.arrays, self.prog.array_rows),
        ] {
            v.clear();
            v.resize(len, Some(0));
        }
        for (_, tokens) in self.ins.iter_mut().chain(&mut self.outs) {
            *tokens = 0;
        }
        self.peek_slots = 0;
    }

    /// One channel access at `ahead` tokens past the port's count.
    fn channel(&mut self, kind: AccessKind, port: u8, site: u32, ahead: u64) {
        let (inst, p) = (self.warp.inst, usize::from(port));
        let ((geometry, tokens), binding) = match kind {
            AccessKind::Push => (&self.outs[p], &inst.outputs[p]),
            AccessKind::Pop | AccessKind::Peek => (&self.ins[p], &inst.inputs[p]),
        };
        let access = Channel {
            kind,
            port,
            site,
            pos: tokens + ahead,
            binding,
            geometry,
        };
        self.sink.channel(&self.warp, &access);
    }

    /// Evaluates `e`: its issue slots, its ops' events in order, then the
    /// stale peek slots.
    fn eval(&mut self, e: &DExpr) -> AbsVal {
        let prog = self.prog;
        self.sink.issue(e.issue);
        for op in &prog.ops[e.ops.start as usize..e.ops.end as usize] {
            self.op(op);
        }
        let stale = stale_peeks(&mut self.peek_slots, e.peeks);
        if stale > 0 {
            self.sink.stale_peeks(&self.warp, stale);
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
        self.oblivious &= row.is_some();
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
                self.oblivious &= self.value(b).is_some_and(|y| y != 0);
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
                        self.oblivious = false;
                        self.sink.varying_depth(&self.warp, site);
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
                    self.sink.local_array();
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
                self.sink.state();
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
                self.sink.issue(1);
            }
            DStmt::StoreState { value, .. } => {
                self.eval(value);
                self.sink.issue(1);
                self.sink.state();
            }
            DStmt::Store {
                rows,
                index: i,
                value,
            } => {
                let i = self.eval(i);
                let v = self.eval(value);
                self.sink.issue(1);
                if self.prog.arrays_in_local_memory {
                    self.sink.local_array();
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
                self.sink.issue(1); // address arithmetic
                self.channel(AccessKind::Pop, *port, *site, 0);
                self.ins[usize::from(*port)].1 += 1;
                if let Some(dst) = dst {
                    self.regs[*dst as usize] = None;
                }
            }
            DStmt::Push { port, value, site } => {
                self.eval(value);
                self.sink.issue(1);
                self.channel(AccessKind::Push, *port, *site, 0);
                self.outs[usize::from(*port)].1 += 1;
            }
            DStmt::For { var, lo, hi, body } => {
                for i in *lo..*hi {
                    self.sink.issue(1); // induction update + branch
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
                self.sink.issue(1); // the branch itself
                match c {
                    Some(c) => self.block(if c != 0 { then_body } else { else_body }),
                    None => {
                        self.oblivious = false;
                        self.sink.varying_branch();
                        self.block(then_body);
                        self.block(else_body);
                    }
                }
            }
            // The simulator traps here: no access to report.
            DStmt::Invalid(_) => self.oblivious = false,
        }
    }
}

/// The walk of one warp of a value-oblivious kernel, recorded once per
/// loaded kernel: what every warp of every instance of it bills,
/// up to the addresses of its channel accesses, which the instance's
/// bindings place.
#[derive(Debug, Default)]
pub(crate) struct Tape {
    /// Every channel access in walk order: what it does, its port and the
    /// token position every lane has reached.
    channels: Vec<(AccessKind, u8, u64)>,
    /// Issue slots besides the channel accesses' and stale slots' own.
    issue: u64,
    /// Stale peek slots ([`stale_peeks`]).
    stale: u64,
    /// State-word accesses, and local-memory array accesses.
    state: u64,
    local_array: u64,
}

impl AccessSink for Tape {
    fn channel(&mut self, _: &AbstractWarp<'_>, access: &Channel<'_>) {
        self.channels.push((access.kind, access.port, access.pos));
    }
    fn stale_peeks(&mut self, _: &AbstractWarp<'_>, n: u32) {
        self.stale += u64::from(n);
    }
    fn state(&mut self) {
        self.state += 1;
    }
    fn local_array(&mut self) {
        self.local_array += 1;
    }
    // A walk that meets these is not value-oblivious and is discarded.
    fn varying_depth(&mut self, _: &AbstractWarp<'_>, _: u32) {}
    fn varying_branch(&mut self) {}
    // The copy is billed per instance ([`Tape::price`]).
    fn staging_copy(&mut self, _: &InstanceExec<'_>, _: u64) {}
    fn issue(&mut self, slots: u64) {
        self.issue += slots;
    }
}

impl Tape {
    /// The walk of one warp of `kernel`, if the kernel is
    /// value-oblivious. One lane over placeholder bindings stands for
    /// every instance: no value in the walk depends on an address or a
    /// lane.
    pub(crate) fn record(kernel: &Kernel) -> Option<Tape> {
        let work = kernel.work();
        let ports = |n: usize| {
            let any = BufferBinding::whole(0, 1, ElemTy::I32, Layout::Sequential, 1);
            vec![any; n]
        };
        let one_lane = InstanceExec {
            kernel,
            active_threads: 1,
            inputs: ports(work.input_ports().len()),
            outputs: ports(work.output_ports().len()),
            shared_staging: false,
            state_base: Some(0),
            label: None,
        };
        // The tape resolves no address, so no transaction size matters.
        let mut tape = Tape::default();
        one_lane
            .walk(WARP_LANES as u32, 1, &mut tape)
            .then_some(tape)
    }

    /// What the simulator bills `inst`, an instance of the recorded
    /// kernel, before the spill bill ([`crate::Gpu::run`]'s counters), on
    /// a device of `warp` lanes, `txn_words`-word transactions and
    /// `mem_words` words of memory. `None` when an access may leave device
    /// memory, which only the simulator reports exactly. `access` is
    /// scratch space.
    pub(crate) fn price(
        &self,
        inst: &InstanceExec<'_>,
        (warp, txn_words): (u32, u64),
        mem_words: u64,
        access: &mut WarpAccess,
    ) -> Option<InstanceStats> {
        let warps = inst.active_threads.div_ceil(warp);
        let mut stats = InstanceStats {
            warps,
            ..InstanceStats::default()
        };
        let geometry = |bindings: &[BufferBinding]| -> Vec<WarpGeometry> {
            bindings.iter().map(|b| b.geometry(0)).collect()
        };
        let (mut ins, mut outs) = (geometry(&inst.inputs), geometry(&inst.outputs));
        for lane0 in (0..inst.active_threads).step_by(warp as usize) {
            if lane0 > 0 {
                for g in ins.iter_mut().chain(&mut outs) {
                    g.next_warp(warp);
                }
            }
            let mask = u32::MAX >> (32 - warp.min(inst.active_threads - lane0));
            for &(kind, port, pos) in &self.channels {
                let ports = if kind == AccessKind::Push {
                    &outs
                } else {
                    &ins
                };
                ports[usize::from(port)].access(pos, mask, access);
                // A run's addresses never descend: its last is its highest.
                if access.iter().any(|run| run.last_addr() >= mem_words) {
                    return None;
                }
                if inst.shared_staging {
                    stats.bank_conflict_passes += bank_conflict_degree(access);
                } else {
                    stats.mem_transactions += count_transactions(access, warp / 2, txn_words);
                }
            }
        }
        if self.state > 0 {
            let states = inst.kernel.work().states().len() as u64;
            if u64::from(inst.state_base?) + states > mem_words {
                return None;
            }
        }
        let per_warp = |n: u64| n * u64::from(warps);
        // Each channel access and stale slot is one access instruction.
        let routed = per_warp(self.channels.len() as u64 + self.stale);
        stats.warp_instructions = per_warp(self.issue) + routed;
        if inst.shared_staging {
            stats.shared_accesses = routed;
        } else {
            stats.mem_access_insts = routed;
        }
        stats.mem_access_insts += per_warp(self.state + self.local_array);
        stats.mem_transactions += per_warp(self.state + 2 * self.local_array);
        if inst.shared_staging {
            bill_staging(&mut stats, staging_steps(inst, warp));
        }
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use streamir::ir::{access_sites, AccessSite, ElemTy, Expr, FnBuilder, WorkFunction};

    use super::*;
    use crate::{Kernel, Layout};

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
        // The validator folds the condition by i64 intervals — 1 / 2^32 is
        // 0, and 0 < 8 — and never type-checks the else arm. In i32 the
        // divisor wraps to 0, so the walk's fold traps and it takes both
        // arms; the else arm's push is ill-typed and decodes to
        // `DStmt::Invalid`.
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        let wrapped = Expr::i32(65536).mul(Expr::i32(65536));
        f.if_else(
            Expr::i32(1).div(wrapped).lt(Expr::i32(8)),
            vec![streamir::ir::Stmt::Push {
                port: 0,
                value: Expr::local(x),
            }],
            vec![streamir::ir::Stmt::Push {
                port: 0,
                value: Expr::local(x).add(Expr::f32(1.0)),
            }],
        );
        f.pop(0);
        let wf = f.build().unwrap();
        let program = &Kernel::load(&wf).program;
        assert!(matches!(&program.body[1], DStmt::If { else_body, .. }
            if matches!(else_body[..], [DStmt::Invalid(_)])));

        let sites = walk(&wf);
        assert_eq!(sites.varying_branches, 1);
        let named: Vec<String> = sites.named.iter().map(ToString::to_string).collect();
        // `push[out0]#1`, the invalid arm's, is never named; the later pop
        // is still `pop[in0]#1`, site 3.
        assert_eq!(named, ["pop[in0]#0", "push[out0]#0", "pop[in0]#1"]);
        assert!(matches!(program.body[2], DStmt::Pop { site: 3, .. }));
    }
}
