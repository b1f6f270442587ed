//! The shared abstract warp interpreter behind the static analyses.
//!
//! [`super::coalesce`] predicts the simulator's memory counters;
//! [`super::isolate`] proves tenant containment. Both need the same
//! machine: walk every warp of every instance the executor would
//! launch, abstractly interpreting the work function with lane-uniform
//! constant folding ([`AbsVal`]), and resolve every channel access
//! through [`BufferBinding::warp_addrs`] — the same lowering the simulator
//! executes. This module owns that machine; the analyses differ only in
//! their [`AccessSink`], which receives every address-relevant event in
//! the exact order the simulator would bill it.
//!
//! The taint/abstract-domain structure follows the usual two-layer
//! static-analysis split (abstract domain below, per-client transfer
//! functions above) familiar from LLVM-bitcode taint checkers: the
//! domain is deliberately tiny (`Uniform`/`Varying` — "same scalar in
//! every lane" or not) because billing and addressing only depend on
//! values through `if` conditions, array indices, and peek depths.

use std::collections::HashMap;

use gpusim::{BufferBinding, DeviceConfig, InstanceExec, WarpAddrs, REG_ARRAY_WORDS};
use streamir::ir::{access_sites, interp, AccessSite, Expr, Scalar, Stmt, WorkFunction};

/// An abstract per-lane value: either provably identical across all
/// lanes of a warp, or unknown/varying.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AbsVal {
    Uniform(Scalar),
    Varying,
}

impl AbsVal {
    pub(crate) fn as_const_i32(self) -> Option<i32> {
        match self {
            AbsVal::Uniform(s) => Some(s.as_i32()),
            AbsVal::Varying => None,
        }
    }
}

/// Pointer-keyed map from syntactic access sites to their canonical
/// ordinal, mirroring [`access_sites`]'s walk exactly.
pub(crate) struct SiteMap {
    pub(crate) ord_of: HashMap<usize, u32>,
    pub(crate) sites: Vec<AccessSite>,
}

pub(crate) fn build_site_map(wf: &WorkFunction) -> SiteMap {
    let sites = access_sites(wf);
    let mut ord_of = HashMap::new();
    fn walk_expr(e: &Expr, ord_of: &mut HashMap<usize, u32>, next: &mut u32) {
        match e {
            Expr::Peek { depth, .. } => {
                walk_expr(depth, ord_of, next);
                ord_of.insert(std::ptr::from_ref(e) as usize, *next);
                *next += 1;
            }
            Expr::Unary(_, inner) => walk_expr(inner, ord_of, next),
            Expr::Binary(_, lhs, rhs) => {
                walk_expr(lhs, ord_of, next);
                walk_expr(rhs, ord_of, next);
            }
            Expr::LoadArr { index, .. } | Expr::LoadTable { index, .. } => {
                walk_expr(index, ord_of, next);
            }
            Expr::I32(_) | Expr::F32(_) | Expr::Local(_) | Expr::LoadState(_) => {}
        }
    }
    fn walk_block(stmts: &[Stmt], ord_of: &mut HashMap<usize, u32>, next: &mut u32) {
        for s in stmts {
            match s {
                Stmt::Assign(_, e) | Stmt::StoreState(_, e) => walk_expr(e, ord_of, next),
                Stmt::Store { index, value, .. } => {
                    walk_expr(index, ord_of, next);
                    walk_expr(value, ord_of, next);
                }
                Stmt::Pop { .. } => {
                    ord_of.insert(std::ptr::from_ref(s) as usize, *next);
                    *next += 1;
                }
                Stmt::Push { value, .. } => {
                    walk_expr(value, ord_of, next);
                    ord_of.insert(std::ptr::from_ref(s) as usize, *next);
                    *next += 1;
                }
                Stmt::For { body, .. } => walk_block(body, ord_of, next),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    walk_expr(cond, ord_of, next);
                    walk_block(then_body, ord_of, next);
                    walk_block(else_body, ord_of, next);
                }
            }
        }
    }
    let mut next = 0u32;
    walk_block(wf.body(), &mut ord_of, &mut next);
    debug_assert_eq!(next as usize, sites.len(), "site walk mirrors access_sites");
    SiteMap { ord_of, sites }
}

/// The warp being interpreted — everything a sink needs to resolve an
/// access to device addresses and attribute it to a node.
pub(crate) struct WarpCtx<'a> {
    pub(crate) inst: &'a InstanceExec<'a>,
    pub(crate) node: u32,
    pub(crate) lane0: u32,
    pub(crate) active: u32,
    pub(crate) half_warp: u32,
    pub(crate) txn_words: u64,
}

impl WarpCtx<'_> {
    /// The per-lane device addresses of one warp-wide channel access at
    /// uniform token position `pos` — the resolution every sink shares.
    pub(crate) fn lane_addrs(&self, binding: &BufferBinding, pos: u64) -> WarpAddrs {
        binding.warp_addrs(self.lane0, pos, u32::MAX >> (32 - self.active))
    }
}

/// Receiver of every address-relevant event the walker encounters, in
/// simulator billing order. Implementations decide what to do with each
/// event (tally transactions, check containment, …); the walker decides
/// *when* events happen.
pub(crate) trait AccessSink {
    /// One warp-wide channel access at uniform token position `pos`
    /// through `binding`, at access site ordinal `ord`.
    fn channel(&mut self, ctx: &WarpCtx<'_>, binding: &BufferBinding, pos: u64, ord: u32);
    /// One stale peek slot re-billed by a statement-level call: the
    /// simulator's per-warp peek vector keeps its length across calls
    /// (slots are cleared, not truncated), and an empty slot costs one
    /// access instruction with zero transactions.
    fn stale_peek(&mut self, ctx: &WarpCtx<'_>);
    /// One single-lane state-word access (`store` distinguishes
    /// `StoreState` from `LoadState`). State lives in device memory
    /// even under staging.
    fn state(&mut self, ctx: &WarpCtx<'_>, store: bool);
    /// One warp-wide local-memory scratch-array access (always
    /// coalesced: per-thread interleaved).
    fn local_array(&mut self, ctx: &WarpCtx<'_>);
    /// A data-dependent peek depth at site `ord`: the access's address
    /// cannot be resolved statically.
    fn varying_depth(&mut self, ctx: &WarpCtx<'_>, ord: u32);
    /// A data-dependent branch; the walker traverses both arms (the
    /// simulator issues both under divergence).
    fn varying_branch(&mut self, ctx: &WarpCtx<'_>);
    /// The staged instance's coalesced bulk copy — `steps` warp-wide
    /// steps covering the window in and the pushes out. Called once per
    /// staged instance, after all its warps.
    fn staging_copy(&mut self, inst: &InstanceExec<'_>, node: u32, steps: u64);
}

/// One warp's abstract interpretation state — the static twin of the
/// simulator's `WarpCtx`/`Exec` pair.
struct WarpAbs<'a, S: AccessSink> {
    ctx: WarpCtx<'a>,
    site_map: &'a SiteMap,
    locals: Vec<AbsVal>,
    arrays: Vec<Vec<AbsVal>>,
    pops: Vec<u64>,
    pushes: Vec<u64>,
    /// High-water mark of peek sites traversed in any single `eval` call
    /// of this warp so far; later calls re-bill the stale slots.
    peek_hwm: usize,
    /// Peek sites traversed by the current statement-level `eval` call.
    peek_count: usize,
    sink: &'a mut S,
}

impl<S: AccessSink> WarpAbs<'_, S> {
    fn array_in_local_memory(&self) -> bool {
        self.ctx.inst.kernel.work().info().local_array_words > REG_ARRAY_WORDS
    }

    /// A statement-level expression evaluation — the granularity at which
    /// the simulator bills its gathered peek sites, including the stale
    /// empty slots left by an earlier call that traversed more peeks.
    fn eval_call(&mut self, e: &Expr) -> AbsVal {
        self.peek_count = 0;
        let v = self.eval(e);
        for _ in self.peek_count..self.peek_hwm {
            self.sink.stale_peek(&self.ctx);
        }
        self.peek_hwm = self.peek_hwm.max(self.peek_count);
        v
    }

    fn eval(&mut self, e: &Expr) -> AbsVal {
        match e {
            Expr::I32(v) => AbsVal::Uniform(Scalar::I32(*v)),
            Expr::F32(v) => AbsVal::Uniform(Scalar::F32(*v)),
            Expr::Local(l) => self.locals[l.0 as usize],
            Expr::Peek { port, depth } => {
                let d = self.eval(depth);
                let p = *port as usize;
                self.peek_count += 1;
                let ord = self.site_map.ord_of[&(std::ptr::from_ref(e) as usize)];
                match d.as_const_i32().and_then(|d| u64::try_from(d).ok()) {
                    Some(d) => {
                        let pos = self.pops[p] + d;
                        self.sink
                            .channel(&self.ctx, &self.ctx.inst.inputs[p], pos, ord);
                    }
                    None => self.sink.varying_depth(&self.ctx, ord),
                }
                AbsVal::Varying
            }
            Expr::LoadArr { arr, index } => {
                let i = self.eval(index);
                if self.array_in_local_memory() {
                    self.sink.local_array(&self.ctx);
                }
                match i.as_const_i32().and_then(|i| usize::try_from(i).ok()) {
                    Some(i) => self.arrays[arr.0 as usize]
                        .get(i)
                        .copied()
                        .unwrap_or(AbsVal::Varying),
                    None => AbsVal::Varying,
                }
            }
            Expr::LoadTable { table, index } => {
                let i = self.eval(index);
                match i.as_const_i32().and_then(|i| usize::try_from(i).ok()) {
                    Some(i) => self.ctx.inst.kernel.work().tables()[table.0 as usize]
                        .values
                        .get(i)
                        .map_or(AbsVal::Varying, |&v| AbsVal::Uniform(v)),
                    None => AbsVal::Varying,
                }
            }
            Expr::LoadState(_) => {
                self.sink.state(&self.ctx, false);
                AbsVal::Varying
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner);
                match v {
                    AbsVal::Uniform(s) => {
                        interp::eval_unary(*op, s).map_or(AbsVal::Varying, AbsVal::Uniform)
                    }
                    AbsVal::Varying => AbsVal::Varying,
                }
            }
            Expr::Binary(op, lhs, rhs) => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                match (a, b) {
                    (AbsVal::Uniform(x), AbsVal::Uniform(y)) => {
                        interp::eval_binary(*op, x, y).map_or(AbsVal::Varying, AbsVal::Uniform)
                    }
                    _ => AbsVal::Varying,
                }
            }
        }
    }

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(local, e) => {
                let v = self.eval_call(e);
                self.locals[local.0 as usize] = v;
            }
            Stmt::StoreState(_, e) => {
                self.eval_call(e);
                self.sink.state(&self.ctx, true);
            }
            Stmt::Store { arr, index, value } => {
                let i = self.eval_call(index);
                let v = self.eval_call(value);
                if self.array_in_local_memory() {
                    self.sink.local_array(&self.ctx);
                }
                let a = &mut self.arrays[arr.0 as usize];
                match i.as_const_i32().and_then(|i| usize::try_from(i).ok()) {
                    Some(i) if i < a.len() => a[i] = v,
                    // Unknown index: weak update, every cell may change.
                    _ => a.iter_mut().for_each(|c| *c = AbsVal::Varying),
                }
            }
            Stmt::Pop { port, dst } => {
                let p = *port as usize;
                let ord = self.site_map.ord_of[&(std::ptr::from_ref(s) as usize)];
                let pos = self.pops[p];
                self.sink
                    .channel(&self.ctx, &self.ctx.inst.inputs[p], pos, ord);
                self.pops[p] += 1;
                if let Some(dst) = dst {
                    self.locals[dst.0 as usize] = AbsVal::Varying;
                }
            }
            Stmt::Push { port, value } => {
                self.eval_call(value);
                let p = *port as usize;
                let ord = self.site_map.ord_of[&(std::ptr::from_ref(s) as usize)];
                let pos = self.pushes[p];
                self.sink
                    .channel(&self.ctx, &self.ctx.inst.outputs[p], pos, ord);
                self.pushes[p] += 1;
            }
            Stmt::For { var, lo, hi, body } => {
                for i in *lo..*hi {
                    self.locals[var.0 as usize] = AbsVal::Uniform(Scalar::I32(i));
                    self.block(body);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval_call(cond);
                match c.as_const_i32() {
                    Some(c) => self.block(if c != 0 { then_body } else { else_body }),
                    None => {
                        self.sink.varying_branch(&self.ctx);
                        self.block(then_body);
                        self.block(else_body);
                    }
                }
            }
        }
    }
}

/// Interprets one instance execution into `sink`: every warp, plus the
/// staging bulk copy the simulator bills per staged instance.
pub(crate) fn analyze_instance<S: AccessSink>(
    inst: &InstanceExec<'_>,
    node: u32,
    device: &DeviceConfig,
    site_map: &SiteMap,
    sink: &mut S,
) {
    let warp = device.warp_size;
    let warps = inst.active_threads.div_ceil(warp);
    for w in 0..warps {
        let lane0 = w * warp;
        let active = warp.min(inst.active_threads - lane0);
        let mut wa = WarpAbs {
            ctx: WarpCtx {
                inst,
                node,
                lane0,
                active,
                half_warp: warp / 2,
                txn_words: u64::from(device.transaction_words()),
            },
            site_map,
            locals: inst
                .kernel
                .work()
                .locals()
                .iter()
                .map(|&ty| AbsVal::Uniform(Scalar::zero(ty)))
                .collect(),
            arrays: inst
                .kernel
                .work()
                .arrays()
                .iter()
                .map(|&(ty, len)| vec![AbsVal::Uniform(Scalar::zero(ty)); len as usize])
                .collect(),
            pops: vec![0; inst.kernel.work().input_ports().len()],
            pushes: vec![0; inst.kernel.work().output_ports().len()],
            peek_hwm: 0,
            peek_count: 0,
            sink: &mut *sink,
        };
        wa.block(inst.kernel.work().body());
    }
    if inst.shared_staging {
        // One coalesced bulk copy each way: window tokens in, pushes
        // out; each warp-wide step is one access and two transactions.
        let t = u64::from(inst.active_threads);
        let wf = inst.kernel.work();
        let in_tokens: u64 = (0..wf.input_ports().len() as u8)
            .map(|p| t * u64::from(wf.peek_rate(p)))
            .sum();
        let out_tokens: u64 = (0..wf.output_ports().len() as u8)
            .map(|p| t * u64::from(wf.push_rate(p)))
            .sum();
        let steps = (in_tokens + out_tokens).div_ceil(u64::from(warp));
        sink.staging_copy(inst, node, steps);
    }
}
