//! Warp-synchronous execution of work functions.
//!
//! A warp's 32 lanes step through the kernel IR together under an
//! active-lane mask. Structured control flow gives structured divergence:
//! an `if` whose condition differs across lanes executes both arms with
//! complementary masks (both arms' instructions are issued, as on the real
//! SIMD pipeline); `for` bounds are compile-time constants, so loops never
//! diverge. Every device-memory access gathers the active lanes' addresses
//! and runs them through the coalescing analyzer.
//!
//! A work function is decoded once, when it is loaded as a
//! [`crate::Kernel`] ([`Program::decode`]), into flat, statically typed
//! register ops, and each op then executes across the whole warp on
//! structure-of-arrays registers (one `[u32; 32]` of raw bits per local
//! or temporary). Ops that cannot trap run unmasked over
//! the warp's lanes — a masked-off lane computes a value nobody reads;
//! integer `Div`/`Rem`, array and table indexing, peeks and every memory
//! access touch active lanes only. Expressions are pure and have no lazy
//! operators, so every lane issues the same nodes: an expression's issue
//! cost is summed at decode time and billed once per evaluation.
//!
//! Traps are op-major: when two lanes would trap at *different* ops of
//! one expression, the earlier op's lowest lane is reported, where a
//! lane-by-lane walk would report the lower lane's op. Either way the
//! launch aborts with [`SimError::Trap`] and no statistics.

use std::ops::Range;

use streamir::ir::{
    interp, ArrayId, BinOp, ElemTy, Expr, LocalId, Scalar, Stmt, UnOp, WorkFunction,
};

use crate::layout::{BufferBinding, WarpAddrs, WARP_LANES};
use crate::mem::{bank_conflict_degree, count_transactions, DeviceMemory};
use crate::stats::InstanceStats;
use crate::{Result, SimError};

/// Extra issue slots a transcendental op occupies relative to a plain ALU
/// op (SFU throughput is a quarter of the SP throughput on this device).
const TRANSCENDENTAL_ISSUE: u64 = 4;

/// Scratch arrays up to this many words per thread stay in the register
/// file; larger ones live in (coalesced, per-thread-interleaved) local
/// memory, like nvcc places them.
pub const REG_ARRAY_WORDS: u32 = 16;

/// Shared-memory banks on the modeled device.
pub const SHARED_BANKS: u64 = 16;

/// One register (or per-lane counter, or scratch-array element) across
/// the warp: raw 32-bit values, lane-indexed.
type Lanes = [u32; WARP_LANES];

/// Index into a warp's register file: locals first, then temporaries.
type Reg = u32;

type Mask = u32;

/// One flat register op of a decoded expression. Operand types were
/// resolved at decode time; `ty` is the *operand* type.
#[derive(Debug)]
enum Op {
    Const {
        dst: Reg,
        bits: u32,
    },
    Peek {
        dst: Reg,
        port: u8,
        depth: Reg,
    },
    LoadArr {
        dst: Reg,
        rows: Range<u32>,
        index: Reg,
    },
    LoadTable {
        dst: Reg,
        words: Range<u32>,
        index: Reg,
    },
    LoadState {
        dst: Reg,
        id: u32,
    },
    Unary {
        op: UnOp,
        ty: ElemTy,
        dst: Reg,
        a: Reg,
    },
    Binary {
        op: BinOp,
        ty: ElemTy,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
}

/// A decoded expression: a run of [`Program::ops`] leaving its value in
/// `out`, and what one warp-wide evaluation bills besides its peeks.
#[derive(Debug)]
struct DExpr {
    ops: Range<u32>,
    out: Reg,
    /// Issue slots of every node (literals, ALU and SFU ops, index and
    /// address arithmetic, state and local-array accesses).
    issue: u64,
    /// Device access instructions of state loads and local-memory arrays.
    access_insts: u64,
    /// Their transactions (one line per state load, two per array access).
    transactions: u64,
    /// Peek sites: each bills one channel access when evaluated.
    peeks: u32,
}

#[derive(Debug)]
enum DStmt {
    Assign {
        dst: Reg,
        value: DExpr,
    },
    StoreState {
        id: u32,
        value: DExpr,
    },
    Store {
        rows: Range<u32>,
        index: DExpr,
        value: DExpr,
    },
    Pop {
        port: u8,
        dst: Option<Reg>,
    },
    Push {
        port: u8,
        value: DExpr,
    },
    For {
        var: Reg,
        lo: i32,
        hi: i32,
        body: Vec<DStmt>,
    },
    If {
        cond: DExpr,
        then_body: Vec<DStmt>,
        else_body: Vec<DStmt>,
    },
    /// A statement the validator never type-checked: it sits in an arm a
    /// constant condition rules out. Traps if a lane ever reaches it.
    Invalid(String),
}

/// A work function decoded for warp-wide execution.
#[derive(Debug)]
pub(crate) struct Program {
    body: Vec<DStmt>,
    ops: Vec<Op>,
    /// Registers a warp needs: the locals plus the deepest temporary.
    regs: usize,
    /// Rows of per-lane scratch-array storage (one per array element).
    array_rows: usize,
    /// Scratch arrays exceed [`REG_ARRAY_WORDS`]: each access is also a
    /// local-memory access instruction.
    arrays_in_local_memory: bool,
    /// Every table's contents as raw bits, back to back.
    table_words: Vec<u32>,
    inputs: usize,
    outputs: usize,
}

struct Decoder<'a> {
    wf: &'a WorkFunction,
    ops: Vec<Op>,
    regs: usize,
    array_rows: Vec<Range<u32>>,
    table_words: Vec<Range<u32>>,
    arrays_in_local_memory: bool,
}

/// Why a statement could not be decoded (becomes [`DStmt::Invalid`]).
type Decoded<T> = std::result::Result<T, String>;

fn i32_only(ty: ElemTy, what: &str) -> Decoded<()> {
    match ty {
        ElemTy::I32 => Ok(()),
        ElemTy::F32 => Err(format!("{what} must be i32, found {ty}")),
    }
}

/// Back-to-back spans of the given lengths, and their total.
fn spans(lens: impl Iterator<Item = u32>) -> (Vec<Range<u32>>, u32) {
    let mut next = 0;
    let spans = lens
        .map(|len| {
            next += len;
            next - len..next
        })
        .collect();
    (spans, next)
}

impl Program {
    pub(crate) fn decode(wf: &WorkFunction) -> Program {
        let (array_rows, rows) = spans(wf.arrays().iter().map(|&(_, len)| len));
        let (table_words, _) = spans(wf.tables().iter().map(|t| t.len() as u32));
        let arrays_in_local_memory = wf.info().local_array_words > REG_ARRAY_WORDS;
        let mut d = Decoder {
            wf,
            ops: Vec::new(),
            regs: wf.locals().len(),
            array_rows,
            table_words,
            arrays_in_local_memory,
        };
        let body = d.block(wf.body());
        Program {
            body,
            ops: d.ops,
            regs: d.regs,
            array_rows: rows as usize,
            arrays_in_local_memory,
            table_words: wf
                .tables()
                .iter()
                .flat_map(|t| t.values.iter().map(|v| v.to_bits()))
                .collect(),
            inputs: wf.input_ports().len(),
            outputs: wf.output_ports().len(),
        }
    }
}

impl Decoder<'_> {
    fn block(&mut self, stmts: &[Stmt]) -> Vec<DStmt> {
        stmts
            .iter()
            .map(|s| {
                let mark = self.ops.len();
                self.stmt(s).unwrap_or_else(|why| {
                    self.ops.truncate(mark);
                    DStmt::Invalid(why)
                })
            })
            .collect()
    }

    fn local(&self, l: LocalId) -> Decoded<(Reg, ElemTy)> {
        let ty = self.wf.locals().get(l.0 as usize);
        ty.map(|&ty| (l.0, ty))
            .ok_or_else(|| format!("undeclared local {l:?}"))
    }

    fn rows(&self, arr: ArrayId) -> Decoded<(Range<u32>, ElemTy)> {
        let rows = self.array_rows.get(arr.0 as usize);
        rows.map(|r| (r.clone(), self.wf.arrays()[arr.0 as usize].0))
            .ok_or_else(|| format!("undeclared array {arr:?}"))
    }

    fn stmt(&mut self, s: &Stmt) -> Decoded<DStmt> {
        let t0 = self.wf.locals().len() as Reg;
        Ok(match s {
            Stmt::Assign(local, e) => DStmt::Assign {
                dst: self.local(*local)?.0,
                value: self.top(e, t0)?.0,
            },
            Stmt::StoreState(id, e) => {
                if id.0 as usize >= self.wf.states().len() {
                    return Err(format!("undeclared state {id:?}"));
                }
                DStmt::StoreState {
                    id: id.0,
                    value: self.top(e, t0)?.0,
                }
            }
            Stmt::Store { arr, index, value } => {
                let (rows, _) = self.rows(*arr)?;
                let index = self.index(index, t0)?;
                // The index must survive the value's evaluation.
                let value = self.top(value, t0 + Reg::from(index.out == t0))?.0;
                DStmt::Store { rows, index, value }
            }
            Stmt::Pop { port, dst } => {
                if usize::from(*port) >= self.wf.input_ports().len() {
                    return Err(format!("undeclared input port {port}"));
                }
                DStmt::Pop {
                    port: *port,
                    dst: dst.map(|d| self.local(d).map(|(r, _)| r)).transpose()?,
                }
            }
            Stmt::Push { port, value } => {
                if usize::from(*port) >= self.wf.output_ports().len() {
                    return Err(format!("undeclared output port {port}"));
                }
                DStmt::Push {
                    port: *port,
                    value: self.top(value, t0)?.0,
                }
            }
            Stmt::For { var, lo, hi, body } => DStmt::For {
                var: self.local(*var)?.0,
                lo: *lo,
                hi: *hi,
                body: self.block(body),
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => DStmt::If {
                cond: self.index(cond, t0)?,
                then_body: self.block(then_body),
                else_body: self.block(else_body),
            },
        })
    }

    /// Decodes a statement-level expression whose temporaries start at
    /// register `t`.
    fn top(&mut self, e: &Expr, t: Reg) -> Decoded<(DExpr, ElemTy)> {
        let start = self.ops.len() as u32;
        let mut d = DExpr {
            ops: start..start,
            out: 0,
            issue: 0,
            access_insts: 0,
            transactions: 0,
            peeks: 0,
        };
        let (out, ty) = self.expr(e, t, &mut d)?;
        d.out = out;
        d.ops.end = self.ops.len() as u32;
        Ok((d, ty))
    }

    /// A statement-level expression that must be an `i32` (an index or a
    /// condition).
    fn index(&mut self, e: &Expr, t: Reg) -> Decoded<DExpr> {
        let (d, ty) = self.top(e, t)?;
        i32_only(ty, "index or condition")?;
        Ok(d)
    }

    /// Emits the ops computing `e`, using temporaries from `t` up, and
    /// returns the register holding the value (`t`, or a local's own
    /// register) with the value's type.
    fn expr(&mut self, e: &Expr, t: Reg, cost: &mut DExpr) -> Decoded<(Reg, ElemTy)> {
        self.regs = self.regs.max(t as usize + 1);
        let (op, ty) = match e {
            Expr::Local(l) => return self.local(*l),
            Expr::I32(v) => {
                cost.issue += 1;
                let bits = *v as u32;
                (Op::Const { dst: t, bits }, ElemTy::I32)
            }
            Expr::F32(v) => {
                cost.issue += 1;
                let bits = v.to_bits();
                (Op::Const { dst: t, bits }, ElemTy::F32)
            }
            Expr::Peek { port, depth } => {
                let (depth, depth_ty) = self.expr(depth, t, cost)?;
                i32_only(depth_ty, "peek depth")?;
                let ty = self.wf.input_ports().get(usize::from(*port));
                let ty = *ty.ok_or_else(|| format!("undeclared input port {port}"))?;
                cost.issue += 1; // address arithmetic
                cost.peeks += 1;
                let port = *port;
                (
                    Op::Peek {
                        dst: t,
                        port,
                        depth,
                    },
                    ty,
                )
            }
            Expr::LoadArr { arr, index } => {
                let (index, index_ty) = self.expr(index, t, cost)?;
                i32_only(index_ty, "array index")?;
                let (rows, ty) = self.rows(*arr)?;
                cost.issue += 1;
                if self.arrays_in_local_memory {
                    // Per-thread interleaved, hence always coalesced:
                    // 32 lanes x 4 B = 128 B = 2 transactions.
                    cost.access_insts += 1;
                    cost.transactions += 2;
                }
                (
                    Op::LoadArr {
                        dst: t,
                        rows,
                        index,
                    },
                    ty,
                )
            }
            Expr::LoadTable { table, index } => {
                let (index, index_ty) = self.expr(index, t, cost)?;
                i32_only(index_ty, "table index")?;
                let words = self.table_words.get(table.0 as usize);
                let words = words
                    .ok_or_else(|| format!("undeclared table {table:?}"))?
                    .clone();
                cost.issue += 1; // constant-cache hit
                (
                    Op::LoadTable {
                        dst: t,
                        words,
                        index,
                    },
                    self.wf.tables()[table.0 as usize].ty,
                )
            }
            Expr::LoadState(id) => {
                let def = self.wf.states().get(id.0 as usize);
                let ty = def.ok_or_else(|| format!("undeclared state {id:?}"))?.ty;
                cost.issue += 1;
                cost.access_insts += 1;
                cost.transactions += 1; // one lane, one line
                (Op::LoadState { dst: t, id: id.0 }, ty)
            }
            Expr::Unary(op, inner) => {
                let (a, ty) = self.expr(inner, t, cost)?;
                use {ElemTy::*, UnOp::*};
                let out = match (op, ty) {
                    (Neg | Abs, _) | (Not, I32) | (Sin | Cos | Sqrt | Floor, F32) => ty,
                    (ToF32, I32) => F32,
                    (ToI32, F32) => I32,
                    _ => return Err(format!("unary {op:?} applied to {ty} operand")),
                };
                cost.issue += if op.is_transcendental() {
                    TRANSCENDENTAL_ISSUE
                } else {
                    1
                };
                let op = *op;
                (Op::Unary { op, ty, dst: t, a }, out)
            }
            Expr::Binary(op, lhs, rhs) => {
                let (a, ty) = self.expr(lhs, t, cost)?;
                let (b, rty) = self.expr(rhs, if a == t { t + 1 } else { t }, cost)?;
                if ty != rty {
                    return Err(format!("binary {op:?} applied to mixed-type operands"));
                }
                if ty == ElemTy::F32 && op.is_integer_only() {
                    return Err(format!("{op:?} applied to f32 operands"));
                }
                cost.issue += 1;
                let out = if op.is_comparison() { ElemTy::I32 } else { ty };
                let op = *op;
                (
                    Op::Binary {
                        op,
                        ty,
                        dst: t,
                        a,
                        b,
                    },
                    out,
                )
            }
        };
        self.ops.push(op);
        Ok((t, ty))
    }
}

/// Static description of one warp's slice of an instance execution.
pub(crate) struct WarpCtx<'a> {
    pub prog: &'a Program,
    /// Instance-local thread id of lane 0.
    pub lane0_tid: u32,
    /// Active lanes in this warp (1..=32).
    pub active: u32,
    pub inputs: &'a [BufferBinding],
    pub outputs: &'a [BufferBinding],
    /// Channel traffic goes through shared memory (SWPNC staging mode):
    /// billed as shared accesses instead of device transactions.
    pub shared_staging: bool,
    /// Half-warp size for coalescing (16).
    pub half_warp: u32,
    /// Words per transaction (16).
    pub txn_words: u64,
    /// Device word address of the filter's persistent state (stateful
    /// filters execute single-threaded with state in device memory).
    pub state_base: Option<u32>,
}

/// A warp's mutable state, reused from warp to warp so that executing a
/// statement never allocates.
#[derive(Default)]
pub(crate) struct WarpState {
    regs: Vec<Lanes>,
    arrays: Vec<Lanes>,
    /// Tokens each lane has popped (pushed) so far, per port.
    pops: Vec<Lanes>,
    pushes: Vec<Lanes>,
}

impl WarpState {
    fn reset(&mut self, prog: &Program) {
        for (v, len) in [
            (&mut self.regs, prog.regs),
            (&mut self.arrays, prog.array_rows),
            (&mut self.pops, prog.inputs),
            (&mut self.pushes, prog.outputs),
        ] {
            v.clear();
            v.resize(len, [0; WARP_LANES]);
        }
    }
}

struct Exec<'a> {
    ctx: &'a WarpCtx<'a>,
    st: &'a mut WarpState,
    mem: &'a mut DeviceMemory,
    stats: &'a mut InstanceStats,
    limits: &'a mut ExecLimits,
    /// Lanes that exist in this warp; unmasked ops run over `0..n`.
    n: usize,
    /// Those lanes as a mask: what `block` is entered with.
    all: Mask,
    /// The most peek sites any one evaluation of this warp has gathered.
    /// Known deviation (DESIGN.md §18): the gather slots are cleared, not
    /// dropped, so every later evaluation re-bills the empty ones as
    /// access instructions with no transactions. `verify::absint`
    /// predicts the same.
    peek_slots: u32,
}

fn trap(msg: impl Into<String>) -> SimError {
    SimError::Trap(msg.into())
}

/// The storage row of the element a lane indexes in the array at `rows`.
fn array_row(rows: &Range<u32>, index: u32, access: &str) -> Result<usize> {
    let i = index as i32;
    u32::try_from(i)
        .ok()
        .filter(|&i| i < rows.len() as u32)
        .map(|i| (rows.start + i) as usize)
        .ok_or_else(|| trap(format!("array {access} index {i} out of bounds")))
}

/// The set lanes of `mask`, ascending.
fn lanes(mut mask: Mask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// What the watchdog reports when the instruction budget runs out.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TripKind {
    /// A genuine (or injected-hang) watchdog kill: report this budget.
    /// Injected hangs run on a small prefix budget so partial writes are
    /// real, but report the device's true watchdog budget.
    Watchdog { reported_budget: u64 },
    /// An injected transient memory corruption: report the last device
    /// address the kernel touched as the detection site.
    MemFault,
}

/// Per-launch execution limits threaded through the interpreter. The
/// budget is shared by every warp of the launch (it models wall-clock
/// progress of the whole kernel), decremented as instructions issue and
/// checked at statement boundaries.
#[derive(Debug)]
pub(crate) struct ExecLimits {
    /// Instructions the launch may still issue before tripping.
    pub remaining: u64,
    /// How a trip is reported.
    pub trip: TripKind,
    /// Lifetime launch-attempt ordinal, for error context.
    pub launch: u64,
    /// Most recent device word address touched (MemFault detection site).
    pub last_addr: u64,
}

impl ExecLimits {
    pub(crate) fn new(budget: u64, launch: u64) -> ExecLimits {
        ExecLimits {
            remaining: budget,
            trip: TripKind::Watchdog {
                reported_budget: budget,
            },
            launch,
            last_addr: 0,
        }
    }

    pub(crate) fn trip_error(&self) -> SimError {
        match self.trip {
            TripKind::Watchdog { reported_budget } => SimError::WatchdogTimeout {
                budget: reported_budget,
                launch: self.launch,
            },
            TripKind::MemFault => SimError::MemFault {
                addr: self.last_addr,
                launch: self.launch,
            },
        }
    }
}

/// Executes one warp through the whole work function.
pub(crate) fn run_warp(
    ctx: &WarpCtx<'_>,
    st: &mut WarpState,
    mem: &mut DeviceMemory,
    stats: &mut InstanceStats,
    limits: &mut ExecLimits,
) -> Result<()> {
    st.reset(ctx.prog);
    let mask: Mask = u32::MAX >> (32 - ctx.active);
    let mut exec = Exec {
        ctx,
        st,
        mem,
        stats,
        limits,
        n: ctx.active as usize,
        all: mask,
        peek_slots: 0,
    };
    exec.block(&ctx.prog.body, mask)
}

/// `dst[l] = f(a[l])` over the first `n` lanes.
#[inline(always)]
fn map1(regs: &mut [Lanes], n: usize, dst: Reg, a: Reg, f: impl Fn(u32) -> u32) {
    let a = regs[a as usize];
    for (d, &a) in regs[dst as usize][..n].iter_mut().zip(&a[..n]) {
        *d = f(a);
    }
}

/// `dst[l] = f(a[l], b[l])` over the first `n` lanes.
#[inline(always)]
fn map2(regs: &mut [Lanes], n: usize, dst: Reg, a: Reg, b: Reg, f: impl Fn(u32, u32) -> u32) {
    let (a, b) = (regs[a as usize], regs[b as usize]);
    let d = &mut regs[dst as usize][..n];
    for ((d, &a), &b) in d.iter_mut().zip(&a[..n]).zip(&b[..n]) {
        *d = f(a, b);
    }
}

#[inline(always)]
fn float(bits: u32) -> f32 {
    f32::from_bits(bits)
}

/// Scalar semantics are `streamir::ir::interp::eval_unary`'s, on raw bits.
fn unary(regs: &mut [Lanes], n: usize, op: UnOp, ty: ElemTy, dst: Reg, a: Reg) {
    use {ElemTy::*, UnOp::*};
    match (op, ty) {
        (Neg, I32) => map1(regs, n, dst, a, |v| (v as i32).wrapping_neg() as u32),
        (Neg, F32) => map1(regs, n, dst, a, |v| (-float(v)).to_bits()),
        (Not, _) => map1(regs, n, dst, a, |v| !v),
        (Abs, I32) => map1(regs, n, dst, a, |v| (v as i32).wrapping_abs() as u32),
        (Abs, F32) => map1(regs, n, dst, a, |v| float(v).abs().to_bits()),
        (Sin, _) => map1(regs, n, dst, a, |v| float(v).sin().to_bits()),
        (Cos, _) => map1(regs, n, dst, a, |v| float(v).cos().to_bits()),
        (Sqrt, _) => map1(regs, n, dst, a, |v| float(v).sqrt().to_bits()),
        (Floor, _) => map1(regs, n, dst, a, |v| float(v).floor().to_bits()),
        (ToF32, _) => map1(regs, n, dst, a, |v| (v as i32 as f32).to_bits()),
        (ToI32, _) => map1(regs, n, dst, a, |v| (float(v) as i32) as u32),
    }
}

/// Scalar semantics are `streamir::ir::interp::eval_binary`'s, on raw
/// bits, for every operator that cannot trap.
fn binary(regs: &mut [Lanes], n: usize, op: BinOp, ty: ElemTy, dst: Reg, a: Reg, b: Reg) {
    use BinOp::*;
    macro_rules! int {
        (|$x:ident, $y:ident| $e:expr) => {
            map2(regs, n, dst, a, b, |$x, $y| {
                let ($x, $y) = ($x as i32, $y as i32);
                ($e) as u32
            })
        };
    }
    macro_rules! flt {
        (|$x:ident, $y:ident| $e:expr) => {
            map2(regs, n, dst, a, b, |$x, $y| {
                let ($x, $y) = (float($x), float($y));
                $e
            })
        };
    }
    match ty {
        ElemTy::I32 => match op {
            Add => int!(|x, y| x.wrapping_add(y)),
            Sub => int!(|x, y| x.wrapping_sub(y)),
            Mul => int!(|x, y| x.wrapping_mul(y)),
            And => int!(|x, y| x & y),
            Or => int!(|x, y| x | y),
            Xor => int!(|x, y| x ^ y),
            Shl => int!(|x, y| x.wrapping_shl(y as u32)),
            Shr => int!(|x, y| x.wrapping_shr(y as u32)),
            Ushr => int!(|x, y| (x as u32).wrapping_shr(y as u32)),
            Eq => int!(|x, y| x == y),
            Ne => int!(|x, y| x != y),
            Lt => int!(|x, y| x < y),
            Le => int!(|x, y| x <= y),
            Gt => int!(|x, y| x > y),
            Ge => int!(|x, y| x >= y),
            Min => int!(|x, y| x.min(y)),
            Max => int!(|x, y| x.max(y)),
            Div | Rem => unreachable!("integer division is executed under the mask"),
        },
        ElemTy::F32 => match op {
            Add => flt!(|x, y| (x + y).to_bits()),
            Sub => flt!(|x, y| (x - y).to_bits()),
            Mul => flt!(|x, y| (x * y).to_bits()),
            Div => flt!(|x, y| (x / y).to_bits()),
            Eq => flt!(|x, y| u32::from(x == y)),
            Ne => flt!(|x, y| u32::from(x != y)),
            Lt => flt!(|x, y| u32::from(x < y)),
            Le => flt!(|x, y| u32::from(x <= y)),
            Gt => flt!(|x, y| u32::from(x > y)),
            Ge => flt!(|x, y| u32::from(x >= y)),
            Min => flt!(|x, y| x.min(y).to_bits()),
            Max => flt!(|x, y| x.max(y).to_bits()),
            Rem | And | Or | Xor | Shl | Shr | Ushr => {
                unreachable!("the decoder rejects integer-only operators on f32")
            }
        },
    }
}

impl Exec<'_> {
    #[inline]
    fn issue(&mut self, n: u64) {
        self.stats.warp_instructions += n;
        self.limits.remaining = self.limits.remaining.saturating_sub(n);
    }

    /// The active lanes' addresses for one channel access where lane `l`
    /// touches token ordinal `counts[l]` (`+ depth[l]` for a peek) of its
    /// firing: generated in bulk when the warp agrees on the ordinal, per
    /// lane from [`BufferBinding::addr`] when it does not — inside a
    /// divergent arm, where the lanes of the other arm are ahead or behind.
    fn gather(
        &self,
        binding: &BufferBinding,
        mask: Mask,
        counts: &Lanes,
        depth: Option<&Lanes>,
    ) -> WarpAddrs {
        let tid0 = self.ctx.lane0_tid;
        let first = mask.trailing_zeros() as usize;
        let ordinal = |l: usize| u64::from(counts[l]) + depth.map_or(0, |d| u64::from(d[l]));
        let uniform = counts[..self.n].iter().all(|&c| c == counts[0])
            && depth.is_none_or(|d| lanes(mask).all(|l| d[l] == d[first]));
        if uniform {
            return binding.warp_addrs(tid0, ordinal(first), mask);
        }
        let mut addrs = WarpAddrs::new();
        for l in lanes(mask) {
            addrs.push(l as u32, binding.addr(tid0 + l as u32, ordinal(l)));
        }
        addrs
    }

    /// Bills one warp-wide channel access at the given per-lane addresses
    /// and records its last address as the fault-detection site. Recorded
    /// *before* the access commits, so a tripped launch never writes the
    /// word it reports.
    fn channel_access(&mut self, addrs: &WarpAddrs) {
        self.issue(1);
        if self.ctx.shared_staging {
            self.stats.shared_accesses += 1;
            self.stats.bank_conflict_passes += bank_conflict_degree(addrs, SHARED_BANKS);
        } else {
            self.stats.mem_access_insts += 1;
            self.stats.mem_transactions +=
                count_transactions(addrs, self.ctx.half_warp, self.ctx.txn_words);
        }
        if let Some(&(_, addr)) = addrs.last() {
            self.limits.last_addr = addr;
        }
    }

    fn state_addr(&mut self, id: u32, what: &str) -> Result<u64> {
        let base = self
            .ctx
            .state_base
            .ok_or_else(|| trap(format!("state {what} without a state buffer")))?;
        let addr = u64::from(base) + u64::from(id);
        self.limits.last_addr = addr;
        Ok(addr)
    }

    /// Evaluates `e` for the warp, billing its issue slots once and its
    /// peek sites warp-wide. Returns the register holding the value,
    /// meaningful in the lanes of `mask`.
    fn eval(&mut self, e: &DExpr, mask: Mask) -> Result<Reg> {
        let prog = self.ctx.prog;
        self.issue(e.issue);
        self.stats.mem_access_insts += e.access_insts;
        self.stats.mem_transactions += e.transactions;
        for op in &prog.ops[e.ops.start as usize..e.ops.end as usize] {
            self.op(op, mask)?;
        }
        let stale = u64::from(self.peek_slots.saturating_sub(e.peeks));
        self.issue(stale);
        if self.ctx.shared_staging {
            self.stats.shared_accesses += stale;
        } else {
            self.stats.mem_access_insts += stale;
        }
        self.peek_slots = self.peek_slots.max(e.peeks);
        Ok(e.out)
    }

    fn op(&mut self, op: &Op, mask: Mask) -> Result<()> {
        let n = self.n;
        match *op {
            Op::Const { dst, bits } => self.st.regs[dst as usize][..n].fill(bits),
            Op::Unary { op, ty, dst, a } => unary(&mut self.st.regs, n, op, ty, dst, a),
            Op::Binary {
                op: op @ (BinOp::Div | BinOp::Rem),
                ty: ElemTy::I32,
                dst,
                a,
                b,
            } => {
                // The reference interpreter's own scalar op, for its trap.
                let (a, b) = (self.st.regs[a as usize], self.st.regs[b as usize]);
                let d = &mut self.st.regs[dst as usize];
                for l in lanes(mask) {
                    let (x, y) = (Scalar::I32(a[l] as i32), Scalar::I32(b[l] as i32));
                    let v = interp::eval_binary(op, x, y).map_err(|e| trap(e.to_string()))?;
                    d[l] = v.to_bits();
                }
            }
            Op::Binary { op, ty, dst, a, b } => binary(&mut self.st.regs, n, op, ty, dst, a, b),
            Op::Peek { dst, port, depth } => {
                let p = usize::from(port);
                let (depth, pops) = (self.st.regs[depth as usize], self.st.pops[p]);
                if let Some(l) = lanes(mask).find(|&l| (depth[l] as i32) < 0) {
                    return Err(trap(format!("negative peek depth {}", depth[l] as i32)));
                }
                let addrs = self.gather(&self.ctx.inputs[p], mask, &pops, Some(&depth));
                self.channel_access(&addrs);
                let d = &mut self.st.regs[dst as usize];
                for &(l, addr) in addrs.iter() {
                    d[l as usize] = self.mem.read(addr)?;
                }
            }
            Op::LoadArr {
                dst,
                ref rows,
                index,
            } => {
                let index = self.st.regs[index as usize];
                for l in lanes(mask) {
                    let row = array_row(rows, index[l], "load")?;
                    self.st.regs[dst as usize][l] = self.st.arrays[row][l];
                }
            }
            Op::LoadTable {
                dst,
                ref words,
                index,
            } => {
                let table = &self.ctx.prog.table_words[words.start as usize..words.end as usize];
                let index = self.st.regs[index as usize];
                let d = &mut self.st.regs[dst as usize];
                for l in lanes(mask) {
                    let i = index[l] as i32;
                    let word = usize::try_from(i).ok().and_then(|i| table.get(i));
                    d[l] =
                        *word.ok_or_else(|| trap(format!("table load index {i} out of bounds")))?;
                }
            }
            Op::LoadState { dst, id } => {
                let addr = self.state_addr(id, "access")?;
                let bits = self.mem.read(addr)?;
                let d = &mut self.st.regs[dst as usize];
                lanes(mask).for_each(|l| d[l] = bits);
            }
        }
        Ok(())
    }

    fn block(&mut self, stmts: &[DStmt], mask: Mask) -> Result<()> {
        if mask == 0 {
            return Ok(());
        }
        for s in stmts {
            self.stmt(s, mask)?;
        }
        Ok(())
    }

    /// `regs[dst][l] = src[l]` in the lanes of `mask`.
    fn assign(&mut self, dst: Reg, mask: Mask, src: &Lanes) {
        let d = &mut self.st.regs[dst as usize];
        if mask == self.all {
            d[..self.n].copy_from_slice(&src[..self.n]);
        } else {
            lanes(mask).for_each(|l| d[l] = src[l]);
        }
    }

    fn stmt(&mut self, s: &DStmt, mask: Mask) -> Result<()> {
        // Watchdog: the budget decrements as instructions issue and is
        // checked here, at statement boundaries, so a tripped launch stops
        // between statements — writes so far persist, nothing is half-done.
        if self.limits.remaining == 0 {
            return Err(self.limits.trip_error());
        }
        match s {
            DStmt::Assign { dst, value } => {
                let v = self.eval(value, mask)?;
                self.issue(1);
                let v = self.st.regs[v as usize];
                self.assign(*dst, mask, &v);
            }
            DStmt::StoreState { id, value } => {
                let v = self.eval(value, mask)?;
                let addr = self.state_addr(*id, "store")?;
                self.issue(1);
                self.stats.mem_access_insts += 1;
                self.stats.mem_transactions += 1;
                // Stateful filters run single-lane; the last active lane's
                // value wins, matching sequential semantics.
                for l in lanes(mask) {
                    self.mem.write(addr, self.st.regs[v as usize][l])?;
                }
            }
            DStmt::Store { rows, index, value } => {
                let index = self.eval(index, mask)?;
                let value = self.eval(value, mask)?;
                self.issue(1);
                if self.ctx.prog.arrays_in_local_memory {
                    self.stats.mem_access_insts += 1;
                    self.stats.mem_transactions += 2;
                }
                let (index, value) = (self.st.regs[index as usize], self.st.regs[value as usize]);
                for l in lanes(mask) {
                    let row = array_row(rows, index[l], "store")?;
                    self.st.arrays[row][l] = value[l];
                }
            }
            DStmt::Pop { port, dst } => {
                let p = usize::from(*port);
                let pops = self.st.pops[p];
                let addrs = self.gather(&self.ctx.inputs[p], mask, &pops, None);
                self.issue(1); // address arithmetic
                self.channel_access(&addrs);
                for &(l, addr) in addrs.iter() {
                    let bits = self.mem.read(addr)?;
                    self.st.pops[p][l as usize] += 1;
                    if let Some(dst) = dst {
                        self.st.regs[*dst as usize][l as usize] = bits;
                    }
                }
            }
            DStmt::Push { port, value } => {
                let v = self.eval(value, mask)?;
                let p = usize::from(*port);
                let pushes = self.st.pushes[p];
                let addrs = self.gather(&self.ctx.outputs[p], mask, &pushes, None);
                self.issue(1);
                self.channel_access(&addrs);
                for &(l, addr) in addrs.iter() {
                    self.mem.write(addr, self.st.regs[v as usize][l as usize])?;
                    self.st.pushes[p][l as usize] += 1;
                }
            }
            DStmt::For { var, lo, hi, body } => {
                for i in *lo..*hi {
                    self.issue(1); // induction update + branch
                    self.assign(*var, mask, &[i as u32; WARP_LANES]);
                    self.block(body, mask)?;
                }
            }
            DStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, mask)?;
                self.issue(1); // the branch itself
                let c = &self.st.regs[c as usize];
                let taken = lanes(mask).fold(0, |t, l| t | u32::from(c[l] != 0) << l);
                let not_taken = mask & !taken;
                if taken != 0 && not_taken != 0 {
                    self.stats.divergent_branches += 1;
                }
                self.block(then_body, taken)?;
                self.block(else_body, not_taken)?;
            }
            DStmt::Invalid(why) => return Err(trap(why.clone())),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use streamir::ir::{BinOp, ElemTy, Expr, FnBuilder, Stmt, Table, WorkFunction};

    use crate::mem::count_transactions;
    use crate::{
        BlockWork, BufferBinding, DeviceConfig, Gpu, InstanceExec, Kernel, LaunchStats, Layout,
        SimError,
    };

    /// One `i32 -> i32` instance of `threads` lanes over `input`: the
    /// launch's result and the output buffer afterwards.
    struct Run {
        result: crate::Result<LaunchStats>,
        out: Vec<i32>,
        input: BufferBinding,
    }

    fn run(wf: &WorkFunction, threads: u32, input: &[i32], layout: Layout, staged: bool) -> Run {
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let in_tokens = input.len() as u32;
        let out_tokens = (threads * wf.push_rate(0)).max(1);
        let inp = gpu.alloc_tokens(in_tokens);
        let out = gpu.alloc_tokens(out_tokens + 32);
        let pop = wf.pop_rate(0);
        for (i, &v) in input.iter().enumerate() {
            let slot = layout.slot(i as u64, pop.max(1), u64::from(in_tokens));
            gpu.memory_mut()
                .write(u64::from(inp) + slot, v as u32)
                .unwrap();
        }
        let binding = BufferBinding::whole(inp, in_tokens, ElemTy::I32, layout, pop);
        let kernel = Kernel::load(wf);
        let launch = crate::Launch {
            threads_per_block: threads,
            regs_per_thread: 32,
            blocks: vec![BlockWork {
                items: vec![InstanceExec {
                    kernel: &kernel,
                    active_threads: threads,
                    inputs: vec![binding.clone()],
                    outputs: vec![BufferBinding::whole(
                        out,
                        out_tokens,
                        ElemTy::I32,
                        Layout::Sequential,
                        wf.push_rate(0),
                    )],
                    shared_staging: staged,
                    state_base: None,
                    label: None,
                }],
            }],
            sm_offset: 0,
        };
        let result = gpu.run(&launch);
        let out = (0..out_tokens + 32)
            .map(|i| gpu.memory().read(u64::from(out + i)).unwrap() as i32)
            .collect();
        Run {
            result,
            out,
            input: binding,
        }
    }

    fn trap_message(r: &Run) -> &str {
        match &r.result {
            Err(SimError::Trap(m)) => m,
            other => panic!("expected a trap, got {other:?}"),
        }
    }

    fn builder() -> (FnBuilder, streamir::ir::LocalId) {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        (f, x)
    }

    #[test]
    fn division_by_zero_traps_on_active_lanes_only() {
        // Guarded: lanes holding a zero sit out the arm that divides, yet
        // the unmasked operands of the division still hold their zero.
        let (mut f, x) = builder();
        let y = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.if_else(
            Expr::local(x).ne(Expr::i32(0)),
            vec![Stmt::Assign(y, Expr::i32(100).div(Expr::local(x)))],
            vec![Stmt::Assign(
                y,
                Expr::i32(7).rem(Expr::local(x).add(Expr::i32(1))),
            )],
        );
        f.push(0, Expr::local(y));
        let input: Vec<i32> = (0..32).map(|i| i % 3).collect();
        let r = run(&f.build().unwrap(), 32, &input, Layout::Sequential, false);
        assert_eq!(r.result.as_ref().unwrap().divergent_branches, 1);
        for (i, &v) in input.iter().enumerate() {
            assert_eq!(r.out[i], if v != 0 { 100 / v } else { 0 }, "lane {i}");
        }

        // Unguarded: the same zero on an active lane traps.
        for (op, msg) in [
            (
                BinOp::Div,
                "work function trapped: integer division by zero",
            ),
            (
                BinOp::Rem,
                "work function trapped: integer remainder by zero",
            ),
        ] {
            let (mut f, x) = builder();
            f.pop_into(0, x);
            f.push(0, Expr::i32(100).binary(op, Expr::local(x)));
            let r = run(&f.build().unwrap(), 32, &input, Layout::Sequential, false);
            assert_eq!(trap_message(&r), msg);
        }
    }

    #[test]
    fn negative_peek_depth_and_out_of_bounds_indices_trap() {
        // `3 % 3 - 1`: the validator bounds it to [-1, 1] and lets it
        // through; at run time it is -1.
        let (mut f, _) = builder();
        let depth = Expr::i32(3).rem(Expr::i32(3)).sub(Expr::i32(1));
        f.push(0, Expr::peek(0, depth));
        f.pop(0);
        let input: Vec<i32> = (0..32).collect();
        let r = run(&f.build().unwrap(), 32, &input, Layout::Sequential, false);
        assert_eq!(trap_message(&r), "negative peek depth -1");

        let (mut f, x) = builder();
        let a = f.array(ElemTy::I32, 4);
        f.pop_into(0, x);
        f.push(0, Expr::load(a, Expr::local(x)));
        let r = run(&f.build().unwrap(), 32, &input, Layout::Sequential, false);
        assert_eq!(trap_message(&r), "array load index 4 out of bounds");

        let (mut f, x) = builder();
        let a = f.array(ElemTy::I32, 4);
        f.pop_into(0, x);
        f.store(a, Expr::local(x).sub(Expr::i32(1)), Expr::i32(0));
        f.push(0, Expr::local(x));
        let r = run(&f.build().unwrap(), 32, &input, Layout::Sequential, false);
        assert_eq!(trap_message(&r), "array store index -1 out of bounds");

        let (mut f, x) = builder();
        let t = f.table(Table::i32(&[1, 2, 3]));
        f.pop_into(0, x);
        f.push(0, Expr::table(t, Expr::local(x)));
        let r = run(&f.build().unwrap(), 32, &input, Layout::Sequential, false);
        assert_eq!(trap_message(&r), "table load index 3 out of bounds");
    }

    #[test]
    fn trap_precedence_is_op_major() {
        // `100 / x + t[y]`: lane 0 would trap at the table load, lane 1
        // at the division before it. A lane-by-lane walk reports lane 0's
        // trap; this core reports the earlier op's.
        let (mut f, x) = builder();
        let y = f.local(ElemTy::I32);
        let t = f.table(Table::i32(&[1, 2, 3]));
        f.pop_into(0, x);
        f.pop_into(0, y);
        let e = Expr::i32(100)
            .div(Expr::local(x))
            .add(Expr::table(t, Expr::local(y)));
        f.push(0, e);
        let mut input = vec![1i32; 64];
        (input[0], input[1]) = (1, 99);
        (input[2], input[3]) = (0, 0);
        let r = run(&f.build().unwrap(), 32, &input, Layout::Sequential, false);
        assert_eq!(
            trap_message(&r),
            "work function trapped: integer division by zero"
        );
    }

    #[test]
    fn divergent_arms_that_pop_gather_per_lane() {
        // Even lanes pop in the first arm, so inside the second arm the
        // warp's pop ordinals differ: the bulk generator does not apply
        // and every address comes from `BufferBinding::addr`.
        let (mut f, x) = builder();
        let y = f.local(ElemTy::I32);
        let pops = |a, b| {
            vec![
                Stmt::Pop {
                    port: 0,
                    dst: Some(a),
                },
                Stmt::Pop {
                    port: 0,
                    dst: Some(b),
                },
            ]
        };
        f.if_else(
            Expr::peek(0, Expr::i32(0))
                .bitand(Expr::i32(1))
                .eq(Expr::i32(0)),
            pops(x, y),
            pops(y, x),
        );
        f.push(0, Expr::local(x).sub(Expr::local(y)));
        let wf = f.build().unwrap();
        let input: Vec<i32> = (0..64).map(|i| i / 2 + 100 * (i % 2)).collect();
        let layout = Layout::Transposed { group: 4 };
        let r = run(&wf, 32, &input, layout, false);
        let stats = r.result.as_ref().unwrap();
        assert_eq!(stats.divergent_branches, 1);
        for t in 0..32usize {
            let (first, second) = (input[2 * t], input[2 * t + 1]);
            let want = if t % 2 == 0 {
                first - second
            } else {
                second - first
            };
            assert_eq!(r.out[t], want, "lane {t}");
        }
        // One peek by all lanes, then each arm's two pops by its half.
        let access = |lanes: &[u32], n: u64| {
            let addrs: Vec<_> = lanes.iter().map(|&l| (l, r.input.addr(l, n))).collect();
            count_transactions(&addrs, 16, 16)
        };
        let all: Vec<u32> = (0..32).collect();
        let even: Vec<u32> = (0..32).step_by(2).collect();
        let odd: Vec<u32> = (1..32).step_by(2).collect();
        let push = 2;
        let want = access(&all, 0)
            + access(&even, 0)
            + access(&even, 1)
            + access(&odd, 0)
            + access(&odd, 1)
            + push;
        assert_eq!(stats.mem_transactions, want);
    }

    #[test]
    fn partial_warps_touch_only_their_lanes() {
        // Peek, pop and push with a sliding window, so the bulk
        // generator runs on 1-, 16- and 31-lane tails.
        let (mut f, x) = builder();
        f.pop_into(0, x);
        f.push(0, Expr::local(x).add(Expr::peek(0, Expr::i32(0))));
        let wf = f.build().unwrap();
        for tail in [1u32, 16, 31] {
            let threads = 32 + tail;
            let input: Vec<i32> = (0..=threads as i32).map(|i| i * i).collect();
            let r = run(&wf, threads, &input, Layout::Sequential, false);
            let stats = r.result.as_ref().unwrap();
            for t in 0..threads as usize {
                assert_eq!(r.out[t], input[t] + input[t + 1], "tail {tail} lane {t}");
            }
            assert!(r.out[threads as usize..].iter().all(|&w| w == 0));
            // Per warp: pop, peek, push. The pops and pushes of a full or
            // 16-lane-aligned group coalesce; the peek window is off by
            // one word and serializes.
            let groups = |lanes: u32| u64::from(lanes.div_ceil(16));
            let coalesced = 2 * (groups(32) + groups(tail));
            assert_eq!(stats.mem_transactions, coalesced + u64::from(threads));
            assert_eq!(stats.mem_access_insts, 6);
        }
    }

    #[test]
    fn stale_peek_slots_are_rebilled() {
        // DESIGN.md §18's known deviation, pinned at its source. The
        // first statement gathers three peek sites; the `Push` after it
        // gathers none, and pays for three empty ones.
        let (mut f, x) = builder();
        let window = Expr::peek(0, Expr::i32(0))
            .add(Expr::peek(0, Expr::i32(1)))
            .add(Expr::peek(0, Expr::i32(2)));
        f.assign(x, window); // 3 literals + 3 address ops + 2 adds + 3 accesses + 1
        f.pop(0); // 1 + 1 access
        f.push(0, Expr::local(x)); // 3 stale accesses + 1 + 1 access
        let wf = f.build().unwrap();
        let input: Vec<i32> = (0..34).collect();
        for staged in [false, true] {
            let r = run(&wf, 32, &input, Layout::Sequential, staged);
            let stats = r.result.unwrap();
            // Staging adds its bulk copy: (32·3 + 32) tokens / 32 lanes.
            let copy = if staged { 4 } else { 0 };
            assert_eq!(stats.warp_instructions, 12 + 2 + 5 + copy);
            let accesses = if staged {
                stats.shared_accesses
            } else {
                stats.mem_access_insts
            };
            assert_eq!(accesses, 3 + 1 + 4);
            assert_eq!(r.out[5], 5 + 6 + 7);
        }
    }
}
