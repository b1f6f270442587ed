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
//! [`crate::Kernel`] ([`Program::decode`]), into flat register ops whose
//! operators are resolved against their operand types ([`Bin`], [`Un`])
//! and whose literal operands are immediates ([`Src::Imm`]), and each op
//! then executes across the whole warp on structure-of-arrays registers
//! (one `[u32; 32]` of raw bits per local or temporary). Ops that cannot
//! trap run unmasked over
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
    access_sites_in, interp, ArrayId, BinOp, ElemTy, Expr, LocalId, Scalar, Stmt, UnOp,
    WorkFunction,
};

use crate::layout::{AffineRun, BufferBinding, WarpAccess, WarpGeometry, WARP_LANES};
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

/// One register (or per-lane counter, or scratch-array element) across
/// the warp: raw 32-bit values, lane-indexed.
type Lanes = [u32; WARP_LANES];

/// Index into a warp's register file: locals first, then temporaries.
pub(crate) type Reg = u32;

type Mask = u32;

/// A binary op's operand: a register, or an immediate — a literal folded
/// into its consumer at decode, the same bits in every lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    Reg(Reg),
    Imm(u32),
}

/// A unary operator resolved against its operand type at decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Un {
    INeg,
    FNeg,
    Not,
    IAbs,
    FAbs,
    Sin,
    Cos,
    Sqrt,
    Floor,
    ToF32,
    ToI32,
}

impl Un {
    /// The opcode of `op` on a `ty` operand, and its result type.
    fn of(op: UnOp, ty: ElemTy) -> Option<(Un, ElemTy)> {
        use {ElemTy::*, UnOp::*};
        Some(match (op, ty) {
            (Neg, I32) => (Un::INeg, I32),
            (Neg, F32) => (Un::FNeg, F32),
            (Not, I32) => (Un::Not, I32),
            (Abs, I32) => (Un::IAbs, I32),
            (Abs, F32) => (Un::FAbs, F32),
            (Sin, F32) => (Un::Sin, F32),
            (Cos, F32) => (Un::Cos, F32),
            (Sqrt, F32) => (Un::Sqrt, F32),
            (Floor, F32) => (Un::Floor, F32),
            (ToF32, I32) => (Un::ToF32, F32),
            (ToI32, F32) => (Un::ToI32, I32),
            _ => return None,
        })
    }
}

/// A binary operator resolved against its operand type at decode: 17
/// integer and 12 float opcodes. Integer `Div` and `Rem`, the operators
/// that trap, are [`Op::DivRem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bin {
    IAdd,
    ISub,
    IMul,
    IAnd,
    IOr,
    IXor,
    IShl,
    IShr,
    IUshr,
    IEq,
    INe,
    ILt,
    ILe,
    IGt,
    IGe,
    IMin,
    IMax,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FEq,
    FNe,
    FLt,
    FLe,
    FGt,
    FGe,
    FMin,
    FMax,
}

impl Bin {
    /// The opcode of `op` on `ty` operands; `None` for integer `Div` and
    /// `Rem` and for integer-only operators on `f32`.
    fn of(op: BinOp, ty: ElemTy) -> Option<Bin> {
        use BinOp::*;
        Some(match ty {
            ElemTy::I32 => match op {
                Add => Bin::IAdd,
                Sub => Bin::ISub,
                Mul => Bin::IMul,
                And => Bin::IAnd,
                Or => Bin::IOr,
                Xor => Bin::IXor,
                Shl => Bin::IShl,
                Shr => Bin::IShr,
                Ushr => Bin::IUshr,
                Eq => Bin::IEq,
                Ne => Bin::INe,
                Lt => Bin::ILt,
                Le => Bin::ILe,
                Gt => Bin::IGt,
                Ge => Bin::IGe,
                Min => Bin::IMin,
                Max => Bin::IMax,
                Div | Rem => return None,
            },
            ElemTy::F32 => match op {
                Add => Bin::FAdd,
                Sub => Bin::FSub,
                Mul => Bin::FMul,
                Div => Bin::FDiv,
                Eq => Bin::FEq,
                Ne => Bin::FNe,
                Lt => Bin::FLt,
                Le => Bin::FLe,
                Gt => Bin::FGt,
                Ge => Bin::FGe,
                Min => Bin::FMin,
                Max => Bin::FMax,
                Rem | And | Or | Xor | Shl | Shr | Ushr => return None,
            },
        })
    }
}

/// One flat register op of a decoded expression, its operator already
/// resolved against its operand type.
#[derive(Debug)]
pub(crate) enum Op {
    Const {
        dst: Reg,
        bits: u32,
    },
    Peek {
        dst: Reg,
        port: u8,
        depth: Reg,
        site: u32,
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
        op: Un,
        dst: Reg,
        a: Reg,
    },
    Binary {
        op: Bin,
        dst: Reg,
        a: Src,
        b: Src,
    },
    /// Integer `Div` (`Rem`): executed under the mask, a zero divisor in
    /// an active lane traps.
    DivRem {
        op: BinOp,
        dst: Reg,
        a: Src,
        b: Src,
    },
}

/// A decoded expression: a run of [`Program::ops`] leaving its value in
/// `out`, and what one warp-wide evaluation bills besides its peeks.
#[derive(Debug)]
pub(crate) struct DExpr {
    pub(crate) ops: Range<u32>,
    pub(crate) out: Reg,
    /// Issue slots of every node (literals, ALU and SFU ops, index and
    /// address arithmetic, state and local-array accesses).
    pub(crate) issue: u64,
    /// Device access instructions of state loads and local-memory arrays.
    access_insts: u64,
    /// Their transactions (one line per state load, two per array access).
    transactions: u64,
    /// Peek sites: each bills one channel access when evaluated.
    pub(crate) peeks: u32,
}

/// A decoded statement. `site` is the access site's index in
/// [`streamir::ir::access_sites`] order.
#[derive(Debug)]
pub(crate) enum DStmt {
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
        site: u32,
    },
    Push {
        port: u8,
        value: DExpr,
        site: u32,
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
    pub(crate) body: Vec<DStmt>,
    pub(crate) ops: Vec<Op>,
    /// Registers a warp needs: the locals plus the deepest temporary.
    pub(crate) regs: usize,
    /// Rows of per-lane scratch-array storage (one per array element).
    pub(crate) array_rows: usize,
    /// Scratch arrays exceed [`REG_ARRAY_WORDS`]: each access is also a
    /// local-memory access instruction.
    pub(crate) arrays_in_local_memory: bool,
    /// Every table's contents as raw bits, back to back.
    pub(crate) table_words: Vec<u32>,
}

struct Decoder<'a> {
    wf: &'a WorkFunction,
    ops: Vec<Op>,
    regs: usize,
    array_rows: Vec<Range<u32>>,
    table_words: Vec<Range<u32>>,
    arrays_in_local_memory: bool,
    /// The next access site's index.
    site: u32,
}

/// Why a statement could not be decoded (becomes [`DStmt::Invalid`]).
type Decoded<T> = std::result::Result<T, String>;

fn i32_only(ty: ElemTy, what: &str) -> Decoded<()> {
    match ty {
        ElemTy::I32 => Ok(()),
        ElemTy::F32 => Err(format!("{what} must be i32, found {ty}")),
    }
}

/// A literal's bits and type.
fn literal(e: &Expr) -> Option<(u32, ElemTy)> {
    match *e {
        Expr::I32(v) => Some((v as u32, ElemTy::I32)),
        Expr::F32(v) => Some((v.to_bits(), ElemTy::F32)),
        _ => None,
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
            site: 0,
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
        }
    }
}

impl Decoder<'_> {
    fn block(&mut self, stmts: &[Stmt]) -> Vec<DStmt> {
        stmts
            .iter()
            .map(|s| {
                let (mark, site) = (self.ops.len(), self.site);
                self.stmt(s).unwrap_or_else(|why| {
                    // Later sites keep their index: skip this one's.
                    self.ops.truncate(mark);
                    self.site = site + access_sites_in(std::slice::from_ref(s)).len() as u32;
                    DStmt::Invalid(why)
                })
            })
            .collect()
    }

    /// Numbers the site being decoded.
    fn next_site(&mut self) -> u32 {
        self.site += 1;
        self.site - 1
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
                    site: self.next_site(),
                }
            }
            Stmt::Push { port, value } => {
                if usize::from(*port) >= self.wf.output_ports().len() {
                    return Err(format!("undeclared output port {port}"));
                }
                let value = self.top(value, t0)?.0;
                DStmt::Push {
                    port: *port,
                    value,
                    site: self.next_site(),
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

    /// Decodes an operand of a binary op. A literal becomes an immediate
    /// and emits no op (its issue slot is still billed); anything else is
    /// computed into a register, using temporaries from `t` up.
    fn operand(&mut self, e: &Expr, t: Reg, cost: &mut DExpr) -> Decoded<(Src, ElemTy)> {
        match literal(e) {
            Some((bits, ty)) => {
                cost.issue += 1;
                Ok((Src::Imm(bits), ty))
            }
            None => self.expr(e, t, cost).map(|(r, ty)| (Src::Reg(r), ty)),
        }
    }

    /// Emits the ops computing `e`, using temporaries from `t` up, and
    /// returns the register holding the value (`t`, or a local's own
    /// register) with the value's type.
    fn expr(&mut self, e: &Expr, t: Reg, cost: &mut DExpr) -> Decoded<(Reg, ElemTy)> {
        self.regs = self.regs.max(t as usize + 1);
        let (op, ty) = match e {
            Expr::Local(l) => return self.local(*l),
            Expr::I32(_) | Expr::F32(_) => {
                let (bits, ty) = literal(e).expect("a literal");
                cost.issue += 1;
                (Op::Const { dst: t, bits }, ty)
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
                        site: self.next_site(),
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
                cost.issue += if op.is_transcendental() {
                    TRANSCENDENTAL_ISSUE
                } else {
                    1
                };
                let (op, out) = Un::of(*op, ty)
                    .ok_or_else(|| format!("unary {op:?} applied to {ty} operand"))?;
                (Op::Unary { op, dst: t, a }, out)
            }
            Expr::Binary(op, lhs, rhs) => {
                let (a, ty) = self.operand(lhs, t, cost)?;
                let b_at = if a == Src::Reg(t) { t + 1 } else { t };
                let (b, rty) = self.operand(rhs, b_at, cost)?;
                if ty != rty {
                    return Err(format!("binary {op:?} applied to mixed-type operands"));
                }
                cost.issue += 1;
                let out = if op.is_comparison() { ElemTy::I32 } else { ty };
                let dst = t;
                let op = match (*op, ty) {
                    (op @ (BinOp::Div | BinOp::Rem), ElemTy::I32) => Op::DivRem { op, dst, a, b },
                    (op, ty) => Op::Binary {
                        op: Bin::of(op, ty)
                            .ok_or_else(|| format!("{op:?} applied to f32 operands"))?,
                        dst,
                        a,
                        b,
                    },
                };
                (op, out)
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
    /// Per input (output) port: its geometry and the tokens each lane
    /// has popped (pushed) so far.
    pops: Vec<PortState>,
    pushes: Vec<PortState>,
    /// The channel access being executed; each one refills it.
    access: WarpAccess,
}

impl WarpState {
    /// Points the ports at an instance's bindings, for its first warp.
    pub(crate) fn bind(&mut self, inputs: &[BufferBinding], outputs: &[BufferBinding]) {
        for (v, bindings) in [(&mut self.pops, inputs), (&mut self.pushes, outputs)] {
            v.clear();
            v.extend(bindings.iter().map(|b| PortState {
                geometry: b.geometry(0),
                counts: PortCounts::ZERO,
            }));
        }
    }

    /// Moves every port on to the instance's next warp, `lanes` threads
    /// further.
    pub(crate) fn next_warp(&mut self, lanes: u32) {
        for port in self.pops.iter_mut().chain(&mut self.pushes) {
            port.geometry.next_warp(lanes);
        }
    }

    fn reset(&mut self, prog: &Program) {
        for (v, len) in [
            (&mut self.regs, prog.regs),
            (&mut self.arrays, prog.array_rows),
        ] {
            v.clear();
            v.resize(len, [0; WARP_LANES]);
        }
        for port in self.pops.iter_mut().chain(&mut self.pushes) {
            port.counts = PortCounts::ZERO;
        }
    }
}

/// One port of the warp: where its lanes' tokens live, and how far each
/// lane has got.
struct PortState {
    geometry: WarpGeometry,
    counts: PortCounts,
}

/// Tokens each lane has moved through one port so far.
#[derive(Clone, Copy)]
struct PortCounts {
    lanes: Lanes,
    /// Every lane of the warp holds the same count: no pop or push has
    /// run on the port under a partial mask. Lanes that catch up again
    /// stay flagged as disagreeing, which only costs the bulk addresses.
    agree: bool,
}

impl PortCounts {
    const ZERO: PortCounts = PortCounts {
        lanes: [0; WARP_LANES],
        agree: true,
    };

    /// One more token in each lane of `mask`; `all` is the warp's lanes.
    fn advance(&mut self, mask: Mask, all: Mask) {
        if mask == all {
            self.lanes.iter_mut().for_each(|c| *c += 1);
        } else {
            self.agree = false;
            lanes(mask).for_each(|l| self.lanes[l] += 1);
        }
    }
}

/// A work function's input or output port.
#[derive(Clone, Copy)]
enum Port {
    In(usize),
    Out(usize),
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
    /// The most peek sites any one evaluation of this warp has gathered
    /// ([`stale_peeks`]).
    peek_slots: u32,
}

/// The stale-peek rule, a known deviation (DESIGN.md §18.5) that both
/// walks bill by: a warp's peek gather slots are cleared, not dropped, so
/// an evaluation of `peeks` sites re-bills the empty slots an earlier one
/// left — one access instruction each, with no transactions. `slots` is
/// the warp's high-water mark; returns the stale slots.
pub(crate) fn stale_peeks(slots: &mut u32, peeks: u32) -> u32 {
    let stale = slots.saturating_sub(peeks);
    *slots = (*slots).max(peeks);
    stale
}

/// Integer `Div` or `Rem` on raw bits: the reference interpreter's own
/// scalar op, for its trap.
pub(crate) fn int_div(op: BinOp, a: u32, b: u32) -> streamir::Result<u32> {
    let (x, y) = (Scalar::I32(a as i32), Scalar::I32(b as i32));
    interp::eval_binary(op, x, y).map(Scalar::to_bits)
}

pub(crate) fn trap(msg: impl Into<String>) -> SimError {
    SimError::Trap(msg.into())
}

/// The storage row of the element a lane indexes in the array at `rows`.
pub(crate) fn array_row(rows: &Range<u32>, index: u32, access: &str) -> Result<usize> {
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

/// Register `dst` for writing beside register `src` for reading; they
/// must differ.
#[inline(always)]
pub(crate) fn pair<const L: usize>(
    regs: &mut [[u32; L]],
    dst: Reg,
    src: Reg,
) -> (&mut [u32; L], &[u32; L]) {
    let (dst, src) = (dst as usize, src as usize);
    if dst < src {
        let (lo, hi) = regs.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = regs.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    }
}

/// `dst[l] = f(a[l])` over the first `n` lanes, in place when `a` is
/// `dst`.
#[inline(always)]
fn map1<const L: usize>(regs: &mut [[u32; L]], n: usize, dst: Reg, a: Reg, f: impl Fn(u32) -> u32) {
    if a == dst {
        regs[dst as usize][..n].iter_mut().for_each(|d| *d = f(*d));
    } else {
        let (d, a) = pair(regs, dst, a);
        for (d, &a) in d[..n].iter_mut().zip(&a[..n]) {
            *d = f(a);
        }
    }
}

/// `dst[l] = f(a[l], b[l])` over the first `n` lanes, an immediate
/// operand holding its bits in every lane.
#[inline(always)]
fn map2<const L: usize>(
    regs: &mut [[u32; L]],
    n: usize,
    dst: Reg,
    a: Src,
    b: Src,
    f: impl Fn(u32, u32) -> u32,
) {
    match (a, b) {
        (Src::Reg(a), Src::Imm(y)) => map1(regs, n, dst, a, |x| f(x, y)),
        (Src::Imm(x), Src::Reg(b)) => map1(regs, n, dst, b, |y| f(x, y)),
        (Src::Imm(x), Src::Imm(y)) => regs[dst as usize][..n].fill(f(x, y)),
        // The decoder puts at most one operand in `dst`.
        (Src::Reg(a), Src::Reg(b)) if a == dst => {
            let (d, y) = pair(regs, dst, b);
            for (d, &y) in d[..n].iter_mut().zip(&y[..n]) {
                *d = f(*d, y);
            }
        }
        (Src::Reg(a), Src::Reg(b)) if b == dst => {
            let (d, x) = pair(regs, dst, a);
            for (d, &x) in d[..n].iter_mut().zip(&x[..n]) {
                *d = f(x, *d);
            }
        }
        (Src::Reg(a), Src::Reg(b)) => {
            let y = regs[b as usize];
            let (d, x) = pair(regs, dst, a);
            for ((d, &x), &y) in d[..n].iter_mut().zip(&x[..n]).zip(&y[..n]) {
                *d = f(x, y);
            }
        }
    }
}

#[inline(always)]
fn float(bits: u32) -> f32 {
    f32::from_bits(bits)
}

/// Scalar semantics are `streamir::ir::interp::eval_unary`'s, on raw bits,
/// over registers of `L` lanes (a warp's, or one constant's).
pub(crate) fn unary<const L: usize>(regs: &mut [[u32; L]], n: usize, op: Un, dst: Reg, a: Reg) {
    use Un::*;
    match op {
        INeg => map1(regs, n, dst, a, |v| (v as i32).wrapping_neg() as u32),
        FNeg => map1(regs, n, dst, a, |v| (-float(v)).to_bits()),
        Not => map1(regs, n, dst, a, |v| !v),
        IAbs => map1(regs, n, dst, a, |v| (v as i32).wrapping_abs() as u32),
        FAbs => map1(regs, n, dst, a, |v| float(v).abs().to_bits()),
        Sin => map1(regs, n, dst, a, |v| float(v).sin().to_bits()),
        Cos => map1(regs, n, dst, a, |v| float(v).cos().to_bits()),
        Sqrt => map1(regs, n, dst, a, |v| float(v).sqrt().to_bits()),
        Floor => map1(regs, n, dst, a, |v| float(v).floor().to_bits()),
        ToF32 => map1(regs, n, dst, a, |v| (v as i32 as f32).to_bits()),
        ToI32 => map1(regs, n, dst, a, |v| (float(v) as i32) as u32),
    }
}

/// Scalar semantics are `streamir::ir::interp::eval_binary`'s, on raw
/// bits, over registers of `L` lanes, for every opcode that cannot trap
/// ([`int_div`] has the rest).
pub(crate) fn binary<const L: usize>(
    regs: &mut [[u32; L]],
    n: usize,
    op: Bin,
    dst: Reg,
    a: Src,
    b: Src,
) {
    use Bin::*;
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
    match op {
        IAdd => int!(|x, y| x.wrapping_add(y)),
        ISub => int!(|x, y| x.wrapping_sub(y)),
        IMul => int!(|x, y| x.wrapping_mul(y)),
        IAnd => int!(|x, y| x & y),
        IOr => int!(|x, y| x | y),
        IXor => int!(|x, y| x ^ y),
        IShl => int!(|x, y| x.wrapping_shl(y as u32)),
        IShr => int!(|x, y| x.wrapping_shr(y as u32)),
        IUshr => int!(|x, y| (x as u32).wrapping_shr(y as u32)),
        IEq => int!(|x, y| x == y),
        INe => int!(|x, y| x != y),
        ILt => int!(|x, y| x < y),
        ILe => int!(|x, y| x <= y),
        IGt => int!(|x, y| x > y),
        IGe => int!(|x, y| x >= y),
        IMin => int!(|x, y| x.min(y)),
        IMax => int!(|x, y| x.max(y)),
        FAdd => flt!(|x, y| (x + y).to_bits()),
        FSub => flt!(|x, y| (x - y).to_bits()),
        FMul => flt!(|x, y| (x * y).to_bits()),
        FDiv => flt!(|x, y| (x / y).to_bits()),
        FEq => flt!(|x, y| u32::from(x == y)),
        FNe => flt!(|x, y| u32::from(x != y)),
        FLt => flt!(|x, y| u32::from(x < y)),
        FLe => flt!(|x, y| u32::from(x <= y)),
        FGt => flt!(|x, y| u32::from(x > y)),
        FGe => flt!(|x, y| u32::from(x >= y)),
        FMin => flt!(|x, y| x.min(y).to_bits()),
        FMax => flt!(|x, y| x.max(y).to_bits()),
    }
}

impl Exec<'_> {
    #[inline]
    fn issue(&mut self, n: u64) {
        self.stats.warp_instructions += n;
        self.limits.remaining = self.limits.remaining.saturating_sub(n);
    }

    /// Gathers one warp-wide channel access into the warp state's
    /// [`WarpAccess`], bills it, and records its last address as the
    /// fault-detection site. Recorded *before* the access commits, so a
    /// tripped launch never writes the word it reports.
    ///
    /// Lane `l` touches token ordinal `counts[l]` (`+ depth[l]` for a
    /// peek) of its firing. The addresses come in runs from the port's
    /// [`WarpGeometry`] when the warp agrees on the ordinal, one lane at a
    /// time from [`BufferBinding::addr`] when it does not — inside a
    /// divergent arm, where the lanes of the other arm are ahead or
    /// behind.
    fn channel_access(&mut self, port: Port, mask: Mask, depth: Option<Reg>) {
        let st = &mut *self.st;
        let (binding, PortState { geometry, counts }) = match port {
            Port::In(p) => (&self.ctx.inputs[p], &st.pops[p]),
            Port::Out(p) => (&self.ctx.outputs[p], &st.pushes[p]),
        };
        let depth = depth.map(|r| &st.regs[r as usize]);
        let (tid0, first) = (self.ctx.lane0_tid, mask.trailing_zeros() as usize);
        let ordinal = |l: usize| u64::from(counts.lanes[l]) + depth.map_or(0, |d| u64::from(d[l]));
        // A depth that varies only in masked-off lanes takes the one-lane
        // path, which is only a missed shortcut.
        let n = self.n;
        if counts.agree && depth.is_none_or(|d| d[..n].iter().all(|&v| v == d[0])) {
            geometry.access(ordinal(first), mask, &mut st.access);
        } else {
            st.access.clear();
            for l in lanes(mask) {
                let addr = binding.addr(tid0 + l as u32, ordinal(l));
                st.access.push(AffineRun {
                    lane: l as u32,
                    lanes: 1,
                    addr,
                    stride: 0,
                });
            }
        }
        self.issue(1);
        let access = &self.st.access;
        if self.ctx.shared_staging {
            self.stats.shared_accesses += 1;
            self.stats.bank_conflict_passes += bank_conflict_degree(access);
        } else {
            self.stats.mem_access_insts += 1;
            self.stats.mem_transactions +=
                count_transactions(access, self.ctx.half_warp, self.ctx.txn_words);
        }
        if let Some(run) = access.last() {
            self.limits.last_addr = run.last_addr();
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
        let stale = u64::from(stale_peeks(&mut self.peek_slots, e.peeks));
        self.issue(stale);
        if self.ctx.shared_staging {
            self.stats.shared_accesses += stale;
        } else {
            self.stats.mem_access_insts += stale;
        }
        Ok(e.out)
    }

    /// The lanes of an operand: a register's, or an immediate's bits in
    /// every lane.
    fn operand(&self, s: Src) -> Lanes {
        match s {
            Src::Reg(r) => self.st.regs[r as usize],
            Src::Imm(bits) => [bits; WARP_LANES],
        }
    }

    /// `index` holds one value in every lane the warp has: an indexed
    /// load is one row move.
    fn uniform(&self, index: &Lanes) -> bool {
        index[..self.n].iter().all(|&i| i == index[0])
    }

    fn op(&mut self, op: &Op, mask: Mask) -> Result<()> {
        let n = self.n;
        match *op {
            Op::Const { dst, bits } => self.st.regs[dst as usize][..n].fill(bits),
            Op::Unary { op, dst, a } => unary(&mut self.st.regs, n, op, dst, a),
            Op::Binary { op, dst, a, b } => binary(&mut self.st.regs, n, op, dst, a, b),
            Op::DivRem { op, dst, a, b } => {
                let (a, b) = (self.operand(a), self.operand(b));
                let d = &mut self.st.regs[dst as usize];
                for l in lanes(mask) {
                    d[l] = int_div(op, a[l], b[l]).map_err(|e| trap(e.to_string()))?;
                }
            }
            Op::Peek {
                dst, port, depth, ..
            } => {
                let d = &self.st.regs[depth as usize];
                let negative = |v: u32| (v as i32) < 0;
                if d[..n].iter().any(|&v| negative(v)) {
                    if let Some(l) = lanes(mask).find(|&l| negative(d[l])) {
                        return Err(trap(format!("negative peek depth {}", d[l] as i32)));
                    }
                }
                self.channel_access(Port::In(usize::from(port)), mask, Some(depth));
                let st = &mut *self.st;
                for run in st.access.iter() {
                    self.mem
                        .read_run(run, &mut st.regs[dst as usize][run.lane_range()])?;
                }
            }
            Op::LoadArr {
                dst,
                ref rows,
                index,
            } => {
                let index = self.st.regs[index as usize];
                let uniform = self.uniform(&index);
                let st = &mut *self.st;
                if uniform {
                    let row = array_row(rows, index[0], "load")?;
                    st.regs[dst as usize][..n].copy_from_slice(&st.arrays[row][..n]);
                } else {
                    for l in lanes(mask) {
                        let row = array_row(rows, index[l], "load")?;
                        st.regs[dst as usize][l] = st.arrays[row][l];
                    }
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
                // An index is in bounds iff it is below the length as an
                // unsigned word: a negative one wraps far above it.
                if index[..n].iter().all(|&i| (i as usize) < table.len()) {
                    for (d, &i) in d[..n].iter_mut().zip(&index[..n]) {
                        *d = table[i as usize];
                    }
                } else {
                    for l in lanes(mask) {
                        let i = index[l] as i32;
                        let word = usize::try_from(i).ok().and_then(|i| table.get(i));
                        d[l] = *word
                            .ok_or_else(|| trap(format!("table load index {i} out of bounds")))?;
                    }
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
                // A row move writes every lane: only under a full mask.
                if mask == self.all && self.uniform(&index) {
                    let row = array_row(rows, index[0], "store")?;
                    self.st.arrays[row][..self.n].copy_from_slice(&value[..self.n]);
                } else {
                    for l in lanes(mask) {
                        let row = array_row(rows, index[l], "store")?;
                        self.st.arrays[row][l] = value[l];
                    }
                }
            }
            DStmt::Pop { port, dst, .. } => {
                let p = usize::from(*port);
                self.issue(1); // address arithmetic
                self.channel_access(Port::In(p), mask, None);
                let st = &mut *self.st;
                for run in st.access.iter() {
                    match dst {
                        Some(d) => self
                            .mem
                            .read_run(run, &mut st.regs[*d as usize][run.lane_range()])?,
                        None => self.mem.check_run(run)?,
                    }
                }
                st.pops[p].counts.advance(mask, self.all);
            }
            DStmt::Push { port, value, .. } => {
                let v = self.eval(value, mask)?;
                let p = usize::from(*port);
                self.issue(1);
                self.channel_access(Port::Out(p), mask, None);
                let st = &mut *self.st;
                for run in st.access.iter() {
                    self.mem
                        .write_run(run, &st.regs[v as usize][run.lane_range()])?;
                }
                st.pushes[p].counts.advance(mask, self.all);
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
                let taken = (c[..self.n].iter().enumerate())
                    .fold(0, |t, (l, &c)| t | u32::from(c != 0) << l)
                    & mask;
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
    use streamir::ir::{
        interp, BinOp, ElemTy, Expr, FnBuilder, Scalar, Stmt, Table, UnOp, WorkFunction,
    };

    use super::{Bin, DExpr, DStmt, Op, Program, Src, Un};
    use crate::mem::count_transactions;
    use crate::{
        AffineRun, BlockWork, BufferBinding, DeviceConfig, Gpu, InstanceExec, Kernel, LaunchStats,
        Layout, SimError,
    };

    /// One single-port instance of `threads` lanes over `input`: the
    /// launch's result and the output buffer afterwards. Tokens are raw
    /// bits, read as `i32`.
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
        let binding = BufferBinding::whole(inp, in_tokens, wf.input_ports()[0], layout, pop);
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
                        wf.output_ports()[0],
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
    fn indices_out_of_bounds_in_lanes_that_sit_out_do_not_trap() {
        // The lanes holding 3 or 4 sit the arm out, and their indices are
        // out of bounds for the table (3) and the array (4). The slice
        // checks see them, the masked fallback must not report them; the
        // literal index is one row even under the partial mask.
        let (mut f, x) = builder();
        let y = f.local(ElemTy::I32);
        let a = f.array(ElemTy::I32, 4);
        let t = f.table(Table::i32(&[10, 20, 30]));
        f.pop_into(0, x);
        for k in 0..4 {
            f.store(a, Expr::i32(k), Expr::i32(100 * k));
        }
        f.if_else(
            Expr::local(x).lt(Expr::i32(3)),
            vec![Stmt::Assign(
                y,
                Expr::table(t, Expr::local(x))
                    .add(Expr::load(a, Expr::local(x)))
                    .add(Expr::load(a, Expr::i32(1))),
            )],
            vec![Stmt::Assign(y, Expr::i32(-1))],
        );
        f.push(0, Expr::local(y));
        let input: Vec<i32> = (0..32).map(|i| i % 5).collect();
        let r = run(&f.build().unwrap(), 32, &input, Layout::Sequential, false);
        assert_eq!(r.result.as_ref().unwrap().divergent_branches, 1);
        for (i, &v) in input.iter().enumerate() {
            let want = if v < 3 {
                10 * (v + 1) + 100 * v + 100
            } else {
                -1
            };
            assert_eq!(r.out[i], want, "lane {i}");
        }
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
            let runs: Vec<_> = (lanes.iter())
                .map(|&l| AffineRun {
                    lane: l,
                    lanes: 1,
                    addr: r.input.addr(l, n),
                    stride: 0,
                })
                .collect();
            count_transactions(&runs, 16, 16)
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

    /// Edge operands of each type, as raw bits.
    fn edges(ty: ElemTy) -> Vec<u32> {
        match ty {
            ElemTy::I32 => [i32::MIN, -1, 0, 1, 31, 32, 33, i32::MAX]
                .map(|v| v as u32)
                .to_vec(),
            ElemTy::F32 => [
                f32::NAN,
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::from_bits(1), // the smallest subnormal
                1.5,
                -2.0,
            ]
            .map(f32::to_bits)
            .to_vec(),
        }
    }

    fn literal(ty: ElemTy, bits: u32) -> Expr {
        match ty {
            ElemTy::I32 => Expr::i32(bits as i32),
            ElemTy::F32 => Expr::f32(f32::from_bits(bits)),
        }
    }

    fn scalar(ty: ElemTy, bits: u32) -> Scalar {
        match ty {
            ElemTy::I32 => Scalar::I32(bits as i32),
            ElemTy::F32 => Scalar::F32(f32::from_bits(bits)),
        }
    }

    const BINARY: [BinOp; 19] = {
        use BinOp::*;
        [
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Ushr, Eq, Ne, Lt, Le, Gt, Ge, Min, Max,
        ]
    };

    /// Runs `results` (expressions over locals `x` and `y` popped per
    /// lane) for each lane of `lanes` (`[x, y]` operand pairs), inside an
    /// `if` taken by the lanes `sel` picks, and checks every pushed value
    /// against `want` — 0 in the lanes that sat the arm out.
    fn differential(
        ty: ElemTy,
        out_ty: ElemTy,
        lanes: &[[u32; 2]],
        sel: impl Fn(usize) -> bool,
        results: impl Fn(Expr, Expr) -> Vec<Expr>,
        want: impl Fn(usize, [u32; 2]) -> u32,
    ) {
        let mut f = FnBuilder::new(&[ty], &[out_ty]);
        let (x, y, s) = (f.local(ty), f.local(ty), f.local(ty));
        let exprs = results(Expr::local(x), Expr::local(y));
        let outs: Vec<_> = exprs.iter().map(|_| f.local(out_ty)).collect();
        for l in [x, y, s] {
            f.pop_into(0, l);
        }
        let assigns = (outs.iter().zip(exprs))
            .map(|(&o, e)| Stmt::Assign(o, e))
            .collect();
        f.if_else(Expr::local(s).ne(literal(ty, 0)), assigns, vec![]);
        for &o in &outs {
            f.push(0, Expr::local(o));
        }
        let wf = f.build().unwrap();
        let one = match ty {
            ElemTy::I32 => 1,
            ElemTy::F32 => 1f32.to_bits(),
        };
        let input: Vec<i32> = (lanes.iter().enumerate())
            .flat_map(|(l, &[a, b])| [a, b, if sel(l) { one } else { 0 }])
            .map(|bits| bits as i32)
            .collect();
        let r = run(&wf, lanes.len() as u32, &input, Layout::Sequential, false);
        if let Err(e) = &r.result {
            panic!("{e}");
        }
        for (l, &pair) in lanes.iter().enumerate() {
            for k in 0..outs.len() {
                let got = r.out[l * outs.len() + k] as u32;
                let want = if sel(l) { want(k, pair) } else { 0 };
                assert_eq!(got, want, "lane {l} result {k} operands {pair:x?}");
            }
        }
    }

    #[test]
    fn flat_opcodes_match_the_reference_interpreter() {
        // Every opcode in every operand form — register/register,
        // register/immediate, immediate/register and immediate/immediate
        // — under a full mask and a partial one, against the reference
        // interpreter's scalar semantics.
        let mut flat = Vec::new();
        for ty in [ElemTy::I32, ElemTy::F32] {
            for op in BINARY {
                let division = ty == ElemTy::I32 && matches!(op, BinOp::Div | BinOp::Rem);
                match Bin::of(op, ty) {
                    Some(bin) => flat.push(bin),
                    None if division => {}
                    None => continue,
                }
                // No active lane may divide by zero.
                let usable = |v: u32| !division || v != 0;
                let imms: Vec<u32> = edges(ty).into_iter().filter(|&v| usable(v)).collect();
                let pairs: Vec<[u32; 2]> = (edges(ty).into_iter())
                    .flat_map(|a| edges(ty).into_iter().map(move |b| [a, b]))
                    .collect();
                let results = |x: Expr, y: Expr| {
                    let mut v = vec![x.clone().binary(op, y.clone())];
                    for &imm in &imms {
                        let imm = literal(ty, imm);
                        v.push(x.clone().binary(op, imm.clone()));
                        v.push(imm.clone().binary(op, y.clone()));
                        v.push(imm.clone().binary(op, imm));
                    }
                    v
                };
                let eval = |a, b| {
                    let v = interp::eval_binary(op, scalar(ty, a), scalar(ty, b));
                    v.unwrap().to_bits()
                };
                // Result 0 is `x op y`; then three per immediate, in the
                // order `results` builds them.
                let want = |k: usize, [a, b]: [u32; 2]| {
                    if k == 0 {
                        return eval(a, b);
                    }
                    let imm = imms[(k - 1) / 3];
                    match (k - 1) % 3 {
                        0 => eval(a, imm),
                        1 => eval(imm, b),
                        _ => eval(imm, imm),
                    }
                };
                let out_ty = if op.is_comparison() { ElemTy::I32 } else { ty };
                let full: Vec<_> = pairs.iter().copied().filter(|&[_, b]| usable(b)).collect();
                differential(ty, out_ty, &full, |_| true, results, want);
                let partial = |l: usize| l % 3 != 1 && usable(pairs[l][1]);
                differential(ty, out_ty, &pairs, partial, results, want);
            }
        }
        assert_eq!(flat.len(), 17 + 12);
    }

    #[test]
    fn unary_opcodes_match_the_reference_interpreter() {
        use UnOp::*;
        let mut flat = Vec::new();
        for ty in [ElemTy::I32, ElemTy::F32] {
            for op in [Neg, Not, Sin, Cos, Sqrt, Abs, Floor, ToF32, ToI32] {
                let Some((un, out_ty)) = Un::of(op, ty) else {
                    continue;
                };
                flat.push(un);
                let imms = edges(ty);
                let lanes: Vec<[u32; 2]> = (0..4).flat_map(|_| edges(ty)).map(|v| [v, 0]).collect();
                let results = |x: Expr, _| {
                    let mut v = vec![x.unary(op)];
                    v.extend(imms.iter().map(|&imm| literal(ty, imm).unary(op)));
                    v
                };
                let eval = |a| interp::eval_unary(op, scalar(ty, a)).unwrap().to_bits();
                let want = |k: usize, [a, _]: [u32; 2]| eval(if k == 0 { a } else { imms[k - 1] });
                differential(ty, out_ty, &lanes, |_| true, results, want);
                differential(ty, out_ty, &lanes, |l| l % 3 != 1, results, want);
            }
        }
        assert_eq!(flat.len(), 11);
    }

    #[test]
    fn a_literal_zero_divisor_traps_with_the_reference_message() {
        for op in [BinOp::Div, BinOp::Rem] {
            let reference = interp::eval_binary(op, Scalar::I32(7), Scalar::I32(0));
            let (mut f, x) = builder();
            f.pop_into(0, x);
            f.push(0, Expr::local(x).binary(op, Expr::i32(0)));
            let input: Vec<i32> = (1..=32).collect();
            let r = run(&f.build().unwrap(), 32, &input, Layout::Sequential, false);
            assert_eq!(trap_message(&r), reference.unwrap_err().to_string());
        }
    }

    /// The ops of `value` in the first statement of `wf`'s body.
    fn first_value_ops(wf: &WorkFunction) -> Vec<String> {
        let program = Program::decode(wf);
        let value = match &program.body[0] {
            DStmt::Assign { value, .. } | DStmt::Push { value, .. } => value,
            other => panic!("{other:?}"),
        };
        let ops = &program.ops[value.ops.start as usize..value.ops.end as usize];
        ops.iter().map(|op| format!("{op:?}")).collect()
    }

    #[test]
    fn a_literal_consumed_by_a_binary_op_emits_no_op() {
        let (mut f, x) = builder();
        f.push(0, Expr::local(x).shl(Expr::i32(3)).bitand(Expr::i32(255)));
        let ops = first_value_ops(&f.build().unwrap());
        assert_eq!(
            ops,
            [
                "Binary { op: IShl, dst: 1, a: Reg(0), b: Imm(3) }",
                "Binary { op: IAnd, dst: 1, a: Reg(1), b: Imm(255) }",
            ]
        );
        // Literals on both sides fold into one op; a literal under a
        // unary op stays a `Const`.
        let (mut f, _) = builder();
        f.push(0, Expr::i32(3).sub(Expr::i32(1)).add(Expr::i32(4).neg()));
        let ops = first_value_ops(&f.build().unwrap());
        assert_eq!(
            ops,
            [
                "Binary { op: ISub, dst: 1, a: Imm(3), b: Imm(1) }",
                "Const { dst: 2, bits: 4 }",
                "Unary { op: INeg, dst: 2, a: 2 }",
                "Binary { op: IAdd, dst: 1, a: Reg(1), b: Reg(2) }",
            ]
        );
    }

    /// The bills of every decoded expression in `body`: issue slots,
    /// access instructions, transactions and peek sites.
    fn bills(body: &[DStmt], sum: &mut [u64; 4]) {
        fn add(sum: &mut [u64; 4], e: &DExpr) {
            let bill = [e.issue, e.access_insts, e.transactions, u64::from(e.peeks)];
            sum.iter_mut().zip(bill).for_each(|(s, b)| *s += b);
        }
        for s in body {
            match s {
                DStmt::Assign { value, .. }
                | DStmt::StoreState { value, .. }
                | DStmt::Push { value, .. } => add(sum, value),
                DStmt::Store { index, value, .. } => {
                    add(sum, index);
                    add(sum, value);
                }
                DStmt::For { body, .. } => bills(body, sum),
                DStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    add(sum, cond);
                    bills(then_body, sum);
                    bills(else_body, sum);
                }
                DStmt::Pop { .. } | DStmt::Invalid(_) => {}
            }
        }
    }

    #[test]
    fn expression_bills_are_still_summed_from_the_tree() {
        // Folding a literal removes its op, not its issue slot: the bills
        // of every suite kernel, summed per graph, are the ones decoded
        // before literals were folded.
        let known: [(&str, [u64; 4]); 8] = [
            ("Bitonic", [48, 0, 0, 0]),
            ("BitonicRec", [48, 0, 0, 0]),
            ("DCT", [128, 0, 0, 0]),
            ("DES", [13076, 0, 0, 0]),
            ("FFT", [1614, 12, 24, 12]),
            ("Filterbank", [138, 0, 0, 16]),
            ("FMRadio", [144, 0, 0, 23]),
            ("MatrixMult", [40, 0, 0, 8]),
        ];
        let suite = streambench::suite();
        assert_eq!(suite.len(), known.len());
        for (b, (name, want)) in suite.iter().zip(known) {
            assert_eq!(b.name, name);
            let mut sum = [0; 4];
            for node in b.spec.flatten().unwrap().nodes() {
                let program = Program::decode(&node.work);
                bills(&program.body, &mut sum);
                // `map2` relies on it: at most one operand is the result.
                let both_dst = |op: &Op| match *op {
                    Op::Binary { dst, a, b, .. } => a == Src::Reg(dst) && b == Src::Reg(dst),
                    _ => false,
                };
                assert!(!program.ops.iter().any(both_dst), "{name}");
            }
            assert_eq!(sum, want, "{name}");
        }
    }
}
