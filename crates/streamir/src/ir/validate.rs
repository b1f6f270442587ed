//! Validation and static analysis of work functions.
//!
//! The analysis walks the statement list abstractly but *exactly*: `for`
//! loops are analysed once per iteration with the induction variable bound
//! to its concrete value (trip counts are compile-time constants, so this
//! terminates and mirrors dynamic execution). This makes pop/push counts and
//! peek depths exact, which is exactly the static-rate contract synchronous
//! dataflow scheduling needs. The only approximation is at data-dependent
//! `if`s, whose arms are required to have identical channel rates (as in
//! StreamIt) and whose op census is taken as the element-wise maximum of the
//! two arms.

use std::collections::HashMap;

use crate::{Error, Result};

use super::{BinOp, ElemTy, Expr, LocalId, Stmt, UnOp, WorkFunction};

/// Per-input-port channel rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortRates {
    /// Tokens consumed per firing.
    pub pop: u32,
    /// Deepest FIFO position touched per firing (`pops-before + depth + 1`
    /// maximised over all peeks); `0` if the port never peeks.
    pub peek: u32,
}

/// Static operation census of one firing (worst case over `if` arms).
///
/// Used for the CPU cycle model's static sanity checks and for quick
/// work-size diagnostics; the executors additionally count dynamically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCensus {
    /// Plain ALU operations (arithmetic, logic, comparisons, conversions).
    pub alu: u64,
    /// Special-function operations (sin, cos, sqrt).
    pub transcendental: u64,
    /// Channel reads (pops + peeks).
    pub channel_reads: u64,
    /// Channel writes (pushes).
    pub channel_writes: u64,
    /// Scratch-array loads and stores.
    pub array_ops: u64,
    /// Constant-table loads.
    pub table_loads: u64,
    /// Control overhead (loop back-edges, branches).
    pub control: u64,
}

impl OpCensus {
    fn max(self, other: OpCensus) -> OpCensus {
        OpCensus {
            alu: self.alu.max(other.alu),
            transcendental: self.transcendental.max(other.transcendental),
            channel_reads: self.channel_reads.max(other.channel_reads),
            channel_writes: self.channel_writes.max(other.channel_writes),
            array_ops: self.array_ops.max(other.array_ops),
            table_loads: self.table_loads.max(other.table_loads),
            control: self.control.max(other.control),
        }
    }

    /// Total dynamic operations of all classes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.alu
            + self.transcendental
            + self.channel_reads
            + self.channel_writes
            + self.array_ops
            + self.table_loads
            + self.control
    }
}

/// Everything the validator learns about a work function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkInfo {
    /// Rates per input port.
    pub inputs: Vec<PortRates>,
    /// Push count per output port.
    pub outputs: Vec<u32>,
    /// Worst-case op census of one firing.
    pub census: OpCensus,
    /// Estimated registers per thread: a fixed overhead for address
    /// arithmetic plus one per scalar local plus the deepest expression
    /// evaluation stack.
    pub reg_estimate: u32,
    /// Total scratch-array words (spilled to per-thread local memory on the
    /// simulated device).
    pub local_array_words: u32,
    /// `true` if the body contains any `if` (potential warp divergence).
    pub has_branches: bool,
    /// `true` if the function reads or writes persistent state.
    pub has_state: bool,
}

/// Registers reserved for thread/block index and buffer address arithmetic,
/// mirroring the fixed overhead nvcc-generated kernels exhibit.
pub const REG_OVERHEAD: u32 = 6;

/// What a channel-access site does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Consumes one token from an input port.
    Pop,
    /// Reads an input-port token at a depth without consuming.
    Peek,
    /// Produces one token on an output port.
    Push,
}

/// One *syntactic* channel-access site in a work-function body.
///
/// Sites are enumerated in the canonical pre-order of [`access_sites`]; a
/// site inside a loop is still one site (it executes many times). The
/// `ordinal` numbers sites of the same kind and port, so diagnostics can
/// name an access stably ("push\[out0\]#1") across tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessSite {
    /// Pop, peek, or push.
    pub kind: AccessKind,
    /// The input port (pop/peek) or output port (push).
    pub port: u8,
    /// 0-based index among sites with the same kind and port, in
    /// canonical pre-order.
    pub ordinal: u32,
}

impl std::fmt::Display for AccessSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kind, dir) = match self.kind {
            AccessKind::Pop => ("pop", "in"),
            AccessKind::Peek => ("peek", "in"),
            AccessKind::Push => ("push", "out"),
        };
        write!(f, "{kind}[{dir}{}]#{}", self.port, self.ordinal)
    }
}

/// Enumerates every syntactic channel-access site of a work function in
/// canonical pre-order: statements in source order, a `for` body once
/// (syntactic, not unrolled), `if` then-arm before else-arm; within a
/// statement sub-expressions depth-first left-to-right, a peek's depth
/// subtree before the peek itself, and a push's value expression before
/// the push site — the same order the warp interpreter first reaches each
/// site, so consumers can zip their own identical walk against this list.
#[must_use]
pub fn access_sites(wf: &WorkFunction) -> Vec<AccessSite> {
    access_sites_in(&wf.body)
}

/// [`access_sites`] of a statement list on its own, ordinals counted from
/// zero.
#[must_use]
pub fn access_sites_in(stmts: &[Stmt]) -> Vec<AccessSite> {
    let mut sites = Vec::new();
    let mut counters: HashMap<(AccessKind, u8), u32> = HashMap::new();
    let mut emit = |sites: &mut Vec<AccessSite>, kind: AccessKind, port: u8| {
        let ordinal = counters.entry((kind, port)).or_insert(0);
        sites.push(AccessSite {
            kind,
            port,
            ordinal: *ordinal,
        });
        *ordinal += 1;
    };
    fn walk_expr(
        e: &Expr,
        sites: &mut Vec<AccessSite>,
        emit: &mut impl FnMut(&mut Vec<AccessSite>, AccessKind, u8),
    ) {
        match e {
            Expr::Peek { port, depth } => {
                walk_expr(depth, sites, emit);
                emit(sites, AccessKind::Peek, *port);
            }
            Expr::Unary(_, inner) => walk_expr(inner, sites, emit),
            Expr::Binary(_, lhs, rhs) => {
                walk_expr(lhs, sites, emit);
                walk_expr(rhs, sites, emit);
            }
            Expr::LoadArr { index, .. } | Expr::LoadTable { index, .. } => {
                walk_expr(index, sites, emit);
            }
            Expr::I32(_) | Expr::F32(_) | Expr::Local(_) | Expr::LoadState(_) => {}
        }
    }
    fn walk_block(
        stmts: &[Stmt],
        sites: &mut Vec<AccessSite>,
        emit: &mut impl FnMut(&mut Vec<AccessSite>, AccessKind, u8),
    ) {
        for s in stmts {
            match s {
                Stmt::Assign(_, e) | Stmt::StoreState(_, e) => walk_expr(e, sites, emit),
                Stmt::Store { index, value, .. } => {
                    walk_expr(index, sites, emit);
                    walk_expr(value, sites, emit);
                }
                Stmt::Pop { port, .. } => emit(sites, AccessKind::Pop, *port),
                Stmt::Push { port, value } => {
                    walk_expr(value, sites, emit);
                    emit(sites, AccessKind::Push, *port);
                }
                Stmt::For { body, .. } => walk_block(body, sites, emit),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    walk_expr(cond, sites, emit);
                    walk_block(then_body, sites, emit);
                    walk_block(else_body, sites, emit);
                }
            }
        }
    }
    walk_block(stmts, &mut sites, &mut emit);
    sites
}

/// An inclusive integer interval, `None` meaning "unknown".
type Range = Option<(i64, i64)>;

struct Analyzer<'a> {
    wf: &'a WorkFunction,
    /// Pops performed so far per input port (exact along the abstract walk).
    pops: Vec<u32>,
    /// Pushes performed so far per output port.
    pushes: Vec<u32>,
    /// Deepest absolute FIFO index touched per input port.
    peek_need: Vec<u32>,
    census: OpCensus,
    max_expr_depth: u32,
    has_branches: bool,
    /// Values of in-scope loop induction variables.
    loop_vars: HashMap<LocalId, i64>,
}

/// Validates a work function and computes its [`WorkInfo`].
///
/// # Errors
///
/// Returns [`Error::InvalidWork`] for any type error, undeclared reference,
/// non-static rate, loop-variable write, statically out-of-bounds access, or
/// unboundable peek depth.
pub fn validate(wf: &WorkFunction) -> Result<WorkInfo> {
    let mut a = Analyzer {
        wf,
        pops: vec![0; wf.input_ports.len()],
        pushes: vec![0; wf.output_ports.len()],
        peek_need: vec![0; wf.input_ports.len()],
        census: OpCensus::default(),
        max_expr_depth: 0,
        has_branches: false,
        loop_vars: HashMap::new(),
    };
    a.block(&wf.body)?;
    let inputs = a
        .pops
        .iter()
        .zip(&a.peek_need)
        .map(|(&pop, &peek)| PortRates { pop, peek })
        .collect();
    Ok(WorkInfo {
        inputs,
        outputs: a.pushes.clone(),
        census: a.census,
        reg_estimate: REG_OVERHEAD
            + wf.locals.len() as u32
            + wf.states.len() as u32
            + a.max_expr_depth,
        local_array_words: wf.arrays.iter().map(|&(_, len)| len).sum(),
        has_branches: a.has_branches,
        has_state: !wf.states.is_empty(),
    })
}

fn err(msg: impl Into<String>) -> Error {
    Error::InvalidWork(msg.into())
}

impl<'a> Analyzer<'a> {
    fn block(&mut self, stmts: &[Stmt]) -> Result<()> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<()> {
        match s {
            Stmt::Assign(local, e) => {
                if self.loop_vars.contains_key(local) {
                    return Err(err(format!(
                        "assignment to loop induction variable {local:?}"
                    )));
                }
                let lty = self.local_ty(*local)?;
                let (ety, _) = self.expr(e, 0)?;
                if lty != ety {
                    return Err(err(format!(
                        "assignment type mismatch: local {local:?} is {lty}, expression is {ety}"
                    )));
                }
                Ok(())
            }
            Stmt::StoreState(id, e) => {
                let sty = self
                    .wf
                    .states
                    .get(id.0 as usize)
                    .map(|d| d.ty)
                    .ok_or_else(|| err(format!("undeclared state {id:?}")))?;
                let (ety, _) = self.expr(e, 0)?;
                if sty != ety {
                    return Err(err(format!(
                        "state store type mismatch: state is {sty}, expression is {ety}"
                    )));
                }
                self.census.alu += 1;
                Ok(())
            }
            Stmt::Store { arr, index, value } => {
                let (aty, alen) = *self
                    .wf
                    .arrays
                    .get(arr.0 as usize)
                    .ok_or_else(|| err(format!("undeclared array {arr:?}")))?;
                let (ity, irange) = self.expr(index, 0)?;
                if ity != ElemTy::I32 {
                    return Err(err("array index must be i32"));
                }
                check_static_bounds(irange, alen, "array store")?;
                let (vty, _) = self.expr(value, 0)?;
                if vty != aty {
                    return Err(err(format!(
                        "array store type mismatch: array is {aty}, value is {vty}"
                    )));
                }
                self.census.array_ops += 1;
                Ok(())
            }
            Stmt::Pop { port, dst } => {
                let pty = self.input_ty(*port)?;
                if let Some(dst) = dst {
                    if self.loop_vars.contains_key(dst) {
                        return Err(err("pop into loop induction variable"));
                    }
                    let lty = self.local_ty(*dst)?;
                    if lty != pty {
                        return Err(err(format!(
                            "pop type mismatch: port {port} is {pty}, local {dst:?} is {lty}"
                        )));
                    }
                }
                let p = *port as usize;
                self.pops[p] += 1;
                self.peek_need[p] = self.peek_need[p].max(self.pops[p]);
                self.census.channel_reads += 1;
                Ok(())
            }
            Stmt::Push { port, value } => {
                let pty = self.output_ty(*port)?;
                let (vty, _) = self.expr(value, 0)?;
                if vty != pty {
                    return Err(err(format!(
                        "push type mismatch: port {port} is {pty}, value is {vty}"
                    )));
                }
                self.pushes[*port as usize] += 1;
                self.census.channel_writes += 1;
                Ok(())
            }
            Stmt::For { var, lo, hi, body } => {
                let vty = self.local_ty(*var)?;
                if vty != ElemTy::I32 {
                    return Err(err("loop induction variable must be i32"));
                }
                if self.loop_vars.contains_key(var) {
                    return Err(err("loop induction variable reused by nested loop"));
                }
                // Unrolled analysis: exact rates, exact constant folding of
                // expressions over the induction variable.
                for v in *lo..*hi {
                    self.loop_vars.insert(*var, i64::from(v));
                    self.census.control += 1;
                    self.block(body)?;
                }
                self.loop_vars.remove(var);
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let (cty, crange) = self.expr(cond, 0)?;
                if cty != ElemTy::I32 {
                    return Err(err("if condition must be i32"));
                }
                self.has_branches = true;
                self.census.control += 1;
                // If the condition folds to a constant, analyse only the
                // taken arm (common for index-parity filters in loops).
                if let Some((lo, hi)) = crange {
                    if lo == hi {
                        return self.block(if lo != 0 { then_body } else { else_body });
                    }
                }
                let snapshot = (self.pops.clone(), self.pushes.clone(), self.census);
                self.block(then_body)?;
                let then_state = (self.pops.clone(), self.pushes.clone(), self.census);
                self.pops = snapshot.0.clone();
                self.pushes = snapshot.1.clone();
                self.census = snapshot.2;
                self.block(else_body)?;
                if self.pops != then_state.0 {
                    return Err(err(
                        "if arms consume different token counts; rates must be static",
                    ));
                }
                if self.pushes != then_state.1 {
                    return Err(err(
                        "if arms produce different token counts; rates must be static",
                    ));
                }
                self.census = self.census.max(then_state.2);
                Ok(())
            }
        }
    }

    /// Type-checks an expression, returning its type and (for `i32`
    /// expressions) a constant-propagation interval used to bound peek
    /// depths and array indices. `depth` is the current evaluation-stack
    /// depth for the register estimate.
    fn expr(&mut self, e: &Expr, depth: u32) -> Result<(ElemTy, Range)> {
        self.max_expr_depth = self.max_expr_depth.max(depth + 1);
        match e {
            Expr::I32(v) => Ok((ElemTy::I32, Some((i64::from(*v), i64::from(*v))))),
            Expr::F32(_) => Ok((ElemTy::F32, None)),
            Expr::Local(l) => {
                let ty = self.local_ty(*l)?;
                let range = self.loop_vars.get(l).map(|&v| (v, v));
                Ok((ty, range))
            }
            Expr::Peek { port, depth: d } => {
                let pty = self.input_ty(*port)?;
                let (dty, drange) = self.expr(d, depth + 1)?;
                if dty != ElemTy::I32 {
                    return Err(err("peek depth must be i32"));
                }
                let (_, hi) = drange.ok_or_else(|| {
                    err(format!(
                        "peek depth on port {port} is not statically boundable"
                    ))
                })?;
                if hi < 0 {
                    return Err(err("peek depth is negative"));
                }
                let p = *port as usize;
                let need = self.pops[p] as i64 + hi + 1;
                let need = u32::try_from(need).map_err(|_| err("peek depth overflows u32"))?;
                self.peek_need[p] = self.peek_need[p].max(need);
                self.census.channel_reads += 1;
                Ok((pty, None))
            }
            Expr::LoadArr { arr, index } => {
                let (aty, alen) = *self
                    .wf
                    .arrays
                    .get(arr.0 as usize)
                    .ok_or_else(|| err(format!("undeclared array {arr:?}")))?;
                let (ity, irange) = self.expr(index, depth + 1)?;
                if ity != ElemTy::I32 {
                    return Err(err("array index must be i32"));
                }
                check_static_bounds(irange, alen, "array load")?;
                self.census.array_ops += 1;
                Ok((aty, None))
            }
            Expr::LoadTable { table, index } => {
                let t = self
                    .wf
                    .tables
                    .get(table.0 as usize)
                    .ok_or_else(|| err(format!("undeclared table {table:?}")))?;
                let (ity, irange) = self.expr(index, depth + 1)?;
                if ity != ElemTy::I32 {
                    return Err(err("table index must be i32"));
                }
                check_static_bounds(irange, t.len() as u32, "table load")?;
                self.census.table_loads += 1;
                Ok((t.ty, None))
            }
            Expr::LoadState(id) => {
                let sty = self
                    .wf
                    .states
                    .get(id.0 as usize)
                    .map(|d| d.ty)
                    .ok_or_else(|| err(format!("undeclared state {id:?}")))?;
                self.census.alu += 1;
                Ok((sty, None))
            }
            Expr::Unary(op, inner) => {
                let (ity, irange) = self.expr(inner, depth + 1)?;
                if op.is_transcendental() {
                    self.census.transcendental += 1;
                } else {
                    self.census.alu += 1;
                }
                let out = match op {
                    UnOp::Neg => {
                        let r = irange.and_then(|(lo, hi)| in_i32(-hi, -lo));
                        return Ok((ity, if ity == ElemTy::I32 { r } else { None }));
                    }
                    UnOp::Abs => return Ok((ity, None)),
                    UnOp::Not => {
                        if ity != ElemTy::I32 {
                            return Err(err("bitwise not requires i32"));
                        }
                        (ElemTy::I32, None)
                    }
                    UnOp::Sin | UnOp::Cos | UnOp::Sqrt | UnOp::Floor => {
                        if ity != ElemTy::F32 {
                            return Err(err(format!("{op:?} requires f32")));
                        }
                        (ElemTy::F32, None)
                    }
                    UnOp::ToF32 => {
                        if ity != ElemTy::I32 {
                            return Err(err("to_f32 requires i32"));
                        }
                        (ElemTy::F32, None)
                    }
                    UnOp::ToI32 => {
                        if ity != ElemTy::F32 {
                            return Err(err("to_i32 requires f32"));
                        }
                        (ElemTy::I32, None)
                    }
                };
                Ok(out)
            }
            Expr::Binary(op, lhs, rhs) => {
                let (lty, lr) = self.expr(lhs, depth + 1)?;
                let (rty, rr) = self.expr(rhs, depth + 2)?;
                if lty != rty {
                    return Err(err(format!(
                        "binary operand type mismatch: {lty} {op:?} {rty}"
                    )));
                }
                if op.is_integer_only() && lty != ElemTy::I32 {
                    return Err(err(format!("{op:?} requires i32 operands")));
                }
                self.census.alu += 1;
                let out_ty = if op.is_comparison() { ElemTy::I32 } else { lty };
                let range = if lty == ElemTy::I32 {
                    fold_i32(*op, lr, rr)
                } else {
                    None
                };
                Ok((out_ty, range))
            }
        }
    }

    fn local_ty(&self, l: LocalId) -> Result<ElemTy> {
        self.wf
            .locals
            .get(l.0 as usize)
            .copied()
            .ok_or_else(|| err(format!("undeclared local {l:?}")))
    }

    fn input_ty(&self, port: u8) -> Result<ElemTy> {
        self.wf
            .input_ports
            .get(port as usize)
            .copied()
            .ok_or_else(|| err(format!("undeclared input port {port}")))
    }

    fn output_ty(&self, port: u8) -> Result<ElemTy> {
        self.wf
            .output_ports
            .get(port as usize)
            .copied()
            .ok_or_else(|| err(format!("undeclared output port {port}")))
    }
}

/// Rejects accesses the interval analysis proves out of bounds; unknown
/// indices are allowed and checked at run time.
fn check_static_bounds(range: Range, len: u32, what: &str) -> Result<()> {
    if let Some((lo, hi)) = range {
        if hi < 0 || lo >= i64::from(len) {
            return Err(err(format!(
                "{what} index range [{lo}, {hi}] is outside [0, {len})"
            )));
        }
    }
    Ok(())
}

/// Interval arithmetic over `i32` expressions; conservative (`None` when the
/// result cannot be bounded or a bound leaves `i32`, where execution
/// wraps).
fn fold_i32(op: BinOp, l: Range, r: Range) -> Range {
    let (ll, lh) = l?;
    let (rl, rh) = r?;
    let (lo, hi) = match op {
        BinOp::Add => Some((ll.checked_add(rl)?, lh.checked_add(rh)?)),
        BinOp::Sub => Some((ll.checked_sub(rh)?, lh.checked_sub(rl)?)),
        BinOp::Mul => {
            let candidates = [
                ll.checked_mul(rl)?,
                ll.checked_mul(rh)?,
                lh.checked_mul(rl)?,
                lh.checked_mul(rh)?,
            ];
            Some((
                *candidates.iter().min().expect("non-empty"),
                *candidates.iter().max().expect("non-empty"),
            ))
        }
        BinOp::Div if rl == rh && rl != 0 => {
            let candidates = [ll / rl, lh / rl];
            Some((
                *candidates.iter().min().expect("non-empty"),
                *candidates.iter().max().expect("non-empty"),
            ))
        }
        BinOp::Rem if rl == rh && rl > 0 && ll >= 0 => Some((0, (rl - 1).min(lh))),
        BinOp::Min => Some((ll.min(rl), lh.min(rh))),
        BinOp::Max => Some((ll.max(rl), lh.max(rh))),
        BinOp::Shl if rl == rh && (0..31).contains(&rl) && ll >= 0 => {
            Some((ll.checked_shl(rl as u32)?, lh.checked_shl(rl as u32)?))
        }
        BinOp::Shr if rl == rh && (0..31).contains(&rl) && ll >= 0 => Some((ll >> rl, lh >> rl)),
        BinOp::And if rl == rh && rl >= 0 && ll >= 0 => Some((0, rl.min(lh))),
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            // Fold comparisons over disjoint ranges to a constant.
            let always = |b: bool| Some((i64::from(b), i64::from(b)));
            match op {
                BinOp::Lt if lh < rl => always(true),
                BinOp::Lt if ll >= rh => always(false),
                BinOp::Le if lh <= rl => always(true),
                BinOp::Le if ll > rh => always(false),
                BinOp::Gt if ll > rh => always(true),
                BinOp::Gt if lh <= rl => always(false),
                BinOp::Ge if ll >= rh => always(true),
                BinOp::Ge if lh < rl => always(false),
                BinOp::Eq if ll == lh && rl == rh => always(ll == rl),
                BinOp::Eq if lh < rl || ll > rh => always(false),
                BinOp::Ne if ll == lh && rl == rh => always(ll != rl),
                BinOp::Ne if lh < rl || ll > rh => always(true),
                _ => Some((0, 1)),
            }
        }
        _ => None,
    }?;
    in_i32(lo, hi)
}

/// `[lo, hi]`, if neither bound leaves `i32`.
fn in_i32(lo: i64, hi: i64) -> Range {
    let i32_bits = i64::from(i32::MIN)..=i64::from(i32::MAX);
    (i32_bits.contains(&lo) && i32_bits.contains(&hi)).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FnBuilder, Table};

    fn simple_builder() -> FnBuilder {
        FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32])
    }

    #[test]
    fn rates_of_plain_filter() {
        let mut f = simple_builder();
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.push(0, Expr::local(x));
        f.push(0, Expr::local(x).add(Expr::i32(1)));
        let wf = f.build().unwrap();
        assert_eq!(wf.pop_rate(0), 1);
        assert_eq!(wf.push_rate(0), 2);
        assert_eq!(wf.peek_rate(0), 1);
        assert!(!wf.is_peeking());
    }

    #[test]
    fn rates_multiply_through_loops() {
        let mut f = simple_builder();
        f.for_loop(0, 3, |_, _| {
            vec![
                Stmt::Pop { port: 0, dst: None },
                Stmt::Push {
                    port: 0,
                    value: Expr::i32(7),
                },
                Stmt::Push {
                    port: 0,
                    value: Expr::i32(8),
                },
            ]
        });
        let wf = f.build().unwrap();
        assert_eq!(wf.pop_rate(0), 3);
        assert_eq!(wf.push_rate(0), 6);
    }

    #[test]
    fn peek_depth_via_loop_var_is_exact() {
        let mut f = simple_builder();
        f.for_loop(0, 4, |_, i| {
            vec![Stmt::Push {
                port: 0,
                value: Expr::peek(0, Expr::local(i)),
            }]
        });
        f.pop(0);
        let wf = f.build().unwrap();
        assert_eq!(wf.pop_rate(0), 1);
        assert_eq!(wf.peek_rate(0), 4);
        assert!(wf.is_peeking());
    }

    #[test]
    fn peek_after_pop_counts_from_current_head() {
        let mut f = simple_builder();
        f.pop(0);
        f.push(0, Expr::peek(0, Expr::i32(0)));
        let wf = f.build().unwrap();
        // One pop, then peek(0) touches absolute position 2 (1-based).
        assert_eq!(wf.peek_rate(0), 2);
    }

    #[test]
    fn unbounded_peek_rejected() {
        let mut f = simple_builder();
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.push(0, Expr::peek(0, Expr::local(x)));
        let e = f.build().unwrap_err();
        assert!(matches!(e, Error::InvalidWork(ref m) if m.contains("boundable")));
    }

    /// Depths whose value wraps in `i32` are not bounded by their `i64`
    /// value: `-i32::MIN` is `i32::MIN` again, and `65536 · 65536` is 0.
    #[test]
    fn depths_that_wrap_in_i32_are_unbounded() {
        let wrapping = [
            Expr::i32(i32::MIN).neg(),
            Expr::i32(65536).mul(Expr::i32(65536)),
            Expr::i32(65536).mul(Expr::i32(65536)).add(Expr::i32(1)),
        ];
        for depth in wrapping {
            let mut f = simple_builder();
            f.push(0, Expr::peek(0, depth));
            f.pop(0);
            let e = f.build().unwrap_err();
            assert!(
                matches!(e, Error::InvalidWork(ref m) if m.contains("boundable")),
                "{e}"
            );
        }
    }

    #[test]
    fn if_arms_must_match_rates() {
        let mut f = simple_builder();
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.if_else(
            Expr::local(x).gt(Expr::i32(0)),
            vec![Stmt::Push {
                port: 0,
                value: Expr::i32(1),
            }],
            vec![],
        );
        let e = f.build().unwrap_err();
        assert!(matches!(e, Error::InvalidWork(ref m) if m.contains("produce different")));
    }

    #[test]
    fn constant_condition_takes_one_arm() {
        let mut f = simple_builder();
        f.pop(0);
        // for i in 0..2: if i == 0 { push 1 } else { push 2; push 3 } — rates
        // differ per arm but the condition is constant inside the unrolled
        // analysis, so this is accepted and total push = 1 + 2 = 3.
        f.for_loop(0, 2, |_, i| {
            vec![Stmt::if_else(
                Expr::local(i).eq(Expr::i32(0)),
                vec![Stmt::Push {
                    port: 0,
                    value: Expr::i32(1),
                }],
                vec![
                    Stmt::Push {
                        port: 0,
                        value: Expr::i32(2),
                    },
                    Stmt::Push {
                        port: 0,
                        value: Expr::i32(3),
                    },
                ],
            )]
        });
        let wf = f.build().unwrap();
        assert_eq!(wf.push_rate(0), 3);
    }

    #[test]
    fn type_errors_are_rejected() {
        // f32 pushed to i32 port.
        let mut f = simple_builder();
        f.pop(0);
        f.push(0, Expr::f32(1.0));
        assert!(f.build().is_err());

        // Mixed-type binary.
        let mut f = simple_builder();
        f.pop(0);
        f.push(0, Expr::i32(1).add(Expr::f32(2.0)));
        assert!(f.build().is_err());

        // Bitwise op on floats.
        let mut f = FnBuilder::new(&[ElemTy::F32], &[ElemTy::F32]);
        let x = f.local(ElemTy::F32);
        f.pop_into(0, x);
        f.push(0, Expr::local(x).bitand(Expr::local(x)));
        assert!(f.build().is_err());
    }

    #[test]
    fn loop_var_write_rejected() {
        let mut f = simple_builder();
        f.pop(0);
        f.for_loop(0, 2, |_, i| {
            vec![
                Stmt::Assign(i, Expr::i32(0)),
                Stmt::Push {
                    port: 0,
                    value: Expr::i32(1),
                },
            ]
        });
        let e = f.build().unwrap_err();
        assert!(matches!(e, Error::InvalidWork(ref m) if m.contains("induction")));
    }

    #[test]
    fn static_out_of_bounds_rejected() {
        let mut f = simple_builder();
        let t = f.table(Table::i32(&[1, 2, 3]));
        f.pop(0);
        f.push(0, Expr::table(t, Expr::i32(5)));
        let e = f.build().unwrap_err();
        assert!(matches!(e, Error::InvalidWork(ref m) if m.contains("outside")));
    }

    #[test]
    fn undeclared_references_rejected() {
        let mut f = simple_builder();
        f.pop(0);
        f.push(0, Expr::local(LocalId(9)));
        assert!(f.build().is_err());

        let mut f = simple_builder();
        f.pop(1); // no such port
        f.push(0, Expr::i32(0));
        assert!(f.build().is_err());
    }

    #[test]
    fn state_is_validated_and_flagged() {
        use crate::ir::Scalar;
        // Well-typed state round trip.
        let mut f = simple_builder();
        let st = f.state(ElemTy::I32, Scalar::I32(0));
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.store_state(st, Expr::state(st).add(Expr::local(x)));
        f.push(0, Expr::state(st));
        let wf = f.build().unwrap();
        assert!(wf.info().has_state);
        assert!(wf.is_stateful());

        // Type mismatch on store.
        let mut f = simple_builder();
        let st = f.state(ElemTy::I32, Scalar::I32(0));
        f.pop(0);
        f.store_state(st, Expr::f32(1.0));
        f.push(0, Expr::i32(0));
        let e = f.build().unwrap_err();
        assert!(matches!(e, Error::InvalidWork(ref m) if m.contains("state store")));

        // Undeclared state id.
        let mut f = simple_builder();
        f.pop(0);
        f.push(0, Expr::state(crate::ir::StateId(3)));
        let e = f.build().unwrap_err();
        assert!(matches!(e, Error::InvalidWork(ref m) if m.contains("undeclared state")));

        // Stateless functions report no state.
        let mut f = simple_builder();
        f.pop(0);
        f.push(0, Expr::i32(1));
        let wf = f.build().unwrap();
        assert!(!wf.info().has_state);
        assert!(!wf.is_stateful());
    }

    #[test]
    fn census_counts_ops() {
        let mut f = simple_builder();
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.push(0, Expr::local(x).mul(Expr::i32(3)).add(Expr::i32(1)));
        let wf = f.build().unwrap();
        let c = wf.info().census;
        assert_eq!(c.channel_reads, 1);
        assert_eq!(c.channel_writes, 1);
        assert_eq!(c.alu, 2);
    }

    #[test]
    fn access_sites_enumerate_in_preorder_with_per_port_ordinals() {
        let mut f = simple_builder();
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        // push(peek(0, 0) + peek(0, 1)): depth subtrees carry no sites, the
        // two peeks precede their enclosing push.
        f.push(
            0,
            Expr::peek(0, Expr::i32(0)).add(Expr::peek(0, Expr::i32(1))),
        );
        f.for_loop(0, 4, |_, _| {
            vec![Stmt::Push {
                port: 0,
                value: Expr::i32(7),
            }]
        });
        let wf = f.build().unwrap();
        let sites = access_sites(&wf);
        let expect = [
            (AccessKind::Pop, 0u8, 0u32),
            (AccessKind::Peek, 0, 0),
            (AccessKind::Peek, 0, 1),
            (AccessKind::Push, 0, 0),
            (AccessKind::Push, 0, 1), // loop body is one syntactic site
        ];
        assert_eq!(sites.len(), expect.len());
        for (s, &(kind, port, ordinal)) in sites.iter().zip(&expect) {
            assert_eq!((s.kind, s.port, s.ordinal), (kind, port, ordinal));
        }
        assert_eq!(sites[1].to_string(), "peek[in0]#0");
        assert_eq!(sites[4].to_string(), "push[out0]#1");
    }

    #[test]
    fn register_estimate_grows_with_locals() {
        let mut small = simple_builder();
        small.pop(0);
        small.push(0, Expr::i32(0));
        let small = small.build().unwrap();

        let mut big = simple_builder();
        let locals: Vec<_> = (0..10).map(|_| big.local(ElemTy::I32)).collect();
        for &l in &locals {
            big.pop_into(0, l);
        }
        for &l in &locals {
            big.push(0, Expr::local(l));
        }
        let big = big.build().unwrap();
        assert!(big.info().reg_estimate > small.info().reg_estimate);
        assert!(small.info().reg_estimate >= REG_OVERHEAD);
    }
}
