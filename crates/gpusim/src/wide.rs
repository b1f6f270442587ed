//! The wide executor: many firings of a value-oblivious kernel per op.
//!
//! A [value-oblivious](crate::Kernel::value_oblivious) kernel takes one
//! control path in every lane, with the same peek depths and the same
//! array and table indices, whatever values it moves. So the firings of
//! one instance need no masks and no warps: [`fire`] runs up to
//! [`WIDE_LANES`] of them through each decoded op at once, on the warp
//! core's own operators ([`unary`], [`binary`], [`int_div`]) over wider
//! registers. Each lane is one firing, with registers and scratch arrays
//! of its own, exactly as under the warp core; only how many firings one
//! op dispatch covers changes.
//!
//! Ports are flat sequential spans ([`Flat`]): the `n`-th token of lane
//! `l`'s firing sits `l · rate + n` words past lane 0's first, so every
//! channel access is one strided run. Nothing is billed.
//!
//! The lanes share one index per peek depth, array access and table
//! load: lane 0's. That holds only because a value-oblivious kernel's
//! walk proves every such index constant, so the executor relies on
//! [`Kernel::value_oblivious`](crate::Kernel::value_oblivious) staying
//! that strict. A walk that admitted a varying index in range (an
//! interval domain that proves `(x >>> k) & 63` in bounds, to price
//! DES's S-boxes) would make this executor compute wrong values for
//! every lane whose index differs from lane 0's, unless loads gather per
//! lane.

use crate::exec::{
    array_row, binary, int_div, pair, trap, unary, DExpr, DStmt, Op, Program, Reg, Src,
};
use crate::layout::{AffineRun, BufferBinding, Layout};
use crate::mem::DeviceMemory;
use crate::Result;

/// Firings one op dispatch covers.
pub const WIDE_LANES: usize = 256;

type Lanes = [u32; WIDE_LANES];

/// A port whose firings' tokens lie back to back in one sequential span:
/// lane 0's first token at `start`, each further lane `rate` words on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flat {
    start: u64,
    rate: u64,
}

impl Flat {
    /// The span of `binding` for `firings` (at least one) firings touching
    /// up to `extent` tokens each (a peek window may reach past the pop
    /// rate), if it is one: a sequential single-region binding the
    /// firings never wrap.
    pub(crate) fn of(binding: &BufferBinding, firings: u32, extent: u32) -> Option<Flat> {
        let rate = u64::from(binding.endpoint_rate);
        let last = binding.abs_start + u64::from(firings - 1) * rate + u64::from(extent);
        let flat = binding.layout == Layout::Sequential
            && binding.regions == 1
            && last <= binding.region_tokens;
        flat.then(|| Flat {
            start: u64::from(binding.base_word) + binding.abs_start,
            rate,
        })
    }
}

/// One group of up to [`WIDE_LANES`] firings in flight.
struct Wide<'a> {
    prog: &'a Program,
    mem: &'a mut DeviceMemory,
    regs: Vec<Lanes>,
    arrays: Vec<Lanes>,
    /// Per input (output) port: where the group's lane 0 starts, the
    /// lane stride, and the tokens every lane has moved.
    pops: Vec<(u64, u64, u64)>,
    pushes: Vec<(u64, u64, u64)>,
    /// Firings in the group.
    n: usize,
}

/// Fires `firings` firings of `prog`, a value-oblivious stateless
/// program, over `memory`, each port a [`Flat`] span. Every word lands
/// where the warp core would put it.
///
/// # Errors
///
/// [`crate::SimError::BadAddress`] when a span leaves `memory`; a trap
/// only if the program was not value-oblivious after all.
pub(crate) fn fire(
    prog: &Program,
    firings: u32,
    inputs: &[Flat],
    outputs: &[Flat],
    memory: &mut DeviceMemory,
) -> Result<()> {
    let mut w = Wide {
        prog,
        mem: memory,
        regs: vec![[0; WIDE_LANES]; prog.regs],
        arrays: vec![[0; WIDE_LANES]; prog.array_rows],
        pops: Vec::new(),
        pushes: Vec::new(),
        n: 0,
    };
    let firings = firings as usize;
    for first in (0..firings).step_by(WIDE_LANES) {
        w.n = WIDE_LANES.min(firings - first);
        // A fresh group starts from zeroed registers, as a fresh warp does.
        if first > 0 {
            w.regs.iter_mut().for_each(|r| r.fill(0));
            w.arrays.iter_mut().for_each(|r| r.fill(0));
        }
        for (ports, flats) in [(&mut w.pops, inputs), (&mut w.pushes, outputs)] {
            ports.clear();
            ports.extend(
                flats
                    .iter()
                    .map(|f| (f.start + first as u64 * f.rate, f.rate, 0)),
            );
        }
        w.block(&prog.body)?;
    }
    Ok(())
}

impl Wide<'_> {
    /// The strided run of every lane's token `ahead` past the port's
    /// count.
    fn run(&self, (start, rate, moved): (u64, u64, u64), ahead: u64) -> AffineRun {
        AffineRun {
            lane: 0,
            lanes: self.n as u32,
            addr: start + moved + ahead,
            stride: rate,
        }
    }

    fn eval(&mut self, e: &DExpr) -> Result<usize> {
        let prog = self.prog;
        for op in &prog.ops[e.ops.start as usize..e.ops.end as usize] {
            self.op(op)?;
        }
        Ok(e.out as usize)
    }

    fn op(&mut self, op: &Op) -> Result<()> {
        let n = self.n;
        match *op {
            Op::Const { dst, bits } => self.regs[dst as usize][..n].fill(bits),
            Op::Unary { op, dst, a } => unary(&mut self.regs, n, op, dst, a),
            Op::Binary { op, dst, a, b } => binary(&mut self.regs, n, op, dst, a, b),
            Op::DivRem { op, dst, a, b } => {
                let operand = |s| match s {
                    Src::Reg(r) => self.regs[r as usize],
                    Src::Imm(bits) => [bits; WIDE_LANES],
                };
                let (a, b) = (operand(a), operand(b));
                let d = &mut self.regs[dst as usize];
                for l in 0..n {
                    d[l] = int_div(op, a[l], b[l]).map_err(|e| trap(e.to_string()))?;
                }
            }
            Op::Peek {
                dst, port, depth, ..
            } => {
                // Every lane peeks at the same depth.
                let depth = self.regs[depth as usize][0] as i32;
                let ahead = u64::try_from(depth)
                    .map_err(|_| trap(format!("negative peek depth {depth}")))?;
                let run = self.run(self.pops[usize::from(port)], ahead);
                self.mem.read_run(&run, &mut self.regs[dst as usize][..n])?;
            }
            Op::LoadArr {
                dst,
                ref rows,
                index,
            } => {
                let row = array_row(rows, self.regs[index as usize][0], "load")?;
                self.regs[dst as usize][..n].copy_from_slice(&self.arrays[row][..n]);
            }
            // Lane 0's index for every lane: a value-oblivious kernel's
            // table index is a constant (see the module docs), which is
            // what lets one load stand for all of them.
            Op::LoadTable {
                dst,
                ref words,
                index,
            } => {
                let table = &self.prog.table_words[words.start as usize..words.end as usize];
                let i = self.regs[index as usize][0] as i32;
                let word = usize::try_from(i).ok().and_then(|i| table.get(i));
                let word =
                    *word.ok_or_else(|| trap(format!("table load index {i} out of bounds")))?;
                self.regs[dst as usize][..n].fill(word);
            }
            Op::LoadState { .. } => return Err(trap("state access in a wide firing")),
        }
        Ok(())
    }

    fn block(&mut self, stmts: &[DStmt]) -> Result<()> {
        stmts.iter().try_for_each(|s| self.stmt(s))
    }

    /// `regs[dst] = regs[src]` over the group's lanes.
    fn copy(&mut self, dst: usize, src: usize) {
        if dst != src {
            let (d, s) = pair(&mut self.regs, dst as Reg, src as Reg);
            d[..self.n].copy_from_slice(&s[..self.n]);
        }
    }

    fn stmt(&mut self, s: &DStmt) -> Result<()> {
        let n = self.n;
        match s {
            DStmt::Assign { dst, value } => {
                let v = self.eval(value)?;
                self.copy(*dst as usize, v);
            }
            DStmt::Store { rows, index, value } => {
                let index = self.eval(index)?;
                let value = self.eval(value)?;
                let row = array_row(rows, self.regs[index][0], "store")?;
                self.arrays[row][..n].copy_from_slice(&self.regs[value][..n]);
            }
            DStmt::Pop { port, dst, .. } => {
                let p = usize::from(*port);
                let run = self.run(self.pops[p], 0);
                match dst {
                    Some(d) => self.mem.read_run(&run, &mut self.regs[*d as usize][..n])?,
                    None => self.mem.check_run(&run)?,
                }
                self.pops[p].2 += 1;
            }
            DStmt::Push { port, value, .. } => {
                let v = self.eval(value)?;
                let p = usize::from(*port);
                let run = self.run(self.pushes[p], 0);
                self.mem.write_run(&run, &self.regs[v][..n])?;
                self.pushes[p].2 += 1;
            }
            DStmt::For { var, lo, hi, body } => {
                for i in *lo..*hi {
                    self.regs[*var as usize][..n].fill(i as u32);
                    self.block(body)?;
                }
            }
            DStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                // Every lane takes the same arm.
                let c = self.eval(cond)?;
                self.block(if self.regs[c][0] != 0 {
                    then_body
                } else {
                    else_body
                })?;
            }
            DStmt::StoreState { .. } => return Err(trap("state access in a wide firing")),
            DStmt::Invalid(why) => return Err(trap(why.clone())),
        }
        Ok(())
    }
}
