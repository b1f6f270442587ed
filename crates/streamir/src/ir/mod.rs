//! The kernel IR: the language in which filter work functions are written.
//!
//! A [`WorkFunction`] is a typed, structured imperative program:
//!
//! * typed scalar **locals** ([`LocalId`]),
//! * per-thread scratch **arrays** ([`ArrayId`]),
//! * read-only constant **tables** ([`TableId`]) shared by all firings
//!   (FIR coefficients, DES S-boxes, twiddle factors, ...),
//! * statements: assignment, `for` over compile-time-constant bounds,
//!   structured `if`, and the StreamIt channel primitives
//!   [`Stmt::Push`], [`Stmt::Pop`], plus the pure [`Expr::Peek`].
//!
//! The design constraint driving every choice here is *static analysability*:
//! the SDF scheduler needs compile-time-constant push/pop/peek rates, the GPU
//! simulator needs to execute 32 threads in lock-step and observe every
//! memory address, and the profiler needs a per-thread register bound. See
//! [`validate`] for the analyses and [`interp`] for the reference
//! interpreter.

mod expr;
mod func;
mod pretty;
mod stmt;
mod ty;

pub mod interp;
pub mod validate;

pub use expr::{BinOp, Expr, UnOp};
pub use func::{identity, FnBuilder, StateDef, Table, WorkFunction};
pub use stmt::Stmt;
pub use ty::{ElemTy, Scalar};
pub use validate::{
    access_sites, access_sites_in, AccessKind, AccessSite, OpCensus, PortRates, WorkInfo,
};

/// Identifies a scalar local variable within one [`WorkFunction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub u32);

/// Identifies a per-firing scratch array within one [`WorkFunction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Identifies a read-only constant table within one [`WorkFunction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifies a persistent state variable within one [`WorkFunction`].
///
/// State survives across firings, making the filter *stateful*: its
/// instances must execute in strict serial order (the paper's Section II
/// dependence between successive instance numbers; supporting these on
/// the GPU is the paper's stated future work, implemented here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);
