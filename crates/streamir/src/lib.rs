//! Stream-program intermediate representation and CPU execution.
//!
//! This crate is the front half of the CGO 2009 reproduction: everything the
//! StreamIt front-end and runtime would have provided. It contains:
//!
//! * [`ir`] — a small imperative **kernel IR** in which every filter's work
//!   function is written: typed locals, constant tables, local arrays,
//!   constant-trip `for` loops, structured `if`, and the three StreamIt
//!   channel primitives `push` / `pop` / `peek`. The IR is validated and
//!   statically analysed so that each filter's push/pop/peek rates are
//!   compile-time constants — the contract synchronous dataflow requires.
//! * [`graph`] — hierarchical stream composition (pipelines, split-joins,
//!   feedback loops) and flattening into a [`graph::FlatGraph`] of filters
//!   connected by FIFO channels, with explicit splitter/joiner nodes.
//! * [`sdf`] — the steady-state machinery: repetition vectors from the
//!   balance equations, consistency and deadlock diagnostics.
//! * [`cpu`] — a single-threaded reference executor with a calibrated cycle
//!   model; this is the `t_host` baseline of the paper's speedup metric and
//!   the functional oracle for the GPU simulator.
//!
//! # Quick example
//!
//! ```
//! use streamir::graph::{FilterSpec, StreamSpec};
//! use streamir::ir::{ElemTy, Expr, FnBuilder};
//!
//! // A filter that doubles each integer it sees.
//! let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
//! let x = f.local(ElemTy::I32);
//! f.pop_into(0, x);
//! f.push(0, Expr::local(x).mul(Expr::i32(2)));
//! let doubler = FilterSpec::new("doubler", f.build()?);
//!
//! let graph = StreamSpec::filter(doubler).flatten()?;
//! let steady = streamir::sdf::solve(&graph)?;
//! assert_eq!(steady.repetitions(), &[1]);
//! # Ok::<(), streamir::Error>(())
//! ```

pub mod channel;
pub mod cpu;
pub mod graph;
pub mod hash;
pub mod ir;
pub mod sdf;

mod error;

pub use error::Error;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
