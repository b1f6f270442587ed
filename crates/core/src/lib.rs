//! Software-pipelined execution of stream programs on GPUs — the paper's
//! contribution (Udupa, Govindarajan, Thazhuthaveetil, CGO 2009).
//!
//! Given a flattened stream graph, this crate reproduces the paper's entire
//! compilation trajectory (its Figure 5):
//!
//! 1. **Profiling** ([`profile`]) — every filter is executed on the
//!    simulated GPU at each register limit × thread count in the search
//!    grid (Figure 6 of the paper), recording per-instance execution time
//!    or infeasibility.
//! 2. **Execution-configuration selection** ([`config`]) — Algorithm 7:
//!    pick the global `(numRegs, numThreads)` pair and per-filter thread
//!    counts minimising the work-normalised initiation interval.
//! 3. **Software pipelining** ([`instances`], [`formulate`], [`schedule`])
//!    — build the instance-level dependence model of Section III, emit the
//!    ILP (variables `w`, `o`, `f`, `g`; constraints (1), (2), (4), (7),
//!    (8)) for a candidate II, and search: start at
//!    `max(ResMII, RecMII)`, give the solver a time budget, relax the II
//!    by 0.5 % on failure (Section V). A decomposed heuristic scheduler
//!    ([`schedule::heuristic`]) provides the scalable path; every schedule
//!    from either path passes the same independent validator.
//! 4. **Buffer layout and code generation** ([`plan`], [`codegen`]) — the
//!    transposed coalescing layout of Section IV-D, per-channel buffer
//!    sizing (Table II), and the predicated software-pipelined kernel (one
//!    `switch` arm per SM, instances ordered by `o`).
//! 5. **Execution** ([`exec`]) — three executors over the simulator:
//!    `Swp` (the paper's scheme, with coarsening 1/4/8/16 for Figure 11),
//!    `SwpNc` (no coalescing, shared-memory staging when the working set
//!    fits — Figure 10's SWPNC), and `SerialSas` (one kernel per filter in
//!    a SAS schedule — Figure 10's Serial).
//! 6. **Measurement** ([`harness`]) — speedups versus the single-threaded
//!    CPU baseline, reproducing the paper's figures and tables.

pub mod codegen;
pub mod config;
pub mod exec;
pub mod fleet;
pub mod formulate;
pub mod harness;
pub mod hash;
pub mod instances;
pub mod learn;
pub mod par;
pub mod pipeline;
pub mod plan;
pub mod profile;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod verify;

mod error;

pub use error::Error;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
