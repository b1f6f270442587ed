//! A functional + timing simulator of a GeForce-8800-class GPU.
//!
//! This crate substitutes for the paper's GeForce 8800 GTS 512 + CUDA
//! runtime. It executes kernel-IR work functions **warp-synchronously**:
//! 32 threads per warp step in lock-step through the IR with active-lane
//! masks (structured divergence), every device-memory access is observed by
//! a coalescing analyzer that counts real 64-byte transactions, and an
//! analytical-but-mechanistic timing model folds the counted work into
//! cycles.
//!
//! The pieces:
//!
//! * [`DeviceConfig`] — machine shape: 16 SMs × 8 scalar units, 8192
//!   registers and 16 KB shared memory per SM, 768 resident threads, warp
//!   size 32, limits on blocks and threads per block.
//! * [`DeviceMemory`] / [`Allocator`] — the global device memory (flat
//!   array of 32-bit words) with 64-byte-aligned buffer allocation.
//! * [`Layout`] / [`BufferBinding`] — how a channel's tokens map to device
//!   addresses: the natural FIFO layout, or the paper's transposed layout
//!   that makes a 128-thread group's accesses contiguous (Section IV-D).
//! * [`Launch`] — a kernel launch: per-block instance lists over work
//!   functions, executed functionally against device memory while
//!   statistics accumulate.
//! * [`TimingModel`] — converts [`LaunchStats`] into cycles/seconds:
//!   issue-rate compute cost, bandwidth-bound memory cost, latency exposure
//!   when too few warps are resident, shared-memory bank conflicts, spill
//!   traffic, and fixed kernel-launch overhead.
//!
//! # Example: run one data-parallel filter over device memory
//!
//! ```
//! use gpusim::{BufferBinding, DeviceConfig, Gpu, InstanceExec, Kernel,
//!              Launch, Layout, BlockWork};
//! use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};
//!
//! // doubler: pop 1 i32, push it times two.
//! let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
//! let x = f.local(ElemTy::I32);
//! f.pop_into(0, x);
//! f.push(0, Expr::local(x).mul(Expr::i32(2)));
//! let doubler = Kernel::load(&f.build()?);
//!
//! let mut gpu = Gpu::new(DeviceConfig::gts512());
//! let n = 64u32;
//! let inp = gpu.alloc_tokens(n);
//! let out = gpu.alloc_tokens(n);
//! for i in 0..n {
//!     gpu.memory_mut().write_token(inp + i, Scalar::I32(i as i32));
//! }
//! let launch = Launch {
//!     threads_per_block: 64,
//!     regs_per_thread: 16,
//!     blocks: vec![BlockWork {
//!         items: vec![InstanceExec {
//!             kernel: &doubler,
//!             active_threads: 64,
//!             inputs: vec![BufferBinding::whole(inp, n, ElemTy::I32, Layout::Sequential, 1)],
//!             outputs: vec![BufferBinding::whole(out, n, ElemTy::I32, Layout::Sequential, 1)],
//!             shared_staging: false,
//!             state_base: None,
//!             label: None,
//!         }],
//!     }],
//!     sm_offset: 0,
//! };
//! let stats = gpu.run(&launch)?;
//! assert_eq!(gpu.memory().read_token(out + 5, ElemTy::I32), Scalar::I32(10));
//! assert!(stats.mem_transactions > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod analyze;
mod config;
mod exec;
mod fault;
mod launch;
mod layout;
mod mem;
mod stats;
mod timing;
mod wide;

pub mod occupancy;

pub use analyze::{AbstractWarp, AccessSink, Channel};
pub use config::{Device, DeviceConfig, DeviceId};
pub use exec::REG_ARRAY_WORDS;
pub use fault::{DeviceFaultEvent, DeviceFaultKind, DeviceFaultPlan, FaultKind, FaultPlan};
pub use launch::{BlockWork, Dispatch, Gpu, InstanceBills, InstanceExec, Kernel, Launch};
pub use layout::{AffineRun, BufferBinding, Layout, WarpAccess, WarpGeometry, WARP_LANES};
pub use mem::{
    bank_conflict_degree, count_transactions, half_warps, Allocator, DeviceMemory, HalfWarp,
    SHARED_BANKS,
};
pub use stats::{InstanceStats, LaunchStats};
pub use timing::{CheckpointMode, TimingModel};
pub use wide::WIDE_LANES;

use std::fmt;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The launch configuration violates a hardware limit (too many
    /// threads per block, register file exhausted, shared memory
    /// exhausted). The paper's profiling loop treats this as an infeasible
    /// execution configuration.
    LaunchConfig(String),
    /// A work function trapped during device execution.
    Trap(String),
    /// A device-memory access fell outside any allocation.
    BadAddress {
        /// The offending word address.
        addr: u64,
    },
    /// The driver rejected or lost the launch before any device work
    /// happened (injected by a [`FaultPlan`]). Device memory is
    /// untouched; the launch is safe to retry as-is.
    LaunchFailed {
        /// Lifetime launch-attempt ordinal that failed.
        launch: u64,
    },
    /// A detected transient device-memory corruption aborted the launch
    /// partway through (injected by a [`FaultPlan`]). Earlier writes of
    /// the aborted launch persist; the corrupted value itself was never
    /// committed. Retry requires restoring any non-idempotent state the
    /// launch mutates in place.
    MemFault {
        /// Word address whose access detected the corruption.
        addr: u64,
        /// Lifetime launch-attempt ordinal that faulted.
        launch: u64,
    },
    /// The kernel exceeded its instruction budget and the watchdog
    /// killed it. Arises from an injected hang ([`FaultPlan`]) or from a
    /// genuinely runaway kernel. Earlier writes persist, as for
    /// [`SimError::MemFault`].
    WatchdogTimeout {
        /// The instruction budget that was exhausted.
        budget: u64,
        /// Lifetime launch-attempt ordinal that was killed.
        launch: u64,
    },
}

impl SimError {
    /// Whether the error is a transient fault for which re-running the
    /// launch (from a consistent buffer state) can succeed. Permanent
    /// errors — bad configurations, traps, out-of-bounds accesses —
    /// reproduce deterministically and must not be retried.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::LaunchFailed { .. }
                | SimError::MemFault { .. }
                | SimError::WatchdogTimeout { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::LaunchConfig(msg) => write!(f, "infeasible launch configuration: {msg}"),
            SimError::Trap(msg) => write!(f, "device trap: {msg}"),
            SimError::BadAddress { addr } => {
                write!(f, "device memory access at {addr} out of bounds")
            }
            SimError::LaunchFailed { launch } => {
                write!(
                    f,
                    "launch attempt {launch} failed before device work (injected fault)"
                )
            }
            SimError::MemFault { addr, launch } => write!(
                f,
                "transient device-memory corruption detected at word {addr} \
                 during launch attempt {launch}"
            ),
            SimError::WatchdogTimeout { budget, launch } => write!(
                f,
                "watchdog killed launch attempt {launch} after exhausting its \
                 instruction budget of {budget}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;
