//! The six workloads. Each stresses different layers, so an optimisation
//! of one layer has a workload that exercises it and one that bypasses
//! it; README.md records why each was chosen and how each is sized.

pub mod compile_cold;
pub mod exec_steady;
pub mod fleet_storm;
pub mod paper_fig10;
pub mod serve_churn;
pub mod serve_steady;

use crate::common::{peak_rss_mib, Measured};
use crate::metrics::{Ops, Outcome};

/// Stamps the host-clock metrics and the operation counts every workload
/// reports the same way.
fn finish<T>(mut out: Outcome, ops: Ops, setup_s: f64, measured: &Measured<T>) -> Outcome {
    out.attempted = ops.attempted;
    out.failed = ops.failed;
    out.e2e.insert("setup_s".into(), setup_s);
    out.e2e.insert("host_s".into(), measured.host_s);
    // `VmHWM` is informational, not gated: the profiler's recycled 16 MiB
    // device buffer lands in one heap region or two by allocator luck, so
    // identical runs read 25 or 41 MiB.
    out.layers
        .insert("process.peak_rss_mib".into(), peak_rss_mib());
    out.layers
        .insert("trace.overhead_share".into(), measured.trace_overhead);
    out
}
