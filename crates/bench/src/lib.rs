//! The measurement harness binaries that regenerate every table and
//! figure of the paper, plus shared report formatting.
//!
//! | Target | Regenerates |
//! |---|---|
//! | `table1` | Table I — benchmark inventory |
//! | `table2` | Table II — SWP8 buffer requirements |
//! | `fig10` | Figure 10 — SWPNC vs Serial vs SWP8 speedups |
//! | `fig11` | Figure 11 — SWP coarsening 1/4/8/16 speedups |
//! | `ilp_report` | Section V — ILP formulation sizes, solve times, II relaxation |
//! | `ablations` | DESIGN.md ablations — layout, launch overhead, scheduler quality |
//!
//! Scale control: `SWP_BENCH_FAST=1` shrinks the profiling grid and
//! iteration count so a full suite pass completes quickly (used by CI and
//! the integration tests); the default configuration is the scaled paper
//! setup described in EXPERIMENTS.md, and `SWP_BENCH_FULL=1` runs the
//! paper's full profiling grid. On a 2-core host `fig10` takes 5–7 s
//! scaled and 9–13 s full (7–12 s and 16–19 s before one functional run
//! per thread count priced every register limit and the profile and the
//! schemes ran side by side). Every report uses all the cores the process
//! may run on, and prints the same bytes on one.

use streambench::Benchmark;
use swpipe::harness::{self, BenchmarkResult, HarnessOptions};
use swpipe::profile::ProfileOptions;

/// Harness options honoring the scale environment variables:
/// `SWP_BENCH_FAST=1` for a minimal grid (CI / integration tests),
/// `SWP_BENCH_FULL=1` for the paper's complete profiling grid, and the
/// scaled paper setup (what EXPERIMENTS.md reports) otherwise.
#[must_use]
pub fn options_from_env() -> HarnessOptions {
    let fast = std::env::var("SWP_BENCH_FAST").is_ok_and(|v| v != "0");
    let full = std::env::var("SWP_BENCH_FULL").is_ok_and(|v| v != "0");
    if fast {
        let mut o = HarnessOptions::paper_scaled();
        o.compile.profile = ProfileOptions {
            reg_limits: vec![16],
            thread_counts: vec![64],
            ..ProfileOptions::paper()
        };
        o
    } else if full {
        HarnessOptions::paper_full()
    } else {
        HarnessOptions::paper_scaled()
    }
}

/// Runs one benchmark through the harness.
///
/// # Panics
///
/// Panics with a diagnostic if compilation or execution fails — these
/// binaries are meant to fail loudly.
#[must_use]
pub fn run_benchmark(b: &Benchmark, opts: &HarnessOptions) -> BenchmarkResult {
    let graph = b
        .spec
        .flatten()
        .unwrap_or_else(|e| panic!("{}: flatten failed: {e}", b.name));
    harness::run(b.name, &graph, &b.input, opts)
        .unwrap_or_else(|e| panic!("{}: harness failed: {e}", b.name))
}

/// Runs the whole suite, printing progress to stderr.
#[must_use]
pub fn run_suite(opts: &HarnessOptions) -> Vec<BenchmarkResult> {
    streambench::suite()
        .iter()
        .map(|b| {
            eprintln!("[swp-bench] running {} ...", b.name);
            let t = std::time::Instant::now();
            let r = run_benchmark(b, opts);
            eprintln!(
                "[swp-bench]   {} done in {:.1}s (SWP8 speedup {:.2}x)",
                b.name,
                t.elapsed().as_secs_f64(),
                r.swp_at(8).map_or(0.0, |s| s.speedup)
            );
            r
        })
        .collect()
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Formats a byte count with thousands separators.
#[must_use]
pub fn fmt_bytes(b: u64) -> String {
    let s = b.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_groups_digits() {
        assert_eq!(fmt_bytes(5_308_416), "5,308,416");
        assert_eq!(fmt_bytes(999), "999");
        assert_eq!(fmt_bytes(1_000), "1,000");
    }
}
