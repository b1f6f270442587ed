//! Regenerates Table II: channel-buffer bytes of the SWP8 schedule,
//! paper-reported versus this reproduction's buffer plan.
//!
//! Sizes scale with the selected thread counts and the schedule's stage
//! spans; the paper's numbers were produced at thread counts up to 512 on
//! CPLEX schedules, so the comparison is about per-benchmark *ordering*
//! and magnitude, not byte equality (see EXPERIMENTS.md).

use swpipe::plan::{self, LayoutKind};

fn main() {
    let opts = swp_bench::options_from_env();
    println!("Table II: Buffer requirements (bytes) of the SWP8 schedule");
    println!();
    let widths = [12, 16, 16, 8];
    swp_bench::row(
        &[
            "Benchmark".into(),
            "Paper".into(),
            "Ours".into(),
            "Ratio".into(),
        ],
        &widths,
    );
    for b in streambench::suite() {
        let graph = b.spec.flatten().expect("flattens");
        let compiled = swpipe::exec::compile(&graph, &opts.compile)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let bytes = plan::plan(
            &compiled.graph,
            &compiled.ig,
            Some(&compiled.schedule),
            8,
            LayoutKind::Optimized,
        )
        .total_bytes();
        swp_bench::row(
            &[
                b.name.into(),
                swp_bench::fmt_bytes(b.paper.buffer_bytes),
                swp_bench::fmt_bytes(bytes),
                format!("{:.2}", bytes as f64 / b.paper.buffer_bytes as f64),
            ],
            &widths,
        );
    }
}
