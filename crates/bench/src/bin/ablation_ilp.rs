//! Ablation (c) of DESIGN.md, **scheduler quality**: the decomposed
//! heuristic's II against the exact ILP's on reduced processor counts.
//! Ablations (a) and (b) are `stream-gpu regen` entries
//! ([`swp_bench::ablations`]); this one stays manual because the exact
//! ILP runs under a wall-clock budget per candidate, so its column
//! depends on the host.

use std::time::Duration;

use streambench::by_name;
use swpipe::exec;
use swpipe::schedule::{self, SchedulerKind, SearchOptions};

fn main() {
    let opts = swp_bench::options_from_env();

    println!("Ablation (c): heuristic vs exact ILP initiation interval (P = 4)");
    let widths = [12, 10, 12, 12];
    println!(
        "{}",
        swp_bench::row(
            &[
                "Benchmark".into(),
                "lower".into(),
                "ILP II".into(),
                "heur II".into(),
            ],
            &widths,
        )
    );
    for name in ["FFT", "DCT"] {
        let b = by_name(name).expect("known benchmark");
        let graph = b.spec.flatten().expect("flattens");
        let c = exec::compile(&graph, &opts.compile).unwrap_or_else(|e| panic!("{name}: {e}"));
        let ilp = schedule::find(
            &c.ig,
            &c.exec_cfg,
            4,
            &SearchOptions {
                scheduler: SchedulerKind::Ilp,
                ilp_budget: Duration::from_secs(20),
                max_attempts: 8,
                ..SearchOptions::default()
            },
        );
        let heur = schedule::find(
            &c.ig,
            &c.exec_cfg,
            4,
            &SearchOptions {
                scheduler: SchedulerKind::Heuristic,
                ..SearchOptions::default()
            },
        )
        .expect("heuristic always schedules");
        println!(
            "{}",
            swp_bench::row(
                &[
                    name.into(),
                    heur.1.lower_bound.to_string(),
                    ilp.map_or("timeout".into(), |(s, _)| s.ii.to_string()),
                    heur.0.ii.to_string(),
                ],
                &widths,
            )
        );
    }
}
