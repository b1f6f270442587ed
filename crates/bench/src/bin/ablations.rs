//! Ablations called out in DESIGN.md:
//!
//! (a) **Buffer layout** at a fixed schedule: optimized transposed layout
//!     (SWP8) vs natural FIFO with shared-memory staging (SWPNC) vs
//!     natural FIFO with staging disabled (SWP-raw) — isolates how much of
//!     the win is the layout and how much the staging fallback recovers.
//! (b) **Launch overhead sensitivity**: Serial's gap to SWP8 as the
//!     per-launch cost varies (0×, 1×, 4× the calibrated 16k cycles) —
//!     the paper attributes much of Serial's loss to launch overhead that
//!     coarsened software pipelines amortize.
//! (c) **Scheduler quality**: the decomposed heuristic's II against the
//!     exact ILP's on reduced processor counts.

use std::time::Duration;

use streambench::by_name;
use swpipe::exec::{self, Scheme};
use swpipe::schedule::{self, SchedulerKind, SearchOptions};

fn main() {
    let opts = swp_bench::options_from_env();

    println!("Ablation (a): buffer layout at fixed schedule (speedup-proxy: 1/time)");
    let widths = [12, 14, 14, 14, 14];
    println!(
        "{}",
        swp_bench::row(
            &[
                "Benchmark".into(),
                "SWP8 time".into(),
                "SWPNC time".into(),
                "SWP-raw time".into(),
                "raw/opt".into(),
            ],
            &widths,
        )
    );
    for name in ["DCT", "FFT", "MatrixMult"] {
        let b = by_name(name).expect("known benchmark");
        let graph = b.spec.flatten().expect("flattens");
        let c = exec::compile(&graph, &opts.compile).unwrap_or_else(|e| panic!("{name}: {e}"));
        let input = (b.input)(exec::measure_input(&c, Scheme::Swp { coarsening: 8 }) as usize);
        let t = |scheme| {
            exec::measure(&c, scheme, opts.iterations, &input)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .time_secs
        };
        let opt = t(Scheme::Swp { coarsening: 8 });
        let nc = t(Scheme::SwpNc { coarsening: 8 });
        let raw = t(Scheme::SwpRaw { coarsening: 8 });
        println!(
            "{}",
            swp_bench::row(
                &[
                    name.into(),
                    format!("{opt:.3e}"),
                    format!("{nc:.3e}"),
                    format!("{raw:.3e}"),
                    format!("{:.2}x", raw / opt),
                ],
                &widths,
            )
        );
    }

    println!();
    println!("Ablation (b): Serial vs SWP8 under varying launch overhead");
    let widths = [12, 12, 16, 16, 16];
    println!(
        "{}",
        swp_bench::row(
            &[
                "Benchmark".into(),
                "overhead".into(),
                "SWP8 time".into(),
                "Serial time".into(),
                "Serial/SWP8".into(),
            ],
            &widths,
        )
    );
    for name in ["DES", "FFT"] {
        let b = by_name(name).expect("known benchmark");
        let graph = b.spec.flatten().expect("flattens");
        for mult in [0.0, 1.0, 4.0] {
            let mut o = opts.clone();
            o.compile.timing.launch_overhead_cycles = 16_000.0 * mult;
            let c = exec::compile(&graph, &o.compile).unwrap_or_else(|e| panic!("{name}: {e}"));
            let input = (b.input)(exec::measure_input(&c, Scheme::Serial { batch: 8 }) as usize);
            let swp = exec::measure(&c, Scheme::Swp { coarsening: 8 }, o.iterations, &input)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .time_secs;
            let serial = exec::measure(&c, Scheme::Serial { batch: 8 }, o.iterations, &input)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .time_secs;
            println!(
                "{}",
                swp_bench::row(
                    &[
                        name.into(),
                        format!("{:.0}x", mult),
                        format!("{swp:.3e}"),
                        format!("{serial:.3e}"),
                        format!("{:.2}", serial / swp),
                    ],
                    &widths,
                )
            );
        }
    }

    println!();
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
