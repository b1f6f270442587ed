//! Regenerates the ILP discussion of Section V: per-benchmark formulation
//! sizes, solve times, and the II relaxation the search needed.
//!
//! The paper solved its formulations with CPLEX 9.0 (most benchmarks in
//! under 30 s; Bitonic 161 s, BitonicRec 122 s, DCT 178 s; every solution
//! within 5–7 % of the II lower bound). This reproduction's
//! branch-and-bound is no CPLEX, so the exact solve runs on a reduced
//! processor count (`P = 4`) under the same 20-second-per-candidate
//! budget, alongside the decomposed heuristic at the full 16 SMs; both
//! schedules pass the same validator.
//!
//! Budget override: `SWP_ILP_BUDGET` (seconds per candidate II).

use std::time::Duration;

use swpipe::instances;
use swpipe::schedule::{self, SchedulerKind, SearchOptions};

fn main() {
    let budget = std::env::var("SWP_ILP_BUDGET")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(20);
    let opts = swp_bench::options_from_env();

    println!("Section V: ILP formulation sizes and solve behaviour");
    println!("(exact B&B at P=4 under a {budget}s/candidate budget; heuristic at P=16)");
    println!();
    let widths = [12, 8, 10, 12, 10, 12, 12, 12];
    println!(
        "{}",
        swp_bench::row(
            &[
                "Benchmark".into(),
                "insts".into(),
                "vars(P16)".into(),
                "cons(P16)".into(),
                "ILP II".into(),
                "ILP time".into(),
                "relax%".into(),
                "heur II/lb".into(),
            ],
            &widths,
        )
    );

    for b in streambench::suite() {
        let graph = b.spec.flatten().expect("flattens");
        let compiled = swpipe::exec::compile(&graph, &opts.compile)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let ig = instances::build(&graph, &compiled.exec_cfg).expect("instances");

        // Formulation size at the paper's 16 SMs.
        let lower16 = ig
            .res_mii(&compiled.exec_cfg, 16)
            .max(ig.rec_mii(&compiled.exec_cfg))
            .max(1)
            .max(compiled.exec_cfg.delay.iter().copied().max().unwrap_or(1));
        let (model16, _) =
            swpipe::formulate::build_model(&ig, &compiled.exec_cfg, 16, lower16, 16, 0);

        // Exact solve at P=4.
        let search = SearchOptions {
            scheduler: SchedulerKind::Ilp,
            ilp_budget: Duration::from_secs(budget),
            max_attempts: 12,
            ..SearchOptions::default()
        };
        let ilp_out = schedule::find(&ig, &compiled.exec_cfg, 4, &search);

        // Heuristic at the full 16 SMs.
        let heur = schedule::find(
            &ig,
            &compiled.exec_cfg,
            16,
            &SearchOptions {
                scheduler: SchedulerKind::Heuristic,
                ..SearchOptions::default()
            },
        )
        .expect("heuristic schedules everything");

        let (ilp_ii, ilp_time, relax) = match &ilp_out {
            Ok((sched, rep)) => (
                sched.ii.to_string(),
                format!("{:.1}s", rep.solve_time.as_secs_f64()),
                format!("{:.1}", rep.relaxation_pct),
            ),
            Err(_) => ("timeout".into(), format!(">{}s", budget * 12), "-".into()),
        };
        println!(
            "{}",
            swp_bench::row(
                &[
                    b.name.into(),
                    ig.len().to_string(),
                    model16.num_vars().to_string(),
                    model16.num_constraints().to_string(),
                    ilp_ii,
                    ilp_time,
                    relax,
                    format!("{}/{}", heur.0.ii, heur.1.lower_bound),
                ],
                &widths,
            )
        );
    }
    println!();
    println!(
        "Paper reference: CPLEX 9.0 solved every benchmark's formulation; all but \
         Bitonic (161s), BitonicRec (122s) and DCT (178s) in under 30s, with II \
         relaxations of at most 5% (7% for FFT and FMRadio)."
    );
}
