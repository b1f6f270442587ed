//! Integration tests for the whole-program static verifier.
//!
//! The headline property: for every benchmark in the suite and every
//! execution scheme, the verifier's static coalescing prediction matches
//! the simulator's dynamic memory counters **exactly** — access
//! instructions, device transactions, shared accesses and bank-conflict
//! passes. The static model and the simulator share the address
//! arithmetic ([`gpusim::layout::BufferBinding::addr`]) and the
//! transaction coalescer, so any divergence is a bug in one of them and
//! fails loudly here.

use swpipe::exec::{self, CompileOptions, RunOptions, Scheme};
use swpipe::verify::{self, Code, Severity, StaticCounters};

const SCHEMES: [Scheme; 4] = [
    Scheme::Swp { coarsening: 1 },
    Scheme::SwpNc { coarsening: 1 },
    Scheme::SwpRaw { coarsening: 1 },
    Scheme::Serial { batch: 1 },
];

/// The acceptance criterion: static coalescing predictions match the
/// simulator's dynamic transaction counts exactly on every benchmark,
/// under every scheme, and no benchmark trips an error-severity
/// diagnostic.
#[test]
fn every_benchmark_prediction_matches_the_simulator_exactly() {
    let iterations = 4u64;
    for b in streambench::suite() {
        let graph = b.spec.flatten().expect("benchmark flattens");
        let c = exec::compile(&graph, &CompileOptions::small_test())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", b.name));
        for scheme in SCHEMES {
            let v = verify::verify(&c, scheme, iterations)
                .unwrap_or_else(|e| panic!("{}/{scheme:?}: verify failed: {e}", b.name));
            assert!(
                v.passes(),
                "{}/{scheme:?}: error-severity diagnostics: {:?}",
                b.name,
                v.diagnostics
            );
            assert!(
                v.prediction.exact,
                "{}/{scheme:?}: prediction is not exact (data-dependent control?)",
                b.name
            );

            let n_input = exec::required_input(&c, iterations);
            let input = (b.input)(n_input as usize);
            // The simulator, not `execute`: a value-oblivious artifact's
            // `execute` replays the same kernel tapes the prediction does.
            let opts = RunOptions::default();
            let run = exec::simulate(&c, scheme, iterations, &input[..n_input as usize], &opts)
                .unwrap_or_else(|e| panic!("{}/{scheme:?}: simulate failed: {e}", b.name));
            let measured = StaticCounters::of_stats(&run.stats);
            assert_eq!(
                v.prediction.counters, measured,
                "{}/{scheme:?}: static prediction diverged from the simulator",
                b.name
            );
            assert_eq!(
                v.prediction.launches, run.launches,
                "{}/{scheme:?}: launch count diverged",
                b.name
            );
        }
    }
}

/// The verifier attributes channel traffic to source sites; the per-site
/// transaction tallies are bounded by the whole-run device transaction
/// counter (state and local-array spill traffic is billed globally, not
/// to a channel access site), and every site names its filter and access.
#[test]
fn site_reports_are_consistent_with_the_transaction_total() {
    for b in streambench::suite() {
        let graph = b.spec.flatten().expect("benchmark flattens");
        let c = exec::compile(&graph, &CompileOptions::small_test()).expect("compiles");
        let v = verify::verify(&c, Scheme::SwpRaw { coarsening: 1 }, 3).expect("verifies");
        let site_txns: u64 = v
            .prediction
            .sites
            .iter()
            .map(|s| s.tally.transactions)
            .sum();
        assert!(
            site_txns <= v.prediction.counters.mem_transactions,
            "{}: per-site transaction tallies exceed the run total",
            b.name
        );
        assert!(
            !v.prediction.sites.is_empty(),
            "{}: no site reports",
            b.name
        );
        for s in &v.prediction.sites {
            assert!(
                !s.filter.is_empty(),
                "{}: site report without a filter name",
                b.name
            );
            assert!(
                !s.site.is_empty(),
                "{}: site report without an access site",
                b.name
            );
        }
    }
}

/// `SwpRaw` never stages channels in shared memory while `Swp` on the
/// small test configs stages everything it can; the predictions must
/// reflect that (raw: no channel shared traffic beyond state; swp: some).
#[test]
fn staging_shows_up_only_under_staged_schemes() {
    let b = streambench::suite()
        .into_iter()
        .find(|b| b.name == "MatrixMult")
        .expect("suite");
    let graph = b.spec.flatten().expect("flattens");
    let c = exec::compile(&graph, &CompileOptions::small_test()).expect("compiles");
    let raw = verify::verify(&c, Scheme::SwpRaw { coarsening: 1 }, 3).expect("verifies");
    let swp = verify::verify(&c, Scheme::Swp { coarsening: 1 }, 3).expect("verifies");
    assert!(swp.prediction.counters.shared_accesses > raw.prediction.counters.shared_accesses);
    assert!(raw.prediction.counters.mem_transactions > swp.prediction.counters.mem_transactions);
}

/// A deliberately corrupted schedule — two interfering filters forced
/// into the same (SM, stage) slot — is rejected with a modulo-schedule
/// hazard diagnostic (V01xx) naming both filters.
#[test]
fn corrupted_schedule_is_rejected_with_a_hazard_diagnostic() {
    let b = streambench::suite()
        .into_iter()
        .next()
        .expect("non-empty suite");
    let graph = b.spec.flatten().expect("flattens");
    let c = exec::compile(&graph, &CompileOptions::small_test()).expect("compiles");
    let mut bad = c.schedule.clone();
    // Collapse every instance onto SM 0, stage 0, offset 0: every
    // producer now fires at the same modulo time as its consumer, which
    // the dependence checker must flag.
    bad.sm_of.iter_mut().for_each(|s| *s = 0);
    bad.offset.iter_mut().for_each(|o| *o = 0);
    bad.stage.iter_mut().for_each(|st| *st = 0);
    let diags = verify::check_schedule(&c.graph, &c.ig, &c.exec_cfg, &bad, 1, 1);
    assert!(
        diags.iter().any(
            |d| matches!(d.code, Code::UnsatisfiedDependence | Code::CrossSmHazard)
                && d.severity == Severity::Error
        ),
        "collapsed schedule not rejected: {diags:?}"
    );
}
