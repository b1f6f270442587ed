//! Integration tests for graph capture + event-triggered dispatch
//! ([`swpipe::codegen::capture_graph`], [`RunOptions::graph_dispatch`],
//! and the `V05xx` event-edge verifier pass
//! ([`swpipe::verify::check_capture`])).
//!
//! The headline properties:
//!
//! * **Differential**: every benchmark in the suite runs byte-identically
//!   under every execution scheme with graph dispatch on vs. off, with
//!   the same launch count — and the steady-state launch tax
//!   (`LaunchStats::launch_path_cycles`) drops strictly on the deep
//!   pipelines DES and FMRadio.
//! * **Soundness**: every captured graph the emitter produces passes the
//!   `V05xx` verifier pass with zero findings — the event-edge set
//!   covers exactly the modulo-schedule dependence set the verifier
//!   independently re-derives.
//! * **Fault transparency** (property-tested): under seeded fault plans
//!   with checkpoint-window replay, captured-graph runs retry and
//!   recover byte-identically to host-launched runs, and the disjoint
//!   billing decomposition holds exactly in both modes.
//! * **Adversarial**: hand-built captures with a dropped event edge or a
//!   cycle-inducing surplus edge are rejected with their precise codes
//!   (`V0501` race, `V0503` deadlock, `V0502` lost-overlap warning).

use gpusim::FaultPlan;
use proptest::prelude::*;
use streamir::graph::{FilterSpec, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};
use swpipe::codegen::{capture_graph, EventEdge};
use swpipe::exec::{self, CompileOptions, RetryPolicy, RunOptions, Scheme};
use swpipe::verify::{self, Code, Severity};

const SCHEMES: [Scheme; 4] = [
    Scheme::Swp { coarsening: 1 },
    Scheme::SwpNc { coarsening: 1 },
    Scheme::SwpRaw { coarsening: 1 },
    Scheme::Serial { batch: 1 },
];

/// Iterations deep enough that every benchmark's modulo schedule has a
/// steady window (`iterations > max_stage` at coarsening 1), so the
/// graph-dispatched run actually replays instead of degenerating to
/// host launches. The deepest suite schedule under
/// [`CompileOptions::small_test`] is DES at 36 stages.
const ITERS: u64 = 48;

fn rate_filter(name: &str, pop: u32, push: u32, seed: i32) -> StreamSpec {
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let acc = f.local(ElemTy::I32);
    let x = f.local(ElemTy::I32);
    f.assign(acc, Expr::i32(seed));
    for _ in 0..pop {
        f.pop_into(0, x);
        f.assign(acc, Expr::local(acc).mul(Expr::i32(3)).add(Expr::local(x)));
    }
    for i in 0..push {
        f.push(0, Expr::local(acc).add(Expr::i32(i as i32 * seed)));
    }
    StreamSpec::filter(FilterSpec::new(name, f.build().expect("valid filter")))
}

fn compile_chain(rates: &[(u32, u32, i32)], num_sms: u32) -> exec::Compiled {
    let spec = StreamSpec::pipeline(
        rates
            .iter()
            .enumerate()
            .map(|(i, &(p, q, s))| rate_filter(&format!("f{i}"), p, q, s))
            .collect::<Vec<_>>(),
    );
    let graph = spec.flatten().expect("chain flattens");
    let opts = CompileOptions {
        device: gpusim::DeviceConfig {
            num_sms,
            ..gpusim::DeviceConfig::small_test()
        },
        ..CompileOptions::small_test()
    };
    exec::compile(&graph, &opts).expect("chain compiles")
}

fn graph_opts() -> RunOptions {
    RunOptions {
        graph_dispatch: true,
        ..RunOptions::default()
    }
}

/// Differential sweep: all 8 benchmarks × 4 schemes byte-identical with
/// graph dispatch on vs. off, same launch count, honest billing in both
/// modes — and the launch path strictly cheaper on DES and FMRadio
/// under every SWP-family scheme.
#[test]
fn every_benchmark_is_byte_identical_with_graph_dispatch_on_vs_off() {
    for b in streambench::suite() {
        let graph = b.spec.flatten().expect("benchmark flattens");
        let c = exec::compile(&graph, &CompileOptions::small_test())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", b.name));
        for scheme in SCHEMES {
            let input: Vec<Scalar> = (b.input)(exec::required_input(&c, ITERS) as usize);
            // On the simulator: a priced run's outputs come from the
            // host firing plan whatever the dispatch path.
            let host = exec::simulate(&c, scheme, ITERS, &input, &RunOptions::default())
                .unwrap_or_else(|e| panic!("{}/{scheme:?}: host run failed: {e}", b.name));
            let replayed = exec::simulate(&c, scheme, ITERS, &input, &graph_opts())
                .unwrap_or_else(|e| panic!("{}/{scheme:?}: graph run failed: {e}", b.name));

            assert_eq!(
                host.outputs, replayed.outputs,
                "{}/{scheme:?}: graph dispatch changed the output stream",
                b.name
            );
            assert_eq!(
                host.launches, replayed.launches,
                "{}/{scheme:?}: graph dispatch changed the launch count",
                b.name
            );
            host.stats.assert_billing();
            replayed.stats.assert_billing();

            if matches!(scheme, Scheme::Serial { .. }) {
                // The serial scheme has no fixed steady-state graph:
                // the flag must be inert, not merely harmless.
                assert_eq!(
                    replayed.stats.graph_captures, 0,
                    "{}: serial captured",
                    b.name
                );
                assert_eq!(
                    replayed.stats.graph_replays, 0,
                    "{}: serial replayed",
                    b.name
                );
                assert_eq!(
                    host.stats.launch_path_cycles, replayed.stats.launch_path_cycles,
                    "{}: serial launch path moved",
                    b.name
                );
                continue;
            }

            assert!(
                replayed.stats.launch_path_cycles <= host.stats.launch_path_cycles,
                "{}/{scheme:?}: graph dispatch raised the launch tax",
                b.name
            );
            // The acceptance benchmarks: deep pipelines must replay and
            // must pay measurably less launch tax, not equal-or-less.
            if b.name == "DES" || b.name == "FMRadio" {
                assert!(
                    replayed.stats.graph_replays > 0,
                    "{}/{scheme:?}: no steady rounds replayed (ITERS too shallow?)",
                    b.name
                );
                assert_eq!(replayed.stats.graph_captures, 1, "{}/{scheme:?}", b.name);
                assert!(
                    replayed.stats.launch_path_cycles < host.stats.launch_path_cycles,
                    "{}/{scheme:?}: launch_cycles must drop strictly ({} vs {})",
                    b.name,
                    replayed.stats.launch_path_cycles,
                    host.stats.launch_path_cycles,
                );
            }
        }
    }
}

/// Soundness sweep: the capture the emitter produces for every
/// benchmark passes the `V05xx` pass with zero findings — no missing
/// edge (race), no surplus edge (lost overlap), no lag-0 cycle.
#[test]
fn every_emitted_capture_passes_the_event_edge_verifier() {
    for b in streambench::suite() {
        let graph = b.spec.flatten().expect("benchmark flattens");
        let c = exec::compile(&graph, &CompileOptions::small_test())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", b.name));
        let cap = capture_graph(&c.ig, &c.schedule, 1);
        let diags = verify::check_capture(&c.graph, &c.ig, &c.schedule, 1, &cap);
        assert!(
            diags.is_empty(),
            "{}: emitted capture has findings: {:?}",
            b.name,
            diags
        );
    }
}

/// Adversarial fixture: dropping any event edge from an emitted capture
/// is a race, rejected with `V0501` at error severity and a message
/// naming the un-gated consumer.
#[test]
fn dropped_event_edge_is_rejected_as_a_race() {
    let c = compile_chain(&[(1, 2, 1), (2, 3, 2), (3, 1, -3)], 4);
    let cap = capture_graph(&c.ig, &c.schedule, 1);
    assert!(
        verify::check_capture(&c.graph, &c.ig, &c.schedule, 1, &cap).is_empty(),
        "emitted capture must start clean"
    );
    assert!(
        !cap.edges.is_empty(),
        "fixture needs at least one cross-SM event edge to drop"
    );

    for drop_idx in 0..cap.edges.len() {
        let mut broken = cap.clone();
        let dropped = broken.edges.remove(drop_idx);
        let diags = verify::check_capture(&c.graph, &c.ig, &c.schedule, 1, &broken);
        let race = diags
            .iter()
            .find(|d| d.code == Code::MissingEventEdge)
            .unwrap_or_else(|| panic!("dropping {dropped:?} raised no V0501: {diags:?}"));
        assert_eq!(race.code.severity(), Severity::Error, "{race}");
        // Snapshot the diagnostic surface: family code and the race
        // vocabulary must be stable — serving rejections and CI logs
        // key on them.
        let header = race.to_string();
        assert!(header.contains("[V0501]"), "{header}");
        assert!(
            header.contains("error"),
            "races must render at error severity: {header}"
        );
    }
}

/// Adversarial fixture: a surplus edge pair that closes a lag-0 cycle
/// deadlocks the capture on first replay — rejected with `V0503` (and
/// the surplus edges themselves flagged `V0502` as lost overlap).
#[test]
fn cycle_inducing_surplus_edges_are_rejected_as_a_deadlock() {
    let c = compile_chain(&[(1, 2, 1), (2, 3, 2), (3, 1, -3)], 4);
    let mut cap = capture_graph(&c.ig, &c.schedule, 1);
    let n = cap.sm_of.len() as u32;
    assert!(n >= 2, "fixture needs two nodes");
    // Tie the first and last instance into a lag-0 wait-for loop.
    cap.edges.push(EventEdge {
        producer: 0,
        consumer: n - 1,
        lag: 0,
    });
    cap.edges.push(EventEdge {
        producer: n - 1,
        consumer: 0,
        lag: 0,
    });
    let diags = verify::check_capture(&c.graph, &c.ig, &c.schedule, 1, &cap);
    let cycle = diags
        .iter()
        .find(|d| d.code == Code::EventEdgeCycle)
        .unwrap_or_else(|| panic!("no V0503 deadlock finding: {diags:?}"));
    assert_eq!(cycle.code.severity(), Severity::Error, "{cycle}");
    let header = cycle.to_string();
    assert!(header.contains("[V0503]"), "{header}");
    assert!(
        diags.iter().any(|d| d.code == Code::SurplusEventEdge),
        "the injected edges must also be flagged as surplus: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .filter(|d| d.code == Code::SurplusEventEdge)
            .all(|d| d.code.severity() == Severity::Warning),
        "surplus edges are lost overlap, not races: {diags:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random stream graphs under seeded fault plans: captured-graph
    /// runs with retries and checkpoint-window replay produce output
    /// byte-identical to host-launched runs of the same plan, retry the
    /// same number of times, and keep the disjoint billing
    /// decomposition exact in both modes.
    #[test]
    fn faulted_runs_recover_byte_identically_across_dispatch_modes(
        rates in prop::collection::vec((1u32..4, 1u32..4, -3i32..4), 1..4),
        seed in 1u64..0x7FFF_FFFF,
        k in 1u32..4,
        scheme_idx in 0usize..SCHEMES.len(),
    ) {
        let c = compile_chain(&rates, 4);
        let scheme = SCHEMES[scheme_idx];
        let iterations = 12u64;
        let n_input = exec::required_input(&c, iterations);
        let input: Vec<Scalar> = (0..n_input).map(|i| Scalar::I32(i as i32 % 13)).collect();

        let clean = exec::execute_with(&c, scheme, iterations, &input, &RunOptions::default())
            .expect("clean run");

        let plan = FaultPlan::new(seed)
            .with_launch_failures(120)
            .with_mem_corruptions(80)
            .with_hangs(40);
        let mut runs = Vec::new();
        for graph_dispatch in [false, true] {
            let opts = RunOptions {
                fault_plan: Some(plan.clone()),
                retry: RetryPolicy { max_attempts: 12 },
                checkpoint_interval: k,
                graph_dispatch,
                ..RunOptions::default()
            };
            let run = exec::execute_with(&c, scheme, iterations, &input, &opts)
                .expect("faulted run survives under the raised retry budget");
            prop_assert_eq!(
                &run.outputs, &clean.outputs,
                "dispatch {} must recover to the clean output", graph_dispatch
            );
            run.stats.assert_billing();
            runs.push(run);
        }
        // Fault injection is keyed on attempt ordinals and both modes
        // issue the identical run sequence, so the draws — and hence
        // the retries — must agree exactly.
        prop_assert_eq!(runs[0].retries, runs[1].retries);
        prop_assert_eq!(runs[0].launches, runs[1].launches);
        prop_assert!(
            runs[1].stats.launch_path_cycles <= runs[0].stats.launch_path_cycles
        );
    }
}
