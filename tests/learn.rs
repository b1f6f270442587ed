//! Acceptance tests for the learned cost model (`swpipe::learn`): beam
//! quality against the exact lower bound, search-invocation pruning,
//! semantic neutrality of beam schedules, warm-started serving, and the
//! byte-stability of the committed dataset/model artifacts.

use std::time::Duration;

use streamir::ir::Scalar;
use swpipe::exec::{self, CompileOptions};
use swpipe::learn::{CostModel, CostModelHandle};
use swpipe::pipeline::{
    FaultPolicy, LadderRung, PipelineOptions, ResilientCompiled, ResilientPipeline, StageBudgets,
};
use swpipe::serve::{EventEngine, Job, QosClass, ServeOptions};

/// The committed model artifact, schema-checked against the live
/// feature extractor.
fn committed_model() -> CostModel {
    let text = std::fs::read_to_string("models/cost_model.json")
        .expect("committed model artifact exists (stream-gpu regen models/cost_model.json)");
    let model = CostModel::from_json(&text).expect("committed model parses");
    model
        .check_schema()
        .expect("committed model matches the live feature schema");
    model
}

fn handle() -> CostModelHandle {
    CostModelHandle::new(committed_model())
}

/// Compile options for the beam path: model installed, exact rungs
/// irrelevant (the beam rung ships first).
fn beam_pipeline(num_sms: u32) -> ResilientPipeline {
    let mut compile = CompileOptions::small_test();
    compile.device.num_sms = num_sms;
    compile.search.cost_model = Some(handle());
    ResilientPipeline::new(PipelineOptions {
        compile,
        ..PipelineOptions::default()
    })
}

/// Compile options for the fresh full-ladder baseline: no model, the
/// exact-ILP rung armed with a 1 ns budget — nonzero (so the rung
/// genuinely runs and the search is invoked) but exhausted at the
/// solver's first branch-and-bound node check, so the ladder degrades
/// deterministically to the heuristic without burning wall clock on
/// the suite's large ILP formulations. The relaxed rung is skipped
/// outright (its budget floor would let a large root LP run): the
/// ladder's fresh-compile cost here — the exact rung's search, then the
/// heuristic rung's — is its *cheapest* honest configuration, so the
/// measured pruning factor is a floor.
fn ladder_pipeline(num_sms: u32) -> ResilientPipeline {
    let mut compile = CompileOptions::small_test();
    compile.device.num_sms = num_sms;
    compile.search.max_attempts = 1;
    ResilientPipeline::new(PipelineOptions {
        compile,
        budgets: StageBudgets {
            exact_ilp: Duration::from_nanos(1),
            relaxed_ilp: Duration::ZERO,
            ..StageBudgets::default()
        },
        ..PipelineOptions::default()
    })
}

fn run(rc: &ResilientCompiled, iters: u64, input: fn(usize) -> Vec<Scalar>) -> Vec<Scalar> {
    let needed = exec::required_input(&rc.compiled, iters);
    exec::execute(&rc.compiled, rc.scheme, iters, &input(needed as usize))
        .unwrap()
        .outputs
}

/// Beam quality and pruning on the full benchmark suite.
///
/// * Quality: the shipped beam II stays within 5% of the search's exact
///   lower bound (`res_mii / rec_mii / max-delay`). The exact-ILP II is
///   sandwiched between that bound and the beam II, so this implies the
///   beam is within 5% of the exact-ILP II on every benchmark.
/// * Pruning: a fresh beam compile pays for one scheduler search
///   ([`swpipe::pipeline::DegradationReport::search_invocations`]) where
///   the fresh ladder compile, even with its relaxed rung skipped, pays
///   for the exact rung's and the heuristic rung's.
/// * Semantics: the beam artifact's outputs are byte-identical to the
///   exact-path artifact's for the same job, and its schedule passed
///   the full static verifier inside the ladder (`verify_rung` gates
///   every shipped rung).
#[test]
fn beam_is_near_exact_and_prunes_search_on_the_whole_suite() {
    let num_sms = 4;
    for b in streambench::suite() {
        let graph = b.spec.flatten().expect("benchmark flattens");

        let beam = beam_pipeline(num_sms).compile(&graph).unwrap();
        let beam_cost = beam.report.search_invocations();

        let ladder = ladder_pipeline(num_sms).compile(&graph).unwrap();
        let ladder_cost = ladder.report.search_invocations();

        assert_eq!(
            beam.report.shipped,
            LadderRung::Beam,
            "{}: beam rung must ship, got {}",
            b.name,
            beam.report
        );
        assert!(
            !beam.report.degraded(),
            "{}: beam is not a degradation",
            b.name
        );

        let report = &beam.compiled.report;
        let bound = (report.lower_bound as f64 * 1.05).ceil() as u64;
        assert!(
            report.final_ii <= bound,
            "{}: beam II {} exceeds 1.05 x lower bound {} (= {})",
            b.name,
            report.final_ii,
            report.lower_bound,
            bound
        );

        assert!(
            ladder_cost >= 2 * beam_cost,
            "{}: ladder cost {ladder_cost} searches, beam cost {beam_cost} — \
             expected at least a 2x reduction",
            b.name
        );
        assert_eq!(beam_cost, 1, "{}: a beam compile is one search", b.name);

        assert_eq!(
            run(&beam, 2, b.input),
            run(&ladder, 2, b.input),
            "{}: beam schedule changed the program's outputs",
            b.name
        );
    }
}

/// Per-artifact accounting: the beam artifact reports one search paid;
/// the ladder baseline reports two (exact paid-and-failed, heuristic
/// paid-and-shipped) with its zero-budget relaxed rung excluded as
/// `SkippedBudget` — the counter `ServeReport`/`FleetReport` aggregate
/// per tenant and per device.
#[test]
fn degradation_report_counts_paid_searches() {
    let graph = streambench::suite()[0].spec.flatten().unwrap();
    let beam = beam_pipeline(4).compile(&graph).unwrap();
    assert_eq!(beam.report.search_invocations(), 1);
    let ladder = ladder_pipeline(4).compile(&graph).unwrap();
    assert_eq!(
        ladder.report.search_invocations(),
        2,
        "exact (failed) + heuristic (shipped) are paid; the zero-budget \
         relaxed rung is not: {}",
        ladder.report
    );
}

/// Warm-vs-cold serving differential on a small engine: warming the
/// cache first must lift the hit rate, zero out every tenant's
/// `search_invocations`, and leave every job's outputs byte-identical.
#[test]
fn warm_started_serving_hits_where_cold_misses() {
    let opts = || ServeOptions {
        device: gpusim::DeviceConfig {
            num_sms: 4,
            ..gpusim::DeviceConfig::gts512()
        },
        ..ServeOptions::default()
    };
    let suite = streambench::suite();
    let tenants = &suite[..3];
    let mut trace = Vec::new();
    let mut now = 0.0;
    for _round in 0..2 {
        for b in tenants {
            trace.push((
                Job {
                    tenant: b.name.to_string(),
                    graph: b.spec.flatten().unwrap(),
                    input: b.input,
                    iterations: 1,
                    qos: QosClass::Batch,
                },
                now,
            ));
            now += 0.1;
        }
        now += 1.0;
    }
    let graphs: Vec<_> = tenants.iter().map(|b| b.spec.flatten().unwrap()).collect();

    let serve = |warm: bool| {
        let mut engine = EventEngine::new(opts());
        if warm {
            let report = engine.warm(&graphs, 1);
            assert_eq!(report.failed, 0, "warming must compile every point");
            assert!(report.compiled > 0);
        }
        let verdicts = engine.serve_trace(&trace).unwrap();
        let outputs: Vec<Vec<Scalar>> = verdicts
            .iter()
            .map(|v| match v {
                swpipe::serve::Verdict::Completed(r) => r.outputs.clone(),
                swpipe::serve::Verdict::Rejected { .. } => panic!("unexpected rejection"),
            })
            .collect();
        (engine.report(), outputs)
    };

    let (cold, cold_outputs) = serve(false);
    let (warm, warm_outputs) = serve(true);

    assert_eq!(
        cold_outputs, warm_outputs,
        "cache warming must not change any job's outputs"
    );
    assert!(
        warm.cache_hit_rate > cold.cache_hit_rate,
        "warm hit rate {} must beat cold {}",
        warm.cache_hit_rate,
        cold.cache_hit_rate
    );
    assert_eq!(warm.cache.misses, 0, "a fully warmed trace never misses");

    let paid = |r: &swpipe::serve::ServeReport| -> u64 {
        r.tenants.iter().map(|t| t.search_invocations).sum()
    };
    assert!(paid(&cold) > 0, "cold serving pays for searches");
    assert_eq!(paid(&warm), 0, "warm serving pays for none");
}

/// Fleet-store warming: pre-compiling into the replicated artifact
/// store takes every scheduler search off the serving path
/// (`FleetReport::search_invocations` drops to zero) without changing
/// job outcomes.
#[test]
fn fleet_store_warming_zeroes_serving_search_invocations() {
    use swpipe::fleet::{FleetEngine, FleetOptions, FleetVerdict};
    let suite = streambench::suite();
    let tenants = &suite[..2];
    let base = ServeOptions {
        device: gpusim::DeviceConfig {
            num_sms: 4,
            ..gpusim::DeviceConfig::gts512()
        },
        ..ServeOptions::default()
    };
    let opts = || FleetOptions {
        devices: 2,
        base: base.clone(),
        ..FleetOptions::default()
    };
    let mut trace = Vec::new();
    for (i, b) in tenants.iter().enumerate() {
        trace.push((
            Job {
                tenant: b.name.to_string(),
                graph: b.spec.flatten().unwrap(),
                input: b.input,
                iterations: 1,
                qos: QosClass::Batch,
            },
            i as f64 * 0.1,
        ));
    }
    let graphs: Vec<_> = tenants.iter().map(|b| b.spec.flatten().unwrap()).collect();

    let mut cold = FleetEngine::new(opts());
    let cold_verdicts = cold.run(&trace).unwrap();
    let cold_report = cold.report();
    assert!(cold_report.search_invocations > 0);

    let mut warm = FleetEngine::new(opts());
    let warm_report = warm.warm(&graphs, 1);
    assert_eq!(warm_report.failed, 0);
    assert!(warm_report.compiled > 0);
    let warm_verdicts = warm.run(&trace).unwrap();
    let report = warm.report();
    assert_eq!(
        report.search_invocations, 0,
        "a fully warmed store pays for no serving-path searches"
    );
    assert_eq!(report.jobs_lost, 0);

    for (c, w) in cold_verdicts.iter().zip(&warm_verdicts) {
        match (c, w) {
            (FleetVerdict::Completed(c), FleetVerdict::Completed(w)) => {
                assert_eq!(c.outputs, w.outputs, "warming changed a job's outputs");
            }
            _ => panic!("both runs must complete every job"),
        }
    }
}

/// The committed dataset and model artifacts are exact replays of the
/// deterministic generator and trainer — the property
/// `stream-gpu regen --check` enforces on every push.
#[test]
fn committed_learn_artifacts_are_byte_stable() {
    let dataset = stream_gpu::learn_gen::gen(true);
    let committed = std::fs::read_to_string("datasets/learn_small.json")
        .expect("committed dataset exists (stream-gpu regen datasets/learn_small.json)");
    assert_eq!(
        dataset.to_json(),
        committed,
        "datasets/learn_small.json is not a fresh regeneration; \
         rerun: cargo run --release -- regen datasets/learn_small.json"
    );

    let model = stream_gpu::learn_train::train_canonical(&dataset).expect("trains");
    let committed = std::fs::read_to_string("models/cost_model.json").expect("committed model");
    assert_eq!(
        model.to_json(),
        committed,
        "models/cost_model.json is not a fresh retrain; \
         rerun: cargo run --release -- regen models/cost_model.json"
    );
    assert_eq!(model.digest(), committed_model().digest());
}

/// Installing a cost model changes every cache key (the model digest is
/// part of the compile options), and two handles over byte-identical
/// models agree — reloading the committed artifact does not invalidate
/// a warmed cache.
#[test]
fn cost_model_identity_is_digest_stable() {
    let a = CostModelHandle::new(committed_model());
    let b = CostModelHandle::new(committed_model());
    assert_eq!(a, b);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));

    let graph = streambench::suite()[0].spec.flatten().unwrap();
    let mut with = PipelineOptions {
        compile: CompileOptions::small_test(),
        ..PipelineOptions::default()
    };
    let without = swpipe::serve::cache_key(&graph, &with);
    with.compile.search.cost_model = Some(a);
    assert_ne!(
        swpipe::serve::cache_key(&graph, &with),
        without,
        "installing a model must change the cache key"
    );
}

/// The beam honors `FaultPolicy::TailLatency`'s schedule reserve like
/// the exact rungs do: the reserved II survives into the artifact and
/// its run options.
#[test]
fn beam_respects_fault_policy_reserve() {
    let graph = streambench::suite()[0].spec.flatten().unwrap();
    let mut compile = CompileOptions::small_test();
    compile.search.cost_model = Some(handle());
    let rc = ResilientPipeline::new(PipelineOptions {
        compile,
        policy: FaultPolicy::TailLatency,
        fault_plan: Some(gpusim::FaultPlan::new(7).with_launch_failures(50)),
        ..PipelineOptions::default()
    })
    .compile(&graph)
    .unwrap();
    assert_eq!(rc.report.shipped, LadderRung::Beam);
    assert!(
        rc.compiled.report.fault_reserve > 0,
        "TailLatency under a fault plan must reserve schedule headroom"
    );
    assert_eq!(
        rc.compiled.report.final_ii,
        rc.compiled.report.nominal_ii + rc.compiled.report.fault_reserve
    );
}
