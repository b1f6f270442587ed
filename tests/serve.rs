//! Integration tests for the multi-tenant serving runtime: spatial
//! isolation (sliced runs are byte- and cycle-identical to solo runs),
//! cache hits that never invoke the scheduler, bounded admission under
//! saturating arrivals, and the `BENCH_serve.json` serving report.

use proptest::prelude::*;
use streamir::ir::Scalar;
use swpipe::exec::{self, required_input, CompileOptions};
use swpipe::pipeline::{PipelineOptions, ResilientPipeline};
use swpipe::serve::{
    cache_key, CacheOptions, CompilationCache, Job, QosClass, ServeOptions, Server, Verdict,
};

/// The pipeline options the server compiles a tenant's job under, for
/// solo reference compilations: same device family at the slice width,
/// same profile grid, search options, budgets, and policy.
fn solo_options(num_sms: u32, qos: QosClass) -> PipelineOptions {
    let serve = ServeOptions::default();
    PipelineOptions {
        compile: CompileOptions {
            device: gpusim::DeviceConfig {
                num_sms,
                ..serve.device
            },
            timing: serve.timing,
            profile: serve.profile,
            search: serve.search,
        },
        budgets: serve.budgets,
        fault_plan: None,
        policy: qos.policy(),
        graph_dispatch: false,
    }
}

fn bench_job(name: &str, iterations: u64) -> Job {
    let b = streambench::by_name(name).expect("benchmark exists");
    Job {
        tenant: name.to_string(),
        graph: b.spec.flatten().expect("benchmark flattens"),
        input: b.input,
        iterations,
        qos: QosClass::Batch,
    }
}

fn completed(v: Verdict) -> swpipe::serve::JobResult {
    match v {
        Verdict::Completed(r) => *r,
        Verdict::Rejected { retry_after_secs } => {
            panic!("unexpected rejection (retry in {retry_after_secs}s)")
        }
    }
}

/// Acceptance (a): two tenants co-scheduled on disjoint SM slices get
/// byte-identical outputs — and, for the cache-hit job whose latency is
/// pure execution time, cycle-identical times — to solo runs on a
/// device of their slice's width.
#[test]
fn sliced_tenants_match_solo_runs() {
    let iters = 3;
    let mut server = Server::new(ServeOptions::default());
    let bitonic = bench_job("Bitonic", iters);
    let fft = bench_job("FFT", iters);

    // Admit both tenants (the partition recuts as each joins), then
    // measure at the settled widths.
    completed(server.submit(&bitonic, 0.0).unwrap());
    completed(server.submit(&fft, 0.1).unwrap());
    let a = completed(server.submit(&bitonic, 1.0).unwrap());
    let b = completed(server.submit(&fft, 1.1).unwrap());

    // The slices are disjoint and cover distinct SM ranges.
    let (sa, sb) = (a.slice, b.slice);
    assert_eq!(sa.num_sms, 8);
    assert_eq!(sb.num_sms, 8);
    assert!(
        sa.base_sm + sa.num_sms <= sb.base_sm || sb.base_sm + sb.num_sms <= sa.base_sm,
        "slices overlap: {sa:?} vs {sb:?}"
    );

    // Repeat jobs on the same arrival cadence (an out-of-cadence gap
    // would legitimately shift the rate estimate and recut the
    // partition): same width, same options — a cache hit with no
    // compile penalty.
    let a_hit = completed(server.submit(&bitonic, 2.0).unwrap());
    let b_hit = completed(server.submit(&fft, 2.1).unwrap());

    // Solo references at each tenant's slice width.
    for (job, result, hit) in [(&bitonic, &a, &a_hit), (&fft, &b, &b_hit)] {
        let opts = solo_options(result.slice.num_sms, job.qos);
        let rc = ResilientPipeline::new(opts).compile(&job.graph).unwrap();
        let input: Vec<Scalar> = (job.input)(required_input(&rc.compiled, iters) as usize);
        let solo =
            exec::execute_with(&rc.compiled, rc.scheme, iters, &input, &rc.run_options).unwrap();
        assert_eq!(
            solo.outputs, result.outputs,
            "{}: sliced run diverged from the solo run",
            job.tenant
        );

        // A cache-hit job pays no compile penalty and the slice is idle,
        // so its whole latency is the modeled execution time — which must
        // equal the solo run's exactly (cycle identity, not approximation).
        assert!(hit.cache_hit, "{}: repeat job should hit", job.tenant);
        assert_eq!(
            hit.exec_secs, solo.time_secs,
            "{}: sliced timing diverged from the solo run",
            job.tenant
        );
        // The latency differs from the pure execution time only by
        // virtual-clock arithmetic rounding, never by queueing.
        assert!((hit.latency_secs - hit.exec_secs).abs() < 1e-9);
    }
}

/// Acceptance (b): a cache hit serves a verified artifact without a
/// single scheduler invocation.
#[test]
fn cache_hit_serves_without_invoking_the_scheduler() {
    let mut server = Server::new(ServeOptions::default());
    let job = bench_job("DCT", 2);
    let first = completed(server.submit(&job, 0.0).unwrap());
    assert!(!first.cache_hit);

    // Scheduler searches the server has paid for, over all its tenants.
    let searches = |server: &Server| -> u64 {
        let tenants = server.report().tenants;
        tenants.iter().map(|t| t.search_invocations).sum()
    };
    let before = searches(&server);
    assert!(before > 0, "the miss paid for its schedule search");
    let second = completed(server.submit(&job, 5.0).unwrap());
    assert!(second.cache_hit);
    assert_eq!(
        searches(&server),
        before,
        "a cache hit must not invoke the scheduler"
    );
    assert_eq!(second.outputs, first.outputs);
    assert_eq!(server.cache_stats().hits, 1);
    assert_eq!(server.cache_stats().misses, 1);
}

/// Acceptance (c): under saturating arrivals the queue stays bounded —
/// excess jobs are rejected with a finite retry-after hint and the
/// accepted jobs' tail latency stays finite.
#[test]
fn admission_bounds_the_queue_under_saturation() {
    let mut server = Server::new(ServeOptions {
        max_queue: 4,
        ..ServeOptions::default()
    });
    let job = bench_job("Bitonic", 2);

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    // Fifty simultaneous arrivals: none of the admitted jobs can finish
    // before the whole burst has been decided.
    for _ in 0..50 {
        match server.submit(&job, 0.0).unwrap() {
            Verdict::Completed(_) => accepted += 1,
            Verdict::Rejected { retry_after_secs } => {
                assert!(
                    retry_after_secs.is_finite() && retry_after_secs > 0.0,
                    "retry-after must be a positive finite hint, got {retry_after_secs}"
                );
                rejected += 1;
            }
        }
    }
    assert_eq!(
        accepted, 4,
        "the queue bound must cap simultaneous admissions"
    );
    assert_eq!(rejected, 46);

    let report = server.report();
    let t = &report.tenants[0];
    assert_eq!(t.jobs_accepted, 4);
    assert_eq!(t.jobs_rejected, 46);
    assert!(
        t.p99_latency_secs.is_finite(),
        "p99 must stay finite under saturation"
    );
}

/// Acceptance (d): the serving benchmark produces `BENCH_serve.json`
/// and it parses back with the expected shape.
#[test]
fn serve_bench_report_is_produced_and_parses() {
    let report = { stream_gpu::serve_bench::run_trace(2, 1) };
    // Write to a scratch path: the committed BENCH_serve.json is the
    // verbatim output of the full serve_bench run and is drift-checked
    // against a fresh full run in CI, so a shortened test trace must
    // never overwrite it.
    let path = std::env::temp_dir().join("stream_gpu_test_BENCH_serve.json");
    let path = path.to_str().unwrap();
    stream_gpu::write_json(&report, path);
    let text = std::fs::read_to_string(path).unwrap();
    let v = serde_json::from_str(&text).expect("BENCH_serve.json parses");

    assert!(v.get("makespan_secs").and_then(|m| m.as_f64()).unwrap() > 0.0);
    assert!(v.get("cache_hit_rate").and_then(|m| m.as_f64()).is_some());
    let tenants = v.get("tenants").and_then(|t| t.as_array()).unwrap();
    assert_eq!(tenants.len(), 8, "one row per benchmark");
    for t in tenants {
        for key in [
            "throughput_tokens_per_sec",
            "p50_latency_secs",
            "p99_latency_secs",
            "slice_utilization",
            "retry_rate",
            "fault_overhead_share",
        ] {
            let x = t.get(key).and_then(|x| x.as_f64()).unwrap();
            assert!(x.is_finite(), "{key} must be finite");
        }
        assert!(t.get("slice").and_then(|s| s.get("num_sms")).is_some());
    }
}

/// Satellite: the cache key is a pure function of content — two
/// independently constructed copies of the same benchmark and options
/// hash identically (the disk-tier unit test covers reuse across cache
/// instances, i.e. across processes for a persisted directory).
#[test]
fn cache_key_is_construction_independent() {
    for name in ["Bitonic", "DES", "FMRadio"] {
        let g1 = streambench::by_name(name).unwrap().spec.flatten().unwrap();
        let g2 = streambench::by_name(name).unwrap().spec.flatten().unwrap();
        let o1 = solo_options(4, QosClass::Batch);
        let o2 = solo_options(4, QosClass::Batch);
        assert_eq!(cache_key(&g1, &o1), cache_key(&g2, &o2), "{name}");
        assert_ne!(
            cache_key(&g1, &o1),
            cache_key(&g1, &solo_options(4, QosClass::Interactive)),
            "{name}: QoS policy must split the key"
        );
    }
}

/// The cache key, encoded from scratch: the graph's canonical form, then
/// every option, through one hasher with nothing memoised. `cache_key`
/// resumes from the graph's memoised hash state instead; this reference
/// pins that the two agree, so keys (and with them disk-tier file names
/// and fleet replica placement) survive the memoisation bit for bit.
fn reference_key(graph: &streamir::graph::FlatGraph, opts: &PipelineOptions) -> u64 {
    let mut h = swpipe::hash::Fnv::new();
    for node in graph.nodes() {
        h.str(&node.name);
        h.str(&format!("{:?}", node.role));
        h.str(&node.work.to_pretty());
    }
    for edge in graph.edges() {
        h.str(&format!(
            "{}:{}->{}:{} {:?} {:?}",
            edge.src.0, edge.src_port, edge.dst.0, edge.dst_port, edge.elem, edge.initial
        ));
    }
    h.str(&format!("{:?}/{:?}", graph.input(), graph.output()));
    let c = &opts.compile;
    h.str(&format!("{:?}", c.device));
    h.str(&format!("{:?}", c.timing));
    h.str(&format!("{:?}", c.profile));
    h.str(&format!("{:?}", c.search));
    h.str(&format!("{:?}", opts.budgets));
    h.str(&format!("{:?}", opts.policy));
    h.str(&format!("{:?}", opts.fault_plan));
    h.str(&format!("graph_dispatch={}", opts.graph_dispatch));
    h.finish()
}

/// Satellite: over the suite × slice widths × both fault policies ×
/// both dispatch modes, the memoised key equals the from-scratch
/// encoding — on the first lookup of a graph (memo empty), on later
/// ones (memo filled), through a clone (memo shared) and on a second
/// flattening of the same spec (content-addressed, never
/// pointer-addressed).
#[test]
fn memoised_cache_key_equals_the_from_scratch_encoding() {
    let mut keys = std::collections::BTreeSet::new();
    for b in streambench::suite() {
        let graph = b.spec.flatten().expect("benchmark flattens");
        let clone = graph.clone();
        let again = b.spec.flatten().expect("benchmark flattens");
        for width in [1, 2, 4, 16] {
            for qos in [QosClass::Batch, QosClass::Interactive] {
                for graph_dispatch in [false, true] {
                    let opts = PipelineOptions {
                        graph_dispatch,
                        ..solo_options(width, qos)
                    };
                    let expect = reference_key(&graph, &opts);
                    let ctx = format!("{} w{width} {qos:?} graph={graph_dispatch}", b.name);
                    assert_eq!(cache_key(&graph, &opts), expect, "{ctx}");
                    assert_eq!(cache_key(&clone, &opts), expect, "{ctx}: clone");
                    assert_eq!(cache_key(&again, &opts), expect, "{ctx}: re-flattened");
                    keys.insert(expect);
                }
            }
        }
    }
    assert_eq!(keys.len(), 8 * 4 * 2 * 2, "every configuration keys apart");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Satellite: over the benchmark suite, a cache-hit artifact's
    /// output is bit-identical to a fresh compile's.
    #[test]
    fn cache_hit_output_matches_fresh_compile(bench_idx in 0usize..8, iters in 1u64..3) {
            let suite = streambench::suite();
        let b = &suite[bench_idx];
        let graph = b.spec.flatten().unwrap();
        let opts = solo_options(4, QosClass::Batch);

        let fresh = ResilientPipeline::new(opts.clone()).compile(&graph).unwrap();
        let mut cache = CompilationCache::new(CacheOptions::default());
        let (_, miss_hit) = cache.get_or_compile(&graph, &opts).unwrap();
        prop_assert!(!miss_hit);
        let (hit, was_hit) = cache.get_or_compile(&graph, &opts).unwrap();
        prop_assert!(was_hit);

        let input: Vec<Scalar> =
            (b.input)(required_input(&fresh.compiled, iters) as usize);
        let fresh_run =
            exec::execute_with(&fresh.compiled, fresh.scheme, iters, &input, &fresh.run_options)
                .unwrap();
        let hit_run = hit.execute(iters, &input, &hit.run_options).unwrap();
        prop_assert_eq!(
            &fresh_run.outputs, &hit_run.outputs,
            "{}: cache-hit output diverged from fresh compile", b.name
        );
        prop_assert_eq!(fresh_run.time_secs, hit_run.time_secs);
    }
}
