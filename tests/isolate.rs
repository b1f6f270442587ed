//! Integration tests for the tenant-isolation prover
//! ([`swpipe::verify::isolate`]).
//!
//! The headline properties:
//!
//! * **Differential**: every benchmark in the suite earns an
//!   [`swpipe::verify::IsolationCertificate`] under every execution
//!   scheme, with zero `V04xx` findings, and the certificate re-verifies
//!   against the artifact.
//! * **Placement universe**: a certified artifact runs byte-identically
//!   and fault-free at *every* base SM the partitioner could ever assign
//!   its slice ([`swpipe::serve::placement_universe`]) — the proof
//!   quantifies over placements, so no placement can make a certified
//!   artifact address outside its arena.
//! * **Adversarial**: hand-built bindings that scatter past the arena,
//!   alias a neighbor's channel, or ship checkpoint words into a foreign
//!   region are each rejected with their precise diagnostic
//!   (`V0401`/`V0402`/`V0403`) — and, property-tested, a randomly skewed
//!   binding passes `check_binding` **iff** its whole address span is
//!   contained in its owner's region.

use gpusim::{BufferBinding, DeviceConfig, Layout};
use proptest::prelude::*;
use streamir::graph::{FilterSpec, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};
use swpipe::exec::{self, CompileOptions, RunOptions, Scheme, SmPlacement};
use swpipe::serve::placement_universe;
use swpipe::verify::isolate::{self, RegionOwner};
use swpipe::verify::{self, Code};

const SCHEMES: [Scheme; 4] = [
    Scheme::Swp { coarsening: 1 },
    Scheme::SwpNc { coarsening: 1 },
    Scheme::SwpRaw { coarsening: 1 },
    Scheme::Serial { batch: 1 },
];

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
        device: DeviceConfig {
            num_sms,
            ..DeviceConfig::small_test()
        },
        ..CompileOptions::small_test()
    };
    exec::compile(&graph, &opts).expect("chain compiles")
}

/// Differential sweep: every benchmark × scheme earns a certificate with
/// zero findings, and the certificate re-verifies against the artifact.
#[test]
fn every_benchmark_certifies_under_every_scheme() {
    for b in streambench::suite() {
        let graph = b.spec.flatten().expect("benchmark flattens");
        let c = exec::compile(&graph, &CompileOptions::small_test())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", b.name));
        for scheme in SCHEMES {
            let iso = isolate::certify(&c, scheme)
                .unwrap_or_else(|e| panic!("{}/{scheme:?}: prover failed: {e}", b.name));
            assert!(
                iso.diagnostics.is_empty(),
                "{}/{scheme:?}: unexpected findings: {:?}",
                b.name,
                iso.diagnostics
            );
            let cert = iso
                .certificate
                .unwrap_or_else(|| panic!("{}/{scheme:?}: no certificate", b.name));
            assert!(
                cert.exact,
                "{}/{scheme:?}: proof fell back to spans",
                b.name
            );
            assert!(cert.accesses_checked > 0);
            verify::verify_certificate(&c, scheme, &cert)
                .unwrap_or_else(|e| panic!("{}/{scheme:?}: re-verify failed: {e}", b.name));
        }
    }
}

/// A certified artifact placed at every base SM of a wider shared device
/// runs without faults and produces the solo run's exact outputs:
/// placement moves compute, never addresses, which is precisely what the
/// certificate quantified over.
#[test]
fn certified_artifact_runs_identically_across_the_placement_universe() {
    let width = 4u32;
    let shared = DeviceConfig {
        num_sms: 16,
        ..DeviceConfig::small_test()
    };
    let c = compile_chain(&[(1, 2, 1), (2, 3, 2), (3, 1, -3)], width);
    let scheme = Scheme::Swp { coarsening: 1 };
    let cert = isolate::certify(&c, scheme)
        .expect("prover runs")
        .certificate
        .expect("chain certifies");
    verify::verify_certificate(&c, scheme, &cert).expect("certificate verifies");

    let iterations = 2u64;
    let n_input = exec::required_input(&c, iterations);
    let input: Vec<Scalar> = (0..n_input).map(|i| Scalar::I32(i as i32 % 17)).collect();
    // On the simulator, whose accesses the placement moves.
    let solo =
        exec::simulate(&c, scheme, iterations, &input, &RunOptions::default()).expect("solo run");

    let universe = placement_universe(shared.num_sms, width);
    assert_eq!(universe, (0..=12).collect::<Vec<_>>());
    for base_sm in universe {
        let opts = RunOptions {
            placement: Some(SmPlacement {
                device: shared.clone(),
                base_sm,
            }),
            ..RunOptions::default()
        };
        let run = exec::simulate(&c, scheme, iterations, &input, &opts)
            .unwrap_or_else(|e| panic!("base_sm {base_sm}: run failed: {e}"));
        assert_eq!(run.retries, 0, "base_sm {base_sm}: certified run faulted");
        assert_eq!(
            run.outputs, solo.outputs,
            "base_sm {base_sm}: placement changed results"
        );
    }
}

/// The three adversarial fixtures, each caught with its precise code.
#[test]
fn adversarial_fixtures_are_rejected_with_their_precise_codes() {
    let c = compile_chain(&[(1, 2, 1), (2, 3, 2), (3, 1, -3)], 4);
    let scheme = Scheme::Swp { coarsening: 1 };
    let map = isolate::region_map(&c, scheme, 1).expect("map builds");

    // Scatter past the arena: inflated geometry -> V0401.
    let own = map.region_of(RegionOwner::Channel(0)).expect("channel 0");
    let escape = BufferBinding {
        base_word: own.base as u32,
        region_tokens: map.arena_words + 512,
        regions: 1,
        layout: Layout::Sequential,
        consumer_rate: 1,
        endpoint_rate: 1,
        abs_start: 0,
    };
    let d = isolate::check_binding(&map, &escape, RegionOwner::Channel(0)).expect("caught");
    assert_eq!(d.code, Code::IsolationEscape, "{d}");

    // Alias a neighbor's channel buffer -> V0402 naming the victim.
    let victim = map.region_of(RegionOwner::Channel(1)).expect("channel 1");
    let alias = BufferBinding {
        base_word: victim.base as u32,
        region_tokens: victim.words,
        regions: 1,
        layout: Layout::Sequential,
        consumer_rate: 1,
        endpoint_rate: 1,
        abs_start: 0,
    };
    let d = isolate::check_binding(&map, &alias, RegionOwner::Channel(0)).expect("caught");
    assert_eq!(d.code, Code::ForeignRegionAccess, "{d}");
    assert_eq!(d.edge, Some(1), "victim channel is attributed");

    // Ship checkpoint words into a channel region -> V0403.
    let ds = isolate::check_ship_targets(&map, &[(own.base, 1)]);
    assert_eq!(ds.len(), 1, "{ds:?}");
    assert_eq!(ds[0].code, Code::CheckpointEscape, "{}", ds[0]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random chains at random slice widths certify, and the certified
    /// artifact runs fault-free with solo-identical outputs at a random
    /// placement from the universe — the "certified artifacts never
    /// fault" half of the acceptance criterion, over random tenant
    /// geometries (slice width stands in for tenant count: `k` admitted
    /// tenants of a 16-SM device get widths that sum to 16).
    #[test]
    fn random_certified_chains_never_fault_under_random_placement(
        rates in prop::collection::vec((1u32..4, 1u32..4, -3i32..4), 1..4),
        width in 2u32..5,
        placement_seed in 0u32..1024,
        scheme_idx in 0usize..SCHEMES.len(),
    ) {
        let shared = DeviceConfig { num_sms: 16, ..DeviceConfig::small_test() };
        let c = compile_chain(&rates, width);
        let scheme = SCHEMES[scheme_idx];
        let iso = isolate::certify(&c, scheme).expect("prover runs");
        let cert = iso.certificate.expect("well-formed chain certifies");
        verify::verify_certificate(&c, scheme, &cert).expect("certificate verifies");

        let universe = placement_universe(shared.num_sms, width);
        prop_assert!(!universe.is_empty());
        let base_sm = universe[placement_seed as usize % universe.len()];
        let iterations = 2u64;
        let n_input = exec::required_input(&c, iterations);
        let input: Vec<Scalar> = (0..n_input).map(|i| Scalar::I32(i as i32 % 13)).collect();
        let solo = exec::simulate(&c, scheme, iterations, &input, &RunOptions::default())
            .expect("solo run");
        let opts = RunOptions {
            placement: Some(SmPlacement { device: shared, base_sm }),
            ..RunOptions::default()
        };
        let run = exec::simulate(&c, scheme, iterations, &input, &opts)
            .expect("placed run");
        prop_assert_eq!(run.retries, 0, "certified artifact faulted at base {}", base_sm);
        prop_assert_eq!(run.outputs, solo.outputs);
    }

    /// `check_binding` is exactly the span-containment oracle: a randomly
    /// skewed binding passes iff its whole address span lies inside its
    /// owner's region — so no adversarial skew that leaves the region can
    /// ever pass, and no in-region binding is ever rejected.
    #[test]
    fn skewed_bindings_pass_iff_their_span_is_contained(
        base_shift in 0u64..4096,
        tokens in 1u64..4096,
        regions in 1u32..4,
        rate in 1u32..5,
    ) {
        let c = compile_chain(&[(1, 2, 1), (2, 3, 2), (3, 1, -3)], 4);
        let map = isolate::region_map(&c, Scheme::Swp { coarsening: 1 }, 1)
            .expect("map builds");
        let own = *map.region_of(RegionOwner::Channel(0)).expect("channel 0");
        let b = BufferBinding {
            base_word: (own.base + base_shift) as u32,
            region_tokens: tokens,
            regions,
            layout: Layout::Transposed { group: 4 },
            consumer_rate: rate,
            endpoint_rate: rate,
            abs_start: 0,
        };
        let (span_base, span_words) = b.span();
        let contained = span_base >= own.base
            && span_base + span_words <= own.base + own.words;
        let verdict = isolate::check_binding(&map, &b, RegionOwner::Channel(0));
        prop_assert_eq!(
            verdict.is_none(),
            contained,
            "span [{}, {}) vs region [{}, {}): got {:?}",
            span_base,
            span_base + span_words,
            own.base,
            own.base + own.words,
            verdict
        );
        // And the oracle is honest: every concrete address the binding
        // can produce lies inside its span.
        for lane in 0..8u32 {
            for n in 0..64u64 {
                let a = b.addr(lane, n);
                prop_assert!(a >= span_base && a < span_base + span_words);
            }
        }
    }
}
