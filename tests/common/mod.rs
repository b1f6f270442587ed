//! Helpers shared by the serving, fleet and chaos suites: a tiny
//! two-filter program, one job of it, and byte-level verdict equality.
//! Each suite uses a subset.
#![allow(dead_code)]

use streamir::graph::{FilterSpec, FlatGraph, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};
use swpipe::serve::{Job, QosClass, Verdict};

/// A stateless filter multiplying each token by `k`.
pub fn map_filter(name: &str, k: i32) -> StreamSpec {
    let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let x = b.local(ElemTy::I32);
    b.pop_into(0, x);
    b.push(0, Expr::local(x).mul(Expr::i32(k)));
    StreamSpec::filter(FilterSpec::new(name, b.build().unwrap()))
}

/// Two map filters, multiplying by `k` and `k + 1`.
pub fn chain(k: i32) -> FlatGraph {
    StreamSpec::pipeline(vec![map_filter("f", k), map_filter("g", k + 1)])
        .flatten()
        .unwrap()
}

/// A batch job of [`chain`]`(k)` over the input `0, 1, 2, …`.
pub fn tiny_job(tenant: &str, k: i32, iterations: u64) -> Job {
    Job {
        tenant: tenant.to_string(),
        graph: chain(k),
        input: |n| (0..n).map(|i| Scalar::I32(i as i32)).collect(),
        iterations,
        qos: QosClass::Batch,
    }
}

/// Byte-level equality of two verdicts: outputs, every virtual-time
/// field bit-for-bit, cache outcome, shipped rung, slice, retries.
pub fn assert_verdicts_match(a: &Verdict, b: &Verdict, ctx: &str) {
    match (a, b) {
        (Verdict::Completed(x), Verdict::Completed(y)) => {
            assert_eq!(x.outputs, y.outputs, "{ctx}: outputs diverge");
            for (field, l, r) in [
                ("arrival", x.arrival_secs, y.arrival_secs),
                ("start", x.start_secs, y.start_secs),
                ("finish", x.finish_secs, y.finish_secs),
                ("latency", x.latency_secs, y.latency_secs),
                ("exec", x.exec_secs, y.exec_secs),
            ] {
                assert_eq!(l.to_bits(), r.to_bits(), "{ctx}: {field} {l} vs {r}");
            }
            assert_eq!(x.cache_hit, y.cache_hit, "{ctx}: cache outcome");
            assert_eq!(x.shipped, y.shipped, "{ctx}: shipped rung");
            assert_eq!(x.slice, y.slice, "{ctx}: slice");
            assert_eq!(x.retries, y.retries, "{ctx}: retries");
        }
        (
            Verdict::Rejected {
                retry_after_secs: l,
            },
            Verdict::Rejected {
                retry_after_secs: r,
            },
        ) => {
            assert_eq!(l.to_bits(), r.to_bits(), "{ctx}: retry hint {l} vs {r}");
        }
        _ => panic!("{ctx}: verdict kinds diverge: {a:?} vs {b:?}"),
    }
}
