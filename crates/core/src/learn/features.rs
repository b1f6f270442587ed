//! Deterministic feature extraction from the instance model + a
//! candidate (assignment, II) point.
//!
//! One extractor serves both training ([`crate::learn::dataset`]) and
//! serving (the beam in [`crate::schedule`]) — feature skew between the
//! two would silently de-calibrate the model, so there is exactly one
//! implementation and its schema is pinned by [`FEATURE_NAMES`] and the
//! dataset version.
//!
//! Everything here is a pure function of the [`InstanceGraph`], the
//! [`ExecConfig`], and the candidate — no clocks, no randomness, no
//! device state — so a feature vector computed at train time is
//! bit-identical to the one computed at serve time for the same point.

use crate::instances::{ExecConfig, InstanceGraph};

/// The feature schema, in extraction order. Changing this list (or the
/// semantics of any entry) requires bumping
/// [`crate::learn::dataset::DATASET_VERSION`]: a model trained on one
/// schema must never score vectors from another.
pub const FEATURE_NAMES: &[&str] = &[
    // Graph shape.
    "bias",
    "instances",
    "deps",
    "total_work",
    "max_delay",
    "stateful_nodes",
    "threads_per_block",
    // Channel geometry (traffic, peeking, buffer pressure).
    "channel_traffic",
    "peek_slack",
    "resident_tokens",
    "aligned_edges",
    // Candidate point.
    "ii",
    "ii_slack",
    "max_sm_load",
    "load_imbalance",
    "sm_occupancy",
    "cross_sm_deps",
    // Hand-crossed terms (the ridge model is linear; crossing happens
    // here).
    "work_per_sm",
    "ii_x_occupancy",
    "traffic_per_ii",
];

/// Number of features ([`FEATURE_NAMES`] length).
#[must_use]
pub fn len() -> usize {
    FEATURE_NAMES.len()
}

/// Extracts the feature vector for one candidate (assignment, II) point.
///
/// `aligned_edges` is the static coalescing counter: channels whose
/// producer and consumer per-thread rates agree, which the transposed
/// layout proof turns into fully coalesced transactions. It is the
/// "coalescing-proof counters where available" hook — computable from
/// the instance model alone, no codegen needed.
#[must_use]
pub fn extract(
    ig: &InstanceGraph,
    config: &ExecConfig,
    num_sms: u32,
    sm_of: &[u32],
    ii: u64,
) -> Vec<f64> {
    let n = ig.len();
    let sms = num_sms.max(1);
    let total_work: u64 = ig
        .list
        .iter()
        .map(|&(v, _)| config.delay[v.0 as usize])
        .sum();
    let max_delay = ig
        .list
        .iter()
        .map(|&(v, _)| config.delay[v.0 as usize])
        .max()
        .unwrap_or(0);
    let stateful = ig.stateful.iter().filter(|&&s| s).count();

    let mut load = vec![0u64; sms as usize];
    for (i, &(v, _)) in ig.list.iter().enumerate() {
        load[sm_of[i] as usize % sms as usize] += config.delay[v.0 as usize];
    }
    let max_load = load.iter().copied().max().unwrap_or(0);
    let used_sms = load.iter().filter(|&&l| l > 0).count();
    let avg_load = total_work as f64 / f64::from(sms);

    let cross_sm = ig
        .deps
        .iter()
        .filter(|d| sm_of[d.producer.0 as usize] != sm_of[d.consumer.0 as usize])
        .count();

    let traffic: u64 = ig.edges.iter().map(|e| e.tokens_per_iter).sum();
    let peek_slack: u64 = ig.edges.iter().map(|e| e.slack).sum();
    let resident: u64 = ig.edges.iter().map(|e| e.resident).sum();
    let aligned = ig
        .edges
        .iter()
        .filter(|e| e.pop_thread == e.push_thread)
        .count();

    let occupancy = used_sms as f64 / f64::from(sms);
    let ii_f = ii as f64;
    vec![
        1.0,
        n as f64,
        ig.deps.len() as f64,
        total_work as f64,
        max_delay as f64,
        stateful as f64,
        f64::from(config.threads_per_block),
        traffic as f64,
        peek_slack as f64,
        resident as f64,
        aligned as f64,
        ii_f,
        ii_f - max_load as f64,
        max_load as f64,
        max_load as f64 - avg_load,
        occupancy,
        cross_sm as f64,
        total_work as f64 / f64::from(sms),
        ii_f * occupancy,
        traffic as f64 / ii_f.max(1.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder};

    fn chain(n: usize) -> (InstanceGraph, ExecConfig) {
        let stages = (0..n)
            .map(|i| {
                let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
                let x = f.local(ElemTy::I32);
                f.pop_into(0, x);
                f.push(0, Expr::local(x));
                StreamSpec::filter(FilterSpec::new(format!("s{i}"), f.build().unwrap()))
            })
            .collect();
        let g = StreamSpec::pipeline(stages).flatten().unwrap();
        let cfg = ExecConfig::uniform(n, 4, 16, 10);
        let ig = crate::instances::build(&g, &cfg).unwrap();
        (ig, cfg)
    }

    #[test]
    fn schema_and_vector_agree() {
        let (ig, cfg) = chain(3);
        let sm_of = vec![0, 1, 0];
        let v = extract(&ig, &cfg, 2, &sm_of, 20);
        assert_eq!(v.len(), FEATURE_NAMES.len());
        assert_eq!(v[0], 1.0, "bias");
        assert_eq!(v[1], 3.0, "instances");
        assert_eq!(v[3], 30.0, "total_work");
        // max_sm_load: SM0 has s0 + s2 = 20.
        let idx = FEATURE_NAMES.iter().position(|&f| f == "max_sm_load");
        assert_eq!(v[idx.unwrap()], 20.0);
    }

    #[test]
    fn extraction_is_deterministic() {
        let (ig, cfg) = chain(4);
        let sm_of = vec![0, 1, 2, 3];
        assert_eq!(
            extract(&ig, &cfg, 4, &sm_of, 15),
            extract(&ig, &cfg, 4, &sm_of, 15)
        );
    }

    #[test]
    fn assignment_changes_move_placement_features_only() {
        let (ig, cfg) = chain(4);
        let a = extract(&ig, &cfg, 4, &[0, 0, 0, 0], 40);
        let b = extract(&ig, &cfg, 4, &[0, 1, 2, 3], 40);
        // Graph-shape features identical, placement features differ.
        assert_eq!(a[..11], b[..11]);
        assert_ne!(a, b);
    }
}
