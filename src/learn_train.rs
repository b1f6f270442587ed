//! The cost-model trainer behind `models/cost_model.json` (a
//! `stream-gpu regen` entry).
//!
//! Fits the ridge-regression [`swpipe::learn::CostModel`] to a
//! [`swpipe::learn::Dataset`] built by [`crate::learn_gen`], against the
//! current feature schema; the model's canonical JSON is the artifact
//! the serving stack loads.
//!
//! Training is deterministic — fixed accumulation order, partial-pivot
//! elimination, canonical JSON — so `stream-gpu regen --check` can
//! retrain on a fresh dataset and demand a byte-identical committed
//! model.

use swpipe::learn::features::FEATURE_NAMES;
use swpipe::learn::{CostModel, Dataset};

/// Ridge penalty of the committed model.
pub const L2: f64 = 1e-3;

/// Trains the canonical model from a dataset: schema-checks the
/// dataset's feature names against the live extractor, then fits with
/// the committed [`L2`] penalty.
///
/// # Errors
///
/// [`swpipe::Error::Api`] on a schema mismatch (dataset generated by a
/// different extractor version) or a degenerate system.
pub fn train_canonical(dataset: &Dataset) -> swpipe::Result<CostModel> {
    let live: Vec<String> = FEATURE_NAMES.iter().map(|s| (*s).to_string()).collect();
    if dataset.feature_names != live {
        return Err(swpipe::Error::Api(format!(
            "dataset feature schema {:?} does not match the live extractor {FEATURE_NAMES:?}; \
             regenerate with `stream-gpu regen datasets/learn_small.json`",
            dataset.feature_names
        )));
    }
    let (xs, ys) = dataset.xy();
    CostModel::train(FEATURE_NAMES, &xs, &ys, L2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_training_is_deterministic_and_schema_gated() {
        let dataset = crate::learn_gen::gen();
        let a = train_canonical(&dataset).expect("trains");
        let b = train_canonical(&dataset).expect("trains");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.digest(), b.digest());

        let mut skewed = dataset;
        skewed.feature_names[0] = "not_bias".into();
        assert!(
            train_canonical(&skewed).is_err(),
            "schema skew must be fatal"
        );
    }
}
