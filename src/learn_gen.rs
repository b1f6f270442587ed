//! The cost-model dataset generator behind `datasets/learn_small.json`
//! (a `stream-gpu regen` entry).
//!
//! Enumerates candidate `(assignment, II)` schedule points — the same
//! beam-strategy assignments and II grid the online search ranks — for
//! the eight StreamIt benchmarks plus seeded random stream graphs,
//! labels every point with simulated steady-state cycles/iteration, and
//! builds a versioned [`swpipe::learn::Dataset`].
//!
//! Generation is deterministic end to end (fixed seeds, fixed
//! enumeration order, simulator labels), so `stream-gpu regen --check`
//! can regenerate the small dataset from scratch and demand
//! byte-identical output.

use swpipe::learn::dataset::{generate, random_sources, GenOptions};
use swpipe::learn::{Dataset, Source};

/// Seed of the random stream graphs in both dataset flavors.
pub const SEED: u64 = 0x5EED_DA7A;
/// Random graphs in the full dataset (the suite rides along).
pub const FULL_RANDOM: usize = 6;
/// Random graphs in the small (committed) dataset.
pub const SMALL_RANDOM: usize = 2;

/// The eight StreamIt benchmarks as labeling sources.
///
/// # Panics
///
/// Panics when a benchmark spec fails to flatten (a suite bug).
#[must_use]
pub fn suite_sources() -> Vec<Source> {
    streambench::suite()
        .iter()
        .map(|b| Source {
            name: b.name.to_string(),
            graph: b.spec.flatten().expect("benchmark flattens"),
            input: b.input,
        })
        .collect()
}

/// Generates the dataset. `small` restricts the sources (two random
/// graphs plus the first three benchmarks) and the candidate grid so
/// it generates in well under a second; the full flavor covers the whole
/// suite plus [`FULL_RANDOM`] random graphs on the default grid.
///
/// # Panics
///
/// Panics when generation fails (profile or schedule construction on a
/// fixed, known-good source set — a generator bug).
#[must_use]
pub fn gen(small: bool) -> Dataset {
    let (sources, opts) = if small {
        let mut sources = random_sources(SMALL_RANDOM, SEED);
        sources.extend(suite_sources().into_iter().take(3));
        let opts = GenOptions {
            sms_grid: vec![2, 4],
            ii_multipliers: vec![1.0, 1.15],
            ..GenOptions::default()
        };
        (sources, opts)
    } else {
        let mut sources = suite_sources();
        sources.extend(random_sources(FULL_RANDOM, SEED));
        (sources, GenOptions::default())
    };
    generate(&sources, &opts).expect("dataset generation on known-good sources")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_dataset_is_deterministic_and_trainable() {
        let a = gen(true);
        let b = gen(true);
        assert_eq!(a.to_json(), b.to_json(), "small dataset must be replayable");
        assert!(a.points.len() >= 10, "too few points: {}", a.points.len());
        let (xs, ys) = a.xy();
        let model =
            swpipe::learn::CostModel::train(swpipe::learn::features::FEATURE_NAMES, &xs, &ys, 1e-3)
                .expect("small dataset trains");
        assert!(model.mean_abs_error(&xs, &ys).is_finite());
    }
}
