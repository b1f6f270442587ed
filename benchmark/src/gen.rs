//! Input generation: a small deterministic RNG, the open-loop arrival
//! generator, and seed-dependent token streams for the suite.
//!
//! The program under test receives only what is generated here; the seed
//! itself never reaches it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use streamir::ir::Scalar;
use swpipe::hash::{splitmix64, SPLITMIX_GOLDEN};

/// A splitmix64 stream over the repository's own mixer
/// ([`swpipe::hash::splitmix64`]), so seeded chaos reads the same here as
/// in the fleet storms.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(SPLITMIX_GOLDEN);
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One tenant's open-loop arrival process in virtual time.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalSpec {
    /// Offered jobs per virtual second.
    pub rate: f64,
    /// Arrivals to generate.
    pub jobs: usize,
    /// This tenant's phase slot, `0..slots`: its first arrival is at the
    /// middle of slot `slot` of the first gap, so tenants join in slot
    /// order, evenly staggered.
    pub slot: usize,
    pub slots: usize,
    /// Virtual instant the first gap starts at.
    pub start: f64,
}

/// Arrival instants for `spec`: exactly periodic, so the offered rate is
/// exactly `spec.rate`. They do not depend on the seed — which slice cut
/// the partitioner's hysteresis locks in, and so every cache key after it,
/// follows from the arrival order, and the device and virtual metrics are
/// compared across seeds. The generator runs on the virtual clock, so it
/// is never late.
pub fn arrivals(spec: &ArrivalSpec) -> Vec<f64> {
    let gap = 1.0 / spec.rate;
    let phase = (spec.slot as f64 + 0.5) * gap / spec.slots as f64;
    // Computed from the index, not accumulated, so the last instant is
    // `(jobs-1)·gap` past the first up to one rounding.
    (0..spec.jobs)
        .map(|k| spec.start + phase + k as f64 * gap)
        .collect()
}

type InputFn = fn(usize) -> Vec<Scalar>;

static BASE_INPUTS: OnceLock<Vec<InputFn>> = OnceLock::new();
static INPUT_SKIP: AtomicUsize = AtomicUsize::new(0);

/// Installs the suite's own input generators and the seed. The serving
/// engines take a job's input as a plain `fn` pointer, which cannot
/// capture a seed, so the seed-dependent streams read it from here.
pub fn install_inputs(base: Vec<InputFn>, seed: u64) {
    assert!(
        base.len() <= SEEDED.len(),
        "suite larger than the seeded table"
    );
    BASE_INPUTS.get_or_init(|| base);
    let skip = 1 + (SplitMix64::new(seed ^ 0x0001_A907).next_u64() % 251) as usize;
    INPUT_SKIP.store(skip, Ordering::Relaxed);
}

/// Benchmark `I`'s token stream with a seed-dependent prefix skipped:
/// the same kind of data as the suite's own generator, different values
/// per seed, and `seeded(n)` a prefix of `seeded(m)` for `n ≤ m`.
fn seeded<const I: usize>(n: usize) -> Vec<Scalar> {
    let base = BASE_INPUTS.get().expect("install_inputs ran")[I];
    let skip = INPUT_SKIP.load(Ordering::Relaxed);
    let mut tokens = base(n + skip);
    tokens.drain(..skip);
    tokens
}

const SEEDED: [InputFn; 8] = [
    seeded::<0>,
    seeded::<1>,
    seeded::<2>,
    seeded::<3>,
    seeded::<4>,
    seeded::<5>,
    seeded::<6>,
    seeded::<7>,
];

/// The seed-dependent input generator of suite benchmark `index`.
pub fn seeded_input(index: usize) -> InputFn {
    SEEDED[index]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(slot: usize) -> ArrivalSpec {
        ArrivalSpec {
            rate: 100.0,
            jobs: 28,
            slot,
            slots: 8,
            start: 0.0,
        }
    }

    #[test]
    fn offered_rate_is_exact() {
        for jobs in [2usize, 11, 28] {
            let s = ArrivalSpec { jobs, ..spec(0) };
            let t = arrivals(&s);
            assert_eq!(t.len(), jobs);
            let gap = 1.0 / s.rate;
            let span = t[jobs - 1] - t[0];
            assert!(
                (span - (jobs - 1) as f64 * gap).abs() < 1e-12,
                "{jobs} arrivals span {span}"
            );
            assert!(t.windows(2).all(|w| (w[1] - w[0] - gap).abs() < 1e-12));
        }
        let later = arrivals(&ArrivalSpec {
            start: 4.0,
            ..spec(0)
        });
        assert!((later[0] - arrivals(&spec(0))[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tenants_join_in_slot_order_evenly_staggered() {
        let firsts: Vec<f64> = (0..8).map(|i| arrivals(&spec(i))[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "{firsts:?}");
        assert!((firsts[1] - firsts[0] - 0.01 / 8.0).abs() < 1e-12);
        assert!(firsts[7] < 1.0 / 100.0, "all phases inside the first gap");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..16).collect();
        let mut b = a.clone();
        SplitMix64::new(5).shuffle(&mut a);
        SplitMix64::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }

    #[test]
    fn seeded_inputs_are_prefix_stable_and_seed_dependent() {
        fn base(n: usize) -> Vec<Scalar> {
            (0..n).map(|i| Scalar::I32(i as i32)).collect()
        }
        install_inputs(vec![base], 1);
        let f = seeded_input(0);
        let short = f(8);
        let long = f(32);
        assert_eq!(short.len(), 8);
        assert_eq!(&long[..8], &short[..]);
        let first = short[0];
        install_inputs(vec![base], 2);
        assert_ne!(f(8)[0], first, "another seed must give other tokens");
    }
}
