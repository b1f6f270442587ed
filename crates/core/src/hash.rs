//! Seedless hashing, shared by content addressing and routing: the
//! FNV-1a construction of [`streamir::hash`] (which also memoises each
//! graph's content hash, so it lives with the graph) and the splitmix64
//! mixer the fleet router decorrelates it with.

pub use streamir::hash::{fnv1a, Fnv};

/// The splitmix64 state increment (the 64-bit golden ratio).
pub const SPLITMIX_GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// One splitmix64 step: advance `state` by the golden-ratio increment
/// and finalize. This is the mixer the fleet router's rendezvous scores
/// are built from ([`crate::fleet`]): FNV-1a gives the stable content
/// identity, splitmix64 decorrelates it into per-device uniform weights.
/// Keeping it here, next to [`fnv1a`], pins both halves of every
/// routing/caching address to one module with known-answer coverage.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX_GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_vectors_are_stable() {
        // The reference splitmix64 sequence from seed 0 (Steele, Lea &
        // Flood; also the Java SplittableRandom test vectors): state i
        // yields output splitmix64(i * GOLDEN).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(SPLITMIX_GOLDEN), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(
            splitmix64(SPLITMIX_GOLDEN.wrapping_mul(2)),
            0x06c4_5d18_8009_454f
        );
    }

    #[test]
    fn splitmix_decorrelates_adjacent_states() {
        // Adjacent inputs must not produce adjacent outputs — the
        // property rendezvous routing relies on for uniform spread.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert!(a.abs_diff(b) > 1 << 32);
    }
}
