//! Seedless FNV-1a hashing — the one content-identity construction.
//!
//! A [`crate::graph::FlatGraph`] memoises the FNV-1a state of its
//! canonical encoding ([`crate::graph::FlatGraph::content_hash`]); the
//! compilation cache resumes from that state to key artifacts by graph +
//! options, the fleet router rendezvous-hashes tenants onto devices, and
//! the isolation verifier digests the proved memory footprint into its
//! certificate. Keeping them on one implementation means a key is
//! comparable across every layer and a constant typo cannot split the
//! address spaces.
//!
//! FNV-1a is a left fold over bytes — `state' = (state ^ byte) * PRIME` —
//! so hashing `prefix ++ suffix` from the offset basis equals hashing
//! `suffix` from the state `prefix` left behind. [`Fnv::resume`] is that
//! second half: a memoised prefix state never changes a digest.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// An incremental FNV-1a hasher for structured keys.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Fnv {
        Fnv(OFFSET)
    }

    /// A hasher continuing from `state`, the [`Fnv::finish`] of a hasher
    /// that absorbed some prefix: absorbing a suffix now yields exactly
    /// the digest of prefix followed by suffix.
    #[must_use]
    pub fn resume(state: u64) -> Fnv {
        Fnv(state)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Absorbs a string with a `0xff` separator so adjacent fields
    /// cannot collide by concatenation.
    pub fn str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Fnv::new();
        h.write(b"abc");
        h.write(b"def");
        assert_eq!(h.finish(), fnv1a(b"abcdef"));
    }

    #[test]
    fn resuming_from_a_prefix_state_equals_hashing_the_whole() {
        let mut prefix = Fnv::new();
        prefix.str("graph");
        let mut resumed = Fnv::resume(prefix.finish());
        resumed.str("options");
        let mut whole = Fnv::new();
        whole.str("graph");
        whole.str("options");
        assert_eq!(resumed.finish(), whole.finish());
    }

    #[test]
    fn separator_prevents_concatenation_collisions() {
        let mut a = Fnv::new();
        a.str("ab");
        a.str("c");
        let mut b = Fnv::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn known_vectors_are_stable() {
        // The canonical FNV-1a test vectors; these pin the constants the
        // cache keys and router placement depend on.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
