//! Device memory, allocation, and coalescing analysis.

use streamir::ir::{ElemTy, Scalar};

use crate::layout::WARP_LANES;
use crate::{Result, SimError};

/// The simulated global device memory: a flat array of 32-bit words.
///
/// Addresses are in *word* units throughout the simulator (every token is
/// 32 bits). Out-of-range accesses are reported as [`SimError::BadAddress`]
/// rather than panicking, because data-dependent indices in work functions
/// can reach them.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    words: Vec<u32>,
}

impl DeviceMemory {
    /// Allocates a zeroed memory of `words` 32-bit words.
    #[must_use]
    pub fn new(words: u32) -> DeviceMemory {
        DeviceMemory {
            words: vec![0; words as usize],
        }
    }

    /// Size in words.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.words.len() as u32
    }

    /// `true` when the memory has zero capacity.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads a raw word.
    ///
    /// # Errors
    ///
    /// [`SimError::BadAddress`] when out of range.
    pub fn read(&self, addr: u64) -> Result<u32> {
        self.words
            .get(usize::try_from(addr).map_err(|_| SimError::BadAddress { addr })?)
            .copied()
            .ok_or(SimError::BadAddress { addr })
    }

    /// Writes a raw word.
    ///
    /// # Errors
    ///
    /// [`SimError::BadAddress`] when out of range.
    pub fn write(&mut self, addr: u64, value: u32) -> Result<()> {
        let slot = self
            .words
            .get_mut(usize::try_from(addr).map_err(|_| SimError::BadAddress { addr })?)
            .ok_or(SimError::BadAddress { addr })?;
        *slot = value;
        Ok(())
    }

    /// Reads a typed token (convenience for tests and host-side transfers).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range; host-side callers allocate first.
    #[must_use]
    pub fn read_token(&self, addr: u32, ty: ElemTy) -> Scalar {
        Scalar::from_bits(ty, self.words[addr as usize])
    }

    /// Writes a typed token (convenience for tests and host-side transfers).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write_token(&mut self, addr: u32, value: Scalar) {
        self.words[addr as usize] = value.to_bits();
    }
}

/// Bump allocator over device memory, returning 64-byte-aligned buffers
/// (the alignment coalescing requires).
///
/// Buffers are never freed: the paper allocates all channel buffers at
/// program start and holds them until completion ("all buffers are
/// allocated at the beginning of the run and are not freed").
#[derive(Debug, Clone)]
pub struct Allocator {
    next: u32,
    limit: u32,
    align_words: u32,
}

impl Allocator {
    /// Creates an allocator over a memory of `limit` words.
    #[must_use]
    pub fn new(limit: u32, align_words: u32) -> Allocator {
        Allocator {
            next: 0,
            limit,
            align_words: align_words.max(1),
        }
    }

    /// Allocates `words` words, returning the base word address.
    ///
    /// # Errors
    ///
    /// [`SimError::LaunchConfig`] when device memory is exhausted — the
    /// same condition that would make a real buffer plan fail `cudaMalloc`.
    pub fn alloc(&mut self, words: u32) -> Result<u32> {
        let base = self.next.div_ceil(self.align_words) * self.align_words;
        let end = base
            .checked_add(words)
            .ok_or_else(|| SimError::LaunchConfig("device memory exhausted".into()))?;
        if end > self.limit {
            return Err(SimError::LaunchConfig(format!(
                "device memory exhausted: need {words} words at {base}, limit {}",
                self.limit
            )));
        }
        self.next = end;
        Ok(base)
    }

    /// Words allocated so far (including alignment padding).
    #[must_use]
    pub fn used(&self) -> u32 {
        self.next
    }
}

/// Counts the 64-byte transactions needed by one warp-wide memory access.
///
/// G80 coalescing rule (per half-warp of 16 threads): the accesses combine
/// into one transaction when thread `N` of the half-warp addresses
/// `base + N` for a 64-byte-aligned `base` (inactive lanes create gaps but
/// do not break coalescing on the modeled hardware generation only if the
/// rest stay in pattern — we accept gaps, which is slightly generous to the
/// hardware and applies equally to all schemes). Any other pattern
/// serializes into one transaction per active thread.
///
/// `addrs` holds the word address for each *active* lane as
/// `(lane, addr)`, lanes ascending.
#[must_use]
pub fn count_transactions(addrs: &[(u32, u64)], half_warp: u32, transaction_words: u64) -> u64 {
    let mut total = 0u64;
    let mut rest = addrs;
    while let Some(&(lane, _)) = rest.first() {
        // Slice out one half-warp by lane index: one division per group,
        // not one per lane.
        let first_lane = lane / half_warp * half_warp;
        let in_group = |&&(l, _): &&(u32, u64)| l.wrapping_sub(first_lane) < half_warp;
        let (group, tail) = rest.split_at(rest.iter().take_while(in_group).count());
        total += half_warp_transactions(group, first_lane, transaction_words);
        rest = tail;
    }
    total
}

fn half_warp_transactions(group: &[(u32, u64)], first_lane: u32, transaction_words: u64) -> u64 {
    // Coalesced iff every active lane N accesses segment_base + (N % hw)
    // with segment_base aligned to the transaction size.
    let (lane0, addr0) = group[0];
    let base = addr0.wrapping_sub(u64::from(lane0 - first_lane));
    let aligned = base % transaction_words == 0;
    let in_pattern = group
        .iter()
        .all(|&(lane, addr)| addr == base + u64::from(lane - first_lane));
    if aligned && in_pattern {
        1
    } else {
        group.len() as u64
    }
}

/// Counts extra serialization cycles from shared-memory bank conflicts for
/// one warp-wide access: accesses proceed in as many passes as the most
/// contended of the 16 banks, so the overhead is `passes - 1`.
///
/// # Panics
///
/// Panics if `banks` exceeds [`WARP_LANES`]: the tally lives on the
/// stack, and no modeled device has more banks than lanes.
#[must_use]
pub fn bank_conflict_degree(addrs: &[(u32, u64)], banks: u64) -> u64 {
    let mut counts = [0u64; WARP_LANES];
    let counts = &mut counts[..banks as usize];
    for &(_, addr) in addrs {
        counts[(addr % banks) as usize] += 1;
    }
    counts.iter().max().map_or(0, |&m| m.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_round_trips() {
        let mut m = DeviceMemory::new(16);
        m.write(3, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read(3).unwrap(), 0xDEAD_BEEF);
        assert!(matches!(m.read(16), Err(SimError::BadAddress { addr: 16 })));
        assert!(m.write(99, 0).is_err());
    }

    #[test]
    fn typed_tokens_round_trip() {
        let mut m = DeviceMemory::new(4);
        m.write_token(0, Scalar::F32(1.5));
        m.write_token(1, Scalar::I32(-7));
        assert_eq!(m.read_token(0, ElemTy::F32), Scalar::F32(1.5));
        assert_eq!(m.read_token(1, ElemTy::I32), Scalar::I32(-7));
    }

    #[test]
    fn allocator_aligns_and_limits() {
        let mut a = Allocator::new(100, 16);
        let b0 = a.alloc(10).unwrap();
        let b1 = a.alloc(10).unwrap();
        assert_eq!(b0, 0);
        assert_eq!(b1, 16); // aligned past the 10-word first buffer
        assert!(a.alloc(100).is_err());
    }

    #[test]
    fn contiguous_aligned_access_coalesces() {
        let addrs: Vec<(u32, u64)> = (0..16).map(|l| (l, 64 + u64::from(l))).collect();
        assert_eq!(count_transactions(&addrs, 16, 16), 1);
    }

    #[test]
    fn strided_access_serializes() {
        let addrs: Vec<(u32, u64)> = (0..16).map(|l| (l, u64::from(l) * 4)).collect();
        assert_eq!(count_transactions(&addrs, 16, 16), 16);
    }

    #[test]
    fn misaligned_contiguous_serializes() {
        let addrs: Vec<(u32, u64)> = (0..16).map(|l| (l, 3 + u64::from(l))).collect();
        assert_eq!(count_transactions(&addrs, 16, 16), 16);
    }

    #[test]
    fn full_warp_counts_both_half_warps() {
        let addrs: Vec<(u32, u64)> = (0..32).map(|l| (l, u64::from(l))).collect();
        assert_eq!(count_transactions(&addrs, 16, 16), 2);
    }

    #[test]
    fn partial_warp_in_pattern_coalesces() {
        // Only 8 active lanes, but each at base + lane: still one transaction.
        let addrs: Vec<(u32, u64)> = (0..8).map(|l| (l, 128 + u64::from(l))).collect();
        assert_eq!(count_transactions(&addrs, 16, 16), 1);
    }

    #[test]
    fn bank_conflicts_counted() {
        // All 16 lanes hit bank 0: 15 extra passes.
        let addrs: Vec<(u32, u64)> = (0..16).map(|l| (l, u64::from(l) * 16)).collect();
        assert_eq!(bank_conflict_degree(&addrs, 16), 15);
        // Conflict-free: consecutive words.
        let addrs: Vec<(u32, u64)> = (0..16).map(|l| (l, u64::from(l))).collect();
        assert_eq!(bank_conflict_degree(&addrs, 16), 0);
    }
}
