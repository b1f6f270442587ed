//! Device memory, allocation, and coalescing analysis.

use streamir::ir::{ElemTy, Scalar};

use crate::layout::{lane_bits, AffineRun};
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

    /// How many leading lanes of `run` address memory, and the error of
    /// the first lane that does not. One check for the whole run: its
    /// addresses never descend, so when its last lane is in range, every
    /// lane is.
    fn in_range(&self, run: &AffineRun) -> (usize, Option<SimError>) {
        let len = self.words.len() as u64;
        if run.last_addr() < len {
            return (run.lanes as usize, None);
        }
        let good = match len.checked_sub(run.addr) {
            Some(room) if room > 0 => room.div_ceil(run.stride),
            _ => 0,
        };
        let addr = run.addr + good * run.stride;
        (good as usize, Some(SimError::BadAddress { addr }))
    }

    /// Checks every address of `run` without transferring a word.
    ///
    /// # Errors
    ///
    /// [`SimError::BadAddress`] at the run's lowest out-of-range lane.
    pub(crate) fn check_run(&self, run: &AffineRun) -> Result<()> {
        self.in_range(run).1.map_or(Ok(()), Err)
    }

    /// Reads the word of each lane of `run` into `dst` (`run.lanes` long),
    /// lanes ascending.
    ///
    /// # Errors
    ///
    /// [`SimError::BadAddress`] at the run's lowest out-of-range lane; the
    /// lanes before it are read.
    pub fn read_run(&self, run: &AffineRun, dst: &mut [u32]) -> Result<()> {
        let (good, fault) = self.in_range(run);
        if good > 0 {
            let (dst, words) = (&mut dst[..good], &self.words[run.addr as usize..]);
            match run.stride as usize {
                0 => dst.fill(words[0]),
                1 => dst.copy_from_slice(&words[..good]),
                s => {
                    let words = &words[..=(good - 1) * s];
                    for (i, d) in dst.iter_mut().enumerate() {
                        *d = words[i * s];
                    }
                }
            }
        }
        fault.map_or(Ok(()), Err)
    }

    /// Writes `src` (`run.lanes` long) to the words of `run`, lanes
    /// ascending: where lanes share a word, the last one's value stays.
    ///
    /// # Errors
    ///
    /// [`SimError::BadAddress`] at the run's lowest out-of-range lane; the
    /// lanes before it are written.
    pub fn write_run(&mut self, run: &AffineRun, src: &[u32]) -> Result<()> {
        let (good, fault) = self.in_range(run);
        if good > 0 {
            let (src, words) = (&src[..good], &mut self.words[run.addr as usize..]);
            match run.stride as usize {
                0 => words[0] = src[good - 1],
                1 => words[..good].copy_from_slice(src),
                s => {
                    let words = &mut words[..=(good - 1) * s];
                    for (i, &v) in src.iter().enumerate() {
                        words[i * s] = v;
                    }
                }
            }
        }
        fault.map_or(Ok(()), Err)
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

/// One half-warp group of a warp-wide access, as the coalescing rule
/// sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HalfWarp {
    /// The access's lanes in this group.
    pub mask: u32,
    /// Every one of them, lane `N`, addresses `base + N % half_warp` for
    /// one `base`.
    pub in_pattern: bool,
    /// The `base` the group's lowest lane implies is transaction-aligned.
    pub aligned: bool,
}

impl HalfWarp {
    /// The group combines into one transaction.
    #[must_use]
    pub fn coalesced(&self) -> bool {
        self.in_pattern && self.aligned
    }

    /// One transaction when coalesced, one per lane otherwise.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        if self.coalesced() {
            1
        } else {
            u64::from(self.mask.count_ones())
        }
    }
}

/// Passes each half-warp group of one warp-wide access to `f`, in lane
/// order: the verdicts [`count_transactions`] sums.
///
/// G80 coalescing rule (per half-warp of 16 threads): the accesses combine
/// into one transaction when thread `N` of the half-warp addresses
/// `base + N` for a 64-byte-aligned `base` (inactive lanes create gaps but
/// do not break coalescing on the modeled hardware generation only if the
/// rest stay in pattern — we accept gaps, which is slightly generous to the
/// hardware and applies equally to all schemes). Any other pattern
/// serializes into one transaction per active thread.
///
/// Each run is cut at half-warp boundaries; a piece is in pattern when it
/// has one lane or stride 1, and a group when all its pieces are and
/// imply the same `base`.
///
/// `half_warp` and `transaction_words` are powers of two
/// ([`crate::DeviceConfig::check_shape`]): groups and alignment are
/// shifts and masks.
pub fn half_warps(
    runs: &[AffineRun],
    half_warp: u32,
    transaction_words: u64,
    mut f: impl FnMut(HalfWarp),
) {
    debug_assert!(half_warp.is_power_of_two() && transaction_words.is_power_of_two());
    let (shift, misaligned) = (half_warp.trailing_zeros(), transaction_words - 1);
    // The group being assembled: its index, its `base`, its verdict.
    let mut open: Option<(u32, u64, HalfWarp)> = None;
    for run in runs {
        let (mut lane, end, mut addr) = (run.lane, run.lane + run.lanes, run.addr);
        while lane < end {
            let group = lane >> shift;
            let lanes = end.min((group + 1) << shift) - lane;
            let base = addr.wrapping_sub(u64::from(lane & (half_warp - 1)));
            let affine = lanes == 1 || run.stride == 1;
            match &mut open {
                Some((g, b, verdict)) if *g == group => {
                    verdict.mask |= lane_bits(lane, lanes);
                    verdict.in_pattern &= affine && base == *b;
                }
                _ => {
                    if let Some((_, _, verdict)) = open.take() {
                        f(verdict);
                    }
                    let verdict = HalfWarp {
                        mask: lane_bits(lane, lanes),
                        in_pattern: affine,
                        aligned: base & misaligned == 0,
                    };
                    open = Some((group, base, verdict));
                }
            }
            lane += lanes;
            addr += u64::from(lanes) * run.stride;
        }
    }
    if let Some((_, _, verdict)) = open {
        f(verdict);
    }
}

/// Counts the 64-byte transactions needed by one warp-wide memory access:
/// the sum of its [`half_warps`] verdicts.
#[must_use]
pub fn count_transactions(runs: &[AffineRun], half_warp: u32, transaction_words: u64) -> u64 {
    let mut total = 0;
    half_warps(runs, half_warp, transaction_words, |group| {
        total += group.transactions();
    });
    total
}

/// Shared-memory banks on the modeled device.
pub const SHARED_BANKS: u64 = 16;

/// Counts extra serialization cycles from shared-memory bank conflicts for
/// one warp-wide access: accesses proceed in as many passes as the most
/// contended of the [`SHARED_BANKS`] banks, so the overhead is
/// `passes - 1`.
///
/// A run of stride `s` cycles through `c = 16 >> min(tz(s), 4)` banks
/// (one when `s` is a multiple of 16), so of its `lanes` lanes the `i`-th
/// bank of the cycle takes `⌊lanes / c⌋ + (i < lanes mod c)`, and a lone
/// run's degree is `⌈lanes / c⌉ − 1`.
#[must_use]
pub fn bank_conflict_degree(runs: &[AffineRun]) -> u64 {
    const BANK_BITS: u32 = SHARED_BANKS.trailing_zeros();
    // log2 of the run's bank cycle.
    let cycle_bits = |run: &AffineRun| BANK_BITS - run.stride.trailing_zeros().min(BANK_BITS);
    if let [run] = runs {
        let bits = cycle_bits(run);
        return ((u64::from(run.lanes) + (1 << bits) - 1) >> bits).saturating_sub(1);
    }
    let mut counts = [0u64; SHARED_BANKS as usize];
    for run in runs {
        let (bits, lanes) = (cycle_bits(run), u64::from(run.lanes));
        let (laps, rest) = (lanes >> bits, lanes & ((1 << bits) - 1));
        for i in 0..lanes.min(1 << bits) {
            let bank = (run.addr + i * run.stride) & (SHARED_BANKS - 1);
            counts[bank as usize] += laps + u64::from(i < rest);
        }
    }
    counts.iter().max().map_or(0, |&m| m.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::WarpAccess;

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

    /// Lanes `lane .. lane + lanes` at `addr + i·stride`.
    fn run(lane: u32, lanes: u32, addr: u64, stride: u64) -> [AffineRun; 1] {
        [AffineRun {
            lane,
            lanes,
            addr,
            stride,
        }]
    }

    #[test]
    fn contiguous_aligned_access_coalesces() {
        assert_eq!(count_transactions(&run(0, 16, 64, 1), 16, 16), 1);
    }

    #[test]
    fn strided_access_serializes() {
        assert_eq!(count_transactions(&run(0, 16, 0, 4), 16, 16), 16);
    }

    #[test]
    fn misaligned_contiguous_serializes() {
        assert_eq!(count_transactions(&run(0, 16, 3, 1), 16, 16), 16);
    }

    #[test]
    fn full_warp_counts_both_half_warps() {
        assert_eq!(count_transactions(&run(0, 32, 0, 1), 16, 16), 2);
    }

    #[test]
    fn partial_warp_in_pattern_coalesces() {
        // Only 8 active lanes, but each at base + lane: still one transaction.
        assert_eq!(count_transactions(&run(0, 8, 128, 1), 16, 16), 1);
    }

    #[test]
    fn bank_conflicts_counted() {
        // All 16 lanes hit bank 0: 15 extra passes.
        assert_eq!(bank_conflict_degree(&run(0, 16, 0, 16)), 15);
        // Conflict-free: consecutive words.
        assert_eq!(bank_conflict_degree(&run(0, 16, 0, 1)), 0);
    }

    /// The per-lane coalescing rule the run form replaced, kept as the
    /// oracle: `addrs` holds `(lane, addr)` per active lane, ascending.
    fn pair_transactions(addrs: &[(u32, u64)], half_warp: u32, transaction_words: u64) -> u64 {
        let mut total = 0u64;
        let mut rest = addrs;
        while let Some(&(lane, _)) = rest.first() {
            let first_lane = lane / half_warp * half_warp;
            let in_group = |&&(l, _): &&(u32, u64)| l.wrapping_sub(first_lane) < half_warp;
            let (group, tail) = rest.split_at(rest.iter().take_while(in_group).count());
            let (lane0, addr0) = group[0];
            let base = addr0.wrapping_sub(u64::from(lane0 - first_lane));
            let aligned = base % transaction_words == 0;
            let in_pattern = group
                .iter()
                .all(|&(lane, addr)| addr == base + u64::from(lane - first_lane));
            total += if aligned && in_pattern {
                1
            } else {
                group.len() as u64
            };
            rest = tail;
        }
        total
    }

    /// The per-lane bank tally the run form replaced, kept as the oracle.
    fn pair_bank_conflicts(addrs: &[(u32, u64)]) -> u64 {
        let mut counts = [0u64; SHARED_BANKS as usize];
        for &(_, addr) in addrs {
            counts[(addr % SHARED_BANKS) as usize] += 1;
        }
        counts.iter().max().map_or(0, |&m| m.saturating_sub(1))
    }

    #[test]
    fn run_rules_equal_the_pair_rules() {
        // Every stride up to 64, every length, every alignment mod 16,
        // runs ending at either edge of the warp, sparse masks, and no
        // second run, a contiguous one continuing elsewhere (a region
        // wrap) or one of another stride.
        let mut access = WarpAccess::default();
        for stride in 0..=64u64 {
            for lanes in 1..=32u32 {
                for align in 0..16u64 {
                    for lane in [0, 32 - lanes] {
                        for mask in [u32::MAX, 0xaaaa_aaaa, 0x0f0f_ff01, 0x8000_0001] {
                            for tail_stride in [None, Some(1), Some((stride * 7 + align) % 65)] {
                                access.clear();
                                let addr = 1024 + align;
                                let head = run(lane, lanes, addr, stride)[0];
                                access.push_masked(mask, head);
                                let end = lane + lanes;
                                if let Some(s) = tail_stride.filter(|_| end < 32) {
                                    let tail = run(end, 32 - end, 4096 + align / 2, s)[0];
                                    access.push_masked(mask, tail);
                                }
                                let pairs: Vec<_> = access.pairs().collect();
                                assert_eq!(
                                    count_transactions(&access, 16, 16),
                                    pair_transactions(&pairs, 16, 16),
                                    "{access:?}"
                                );
                                assert_eq!(
                                    bank_conflict_degree(&access),
                                    pair_bank_conflicts(&pairs),
                                    "{access:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_runs_fault_where_the_lane_loop_does() {
        // The lowest offending lane's address is the error, and every
        // lane before it is transferred.
        let src: Vec<u32> = (100..132).collect();
        for stride in [0u64, 1, 2, 7] {
            for addr in [0u64, 20, 40, 63, 64, 90] {
                for lanes in [1u32, 5, 32] {
                    let r = run(0, lanes, addr, stride)[0];
                    let mut fast = DeviceMemory::new(64);
                    let mut slow = fast.clone();
                    let got = fast.write_run(&r, &src[..lanes as usize]);
                    let want = r
                        .pairs()
                        .try_for_each(|(l, a)| slow.write(a, src[l as usize]));
                    assert_eq!(got, want, "{r:?}");
                    assert_eq!(fast.words, slow.words, "{r:?}");

                    let mut dst = [0u32; 32];
                    let got = fast.read_run(&r, &mut dst[..lanes as usize]);
                    let want = r.pairs().try_for_each(|(_, a)| slow.read(a).map(drop));
                    assert_eq!(got, want, "{r:?}");
                    assert_eq!(fast.check_run(&r), want, "{r:?}");
                    for (l, a) in r.pairs().take_while(|&(_, a)| a < 64) {
                        assert_eq!(dst[l as usize], slow.words[a as usize], "{r:?}");
                    }
                }
            }
        }
    }
}
