//! Channel buffer layouts and endpoint bindings.
//!
//! A channel's tokens live in device memory in one of two layouts:
//!
//! * [`Layout::Sequential`] — the natural FIFO order: logical token `j` at
//!   offset `j`. Under data-parallel execution thread `t` pops tokens
//!   `t·o .. t·o+o`, so simultaneous accesses by a half-warp stride by `o`
//!   words and serialize into one transaction per thread (Figure 8 of the
//!   paper).
//! * [`Layout::Transposed`] — the paper's optimized layout (Section IV-D):
//!   within each chunk of `group × o` logical tokens, the `group × o`
//!   matrix is transposed so that the `n`-th pops of `group` consecutive
//!   firings are contiguous. A half-warp then accesses
//!   `segment_base + lane`, which coalesces. `group` is 128, the gcd of
//!   the considered thread-block sizes.
//!
//! One deliberate deviation from the paper is documented in DESIGN.md: we
//! define the transposition once per channel in terms of the *consumer's*
//! per-firing rate, and producers write each logical token into the slot
//! this single bijection assigns. Exact FIFO semantics are preserved on
//! every channel (the CPU oracle must agree bit-for-bit); reads always
//! coalesce, and writes coalesce whenever producer and consumer chunk
//! decompositions agree (the common case after thread-coarsening; the
//! coalescing analyzer bills the mismatched cases truthfully).

/// How logical token indices map to physical offsets within a buffer
/// region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Natural FIFO order (used by the SWPNC baseline).
    Sequential,
    /// The coalescing transposition with thread-group size `group`.
    Transposed {
        /// Thread-group granularity (128 on the modeled device).
        group: u32,
    },
}

impl Layout {
    /// Maps a logical index within a region to its physical offset, given
    /// the consumer's per-firing rate `o` and the region size in tokens.
    ///
    /// The transposition works on chunks of `group` consecutive firings;
    /// a region holding fewer than `group` firings (or a partial final
    /// chunk) transposes over the firings actually present, keeping the
    /// map a bijection on `[0, region_tokens)`. When `region_tokens` is
    /// not a multiple of `o` the trailing partial firing (and, when the
    /// region holds less than one full firing, the whole region) is
    /// stored in natural order: only complete firings participate in the
    /// transposition, so the map stays a bijection for any geometry.
    #[must_use]
    pub fn slot(self, idx: u64, consumer_rate: u32, region_tokens: u64) -> u64 {
        match self {
            Layout::Sequential => idx,
            Layout::Transposed { group } => {
                let g = u64::from(group);
                let o = u64::from(consumer_rate.max(1));
                let f_full = region_tokens / o;
                let firing = idx / o;
                if firing >= f_full {
                    // Partial tail: tokens past the last complete firing
                    // keep their natural offsets, disjoint from the
                    // transposed range `[0, f_full*o)`.
                    return idx;
                }
                let n = idx % o;
                let chunk = firing / g;
                let lanes = g.min(f_full - chunk * g);
                chunk * g * o + n * lanes + (firing - chunk * g)
            }
        }
    }
}

/// Lanes of a warp on every modeled device; active-lane masks are `u32`.
pub const WARP_LANES: usize = 32;

/// The `(lane, address)` pairs of one warp-wide access, lanes ascending:
/// what [`crate::count_transactions`] and [`crate::bank_conflict_degree`]
/// classify. Lives on the stack; derefs to the pair slice.
#[derive(Debug, Clone, Copy)]
pub struct WarpAddrs {
    pairs: [(u32, u64); WARP_LANES],
    len: usize,
}

impl WarpAddrs {
    pub(crate) fn new() -> WarpAddrs {
        WarpAddrs {
            pairs: [(0, 0); WARP_LANES],
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, lane: u32, addr: u64) {
        self.pairs[self.len] = (lane, addr);
        self.len += 1;
    }
}

impl std::ops::Deref for WarpAddrs {
    type Target = [(u32, u64)];

    fn deref(&self) -> &[(u32, u64)] {
        &self.pairs[..self.len]
    }
}

/// Binds one work-function port to a device buffer for an instance
/// execution.
///
/// The binding knows everything needed to turn *(lane, token-number)* into
/// a device word address: where the buffer lives, how big one
/// steady-iteration region is, how many regions rotate (software-pipelined
/// channels hold several iterations in flight), the layout, and the
/// absolute logical index this instance starts at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferBinding {
    /// Base device word address of the buffer.
    pub base_word: u32,
    /// Tokens per region (one steady iteration's traffic on the channel,
    /// times any coarsening).
    pub region_tokens: u64,
    /// Number of rotating regions (`1` for flat buffers).
    pub regions: u32,
    /// Physical layout of each region.
    pub layout: Layout,
    /// Tokens per firing of the channel's *consumer* (defines the
    /// transposition).
    pub consumer_rate: u32,
    /// Tokens per firing of *this endpoint* (consumer: pop rate; producer:
    /// push rate).
    pub endpoint_rate: u32,
    /// Absolute logical index of lane 0's first token for this execution.
    pub abs_start: u64,
}

impl BufferBinding {
    /// A flat, single-region binding covering `tokens` tokens starting at
    /// logical index 0 — what simple one-shot launches use.
    #[must_use]
    pub fn whole(
        base_word: u32,
        tokens: u32,
        _elem: streamir::ir::ElemTy,
        layout: Layout,
        rate: u32,
    ) -> BufferBinding {
        BufferBinding {
            base_word,
            region_tokens: u64::from(tokens),
            regions: 1,
            layout,
            consumer_rate: rate,
            endpoint_rate: rate,
            abs_start: 0,
        }
    }

    /// Device word address of the `n`-th token of this endpoint's firing
    /// executed by `lane` (for peeks, `n` may exceed the endpoint rate —
    /// the address keeps following the logical stream).
    #[must_use]
    pub fn addr(&self, lane: u32, n: u64) -> u64 {
        let j = self.abs_start + u64::from(lane) * u64::from(self.endpoint_rate) + n;
        let region = (j / self.region_tokens) % u64::from(self.regions);
        let offset = self.layout.slot(
            j % self.region_tokens,
            self.consumer_rate,
            self.region_tokens,
        );
        u64::from(self.base_word) + region * self.region_tokens + offset
    }

    /// The `(lane, address)` pairs of one warp-wide access in which every
    /// lane of `mask` touches the same token ordinal `n` of its own
    /// firing: `(l, self.addr(lane0_tid + l, n))` for each set bit `l`.
    ///
    /// This is the bulk form of [`BufferBinding::addr`], which stays the
    /// definition: the divisions are done once for the lowest lane and
    /// region, firing and offset are then carried across consecutive
    /// lanes with additions and compares only.
    #[must_use]
    pub fn warp_addrs(&self, lane0_tid: u32, n: u64, mask: u32) -> WarpAddrs {
        let mut out = WarpAddrs::new();
        if mask == 0 {
            return out;
        }
        // Every lane from the lowest set bit to the highest, then drop
        // the masked-off ones in between (there are none unless the warp
        // has diverged).
        let lo = mask.trailing_zeros();
        out.len = (32 - mask.leading_zeros() - lo) as usize;
        self.fill_addrs(lo, lane0_tid + lo, n, &mut out.pairs[..out.len]);
        if mask.count_ones() as usize != out.len {
            let mut kept = 0;
            for i in 0..out.len {
                let pair = out.pairs[i];
                if mask & (1 << pair.0) != 0 {
                    out.pairs[kept] = pair;
                    kept += 1;
                }
            }
            out.len = kept;
        }
        out
    }

    /// `out[i] = (lane + i, self.addr(tid + i, n))`.
    fn fill_addrs(&self, lane: u32, tid: u32, n: u64, out: &mut [(u32, u64)]) {
        let rate = u64::from(self.endpoint_rate);
        let rt = self.region_tokens;
        let out = out.iter_mut().zip(lane..);
        if rate >= rt {
            // A lane step would cross more than one region boundary;
            // no geometry the planner emits does, so keep it simple.
            for (pair, l) in out {
                *pair = (l, self.addr(tid + (l - lane), n));
            }
            return;
        }
        let base = u64::from(self.base_word);
        let regions = u64::from(self.regions);
        let j = self.abs_start + u64::from(tid) * rate + n;
        let mut region_base = base + (j / rt) % regions * rt;
        let mut idx = j % rt;
        let end = base + regions * rt;
        match self.layout {
            Layout::Sequential => {
                for (pair, l) in out {
                    *pair = (l, region_base + idx);
                    idx += rate;
                    if idx >= rt {
                        idx -= rt;
                        region_base += rt;
                        if region_base == end {
                            region_base = base;
                        }
                    }
                }
            }
            Layout::Transposed { group } => {
                // `Layout::slot`'s coordinates, stepped instead of
                // re-derived: `firing = chunk·g + in_chunk`, `k` the
                // token's position inside its firing, and per chunk its
                // first slot and how many firings wide it is.
                let g = u64::from(group);
                let o = u64::from(self.consumer_rate.max(1));
                let f_full = rt / o;
                let (step_firings, step_k) = (rate / o, rate % o);
                let geometry =
                    |chunk: u64| (chunk * g * o, g.min(f_full.saturating_sub(chunk * g)));
                let (mut firing, mut k) = (idx / o, idx % o);
                let (mut chunk, mut in_chunk) = (firing / g, firing % g);
                let (mut chunk_base, mut width) = geometry(chunk);
                for (pair, l) in out {
                    let slot = if firing >= f_full {
                        idx
                    } else {
                        chunk_base + k * width + in_chunk
                    };
                    *pair = (l, region_base + slot);
                    idx += rate;
                    if idx >= rt {
                        idx -= rt;
                        region_base += rt;
                        if region_base == end {
                            region_base = base;
                        }
                        (firing, k) = (idx / o, idx % o);
                        (chunk, in_chunk) = (firing / g, firing % g);
                        (chunk_base, width) = geometry(chunk);
                        continue;
                    }
                    k += step_k;
                    let carry = u64::from(k >= o);
                    k -= carry * o;
                    firing += step_firings + carry;
                    in_chunk += step_firings + carry;
                    while in_chunk >= g {
                        in_chunk -= g;
                        chunk += 1;
                        (chunk_base, width) = geometry(chunk);
                    }
                }
            }
        }
    }

    /// Total words the buffer occupies (`regions × region_tokens`).
    #[must_use]
    pub fn size_words(&self) -> u64 {
        self.region_tokens * u64::from(self.regions)
    }

    /// The half-open device word span `[base, base + words)` this binding
    /// can ever address.
    ///
    /// This is a theorem, not a convention: [`BufferBinding::addr`]
    /// computes `base + (region % regions)·region_tokens + slot(j %
    /// region_tokens)`, and [`Layout::slot`] is a bijection on
    /// `[0, region_tokens)`, so every address falls inside the span for
    /// *any* lane, token number, and `abs_start` — the property the
    /// tenant-isolation prover in `swpipe::verify::isolate` quantifies
    /// over all iterations with.
    #[must_use]
    pub fn span(&self) -> (u64, u64) {
        (u64::from(self.base_word), self.size_words())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sequential_is_identity() {
        for i in 0..100 {
            assert_eq!(Layout::Sequential.slot(i, 7, 700), i);
        }
    }

    #[test]
    fn transposed_is_a_bijection() {
        let layout = Layout::Transposed { group: 4 };
        let o = 3;
        let region = 4 * 3 * 5; // 5 chunks
        let mut seen = HashSet::new();
        for j in 0..region {
            let s = layout.slot(j, o, region);
            assert!(s < region, "slot {s} out of region {region}");
            assert!(seen.insert(s), "slot {s} assigned twice");
        }
        assert_eq!(seen.len() as u64, region);
    }

    #[test]
    fn transposed_is_a_bijection_with_few_firings() {
        // Fewer firings than the group size: the regression that once let
        // slots escape the region.
        let layout = Layout::Transposed { group: 128 };
        for (o, firings) in [(1024u32, 8u64), (3, 5), (7, 130), (2, 128)] {
            let region = u64::from(o) * firings;
            let mut seen = HashSet::new();
            for j in 0..region {
                let s = layout.slot(j, o, region);
                assert!(s < region, "slot {s} out of region {region} (o={o})");
                assert!(seen.insert(s), "slot {s} assigned twice (o={o})");
            }
        }
    }

    #[test]
    fn transposed_is_a_bijection_with_partial_tail() {
        // region_tokens not a multiple of o: the old formula mapped both
        // idx=1 and idx=9 to slot 3 here (region=10, o=3, g=4). Complete
        // firings transpose; the partial tail keeps natural order.
        let layout = Layout::Transposed { group: 4 };
        for (o, region) in [(3u32, 10u64), (3, 11), (7, 13), (4, 9), (5, 128)] {
            let mut seen = HashSet::new();
            for j in 0..region {
                let s = layout.slot(j, o, region);
                assert!(s < region, "slot {s} out of region {region} (o={o})");
                assert!(
                    seen.insert(s),
                    "slot {s} assigned twice (o={o}, region={region})"
                );
            }
            assert_eq!(seen.len() as u64, region);
        }
    }

    #[test]
    fn transposed_with_rate_exceeding_region_is_identity() {
        // consumer_rate > region_tokens: no complete firing fits, so the
        // whole region stays in natural order.
        let layout = Layout::Transposed { group: 128 };
        for region in [1u64, 5, 16, 100] {
            for j in 0..region {
                assert_eq!(layout.slot(j, region as u32 + 1, region), j);
                assert_eq!(layout.slot(j, u32::MAX, region), j);
            }
        }
    }

    #[test]
    fn transposed_addresses_wrap_cleanly_at_region_boundary() {
        // A rotating transposed binding: logical indices crossing the
        // region boundary must land in the next region (and wrap back),
        // never aliasing another region's words.
        let b = BufferBinding {
            base_word: 512,
            region_tokens: 12,
            regions: 3,
            layout: Layout::Transposed { group: 4 },
            consumer_rate: 3,
            endpoint_rate: 3,
            abs_start: 0,
        };
        let mut seen = HashSet::new();
        for j in 0..36u64 {
            let region = j / 12;
            let a = b.addr(0, j);
            assert!(
                (512 + region * 12..512 + (region + 1) * 12).contains(&a),
                "token {j} escaped region {region}: addr {a}"
            );
            assert!(seen.insert(a), "address {a} aliased (token {j})");
        }
        // Token 36 wraps back onto region 0's words.
        let a = b.addr(0, 36);
        assert!((512..524).contains(&a), "wrap-around addr {a}");
    }

    #[test]
    fn transposed_reads_are_contiguous_per_group() {
        // group=4, o=2: the n-th pops of firings 0..4 must be contiguous.
        let layout = Layout::Transposed { group: 4 };
        for n in 0..2u64 {
            let slots: Vec<u64> = (0..4u64).map(|f| layout.slot(f * 2 + n, 2, 8)).collect();
            for w in slots.windows(2) {
                assert_eq!(w[1], w[0] + 1, "lane-consecutive slots must be adjacent");
            }
        }
    }

    #[test]
    fn transposed_matches_paper_formula() {
        // Paper eq. (10) with 128-thread groups: index of the n-th pop of
        // thread tid with pop rate o is
        //   128*n + (tid/128)*128*o + tid%128.
        let layout = Layout::Transposed { group: 128 };
        let o = 4u64;
        let region = 384 * o; // 3 full 128-firing chunks
        for tid in [0u64, 1, 127, 128, 200, 383] {
            for n in 0..o {
                let expect = 128 * n + (tid / 128) * 128 * o + tid % 128;
                assert_eq!(layout.slot(tid * o + n, o as u32, region), expect);
            }
        }
    }

    #[test]
    fn binding_addresses_rotate_regions() {
        let b = BufferBinding {
            base_word: 1000,
            region_tokens: 64,
            regions: 3,
            layout: Layout::Sequential,
            consumer_rate: 1,
            endpoint_rate: 1,
            abs_start: 0,
        };
        assert_eq!(b.addr(0, 0), 1000);
        assert_eq!(b.addr(63, 0), 1063);
        // Token 64 belongs to the next iteration -> second region.
        let b2 = BufferBinding {
            abs_start: 64,
            ..b.clone()
        };
        assert_eq!(b2.addr(0, 0), 1064);
        // Token 192 wraps back to region 0.
        let b3 = BufferBinding {
            abs_start: 192,
            ..b
        };
        assert_eq!(b3.addr(0, 0), 1000);
        assert_eq!(b3.size_words(), 192);
    }

    #[test]
    fn span_contains_every_address() {
        // Exhaustively check the span theorem on an awkward geometry:
        // transposed layout, partial-tail region, nonzero abs_start.
        let b = BufferBinding {
            base_word: 300,
            region_tokens: 10,
            regions: 3,
            layout: Layout::Transposed { group: 4 },
            consumer_rate: 3,
            endpoint_rate: 3,
            abs_start: 17,
        };
        let (base, words) = b.span();
        assert_eq!((base, words), (300, 30));
        for lane in 0..8 {
            for n in 0..100 {
                let a = b.addr(lane, n);
                assert!(
                    (base..base + words).contains(&a),
                    "lane {lane} token {n}: addr {a} outside span"
                );
            }
        }
    }

    #[test]
    fn warp_addrs_equal_per_lane_addr() {
        // Every way the stepped coordinates can go wrong: chunk and
        // region boundaries inside a warp, partial tails, producer and
        // consumer disagreeing on the rate, a lane step longer than a
        // region, and sparse masks.
        let layouts = [
            Layout::Sequential,
            Layout::Transposed { group: 4 },
            Layout::Transposed { group: 128 },
        ];
        for layout in layouts {
            for (region_tokens, consumer_rate, endpoint_rate) in [
                (384u64, 3u32, 3u32), // whole firings, rates agree
                (100, 3, 3),          // partial tail
                (130, 7, 2),          // producer rate != consumer rate
                (96, 2, 5),
                (64, 1, 0),  // a port only ever peeked
                (10, 3, 24), // one lane step spans regions
            ] {
                for regions in [1u32, 3] {
                    for abs_start in [0u64, 17, 3 * region_tokens + 5] {
                        let b = BufferBinding {
                            base_word: 4096,
                            region_tokens,
                            regions,
                            layout,
                            consumer_rate,
                            endpoint_rate,
                            abs_start,
                        };
                        for lane0 in [0u32, 32, 96] {
                            for n in [0u64, 1, 5, 40] {
                                for mask in [u32::MAX, 0x0000_ffff, 0x7fff_ffff, 1, 0xaaaa_0000] {
                                    let got = b.warp_addrs(lane0, n, mask);
                                    let want: Vec<_> = (0..32)
                                        .filter(|l| mask & (1 << l) != 0)
                                        .map(|l| (l, b.addr(lane0 + l, n)))
                                        .collect();
                                    assert_eq!(&got[..], &want[..], "{b:?} lane0={lane0} n={n}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn peek_addresses_continue_past_rate() {
        // endpoint rate 2, peeking at n=2 (one past the window) lands on
        // the next firing's first token.
        let b = BufferBinding {
            base_word: 0,
            region_tokens: 1024,
            regions: 1,
            layout: Layout::Sequential,
            consumer_rate: 2,
            endpoint_rate: 2,
            abs_start: 0,
        };
        assert_eq!(b.addr(3, 2), 8); // lane 3 window starts at 6; peek(2) hits 8
    }
}
