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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Lanes `lane .. lane + lanes` of an access, lane `lane + i` at device
/// word address `addr + i·stride`. Strides are never negative, so a
/// run's addresses never descend as its lanes ascend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineRun {
    /// First lane.
    pub lane: u32,
    /// Number of lanes (at least 1).
    pub lanes: u32,
    /// Address of the first lane.
    pub addr: u64,
    /// Address step from one lane to the next.
    pub stride: u64,
}

impl AffineRun {
    /// The run's lanes, as indices into a lane array.
    #[must_use]
    pub fn lane_range(&self) -> std::ops::Range<usize> {
        self.lane as usize..(self.lane + self.lanes) as usize
    }

    /// Address of the run's last lane.
    #[must_use]
    pub fn last_addr(&self) -> u64 {
        self.addr + u64::from(self.lanes - 1) * self.stride
    }

    /// The run expanded into `(lane, address)` pairs.
    #[cfg(test)]
    pub(crate) fn pairs(self) -> impl Iterator<Item = (u32, u64)> {
        (0..self.lanes).map(move |i| (self.lane + i, self.addr + u64::from(i) * self.stride))
    }
}

/// One warp-wide access: its active lanes as [`AffineRun`]s, lanes
/// ascending. What [`crate::count_transactions`],
/// [`crate::bank_conflict_degree`] and [`crate::DeviceMemory::read_run`]
/// / [`crate::DeviceMemory::write_run`] consume; derefs to the runs.
///
/// A buffer meant to be refilled access after access: it is written only
/// as far as an access uses it, and never shrinks.
#[derive(Debug, Clone, Default)]
pub struct WarpAccess {
    runs: Vec<AffineRun>,
}

impl WarpAccess {
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
    }

    /// Appends `run`, which must start past every lane already held; a
    /// run that continues the last one affinely extends it instead.
    pub(crate) fn push(&mut self, run: AffineRun) {
        if let Some(last) = self.runs.last_mut() {
            // The step from `last`'s final lane to `run`'s first must be
            // the stride of both (a one-lane run takes any stride).
            let step = run.addr.checked_sub(last.last_addr());
            let fits = |lanes: u32, stride: u64| lanes == 1 || Some(stride) == step;
            if last.lane + last.lanes == run.lane
                && fits(last.lanes, last.stride)
                && fits(run.lanes, run.stride)
            {
                if let Some(step) = step {
                    last.lanes += run.lanes;
                    last.stride = step;
                    return;
                }
            }
        }
        self.runs.push(run);
    }

    /// Appends the lanes of `run` that are set in `mask`.
    pub(crate) fn push_masked(&mut self, mask: u32, run: AffineRun) {
        let span = lane_bits(run.lane, run.lanes);
        let mut set = mask & span;
        if set == span {
            return self.push(run);
        }
        while set != 0 {
            let lane = set.trailing_zeros();
            let lanes = (set >> lane).trailing_ones();
            let addr = run.addr + u64::from(lane - run.lane) * run.stride;
            self.push(AffineRun {
                lane,
                lanes,
                addr,
                stride: run.stride,
            });
            set &= !lane_bits(lane, lanes);
        }
    }

    /// Every `(lane, address)` pair of the access, lanes ascending.
    #[cfg(test)]
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.runs.iter().flat_map(|run| run.pairs())
    }
}

impl std::ops::Deref for WarpAccess {
    type Target = [AffineRun];

    fn deref(&self) -> &[AffineRun] {
        &self.runs
    }
}

/// The mask of lanes `lane .. lane + lanes` (`lanes >= 1`).
pub(crate) fn lane_bits(lane: u32, lanes: u32) -> u32 {
    (u32::MAX >> (32 - lanes)) << lane
}

/// Binds one work-function port to a device buffer for an instance
/// execution.
///
/// The binding knows everything needed to turn *(lane, token-number)* into
/// a device word address: where the buffer lives, how big one
/// steady-iteration region is, how many regions rotate (software-pipelined
/// channels hold several iterations in flight), the layout, and the
/// absolute logical index this instance starts at.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

    /// The ordinal-independent half of [`BufferBinding::addr`] for the
    /// warp whose lane 0 is thread `tid0`: what every access of that warp
    /// through this binding shares.
    #[must_use]
    pub fn geometry(&self, tid0: u32) -> WarpGeometry {
        let rt = self.region_tokens;
        let (o, group, f_full) = match self.layout {
            Layout::Sequential => (1, 1, 0),
            Layout::Transposed { group } => {
                let o = u64::from(self.consumer_rate.max(1));
                (o, u64::from(group), rt / o)
            }
        };
        let rate = u64::from(self.endpoint_rate);
        let mut geometry = WarpGeometry {
            base: u64::from(self.base_word),
            region_tokens: rt,
            regions: u64::from(self.regions),
            rate,
            group,
            o,
            f_full,
            tail_start: f_full * o,
            step_firings: rate / o,
            step_k: rate % o,
            lane0: Cursor::default(),
        };
        let j = self.abs_start + u64::from(tid0) * rate;
        geometry.lane0 = geometry.cursor((j / rt) % geometry.regions, j % rt);
        geometry
    }

    /// The addresses of lanes `lanes`, lane `l` touching token `n` of the
    /// firing of thread `tid0 + l`, as [`AffineRun`]s, lanes ascending:
    /// [`WarpGeometry::runs`] of `self.geometry(tid0)`.
    pub fn runs(
        &self,
        tid0: u32,
        lanes: std::ops::Range<u32>,
        n: u64,
    ) -> impl Iterator<Item = AffineRun> {
        self.geometry(tid0).runs(lanes, n)
    }

    /// Refills `out` with one warp-wide access in which every lane of
    /// `mask` touches the same token ordinal `n` of its own firing: lane
    /// `l` at `self.addr(lane0_tid + l, n)`. [`WarpGeometry::access`] of
    /// `self.geometry(lane0_tid)`.
    pub fn warp_access(&self, lane0_tid: u32, n: u64, mask: u32, out: &mut WarpAccess) {
        self.geometry(lane0_tid).access(n, mask, out);
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

/// One warp's view of a [`BufferBinding`]: the binding's constants and
/// lane 0's logical index split into region, in-region index and (under
/// the transposed layout) token, firing and chunk. Built once per port
/// ([`BufferBinding::geometry`]) and stepped from warp to warp
/// ([`WarpGeometry::next_warp`]), it resolves every ordinal of a warp
/// with additions, compares and multiplies; it divides only where an
/// access crosses a region, firing or chunk boundary.
#[derive(Debug, Clone, Copy)]
pub struct WarpGeometry {
    base: u64,
    region_tokens: u64,
    regions: u64,
    /// Tokens per firing of the endpoint: the logical step per lane.
    rate: u64,
    /// Transposition group `g` and consumer rate `o` (1 and 1 under the
    /// sequential layout).
    group: u64,
    o: u64,
    /// Complete firings per region, and the in-region index where the
    /// naturally ordered partial tail starts (0: all of it, sequential).
    f_full: u64,
    tail_start: u64,
    /// `rate / o` and `rate % o`: how a lane step moves the firing and
    /// the token inside it.
    step_firings: u64,
    step_k: u64,
    lane0: Cursor,
}

/// A logical index, resolved as far as [`WarpGeometry::run`] needs it.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    region: u64,
    /// Device word address of the region's first word.
    region_base: u64,
    /// Index inside the region.
    idx: u64,
    /// Below `tail_start` only: the token inside the firing, the firing
    /// inside its chunk, the chunk's width in firings and its first slot.
    k: u64,
    in_chunk: u64,
    width: u64,
    chunk_base: u64,
}

/// How many of `want` lanes, stepping `step` from `at` (below `end`),
/// stay below `end`.
fn fit(at: u64, end: u64, step: u64, want: u64) -> u64 {
    if want.checked_mul(step).is_some_and(|span| span <= end - at) {
        want
    } else {
        (end - at).div_ceil(step)
    }
}

impl WarpGeometry {
    /// Resolves in-region index `idx` of `region`, dividing.
    fn cursor(&self, region: u64, idx: u64) -> Cursor {
        let mut at = Cursor {
            region,
            region_base: self.base + region * self.region_tokens,
            idx,
            ..Cursor::default()
        };
        if idx < self.tail_start {
            let (firing, g) = (idx / self.o, self.group);
            let chunk = firing / g;
            at.k = idx % self.o;
            at.in_chunk = firing % g;
            at.width = g.min(self.f_full - chunk * g);
            at.chunk_base = chunk * g * self.o;
        }
        at
    }

    /// Moves `at` on by `lanes` lanes and `n` tokens. While it stays in
    /// its region, firing and chunk that is additions and compares; a
    /// region carry is one subtraction unless it skips a whole region.
    fn advance(&self, at: &mut Cursor, lanes: u64, n: u64) {
        let (rt, idx) = (self.region_tokens, at.idx + lanes * self.rate + n);
        if idx >= rt {
            let (carry, idx) = match idx - rt {
                rest if rest < rt => (1, rest),
                _ => (idx / rt, idx % rt),
            };
            let region = match at.region + carry {
                r if r < self.regions => r,
                r => r % self.regions,
            };
            *at = self.cursor(region, idx);
        } else if idx < self.tail_start {
            let k = at.k + lanes * self.step_k + n;
            let in_chunk = at.in_chunk + lanes * self.step_firings;
            if k < self.o && in_chunk < at.width {
                (at.idx, at.k, at.in_chunk) = (idx, k, in_chunk);
            } else {
                *at = self.cursor(at.region, idx);
            }
        } else {
            at.idx = idx;
        }
    }

    /// The run starting at `at`, at most `want` lanes long: `(addr,
    /// stride, lanes)`. It ends where a lane would leave the region, the
    /// partial tail or a transposed chunk, or where the token position
    /// inside a firing carries into the next firing.
    fn run(&self, at: &Cursor, want: u64) -> (u64, u64, u64) {
        if at.idx >= self.tail_start {
            let lanes = fit(at.idx, self.region_tokens, self.rate, want);
            return (at.region_base + at.idx, self.rate, lanes);
        }
        let lanes = fit(at.k, self.o, self.step_k, want).min(fit(
            at.in_chunk,
            at.width,
            self.step_firings,
            want,
        ));
        let slot = at.chunk_base + at.k * at.width + at.in_chunk;
        let stride = self.step_k * at.width + self.step_firings;
        (at.region_base + slot, stride, lanes)
    }

    /// Moves the geometry on to the warp whose lane 0 is `lanes` threads
    /// further: what [`BufferBinding::geometry`] of that thread returns,
    /// dividing only where lane 0 crosses a region, firing or chunk.
    pub fn next_warp(&mut self, lanes: u32) {
        let mut lane0 = self.lane0;
        self.advance(&mut lane0, u64::from(lanes), 0);
        self.lane0 = lane0;
    }

    /// The addresses of lanes `lanes`, lane `l` touching token `n` of its
    /// firing, as [`AffineRun`]s, lanes ascending.
    ///
    /// This is the bulk form of [`BufferBinding::addr`], which stays the
    /// definition: a run ends only where a lane crosses a region, chunk
    /// or partial-tail boundary or a token position carries into the
    /// next firing ([`Layout`]).
    pub fn runs(self, lanes: std::ops::Range<u32>, n: u64) -> impl Iterator<Item = AffineRun> {
        let mut at = self.lane0;
        self.advance(&mut at, u64::from(lanes.start), n);
        let mut lane = lanes.start;
        std::iter::from_fn(move || {
            (lane < lanes.end).then(|| {
                let (addr, stride, fit) = self.run(&at, u64::from(lanes.end - lane));
                let run = AffineRun {
                    lane,
                    lanes: fit as u32,
                    addr,
                    stride,
                };
                lane += run.lanes;
                if lane < lanes.end {
                    self.advance(&mut at, fit, 0);
                }
                run
            })
        })
    }

    /// Refills `out` with one warp-wide access in which every lane of
    /// `mask` touches token ordinal `n` of its own firing.
    pub fn access(&self, n: u64, mask: u32, out: &mut WarpAccess) {
        out.clear();
        if mask != 0 {
            for run in self.runs(mask.trailing_zeros()..32 - mask.leading_zeros(), n) {
                out.push_masked(mask, run);
            }
        }
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
    fn warp_access_runs_equal_per_lane_addr() {
        // Every way a run can end in the wrong place: chunk and region
        // boundaries inside a warp, partial tails, producer and consumer
        // disagreeing on the rate (a carry into the next firing), a lane
        // step longer than a region, chunk widths that do not divide the
        // firings (group 6), peeks past the firing and sparse masks. As
        // the simulator does, one geometry per port is stepped from warp
        // to warp and reused for every ordinal of a warp.
        let layouts = [
            Layout::Sequential,
            Layout::Transposed { group: 4 },
            Layout::Transposed { group: 6 },
            Layout::Transposed { group: 128 },
        ];
        let mut access = WarpAccess::default();
        for layout in layouts {
            for (region_tokens, consumer_rate, endpoint_rate) in [
                (384u64, 3u32, 3u32), // whole firings, rates agree
                (100, 3, 3),          // partial tail
                (130, 7, 2),          // producer rate != consumer rate
                (96, 2, 5),
                (64, 1, 0),  // a port only ever peeked
                (10, 3, 24), // one lane step spans regions
                (40, 4, 4),  // regions crossed mid-warp
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
                        // Four warps from thread 0 (even lane 0s) and four
                        // from thread 7 (odd ones).
                        let mut geometries = [b.geometry(0), b.geometry(7)];
                        for lane0 in [0u32, 7, 32, 39, 64, 71, 96, 103] {
                            let geometry = &mut geometries[lane0 as usize % 2];
                            if lane0 >= 32 {
                                geometry.next_warp(32);
                            }
                            for n in (0..=9).chain([13, 24, 40, 95]) {
                                for mask in [u32::MAX, 0x0000_ffff, 0x7fff_fffe, 1, 0xaaaa_0000] {
                                    geometry.access(n, mask, &mut access);
                                    let got: Vec<_> = access.pairs().collect();
                                    let want: Vec<_> = (0..32)
                                        .filter(|l| mask & (1 << l) != 0)
                                        .map(|l| (l, b.addr(lane0 + l, n)))
                                        .collect();
                                    assert_eq!(got, want, "{b:?} lane0={lane0} n={n}");
                                    for pair in access.windows(2) {
                                        let [a, b] = pair else { unreachable!() };
                                        assert!(a.lanes > 0 && a.lane + a.lanes <= b.lane);
                                    }
                                }
                            }
                        }
                        // A host transfer: far more lanes than a warp.
                        let got: Vec<_> = b.runs(0, 3..700, 0).flat_map(|r| r.pairs()).collect();
                        let want: Vec<_> = (3..700).map(|l| (l, b.addr(l, 0))).collect();
                        assert_eq!(got, want, "{b:?}");
                    }
                }
            }
        }
    }

    /// What keys a priced instance's bill (`crate::InstanceBills`): a
    /// binding addresses the same words, and a warp makes the same
    /// accesses, at `abs_start` and a whole number of buffer turns
    /// (`region_tokens × regions` tokens) later. Over both layouts,
    /// partial tails, rate mismatches and peeks past a region's end.
    #[test]
    fn addresses_repeat_with_the_buffer_period() {
        let (mut at, mut later) = (WarpAccess::default(), WarpAccess::default());
        for layout in [Layout::Sequential, Layout::Transposed { group: 4 }] {
            for (region_tokens, consumer_rate, endpoint_rate) in [
                (384u64, 3u32, 3u32), // whole firings, rates agree
                (100, 3, 3),          // partial tail
                (130, 7, 2),          // producer rate != consumer rate
                (10, 3, 24),          // one lane step spans regions
            ] {
                for regions in [1u32, 3, 25] {
                    for abs_start in [0u64, 17, region_tokens - 1, 3 * region_tokens + 5] {
                        let b = BufferBinding {
                            base_word: 4096,
                            region_tokens,
                            regions,
                            layout,
                            consumer_rate,
                            endpoint_rate,
                            abs_start,
                        };
                        for turns in [1u64, 2, 7] {
                            let shifted = BufferBinding {
                                abs_start: abs_start + turns * b.size_words(),
                                ..b.clone()
                            };
                            // Peeks run past the firing and the region.
                            for n in (0..=9).chain([13, region_tokens, 95, 300]) {
                                for lane in 0..40 {
                                    assert_eq!(b.addr(lane, n), shifted.addr(lane, n));
                                }
                                for tid0 in [0u32, 7, 32, 103] {
                                    for mask in [u32::MAX, 0x7fff_fffe, 0xaaaa_0000] {
                                        b.warp_access(tid0, n, mask, &mut at);
                                        shifted.warp_access(tid0, n, mask, &mut later);
                                        assert_eq!(*at, *later, "{b:?} +{turns} turns n={n}");
                                    }
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
