//! Static coalescing analysis: abstract warp interpretation of every
//! launch the executor would issue, predicting the simulator's memory
//! counters without executing a single token.
//!
//! The analysis walks the exact launch sequence the executor builds
//! (`Prepared::for_each_instance` — the same function, not a
//! re-implementation) and, per warp of each instance, replays the abstract
//! walk recorded once per kernel ([`gpusim::InstanceExec::analyze`], also
//! behind the isolation prover and the priced bill). Channel addresses are
//! evaluated through each warp's [`gpusim::WarpGeometry`] — the same
//! lowering the simulator executes — and classified with the
//! [`half_warps`] verdicts [`gpusim::count_transactions`] sums and with
//! [`bank_conflict_degree`] — the same analyzers the simulator bills
//! with. Billing only depends on values through `if` conditions and peek
//! depths, so whenever those fold the prediction is *exact*: the
//! predicted counters equal the dynamic [`gpusim::LaunchStats`]
//! bit-for-bit, and a cross-check test keeps the two from silently
//! diverging.
//!
//! Every uncoalesced half-warp group is classified by the channel's
//! logical token geometry:
//!
//! * **boundary** — the group's logical tokens straddle a region
//!   boundary, or touch a transposed region's partial tail. Peeking
//!   consumers legitimately read across rotation boundaries; this is
//!   expected residue, reported as `V0202` (warning).
//! * **misaligned** — lanes read contiguous addresses whose base is not
//!   transaction-aligned. Happens for thread counts below a half-warp
//!   (feedback-capped grids); expected, `V0202` (warning).
//! * **scattered** — lanes read non-contiguous addresses inside one
//!   region. Under the transposed layout on the consumer side this
//!   breaks the coalescing promise the layout exists to make: `V0201`
//!   (error), naming the access site.
//!
//! Uncoalesced traffic under the sequential layout is the behaviour the
//! SWPNC baseline exists to measure: `V0203` (info).

use std::collections::BTreeSet;

use gpusim::{
    bank_conflict_degree, half_warps, AbstractWarp, AccessSink, AffineRun, BufferBinding, Channel,
    Gpu, InstanceExec, LaunchStats, Layout, WarpAccess,
};
use streamir::graph::NodeId;
use streamir::ir::{AccessKind, AccessSite};

use crate::codegen;
use crate::exec::{check_iterations, Compiled, Prepared, Scheme};
use crate::plan::BufferPlan;
use crate::verify::analyze_launches;
use crate::verify::diag::{Code, Diagnostic};
use crate::Result;

/// The device-memory and shared-memory counters the analysis predicts —
/// the subset of [`LaunchStats`] that is a pure function of addresses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticCounters {
    /// Warp-wide device-memory access instructions.
    pub mem_access_insts: u64,
    /// Device-memory transactions after coalescing.
    pub mem_transactions: u64,
    /// Warp-wide shared-memory accesses (staged channel traffic).
    pub shared_accesses: u64,
    /// Extra shared-memory passes lost to bank conflicts.
    pub bank_conflict_passes: u64,
}

impl StaticCounters {
    /// The comparable slice of a dynamic run's counters.
    #[must_use]
    pub fn of_stats(stats: &LaunchStats) -> StaticCounters {
        StaticCounters {
            mem_access_insts: stats.mem_access_insts,
            mem_transactions: stats.mem_transactions,
            shared_accesses: stats.shared_accesses,
            bank_conflict_passes: stats.bank_conflict_passes,
        }
    }
}

/// Per-access-site traffic tally, accumulated over every firing of every
/// instance in the whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteTally {
    /// Device-memory access instructions issued at this site.
    pub accesses: u64,
    /// Device-memory transactions those accesses cost.
    pub transactions: u64,
    /// Shared-memory accesses (when the instance stages its window).
    pub shared_accesses: u64,
    /// Shared-memory bank-conflict passes.
    pub bank_conflict_passes: u64,
    /// Uncoalesced groups scattered inside one region (contract
    /// violation under a transposed consumer).
    pub scattered_groups: u64,
    /// Uncoalesced groups straddling a region boundary or partial tail.
    pub boundary_groups: u64,
    /// Contiguous but transaction-misaligned groups.
    pub misaligned_groups: u64,
    /// Whether any access went through a transposed binding.
    pub transposed: bool,
    /// A data-dependent peek depth made this site unpredictable.
    pub varying_depth: bool,
}

/// One access site's predicted traffic, for reports.
#[derive(Debug, Clone)]
pub struct SiteReport {
    /// Graph node of the filter.
    pub node: u32,
    /// Filter name.
    pub filter: String,
    /// Access-site name (`pop[in0]#0`).
    pub site: String,
    /// The tallied traffic.
    pub tally: SiteTally,
}

/// The whole-run traffic prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted memory counters, summed over every launch.
    pub counters: StaticCounters,
    /// Whether the counters are exact (no data-dependent branch or peek
    /// depth was encountered). When `true` the counters must equal the
    /// dynamic run's bit-for-bit.
    pub exact: bool,
    /// Kernel launches the executor would issue.
    pub launches: u64,
    /// Per-site traffic, sorted by (node, site ordinal).
    pub sites: Vec<SiteReport>,
    /// Coalescing-classification diagnostics (`V02xx`).
    pub diagnostics: Vec<Diagnostic>,
}

/// Whole-run accumulator shared by every analyzed warp: the coalescing
/// analysis's [`AccessSink`], billing each event exactly as the
/// simulator would.
struct Acc {
    counters: StaticCounters,
    exact: bool,
    /// The node whose instance is being walked.
    node: u32,
    /// Per node, per site ordinal: the site's tally once it has one.
    tallies: Vec<Vec<Option<SiteTally>>>,
    varying_branch: BTreeSet<u32>,
    /// The access being billed; each one refills it.
    access: WarpAccess,
}

/// The tally of site `ord` of `node`, opened on first use.
fn tally(tallies: &mut [Vec<Option<SiteTally>>], node: u32, ord: u32) -> &mut SiteTally {
    tallies[node as usize][ord as usize].get_or_insert_with(SiteTally::default)
}

impl AccessSink for Acc {
    fn channel(&mut self, warp: &AbstractWarp<'_>, access: &Channel<'_>) {
        warp.addresses(access, &mut self.access);
        let t = tally(&mut self.tallies, self.node, access.site);
        t.transposed |= matches!(access.binding.layout, Layout::Transposed { .. });
        if warp.inst.shared_staging {
            let passes = bank_conflict_degree(&self.access);
            self.counters.shared_accesses += 1;
            self.counters.bank_conflict_passes += passes;
            t.shared_accesses += 1;
            t.bank_conflict_passes += passes;
        } else {
            let txns = classify_groups(
                &self.access,
                access.binding,
                access.pos,
                warp.lane0,
                warp.half_warp,
                warp.txn_words,
                t,
            );
            self.counters.mem_access_insts += 1;
            self.counters.mem_transactions += txns;
            t.accesses += 1;
            t.transactions += txns;
        }
    }

    fn stale_peeks(&mut self, warp: &AbstractWarp<'_>, n: u32) {
        // Empty peek slots: an access instruction each, zero transactions.
        if warp.inst.shared_staging {
            self.counters.shared_accesses += u64::from(n);
        } else {
            self.counters.mem_access_insts += u64::from(n);
        }
    }

    fn state(&mut self) {
        // State lives in device memory: one lane, one line, billed to
        // the device counters even under staging.
        self.counters.mem_access_insts += 1;
        self.counters.mem_transactions += 1;
    }

    fn local_array(&mut self) {
        self.counters.mem_access_insts += 1;
        self.counters.mem_transactions += 2;
    }

    fn varying_depth(&mut self, _warp: &AbstractWarp<'_>, site: u32) {
        self.exact = false;
        tally(&mut self.tallies, self.node, site).varying_depth = true;
    }

    fn varying_branch(&mut self) {
        // Which lanes take which arm is unknown; the counters are
        // approximate from here on.
        self.exact = false;
        self.varying_branch.insert(self.node);
    }

    fn staging_copy(&mut self, _inst: &InstanceExec<'_>, steps: u64) {
        self.counters.mem_access_insts += steps;
        self.counters.mem_transactions += steps * 2;
    }
}

/// Classifies every uncoalesced half-warp group of one warp-wide access
/// and returns the access's transactions: one pass over the verdicts
/// [`gpusim::count_transactions`] sums.
///
/// A lane's logical index is monotone in the lane, so the group's first
/// and last lanes decide both questions: the group straddles a region
/// boundary when they sit in different regions, and otherwise touches
/// the partial tail when the last lane does.
fn classify_groups(
    runs: &[AffineRun],
    binding: &BufferBinding,
    pos: u64,
    lane0_tid: u32,
    half_warp: u32,
    txn_words: u64,
    t: &mut SiteTally,
) -> u64 {
    let rt = binding.region_tokens.max(1);
    let logical = |l: u32| {
        binding.abs_start + u64::from(lane0_tid + l) * u64::from(binding.endpoint_rate) + pos
    };
    // Where the naturally ordered partial tail starts (never, sequential).
    let tail_start = match binding.layout {
        Layout::Transposed { .. } => {
            let o = u64::from(binding.consumer_rate.max(1));
            rt / o * o
        }
        Layout::Sequential => rt,
    };
    let mut txns = 0;
    half_warps(runs, half_warp, txn_words, |group| {
        txns += group.transactions();
        if group.mask.count_ones() <= 1 || group.coalesced() {
            return;
        }
        let first = logical(group.mask.trailing_zeros());
        let last = logical(31 - group.mask.leading_zeros());
        if first / rt != last / rt || last % rt >= tail_start {
            t.boundary_groups += 1;
        } else if !group.in_pattern {
            t.scattered_groups += 1;
        } else {
            t.misaligned_groups += 1;
        }
    });
    txns
}

/// Predicts the memory counters of `execute(c, scheme, iterations)` with
/// the canonical buffer plan, and classifies every access site.
///
/// # Errors
///
/// The same shape errors as [`crate::exec::execute`] (iteration granule,
/// coarsening constraints, a device shape
/// [`gpusim::DeviceConfig::check_shape`] rejects), plus allocation
/// failures.
pub fn predict(c: &Compiled, scheme: Scheme, iterations: u64) -> Result<Prediction> {
    let prepared = Prepared::of(c, scheme)?;
    predict_prepared(c, &prepared, iterations, prepared.plan())
}

/// [`predict`] over an explicit buffer plan. Exposed so tests can verify
/// that a deliberately skewed plan is caught by the classification.
///
/// # Errors
///
/// As for [`predict`].
pub fn predict_with_plan(
    c: &Compiled,
    scheme: Scheme,
    iterations: u64,
    plan: &BufferPlan,
) -> Result<Prediction> {
    predict_prepared(c, &Prepared::of(c, scheme)?, iterations, plan)
}

/// The analysis proper, over the prepared form whose launch enumeration
/// the executor itself runs: same code, not a re-implementation.
pub(crate) fn predict_prepared(
    c: &Compiled,
    prepared: &Prepared,
    iterations: u64,
    plan: &BufferPlan,
) -> Result<Prediction> {
    // The half-warp verdicts assume the shape the simulator checks.
    c.device.check_shape()?;
    check_iterations(c, prepared.scheme(), iterations)?;
    // A fresh device makes codegen's allocation deterministic, so the
    // analyzed bindings are address-identical to the executed ones.
    let mut gpu = Gpu::with_timing(c.device.clone(), c.timing.clone());
    let buffers = codegen::allocate(&mut gpu, &c.graph, &c.ig, &c.exec_cfg, plan, iterations)?;

    let kernels = codegen::Kernels::of(&c.graph);
    let mut acc = Acc {
        counters: StaticCounters::default(),
        exact: true,
        node: 0,
        tallies: (0..c.graph.len())
            .map(|v| vec![None; kernels.node(v).sites().len()])
            .collect(),
        varying_branch: BTreeSet::new(),
        access: WarpAccess::default(),
    };
    let at_node = |acc: &mut Acc, node| acc.node = node;
    let launches = analyze_launches(c, prepared, &buffers, iterations, &mut acc, at_node);

    let mut diagnostics = Vec::new();
    let mut sites = Vec::new();
    let tallies = acc.tallies.iter().enumerate().flat_map(|(node, sites)| {
        let tallied = sites.iter().enumerate();
        tallied.filter_map(move |(ord, t)| Some((node as u32, ord, (*t)?)))
    });
    for (node, ord, t) in tallies {
        let name = c.graph.nodes()[node as usize].name.clone();
        let site = kernels.node(node as usize).sites()[ord];
        let locate = |d: Diagnostic| {
            let d = d.at_filter(&name, node).at_site(site);
            match edge_of(c, node, site) {
                Some(e) => d.at_edge(e),
                None => d,
            }
        };
        if t.varying_depth {
            diagnostics.push(locate(Diagnostic::new(
                Code::DataDependentPeekDepth,
                format!(
                    "peek depth at {site} of filter '{name}' is data-dependent; \
                     its traffic cannot be predicted statically"
                ),
            )));
        }
        let uncoalesced = t.scattered_groups + t.boundary_groups + t.misaligned_groups;
        if uncoalesced > 0 {
            if t.transposed {
                let consumer_side = matches!(site.kind, AccessKind::Pop | AccessKind::Peek);
                if t.scattered_groups > 0 && consumer_side {
                    diagnostics.push(locate(Diagnostic::new(
                        Code::NonCoalescedAccess,
                        format!(
                            "{site} of filter '{name}' scatters within a transposed \
                             region in {} half-warp groups ({} transactions over {} \
                             accesses): the layout's coalescing promise is broken",
                            t.scattered_groups, t.transactions, t.accesses
                        ),
                    )));
                } else if t.scattered_groups > 0 {
                    diagnostics.push(locate(Diagnostic::new(
                        Code::UncoalescedTraffic,
                        format!(
                            "{site} of filter '{name}' scatters in {} half-warp groups \
                             on the producer side ({} transactions over {} accesses)",
                            t.scattered_groups, t.transactions, t.accesses
                        ),
                    )));
                } else {
                    diagnostics.push(locate(Diagnostic::new(
                        Code::UncoalescedTraffic,
                        format!(
                            "{site} of filter '{name}' serializes in {} half-warp \
                             groups at region boundaries/misaligned bases ({} \
                             transactions over {} accesses) — expected residue",
                            t.boundary_groups + t.misaligned_groups,
                            t.transactions,
                            t.accesses
                        ),
                    )));
                }
            } else {
                diagnostics.push(locate(Diagnostic::new(
                    Code::SequentialTraffic,
                    format!(
                        "{site} of filter '{name}' serializes under the sequential \
                         layout ({} transactions over {} accesses)",
                        t.transactions, t.accesses
                    ),
                )));
            }
        }
        sites.push(SiteReport {
            node,
            filter: name,
            site: site.to_string(),
            tally: t,
        });
    }
    for &node in &acc.varying_branch {
        let name = c.graph.nodes()[node as usize].name.clone();
        diagnostics.push(
            Diagnostic::new(
                Code::DataDependentBranch,
                format!(
                    "filter '{name}' branches on data; predicted counters are \
                     approximate"
                ),
            )
            .at_filter(&name, node),
        );
    }

    Ok(Prediction {
        counters: acc.counters,
        exact: acc.exact,
        launches,
        sites,
        diagnostics,
    })
}

/// The graph edge an access site reads or writes, if it is a channel
/// (rather than the program's external input/output buffer).
fn edge_of(c: &Compiled, node: u32, site: AccessSite) -> Option<u32> {
    let nid = NodeId(node);
    match site.kind {
        AccessKind::Pop | AccessKind::Peek => c
            .graph
            .in_edges(nid)
            .into_iter()
            .find(|&e| c.graph.edge(e).dst_port == site.port)
            .map(|e| e.0),
        AccessKind::Push => c
            .graph
            .out_edges(nid)
            .into_iter()
            .find(|&e| c.graph.edge(e).src_port == site.port)
            .map(|e| e.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{compile, required_input, simulate, CompileOptions, RunOptions};
    use crate::plan;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};

    fn rate_filter(name: &str, p: u32, q: u32) -> StreamSpec {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        let acc = f.local(ElemTy::I32);
        f.assign(acc, Expr::i32(0));
        for _ in 0..p {
            f.pop_into(0, x);
            f.assign(acc, Expr::local(acc).add(Expr::local(x)));
        }
        for i in 0..q {
            f.push(0, Expr::local(acc).add(Expr::i32(i as i32)));
        }
        StreamSpec::filter(FilterSpec::new(name, f.build().unwrap()))
    }

    fn compiled(spec: &StreamSpec) -> Compiled {
        let graph = spec.flatten().unwrap();
        compile(&graph, &CompileOptions::small_test()).unwrap()
    }

    fn input_for(c: &Compiled, iters: u64) -> Vec<Scalar> {
        (0..required_input(c, iters))
            .map(|i| Scalar::I32(i as i32 % 97 - 48))
            .collect()
    }

    fn assert_prediction_exact(c: &Compiled, scheme: Scheme, iters: u64) -> Prediction {
        let pred = predict(c, scheme, iters).unwrap();
        assert!(pred.exact, "suite control flow is data-independent");
        // The simulator: a priced run replays the tapes the prediction
        // replays.
        let input = input_for(c, iters);
        let run = simulate(c, scheme, iters, &input, &RunOptions::default()).unwrap();
        assert_eq!(
            pred.counters,
            StaticCounters::of_stats(&run.stats),
            "static prediction must equal dynamic counters"
        );
        assert_eq!(pred.launches, run.launches);
        pred
    }

    #[test]
    fn prediction_matches_execution_across_schemes() {
        let spec = StreamSpec::pipeline(vec![
            rate_filter("A", 1, 2),
            rate_filter("B", 2, 3),
            rate_filter("C", 3, 1),
        ]);
        let c = compiled(&spec);
        for scheme in [
            Scheme::Swp { coarsening: 1 },
            Scheme::Swp { coarsening: 2 },
            Scheme::SwpNc { coarsening: 1 },
            Scheme::SwpRaw { coarsening: 1 },
            Scheme::Serial { batch: 2 },
        ] {
            assert_prediction_exact(&c, scheme, 4);
        }
    }

    #[test]
    fn canonical_transposed_plan_has_no_errors() {
        let spec = StreamSpec::pipeline(vec![rate_filter("A", 1, 4), rate_filter("B", 4, 1)]);
        let c = compiled(&spec);
        let pred = assert_prediction_exact(&c, Scheme::Swp { coarsening: 1 }, 4);
        assert!(
            !pred
                .diagnostics
                .iter()
                .any(|d| d.code == Code::NonCoalescedAccess),
            "{:?}",
            pred.diagnostics
        );
        // Even unstaged, the transposed layout keeps matched-rate
        // endpoints coalesced in device memory: the proof, not staging,
        // prevents V0201.
        let plan = plan::plan(
            &c.graph,
            &c.ig,
            Some(&c.schedule),
            1,
            crate::plan::LayoutKind::Optimized,
        );
        let raw = predict_with_plan(&c, Scheme::SwpRaw { coarsening: 1 }, 4, &plan).unwrap();
        assert!(
            !raw.diagnostics
                .iter()
                .any(|d| d.code == Code::NonCoalescedAccess),
            "{:?}",
            raw.diagnostics
        );
    }

    #[test]
    fn peeking_filter_stays_exact() {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        f.push(
            0,
            Expr::peek(0, Expr::i32(0))
                .add(Expr::peek(0, Expr::i32(1)))
                .add(Expr::peek(0, Expr::i32(2))),
        );
        f.pop(0);
        let spec = StreamSpec::pipeline(vec![
            rate_filter("gen", 1, 1),
            StreamSpec::filter(FilterSpec::new("ma3", f.build().unwrap())),
        ]);
        let c = compiled(&spec);
        assert_prediction_exact(&c, Scheme::Swp { coarsening: 1 }, 4);
        assert_prediction_exact(&c, Scheme::SwpNc { coarsening: 1 }, 4);
    }

    #[test]
    fn literal_arithmetic_depths_and_indices_stay_uniform() {
        // `3 - 1` and `2 * 1` decode to one op each with both literals
        // folded in as immediates; to the walk they are still a uniform
        // peek depth and a uniform array row.
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let a = f.array(ElemTy::I32, 4);
        let row = || Expr::i32(2).mul(Expr::i32(1));
        f.store(a, row(), Expr::peek(0, Expr::i32(3).sub(Expr::i32(1))));
        f.push(0, Expr::load(a, row()).add(Expr::peek(0, Expr::i32(0))));
        f.pop(0);
        let spec = StreamSpec::pipeline(vec![
            rate_filter("gen", 1, 1),
            StreamSpec::filter(FilterSpec::new("lit", f.build().unwrap())),
        ]);
        let c = compiled(&spec);
        for scheme in [
            Scheme::Swp { coarsening: 1 },
            Scheme::SwpNc { coarsening: 1 },
        ] {
            let pred = assert_prediction_exact(&c, scheme, 4);
            assert!(pred.sites.iter().all(|s| !s.tally.varying_depth));
        }
    }

    #[test]
    fn skewed_transpose_rate_is_a_coalescing_error() {
        // Consumer pops 4 per firing; re-plan the channel as if it popped
        // 2: consumer reads scatter within regions -> V0201 at the site.
        // The raw (unstaged) variant keeps the scatter in device memory,
        // where the classifier sees it.
        let spec = StreamSpec::pipeline(vec![rate_filter("A", 1, 4), rate_filter("B", 4, 1)]);
        let c = compiled(&spec);
        let scheme = Scheme::SwpRaw { coarsening: 1 };
        let (granule, kind) = (1, crate::plan::LayoutKind::Optimized);
        let mut plan = plan::plan(&c.graph, &c.ig, Some(&c.schedule), granule, kind);
        let skewed = plan
            .edges
            .iter_mut()
            .find(|e| e.consumer_rate == 4)
            .expect("the 4-popping consumer's channel");
        skewed.consumer_rate = 2;
        let pred = predict_with_plan(&c, scheme, 4, &plan).unwrap();
        let err = pred
            .diagnostics
            .iter()
            .find(|d| d.code == Code::NonCoalescedAccess)
            .unwrap_or_else(|| panic!("V0201 expected, got {:?}", pred.diagnostics));
        assert_eq!(err.filter.as_deref(), Some("B"));
        assert!(
            err.site
                .as_deref()
                .is_some_and(|s| s.starts_with("pop[in0]")),
            "{err:?}"
        );
    }

    /// The per-lane classification [`classify_groups`] replaced, kept as
    /// the oracle: it places every lane of a group in its region and,
    /// under the transposed layout, its firing.
    fn classify_per_lane(
        runs: &[AffineRun],
        binding: &BufferBinding,
        pos: u64,
        lane0_tid: u32,
        t: &mut SiteTally,
    ) {
        let rt = binding.region_tokens.max(1);
        let logical = |l: u32| {
            binding.abs_start + u64::from(lane0_tid + l) * u64::from(binding.endpoint_rate) + pos
        };
        half_warps(runs, 16, 16, |group| {
            if group.mask.count_ones() <= 1 || group.coalesced() {
                return;
            }
            let mut lanes = (0..32).filter(|l| group.mask & (1 << l) != 0);
            let r0 = logical(group.mask.trailing_zeros()) / rt;
            let crosses = lanes.clone().any(|l| logical(l) / rt != r0);
            let tail = match binding.layout {
                Layout::Transposed { .. } => {
                    let o = u64::from(binding.consumer_rate.max(1));
                    lanes.any(|l| (logical(l) % rt) / o >= rt / o)
                }
                Layout::Sequential => false,
            };
            if crosses || tail {
                t.boundary_groups += 1;
            } else if !group.in_pattern {
                t.scattered_groups += 1;
            } else {
                t.misaligned_groups += 1;
            }
        });
    }

    #[test]
    fn first_and_last_lane_classification_equals_the_per_lane_rule() {
        // The address-generation grid of `gpusim`'s run tests: both
        // layouts and three group sizes, partial tails, rate mismatch, a
        // lane step spanning regions, regions crossed mid-warp, lane
        // offsets, peek ordinals and sparse masks.
        let layouts = [
            Layout::Sequential,
            Layout::Transposed { group: 4 },
            Layout::Transposed { group: 6 },
            Layout::Transposed { group: 128 },
        ];
        let (mut access, mut total) = (WarpAccess::default(), SiteTally::default());
        for layout in layouts {
            for (region_tokens, consumer_rate, endpoint_rate) in [
                (384u64, 3u32, 3u32),
                (100, 3, 3),
                (130, 7, 2),
                (96, 2, 5),
                (64, 1, 0),
                (10, 3, 24),
                (40, 4, 4),
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
                        for lane0 in [0u32, 7, 32, 96] {
                            for n in [0u64, 1, 5, 40] {
                                for mask in [u32::MAX, 0x0000_ffff, 0x7fff_fffe, 0xaaaa_0000] {
                                    b.warp_access(lane0, n, mask, &mut access);
                                    let (mut got, mut want) =
                                        (SiteTally::default(), SiteTally::default());
                                    let txns =
                                        classify_groups(&access, &b, n, lane0, 16, 16, &mut got);
                                    assert_eq!(txns, gpusim::count_transactions(&access, 16, 16));
                                    classify_per_lane(&access, &b, n, lane0, &mut want);
                                    let groups = |t: &SiteTally| {
                                        [t.boundary_groups, t.scattered_groups, t.misaligned_groups]
                                    };
                                    assert_eq!(groups(&got), groups(&want), "{b:?} {lane0} {n}");
                                    total.boundary_groups += got.boundary_groups;
                                    total.scattered_groups += got.scattered_groups;
                                    total.misaligned_groups += got.misaligned_groups;
                                }
                            }
                        }
                    }
                }
            }
        }
        // Every verdict is exercised.
        assert!(total.boundary_groups > 0 && total.scattered_groups > 0);
        assert!(total.misaligned_groups > 0, "{total:?}");
    }

    /// A walk that branches on data and cannot resolve a peek depth, over
    /// a full warp and a partial one, staged and not: its counters, its
    /// per-site tallies (each arm's push is walked from the token the
    /// branch found, so both bill alike) and its diagnostics in order.
    /// The warp's peek-slot mark carries from the then arm into the else
    /// arm, as in a divergent warp of the simulator: the else arm's push
    /// re-bills the then arm's peek slot, 8 of the 48 staged accesses.
    #[test]
    fn an_unresolved_walk_is_pinned_staged_and_unstaged() {
        let c = crate::verify::tests::unresolved_walk();
        assert!((c.exec_cfg.threads.iter()).all(|&t| t == 40));
        let tally = |t: &SiteTally| {
            let groups = [t.scattered_groups, t.boundary_groups, t.misaligned_groups];
            let traffic = [t.accesses, t.transactions, t.shared_accesses];
            (traffic, t.bank_conflict_passes, groups, t.varying_depth)
        };
        // Every site but the peek bills alike.
        let sites = |alike| {
            vec![
                ("gen", "pop[in0]#0", alike),
                ("gen", "push[out0]#0", alike),
                ("gate", "pop[in0]#0", alike),
                ("gate", "peek[in0]#0", ([0; 3], 0, [0; 3], true)),
                ("gate", "push[out0]#0", alike),
                ("gate", "push[out0]#1", alike),
            ]
        };
        let staged = ([0, 0, 8], 4, [0; 3], false);
        let (v0211, v0210) = (
            "warning[V0211]: peek depth at peek[in0]#0 of filter 'gate' is data-dependent; \
             its traffic cannot be predicted statically\n  --> filter 'gate', peek[in0]#0, \
             channel #0",
            "warning[V0210]: filter 'gate' branches on data; predicted counters are approximate\
             \n  --> filter 'gate'",
        );
        let sequential = |site: &str, filter: &str, txns: u64, channel: &str| {
            format!(
                "info[V0203]: {site} of filter '{filter}' serializes under the sequential \
                 layout ({txns} transactions over 8 accesses)\n  --> filter '{filter}', \
                 {site}{channel}"
            )
        };
        let unstaged = ([8, 86, 0], 0, [0, 0, 6], false);
        let cases = [
            (
                Scheme::SwpNc { coarsening: 1 },
                [32, 64, 48, 20],
                sites(staged),
                vec![v0211.to_owned(), v0210.to_owned()],
            ),
            (
                Scheme::SwpRaw { coarsening: 1 },
                [48, 430, 0, 0],
                sites(unstaged),
                vec![
                    sequential("pop[in0]#0", "gen", 86, ""),
                    sequential("push[out0]#0", "gen", 86, ", channel #0"),
                    sequential("pop[in0]#0", "gate", 86, ", channel #0"),
                    v0211.to_owned(),
                    sequential("push[out0]#0", "gate", 86, ""),
                    sequential("push[out0]#1", "gate", 86, ""),
                    v0210.to_owned(),
                ],
            ),
        ];
        for (scheme, [insts, txns, shared, passes], want, diagnostics) in cases {
            let pred = predict(&c, scheme, 4).unwrap();
            let counters = StaticCounters {
                mem_access_insts: insts,
                mem_transactions: txns,
                shared_accesses: shared,
                bank_conflict_passes: passes,
            };
            assert_eq!(
                (pred.counters, pred.exact, pred.launches),
                (counters, false, 5)
            );
            let got: Vec<_> = (pred.sites.iter())
                .map(|s| (s.filter.as_str(), s.site.as_str(), tally(&s.tally)))
                .collect();
            assert_eq!(got, want, "{scheme:?}");
            let rendered: Vec<String> = pred.diagnostics.iter().map(ToString::to_string).collect();
            assert_eq!(rendered, diagnostics, "{scheme:?}");
        }
    }

    #[test]
    fn predict_rejects_a_device_shape_the_verdicts_cannot_bill() {
        let spec = StreamSpec::pipeline(vec![rate_filter("A", 1, 4), rate_filter("B", 4, 1)]);
        let mut c = compiled(&spec);
        c.device.warp_size = 24;
        let err = predict(&c, Scheme::Swp { coarsening: 1 }, 4).unwrap_err();
        assert!(err.to_string().contains("warp size 24"), "{err}");
    }

    #[test]
    fn sequential_layout_traffic_is_informational() {
        let spec = StreamSpec::pipeline(vec![rate_filter("A", 1, 4), rate_filter("B", 4, 1)]);
        let c = compiled(&spec);
        // The raw variant never stages, so the strided consumer hits
        // device memory uncoalesced -> V0203, never V0201.
        let pred = assert_prediction_exact(&c, Scheme::SwpRaw { coarsening: 1 }, 4);
        assert!(
            pred.diagnostics
                .iter()
                .any(|d| d.code == Code::SequentialTraffic),
            "{:?}",
            pred.diagnostics
        );
        assert!(
            !pred
                .diagnostics
                .iter()
                .any(|d| d.code == Code::NonCoalescedAccess),
            "{:?}",
            pred.diagnostics
        );
    }
}
