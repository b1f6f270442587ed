//! Static coalescing analysis: abstract warp interpretation of every
//! launch the executor would issue, predicting the simulator's memory
//! counters without executing a single token.
//!
//! The analysis walks the exact launch sequence the executor builds
//! ([`crate::exec`]'s `swp_blocks` / `serial_blocks` — the same
//! functions, not a re-implementation) and, per warp of each instance,
//! abstractly interprets the work function through the shared
//! interpreter in [`super::absint`] (also the engine behind the
//! tenant-isolation prover). Channel addresses are evaluated through
//! [`BufferBinding::addr`] — the same lowering the simulator executes —
//! and classified with [`count_transactions`] /
//! [`bank_conflict_degree`] — the same analyzers the simulator bills
//! with. Billing only depends on values through `if` conditions and
//! peek depths, so whenever those fold the prediction is *exact*: the
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

use std::collections::{BTreeSet, HashMap};

use gpusim::{
    bank_conflict_degree, count_transactions, BufferBinding, Gpu, InstanceExec, LaunchStats,
    Layout, SHARED_BANKS,
};
use streamir::graph::NodeId;
use streamir::ir::{AccessKind, AccessSite};

use crate::codegen;
use crate::exec::{scheme_shape, Compiled, Prepared, Scheme};
use crate::instances;
use crate::plan::BufferPlan;
use crate::verify::absint::{self, AccessSink, SiteMap, WarpCtx};
use crate::verify::diag::{Code, Diagnostic};
use crate::{Error, Result};

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
#[derive(Default)]
struct Acc {
    counters: StaticCounters,
    exact: bool,
    tallies: HashMap<(u32, u32), SiteTally>,
    varying_branch: BTreeSet<u32>,
}

impl AccessSink for Acc {
    fn channel(&mut self, ctx: &WarpCtx<'_>, binding: &BufferBinding, pos: u64, ord: u32) {
        let addrs = ctx.lane_addrs(binding, pos);
        let transposed = matches!(binding.layout, Layout::Transposed { .. });
        if ctx.inst.shared_staging {
            let passes = bank_conflict_degree(&addrs, SHARED_BANKS);
            self.counters.shared_accesses += 1;
            self.counters.bank_conflict_passes += passes;
            let t = self.tallies.entry((ctx.node, ord)).or_default();
            t.transposed |= transposed;
            t.shared_accesses += 1;
            t.bank_conflict_passes += passes;
        } else {
            let txns = count_transactions(&addrs, ctx.half_warp, ctx.txn_words);
            self.counters.mem_access_insts += 1;
            self.counters.mem_transactions += txns;
            let t = self.tallies.entry((ctx.node, ord)).or_default();
            t.transposed |= transposed;
            t.accesses += 1;
            t.transactions += txns;
            classify_groups(
                &addrs,
                binding,
                pos,
                ctx.lane0,
                ctx.half_warp,
                ctx.txn_words,
                t,
            );
        }
    }

    fn stale_peek(&mut self, ctx: &WarpCtx<'_>) {
        // An empty peek slot: one access instruction, zero transactions.
        if ctx.inst.shared_staging {
            self.counters.shared_accesses += 1;
        } else {
            self.counters.mem_access_insts += 1;
        }
    }

    fn state(&mut self, _ctx: &WarpCtx<'_>, _store: bool) {
        // State lives in device memory: one lane, one line, billed to
        // the device counters even under staging.
        self.counters.mem_access_insts += 1;
        self.counters.mem_transactions += 1;
    }

    fn local_array(&mut self, _ctx: &WarpCtx<'_>) {
        self.counters.mem_access_insts += 1;
        self.counters.mem_transactions += 2;
    }

    fn varying_depth(&mut self, ctx: &WarpCtx<'_>, ord: u32) {
        self.exact = false;
        let t = self.tallies.entry((ctx.node, ord)).or_default();
        t.varying_depth = true;
    }

    fn varying_branch(&mut self, ctx: &WarpCtx<'_>) {
        // Which lanes take which arm is unknown; the counters are
        // approximate from here on.
        self.exact = false;
        self.varying_branch.insert(ctx.node);
    }

    fn staging_copy(&mut self, _inst: &InstanceExec<'_>, _node: u32, steps: u64) {
        self.counters.mem_access_insts += steps;
        self.counters.mem_transactions += steps * 2;
    }
}

/// Classifies every uncoalesced half-warp group of one warp-wide access,
/// mirroring [`count_transactions`]'s grouping and coalescing test.
fn classify_groups(
    addrs: &[(u32, u64)],
    binding: &BufferBinding,
    pos: u64,
    lane0_tid: u32,
    half_warp: u32,
    txn_words: u64,
    t: &mut SiteTally,
) {
    let rt = binding.region_tokens.max(1);
    let logical = |l: u32| {
        binding.abs_start + u64::from(lane0_tid + l) * u64::from(binding.endpoint_rate) + pos
    };
    let mut i = 0;
    while i < addrs.len() {
        let g = addrs[i].0 / half_warp;
        let mut j = i + 1;
        while j < addrs.len() && addrs[j].0 / half_warp == g {
            j += 1;
        }
        let group = &addrs[i..j];
        i = j;
        if group.len() <= 1 {
            continue;
        }
        let base = group[0].1.wrapping_sub(u64::from(group[0].0 % half_warp));
        let aligned = base % txn_words == 0;
        let in_pattern = group
            .iter()
            .all(|&(l, a)| a == base + u64::from(l % half_warp));
        if aligned && in_pattern {
            continue;
        }
        let r0 = logical(group[0].0) / rt;
        let crosses = group.iter().any(|&(l, _)| logical(l) / rt != r0);
        let tail = match binding.layout {
            Layout::Transposed { .. } => {
                let o = u64::from(binding.consumer_rate.max(1));
                let f_full = rt / o;
                group.iter().any(|&(l, _)| (logical(l) % rt) / o >= f_full)
            }
            Layout::Sequential => false,
        };
        if crosses || tail {
            t.boundary_groups += 1;
        } else if !in_pattern {
            t.scattered_groups += 1;
        } else {
            t.misaligned_groups += 1;
        }
    }
}

/// Predicts the memory counters of `execute(c, scheme, iterations)` with
/// the canonical buffer plan, and classifies every access site.
///
/// # Errors
///
/// The same shape errors as [`crate::exec::execute`] (iteration granule,
/// coarsening constraints), plus allocation failures.
pub fn predict(c: &Compiled, scheme: Scheme, iterations: u64) -> Result<Prediction> {
    let prepared = Prepared::new(c, scheme)?;
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
    predict_prepared(c, &Prepared::new(c, scheme)?, iterations, plan)
}

/// The analysis proper, over the prepared form whose launch enumeration
/// the executor itself runs: same code, not a re-implementation.
fn predict_prepared(
    c: &Compiled,
    prepared: &Prepared,
    iterations: u64,
    plan: &BufferPlan,
) -> Result<Prediction> {
    let scheme = prepared.scheme();
    let (granule, _) = scheme_shape(scheme);
    if iterations == 0 || !iterations.is_multiple_of(u64::from(granule)) {
        return Err(Error::Api(format!(
            "iterations ({iterations}) must be a positive multiple of the \
             coarsening/batch factor ({granule})"
        )));
    }
    if granule > 1
        && !matches!(scheme, Scheme::Serial { .. })
        && instances::requires_serial_iterations(&c.graph)
    {
        return Err(Error::Api(
            "stateful filters and feedback loops cannot be coarsened".into(),
        ));
    }
    // A fresh device makes codegen's allocation deterministic, so the
    // analyzed bindings are address-identical to the executed ones.
    let mut gpu = Gpu::with_timing(c.device.clone(), c.timing.clone());
    let buffers = codegen::allocate(&mut gpu, &c.graph, &c.ig, &c.exec_cfg, plan, iterations)?;

    let site_maps: Vec<SiteMap> = (prepared.kernels())
        .map(|k| absint::build_site_map(k.work()))
        .collect();
    let mut acc = Acc {
        exact: true,
        ..Acc::default()
    };
    let launches = prepared.launch_count(c, iterations);
    for ordinal in 0..launches {
        prepared.for_each_instance(c, &buffers, ordinal, iterations, |_, node, inst| {
            let sm = &site_maps[node.0 as usize];
            absint::analyze_instance(&inst, node.0, &c.device, sm, &mut acc);
        });
    }

    let mut diagnostics = Vec::new();
    let mut sites = Vec::new();
    let mut keys: Vec<_> = acc.tallies.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let t = acc.tallies[&key];
        let (node, ord) = key;
        let name = c.graph.nodes()[node as usize].name.clone();
        let site = site_maps[node as usize].sites[ord as usize];
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
    use crate::exec::{compile, execute, required_input, CompileOptions};
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
        let run = execute(c, scheme, iters, &input_for(c, iters)).unwrap();
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
