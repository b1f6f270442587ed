//! Persistent cache warming.
//!
//! A serving deployment pays its worst compile latencies on *fresh*
//! graphs: the first tenant to submit a program on a given slice width
//! eats a full degradation-ladder compile on the serving path. Warming
//! moves that cost offline. [`warm_cache`] pre-compiles every provided
//! graph at every plausible slice width × [`FaultPolicy`], routing each
//! compile through [`super::pipeline_options_for`] at
//! [`Pressure::Nominal`] — the *same* options constructor both serving
//! paths use — so the warmed entries are content-addressed identically
//! to the keys the serving path will later look up. With a disk tier
//! configured ([`crate::serve::CacheOptions`]), the warmed artifacts
//! persist across server restarts.
//!
//! Warming compiles are *not* serving traffic: after the sweep the
//! cache's hit/miss statistics are reset so a subsequent serving run
//! reports its own hit rate, not the warmer's misses.
//!
//! Warming interacts with the cache's LRU bound: a sweep larger than
//! [`crate::serve::CacheOptions::capacity`] evicts its own earliest
//! points as it goes, and a warm start that has forgotten its entries
//! behaves exactly like a cold one. [`WarmReport::evictions`] makes
//! that visible; size the capacity to the sweep when full residency is
//! the point.

use streamir::graph::FlatGraph;

use serde::Serialize;

use super::{pipeline_options_for, CompilationCache, Pressure, ServeOptions};
use crate::pipeline::{FaultPolicy, PipelineOptions};
use crate::Result;

/// What a warming sweep did, per [`warm_cache`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WarmReport {
    /// Slice widths swept (one compile per graph × width × policy).
    pub widths: Vec<u32>,
    /// Compiles performed and inserted into the cache.
    pub compiled: u64,
    /// Points already present (memory or disk tier) — verified, not
    /// recompiled.
    pub already_cached: u64,
    /// Points whose compile failed (e.g. no feasible schedule at a
    /// narrow width). Failures are counted, not fatal: a graph that
    /// cannot compile at width 1 can still warm every wider slice.
    pub failed: u64,
    /// In-memory entries the sweep itself displaced. A sweep larger
    /// than [`crate::serve::CacheOptions::capacity`] silently forgets
    /// its earliest points to the LRU bound — warming that evicts is
    /// warming that (partially) didn't happen, so callers who expect
    /// full residency should size the capacity to [`WarmReport::points`]
    /// and assert this is zero.
    pub evictions: u64,
}

impl WarmReport {
    /// Total points visited by the sweep.
    #[must_use]
    pub fn points(&self) -> u64 {
        self.compiled + self.already_cached + self.failed
    }
}

/// The one warming sweep: visits graphs × plausible slice widths for up
/// to `max_tenants` tenants × both [`FaultPolicy`]s, handing `visit` the
/// exact [`PipelineOptions`] the serving path will later address
/// ([`pipeline_options_for`] at [`Pressure::Nominal`]), and tallies what
/// it reports — like [`CompilationCache::get_or_compile`], `Ok(true)`
/// for a point already present, `Ok(false)` for one compiled now, and
/// an error (counted, not fatal) for one that failed. [`warm_cache`]
/// visits a [`CompilationCache`]; [`crate::fleet::FleetEngine::warm`]
/// visits the replicated store.
pub(crate) fn sweep(
    opts: &ServeOptions,
    graphs: &[FlatGraph],
    max_tenants: usize,
    mut visit: impl FnMut(&FlatGraph, PipelineOptions) -> Result<bool>,
) -> WarmReport {
    let widths = super::partition::plausible_widths(opts.device.num_sms, max_tenants);
    let mut report = WarmReport {
        widths: widths.clone(),
        compiled: 0,
        already_cached: 0,
        failed: 0,
        evictions: 0,
    };
    for graph in graphs {
        for &width in &widths {
            for policy in [FaultPolicy::Throughput, FaultPolicy::TailLatency] {
                let popts = pipeline_options_for(opts, width, Pressure::Nominal, policy);
                match visit(graph, popts) {
                    Ok(true) => report.already_cached += 1,
                    Ok(false) => report.compiled += 1,
                    Err(_) => report.failed += 1,
                }
            }
        }
    }
    report
}

/// Pre-compiles `graphs` at every plausible slice width for a server
/// expecting up to `max_tenants` concurrent tenants, under both fault
/// policies, into `cache`. See the module docs for key-identity and
/// statistics semantics.
pub fn warm_cache(
    cache: &mut CompilationCache,
    opts: &ServeOptions,
    graphs: &[FlatGraph],
    max_tenants: usize,
) -> WarmReport {
    let evictions_before = cache.stats().evictions;
    let mut report = sweep(opts, graphs, max_tenants, |graph, popts| {
        cache.get_or_compile(graph, &popts).map(|(_, hit)| hit)
    });
    report.evictions = cache.stats().evictions - evictions_before;
    cache.reset_stats();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder};

    fn tiny_graph() -> FlatGraph {
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = b.local(ElemTy::I32);
        b.pop_into(0, x);
        b.push(0, Expr::local(x).mul(Expr::i32(3)));
        StreamSpec::filter(FilterSpec::new("warm_inc", b.build().unwrap()))
            .flatten()
            .unwrap()
    }

    #[test]
    fn warming_fills_the_cache_and_resets_stats() {
        let opts = ServeOptions {
            device: gpusim::DeviceConfig {
                num_sms: 4,
                ..gpusim::DeviceConfig::gts512()
            },
            ..ServeOptions::default()
        };
        let mut cache = CompilationCache::new(opts.cache.clone());
        let graphs = [tiny_graph()];
        let report = warm_cache(&mut cache, &opts, &graphs, 2);
        let widths = crate::serve::partition::plausible_widths(opts.device.num_sms, 2);
        assert_eq!(report.widths, widths);
        assert_eq!(report.points(), 2 * widths.len() as u64);
        assert_eq!(report.failed, 0);
        assert_eq!(report.evictions, 0);
        assert!(report.compiled > 0);
        // Warming misses must not pollute serving statistics.
        assert_eq!(cache.stats().misses, 0);
        assert_eq!(cache.stats().hits, 0);

        // A second sweep finds every point already cached.
        let again = warm_cache(&mut cache, &opts, &graphs, 2);
        assert_eq!(again.compiled, 0);
        assert_eq!(again.already_cached, report.points());
    }
}
