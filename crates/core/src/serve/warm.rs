//! Persistent cache warming.
//!
//! A serving deployment pays its worst compile latencies on *fresh*
//! graphs: the first tenant to submit a program at a given slice width
//! eats a full degradation-ladder compile on the serving path. `sweep`
//! moves that cost offline, compiling every graph at every plausible
//! slice width × [`FaultPolicy`] through the *same* options constructor
//! the serving loop uses (`pipeline_options_for` at
//! [`Pressure::Nominal`]), so warmed entries are content-addressed
//! exactly as the serving path will look them up; with a disk tier
//! ([`crate::serve::CacheOptions`]) they persist across restarts.
//!
//! Warming is not serving traffic: the store's counters are restored
//! afterwards. A sweep larger than a single device's LRU bound evicts
//! its own earliest points — warming that did not happen — which
//! [`WarmReport::evictions`] makes visible.

use gpusim::DeviceId;
use serde::Serialize;
use streamir::graph::FlatGraph;

use super::{cache_key, pipeline_options_for, ArtifactStore, Pressure, ServeOptions};
use crate::fleet::router::score;
use crate::pipeline::FaultPolicy;
use crate::Error;

/// What a warming sweep did.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
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

/// The one warming sweep: pre-compiles `graphs` into `store` at every
/// plausible slice width for up to `max_tenants` tenants × both
/// [`FaultPolicy`]s. Each point is looked up on its top rendezvous-scored
/// `usable` device, so replica placement matches what an organic miss
/// would produce, and compiled synchronously on a miss. No device is
/// charged a search, and the store's counters are restored afterwards.
pub(crate) fn sweep(
    store: &mut ArtifactStore,
    usable: &[u32],
    opts: &ServeOptions,
    graphs: &[FlatGraph],
    max_tenants: usize,
) -> WarmReport {
    let counters = store.counters();
    let widths = super::partition::plausible_widths(opts.device.num_sms, max_tenants);
    let mut report = WarmReport {
        widths: widths.clone(),
        ..WarmReport::default()
    };
    for graph in graphs {
        for &width in &widths {
            for policy in [FaultPolicy::Throughput, FaultPolicy::TailLatency] {
                let popts = pipeline_options_for(opts, width, Pressure::Nominal, policy);
                let key = cache_key(graph, &popts);
                let home = usable
                    .iter()
                    .copied()
                    .max_by_key(|&d| (score(key, d), std::cmp::Reverse(d)));
                let outcome = match home {
                    Some(d) => store.get_or_compile(graph, &popts, DeviceId(d), usable),
                    None => Err(Error::Api("no usable device to warm".into())),
                };
                match outcome {
                    Ok((_, true)) => report.already_cached += 1,
                    Ok((_, false)) => report.compiled += 1,
                    Err(_) => report.failed += 1,
                }
            }
        }
    }
    report.evictions = store.restore(counters);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::cache::tests::chain;

    #[test]
    fn warming_fills_the_cache_and_restores_stats() {
        let opts = ServeOptions {
            device: gpusim::DeviceConfig {
                num_sms: 4,
                ..gpusim::DeviceConfig::gts512()
            },
            ..ServeOptions::default()
        };
        let mut cache = ArtifactStore::new(opts.cache.clone());
        let graphs = [chain(&[("warm_inc", 3)])];
        let report = sweep(&mut cache, &[0], &opts, &graphs, 2);
        let widths = crate::serve::partition::plausible_widths(opts.device.num_sms, 2);
        assert_eq!(report.widths, widths);
        assert_eq!(report.points(), 2 * widths.len() as u64);
        assert_eq!(report.failed, 0);
        assert_eq!(report.evictions, 0);
        assert!(report.compiled > 0);
        // Warming misses must not pollute serving statistics.
        assert_eq!(cache.cache_stats(), crate::serve::CacheStats::default());

        // A second sweep finds every point already cached.
        let again = sweep(&mut cache, &[0], &opts, &graphs, 2);
        assert_eq!(again.compiled, 0);
        assert_eq!(again.already_cached, report.points());
    }
}
