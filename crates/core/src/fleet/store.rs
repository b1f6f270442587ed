//! The shared, replicated, content-addressed artifact store.
//!
//! PR-4's disk tier persisted compiled artifacts for *one* device; here
//! the same content-addressed keys ([`crate::serve::cache_key`]) index
//! a fleet-wide store in which each artifact lives on a **replica set**
//! of up to R devices, chosen by rendezvous hashing of
//! `(artifact key, device)` so replica placement is deterministic and
//! minimally disrupted by membership changes.
//!
//! Invariants (tested here and asserted fleet-wide in `tests/fleet.rs`):
//!
//! * **Replication** — an insert places the artifact on the compiling
//!   device plus the top `R − 1` other usable devices by rendezvous
//!   score.
//! * **Read-repair** — any successful fetch whose live replica count
//!   has fallen below R (because replicas died) restores it to R from
//!   the currently usable devices, and a remote fetch additionally
//!   installs the artifact on the requester. Repair is *lazy*: device
//!   loss itself does nothing but shrink replica sets, keeping recovery
//!   work off the failover critical path.
//! * **Loss** — an entry whose last replica dies is gone; the next
//!   lookup is an honest miss and recompiles. `entries_lost` counts
//!   these so benchmarks can prove R > 1 prevents them.
//! * **Verification on hit** — every fetched artifact re-runs the
//!   static verifier, exactly like a single-device cache hit.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde::Serialize;

use crate::fleet::router::score;
use crate::pipeline::ResilientCompiled;
use crate::serve::cache::verify_artifact;
use crate::Result;

use gpusim::DeviceId;

/// How a fetch was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Fetch {
    /// The requesting device already holds a replica.
    LocalHit,
    /// Another usable device holds a replica; the artifact is shipped
    /// over and (read-repair) installed on the requester.
    RemoteHit,
    /// No usable device holds the artifact; the caller must compile
    /// and [`ArtifactStore::insert`].
    Miss,
}

/// Store counters, serialized into `BENCH_fleet.json`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StoreStats {
    /// Total fetches.
    pub lookups: u64,
    /// Fetches served by a replica on the requesting device.
    pub local_hits: u64,
    /// Fetches served by a replica on another device.
    pub remote_hits: u64,
    /// Fetches no usable replica could serve.
    pub misses: u64,
    /// Fetches that triggered a read-repair (replica set below R, or a
    /// remote hit installing on the requester).
    pub read_repairs: u64,
    /// Entries whose last replica died (the artifact is gone).
    pub entries_lost: u64,
}

impl StoreStats {
    /// Fraction of lookups any replica served (local or remote).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.local_hits + self.remote_hits) as f64 / self.lookups as f64
        }
    }

    /// Fraction of lookups served *across* devices — the replication
    /// dividend a solo disk tier cannot earn.
    #[must_use]
    pub fn remote_hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.remote_hits as f64 / self.lookups as f64
        }
    }
}

struct Entry {
    /// Shared with every job fetched from this entry (and with its
    /// prepared execution form): replicas model placement, not copies.
    artifact: Arc<ResilientCompiled>,
    replicas: BTreeSet<u32>,
}

/// The fleet-wide artifact store.
pub struct ArtifactStore {
    replication: usize,
    entries: BTreeMap<u64, Entry>,
    stats: StoreStats,
}

impl ArtifactStore {
    /// A store with replication factor `r` (floored at 1).
    #[must_use]
    pub fn new(r: u32) -> ArtifactStore {
        ArtifactStore {
            replication: (r.max(1)) as usize,
            entries: BTreeMap::new(),
            stats: StoreStats::default(),
        }
    }

    /// The configured replication factor.
    #[must_use]
    pub fn replication(&self) -> u32 {
        self.replication as u32
    }

    /// Store counters.
    #[must_use]
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Whether the store holds a (reachable or not) entry for `key`.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// The live replica set of `key` (empty when absent).
    #[must_use]
    pub fn replicas(&self, key: u64) -> Vec<u32> {
        self.entries
            .get(&key)
            .map(|e| e.replicas.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Fetches `key` for `device`, given the router's current list of
    /// usable devices. Counts the lookup, performs read-repair, and
    /// verifies the artifact on every hit.
    ///
    /// # Errors
    ///
    /// Verification errors on a corrupt artifact (a store bug — the
    /// same artifacts verified at insert).
    pub fn fetch(
        &mut self,
        key: u64,
        device: DeviceId,
        usable: &[u32],
    ) -> Result<(Fetch, Option<Arc<ResilientCompiled>>)> {
        self.stats.lookups += 1;
        let replication = self.replication;
        let Some(entry) = self.entries.get_mut(&key) else {
            self.stats.misses += 1;
            return Ok((Fetch::Miss, None));
        };
        let outcome = if entry.replicas.contains(&device.0) {
            Fetch::LocalHit
        } else if entry.replicas.iter().any(|d| usable.contains(d)) {
            Fetch::RemoteHit
        } else {
            // Replicas exist but none is reachable (all partitioned):
            // an honest miss — the caller recompiles rather than block
            // on a heal.
            self.stats.misses += 1;
            return Ok((Fetch::Miss, None));
        };
        match outcome {
            Fetch::LocalHit => self.stats.local_hits += 1,
            Fetch::RemoteHit => self.stats.remote_hits += 1,
            Fetch::Miss => unreachable!(),
        }
        // Read-repair: a remote hit installs on the requester, and any
        // hit tops the live set back up to R from usable devices.
        let before = entry.replicas.len();
        if outcome == Fetch::RemoteHit {
            entry.replicas.insert(device.0);
        }
        let mut candidates: Vec<u32> = usable
            .iter()
            .copied()
            .filter(|d| !entry.replicas.contains(d))
            .collect();
        candidates.sort_by_key(|&d| std::cmp::Reverse(score(key, d)));
        for d in candidates {
            if entry.replicas.len() >= replication {
                break;
            }
            entry.replicas.insert(d);
        }
        if entry.replicas.len() != before {
            self.stats.read_repairs += 1;
        }
        verify_artifact(&entry.artifact)?;
        Ok((outcome, Some(Arc::clone(&entry.artifact))))
    }

    /// Inserts a freshly compiled artifact for `key`: the compiling
    /// device plus the top `R − 1` other usable devices by rendezvous
    /// score hold replicas.
    pub fn insert(
        &mut self,
        key: u64,
        artifact: Arc<ResilientCompiled>,
        device: DeviceId,
        usable: &[u32],
    ) {
        let mut replicas = BTreeSet::new();
        replicas.insert(device.0);
        let mut candidates: Vec<u32> = usable.iter().copied().filter(|&d| d != device.0).collect();
        candidates.sort_by_key(|&d| std::cmp::Reverse(score(key, d)));
        for d in candidates
            .into_iter()
            .take(self.replication.saturating_sub(1))
        {
            replicas.insert(d);
        }
        self.entries.insert(key, Entry { artifact, replicas });
    }

    /// Removes a dead device from every replica set; entries whose last
    /// replica died are dropped (and counted lost). Repair of surviving
    /// under-replicated entries is deferred to read-repair.
    pub fn drop_device(&mut self, device: DeviceId) {
        let mut lost = Vec::new();
        for (&key, entry) in &mut self.entries {
            entry.replicas.remove(&device.0);
            if entry.replicas.is_empty() {
                lost.push(key);
            }
        }
        for key in lost {
            self.entries.remove(&key);
            self.stats.entries_lost += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CompileOptions;
    use crate::pipeline::{PipelineOptions, ResilientPipeline};
    use crate::serve::cache_key;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder};

    fn artifact() -> (u64, Arc<ResilientCompiled>) {
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = b.local(ElemTy::I32);
        b.pop_into(0, x);
        b.push(0, Expr::local(x).mul(Expr::i32(3)));
        let graph = StreamSpec::filter(FilterSpec::new("triple", b.build().unwrap()))
            .flatten()
            .unwrap();
        let opts = PipelineOptions {
            compile: CompileOptions::small_test(),
            ..PipelineOptions::default()
        };
        let key = cache_key(&graph, &opts);
        let a = ResilientPipeline::new(opts)
            .compile(&graph)
            .expect("compiles");
        (key, Arc::new(a))
    }

    #[test]
    fn insert_replicates_to_r_and_fetch_hits_locally_and_remotely() {
        let (key, a) = artifact();
        let mut s = ArtifactStore::new(2);
        let usable = vec![0, 1, 2, 3];
        s.insert(key, a, DeviceId(1), &usable);
        assert_eq!(s.replicas(key).len(), 2);
        assert!(s.replicas(key).contains(&1));

        let holder = DeviceId(1);
        let (f, art) = s.fetch(key, holder, &usable).unwrap();
        assert_eq!(f, Fetch::LocalHit);
        assert!(art.is_some());

        let outsider = DeviceId(
            (0..4u32)
                .find(|d| !s.replicas(key).contains(d))
                .expect("some non-replica"),
        );
        let (f, art) = s.fetch(key, outsider, &usable).unwrap();
        assert_eq!(f, Fetch::RemoteHit, "non-replica device fetches remotely");
        assert!(art.is_some());
        assert!(
            s.replicas(key).contains(&outsider.0),
            "remote hit read-repairs onto the requester"
        );
        assert_eq!(s.stats().local_hits, 1);
        assert_eq!(s.stats().remote_hits, 1);
        assert!(s.stats().read_repairs >= 1);
    }

    #[test]
    fn read_repair_restores_replication_after_device_loss() {
        let (key, a) = artifact();
        let mut s = ArtifactStore::new(2);
        s.insert(key, a, DeviceId(0), &[0, 1, 2, 3]);
        let victim = *s.replicas(key).iter().find(|&&d| d != 0).unwrap_or(&0);
        s.drop_device(DeviceId(victim));
        assert_eq!(s.replicas(key).len(), 1, "one replica survives the loss");

        // Next fetch (from any device) repairs back up to R = 2 among
        // the survivors.
        let survivors: Vec<u32> = (0..4u32).filter(|&d| d != victim).collect();
        let requester = DeviceId(survivors[0]);
        let (f, _) = s.fetch(key, requester, &survivors).unwrap();
        assert_ne!(f, Fetch::Miss);
        assert_eq!(s.replicas(key).len(), 2, "read-repair restored R");
        assert!(s.stats().read_repairs >= 1);
    }

    #[test]
    fn losing_every_replica_loses_the_entry() {
        let (key, a) = artifact();
        let mut s = ArtifactStore::new(2);
        s.insert(key, a, DeviceId(0), &[0, 1]);
        s.drop_device(DeviceId(0));
        s.drop_device(DeviceId(1));
        assert!(!s.contains(key));
        assert_eq!(s.stats().entries_lost, 1);
        let (f, art) = s.fetch(key, DeviceId(2), &[2, 3]).unwrap();
        assert_eq!(f, Fetch::Miss);
        assert!(art.is_none());
    }

    /// Cross-module agreement: the replica set the store picks for a
    /// *real* cache key must equal the top-`R` devices by rendezvous
    /// score, with the score recomputed here from first principles —
    /// `splitmix64(key · GOLDEN + device)` over the [`crate::hash`]
    /// primitives. A drift in either the cache-key hash or the router's
    /// score function shows up as a placement disagreement.
    #[test]
    fn replica_placement_agrees_with_splitmix_scores_of_the_cache_key() {
        let (key, a) = artifact();
        let usable: Vec<u32> = (0..8).collect();
        let compiling = DeviceId(3);
        let mut s = ArtifactStore::new(3);
        s.insert(key, a, compiling, &usable);

        let score_of = |d: u32| {
            crate::hash::splitmix64(
                key.wrapping_mul(crate::hash::SPLITMIX_GOLDEN)
                    .wrapping_add(u64::from(d)),
            )
        };
        let mut others: Vec<u32> = usable.iter().copied().filter(|&d| d != 3).collect();
        others.sort_by_key(|&d| std::cmp::Reverse(score_of(d)));
        let mut expected = vec![3u32];
        expected.extend(&others[..2]);
        expected.sort_unstable();

        assert_eq!(
            s.replicas(key),
            expected,
            "store placement must follow the splitmix rendezvous scores \
             of the cache key"
        );
        // And the router's own score function is that same expression.
        for &d in &usable {
            assert_eq!(score(key, d), score_of(d));
        }
    }

    #[test]
    fn unreachable_replicas_are_an_honest_miss() {
        let (key, a) = artifact();
        let mut s = ArtifactStore::new(1);
        s.insert(key, a, DeviceId(0), &[0, 1]);
        // Device 0 holds the only replica but is partitioned (not in
        // the usable list): the fetch must miss rather than hit through
        // a severed link.
        let (f, _) = s.fetch(key, DeviceId(1), &[1]).unwrap();
        assert_eq!(f, Fetch::Miss);
    }
}
