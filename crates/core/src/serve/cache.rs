//! The one content-addressed artifact store.
//!
//! A cache key is a seedless FNV-1a hash over everything that determines
//! the compiled artifact: the graph's canonical encoding (memoised on the
//! graph, [`FlatGraph::content_hash`]), the device shape, the timing
//! calibration, the profiling grid, the search options, the ladder
//! budgets, and the fault policy/plan. Keys are stable across processes,
//! so a disk entry written by one serving process is a hit for any other.
//!
//! [`ArtifactStore`] is the only store: one device's compilation cache is
//! the store at replication R = 1 with an LRU bound and an optional JSON
//! disk tier ([`ArtifactStore::new`]); a fleet's is the same type at R
//! replicas, unbounded and memory-only ([`ArtifactStore::replicated`]).
//!
//! * **Reservations** — a miss claims the key, its LRU slot and its
//!   replica set at once; the caller compiles and then fulfills (or
//!   abandons). A lookup landing on a reservation is a hit
//!   ([`Lookup::PendingHit`]): the artifact is deterministic, only its
//!   wall-clock availability lags.
//! * **Replication** — an entry lives on the device that missed plus the
//!   top `R − 1` other usable devices by rendezvous score of
//!   `(key, device)`. A hit tops a shrunken replica set back up to R and
//!   a remote hit installs on the requester (read-repair); device loss
//!   only shrinks replica sets, and an entry whose last replica dies is
//!   gone (`entries_lost`) — its next lookup is an honest miss.
//! * **Verification on hit** — hits never invoke the scheduler and never
//!   copy the artifact (slots hold an [`Arc`]); they re-run the static
//!   verifier. Disk entries store the execution configuration and the
//!   schedule; a reload rebuilds the rest and passes the same verifier.
//!
//! One set of counters backs both published views: [`StoreStats`]
//! (`BENCH_fleet.json`) and [`CacheStats`] (`BENCH_serve.json`).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use gpusim::DeviceId;
use serde::Serialize;
use serde_json::Value;
use streamir::graph::FlatGraph;

use crate::config::Selection;
use crate::exec::{CompileOptions, Compiled, Prepared};
use crate::fleet::router::score;
use crate::hash::Fnv;
use crate::instances::{self, ExecConfig};
use crate::pipeline::{LadderRung, PipelineOptions, ResilientCompiled, ResilientPipeline};
use crate::schedule::{Schedule, SearchReport};
use crate::serve::metrics::ratio;
use crate::{verify, Error, Result};

/// The stable content hash of a compilation request: graph + device +
/// timing + profiling grid + search options + ladder budgets + fault
/// policy/plan. Identical inputs hash identically in every process.
#[must_use]
pub fn cache_key(graph: &FlatGraph, opts: &PipelineOptions) -> u64 {
    // The graph's canonical encoding is the key's prefix; FNV-1a is a
    // left fold, so resuming from its memoised state yields the digest
    // of graph-then-options without re-encoding the graph.
    let mut h = Fnv::resume(graph.content_hash());
    // Exhaustive on purpose (no `..`): a field added to either options
    // struct fails to compile here until it is hashed, so a forgotten
    // key field cannot alias two different artifacts.
    let PipelineOptions {
        compile:
            CompileOptions {
                device,
                timing,
                profile,
                search,
            },
        budgets,
        fault_plan,
        policy,
        graph_dispatch,
    } = opts;
    h.str_args(format_args!("{device:?}"));
    h.str_args(format_args!("{timing:?}"));
    h.str_args(format_args!("{profile:?}"));
    h.str_args(format_args!("{search:?}"));
    h.str_args(format_args!("{budgets:?}"));
    h.str_args(format_args!("{policy:?}"));
    h.str_args(format_args!("{fault_plan:?}"));
    // Dispatch mode is part of the artifact's identity: its run options
    // differ, so graph-dispatched and host-launched artifacts of the same
    // program must occupy distinct cache slots.
    h.str_args(format_args!("graph_dispatch={graph_dispatch}"));
    h.finish()
}

/// Single-device cache sizing and persistence options.
#[derive(Debug, Clone)]
pub struct CacheOptions {
    /// In-memory entries kept; the least-recently-used entry is evicted
    /// beyond this.
    pub capacity: usize,
    /// Persist artifacts as JSON under this directory and consult it on
    /// memory misses. `None` keeps the cache memory-only.
    pub disk_dir: Option<PathBuf>,
}

impl Default for CacheOptions {
    fn default() -> Self {
        CacheOptions {
            capacity: 32,
            disk_dir: None,
        }
    }
}

/// Hit/miss/eviction counters — the single-device view of the store's
/// counters ([`ArtifactStore::cache_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups served from memory or disk without invoking the scheduler.
    pub hits: u64,
    /// Lookups that compiled from scratch.
    pub misses: u64,
    /// In-memory entries displaced by the LRU bound.
    pub evictions: u64,
    /// The subset of `hits` reloaded from the disk tier.
    pub disk_loads: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`; 0 when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }
}

/// How a lookup was served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum Fetch {
    /// The requesting device already holds a replica.
    #[default]
    LocalHit,
    /// Another usable device holds a replica; the artifact is shipped
    /// over and (read-repair) installed on the requester.
    RemoteHit,
    /// No usable device holds the artifact.
    Miss,
}

/// Replicated-store counters — the fleet view of the store's counters
/// ([`ArtifactStore::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StoreStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups served by a replica on the requesting device.
    pub local_hits: u64,
    /// Lookups served by a replica on another device.
    pub remote_hits: u64,
    /// Lookups no usable replica could serve.
    pub misses: u64,
    /// Lookups that triggered a read-repair (replica set below R, or a
    /// remote hit installing on the requester).
    pub read_repairs: u64,
    /// Entries whose last replica died (the artifact is gone).
    pub entries_lost: u64,
}

impl StoreStats {
    /// Fraction of lookups any replica served (local or remote).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        ratio(self.local_hits + self.remote_hits, self.lookups)
    }

    /// Fraction of lookups served *across* devices — the replication
    /// dividend a solo disk tier cannot earn.
    #[must_use]
    pub fn remote_hit_rate(&self) -> f64 {
        ratio(self.remote_hits, self.lookups)
    }
}

/// Every counter the store keeps; [`StoreStats`] and [`CacheStats`] are
/// views of it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Counters {
    store: StoreStats,
    evictions: u64,
    disk_loads: u64,
}

/// What a slot holds: a servable artifact, or a reservation claimed by a
/// compile still in flight.
enum Slot {
    Ready(Arc<ResilientCompiled>),
    Reserved,
}

struct Entry {
    slot: Slot,
    replicas: BTreeSet<u32>,
    last_used: u64,
    /// [`verify_artifact`]'s verdict on the ready artifact, taken at its
    /// first hit (or its disk load) and returned on every later one: the
    /// artifact is an immutable `Arc`, so the verdict cannot change.
    verdict: Option<Result<()>>,
}

/// The outcome of [`ArtifactStore::lookup_or_reserve`].
pub enum Lookup {
    /// A ready artifact, already re-verified — serve it. Shared with the
    /// store's slot, not copied out of it.
    Hit(Arc<ResilientCompiled>, Fetch),
    /// The key is reserved by a compile still in flight: a hit for
    /// accounting purposes, but the caller must wait for that compile and
    /// re-verify the artifact before serving it.
    PendingHit(Fetch),
    /// A miss. The key is now reserved: the caller must compile and then
    /// [`ArtifactStore::fulfill`] (or [`ArtifactStore::abandon`] on
    /// failure).
    Miss,
}

/// The content-addressed artifact store (see the module docs).
pub struct ArtifactStore {
    replication: usize,
    /// LRU bound on resident entries; `None` is unbounded.
    capacity: Option<usize>,
    disk_dir: Option<PathBuf>,
    entries: BTreeMap<u64, Entry>,
    tick: u64,
    counters: Counters,
}

impl ArtifactStore {
    /// One device's compilation cache: R = 1, LRU-bounded at
    /// `opts.capacity`, persisted under `opts.disk_dir` when set.
    #[must_use]
    pub fn new(opts: CacheOptions) -> ArtifactStore {
        ArtifactStore::with(1, Some(opts.capacity), opts.disk_dir)
    }

    /// A fleet-wide store with replication factor `r` (floored at 1):
    /// unbounded and memory-only.
    #[must_use]
    pub fn replicated(r: u32) -> ArtifactStore {
        ArtifactStore::with(r.max(1) as usize, None, None)
    }

    fn with(replication: usize, capacity: Option<usize>, disk_dir: Option<PathBuf>) -> Self {
        ArtifactStore {
            replication,
            capacity,
            disk_dir,
            entries: BTreeMap::new(),
            tick: 0,
            counters: Counters::default(),
        }
    }

    /// The replicated-store view of the counters.
    #[must_use]
    pub fn stats(&self) -> &StoreStats {
        &self.counters.store
    }

    /// The single-device view of the counters: every local or remote hit
    /// is a hit.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let s = &self.counters.store;
        CacheStats {
            hits: s.local_hits + s.remote_hits,
            misses: s.misses,
            evictions: self.counters.evictions,
            disk_loads: self.counters.disk_loads,
        }
    }

    pub(crate) fn counters(&self) -> Counters {
        self.counters.clone()
    }

    /// Puts the counters back to a [`ArtifactStore::counters`] snapshot
    /// (warming is offline and must not show in serving statistics),
    /// returning the evictions that happened since.
    pub(crate) fn restore(&mut self, snapshot: Counters) -> u64 {
        let evicted = self.counters.evictions - snapshot.evictions;
        self.counters = snapshot;
        evicted
    }

    /// Whether an entry for `key` is resident (does not touch LRU order,
    /// replicas or counters).
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

    /// One transaction of the reservation protocol for `device`, given the
    /// devices currently usable: returns the request's key and a verified
    /// hit, a pending hit, or — after consulting the disk tier — a miss
    /// that has reserved the key. Counters are charged here (a miss at
    /// reservation time, not at compile completion).
    ///
    /// # Errors
    ///
    /// [`Error::Verification`] when a stored artifact no longer passes
    /// the verifier; corrupt disk entries.
    pub fn lookup_or_reserve(
        &mut self,
        graph: &FlatGraph,
        opts: &PipelineOptions,
        device: DeviceId,
        usable: &[u32],
    ) -> Result<(u64, Lookup)> {
        let key = cache_key(graph, opts);
        if let Some(found) = self.probe(key, device, usable)? {
            return Ok((key, found));
        }
        if let Some(artifact) = self.try_disk_load(key, graph, opts)? {
            verify_artifact(&artifact)?;
            self.count(Fetch::LocalHit);
            self.counters.disk_loads += 1;
            let artifact = Arc::new(artifact);
            self.place(key, Slot::Ready(Arc::clone(&artifact)), device, usable);
            if let Some(e) = self.entries.get_mut(&key) {
                e.verdict = Some(Ok(()));
            }
            return Ok((key, Lookup::Hit(artifact, Fetch::LocalHit)));
        }
        self.count(Fetch::Miss);
        self.place(key, Slot::Reserved, device, usable);
        Ok((key, Lookup::Miss))
    }

    /// Looks `key` up for `device` like [`ArtifactStore::lookup_or_reserve`]
    /// — counted, read-repaired, verified — but a miss reserves nothing:
    /// the caller already holds the artifact (a failover).
    ///
    /// # Errors
    ///
    /// Verification errors on a corrupt artifact.
    pub fn fetch(&mut self, key: u64, device: DeviceId, usable: &[u32]) -> Result<Fetch> {
        Ok(match self.probe(key, device, usable)? {
            Some(Lookup::Hit(_, fetch) | Lookup::PendingHit(fetch)) => fetch,
            _ => {
                self.count(Fetch::Miss);
                Fetch::Miss
            }
        })
    }

    /// Returns the artifact for `graph` under `opts` on `device`,
    /// compiling synchronously on a miss. The `bool` is `true` for a hit
    /// (memory or disk).
    ///
    /// # Errors
    ///
    /// Compilation errors on a miss; [`Error::Verification`] when a
    /// stored artifact no longer passes the verifier; [`Error::Api`] when
    /// the key is reserved by a compile this call cannot wait on.
    pub fn get_or_compile(
        &mut self,
        graph: &FlatGraph,
        opts: &PipelineOptions,
        device: DeviceId,
        usable: &[u32],
    ) -> Result<(Arc<ResilientCompiled>, bool)> {
        match self.lookup_or_reserve(graph, opts, device, usable)? {
            (_, Lookup::Hit(artifact, _)) => Ok((artifact, true)),
            (key, Lookup::PendingHit(_)) => Err(Error::Api(format!(
                "store entry {key:016x} is reserved by an in-flight compile; \
                 synchronous get_or_compile cannot wait on it"
            ))),
            (key, Lookup::Miss) => match ResilientPipeline::new(opts.clone()).compile(graph) {
                Ok(a) => {
                    let artifact = Arc::new(a);
                    self.fulfill(key, &artifact);
                    Ok((artifact, false))
                }
                Err(e) => {
                    self.abandon(key);
                    Err(e)
                }
            },
        }
    }

    /// Completes a reservation: persists the artifact to the disk tier
    /// and makes the slot servable. A reservation that was evicted (or
    /// lost with its devices) in the meantime still persists but is not
    /// re-inserted.
    pub fn fulfill(&mut self, key: u64, artifact: &Arc<ResilientCompiled>) {
        self.persist(key, artifact);
        if let Some(e) = self.entries.get_mut(&key) {
            if matches!(e.slot, Slot::Reserved) {
                e.slot = Slot::Ready(Arc::clone(artifact));
            }
        }
    }

    /// Drops a reservation whose compile failed, so the key misses (and
    /// recompiles) instead of dangling as a permanent pending hit.
    pub fn abandon(&mut self, key: u64) {
        if matches!(self.entries.get(&key), Some(e) if matches!(e.slot, Slot::Reserved)) {
            self.entries.remove(&key);
        }
    }

    /// Installs an artifact the caller already holds on `device` plus
    /// `R − 1` usable replicas — how a failover restores an entry whose
    /// every replica died.
    pub fn insert(
        &mut self,
        key: u64,
        artifact: Arc<ResilientCompiled>,
        device: DeviceId,
        usable: &[u32],
    ) {
        self.place(key, Slot::Ready(artifact), device, usable);
    }

    /// Removes a dead device from every replica set; entries whose last
    /// replica died are dropped (and counted lost). Repair of surviving
    /// under-replicated entries is deferred to read-repair.
    pub fn drop_device(&mut self, device: DeviceId) {
        let before = self.entries.len();
        self.entries.retain(|_, e| {
            e.replicas.remove(&device.0);
            !e.replicas.is_empty()
        });
        self.counters.store.entries_lost += (before - self.entries.len()) as u64;
    }

    /// The in-memory half of a lookup: `None` when no entry is reachable
    /// from `device` (absent, or every replica unusable). A hit touches
    /// the LRU order, is read-repaired and verified (once per entry), and
    /// is counted.
    fn probe(&mut self, key: u64, device: DeviceId, usable: &[u32]) -> Result<Option<Lookup>> {
        self.tick += 1;
        let Some(entry) = self.entries.get_mut(&key) else {
            return Ok(None);
        };
        let fetch = if entry.replicas.contains(&device.0) {
            Fetch::LocalHit
        } else if entry.replicas.iter().any(|d| usable.contains(d)) {
            Fetch::RemoteHit
        } else {
            return Ok(None);
        };
        entry.last_used = self.tick;
        let before = entry.replicas.len();
        if fetch == Fetch::RemoteHit {
            entry.replicas.insert(device.0);
        }
        top_up(&mut entry.replicas, key, usable, self.replication);
        let repaired = entry.replicas.len() != before;
        let found = match &entry.slot {
            Slot::Ready(artifact) => {
                let verdict = (entry.verdict).get_or_insert_with(|| verify_artifact(artifact));
                verdict.clone()?;
                Lookup::Hit(Arc::clone(artifact), fetch)
            }
            Slot::Reserved => Lookup::PendingHit(fetch),
        };
        self.counters.store.read_repairs += u64::from(repaired);
        self.count(fetch);
        Ok(Some(found))
    }

    fn count(&mut self, fetch: Fetch) {
        let s = &mut self.counters.store;
        s.lookups += 1;
        match fetch {
            Fetch::LocalHit => s.local_hits += 1,
            Fetch::RemoteHit => s.remote_hits += 1,
            Fetch::Miss => s.misses += 1,
        }
    }

    /// Writes `slot` under `key` on `device` plus the top `R − 1` other
    /// usable devices, evicting least-recently-used entries first when a
    /// new key would exceed the LRU bound (a zero bound stores nothing).
    fn place(&mut self, key: u64, slot: Slot, device: DeviceId, usable: &[u32]) {
        if !self.entries.contains_key(&key) {
            if self.capacity == Some(0) {
                return;
            }
            while self.capacity.is_some_and(|c| self.entries.len() >= c) {
                let lru = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(&k, _)| k)
                    .expect("a full store has entries");
                self.entries.remove(&lru);
                self.counters.evictions += 1;
            }
        }
        let mut replicas = BTreeSet::from([device.0]);
        top_up(&mut replicas, key, usable, self.replication);
        let last_used = self.tick;
        self.entries.insert(
            key,
            Entry {
                slot,
                replicas,
                last_used,
                verdict: None,
            },
        );
    }

    fn disk_path(&self, key: u64) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.json")))
    }

    fn persist(&self, key: u64, artifact: &ResilientCompiled) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        if let Some(dir) = path.parent() {
            // Persistence is best-effort: a read-only disk tier degrades
            // to memory-only caching rather than failing the compile.
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(
            &path,
            serde_json::to_string_pretty(&DiskEntry::of(artifact)),
        );
    }

    fn try_disk_load(
        &self,
        key: u64,
        graph: &FlatGraph,
        opts: &PipelineOptions,
    ) -> Result<Option<ResilientCompiled>> {
        let Some(path) = self.disk_path(key) else {
            return Ok(None);
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(None);
        };
        let value = serde_json::from_str(&text)
            .map_err(|e| Error::Api(format!("corrupt cache entry {}: {e}", path.display())))?;
        rebuild(&value, graph, opts).map(Some)
    }
}

/// Adds the highest-scoring usable devices for `key` to `replicas` until
/// it holds `r` of them (or no usable device is left).
fn top_up(replicas: &mut BTreeSet<u32>, key: u64, usable: &[u32], r: usize) {
    let mut candidates: Vec<u32> = usable
        .iter()
        .copied()
        .filter(|d| !replicas.contains(d))
        .collect();
    candidates.sort_by_key(|&d| std::cmp::Reverse(score(key, d)));
    for d in candidates {
        if replicas.len() >= r {
            break;
        }
        replicas.insert(d);
    }
}

/// What a cached artifact must clear before it is served: the ladder's
/// gate ([`verify::gate`]) over its own prepared form, and its isolation
/// certificate against that form's plan. The serving loop also runs it on
/// artifacts joined from pending reservations.
pub(crate) fn verify_artifact(artifact: &ResilientCompiled) -> Result<()> {
    let (c, prepared) = (&artifact.compiled, &artifact.prepared);
    verify::gate(c, prepared)?;
    // Serving multiplexes tenants onto shared devices, and the cheap
    // digest re-check here stands in for re-running the full isolation
    // proof on every hit.
    match &artifact.isolation {
        Some(cert) => verify::isolate::check_certificate(c, prepared, cert),
        None => Err(Error::Api(
            "artifact carries no tenant-isolation certificate; \
             refusing to serve it onto a shared device"
                .into(),
        )),
    }
}

/// What the disk tier stores: the products of the scheduler that cannot
/// be rederived without invoking it. The instance graph, buffer plan,
/// and checkpoint plan are deterministic functions of (graph, exec_cfg,
/// options) and are rebuilt on load.
#[derive(Serialize)]
struct DiskEntry {
    exec_cfg: ExecConfig,
    schedule: Schedule,
    report: SearchReport,
    shipped: LadderRung,
    normalized_ii: f64,
}

impl DiskEntry {
    fn of(artifact: &ResilientCompiled) -> DiskEntry {
        DiskEntry {
            exec_cfg: artifact.compiled.exec_cfg.clone(),
            schedule: artifact.compiled.schedule.clone(),
            report: artifact.compiled.report.clone(),
            shipped: artifact.report.shipped,
            normalized_ii: artifact.compiled.selection.normalized_ii,
        }
    }
}

/// Field `key` of a disk entry, read by `read`.
fn get<'v, T>(v: &'v Value, key: &str, read: impl Fn(&'v Value) -> Option<T>) -> Result<T> {
    v.get(key)
        .and_then(read)
        .ok_or_else(|| Error::Api(format!("cache entry field '{key}' is missing or mistyped")))
}

fn u64s(v: &Value, key: &str) -> Result<Vec<u64>> {
    get(v, key, |x| {
        x.as_array()?.iter().map(Value::as_u64).collect()
    })
}

/// Rebuilds a full artifact from a disk entry: instance graph from the
/// stored execution configuration, checkpoint plan from the request's
/// fault assumptions, schedule and reports verbatim. The caller verifies
/// the result before serving it.
fn rebuild(value: &Value, graph: &FlatGraph, opts: &PipelineOptions) -> Result<ResilientCompiled> {
    let int = Value::as_u64;
    let ec = get(value, "exec_cfg", Some)?;
    let exec_cfg = ExecConfig {
        regs_per_thread: get(ec, "regs_per_thread", int)? as u32,
        threads_per_block: get(ec, "threads_per_block", int)? as u32,
        threads: u64s(ec, "threads")?.iter().map(|&t| t as u32).collect(),
        delay: u64s(ec, "delay")?,
    };
    let sc = get(value, "schedule", Some)?;
    let schedule = Schedule {
        ii: get(sc, "ii", int)?,
        sm_of: u64s(sc, "sm_of")?.iter().map(|&s| s as u32).collect(),
        offset: u64s(sc, "offset")?,
        stage: u64s(sc, "stage")?,
    };
    let rp = get(value, "report", Some)?;
    let solve_time = get(rp, "solve_time", Some)?;
    let report = SearchReport {
        lower_bound: get(rp, "lower_bound", int)?,
        final_ii: get(rp, "final_ii", int)?,
        nominal_ii: get(rp, "nominal_ii", int)?,
        fault_reserve: get(rp, "fault_reserve", int)?,
        relaxation_pct: get(rp, "relaxation_pct", Value::as_f64)?,
        attempts: get(rp, "attempts", int)? as u32,
        solve_time: Duration::new(
            get(solve_time, "secs", int)?,
            get(solve_time, "nanos", int)? as u32,
        ),
        used_ilp: matches!(get(rp, "used_ilp", Some)?, Value::Bool(true)),
        ilp_vars: get(rp, "ilp_vars", int)? as usize,
        ilp_constraints: get(rp, "ilp_constraints", int)? as usize,
    };
    let rung = get(value, "shipped", Value::as_str)?;
    use LadderRung::{Beam, ExactIlp, Heuristic, RelaxedIlp, SerialSas};
    let shipped = ([Beam, ExactIlp, RelaxedIlp, Heuristic, SerialSas].into_iter())
        .find(|r| format!("{r:?}") == rung)
        .ok_or_else(|| Error::Api(format!("unknown ladder rung '{rung}'")))?;
    let normalized_ii = get(value, "normalized_ii", Value::as_f64)?;

    let ig = instances::build(graph, &exec_cfg)?;
    let compiled = Compiled {
        graph: graph.clone(),
        selection: Selection {
            exec: exec_cfg.clone(),
            normalized_ii,
            candidates: Vec::new(),
        },
        exec_cfg,
        ig,
        schedule,
        report,
        device: opts.compile.device.clone(),
        timing: opts.compile.timing.clone(),
    };
    let prepared = Prepared::of(&compiled, shipped.scheme())?;
    // Disk entries store no certificate (the proof is re-run on load, so
    // a tampered entry cannot smuggle in a stale one) and no ladder walk
    // (an empty attempt list marks a reloaded artifact).
    let attempts = Vec::new();
    Ok(ResilientCompiled::new(
        compiled, prepared, shipped, attempts, opts,
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder};

    const SOLO: DeviceId = DeviceId(0);

    /// A pipeline of `(name, k)` filters, each multiplying by `k`.
    pub(crate) fn chain(names: &[(&str, i32)]) -> FlatGraph {
        let filter = |&(name, k): &(&str, i32)| {
            let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
            let x = b.local(ElemTy::I32);
            b.pop_into(0, x);
            b.push(0, Expr::local(x).mul(Expr::i32(k)));
            StreamSpec::filter(FilterSpec::new(name, b.build().unwrap()))
        };
        let filters = names.iter().map(filter).collect();
        StreamSpec::pipeline(filters).flatten().unwrap()
    }

    fn small_opts() -> PipelineOptions {
        PipelineOptions {
            compile: CompileOptions::small_test(),
            ..PipelineOptions::default()
        }
    }

    fn solo(cache: &mut ArtifactStore, g: &FlatGraph) -> (Arc<ResilientCompiled>, bool) {
        cache.get_or_compile(g, &small_opts(), SOLO, &[0]).unwrap()
    }

    /// A compiled one-filter artifact and its key, for the replica tests.
    fn artifact() -> (u64, Arc<ResilientCompiled>) {
        let graph = chain(&[("triple", 3)]);
        let opts = small_opts();
        let key = cache_key(&graph, &opts);
        let a = ResilientPipeline::new(opts)
            .compile(&graph)
            .expect("compiles");
        (key, Arc::new(a))
    }

    #[test]
    fn key_is_deterministic_and_content_sensitive() {
        let g1 = chain(&[("a", 2), ("b", 3)]);
        let g2 = chain(&[("a", 2), ("b", 3)]);
        let g3 = chain(&[("a", 2), ("b", 5)]);
        let opts = small_opts();
        assert_eq!(cache_key(&g1, &opts), cache_key(&g2, &opts));
        assert_ne!(cache_key(&g1, &opts), cache_key(&g3, &opts));
        let mut other = small_opts();
        other.policy = crate::pipeline::FaultPolicy::TailLatency;
        assert_ne!(
            cache_key(&g1, &opts),
            cache_key(&g1, &other),
            "fault policy must distinguish compilations"
        );
        let mut narrower = small_opts();
        narrower.compile.device.num_sms = 2;
        assert_ne!(
            cache_key(&g1, &opts),
            cache_key(&g1, &narrower),
            "device shape must distinguish compilations"
        );
    }

    /// Known answer: keys seed `fleet::router::score`, i.e. replica
    /// placement, i.e. `BENCH_fleet.json` — so a refactor of `cache_key`
    /// must reproduce the exact `u64`, not merely stay deterministic.
    #[test]
    fn key_of_a_small_chain_is_pinned() {
        let g = chain(&[("a", 2), ("b", 3)]);
        assert_eq!(cache_key(&g, &small_opts()), 0xdc93_6b16_86ba_c634);
    }

    #[test]
    fn hit_skips_the_scheduler_and_matches_the_fresh_artifact() {
        let g = chain(&[("a", 2), ("b", 3)]);
        let mut cache = ArtifactStore::new(CacheOptions::default());
        let (fresh, hit) = solo(&mut cache, &g);
        assert!(!hit);
        assert!(fresh.report.search_invocations() > 0);
        let (cached, hit) = solo(&mut cache, &g);
        assert!(hit);
        // Observed on what this test owns: the hit hands back the very
        // artifact the miss compiled, and the store compiled once.
        assert!(
            Arc::ptr_eq(&cached, &fresh),
            "a cache hit must share the stored artifact, not recompile or copy it"
        );
        // The prepared form built with the artifact is the one the hit
        // gate checked and the one execution runs: neither rebuilds it.
        let prepared = Arc::clone(&fresh.prepared);
        let iters = 4;
        let input: Vec<_> = (0..crate::exec::required_input(&cached.compiled, iters))
            .map(|i| streamir::ir::Scalar::I32(i as i32))
            .collect();
        cached.execute(iters, &input, &cached.run_options).unwrap();
        assert!(Arc::ptr_eq(&prepared, &cached.prepared));
        assert_eq!(cache.cache_stats().hits, 1);
        assert_eq!(cache.cache_stats().misses, 1);
        // Both views count the same lookups.
        assert_eq!(cache.stats().lookups, 2);
        assert_eq!(cache.stats().local_hits, 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let (g1, g2, g3) = (chain(&[("a", 2)]), chain(&[("b", 3)]), chain(&[("c", 5)]));
        let opts = small_opts();
        let mut cache = ArtifactStore::new(CacheOptions {
            capacity: 2,
            disk_dir: None,
        });
        solo(&mut cache, &g1);
        solo(&mut cache, &g2);
        // Touch g1 so g2 becomes least recently used.
        solo(&mut cache, &g1);
        solo(&mut cache, &g3);
        assert_eq!(cache.cache_stats().evictions, 1);
        assert!(cache.contains(cache_key(&g1, &opts)));
        assert!(!cache.contains(cache_key(&g2, &opts)));
        assert!(cache.contains(cache_key(&g3, &opts)));
    }

    #[test]
    fn reservation_protocol_mirrors_the_synchronous_path() {
        let g = chain(&[("a", 2), ("b", 3)]);
        let opts = small_opts();
        let mut cache = ArtifactStore::new(CacheOptions::default());
        let lookup = |cache: &mut ArtifactStore, g: &FlatGraph| {
            cache.lookup_or_reserve(g, &opts, SOLO, &[0]).unwrap()
        };

        // First lookup misses and reserves the key.
        let (key, first) = lookup(&mut cache, &g);
        assert!(matches!(first, Lookup::Miss), "fresh cache must miss");
        assert_eq!(cache.cache_stats().misses, 1);
        assert!(cache.contains(key), "reservation claims the slot");

        // A second lookup before the compile lands is a pending hit —
        // the artifact is deterministic, only wall-clock availability
        // lags — and is charged as a hit.
        assert!(matches!(
            lookup(&mut cache, &g),
            (k, Lookup::PendingHit(Fetch::LocalHit)) if k == key
        ));
        assert_eq!(cache.cache_stats().hits, 1);

        // Fulfilling makes the slot servable.
        let artifact = Arc::new(ResilientPipeline::new(opts.clone()).compile(&g).unwrap());
        cache.fulfill(key, &artifact);
        match lookup(&mut cache, &g) {
            (_, Lookup::Hit(got, _)) => {
                assert_eq!(got.compiled.schedule, artifact.compiled.schedule);
            }
            _ => panic!("fulfilled reservation must hit"),
        }

        // An abandoned reservation misses (and re-reserves) instead of
        // dangling as a permanent pending hit.
        let g2 = chain(&[("c", 5)]);
        let (key2, second) = lookup(&mut cache, &g2);
        assert!(matches!(second, Lookup::Miss), "new graph must miss");
        cache.abandon(key2);
        assert!(!cache.contains(key2));
        assert!(matches!(lookup(&mut cache, &g2), (k, Lookup::Miss) if k == key2));
    }

    #[test]
    fn disk_tier_reloads_across_cache_instances() {
        let dir =
            std::env::temp_dir().join(format!("swpipe-serve-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = chain(&[("a", 2), ("b", 3)]);
        let copts = CacheOptions {
            capacity: 8,
            disk_dir: Some(dir.clone()),
        };
        let mut first = ArtifactStore::new(copts.clone());
        let (fresh, hit) = solo(&mut first, &g);
        assert!(!hit);
        // A brand-new cache (fresh process, in effect) must hit via disk
        // without invoking the scheduler.
        let mut second = ArtifactStore::new(copts);
        let (reloaded, hit) = solo(&mut second, &g);
        assert!(hit, "disk entry must be a hit");
        // A rebuilt artifact carries no ladder attempts: no search ran
        // for it in this cache.
        assert_eq!(reloaded.report.search_invocations(), 0);
        assert_eq!(second.cache_stats().misses, 0);
        assert_eq!(second.cache_stats().disk_loads, 1);
        assert_eq!(reloaded.compiled.schedule, fresh.compiled.schedule);
        assert_eq!(reloaded.compiled.exec_cfg, fresh.compiled.exec_cfg);
        assert_eq!(reloaded.report.shipped, fresh.report.shipped);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store entry is verified at its first hit, and every later hit
    /// returns that verdict: an uncertified artifact's refusal, word for
    /// word, or a pass. Replacing the entry's artifact forgets it.
    #[test]
    fn an_entry_is_verified_once_and_every_hit_returns_the_verdict() {
        let (key, artifact) = artifact();
        let mut uncertified = (*artifact).clone();
        uncertified.isolation = None;
        let mut store = ArtifactStore::replicated(1);
        store.insert(key, Arc::new(uncertified), SOLO, &[0]);
        assert!(store.entries[&key].verdict.is_none());
        let refusal = store.fetch(key, SOLO, &[0]).unwrap_err();
        assert!(
            refusal.to_string().contains("isolation certificate"),
            "{refusal}"
        );
        assert_eq!(store.entries[&key].verdict, Some(Err(refusal.clone())));
        assert_eq!(store.fetch(key, SOLO, &[0]).unwrap_err(), refusal);

        store.insert(key, artifact, SOLO, &[0]);
        assert!(store.entries[&key].verdict.is_none());
        assert_eq!(store.fetch(key, SOLO, &[0]), Ok(Fetch::LocalHit));
        assert_eq!(store.entries[&key].verdict, Some(Ok(())));
    }

    /// A disk entry is input from outside the process: one whose stored
    /// schedule starts a consumer before its producer finishes is
    /// rejected at load by the same gate as a ladder rung, and one whose
    /// schedule does not cover the graph is rejected without being
    /// prepared.
    #[test]
    fn tampered_disk_schedules_are_rejected_at_load() {
        let dir =
            std::env::temp_dir().join(format!("swpipe-serve-cache-tamper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = chain(&[("a", 2), ("b", 3)]);
        let opts = small_opts();
        let copts = CacheOptions {
            capacity: 8,
            disk_dir: Some(dir.clone()),
        };
        let shipped = ResilientPipeline::new(opts.clone()).compile(&g).unwrap();
        let load = |tampered: &ResilientCompiled| {
            ArtifactStore::new(copts.clone()).persist(cache_key(&g, &opts), tampered);
            let loaded = ArtifactStore::new(copts.clone()).get_or_compile(&g, &opts, SOLO, &[0]);
            loaded.expect_err("a tampered entry must not load")
        };

        // Move one consumer onto its producer's (stage, offset).
        let mut early = shipped.clone();
        let ig = &early.compiled.ig;
        let dep = (ig.deps.iter())
            .find(|d| d.producer != d.consumer && d.jlag == 0)
            .expect("a same-iteration dependence");
        let (u, c) = (dep.producer.0 as usize, dep.consumer.0 as usize);
        let s = &mut early.compiled.schedule;
        (s.stage[c], s.offset[c]) = (s.stage[u], s.offset[u]);
        match load(&early) {
            Error::Verification { diagnostics } => assert!(
                diagnostics.iter().any(|d| d.code.code().starts_with("V01")),
                "{diagnostics:?}"
            ),
            other => panic!("expected a V01xx verification error, got {other}"),
        }

        let mut short = shipped;
        short.compiled.schedule.sm_of.pop();
        let err = load(&short);
        assert!(err.to_string().contains("does not place"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn insert_replicates_to_r_and_fetch_hits_locally_and_remotely() {
        let (key, a) = artifact();
        let mut s = ArtifactStore::replicated(2);
        let usable = vec![0, 1, 2, 3];
        s.insert(key, a, DeviceId(1), &usable);
        assert_eq!(s.replicas(key).len(), 2);
        assert!(s.replicas(key).contains(&1));

        assert_eq!(s.fetch(key, DeviceId(1), &usable).unwrap(), Fetch::LocalHit);
        let outsider = DeviceId(
            (0..4u32)
                .find(|d| !s.replicas(key).contains(d))
                .expect("some non-replica"),
        );
        assert_eq!(
            s.fetch(key, outsider, &usable).unwrap(),
            Fetch::RemoteHit,
            "non-replica device fetches remotely"
        );
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
        let mut s = ArtifactStore::replicated(2);
        s.insert(key, a, DeviceId(0), &[0, 1, 2, 3]);
        let victim = *s.replicas(key).iter().find(|&&d| d != 0).unwrap_or(&0);
        s.drop_device(DeviceId(victim));
        assert_eq!(s.replicas(key).len(), 1, "one replica survives the loss");

        // Next fetch (from any device) repairs back up to R = 2 among
        // the survivors.
        let survivors: Vec<u32> = (0..4u32).filter(|&d| d != victim).collect();
        let f = s.fetch(key, DeviceId(survivors[0]), &survivors).unwrap();
        assert_ne!(f, Fetch::Miss);
        assert_eq!(s.replicas(key).len(), 2, "read-repair restored R");
        assert!(s.stats().read_repairs >= 1);
    }

    #[test]
    fn losing_every_replica_loses_the_entry() {
        let (key, a) = artifact();
        let mut s = ArtifactStore::replicated(2);
        s.insert(key, a, DeviceId(0), &[0, 1]);
        s.drop_device(DeviceId(0));
        s.drop_device(DeviceId(1));
        assert!(!s.contains(key));
        assert_eq!(s.stats().entries_lost, 1);
        assert_eq!(s.fetch(key, DeviceId(2), &[2, 3]).unwrap(), Fetch::Miss);
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
        let mut s = ArtifactStore::replicated(3);
        s.insert(key, a, DeviceId(3), &usable);

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

    /// Device 0 holds the only replica but is partitioned (not in the
    /// usable list): a fetch must miss rather than hit through a severed
    /// link, and a lookup must reserve the key afresh on the requester.
    #[test]
    fn unreachable_replicas_are_an_honest_miss() {
        let g = chain(&[("triple", 3)]);
        let opts = small_opts();
        let (key, a) = artifact();
        let mut s = ArtifactStore::replicated(1);
        s.insert(key, a, DeviceId(0), &[0, 1]);
        assert_eq!(s.fetch(key, DeviceId(1), &[1]).unwrap(), Fetch::Miss);
        let (k, outcome) = s.lookup_or_reserve(&g, &opts, DeviceId(1), &[1]).unwrap();
        assert_eq!(k, key);
        assert!(matches!(outcome, Lookup::Miss));
        assert_eq!(
            s.replicas(key),
            vec![1],
            "the reservation moved to the requester"
        );
    }
}
