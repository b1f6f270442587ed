//! Static tenant-isolation proof: every device word an artifact can
//! ever address belongs to that artifact's own arena.
//!
//! The multi-tenant runtime co-schedules artifacts on SM slices of one
//! physical device ([`crate::exec::SmPlacement`]) and fails them over
//! across devices. Isolation therefore cannot be a runtime check — it
//! must be a property of the compiled artifact itself. This module
//! proves it statically, in three layers:
//!
//! 1. **Taint (ownership) map** — [`RegionMap`]: every allocated region
//!    (channel buffer, state words, IO stream, checkpoint shadow) is
//!    labelled with its [`RegionOwner`]. The map mirrors
//!    [`crate::codegen::allocate`]'s deterministic bump allocation plus
//!    the checkpointer's shadow buffers, so it is the *actual* address
//!    layout, not a model of one.
//! 2. **Abstract interpretation** — the coalescing analysis's replay of
//!    each kernel's recorded walk ([`gpusim::InstanceExec::analyze`]) over
//!    every launch the executor would issue; at every access event the
//!    binding's whole address span ([`gpusim::BufferBinding::span`]) is
//!    checked against the region its access site owns. Span containment is
//!    an algebraic theorem over *all* lanes, token numbers, and iteration
//!    counts (the address map is modular in the logical index and the
//!    layout is a bijection per region), so one proof at the scheme's
//!    canonical granule quantifies over every run length.
//! 3. **Placement universality** — artifacts are allocated from a fresh
//!    device starting at word 0, and [`crate::exec::SmPlacement`] moves
//!    *compute* (which SMs blocks run on), never *addresses*. Containment
//!    in the artifact's own arena is therefore invariant under every
//!    placement the partitioner may assign, including post-recut and
//!    post-failover placements; the proptest suite drives random
//!    placements to witness this.
//!
//! Violations surface as `V04xx` diagnostics; a clean proof is stamped
//! into a serializable [`IsolationCertificate`] whose digest commits to
//! the region map. Serving re-verifies certificates (recompute the map,
//! compare digests — no abstract interpretation) instead of re-running
//! the proof on every cache hit, and refuses to dispatch uncertified
//! artifacts onto shared devices.

use std::collections::BTreeSet;

use gpusim::{AbstractWarp, AccessSink, BufferBinding, Channel, Gpu, InstanceExec, WarpAccess};
use serde::Serialize;
use streamir::graph::{EdgeId, NodeId};
use streamir::ir::AccessKind;

use crate::codegen::{self, ProgramBuffers};
use crate::exec::{check_iterations, Compiled, Prepared, Scheme};
use crate::hash::Fnv;
use crate::plan::BufferPlan;
use crate::verify::analyze_launches;
use crate::verify::diag::{Code, Diagnostic, Severity};
use crate::{Error, Result};

/// Certificate format version; bumped whenever the proof obligation or
/// the digest recipe changes, so stale certificates from older builds
/// are rejected rather than trusted.
pub const CERT_VERSION: u32 = 1;

/// Who owns one allocated region of the tenant's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum RegionOwner {
    /// Channel buffer of graph edge `e`.
    Channel(u32),
    /// Persistent state words of stateful filter `n`.
    State(u32),
    /// The graph-input stream buffer.
    Input,
    /// The graph-output stream buffer.
    Output,
    /// One of the checkpointer's two double-buffered shadow snapshots.
    CheckpointShadow(u32),
}

impl RegionOwner {
    fn describe(self) -> String {
        match self {
            RegionOwner::Channel(e) => format!("channel #{e}"),
            RegionOwner::State(n) => format!("state of filter #{n}"),
            RegionOwner::Input => "the input stream".into(),
            RegionOwner::Output => "the output stream".into(),
            RegionOwner::CheckpointShadow(i) => format!("checkpoint shadow #{i}"),
        }
    }
}

/// One allocated, owner-labelled span of the tenant arena.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Region {
    /// First device word of the region.
    pub base: u64,
    /// Words the region spans.
    pub words: u64,
    /// Who the words belong to.
    pub owner: RegionOwner,
}

/// The tenant's complete address-ownership map: every allocated word,
/// labelled, sorted by base address.
#[derive(Debug, Clone, Serialize)]
pub struct RegionMap {
    /// All regions, ascending by base, pairwise disjoint.
    pub regions: Vec<Region>,
    /// Total words the arena spans (`[0, arena_words)` is the tenant's
    /// slice of device memory; everything beyond belongs to nobody —
    /// or, on a shared device, to somebody else).
    pub arena_words: u64,
}

impl RegionMap {
    /// The region `owner` owns, if any.
    #[must_use]
    pub fn region_of(&self, owner: RegionOwner) -> Option<&Region> {
        self.regions.iter().find(|r| r.owner == owner)
    }

    /// The region containing device word `addr`, if any.
    #[must_use]
    pub fn region_containing(&self, addr: u64) -> Option<&Region> {
        let i = self.regions.partition_point(|r| r.base <= addr);
        let r = &self.regions[i.checked_sub(1)?];
        (addr < r.base + r.words).then_some(r)
    }

    /// FNV-1a digest committing to the certificate version, the arena
    /// extent, and every region's `(base, words, owner)` — what an
    /// [`IsolationCertificate`] attests to.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(u64::from(CERT_VERSION));
        h.u64(self.arena_words);
        for r in &self.regions {
            h.u64(r.base);
            h.u64(r.words);
            match r.owner {
                RegionOwner::Channel(e) => {
                    h.str("chan");
                    h.u64(u64::from(e));
                }
                RegionOwner::State(n) => {
                    h.str("state");
                    h.u64(u64::from(n));
                }
                RegionOwner::Input => h.str("in"),
                RegionOwner::Output => h.str("out"),
                RegionOwner::CheckpointShadow(i) => {
                    h.str("shadow");
                    h.u64(u64::from(i));
                }
            }
        }
        h.finish()
    }
}

/// Proof that every access of a compiled artifact stays inside its own
/// arena under any placement. Carried by the compilation cache and the
/// fleet's artifact store; re-verified (cheaply) on every fetch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct IsolationCertificate {
    /// Certificate format version ([`CERT_VERSION`]).
    pub version: u32,
    /// [`RegionMap::digest`] of the map the proof quantified over.
    pub digest: u64,
    /// Iteration count the arena was materialized at (the scheme's
    /// canonical granule; containment generalizes to all counts).
    pub iterations: u64,
    /// Total arena words.
    pub arena_words: u64,
    /// Number of owner-labelled regions.
    pub regions: u32,
    /// Warp-wide access events the proof checked.
    pub accesses_checked: u64,
    /// Kernel launches the walked schedule issues at `iterations`.
    pub launches: u64,
    /// Whether every access address was concretely resolved (`false`
    /// when a data-dependent peek depth fell back to the algebraic span
    /// theorem — still sound, just not witnessed address-by-address).
    pub exact: bool,
}

/// The outcome of an isolation proof.
#[derive(Debug, Clone)]
pub struct Isolation {
    /// The certificate — `Some` iff no `V04xx` error was found.
    pub certificate: Option<IsolationCertificate>,
    /// All findings (`V04xx`).
    pub diagnostics: Vec<Diagnostic>,
}

/// Checks one binding's whole address span against the region its
/// access site owns — the primitive the prover applies at every access
/// event. Exposed so adversarial fixtures can hand it deliberately
/// skewed bindings; `None` means the span is contained and every
/// address the binding can ever produce stays inside `owner`'s region.
#[must_use]
pub fn check_binding(
    map: &RegionMap,
    binding: &BufferBinding,
    owner: RegionOwner,
) -> Option<Diagnostic> {
    let (base, words) = binding.span();
    if words == 0 {
        return None;
    }
    let end = base + words;
    if let Some(r) = map.region_of(owner) {
        if base >= r.base && end <= r.base + r.words {
            return None;
        }
    }
    // The span's worst word witnesses the violation: the lowest word
    // below the owner region, else the highest word above it.
    let witness = match map.region_of(owner) {
        Some(r) if base < r.base => base,
        _ => end - 1,
    };
    if witness >= map.arena_words {
        return Some(Diagnostic::new(
            Code::IsolationEscape,
            format!(
                "address {witness} resolves outside the tenant arena of {} words",
                map.arena_words
            ),
        ));
    }
    let victim = map.region_containing(witness).map_or_else(
        || "unallocated arena padding".into(),
        |r| r.owner.describe(),
    );
    let d = Diagnostic::new(
        Code::ForeignRegionAccess,
        format!(
            "address {witness} aliases {victim} instead of {}",
            owner.describe()
        ),
    );
    match map.region_containing(witness).map(|r| r.owner) {
        Some(RegionOwner::Channel(e)) => Some(d.at_edge(e)),
        _ => Some(d),
    }
}

/// Checks that every checkpoint ship target `(base, words)` — the spans
/// the commit window copies state into — lands wholly inside a region
/// the tenant's own state or checkpoint shadows occupy. Exposed at this
/// level so adversarial fixtures can hand it corrupted region lists;
/// [`prove`] derives the real list from the walked buffers.
#[must_use]
pub fn check_ship_targets(map: &RegionMap, targets: &[(u64, u64)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &(base, words) in targets {
        if words == 0 {
            continue;
        }
        let ok = map.regions.iter().any(|r| {
            matches!(
                r.owner,
                RegionOwner::State(_) | RegionOwner::CheckpointShadow(_)
            ) && base >= r.base
                && base + words <= r.base + r.words
        });
        if !ok {
            out.push(
                Diagnostic::new(
                    Code::CheckpointEscape,
                    format!(
                        "checkpoint ship target [{base}, {}) lands outside the \
                         tenant's state and shadow regions",
                        base + words
                    ),
                )
                .at_site("checkpoint"),
            );
        }
    }
    out
}

/// The prover's [`AccessSink`]: checks every access event against the
/// ownership map, deduplicating findings per `(node, site, code)`.
struct TaintSink<'a> {
    map: &'a RegionMap,
    /// The node whose instance is being walked.
    node: u32,
    in_owners: &'a [Vec<RegionOwner>],
    out_owners: &'a [Vec<RegionOwner>],
    names: &'a [String],
    seen: BTreeSet<(u32, String, &'static str)>,
    diagnostics: Vec<Diagnostic>,
    accesses_checked: u64,
    exact: bool,
}

impl TaintSink<'_> {
    fn owner_of(&self, kind: AccessKind, port: u8) -> RegionOwner {
        let owners = match kind {
            AccessKind::Pop | AccessKind::Peek => self.in_owners,
            AccessKind::Push => self.out_owners,
        };
        owners[self.node as usize][port as usize]
    }

    fn flag(&mut self, site: String, d: Diagnostic) {
        let node = self.node;
        if self.seen.insert((node, site.clone(), d.code.code())) {
            let d = d.at_filter(&self.names[node as usize], node).at_site(site);
            self.diagnostics.push(d);
        }
    }
}

impl AccessSink for TaintSink<'_> {
    fn channel(&mut self, warp: &AbstractWarp<'_>, access: &Channel<'_>) {
        let owner = self.owner_of(access.kind, access.port);
        let site = || warp.inst.kernel.sites()[access.site as usize];
        self.accesses_checked += 1;
        if let Some(d) = check_binding(self.map, access.binding, owner) {
            self.flag(site().to_string(), d);
        } else if let Some(r) = self.map.region_of(owner) {
            // Per-access spot check: every concrete lane address of this
            // walked access must land where the span theorem says.
            debug_assert!(
                {
                    let mut lanes = WarpAccess::default();
                    warp.addresses(access, &mut lanes);
                    (lanes.iter())
                        .all(|run| run.addr >= r.base && run.last_addr() < r.base + r.words)
                },
                "span theorem violated at {} of node {}",
                site(),
                self.node
            );
        }
    }

    fn stale_peeks(&mut self, _warp: &AbstractWarp<'_>, _n: u32) {
        // An empty peek slot touches no address.
    }

    fn state(&mut self) {
        self.accesses_checked += 1;
        if self.map.region_of(RegionOwner::State(self.node)).is_none() {
            let msg = format!(
                "state words of filter #{} have no region in the tenant arena",
                self.node
            );
            self.flag("state".into(), Diagnostic::new(Code::IsolationEscape, msg));
        }
    }

    fn local_array(&mut self) {
        // Per-thread local-memory scratch: interleaved in a dedicated
        // address space the binding math never reaches; not part of the
        // tenant arena.
    }

    fn varying_depth(&mut self, warp: &AbstractWarp<'_>, site: u32) {
        // The depth is data-dependent, so no concrete address witnesses
        // the access — but the binding's span bounds every address it
        // *can* produce. Contained span: provable anyway (inexactly).
        // Uncontained span: report the un-witnessable escape as its own
        // code rather than pointing at a fabricated address.
        self.exact = false;
        let site = warp.inst.kernel.sites()[site as usize];
        let owner = self.owner_of(site.kind, site.port);
        let binding = &warp.inst.inputs[site.port as usize];
        self.accesses_checked += 1;
        if check_binding(self.map, binding, owner).is_some() {
            self.flag(
                site.to_string(),
                Diagnostic::new(
                    Code::UnprovableTenantAccess,
                    format!(
                        "peek depth at {site} is data-dependent and the binding's \
                         span is not contained in {}",
                        owner.describe()
                    ),
                ),
            );
        }
    }

    fn varying_branch(&mut self) {
        // Both arms are walked: the checked access set is a superset of
        // any dynamic execution's, so divergence never hides an access.
    }

    fn staging_copy(&mut self, inst: &InstanceExec<'_>, steps: u64) {
        // The staged bulk copy touches device memory through the same
        // bindings the (shared-memory) sites use; check them here, where
        // the device traffic actually happens.
        self.accesses_checked += steps;
        let ports = [
            (AccessKind::Pop, "in", &inst.inputs),
            (AccessKind::Push, "out", &inst.outputs),
        ];
        for (kind, dir, bindings) in ports {
            for (p, b) in bindings.iter().enumerate() {
                if let Some(d) = check_binding(self.map, b, self.owner_of(kind, p as u8)) {
                    self.flag(format!("staging[{dir}{p}]"), d);
                }
            }
        }
    }
}

/// Materializes the arena exactly as execution would: `codegen`'s bump
/// allocation on a fresh device, then the checkpointer's two shadow
/// buffers. Returns the buffers, the ownership map, and the checkpoint
/// ship targets (state regions + shadows).
type Arena = (ProgramBuffers, RegionMap, Vec<(u64, u64)>);

fn arena(c: &Compiled, plan: &BufferPlan, iterations: u64) -> Result<Arena> {
    let mut gpu = Gpu::with_timing(c.device.clone(), c.timing.clone());
    let buffers = codegen::allocate(&mut gpu, &c.graph, &c.ig, &c.exec_cfg, plan, iterations)?;
    let state_words: u32 = c
        .graph
        .nodes()
        .iter()
        .zip(&buffers.state_base)
        .filter(|(_, b)| b.is_some())
        .map(|(n, _)| n.work.states().len().max(1) as u32)
        .sum();
    // The checkpointer's double-buffered shadows are the last two
    // allocations; model them unconditionally so the map covers every
    // run option.
    let shadow = if state_words > 0 {
        Some([
            gpu.try_alloc_tokens(state_words)?,
            gpu.try_alloc_tokens(state_words)?,
        ])
    } else {
        None
    };
    let arena_words = u64::from(gpu.allocated_words());

    let mut regions = Vec::new();
    for (i, ep) in buffers.plan.edges.iter().enumerate() {
        regions.push(Region {
            base: u64::from(buffers.edge_base[i]),
            words: ep.region_tokens * u64::from(ep.regions),
            owner: RegionOwner::Channel(i as u32),
        });
    }
    let mut targets = Vec::new();
    for (n, (node, base)) in c.graph.nodes().iter().zip(&buffers.state_base).enumerate() {
        if let Some(base) = *base {
            let words = node.work.states().len().max(1) as u64;
            regions.push(Region {
                base: u64::from(base),
                words,
                owner: RegionOwner::State(n as u32),
            });
            targets.push((u64::from(base), words));
        }
    }
    if let Some(io) = &buffers.input {
        regions.push(Region {
            base: u64::from(io.base_word),
            words: io.tokens.max(1),
            owner: RegionOwner::Input,
        });
    }
    if let Some(io) = &buffers.output {
        regions.push(Region {
            base: u64::from(io.base_word),
            words: io.tokens.max(1),
            owner: RegionOwner::Output,
        });
    }
    if let Some(shadow) = shadow {
        for (i, base) in shadow.into_iter().enumerate() {
            regions.push(Region {
                base: u64::from(base),
                words: u64::from(state_words),
                owner: RegionOwner::CheckpointShadow(i as u32),
            });
            targets.push((u64::from(base), u64::from(state_words)));
        }
    }
    regions.sort_by_key(|r| r.base);
    Ok((
        buffers,
        RegionMap {
            regions,
            arena_words,
        },
        targets,
    ))
}

/// The canonical ownership map of `(c, scheme)` at `iterations` — what
/// a certificate's digest commits to. Cheap: allocation only, no
/// abstract interpretation.
///
/// # Errors
///
/// The same shape errors as [`prove`].
pub fn region_map(c: &Compiled, scheme: Scheme, iterations: u64) -> Result<RegionMap> {
    map_of(c, &Prepared::of(c, scheme)?, iterations)
}

/// [`region_map`] over the plan `prepared` executes with.
fn map_of(c: &Compiled, prepared: &Prepared, iterations: u64) -> Result<RegionMap> {
    check_iterations(c, prepared.scheme(), iterations)?;
    let (_, map, _) = arena(c, prepared.plan(), iterations)?;
    Ok(map)
}

/// Proves tenant isolation of `(c, scheme)` over the canonical buffer
/// plan, walking the same launch sequence the executor would issue for
/// `iterations` steady iterations.
///
/// # Errors
///
/// The same shape errors as [`crate::exec::execute`], plus allocation
/// failures while reconstructing the launch sequence.
pub fn prove(c: &Compiled, scheme: Scheme, iterations: u64) -> Result<Isolation> {
    prove_prepared(c, &Prepared::of(c, scheme)?, iterations)
}

fn prove_prepared(c: &Compiled, prepared: &Prepared, iterations: u64) -> Result<Isolation> {
    check_iterations(c, prepared.scheme(), iterations)?;
    let (buffers, map, targets) = arena(c, prepared.plan(), iterations)?;

    let names: Vec<String> = c.graph.nodes().iter().map(|n| n.name.clone()).collect();
    let owners = |wiring: Vec<Option<EdgeId>>, external: RegionOwner| -> Vec<RegionOwner> {
        let owner = |e: Option<EdgeId>| e.map_or(external, |e| RegionOwner::Channel(e.0));
        wiring.into_iter().map(owner).collect()
    };
    let node_ids = || (0..c.graph.len() as u32).map(NodeId);
    let in_owners: Vec<_> = node_ids()
        .map(|v| owners(c.graph.input_wiring(v), RegionOwner::Input))
        .collect();
    let out_owners: Vec<_> = node_ids()
        .map(|v| owners(c.graph.output_wiring(v), RegionOwner::Output))
        .collect();

    let mut sink = TaintSink {
        map: &map,
        node: 0,
        in_owners: &in_owners,
        out_owners: &out_owners,
        names: &names,
        seen: BTreeSet::new(),
        diagnostics: Vec::new(),
        accesses_checked: 0,
        exact: true,
    };
    let at_node = |sink: &mut TaintSink<'_>, node| sink.node = node;
    let launches = analyze_launches(c, prepared, &buffers, iterations, &mut sink, at_node);
    let mut diagnostics = sink.diagnostics;
    let accesses_checked = sink.accesses_checked;
    let exact = sink.exact;
    diagnostics.extend(check_ship_targets(&map, &targets));

    let clean = !diagnostics.iter().any(|d| d.severity >= Severity::Error);
    let certificate = clean.then(|| IsolationCertificate {
        version: CERT_VERSION,
        digest: map.digest(),
        iterations,
        arena_words: map.arena_words,
        regions: map.regions.len() as u32,
        accesses_checked,
        launches,
        exact,
    });
    Ok(Isolation {
        certificate,
        diagnostics,
    })
}

/// Proves isolation at the scheme's canonical iteration count (one
/// granule) — what the pipeline stamps into artifacts. Containment is
/// algebraic over all iteration counts, so one granule is enough.
///
/// # Errors
///
/// As for [`prove`].
pub fn certify(c: &Compiled, scheme: Scheme) -> Result<Isolation> {
    certify_prepared(c, &Prepared::of(c, scheme)?)
}

/// [`certify`] over the prepared form the artifact executes.
pub(crate) fn certify_prepared(c: &Compiled, prepared: &Prepared) -> Result<Isolation> {
    prove_prepared(c, prepared, u64::from(prepared.granule()))
}

/// Re-verifies a certificate against a compiled artifact: recompute the
/// ownership map at the certificate's iteration count and compare
/// digests. Allocation-only — no abstract interpretation — so serving
/// can afford it on every cache and store fetch.
///
/// # Errors
///
/// [`Error::Api`] when the certificate's version or digest does not
/// match this artifact, or its iteration count is invalid for the
/// scheme.
pub fn verify_certificate(c: &Compiled, scheme: Scheme, cert: &IsolationCertificate) -> Result<()> {
    check_certificate(c, &Prepared::of(c, scheme)?, cert)
}

/// [`verify_certificate`] over the plan `prepared` executes with.
pub(crate) fn check_certificate(
    c: &Compiled,
    prepared: &Prepared,
    cert: &IsolationCertificate,
) -> Result<()> {
    if cert.version != CERT_VERSION {
        return Err(Error::Api(format!(
            "isolation certificate version {} does not match verifier version {CERT_VERSION}",
            cert.version
        )));
    }
    let map = map_of(c, prepared, cert.iterations)?;
    if map.digest() != cert.digest {
        return Err(Error::Api(format!(
            "isolation certificate digest {:#x} does not match the artifact's \
             region map ({:#x}): refusing to trust a stale proof",
            cert.digest,
            map.digest()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{compile, CompileOptions};
    use gpusim::Layout;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder};

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

    fn pipeline3() -> Compiled {
        compiled(&StreamSpec::pipeline(vec![
            rate_filter("A", 1, 2),
            rate_filter("B", 2, 3),
            rate_filter("C", 3, 1),
        ]))
    }

    #[test]
    fn well_formed_pipeline_certifies_across_schemes() {
        let c = pipeline3();
        for scheme in [
            Scheme::Swp { coarsening: 1 },
            Scheme::SwpNc { coarsening: 1 },
            Scheme::SwpRaw { coarsening: 1 },
            Scheme::Serial { batch: 2 },
        ] {
            let iso = certify(&c, scheme).unwrap();
            assert!(
                iso.diagnostics.is_empty(),
                "{scheme:?}: {:?}",
                iso.diagnostics
            );
            let cert = iso.certificate.expect("clean proof yields a certificate");
            assert!(cert.exact);
            assert!(cert.accesses_checked > 0);
            assert!(cert.launches > 0);
            verify_certificate(&c, scheme, &cert).unwrap();
        }
    }

    /// A walk that branches on data and cannot resolve a peek depth still
    /// certifies, inexactly: the depth's binding span is contained. Staged,
    /// the bulk copy's steps are checked besides the walked accesses.
    #[test]
    fn an_unresolved_walk_certifies_inexactly() {
        let c = crate::verify::tests::unresolved_walk();
        for (scheme, checked) in [
            (Scheme::SwpNc { coarsening: 1 }, 20),
            (Scheme::SwpRaw { coarsening: 1 }, 12),
        ] {
            let iso = certify(&c, scheme).unwrap();
            assert!(iso.diagnostics.is_empty(), "{:?}", iso.diagnostics);
            let cert = iso.certificate.expect("a contained proof certifies");
            let got = (cert.accesses_checked, cert.launches, cert.exact);
            assert_eq!(got, (checked, 2, false), "{scheme:?}");
            assert_eq!(
                (cert.digest, cert.arena_words),
                (0x1d13_2601_8467_fedd, 280)
            );
        }
    }

    #[test]
    fn certificates_are_scheme_specific() {
        // A serial artifact's arena differs from the SWP one (regions,
        // rotation), so its certificate must not verify cross-scheme.
        let c = pipeline3();
        let swp = certify(&c, Scheme::Swp { coarsening: 1 })
            .unwrap()
            .certificate
            .unwrap();
        let serial = certify(&c, Scheme::Serial { batch: 1 })
            .unwrap()
            .certificate
            .unwrap();
        assert_ne!(swp.digest, serial.digest);
        assert!(verify_certificate(&c, Scheme::Serial { batch: 1 }, &swp).is_err());
    }

    #[test]
    fn stale_version_is_rejected() {
        let c = pipeline3();
        let scheme = Scheme::Swp { coarsening: 1 };
        let mut cert = certify(&c, scheme).unwrap().certificate.unwrap();
        cert.version += 1;
        let err = verify_certificate(&c, scheme, &cert).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn inflated_binding_escapes_the_arena_as_v0401() {
        // A binding whose region geometry is inflated past the arena:
        // the span [base, base + region_tokens*regions) sails past every
        // allocation -> V0401 with the escaping address.
        let c = pipeline3();
        let scheme = Scheme::Swp { coarsening: 1 };
        let map = region_map(&c, scheme, 1).unwrap();
        let own = map
            .regions
            .iter()
            .find(|r| matches!(r.owner, RegionOwner::Channel(0)))
            .unwrap();
        let evil = BufferBinding {
            base_word: own.base as u32,
            region_tokens: map.arena_words + 64,
            regions: 1,
            layout: Layout::Sequential,
            consumer_rate: 1,
            endpoint_rate: 1,
            abs_start: 0,
        };
        let d = check_binding(&map, &evil, RegionOwner::Channel(0)).expect("must be caught");
        assert_eq!(d.code, Code::IsolationEscape, "{d}");
        assert!(d.to_string().contains("outside the tenant arena"), "{d}");
    }

    #[test]
    fn shifted_binding_aliases_a_neighbor_as_v0402() {
        // A binding re-based onto another channel's words: span stays
        // inside the arena but inside the wrong region -> V0402 naming
        // the victim.
        let c = pipeline3();
        let scheme = Scheme::Swp { coarsening: 1 };
        let map = region_map(&c, scheme, 1).unwrap();
        let victim = map
            .regions
            .iter()
            .find(|r| matches!(r.owner, RegionOwner::Channel(1)))
            .unwrap();
        let evil = BufferBinding {
            base_word: victim.base as u32,
            region_tokens: victim.words,
            regions: 1,
            layout: Layout::Sequential,
            consumer_rate: 1,
            endpoint_rate: 1,
            abs_start: 0,
        };
        let d = check_binding(&map, &evil, RegionOwner::Channel(0)).expect("must be caught");
        assert_eq!(d.code, Code::ForeignRegionAccess, "{d}");
        assert!(d.to_string().contains("channel #1"), "{d}");
        assert_eq!(d.edge, Some(1), "victim channel is attributed");
    }

    #[test]
    fn corrupted_ship_target_is_v0403() {
        let spec = StreamSpec::pipeline(vec![rate_filter("A", 1, 1), rate_filter("B", 1, 1)]);
        let c = compiled(&spec);
        let scheme = Scheme::Swp { coarsening: 1 };
        let map = region_map(&c, scheme, 1).unwrap();
        // Ship one word into channel 0's buffer: state words must never
        // land in a channel region.
        let chan = map.region_of(RegionOwner::Channel(0)).unwrap();
        let ds = check_ship_targets(&map, &[(chan.base, 1)]);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::CheckpointEscape, "{}", ds[0]);
        // The real targets (none here: stateless) pass vacuously.
        assert!(check_ship_targets(&map, &[]).is_empty());
    }

    #[test]
    fn region_map_is_disjoint_and_covers_bindings() {
        let c = pipeline3();
        let map = region_map(&c, Scheme::Swp { coarsening: 1 }, 4).unwrap();
        for w in map.regions.windows(2) {
            assert!(
                w[0].base + w[0].words <= w[1].base,
                "regions overlap: {w:?}"
            );
        }
        assert!(map
            .regions
            .iter()
            .all(|r| r.base + r.words <= map.arena_words));
        // Lookup agrees with the sorted layout.
        for r in &map.regions {
            assert_eq!(
                map.region_containing(r.base).unwrap().owner,
                r.owner,
                "base word of {r:?}"
            );
            assert_eq!(
                map.region_containing(r.base + r.words - 1).unwrap().owner,
                r.owner
            );
        }
        assert!(map.region_containing(map.arena_words).is_none());
    }
}
