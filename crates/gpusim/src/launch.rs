//! Kernel launches and the top-level [`Gpu`] handle.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::marker::PhantomData;
use std::sync::OnceLock;

use streamir::ir::{access_sites, AccessSite, WorkFunction};

use crate::analyze::Tape;
use crate::config::DeviceConfig;
use crate::exec::{run_warp, ExecLimits, Program, TripKind, WarpCtx, WarpState};
use crate::fault::{FaultKind, FaultPlan};
use crate::layout::{BufferBinding, WarpAccess, WARP_LANES};
use crate::mem::{Allocator, DeviceMemory};
use crate::stats::{InstanceStats, LaunchStats};
use crate::timing::TimingModel;
use crate::wide::{self, Flat};
use crate::{Result, SimError};

/// A work function loaded for the device: the kernel IR paired with the
/// warp program it decodes to. Load it once per work function of a graph
/// and launch it as often as needed — [`Gpu::run`] never decodes — or
/// replay its abstract walk ([`InstanceExec::analyze`]).
#[derive(Debug)]
pub struct Kernel {
    work: WorkFunction,
    pub(crate) program: Program,
    sites: Vec<AccessSite>,
    /// One warp's abstract walk: walked on first use, which a kernel that
    /// only ever runs never pays for.
    tape: OnceLock<Tape>,
}

impl Kernel {
    /// Decodes `work` for warp-wide execution.
    #[must_use]
    pub fn load(work: &WorkFunction) -> Kernel {
        Kernel {
            program: Program::decode(work),
            sites: access_sites(work),
            work: work.clone(),
            tape: OnceLock::new(),
        }
    }

    /// Whether no input can make the kernel trap, diverge or move an
    /// access: its abstract walk meets no varying `if` condition, peek
    /// depth, divisor, array or table index, and reaches no undecodable
    /// statement. A launch of such kernels is priced from the walk
    /// ([`Gpu::price_dispatched`]) instead of run. Decided by one walk,
    /// the first time it is asked.
    #[must_use]
    pub fn value_oblivious(&self) -> bool {
        self.tape().oblivious
    }

    pub(crate) fn tape(&self) -> &Tape {
        self.tape.get_or_init(|| Tape::record(self))
    }

    /// The work function this kernel fires.
    #[must_use]
    pub fn work(&self) -> &WorkFunction {
        &self.work
    }

    /// The work function's access sites ([`access_sites`]): what the site
    /// index of a decoded peek, pop or push names.
    #[must_use]
    pub fn sites(&self) -> &[AccessSite] {
        &self.sites
    }
}

/// One filter-instance execution inside a block: `active_threads` lanes of
/// the block each perform one firing of `kernel`, reading and writing
/// device buffers through the given bindings.
#[derive(Debug, Clone)]
pub struct InstanceExec<'a> {
    /// The loaded work function to fire.
    pub kernel: &'a Kernel,
    /// Firings executed in parallel (threads `0..active_threads` of the
    /// block participate; the rest idle, as with the paper's staging
    /// predicates).
    pub active_threads: u32,
    /// Binding for each input port.
    pub inputs: Vec<BufferBinding>,
    /// Binding for each output port.
    pub outputs: Vec<BufferBinding>,
    /// Stage the working set through shared memory (the SWPNC fallback for
    /// filters whose window fits): channel traffic is billed at
    /// shared-memory cost plus one coalesced bulk copy each way.
    pub shared_staging: bool,
    /// Device word address of the filter's persistent state. Required for
    /// stateful work functions, which must run with one active thread.
    pub state_base: Option<u32>,
    /// The filter's name and the instance's index, shown as `name[k]` in
    /// the launch-configuration error that rejects the instance.
    pub label: Option<(&'a str, u32)>,
}

/// The instance sequence one thread block executes (the body of one arm of
/// the generated kernel's `switch (blockIdx.x)`).
#[derive(Debug, Clone, Default)]
pub struct BlockWork<'a> {
    /// Instances in execution order (the paper orders by `o_{k,v}`).
    pub items: Vec<InstanceExec<'a>>,
}

/// A kernel launch: a grid of blocks plus the execution configuration the
/// paper's profiling phase selects (threads per block, register limit per
/// thread).
#[derive(Debug, Clone)]
pub struct Launch<'a> {
    /// Per-block work; block `b` runs on SM `(b + sm_offset) % num_sms`.
    pub blocks: Vec<BlockWork<'a>>,
    /// Threads per block (128/256/384/512 in the paper's search).
    pub threads_per_block: u32,
    /// Register limit per thread (16/20/32/64 in the paper's search);
    /// work functions needing more spill to local memory.
    pub regs_per_thread: u32,
    /// Rotates the block→SM mapping: block `b` runs on SM
    /// `(b + sm_offset) % num_sms`. Zero is the classic round-robin; a
    /// multi-tenant executor pins a program compiled for `k` SMs (which
    /// issues `k` blocks) to the SM slice `[sm_offset, sm_offset + k)`
    /// of a larger device. Timing is offset-invariant — the launch bound
    /// is the slowest SM — so a sliced run models identically to a solo
    /// run on a `k`-SM device.
    pub sm_offset: u32,
}

impl<'k> Launch<'k> {
    /// Every instance with the SM it runs on on a device of `num_sms` SMs,
    /// blocks in order and each block's items in order: the order a launch
    /// is billed in.
    fn instances(&self, num_sms: u32) -> impl Iterator<Item = (usize, &InstanceExec<'k>)> {
        (self.blocks.iter().enumerate()).flat_map(move |(b, block)| {
            let sm = (b + self.sm_offset as usize) % num_sms as usize;
            block.items.iter().map(move |inst| (sm, inst))
        })
    }
}

/// Each instance of a launch with its SM and its counters before the
/// spill bill, in [`Launch::instances`] order.
type Bases<'l, 'k> = Vec<(usize, &'l InstanceExec<'k>, InstanceStats)>;

/// The instance bills of one priced launch loop ([`Gpu::price_memoized`]):
/// each distinct instance placement is priced from its kernel's tape once,
/// and every later instance placed alike reuses that price.
///
/// The key is everything pricing reads of an [`InstanceExec`] —
/// the kernel, its active threads, staging, state base and bindings — with
/// each binding's `abs_start` reduced modulo its buffer's
/// `region_tokens × regions` words. That is exact by arithmetic:
/// [`BufferBinding::addr`] reads the logical index only through
/// `(j / region_tokens) % regions` and `j % region_tokens`, so every
/// address, and with it every transaction count, bank-conflict degree and
/// escape check, repeats with that period. The label is not read. The
/// lifetime ties the memo to the kernels it keys by address, so a freed
/// kernel's address can never alias another's.
///
/// A lookup hashes the instance's placement word by word without building
/// it and compares the stored placement field by field; only a miss
/// builds one. Two placements whose hashes collide are told apart by that
/// comparison: the later one is priced from its tape every time.
#[derive(Debug, Default)]
pub struct InstanceBills<'k> {
    memo: HashMap<u64, (Placement<'k>, Option<InstanceStats>), BuildHasherDefault<WordHasher>>,
    /// The warp shape and memory words the memo was priced on; another
    /// device starts it over.
    device: Option<((u32, u64), u64)>,
    bills: u64,
    replays: u64,
}

impl InstanceBills<'_> {
    /// Instances billed through the memo, and the tapes replayed to bill
    /// them: one per distinct placement.
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        (self.bills, self.replays)
    }
}

/// An instance as [`Tape::price`] reads it ([`InstanceBills`]).
#[derive(Debug)]
struct Placement<'k> {
    /// The kernel, by address.
    kernel: usize,
    active_threads: u32,
    shared_staging: bool,
    state_base: Option<u32>,
    /// [`Placement::bindings`].
    bindings: Vec<BufferBinding>,
    kernels: PhantomData<&'k Kernel>,
}

impl<'k> Placement<'k> {
    fn of(inst: &InstanceExec<'k>) -> Placement<'k> {
        Placement {
            kernel: std::ptr::from_ref(inst.kernel) as usize,
            active_threads: inst.active_threads,
            shared_staging: inst.shared_staging,
            state_base: inst.state_base,
            bindings: Placement::bindings(inst).collect(),
            kernels: PhantomData,
        }
    }

    /// `inst`'s inputs then outputs, each `abs_start` reduced modulo the
    /// buffer's words; the kernel fixes the arity.
    fn bindings<'i>(inst: &'i InstanceExec<'_>) -> impl Iterator<Item = BufferBinding> + 'i {
        (inst.inputs.iter().chain(&inst.outputs)).map(|b| BufferBinding {
            abs_start: (b.abs_start.checked_rem(b.size_words())).unwrap_or(b.abs_start),
            ..b.clone()
        })
    }

    /// The hash of [`Placement::of`]`(inst)`, without building it.
    fn hash(inst: &InstanceExec<'_>) -> u64 {
        let mut h = WordHasher::default();
        (std::ptr::from_ref(inst.kernel) as usize).hash(&mut h);
        inst.active_threads.hash(&mut h);
        inst.shared_staging.hash(&mut h);
        inst.state_base.hash(&mut h);
        Placement::bindings(inst).for_each(|b| b.hash(&mut h));
        h.finish()
    }

    /// Whether `inst` is placed as `self`.
    fn holds(&self, inst: &InstanceExec<'_>) -> bool {
        self.kernel == std::ptr::from_ref(inst.kernel) as usize
            && self.active_threads == inst.active_threads
            && self.shared_staging == inst.shared_staging
            && self.state_base == inst.state_base
            && Placement::bindings(inst).eq(self.bindings.iter().cloned())
    }
}

/// A word-at-a-time multiplicative hasher (the `FxHash` construction):
/// one rotate, xor and multiply per field, where the default SipHash runs
/// its rounds over every byte. For in-process memo keys only; it neither
/// resists chosen keys nor promises the same digest across builds.
#[derive(Debug, Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The last multiply leaves the high bits best mixed; the table
    /// indexes by the low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A launch's stats, built from its instances' counters before the spill
/// bill as they arrive in [`Launch::instances`] order, whether run or
/// priced: the same `f64` additions in the same order, so both bill
/// bit-identical cycles.
struct Bill {
    regs_per_thread: u32,
    per_sm: Vec<f64>,
    totals: LaunchStats,
    transactions: u64,
}

impl Bill {
    fn open(num_sms: u32, regs_per_thread: u32) -> Bill {
        Bill {
            regs_per_thread,
            per_sm: vec![0.0; num_sms as usize],
            totals: LaunchStats {
                launches: 1,
                ..LaunchStats::default()
            },
            transactions: 0,
        }
    }

    /// Bills `inst`'s spills at the launch's register limit and adds its
    /// cycles to SM `sm`.
    fn add(
        &mut self,
        timing: &TimingModel,
        sm: usize,
        inst: &InstanceExec<'_>,
        base: InstanceStats,
    ) {
        let stats = bill_spills(base, inst, self.regs_per_thread);
        self.per_sm[sm] += timing.instance_cycles(&stats);
        self.transactions += stats.mem_transactions + stats.spill_transactions;
        let totals = &mut self.totals;
        totals.warp_instructions += stats.warp_instructions;
        totals.mem_access_insts += stats.mem_access_insts;
        totals.mem_transactions += stats.mem_transactions;
        totals.shared_accesses += stats.shared_accesses;
        totals.bank_conflict_passes += stats.bank_conflict_passes;
        totals.divergent_branches += stats.divergent_branches;
        totals.spill_transactions += stats.spill_transactions;
    }

    /// The launch bound and the path `dispatch` takes, its overhead scaled
    /// by `spike_factor`.
    fn close(
        self,
        timing: &TimingModel,
        launch: &Launch<'_>,
        dispatch: Dispatch,
        spike_factor: f64,
    ) -> LaunchStats {
        let (per_sm, mut totals) = (self.per_sm, self.totals);
        // An overhead spike multiplies whichever launch path this
        // dispatch actually took: a spiked replay burns extra doorbell
        // cycles, not the driver path it never walked.
        let blocks = launch.blocks.len() as u64;
        let (cycles, path_overhead) = match dispatch {
            Dispatch::HostLaunch => (
                timing.launch_cycles(&per_sm, self.transactions, blocks),
                timing.launch_overhead_cycles,
            ),
            Dispatch::GraphReplay => {
                totals.graph_replays = 1;
                (
                    timing.replay_cycles(&per_sm, self.transactions, blocks),
                    timing.graph_replay_overhead_cycles,
                )
            }
        };
        totals.launch_path_cycles = path_overhead;
        totals.fault_overhead_cycles = (spike_factor - 1.0) * path_overhead;
        totals.spike_cycles = totals.fault_overhead_cycles;
        totals.per_sm_cycles = per_sm;
        totals.cycles = cycles + totals.fault_overhead_cycles;
        totals.time_secs = timing.secs(totals.cycles);
        totals
    }
}

/// How a kernel reaches the device: a host-driven driver launch paying
/// the full fixed launch overhead, or a replay of a previously captured
/// execution graph paying only the near-zero replay doorbell
/// ([`TimingModel::graph_replay_overhead_cycles`]). Functional execution
/// is identical either way — dispatch changes *when* overhead is paid,
/// never *what* the kernel computes — and fault draws still key on the
/// lifetime attempt ordinal, so a fault plan behaves identically under
/// both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Classic host-driven launch through the driver.
    #[default]
    HostLaunch,
    /// Replay of a captured graph: node starts are gated by on-device
    /// event edges, not the host launch path.
    GraphReplay,
}

/// The simulated device: configuration, memory, allocator, and timing.
#[derive(Debug, Clone)]
pub struct Gpu {
    config: DeviceConfig,
    timing: TimingModel,
    memory: DeviceMemory,
    allocator: Allocator,
    /// Injected-fault schedule (none by default).
    fault_plan: Option<FaultPlan>,
    /// Lifetime launch-attempt counter; faults key on this ordinal, so a
    /// retried launch gets a fresh, independent fault draw.
    launches_attempted: u64,
    /// Watchdog instruction-budget override for tests; `None` derives it
    /// from the timing model's watchdog interval.
    watchdog_override: Option<u64>,
}

impl Gpu {
    /// Creates a device with the default GTS-512 timing model.
    #[must_use]
    pub fn new(config: DeviceConfig) -> Gpu {
        Gpu::with_timing(config, TimingModel::gts512())
    }

    /// Creates a device with a custom timing model.
    #[must_use]
    pub fn with_timing(config: DeviceConfig, timing: TimingModel) -> Gpu {
        let memory = DeviceMemory::new(config.device_mem_words);
        let allocator = Allocator::new(config.device_mem_words, config.transaction_words());
        Gpu {
            config,
            timing,
            memory,
            allocator,
            fault_plan: None,
            launches_attempted: 0,
            watchdog_override: None,
        }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The timing model in use.
    #[must_use]
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Read access to device memory (host-side transfers in tests and
    /// executors).
    #[must_use]
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }

    /// Write access to device memory.
    pub fn memory_mut(&mut self) -> &mut DeviceMemory {
        &mut self.memory
    }

    /// Allocates a 64-byte-aligned buffer of `tokens` 32-bit tokens and
    /// returns its base word address.
    ///
    /// # Panics
    ///
    /// Panics when device memory is exhausted; use
    /// [`Gpu::try_alloc_tokens`] to handle that case.
    pub fn alloc_tokens(&mut self, tokens: u32) -> u32 {
        self.try_alloc_tokens(tokens)
            .expect("device memory exhausted")
    }

    /// Fallible variant of [`Gpu::alloc_tokens`].
    ///
    /// # Errors
    ///
    /// [`SimError::LaunchConfig`] when device memory is exhausted.
    pub fn try_alloc_tokens(&mut self, tokens: u32) -> Result<u32> {
        self.allocator.alloc(tokens)
    }

    /// Words currently allocated.
    #[must_use]
    pub fn allocated_words(&self) -> u32 {
        self.allocator.used()
    }

    /// Installs a fault-injection plan: subsequent launch attempts
    /// consult it (keyed by the lifetime attempt ordinal) and may fail
    /// with a transient [`SimError`].
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Launch attempts made over this device's lifetime, including
    /// attempts that faulted. This is the ordinal the fault plan keys on.
    #[must_use]
    pub fn launches_attempted(&self) -> u64 {
        self.launches_attempted
    }

    /// The watchdog's instruction budget for one launch: the override if
    /// set, else derived from the timing model's watchdog interval.
    #[must_use]
    pub fn watchdog_budget(&self) -> u64 {
        self.watchdog_override
            .unwrap_or_else(|| self.timing.watchdog_budget_insts())
    }

    /// Overrides the watchdog instruction budget (`None` restores the
    /// timing-model derivation). Tests use tiny budgets to exercise
    /// genuine runaway-kernel kills without issuing 10⁸ instructions.
    pub fn set_watchdog_budget(&mut self, budget: Option<u64>) {
        self.watchdog_override = budget;
    }

    /// Executes a kernel launch functionally and returns its modeled
    /// statistics.
    ///
    /// # Errors
    ///
    /// * [`SimError::LaunchConfig`] if the configuration violates a
    ///   hardware limit (threads per block, register file, shared memory,
    ///   binding arity mismatch) — the condition the paper's profiling
    ///   loop records as an infeasible configuration.
    /// * [`SimError::Trap`] / [`SimError::BadAddress`] if a work function
    ///   faults during execution.
    /// * [`SimError::LaunchFailed`] / [`SimError::MemFault`] /
    ///   [`SimError::WatchdogTimeout`] for injected transient faults
    ///   (see [`FaultPlan`]) or a genuine watchdog kill. These are
    ///   [`SimError::is_transient`]; executors may retry the launch from
    ///   a consistent buffer state.
    pub fn run(&mut self, launch: &Launch<'_>) -> Result<LaunchStats> {
        self.run_dispatched(launch, Dispatch::HostLaunch)
    }

    /// [`Gpu::run`] with an explicit dispatch mode.
    ///
    /// # Errors
    ///
    /// Exactly as [`Gpu::run`].
    pub fn run_dispatched(
        &mut self,
        launch: &Launch<'_>,
        dispatch: Dispatch,
    ) -> Result<LaunchStats> {
        let attempt = self.launches_attempted;
        self.launches_attempted += 1;
        let (fault, trip_prefix) = match &self.fault_plan {
            Some(p) => (p.draw(attempt), p.trip_prefix_insts(attempt)),
            None => (None, 0),
        };
        if matches!(fault, Some(FaultKind::LaunchFailure)) {
            // The driver loses the launch before any device work.
            return Err(SimError::LaunchFailed { launch: attempt });
        }
        self.validate(launch, launch.regs_per_thread)?;

        // The watchdog budget is shared by the whole launch. Injected
        // hangs and memory faults run on a small prefix budget so their
        // partial writes are real, but report their true cause.
        let true_budget = self.watchdog_budget();
        let mut limits = ExecLimits::new(true_budget, attempt);
        let mut spike_factor = 1.0;
        match fault {
            Some(FaultKind::Hang) => limits.remaining = trip_prefix,
            Some(FaultKind::MemCorruption) => {
                limits.remaining = trip_prefix;
                limits.trip = TripKind::MemFault;
            }
            Some(FaultKind::OverheadSpike { factor }) => spike_factor = factor.max(1.0),
            _ => {}
        }

        let mut warp_state = WarpState::default();
        let mut bill = Bill::open(self.config.num_sms, launch.regs_per_thread);
        for (sm, inst) in launch.instances(self.config.num_sms) {
            let base = self.run_instance(inst, &mut warp_state, &mut limits)?;
            bill.add(&self.timing, sm, inst, base);
        }

        // An armed hang/corruption that the (small) prefix budget did not
        // trip mid-run still kills the launch: the hang strikes at the
        // kernel tail, the corruption is detected at the final sync.
        if matches!(fault, Some(FaultKind::Hang | FaultKind::MemCorruption)) {
            limits.remaining = 0;
            return Err(limits.trip_error());
        }
        Ok(bill.close(&self.timing, launch, dispatch, spike_factor))
    }

    /// [`Gpu::run_dispatched`], priced from the kernels' abstract walks
    /// when that is exact: every kernel of `launch` is
    /// [value-oblivious](Kernel::value_oblivious), no fault plan is
    /// installed, every walked address lies in device memory and the
    /// walked instructions stay under the watchdog budget. Then the stats
    /// are bit-identical to the run's, device memory is untouched and one
    /// launch ordinal is consumed; otherwise the launch runs.
    ///
    /// Nothing a value-oblivious kernel computes depends on the words it
    /// reads, so a launch that runs instead reports the same error, or
    /// the same stats, whatever memory holds.
    ///
    /// # Errors
    ///
    /// Exactly as [`Gpu::run`].
    pub fn price_dispatched(
        &mut self,
        launch: &Launch<'_>,
        dispatch: Dispatch,
    ) -> Result<LaunchStats> {
        self.price_through(launch, dispatch, None)
    }

    /// [`Gpu::price_dispatched`] for one launch of a loop, pricing each
    /// instance placed as one `bills` has priced from that bill instead of
    /// replaying its tape. The stats are bit-identical to
    /// [`Gpu::price_dispatched`]'s: an instance's bill is a function of
    /// its placement, and the launch adds every instance's bill, and
    /// counts every instance's instructions against the watchdog, in
    /// launch order (blocks in order, each block's items in order).
    ///
    /// # Errors
    ///
    /// Exactly as [`Gpu::run`].
    pub fn price_memoized<'k>(
        &mut self,
        launch: &Launch<'k>,
        dispatch: Dispatch,
        bills: &mut InstanceBills<'k>,
    ) -> Result<LaunchStats> {
        self.price_through(launch, dispatch, Some(bills))
    }

    fn price_through<'k>(
        &mut self,
        launch: &Launch<'k>,
        dispatch: Dispatch,
        bills: Option<&mut InstanceBills<'k>>,
    ) -> Result<LaunchStats> {
        if self.fault_plan.is_none() && self.validate(launch, launch.regs_per_thread).is_ok() {
            if let Some(bases) = self.priced(launch, bills) {
                self.launches_attempted += 1;
                let regs = launch.regs_per_thread;
                return Ok(self.bill(launch, regs, &bases, dispatch));
            }
        }
        self.run_dispatched(launch, dispatch)
    }

    /// Every instance's counters before the spill bill, priced from its
    /// kernel's tape or found in `bills` ([`Launch::instances`] order), or
    /// `None` when that is not exact (see [`Gpu::price_dispatched`]).
    /// `launch` must validate.
    fn priced<'l, 'k>(
        &self,
        launch: &'l Launch<'k>,
        mut bills: Option<&mut InstanceBills<'k>>,
    ) -> Option<Bases<'l, 'k>> {
        let shape = (
            self.config.warp_size,
            u64::from(self.config.transaction_words()),
        );
        let mem_words = u64::from(self.memory.len());
        if let Some(bills) = bills.as_deref_mut() {
            if bills.device != Some((shape, mem_words)) {
                bills.memo.clear();
                bills.device = Some((shape, mem_words));
            }
        }
        let mut access = WarpAccess::default();
        let mut price = |inst: &InstanceExec<'_>| {
            (inst.kernel.tape()).price(inst, shape, mem_words, &mut access)
        };
        let (mut bases, mut issued) = (Vec::new(), 0);
        for (sm, inst) in launch.instances(self.config.num_sms) {
            let base = match bills.as_deref_mut() {
                Some(bills) => {
                    bills.bills += 1;
                    match bills.memo.entry(Placement::hash(inst)) {
                        Entry::Occupied(hit) if hit.get().0.holds(inst) => hit.get().1,
                        Entry::Occupied(_) => {
                            bills.replays += 1;
                            price(inst)
                        }
                        Entry::Vacant(miss) => {
                            bills.replays += 1;
                            miss.insert((Placement::of(inst), price(inst))).1
                        }
                    }
                }
                None => price(inst),
            }?;
            issued += base.warp_instructions;
            bases.push((sm, inst, base));
        }
        // Under the budget the watchdog never trips; at it, it may.
        (issued < self.watchdog_budget()).then_some(bases)
    }

    /// The launch's stats from every instance's counters before the spill
    /// bill ([`Bill`]), at `regs_per_thread`.
    fn bill(
        &self,
        launch: &Launch<'_>,
        regs_per_thread: u32,
        bases: &Bases<'_, '_>,
        dispatch: Dispatch,
    ) -> LaunchStats {
        let mut bill = Bill::open(self.config.num_sms, regs_per_thread);
        for &(sm, inst, base) in bases {
            bill.add(&self.timing, sm, inst, base);
        }
        bill.close(&self.timing, launch, dispatch, 1.0)
    }

    /// Prices `launch` at every register limit in `reg_limits` from one
    /// walk or one functional run. Entry `i` is what [`Gpu::run`] reports
    /// for the launch with `regs_per_thread = reg_limits[i]` (the launch's
    /// own `regs_per_thread` is ignored): its slowest SM's cycles, `None`
    /// where that run fails with [`SimError::LaunchConfig`], or the error
    /// it fails with. The limit enters only [`Gpu::run`]'s register-file
    /// check and the spill bill, so the counters are taken once, and only
    /// if some limit is feasible: from the kernels' walks when
    /// [`Gpu::price_dispatched`] would price the launch, else from running
    /// its warps. Like a launch, that consumes one launch ordinal and the
    /// watchdog budget; no fault plan is consulted.
    pub fn price_reg_limits(
        &mut self,
        launch: &Launch<'_>,
        reg_limits: &[u32],
    ) -> Vec<Result<Option<f64>>> {
        let checks: Vec<Result<()>> = reg_limits
            .iter()
            .map(|&regs| self.validate(launch, regs))
            .collect();
        let bases = if checks.iter().any(Result::is_ok) {
            let attempt = self.launches_attempted;
            self.launches_attempted += 1;
            match self.priced(launch, None) {
                Some(bases) => Ok(bases),
                None => {
                    let mut limits = ExecLimits::new(self.watchdog_budget(), attempt);
                    let mut warp_state = WarpState::default();
                    (launch.instances(self.config.num_sms))
                        .map(|(sm, inst)| {
                            Ok((
                                sm,
                                inst,
                                self.run_instance(inst, &mut warp_state, &mut limits)?,
                            ))
                        })
                        .collect()
                }
            }
        } else {
            Ok(Vec::new())
        };
        checks
            .into_iter()
            .zip(reg_limits)
            .map(|(check, &regs)| {
                let priced = check.and_then(|()| {
                    let bases = bases.as_ref().map_err(Clone::clone)?;
                    let stats = self.bill(launch, regs, bases, Dispatch::HostLaunch);
                    Ok(stats.per_sm_cycles.into_iter().fold(0.0f64, f64::max))
                });
                match priced {
                    Ok(cycles) => Ok(Some(cycles)),
                    Err(SimError::LaunchConfig(_)) => Ok(None),
                    Err(e) => Err(e),
                }
            })
            .collect()
    }

    fn validate(&self, launch: &Launch<'_>, regs_per_thread: u32) -> Result<()> {
        let cfg = &self.config;
        cfg.check_shape()?;
        if launch.threads_per_block == 0 || launch.threads_per_block > cfg.max_threads_per_block {
            return Err(SimError::LaunchConfig(format!(
                "threads per block {} outside 1..={}",
                launch.threads_per_block, cfg.max_threads_per_block
            )));
        }
        let regs_needed = regs_per_thread.saturating_mul(launch.threads_per_block);
        if regs_needed > cfg.registers_per_sm {
            return Err(SimError::LaunchConfig(format!(
                "register file exhausted: {} regs/thread x {} threads = {} > {}",
                regs_per_thread, launch.threads_per_block, regs_needed, cfg.registers_per_sm
            )));
        }
        for inst in launch.blocks.iter().flat_map(|block| &block.items) {
            // The label is rendered only for an instance the launch rejects.
            let reject = |why: String| {
                let label = match inst.label {
                    Some((name, k)) => format!("{name}[{k}]"),
                    None => "(unlabelled)".to_owned(),
                };
                Err(SimError::LaunchConfig(format!("instance {label} {why}")))
            };
            let (threads, block) = (inst.active_threads, launch.threads_per_block);
            if threads == 0 || threads > block {
                return reject(format!("uses {threads} threads in a {block}-thread block"));
            }
            let work = inst.kernel.work();
            if inst.inputs.len() != work.input_ports().len()
                || inst.outputs.len() != work.output_ports().len()
            {
                return reject("binding arity mismatch".into());
            }
            if work.is_stateful() && inst.state_base.is_none() {
                return reject("is stateful and has no state buffer".into());
            }
            if work.is_stateful() && threads != 1 {
                return reject(format!(
                    "is stateful and must run single-threaded, got {threads}"
                ));
            }
            let shared = cfg.shared_mem_per_sm;
            let staged = inst.shared_staging.then(|| staging_bytes(inst));
            if let Some(bytes) = staged.filter(|&bytes| bytes > u64::from(shared)) {
                return reject(format!(
                    "staging window of {bytes} B exceeds {shared} B shared memory"
                ));
            }
        }
        Ok(())
    }

    /// Runs one instance's warps and bills its staging copies; the spill
    /// bill is [`bill_spills`]'s, per register limit.
    fn run_instance(
        &mut self,
        inst: &InstanceExec<'_>,
        warp_state: &mut WarpState,
        limits: &mut ExecLimits,
    ) -> Result<InstanceStats> {
        let warp = self.config.warp_size;
        let warps = inst.active_threads.div_ceil(warp);
        let mut stats = InstanceStats {
            warps,
            ..InstanceStats::default()
        };
        let txn_words = self.config.transaction_words();
        let mem = &mut self.memory;
        inst.run_warps(mem, (warp, txn_words), warp_state, &mut stats, limits)?;

        if inst.shared_staging {
            bill_staging(&mut stats, staging_steps(inst, warp));
        }
        Ok(stats)
    }
}

impl InstanceExec<'_> {
    /// Fires this instance over `memory` and nothing else: every read and
    /// write lands exactly as under [`Gpu::run`], but nothing is billed,
    /// and no launch ordinal, fault draw or watchdog budget exists to be
    /// touched. The caller vouches for the shape [`Gpu::run`] validates
    /// (arity, one lane for a stateful work function). Warps are the
    /// simulator's full [`WARP_LANES`]: how lanes group never changes
    /// what a firing computes.
    ///
    /// # Errors
    ///
    /// [`SimError::Trap`] / [`SimError::BadAddress`] if a firing faults.
    pub fn execute(&self, memory: &mut DeviceMemory) -> Result<()> {
        let mut limits = ExecLimits::new(u64::MAX, 0);
        let (mut state, mut stats) = (WarpState::default(), InstanceStats::default());
        // The transaction size only shapes counters nobody reads.
        let shape = (WARP_LANES as u32, 16);
        self.run_warps(memory, shape, &mut state, &mut stats, &mut limits)
    }

    /// [`InstanceExec::execute`], many firings per op: a stateless
    /// [value-oblivious](Kernel::value_oblivious) kernel whose ports are
    /// sequential single-region spans its firings never wrap fires on the
    /// wide executor, [`WIDE_LANES`](crate::WIDE_LANES) firings per op
    /// dispatch, without masks or warps; any other instance runs through
    /// [`InstanceExec::execute`]. Memory ends up the same either way.
    ///
    /// # Errors
    ///
    /// As for [`InstanceExec::execute`].
    pub fn execute_wide(&self, memory: &mut DeviceMemory) -> Result<()> {
        let work = self.kernel.work();
        if self.active_threads == 0 || work.is_stateful() || !self.kernel.value_oblivious() {
            return self.execute(memory);
        }
        let flats = |bindings: &[BufferBinding], extent: &dyn Fn(u8) -> u32| {
            (0u8..)
                .zip(bindings)
                .map(|(p, b)| Flat::of(b, self.active_threads, extent(p)))
                .collect::<Option<Vec<_>>>()
        };
        let window = |p| work.peek_rate(p).max(work.pop_rate(p));
        match (
            flats(&self.inputs, &window),
            flats(&self.outputs, &|p| work.push_rate(p)),
        ) {
            (Some(ins), Some(outs)) => wide::fire(
                &self.kernel.program,
                self.active_threads,
                &ins,
                &outs,
                memory,
            ),
            _ => self.execute(memory),
        }
    }

    /// Runs every warp of the instance through [`run_warp`] on a device
    /// of `(warp size, transaction words)`, tallying into `stats`.
    fn run_warps(
        &self,
        memory: &mut DeviceMemory,
        (warp, txn_words): (u32, u32),
        warp_state: &mut WarpState,
        stats: &mut InstanceStats,
        limits: &mut ExecLimits,
    ) -> Result<()> {
        warp_state.bind(&self.inputs, &self.outputs);
        for lane0 in (0..self.active_threads).step_by(warp as usize) {
            if lane0 > 0 {
                warp_state.next_warp(warp);
            }
            let ctx = WarpCtx {
                prog: &self.kernel.program,
                lane0_tid: lane0,
                active: warp.min(self.active_threads - lane0),
                inputs: &self.inputs,
                outputs: &self.outputs,
                shared_staging: self.shared_staging,
                half_warp: warp / 2,
                txn_words: u64::from(txn_words),
                state_base: self.state_base,
            };
            run_warp(&ctx, warp_state, memory, stats, limits)?;
        }
        Ok(())
    }
}

/// `stats` with the register spills of running `inst` at
/// `regs_per_thread` billed: every firing reloads and spills the excess
/// live values from per-thread local memory (coalesced).
fn bill_spills(
    mut stats: InstanceStats,
    inst: &InstanceExec<'_>,
    regs_per_thread: u32,
) -> InstanceStats {
    let spilled = u64::from(
        inst.kernel
            .work()
            .info()
            .reg_estimate
            .saturating_sub(regs_per_thread),
    );
    if spilled > 0 {
        let spill_accesses = 2 * spilled * u64::from(stats.warps);
        stats.spill_access_insts += spill_accesses;
        stats.spill_transactions += spill_accesses * 2;
        stats.warp_instructions += spill_accesses;
    }
    stats
}

/// Bills a staged instance's bulk copy of `steps` warp-wide steps: each
/// is one access instruction and two 64-byte transactions.
pub(crate) fn bill_staging(stats: &mut InstanceStats, steps: u64) {
    stats.warp_instructions += steps;
    stats.mem_access_insts += steps;
    stats.mem_transactions += steps * 2;
}

/// Warp-wide steps of a staged instance's coalesced bulk copy: one each
/// way, the window in before its warps run and the pushes out after, a
/// word per lane per step.
pub(crate) fn staging_steps(inst: &InstanceExec<'_>, warp: u32) -> u64 {
    (staging_bytes(inst) / 4).div_ceil(u64::from(warp))
}

/// Bytes of shared memory a staged instance's window occupies: all input
/// peek windows plus all output push windows.
fn staging_bytes(inst: &InstanceExec<'_>) -> u64 {
    let t = u64::from(inst.active_threads);
    let wf = inst.kernel.work();
    let in_tokens: u64 = (0..wf.input_ports().len() as u8)
        .map(|p| t * u64::from(wf.peek_rate(p)))
        .sum();
    let out_tokens: u64 = (0..wf.output_ports().len() as u8)
        .map(|p| t * u64::from(wf.push_rate(p)))
        .sum();
    (in_tokens + out_tokens) * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};

    fn doubler() -> Kernel {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.push(0, Expr::local(x).mul(Expr::i32(2)));
        Kernel::load(&f.build().unwrap())
    }

    fn simple_launch<'a>(
        kernel: &'a Kernel,
        inp: u32,
        out: u32,
        n: u32,
        layout: Layout,
    ) -> Launch<'a> {
        Launch {
            threads_per_block: n,
            regs_per_thread: 16,
            blocks: vec![BlockWork {
                items: vec![InstanceExec {
                    kernel,
                    active_threads: n,
                    inputs: vec![BufferBinding::whole(inp, n, ElemTy::I32, layout, 1)],
                    outputs: vec![BufferBinding::whole(out, n, ElemTy::I32, layout, 1)],
                    shared_staging: false,
                    state_base: None,
                    label: None,
                }],
            }],
            sm_offset: 0,
        }
    }

    #[test]
    fn functional_execution_matches_expectation() {
        let work = doubler();
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let n = 64;
        let inp = gpu.alloc_tokens(n);
        let out = gpu.alloc_tokens(n);
        for i in 0..n {
            gpu.memory_mut().write_token(inp + i, Scalar::I32(i as i32));
        }
        let launch = simple_launch(&work, inp, out, n, Layout::Sequential);
        gpu.run(&launch).unwrap();
        for i in 0..n {
            assert_eq!(
                gpu.memory().read_token(out + i, ElemTy::I32),
                Scalar::I32(2 * i as i32)
            );
        }
    }

    /// The functional entry point writes what a launch writes and leaves
    /// the device's launch state alone: a budget the firings far exceed
    /// kills nothing, and the next launch is still attempt 0, drawing
    /// attempt 0's fault.
    #[test]
    fn execute_fires_like_a_launch_and_bills_nothing() {
        let work = doubler();
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        gpu.inject_faults(FaultPlan::new(7).with_launch_failures(1000));
        gpu.set_watchdog_budget(Some(3));
        let n = 40; // a full warp and a partial one
        let inp = gpu.alloc_tokens(n);
        let out = gpu.alloc_tokens(n);
        for i in 0..n {
            gpu.memory_mut()
                .write_token(inp + i, Scalar::I32(i as i32 - 7));
        }
        let launch = simple_launch(&work, inp, out, n, Layout::Sequential);
        launch.blocks[0].items[0].execute(gpu.memory_mut()).unwrap();
        for i in 0..n {
            let doubled = Scalar::I32(2 * (i as i32 - 7));
            assert_eq!(gpu.memory().read_token(out + i, ElemTy::I32), doubled);
        }
        assert_eq!((gpu.launches_attempted(), gpu.watchdog_budget()), (0, 3));
        assert_eq!(gpu.run(&launch), Err(SimError::LaunchFailed { launch: 0 }));
    }

    #[test]
    fn rate1_sequential_accesses_coalesce() {
        // Pop rate 1: thread t reads addr base+t -> coalesced.
        let work = doubler();
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let n = 64;
        let inp = gpu.alloc_tokens(n);
        let out = gpu.alloc_tokens(n);
        let stats = gpu
            .run(&simple_launch(&work, inp, out, n, Layout::Sequential))
            .unwrap();
        // 2 warps x (1 pop + 1 push) x 2 half-warps = 8 transactions.
        assert_eq!(stats.mem_transactions, 8);
        assert_eq!(stats.mem_access_insts, 4);
    }

    fn quad_popper() -> Kernel {
        // pop 4, push their sum: sequential layout strides by 4.
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let acc = f.local(ElemTy::I32);
        let x = f.local(ElemTy::I32);
        f.assign(acc, Expr::i32(0));
        for _ in 0..4 {
            f.pop_into(0, x);
            f.assign(acc, Expr::local(acc).add(Expr::local(x)));
        }
        f.push(0, Expr::local(acc));
        Kernel::load(&f.build().unwrap())
    }

    #[test]
    fn strided_sequential_serializes_but_transposed_coalesces() {
        let work = quad_popper();
        let n = 32u32;
        let run_with = |layout: Layout| {
            let mut gpu = Gpu::new(DeviceConfig::small_test());
            let inp = gpu.alloc_tokens(4 * n);
            let out = gpu.alloc_tokens(n);
            for i in 0..4 * n {
                // Fill via the layout's own mapping so logical contents match.
                let slot = layout.slot(u64::from(i), 4, u64::from(4 * n));
                gpu.memory_mut()
                    .write_token(inp + slot as u32, Scalar::I32(i as i32));
            }
            let launch = Launch {
                threads_per_block: n,
                regs_per_thread: 16,
                blocks: vec![BlockWork {
                    items: vec![InstanceExec {
                        kernel: &work,
                        active_threads: n,
                        inputs: vec![BufferBinding {
                            base_word: inp,
                            region_tokens: u64::from(4 * n),
                            regions: 1,
                            layout,
                            consumer_rate: 4,
                            endpoint_rate: 4,
                            abs_start: 0,
                        }],
                        outputs: vec![BufferBinding::whole(
                            out,
                            n,
                            ElemTy::I32,
                            Layout::Sequential,
                            1,
                        )],
                        shared_staging: false,
                        state_base: None,
                        label: None,
                    }],
                }],
                sm_offset: 0,
            };
            let stats = gpu.run(&launch).unwrap();
            // Functional check: thread t sums logical 4t..4t+4.
            for t in 0..n {
                let expect: i32 = (4 * t as i32..4 * t as i32 + 4).sum();
                assert_eq!(
                    gpu.memory().read_token(out + t, ElemTy::I32),
                    Scalar::I32(expect)
                );
            }
            stats.mem_transactions
        };
        let seq = run_with(Layout::Sequential);
        let opt = run_with(Layout::Transposed { group: 128 });
        assert!(
            seq > 4 * opt,
            "sequential ({seq}) should serialize vs transposed ({opt})"
        );
    }

    #[test]
    fn register_exhaustion_is_infeasible() {
        let work = doubler();
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let inp = gpu.alloc_tokens(64);
        let out = gpu.alloc_tokens(64);
        let mut launch = simple_launch(&work, inp, out, 64, Layout::Sequential);
        launch.regs_per_thread = 64;
        launch.threads_per_block = 512;
        launch.blocks[0].items[0].active_threads = 512;
        // 64 x 512 = 32768 > 8192: the paper's infeasible configuration.
        let e = gpu.run(&launch).unwrap_err();
        assert!(matches!(e, SimError::LaunchConfig(_)));
    }

    #[test]
    fn spills_are_billed_when_registers_are_scarce() {
        let work = quad_popper();
        let reg_need = work.work().info().reg_estimate;
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let inp = gpu.alloc_tokens(128);
        let out = gpu.alloc_tokens(32);
        let mut launch = simple_launch(&work, inp, out, 32, Layout::Sequential);
        launch.blocks[0].items[0].inputs[0].consumer_rate = 4;
        launch.blocks[0].items[0].inputs[0].endpoint_rate = 4;
        launch.regs_per_thread = 1;
        let spilled = gpu.run(&launch).unwrap();
        launch.regs_per_thread = reg_need;
        let roomy = gpu.run(&launch).unwrap();
        assert!(spilled.spill_transactions > 0);
        assert_eq!(roomy.spill_transactions, 0);
        assert!(spilled.cycles > roomy.cycles);
    }

    #[test]
    fn divergence_is_observed() {
        // Push 1 for even threads, 0 for odd: per-lane divergence.
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        let y = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.if_else(
            Expr::local(x).rem(Expr::i32(2)).eq(Expr::i32(0)),
            vec![streamir::ir::Stmt::Assign(y, Expr::i32(1))],
            vec![streamir::ir::Stmt::Assign(y, Expr::i32(0))],
        );
        f.push(0, Expr::local(y));
        let work = Kernel::load(&f.build().unwrap());
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let n = 32;
        let inp = gpu.alloc_tokens(n);
        let out = gpu.alloc_tokens(n);
        for i in 0..n {
            gpu.memory_mut().write_token(inp + i, Scalar::I32(i as i32));
        }
        let stats = gpu
            .run(&simple_launch(&work, inp, out, n, Layout::Sequential))
            .unwrap();
        assert_eq!(stats.divergent_branches, 1);
        for i in 0..n {
            let expect = i32::from(i % 2 == 0);
            assert_eq!(
                gpu.memory().read_token(out + i, ElemTy::I32),
                Scalar::I32(expect)
            );
        }
    }

    #[test]
    fn staging_moves_traffic_to_shared() {
        let work = quad_popper();
        let n = 32u32;
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let inp = gpu.alloc_tokens(4 * n);
        let out = gpu.alloc_tokens(n);
        let mut launch = simple_launch(&work, inp, out, n, Layout::Sequential);
        launch.blocks[0].items[0].inputs[0].consumer_rate = 4;
        launch.blocks[0].items[0].inputs[0].endpoint_rate = 4;
        let direct = gpu.run(&launch).unwrap();
        launch.blocks[0].items[0].shared_staging = true;
        let staged = gpu.run(&launch).unwrap();
        assert!(staged.shared_accesses > 0);
        assert!(
            staged.mem_transactions < direct.mem_transactions,
            "staging ({}) must cut device transactions vs direct ({})",
            staged.mem_transactions,
            direct.mem_transactions
        );
    }

    #[test]
    fn oversized_staging_window_rejected() {
        // 512 threads x 64-token window x 4 B = 128 KB >> 16 KB shared.
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        for _ in 0..63 {
            f.pop_into(0, x);
        }
        f.pop_into(0, x);
        f.push(0, Expr::local(x));
        let work = Kernel::load(&f.build().unwrap());
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let inp = gpu.alloc_tokens(64 * 512);
        let out = gpu.alloc_tokens(512);
        let mut launch = simple_launch(&work, inp, out, 512, Layout::Sequential);
        launch.blocks[0].items[0].inputs[0].consumer_rate = 64;
        launch.blocks[0].items[0].inputs[0].endpoint_rate = 64;
        launch.blocks[0].items[0].shared_staging = true;
        let e = gpu.run(&launch).unwrap_err();
        assert!(matches!(e, SimError::LaunchConfig(ref m) if m.contains("staging")));
    }

    #[test]
    fn stateful_instance_requires_state_buffer_and_one_thread() {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let st = f.state(ElemTy::I32, Scalar::I32(5));
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.push(0, Expr::state(st).add(Expr::local(x)));
        f.store_state(st, Expr::state(st).add(Expr::i32(1)));
        let work = Kernel::load(&f.build().unwrap());

        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let inp = gpu.alloc_tokens(4);
        let out = gpu.alloc_tokens(4);
        for i in 0..4 {
            gpu.memory_mut()
                .write_token(inp + i, Scalar::I32(10 * i as i32));
        }
        let item = |abs: u64, active: u32, state_base: Option<u32>| InstanceExec {
            kernel: &work,
            active_threads: active,
            inputs: vec![BufferBinding {
                base_word: inp,
                region_tokens: 4,
                regions: 1,
                layout: Layout::Sequential,
                consumer_rate: 1,
                endpoint_rate: 1,
                abs_start: abs,
            }],
            outputs: vec![BufferBinding {
                base_word: out,
                region_tokens: 4,
                regions: 1,
                layout: Layout::Sequential,
                consumer_rate: 1,
                endpoint_rate: 1,
                abs_start: abs,
            }],
            shared_staging: false,
            state_base,
            label: None,
        };
        // No state buffer: rejected.
        let mut launch = Launch {
            threads_per_block: 1,
            regs_per_thread: 16,
            blocks: vec![BlockWork {
                items: vec![item(0, 1, None)],
            }],
            sm_offset: 0,
        };
        let e = gpu.run(&launch).unwrap_err();
        assert!(matches!(e, SimError::LaunchConfig(ref m) if m.contains("state")));
        // Multi-threaded: rejected.
        let st_base = gpu.alloc_tokens(1);
        gpu.memory_mut().write_token(st_base, Scalar::I32(5));
        launch.threads_per_block = 4;
        launch.blocks[0].items = vec![item(0, 4, Some(st_base))];
        let e = gpu.run(&launch).unwrap_err();
        assert!(matches!(e, SimError::LaunchConfig(ref m) if m.contains("single-threaded")));
        // Single-threaded with state: runs and persists state across
        // instance executions.
        launch.threads_per_block = 1;
        launch.blocks[0].items = vec![item(0, 1, Some(st_base)), item(1, 1, Some(st_base))];
        gpu.run(&launch).unwrap();
        // Firing 1: 5 + 0 = 5; firing 2: 6 + 10 = 16.
        assert_eq!(gpu.memory().read_token(out, ElemTy::I32), Scalar::I32(5));
        assert_eq!(
            gpu.memory().read_token(out + 1, ElemTy::I32),
            Scalar::I32(16)
        );
        assert_eq!(
            gpu.memory().read_token(st_base, ElemTy::I32),
            Scalar::I32(7)
        );
    }

    #[test]
    fn multiple_blocks_map_to_sms_round_robin() {
        let work = doubler();
        let mut gpu = Gpu::new(DeviceConfig::small_test()); // 4 SMs
        let n = 32u32;
        let blocks = 8usize;
        let inp = gpu.alloc_tokens(n * blocks as u32);
        let out = gpu.alloc_tokens(n * blocks as u32);
        for i in 0..n * blocks as u32 {
            gpu.memory_mut().write_token(inp + i, Scalar::I32(i as i32));
        }
        let launch = Launch {
            threads_per_block: n,
            regs_per_thread: 16,
            blocks: (0..blocks)
                .map(|b| BlockWork {
                    items: vec![InstanceExec {
                        kernel: &work,
                        active_threads: n,
                        inputs: vec![BufferBinding {
                            base_word: inp,
                            region_tokens: u64::from(n) * blocks as u64,
                            regions: 1,
                            layout: Layout::Sequential,
                            consumer_rate: 1,
                            endpoint_rate: 1,
                            abs_start: u64::from(n) * b as u64,
                        }],
                        outputs: vec![BufferBinding {
                            base_word: out,
                            region_tokens: u64::from(n) * blocks as u64,
                            regions: 1,
                            layout: Layout::Sequential,
                            consumer_rate: 1,
                            endpoint_rate: 1,
                            abs_start: u64::from(n) * b as u64,
                        }],
                        shared_staging: false,
                        state_base: None,
                        label: None,
                    }],
                })
                .collect(),
            sm_offset: 0,
        };
        let stats = gpu.run(&launch).unwrap();
        // 8 blocks over 4 SMs: each SM got 2 blocks' cycles.
        let busy: Vec<f64> = stats.per_sm_cycles.clone();
        assert_eq!(busy.len(), 4);
        assert!(busy.iter().all(|&c| c > 0.0));
        for i in 0..n * blocks as u32 {
            assert_eq!(
                gpu.memory().read_token(out + i, ElemTy::I32),
                Scalar::I32(2 * i as i32)
            );
        }
    }

    #[test]
    fn sm_offset_shifts_placement_without_changing_outputs_or_time() {
        let work = doubler();
        let n = 32u32;
        let run_at = |offset: u32| {
            let mut gpu = Gpu::new(DeviceConfig::small_test()); // 4 SMs
            let inp = gpu.alloc_tokens(n);
            let out = gpu.alloc_tokens(n);
            for i in 0..n {
                gpu.memory_mut().write_token(inp + i, Scalar::I32(i as i32));
            }
            let mut launch = simple_launch(&work, inp, out, n, Layout::Sequential);
            launch.sm_offset = offset;
            let stats = gpu.run(&launch).unwrap();
            let outputs: Vec<_> = (0..n)
                .map(|i| gpu.memory().read_token(out + i, ElemTy::I32))
                .collect();
            (stats, outputs)
        };
        let (base, base_out) = run_at(0);
        let (shifted, shifted_out) = run_at(2);
        assert_eq!(base_out, shifted_out);
        assert_eq!(base.cycles, shifted.cycles);
        // The single block landed on SM 0 at offset 0 and SM 2 at offset 2.
        assert!(base.per_sm_cycles[0] > 0.0 && base.per_sm_cycles[2] == 0.0);
        assert!(shifted.per_sm_cycles[2] > 0.0 && shifted.per_sm_cycles[0] == 0.0);
    }

    fn faultable_setup() -> (Gpu, Kernel, u32, u32, u32) {
        let work = doubler();
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let n = 64u32;
        let inp = gpu.alloc_tokens(n);
        let out = gpu.alloc_tokens(n);
        for i in 0..n {
            gpu.memory_mut().write_token(inp + i, Scalar::I32(i as i32));
        }
        (gpu, work, inp, out, n)
    }

    #[test]
    fn injected_launch_failure_leaves_memory_untouched() {
        let (mut gpu, work, inp, out, n) = faultable_setup();
        gpu.inject_faults(crate::FaultPlan::new(1).at_launch(0, FaultKind::LaunchFailure));
        let launch = simple_launch(&work, inp, out, n, Layout::Sequential);
        let e = gpu.run(&launch).unwrap_err();
        assert_eq!(e, SimError::LaunchFailed { launch: 0 });
        assert!(e.is_transient());
        // No device work happened: the output buffer is still zeroed.
        for i in 0..n {
            assert_eq!(
                gpu.memory().read_token(out + i, ElemTy::I32),
                Scalar::I32(0)
            );
        }
        // The retry (attempt 1, no pinned fault) succeeds as-is.
        gpu.run(&launch).unwrap();
        assert_eq!(
            gpu.memory().read_token(out + 5, ElemTy::I32),
            Scalar::I32(10)
        );
        assert_eq!(gpu.launches_attempted(), 2);
    }

    #[test]
    fn injected_hang_reports_true_watchdog_budget_and_writes_partially() {
        let (mut gpu, work, inp, out, n) = faultable_setup();
        gpu.inject_faults(crate::FaultPlan::new(2).at_launch(0, FaultKind::Hang));
        let launch = simple_launch(&work, inp, out, n, Layout::Sequential);
        let e = gpu.run(&launch).unwrap_err();
        let true_budget = gpu.watchdog_budget();
        assert_eq!(
            e,
            SimError::WatchdogTimeout {
                budget: true_budget,
                launch: 0
            }
        );
        assert!(e.is_transient());
        // Relaunching re-runs the same deterministic work; the earlier
        // partial writes are overwritten identically (idempotence).
        gpu.run(&launch).unwrap();
        for i in 0..n {
            assert_eq!(
                gpu.memory().read_token(out + i, ElemTy::I32),
                Scalar::I32(2 * i as i32)
            );
        }
    }

    #[test]
    fn injected_mem_fault_reports_detection_site() {
        let (mut gpu, work, inp, out, n) = faultable_setup();
        gpu.inject_faults(crate::FaultPlan::new(3).at_launch(0, FaultKind::MemCorruption));
        let launch = simple_launch(&work, inp, out, n, Layout::Sequential);
        match gpu.run(&launch).unwrap_err() {
            e @ SimError::MemFault { addr, launch: 0 } => {
                assert!(e.is_transient());
                // The detection site is a word the kernel actually touches.
                assert!(addr < u64::from(inp) + 2 * u64::from(n) + 64);
            }
            other => panic!("expected MemFault, got {other}"),
        }
        gpu.run(&launch).unwrap();
        assert_eq!(
            gpu.memory().read_token(out + 7, ElemTy::I32),
            Scalar::I32(14)
        );
    }

    #[test]
    fn overhead_spike_bills_extra_cycles_truthfully() {
        let (mut gpu, work, inp, out, n) = faultable_setup();
        let launch = simple_launch(&work, inp, out, n, Layout::Sequential);
        let clean = gpu.run(&launch).unwrap();
        assert_eq!(clean.fault_overhead_cycles, 0.0);
        gpu.inject_faults(
            crate::FaultPlan::new(4).at_launch(1, FaultKind::OverheadSpike { factor: 5.0 }),
        );
        let spiked = gpu.run(&launch).unwrap();
        let expect = 4.0 * gpu.timing().launch_overhead_cycles;
        assert!((spiked.fault_overhead_cycles - expect).abs() < 1e-9);
        assert!((spiked.cycles - clean.cycles - expect).abs() < 1e-9);
        assert!(spiked.time_secs > clean.time_secs);
    }

    #[test]
    fn runaway_kernel_trips_the_real_watchdog() {
        let (mut gpu, work, inp, out, n) = faultable_setup();
        // No fault plan at all: a tiny budget models a genuinely hung
        // kernel hitting the watchdog.
        gpu.set_watchdog_budget(Some(2));
        let launch = simple_launch(&work, inp, out, n, Layout::Sequential);
        let e = gpu.run(&launch).unwrap_err();
        assert_eq!(
            e,
            SimError::WatchdogTimeout {
                budget: 2,
                launch: 0
            }
        );
        gpu.set_watchdog_budget(None);
        gpu.run(&launch).unwrap();
    }

    #[test]
    fn fault_draws_key_on_lifetime_attempt_ordinal() {
        let (mut gpu, work, inp, out, n) = faultable_setup();
        gpu.inject_faults(crate::FaultPlan::new(5).at_launch(1, FaultKind::LaunchFailure));
        let launch = simple_launch(&work, inp, out, n, Layout::Sequential);
        gpu.run(&launch).unwrap();
        assert!(matches!(
            gpu.run(&launch).unwrap_err(),
            SimError::LaunchFailed { launch: 1 }
        ));
        gpu.run(&launch).unwrap();
        assert_eq!(gpu.launches_attempted(), 3);
    }

    /// A fresh device holding one instance of `kernel` at `threads`
    /// threads over synthetic input, as the profiler lays it out; the
    /// launch's register limit is the caller's to set.
    fn priced_instance(kernel: &Kernel, threads: u32, staged: bool) -> (Gpu, Launch<'_>) {
        instance_over(kernel, threads, staged, Layout::Transposed { group: 128 })
    }

    /// One instance of `kernel` at `threads` threads over synthetic input
    /// laid out by `layout`, on a fresh 2²⁰-word device.
    fn instance_over(
        kernel: &Kernel,
        threads: u32,
        staged: bool,
        layout: Layout,
    ) -> (Gpu, Launch<'_>) {
        let work = kernel.work();
        let stateful = work.is_stateful();
        let active = if stateful { 1 } else { threads };
        let mut gpu = Gpu::new(DeviceConfig {
            device_mem_words: 1 << 20,
            ..DeviceConfig::gts512()
        });
        let binding = |base, tokens: u32, rate: u32| BufferBinding {
            base_word: base,
            region_tokens: u64::from(tokens),
            regions: 1,
            layout,
            consumer_rate: rate.max(1),
            endpoint_rate: rate,
            abs_start: 0,
        };
        let mut inputs = Vec::new();
        for (port, &ty) in work.input_ports().iter().enumerate() {
            let (pop, peek) = (work.pop_rate(port as u8), work.peek_rate(port as u8));
            let tokens = (active * pop + (peek - pop)).max(1);
            let b = binding(gpu.alloc_tokens(tokens), tokens, pop);
            for i in 0..u64::from(tokens) {
                let slot = layout.slot(i, pop.max(1), u64::from(tokens));
                let v = (i % 17 + 1) as i32;
                let token = match ty {
                    ElemTy::I32 => Scalar::I32(v),
                    ElemTy::F32 => Scalar::F32(v as f32 * 0.5),
                };
                gpu.memory_mut()
                    .write_token(b.base_word + slot as u32, token);
            }
            inputs.push(b);
        }
        let outputs = (0..work.output_ports().len() as u8)
            .map(|port| {
                let push = work.push_rate(port);
                let tokens = (active * push).max(1);
                binding(gpu.alloc_tokens(tokens), tokens, push)
            })
            .collect();
        let state_base = stateful.then(|| {
            let base = gpu.alloc_tokens(work.states().len().max(1) as u32);
            for (i, st) in work.states().iter().enumerate() {
                gpu.memory_mut().write_token(base + i as u32, st.init);
            }
            base
        });
        let launch = Launch {
            threads_per_block: threads,
            regs_per_thread: 0,
            blocks: vec![BlockWork {
                items: vec![InstanceExec {
                    kernel,
                    active_threads: active,
                    inputs,
                    outputs,
                    shared_staging: staged,
                    state_base,
                    label: None,
                }],
            }],
            sm_offset: 0,
        };
        (gpu, launch)
    }

    #[test]
    fn pricing_every_register_limit_equals_launching_at_each() {
        let mut kernels: Vec<Kernel> = streambench::suite()
            .iter()
            .flat_map(|b| {
                let graph = b.spec.flatten().unwrap();
                graph
                    .nodes()
                    .iter()
                    .map(|n| Kernel::load(&n.work))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let st = f.state(ElemTy::I32, Scalar::I32(5));
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.push(0, Expr::state(st).add(Expr::local(x)));
        f.store_state(st, Expr::state(st).add(Expr::i32(1)));
        kernels.push(Kernel::load(&f.build().unwrap()));

        let limits = [8, 16, 20, 32, 64];
        let (mut spilled, mut infeasible, mut stateful, mut staged) = (0, 0, 0, 0);
        for kernel in &kernels {
            let estimate = kernel.work().info().reg_estimate;
            for threads in [16, 32, 128, 256] {
                // Staged at the larger thread counts where the window fits.
                let stage = threads >= 128 && {
                    let (_, launch) = priced_instance(kernel, threads, true);
                    staging_bytes(&launch.blocks[0].items[0]) <= 16 * 1024
                };
                let (mut gpu, launch) = priced_instance(kernel, threads, stage);
                let priced = gpu.price_reg_limits(&launch, &limits);
                assert_eq!(priced.len(), limits.len());
                for (&regs, priced) in limits.iter().zip(priced) {
                    let (mut gpu, mut launch) = priced_instance(kernel, threads, stage);
                    launch.regs_per_thread = regs;
                    let launched = match gpu.run(&launch) {
                        Ok(stats) => Ok(Some(
                            stats.per_sm_cycles.iter().copied().fold(0.0f64, f64::max),
                        )),
                        Err(SimError::LaunchConfig(_)) => Ok(None),
                        Err(e) => Err(e),
                    };
                    let bits = |r: &Result<Option<f64>>| r.clone().map(|c| c.map(f64::to_bits));
                    assert_eq!(
                        bits(&priced),
                        bits(&launched),
                        "{regs} regs x {threads} threads, reg estimate {estimate}"
                    );
                    match launched {
                        Ok(None) => infeasible += 1,
                        Ok(Some(_)) => {
                            spilled += usize::from(regs < estimate);
                            stateful += usize::from(kernel.work().is_stateful());
                            staged += usize::from(stage);
                        }
                        Err(e) => panic!("synthetic input trapped: {e}"),
                    }
                }
            }
        }
        assert!(spilled > 0 && infeasible > 0 && stateful > 0 && staged > 0);
    }

    /// Every suite kernel and a stateful one, priced and run: the stats
    /// agree in every counter and every bit of their cycles, on both
    /// layouts, staged and not, over full and partial warps, spilling and
    /// not, down either dispatch path. A priced launch leaves memory
    /// alone; only DES's S-boxes, whose table index is data, run.
    #[test]
    fn priced_launches_equal_runs_bit_for_bit() {
        let mut kernels: Vec<Kernel> = streambench::suite()
            .iter()
            .flat_map(|b| {
                let graph = b.spec.flatten().unwrap();
                (graph.nodes().iter())
                    .map(|n| Kernel::load(&n.work))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let st = f.state(ElemTy::I32, Scalar::I32(5));
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.push(0, Expr::state(st).add(Expr::local(x)));
        f.store_state(st, Expr::state(st).add(Expr::i32(1)));
        kernels.push(Kernel::load(&f.build().unwrap()));

        let bits = |s: &LaunchStats| {
            let per_sm: Vec<u64> = s.per_sm_cycles.iter().map(|c| c.to_bits()).collect();
            (s.cycles.to_bits(), s.time_secs.to_bits(), per_sm)
        };
        let mut priced = 0;
        for kernel in &kernels {
            for layout in [Layout::Transposed { group: 128 }, Layout::Sequential] {
                for threads in [16, 48, 128] {
                    let stage = threads >= 128 && {
                        let (_, launch) = instance_over(kernel, threads, true, layout);
                        staging_bytes(&launch.blocks[0].items[0]) <= 16 * 1024
                    };
                    for (regs, dispatch) in
                        [(16, Dispatch::HostLaunch), (64, Dispatch::GraphReplay)]
                    {
                        let (mut ran, mut launch) = instance_over(kernel, threads, stage, layout);
                        launch.regs_per_thread = regs;
                        let (mut walked, _) = instance_over(kernel, threads, stage, layout);
                        let image = |gpu: &Gpu| -> Vec<u32> {
                            let words = u64::from(gpu.allocated_words());
                            (0..words).map(|a| gpu.memory().read(a).unwrap()).collect()
                        };
                        let before = image(&walked);
                        let expected = ran.run_dispatched(&launch, dispatch).unwrap();
                        let got = walked.price_dispatched(&launch, dispatch).unwrap();
                        let ctx = format!("{layout:?}, {threads} threads, {regs} regs");
                        assert_eq!(got, expected, "{ctx}");
                        assert_eq!(bits(&got), bits(&expected), "{ctx}");
                        assert_eq!(walked.launches_attempted(), 1);
                        if kernel.value_oblivious() {
                            assert!(image(&walked) == before, "{ctx}: a priced launch wrote");
                            priced += 1;
                        }
                    }
                }
            }
        }
        let walked: Vec<&Kernel> = kernels.iter().filter(|k| !k.value_oblivious()).collect();
        assert_eq!(walked.len(), 16, "only DES's 16 S-boxes run");
        assert!(walked.iter().all(|k| k.work().tables().len() == 1));
        assert!(priced > 1000, "{priced}");
    }

    /// Sequential single-region ports for `firings` firings of `work`,
    /// back to back from word 0, and the words they span. `wrap` makes
    /// the input regions one token short, so the last firing wraps.
    fn flat_ports(
        work: &WorkFunction,
        firings: u32,
        wrap: bool,
    ) -> (Vec<BufferBinding>, Vec<BufferBinding>, u32) {
        let mut base = 0;
        let mut span = |rate: u32, extent: u32, wrap: bool| {
            let tokens = u64::from((firings - 1) * rate + extent.max(rate)) + 3;
            let binding = BufferBinding {
                base_word: base,
                region_tokens: if wrap { tokens - 1 } else { tokens }.max(1),
                regions: 1,
                layout: Layout::Sequential,
                consumer_rate: 1,
                endpoint_rate: rate,
                abs_start: 3,
            };
            base += binding.region_tokens as u32 + 7;
            binding
        };
        let ins = (0..work.input_ports().len() as u8)
            .map(|p| span(work.pop_rate(p), work.peek_rate(p), wrap))
            .collect();
        let outs = (0..work.output_ports().len() as u8)
            .map(|p| span(work.push_rate(p), work.push_rate(p), false))
            .collect();
        (ins, outs, base)
    }

    /// Every suite kernel fired wide writes what the warp core writes, for
    /// batches of one, a partial warp, a partial wide group and several
    /// groups, over arbitrary bits (NaNs included); DES's S-boxes, which
    /// fall back to the warp core, too. A binding the firings would wrap
    /// also falls back.
    #[test]
    fn wide_firings_write_what_the_warp_core_writes() {
        let kernels = streambench::suite().into_iter().flat_map(|b| {
            let graph = b.spec.flatten().unwrap();
            (graph.nodes().iter())
                .map(|n| Kernel::load(&n.work))
                .collect::<Vec<_>>()
        });
        let mut wide = 0;
        for kernel in kernels {
            let work = kernel.work();
            for firings in [1, 20, 300] {
                for wrap in [false, true] {
                    if wrap && work.input_ports().is_empty() {
                        continue;
                    }
                    let (inputs, outputs, words) = flat_ports(work, firings, wrap);
                    let inst = InstanceExec {
                        kernel: &kernel,
                        active_threads: firings,
                        inputs,
                        outputs,
                        shared_staging: false,
                        state_base: None,
                        label: None,
                    };
                    let mut warp = DeviceMemory::new(words + 64);
                    let mut seed = 0x9e37_79b9_7f4a_7c15_u64 ^ u64::from(firings);
                    for a in 0..warp.len() {
                        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        warp.write(u64::from(a), (seed >> 32) as u32).unwrap();
                    }
                    let mut fired = warp.clone();
                    let want = inst.execute(&mut warp);
                    assert_eq!(inst.execute_wide(&mut fired), want);
                    let image = |m: &DeviceMemory| -> Vec<u32> {
                        (0..m.len())
                            .map(|a| m.read(u64::from(a)).unwrap())
                            .collect()
                    };
                    assert!(
                        image(&fired) == image(&warp),
                        "{firings} firings, wrap {wrap}"
                    );
                    wide += u32::from(kernel.value_oblivious() && !wrap);
                }
            }
        }
        assert!(wide > 900, "{wide}");
    }

    /// A priced launch whose walk leaves device memory, or reaches the
    /// watchdog budget, reports exactly what the simulator reports.
    #[test]
    fn priced_launches_leave_faults_to_the_simulator() {
        let work = doubler();
        assert!(work.value_oblivious());
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let n = 64;
        let inp = gpu.alloc_tokens(n);
        let words = gpu.memory().len();
        let launch = simple_launch(&work, inp, words - n / 2, n, Layout::Sequential);
        let expected = gpu.clone().run(&launch).unwrap_err();
        assert!(matches!(expected, SimError::BadAddress { .. }));
        assert_eq!(
            gpu.price_dispatched(&launch, Dispatch::HostLaunch),
            Err(expected)
        );

        let (mut gpu, work, inp, out, n) = faultable_setup();
        gpu.set_watchdog_budget(Some(2));
        let launch = simple_launch(&work, inp, out, n, Layout::Sequential);
        let timeout = SimError::WatchdogTimeout {
            budget: 2,
            launch: 0,
        };
        assert_eq!(
            gpu.price_dispatched(&launch, Dispatch::HostLaunch),
            Err(timeout)
        );
        assert_eq!(gpu.launches_attempted(), 1);
    }

    /// What makes a kernel's walk value-dependent, one kernel each, next
    /// to the constant-folded form of the same construct.
    #[test]
    fn value_dependent_kernels_are_not_oblivious() {
        let kernel = |build: &dyn Fn(&mut FnBuilder, streamir::ir::LocalId)| {
            let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
            let x = f.local(ElemTy::I32);
            f.pop_into(0, x);
            build(&mut f, x);
            Kernel::load(&f.build().unwrap())
        };
        let x = |x| Expr::local(x);
        let divide = |d: fn(Expr) -> Expr| {
            kernel(&move |f, v| {
                f.push(0, Expr::i32(100).div(d(x(v))));
            })
        };
        assert!(!divide(|v| v).value_oblivious(), "a varying divisor");
        assert!(divide(|_| Expr::i32(7)).value_oblivious());
        assert!(
            !divide(|_| Expr::i32(0)).value_oblivious(),
            "a zero divisor"
        );

        let gate = |c: fn(Expr) -> Expr| {
            kernel(&move |f, v| {
                let triple = streamir::ir::Stmt::Assign(v, x(v).mul(Expr::i32(3)));
                f.if_else(c(x(v)), vec![triple], vec![]);
                f.push(0, x(v));
            })
        };
        assert!(
            !gate(|v| v.ne(Expr::i32(0))).value_oblivious(),
            "a varying branch"
        );
        assert!(gate(|_| Expr::i32(1).ne(Expr::i32(0))).value_oblivious());

        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let t = f.table(streamir::ir::Table::i32(&[4, 5, 6, 7]));
        let v = f.local(ElemTy::I32);
        f.pop_into(0, v);
        f.push(0, Expr::table(t, x(v).bitand(Expr::i32(3))));
        f.push(0, Expr::table(t, Expr::i32(2)));
        assert!(
            !Kernel::load(&f.build().unwrap()).value_oblivious(),
            "a varying table index"
        );
    }
}
