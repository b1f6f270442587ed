//! Kernel launches and the top-level [`Gpu`] handle.

use streamir::ir::WorkFunction;

use crate::config::DeviceConfig;
use crate::exec::{run_warp, ExecLimits, Program, TripKind, WarpCtx, WarpState};
use crate::fault::{FaultKind, FaultPlan};
use crate::layout::{BufferBinding, WARP_LANES};
use crate::mem::{Allocator, DeviceMemory};
use crate::stats::{InstanceStats, LaunchStats};
use crate::timing::TimingModel;
use crate::{Result, SimError};

/// A work function loaded for the device: the kernel IR paired with the
/// warp program it decodes to. Load it once per compiled artifact and
/// launch it as often as needed — [`Gpu::run`] never decodes.
#[derive(Debug)]
pub struct Kernel {
    work: WorkFunction,
    program: Program,
}

impl Kernel {
    /// Decodes `work` for warp-wide execution.
    #[must_use]
    pub fn load(work: &WorkFunction) -> Kernel {
        Kernel {
            program: Program::decode(work),
            work: work.clone(),
        }
    }

    /// The work function this kernel fires.
    #[must_use]
    pub fn work(&self) -> &WorkFunction {
        &self.work
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
    /// Diagnostic label shown in launch-configuration errors.
    pub label: Option<&'a str>,
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

    /// Removes any installed fault plan.
    pub fn clear_faults(&mut self) {
        self.fault_plan = None;
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

    /// Replays `launch` as a captured graph: identical functional
    /// execution and fault semantics to [`Gpu::run`], but the fixed host
    /// launch path is replaced by the replay doorbell. The one-time
    /// capture cost is the *caller's* to bill (via
    /// [`TimingModel::graph_capture_cycles`]) — this models only the
    /// per-replay economics.
    ///
    /// # Errors
    ///
    /// Exactly as [`Gpu::run`].
    pub fn run_replay(&mut self, launch: &Launch<'_>) -> Result<LaunchStats> {
        self.run_dispatched(launch, Dispatch::GraphReplay)
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
        self.validate(launch)?;

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

        let mut per_sm = vec![0.0f64; self.config.num_sms as usize];
        let mut totals = LaunchStats {
            per_sm_cycles: Vec::new(),
            launches: 1,
            ..LaunchStats::default()
        };
        let mut total_transactions = 0u64;
        let mut warp_state = WarpState::default();

        for (b, block) in launch.blocks.iter().enumerate() {
            let sm = (b + launch.sm_offset as usize) % self.config.num_sms as usize;
            for inst in &block.items {
                let stats = self.run_instance(launch, inst, &mut warp_state, &mut limits)?;
                per_sm[sm] += self.timing.instance_cycles(&stats);
                total_transactions += stats.mem_transactions + stats.spill_transactions;
                totals.warp_instructions += stats.warp_instructions;
                totals.mem_access_insts += stats.mem_access_insts;
                totals.mem_transactions += stats.mem_transactions;
                totals.shared_accesses += stats.shared_accesses;
                totals.bank_conflict_passes += stats.bank_conflict_passes;
                totals.divergent_branches += stats.divergent_branches;
                totals.spill_transactions += stats.spill_transactions;
            }
        }

        // An armed hang/corruption that the (small) prefix budget did not
        // trip mid-run still kills the launch: the hang strikes at the
        // kernel tail, the corruption is detected at the final sync.
        if matches!(fault, Some(FaultKind::Hang | FaultKind::MemCorruption)) {
            limits.remaining = 0;
            return Err(limits.trip_error());
        }

        // An overhead spike multiplies whichever launch path this
        // dispatch actually took: a spiked replay burns extra doorbell
        // cycles, not the driver path it never walked.
        let (cycles, path_overhead) = match dispatch {
            Dispatch::HostLaunch => (
                self.timing
                    .launch_cycles(&per_sm, total_transactions, launch.blocks.len() as u64),
                self.timing.launch_overhead_cycles,
            ),
            Dispatch::GraphReplay => {
                totals.graph_replays = 1;
                (
                    self.timing.replay_cycles(
                        &per_sm,
                        total_transactions,
                        launch.blocks.len() as u64,
                    ),
                    self.timing.graph_replay_overhead_cycles,
                )
            }
        };
        totals.launch_path_cycles = path_overhead;
        totals.fault_overhead_cycles = (spike_factor - 1.0) * path_overhead;
        totals.spike_cycles = totals.fault_overhead_cycles;
        totals.per_sm_cycles = per_sm;
        totals.cycles = cycles + totals.fault_overhead_cycles;
        totals.time_secs = self.timing.secs(totals.cycles);
        Ok(totals)
    }

    fn validate(&self, launch: &Launch<'_>) -> Result<()> {
        let cfg = &self.config;
        if cfg.warp_size as usize > WARP_LANES {
            return Err(SimError::LaunchConfig(format!(
                "warp size {} exceeds the {WARP_LANES} lanes the simulator models",
                cfg.warp_size
            )));
        }
        if launch.threads_per_block == 0 || launch.threads_per_block > cfg.max_threads_per_block {
            return Err(SimError::LaunchConfig(format!(
                "threads per block {} outside 1..={}",
                launch.threads_per_block, cfg.max_threads_per_block
            )));
        }
        let regs_needed = launch
            .regs_per_thread
            .saturating_mul(launch.threads_per_block);
        if regs_needed > cfg.registers_per_sm {
            return Err(SimError::LaunchConfig(format!(
                "register file exhausted: {} regs/thread x {} threads = {} > {}",
                launch.regs_per_thread, launch.threads_per_block, regs_needed, cfg.registers_per_sm
            )));
        }
        for block in &launch.blocks {
            for inst in &block.items {
                if inst.active_threads == 0 || inst.active_threads > launch.threads_per_block {
                    return Err(SimError::LaunchConfig(format!(
                        "instance {:?} uses {} threads in a {}-thread block",
                        inst.label, inst.active_threads, launch.threads_per_block
                    )));
                }
                let work = inst.kernel.work();
                if inst.inputs.len() != work.input_ports().len()
                    || inst.outputs.len() != work.output_ports().len()
                {
                    return Err(SimError::LaunchConfig(format!(
                        "instance {:?} binding arity mismatch",
                        inst.label
                    )));
                }
                if work.is_stateful() {
                    if inst.state_base.is_none() {
                        return Err(SimError::LaunchConfig(format!(
                            "stateful instance {:?} has no state buffer",
                            inst.label
                        )));
                    }
                    if inst.active_threads != 1 {
                        return Err(SimError::LaunchConfig(format!(
                            "stateful instance {:?} must run single-threaded, got {}",
                            inst.label, inst.active_threads
                        )));
                    }
                }
                if inst.shared_staging {
                    let bytes = staging_bytes(inst);
                    if bytes > u64::from(cfg.shared_mem_per_sm) {
                        return Err(SimError::LaunchConfig(format!(
                            "instance {:?} staging window of {bytes} B exceeds {} B shared memory",
                            inst.label, cfg.shared_mem_per_sm
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    fn run_instance(
        &mut self,
        launch: &Launch<'_>,
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

        for w in 0..warps {
            let lane0 = w * warp;
            let active = warp.min(inst.active_threads - lane0);
            let ctx = WarpCtx {
                prog: &inst.kernel.program,
                lane0_tid: lane0,
                active,
                inputs: &inst.inputs,
                outputs: &inst.outputs,
                shared_staging: inst.shared_staging,
                half_warp: self.config.warp_size / 2,
                txn_words: u64::from(self.config.transaction_words()),
                state_base: inst.state_base,
            };
            run_warp(&ctx, warp_state, &mut self.memory, &mut stats, limits)?;
        }

        if inst.shared_staging {
            // One coalesced bulk copy each way: in-window before, pushes
            // after. Each warp-wide copy step moves 32 words in one access
            // instruction and two 64-byte transactions.
            let tokens = staging_bytes(inst) / 4;
            let steps = tokens.div_ceil(u64::from(warp));
            stats.warp_instructions += steps;
            stats.mem_access_insts += steps;
            stats.mem_transactions += steps * 2;
        }

        // Register spills: every firing reloads/spills the excess live
        // values from per-thread local memory (coalesced).
        let spilled = u64::from(
            inst.kernel
                .work()
                .info()
                .reg_estimate
                .saturating_sub(launch.regs_per_thread),
        );
        if spilled > 0 {
            let spill_accesses = 2 * spilled * u64::from(warps);
            stats.spill_access_insts += spill_accesses;
            stats.spill_transactions += spill_accesses * 2;
            stats.warp_instructions += spill_accesses;
        }
        Ok(stats)
    }
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
}
