//! Fault recovery for one run: the state checkpoint, the adaptive
//! watchdog, the k-launch commit window and the [`Sequencer`] that issues
//! launch ordinals through them.

use gpusim::{CheckpointMode, Dispatch, Gpu, InstanceBills, Launch, LaunchStats, SimError};

use super::RetryPolicy;
use crate::{Error, Result};

/// The retry protocol's checkpoint of the only device state a launch
/// mutates *in place*: the stateful filters' state words. Every other
/// word a launch writes (channel tokens, outputs) is a deterministic
/// function of inputs the launch does not overwrite — and within one
/// launch each block's producer→consumer instance order re-runs
/// identically — so relaunching after a partial execution recomputes
/// those words bit-identically. Restoring the committed snapshot
/// therefore returns the device to the last consistent buffer state.
///
/// Two protocols, priced by the timing model's checkpoint cost model:
///
/// * [`CheckpointMode::HostRoundTrip`] — capture copies the state words
///   to the host before each launch; a restore copies them back. Both
///   directions pay the host-transfer latency plus per-word cost.
/// * [`CheckpointMode::DeviceDoubleBuffered`] — the state words are
///   additionally mirrored into one of two on-device shadow buffers
///   (alternating per launch); commit and restore are device-to-device
///   copies at the much cheaper per-word commit cost, with no host
///   latency. A host mirror is still kept so recovery can be *validated*
///   bit-identical against the committed snapshot — the mirror is a
///   correctness check, not a billed mechanism.
///
/// When no fault plan is armed the protocol is unbilled and the shadow
/// buffers are never allocated, so fault-free runs are byte-identical to
/// the pre-checkpointing executor.
pub(super) struct Checkpointer {
    /// `(live state base, word count)` per stateful filter.
    regions: Vec<(u32, u32)>,
    /// State words in all regions.
    words: u64,
    /// Host copy of the last committed snapshot, regions concatenated.
    committed: Vec<u32>,
    mode: CheckpointMode,
    /// The two on-device shadow buffers (double-buffered mode, armed).
    shadow: Option<[u32; 2]>,
    /// Which shadow buffer holds the last committed snapshot.
    current: usize,
    /// Whether a fault plan is armed (enables billing + shadow writes).
    armed: bool,
}

impl Checkpointer {
    pub(super) fn new(
        gpu: &mut Gpu,
        regions: Vec<(u32, u32)>,
        mode: CheckpointMode,
        armed: bool,
    ) -> Result<Checkpointer> {
        let words: u32 = regions.iter().map(|&(_, len)| len).sum();
        let shadow = if armed && mode == CheckpointMode::DeviceDoubleBuffered && words > 0 {
            Some([gpu.try_alloc_tokens(words)?, gpu.try_alloc_tokens(words)?])
        } else {
            None
        };
        Ok(Checkpointer {
            regions,
            words: u64::from(words),
            committed: Vec::new(),
            mode,
            shadow,
            current: 0,
            armed,
        })
    }

    /// Snapshots the live state words before a launch. Returns the billed
    /// checkpoint cycles (0 when unarmed or stateless).
    fn commit(&mut self, gpu: &mut Gpu) -> Result<f64> {
        let mut snap = Vec::with_capacity(self.committed.len());
        for &(base, len) in &self.regions {
            for i in 0..len {
                snap.push(gpu.memory().read(u64::from(base + i))?);
            }
        }
        self.committed = snap;
        let words = self.words;
        if !self.armed || words == 0 {
            return Ok(0.0);
        }
        match self.mode {
            CheckpointMode::HostRoundTrip => Ok(gpu.timing().checkpoint_capture_cycles(words)),
            CheckpointMode::DeviceDoubleBuffered => {
                // One extra on-device state write per launch: mirror the
                // snapshot into the alternate shadow buffer and flip.
                let cost = gpu.timing().state_copy_cycles(words);
                let next = 1 - self.current;
                if let Some(shadow) = self.shadow {
                    for (i, &w) in self.committed.iter().enumerate() {
                        gpu.memory_mut()
                            .write(u64::from(shadow[next]) + i as u64, w)?;
                    }
                }
                self.current = next;
                Ok(cost)
            }
        }
    }

    /// Restores the last committed snapshot after a transient fault.
    /// Returns the billed restore cycles (0 when unarmed or stateless).
    fn restore(&self, gpu: &mut Gpu) -> Result<f64> {
        let words = self.words;
        let mut cost = 0.0;
        if self.armed && words > 0 {
            cost = match self.mode {
                CheckpointMode::HostRoundTrip => gpu.timing().checkpoint_restore_cycles(words),
                CheckpointMode::DeviceDoubleBuffered => gpu.timing().state_copy_cycles(words),
            };
        }
        // Double-buffered recovery reads the committed on-device shadow;
        // validate it bit-identical against the host mirror before
        // trusting it.
        if let Some(shadow) = self.shadow {
            for (i, &expect) in self.committed.iter().enumerate() {
                let got = gpu
                    .memory()
                    .read(u64::from(shadow[self.current]) + i as u64)?;
                if got != expect {
                    return Err(Error::Api(format!(
                        "double-buffered checkpoint corrupt: shadow word {i} \
                         is {got:#x}, committed mirror says {expect:#x}"
                    )));
                }
            }
        }
        let mut it = self.committed.iter();
        for &(base, len) in &self.regions {
            for i in 0..len {
                let w = *it.next().expect("committed snapshot covers all regions");
                gpu.memory_mut().write(u64::from(base + i), w)?;
            }
        }
        Ok(cost)
    }
}

/// The adaptive hang-detection tuner behind
/// [`RunOptions::watchdog_margin`]: tracks the largest instruction count
/// any successful launch has issued and keeps the device's watchdog
/// budget at `margin ×` that evidence. Inert at margin 0.
struct WatchdogTuner {
    /// Tightening factor (0 = disabled, the device default stands).
    margin: u64,
    /// The device's true (display-interval) watchdog budget.
    default_budget: u64,
    /// Largest warp-instruction count a successful launch has issued.
    max_insts: u64,
}

impl WatchdogTuner {
    fn new(margin: u64, default_budget: u64) -> WatchdogTuner {
        WatchdogTuner {
            margin,
            default_budget,
            max_insts: 0,
        }
    }

    /// Re-tightens the budget from a successful launch's true size.
    fn observe_success(&mut self, gpu: &mut Gpu, stats: &LaunchStats) {
        if self.margin == 0 {
            return;
        }
        self.max_insts = self.max_insts.max(stats.warp_instructions);
        let tight = self
            .max_insts
            .saturating_mul(self.margin)
            .clamp(1, self.default_budget);
        gpu.set_watchdog_budget(Some(tight));
    }

    /// Reacts to a transient fault. Returns whether the failure counts
    /// against the retry budget: a watchdog kill at a *tightened* budget
    /// may be the tuner's own false positive (a launch legitimately
    /// bigger than `margin ×` everything seen so far), so the armed
    /// budget doubles and the attempt is billed but not counted —
    /// progress is guaranteed because the budget reaches the device
    /// default after finitely many doublings, where kills count again.
    fn absorb_fault(&mut self, gpu: &mut Gpu, err: &SimError) -> bool {
        if self.margin == 0 || !matches!(err, SimError::WatchdogTimeout { .. }) {
            return true;
        }
        let armed = gpu.watchdog_budget();
        if armed >= self.default_budget {
            return true;
        }
        gpu.set_watchdog_budget(Some(armed.saturating_mul(2).min(self.default_budget)));
        false
    }
}

/// What recovering one launch has cost so far.
#[derive(Default)]
struct Recovery {
    /// Attempts counted against the retry budget; kills at a tightened
    /// watchdog budget retry for free (see [`WatchdogTuner`]) but still
    /// show up in `tries` (and the retry counters and the billing).
    counted: u32,
    tries: u64,
    failed_cycles: f64,
    checkpoint_cycles: f64,
    replay_cycles: f64,
}

/// Issues the launch ordinals of one run, each with bounded
/// retry-with-replay, and owns everything the run mutates: the device,
/// the checkpoint, the commit window, the watchdog budget and the run's
/// totals.
pub(super) struct Sequencer<'g, 'p, B> {
    gpu: &'g mut Gpu,
    /// The launch of an ordinal and the path it dispatches on. A window
    /// replay asks for the ordinal it repeats, so it re-enters the
    /// captured graph when that ordinal was graph-dispatched: recovery
    /// replays the same path the original launch took, at the same cost.
    build: B,
    checkpoint: Checkpointer,
    tuner: WatchdogTuner,
    max_attempts: u32,
    /// The k-launch commit window: the state checkpoint commits every
    /// `interval` launches and `pending` holds the ordinals completed
    /// since the last commit. At `interval == 1` the window drains after
    /// every launch and recovery degenerates exactly to per-launch
    /// commit-and-retry; at `interval == k > 1` recovery replays the
    /// window.
    interval: usize,
    pending: Vec<u64>,
    totals: LaunchStats,
    retries: u64,
    trace: Vec<f64>,
    /// Price launches from the kernels' walks where that is exact
    /// ([`Gpu::price_memoized`]) instead of running them, each distinct
    /// instance placement once for the whole loop: set for the launch
    /// loops of value-oblivious artifacts that read no output from the
    /// device (fault-free runs, whose outputs fire on the host, and scaled
    /// measurements).
    pub(super) bills: Option<InstanceBills<'p>>,
}

impl<'g, 'p, B: Fn(u64) -> (Launch<'p>, Dispatch)> Sequencer<'g, 'p, B> {
    /// `totals` is what the run has billed before its first launch (the
    /// graph capture); `watchdog_margin` 0 leaves the watchdog alone.
    pub(super) fn new(
        gpu: &'g mut Gpu,
        build: B,
        checkpoint: Checkpointer,
        retry: RetryPolicy,
        interval: u32,
        watchdog_margin: u64,
        totals: LaunchStats,
    ) -> Sequencer<'g, 'p, B> {
        Sequencer {
            tuner: WatchdogTuner::new(watchdog_margin, gpu.watchdog_budget()),
            gpu,
            build,
            checkpoint,
            max_attempts: retry.max_attempts.max(1),
            interval: interval.max(1) as usize,
            pending: Vec::new(),
            totals,
            retries: 0,
            trace: Vec::new(),
            bills: None,
        }
    }

    /// Completes launch `ordinal` and merges it into the run. On a
    /// transient fault ([`SimError::is_transient`]) the stateful-state
    /// checkpoint is restored, every launch completed since the last
    /// commit is *replayed* from its (still-live, replay-slack-planned)
    /// inputs, and the faulted launch is re-run. The fault plan draws per
    /// lifetime attempt ordinal, so every retry and every replay gets a
    /// fresh, independent draw; a fault during replay restores again and
    /// restarts the whole window, spending the same bounded attempts
    /// budget.
    ///
    /// Billing is truthful and disjoint: failed attempts into
    /// [`LaunchStats::failed_attempt_cycles`], commit/restore copies into
    /// [`LaunchStats::checkpoint_cycles`], replayed launches' full cost
    /// into [`LaunchStats::replay_cycles`] — all folded into
    /// `fault_overhead_cycles` and the wall cycles of the returned stats.
    pub(super) fn issue(&mut self, ordinal: u64) -> Result<LaunchStats> {
        let mut bill = Recovery::default();
        // The checkpoint commits only at window boundaries: every k-th
        // launch opens a fresh window over a just-committed snapshot.
        if self.pending.is_empty() {
            bill.checkpoint_cycles = self.checkpoint.commit(self.gpu)?;
        }
        // What stands between the last commit and a completed `ordinal`
        // is the window, then the launch; a fault anywhere falls back to
        // the window's first entry.
        let mut next = self.pending.len();
        let mut stats = loop {
            let replayed = self.pending.get(next).copied();
            match self.attempt(replayed.unwrap_or(ordinal), replayed.is_some(), &mut bill)? {
                None => next = 0,
                Some(stats) if replayed.is_none() => break stats,
                Some(replay) => {
                    bill.replay_cycles += replay.cycles;
                    next += 1;
                }
            }
        };
        stats.retries = bill.tries;
        let overhead = bill.failed_cycles + bill.checkpoint_cycles + bill.replay_cycles;
        if overhead > 0.0 {
            stats.fault_overhead_cycles += overhead;
            stats.failed_attempt_cycles += bill.failed_cycles;
            stats.checkpoint_cycles += bill.checkpoint_cycles;
            stats.replay_cycles += bill.replay_cycles;
            stats.cycles += overhead;
            stats.time_secs = self.gpu.timing().secs(stats.cycles);
        }
        self.pending.push(ordinal);
        if self.pending.len() >= self.interval {
            self.pending.clear();
        }
        self.trace.push(stats.cycles);
        self.totals.merge(&stats);
        Ok(stats)
    }

    /// One attempt at `ordinal`, first run or window replay: its stats,
    /// or `None` once a transient fault has been billed and the
    /// checkpoint restored.
    fn attempt(
        &mut self,
        ordinal: u64,
        replay: bool,
        bill: &mut Recovery,
    ) -> Result<Option<LaunchStats>> {
        let (launch, dispatch) = (self.build)(ordinal);
        let result = match &mut self.bills {
            Some(bills) => self.gpu.price_memoized(&launch, dispatch, bills),
            None => self.gpu.run_dispatched(&launch, dispatch),
        };
        match result {
            Ok(stats) => {
                // A replay repeats a launch the tuner has already seen. It
                // is no new evidence, and re-tightening on it would take
                // back the doubling a false kill of the launch under
                // recovery just earned, which is then killed forever: from
                // a kill to the killed launch's success the armed budget
                // never falls.
                if !replay {
                    self.tuner.observe_success(self.gpu, &stats);
                }
                Ok(Some(stats))
            }
            Err(e) if e.is_transient() => {
                if self.tuner.absorb_fault(self.gpu, &e) {
                    bill.counted += 1;
                    if bill.counted >= self.max_attempts {
                        return Err(Error::sim_while(
                            e,
                            format!(
                                "relaunching a faulted steady-state launch \
                                 (gave up after {} attempts)",
                                bill.counted
                            ),
                        ));
                    }
                }
                bill.tries += 1;
                self.retries += 1;
                // A faulted attempt's sunk cost depends on the path it
                // took: a rejected replay burned a doorbell, not a host
                // launch.
                bill.failed_cycles += match dispatch {
                    Dispatch::HostLaunch => self.gpu.timing().failed_attempt_cycles(&e),
                    Dispatch::GraphReplay => self.gpu.timing().failed_replay_attempt_cycles(&e),
                };
                bill.checkpoint_cycles += self.checkpoint.restore(self.gpu)?;
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Bills a span of launches as `sample`, the merged stats of an
    /// equally long simulated span, without simulating them (scaled
    /// measurement).
    pub(super) fn extrapolate(&mut self, sample: &LaunchStats) {
        self.totals.merge(sample);
    }

    /// The run's merged stats and per-launch cycles.
    pub(super) fn finish(mut self) -> (LaunchStats, Vec<f64>) {
        // The simulated-retry counter is exact even in scaled mode (where
        // merged steady-window stats are extrapolated, not re-simulated).
        self.totals.retries = self.retries;
        // Fault billing must account: the disjoint overhead components sum
        // to the fault overhead, which never exceeds the wall cycles.
        self.totals.assert_billing();
        (self.totals, self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{
        BlockWork, BufferBinding, DeviceConfig, FaultKind, FaultPlan, InstanceExec, Kernel, Layout,
    };
    use std::cell::RefCell;
    use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};

    const TOKENS: u32 = 64;

    /// A device running a running-sum kernel (`state += x; push state`):
    /// launch `r` fires it `weight(r)` times from token `8 r` on, so what
    /// memory holds afterwards depends on every launch having taken effect
    /// exactly once, in order.
    struct Rig {
        gpu: Gpu,
        kernel: Kernel,
        /// Input, output and state word addresses.
        addrs: [u32; 3],
        /// Every ordinal the sequencer asked for, in order.
        built: RefCell<Vec<u64>>,
    }

    impl Rig {
        fn new(faults: Option<FaultPlan>) -> Rig {
            let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
            let sum = f.state(ElemTy::I32, Scalar::I32(0));
            let x = f.local(ElemTy::I32);
            f.pop_into(0, x);
            f.store_state(sum, Expr::state(sum).add(Expr::local(x)));
            f.push(0, Expr::state(sum));
            let mut gpu = Gpu::new(DeviceConfig::small_test());
            let addrs = [
                gpu.alloc_tokens(TOKENS),
                gpu.alloc_tokens(TOKENS),
                gpu.alloc_tokens(1),
            ];
            for i in 0..TOKENS {
                gpu.memory_mut()
                    .write_token(addrs[0] + i, Scalar::I32(3 * i as i32 + 1));
            }
            if let Some(plan) = faults {
                gpu.inject_faults(plan);
            }
            Rig {
                gpu,
                kernel: Kernel::load(&f.build().expect("valid")),
                addrs,
                built: RefCell::new(Vec::new()),
            }
        }

        /// Issues launches `0..weights.len()` and returns each one's stats
        /// (or the first error) with the device memory they left behind.
        fn run(
            &mut self,
            weights: &[u64],
            retry: RetryPolicy,
            interval: u32,
            margin: u64,
        ) -> (Result<Vec<LaunchStats>>, Vec<u32>) {
            let Rig {
                gpu,
                kernel,
                addrs: [inp, out, state],
                built,
            } = self;
            let binding = |base: u32, abs_start: u64| BufferBinding {
                abs_start,
                ..BufferBinding::whole(base, TOKENS, ElemTy::I32, Layout::Sequential, 1)
            };
            let build = |r: u64| {
                built.borrow_mut().push(r);
                let items = (0..weights[r as usize])
                    .map(|j| InstanceExec {
                        kernel,
                        active_threads: 1,
                        inputs: vec![binding(*inp, 8 * r + j)],
                        outputs: vec![binding(*out, 8 * r + j)],
                        shared_staging: false,
                        state_base: Some(*state),
                        label: None,
                    })
                    .collect();
                let launch = Launch {
                    threads_per_block: 1,
                    regs_per_thread: 16,
                    blocks: vec![BlockWork { items }],
                    sm_offset: 0,
                };
                (launch, Dispatch::HostLaunch)
            };
            let armed = gpu.fault_plan().is_some();
            let checkpoint =
                Checkpointer::new(gpu, vec![(*state, 1)], CheckpointMode::HostRoundTrip, armed)
                    .expect("host round trips allocate nothing");
            let mut seq = Sequencer::new(
                gpu,
                build,
                checkpoint,
                retry,
                interval,
                margin,
                LaunchStats::default(),
            );
            let stats: Result<Vec<_>> = (0..weights.len() as u64).map(|r| seq.issue(r)).collect();
            let (_, trace) = seq.finish();
            if let Ok(stats) = &stats {
                assert_eq!(trace.len(), stats.len());
            }
            let image = (0..2 * TOKENS + 1)
                .map(|w| gpu.memory().read(u64::from(*inp + w)).expect("in range"))
                .collect();
            (stats, image)
        }
    }

    #[test]
    fn a_fault_during_replay_restarts_the_window_from_its_first_entry() {
        let retry = RetryPolicy { max_attempts: 4 };
        let mut clean = Rig::new(None);
        let (clean_stats, clean_image) = clean.run(&[1, 1, 1], retry, 4, 0);
        let clean_stats = clean_stats.expect("fault-free");
        assert_eq!(*clean.built.borrow(), [0, 1, 2]);

        // Launch 2 aborts partway (attempt 2). `replay_fault` then hits the
        // first or the second replay: either way the window starts over.
        for (replay_fault, built, replays) in [
            (3, vec![0, 1, 2, 0, 0, 1, 2], [1.0, 1.0]),
            (4, vec![0, 1, 2, 0, 1, 0, 1, 2], [2.0, 1.0]),
        ] {
            let plan = FaultPlan::new(1)
                .at_launch(2, FaultKind::MemCorruption)
                .at_launch(replay_fault, FaultKind::LaunchFailure);
            let mut rig = Rig::new(Some(plan));
            let (stats, image) = rig.run(&[1, 1, 1], retry, 4, 0);
            let stats = stats.expect("two faults fit four attempts");
            assert_eq!(*rig.built.borrow(), built);
            assert_eq!(rig.gpu.launches_attempted(), built.len() as u64);
            assert_eq!(image, clean_image, "recovery must be invisible in memory");
            assert_eq!(stats[2].retries, 2);
            assert_eq!(
                stats[2].replay_cycles,
                replays[0] * clean_stats[0].cycles + replays[1] * clean_stats[1].cycles,
                "every completed replay is billed, the faulted one as a failed attempt"
            );
            assert!(stats[2].failed_attempt_cycles > 0.0);
            stats[2].assert_billing();
        }
    }

    #[test]
    fn only_kills_at_the_true_budget_count_against_max_attempts() {
        let hangs = FaultPlan::new(1)
            .at_launch(1, FaultKind::Hang)
            .at_launch(2, FaultKind::Hang)
            .at_launch(3, FaultKind::Hang);
        let retry = RetryPolicy { max_attempts: 2 };

        // Tightened after launch 0: three kills, none counted.
        let mut rig = Rig::new(Some(hangs.clone()));
        let (stats, _) = rig.run(&[1, 1], retry, 1, 4);
        assert_eq!(stats.expect("tightened kills retry for free")[1].retries, 3);

        // Untouched watchdog: the second kill exhausts the policy, and the
        // error says what was being done and how often.
        let mut rig = Rig::new(Some(hangs));
        let budget = rig.gpu.watchdog_budget();
        let (stats, _) = rig.run(&[1, 1], retry, 1, 0);
        assert_eq!(
            stats.expect_err("two counted kills").to_string(),
            format!(
                "simulator error: watchdog killed launch attempt 2 after exhausting its \
                 instruction budget of {budget} (while relaunching a faulted steady-state \
                 launch (gave up after 2 attempts))"
            )
        );
        assert_eq!(*rig.built.borrow(), [0, 1, 1]);
    }

    /// ROADMAP 4(g): launch 1 is legitimately bigger than `margin x`
    /// launch 0, so the tightened watchdog kills it and doubles the budget.
    /// Replaying launch 0 must not take the doubling back, or launch 1 is
    /// killed forever; without a single retry allowed it still completes.
    #[test]
    fn a_replay_never_lowers_the_budget_a_false_kill_raised() {
        let retry = RetryPolicy { max_attempts: 1 };
        let (clean_stats, clean_image) = Rig::new(None).run(&[1, 8], retry, 2, 0);
        let big = clean_stats.expect("fault-free")[1].warp_instructions;

        let mut rig = Rig::new(Some(FaultPlan::new(1)));
        let (stats, image) = rig.run(&[1, 8], retry, 2, 2);
        let stats = stats.expect("false kills are not retries");
        assert_eq!(image, clean_image);
        assert!(stats[1].retries >= 2, "one doubling is not enough here");
        let built = rig.built.borrow();
        assert_eq!(built[..2], [0, 1]);
        assert!(built[2..].chunks(2).all(|pair| pair == [0, 1]), "{built:?}");
        assert_eq!(rig.gpu.watchdog_budget(), 2 * big);
        stats[1].assert_billing();
    }

    #[test]
    fn watchdog_tuner_tightens_doubles_on_false_kill_and_saturates() {
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let default = gpu.watchdog_budget();
        let mut tuner = WatchdogTuner::new(4, default);

        // A success with 100 warp instructions tightens the budget to
        // margin × max observed.
        let stats = LaunchStats {
            warp_instructions: 100,
            ..LaunchStats::default()
        };
        tuner.observe_success(&mut gpu, &stats);
        assert_eq!(gpu.watchdog_budget(), 400);

        // A larger success re-tightens upward; a smaller one does not
        // loosen (max is sticky).
        let bigger = LaunchStats {
            warp_instructions: 150,
            ..LaunchStats::default()
        };
        tuner.observe_success(&mut gpu, &bigger);
        assert_eq!(gpu.watchdog_budget(), 600);
        tuner.observe_success(&mut gpu, &stats);
        assert_eq!(gpu.watchdog_budget(), 600);

        // A watchdog kill below the default budget may be a false
        // positive: the attempt is uncounted and the budget doubles.
        let kill = SimError::WatchdogTimeout {
            budget: 600,
            launch: 0,
        };
        assert!(!tuner.absorb_fault(&mut gpu, &kill));
        assert_eq!(gpu.watchdog_budget(), 1200);

        // Doubling saturates at the default budget, where kills count
        // against the retry bound again — guaranteed progress.
        for _ in 0..64 {
            tuner.absorb_fault(&mut gpu, &kill);
        }
        assert_eq!(gpu.watchdog_budget(), default);
        assert!(tuner.absorb_fault(&mut gpu, &kill));

        // Non-watchdog transients always count.
        assert!(tuner.absorb_fault(&mut gpu, &SimError::LaunchFailed { launch: 0 }));

        // A disarmed tuner (margin 0) never touches the budget.
        gpu.set_watchdog_budget(None);
        let mut off = WatchdogTuner::new(0, gpu.watchdog_budget());
        off.observe_success(&mut gpu, &stats);
        assert_eq!(gpu.watchdog_budget(), default);
        assert!(off.absorb_fault(&mut gpu, &kill));
    }
}
