//! The profiling phase (Figure 6 of the paper).
//!
//! Every node of the flattened graph is priced standalone on the
//! simulated GPU at each `(register limit, thread count)` grid point,
//! against synthetic channel buffers laid out exactly as the final code
//! will lay them out. The register limit enters only the launch's
//! feasibility check and the spill bill, so one walk or functional run
//! per thread count prices every limit
//! ([`gpusim::Gpu::price_reg_limits`]): a value-oblivious kernel
//! ([`Kernel::value_oblivious`]) is priced from its abstract walk, any
//! other runs over synthetic tokens. A row is a function of the node's
//! work function alone, so nodes that share one share its row.
//! Infeasible points (register file exhausted) are recorded as such;
//! feasible points record the per-instance execution time the ILP will
//! use as `d(v)`.

use gpusim::{
    BlockWork, BufferBinding, DeviceConfig, Gpu, InstanceExec, Kernel, Launch, Layout, TimingModel,
};
use streamir::graph::{FlatGraph, NodeId};
use streamir::ir::{ElemTy, Scalar};

use crate::codegen::Kernels;
use crate::{par, Result};

/// Cycles per integer scheduling time unit: delays handed to the ILP are
/// `ceil(cycles / TIME_UNIT_CYCLES)`, keeping II magnitudes tractable.
pub const TIME_UNIT_CYCLES: f64 = 64.0;

/// The profiling grid and buffer regime.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOptions {
    /// Register limits to compile for (paper: 16, 20, 32, 64).
    pub reg_limits: Vec<u32>,
    /// Thread counts to execute with (paper: 128, 256, 384, 512).
    pub thread_counts: Vec<u32>,
    /// Buffer layout the profiled kernels use ([`Layout::Transposed`] for
    /// the coalesced scheme, [`Layout::Sequential`] for SWPNC — "the
    /// profile runs are also executed without memory access coalescing").
    pub layout: Layout,
    /// Stage the working set through shared memory when it fits (the
    /// SWPNC fallback).
    pub shared_staging: bool,
}

impl ProfileOptions {
    /// The paper's grid with the coalesced layout. Staging through shared
    /// memory applies whenever a filter's working set fits — part of the
    /// optimized code generation: sliding peek windows shift the warp base
    /// off the 64-byte alignment the G80 coalescing rule demands, so
    /// peek-heavy filters only coalesce via a bulk copy into shared memory
    /// (the paper's Filterbank/FMRadio discussion).
    #[must_use]
    pub fn paper() -> ProfileOptions {
        ProfileOptions {
            reg_limits: vec![16, 20, 32, 64],
            thread_counts: vec![128, 256, 384, 512],
            layout: Layout::Transposed { group: 128 },
            shared_staging: true,
        }
    }

    /// A reduced grid for unit tests and examples.
    #[must_use]
    pub fn small(threads: &[u32]) -> ProfileOptions {
        ProfileOptions {
            reg_limits: vec![16, 32],
            thread_counts: threads.to_vec(),
            layout: Layout::Transposed { group: 128 },
            shared_staging: true,
        }
    }
}

/// Measured per-instance execution times: `times[node][reg_idx][thread_idx]`
/// in cycles, `None` where the configuration is infeasible.
#[derive(Debug, Clone)]
pub struct ProfileTable {
    /// The register limits profiled (row axis).
    pub reg_limits: Vec<u32>,
    /// The thread counts profiled (column axis).
    pub thread_counts: Vec<u32>,
    /// `times[node][r][t]`.
    pub times: Vec<Vec<Vec<Option<f64>>>>,
}

impl ProfileTable {
    /// The measured cycles for `(node, reg index, thread index)`.
    #[must_use]
    pub fn cycles(&self, node: NodeId, reg_idx: usize, thr_idx: usize) -> Option<f64> {
        self.times[node.0 as usize][reg_idx][thr_idx]
    }

    /// The best thread index for a node at a register limit, considering
    /// only thread counts `<= max_threads`: minimal cycles *per firing*
    /// (an instance with `t` threads performs `t` firings), ties broken
    /// toward the higher SMT degree. On latency-bound filters the
    /// per-instance time is flat in the thread count, so the per-firing
    /// normalisation is what actually drives the paper's preference for
    /// high thread counts — until register pressure (spills) pushes back.
    #[must_use]
    pub fn best_thread_idx(&self, node: NodeId, reg_idx: usize, max_threads: u32) -> Option<usize> {
        (0..self.thread_counts.len())
            .filter(|&ti| self.thread_counts[ti] <= max_threads)
            .filter_map(|ti| {
                self.cycles(node, reg_idx, ti)
                    .map(|c| (ti, c / f64::from(self.thread_counts[ti])))
            })
            .min_by(|a, b| {
                a.1.total_cmp(&b.1)
                    .then(self.thread_counts[b.0].cmp(&self.thread_counts[a.0]))
            })
            .map(|(ti, _)| ti)
    }
}

/// Deterministic synthetic token for profiling input (never zero, so
/// filters that divide by inputs cannot trap on profile data).
#[must_use]
pub fn synthetic_token(ty: ElemTy, i: u64) -> Scalar {
    let v = (i % 17 + 1) as i32;
    match ty {
        ElemTy::I32 => Scalar::I32(v),
        ElemTy::F32 => Scalar::F32(v as f32 * 0.5),
    }
}

/// Profiles every node of `graph` over the grid (the paper's Figure 6
/// loop). The first node of each distinct work function is priced, and
/// later nodes with an equal work function share its row. When a grid
/// point simulates more than one warp, those nodes are profiled side by
/// side on the host's cores ([`crate::par::map`]); the table does not
/// depend on how many.
///
/// # Errors
///
/// Propagates device traps (a filter faulting on synthetic data indicates
/// a non-total work function), naming the first failing
/// `(node, register limit, thread count)` in node, then register, then
/// thread order. Infeasible launch configurations are *not* errors —
/// they become `None` entries, as in the paper.
pub fn profile(
    graph: &FlatGraph,
    opts: &ProfileOptions,
    device: &DeviceConfig,
    timing: &TimingModel,
) -> Result<ProfileTable> {
    // A one-warp point is mostly set-up: a whole serving-grid profile
    // takes well under a millisecond, less than waking an idle core can
    // cost, so only grids with larger points fan out.
    let fan_out = opts.thread_counts.iter().any(|&t| t > device.warp_size);
    let workers = if fan_out { par::cores() } else { 1 };
    profile_on(workers, graph, opts, device, timing)
}

/// [`profile`] on at most `workers` host threads.
pub(crate) fn profile_on(
    workers: usize,
    graph: &FlatGraph,
    opts: &ProfileOptions,
    device: &DeviceConfig,
    timing: &TimingModel,
) -> Result<ProfileTable> {
    // Each node's row is its work class's, priced through the class's
    // first node and kernel; a failing row therefore names the first node
    // that fails.
    let kernels = Kernels::of(graph);
    let rows = par::map_on(workers, &kernels.classes, |(node, kernel)| {
        profile_node(&graph.node(*node).name, kernel, opts, device, timing)
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    let times = kernels.class_of.iter().map(|&r| rows[r].clone()).collect();
    Ok(ProfileTable {
        reg_limits: opts.reg_limits.clone(),
        thread_counts: opts.thread_counts.clone(),
        times,
    })
}

/// One work class's `times[r][t]`, its errors naming filter `name`. A
/// thread count's one functional run prices every register limit; the
/// first error in register-major order wins, as when every grid point ran
/// on its own.
fn profile_node(
    name: &str,
    kernel: &Kernel,
    opts: &ProfileOptions,
    device: &DeviceConfig,
    timing: &TimingModel,
) -> Result<Vec<Vec<Option<f64>>>> {
    let by_threads: Vec<Vec<Result<Option<f64>>>> = opts
        .thread_counts
        .iter()
        .map(|&threads| {
            profile_threads(name, kernel, threads, opts, device, timing)
                // A set-up failure fails every limit, as it did each point.
                .unwrap_or_else(|e| vec![Err(e); opts.reg_limits.len()])
        })
        .collect();
    (0..opts.reg_limits.len())
        .map(|r| by_threads.iter().map(|col| col[r].clone()).collect())
        .collect()
}

/// One thread count: run a single instance (one thread-block-wide
/// firing) and price it at every register limit — its SM-busy cycles, or
/// `None` where infeasible.
fn profile_threads(
    name: &str,
    kernel: &Kernel,
    threads: u32,
    opts: &ProfileOptions,
    device: &DeviceConfig,
    timing: &TimingModel,
) -> Result<Vec<Result<Option<f64>>>> {
    let (mut gpu, launch) = instance_on_device(kernel, threads, opts, device, timing)?;
    let priced = gpu.price_reg_limits(&launch, &opts.reg_limits);
    Ok(priced
        .into_iter()
        .zip(&opts.reg_limits)
        .map(|(cycles, &regs)| cycles.map_err(|e| while_profiling(e, name, regs, threads)))
        .collect())
}

/// A device error at one grid point, named by filter, limit and threads.
fn while_profiling(e: gpusim::SimError, name: &str, regs: u32, threads: u32) -> crate::Error {
    crate::Error::sim_while(
        e,
        format!("profiling filter '{name}' at {regs} regs x {threads} threads"),
    )
}

/// A fresh device holding exactly one instance of `kernel` at `threads`
/// threads over synthetic input, and the launch that fires it. The
/// launch's register limit is left at 0 for the caller to price. A
/// value-oblivious kernel is priced without reading a token, so its
/// buffers are left zero.
fn instance_on_device<'k>(
    kernel: &'k Kernel,
    threads: u32,
    opts: &ProfileOptions,
    device: &DeviceConfig,
    timing: &TimingModel,
) -> Result<(Gpu, Launch<'k>)> {
    let work = kernel.work();
    let firings = if work.is_stateful() { 1 } else { threads };
    let in_tokens = |port: u8| {
        let (pop, peek) = (work.pop_rate(port), work.peek_rate(port));
        (firings * pop + (peek - pop)).max(1)
    };
    let out_tokens = |port: u8| (firings * work.push_rate(port)).max(1);
    let state_words = work.states().len().max(1) as u32;

    // The device holds exactly this instance's buffers (a fresh `Gpu`
    // zeroes its whole memory, once per node and thread count): every
    // allocation rounded up to the allocator's alignment.
    let mut config = device.clone();
    let align = config.transaction_words().max(1);
    config.device_mem_words = (0..work.input_ports().len() as u8)
        .map(in_tokens)
        .chain((0..work.output_ports().len() as u8).map(out_tokens))
        .chain(work.is_stateful().then_some(state_words))
        .map(|words| words.next_multiple_of(align))
        .sum();
    let mut gpu = Gpu::with_timing(config, timing.clone());

    let mut inputs = Vec::new();
    for port in 0..work.input_ports().len() as u8 {
        let pop = work.pop_rate(port);
        let tokens = in_tokens(port);
        let base = gpu.try_alloc_tokens(tokens)?;
        let ty = work.input_ports()[port as usize];
        let binding = BufferBinding {
            base_word: base,
            region_tokens: u64::from(tokens),
            regions: 1,
            layout: opts.layout,
            consumer_rate: pop.max(1),
            endpoint_rate: pop,
            abs_start: 0,
        };
        if !kernel.value_oblivious() {
            for i in 0..u64::from(tokens) {
                let slot = binding.layout.slot(i, pop.max(1), u64::from(tokens));
                gpu.memory_mut()
                    .write_token(base + slot as u32, synthetic_token(ty, i));
            }
        }
        inputs.push(binding);
    }
    let mut outputs = Vec::new();
    for port in 0..work.output_ports().len() as u8 {
        let push = work.push_rate(port);
        let tokens = out_tokens(port);
        let base = gpu.try_alloc_tokens(tokens)?;
        outputs.push(BufferBinding {
            base_word: base,
            region_tokens: u64::from(tokens),
            regions: 1,
            layout: opts.layout,
            consumer_rate: push.max(1),
            endpoint_rate: push,
            abs_start: 0,
        });
    }

    // Stateful filters execute single-threaded with device-resident state.
    let active = if work.is_stateful() { 1 } else { threads };
    let state_base = if work.is_stateful() {
        let base = gpu.try_alloc_tokens(state_words)?;
        if !kernel.value_oblivious() {
            for (i, st) in work.states().iter().enumerate() {
                gpu.memory_mut().write_token(base + i as u32, st.init);
            }
        }
        Some(base)
    } else {
        None
    };
    let staging = opts.shared_staging && staging_fits(work, active, device);
    let launch = Launch {
        threads_per_block: threads,
        regs_per_thread: 0,
        blocks: vec![BlockWork {
            items: vec![InstanceExec {
                kernel,
                active_threads: active,
                inputs,
                outputs,
                shared_staging: staging,
                state_base,
                label: None,
            }],
        }],
        sm_offset: 0,
    };
    Ok((gpu, launch))
}

/// Whether a node's working set fits in shared memory at this thread
/// count (the SWPNC staging criterion).
#[must_use]
pub fn staging_fits(
    work: &streamir::ir::WorkFunction,
    threads: u32,
    device: &DeviceConfig,
) -> bool {
    let t = u64::from(threads);
    let in_tokens: u64 = (0..work.input_ports().len() as u8)
        .map(|p| t * u64::from(work.peek_rate(p)))
        .sum();
    let out_tokens: u64 = (0..work.output_ports().len() as u8)
        .map(|p| t * u64::from(work.push_rate(p)))
        .sum();
    (in_tokens + out_tokens) * 4 <= u64::from(device.shared_mem_per_sm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{Expr, FnBuilder};

    /// Error texts of the trapping graph's profile, as the per-grid-point
    /// loop reported them.
    const SERVING_TRAP: &str = "simulator error: device trap: work function trapped: integer \
        division by zero (while profiling filter 'divide' at 16 regs x 16 threads)";
    const INVERTED_TRAP: &str = "simulator error: device trap: work function trapped: integer \
        division by zero (while profiling filter 'divide' at 64 regs x 128 threads)";

    fn simple_graph() -> FlatGraph {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.push(0, Expr::local(x).mul(Expr::i32(3)));
        StreamSpec::filter(FilterSpec::new("triple", f.build().unwrap()))
            .flatten()
            .unwrap()
    }

    #[test]
    fn paper_grid_marks_big_configs_infeasible() {
        let g = simple_graph();
        let table = profile(
            &g,
            &ProfileOptions::paper(),
            &DeviceConfig::gts512(),
            &TimingModel::gts512(),
        )
        .unwrap();
        // 64 regs x 512 threads = 32768 > 8192: infeasible (paper Sec IV-A).
        let r64 = table.reg_limits.iter().position(|&r| r == 64).unwrap();
        let t512 = table.thread_counts.iter().position(|&t| t == 512).unwrap();
        assert_eq!(table.cycles(NodeId(0), r64, t512), None);
        // 16 regs x 512 threads = 8192: feasible.
        let r16 = table.reg_limits.iter().position(|&r| r == 16).unwrap();
        assert!(table.cycles(NodeId(0), r16, t512).is_some());
    }

    #[test]
    fn more_threads_do_more_work_per_instance() {
        let g = simple_graph();
        let table = profile(
            &g,
            &ProfileOptions::paper(),
            &DeviceConfig::gts512(),
            &TimingModel::gts512(),
        )
        .unwrap();
        let t128 = table.thread_counts.iter().position(|&t| t == 128).unwrap();
        let t512 = table.thread_counts.iter().position(|&t| t == 512).unwrap();
        let c128 = table.cycles(NodeId(0), 0, t128).unwrap();
        let c512 = table.cycles(NodeId(0), 0, t512).unwrap();
        // 4x the firings should not cost 4x the time (SMT hides latency) —
        // that asymmetry is what configuration selection exploits.
        assert!(c512 < 4.0 * c128, "c512={c512} c128={c128}");
        // With full latency hiding the per-instance time can even be flat.
        assert!(c512 >= c128, "c512={c512} c128={c128}");
    }

    #[test]
    fn best_thread_idx_respects_cap() {
        let g = simple_graph();
        let table = profile(
            &g,
            &ProfileOptions::paper(),
            &DeviceConfig::gts512(),
            &TimingModel::gts512(),
        )
        .unwrap();
        let best = table.best_thread_idx(NodeId(0), 0, 256).unwrap();
        assert!(table.thread_counts[best] <= 256);
    }

    /// The loop [`profile`] replaced: register-major over the grid, a
    /// fresh device and one [`Gpu::run`] per grid point, stopping at the
    /// first error.
    fn oracle(
        graph: &FlatGraph,
        opts: &ProfileOptions,
        device: &DeviceConfig,
        timing: &TimingModel,
    ) -> Result<ProfileTable> {
        let mut times = Vec::new();
        for node in graph.nodes() {
            let kernel = Kernel::load(&node.work);
            let mut per_reg = Vec::new();
            for &regs in &opts.reg_limits {
                let mut per_thr = Vec::new();
                for &threads in &opts.thread_counts {
                    let (mut gpu, mut launch) =
                        instance_on_device(&kernel, threads, opts, device, timing)?;
                    launch.regs_per_thread = regs;
                    per_thr.push(match gpu.run(&launch) {
                        Ok(stats) => Some(stats.per_sm_cycles.iter().copied().fold(0.0, f64::max)),
                        Err(gpusim::SimError::LaunchConfig(_)) => None,
                        Err(e) => return Err(while_profiling(e, &node.name, regs, threads)),
                    });
                }
                per_reg.push(per_thr);
            }
            times.push(per_reg);
        }
        Ok(ProfileTable {
            reg_limits: opts.reg_limits.clone(),
            thread_counts: opts.thread_counts.clone(),
            times,
        })
    }

    fn bits(table: &ProfileTable) -> Vec<Vec<Vec<Option<u64>>>> {
        table
            .times
            .iter()
            .map(|node| {
                node.iter()
                    .map(|row| row.iter().map(|c| c.map(f64::to_bits)).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn profile_equals_the_per_grid_point_loop_on_the_suite() {
        let serving = crate::exec::CompileOptions::small_test();
        let scaled = crate::harness::HarnessOptions::paper_scaled().compile;
        for b in streambench::suite() {
            let graph = b.spec.flatten().unwrap();
            for c in [&serving, &scaled] {
                let expected = oracle(&graph, &c.profile, &c.device, &c.timing).unwrap();
                for workers in [1, 3] {
                    let table =
                        profile_on(workers, &graph, &c.profile, &c.device, &c.timing).unwrap();
                    assert_eq!(table.reg_limits, expected.reg_limits);
                    assert_eq!(table.thread_counts, expected.thread_counts);
                    assert_eq!(bits(&table), bits(&expected), "{} on {workers}", b.name);
                }
            }
        }
    }

    /// `keep -> divide -> divide_again`: both dividers compute
    /// `1 / (x - 1)`, and the first synthetic token is 1.
    fn trapping_graph() -> FlatGraph {
        let stage = |name: &str, trap: bool| {
            let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
            let x = f.local(ElemTy::I32);
            f.pop_into(0, x);
            let value = if trap {
                Expr::i32(1).div(Expr::local(x).sub(Expr::i32(1)))
            } else {
                Expr::local(x)
            };
            f.push(0, value);
            StreamSpec::filter(FilterSpec::new(name, f.build().unwrap()))
        };
        StreamSpec::pipeline(vec![
            stage("keep", false),
            stage("divide", true),
            stage("divide_again", true),
        ])
        .flatten()
        .unwrap()
    }

    #[test]
    fn a_trap_names_the_first_grid_point_the_per_point_loop_reached() {
        let g = trapping_graph();
        let serving = crate::exec::CompileOptions::small_test();
        // At 64 registers only 128 threads fit, so register-major order
        // reaches (64, 128) before (16, 512), the first trap in its
        // thread column.
        let inverted = ProfileOptions {
            reg_limits: vec![64, 16],
            thread_counts: vec![512, 128],
            ..ProfileOptions::paper()
        };
        for (opts, device, text) in [
            (&serving.profile, &serving.device, SERVING_TRAP),
            (&inverted, &DeviceConfig::gts512(), INVERTED_TRAP),
        ] {
            let expected = oracle(&g, opts, device, &serving.timing).unwrap_err();
            assert_eq!(expected.to_string(), text);
            for workers in [1, 3] {
                let e = profile_on(workers, &g, opts, device, &serving.timing).unwrap_err();
                assert_eq!(e, expected, "{workers} workers");
            }
        }
    }

    #[test]
    fn synthetic_tokens_are_never_zero() {
        for i in 0..100 {
            match synthetic_token(ElemTy::I32, i) {
                Scalar::I32(v) => assert!(v != 0),
                Scalar::F32(_) => unreachable!(),
            }
            match synthetic_token(ElemTy::F32, i) {
                Scalar::F32(v) => assert!(v != 0.0),
                Scalar::I32(_) => unreachable!(),
            }
        }
    }

    /// `a -> b -> c -> d` where `a`, `b` and `d` share one work function:
    /// they share one row, and the table is still the per-point loop's.
    /// (The trapping graph's two dividers share one too, and its trap
    /// still names the first.)
    #[test]
    fn nodes_with_one_work_function_share_its_row() {
        let stage = |name: &str, terms: i32| {
            let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
            let x = f.local(ElemTy::I32);
            f.pop_into(0, x);
            let sum = (1..terms).fold(Expr::local(x), |e, k| e.add(Expr::i32(k)));
            f.push(0, sum);
            StreamSpec::filter(FilterSpec::new(name, f.build().unwrap()))
        };
        let stages = vec![stage("a", 1), stage("b", 1), stage("c", 9), stage("d", 1)];
        let g = StreamSpec::pipeline(stages).flatten().unwrap();
        let c = crate::harness::HarnessOptions::paper_scaled().compile;
        let table = profile(&g, &c.profile, &c.device, &c.timing).unwrap();
        let expected = oracle(&g, &c.profile, &c.device, &c.timing).unwrap();
        assert_eq!(bits(&table), bits(&expected));
        let rows = bits(&table);
        assert_eq!(rows[0], rows[1]);
        assert_eq!(rows[0], rows[3]);
        assert_ne!(rows[0], rows[2]);
    }
}
