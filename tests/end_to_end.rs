//! Cross-crate end-to-end tests: every benchmark in the suite is compiled
//! through the full paper pipeline (profile → select → schedule → buffer
//! plan → codegen) at a reduced grid and executed *functionally* on the
//! simulated GPU, then checked bit-for-bit against the single-threaded CPU
//! reference executor. This is the strongest guarantee in the repository:
//! scheduling, buffer layout, initialization seeding, and the
//! warp-synchronous interpreter must all agree with the sequential
//! semantics for every algorithm in the suite.

use gpusim::{DeviceConfig, Kernel};
use streamir::cpu::{self, CpuCostModel};
use streamir::ir::Scalar;
use swpipe::exec::{self, CompileOptions, GpuRun, Prepared, RunOptions, Scheme, SmPlacement};

/// Compiles and runs `iters` iterations under `scheme` on the simulator,
/// returning the GPU output stream and the CPU output stream covering it.
/// Simulated, because the scheme's walk, buffer layout and seeding shape
/// only a simulated run's outputs; `execute` fires a value-oblivious
/// artifact's outputs on the host, and
/// `a_priced_first_run_equals_a_simulated_run` checks it against this.
fn run_both(b: &streambench::Benchmark, scheme: Scheme, iters: u64) -> (Vec<Scalar>, Vec<Scalar>) {
    let graph = b
        .spec
        .flatten()
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let compiled = exec::compile(&graph, &CompileOptions::small_test())
        .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));

    let n_input = exec::required_input(&compiled, iters);
    let steady = streamir::sdf::solve(&graph).unwrap();
    let cpu_per_iter = steady.input_tokens_per_iteration(&graph).max(1);
    let input = (b.input)((n_input + 2 * cpu_per_iter + 64) as usize);

    let opts = RunOptions::default();
    let gpu = exec::simulate(&compiled, scheme, iters, &input[..n_input as usize], &opts)
        .unwrap_or_else(|e| panic!("{}: simulate: {e}", b.name));

    let cpu_init = steady.input_tokens_for_init(&graph);
    let cpu_iters = (n_input.saturating_sub(cpu_init)).div_ceil(cpu_per_iter) + 1;
    let cpu = cpu::run(&graph, &steady, cpu_iters, &input, &CpuCostModel::default())
        .unwrap_or_else(|e| panic!("{}: cpu: {e}", b.name));
    (gpu.outputs, cpu.outputs)
}

fn assert_bit_exact(b: &streambench::Benchmark, scheme: Scheme, iters: u64) {
    let (gpu, cpu) = run_both(b, scheme, iters);
    assert!(!gpu.is_empty(), "{}: no GPU output", b.name);
    assert!(
        gpu.len() <= cpu.len(),
        "{}: CPU run must cover GPU emission",
        b.name
    );
    assert_eq!(
        gpu[..],
        cpu[..gpu.len()],
        "{}: GPU and CPU streams must agree bit-for-bit",
        b.name
    );
}

macro_rules! e2e {
    ($test:ident, $name:expr, $scheme:expr, $iters:expr) => {
        #[test]
        fn $test() {
            let b = streambench::by_name($name).expect("known benchmark");
            assert_bit_exact(&b, $scheme, $iters);
        }
    };
}

e2e!(bitonic_swp, "Bitonic", Scheme::Swp { coarsening: 2 }, 4);
e2e!(
    bitonic_rec_swp,
    "BitonicRec",
    Scheme::Swp { coarsening: 2 },
    4
);
e2e!(dct_swp, "DCT", Scheme::Swp { coarsening: 2 }, 4);
e2e!(des_swp, "DES", Scheme::Swp { coarsening: 2 }, 4);
e2e!(fft_swp, "FFT", Scheme::Swp { coarsening: 2 }, 4);
e2e!(
    filterbank_swp,
    "Filterbank",
    Scheme::Swp { coarsening: 2 },
    4
);
e2e!(fmradio_swp, "FMRadio", Scheme::Swp { coarsening: 2 }, 4);
e2e!(matmult_swp, "MatrixMult", Scheme::Swp { coarsening: 2 }, 4);

e2e!(des_swpnc, "DES", Scheme::SwpNc { coarsening: 2 }, 4);
e2e!(fft_swpnc, "FFT", Scheme::SwpNc { coarsening: 2 }, 4);
e2e!(
    filterbank_serial,
    "Filterbank",
    Scheme::Serial { batch: 2 },
    4
);
e2e!(dct_serial, "DCT", Scheme::Serial { batch: 2 }, 4);
e2e!(fft_swp_raw, "FFT", Scheme::SwpRaw { coarsening: 2 }, 4);

/// The DES stream must actually encrypt: check the GPU output against the
/// standalone reference cipher (not just the CPU executor).
#[test]
fn des_gpu_output_is_real_des() {
    let b = streambench::by_name("DES").unwrap();
    let graph = b.spec.flatten().unwrap();
    let compiled = exec::compile(&graph, &CompileOptions::small_test()).unwrap();
    let iters = 4;
    let n_input = exec::required_input(&compiled, iters);
    let input = (b.input)(n_input as usize);
    let run = exec::execute(&compiled, Scheme::Swp { coarsening: 2 }, iters, &input).unwrap();
    let plain: Vec<i32> = input.iter().map(|s| s.as_i32()).collect();
    let got: Vec<i32> = run.outputs.iter().map(|s| s.as_i32()).collect();
    let expect = streambench::des::reference(&plain[..got.len()]);
    assert_eq!(got, expect);
}

/// Scaled measurement must agree with full simulation on the overlapping
/// window's statistics-derived time for a case where both paths run.
#[test]
fn measure_matches_execute_when_window_covers_run() {
    let b = streambench::by_name("FFT").unwrap();
    let graph = b.spec.flatten().unwrap();
    let compiled = exec::compile(&graph, &CompileOptions::small_test()).unwrap();
    let iters = 8; // small: kernel_iters <= stages + 4, so measure() falls
                   // back to exact simulation
    let n_input = exec::required_input(&compiled, iters);
    let input = (b.input)(n_input as usize);
    let scheme = Scheme::Swp { coarsening: 2 };
    let full = exec::simulate(&compiled, scheme, iters, &input, &RunOptions::default()).unwrap();
    let meas = exec::measure(&compiled, Scheme::Swp { coarsening: 2 }, iters, &input).unwrap();
    assert!((full.time_secs - meas.time_secs).abs() < 1e-12);
    assert_eq!(full.stats.mem_transactions, meas.stats.mem_transactions);
}

/// The scaled measurement path (fill + verified steady window + drain,
/// scaled; or the first serial batch, scaled) must agree *exactly* with
/// full simulation whenever control flow is data-independent: one launch
/// loop serves both, so the launch count, every counter and every bit of
/// the modeled cycles are the same, on the whole suite under every scheme.
/// Every benchmark but DES is value-oblivious, so its measurement prices
/// its launches from the abstract walk: priced against simulated.
#[test]
fn scaled_measurement_equals_full_simulation() {
    for b in streambench::suite() {
        let graph = b.spec.flatten().unwrap();
        let oblivious = (graph.nodes().iter()).all(|n| Kernel::load(&n.work).value_oblivious());
        assert_eq!(oblivious, b.name != "DES", "{} prices its launches", b.name);
        let compiled = exec::compile(&graph, &CompileOptions::small_test()).unwrap();
        let mut schemes = vec![
            Scheme::Swp { coarsening: 1 },
            Scheme::SwpNc { coarsening: 1 },
            Scheme::Serial { batch: 1 },
        ];
        if !swpipe::instances::requires_serial_iterations(&graph) {
            schemes.push(Scheme::Swp { coarsening: 2 });
        }
        // Long enough to trigger scaling (kernel_iters > stages + 4, more
        // than one batch) but small enough to fully simulate.
        let iters = 2 * (compiled.schedule.max_stage() + 6);
        let input = (b.input)(exec::required_input(&compiled, iters) as usize);
        for scheme in schemes {
            let ctx = format!("{} under {scheme:?}", b.name);
            let opts = RunOptions::default();
            let full = exec::simulate(&compiled, scheme, iters, &input, &opts).expect(&ctx);
            let meas = exec::measure(&compiled, scheme, iters, &input).expect(&ctx);
            assert!(
                meas.outputs.is_empty(),
                "{ctx}: measure skips output assembly"
            );
            assert!(meas.launch_cycles.is_empty(), "{ctx}: and the launch trace");
            assert_eq!(full.launches, meas.launches, "{ctx}");
            assert_eq!(
                full.stats.cycles.to_bits(),
                meas.stats.cycles.to_bits(),
                "{ctx}"
            );
            // Seconds are summed per launch in one run and per batch in the
            // other; only they may differ, and only in rounding.
            let rel = (full.time_secs - meas.time_secs).abs() / full.time_secs;
            assert!(
                rel < 1e-9,
                "{ctx}: {} vs {}",
                full.time_secs,
                meas.time_secs
            );
            let counters = |run: &exec::GpuRun| gpusim::LaunchStats {
                time_secs: 0.0,
                ..run.stats.clone()
            };
            assert_eq!(counters(&full), counters(&meas), "{ctx}");
        }
    }
}

/// Buffer requirements (Table II machinery) must grow with coarsening and
/// stay layout-independent.
#[test]
fn buffer_plans_scale_with_coarsening() {
    use swpipe::plan::{self, LayoutKind};
    let b = streambench::by_name("FFT").unwrap();
    let graph = b.spec.flatten().unwrap();
    let compiled = exec::compile(&graph, &CompileOptions::small_test()).unwrap();
    let bytes = |c: u32, kind| {
        plan::plan(
            &compiled.graph,
            &compiled.ig,
            Some(&compiled.schedule),
            c,
            kind,
        )
        .total_bytes()
    };
    assert!(bytes(8, LayoutKind::Optimized) > bytes(1, LayoutKind::Optimized));
    assert_eq!(
        bytes(8, LayoutKind::Optimized),
        bytes(8, LayoutKind::Sequential),
        "layout permutes placement, not size"
    );
}

/// Everything a run reports, bit for bit: outputs, stats, per-launch
/// cycles, launches, plan bytes and checkpoint protocol.
fn assert_same_run(got: &GpuRun, want: &GpuRun, ctx: &str) {
    let bits = |o: &[Scalar]| o.iter().map(|t| (t.ty(), t.to_bits())).collect::<Vec<_>>();
    let floats = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.outputs), bits(&want.outputs), "{ctx}: outputs");
    assert_eq!(got.stats, want.stats, "{ctx}: stats");
    let cycles = |r: &GpuRun| (r.stats.cycles.to_bits(), floats(&r.stats.per_sm_cycles));
    assert_eq!(cycles(got), cycles(want), "{ctx}: cycles");
    assert_eq!(
        floats(&got.launch_cycles),
        floats(&want.launch_cycles),
        "{ctx}"
    );
    assert_eq!(got.time_secs.to_bits(), want.time_secs.to_bits(), "{ctx}");
    assert_eq!(
        (got.launches, got.retries, got.buffer_bytes),
        (want.launches, want.retries, want.buffer_bytes),
        "{ctx}"
    );
    assert_eq!(
        (got.checkpoint_mode, got.checkpoint_interval),
        (want.checkpoint_mode, want.checkpoint_interval),
        "{ctx}"
    );
}

/// Every suite artifact but DES (whose S-boxes index by data), under SWP,
/// SWPNC, Serial and SWP8, launched from the host and replayed as a
/// graph, on its own device and on a slice of a wider one at a nonzero
/// base SM: `check` gets each with its run length, run options and a
/// label.
fn for_each_priced_shape(
    mut check: impl FnMut(&streambench::Benchmark, &exec::Compiled, Scheme, u64, &RunOptions, &str),
) {
    for b in streambench::suite().into_iter().filter(|b| b.name != "DES") {
        let c = exec::compile(&b.spec.flatten().unwrap(), &CompileOptions::small_test()).unwrap();
        let wide = DeviceConfig {
            num_sms: c.device.num_sms + 3,
            ..c.device.clone()
        };
        let schemes = [
            (Scheme::Swp { coarsening: 1 }, 4),
            (Scheme::SwpNc { coarsening: 1 }, 4),
            (Scheme::Serial { batch: 1 }, 3),
            (Scheme::Swp { coarsening: 8 }, 16),
        ];
        for (scheme, iters) in schemes {
            for (graph_dispatch, base_sm) in [(false, None), (true, None), (true, Some(2))] {
                let opts = RunOptions {
                    graph_dispatch,
                    placement: base_sm.map(|base_sm| SmPlacement {
                        device: wide.clone(),
                        base_sm,
                    }),
                    ..RunOptions::default()
                };
                let ctx = format!("{} {scheme:?} {graph_dispatch} {base_sm:?}", b.name);
                check(&b, &c, scheme, iters, &opts, &ctx);
            }
        }
    }
}

/// The simulator stays the cross-check of the run a server repeats: one
/// prepared form per artifact and scheme runs every shape of
/// [`for_each_priced_shape`] in turn, so it keeps a bill per shape and each
/// new shape must miss the bills kept for the earlier ones. The first run
/// of each shape is priced and keeps its bill; the second, on new input,
/// reuses the bill and fires its outputs on the host (the library's own
/// tests check that it takes that path), and returns exactly what a fresh
/// simulation returns.
#[test]
fn a_kept_bill_and_the_firing_plan_reproduce_every_suite_simulation() {
    let mut shared: Option<(&str, Scheme, Prepared)> = None;
    for_each_priced_shape(|b, c, scheme, iters, opts, ctx| {
        if !matches!(&shared, Some((name, s, _)) if *name == b.name && *s == scheme) {
            shared = Some((b.name, scheme, Prepared::new(c, scheme).unwrap()));
        }
        let p = &shared.as_ref().unwrap().2;
        // Two inputs of the run's length that move different values.
        let len = exec::required_input(c, iters) as usize;
        let first = (b.input)(len);
        let second = (b.input)(len + 5).split_off(5);
        p.execute(c, iters, &first, opts).unwrap();
        let reused = p.execute(c, iters, &second, opts).unwrap();
        let simulated = exec::simulate(c, scheme, iters, &second, opts).unwrap();
        assert_same_run(&reused, &simulated, ctx);
    });
}

/// The first run of a shape, priced from the kernels' walks with its
/// outputs fired on the host, returns what the simulator returns, on
/// every shape of [`for_each_priced_shape`]: through a fresh prepared
/// form and through `execute_with` (which prepares afresh every time).
#[test]
fn a_priced_first_run_equals_a_simulated_run() {
    for_each_priced_shape(|b, c, scheme, iters, opts, ctx| {
        let input = (b.input)(exec::required_input(c, iters) as usize);
        let simulated = exec::simulate(c, scheme, iters, &input, opts).unwrap();
        let p = Prepared::new(c, scheme).unwrap();
        let first = p.execute(c, iters, &input, opts).unwrap();
        assert_same_run(&first, &simulated, &format!("{ctx}, prepared"));
        let once = exec::execute_with(c, scheme, iters, &input, opts).unwrap();
        assert_same_run(&once, &simulated, &format!("{ctx}, execute_with"));
    });
}
