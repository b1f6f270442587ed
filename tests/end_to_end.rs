//! Cross-crate end-to-end tests: every benchmark in the suite is compiled
//! through the full paper pipeline (profile → select → schedule → buffer
//! plan → codegen) at a reduced grid and executed *functionally* on the
//! simulated GPU, then checked bit-for-bit against the single-threaded CPU
//! reference executor. This is the strongest guarantee in the repository:
//! scheduling, buffer layout, initialization seeding, and the
//! warp-synchronous interpreter must all agree with the sequential
//! semantics for every algorithm in the suite.

use streamir::cpu::{self, CpuCostModel};
use streamir::ir::Scalar;
use swpipe::exec::{self, CompileOptions, Scheme};

/// Compiles and runs `iters` iterations under `scheme`, returning the GPU
/// output stream and the CPU output stream covering it.
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

    let gpu = exec::execute(&compiled, scheme, iters, &input[..n_input as usize])
        .unwrap_or_else(|e| panic!("{}: execute: {e}", b.name));

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

/// Scaled measurement must agree with full execution on the overlapping
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
    let full = exec::execute(&compiled, Scheme::Swp { coarsening: 2 }, iters, &input).unwrap();
    let meas = exec::measure(&compiled, Scheme::Swp { coarsening: 2 }, iters, &input).unwrap();
    assert!((full.time_secs - meas.time_secs).abs() < 1e-12);
    assert_eq!(full.stats.mem_transactions, meas.stats.mem_transactions);
}

/// The scaled measurement path (fill + verified steady window + drain,
/// scaled; or the first serial batch, scaled) must agree *exactly* with
/// full simulation whenever control flow is data-independent: one launch
/// loop serves both, so the launch count, every counter and every bit of
/// the modeled cycles are the same, on the whole suite under every scheme.
#[test]
fn scaled_measurement_equals_full_simulation() {
    for b in streambench::suite() {
        let graph = b.spec.flatten().unwrap();
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
            let full = exec::execute(&compiled, scheme, iters, &input).expect(&ctx);
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
