//! The `stream-gpu` command-line driver: inspect, compile, and run the
//! benchmark suite's stream programs on the simulated GPU.
//!
//! ```text
//! stream-gpu list                     # the benchmark suite (Table I)
//! stream-gpu dot <name>               # Graphviz DOT of the flattened graph
//! stream-gpu ir <name> <filter>       # pretty-printed kernel IR of one filter
//! stream-gpu compile <name>           # schedule + buffer plan + config report
//! stream-gpu run <name> [iterations]  # execute on the simulated GPU vs CPU
//! stream-gpu regen [--check] [paths]  # rewrite or byte-check committed artifacts
//! stream-gpu verify-all [--dot <dir>] # static verification sweep
//! stream-gpu soak [--seed S] [--profile P] ...  # one chaos soak cell
//! stream-gpu fleet-chaos [--seed S] [--devices N]  # one fleet chaos cell
//! ```

use std::path::Path;

use stream_gpu::{chaos_soak, fleet_bench, regen, verify_all};
use streamir::cpu::{self, CpuCostModel};
use swpipe::exec::{self, CompileOptions, Scheme};
use swpipe::plan::{self, LayoutKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("dot") => with_benchmark(&args, 2, cmd_dot),
        Some("ir") => cmd_ir(&args),
        Some("compile") => with_benchmark(&args, 2, cmd_compile),
        Some("run") => with_benchmark(&args, 2, |b| cmd_run(b, &args)),
        Some("regen") => cmd_regen(&args[1..]),
        Some("verify-all") => cmd_verify_all(&args[1..]),
        Some("soak") => cmd_soak(&args[1..]),
        Some("fleet-chaos") => cmd_fleet_chaos(&args[1..]),
        _ => {
            eprint!("{}", USAGE);
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
stream-gpu — software pipelined execution of stream programs on a simulated GPU

USAGE:
    stream-gpu list                     list the benchmark suite (Table I)
    stream-gpu dot <name>               Graphviz DOT of the flattened graph
    stream-gpu ir <name> <filter>       pretty-print one filter's kernel IR
    stream-gpu compile <name>           schedule, buffer plan, configuration
    stream-gpu run <name> [iterations]  execute on the simulated GPU (default 8)
    stream-gpu regen [--check] [path...]
                                        regenerate the committed artifacts (all by
                                        default); --check compares and writes nothing
    stream-gpu verify-all [--dot <dir>] static verification sweep over the suite
                                        (prints results/verify_all.txt)
    stream-gpu soak [--seed S]... [--profile P] [--rounds N] [--jobs N] [--host-launch]
                                        chaos soak, writes CHAOS_soak.json; seeds are
                                        decimal or 0x hex, profiles default, hangs,
                                        corruption or quiet
    stream-gpu fleet-chaos [--seed S] [--devices N]
                                        fleet storm, writes FLEET_chaos.json; the seed
                                        is decimal or 0x hex
";

/// Prints `error` and the usage text; the exit code of a bad command line.
fn usage_error(error: &str) -> i32 {
    eprintln!("error: {error}");
    eprint!("{USAGE}");
    2
}

fn cmd_regen(args: &[String]) -> i32 {
    let check = args.iter().any(|a| a == "--check");
    let paths: Vec<String> = args.iter().filter(|a| *a != "--check").cloned().collect();
    if let Some(flag) = paths.iter().find(|p| p.starts_with('-')) {
        return usage_error(&format!("unknown regen flag {flag}"));
    }
    let entries = match regen::select(&paths) {
        Ok(entries) => entries,
        Err(e) => return usage_error(&e),
    };
    let drifted = match regen::run(Path::new("."), &entries, check) {
        Ok(drifted) => drifted,
        Err(e) => {
            eprintln!("regen: {e}");
            return 1;
        }
    };
    if !check {
        for d in &drifted {
            println!("rewrote {} ({})", d.path, d.detail);
        }
        println!("regen: {} artifact(s) rewritten", drifted.len());
        return 0;
    }
    if drifted.is_empty() {
        println!("regen --check: every artifact is byte-identical to a fresh run");
        return 0;
    }
    for d in &drifted {
        eprintln!("{} has drifted from a fresh run:\n  {}", d.path, d.detail);
    }
    let listed: Vec<&str> = drifted.iter().map(|d| d.path).collect();
    eprintln!(
        "regenerate with: cargo run --release -- regen {}",
        listed.join(" ")
    );
    1
}

fn cmd_verify_all(args: &[String]) -> i32 {
    let dot_dir = match args {
        [] => None,
        [flag, dir] if flag == "--dot" => Some(Path::new(dir)),
        _ => return usage_error("verify-all takes only --dot <dir>"),
    };
    let sweep = verify_all::sweep(dot_dir);
    print!("{}", sweep.report);
    if sweep.failures > 0 {
        eprintln!("verify-all: {} failure(s)", sweep.failures);
        return 1;
    }
    eprintln!(
        "verify-all: ok — every prediction matched the simulator exactly \
         and every artifact earned an isolation certificate"
    );
    0
}

fn cmd_soak(args: &[String]) -> i32 {
    let mut seeds = Vec::new();
    let mut base = chaos_soak::SoakConfig::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--host-launch" {
            base.graph = false;
            continue;
        }
        let value = args.next().map_or("", String::as_str);
        let ok = match flag.as_str() {
            "--seed" => chaos_soak::parse_u64(value)
                .map(|seed| seeds.push(seed))
                .is_some(),
            "--profile" => chaos_soak::storm_profile(value, 0)
                .map(|_| base.profile = value.to_string())
                .is_some(),
            "--rounds" => value.parse().map(|n| base.rounds = n).is_ok(),
            "--jobs" => value.parse().map(|n| base.jobs = Some(n)).is_ok(),
            _ => false,
        };
        if !ok {
            return usage_error(&format!("bad soak argument {flag} {value:?}"));
        }
    }
    chaos_soak::soak(&seeds, &base);
    0
}

fn cmd_fleet_chaos(args: &[String]) -> i32 {
    let mut seed = fleet_bench::FULL_SEED;
    let mut devices = fleet_bench::FULL_DEVICES;
    for pair in args.chunks(2) {
        let value = pair.get(1).map_or("", String::as_str);
        let ok = match pair[0].as_str() {
            "--seed" => chaos_soak::parse_u64(value).map(|n| seed = n).is_some(),
            "--devices" => value.parse().map(|n| devices = n).is_ok(),
            _ => false,
        };
        if !ok {
            return usage_error(&format!("bad fleet-chaos argument {} {value:?}", pair[0]));
        }
    }
    fleet_bench::chaos(devices, seed);
    0
}

fn with_benchmark(
    args: &[String],
    need: usize,
    f: impl FnOnce(&streambench::Benchmark) -> i32,
) -> i32 {
    if args.len() < need {
        eprint!("{}", USAGE);
        return 2;
    }
    match streambench::by_name(&args[1]) {
        Some(b) => f(&b),
        None => {
            eprintln!(
                "error: unknown benchmark {:?} (try `stream-gpu list`)",
                args[1]
            );
            2
        }
    }
}

fn cmd_list() -> i32 {
    println!(
        "{:<12} {:>6} {:>8}  description",
        "name", "nodes", "peeking"
    );
    for b in streambench::suite() {
        let g = b.spec.flatten().expect("suite graphs flatten");
        println!(
            "{:<12} {:>6} {:>8}  {}",
            b.name,
            g.len(),
            g.peeking_filter_count(),
            b.description
        );
    }
    0
}

fn cmd_dot(b: &streambench::Benchmark) -> i32 {
    match b.spec.flatten() {
        Ok(g) => {
            print!("{}", g.to_dot(&b.name.to_lowercase()));
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn cmd_ir(args: &[String]) -> i32 {
    if args.len() < 3 {
        eprint!("{}", USAGE);
        return 2;
    }
    with_benchmark(args, 3, |b| {
        let g = b.spec.flatten().expect("flattens");
        let wanted = &args[2];
        match g.nodes().iter().find(|n| &n.name == wanted) {
            Some(node) => {
                println!("// {} :: {}", b.name, node.name);
                print!("{}", node.work.to_pretty());
                0
            }
            None => {
                eprintln!(
                    "error: no filter named {wanted:?} in {}; nodes are:",
                    b.name
                );
                for n in g.nodes() {
                    eprintln!("  {}", n.name);
                }
                2
            }
        }
    })
}

fn compile(b: &streambench::Benchmark) -> Result<exec::Compiled, swpipe::Error> {
    let graph = b.spec.flatten().map_err(swpipe::Error::Stream)?;
    exec::compile(&graph, &CompileOptions::small_test())
}

fn cmd_compile(b: &streambench::Benchmark) -> i32 {
    match compile(b) {
        Ok(c) => {
            println!("{}", swpipe::report::config_summary(&c));
            println!();
            print!("{}", swpipe::report::schedule_table(&c));
            println!();
            let p = plan::plan(&c.graph, &c.ig, Some(&c.schedule), 8, LayoutKind::Optimized);
            print!("{}", swpipe::report::buffer_table(&c, &p));
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn cmd_run(b: &streambench::Benchmark, args: &[String]) -> i32 {
    let iters: u64 = match args.get(2).map(|s| s.parse()) {
        None => 8,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("error: iterations must be a positive integer");
            return 2;
        }
    };
    let c = match compile(b) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    // Size the input to cover both the GPU run and the CPU reference
    // (whose primitive iteration may be large).
    let steady = streamir::sdf::solve(&c.graph).expect("steady state");
    let per = steady.input_tokens_per_iteration(&c.graph).max(1);
    let n_input = exec::required_input(&c, iters);
    let input = (b.input)((n_input + 2 * per + 64) as usize);
    let run = match exec::execute(
        &c,
        Scheme::Swp { coarsening: 1 },
        iters,
        &input[..n_input as usize],
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };

    // Always check against the CPU reference.
    let cpu_iters = n_input.div_ceil(per) + 1;
    let cpu = cpu::run(
        &c.graph,
        &steady,
        cpu_iters,
        &input,
        &CpuCostModel::default(),
    )
    .expect("cpu reference runs");
    let n = run.outputs.len().min(cpu.outputs.len());
    if run.outputs[..n] != cpu.outputs[..n] {
        eprintln!("MISMATCH: GPU output diverges from the CPU reference");
        return 1;
    }

    println!(
        "{}: {} steady iterations, {} output tokens (bit-exact vs CPU reference)",
        b.name,
        iters,
        run.outputs.len()
    );
    println!(
        "modeled time {:.3e}s over {} launches; {} device transactions \
         ({:.2} per access)",
        run.time_secs,
        run.launches,
        run.stats.mem_transactions,
        run.stats.transactions_per_access().unwrap_or(0.0)
    );
    let first: Vec<String> = run
        .outputs
        .iter()
        .take(8)
        .map(ToString::to_string)
        .collect();
    println!("first outputs: [{}]", first.join(", "));
    0
}
