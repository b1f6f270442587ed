//! The two-clock benchmark of the stream-gpu stack: host seconds, device
//! cycles and virtual latency, end to end and per layer, on six
//! workloads. See `README.md` for the tables and `../BENCHMARK.json` for
//! the contract this binary is run under.
//!
//! ```text
//! swp-benchmark --workload <name> [--seed N] [--seconds S | --runs N] [--trace [0|1]]
//! swp-benchmark --all        [--seed N] [--seconds S]
//! swp-benchmark --selfcheck  [--seconds S]
//! ```
//!
//! One process runs one workload (so `peak_rss_mib` is per workload);
//! `--all` and `--selfcheck` start one child process per run and wait for
//! each. A workload run prints every metric as `name value unit`, notes
//! as `# ...` lines, and last a single JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! of the untraced passes, or with `--trace 1` the per-layer metrics of
//! the traced run.

mod common;
mod gen;
mod metrics;
mod serving;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde_json::Value;

use common::Plan;
use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use trace::{Phase, Tracer};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "compile_cold",
    "exec_steady",
    "paper_fig10",
    "serve_steady",
    "serve_churn",
    "fleet_storm",
];

/// The committed default seed (the baseline in `baseline.json` is its).
const DEFAULT_SEED: u64 = 20090322;
/// A second seed `--selfcheck` proves every metric on.
const OTHER_SEED: u64 = 7;
/// Seconds of timed region when `--seconds` is not given
/// (`BENCHMARK.json`'s `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 10.0;

/// A directory under `benchmark/out/` private to this process, for
/// workloads that need a disk tier. The benchmark writes nowhere else.
pub fn scratch_dir(workload: &str) -> PathBuf {
    out_dir().join(format!("tmp-{workload}-{}", std::process::id()))
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_workload(name: &str, plan: &Plan, tr: &Tracer) -> Option<Outcome> {
    Some(match name {
        "compile_cold" => workloads::compile_cold::run(plan, tr),
        "exec_steady" => workloads::exec_steady::run(plan, tr),
        "paper_fig10" => workloads::paper_fig10::run(plan, tr),
        "serve_steady" => workloads::serve_steady::run(plan, tr),
        "serve_churn" => workloads::serve_churn::run(plan, tr),
        "fleet_storm" => workloads::fleet_storm::run(plan, tr),
        _ => return None,
    })
}

/// Every metric of the list this run reports, in registry order. A layer
/// that did no work reads 0; a metric that came out non-finite — or an
/// end-to-end one that came out 0, which a healthy run never does — reads
/// 0 and counts as a failed operation.
fn reported(outcome: &mut Outcome, trace: bool) -> Vec<(&'static MetricDef, f64)> {
    let (defs, source) = if trace {
        (PER_LAYER, &outcome.layers)
    } else {
        (END_TO_END, &outcome.e2e)
    };
    let mut broken = 0;
    let values = defs
        .iter()
        .map(|d| {
            let value = source.get(d.name).copied().unwrap_or(0.0);
            if value.is_finite() && (trace || value != 0.0) {
                (d, value)
            } else {
                broken += 1;
                (d, 0.0)
            }
        })
        .collect();
    outcome.failed += broken;
    outcome.attempted = outcome.attempted.max(1);
    outcome.correct &= broken == 0;
    values
}

/// The contract's result line.
fn result_line(outcome: &Outcome, values: &[(&MetricDef, f64)]) -> String {
    let metrics = values
        .iter()
        .map(|(d, value)| {
            let row = vec![
                ("value".into(), Value::Num(*value)),
                ("unit".into(), Value::Str(d.unit.into())),
            ];
            (d.name.to_string(), Value::Object(row))
        })
        .collect();
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.correct)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
}

/// Runs one workload in this process and prints its report.
fn single(name: &str, plan: &Plan) -> ExitCode {
    let tr = Tracer::new(plan.trace);
    let Some(mut outcome) = run_workload(name, plan, &tr) else {
        eprintln!("unknown workload {name:?}; known: {}", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    if plan.trace {
        let spans = tr.spans();
        outcome
            .layers
            .insert("trace.spans".into(), spans.len() as f64);
        let path = out_dir().join(format!("trace-{name}.json"));
        let json = serde_json::to_string(&trace::chrome_json(name, &spans));
        let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => println!(
                "# trace: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => println!("# trace: could not write {}: {e}", path.display()),
        }
        let timed = trace::layer_self_secs(&spans, Phase::Timed);
        let total: f64 = timed.values().sum();
        for (layer, secs) in &timed {
            println!(
                "# timed-region self time: {layer} {secs:.6} s ({:.1} %)",
                100.0 * secs / total.max(f64::MIN_POSITIVE)
            );
        }
    }
    let values = reported(&mut outcome, plan.trace);
    println!(
        "# workload {name} seed {} trace {}",
        plan.seed,
        u8::from(plan.trace)
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (d, value) in &values {
        println!("{} {value} {}", d.name, d.unit);
    }
    let share = outcome.failed as f64 / outcome.attempted as f64;
    println!(
        "# failed_share {share} fraction ({} attempted, {} succeeded, {} failed)",
        outcome.attempted,
        outcome.attempted - outcome.failed.min(outcome.attempted),
        outcome.failed
    );
    println!("{}", result_line(&outcome, &values));
    ExitCode::SUCCESS
}

/// One child run's parsed result line.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a fresh process and waits for it. Its report is
/// echoed (indented) when `echo` is set.
fn child(name: &str, seed: u64, seconds: f64, trace: bool, echo: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("  {line}");
        }
    }
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!(
            "{name} exited with {}: {}",
            output.status,
            stderr.trim()
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let v = serde_json::from_str(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| format!("{name}: result lacks {key}"))
    };
    let Value::Object(rows) = field("metrics")? else {
        return Err(format!("{name}: metrics is not an object"));
    };
    Ok(ChildRun {
        correct: matches!(field("correct")?, Value::Bool(true)),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(u64::MAX),
        metrics: rows
            .iter()
            .map(|(k, row)| {
                let value = row.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                (k.clone(), value)
            })
            .collect(),
    })
}

/// Every workload, untraced then traced, each in its own process.
fn all(seed: u64, seconds: f64) -> ExitCode {
    let mut healthy = true;
    let mut summary = Vec::new();
    for name in WORKLOADS {
        let mut rows = Vec::new();
        for trace in [false, true] {
            println!("== {name} (seed {seed}, trace {}) ==", u8::from(trace));
            match child(name, seed, seconds, trace, true) {
                Ok(run) => {
                    healthy &= run.correct && run.failed == 0;
                    rows.extend(run.metrics.into_iter().map(|(k, v)| (k, Value::Num(v))));
                    rows.push((
                        format!("failed_share.trace{}", u8::from(trace)),
                        Value::Num(run.failed as f64 / run.attempted.max(1) as f64),
                    ));
                }
                Err(e) => {
                    println!("FAILED: {e}");
                    healthy = false;
                }
            }
        }
        summary.push((name.to_string(), Value::Object(rows)));
    }
    // This change defines the benchmark; it claims no gain.
    let report = Value::Object(vec![
        ("seed".into(), Value::Num(seed as f64)),
        ("healthy".into(), Value::Bool(healthy)),
        ("workloads".into(), Value::Object(summary)),
        ("claim".into(), Value::Null),
    ]);
    println!("{}", serde_json::to_string(&report));
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two runs of the same code must agree: deterministic metrics
/// bit-for-bit, bounded host metrics within their bound. Returns what
/// disagreed.
fn disagreements(a: &ChildRun, b: &ChildRun) -> Vec<String> {
    let mut out = Vec::new();
    if (a.attempted, a.failed) != (b.attempted, b.failed) {
        out.push(format!(
            "operation counts {}/{} vs {}/{}",
            a.failed, a.attempted, b.failed, b.attempted
        ));
    }
    for ((name, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
        let Some(def) = metrics::def_of(name) else {
            out.push(format!("{name} is not a registered metric"));
            continue;
        };
        if def.clock.deterministic() {
            if x.to_bits() != y.to_bits() {
                out.push(format!("{name} ({:?} clock) {x} vs {y}", def.clock));
            }
        } else if def.bound > 0.0 && (x - y).abs() > def.bound * x.abs().min(y.abs()) {
            out.push(format!(
                "{name} {x} vs {y} differ by more than {}",
                def.bound
            ));
        }
    }
    out
}

/// Runs each workload twice at the default seed in fresh processes
/// (untraced and traced) and once at another seed, and fails unless the
/// pairs agree and every metric is present and finite on both seeds.
fn selfcheck(seconds: f64) -> ExitCode {
    let mut problems = Vec::new();
    for name in WORKLOADS {
        for trace in [false, true] {
            let label = format!("{name} trace {}", u8::from(trace));
            let runs: Vec<_> = [DEFAULT_SEED, DEFAULT_SEED, OTHER_SEED]
                .into_iter()
                .map(|seed| child(name, seed, seconds, trace, false))
                .collect();
            let expected = if trace { PER_LAYER } else { END_TO_END };
            for (run, seed) in runs.iter().zip([DEFAULT_SEED, DEFAULT_SEED, OTHER_SEED]) {
                match run {
                    Err(e) => problems.push(format!("{label} seed {seed}: {e}")),
                    Ok(run) => {
                        if !run.correct || run.failed != 0 {
                            problems.push(format!("{label} seed {seed}: incorrect or failed"));
                        }
                        let names: Vec<&str> =
                            run.metrics.iter().map(|(k, _)| k.as_str()).collect();
                        if names != expected.iter().map(|d| d.name).collect::<Vec<_>>() {
                            problems.push(format!("{label} seed {seed}: metric list differs"));
                        }
                        for (k, v) in run.metrics.iter().filter(|(_, v)| !v.is_finite()) {
                            problems.push(format!("{label} seed {seed}: {k} is {v}"));
                        }
                    }
                }
            }
            if let (Ok(a), Ok(b)) = (&runs[0], &runs[1]) {
                let diffs = disagreements(a, b);
                println!(
                    "{label}: {} metrics compared, {} disagree",
                    a.metrics.len(),
                    diffs.len()
                );
                problems.extend(diffs.into_iter().map(|d| format!("{label}: {d}")));
            }
        }
    }
    for p in &problems {
        println!("DISAGREE {p}");
    }
    println!(
        "selfcheck: {} workloads x (untraced, traced) x (2 runs at seed {DEFAULT_SEED}, 1 at seed \
         {OTHER_SEED}): {}",
        WORKLOADS.len(),
        if problems.is_empty() {
            "all agree"
        } else {
            "FAILED"
        }
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: swp-benchmark --workload <{}> [--seed N] [--seconds S | --runs N] [--trace [0|1]]\n       \
         swp-benchmark --all [--seed N] [--seconds S]\n       \
         swp-benchmark --selfcheck [--seconds S]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut plan = Plan {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        runs: None,
        trace: false,
    };
    let (mut workload, mut run_all, mut check) = (None, false, false);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let mut takes_value = true;
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => match v.parse() {
                Ok(seed) => plan.seed = seed,
                Err(_) => return usage(),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s > 0.0 => plan.seconds = s,
                _ => return usage(),
            },
            ("--runs", Some(v)) => match v.parse() {
                Ok(n) => plan.runs = Some(n),
                Err(_) => return usage(),
            },
            ("--trace", Some("0")) => plan.trace = false,
            ("--trace", Some("1")) => plan.trace = true,
            ("--trace", _) => (plan.trace, takes_value) = (true, false),
            ("--all", _) => (run_all, takes_value) = (true, false),
            ("--selfcheck", _) => (check, takes_value) = (true, false),
            _ => return usage(),
        }
        i += if takes_value { 2 } else { 1 };
    }
    match (workload, run_all, check) {
        (Some(name), false, false) => single(&name, &plan),
        (None, true, false) => all(plan.seed, plan.seconds),
        (None, false, true) => selfcheck(plan.seconds),
        _ => usage(),
    }
}
