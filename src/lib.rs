//! Facade crate re-exporting the whole stream-gpu workspace.
//!
//! See the individual crates for details:
//! - [`streamir`]: stream-graph IR, SDF solving, CPU execution
//! - [`gpusim`]: the simulated GeForce-8800-class GPU
//! - [`ilp`]: the MILP solver
//! - [`swpipe`]: the software-pipelining compiler (the paper's contribution)
//! - [`streambench`]: the eight StreamIt benchmarks

pub use gpusim;
pub use ilp;
pub use numeric;
pub use streambench;
pub use streamir;
pub use swpipe;

pub mod chaos_soak;
pub mod fleet_bench;
pub mod learn_gen;
pub mod learn_train;
pub mod serve_bench;

use serde::Serialize;
use swpipe::serve::{Job, QosClass};

/// The deterministic arrival trace every serving bench and soak shares:
/// `rounds` round-robin rounds over the benchmark suite, each benchmark
/// its own tenant submitting `iterations`-iteration jobs, 50 ms apart
/// within a round and 1 s between rounds.
#[must_use]
pub fn suite_trace(rounds: usize, iterations: u64) -> Vec<(Job, f64)> {
    let suite = streambench::suite();
    let mut trace = Vec::with_capacity(rounds * suite.len());
    let mut now = 0.0;
    for _round in 0..rounds {
        for (i, b) in suite.iter().enumerate() {
            let job = Job {
                tenant: b.name.to_string(),
                graph: b.spec.flatten().expect("benchmark flattens"),
                input: b.input,
                iterations,
                // A stable QoS per tenant (alternating across the
                // suite) exercises both fault policies while keeping
                // each tenant's repeat jobs content-identical — so
                // repeat rounds hit the compilation cache instead of
                // recompiling under a round-flipped policy every time.
                qos: if i % 2 == 0 {
                    QosClass::Batch
                } else {
                    QosClass::Interactive
                },
            };
            trace.push((job, now));
            now += 0.05;
        }
        now += 1.0;
    }
    trace
}

/// Serializes a report to `path` as pretty JSON.
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn write_json<T: Serialize>(report: &T, path: &str) {
    let json = serde_json::to_string_pretty(report);
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// The one drift gate behind every `--check`: the committed artifact
/// must equal, byte for byte, the pretty JSON [`write_json`] would
/// write for a `fresh` run. Every committed bench is deterministic in
/// virtual time, so nothing short of identity is drift-free — a renamed
/// key, a moved counter and a last-digit latency change all fail alike.
///
/// # Errors
///
/// Names the first differing line (1-based) with both versions of it.
pub fn check_drift<T: Serialize>(fresh: &T, committed: &str) -> Result<(), String> {
    let fresh = serde_json::to_string_pretty(fresh);
    if fresh == committed {
        return Ok(());
    }
    let same = fresh
        .lines()
        .zip(committed.lines())
        .take_while(|(want, have)| want == have)
        .count();
    let show = |text: &str| {
        let line = text.lines().nth(same);
        line.map_or("<end of file>", str::trim).to_string()
    };
    Err(format!(
        "line {}: committed `{}` != fresh `{}`",
        same + 1,
        show(committed),
        show(&fresh)
    ))
}

/// `--check <path>` for a bench binary: reads the committed artifact
/// and exits non-zero, printing [`check_drift`]'s differing line and
/// the `regenerate` command, unless it matches `fresh` exactly.
///
/// # Panics
///
/// Panics when `path` cannot be read.
pub fn check_committed<T: Serialize>(fresh: &T, path: &str, regenerate: &str) {
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    match check_drift(fresh, &committed) {
        Ok(()) => println!("{path}: byte-identical to a fresh run"),
        Err(drift) => {
            eprintln!("{path} has drifted from a fresh run:\n  {drift}");
            eprintln!("regenerate with: {regenerate}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Tiny {
        jobs: u64,
        p99_secs: f64,
    }

    #[test]
    fn drift_gate_is_byte_exact_and_prints_the_first_differing_line() {
        let report = Tiny {
            jobs: 48,
            p99_secs: 0.5012,
        };
        let committed = serde_json::to_string_pretty(&report);
        assert_eq!(check_drift(&report, &committed), Ok(()));

        // One corrupted digit, in any field, is drift — reported with
        // its line.
        let corrupted = committed.replacen("0.5012", "0.5013", 1);
        let drift = check_drift(&report, &corrupted).unwrap_err();
        assert!(drift.starts_with("line 3:"), "{drift}");
        assert!(
            drift.contains("0.5013") && drift.contains("0.5012"),
            "{drift}"
        );

        // Whitespace and truncation are drift too: the gate is on bytes.
        assert!(check_drift(&report, &format!("{committed}\n")).is_err());
        let truncated = &committed[..committed.len() - 2];
        let drift = check_drift(&report, truncated).unwrap_err();
        assert!(drift.contains("<end of file>"), "{drift}");
    }
}
