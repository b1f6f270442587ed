//! `stream-gpu regen [--check] [paths…]`: one manifest of every committed
//! number, and the one command that rewrites or byte-checks them.
//!
//! Each [`MANIFEST`] entry pairs a repository-relative path with the
//! generator of its bytes. Every generator is deterministic, so a
//! committed artifact is either byte-identical to a fresh run or has
//! drifted ([`crate::check_drift`] names the first differing line).
//! Generators assert their own acceptance properties — a failed one, or
//! a verifier sweep with failures, fails the pass in both modes.
//!
//! The generators of one pass share their expensive inputs through
//! [`Inputs`]: Table II and Figs. 10/11 render from one harness pass
//! over the suite, and the cost model trains on the dataset the same
//! pass generated.
//!
//! Not in the manifest: `results/bench_device.txt` (written by the
//! benchmark harness under `benchmark/`) and the manual
//! `results/ablations.txt` and `results/ilp_report.txt` (`swp-bench`
//! binaries that take minutes to hours).

use std::cell::OnceCell;
use std::path::Path;
use std::time::Instant;

use swpipe::harness::BenchmarkResult;
use swpipe::learn::Dataset;

use crate::{check_drift, fleet_bench, learn_gen, learn_train, serve_bench, verify_all};

/// What the generators of one pass share, each built on first use.
#[derive(Default)]
pub struct Inputs {
    suite: OnceCell<Vec<BenchmarkResult>>,
    dataset: OnceCell<Dataset>,
}

impl Inputs {
    /// The harness results of the whole suite at
    /// [`swp_bench::options_from_env`].
    fn suite(&self) -> &[BenchmarkResult] {
        self.suite
            .get_or_init(|| swp_bench::run_suite(&swp_bench::options_from_env()))
    }

    /// The small learned-cost-model dataset.
    fn dataset(&self) -> &Dataset {
        self.dataset.get_or_init(|| learn_gen::gen(true))
    }
}

/// One committed artifact.
#[derive(Debug)]
pub struct Entry {
    /// Path relative to the repository root.
    pub path: &'static str,
    /// Renders the artifact's bytes; an error is a failed acceptance
    /// check.
    pub generate: fn(&Inputs) -> Result<String, String>,
}

/// Every committed artifact `regen` owns, in generation order.
pub const MANIFEST: &[Entry] = &[
    Entry {
        path: "results/table1.txt",
        generate: |_| Ok(swp_bench::table1()),
    },
    Entry {
        path: "results/table2.txt",
        generate: |inputs| Ok(swp_bench::table2(inputs.suite())),
    },
    Entry {
        path: "results/fig10.txt",
        generate: |inputs| Ok(swp_bench::fig10(inputs.suite())),
    },
    Entry {
        path: "results/fig11.txt",
        generate: |inputs| Ok(swp_bench::fig11(inputs.suite())),
    },
    Entry {
        path: "results/verify_all.txt",
        generate: |_| {
            let sweep = verify_all::sweep(None);
            match sweep.failures {
                0 => Ok(sweep.report),
                n => Err(format!("the verifier sweep has {n} failure(s)")),
            }
        },
    },
    Entry {
        path: "BENCH_serve.json",
        generate: |_| {
            let (rounds, iterations) = (serve_bench::FULL_ROUNDS, serve_bench::FULL_ITERATIONS);
            let (cold, outputs) =
                serve_bench::run_trace_configured(rounds, iterations, false, false);
            serve_bench::run_warm_differential(rounds, iterations, &cold, &outputs);
            Ok(serde_json::to_string_pretty(&cold))
        },
    },
    Entry {
        path: "BENCH_serve_graph.json",
        generate: |_| {
            let report = serve_bench::run_graph_differential(
                serve_bench::GRAPH_ROUNDS,
                serve_bench::GRAPH_ITERATIONS,
            );
            Ok(serde_json::to_string_pretty(&report))
        },
    },
    Entry {
        path: "BENCH_fleet.json",
        generate: |_| {
            let report = fleet_bench::run_bench(
                fleet_bench::FULL_ROUNDS,
                fleet_bench::FULL_ITERATIONS,
                fleet_bench::FULL_DEVICES,
                fleet_bench::FULL_SEED,
            );
            Ok(serde_json::to_string_pretty(&report))
        },
    },
    Entry {
        path: "datasets/learn_small.json",
        generate: |inputs| Ok(inputs.dataset().to_json()),
    },
    Entry {
        path: "models/cost_model.json",
        generate: |inputs| {
            let model =
                learn_train::train_canonical(inputs.dataset()).map_err(|e| e.to_string())?;
            Ok(model.to_json())
        },
    },
];

/// A committed artifact that differed from its fresh bytes.
#[derive(Debug)]
pub struct Drift {
    /// The artifact's manifest path.
    pub path: &'static str,
    /// The first differing line with both versions of it, or why the
    /// committed file could not be compared.
    pub detail: String,
}

/// The manifest entries named by `paths`, in manifest order; every entry
/// when `paths` is empty.
///
/// # Errors
///
/// Names the first unknown path and lists the manifest.
pub fn select(paths: &[String]) -> Result<Vec<&'static Entry>, String> {
    if let Some(unknown) = paths
        .iter()
        .find(|p| !MANIFEST.iter().any(|e| e.path == p.as_str()))
    {
        let listed: Vec<&str> = MANIFEST.iter().map(|e| e.path).collect();
        return Err(format!(
            "unknown artifact {unknown:?}; the manifest lists:\n  {}",
            listed.join("\n  ")
        ));
    }
    Ok(MANIFEST
        .iter()
        .filter(|e| paths.is_empty() || paths.iter().any(|p| p == e.path))
        .collect())
}

/// Regenerates `entries` under the repository root `root`. With `check`,
/// compares each fresh rendering with the committed file and writes
/// nothing; otherwise rewrites exactly the files whose bytes differ.
/// Either way, returns the artifacts that differed.
///
/// # Errors
///
/// A failed generator (named with its path) or an I/O error.
pub fn run(root: &Path, entries: &[&Entry], check: bool) -> Result<Vec<Drift>, String> {
    let inputs = Inputs::default();
    let mut drifted = Vec::new();
    for entry in entries {
        let start = Instant::now();
        let fresh = (entry.generate)(&inputs).map_err(|e| format!("{}: {e}", entry.path))?;
        eprintln!(
            "[regen] {} ({:.2} s)",
            entry.path,
            start.elapsed().as_secs_f64()
        );
        let file = root.join(entry.path);
        let detail = match std::fs::read(&file) {
            Ok(committed) => match check_drift(&fresh, &String::from_utf8_lossy(&committed)) {
                Ok(()) => continue,
                Err(detail) => detail,
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => "not committed".to_string(),
            Err(e) => return Err(format!("read {}: {e}", file.display())),
        };
        if !check {
            if let Some(dir) = file.parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
            }
            std::fs::write(&file, &fresh).map_err(|e| format!("write {}: {e}", file.display()))?;
        }
        drifted.push(Drift {
            path: entry.path,
            detail,
        });
    }
    Ok(drifted)
}
