//! The static verification sweep behind `results/verify_all.txt` (a
//! `stream-gpu regen` entry) and `stream-gpu verify-all`: the whole
//! benchmark suite through the static verifier, with its coalescing
//! prediction cross-checked against the simulator's dynamic memory
//! counters.
//!
//! For every benchmark × execution scheme the sweep:
//!
//! 1. compiles the benchmark and runs the full verifier (modulo-schedule
//!    hazards, buffer-bounds liveness, coalescing classification);
//! 2. executes the same compilation on the simulator and asserts the
//!    predicted memory counters equal the measured ones **exactly** —
//!    any divergence between the static model and the simulator fails
//!    the sweep;
//! 3. fails on any error-severity (`V0101`/`V0201`/`V0301`-class)
//!    diagnostic;
//! 4. runs the tenant-isolation prover ([`swpipe::verify::isolate`]) and
//!    fails unless the artifact earns a certificate.
//!
//! The report prints one verdict line per check with every diagnostic
//! under it, then every diagnostic and certificate as one JSON document.
//! An optional directory receives an annotated Graphviz file per
//! benchmark with flagged filters and channels colored by severity.

use std::fmt::Write;
use std::path::Path;

use serde_json::Value;
use swpipe::exec::{self, CompileOptions, Scheme};
use swpipe::report;
use swpipe::verify::{self, StaticCounters};

/// Steady-state iterations each (benchmark, scheme) pair is verified and
/// simulated for.
pub const ITERATIONS: u64 = 4;

/// A finished sweep: the report (the bytes of `results/verify_all.txt`)
/// and how many checks failed.
pub struct Sweep {
    /// Verdict lines, their diagnostics, and the JSON document.
    pub report: String,
    /// Failed checks; the sweep passes only at zero.
    pub failures: u32,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn opt_str(s: &Option<String>) -> Value {
    s.as_ref().map_or(Value::Null, |v| Value::Str(v.clone()))
}

fn opt_num(n: Option<u32>) -> Value {
    n.map_or(Value::Null, |v| num(u64::from(v)))
}

/// Appends `verdict` and the rendered `diags` under it.
fn push_verdict(out: &mut String, verdict: &str, diags: &[verify::Diagnostic]) {
    writeln!(out, "{verdict}").unwrap();
    for line in report::render_diagnostics(diags).lines() {
        writeln!(out, "    {line}").unwrap();
    }
}

/// Runs the sweep over every benchmark × scheme, writing an annotated
/// `<benchmark>.dot` per benchmark into `dot_dir` when one is given (a
/// file that cannot be written counts as a failure).
#[must_use]
pub fn sweep(dot_dir: Option<&Path>) -> Sweep {
    let schemes = [
        ("swp", Scheme::Swp { coarsening: 1 }),
        ("swpnc", Scheme::SwpNc { coarsening: 1 }),
        ("swp-raw", Scheme::SwpRaw { coarsening: 1 }),
        ("serial", Scheme::Serial { batch: 1 }),
    ];
    let mut out = String::new();
    let mut failures = 0u32;
    let mut json_rows: Vec<Value> = Vec::new();
    for b in streambench::suite() {
        let graph = match b.spec.flatten() {
            Ok(g) => g,
            Err(e) => {
                writeln!(out, "{:<12} FLATTEN FAILED: {e}", b.name).unwrap();
                failures += 1;
                continue;
            }
        };
        let c = match exec::compile(&graph, &CompileOptions::small_test()) {
            Ok(c) => c,
            Err(e) => {
                writeln!(out, "{:<12} COMPILE FAILED: {e}", b.name).unwrap();
                failures += 1;
                continue;
            }
        };
        let mut bench_diags = Vec::new();
        for (label, scheme) in schemes {
            match check(&c, scheme, ITERATIONS, &b) {
                Ok((v, verdict)) => {
                    push_verdict(
                        &mut out,
                        &format!("{:<12} {label:<8} {verdict}", b.name),
                        &v.diagnostics,
                    );
                    if !v.passes() || verdict.starts_with("FAIL") {
                        failures += 1;
                    }
                    let (cert, iso_diags, iso_verdict) = prove_isolation(&c, scheme);
                    push_verdict(
                        &mut out,
                        &format!("{:<12} {label:<8} {iso_verdict}", b.name),
                        &iso_diags,
                    );
                    if cert.is_none() {
                        failures += 1;
                    }
                    json_rows.push(obj(vec![
                        ("benchmark", Value::Str(b.name.into())),
                        ("scheme", Value::Str(label.into())),
                        ("verdict", Value::Str(verdict.clone())),
                        ("diagnostics", diagnostics_json(&v.diagnostics)),
                        (
                            "isolation",
                            obj(vec![
                                ("certificate", certificate_json(cert.as_ref())),
                                ("diagnostics", diagnostics_json(&iso_diags)),
                            ]),
                        ),
                    ]));
                    bench_diags.extend(iso_diags);
                    bench_diags.extend(v.diagnostics);
                }
                Err(e) => {
                    writeln!(out, "{:<12} {label:<8} FAIL ({e})", b.name).unwrap();
                    failures += 1;
                    json_rows.push(obj(vec![
                        ("benchmark", Value::Str(b.name.into())),
                        ("scheme", Value::Str(label.into())),
                        ("verdict", Value::Str(format!("FAIL ({e})"))),
                        ("diagnostics", Value::Array(Vec::new())),
                    ]));
                }
            }
        }
        if let Some(dir) = dot_dir {
            let ann = report::dot_annotations(&bench_diags);
            let dot = c.graph.to_dot_annotated(b.name, &ann);
            let path = dir.join(format!("{}.dot", b.name));
            if let Err(e) = std::fs::write(&path, dot) {
                eprintln!("error: cannot write {}: {e}", path.display());
                failures += 1;
            }
        }
    }
    let doc = obj(vec![
        ("iterations", num(ITERATIONS)),
        ("isolation", Value::Bool(true)),
        ("failures", num(u64::from(failures))),
        ("results", Value::Array(json_rows)),
    ]);
    writeln!(out, "{}", serde_json::to_string_pretty(&doc)).unwrap();
    Sweep {
        report: out,
        failures,
    }
}

/// Verifies one (compilation, scheme) pair and cross-checks the counter
/// prediction against a real simulated run.
fn check(
    c: &exec::Compiled,
    scheme: Scheme,
    iterations: u64,
    b: &streambench::Benchmark,
) -> Result<(verify::Verification, String), swpipe::Error> {
    let v = verify::verify(c, scheme, iterations)?;
    let n_input = exec::required_input(c, iterations);
    let input = (b.input)(n_input as usize);
    let run = exec::execute(c, scheme, iterations, &input[..n_input as usize])?;
    let measured = StaticCounters::of_stats(&run.stats);
    let p = &v.prediction;
    let verdict = if !p.exact {
        // No benchmark takes this path today (the suite is branch-free);
        // it exists so a future data-dependent benchmark degrades loudly.
        format!(
            "INEXACT (predicted {:?}, measured {measured:?})",
            p.counters
        )
    } else if p.counters != measured {
        format!(
            "FAIL: prediction diverged from the simulator \
             (predicted {:?}, measured {measured:?})",
            p.counters
        )
    } else {
        format!(
            "ok: {} mem txns, {} shared accesses over {} launches predicted exactly{}",
            p.counters.mem_transactions,
            p.counters.shared_accesses,
            p.launches,
            match verify::max_severity(&v.diagnostics) {
                None => String::new(),
                Some(s) => format!(" ({} finding(s), worst {s})", v.diagnostics.len()),
            }
        )
    };
    Ok((v, verdict))
}

/// Runs the isolation prover at the scheme's canonical granule and
/// renders a one-line verdict.
fn prove_isolation(
    c: &exec::Compiled,
    scheme: Scheme,
) -> (
    Option<verify::IsolationCertificate>,
    Vec<verify::Diagnostic>,
    String,
) {
    match verify::isolate::certify(c, scheme) {
        Ok(iso) => {
            let verdict = match &iso.certificate {
                Some(cert) => format!(
                    "isolated: {} accesses over {} launches proven in-arena \
                     ({} regions, digest {:016x})",
                    cert.accesses_checked, cert.launches, cert.regions, cert.digest
                ),
                None => format!(
                    "FAIL: isolation proof rejected the artifact \
                     ({} finding(s))",
                    iso.diagnostics.len()
                ),
            };
            (iso.certificate, iso.diagnostics, verdict)
        }
        Err(e) => (None, Vec::new(), format!("FAIL: isolation prover ({e})")),
    }
}

/// Manual JSON encoding of diagnostics (`Diagnostic` carries rendering
/// state and does not implement `Serialize`).
fn diagnostics_json(diags: &[verify::Diagnostic]) -> Value {
    Value::Array(
        diags
            .iter()
            .map(|d| {
                obj(vec![
                    ("code", Value::Str(d.code.code().into())),
                    ("name", Value::Str(d.code.name().into())),
                    ("severity", Value::Str(d.severity.to_string())),
                    ("message", Value::Str(d.message.clone())),
                    ("filter", opt_str(&d.filter)),
                    ("site", opt_str(&d.site)),
                    ("node", opt_num(d.node)),
                    ("edge", opt_num(d.edge)),
                ])
            })
            .collect(),
    )
}

/// Manual JSON encoding of a certificate. The digest is a full 64-bit
/// hash, outside JSON's exact-integer range, so it is emitted as hex.
fn certificate_json(cert: Option<&verify::IsolationCertificate>) -> Value {
    match cert {
        None => Value::Null,
        Some(c) => obj(vec![
            ("version", num(u64::from(c.version))),
            ("digest", Value::Str(format!("{:016x}", c.digest))),
            ("iterations", num(c.iterations)),
            ("arena_words", num(c.arena_words)),
            ("regions", num(u64::from(c.regions))),
            ("accesses_checked", num(c.accesses_checked)),
            ("launches", num(c.launches)),
            ("exact", Value::Bool(c.exact)),
        ]),
    }
}
