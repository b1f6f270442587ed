//! Offline generation of perfectly labeled training data.
//!
//! The generator enumerates exactly the candidate (assignment, II)
//! points the beam search could construct — same assignment strategies,
//! same relaxation-based construction, same feature extractor — then
//! *runs each one on the simulator* and labels it with measured cycles
//! per steady iteration. That closes the loop the Halide autoscheduler
//! had to approximate with benchmarking on real hardware: our simulator
//! is the ground truth the serving path is scored against, so labels
//! are exact and free.
//!
//! Sources are benchmark graphs (wired in by the `learn_gen` bin, since
//! this crate does not depend on the benchmark suite) plus seeded
//! random stream graphs from [`random_sources`], a miniature of the
//! property-test generator: deterministic splitmix64 choices, rate
//! filters in pipelines and round-robin split-joins.
//!
//! The dataset is versioned and serde-serializable; its
//! [`Dataset::feature_names`] pin the schema so a trainer refuses data
//! from a different extractor generation.

use serde::Serialize;
use streamir::graph::{FilterSpec, FlatGraph, SplitterKind, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};

use crate::exec::{self, CompileOptions, Compiled, Scheme};
use crate::learn::features;
use crate::schedule::{self, Schedule, SearchReport};
use crate::{config, instances, profile, Error, Result};

/// The dataset format version. Bumped together with
/// [`features::FEATURE_NAMES`] changes.
pub const DATASET_VERSION: u32 = 1;

/// One stream program the generator draws candidate points from.
pub struct Source {
    /// Display name (benchmark name or `rand-<seed>`).
    pub name: String,
    /// The flattened graph.
    pub graph: FlatGraph,
    /// Input supplier: `input(n)` yields at least `n` tokens.
    pub input: fn(usize) -> Vec<Scalar>,
}

/// One labeled training point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LabeledPoint {
    /// The source program the point came from.
    pub source: String,
    /// SMs the candidate was scheduled onto.
    pub num_sms: u32,
    /// The candidate's initiation interval.
    pub ii: u64,
    /// Feature vector, aligned to the dataset's `feature_names`.
    pub features: Vec<f64>,
    /// Ground truth: simulator-measured cycles per steady iteration.
    pub label_cycles: f64,
}

/// A versioned, schema-pinned labeled dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dataset {
    /// Format version ([`DATASET_VERSION`]).
    pub version: u32,
    /// The feature schema every point's vector is aligned to.
    pub feature_names: Vec<String>,
    /// The labeled points, in generation order (deterministic).
    pub points: Vec<LabeledPoint>,
}

impl Dataset {
    /// Splits into the `(xs, ys)` form [`crate::learn::CostModel::train`]
    /// takes.
    #[must_use]
    pub fn xy(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        (
            self.points.iter().map(|p| p.features.clone()).collect(),
            self.points.iter().map(|p| p.label_cycles).collect(),
        )
    }

    /// The canonical pretty-printed JSON form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self);
        s.push('\n');
        s
    }

    /// Parses a dataset back from its JSON form.
    ///
    /// # Errors
    ///
    /// [`Error::Api`] on malformed JSON, a missing field, or a version
    /// other than [`DATASET_VERSION`].
    pub fn from_json(text: &str) -> Result<Dataset> {
        let v = serde_json::from_str(text).map_err(|e| Error::Api(format!("dataset JSON: {e}")))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| Error::Api(format!("dataset JSON missing `{k}`")))
        };
        let version = field("version")?
            .as_u64()
            .ok_or_else(|| Error::Api("dataset `version` must be an integer".into()))?
            as u32;
        if version != DATASET_VERSION {
            return Err(Error::Api(format!(
                "dataset version {version} unsupported (expected {DATASET_VERSION})"
            )));
        }
        let feature_names = field("feature_names")?
            .as_array()
            .ok_or_else(|| Error::Api("dataset `feature_names` must be an array".into()))?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| Error::Api("feature name must be a string".into()))
            })
            .collect::<Result<Vec<String>>>()?;
        let mut points = Vec::new();
        for p in field("points")?
            .as_array()
            .ok_or_else(|| Error::Api("dataset `points` must be an array".into()))?
        {
            let get = |k: &str| {
                p.get(k)
                    .ok_or_else(|| Error::Api(format!("dataset point missing `{k}`")))
            };
            points.push(LabeledPoint {
                source: get("source")?
                    .as_str()
                    .ok_or_else(|| Error::Api("point `source` must be a string".into()))?
                    .to_string(),
                num_sms: get("num_sms")?
                    .as_u64()
                    .ok_or_else(|| Error::Api("point `num_sms` must be an integer".into()))?
                    as u32,
                ii: get("ii")?
                    .as_u64()
                    .ok_or_else(|| Error::Api("point `ii` must be an integer".into()))?,
                features: get("features")?
                    .as_array()
                    .ok_or_else(|| Error::Api("point `features` must be an array".into()))?
                    .iter()
                    .map(|x| {
                        x.as_f64()
                            .ok_or_else(|| Error::Api("feature must be a number".into()))
                    })
                    .collect::<Result<Vec<f64>>>()?,
                label_cycles: get("label_cycles")?
                    .as_f64()
                    .ok_or_else(|| Error::Api("point `label_cycles` must be a number".into()))?,
            });
        }
        Ok(Dataset {
            version,
            feature_names,
            points,
        })
    }
}

/// Generator knobs.
pub struct GenOptions {
    /// Compile options (device/timing/profile grid) every source shares;
    /// `device.num_sms` is overridden by `sms_grid`.
    pub base: CompileOptions,
    /// SM counts to schedule each source at.
    pub sms_grid: Vec<u32>,
    /// II multipliers applied to each assignment's load floor.
    pub ii_multipliers: Vec<f64>,
    /// Steady iterations each labeling run executes.
    pub iterations: u64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            base: CompileOptions::small_test(),
            sms_grid: vec![2, 4],
            ii_multipliers: vec![1.0, 1.05, 1.15, 1.35],
            iterations: 2,
        }
    }
}

/// Enumerates, executes, and labels every candidate point of every
/// source. Infeasible candidates (relaxation failure, invalid schedule)
/// are skipped; a source whose *front end* fails is an error — the
/// dataset must not silently lose a whole program.
///
/// # Errors
///
/// Front-end errors (profiling, configuration selection, instance
/// model) and simulator errors from labeling runs.
pub fn generate(sources: &[Source], opts: &GenOptions) -> Result<Dataset> {
    let mut points = Vec::new();
    for src in sources {
        for &sms in &opts.sms_grid {
            let mut copts = opts.base.clone();
            copts.device.num_sms = sms;
            let table = profile::profile(&src.graph, &copts.profile, &copts.device, &copts.timing)?;
            let selection = config::select(&src.graph, &table)?;
            let cfg = selection.exec.clone();
            let ig = instances::build(&src.graph, &cfg)?;
            let lower = schedule::lower_bound(&ig, &cfg, sms, 0);
            let mut seen: Vec<(Vec<u32>, u64)> = Vec::new();
            for sm_of in schedule::beam::assignments(&ig, &cfg, sms) {
                // The floor the beam would use: the search bound (which
                // covers the longest single instance) or this assignment's
                // own max-SM load.
                let floor = lower.max(schedule::heuristic::makespan(&ig, &cfg, &sm_of, sms));
                for &mult in &opts.ii_multipliers {
                    let ii = ((floor as f64 * mult).ceil() as u64).max(floor);
                    // Nearby multipliers can round onto the same point.
                    if seen.iter().any(|(s, i)| *i == ii && *s == sm_of) {
                        continue;
                    }
                    seen.push((sm_of.clone(), ii));
                    // Built exactly as the beam builds its candidates.
                    let coarsening_max = copts.search.coarsening_max;
                    let Some(sched) =
                        schedule::heuristic::realize(&ig, &cfg, &sm_of, ii, coarsening_max)
                    else {
                        continue;
                    };
                    if schedule::validate(&ig, &cfg, &sched, sms, copts.search.coarsening_max)
                        .is_err()
                    {
                        continue;
                    }
                    let feats = features::extract(&ig, &cfg, sms, &sm_of, sched.ii);
                    let compiled = synthesize(src, &copts, &selection, &ig, &cfg, sched, lower)?;
                    let need = exec::required_input(&compiled, opts.iterations) as usize;
                    let run = exec::execute(
                        &compiled,
                        Scheme::Swp { coarsening: 1 },
                        opts.iterations,
                        &(src.input)(need),
                    )?;
                    points.push(LabeledPoint {
                        source: src.name.clone(),
                        num_sms: sms,
                        ii: compiled.schedule.ii,
                        features: feats,
                        label_cycles: run.stats.cycles / opts.iterations as f64,
                    });
                }
            }
        }
    }
    Ok(Dataset {
        version: DATASET_VERSION,
        feature_names: features::FEATURE_NAMES
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        points,
    })
}

/// Assembles an executable [`Compiled`] around a candidate schedule so
/// the simulator can label it.
fn synthesize(
    src: &Source,
    copts: &CompileOptions,
    selection: &config::Selection,
    ig: &instances::InstanceGraph,
    cfg: &instances::ExecConfig,
    sched: Schedule,
    lower: u64,
) -> Result<Compiled> {
    let final_ii = sched.ii;
    Ok(Compiled {
        graph: src.graph.clone(),
        exec_cfg: cfg.clone(),
        selection: selection.clone(),
        ig: ig.clone(),
        schedule: sched,
        report: SearchReport::new(lower, final_ii, 0, 1, std::time::Instant::now()),
        device: copts.device.clone(),
        timing: copts.timing.clone(),
    })
}

/// Deterministic input supplier for random sources (the property-test
/// pattern: small signed integers with full coverage of sign and zero).
fn random_input(n: usize) -> Vec<Scalar> {
    (0..n)
        .map(|i| Scalar::I32((i as i32).wrapping_mul(7) % 1000 - 500))
        .collect()
}

/// A rate filter popping `pop` and pushing `push` tokens per firing,
/// mixing every input into every output (so wrong schedules corrupt
/// observable data, not just dead channels).
fn rate_filter(name: &str, pop: u32, push: u32, seed: i32) -> StreamSpec {
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let acc = f.local(ElemTy::I32);
    let x = f.local(ElemTy::I32);
    f.assign(acc, Expr::i32(seed));
    for _ in 0..pop {
        f.pop_into(0, x);
        f.assign(
            acc,
            Expr::add(Expr::mul(Expr::local(acc), Expr::i32(3)), Expr::local(x)),
        );
    }
    for j in 0..push {
        f.push(
            0,
            Expr::add(Expr::local(acc), Expr::i32(seed.wrapping_mul(j as i32))),
        );
    }
    StreamSpec::filter(FilterSpec::new(name, f.build().unwrap()))
}

/// `count` seeded random stream graphs: pipelines of rate filters with
/// an optional round-robin split-join stage, every choice drawn from a
/// splitmix64 stream — same `(count, seed)`, same graphs, forever.
#[must_use]
pub fn random_sources(count: usize, seed: u64) -> Vec<Source> {
    let mut state = seed;
    let mut next = move |bound: u64| -> u64 {
        state = crate::hash::splitmix64(state);
        state % bound
    };
    let mut out = Vec::new();
    for g in 0..count {
        let depth = 2 + next(3) as usize;
        let mut stages = Vec::new();
        for s in 0..depth {
            let pop = 1 + next(3) as u32;
            let push = 1 + next(3) as u32;
            let fseed = 1 + next(7) as i32;
            if s == depth / 2 && next(2) == 0 {
                let n = 2 + next(2) as usize;
                let w = 1 + next(2) as u32;
                let branch = rate_filter(&format!("g{g}b{s}"), pop, push, fseed);
                stages.push(StreamSpec::split_join(
                    SplitterKind::round_robin_uniform(n, w),
                    vec![branch; n],
                    vec![w; n],
                ));
            } else {
                stages.push(rate_filter(&format!("g{g}s{s}"), pop, push, fseed));
            }
        }
        let spec = StreamSpec::pipeline(stages);
        let Ok(graph) = spec.flatten() else {
            continue;
        };
        out.push(Source {
            name: format!("rand-{seed}-{g}"),
            graph,
            input: random_input,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_sources_are_deterministic() {
        let a = random_sources(4, 11);
        let b = random_sources(4, 11);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph.len(), y.graph.len());
        }
        let c = random_sources(4, 12);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.graph.len() != y.graph.len())
                || a.len() != c.len(),
            "different seeds should draw different graphs"
        );
    }

    #[test]
    fn generation_labels_candidates_and_round_trips() {
        let sources = random_sources(2, 7);
        let opts = GenOptions {
            sms_grid: vec![2],
            ii_multipliers: vec![1.0, 1.2],
            ..GenOptions::default()
        };
        let ds = generate(&sources, &opts).unwrap();
        assert!(!ds.points.is_empty(), "generator produced no points");
        for p in &ds.points {
            assert_eq!(p.features.len(), features::FEATURE_NAMES.len());
            assert!(p.label_cycles > 0.0, "labels must be measured cycles");
        }
        let back = Dataset::from_json(&ds.to_json()).unwrap();
        assert_eq!(ds, back);
        // Same sources, same options → byte-identical dataset.
        let again = generate(&random_sources(2, 7), &opts).unwrap();
        assert_eq!(ds.to_json(), again.to_json());
    }
}
