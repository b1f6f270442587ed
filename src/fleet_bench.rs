//! The fleet serving benchmark behind `BENCH_fleet.json` (a
//! `stream-gpu regen` entry) and `stream-gpu fleet-chaos`.
//!
//! Serves the eight StreamIt benchmarks as eight tenants of a
//! [`swpipe::fleet::FleetEngine`] under three configurations:
//!
//! 1. **solo** — one device, replication 1: the single-device
//!    disk-tier baseline the fleet's cross-device hit rate is judged
//!    against;
//! 2. **fleet** — N devices, replication 2, no faults: the nominal
//!    fleet;
//! 3. **storm** — the same fleet under a seeded [`FleetStorm`]
//!    (rolling device kills, a rack brownout, a partition train) plus
//!    one loss aimed at a job mid-execution ([`aimed_loss`]), proving
//!    completion-or-rejection — zero jobs lost — and that checkpoint
//!    shipping ran.
//!
//! [`run_bench`] renders `BENCH_fleet.json` with all three reports;
//! [`chaos`] writes `FLEET_chaos.json` carrying the loop's whole
//! timeline — the determinism witness the CI chaos job uploads.

use gpusim::DeviceId;
use serde::Serialize;
use swpipe::fleet::{
    FleetEngine, FleetJobResult, FleetOptions, FleetReport, FleetStorm, FleetVerdict, RackBrownout,
};
use swpipe::serve::{Job, ServeOptions, TraceEvent};

use crate::{suite_trace, write_json};

/// Arrival rounds of the full benchmark (each round submits all eight
/// benchmarks once).
pub const FULL_ROUNDS: usize = 6;
/// Steady-state iterations per job in the full benchmark.
pub const FULL_ITERATIONS: u64 = 4;
/// Fleet size of the full benchmark. Eight devices give the eight
/// benchmark tenants one-to-two-tenant homes, so slice widths settle
/// fast and the replicated store's cross-device hits dominate; smaller
/// fleets (more tenants per home) see more width churn from demand
/// rebalancing and correspondingly more honest compile misses.
pub const FULL_DEVICES: u32 = 8;
/// Storm seed of the full benchmark and the default `fleet-chaos` seed.
/// Chosen so the rolling kills land on devices
/// with jobs in flight — the storm run must actually exercise
/// checkpoint-shipping failover, not just kill idle fleet members.
pub const FULL_SEED: u64 = 0xF1EE_700B;
/// Iterations per job of a [`chaos`] run. Deeper than
/// [`FULL_ITERATIONS`] so every benchmark's modulo schedule has a
/// steady window to capture — the chaos run dispatches steady states
/// as graph replays, and a device kill must be able to land mid-replay.
pub const CHAOS_ITERATIONS: u64 = 48;

/// The per-device serving configuration all three runs share. No
/// launch-grain fault plan: device-grain faults are the fleet's own
/// axis, and keeping launches fault-free makes the solo run a clean
/// byte-identical reference for the differential tests.
#[must_use]
pub fn base_serve_options() -> ServeOptions {
    ServeOptions::default()
}

/// The single-device baseline: no replication to lean on.
#[must_use]
pub fn solo_options() -> FleetOptions {
    FleetOptions {
        devices: 1,
        base: base_serve_options(),
        replication: 1,
        ..FleetOptions::default()
    }
}

/// The nominal fleet: `devices` members, replication 2.
#[must_use]
pub fn fleet_options(devices: u32) -> FleetOptions {
    FleetOptions {
        devices,
        base: base_serve_options(),
        replication: 2,
        ..FleetOptions::default()
    }
}

/// The seeded storm the chaos configuration runs under: two rolling
/// kills (never below two live devices), a partition train, and a
/// one-device rack brownout mid-trace.
#[must_use]
pub fn bench_storm(seed: u64) -> FleetStorm {
    FleetStorm {
        seed,
        kills: 2,
        // Land the kills inside the arrival bursts (rounds start at
        // 0.0, 1.4, 2.8, …; cache-miss jobs stay in flight for the
        // 0.5 s compile penalty) so in-flight jobs actually fail over
        // instead of the storm only hitting idle devices.
        kill_start_secs: 0.25,
        kill_every_secs: 1.4,
        min_alive: 2,
        partitions: 2,
        partition_start_secs: 2.9,
        partition_every_secs: 1.4,
        partition_heal_secs: 0.6,
        rack: Some(RackBrownout {
            at_secs: 4.3,
            devices: 1,
            total_sms: 8,
            heal_secs: 1.0,
        }),
    }
}

/// The storm configuration: the nominal fleet plus `bench_storm(seed)`.
#[must_use]
pub fn storm_options(devices: u32, seed: u64) -> FleetOptions {
    FleetOptions {
        device_faults: bench_storm(seed).device_fault_plan(devices),
        ..fleet_options(devices)
    }
}

/// The [`chaos`] configuration: the storm fleet with graph dispatch
/// on, so rolling kills and the brownout land on jobs whose steady
/// states run as captured-graph replays — failover must re-enter the
/// captured graph from the shipped checkpoint, with the re-capture
/// billed into the failover bucket.
#[must_use]
pub fn chaos_options(devices: u32, seed: u64) -> FleetOptions {
    let mut opts = storm_options(devices, seed);
    opts.base.graph_dispatch = true;
    opts
}

/// Runs one fleet configuration over a trace, returning the report,
/// the timeline, and the verdicts.
///
/// # Panics
///
/// Panics when compilation or execution fails — the trace is paced
/// below saturation, so a hard error is a runtime bug.
#[must_use]
pub fn run_fleet(
    opts: FleetOptions,
    trace: &[(Job, f64)],
) -> (FleetReport, Vec<TraceEvent>, Vec<FleetVerdict>) {
    let mut engine = FleetEngine::new(opts);
    let verdicts = engine.run(trace).expect("fleet trace serves");
    (engine.report(), engine.trace().to_vec(), verdicts)
}

/// The three-configuration benchmark artifact (`BENCH_fleet.json`).
#[derive(Debug, Clone, Serialize)]
pub struct FleetBenchReport {
    /// Arrival rounds served.
    pub rounds: u64,
    /// Iterations per job.
    pub iterations: u64,
    /// Fleet size of the fleet/storm configurations.
    pub devices: u32,
    /// Storm seed.
    pub storm_seed: u64,
    /// Single-device baseline.
    pub solo: FleetReport,
    /// Nominal fleet.
    pub fleet: FleetReport,
    /// Fleet under the storm.
    pub storm: FleetReport,
}

/// One device loss aimed from a dry run of `opts` without it: the
/// longest job of the trace's last round (its final `round_len` jobs)
/// loses its device at the midpoint of its execution window. The dry
/// run and a run with the loss agree up to that instant, so the loss
/// lands on a job in flight whatever the storm's seed does.
///
/// # Panics
///
/// Panics when the dry run completes no job in that round.
#[must_use]
pub fn aimed_loss(opts: &FleetOptions, trace: &[(Job, f64)], round_len: usize) -> (DeviceId, f64) {
    let (_, _, verdicts) = run_fleet(opts.clone(), trace);
    let span = |r: &FleetJobResult| r.finish_secs - r.start_secs;
    let victim = (verdicts[trace.len() - round_len..].iter())
        .filter_map(|v| match v {
            FleetVerdict::Completed(r) => Some(r),
            FleetVerdict::Rejected { .. } => None,
        })
        .max_by(|a, b| span(a).total_cmp(&span(b)))
        .expect("the last round completes a job");
    (
        DeviceId(victim.device),
        (victim.start_secs + victim.finish_secs) / 2.0,
    )
}

/// `opts` with one more device loss at `(device, at)`.
fn with_loss(mut opts: FleetOptions, (device, at): (DeviceId, f64)) -> FleetOptions {
    opts.device_faults = opts.device_faults.with_loss(device, at);
    opts
}

/// Runs all three configurations and checks the fleet acceptance
/// criteria.
///
/// # Panics
///
/// Panics when the fleet's cross-device artifact-store hit rate fails
/// to beat the solo disk-tier hit rate, when the storm loses a job, or
/// when it ships no checkpoint state.
#[must_use]
pub fn run_bench(rounds: usize, iterations: u64, devices: u32, seed: u64) -> FleetBenchReport {
    let trace = suite_trace(rounds, iterations);
    let round_len = trace.len() / rounds.max(1);

    let (solo, _, _) = run_fleet(solo_options(), &trace);
    let (fleet, _, _) = run_fleet(fleet_options(devices), &trace);
    let storm_opts = storm_options(devices, seed);
    let loss = aimed_loss(&storm_opts, &trace, round_len);
    let (storm, _, _) = run_fleet(with_loss(storm_opts, loss), &trace);

    assert!(
        fleet.store.hit_rate() > solo.store.hit_rate(),
        "cross-device hit rate {:.3} must beat solo disk tier {:.3}",
        fleet.store.hit_rate(),
        solo.store.hit_rate()
    );
    assert_eq!(
        storm.jobs_lost, 0,
        "storm lost jobs: every job must complete or be rejected"
    );
    assert!(
        storm.failovers > 0,
        "the storm must catch at least one in-flight job (failover path unexercised)"
    );
    assert!(
        storm.failover_cycles > 0,
        "the storm's failovers shipped no checkpoint state (the loss missed every execution window)"
    );
    for (name, r) in [("solo", &solo), ("fleet", &fleet), ("storm", &storm)] {
        assert!(r.artifacts > 0, "{name}: no artifacts dispatched");
        assert_eq!(
            r.certified, r.artifacts,
            "{name}: every dispatched artifact must carry a verified isolation certificate"
        );
    }

    FleetBenchReport {
        rounds: rounds as u64,
        iterations,
        devices,
        storm_seed: seed,
        solo,
        fleet,
        storm,
    }
}

/// The chaos artifact (`FLEET_chaos.json`): the storm report plus the
/// loop's whole timeline.
#[derive(Debug, Clone, Serialize)]
pub struct FleetChaosArtifact {
    /// Storm seed.
    pub seed: u64,
    /// Fleet size.
    pub devices: u32,
    /// Whether the storm run dispatched steady states as captured-graph
    /// replays (always, for [`chaos`]).
    pub graph_dispatch: bool,
    /// Launch-path cycles of a host-launched run of the same storm —
    /// the baseline the graph run's `report.launch_path_cycles` is
    /// judged against.
    pub host_launch_path_cycles: u64,
    /// `host_launch_path_cycles - report.launch_path_cycles`: the
    /// launch-overhead cycles graph dispatch eliminated under the storm.
    pub saved_launch_cycles: u64,
    /// The storm-run report.
    pub report: FleetReport,
    /// The timeline, in order — byte-identical across same-seed
    /// replays.
    pub events: Vec<TraceEvent>,
}

fn print_report(name: &str, r: &FleetReport) {
    println!(
        "{name:>6}: {} dev ({} alive)  {} done / {} rejected / {} lost  \
         {:>8.1} tok/s  p99 {:.4}s  store hit {:.3} (remote {:.3})  \
         failovers {} (p99 +{:.4}s)",
        r.devices,
        r.devices_alive,
        r.jobs_completed,
        r.jobs_rejected,
        r.jobs_lost,
        r.throughput_tokens_per_sec,
        r.p99_latency_secs,
        r.store.hit_rate(),
        r.store.remote_hit_rate(),
        r.failovers,
        r.failover_p99_secs,
    );
}

/// One `fleet-chaos` cell: the storm at `seed` over a `devices`-device
/// fleet, graph-dispatched, over the [`FULL_ROUNDS`]-round trace at
/// [`CHAOS_ITERATIONS`], with one more loss aimed at a job in flight.
/// Asserts zero lost jobs, real replays and failovers, a cheaper launch
/// path than the host-launched twin and byte-identical per-job outputs
/// across dispatch modes; prints the storm report and writes
/// `FLEET_chaos.json`.
///
/// # Panics
///
/// Panics when an acceptance assertion fails or the file cannot be
/// written.
pub fn chaos(devices: u32, seed: u64) {
    let rounds = FULL_ROUNDS;
    let trace = suite_trace(rounds, CHAOS_ITERATIONS);
    // Where the seeded kills fall relative to the jobs depends on the
    // seed; one more loss, aimed at a graph-dispatched job in flight,
    // makes every seed exercise mid-replay failover.
    let round_len = trace.len() / rounds.max(1);
    let loss = aimed_loss(&chaos_options(devices, seed), &trace, round_len);
    // The same storm host-launched: the launch-overhead baseline
    // and the byte-identity reference for the graph-dispatched run.
    let (host, _, host_verdicts) = run_fleet(with_loss(storm_options(devices, seed), loss), &trace);
    let (report, events, verdicts) =
        run_fleet(with_loss(chaos_options(devices, seed), loss), &trace);
    assert_eq!(host.jobs_lost, 0, "host-launched chaos run lost jobs");
    assert_eq!(report.jobs_lost, 0, "chaos run lost jobs");
    assert!(
        report.graph_replays > 0,
        "the chaos fleet replayed nothing: graph dispatch was not exercised"
    );
    assert!(
        report.failovers > 0,
        "the storm must catch an in-flight graph-dispatched job \
         (mid-replay failover unexercised)"
    );
    assert!(
        report.launch_path_cycles < host.launch_path_cycles,
        "graph dispatch must cut the storm's launch-path cycles ({} vs {})",
        report.launch_path_cycles,
        host.launch_path_cycles
    );
    // Dispatch mode may change when things finish, never what jobs
    // compute: every job completed under both modes with
    // byte-identical outputs.
    for (i, (h, g)) in host_verdicts.iter().zip(&verdicts).enumerate() {
        match (h, g) {
            (FleetVerdict::Completed(h), FleetVerdict::Completed(g)) => {
                assert_eq!(
                    h.outputs, g.outputs,
                    "job {i}: graph-dispatched output diverged from host-launched"
                );
            }
            _ => panic!("job {i}: completion pattern diverged across dispatch modes"),
        }
    }
    print_report("storm", &report);
    let artifact = FleetChaosArtifact {
        seed,
        devices,
        graph_dispatch: true,
        host_launch_path_cycles: host.launch_path_cycles,
        saved_launch_cycles: host.launch_path_cycles - report.launch_path_cycles,
        report,
        events,
    };
    println!(
        "graph dispatch under storm: launch path {} -> {} cycles ({} replays, {} failovers)",
        artifact.host_launch_path_cycles,
        artifact.report.launch_path_cycles,
        artifact.report.graph_replays,
        artifact.report.failovers,
    );
    write_json(&artifact, "FLEET_chaos.json");
    println!(
        "wrote FLEET_chaos.json ({} timeline entries)",
        artifact.events.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap report for drift-gate tests: one tiny solo run stands in
    /// for all three configurations (the gate compares rendered JSON;
    /// it does not care that the configurations coincide).
    fn tiny_report() -> FleetBenchReport {
        let trace = suite_trace(1, 1);
        let (solo, _, _) = run_fleet(solo_options(), &trace);
        FleetBenchReport {
            rounds: 1,
            iterations: 1,
            devices: 1,
            storm_seed: 0,
            fleet: solo.clone(),
            storm: solo.clone(),
            solo,
        }
    }

    #[test]
    fn drift_check_accepts_a_faithful_artifact_and_catches_drift() {
        use crate::check_drift;
        use serde_json::to_string_pretty as render;
        let report = tiny_report();
        let json = render(&report);
        assert_eq!(check_drift(&render(&report), &json), Ok(()));

        let renamed = json.replacen("\"search_invocations\"", "\"search_invocs\"", 1);
        let drift = check_drift(&json, &renamed).unwrap_err();
        assert!(
            drift.contains("search_invocs"),
            "renamed key must be shown on the differing line: {drift}"
        );

        let mut stale = report.clone();
        stale.fleet.jobs_completed += 1;
        let drift = check_drift(&render(&stale), &json).unwrap_err();
        assert!(
            drift.contains("jobs_completed"),
            "stale counter must be flagged: {drift}"
        );

        // Overhead buckets are gated like the job counters.
        let mut burned = report.clone();
        burned.storm.failover_cycles += 1;
        let drift = check_drift(&render(&burned), &json).unwrap_err();
        assert!(drift.contains("failover_cycles"), "{drift}");

        assert!(check_drift(&json, "{not json").is_err());
    }
}
