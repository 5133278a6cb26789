//! `sim`: the network layer's scheduler and handlers, plus `chain` fork
//! choice and segment sync, with no widget work.
//!
//! Each simulation runs `Sha256dPow` nodes on the defended peer topology
//! with anchor rotation, as in `sim_scale`, with a partition of a quarter
//! of the nodes over the middle third of the horizon, so the heal drives
//! segment sync and reorgs. A pass runs [`SIMS_PER_PASS`] simulations with
//! seed-derived simulation seeds, one after another; every pass runs the
//! same ones. Every simulation must converge and produce the same extended
//! fingerprint in every pass.

use crate::common::{timed, Outcome, SeedRng, Settings, Setup, Timings, MIN_PASSES};
use crate::trace::Tracer;
use hashcore_baselines::Sha256dPow;
use hashcore_crypto::{hex, sha256};
use hashcore_net::{Partition, SimConfig, SimReport, Simulation, TopologyConfig};
use std::time::Instant;

/// (nodes, difficulty bits, attempts per 100 ms slice, simulated seconds).
/// Difficulty keeps the network near one block every 1.6 s: nodes ×
/// attempts × 10 slices/s over 2^bits. One attempt per slice keeps hashing
/// a small share of the run, so the scheduler, handlers and sync dominate;
/// at four attempts the 4-lane SHA-256 batches took about three quarters
/// of it.
const FULL: (usize, u32, u64, u64) = (32, 9, 1, 15);
const QUICK: (usize, u32, u64, u64) = (8, 7, 1, 9);
/// Distinct simulations per pass, full or quick: one latency sample each,
/// and 100 put the tail at p90.
const SIMS_PER_PASS: usize = 100;

/// SHA-256 of the first simulation's extended fingerprint for the default
/// seed.
const PIN_FINGERPRINT: &str = "92b83b7e38641b42388ce3bf74301e1fabcb8310dfd49b58695acb04748cc4eb";
const PIN_FINGERPRINT_QUICK: &str =
    "2be7c6aa5d7f4d14e5980cfa988bc20045cfbb512323936588af92c08b0bb7dd";

/// The configuration of the simulation with seed `sim_seed`.
fn config(settings: &Settings, sim_seed: u64) -> SimConfig {
    let (nodes, difficulty_bits, attempts_per_slice, seconds) = settings.pick(FULL, QUICK);
    let duration_ms = seconds * 1_000;
    SimConfig {
        nodes,
        seed: sim_seed,
        difficulty_bits,
        attempts_per_slice,
        slice_ms: 100,
        // Flooding: the fan-out covers the whole peer table, which at this
        // scale is what lets quiet periods between blocks converge.
        fan_out: 8,
        partitions: vec![Partition {
            start_ms: duration_ms / 3,
            end_ms: 2 * duration_ms / 3,
            split: nodes / 4,
        }],
        duration_ms,
        sync_threads: 1,
        request_timeout_ms: Some(1_500),
        topology: Some(TopologyConfig {
            rotation_interval_ms: Some(8_000),
            ..TopologyConfig::defended()
        }),
        threads: 1,
        ..SimConfig::default()
    }
}

fn build(config: &SimConfig) -> Simulation<Sha256dPow> {
    Simulation::new(config.clone(), |_| Sha256dPow)
}

/// One run's report and its wall-clock seconds, measured around `run`.
fn run_once(sim: &mut Simulation<Sha256dPow>) -> (SimReport, f64) {
    let (report, elapsed) = timed(|| sim.run());
    (report, elapsed.as_secs_f64())
}

/// What a correctness check needs from one simulation.
#[derive(Debug, PartialEq)]
struct Run {
    fingerprint: String,
    converged: bool,
}

impl Run {
    fn of(report: &SimReport) -> Run {
        Run {
            fingerprint: report.fingerprint_extended(),
            converged: report.converged,
        }
    }
}

/// The pass's configurations and, from set-up, the first pass's
/// simulations.
struct Sims {
    configs: Vec<SimConfig>,
    first: Vec<Simulation<Sha256dPow>>,
}

fn inputs(settings: &Settings) -> Sims {
    let mut seeds = SeedRng::new(settings.seed, "sim");
    let configs: Vec<SimConfig> = (0..SIMS_PER_PASS)
        .map(|_| config(settings, seeds.next_u64()))
        .collect();
    let first = configs.iter().map(build).collect();
    Sims { configs, first }
}

pub fn run(settings: &Settings, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut setup, mut sims) = Setup::start(
        settings,
        || inputs(settings),
        |sims: &Sims| sims.configs.clone(),
    );
    let reports = if traced {
        run_traced(settings, &sims.configs[0], &mut outcome)
    } else {
        run_untraced(settings, &mut sims, &mut setup, &mut outcome)
    };
    setup.finish(&mut outcome);

    let first = &reports[0];
    outcome.check(
        "runs_identical",
        reports.iter().all(|pass| pass == first),
        format!(
            "{} passes of {} simulations, one extended fingerprint per simulation",
            reports.len(),
            first.len()
        ),
    );
    let converged = reports.iter().flatten().filter(|r| r.converged).count();
    outcome.check(
        "runs_converged",
        converged == reports.len() * first.len(),
        format!(
            "{converged} of {} runs converged",
            reports.len() * first.len()
        ),
    );
    outcome.pin(
        "fingerprint",
        settings,
        &hex::encode(&sha256(first[0].fingerprint.as_bytes())),
        settings.pick(PIN_FINGERPRINT, PIN_FINGERPRINT_QUICK),
    );
    outcome
}

/// Runs passes over every simulation while `settings` allows, at least
/// [`MIN_PASSES`], each simulation timed on its own; returns each pass's
/// runs.
fn run_untraced<K: PartialEq>(
    settings: &Settings,
    sims: &mut Sims,
    setup: &mut Setup<'_, Sims, K>,
    outcome: &mut Outcome,
) -> Vec<Vec<Run>> {
    let mut timings = Timings::default();
    let mut passes = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while settings.more(started, timings.latencies_ms.len(), MIN_PASSES) {
        let mut prebuilt = std::mem::take(&mut sims.first).into_iter();
        let (mut walls_ms, mut runs, mut events) = (Vec::new(), Vec::new(), 0);
        for config in &sims.configs {
            let mut sim = prebuilt.next().unwrap_or_else(|| build(config));
            let (report, wall) = run_once(&mut sim);
            outcome.attempted += 1;
            if !report.converged {
                outcome.failed += 1;
            }
            walls_ms.push(wall * 1e3);
            events += report.events_processed;
            runs.push(Run::of(&report));
            last = Some(report);
        }
        timings.unit_ops = events as f64;
        timings.parts_ms.push(walls_ms.clone());
        timings.latencies_ms.push(walls_ms);
        passes.push(runs);
        if timings.latencies_ms.len() == 1 {
            outcome.record_peak_heap();
        }
        setup.after_pass(settings, started);
    }
    outcome.timings(&timings);
    let last = last.expect("at least one simulation");
    outcome.notes.push(format!(
        "{SIMS_PER_PASS} simulations of {} nodes over {} simulated s, {} events a pass; the last: \
         {} events, tip height {}, {} blocks mined; ops are events, latency is one simulation",
        sims.configs[0].nodes,
        sims.configs[0].duration_ms / 1_000,
        timings.unit_ops,
        last.events_processed,
        last.tip_height,
        last.blocks_mined
    ));
    passes
}

/// Alternates untraced and traced runs of the first simulation, at least
/// one of each, so the untraced ones are a baseline for the tracing
/// overhead that host drift spares; returns each run as a pass of its own.
fn run_traced(settings: &Settings, config: &SimConfig, outcome: &mut Outcome) -> Vec<Vec<Run>> {
    let mut tracer = Tracer::new();
    let mut reports = Vec::new();
    let mut walls = Vec::new();
    let started = Instant::now();
    while settings.more(started, reports.len(), 2) {
        let request = reports.len() as u64;
        let (report, wall) = if request % 2 == 1 {
            let mut sim = tracer.span("net.sim_new", None, request, || build(config));
            tracer.span("net.sim_run", None, request, || run_once(&mut sim))
        } else {
            run_once(&mut build(config))
        };
        outcome.attempted += 1;
        if !report.converged {
            outcome.failed += 1;
        }
        walls.push(wall);
        reports.push(report);
    }
    let every_other = |first: usize| -> f64 {
        let runs: Vec<f64> = walls.iter().skip(first).step_by(2).copied().collect();
        crate::stats::median(&runs)
    };
    let (untraced_wall, traced_wall) = (every_other(0), every_other(1));
    let last = reports.last().expect("two runs in a traced run");
    layer_metrics(outcome, &tracer, last, traced_wall);
    outcome.metric(
        "trace_overhead",
        100.0 * (traced_wall / untraced_wall - 1.0),
    );
    crate::report::write_trace(settings, "sim", &tracer, outcome);
    reports.iter().map(|r| vec![Run::of(r)]).collect()
}

fn layer_metrics(outcome: &mut Outcome, tracer: &Tracer, report: &SimReport, wall: f64) {
    let events = report.events_processed as f64;
    outcome.metric("net.events", events);
    outcome.metric("net.us_per_event", wall * 1e6 / events);
    outcome.metric("net.messages", report.messages_sent as f64);
    outcome.metric("net.bytes_sent", report.bytes_sent as f64);
    outcome.metric(
        "net.bytes_per_message",
        report.bytes_sent as f64 / report.messages_sent.max(1) as f64,
    );
    outcome.metric("net.blocks_mined", report.blocks_mined as f64);
    // Mined blocks that did not end on the best chain: wasted work.
    outcome.metric(
        "net.stale_ratio",
        1.0 - report.tip_height as f64 / report.blocks_mined.max(1) as f64,
    );
    outcome.metric(
        "net.sim_new_s",
        tracer.total_ns("net.sim_new") / 1e9 / tracer.count("net.sim_new").max(1) as f64,
    );
    outcome.metric("chain.segments_synced", report.segments_synced as f64);
    outcome.metric("chain.segment_blocks", report.segment_blocks as f64);
    outcome.metric(
        "chain.sync_share",
        report.sync_wall_seconds / report.run_wall_seconds,
    );
    outcome.metric("chain.reorgs", report.reorg_depths.len() as f64);
    outcome.metric("chain.max_reorg_depth", report.max_reorg_depth as f64);
}
