//! Persistence harness: crash-consistent recovery under a sweep of
//! snapshot intervals × crash points, plus a torn-tail fault, with the
//! aggregate results written to `BENCH_persistence.json`.
//!
//! Every node of every run attaches a `hashcore_store::ChainStore`:
//! accepted blocks append to the CRC-framed segment log and the fork tree
//! snapshots every `snapshot_interval` appends. Each scenario then kills
//! one node at a deterministic simulated time, restarts it from disk
//! through the store's recovery ladder, and lets segment sync close
//! whatever gap opened while it was down.
//!
//! Scenarios:
//!
//! * **snap-\<I\>-at-\<F\>** — snapshot interval `I` ∈ {1, 4, 16}, crash at
//!   fraction `F` ∈ {1/4, 1/2} of the run. The crashed node's recovered
//!   fork tree must be *fingerprint-identical* to the tree it held at the
//!   instant of the crash (snapshot + log replay loses nothing).
//! * **torn-tail** — no periodic snapshots and the active log is sheared
//!   mid-record before the restart: recovery must detect the damage,
//!   truncate exactly the torn suffix (`recovery_lost_bytes > 0`), restore
//!   the surviving prefix, and still reconverge over segment sync.
//!
//! Acceptance gates asserted here (and grepped by CI from the JSON):
//! every scenario converges; every non-torn recovery is
//! fingerprint-identical (`recovered_identical`); the torn recovery
//! truncates and reconverges (`torn_tail_truncated`); and every scenario
//! — crash, recovery and all — replays byte-identically from its seed
//! (`runs_identical`). Each run gets a fresh scratch directory:
//! `ChainStore::create` refuses a directory that already holds store
//! files, and determinism must come from the seed, not leftover state.
//!
//! Usage:
//!
//! ```text
//! sim_persistence [duration-seconds] [threads]
//! ```
//!
//! `threads` drives both the scheduler workers and the segment verifier
//! (0 = all logical cores); it never changes a deterministic metric.

use hashcore_baselines::Sha256dPow;
use hashcore_bench::simbench::{
    host_json, positional_arg, run_twice, threads_arg, write_json, JsonObject,
};
use hashcore_net::{CrashRestart, PersistenceConfig, SimConfig, SimReport, Simulation};
use hashcore_store::TempDir;

/// Nodes in every scenario; one of them crashes.
const NODES: usize = 4;
/// The node every scenario crashes (not node 0, which seeds the race).
const CRASH_NODE: usize = 1;
/// Snapshot intervals swept by the non-torn scenarios.
const SNAPSHOT_INTERVALS: [u64; 3] = [1, 4, 16];

/// One scenario of the sweep.
struct Scenario {
    name: String,
    /// Fork-tree snapshot every this many appended blocks (0 = never).
    snapshot_interval: u64,
    /// Crash point as simulated milliseconds into the run.
    crash_at_ms: u64,
    /// How long the node stays down.
    down_ms: u64,
    /// Bytes sheared off the active segment log before the restart.
    torn_tail_bytes: u64,
}

/// What one scenario produced.
struct Outcome {
    report: SimReport,
    runs_identical: bool,
}

fn scenario_config(
    scenario: &Scenario,
    duration_ms: u64,
    dir: &TempDir,
    threads: usize,
) -> SimConfig {
    SimConfig {
        nodes: NODES,
        seed: 0x5707_a6e5,
        difficulty_bits: 8,
        attempts_per_slice: 32,
        slice_ms: 100,
        fan_out: 2,
        duration_ms,
        threads,
        sync_threads: threads,
        persistence: Some(PersistenceConfig {
            dir: dir.path().to_path_buf(),
            snapshot_interval: scenario.snapshot_interval,
            sync_appends: false,
        }),
        crashes: vec![CrashRestart {
            node: CRASH_NODE,
            at_ms: scenario.crash_at_ms,
            down_ms: scenario.down_ms,
            torn_tail_bytes: scenario.torn_tail_bytes,
        }],
        ..SimConfig::default()
    }
}

fn run_scenario(scenario: &Scenario, duration_ms: u64, threads: usize) -> Outcome {
    let run = || {
        let dir = TempDir::new(&scenario.name).expect("a scratch directory is creatable");
        let config = scenario_config(scenario, duration_ms, &dir, threads);
        Simulation::new(config, |_| Sha256dPow).run()
    };
    let (report, runs_identical) = run_twice(run, SimReport::fingerprint_extended);
    Outcome {
        report,
        runs_identical,
    }
}

fn main() {
    let duration_s = positional_arg(1, 40).max(16);
    let duration_ms = duration_s * 1_000;
    let threads = threads_arg(2);

    let mut scenarios = Vec::new();
    for interval in SNAPSHOT_INTERVALS {
        for (label, fraction) in [("quarter", 4u64), ("half", 2)] {
            scenarios.push(Scenario {
                name: format!("snap-{interval}-at-{label}"),
                snapshot_interval: interval,
                crash_at_ms: duration_ms / fraction,
                down_ms: duration_ms / 8,
                torn_tail_bytes: 0,
            });
        }
    }
    scenarios.push(Scenario {
        name: "torn-tail".into(),
        snapshot_interval: 0,
        crash_at_ms: duration_ms / 2,
        down_ms: duration_ms / 8,
        torn_tail_bytes: 7,
    });

    println!(
        "persistence matrix: {} scenarios × 2 runs, {duration_s} s horizon, \
         {NODES} nodes, node {CRASH_NODE} crashes and recovers from disk",
        scenarios.len()
    );

    let outcomes: Vec<(&Scenario, Outcome)> = scenarios
        .iter()
        .map(|scenario| {
            let outcome = run_scenario(scenario, duration_ms, threads);
            let r = &outcome.report;
            println!(
                "  {:<18} converged={} height={} crashes={} identical_recoveries={} \
                 replayed={} lost_bytes={} dropped_while_down={} deterministic={}",
                scenario.name,
                r.converged,
                r.tip_height,
                r.crash_restarts,
                r.recoveries_identical,
                r.blocks_replayed,
                r.recovery_lost_bytes,
                r.messages_lost_to_crashes,
                outcome.runs_identical,
            );
            (scenario, outcome)
        })
        .collect();

    // Acceptance gates. A torn tail legitimately recovers a *prefix* of
    // the pre-crash tree, so the fingerprint-identity gate covers the
    // non-torn scenarios and the torn scenario gets its own: damage
    // detected, bytes truncated, and the node still reconverges.
    let runs_identical = outcomes.iter().all(|(_, o)| o.runs_identical);
    let recovered_identical =
        outcomes
            .iter()
            .filter(|(s, _)| s.torn_tail_bytes == 0)
            .all(|(_, o)| {
                o.report.crash_restarts > 0
                    && o.report.recoveries_identical == o.report.crash_restarts
            });
    let torn_tail_truncated = outcomes
        .iter()
        .filter(|(s, _)| s.torn_tail_bytes > 0)
        .all(|(_, o)| o.report.recovery_lost_bytes > 0 && o.report.converged);
    for (scenario, outcome) in &outcomes {
        assert!(
            outcome.report.converged,
            "the restarted node must reconverge under {}: {}",
            scenario.name,
            outcome.report.fingerprint_extended()
        );
    }
    assert!(
        recovered_identical,
        "every clean recovery must restore the exact pre-crash fork tree"
    );
    assert!(
        torn_tail_truncated,
        "the torn tail must be detected, truncated and healed over sync"
    );
    assert!(runs_identical, "every scenario must replay identically");

    let json = render_json(
        &outcomes,
        duration_ms,
        recovered_identical,
        torn_tail_truncated,
        runs_identical,
        threads,
    );
    write_json("BENCH_persistence.json", &json);
}

/// Renders the sweep as a JSON document.
fn render_json(
    outcomes: &[(&Scenario, Outcome)],
    duration_ms: u64,
    recovered_identical: bool,
    torn_tail_truncated: bool,
    runs_identical: bool,
    threads: usize,
) -> String {
    let scenarios = outcomes.iter().map(|(scenario, outcome)| {
        let r = &outcome.report;
        let mut row = JsonObject::default();
        row.text("name", &scenario.name)
            .field("snapshot_interval", scenario.snapshot_interval)
            .field("crash_at_ms", scenario.crash_at_ms)
            .field("down_ms", scenario.down_ms)
            .field("torn_tail_bytes", scenario.torn_tail_bytes)
            .field("converged", r.converged)
            .field("tip_height", r.tip_height)
            .field("crash_restarts", r.crash_restarts)
            .field("recoveries_identical", r.recoveries_identical)
            .field("blocks_replayed", r.blocks_replayed)
            .field("recovery_lost_bytes", r.recovery_lost_bytes)
            .field("messages_lost_to_crashes", r.messages_lost_to_crashes)
            .field("runs_identical", outcome.runs_identical);
        row
    });
    let mut json = JsonObject::default();
    json.text("bench", "persistence_recovery")
        .value("host", host_json(threads))
        .field("duration_ms", duration_ms)
        .field("nodes", NODES)
        .field("crash_node", CRASH_NODE)
        .array("scenarios", scenarios)
        .field("recovered_identical", recovered_identical)
        .field("torn_tail_truncated", torn_tail_truncated)
        .field("runs_identical", runs_identical);
    json.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_crash_scenario_recovers_identically_and_replays() {
        let scenario = Scenario {
            name: "snap-2-test".into(),
            snapshot_interval: 2,
            crash_at_ms: 8_000,
            down_ms: 3_000,
            torn_tail_bytes: 0,
        };
        let outcome = run_scenario(&scenario, 16_000, 2);
        assert!(outcome.runs_identical);
        assert!(outcome.report.converged);
        assert_eq!(outcome.report.crash_restarts, 1);
        assert_eq!(outcome.report.recoveries_identical, 1);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let scenario = Scenario {
            name: "torn-test".into(),
            snapshot_interval: 0,
            crash_at_ms: 8_000,
            down_ms: 3_000,
            torn_tail_bytes: 7,
        };
        let outcome = run_scenario(&scenario, 16_000, 2);
        let json = render_json(&[(&scenario, outcome)], 16_000, true, true, true, 2);
        assert!(json.contains("\"bench\": \"persistence_recovery\""));
        assert!(json.contains("\"recovered_identical\": true"));
    }
}
