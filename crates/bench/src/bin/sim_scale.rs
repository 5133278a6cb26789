//! Internet-scale simulation harness: the parallel scheduler and
//! the peer-topology overlay, swept across node counts, plus the eclipse
//! attack/defence pair.
//!
//! Three scale scenarios race {8, 64, 256} nodes over bounded peer tables
//! with scored gossip. Each scenario runs **three times**: twice on one
//! thread with the same seed (proving the run replays byte-identically),
//! and once on N worker threads (proving parallelism changes wall-clock
//! only — the N-thread extended fingerprint must equal the 1-thread one).
//! Scheduler throughput is recorded as events/sec for both thread counts.
//!
//! Two eclipse scenarios then attack a 12-node network with six sybils
//! dialling one victim every mining slice: against an *undefended*
//! overlay (no scoring, no anchors, no rotation) the victim's table ends
//! up all sybils and it mines on a stale tip; against the *defended*
//! overlay (usefulness scoring + decay, pinned anchors, anchor rotation)
//! the honest links survive and the network converges, victim included.
//!
//! Writes `BENCH_scale.json`; CI greps `"runs_identical": true`,
//! `"threads_identical": true`, `"eclipse_undefended_isolated": true` and
//! `"eclipse_defended_converged": true`.
//!
//! Usage:
//!
//! ```text
//! sim_scale [duration-seconds] [threads]
//! ```
//!
//! `threads` defaults to every logical core (0 = all cores).

use hashcore_baselines::Sha256dPow;
use hashcore_bench::simbench::{host_json, positional_arg, threads_arg, write_json, JsonObject};
use hashcore_net::{Eclipse, Honest, SimConfig, SimReport, Simulation, TopologyConfig};

/// Sybil node ids in the eclipse scenarios (the victim is node 0).
const SYBILS: std::ops::Range<usize> = 6..12;

fn scale_config(duration_s: u64, nodes: usize, difficulty_bits: u32, threads: usize) -> SimConfig {
    SimConfig {
        nodes,
        seed: 0x5ca1e,
        difficulty_bits,
        attempts_per_slice: 32,
        slice_ms: 100,
        // Fan-out covering the whole 8-slot table: relay floods the
        // overlay graph, so a block reaches all N nodes within the graph
        // diameter and quiet periods between blocks actually converge.
        // Sampled gossip (fan-out below the table size) leaves a straggler
        // on an equal-height fork every few blocks at 64+ nodes.
        fan_out: 8,
        duration_ms: duration_s * 1_000,
        sync_threads: threads,
        // Requests that died on an evicted link must be retryable, or a
        // single unlucky eviction strands a node mid-sync.
        request_timeout_ms: Some(1_500),
        // Rotate anchors at a quarter of the default rate: at hundreds of
        // nodes the default churn rewires the overlay faster than blocks
        // propagate across it.
        topology: Some(TopologyConfig {
            rotation_interval_ms: Some(8_000),
            ..TopologyConfig::defended()
        }),
        threads: 1,
        ..SimConfig::default()
    }
}

fn eclipse_config(duration_s: u64, topology: TopologyConfig, threads: usize) -> SimConfig {
    SimConfig {
        nodes: 12,
        seed: 2024,
        // Slow enough (~1 block/s across 6 honest miners) that the honest
        // side actually converges between blocks; the unit tests use a
        // hotter race, the bench wants a stable convergence signal.
        difficulty_bits: 10,
        attempts_per_slice: 32,
        slice_ms: 100,
        // Fan-out covering the whole table makes honest relay reliable:
        // any end-of-run disagreement is the eclipse doing its work.
        fan_out: 4,
        duration_ms: duration_s * 1_000,
        sync_threads: threads,
        request_timeout_ms: Some(1_500),
        topology: Some(topology),
        threads: 1,
        ..SimConfig::default()
    }
}

/// One simulation run; eclipse scenarios get six sybils, scale scenarios
/// are all-honest. Returns the report plus the victim's final peer table.
fn run_once(config: SimConfig, with_sybils: bool) -> (SimReport, Vec<usize>, bool) {
    let mut sim = Simulation::with_strategies(
        config,
        |_| Sha256dPow,
        |id| {
            if with_sybils && SYBILS.contains(&id) {
                Box::new(Eclipse { victim: 0 })
            } else {
                Box::new(Honest)
            }
        },
    );
    let report = sim.run();
    let victim_table = sim.peer_table(0);
    // Isolation: the victim's table holds only sybils, the other honest
    // nodes agree on one tip, and the victim sits on a different one.
    let honest_tip = sim.nodes()[1].tip();
    let others_agree = (1..6).all(|id| sim.nodes()[id].tip() == honest_tip);
    let isolated = with_sybils
        && !victim_table.is_empty()
        && victim_table.iter().all(|peer| SYBILS.contains(peer))
        && others_agree
        && sim.nodes()[0].tip() != honest_tip;
    (report, victim_table, isolated)
}

/// Everything one scenario contributes to the report and the JSON.
struct ScenarioResult {
    name: &'static str,
    report: SimReport,
    events_per_sec_1t: f64,
    events_per_sec_nt: f64,
    runs_identical: bool,
    threads_identical: bool,
    eclipse: bool,
    victim_isolated: bool,
}

/// Runs one scenario three times: 1 thread twice (replay gate), N threads
/// once (byte-identity gate).
fn run_scenario(
    name: &'static str,
    config: SimConfig,
    threads: usize,
    with_sybils: bool,
) -> ScenarioResult {
    let (first, table_a, isolated_a) = run_once(config.clone(), with_sybils);
    let (second, table_b, isolated_b) = run_once(config.clone(), with_sybils);
    let runs_identical = first.fingerprint_extended() == second.fingerprint_extended()
        && table_a == table_b
        && isolated_a == isolated_b;
    let parallel_config = SimConfig { threads, ..config };
    let (parallel, table_n, isolated_n) = run_once(parallel_config, with_sybils);
    let threads_identical = first.fingerprint_extended() == parallel.fingerprint_extended()
        && table_a == table_n
        && isolated_a == isolated_n;
    println!(
        "  {name:20} converged={} height={} events={} \
         {:>10.0} ev/s @1t {:>10.0} ev/s @{threads}t replay={runs_identical} \
         threads_identical={threads_identical}",
        first.converged,
        first.tip_height,
        first.events_processed,
        first.events_per_sec(),
        parallel.events_per_sec(),
    );
    ScenarioResult {
        name,
        events_per_sec_1t: first.events_per_sec(),
        events_per_sec_nt: parallel.events_per_sec(),
        runs_identical,
        threads_identical,
        eclipse: with_sybils,
        victim_isolated: isolated_a,
        report: first,
    }
}

fn main() {
    let duration_s = positional_arg(1, 30).max(10);
    let threads = threads_arg(2).max(2);

    println!(
        "scale simulation: {{8, 64, 256}} nodes x {{1, {threads}}} threads, \
         {duration_s} s horizon, defended topology + eclipse pair"
    );

    let mut results = Vec::new();
    for (nodes, bits) in [(8usize, 11u32), (64, 15), (256, 17)] {
        let name = match nodes {
            8 => "scale-8",
            64 => "scale-64",
            _ => "scale-256",
        };
        let result = run_scenario(
            name,
            scale_config(duration_s, nodes, bits, threads),
            threads,
            false,
        );
        assert!(
            result.report.converged,
            "{nodes} nodes must converge over the topology overlay: {}",
            result.report.fingerprint_extended()
        );
        results.push(result);
    }
    let undefended = run_scenario(
        "eclipse-undefended",
        eclipse_config(
            duration_s.min(25),
            TopologyConfig {
                max_peers: 4,
                extra_links: 1,
                ..TopologyConfig::undefended()
            },
            threads,
        ),
        threads,
        true,
    );
    let defended = run_scenario(
        "eclipse-defended",
        eclipse_config(
            duration_s.min(25),
            TopologyConfig {
                max_peers: 4,
                anchors: 1,
                extra_links: 1,
                rotation_interval_ms: Some(2_000),
                credit: 16,
            },
            threads,
        ),
        threads,
        true,
    );

    // The acceptance gates.
    assert!(
        undefended.victim_isolated,
        "an undefended victim must end eclipsed: {}",
        undefended.report.fingerprint_extended()
    );
    assert!(
        !undefended.report.converged,
        "an eclipsed victim cannot be part of a converged network"
    );
    assert!(
        defended.report.converged,
        "scoring + anchors + rotation must restore convergence: {}",
        defended.report.fingerprint_extended()
    );
    assert!(
        defended.report.connect_attempts > 0 && undefended.report.connect_attempts > 0,
        "sybils must actually attack in both runs"
    );
    results.push(undefended);
    results.push(defended);
    let runs_identical = results.iter().all(|r| r.runs_identical);
    let threads_identical = results.iter().all(|r| r.threads_identical);
    assert!(runs_identical, "every scenario must replay from its seed");
    assert!(
        threads_identical,
        "{threads}-thread runs must be byte-identical to 1-thread runs"
    );

    let json = render_json(&results, duration_s, threads);
    write_json("BENCH_scale.json", &json);
}

/// Renders the scenario table as a JSON document.
fn render_json(results: &[ScenarioResult], duration_s: u64, threads: usize) -> String {
    let runs_identical = results.iter().all(|r| r.runs_identical);
    let threads_identical = results.iter().all(|r| r.threads_identical);
    let undefended_isolated = results
        .iter()
        .any(|r| r.name == "eclipse-undefended" && r.victim_isolated);
    let defended_converged = results
        .iter()
        .any(|r| r.name == "eclipse-defended" && r.report.converged);
    let scenarios = results.iter().map(|result| {
        let report = &result.report;
        let speedup = if result.events_per_sec_1t > 0.0 {
            result.events_per_sec_nt / result.events_per_sec_1t
        } else {
            0.0
        };
        let mut row = JsonObject::default();
        row.text("name", result.name)
            .field("nodes", report.nodes)
            .field("converged", report.converged)
            .field(
                "convergence_ms",
                report.convergence_ms.map_or(-1i64, |t| t as i64),
            )
            .field("tip_height", report.tip_height)
            .field("blocks_mined", report.blocks_mined)
            .field("events_processed", report.events_processed)
            .fixed("events_per_sec_1t", result.events_per_sec_1t, 0)
            .fixed("events_per_sec_nt", result.events_per_sec_nt, 0)
            .fixed("parallel_speedup", speedup, 3);
        if result.eclipse {
            row.field("victim_isolated", result.victim_isolated)
                .field("connect_attempts", report.connect_attempts)
                .field("peer_evictions", report.peer_evictions)
                .field("anchor_rotations", report.anchor_rotations);
        }
        row.field("scenario_runs_identical", result.runs_identical)
            .field("scenario_threads_identical", result.threads_identical);
        row
    });
    let mut json = JsonObject::default();
    json.text("bench", "sim_scale")
        .value("host", host_json(threads))
        .field("duration_s", duration_s)
        .field("threads", threads)
        .array("scenarios", scenarios)
        .field("eclipse_undefended_isolated", undefended_isolated)
        .field("eclipse_defended_converged", defended_converged)
        .field("threads_identical", threads_identical)
        .field("runs_identical", runs_identical);
    json.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_is_well_formed() {
        let result = run_scenario("scale-8", scale_config(10, 8, 9, 2), 2, false);
        let json = render_json(&[result], 10, 2);
        assert!(json.contains("\"bench\": \"sim_scale\""));
        assert!(json.contains("\"host\""));
        assert!(json.contains("\"events_per_sec_1t\""));
    }
}
