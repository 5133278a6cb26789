//! Network-simulation harness: fork races, a forced partition, deep reorgs
//! and catch-up segment sync, with the batched parallel verifier on the hot
//! path.
//!
//! Runs the deterministic 5-node simulation twice with the same seed,
//! asserts the two runs are byte-identical on every deterministic metric
//! (convergence time, reorg depth distribution, message counts), and writes
//! `BENCH_sync.json`. The partition splits the network for a third of the
//! run; on heal, the losing side catches up through `GetSegment` →
//! `validate_segment_parallel`, which is where the recorded sync throughput
//! comes from.
//!
//! Usage:
//!
//! ```text
//! sim_network [duration-seconds] [nodes] [threads]
//! ```
//!
//! `threads` drives both the scheduler workers and the segment verifier
//! (0 = all logical cores); it never changes a deterministic metric.

use hashcore_baselines::Sha256dPow;
use hashcore_bench::simbench::{
    host_json, positional_arg, run_twice, threads_arg, write_json, Json, JsonObject,
};
use hashcore_net::{Partition, SimConfig, SimReport, Simulation};

fn config(duration_s: u64, nodes: usize, threads: usize) -> SimConfig {
    let duration_ms = duration_s * 1_000;
    SimConfig {
        nodes,
        seed: 0xc0ffee,
        difficulty_bits: 9,
        attempts_per_slice: 64,
        slice_ms: 100,
        fan_out: 2,
        // Partition the middle third of the run: two nodes against the
        // rest, so the minority mines a doomed branch and must reorg.
        partitions: vec![Partition {
            start_ms: duration_ms / 3,
            end_ms: 2 * duration_ms / 3,
            split: 2.min(nodes - 1),
        }],
        duration_ms,
        threads,
        sync_threads: threads,
        ..SimConfig::default()
    }
}

fn main() {
    let duration_s = positional_arg(1, 60).max(9);
    let nodes = positional_arg(2, 5).max(3) as usize;
    let threads = threads_arg(3);

    println!(
        "network simulation: {nodes} nodes, {duration_s} s horizon, \
         partition in the middle third, {threads} worker threads"
    );

    let (report, runs_identical) = run_twice(
        || Simulation::new(config(duration_s, nodes, threads), |_| Sha256dPow).run(),
        SimReport::fingerprint,
    );

    println!("  converged:         {}", report.converged);
    println!(
        "  convergence time:  {} ms (simulated)",
        report.convergence_ms.map_or(-1i64, |t| t as i64)
    );
    println!("  tip height:        {}", report.tip_height);
    println!("  blocks mined:      {}", report.blocks_mined);
    println!(
        "  reorgs:            {} (max depth {})",
        report.reorg_depths.len(),
        report.max_reorg_depth
    );
    println!(
        "  segment sync:      {} segments, {} blocks, {:.0} blocks/s wall",
        report.segments_synced,
        report.segment_blocks,
        report.sync_blocks_per_sec()
    );
    println!(
        "  messages:          {} sent, {} dropped at the partition",
        report.messages_sent, report.messages_dropped
    );
    println!("  deterministic:     {runs_identical} (two runs, same seed)");

    // The acceptance gates: a healed partition must leave one tip, reached
    // through at least one multi-block reorg fed by the parallel verifier,
    // and the whole race must replay identically from the seed.
    assert!(report.converged, "nodes must converge after the heal");
    assert!(
        report.max_reorg_depth >= 2,
        "the partition must force a multi-block reorg (saw {})",
        report.max_reorg_depth
    );
    assert!(
        report.segments_synced >= 1,
        "catch-up must run through validate_segment_parallel"
    );
    assert!(runs_identical, "same seed must reproduce the same race");

    let json = render_json(&report, runs_identical, threads);
    write_json("BENCH_sync.json", &json);
}

/// Renders the report as a JSON document.
fn render_json(report: &SimReport, runs_identical: bool, threads: usize) -> String {
    let depths = report.reorg_depths.iter().map(|d| Json::Raw(d.to_string()));
    let mut json = JsonObject::default();
    json.text("bench", "network_sync")
        .value("host", host_json(threads))
        .field("nodes", report.nodes)
        .field("seed", report.seed)
        .field("duration_ms", report.duration_ms)
        .field("converged", report.converged)
        .field(
            "convergence_ms",
            report.convergence_ms.map_or(-1i64, |t| t as i64),
        )
        .field("tip_height", report.tip_height)
        .field("blocks_mined", report.blocks_mined)
        .field("reorgs", report.reorg_depths.len())
        .field("max_reorg_depth", report.max_reorg_depth)
        .array("reorg_depths", depths)
        .field("segments_synced", report.segments_synced)
        .field("segment_blocks", report.segment_blocks)
        .fixed("sync_blocks_per_sec", report.sync_blocks_per_sec(), 3)
        .field("messages_sent", report.messages_sent)
        .field("messages_dropped", report.messages_dropped)
        .field("runs_identical", runs_identical);
    json.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashcore_baselines::Sha256dPow;
    use hashcore_net::Simulation;

    #[test]
    fn json_rendering_is_well_formed() {
        let report = Simulation::new(config(9, 3, 2), |_| Sha256dPow).run();
        let json = render_json(&report, true, 2);
        assert!(json.contains("\"bench\": \"network_sync\""));
        assert!(json.contains("\"host\""));
        assert!(json.contains("\"runs_identical\": true"));
    }
}
