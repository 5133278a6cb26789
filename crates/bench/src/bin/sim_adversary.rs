//! Adversarial network harness: a scenario matrix of attack strategies ×
//! adversary hash-power fractions, each run twice for determinism, with
//! the aggregate results written to `BENCH_adversary.json`.
//!
//! Scenarios:
//!
//! * **selfish-α** — node 0 runs selfish mining with hash-power fraction α
//!   (via a per-node attempts override). The harness measures the
//!   adversary's *revenue share* (its fraction of the final honest best
//!   chain) against its *fair share* (α): above the classic ~1/3
//!   threshold, withholding must pay more than honest mining.
//! * **stall-\*** — node 0 stalls `GetSegment` (never answers / ships a
//!   one-block prefix / answers 30 s late) across a partition heal; honest
//!   nodes must time out, re-request elsewhere and still converge.
//! * **spam** — node 0 gossips unsolicited corrupted segments every slice;
//!   hardened nodes drop them without running the verifier.
//! * **poison** — node 0 mines valid-PoW bait orphans and answers the
//!   resulting sync requests with corrupted segments; the batched verifier
//!   rejects every one and the poisoner is banned.
//!
//! Acceptance gates asserted here (and grepped by CI from the JSON):
//! zero spam blocks in any honest fork tree, byte-identical
//! `fingerprint_extended` across the two runs of every scenario, and
//! selfish revenue ≥ fair share for α > 1/3.
//!
//! Usage:
//!
//! ```text
//! sim_adversary [duration-seconds] [threads]
//! ```
//!
//! `threads` drives both the scheduler workers and the segment verifier
//! (0 = all logical cores); it never changes a deterministic metric.

use hashcore_baselines::Sha256dPow;
use hashcore_bench::simbench::{
    host_json, positional_arg, run_twice, threads_arg, write_json, JsonObject,
};
use hashcore_net::{
    Honest, Node, Partition, PoisonedSync, SegmentSpam, SegmentStalling, SelfishMining, SimConfig,
    SimReport, Simulation, StallMode, Strategy,
};

/// Honest nodes in every scenario (the adversary is node 0, extra).
const HONEST_NODES: usize = 4;
/// Base nonce attempts per slice for every honest node.
const BASE_ATTEMPTS: u64 = 32;

/// The adversary's per-slice attempts for hash-power fraction `alpha`.
fn attempts_for_alpha(alpha: f64) -> u64 {
    (alpha / (1.0 - alpha) * (HONEST_NODES as f64) * BASE_ATTEMPTS as f64).round() as u64
}

/// One scenario of the matrix.
struct Scenario {
    name: &'static str,
    /// Adversary hash-power fraction (0 = mine at the honest base rate).
    alpha: f64,
    /// Whether the adversary extends the chain at all — `false` for pure
    /// spammers and bait miners, whose fair revenue share is therefore 0.
    adversary_mines: bool,
    make_strategy: fn() -> Box<dyn Strategy>,
    /// Whether the scenario enables request timeouts and pruning (the
    /// stalling and spam scenarios exercise the hardened configuration).
    hardened: bool,
    /// Partition the middle third of the run (forces catch-up sync).
    partitioned: bool,
}

/// What one scenario produced (plus the raw report).
struct Outcome {
    report: SimReport,
    runs_identical: bool,
    /// Adversary blocks in the final honest best chain / chain length.
    revenue_share: f64,
    /// Blocks the revenue was measured over (the full chain for unpruned
    /// scenarios, the retained window for hardened ones).
    revenue_window: usize,
    fair_share: f64,
}

fn scenario_config(scenario: &Scenario, duration_ms: u64, threads: usize) -> SimConfig {
    let adversary_attempts = if scenario.alpha > 0.0 {
        attempts_for_alpha(scenario.alpha)
    } else {
        BASE_ATTEMPTS
    };
    SimConfig {
        nodes: HONEST_NODES + 1,
        seed: 0xbad5_eed5,
        difficulty_bits: 8,
        attempts_per_slice: BASE_ATTEMPTS,
        node_attempts: vec![(0, adversary_attempts)],
        slice_ms: 100,
        fan_out: 2,
        partitions: if scenario.partitioned {
            vec![Partition {
                start_ms: duration_ms / 3,
                end_ms: 2 * duration_ms / 3,
                split: 2,
            }]
        } else {
            Vec::new()
        },
        duration_ms,
        threads,
        sync_threads: threads,
        request_timeout_ms: if scenario.hardened { Some(1_500) } else { None },
        ban_threshold: 3,
        prune_depth: if scenario.hardened { Some(64) } else { None },
        ..SimConfig::default()
    }
}

/// The miner id a simulation block is tagged with (`node-<id> …`).
fn miner_of(block: &hashcore_chain::Block) -> Option<usize> {
    let tag = block.transactions.first()?;
    let text = std::str::from_utf8(tag).ok()?;
    let rest = text.strip_prefix("node-")?;
    rest.split_whitespace().next()?.parse().ok()
}

fn run_scenario(scenario: &Scenario, duration_ms: u64, threads: usize) -> Outcome {
    let run = || {
        let config = scenario_config(scenario, duration_ms, threads);
        let mut sim = Simulation::with_strategies(
            config,
            |_| Sha256dPow,
            |id| {
                if id == 0 {
                    (scenario.make_strategy)()
                } else {
                    Box::new(Honest)
                }
            },
        );
        let report = sim.run();
        // Revenue accounting over an honest node's final best chain.
        let honest: &Node<Sha256dPow> = &sim.nodes()[1];
        let chain = honest.tree().best_chain();
        let adversary_blocks = chain.iter().filter(|b| miner_of(b) == Some(0)).count();
        let revenue_share = if chain.is_empty() {
            0.0
        } else {
            adversary_blocks as f64 / chain.len() as f64
        };
        // Pruned trees only retain a window of the chain, which would turn
        // the revenue figure into a windowed sample: the selfish payoff
        // scenarios therefore must run unpruned (full-chain accounting),
        // and the window length is reported alongside the share.
        if scenario.alpha > 0.0 {
            assert!(
                !scenario.hardened,
                "selfish payoff scenarios must measure the full chain"
            );
        }
        (report, revenue_share, chain.len())
    };
    // The revenue share rides along in the fingerprint bit-exactly: a
    // deterministic replay must reproduce the measurement, not just the
    // race.
    let ((report, revenue_share, revenue_window), runs_identical) =
        run_twice(run, |(report, revenue, _)| {
            format!(
                "{} revenue={:016x}",
                report.fingerprint_extended(),
                revenue.to_bits()
            )
        });
    // Fair share is attempts-derived for every scenario: non-mining
    // adversaries (spam/poison) configure BASE_ATTEMPTS but contribute no
    // blocks, while the stalling adversary mines honestly at BASE_ATTEMPTS
    // and so earns a real 1/(HONEST_NODES+1) fair share.
    let adversary_attempts = scenario_config(scenario, 1_000, threads).attempts_for(0);
    let total_attempts = (HONEST_NODES as u64 * BASE_ATTEMPTS + adversary_attempts) as f64;
    let fair_share = if scenario.adversary_mines {
        adversary_attempts as f64 / total_attempts
    } else {
        0.0
    };
    Outcome {
        report,
        runs_identical,
        revenue_share,
        revenue_window,
        fair_share,
    }
}

fn main() {
    let duration_s = positional_arg(1, 60).max(12);
    let duration_ms = duration_s * 1_000;
    let threads = threads_arg(2);

    let scenarios = [
        Scenario {
            name: "selfish-0.20",
            alpha: 0.20,
            adversary_mines: true,
            make_strategy: || Box::new(SelfishMining),
            hardened: false,
            partitioned: false,
        },
        Scenario {
            name: "selfish-0.35",
            alpha: 0.35,
            adversary_mines: true,
            make_strategy: || Box::new(SelfishMining),
            hardened: false,
            partitioned: false,
        },
        Scenario {
            name: "selfish-0.45",
            alpha: 0.45,
            adversary_mines: true,
            make_strategy: || Box::new(SelfishMining),
            hardened: false,
            partitioned: false,
        },
        Scenario {
            name: "stall-ignore",
            alpha: 0.0,
            adversary_mines: true,
            make_strategy: || {
                Box::new(SegmentStalling {
                    mode: StallMode::Ignore,
                })
            },
            hardened: true,
            partitioned: true,
        },
        Scenario {
            name: "stall-prefix",
            alpha: 0.0,
            adversary_mines: true,
            make_strategy: || {
                Box::new(SegmentStalling {
                    mode: StallMode::Prefix(1),
                })
            },
            hardened: true,
            partitioned: true,
        },
        Scenario {
            name: "stall-delay",
            alpha: 0.0,
            adversary_mines: true,
            make_strategy: || {
                Box::new(SegmentStalling {
                    mode: StallMode::Delay(30_000),
                })
            },
            hardened: true,
            partitioned: true,
        },
        Scenario {
            name: "spam",
            alpha: 0.0,
            adversary_mines: false,
            make_strategy: || Box::new(SegmentSpam::default()),
            hardened: true,
            partitioned: false,
        },
        Scenario {
            name: "poison",
            alpha: 0.0,
            adversary_mines: false,
            make_strategy: || Box::new(PoisonedSync::default()),
            hardened: true,
            partitioned: false,
        },
    ];

    println!(
        "adversary matrix: {} scenarios × 2 runs, {duration_s} s horizon, \
         {HONEST_NODES} honest nodes + 1 adversary",
        scenarios.len()
    );

    let outcomes: Vec<(&Scenario, Outcome)> = scenarios
        .iter()
        .map(|scenario| {
            let outcome = run_scenario(scenario, duration_ms, threads);
            let r = &outcome.report;
            println!(
                "  {:<13} converged={} height={} revenue={:.3} fair={:.3} \
                 withheld={} released={} spam_sent={} spam_accepted={} \
                 rejected(unsol/invalid/policy)={}/{}/{} stalls={} retried={} \
                 banned={} pruned={} margin={} deterministic={}",
                scenario.name,
                r.converged,
                r.tip_height,
                outcome.revenue_share,
                outcome.fair_share,
                r.blocks_withheld,
                r.blocks_released,
                r.spam_segments_sent,
                r.spam_accepted,
                r.rejections.unsolicited_segment,
                r.rejections.invalid_segment,
                r.rejections.target_policy,
                r.stalls_detected,
                r.requests_retried,
                r.peers_banned,
                r.blocks_pruned,
                r.honest_tip_safety_margin,
                outcome.runs_identical,
            );
            (scenario, outcome)
        })
        .collect();

    // Acceptance gates.
    let runs_identical = outcomes.iter().all(|(_, o)| o.runs_identical);
    let spam_accepted: u64 = outcomes.iter().map(|(_, o)| o.report.spam_accepted).sum();
    let selfish_beats_fair = outcomes
        .iter()
        .filter(|(s, _)| s.alpha > 1.0 / 3.0)
        .all(|(_, o)| o.revenue_share >= o.fair_share);
    for (scenario, outcome) in &outcomes {
        assert!(
            outcome.report.converged,
            "honest nodes must converge under {}: {}",
            scenario.name,
            outcome.report.fingerprint_extended()
        );
    }
    assert!(runs_identical, "every scenario must replay identically");
    assert_eq!(spam_accepted, 0, "no spam block may enter an honest tree");
    assert!(
        selfish_beats_fair,
        "selfish mining above the 1/3 threshold must out-earn its fair share"
    );

    let json = render_json(
        &outcomes,
        duration_ms,
        runs_identical,
        spam_accepted,
        threads,
    );
    write_json("BENCH_adversary.json", &json);
}

/// Renders the matrix as a JSON document.
fn render_json(
    outcomes: &[(&Scenario, Outcome)],
    duration_ms: u64,
    runs_identical: bool,
    spam_accepted: u64,
    threads: usize,
) -> String {
    let scenarios = outcomes.iter().map(|(scenario, outcome)| {
        let r = &outcome.report;
        let mut row = JsonObject::default();
        row.text("name", scenario.name)
            .fixed("alpha", scenario.alpha, 2)
            .fixed("fair_share", outcome.fair_share, 4)
            .fixed("revenue_share", outcome.revenue_share, 4)
            .field("revenue_window_blocks", outcome.revenue_window)
            .field("converged", r.converged)
            .field("tip_height", r.tip_height)
            .field("blocks_mined", r.blocks_mined)
            .field("blocks_withheld", r.blocks_withheld)
            .field("blocks_released", r.blocks_released)
            .field("withheld_abandoned", r.withheld_abandoned)
            .field("spam_sent", r.spam_segments_sent)
            .field("spam_rejected", r.rejections.total())
            .field("scenario_spam_accepted", r.spam_accepted)
            .field("fake_orphans", r.fake_orphans)
            .field("stalls_detected", r.stalls_detected)
            .field("requests_retried", r.requests_retried)
            .field("peers_banned", r.peers_banned)
            .field("blocks_pruned", r.blocks_pruned)
            .field("honest_tip_safety_margin", r.honest_tip_safety_margin)
            .field("runs_identical", outcome.runs_identical);
        row
    });
    let mut json = JsonObject::default();
    json.text("bench", "network_adversary")
        .value("host", host_json(threads))
        .field("duration_ms", duration_ms)
        .field("honest_nodes", HONEST_NODES)
        .array("scenarios", scenarios)
        .field("spam_accepted", spam_accepted)
        .field("runs_identical", runs_identical);
    json.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_to_attempts_round_trips_the_fraction() {
        for alpha in [0.2f64, 0.35, 0.45] {
            let attempts = attempts_for_alpha(alpha) as f64;
            let total = attempts + (HONEST_NODES as u64 * BASE_ATTEMPTS) as f64;
            assert!(
                (attempts / total - alpha).abs() < 0.01,
                "alpha {alpha} maps to fraction {}",
                attempts / total
            );
        }
    }

    #[test]
    fn miner_tags_parse() {
        use hashcore_chain::{Block, BlockHeader};
        let block = Block {
            header: BlockHeader {
                version: 1,
                prev_hash: [0u8; 32],
                merkle_root: [0u8; 32],
                timestamp: 0,
                target: [0xff; 32],
                nonce: 0,
            },
            transactions: vec![b"node-3 height-9 at-100ms".to_vec()],
        };
        assert_eq!(miner_of(&block), Some(3));
        let spam = Block {
            transactions: vec![b"spam-0 orphan-1".to_vec()],
            ..block.clone()
        };
        assert_eq!(miner_of(&spam), None);
    }

    #[test]
    fn a_short_matrix_run_is_deterministic_and_spam_free() {
        let scenario = Scenario {
            name: "spam",
            alpha: 0.0,
            adversary_mines: false,
            make_strategy: || Box::new(SegmentSpam::default()),
            hardened: true,
            partitioned: false,
        };
        let outcome = run_scenario(&scenario, 12_000, 2);
        assert!(outcome.runs_identical);
        assert_eq!(outcome.report.spam_accepted, 0);
        assert!(outcome.report.converged);
    }
}
