//! Difficulty-manipulation harness: adaptive (per-branch EMA) difficulty
//! under timestamp-skew and difficulty-hopping adversaries, swept across
//! skew magnitudes and hop thresholds, each scenario run twice for
//! determinism, with the aggregate results written to
//! `BENCH_difficulty.json`.
//!
//! Scenarios (all with `SimConfig::retarget` enabled, so every node mines
//! at its best branch's expected target and every fork tree enforces the
//! rule branch-aware):
//!
//! * **honest** — the all-honest baseline the attacks are measured
//!   against.
//! * **skew-\<S\>** — node 0 runs [`TimestampSkew`] with `skew_ms = S` and
//!   no timestamp rule is enforced: the skewed headers are
//!   rule-consistent (their inflated gaps *derive* their easier targets),
//!   so honest nodes accept them and the chain grows faster than the
//!   honest baseline — blocks-per-hour inflation.
//! * **skew-\<S\>-defended** — same attack, but honest nodes enforce the
//!   median-time-past/future-drift [`TimestampRule`] with a drift bound
//!   below `S`: every skewed header is rejected at the edge, the
//!   attacker's hash power buys nothing, and the block rate falls back to
//!   (below) the baseline.
//! * **hop-\<T\>** — node 0 runs [`DifficultyHopping`], spending hash
//!   power only while the expected target costs at most `T` attempts.
//! * **steer** — node 0 runs [`CostSteering`]: it grinds nonces, discards
//!   every PoW-winning seed whose widget program verifies cheaply, and
//!   publishes only seeds at least [`STEER_MIN_RATIO`]× the nominal
//!   verification cost. Under the cost-blind EMA rule every published
//!   block is valid, so the honest chain's per-block verification bill
//!   inflates.
//! * **steer-defended** — same attack, but the run installs the
//!   cost-aware rule ([`CostPolicyConfig`]): headers commit a quantized
//!   cost EMA, branch targets harden as observed costs rise, and the
//!   per-block admission bound makes expensive seeds pay quadratically
//!   more work — restoring the chain's verification bill to the honest
//!   ballpark.
//!
//! Acceptance gates asserted here (and grepped by CI from the JSON):
//! every scenario converges and replays byte-identically
//! (`runs_identical`); every undefended skew inflates blocks/hour to at
//! least [`MIN_SKEW_INFLATION`]× the honest baseline (`skew_inflates`);
//! and the defence crushes every skew's rate by at least
//! [`MIN_DEFENCE_CRUSH`]× relative to its undefended twin with timestamp
//! rejections actually observed (`drift_rule_holds`). The crush gate is
//! relative to the undefended twin rather than the baseline because the
//! EMA's convergence transient makes absolute block counts shift with
//! effective hash power (rejecting the skewer leaves difficulty easier
//! for the remaining miners), while the attack's order-of-magnitude
//! inflation — and its collapse under the rule — is robust.
//!
//! The steering gates compare mean per-block verifier cost along the
//! honest best chain: undefended steering must inflate it to at least
//! [`MIN_STEERING_INFLATION`]× the honest baseline
//! (`steering_inflates_verify_cost`), and the cost-aware rule must pull
//! it back within [`MAX_DEFENDED_COST`]× of that baseline while the
//! steerer demonstrably keeps grinding (`cost_rule_holds`).
//!
//! Usage:
//!
//! ```text
//! sim_difficulty [duration-seconds] [threads]
//! ```
//!
//! `threads` drives both the scheduler workers and the segment verifier
//! (0 = all logical cores); it never changes a deterministic metric.

use hashcore_baselines::Sha256dPow;
use hashcore_bench::simbench::{
    host_json, positional_arg, run_twice, threads_arg, write_json, JsonObject,
};
use hashcore_net::{
    CostPolicyConfig, CostSteering, DifficultyHopping, Honest, RetargetConfig, SimConfig,
    SimReport, Simulation, Strategy, TimestampRule, TimestampSkew,
};

/// Honest nodes in every scenario (the adversary is node 0, extra).
const HONEST_NODES: usize = 4;
/// Base nonce attempts per slice for every honest node.
const BASE_ATTEMPTS: u64 = 32;
/// Node 0's attempts per slice in *every* scenario — honest baseline
/// included — so it holds ≈ 40% of total hash power throughout and the
/// inflation figures isolate the node's *behaviour* (skewing, hopping)
/// from its hash power.
const ADVERSARY_ATTEMPTS: u64 = 85;
/// Desired simulated milliseconds between blocks.
const TARGET_BLOCK_TIME_MS: f64 = 1_000.0;
/// EMA gain: at 0.5 the ×4 easing a large skew buys is fully refunded by
/// the ×0.25 hardening its successor's real timestamp applies, so the
/// attacker's extra cheap blocks are pure chain-growth inflation.
const GAIN: f64 = 0.5;
/// Future-drift bound of the defended scenarios — below every swept skew.
const MAX_DRIFT_MS: u64 = 4_000;
/// An undefended skew must inflate chain growth to at least this multiple
/// of the honest baseline (observed: ×15–30).
const MIN_SKEW_INFLATION: f64 = 2.0;
/// The timestamp rule must divide an undefended skew's chain growth by at
/// least this factor (observed: ×15+).
const MIN_DEFENCE_CRUSH: f64 = 4.0;
/// Node 0's attempts per slice in the cost-steering scenarios. The grind
/// discards roughly three of every four PoW-winning seeds (only the most
/// expensive quartile of widget programs is published), and each discard
/// leaves the steerer mining a progressively staler template, so its
/// *publish* rate must beat the honest network's find rate (4 × 32
/// attempts) for its expensive blocks to hold the tip instead of dying as
/// side chains: 1024 / 4 = 256 publishes-per-slice-equivalent vs 128.
const STEER_ATTEMPTS: u64 = 1024;
/// Minimum verifier-cost multiple of nominal a steered seed must reach
/// before the adversary publishes it.
const STEER_MIN_RATIO: f64 = 2.0;
/// Cost-EMA weight of the defended scenarios' cost-aware rule.
const COST_GAIN: f64 = 0.5;
/// Cost-response exponent of the defended scenarios' cost-aware rule.
const COST_RESPONSE: f64 = 2.0;
/// Undefended steering must inflate the honest chain's mean per-block
/// verifier cost to at least this multiple of the honest baseline.
const MIN_STEERING_INFLATION: f64 = 1.25;
/// The cost-aware rule must hold the defended chain's mean per-block
/// verifier cost within this multiple of the honest baseline.
const MAX_DEFENDED_COST: f64 = 1.25;

/// One scenario of the sweep.
struct Scenario {
    name: String,
    /// Timestamp skew of the adversary (0 = no skew attack).
    skew_ms: u64,
    /// Hop threshold of the adversary (0 = no hopping).
    hop_threshold: f64,
    /// Whether honest nodes enforce the timestamp-validity rule.
    defended: bool,
    /// Cost-steering threshold of the adversary (0 = no steering).
    steer_min_ratio: f64,
    /// Whether the run installs the cost-aware difficulty rule.
    cost_defended: bool,
}

impl Scenario {
    /// A scenario with no attack and no extra defence — the base the
    /// sweep entries override.
    fn baseline(name: &str) -> Self {
        Self {
            name: name.into(),
            skew_ms: 0,
            hop_threshold: 0.0,
            defended: false,
            steer_min_ratio: 0.0,
            cost_defended: false,
        }
    }

    fn strategy(&self) -> Box<dyn Strategy> {
        if self.skew_ms > 0 {
            Box::new(TimestampSkew {
                skew_ms: self.skew_ms,
            })
        } else if self.hop_threshold > 0.0 {
            Box::new(DifficultyHopping {
                max_expected_attempts: self.hop_threshold,
            })
        } else if self.steer_min_ratio > 0.0 {
            Box::new(CostSteering {
                min_cost_ratio: self.steer_min_ratio,
            })
        } else {
            Box::new(Honest)
        }
    }
}

/// What one scenario produced.
struct Outcome {
    report: SimReport,
    runs_identical: bool,
    blocks_per_hour: f64,
}

fn scenario_config(scenario: &Scenario, duration_ms: u64, threads: usize) -> SimConfig {
    SimConfig {
        nodes: HONEST_NODES + 1,
        seed: 0xd1f_f1cu64,
        difficulty_bits: 10,
        attempts_per_slice: BASE_ATTEMPTS,
        node_attempts: vec![(
            0,
            if scenario.steer_min_ratio > 0.0 {
                STEER_ATTEMPTS
            } else {
                ADVERSARY_ATTEMPTS
            },
        )],
        slice_ms: 100,
        fan_out: 2,
        duration_ms,
        threads,
        sync_threads: threads,
        retarget: Some(RetargetConfig {
            target_block_time_ms: TARGET_BLOCK_TIME_MS,
            gain: GAIN,
        }),
        cost_policy: scenario.cost_defended.then_some(CostPolicyConfig {
            cost_gain: COST_GAIN,
            response: COST_RESPONSE,
        }),
        timestamp_rule: scenario.defended.then_some(TimestampRule {
            max_future_drift_ms: MAX_DRIFT_MS,
            mtp_window: 11,
        }),
        ..SimConfig::default()
    }
}

fn run_scenario(scenario: &Scenario, duration_ms: u64, threads: usize) -> Outcome {
    let run = || {
        let config = scenario_config(scenario, duration_ms, threads);
        let mut sim = Simulation::with_strategies(
            config,
            |_| Sha256dPow,
            |id| {
                if id == 0 {
                    scenario.strategy()
                } else {
                    Box::new(Honest)
                }
            },
        );
        sim.run()
    };
    let (report, runs_identical) = run_twice(run, SimReport::fingerprint_extended);
    // Chain growth of the honest best chain, normalised to blocks/hour.
    let blocks_per_hour = report.tip_height as f64 * 3_600_000.0 / duration_ms as f64;
    Outcome {
        report,
        runs_identical,
        blocks_per_hour,
    }
}

fn main() {
    let duration_s = positional_arg(1, 60).max(20);
    let duration_ms = duration_s * 1_000;
    let threads = threads_arg(2);

    let mut scenarios = vec![Scenario::baseline("honest")];
    for skew_ms in [8_000u64, 24_000] {
        for defended in [false, true] {
            scenarios.push(Scenario {
                skew_ms,
                defended,
                ..Scenario::baseline(&format!(
                    "skew-{}s{}",
                    skew_ms / 1_000,
                    if defended { "-defended" } else { "" }
                ))
            });
        }
    }
    for hop_threshold in [1_024.0f64, 2_048.0] {
        scenarios.push(Scenario {
            hop_threshold,
            ..Scenario::baseline(&format!("hop-{hop_threshold:.0}"))
        });
    }
    for cost_defended in [false, true] {
        scenarios.push(Scenario {
            steer_min_ratio: STEER_MIN_RATIO,
            cost_defended,
            ..Scenario::baseline(if cost_defended {
                "steer-defended"
            } else {
                "steer"
            })
        });
    }

    println!(
        "difficulty matrix: {} scenarios × 2 runs, {duration_s} s horizon, \
         {HONEST_NODES} honest nodes + 1 adversary, EMA retarget \
         (block time {TARGET_BLOCK_TIME_MS} ms, gain {GAIN})",
        scenarios.len()
    );

    let outcomes: Vec<(&Scenario, Outcome)> = scenarios
        .iter()
        .map(|scenario| {
            let outcome = run_scenario(scenario, duration_ms, threads);
            let r = &outcome.report;
            println!(
                "  {:<17} converged={} height={} blocks/h={:.0} deepest_reorg={} \
                 ts_rejected={} target_rejected={} tip_cost={:.3} discarded={} \
                 inadmissible={} deterministic={}",
                scenario.name,
                r.converged,
                r.tip_height,
                outcome.blocks_per_hour,
                r.max_reorg_depth,
                r.rejections.timestamp,
                r.rejections.target_policy,
                r.tip_mean_cost_ratio,
                r.seeds_discarded,
                r.seeds_inadmissible,
                outcome.runs_identical,
            );
            (scenario, outcome)
        })
        .collect();

    let baseline = outcomes
        .iter()
        .find(|(s, _)| s.name == "honest")
        .map(|(_, o)| o.blocks_per_hour)
        .expect("the honest baseline ran");
    let baseline_cost = outcomes
        .iter()
        .find(|(s, _)| s.name == "honest")
        .map(|(_, o)| o.report.tip_mean_cost_ratio)
        .expect("the honest baseline ran");

    // Acceptance gates.
    let mut gates = Gates {
        runs_identical: outcomes.iter().all(|(_, o)| o.runs_identical),
        skew_inflates: true,
        drift_rule_holds: true,
        steering_inflates_verify_cost: true,
        cost_rule_holds: true,
    };
    for (scenario, outcome) in &outcomes {
        assert!(
            outcome.report.converged,
            "honest nodes must converge under {}: {}",
            scenario.name,
            outcome.report.fingerprint_extended()
        );
        if scenario.skew_ms > 0 && !scenario.defended {
            gates.skew_inflates &= outcome.blocks_per_hour >= MIN_SKEW_INFLATION * baseline;
        }
        if scenario.skew_ms > 0 && scenario.defended {
            let undefended = outcomes
                .iter()
                .find(|(s, _)| s.skew_ms == scenario.skew_ms && !s.defended)
                .map(|(_, o)| o.blocks_per_hour)
                .expect("the undefended twin ran");
            gates.drift_rule_holds &= outcome.blocks_per_hour <= undefended / MIN_DEFENCE_CRUSH
                && outcome.report.rejections.timestamp > 0;
        }
        if scenario.steer_min_ratio > 0.0 && !scenario.cost_defended {
            // The grind must demonstrably run (seeds thrown away) and the
            // published chain's verification bill must inflate.
            gates.steering_inflates_verify_cost &= outcome.report.seeds_discarded > 0
                && outcome.report.tip_mean_cost_ratio >= MIN_STEERING_INFLATION * baseline_cost;
        }
        if scenario.steer_min_ratio > 0.0 && scenario.cost_defended {
            // Same grinding adversary, but the cost-aware rule holds the
            // chain's verification bill at the honest ballpark.
            gates.cost_rule_holds &= outcome.report.seeds_discarded > 0
                && outcome.report.tip_mean_cost_ratio <= MAX_DEFENDED_COST * baseline_cost;
        }
    }
    assert!(
        gates.runs_identical,
        "every scenario must replay identically"
    );
    assert!(
        gates.skew_inflates,
        "undefended timestamp skew must inflate blocks/hour well above the honest baseline"
    );
    assert!(
        gates.drift_rule_holds,
        "the timestamp rule must crush every skew's chain growth"
    );
    assert!(
        gates.steering_inflates_verify_cost,
        "undefended cost steering must inflate the chain's per-block verify cost"
    );
    assert!(
        gates.cost_rule_holds,
        "the cost-aware rule must restore the chain's per-block verify cost"
    );

    let json = render_json(
        &outcomes,
        duration_ms,
        baseline,
        baseline_cost,
        gates,
        threads,
    );
    write_json("BENCH_difficulty.json", &json);
}

/// The sweep's acceptance gates, as grepped from the JSON by CI.
#[derive(Clone, Copy)]
struct Gates {
    runs_identical: bool,
    skew_inflates: bool,
    drift_rule_holds: bool,
    steering_inflates_verify_cost: bool,
    cost_rule_holds: bool,
}

/// Renders the sweep as a JSON document.
fn render_json(
    outcomes: &[(&Scenario, Outcome)],
    duration_ms: u64,
    baseline: f64,
    baseline_cost: f64,
    gates: Gates,
    threads: usize,
) -> String {
    let scenarios = outcomes.iter().map(|(scenario, outcome)| {
        let r = &outcome.report;
        let mut row = JsonObject::default();
        row.text("name", &scenario.name)
            .field("skew_ms", scenario.skew_ms)
            .fixed("hop_threshold", scenario.hop_threshold, 0)
            .field("defended", scenario.defended)
            .fixed("steer_min_ratio", scenario.steer_min_ratio, 2)
            .field("cost_defended", scenario.cost_defended)
            .field("converged", r.converged)
            .field("tip_height", r.tip_height)
            .fixed("blocks_per_hour", outcome.blocks_per_hour, 1)
            .fixed("inflation_vs_honest", outcome.blocks_per_hour / baseline, 4)
            .field("deepest_reorg", r.max_reorg_depth)
            .field("timestamp_rejections", r.rejections.timestamp)
            .field("target_rejections", r.rejections.target_policy)
            .fixed("tip_mean_cost_ratio", r.tip_mean_cost_ratio, 4)
            .fixed("cost_vs_honest", r.tip_mean_cost_ratio / baseline_cost, 4)
            .field("seeds_discarded", r.seeds_discarded)
            .field("seeds_inadmissible", r.seeds_inadmissible)
            .field("runs_identical", outcome.runs_identical);
        row
    });
    let mut json = JsonObject::default();
    json.text("bench", "difficulty_adversary")
        .value("host", host_json(threads))
        .field("duration_ms", duration_ms)
        .field("honest_nodes", HONEST_NODES)
        .field("target_block_time_ms", TARGET_BLOCK_TIME_MS)
        .field("gain", GAIN)
        .fixed("baseline_blocks_per_hour", baseline, 1)
        .fixed("baseline_tip_cost_ratio", baseline_cost, 4)
        .array("scenarios", scenarios)
        .field("skew_inflates", gates.skew_inflates)
        .field("drift_rule_holds", gates.drift_rule_holds)
        .field(
            "steering_inflates_verify_cost",
            gates.steering_inflates_verify_cost,
        )
        .field("cost_rule_holds", gates.cost_rule_holds)
        .field("runs_identical", gates.runs_identical);
    json.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_strategies_match_their_knobs() {
        let skew = Scenario {
            skew_ms: 9_000,
            ..Scenario::baseline("skew")
        };
        assert_eq!(skew.strategy().name(), "timestamp-skew");
        let hop = Scenario {
            hop_threshold: 512.0,
            ..Scenario::baseline("hop")
        };
        assert_eq!(hop.strategy().name(), "difficulty-hopping");
        let steer = Scenario {
            steer_min_ratio: STEER_MIN_RATIO,
            ..Scenario::baseline("steer")
        };
        assert_eq!(steer.strategy().name(), "cost-steering");
        assert_eq!(Scenario::baseline("honest").strategy().name(), "honest");
        // Defended scenarios install a drift bound below every swept skew.
        let config = scenario_config(
            &Scenario {
                defended: true,
                ..skew
            },
            20_000,
            2,
        );
        let rule = config.timestamp_rule.expect("defended installs the rule");
        assert!(rule.max_future_drift_ms < 8_000);
        assert!(config.retarget.is_some(), "the sweep is always adaptive");
        assert!(config.cost_policy.is_none(), "cost rule is opt-in");
        // The cost-defended steering scenario installs the cost-aware rule
        // and the deeper steering scan budget.
        let config = scenario_config(
            &Scenario {
                cost_defended: true,
                ..steer
            },
            20_000,
            2,
        );
        assert!(config.cost_policy.is_some());
        assert_eq!(config.node_attempts, vec![(0, STEER_ATTEMPTS)]);
    }

    #[test]
    fn a_short_skew_scenario_is_deterministic() {
        let scenario = Scenario {
            skew_ms: 8_000,
            ..Scenario::baseline("skew-8s")
        };
        let outcome = run_scenario(&scenario, 20_000, 2);
        assert!(outcome.runs_identical);
        assert!(outcome.report.converged);
    }

    #[test]
    fn a_short_steering_scenario_is_deterministic_and_grinds() {
        let scenario = Scenario {
            steer_min_ratio: STEER_MIN_RATIO,
            cost_defended: true,
            ..Scenario::baseline("steer-defended")
        };
        let outcome = run_scenario(&scenario, 20_000, 2);
        assert!(outcome.runs_identical);
        assert_eq!(
            outcome.report.fingerprint_extended(),
            "nodes=5 seed=13762332 duration=20000 converged=true convergence=Some(13675) \
             tip=00009e4bb5211cc41ebc0650d01d20b73e6c14f69bc987678d86854298c97ae7 height=10 \
             mined=10 reorgs=[] max_reorg=0 segments=0 segment_blocks=0 sent=120 dropped=0 \
             spam_sent=0 spam_accepted=0 fake_orphans=0 rejections=RejectionCounts { merkle: \
             0, pow: 0, target_policy: 0, timestamp: 0, unsolicited_segment: 0, \
             invalid_segment: 0, from_banned: 0, invalid_proof: 0, unsolicited_proof: 0 } \
             stalls=0 retried=0 abandoned=0 banned=0 withheld=0 released=0 \
             abandoned_private=0 pruned=0 safety_margin=10 crashes=0 recovered_identical=0 \
             replayed=0 lost_bytes=0 crash_dropped=0 events=1120 connects=0 evictions=0 \
             rotations=0 lights=0 light_converged=true bytes=18000 light_bytes=0 \
             headers_served=0 headers_accepted=0 proofs_served=0 proofs_verified=0 \
             proof_retries=0 proofs_withheld=0 fake_proofs=0 quota_refusals=0 verify_ops=0 \
             tx_proved=0 seeds_discarded=85 seeds_inadmissible=33 tip_cost=1.2302"
        );
        assert!(outcome.report.converged);
        assert!(
            outcome.report.seeds_discarded > 0,
            "the steerer must actually discard cheap seeds"
        );
    }
}
