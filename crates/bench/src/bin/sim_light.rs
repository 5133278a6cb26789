//! Light-client serving harness: header-first sync at three light-peer
//! population sizes plus proof-serving adversaries, each scenario run
//! twice for determinism, with the aggregate results written to
//! `BENCH_light.json`.
//!
//! Scenarios:
//!
//! * **light-{64,512,2048}** — one full node mines and serves headers and
//!   batched Merkle proofs to N light peers. The harness measures the
//!   serving load (served proofs/sec) and the real-byte cost per light
//!   peer against the full node's own gossip traffic.
//! * **quota-64** — four full nodes serve 64 light peers under a tight
//!   per-peer proof quota; refusals are silent, so lights must time out
//!   and rotate servers while header convergence stays intact.
//! * **withhold** — full node 0 serves headers but never proofs; lights
//!   time out, rotate to the three honest servers and still prove tips.
//! * **fake-proof** — full node 0 corrupts one byte of every proof it
//!   serves; `verify_batch` must reject every single one (the rejection
//!   count equals the fakes sent) and lights re-request elsewhere.
//!
//! Acceptance gates asserted here (and grepped by CI from the JSON):
//! every scenario leaves every light tip equal to the full best tip
//! (`light_converged`), every corrupted proof is rejected
//! (`fake_proofs_rejected`), and both runs of every scenario replay
//! byte-identically (`runs_identical`).
//!
//! Usage:
//!
//! ```text
//! sim_light [duration-seconds] [threads]
//! ```

use hashcore_baselines::Sha256dPow;
use hashcore_bench::simbench::{
    host_json, positional_arg, run_twice, threads_arg, write_json, JsonObject,
};
use hashcore_net::{
    FakeProof, Honest, LightSimConfig, ProofWithholding, SimConfig, SimReport, Simulation, Strategy,
};

/// Body filler bytes per block, so the byte accounting reflects real
/// transaction volume rather than the ~10-byte miner tag.
const BODY_BYTES: usize = 512;
/// Base nonce attempts per slice for every full node.
const BASE_ATTEMPTS: u64 = 32;

/// One scenario of the matrix.
struct Scenario {
    name: &'static str,
    /// Full nodes (ids `0..full_nodes`); every one mines and serves.
    full_nodes: usize,
    /// Light peers (ids `full_nodes..full_nodes + light_peers`).
    light_peers: usize,
    /// Per-peer proof quota on every full node (0 = unlimited).
    proof_quota: u64,
    /// Strategy for full node 0 (all other nodes are honest).
    make_strategy: fn() -> Box<dyn Strategy>,
}

/// What one scenario produced (plus the raw report).
struct Outcome {
    report: SimReport,
    runs_identical: bool,
    served_proofs_per_sec: f64,
    bytes_per_light_peer: f64,
}

fn scenario_config(scenario: &Scenario, duration_ms: u64, threads: usize) -> SimConfig {
    SimConfig {
        nodes: scenario.full_nodes + scenario.light_peers,
        seed: 0x11c4_7c11,
        difficulty_bits: 8,
        attempts_per_slice: BASE_ATTEMPTS,
        slice_ms: 100,
        fan_out: 2,
        duration_ms,
        threads,
        sync_threads: threads,
        light: Some(LightSimConfig {
            first_light: scenario.full_nodes,
            request_timeout_ms: 1_000,
            proof_indices: vec![0],
            proof_quota: scenario.proof_quota,
            body_bytes: BODY_BYTES,
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
                    (scenario.make_strategy)()
                } else {
                    Box::new(Honest)
                }
            },
        );
        sim.run()
    };
    // The wall-clock-derived rate stays out of the fingerprint: replays
    // must agree on every simulated byte, not on host speed.
    let (report, runs_identical) = run_twice(run, SimReport::fingerprint_extended);
    let served_proofs_per_sec = report.served_proofs_per_sec();
    let bytes_per_light_peer = report.bytes_per_light_peer();
    Outcome {
        report,
        runs_identical,
        served_proofs_per_sec,
        bytes_per_light_peer,
    }
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "light-64",
            full_nodes: 1,
            light_peers: 64,
            proof_quota: 0,
            make_strategy: || Box::new(Honest),
        },
        Scenario {
            name: "light-512",
            full_nodes: 1,
            light_peers: 512,
            proof_quota: 0,
            make_strategy: || Box::new(Honest),
        },
        Scenario {
            name: "light-2048",
            full_nodes: 1,
            light_peers: 2048,
            proof_quota: 0,
            make_strategy: || Box::new(Honest),
        },
        Scenario {
            name: "quota-64",
            full_nodes: 4,
            light_peers: 64,
            proof_quota: 4,
            make_strategy: || Box::new(Honest),
        },
        Scenario {
            name: "withhold",
            full_nodes: 4,
            light_peers: 64,
            proof_quota: 0,
            make_strategy: || Box::new(ProofWithholding),
        },
        Scenario {
            name: "fake-proof",
            full_nodes: 4,
            light_peers: 64,
            proof_quota: 0,
            make_strategy: || Box::new(FakeProof),
        },
    ]
}

fn main() {
    let duration_s = positional_arg(1, 60).max(12);
    let duration_ms = duration_s * 1_000;
    let threads = threads_arg(2);

    let scenarios = scenarios();
    println!(
        "light-client matrix: {} scenarios × 2 runs, {duration_s} s horizon",
        scenarios.len()
    );

    let outcomes: Vec<(&Scenario, Outcome)> = scenarios
        .iter()
        .map(|scenario| {
            let outcome = run_scenario(scenario, duration_ms, threads);
            let r = &outcome.report;
            println!(
                "  {:<11} full={} lights={} converged={}/{} height={} \
                 headers(served/accepted)={}/{} proofs(served/verified)={}/{} \
                 rate={:.1}/s bytes_per_light={:.0} retries={} withheld={} \
                 fakes={} rejected={} refusals={} deterministic={}",
                scenario.name,
                scenario.full_nodes,
                r.light_nodes,
                r.converged,
                r.light_converged,
                r.tip_height,
                r.headers_served,
                r.headers_accepted,
                r.proofs_served,
                r.proofs_verified,
                outcome.served_proofs_per_sec,
                outcome.bytes_per_light_peer,
                r.proof_retries,
                r.proofs_withheld,
                r.fake_proofs_sent,
                r.rejections.invalid_proof,
                r.quota_refusals,
                outcome.runs_identical,
            );
            (scenario, outcome)
        })
        .collect();

    // Acceptance gates.
    let runs_identical = outcomes.iter().all(|(_, o)| o.runs_identical);
    let light_converged = outcomes
        .iter()
        .all(|(_, o)| o.report.converged && o.report.light_converged);
    let fakes_sent: u64 = outcomes
        .iter()
        .map(|(_, o)| o.report.fake_proofs_sent)
        .sum();
    let fakes_rejected: u64 = outcomes
        .iter()
        .map(|(_, o)| o.report.rejections.invalid_proof)
        .sum();
    let fake_proofs_rejected = fakes_sent > 0 && fakes_rejected == fakes_sent;
    for (scenario, outcome) in &outcomes {
        assert!(
            outcome.report.converged && outcome.report.light_converged,
            "every light tip must equal the full tip under {}: {}",
            scenario.name,
            outcome.report.fingerprint_extended()
        );
        assert!(
            outcome.report.proofs_verified > 0,
            "lights must prove tips under {}",
            scenario.name
        );
    }
    assert!(runs_identical, "every scenario must replay identically");
    assert!(
        fake_proofs_rejected,
        "every corrupted proof must be rejected: sent={fakes_sent} rejected={fakes_rejected}"
    );

    let json = render_json(
        &outcomes,
        duration_ms,
        light_converged,
        fake_proofs_rejected,
        fakes_sent,
        runs_identical,
        threads,
    );
    write_json("BENCH_light.json", &json);
}

/// Renders the matrix as a JSON document.
fn render_json(
    outcomes: &[(&Scenario, Outcome)],
    duration_ms: u64,
    light_converged: bool,
    fake_proofs_rejected: bool,
    fake_proofs_sent: u64,
    runs_identical: bool,
    threads: usize,
) -> String {
    let scenarios = outcomes.iter().map(|(scenario, outcome)| {
        let r = &outcome.report;
        let mut row = JsonObject::default();
        row.text("name", scenario.name)
            .field("full_nodes", scenario.full_nodes)
            .field("light_peers", r.light_nodes)
            .field("proof_quota", scenario.proof_quota)
            .field("converged", r.converged)
            .field("light_converged", r.light_converged)
            .field("tip_height", r.tip_height)
            .field("headers_served", r.headers_served)
            .field("headers_accepted", r.headers_accepted)
            .field("proofs_served", r.proofs_served)
            .field("proofs_verified", r.proofs_verified)
            .fixed("served_proofs_per_sec", outcome.served_proofs_per_sec, 1)
            .fixed("bytes_per_light_peer", outcome.bytes_per_light_peer, 1)
            .field("bytes_sent", r.bytes_sent)
            .field("light_bytes_received", r.light.bytes_received)
            .field("proof_retries", r.proof_retries)
            .field("proofs_withheld", r.proofs_withheld)
            .field("fake_proofs_sent", r.fake_proofs_sent)
            .field("invalid_proofs", r.rejections.invalid_proof)
            .field("quota_refusals", r.quota_refusals)
            .field("verify_hash_ops", r.verify_hash_ops)
            .field("tx_bytes_proved", r.tx_bytes_proved)
            .field("runs_identical", outcome.runs_identical);
        row
    });
    let mut json = JsonObject::default();
    json.text("bench", "network_light_clients")
        .value("host", host_json(threads))
        .field("duration_ms", duration_ms)
        .field("body_bytes", BODY_BYTES)
        .array("scenarios", scenarios)
        .field("light_converged", light_converged)
        .field("fake_proofs_sent", fake_proofs_sent)
        .field("fake_proofs_rejected", fake_proofs_rejected)
        .field("runs_identical", runs_identical);
    json.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_fake_proof_run_rejects_every_fake_and_converges() {
        let scenario = Scenario {
            name: "fake-proof",
            full_nodes: 4,
            light_peers: 8,
            proof_quota: 0,
            make_strategy: || Box::new(FakeProof),
        };
        let outcome = run_scenario(&scenario, 12_000, 2);
        assert!(outcome.runs_identical);
        assert!(outcome.report.converged && outcome.report.light_converged);
        assert!(outcome.report.fake_proofs_sent > 0);
        assert_eq!(
            outcome.report.rejections.invalid_proof,
            outcome.report.fake_proofs_sent
        );
        assert!(outcome.report.proofs_verified > 0);
    }

    #[test]
    fn a_short_quota_run_refuses_and_still_converges() {
        let scenario = Scenario {
            name: "quota-64",
            full_nodes: 4,
            light_peers: 8,
            proof_quota: 2,
            make_strategy: || Box::new(Honest),
        };
        let outcome = run_scenario(&scenario, 12_000, 2);
        assert!(outcome.runs_identical);
        assert_eq!(
            outcome.report.fingerprint_extended(),
            "nodes=12 seed=298089489 duration=12000 converged=true convergence=Some(11987) \
             tip=00247fc5e3a848e528fef7603ccb5a486031eb5291cf8c1ff8aa21a69413da7c height=45 \
             mined=53 reorgs=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] max_reorg=1 \
             segments=0 segment_blocks=0 sent=1149 dropped=0 spam_sent=0 spam_accepted=0 \
             fake_orphans=0 rejections=RejectionCounts { merkle: 0, pow: 0, target_policy: 0, \
             timestamp: 0, unsolicited_segment: 0, invalid_segment: 0, from_banned: 0, \
             invalid_proof: 0, unsolicited_proof: 0 } stalls=0 retried=0 abandoned=0 banned=0 \
             withheld=0 released=0 abandoned_private=0 pruned=0 safety_margin=4 crashes=0 \
             recovered_identical=0 replayed=0 lost_bytes=0 crash_dropped=0 events=2589 \
             connects=0 evictions=0 rotations=0 lights=8 light_converged=true bytes=258067 \
             light_bytes=86580 headers_served=3 headers_accepted=424 proofs_served=64 \
             proofs_verified=64 proof_retries=78 proofs_withheld=0 fake_proofs=0 \
             quota_refusals=85 verify_ops=849 tx_proved=1573 seeds_discarded=0 \
             seeds_inadmissible=0 tip_cost=1.5926"
        );
        assert!(outcome.report.converged && outcome.report.light_converged);
        assert!(outcome.report.quota_refusals > 0);
    }
}
