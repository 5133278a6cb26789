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
use hashcore_bench::simbench::{host_json, positional_arg, run_twice, threads_arg, write_json};
use hashcore_net::{
    FakeProof, Honest, LightSimConfig, ProofWithholding, SimConfig, SimReport, Simulation, Strategy,
};
use std::fmt::Write as _;

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

/// Renders the matrix as a small, dependency-free JSON document.
fn render_json(
    outcomes: &[(&Scenario, Outcome)],
    duration_ms: u64,
    light_converged: bool,
    fake_proofs_rejected: bool,
    fake_proofs_sent: u64,
    runs_identical: bool,
    threads: usize,
) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"network_light_clients\",");
    let _ = writeln!(json, "{}", host_json(threads));
    let _ = writeln!(json, "  \"duration_ms\": {duration_ms},");
    let _ = writeln!(json, "  \"body_bytes\": {BODY_BYTES},");
    let _ = writeln!(json, "  \"scenarios\": [");
    for (i, (scenario, outcome)) in outcomes.iter().enumerate() {
        let r = &outcome.report;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", scenario.name);
        let _ = writeln!(json, "      \"full_nodes\": {},", scenario.full_nodes);
        let _ = writeln!(json, "      \"light_peers\": {},", r.light_nodes);
        let _ = writeln!(json, "      \"proof_quota\": {},", scenario.proof_quota);
        let _ = writeln!(json, "      \"converged\": {},", r.converged);
        let _ = writeln!(json, "      \"light_converged\": {},", r.light_converged);
        let _ = writeln!(json, "      \"tip_height\": {},", r.tip_height);
        let _ = writeln!(json, "      \"headers_served\": {},", r.headers_served);
        let _ = writeln!(json, "      \"headers_accepted\": {},", r.headers_accepted);
        let _ = writeln!(json, "      \"proofs_served\": {},", r.proofs_served);
        let _ = writeln!(json, "      \"proofs_verified\": {},", r.proofs_verified);
        let _ = writeln!(
            json,
            "      \"served_proofs_per_sec\": {:.1},",
            outcome.served_proofs_per_sec
        );
        let _ = writeln!(
            json,
            "      \"bytes_per_light_peer\": {:.1},",
            outcome.bytes_per_light_peer
        );
        let _ = writeln!(json, "      \"bytes_sent\": {},", r.bytes_sent);
        let _ = writeln!(
            json,
            "      \"light_bytes_received\": {},",
            r.light_bytes_received
        );
        let _ = writeln!(json, "      \"proof_retries\": {},", r.proof_retries);
        let _ = writeln!(json, "      \"proofs_withheld\": {},", r.proofs_withheld);
        let _ = writeln!(json, "      \"fake_proofs_sent\": {},", r.fake_proofs_sent);
        let _ = writeln!(
            json,
            "      \"invalid_proofs\": {},",
            r.rejections.invalid_proof
        );
        let _ = writeln!(json, "      \"quota_refusals\": {},", r.quota_refusals);
        let _ = writeln!(json, "      \"verify_hash_ops\": {},", r.verify_hash_ops);
        let _ = writeln!(json, "      \"tx_bytes_proved\": {},", r.tx_bytes_proved);
        let _ = writeln!(json, "      \"runs_identical\": {}", outcome.runs_identical);
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < outcomes.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"light_converged\": {light_converged},");
    let _ = writeln!(json, "  \"fake_proofs_sent\": {fake_proofs_sent},");
    let _ = writeln!(json, "  \"fake_proofs_rejected\": {fake_proofs_rejected},");
    let _ = writeln!(json, "  \"runs_identical\": {runs_identical}");
    json.push_str("}\n");
    json
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
        assert!(outcome.report.converged && outcome.report.light_converged);
        assert!(outcome.report.quota_refusals > 0);
    }
}
