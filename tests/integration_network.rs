//! Workspace integration: the network simulation driving fork choice,
//! partitions and segment sync end-to-end — including with the real
//! HashCore PoW securing the race.

use hashcore::HashCore;
use hashcore_baselines::{HashCorePow, PowFunction, Sha256dPow};
use hashcore_chain::validate_segment_parallel;
use hashcore_net::{LatencyModel, Partition, SimConfig, Simulation};
use hashcore_profile::PerformanceProfile;

fn partitioned_config() -> SimConfig {
    SimConfig {
        nodes: 5,
        seed: 2019,
        difficulty_bits: 9,
        attempts_per_slice: 64,
        slice_ms: 100,
        partitions: vec![Partition {
            start_ms: 10_000,
            end_ms: 30_000,
            split: 2,
        }],
        duration_ms: 45_000,
        sync_threads: 4,
        ..SimConfig::default()
    }
}

/// The acceptance scenario: a 5-node network with a forced partition
/// converges to a single tip after healing, with at least one multi-block
/// reorg exercised through the batched parallel verifier.
#[test]
fn partitioned_network_converges_through_deep_reorgs() {
    let mut sim = Simulation::new(partitioned_config(), |_| Sha256dPow);
    let report = sim.run();

    assert!(report.converged, "{}", report.fingerprint());
    assert!(report.convergence_ms.is_some());
    assert!(report.messages_dropped > 0, "the partition must bite");
    assert!(
        report.max_reorg_depth >= 2,
        "healing must force a multi-block reorg: {}",
        report.fingerprint()
    );
    assert!(report.segments_synced >= 1);

    // Every node ends on the same verifier-accepted chain.
    let tip = sim.nodes()[0].tip();
    for node in sim.nodes() {
        assert_eq!(node.tip(), tip);
        node.tree().validate_best_chain().expect("honest chain");
    }

    // A reorg replays exactly blocks the parallel verifier accepted: the
    // deepest sync-driven reorg attaches a suffix of the synced segment.
    let deepest = sim
        .nodes()
        .iter()
        .filter_map(|n| n.stats().deepest_sync.as_ref())
        .max_by_key(|s| s.reorg.depth())
        .expect("the partition produces at least one sync-driven reorg");
    assert!(deepest.reorg.depth() >= 1);
    let attached = &deepest.reorg.attached;
    let offset = deepest
        .segment
        .iter()
        .position(|b| b == &attached[0])
        .expect("the attached segment starts inside the validated segment");
    let end = offset + attached.len();
    assert!(end <= deepest.segment.len());
    assert_eq!(
        &deepest.segment[offset..end],
        attached.as_slice(),
        "the reorg must replay exactly a contiguous run of the validated segment \
         (the blocks past the switch point extend the new tip one by one)"
    );
    let anchor = attached[0].header.prev_hash;
    let stored: Vec<_> = attached
        .iter()
        .map(|block| {
            let digest = Sha256dPow.pow_hash(&block.header.bytes());
            (digest, sim.nodes()[0].tree().cost_ratio_of(&digest))
        })
        .collect();
    assert_eq!(
        validate_segment_parallel(&Sha256dPow, attached, 4, anchor),
        Ok(stored)
    );
}

/// Determinism acceptance: two runs with the same seed report identical
/// convergence times and reorg depth distributions.
#[test]
fn same_seed_reproduces_the_same_race() {
    let a = Simulation::new(partitioned_config(), |_| Sha256dPow).run();
    let b = Simulation::new(partitioned_config(), |_| Sha256dPow).run();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.convergence_ms, b.convergence_ms);
    assert_eq!(a.reorg_depths, b.reorg_depths);
}

/// The simulation is generic over the PoW: a small network secured by the
/// full HashCore function (hash gate → widget → hash gate) also converges.
#[test]
fn hashcore_secured_network_converges() {
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = 2_000;
    let config = SimConfig {
        nodes: 3,
        seed: 11,
        difficulty_bits: 3,
        attempts_per_slice: 4,
        slice_ms: 200,
        latency: LatencyModel {
            base_ms: 20,
            jitter_ms: 60,
        },
        duration_ms: 4_000,
        sync_threads: 2,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(config, |_| HashCorePow::new(HashCore::new(profile.clone())));
    let report = sim.run();
    assert!(report.converged, "{}", report.fingerprint());
    assert!(report.blocks_mined > 0);
    for node in sim.nodes() {
        node.tree().validate_best_chain().expect("honest chain");
    }
}
