//! Property-based network convergence: whatever delivery order the seeded
//! latency model produces — including across a partition — all nodes end on
//! one tip, and every sync-driven reorg replays blocks the batched verifier
//! accepted.

use hashcore_baselines::{PowFunction, Sha256dPow};
use hashcore_chain::validate_segment_parallel;
use hashcore_net::{LatencyModel, Partition, SimConfig, Simulation};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The seed drives every latency sample and gossip pick, so varying it
    /// varies the message delivery order; convergence must hold for all.
    #[test]
    fn all_nodes_converge_for_any_delivery_order(
        seed in 0u64..1_000_000,
        jitter_ms in 1u64..200,
        partitioned in any::<bool>(),
    ) {
        let config = SimConfig {
            nodes: 4,
            seed,
            difficulty_bits: 8,
            attempts_per_slice: 32,
            slice_ms: 100,
            latency: LatencyModel { base_ms: 10, jitter_ms },
            partitions: if partitioned {
                vec![Partition { start_ms: 4_000, end_ms: 14_000, split: 2 }]
            } else {
                Vec::new()
            },
            duration_ms: 24_000,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config, |_| Sha256dPow);
        let report = sim.run();

        prop_assert!(report.converged, "{}", report.fingerprint());
        let tip = sim.nodes()[0].tip();
        for node in sim.nodes() {
            prop_assert_eq!(node.tip(), tip);
            node.tree().validate_best_chain().expect("honest chain");

            // A reorg replays exactly verifier-accepted blocks: the deepest
            // sync-driven reorg's attached segment revalidates from its
            // anchor, and its trigger block came from the synced segment.
            if let Some(sync) = &node.stats().deepest_sync {
                let attached = &sync.reorg.attached;
                prop_assert!(!attached.is_empty());
                let anchor = attached[0].header.prev_hash;
                let stored: Vec<_> = attached
                    .iter()
                    .map(|block| {
                        let digest = Sha256dPow.pow_hash(&block.header.bytes());
                        (digest, node.tree().cost_ratio_of(&digest))
                    })
                    .collect();
                prop_assert_eq!(
                    validate_segment_parallel(node.tree().pow(), attached, 3, anchor),
                    Ok(stored)
                );
                prop_assert!(sync.segment.contains(attached.last().unwrap()));
            }
        }
    }
}
