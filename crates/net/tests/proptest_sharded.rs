//! Property-based byte-identity of the parallel scheduler: for any seed,
//! node count and thread count — with or without a topology overlay and
//! an adversary in play — the N-thread run's extended fingerprint equals
//! the single-threaded run's. Parallelism is purely a wall-clock knob; it
//! must never change a single reported bit.
//!
//! The two runs take different paths. Both pop each timestamp's bucket
//! of the event queue unsorted, since `seq` is handed out in push order.
//! One thread then merges each node event's outcome before the next
//! handler runs; N threads run per-node lanes and merge the outcomes
//! afterwards in `seq` order. They agree because handlers touch only
//! their own node and draw no RNG, and a merge writes nothing a handler
//! reads.

use hashcore_baselines::Sha256dPow;
use hashcore_net::{Eclipse, Honest, SimConfig, Simulation, TopologyConfig};
use proptest::prelude::*;

fn base_config(seed: u64, nodes: usize, topology: bool) -> SimConfig {
    SimConfig {
        nodes,
        seed,
        difficulty_bits: 8,
        attempts_per_slice: 32,
        slice_ms: 100,
        duration_ms: 10_000,
        request_timeout_ms: Some(1_500),
        topology: topology.then(TopologyConfig::defended),
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant: handlers are node-local and RNG-free, and
    /// the merge phase replays their outcomes in global `(time, seq)`
    /// order, so the thread count cannot leak into any deterministic
    /// field.
    #[test]
    fn sharded_runs_are_byte_identical_to_sequential(
        seed in 0u64..1_000_000,
        nodes in 3usize..7,
        threads in 2usize..6,
        topology in any::<bool>(),
    ) {
        let config = base_config(seed, nodes, topology);
        let sequential = Simulation::new(config.clone(), |_| Sha256dPow).run();
        let parallel = Simulation::new(
            SimConfig { threads, ..config },
            |_| Sha256dPow,
        )
        .run();
        prop_assert_eq!(
            sequential.fingerprint_extended(),
            parallel.fingerprint_extended()
        );
    }

    /// The identity holds with an eclipse adversary exercising the
    /// topology machinery (connection pressure, eviction, scoring,
    /// rotation) at full tilt.
    #[test]
    fn sharded_runs_stay_identical_under_an_eclipse_attack(
        seed in 0u64..1_000_000,
        threads in 2usize..6,
    ) {
        let config = SimConfig {
            fan_out: 3,
            ..base_config(seed, 8, true)
        };
        let run = |cfg: SimConfig| {
            Simulation::with_strategies(
                cfg,
                |_| Sha256dPow,
                |id| {
                    if id >= 6 {
                        Box::new(Eclipse { victim: 0 })
                    } else {
                        Box::new(Honest)
                    }
                },
            )
            .run()
        };
        let sequential = run(config.clone());
        let parallel = run(SimConfig { threads, ..config });
        prop_assert_eq!(
            sequential.fingerprint_extended(),
            parallel.fingerprint_extended()
        );
    }
}
