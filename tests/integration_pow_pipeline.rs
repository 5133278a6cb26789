//! Workspace integration tests: the full HashCore pipeline across crates
//! (crypto → profile → gen → vm → core), including determinism, verification
//! and the security-relevant properties of the composition.

use hashcore::{HashCore, Target};
use hashcore_crypto::sha256;
use hashcore_gen::WidgetGenerator;
use hashcore_profile::{HashSeed, PerformanceProfile};
use hashcore_vm::Executor;
use proptest::prelude::*;

fn fast_profile() -> PerformanceProfile {
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = 5_000;
    profile
}

#[test]
fn end_to_end_hash_is_reproducible_across_instances() {
    // Two independently constructed instances (e.g. two different full nodes)
    // must agree on every digest.
    let node_a = HashCore::new(fast_profile());
    let node_b = HashCore::new(fast_profile());
    for input in [b"block-1".as_ref(), b"block-2".as_ref(), b"".as_ref()] {
        assert_eq!(
            node_a.hash(input).unwrap().digest,
            node_b.hash(input).unwrap().digest
        );
    }
}

#[test]
fn widget_is_regenerated_identically_from_the_seed_alone() {
    // A verifier that only knows the block header re-derives the exact same
    // widget program the miner executed.
    let profile = fast_profile();
    let miner_side = WidgetGenerator::new(profile.clone());
    let verifier_side = WidgetGenerator::new(profile);
    let seed = HashSeed::new(sha256(b"header"));
    let a = miner_side.generate(&seed);
    let b = verifier_side.generate(&seed);
    assert_eq!(
        hashcore_isa::encode(&a.program),
        hashcore_isa::encode(&b.program)
    );

    let out_a = Executor::new(a.exec_config())
        .execute(&a.program)
        .unwrap()
        .output;
    let out_b = Executor::new(b.exec_config())
        .execute(&b.program)
        .unwrap()
        .output;
    assert_eq!(out_a, out_b);
}

#[test]
fn tampering_with_widget_output_changes_the_digest() {
    // H(x) = G(s || W(s)): if a miner lies about even one byte of the widget
    // output, the digest no longer matches.
    let pow = HashCore::new(fast_profile());
    let input = b"tamper-check";
    let honest = pow.hash(input).unwrap();

    let seed = HashSeed::new(sha256(input));
    let widget = pow.generator().generate(&seed);
    let mut output = Executor::new(widget.exec_config())
        .execute(&widget.program)
        .unwrap()
        .output;
    output[0] ^= 1;
    let mut gate = hashcore_crypto::Sha256::new();
    gate.update(seed.as_bytes());
    gate.update(&output);
    assert_ne!(gate.finalize(), honest.digest);
}

#[test]
fn mining_and_verification_agree_across_difficulties() {
    let pow = HashCore::new(fast_profile());
    for bits in [1u32, 3] {
        let target = Target::from_leading_zero_bits(bits);
        let found = pow
            .mine(b"difficulty-sweep", target, 0, 512)
            .unwrap()
            .expect("low difficulties are quickly met");
        // Verification is re-evaluation over the header and nonce.
        let verify = |header: &[u8], target: Target| {
            let input = HashCore::mining_input(header, found.nonce);
            let digest = pow.hash(&input).unwrap().digest;
            target.is_met_by(&digest).then_some(digest)
        };
        assert_eq!(verify(b"difficulty-sweep", target), Some(found.digest));
        // The same nonce must fail under a different header.
        assert_eq!(
            verify(
                b"difficulty-sweep-other",
                Target::from_leading_zero_bits(200)
            ),
            None
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full pipeline is deterministic and total for arbitrary inputs.
    #[test]
    fn pipeline_is_total_and_deterministic(input in proptest::collection::vec(any::<u8>(), 0..128)) {
        let pow = HashCore::new(fast_profile());
        let a = pow.hash(&input).unwrap();
        let b = pow.hash(&input).unwrap();
        prop_assert_eq!(a.digest, b.digest);
        prop_assert!(a.widget.output_bytes > 0);
    }

    /// The reusable-scratch fast path is digest-identical to the naive
    /// path for arbitrary inputs (the optimization changes no semantics).
    #[test]
    fn scratch_path_matches_naive_path(inputs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..4)) {
        let pow = HashCore::new(fast_profile());
        let mut scratch = hashcore::HashScratch::new();
        for input in &inputs {
            prop_assert_eq!(
                pow.hash_with_scratch(input, &mut scratch).unwrap(),
                pow.hash(input).unwrap()
            );
        }
    }

    /// Every seed produces a structurally valid widget that halts within its
    /// step limit and emits at least one snapshot.
    #[test]
    fn every_seed_yields_a_valid_halting_widget(seed_bytes in proptest::array::uniform32(any::<u8>())) {
        let generator = WidgetGenerator::new(fast_profile());
        let widget = generator.generate(&HashSeed::new(seed_bytes));
        prop_assert!(widget.program.validate().is_ok());
        let execution = Executor::new(widget.exec_config()).execute(&widget.program).unwrap();
        prop_assert!(execution.snapshot_count >= 1);
        prop_assert_eq!(execution.output.len() % hashcore_vm::SNAPSHOT_BYTES, 0);
    }
}
