//! Property-based equivalence of parallel and sequential chain validation:
//! for any corruption pattern and any thread count,
//! `validate_segment_parallel` must return exactly what
//! `validate_segment_with_rule` returns — acceptance or the same
//! first-error height and reason.

use hashcore_baselines::Sha256dPow;
use hashcore_chain::{
    validate_segment_parallel, validate_segment_with_rule, Block, Blockchain, ChainConfig,
    GENESIS_HASH,
};
use proptest::prelude::*;

fn mined_chain(blocks: usize) -> Blockchain<Sha256dPow> {
    let mut chain = Blockchain::new(Sha256dPow, ChainConfig::fast_test());
    for i in 0..blocks {
        chain
            .mine_block(&[format!("tx-{i}").into_bytes()], 1_000_000)
            .expect("mining at trivial difficulty succeeds");
    }
    chain
}

/// One corruption to apply to a mined chain.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// Forge a transaction (breaks the Merkle commitment).
    Transaction,
    /// Bump the timestamp (breaks the recorded proof of work).
    Timestamp,
    /// Rewrite the previous-hash link.
    PrevHash,
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        Just(Corruption::Transaction),
        Just(Corruption::Timestamp),
        Just(Corruption::PrevHash),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `validate_segment_parallel` ≡ `validate_segment_with_rule` on
    /// genesis-anchored chains of ≥ 32 blocks with arbitrary corruption
    /// sets, for every thread count.
    #[test]
    fn parallel_validation_matches_sequential(
        corruptions in prop::collection::vec((0usize..36, arb_corruption()), 0..4),
        threads in 1usize..9,
    ) {
        let chain = mined_chain(36);
        // Validation of a *received* block sequence: corrupt a copy, the
        // way a peer's forged segment would arrive.
        let mut blocks: Vec<Block> = chain.blocks().to_vec();
        for (height, corruption) in &corruptions {
            match corruption {
                Corruption::Transaction => {
                    blocks[*height].transactions[0] = b"forged".to_vec();
                }
                Corruption::Timestamp => blocks[*height].header.timestamp += 1,
                Corruption::PrevHash => blocks[*height].header.prev_hash = [0xdb; 32],
            }
        }

        let sequential = validate_segment_with_rule(&Sha256dPow, &blocks, GENESIS_HASH, None);
        let parallel = validate_segment_parallel(&Sha256dPow, &blocks, threads, GENESIS_HASH);
        prop_assert_eq!(&parallel, &sequential);
        if corruptions.is_empty() {
            prop_assert!(sequential.is_ok());
        }
    }
}
