//! Property-based equivalence of parallel and sequential chain validation:
//! for any corruption pattern and any thread count,
//! `validate_segment_parallel` must return exactly what
//! `validate_segment_with_rule` returns — acceptance or the same
//! first-error height and reason.

use hashcore::Target;
use hashcore_baselines::Sha256dPow;
use hashcore_chain::{
    validate_segment_parallel, validate_segment_with_rule, Block, DifficultyRule, EmaRetarget,
    ForkTree, GENESIS_HASH,
};
use proptest::prelude::*;

/// A single miner's chain of `blocks` blocks under a 2-bit, 15 s, gain 0.3
/// EMA rule, its clock advancing one second per hash attempt.
fn mined_chain(blocks: usize) -> Vec<Block> {
    let rule = DifficultyRule::Ema(EmaRetarget {
        initial: Target::from_leading_zero_bits(2),
        target_block_time: 15.0,
        gain: 0.3,
    });
    let mut tree = ForkTree::with_rule(Sha256dPow, rule);
    let mut clock = 0;
    for i in 0..blocks {
        let nonce = tree
            .mine_next(&[format!("tx-{i}").into_bytes()], clock, 1_000_000)
            .expect("mining at trivial difficulty succeeds")
            .header
            .nonce;
        clock += nonce + 1;
    }
    tree.best_chain()
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
        // Validation of a *received* block sequence: corrupt a copy, the
        // way a peer's forged segment would arrive.
        let mut blocks = mined_chain(36);
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
