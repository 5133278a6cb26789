//! Property-based fork-choice convergence: the tip a [`ForkTree`] selects
//! is a function of the *set* of blocks stored, never of their arrival
//! order, and every branch switch attaches a segment the batched verifier
//! accepts.

use hashcore::Target;
use hashcore_baselines::{PowFunction, Sha256dPow};
use hashcore_chain::{
    validate_segment_parallel, ApplyOutcome, Block, BlockHeader, DifficultyRule, ForkError,
    ForkTree, GENESIS_HASH,
};
use hashcore_crypto::Digest256;
use proptest::prelude::*;

/// Mines a child of `prev` tagged by `tag` at two leading-zero bits.
fn mine_child(prev: Digest256, tag: &str) -> Block {
    let txs = vec![tag.as_bytes().to_vec()];
    let target = Target::from_leading_zero_bits(2);
    let mut header = BlockHeader {
        version: 1,
        prev_hash: prev,
        merkle_root: Block::merkle_root(&txs),
        timestamp: 0,
        target: *target.threshold(),
        nonce: 0,
    };
    while !target.is_met_by(&Sha256dPow.pow_hash(&header.bytes())) {
        header.nonce += 1;
    }
    Block {
        header,
        transactions: txs,
    }
}

/// The digest and cost ratio `tree` stored each block of `run` with, a
/// contiguous run that ends at the tree's tip: what a validator accepting
/// `run` returns.
fn stored(tree: &ForkTree<Sha256dPow>, run: &[Block]) -> Vec<(Digest256, f64)> {
    run.iter()
        .skip(1)
        .map(|block| block.header.prev_hash)
        .chain([tree.tip()])
        .map(|digest| (digest, tree.cost_ratio_of(&digest)))
        .collect()
}

/// Builds a random block tree: entry `i` extends the block chosen by
/// `parent_picks[i]` among genesis and the blocks built so far.
fn build_blocks(parent_picks: &[usize]) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut digests = vec![GENESIS_HASH];
    for (i, pick) in parent_picks.iter().enumerate() {
        let prev = digests[pick % digests.len()];
        let block = mine_child(prev, &format!("block-{i}"));
        digests.push(Sha256dPow.pow_hash(&block.header.bytes()));
        blocks.push(block);
    }
    blocks
}

/// A deterministic permutation of `0..len` from `seed` (splitmix64-driven
/// Fisher–Yates).
fn permutation(len: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Applies blocks in the given order, parking orphans and retrying them
/// whenever a new block lands (the delivery-agnostic consumption a gossip
/// mesh produces). Asserts every branch switch attaches a segment the
/// parallel verifier accepts.
fn apply_in_order(blocks: &[Block], order: &[usize]) -> ForkTree<Sha256dPow> {
    let mut tree = ForkTree::new(Sha256dPow);
    let mut pending: Vec<Block> = order.iter().map(|&i| blocks[i].clone()).collect();
    while !pending.is_empty() {
        let before = pending.len();
        let mut parked = Vec::new();
        for block in pending {
            match tree.apply(block.clone()) {
                Ok(ApplyOutcome::TipChanged { reorg, .. }) if !reorg.attached.is_empty() => {
                    let anchor = reorg.attached[0].header.prev_hash;
                    assert_eq!(
                        validate_segment_parallel(&Sha256dPow, &reorg.attached, 3, anchor),
                        Ok(stored(&tree, &reorg.attached)),
                        "an attached segment must revalidate from its anchor"
                    );
                }
                Ok(_) => {}
                Err(ForkError::UnknownParent { .. }) => parked.push(block),
                Err(other) => panic!("honest block rejected: {other}"),
            }
        }
        pending = parked;
        assert!(
            pending.len() < before,
            "every orphan's parent is eventually delivered"
        );
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any two delivery orders of the same block set select the same tip.
    #[test]
    fn fork_choice_is_delivery_order_independent(
        parent_picks in prop::collection::vec(0usize..64, 1..14),
        shuffle_seed in 0u64..1_000_000,
    ) {
        let blocks = build_blocks(&parent_picks);
        let in_order: Vec<usize> = (0..blocks.len()).collect();
        let shuffled = permutation(blocks.len(), shuffle_seed);

        let a = apply_in_order(&blocks, &in_order);
        let b = apply_in_order(&blocks, &shuffled);

        prop_assert_eq!(a.tip(), b.tip());
        prop_assert_eq!(a.tip_height(), b.tip_height());
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.best_chain(), b.best_chain());
        // The winning chain is a verifier-accepted segment from genesis.
        prop_assert_eq!(
            validate_segment_parallel(&Sha256dPow, &a.best_chain(), 4, GENESIS_HASH),
            Ok(stored(&a, &a.best_chain()))
        );
    }

    /// The branch-aware target check is behaviour-preserving for fixed
    /// difficulty: a tree enforcing `DifficultyRule::Fixed` at the
    /// consensus target produces, block for block, *exactly* the outcomes
    /// of the historical trusting tree — same apply results (including
    /// every reorg's detached/attached segments), same tip, same stored
    /// set — for any block tree and any delivery order.
    #[test]
    fn fixed_rule_enforcement_is_byte_identical_to_the_trusting_tree(
        parent_picks in prop::collection::vec(0usize..64, 1..14),
        shuffle_seed in 0u64..1_000_000,
    ) {
        let blocks = build_blocks(&parent_picks);
        let order = permutation(blocks.len(), shuffle_seed);
        let consensus = Target::from_leading_zero_bits(2);

        let mut trusting = ForkTree::new(Sha256dPow);
        let mut enforcing = ForkTree::with_rule(Sha256dPow, DifficultyRule::Fixed(consensus));
        for &i in &order {
            let a = trusting.apply(blocks[i].clone());
            let b = enforcing.apply(blocks[i].clone());
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(trusting.tip(), enforcing.tip());
        prop_assert_eq!(trusting.tip_height(), enforcing.tip_height());
        prop_assert_eq!(trusting.len(), enforcing.len());
        prop_assert_eq!(trusting.best_chain(), enforcing.best_chain());
        prop_assert_eq!(trusting.locator(), enforcing.locator());
    }
}
