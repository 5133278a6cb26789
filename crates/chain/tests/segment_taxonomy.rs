//! Error-taxonomy tests for `validate_segment_with_rule` /
//! `validate_segment_parallel`: one test per rejection class, each asserting
//! the *exact* lowest-height [`ChainError::InvalidBlock`] — height and
//! [`InvalidReason`] — and that the parallel verifier reports
//! byte-identically to the sequential one for every interesting thread
//! count. The rule-aware validators are held to the same equivalence, and
//! to the verdict of replaying the segment through a rule-enforcing
//! [`ForkTree`], under every [`DifficultyRule`].

use hashcore::Target;
use hashcore_baselines::{PowFunction, Sha256dPow};
use hashcore_chain::{
    cost_commitment_of, validate_segment_parallel, validate_segment_parallel_with_rule,
    validate_segment_with_rule, Block, BlockHeader, ChainError, CostAwareRetarget, DifficultyRule,
    EmaRetarget, ForkError, ForkTree, HeaderChain, InvalidReason, RuleContext, GENESIS_HASH,
};
use hashcore_crypto::Digest256;

const THREADS: [usize; 5] = [1, 2, 3, 5, 8];

/// Each block's digest and cost ratio, evaluated on its own: what a
/// validator accepting `blocks` returns.
fn evaluated(blocks: &[Block]) -> Vec<(Digest256, f64)> {
    blocks
        .iter()
        .map(|block| {
            let (digest, cost) =
                Sha256dPow.evaluate(&block.header.bytes(), &mut Default::default());
            (digest, cost.ratio(Sha256dPow.nominal_cost()))
        })
        .collect()
}

/// The 6-block suffix of a single miner's 12-block honest chain (2-bit,
/// 15 s, gain 0.3 EMA rule; one second per hash attempt) plus the anchor
/// digest it extends.
fn segment_fixture() -> (Vec<Block>, Digest256) {
    let rule = DifficultyRule::Ema(EmaRetarget {
        initial: Target::from_leading_zero_bits(2),
        target_block_time: 15.0,
        gain: 0.3,
    });
    let mut tree = ForkTree::with_rule(Sha256dPow, rule);
    let mut clock = 0;
    for i in 0..12 {
        let nonce = tree
            .mine_next(&[format!("tx-{i}").into_bytes()], clock, 1_000_000)
            .expect("trivial difficulty")
            .header
            .nonce;
        clock += nonce + 1;
    }
    let chain = tree.best_chain();
    let anchor = Sha256dPow.pow_hash(&chain[5].header.bytes());
    (chain[6..].to_vec(), anchor)
}

/// Asserts the exact sequential error and the sequential ≡ parallel
/// equivalence for every thread count.
fn assert_exact_error(blocks: &[Block], anchor: Digest256, height: usize, reason: InvalidReason) {
    let expected = Err(ChainError::InvalidBlock { height, reason });
    assert_eq!(
        validate_segment_with_rule(&Sha256dPow, blocks, anchor, None),
        expected,
        "sequential"
    );
    for threads in THREADS {
        assert_eq!(
            validate_segment_parallel(&Sha256dPow, blocks, threads, anchor),
            expected,
            "{threads} threads"
        );
    }
}

#[test]
fn clean_segment_is_accepted_by_both_paths() {
    let (blocks, anchor) = segment_fixture();
    assert_eq!(
        validate_segment_with_rule(&Sha256dPow, &blocks, anchor, None),
        Ok(evaluated(&blocks))
    );
    for threads in THREADS {
        assert_eq!(
            validate_segment_parallel(&Sha256dPow, &blocks, threads, anchor),
            Ok(evaluated(&blocks)),
            "{threads} threads"
        );
    }
}

#[test]
fn bad_prev_link_at_the_anchor_is_linkage_at_height_zero() {
    let (blocks, _) = segment_fixture();
    // The right segment validated against the wrong anchor digest...
    assert_exact_error(&blocks, [0xEE; 32], 0, InvalidReason::Linkage);
    // ...and the wrong first link validated against the right anchor.
    let (mut blocks, anchor) = segment_fixture();
    blocks[0].header.prev_hash = [0xEE; 32];
    assert_exact_error(&blocks, anchor, 0, InvalidReason::Linkage);
}

#[test]
fn bad_pow_digest_is_pow_at_the_corrupted_height() {
    for height in [1usize, 3, 5] {
        let (mut blocks, anchor) = segment_fixture();
        // A rewritten nonce invalidates the recorded proof of work (and
        // the next block's linkage — but PoW sits at the lower height, so
        // it must win the lowest-height selection).
        blocks[height].header.nonce = blocks[height].header.nonce.wrapping_add(1);
        while crate_target(&blocks[height])
            .is_met_by(&Sha256dPow.pow_hash(&blocks[height].header.bytes()))
        {
            // The tweaked nonce accidentally still meets the (easy test)
            // target; keep tweaking until the proof of work breaks.
            blocks[height].header.nonce = blocks[height].header.nonce.wrapping_add(1);
        }
        assert_exact_error(&blocks, anchor, height, InvalidReason::Pow);
    }
}

/// The block's embedded target as a `hashcore::Target`.
fn crate_target(block: &Block) -> hashcore::Target {
    hashcore::Target::from_threshold(block.header.target)
}

#[test]
fn target_mismatch_is_pow_at_the_corrupted_height() {
    let (mut blocks, anchor) = segment_fixture();
    // Tighten the recorded target until the stored digest misses it: the
    // header no longer proves the work its target field claims.
    blocks[2].header.target = [0u8; 32];
    assert_exact_error(&blocks, anchor, 2, InvalidReason::Pow);
}

#[test]
fn mid_segment_merkle_corruption_is_merkle_at_its_height() {
    for height in [2usize, 4] {
        let (mut blocks, anchor) = segment_fixture();
        blocks[height].transactions[0] = b"forged".to_vec();
        assert_exact_error(&blocks, anchor, height, InvalidReason::Merkle);
    }
}

#[test]
fn mid_segment_broken_link_is_linkage_at_its_height() {
    let (mut blocks, anchor) = segment_fixture();
    blocks[3].header.prev_hash = [0xBB; 32];
    assert_exact_error(&blocks, anchor, 3, InvalidReason::Linkage);
}

#[test]
fn the_lowest_height_failure_wins_across_classes() {
    let (mut blocks, anchor) = segment_fixture();
    // Three different classes at three heights: the lowest one is the
    // verdict, whatever its class.
    blocks[4].header.prev_hash = [0xBB; 32];
    blocks[2].transactions[0] = b"forged".to_vec();
    blocks[5].header.nonce ^= 1;
    assert_exact_error(&blocks, anchor, 2, InvalidReason::Merkle);
}

#[test]
fn reasons_render_the_shared_wording() {
    assert_eq!(
        InvalidReason::Linkage.to_string(),
        "previous-hash linkage broken"
    );
    assert!(InvalidReason::Merkle.to_string().contains("merkle root"));
    assert!(InvalidReason::Pow.to_string().contains("proof of work"));
    let err = ChainError::InvalidBlock {
        height: 7,
        reason: InvalidReason::Merkle,
    };
    assert_eq!(
        err.to_string(),
        "block 7 is invalid: merkle root does not commit to the transactions"
    );
}

/// `0x3fff…ff`: the 2-leading-zero-bit target with every lower bit set — a
/// threshold wider than an `f64` mantissa, which `Target::scale` rounds.
fn wide_target() -> Target {
    let mut threshold = [0xFF; 32];
    threshold[0] = 0x3F;
    Target::from_threshold(threshold)
}

/// Each rule variant over a power-of-two and a non-power-of-two initial
/// target, on a 1 000 ms block time.
fn rules() -> Vec<DifficultyRule> {
    [Target::from_leading_zero_bits(2), wide_target()]
        .into_iter()
        .flat_map(|initial| {
            let time = EmaRetarget::new(initial, 1_000.0, 0.5);
            [
                DifficultyRule::Fixed(initial),
                DifficultyRule::Ema(time),
                DifficultyRule::CostAware(CostAwareRetarget::new(time, 0.5, 1.0)),
            ]
        })
        .collect()
}

/// Re-mines `header`'s nonce until its digest meets its embedded target and
/// `accept` holds for `(digest, cost ratio)`.
fn remine(
    tree: &mut ForkTree<Sha256dPow>,
    header: &mut BlockHeader,
    accept: impl Fn(&Digest256, f64) -> bool,
) {
    let embedded = Target::from_threshold(header.target);
    loop {
        let (digest, ratio) = tree.digest_and_cost_of_header(header);
        if embedded.is_met_by(&digest) && accept(&digest, ratio) {
            return;
        }
        header.nonce += 1;
    }
}

/// The rule-consistent child of `tree`'s tip at `timestamp` — or, with
/// `admissible` false, one that meets its expected target but fails the
/// cost admission bound.
fn mine_rule_child(
    tree: &mut ForkTree<Sha256dPow>,
    rule: &DifficultyRule,
    timestamp: u64,
    admissible: bool,
) -> Block {
    let parent = tree.tip();
    let expected = tree
        .expected_child_target(&parent, timestamp)
        .expect("the tree enforces a rule");
    let transactions = vec![format!("at-{timestamp}").into_bytes()];
    let mut header = BlockHeader {
        version: tree.expected_child_version(&parent).unwrap_or(1),
        prev_hash: parent,
        merkle_root: Block::merkle_root(&transactions),
        timestamp,
        target: *expected.threshold(),
        nonce: 0,
    };
    remine(tree, &mut header, |digest, ratio| {
        rule.admits(expected, digest, ratio) == admissible
    });
    Block {
        header,
        transactions,
    }
}

/// An honest 8-block chain under `rule`, with uneven gaps so targets and
/// cost commitments move.
fn rule_chain(rule: &DifficultyRule) -> Vec<Block> {
    let mut tree = ForkTree::with_rule(Sha256dPow, *rule);
    let mut timestamp = 0;
    [900u64, 2_400, 300, 1_100, 1_000, 700, 1_500, 1_000]
        .iter()
        .map(|gap| {
            timestamp += gap;
            let block = mine_rule_child(&mut tree, rule, timestamp, true);
            tree.apply(block.clone()).expect("honest block");
            block
        })
        .collect()
}

/// The chain with one corruption of `class` at index `at` — every class
/// the rule can express (only a cost-aware rule has an admission bound).
fn corrupt(rule: &DifficultyRule, chain: &[Block], class: &str, at: usize) -> Option<Vec<Block>> {
    let mut tree = ForkTree::with_rule(Sha256dPow, *rule);
    for block in &chain[..at] {
        tree.apply(block.clone()).expect("honest prefix");
    }
    let mut blocks = chain.to_vec();
    let block = &mut blocks[at];
    match class {
        "linkage" => {
            block.header.prev_hash = [0xEE; 32];
            remine(&mut tree, &mut block.header, |_, _| true);
        }
        "merkle" => block.transactions[0] = b"forged".to_vec(),
        "nonce" => {
            let embedded = Target::from_threshold(block.header.target);
            while embedded.is_met_by(&tree.digest_of(block)) {
                block.header.nonce += 1;
            }
        }
        "target" => {
            block.header.target[31] ^= 1;
            remine(&mut tree, &mut block.header, |_, _| true);
        }
        "commitment" => {
            block.header.version = block.header.version.wrapping_add(1 << 16);
            remine(&mut tree, &mut block.header, |_, _| true);
        }
        "inadmissible" => {
            rule.cost_aware()?;
            *block = mine_rule_child(&mut tree, rule, block.header.timestamp, false);
        }
        _ => unreachable!("unknown corruption class {class}"),
    }
    Some(blocks)
}

/// The first `(height, reason)` at which replaying `segment` on top of
/// `prefix` through a rule-enforcing tree fails, or each block's digest
/// and cost ratio as the tree stored it; an orphan is the validators'
/// linkage failure.
fn tree_replay(
    rule: &DifficultyRule,
    prefix: &[Block],
    segment: &[Block],
) -> Result<Vec<(Digest256, f64)>, ChainError> {
    let mut tree = ForkTree::with_rule(Sha256dPow, *rule);
    for block in prefix {
        tree.apply(block.clone()).expect("honest prefix");
    }
    let mut stored = Vec::new();
    for (height, block) in segment.iter().enumerate() {
        let reason = match tree.apply(block.clone()) {
            Ok(outcome) => {
                stored.push((outcome.digest(), tree.cost_ratio_of(&outcome.digest())));
                continue;
            }
            Err(ForkError::UnknownParent { .. }) => InvalidReason::Linkage,
            Err(ForkError::InvalidBlock { reason }) => reason,
        };
        return Err(ChainError::InvalidBlock { height, reason });
    }
    Ok(stored)
}

/// Asserts that the rule-aware validators agree with each other at 1–4
/// threads and with the tree replay on `blocks[split..]`, anchored at
/// `blocks[split - 1]` (or genesis for `split` 0); returns their verdict.
fn assert_rule_validators_agree(
    rule: &DifficultyRule,
    blocks: &[Block],
    split: usize,
) -> Result<Vec<(Digest256, f64)>, ChainError> {
    let mut tree = ForkTree::with_rule(Sha256dPow, *rule);
    for block in &blocks[..split] {
        tree.apply(block.clone()).expect("honest prefix");
    }
    let (anchor, state) = match split.checked_sub(1).map(|i| &blocks[i]) {
        None => (GENESIS_HASH, None),
        Some(block) => {
            let digest = tree.digest_of(block);
            let header = &block.header;
            let state = (
                Target::from_threshold(header.target),
                header.timestamp,
                cost_commitment_of(header.version),
                tree.cost_ratio_of(&digest),
            );
            (digest, Some(state))
        }
    };
    let ctx = RuleContext {
        rule,
        anchor: state,
    };
    let segment = &blocks[split..];
    let sequential = validate_segment_with_rule(&Sha256dPow, segment, anchor, Some(ctx));
    for threads in 1..=4 {
        assert_eq!(
            validate_segment_parallel_with_rule(&Sha256dPow, segment, threads, anchor, Some(ctx)),
            sequential,
            "{rule:?}: {threads} threads from split {split}"
        );
    }
    assert_eq!(
        sequential,
        tree_replay(rule, &blocks[..split], segment),
        "{rule:?}: validators vs tree replay from split {split}"
    );
    sequential
}

#[test]
fn rule_aware_validators_agree_with_the_tree_replay_for_every_rule() {
    use InvalidReason::{Linkage, Merkle, Pow, Target as Policy};
    for rule in rules() {
        let chain = rule_chain(&rule);
        // A changed version word is dead weight outside the cost-aware
        // rule: the block stays valid, and its successor no longer links.
        let commitment = match rule.cost_aware() {
            Some(_) => (2, Policy),
            None => (3, Linkage),
        };
        for split in [0, 3] {
            assert_eq!(
                assert_rule_validators_agree(&rule, &chain, split),
                Ok(evaluated(&chain[split..]))
            );
            for (class, (height, reason)) in [
                ("linkage", (2, Linkage)),
                ("merkle", (2, Merkle)),
                ("nonce", (2, Pow)),
                ("target", (2, Policy)),
                ("commitment", commitment),
                ("inadmissible", (2, Pow)),
            ] {
                if let Some(blocks) = corrupt(&rule, &chain, class, split + 2) {
                    assert_eq!(
                        assert_rule_validators_agree(&rule, &blocks, split),
                        Err(ChainError::InvalidBlock { height, reason }),
                        "{rule:?}: {class} from split {split}"
                    );
                }
            }
        }
    }
}

#[test]
fn cost_aware_genesis_child_is_accepted_at_a_wide_initial_target() {
    // Response 0: every cost factor is exactly 1.0, so the genesis child's
    // expected target is the initial target itself — which `scale(1.0)`
    // would round up to 0x4000…00.
    let time = EmaRetarget::new(wide_target(), 1_000.0, 0.5);
    let rule = DifficultyRule::CostAware(CostAwareRetarget::new(time, 0.5, 0.0));
    let mut tree = ForkTree::with_rule(Sha256dPow, rule);
    let child = mine_rule_child(&mut tree, &rule, 1_000, true);
    assert_eq!(child.header.target, *wide_target().threshold());
    let (digest, ratio) = tree.digest_and_cost_of_header(&child.header);

    let mut headers = HeaderChain::with_rule(rule);
    assert!(headers
        .accept_observed(child.header.clone(), digest, ratio)
        .is_ok());
    let segment = [child.clone()];
    let ctx = Some(RuleContext {
        rule: &rule,
        anchor: None,
    });
    assert_eq!(
        validate_segment_with_rule(&Sha256dPow, &segment, GENESIS_HASH, ctx),
        Ok(vec![(digest, ratio)])
    );
    assert_eq!(
        validate_segment_parallel_with_rule(&Sha256dPow, &segment, 1, GENESIS_HASH, ctx),
        Ok(vec![(digest, ratio)])
    );
    assert!(rule.segment_targets_valid(None, &segment));
    assert!(tree.apply(child).is_ok());
}
