use super::*;
use crate::strategy::{
    CostSteering, FakeProof, PoisonedSync, ProofWithholding, SegmentSpam, SelfishMining,
};
use crate::strategy::{Honest, Strategy};
use hashcore::Target;
use hashcore_baselines::{PowFunction, Sha256dPow};
use hashcore_chain::{Block, BlockHeader, DifficultyRule, GENESIS_HASH};
use hashcore_store::ChainStore;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

fn node(id: usize) -> Node<Sha256dPow> {
    Node::new(id, Sha256dPow, Target::from_leading_zero_bits(2), 2)
}

/// An adaptive-difficulty node: EMA rule over the trivial initial
/// target, optionally with the timestamp validity rule.
fn adaptive_node(
    id: usize,
    strategy: Box<dyn Strategy>,
    timestamp_rule: Option<TimestampRule>,
) -> Node<Sha256dPow> {
    let initial = Target::from_leading_zero_bits(2);
    let rule = DifficultyRule::Ema(hashcore_chain::EmaRetarget {
        initial,
        target_block_time: 1_000.0,
        gain: 0.5,
    });
    Node::new(id, Sha256dPow, initial, 2)
        .with_difficulty(rule, timestamp_rule)
        .with_strategy(strategy)
}

/// Mines until `node` finds and announces a block, returning it.
fn mine_one(node: &mut Node<Sha256dPow>, now_ms: u64) -> Block {
    for _ in 0..100_000 {
        let out = node.mine_slice(now_ms, 1_000);
        if let Some(Outgoing::Broadcast(Message::Block(b))) = out.first().cloned() {
            return b;
        }
    }
    panic!("no block found at trivial difficulty");
}

/// The first nonce from `start` on at which a per-nonce `evaluate` scan
/// of `template` meets the target the template embeds with a cost ratio
/// `accepts` takes.
fn per_nonce_hit(template: &BlockHeader, start: u64, accepts: impl Fn(f64) -> bool) -> u64 {
    let target = Target::from_threshold(template.target);
    let mut scratch = Default::default();
    (0..10_000u64)
        .map(|k| start.wrapping_add(k))
        .find(|&nonce| {
            let header = BlockHeader {
                nonce,
                ..template.clone()
            };
            let (digest, cost) = Sha256dPow.evaluate(&header.bytes(), &mut scratch);
            target.is_met_by(&digest) && accepts(cost.ratio(Sha256dPow.nominal_cost()))
        })
        .expect("a hit within 10,000 nonces")
}

/// Mines in slices of `attempts` nonces at `now_ms` until a slice sends
/// something; returns that slice's index and its sends.
fn mine_in_slices(node: &mut Node<Sha256dPow>, now_ms: u64, attempts: u64) -> (u64, Vec<Outgoing>) {
    for slice in 0..10_000 {
        let out = node.mine_slice(now_ms, attempts);
        if !out.is_empty() {
            return (slice, out);
        }
    }
    panic!("no block within 10,000 slices");
}

/// The block one big slice of `node` mines at `now_ms`, and its sends.
fn mine_in_one_slice(node: &mut Node<Sha256dPow>, now_ms: u64) -> (Block, Vec<Outgoing>) {
    let out = node.mine_slice(now_ms, 10_000);
    let Some(Outgoing::Broadcast(Message::Block(block))) = out.last().cloned() else {
        panic!("one big slice mines a block");
    };
    (block, out)
}

/// Slices of every size find the block one big slice finds, in the slice
/// that holds its nonce: the first hit of a per-nonce scan. The miner
/// hashes whole lane batches past a slice and answers the next slices from
/// them, so a miner that reported a remembered hit a slice early, or
/// skipped one, would fail here.
#[test]
fn mining_resumes_across_slices() {
    let miner = || Node::new(0, Sha256dPow, Target::from_leading_zero_bits(5), 2);
    let mut bulk_node = miner();
    let (block, bulk) = mine_in_one_slice(&mut bulk_node, 5);
    let hit = block.header.nonce;
    assert_eq!(hit, per_nonce_hit(&block.header, 0, |_| true));
    assert!(hit >= 8, "the hit lies past the first slice of every size");
    for attempts in [1, 3, 4, 7] {
        let mut sliced = miner();
        let (slice, out) = mine_in_slices(&mut sliced, 5, attempts);
        assert_eq!(slice, hit / attempts, "{attempts}-nonce slices");
        assert_eq!(out, bulk);
        assert_eq!(sliced.tip(), bulk_node.tip());
        assert_eq!(sliced.stats().blocks_mined, 1);
    }
}

/// A new template forgets the nonces hashed past the last slice of the
/// old one, misses and hit alike: its first hit, inside the batch the old
/// template left remembered, is found where a per-nonce scan finds it.
#[test]
fn a_template_reset_forgets_the_remembered_batch() {
    let parent = mine_one(&mut node(1), 0);
    // At these times the old template first hits at nonce 4 (past the
    // batch) and at nonce 3 (inside it).
    for (now, remembered_hit) in [(0, false), (3, true)] {
        let mut sliced = node(0);
        // One 1-nonce slice hashes nonces 0 to 3 of the genesis template.
        assert!(sliced.mine_slice(now, 1).is_empty(), "nonce 0 misses");
        let miner = &sliced.miner;
        assert_eq!((miner.ahead, miner.ahead_hit), (3, remembered_hit));
        // The tip moves, so the next slice mines a new template.
        sliced.handle(now + 1, 1, Message::Block(parent.clone()));
        let mut bulk_node = node(0);
        bulk_node.handle(now + 1, 1, Message::Block(parent.clone()));
        let (block, bulk) = mine_in_one_slice(&mut bulk_node, now + 2);
        let hit = block.header.nonce;
        assert_eq!(hit, per_nonce_hit(&block.header, 0, |_| true));
        assert!(hit < 3, "the new template hits inside the old batch");
        assert_eq!(mine_in_slices(&mut sliced, now + 2, 1), (hit, bulk));
    }
}

/// A hit the strategy rejects resumes the scan at the next nonce, inside
/// the lane batch that found it: slices of every size discard the same
/// seeds and mine the same block as one big slice, the first hit a
/// per-nonce scan accepts.
#[test]
fn a_rejected_hit_resumes_the_scan_at_the_next_nonce() {
    let min_cost_ratio = 2.5;
    let steering = || node(0).with_strategy(Box::new(CostSteering { min_cost_ratio }));
    let mut bulk_node = steering();
    let (block, bulk) = mine_in_one_slice(&mut bulk_node, 8);
    let hit = block.header.nonce;
    assert_eq!(
        hit,
        per_nonce_hit(&block.header, 0, |ratio| ratio >= min_cost_ratio)
    );
    // The nonce before the block's is a rejected hit of the same batch.
    assert_eq!(per_nonce_hit(&block.header, hit - 1, |_| true), hit - 1);
    assert_ne!(hit % 4, 0);
    let discarded = bulk_node.stats().seeds_discarded;
    assert!(discarded >= 2, "{discarded} hits rejected before the block");
    for attempts in [1, 3, 4, 7] {
        let mut sliced = steering();
        let (slice, out) = mine_in_slices(&mut sliced, 8, attempts);
        assert_eq!(slice, hit / attempts, "{attempts}-nonce slices");
        assert_eq!(out, bulk);
        assert_eq!(sliced.stats().seeds_discarded, discarded);
    }
}

/// Remembered batches at the top of the nonce space, one that wraps past
/// `u64::MAX` and one that ends there, answer the slices after the wrap.
#[test]
fn a_remembered_batch_wraps_past_the_top_of_the_nonce_space() {
    for start in [u64::MAX - 1, u64::MAX - 3] {
        let from_the_top = || {
            let mut node = node(0);
            node.refresh_template(5);
            node.miner.next_nonce = start;
            node
        };
        let mut bulk_node = from_the_top();
        let (block, bulk) = mine_in_one_slice(&mut bulk_node, 5);
        let hit = block.header.nonce;
        assert_eq!(hit, per_nonce_hit(&block.header, start, |_| true));
        assert!(hit < 2, "the hit lies just past the wrap");
        for attempts in [1, 3] {
            let mut sliced = from_the_top();
            let (slice, out) = mine_in_slices(&mut sliced, 5, attempts);
            assert_eq!(
                slice,
                hit.wrapping_sub(start) / attempts,
                "{attempts}-nonce slices from {start}"
            );
            assert_eq!(out, bulk);
        }
    }
}

/// Double SHA-256 that counts its evaluations through a scratch already
/// used once. A node's miner and fork tree keep their scratches; a one-off
/// `pow_hash`, such as a debug build's check of a caller's digest, starts
/// from a fresh one and is not counted.
#[derive(Debug, Default)]
struct CountingPow(AtomicU64);

impl hashcore_baselines::PowFunction for CountingPow {
    /// Whether the scratch has been used.
    type Scratch = bool;

    fn name(&self) -> &'static str {
        "counting"
    }

    fn dominant_resource(&self) -> hashcore_baselines::ResourceClass {
        hashcore_baselines::ResourceClass::FixedFunction
    }

    fn evaluate(&self, input: &[u8], used: &mut bool) -> (Digest256, hashcore::VerifyCost) {
        if std::mem::replace(used, true) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        (
            hashcore_crypto::sha256d(input),
            hashcore::VerifyCost::NOMINAL,
        )
    }
}

#[test]
fn a_mined_block_is_hashed_once_after_its_scan() {
    let target = Target::from_leading_zero_bits(2);
    let mut node = Node::new(0, CountingPow::default(), target, 1);
    let evaluations = |node: &Node<CountingPow>| node.tree().pow().0.load(Ordering::Relaxed);
    // The first block puts the miner's scratch and the tree's to use.
    for round in 0..4 {
        let before = evaluations(&node);
        let out = node.mine_slice(round, 1_000);
        let Some(Outgoing::Broadcast(Message::Block(block))) = out.first() else {
            panic!("a 2-bit target is met within 1,000 nonces");
        };
        // The scan evaluated nonces 0 to the hit, and admission one more.
        if round > 0 {
            assert_eq!(evaluations(&node) - before, block.header.nonce + 2);
        }
    }
    assert_eq!(node.stats().blocks_mined, 4);
    assert_eq!(node.tip_height(), 4);
}

#[test]
fn a_synced_block_is_evaluated_once() {
    const BLOCKS: u64 = 5;
    let mut miner = node(0);
    let mut fresh = Node::new(
        1,
        CountingPow::default(),
        Target::from_leading_zero_bits(2),
        1,
    );
    let evaluations = |node: &Node<CountingPow>| node.tree().pow().0.load(Ordering::Relaxed);
    let mut tip_block = None;
    for _ in 0..BLOCKS {
        tip_block = Some(mine_one(&mut miner, 0));
    }
    // The orphan's own evaluation puts the fresh node's tree scratch to use.
    let request = fresh.handle(0, 0, Message::Block(tip_block.expect("mined")));
    let Some(Outgoing::To(0, get @ Message::GetSegment { .. })) = request.first().cloned() else {
        panic!("unknown parent must request a segment, got {request:?}");
    };
    let response = miner.handle(0, 1, get);
    let Some(Outgoing::To(1, segment @ Message::Segment(_))) = response.first().cloned() else {
        panic!("the miner serves the missing segment, got {response:?}");
    };
    let before = evaluations(&fresh);
    fresh.handle(0, 0, segment);
    assert_eq!(fresh.tip(), miner.tip());
    assert_eq!(fresh.stats().segment_blocks, BLOCKS);
    // N + 1 evaluations: the lookup of the segment's last block, then the
    // verifier's N, the first of which runs through the verifier's fresh
    // scratch and is not counted. The blocks are accepted with the
    // verifier's digests, not hashed a second time.
    assert_eq!(evaluations(&fresh) - before, BLOCKS);
}

#[test]
fn gossiped_blocks_are_stored_and_relayed_once() {
    let mut miner = node(0);
    let mut listener = node(1);
    let out = miner.mine_slice(0, 10_000);
    let Some(Outgoing::Broadcast(Message::Block(block))) = out.first().cloned() else {
        panic!("mining broadcasts the block");
    };
    let relays = listener.handle(0, 0, Message::Block(block.clone()));
    assert_eq!(
        relays,
        vec![Outgoing::Gossip(Message::Block(block.clone()))]
    );
    assert_eq!(listener.tip(), miner.tip());
    // Duplicate delivery: no relay storm.
    assert!(listener.handle(0, 0, Message::Block(block)).is_empty());
    assert_eq!(listener.stats().blocks_accepted, 1);
}

#[test]
fn unknown_parent_triggers_segment_sync() {
    let mut miner = node(0);
    let mut fresh = node(1);
    // Mine three blocks; only announce the last to the fresh node.
    let mut announced = None;
    for _ in 0..3 {
        announced = Some(mine_one(&mut miner, 0));
    }
    let tip_block = announced.expect("mined three blocks");
    let request = fresh.handle(0, 0, Message::Block(tip_block));
    let Some(Outgoing::To(0, get @ Message::GetSegment { .. })) = request.first().cloned() else {
        panic!("unknown parent must request a segment, got {request:?}");
    };
    let response = miner.handle(0, 1, get);
    let Some(Outgoing::To(1, segment @ Message::Segment(_))) = response.first().cloned() else {
        panic!("the miner serves the missing segment, got {response:?}");
    };
    fresh.handle(0, 0, segment);
    assert_eq!(fresh.tip(), miner.tip());
    assert_eq!(fresh.stats().segments_synced, 1);
    assert_eq!(fresh.stats().segment_blocks, 3);
}

#[test]
fn selfish_miner_withholds_then_releases_on_competition() {
    let mut selfish = node(0).with_strategy(Box::new(SelfishMining));
    let mut honest = node(1);
    // The selfish miner builds a private lead of two: nothing is
    // broadcast, and it keeps mining on its own withheld tip.
    while selfish.withheld_len() < 2 {
        let out = selfish.mine_slice(0, 1_000);
        assert!(out.is_empty(), "withheld blocks must not be announced");
    }
    assert_eq!(selfish.stats().blocks_withheld, 2);
    assert_eq!(selfish.tip_height(), 2, "mines on its private chain");

    // An honest block arrives at height 1: the lead drops to 1, so the
    // classic rule releases the whole private chain and wins outright
    // (its two blocks out-work the public one).
    let honest_block = mine_one(&mut honest, 7);
    let out = selfish.handle(0, 1, Message::Block(honest_block));
    let released = out
        .iter()
        .filter(|o| matches!(o, Outgoing::Broadcast(Message::Block(_))))
        .count();
    assert_eq!(released, 2, "lead 1 publishes the private chain: {out:?}");
    assert_eq!(selfish.withheld_len(), 0);
    assert_eq!(selfish.stats().blocks_released, 2);
    // The selfish branch stays the local tip (more cumulative work).
    assert_eq!(selfish.tip_height(), 2);
}

#[test]
fn selfish_miner_abandons_a_losing_private_chain() {
    let mut selfish = node(0).with_strategy(Box::new(SelfishMining));
    let mut honest = node(1);
    // One withheld block...
    while selfish.withheld_len() < 1 {
        selfish.mine_slice(0, 1_000);
    }
    // ...but the public chain reaches height 2: the fork tree switches
    // to the public branch and the private block is abandoned.
    let b1 = mine_one(&mut honest, 3);
    let b2 = mine_one(&mut honest, 9);
    selfish.handle(0, 1, Message::Block(b1));
    selfish.handle(0, 1, Message::Block(b2));
    // Depending on the height-1 digest tie-break the private block was
    // either released into the (lost) race or abandoned outright —
    // both end with the private queue empty and the public chain
    // adopted.
    assert_eq!(selfish.withheld_len(), 0);
    assert_eq!(
        selfish.stats().blocks_released + selfish.stats().withheld_abandoned,
        1
    );
    assert_eq!(selfish.tip(), honest.tip(), "adopted the public chain");
}

#[test]
fn spam_strategy_mines_nothing_and_gossips_corrupt_segments() {
    let mut spammer = node(0).with_strategy(Box::new(SegmentSpam::default()));
    let mut honest = node(1);
    // Give the spammer a real block to corrupt.
    let block = mine_one(&mut honest, 0);
    spammer.handle(0, 1, Message::Block(block));
    assert_eq!(spammer.stats().blocks_mined, 0);
    let out = spammer.mine_slice(100, 1_000);
    assert_eq!(out.len(), 1, "one spam gossip per slice");
    let Some(Outgoing::Gossip(Message::Segment(segment))) = out.first().cloned() else {
        panic!("spam must be an unsolicited segment, got {out:?}");
    };
    assert!(!segment.is_empty());
    assert!(spammer.stats().spam_segments_sent >= 1);
}

#[test]
fn poisoned_sync_baits_with_fake_orphans_and_serves_corruption() {
    let mut poisoner = node(0).with_strategy(Box::new(PoisonedSync::default()));
    let mut victim = node(1).with_limits(3, Some(2_000), 3, None);
    // Both sides share two real blocks (gossip in the simulation), so
    // the poisoner has a basis to corrupt and the victim knows the
    // anchor the corrupted segment will claim.
    let mut honest = node(2);
    for now in [0u64, 5] {
        let block = mine_one(&mut honest, now);
        poisoner.handle(0, 2, Message::Block(block.clone()));
        victim.handle(0, 2, Message::Block(block));
    }
    // Bait block: valid PoW over a fabricated parent.
    let bait = loop {
        let out = poisoner.mine_slice(0, 10_000);
        if let Some(Outgoing::Broadcast(Message::Block(b))) = out.first().cloned() {
            break b;
        }
    };
    assert_eq!(poisoner.stats().fake_orphans, 1);
    // The victim sees an orphan and requests the segment.
    let request = victim.handle(0, 0, Message::Block(bait));
    let Some(Outgoing::To(0, get @ Message::GetSegment { .. })) = request.first().cloned() else {
        panic!("bait must trigger a segment request, got {request:?}");
    };
    assert!(
        matches!(request.get(1), Some(Outgoing::Timer { .. })),
        "timeouts enabled: the request must arm a timer"
    );
    // The poisoner answers with a corrupted segment...
    let response = poisoner.handle(0, 1, get);
    let Some(Outgoing::To(1, segment @ Message::Segment(_))) = response.first().cloned() else {
        panic!("poisoner must serve a corrupt segment, got {response:?}");
    };
    // ...which the victim's verifier rejects without storing anything.
    let before = victim.tree().len();
    let out = victim.handle(0, 0, segment);
    assert!(out.is_empty());
    assert_eq!(victim.tree().len(), before);
    assert_eq!(victim.stats().segments_synced, 0);
    assert_eq!(victim.stats().rejections.invalid_segment, 1);
    // No spam digest ever lands in the victim's tree.
    for digest in &poisoner.stats().spam_digests {
        assert!(!victim.tree().contains(digest));
    }
}

#[test]
fn repeated_invalid_traffic_gets_a_peer_banned() {
    let mut victim = node(1).with_limits(3, None, 2, None);
    let mut honest = node(0);
    let block = mine_one(&mut honest, 0);
    // Two forged variants: penalties 1 and 2 → ban at threshold 2.
    for tag in [b"forge-a".to_vec(), b"forge-b".to_vec()] {
        let mut forged = block.clone();
        forged.transactions.push(tag);
        assert!(victim.handle(0, 2, Message::Block(forged)).is_empty());
    }
    assert_eq!(victim.stats().rejections.merkle, 2);
    assert_eq!(victim.stats().peers_banned, 1);
    assert!(victim.banned_peers().contains(&2));
    // Even a valid block from the banned peer is now ignored...
    assert!(victim
        .handle(0, 2, Message::Block(block.clone()))
        .is_empty());
    assert_eq!(victim.stats().rejections.from_banned, 1);
    assert_eq!(victim.tree().len(), 0);
    // ...while the same block from a clean peer is accepted.
    assert!(!victim.handle(0, 0, Message::Block(block)).is_empty());
    assert_eq!(victim.tree().len(), 1);
}

#[test]
fn wrong_target_blocks_are_rejected_by_policy() {
    let mut victim = node(1).with_limits(3, None, 0, None);
    let mut cheap = Node::<Sha256dPow>::new(0, Sha256dPow, Target::from_leading_zero_bits(0), 2);
    let block = mine_one(&mut cheap, 0);
    // Valid PoW at its own (trivial) target — but not the consensus one.
    assert!(victim.handle(0, 0, Message::Block(block)).is_empty());
    assert_eq!(victim.stats().rejections.target_policy, 1);
    assert_eq!(victim.tree().len(), 0);
}

#[test]
fn timeout_reissues_the_request_to_another_peer_then_abandons() {
    let mut fresh = node(1).with_limits(4, Some(1_000), 0, None);
    let mut miner = node(0);
    for _ in 0..2 {
        mine_one(&mut miner, 0);
    }
    let tip_block = miner.tree().tip_block().cloned().expect("mined");
    let out = fresh.handle(0, 0, Message::Block(tip_block));
    assert!(matches!(out.first(), Some(Outgoing::To(0, _))));
    let Some(Outgoing::Timer { token, .. }) = out.get(1).cloned() else {
        panic!("expected a timer, got {out:?}");
    };
    // Fire the timer: peer 0 stalled; the retry must go elsewhere.
    let retry = fresh.on_timer(token);
    let Some(Outgoing::To(peer, Message::GetSegment { .. })) = retry.first() else {
        panic!("expected a re-request, got {retry:?}");
    };
    assert_ne!(*peer, 0, "the stalled peer must be excluded");
    assert_eq!(fresh.stats().stalls_detected, 1);
    assert_eq!(fresh.stats().requests_retried, 1);
    // Exhaust the retries: the request is abandoned, never panics.
    let mut fired = 0;
    loop {
        let out = fresh.on_timer(token);
        fired += 1;
        if out.is_empty() {
            break;
        }
        assert!(fired < 10, "retry budget must be finite");
    }
    assert_eq!(fresh.stats().requests_abandoned, 1);
    assert!(fresh.on_timer(token).is_empty(), "abandoned token is inert");
}

#[test]
fn adaptive_mining_embeds_the_branch_expected_target() {
    use crate::strategy::Honest;
    let mut miner = adaptive_node(0, Box::new(Honest), None);
    let mut listener = adaptive_node(1, Box::new(Honest), None);
    let rule = *miner.tree().rule().expect("adaptive tree has a rule");
    let mut parent: Option<Block> = None;
    // Widely spaced slices keep every expected target cheap to mine.
    for now in [500u64, 4_500, 8_500] {
        let block = mine_one(&mut miner, now);
        let expected = match &parent {
            None => rule.genesis_target(),
            Some(prev) => rule.child_target(
                Target::from_threshold(prev.header.target),
                prev.header.timestamp,
                block.header.timestamp,
            ),
        };
        assert_eq!(
            block.header.target,
            *expected.threshold(),
            "mined blocks must embed the branch's expected target"
        );
        // A fellow adaptive node accepts the rule-consistent block.
        assert!(!listener
            .handle(now, 0, Message::Block(block.clone()))
            .is_empty());
        parent = Some(block);
    }
    assert_eq!(listener.tip(), miner.tip());
}

#[test]
fn future_skewed_blocks_are_rejected_only_under_the_timestamp_rule() {
    use crate::strategy::TimestampSkew;
    let drift = TimestampRule {
        max_future_drift_ms: 5_000,
        mtp_window: 11,
    };
    let mut skewer = adaptive_node(0, Box::new(TimestampSkew { skew_ms: 20_000 }), None);
    let mut lenient = adaptive_node(1, Box::new(Honest), None);
    let mut enforcing = adaptive_node(2, Box::new(Honest), Some(drift));
    let block = mine_one(&mut skewer, 1_000);
    assert!(
        block.header.timestamp >= 21_000,
        "the skewer reports a future time: {}",
        block.header.timestamp
    );
    // Without the rule the skewed header is accepted — the rule-derived
    // easier target makes it fully protocol-consistent.
    assert!(!lenient
        .handle(1_100, 0, Message::Block(block.clone()))
        .is_empty());
    assert_eq!(lenient.tip(), skewer.tip());
    // With the rule it is rejected at the edge: nothing stored, the
    // sender penalised under the timestamp class.
    assert!(enforcing.handle(1_100, 0, Message::Block(block)).is_empty());
    assert_eq!(enforcing.tree().len(), 0);
    assert_eq!(enforcing.stats().rejections.timestamp, 1);
}

#[test]
fn backdated_blocks_fail_the_median_time_past_floor() {
    let rule = TimestampRule {
        max_future_drift_ms: 5_000,
        mtp_window: 3,
    };
    let mut miner = node(0);
    let mut enforcing = node(1).with_difficulty(
        DifficultyRule::Fixed(Target::from_leading_zero_bits(2)),
        Some(rule),
    );
    // An honest history with strictly rising times: accepted as usual.
    for now in [2_000u64, 4_000, 6_000] {
        let block = mine_one(&mut miner, now);
        assert!(!enforcing
            .handle(now + 100, 0, Message::Block(block))
            .is_empty());
    }
    assert_eq!(enforcing.tip_height(), 3);
    // A backdated child of the tip: below the median of the parent
    // window [2000, 4000, 6000] → 4000, so the floor rejects it.
    let backdated = mine_block_at(
        miner.tip(),
        "backdated",
        Target::from_leading_zero_bits(2),
        3_999,
    );
    assert!(enforcing
        .handle(7_000, 0, Message::Block(backdated))
        .is_empty());
    assert_eq!(enforcing.stats().rejections.timestamp, 1);
    assert_eq!(enforcing.tip_height(), 3);
}

/// Mines a block over `prev` with explicit timestamp and target (test
/// helper for hand-crafted headers).
fn mine_block_at(prev: Digest256, tag: &str, target: Target, timestamp: u64) -> Block {
    use hashcore_baselines::PowFunction;
    let txs = vec![tag.as_bytes().to_vec()];
    let mut header = BlockHeader {
        version: 1,
        prev_hash: prev,
        merkle_root: Block::merkle_root(&txs),
        timestamp,
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

#[test]
fn implausibly_easy_orphans_buy_no_sync_requests_under_an_adaptive_rule() {
    let mut honest = adaptive_node(0, Box::new(Honest), None);
    let mut victim = adaptive_node(1, Box::new(Honest), None);
    let seed_block = mine_one(&mut honest, 500);
    assert!(!victim.handle(600, 0, Message::Block(seed_block)).is_empty());
    // A valid-PoW orphan at a near-free target: no segment request, a
    // target-policy penalty instead — the spam costs its sender, not
    // the victim's sync machinery.
    let spam = mine_block_at([0xFA; 32], "free-spam", Target::MAX, 700);
    let out = victim.handle(800, 2, Message::Block(spam));
    assert!(out.is_empty(), "spam must not trigger sync: {out:?}");
    assert_eq!(victim.stats().rejections.target_policy, 1);
    // An orphan inside the easing floor (the chain's own initial
    // target) still triggers catch-up sync as before.
    let plausible = mine_block_at(
        [0xAB; 32],
        "plausible",
        Target::from_leading_zero_bits(2),
        900,
    );
    let out = victim.handle(1_000, 0, Message::Block(plausible));
    assert!(
        matches!(
            out.first(),
            Some(Outgoing::To(0, Message::GetSegment { .. }))
        ),
        "a plausible orphan must still be synced: {out:?}"
    );
}

#[test]
fn honest_templates_clamp_above_the_parent_windows_median_time_past() {
    let rule = TimestampRule {
        max_future_drift_ms: 5_000,
        mtp_window: 3,
    };
    use hashcore_baselines::PowFunction;
    let fixed = DifficultyRule::Fixed(Target::from_leading_zero_bits(2));
    let mut miner = node(0).with_difficulty(fixed, Some(rule));
    let mut peer = node(1).with_difficulty(fixed, Some(rule));
    // A chain whose reported times sit legitimately in the receivers'
    // future (inside the drift bound at acceptance time).
    let mut prev = GENESIS_HASH;
    for (i, ts) in [10_000u64, 10_001, 10_002].iter().enumerate() {
        let block = mine_block_at(
            prev,
            &format!("future-{i}"),
            Target::from_leading_zero_bits(2),
            *ts,
        );
        prev = Sha256dPow.pow_hash(&block.header.bytes());
        assert!(!miner
            .handle(6_000, 2, Message::Block(block.clone()))
            .is_empty());
        assert!(!peer.handle(6_000, 2, Message::Block(block)).is_empty());
    }
    // Mining at a real clock behind that window: the template must be
    // clamped to median-time-past + 1, not dated plainly "now" — else
    // every honest peer would reject (and penalise) the honest block.
    let mined = mine_one(&mut miner, 7_000);
    assert_eq!(
        mined.header.timestamp, 10_002,
        "template clamps to the window's mtp + 1"
    );
    assert!(
        !peer.handle(7_100, 0, Message::Block(mined)).is_empty(),
        "a fellow enforcing peer accepts the clamped block"
    );
    assert_eq!(peer.stats().rejections.timestamp, 0);
}

#[test]
fn difficulty_hopper_defects_until_waiting_eases_the_target() {
    use crate::strategy::DifficultyHopping;
    let mut honest = adaptive_node(0, Box::new(Honest), None);
    // Two quick honest blocks re-tighten the branch: the expected
    // next-block target goes well past the hopper's threshold.
    let b1 = mine_one(&mut honest, 1_000);
    let b2 = mine_one(&mut honest, 1_100);
    let mut hopper = adaptive_node(
        1,
        Box::new(DifficultyHopping {
            max_expected_attempts: 4.0,
        }),
        None,
    );
    for block in [b1, b2] {
        hopper.handle(1_200, 0, Message::Block(block));
    }
    assert_eq!(hopper.tip_height(), 2);
    // Right after the fast block the branch is expensive: defect.
    assert!(hopper.mine_slice(1_200, 10_000).is_empty());
    assert_eq!(hopper.stats().blocks_mined, 0);
    // Much later the reported gap has grown, the expected target eased
    // back under the threshold, and the hopper rejoins and mines.
    let mut mined = false;
    for now in [60_000u64, 120_000, 180_000] {
        if !hopper.mine_slice(now, 100_000).is_empty() {
            mined = true;
            break;
        }
    }
    assert!(mined, "an eased branch must pull the hopper back in");
    assert_eq!(hopper.stats().blocks_mined, 1);
}

#[test]
fn crash_restart_recovers_the_exact_tree_and_keeps_persisting() {
    let dir = hashcore_store::TempDir::new("node-crash").unwrap();
    let store = ChainStore::create(dir.path()).unwrap();
    let mut node = node(0).with_persistence(store, 3);
    // Mine locally and accept a peer block: both storage paths persist.
    for now in [100, 200, 300, 400] {
        mine_one(&mut node, now);
    }
    // A peer's genesis child lands as a side branch — the gossip
    // acceptance path must persist it too, or recovery forgets the fork.
    let mut peer = super::tests::node(1);
    let peer_block = mine_one(&mut peer, 500);
    node.handle(550, 1, Message::Block(peer_block));
    assert_eq!(node.tip_height(), 4);
    assert_eq!(node.stats().blocks_accepted, 1);

    let fingerprint = node.tree().fingerprint();
    let tip = node.tip();
    let (report, out) = node.crash_restart().unwrap();
    assert!(report.clean(), "nothing was damaged: {report:?}");
    assert_eq!(node.tree().fingerprint(), fingerprint);
    assert_eq!(node.tip(), tip);
    assert_eq!(node.stats().crash_restarts, 1);
    assert_eq!(node.stats().recoveries_identical, 1);
    // The two appends after the snapshot replay, counted as a replay one
    // block at a time counts them.
    let (_reopened, recovered) = ChainStore::open(dir.path()).unwrap();
    let base = recovered
        .snapshot
        .as_ref()
        .expect("a snapshot every 3 appends");
    let mut reference = hashcore_chain::ForkTree::from_snapshot(Sha256dPow, base).unwrap();
    let replayed = recovered
        .replay
        .iter()
        .filter(|block| reference.apply(Block::clone(block)).is_ok())
        .count();
    assert_eq!(replayed, 2);
    assert_eq!(node.stats().blocks_replayed, replayed as u64);
    assert_eq!(reference.fingerprint(), fingerprint);
    assert!(
        matches!(&out[..], [Outgoing::Broadcast(Message::Block(b))]
            if b == node.tree().tip_block().unwrap()),
        "the restarted node announces its recovered tip"
    );

    // The reopened store keeps recording: mine more, crash again.
    mine_one(&mut node, 600);
    let fingerprint = node.tree().fingerprint();
    node.crash_restart().unwrap();
    assert_eq!(node.tree().fingerprint(), fingerprint);
    assert_eq!(node.stats().recoveries_identical, 2);
}

#[test]
fn a_torn_tail_loses_exactly_the_last_appends() {
    let dir = hashcore_store::TempDir::new("node-torn").unwrap();
    let store = ChainStore::create(dir.path()).unwrap();
    let mut node = node(0).with_persistence(store, 0);
    for now in [100, 200, 300] {
        mine_one(&mut node, now);
    }
    let full = node.tree().fingerprint();
    hashcore_store::inject_torn_tail(node.store_dir().unwrap(), 5).unwrap();
    let (report, _) = node.crash_restart().unwrap();
    assert!(report.lost_bytes > 0);
    assert_ne!(node.tree().fingerprint(), full);
    assert_eq!(node.tip_height(), 2, "exactly the torn record is lost");
    assert_eq!(node.stats().recoveries_identical, 0);
    assert_eq!(node.stats().recovery_lost_bytes, report.lost_bytes);
}

#[test]
fn crash_restart_without_a_store_is_an_error() {
    let mut bare = node(0);
    let err = bare.crash_restart().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
}

/// The snapshot-on-prune policy: pruning commits a snapshot of the
/// pruned tree immediately, so recovery never resurrects an evicted
/// branch and the restored tree stays fingerprint-identical.
#[test]
fn a_pruned_node_still_recovers_its_exact_tree() {
    let dir = hashcore_store::TempDir::new("node-prune").unwrap();
    let store = ChainStore::create(dir.path()).unwrap();
    let mut node = node(0)
        .with_limits(2, None, 0, Some(2))
        .with_persistence(store, 0);
    for now in 1..=6u64 {
        mine_one(&mut node, now * 100);
    }
    assert!(node.stats().blocks_pruned > 0, "the window forced prunes");
    let fingerprint = node.tree().fingerprint();
    let root = node.tree().root();
    node.crash_restart().unwrap();
    assert_eq!(node.tree().fingerprint(), fingerprint);
    assert_eq!(node.tree().root(), root, "the retention root survives");
    assert_eq!(node.stats().recoveries_identical, 1);
}

/// Unwraps a handler's output as exactly one direct send.
fn to_reply(mut out: Vec<Outgoing>) -> (usize, Message) {
    assert_eq!(out.len(), 1, "expected exactly one send, got {out:?}");
    match out.pop().expect("non-empty") {
        Outgoing::To(to, message) => (to, message),
        other => panic!("expected a direct send, got {other:?}"),
    }
}

/// A light client pointed at `servers`, proving leaf 0 of every tip.
fn light_node(id: usize, servers: Vec<usize>) -> Node<Sha256dPow> {
    node(id).with_light_role(LightConfig {
        servers,
        request_timeout_ms: 1_000,
        proof_indices: vec![0],
    })
}

/// The wire layout is part of the determinism contract: bandwidth
/// accounting feeds fingerprints, so every variant's exact byte cost is
/// pinned here. The 116-byte header constant is cross-checked against the
/// real `BlockHeader` serialisation.
#[test]
fn wire_sizes_are_pinned_per_variant() {
    let header = BlockHeader {
        version: 1,
        prev_hash: GENESIS_HASH,
        merkle_root: [0u8; 32],
        timestamp: 7,
        target: [0xFF; 32],
        nonce: 9,
    };
    let mut bytes = Vec::new();
    header.write_bytes(&mut bytes);
    assert_eq!(
        bytes.len(),
        116,
        "the header wire constant must track reality"
    );

    let block = Block {
        header: header.clone(),
        transactions: vec![vec![1, 2, 3], vec![4, 5, 6, 7, 8]],
    };
    // tag + header + tx-list length + (4+3) + (4+5).
    assert_eq!(
        Message::Block(block.clone()).wire_size(),
        1 + 116 + 4 + 7 + 9
    );
    // tag + want digest + locator length + 3 digests.
    let locator = vec![[1u8; 32], [2u8; 32], [3u8; 32]];
    assert_eq!(
        Message::GetSegment {
            want: [9u8; 32],
            locator: locator.clone(),
        }
        .wire_size(),
        1 + 32 + 4 + 96
    );
    // tag + block-list length + two identical blocks.
    assert_eq!(
        Message::Segment(vec![block.clone(), block.clone()]).wire_size(),
        1 + 4 + 2 * (116 + 4 + 7 + 9)
    );
    // tag + locator length + 3 digests.
    assert_eq!(Message::GetHeaders { locator }.wire_size(), 1 + 4 + 96);
    // tag + header-list length + 2 headers.
    assert_eq!(
        Message::Headers(vec![header.clone(), header]).wire_size(),
        1 + 4 + 2 * 116
    );
    // tag + block digest + index-list length + 2 u32 indices.
    assert_eq!(
        Message::GetProof {
            block: [9u8; 32],
            indices: vec![0, 2],
        }
        .wire_size(),
        1 + 32 + 4 + 8
    );
    // tag + digest + leaf_count + item-list length
    //   + (idx + payload-length + 3 bytes) + (idx + payload-length + 1)
    //   + node-list length + 2 digests.
    assert_eq!(
        Message::Proof {
            block: [9u8; 32],
            leaf_count: 4,
            items: vec![(0, vec![1, 2, 3]), (2, vec![4])],
            nodes: vec![[5u8; 32], [6u8; 32]],
        }
        .wire_size(),
        1 + 32 + 4 + 4 + (4 + 4 + 3) + (4 + 4 + 1) + 4 + 64
    );
}

/// The basic light-client round trip: header sync from a full node, then
/// a batched proof of the tip's transactions, verified against the
/// committed Merkle root. The light tip must equal the full tip without
/// the light node ever holding a block body.
#[test]
fn a_light_node_syncs_headers_and_proves_the_tip() {
    let mut full = node(0);
    for now in 1..=3u64 {
        mine_one(&mut full, now * 100);
    }
    let mut light = light_node(1, vec![0]);
    assert_eq!(light.role(), Role::Light);

    // Slice tick bootstraps the header sync.
    let (to, get_headers) = to_reply(light.mine_slice(1_000, 1_000));
    assert_eq!(to, 0);
    let (to, headers) = to_reply(full.handle(1_000, 1, get_headers));
    assert_eq!(to, 1);
    assert_eq!(full.stats().headers_served, 3);

    // Accepting the headers moves the light tip and requests the proof.
    let (to, get_proof) = to_reply(light.handle(1_000, 0, headers));
    assert_eq!(to, 0);
    assert_eq!(light.stats().headers_accepted, 3);
    assert_eq!(light.tip(), full.tip());
    assert_eq!(light.tip_height(), full.tip_height());

    let (to, proof) = to_reply(full.handle(1_000, 1, get_proof));
    assert_eq!(to, 1);
    assert_eq!(full.stats().proofs_served, 1);
    assert!(light.handle(1_000, 0, proof.clone()).is_empty());
    assert_eq!(light.stats().proofs_verified, 1);
    assert!(light.stats().tx_bytes_proved > 0);
    assert_eq!(light.proved_tip(), full.tip());

    // A replay of the same proof answers nothing in flight: counted,
    // dropped, penalty-free.
    assert!(light.handle(1_000, 0, proof).is_empty());
    assert_eq!(light.stats().rejections.unsolicited_proof, 1);
    assert_eq!(light.stats().proofs_verified, 1);
}

/// A fabricated proof cannot survive verification against the PoW-pinned
/// header root: the light client rejects it, penalises and locally
/// blacklists the server, and re-requests from the next one — which
/// serves the genuine batch.
#[test]
fn a_fake_proof_is_rejected_and_rerequested_elsewhere() {
    let mut honest = node(0);
    let mut faker = node(1).with_strategy(Box::new(FakeProof));
    for now in 1..=2u64 {
        let block = mine_one(&mut honest, now * 100);
        faker.handle(now * 100, 0, Message::Block(block));
    }
    assert_eq!(faker.tip(), honest.tip());

    // id 2 over servers [0, 1]: rotation starts at the honest node for
    // headers, so the *proof* request lands on the faker.
    let mut light = light_node(2, vec![0, 1]);
    let (to, get_headers) = to_reply(light.mine_slice(1_000, 1_000));
    assert_eq!(to, 0);
    let headers = honest.handle(1_000, 2, get_headers);
    let (_, headers) = to_reply(headers);
    let (to, get_proof) = to_reply(light.handle(1_000, 0, headers));
    assert_eq!(to, 1, "rotation sends the proof request to the faker");

    let (_, fake) = to_reply(faker.handle(1_000, 2, get_proof));
    assert_eq!(faker.stats().fake_proofs_sent, 1);

    // Rejected, penalised, re-requested from the honest server.
    let (to, retry) = to_reply(light.handle(1_000, 1, fake));
    assert_eq!(light.stats().rejections.invalid_proof, 1);
    assert_eq!(light.stats().proof_retries, 1);
    assert_eq!(to, 0);

    let (_, genuine) = to_reply(honest.handle(1_000, 2, retry));
    assert!(light.handle(1_000, 0, genuine).is_empty());
    assert_eq!(light.stats().proofs_verified, 1);
    assert_eq!(light.proved_tip(), honest.tip());
}

/// A withholding server simply never answers: the light client's request
/// times out on a later slice tick and rotates to the next server.
#[test]
fn a_withheld_proof_times_out_and_rotates_servers() {
    let mut honest = node(0);
    let mut withholder = node(1).with_strategy(Box::new(ProofWithholding));
    let block = mine_one(&mut honest, 100);
    withholder.handle(100, 0, Message::Block(block));

    let mut light = light_node(2, vec![0, 1]);
    let (_, get_headers) = to_reply(light.mine_slice(1_000, 1_000));
    let (_, headers) = to_reply(honest.handle(1_000, 2, get_headers));
    let (to, get_proof) = to_reply(light.handle(1_000, 0, headers));
    assert_eq!(to, 1);
    assert!(withholder.handle(1_000, 2, get_proof).is_empty());
    assert_eq!(withholder.stats().proofs_withheld, 1);

    // The timeout re-issues the request to the next server in rotation.
    let (to, retry) = to_reply(light.mine_slice(2_500, 1_000));
    assert_eq!(light.stats().proof_retries, 1);
    assert_eq!(to, 0);
    let (_, genuine) = to_reply(honest.handle(2_500, 2, retry));
    assert!(light.handle(2_500, 0, genuine).is_empty());
    assert_eq!(light.stats().proofs_verified, 1);
}

/// The per-peer serving quota: beyond it, requests are silently refused
/// and counted, protecting the full node's proof bandwidth.
#[test]
fn the_proof_quota_refuses_requests_beyond_the_cap() {
    let mut full = node(0).with_proof_quota(1);
    mine_one(&mut full, 100);
    let mut light = light_node(1, vec![0]);

    let (_, get_headers) = to_reply(light.mine_slice(1_000, 1_000));
    let (_, headers) = to_reply(full.handle(1_000, 1, get_headers));
    let (_, get_proof) = to_reply(light.handle(1_000, 0, headers));
    let (_, proof) = to_reply(full.handle(1_000, 1, get_proof));
    assert!(light.handle(1_000, 0, proof).is_empty());
    assert_eq!(full.stats().proofs_served, 1);

    // A second tip, a second request — over quota now.
    let next = mine_one(&mut full, 2_000);
    let (_, get_proof) = to_reply(light.handle(2_000, 0, Message::Headers(vec![next.header])));
    assert!(full.handle(2_000, 1, get_proof).is_empty());
    assert_eq!(full.stats().quota_refusals, 1);
    assert_eq!(full.stats().proofs_served, 1);
}

/// A deep catch-up streams in bounded `Headers` batches: a full batch
/// makes the light client immediately request the next one until the tip
/// is reached.
#[test]
fn a_deep_header_catchup_streams_in_bounded_batches() {
    let mut full = node(0);
    let depth = MAX_HEADERS_PER_MSG as u64 + 4;
    for now in 1..=depth {
        mine_one(&mut full, now * 100);
    }
    // Header-only client: no proof requests to interleave.
    let mut light = node(1).with_light_role(LightConfig {
        servers: vec![0],
        request_timeout_ms: 1_000,
        proof_indices: Vec::new(),
    });
    let mut sends = light.mine_slice(100_000, 1_000);
    let mut hops = 0;
    while let Some(Outgoing::To(to, message)) = sends.pop() {
        assert!(sends.is_empty());
        let (back, reply) = to_reply(full.handle(100_000, 1, message));
        assert_eq!((to, back), (0, 1));
        sends = light.handle(100_000, 0, reply);
        hops += 1;
        assert!(hops < 10, "catch-up must terminate");
    }
    assert_eq!(hops, 2, "256 + 4 headers stream in exactly two batches");
    assert_eq!(light.tip(), full.tip());
    assert_eq!(light.tip_height(), depth);
    assert_eq!(light.stats().headers_accepted, depth);
}
