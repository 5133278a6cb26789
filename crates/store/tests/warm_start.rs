//! Warm start under the cost-aware difficulty rule: mine a chain with
//! [`DifficultyRule::CostAware`], snapshot mid-way, append the rest to the
//! segment log, reopen the store cold via [`ChainStore::open`], rebuild
//! the tree, and keep mining — every block mined after the restart must be
//! byte-identical to the never-persisted reference run, and the final
//! trees must share a fingerprint.
//!
//! This pins the property the cost machinery makes non-trivial: the
//! per-entry observed cost ratios that drive the commitment recurrence are
//! *not* serialized (they are a pure function of header bytes), so
//! recovery must re-derive them exactly or the first post-restart template
//! would carry the wrong version word and fork the chain.

use hashcore::Target;
use hashcore_baselines::{PowFunction, Sha256dPow};
use hashcore_chain::{
    Block, BlockHeader, CostAwareRetarget, DifficultyRule, EmaRetarget, ForkTree,
};
use hashcore_store::{rebuild, ChainStore, TempDir};

fn cost_rule() -> DifficultyRule {
    DifficultyRule::CostAware(CostAwareRetarget::new(
        EmaRetarget {
            initial: Target::from_leading_zero_bits(2),
            target_block_time: 1_000.0,
            gain: 0.5,
        },
        0.5,
        2.0,
    ))
}

/// Mines the next block at `timestamp` through [`ForkTree::mine_next`],
/// with the timestamp's bytes as its one transaction, and returns it
/// (already applied). Deterministic given the tree state, so two trees in
/// the same state mine the same block.
fn mine_at(tree: &mut ForkTree<Sha256dPow>, timestamp: u64) -> Block {
    let transactions = [timestamp.to_le_bytes().to_vec()];
    tree.mine_next(&transactions, timestamp, 1_000_000)
        .expect("an admissible nonce exists at trivial difficulty")
        .clone()
}

/// Twelve uneven gaps, so the targets and cost commitments actually move.
const GAPS: [u64; 12] = [
    900, 2_400, 300, 1_100, 1_000, 1_700, 600, 1_300, 950, 2_000, 450, 1_050,
];

#[test]
fn mining_skips_target_hits_the_admission_bound_rejects() {
    // The admission target is the expected target rescaled, so a digest
    // can meet the embedded target and still fail admission. Mining must
    // skip such a hit and return a later, admissible nonce.
    let rule = cost_rule();
    let mut tree = ForkTree::with_rule(Sha256dPow, rule);
    let mut timestamp = 0;
    let mut skipped = 0;
    for gap in GAPS {
        timestamp += gap;
        let block = mine_at(&mut tree, timestamp);
        let expected = Target::from_threshold(block.header.target);
        let first_hit = (0..=block.header.nonce)
            .map(|nonce| BlockHeader {
                nonce,
                ..block.header.clone()
            })
            .find(|header| expected.is_met_by(&Sha256dPow.pow_hash(&header.bytes())))
            .expect("the mined nonce itself meets the target");
        if first_hit.nonce < block.header.nonce {
            let (digest, cost_ratio) = tree.digest_and_cost_of_header(&first_hit);
            assert!(
                !rule.admits(expected, &digest, cost_ratio),
                "only an inadmissible hit may be skipped"
            );
            skipped += 1;
        }
    }
    assert!(skipped > 0, "no target hit was inadmissible");
}

#[test]
fn cost_aware_mining_warm_starts_bit_identically() {
    // The never-persisted reference: 12 blocks on the uneven gap schedule.
    let mut reference = ForkTree::with_rule(Sha256dPow, cost_rule());
    let mut reference_blocks = Vec::new();
    let mut timestamp = 0u64;
    for gap in GAPS {
        timestamp += gap;
        reference_blocks.push(mine_at(&mut reference, timestamp));
    }

    // The persisted run mines the same schedule: 4 blocks into the first
    // log, a snapshot, 4 more into the rotated log — then the process
    // "exits" (store and tree dropped).
    let dir = TempDir::new("warm-start-cost").expect("temp dir");
    let mut tree = ForkTree::with_rule(Sha256dPow, cost_rule());
    let mut store = ChainStore::create(dir.path()).expect("create store");
    let mut timestamp = 0u64;
    for (i, gap) in GAPS[..8].iter().enumerate() {
        timestamp += *gap;
        let block = mine_at(&mut tree, timestamp);
        store.append_block(&block).expect("append");
        if i == 3 {
            store
                .snapshot_now(&tree.snapshot())
                .expect("snapshot commits");
        }
    }
    drop(store);
    drop(tree);

    // Cold reopen: the recovery ladder hands back the snapshot plus the
    // post-snapshot log records, and rebuild() re-applies them — which
    // re-derives every entry's cost ratio from its header bytes.
    let (_store, recovered) = ChainStore::open(dir.path()).expect("reopen");
    assert!(recovered.report.clean(), "clean shutdown, clean recovery");
    assert!(
        recovered.snapshot.is_some(),
        "the mid-run snapshot is the recovery base"
    );
    let (mut warm, skipped) =
        rebuild(Sha256dPow, Some(cost_rule()), &recovered).expect("rebuild succeeds");
    assert_eq!(skipped, 0, "every logged block re-applies cleanly");
    assert_eq!(warm.tip(), {
        let mut check = ForkTree::with_rule(Sha256dPow, cost_rule());
        for block in &reference_blocks[..8] {
            check.apply(block.clone()).expect("prefix re-applies");
        }
        check.tip()
    });

    // Continue mining on the warm-started tree: blocks 9..=12 must be
    // byte-identical to the reference run's — same version words, same
    // targets, same nonces — because the recovered branch state (cost
    // commitments included) is exact.
    for (block, gap) in reference_blocks[8..].iter().zip(&GAPS[8..]) {
        timestamp += *gap;
        assert_eq!(
            mine_at(&mut warm, timestamp),
            *block,
            "post-restart mining must replay the never-crashed run"
        );
    }
    assert_eq!(
        warm.fingerprint(),
        reference.fingerprint(),
        "warm-started and never-persisted trees are indistinguishable"
    );
    assert_eq!(warm.tip(), reference.tip());
    assert_eq!(warm.tip_height(), 12);
    assert!(warm.validate_best_chain().is_ok());
}
