//! Workspace integration tests: HashCore driving the blockchain substrate,
//! and cross-PoW chain behaviour.

use hashcore::{HashCore, Target};
use hashcore_baselines::{HashCorePow, MemoryHardPow, PowFunction, Sha256dPow};
use hashcore_chain::market::{simulate_market, MarketConfig};
use hashcore_chain::{
    validate_segment_with_rule, ChainError, DifficultyRule, EmaRetarget, ForkTree, InvalidReason,
    GENESIS_HASH,
};
use hashcore_profile::PerformanceProfile;

fn demo_pow() -> HashCorePow {
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = 3_000;
    HashCorePow::new(HashCore::new(profile))
}

/// A 2-bit, 15 s, gain 0.3 EMA rule.
fn rule() -> DifficultyRule {
    DifficultyRule::Ema(EmaRetarget {
        initial: Target::from_leading_zero_bits(2),
        target_block_time: 15.0,
        gain: 0.3,
    })
}

/// Mines one block per entry of `transactions`, each carrying that one
/// transaction; the clock advances one second per hash attempt.
fn mine<P: PowFunction>(tree: &mut ForkTree<P>, transactions: &[&str], max_attempts: u64) {
    let mut clock = 0;
    for tx in transactions {
        let nonce = tree
            .mine_next(&[tx.as_bytes().to_vec()], clock, max_attempts)
            .expect("trivial difficulty")
            .header
            .nonce;
        clock += nonce + 1;
    }
}

#[test]
fn hashcore_secured_chain_mines_and_validates() {
    let mut tree = ForkTree::with_rule(demo_pow(), rule());
    mine(&mut tree, &["tx-0", "tx-1", "tx-2"], 512);
    assert_eq!(tree.tip_height(), 3);
    tree.validate_best_chain().expect("honest chain validates");
    assert_eq!(tree.best_chain().len(), 3);
}

#[test]
fn tampering_is_detected_regardless_of_the_pow_function() {
    // The tamper-evidence property comes from the chain structure and holds
    // for every PoW function behind the common trait: re-validate a
    // received block sequence, under the chain's own PoW, after forging
    // one transaction.
    fn tampered_chain_fails<P: PowFunction>(pow: P) {
        let mut tree = ForkTree::with_rule(pow, rule());
        mine(&mut tree, &["tx"; 3], 100_000);
        let mut received = tree.best_chain();
        let stored: Vec<_> = received
            .iter()
            .skip(1)
            .map(|block| block.header.prev_hash)
            .chain([tree.tip()])
            .map(|digest| (digest, tree.cost_ratio_of(&digest)))
            .collect();
        assert_eq!(
            validate_segment_with_rule(tree.pow(), &received, GENESIS_HASH, None),
            Ok(stored),
            "{}: the untampered chain validates",
            tree.pow().name()
        );

        received[1].transactions[0] = b"forged double spend".to_vec();
        assert_eq!(
            validate_segment_with_rule(tree.pow(), &received, GENESIS_HASH, None),
            Err(ChainError::InvalidBlock {
                height: 1,
                reason: InvalidReason::Merkle,
            }),
            "{}: the forgery is detected",
            tree.pow().name()
        );
    }
    tampered_chain_fails(Sha256dPow);
    tampered_chain_fails(MemoryHardPow::new(8 * 1024, 1));
}

#[test]
fn market_model_orders_pow_families_by_decentralisation() {
    let config = MarketConfig {
        miners: 2_000,
        ..MarketConfig::default()
    };
    let fixed = simulate_market(hashcore_baselines::ResourceClass::FixedFunction, &config);
    let gpp = simulate_market(hashcore_baselines::ResourceClass::GeneralPurpose, &config);
    assert!(gpp.gini < fixed.gini);
    assert!(gpp.top1_share < fixed.top1_share);
    assert!(gpp.participation >= fixed.participation);
}
