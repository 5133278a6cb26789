//! Mining simulation: a HashCore-secured blockchain plus the mining-market
//! accessibility model.
//!
//! Mines a short chain with the full HashCore PoW (difficulty retargets
//! toward a 15-second block time on the simulated clock), validates it, and
//! then runs the Section-III market model comparing how hash power would be
//! distributed under SHA-256d, a memory-hard PoW, and HashCore.
//!
//! Run with: `cargo run --release --example mining_simulation`

use hashcore::{HashCore, Target};
use hashcore_baselines::{HashCorePow, ResourceClass};
use hashcore_chain::market::{simulate_market, MarketConfig};
use hashcore_chain::{DifficultyRule, EmaRetarget, ForkTree};
use hashcore_profile::PerformanceProfile;

/// Simulated seconds of mining work one hash attempt stands for.
const SECONDS_PER_ATTEMPT: u64 = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- A short HashCore chain ------------------------------------------
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = 10_000; // demo-sized widgets
    let pow = HashCorePow::new(HashCore::new(profile));
    let rule = DifficultyRule::Ema(EmaRetarget {
        initial: Target::from_leading_zero_bits(2),
        target_block_time: 15.0,
        gain: 0.3,
    });
    let mut tree = ForkTree::with_rule(pow, rule);
    let mut clock = 0;

    println!("mining 5 HashCore blocks...");
    for height in 0..5 {
        let txs = vec![format!("payment-{height}").into_bytes(), b"fee".to_vec()];
        let block = tree.mine_next(&txs, clock, 2_048)?;
        clock += (block.header.nonce + 1) * SECONDS_PER_ATTEMPT;
        println!(
            "  height {:>2}: nonce {:>4}, {} txs, difficulty {:>6.1} hashes, simulated time {:>4}s",
            height + 1,
            block.header.nonce,
            block.transactions.len(),
            Target::from_threshold(block.header.target).expected_attempts(),
            clock
        );
    }
    tree.validate_best_chain()?;
    println!("chain validation: OK\n");

    // --- The mining market -----------------------------------------------
    let config = MarketConfig::default();
    println!(
        "mining-market model ({} prospective miners):",
        config.miners
    );
    for (label, resource) in [
        ("SHA-256d", ResourceClass::FixedFunction),
        ("memory-hard", ResourceClass::Memory),
        ("HashCore", ResourceClass::GeneralPurpose),
    ] {
        let outcome = simulate_market(resource, &config);
        println!(
            "  {label:<12} Gini {:.3}, {:>5.1}% of miners competitive, top 1% holds {:>5.1}% of hash power",
            outcome.gini,
            outcome.participation * 100.0,
            outcome.top1_share * 100.0
        );
    }
    Ok(())
}
