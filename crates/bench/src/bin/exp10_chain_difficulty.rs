//! Experiment E10 — end-to-end HashCore chain with difficulty retargeting.
//!
//! Mines a short blockchain whose PoW is the full HashCore function
//! (hash gate → widget generation → widget execution → hash gate), prints
//! the difficulty trajectory, and re-validates the whole chain — the
//! end-to-end integration the paper's Section I context assumes. Exits
//! non-zero if mining gives up or re-validation fails.
//!
//! Usage: `exp10_chain_difficulty [blocks]` (default 8).

use hashcore::{HashCore, Target};
use hashcore_baselines::HashCorePow;
use hashcore_bench::{widget_count_from_args, Experiment};
use hashcore_chain::{DifficultyRule, EmaRetarget, ForkTree};
use std::process::ExitCode;
use std::time::Instant;

/// Simulated seconds of mining work one hash attempt stands for.
const SECONDS_PER_ATTEMPT: u64 = 5;

fn main() -> ExitCode {
    let blocks = widget_count_from_args(8);
    let experiment = Experiment::standard();
    println!(
        "== Experiment E10: HashCore chain with difficulty retargeting ({blocks} blocks) ==\n"
    );

    let pow = HashCorePow::new(HashCore::new(experiment.reference.clone()));
    let rule = DifficultyRule::Ema(EmaRetarget {
        initial: Target::from_leading_zero_bits(2),
        target_block_time: 15.0,
        gain: 0.3,
    });
    let mut tree = ForkTree::with_rule(pow, rule);
    let mut clock = 0;

    println!(
        "{:>6} {:>10} {:>18} {:>14} {:>12}",
        "height", "nonce", "difficulty (hashes)", "sim time (s)", "wall (s)"
    );
    for height in 0..blocks {
        let start = Instant::now();
        let transactions = vec![format!("coinbase-{height}").into_bytes()];
        let difficulty = tree
            .expected_child_target(&tree.tip(), clock)
            .expect("the tree enforces a rule")
            .expected_attempts();
        match tree.mine_next(&transactions, clock, 4_096) {
            Ok(block) => {
                let nonce = block.header.nonce;
                clock += (nonce + 1) * SECONDS_PER_ATTEMPT;
                println!(
                    "{:>6} {:>10} {:>18.1} {:>14} {:>12.2}",
                    height + 1,
                    nonce,
                    difficulty,
                    clock,
                    start.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                println!("mining stopped at height {height}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Err(e) = tree.validate_best_chain() {
        println!("\nfull chain re-validation FAILED: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "\nfull chain re-validation: OK ({} blocks)",
        tree.tip_height()
    );
    println!(
        "difficulty history (expected hashes per block): {:?}",
        tree.best_chain()
            .iter()
            .map(|block| {
                let difficulty = Target::from_threshold(block.header.target).expected_attempts();
                (difficulty * 10.0).round() / 10.0
            })
            .collect::<Vec<_>>()
    );
    println!("\nEvery verification above re-generated and re-executed the block's widget");
    println!("from the header alone — the property that makes HashCore usable as a PoW.");
    ExitCode::SUCCESS
}
