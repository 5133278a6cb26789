//! PoW comparison: HashCore next to the designs it is positioned against.
//!
//! Evaluates one hash of each PoW family on the same input and reports cost
//! and design properties — a miniature of experiment E8.
//!
//! Run with: `cargo run --release --example pow_comparison`

use hashcore::HashCore;
use hashcore_baselines::{
    HashCorePow, MemoryHardPow, PowFunction, RandomxLitePow, SelectionPow, Sha256dPow,
};
use hashcore_crypto::hex;
use hashcore_profile::PerformanceProfile;
use std::time::Instant;

fn main() {
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = 10_000;

    println!(
        "{:<18} {:>12} {:>20}   digest",
        "function", "ms / hash", "dominant resource"
    );
    report(&Sha256dPow);
    report(&MemoryHardPow::new(512 << 10, 2));
    report(&RandomxLitePow::new(10_000));
    report(&SelectionPow::new(profile.clone(), 8, 1));
    report(&HashCorePow::new(HashCore::new(profile)));
    println!("\nSee `cargo run --release -p hashcore-bench --bin exp8_pow_comparison` for the full table.");
}

/// Hashes the shared input once with `pow` and prints its row.
fn report<P: PowFunction>(pow: &P) {
    let start = Instant::now();
    let digest = pow.pow_hash(b"the same block header for every function");
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "{:<18} {:>12.3} {:>20}   {}…",
        pow.name(),
        elapsed,
        format!("{:?}", pow.dominant_resource()),
        &hex::encode(&digest)[..16]
    );
}
