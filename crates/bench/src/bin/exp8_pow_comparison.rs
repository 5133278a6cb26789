//! Experiment E8 — PoW function comparison.
//!
//! Places HashCore next to the comparator designs the paper discusses
//! (Sections II and VI-C): Bitcoin's SHA-256d, a scrypt-style memory-hard
//! function, a RandomX-style random-program function, and the
//! widget-selection variant. For each the harness reports hash throughput on
//! this machine, the dominant hardware resource, and the modelled ASIC
//! advantage — the quantity that decides mining-market accessibility.
//!
//! Usage: `exp8_pow_comparison [hashes]` (default 10).

use hashcore::HashCore;
use hashcore_baselines::{
    HashCorePow, MemoryHardPow, PowFunction, RandomxLitePow, SelectionPow, Sha256dPow,
};
use hashcore_bench::{widget_count_from_args, Experiment};
use hashcore_chain::market::asic_advantage;
use std::time::Instant;

fn main() {
    let hashes = widget_count_from_args(10).max(2);
    let experiment = Experiment::standard();
    println!("== Experiment E8: PoW function comparison ({hashes} hashes each) ==\n");

    println!(
        "{:<18} {:>14} {:>14} {:>18} {:>16}",
        "function", "ms / hash", "hashes / s", "dominant resource", "ASIC advantage"
    );
    report(&Sha256dPow, hashes);
    report(&MemoryHardPow::new(1 << 20, 2), hashes);
    report(
        &RandomxLitePow::new(experiment.reference.target_dynamic_instructions),
        hashes,
    );
    report(
        &SelectionPow::new(experiment.reference.clone(), 32, 1),
        hashes,
    );
    report(
        &HashCorePow::new(HashCore::new(experiment.reference.clone())),
        hashes,
    );

    println!("\nReading: raw hashes/second is *not* the figure of merit — a PoW system");
    println!("retargets difficulty to any hash rate. What matters is the ASIC advantage");
    println!("column: how much better custom silicon can do than the hardware users");
    println!("already own. HashCore's widgets keep that ratio near 1 by construction.");
}

/// Times `hashes` evaluations of `pow` and prints its table row.
fn report<P: PowFunction>(pow: &P, hashes: usize) {
    let start = Instant::now();
    for i in 0..hashes {
        let _ = pow.pow_hash(format!("compare-{i}").as_bytes());
    }
    let per_hash = start.elapsed().as_secs_f64() / hashes as f64;
    println!(
        "{:<18} {:>14.3} {:>14.2} {:>18} {:>15.1}x",
        pow.name(),
        per_hash * 1e3,
        1.0 / per_hash,
        format!("{:?}", pow.dominant_resource()),
        asic_advantage(pow.dominant_resource()),
    );
}
