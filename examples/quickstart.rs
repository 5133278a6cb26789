//! Quickstart: evaluate the HashCore PoW function and mine a nonce.
//!
//! Run with: `cargo run --release --example quickstart`

use hashcore::{HashCore, Target};
use hashcore_crypto::hex;
use hashcore_profile::PerformanceProfile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick the reference profile widgets are generated against. The
    //    built-in Leela-like profile is fine for a demo; the experiment
    //    harnesses derive it from the Go-engine kernel instead.
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = 20_000; // keep the demo snappy

    // 2. Build the PoW function.
    let pow = HashCore::new(profile);

    // 3. Hash a block header: first hash gate -> widget generation ->
    //    widget execution -> second hash gate.
    let header = b"quickstart block header";
    let output = pow.hash(header)?;
    println!("input:            {:?}", String::from_utf8_lossy(header));
    println!("hash seed  G(x):  {}", output.seed);
    println!("digest     H(x):  {}", hex::encode(&output.digest));
    println!(
        "widget:           {} dynamic instructions, {} snapshots, {} bytes of output",
        output.widget.dynamic_instructions, output.widget.snapshots, output.widget.output_bytes
    );

    // 4. Mine: find a nonce whose digest meets an easy difficulty target.
    let target = Target::from_leading_zero_bits(4);
    let result = pow
        .mine(header, target, 0, 256)?
        .expect("a 4-bit target is met quickly");
    println!(
        "\nmined nonce {} in {} attempts -> {}",
        result.nonce,
        result.attempts,
        hex::encode(&result.digest)
    );

    // 5. Verify, as every full node would: evaluate the hash again over
    //    the header and nonce, re-generating and re-executing the widget
    //    from them alone, and check the target.
    let verified = pow.hash(&HashCore::mining_input(header, result.nonce))?;
    println!(
        "verification:     {}",
        if verified.digest == result.digest && target.is_met_by(&verified.digest) {
            "OK"
        } else {
            "FAILED"
        }
    );
    Ok(())
}
