//! Property tests holding the lane-batched `scan_nonces` to a per-nonce
//! reference.
//!
//! The scan's contract is that it visits *exactly* the nonce sequence of
//! one fresh `pow_hash` per nonce — same start, same wraparound through
//! `u64::MAX`, same first hit and digest — for every baseline PoW. Random
//! starts (including points that wrap mid-scan), attempt counts straddling
//! the lane width, and leading-zero targets from "every nonce hits" to "no
//! nonce hits" exercise the lane-batch/remainder split and the lane hooks.

use hashcore::{HashCore, MiningInput, Target};
use hashcore_baselines::{
    HashCorePow, MemoryHardPow, PowFunction, RandomxLitePow, SelectionPow, Sha256dPow,
};
use hashcore_profile::PerformanceProfile;
use proptest::prelude::*;

/// Starts that exercise plain ranges and ranges wrapping through u64::MAX.
fn starts() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (0u64..64).prop_map(|k| u64::MAX - k),
        Just(0u64),
    ]
}

fn assert_equivalent<P: PowFunction>(
    pow: &P,
    header: &[u8],
    start: u64,
    attempts: u64,
    zero_bits: u32,
) -> Result<(), TestCaseError> {
    let target = Target::from_leading_zero_bits(zero_bits);
    let reference = (0..attempts).find_map(|k| {
        let nonce = start.wrapping_add(k);
        let digest = pow.pow_hash(&HashCore::mining_input(header, nonce));
        target.is_met_by(&digest).then_some((nonce, digest))
    });
    let scanned = pow.scan_nonces(
        &mut MiningInput::new(header),
        target,
        start,
        attempts,
        &mut P::Scratch::default(),
    );
    prop_assert!(
        scanned == reference,
        "{} start {} attempts {} bits {}: {:?} vs {:?}",
        pow.name(),
        start,
        attempts,
        zero_bits,
        scanned,
        reference
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cheap, fully-lane-parallel baseline gets the widest sweep.
    #[test]
    fn sha256d_batch_equals_scalar(
        start in starts(),
        attempts in 0u64..40,
        zero_bits in 0u32..7,
        header in prop::collection::vec(any::<u8>(), 0usize..65),
    ) {
        assert_equivalent(&Sha256dPow, &header, start, attempts, zero_bits)?;
    }
}

proptest! {
    // The widget-executing baselines cost milliseconds per nonce; fewer
    // cases with tighter attempt ranges still cover batch + remainder +
    // wrap because `starts()` pins some starts right below u64::MAX.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn memory_hard_batch_equals_scalar(
        start in starts(),
        attempts in 0u64..14,
        zero_bits in 0u32..5,
    ) {
        assert_equivalent(
            &MemoryHardPow::new(16 * 1024, 2),
            b"prop-header",
            start,
            attempts,
            zero_bits,
        )?;
    }

    #[test]
    fn randomx_lite_batch_equals_scalar(
        start in starts(),
        attempts in 0u64..14,
        zero_bits in 0u32..5,
    ) {
        assert_equivalent(
            &RandomxLitePow::new(1_500),
            b"prop-header",
            start,
            attempts,
            zero_bits,
        )?;
    }

    #[test]
    fn selection_batch_equals_scalar(
        start in starts(),
        attempts in 0u64..14,
        zero_bits in 0u32..5,
    ) {
        let mut profile = PerformanceProfile::leela_like();
        profile.target_dynamic_instructions = 1_500;
        assert_equivalent(
            &SelectionPow::new(profile, 4, 1),
            b"prop-header",
            start,
            attempts,
            zero_bits,
        )?;
    }

    #[test]
    fn hashcore_batch_equals_scalar(
        start in starts(),
        attempts in 0u64..14,
        zero_bits in 0u32..5,
    ) {
        let mut profile = PerformanceProfile::leela_like();
        profile.target_dynamic_instructions = 1_500;
        assert_equivalent(
            &HashCorePow::new(HashCore::new(profile)),
            b"prop-header",
            start,
            attempts,
            zero_bits,
        )?;
    }
}
