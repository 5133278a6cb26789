//! The Bitcoin-style double-SHA-256 PoW baseline.

use crate::{PowFunction, ResourceClass, NONCE_LANES};
use hashcore::{lane_seeds, MiningInput, Target, VerifyCost};
use hashcore_crypto::{sha256_x4, sha256d, Digest256};

/// `SHA256(SHA256(input))` — the PoW function the paper's introduction uses
/// as the canonical example of a function for which specialised ASICs vastly
/// outperform general purpose processors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sha256dPow;

impl PowFunction for Sha256dPow {
    /// Double SHA-256 runs entirely in fixed-size state; there is nothing
    /// to reuse between evaluations.
    type Scratch = ();

    fn name(&self) -> &'static str {
        "sha256d"
    }

    fn dominant_resource(&self) -> ResourceClass {
        ResourceClass::FixedFunction
    }

    /// The digest with a synthetic verifier cost derived from it.
    ///
    /// Double SHA-256 has no widget stage, so the cost-steering
    /// experiments model per-seed widget variance instead: the ratio
    /// `2^(4u − 2)` — log-uniform over `[1/4, 4]`, mean ≈ 1.35 — is read
    /// off the digest's *trailing* bytes. A PoW target constrains the
    /// leading bytes only, so the tail stays uniform at every difficulty,
    /// and every node derives the identical observation from the header
    /// alone.
    fn evaluate(&self, input: &[u8], _scratch: &mut ()) -> (Digest256, VerifyCost) {
        let digest = sha256d(input);
        (digest, synthetic_cost(&digest))
    }

    /// Both SHA-256 applications run four lanes wide: the inner hash over
    /// `header ‖ nonce` via [`lane_seeds`], the outer hash over the four
    /// fixed-size inner digests. This is the ASIC-friendly extreme — the
    /// *entire* function vectorises, which is exactly the contrast the
    /// bench's `simd_vs_scalar` metric quantifies against HashCore.
    fn first_hit_in_lanes(
        &self,
        input: &mut MiningInput,
        nonces: [u64; NONCE_LANES],
        target: Target,
        _scratch: &mut (),
    ) -> Option<(u64, Digest256)> {
        let inner = lane_seeds(input.header_bytes(), nonces);
        let digests = sha256_x4(inner.each_ref().map(|digest| digest.as_slice()));
        nonces
            .into_iter()
            .zip(digests)
            .find(|(_, digest)| target.is_met_by(digest))
    }
}

/// The log-uniform synthetic cost of one digest (see
/// [`PowFunction::evaluate`] on [`Sha256dPow`]): ratio
/// `2^(4u − 2)` with `u` uniform in `[0, 1)` from the digest tail, scaled
/// onto the nominal budget.
fn synthetic_cost(digest: &Digest256) -> VerifyCost {
    let raw = u64::from_le_bytes(digest[24..32].try_into().expect("an 8-byte digest tail"));
    // The top 53 bits give an exact f64 in [0, 1).
    let u = (raw >> 11) as f64 / (1u64 << 53) as f64;
    let ratio = (4.0 * u - 2.0).exp2();
    let nominal = VerifyCost::NOMINAL;
    VerifyCost {
        instructions: (nominal.instructions as f64 * ratio).round() as u64,
        output_bytes: (nominal.output_bytes as f64 * ratio).round() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_double_sha() {
        let d = Sha256dPow.pow_hash(b"genesis");
        assert_eq!(d, sha256d(b"genesis"));
        assert_eq!(
            d,
            hashcore_crypto::sha256(&hashcore_crypto::sha256(b"genesis"))
        );
    }

    #[test]
    fn synthetic_cost_is_digest_pure_and_log_uniform_bounded() {
        let nominal = Sha256dPow.nominal_cost();
        let mut sum = 0.0;
        let mut below = 0usize;
        for i in 0..256u32 {
            let input = i.to_le_bytes();
            let (digest, cost) = Sha256dPow.evaluate(&input, &mut ());
            // The digest contract: identical to the plain path.
            assert_eq!(digest, Sha256dPow.pow_hash(&input));
            // Replay gives the same observation — cost is input-pure.
            assert_eq!(Sha256dPow.evaluate(&input, &mut ()).1, cost);
            let ratio = cost.ratio(nominal);
            assert!(
                (0.25..=4.0).contains(&ratio),
                "ratio {ratio} out of the log-uniform support"
            );
            sum += ratio;
            below += usize::from(ratio < 1.0);
        }
        // Log-uniform over [1/4, 4]: mean ≈ 1.35, half the mass below 1.
        let mean = sum / 256.0;
        assert!((1.1..=1.6).contains(&mean), "mean ratio {mean}");
        assert!((64..=192).contains(&below), "{below} of 256 below 1");
    }
}
