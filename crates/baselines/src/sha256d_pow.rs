//! The Bitcoin-style double-SHA-256 PoW baseline.

use crate::{PowFunction, ResourceClass, NONCE_LANES};
use hashcore::{lane_seeds, MiningInput, Target, VerifyCost};
use hashcore_crypto::{sha256, sha256_x4, sha256d, Digest256, Sha256};

/// `SHA256(SHA256(input))` — the PoW function the paper's introduction uses
/// as the canonical example of a function for which specialised ASICs vastly
/// outperform general purpose processors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sha256dPow;

/// The reusable state of [`Sha256dPow`]: the SHA-256 state after the first
/// 64 bytes (one compression block) of a recent input, its *midstate*.
///
/// An evaluation whose input starts with exactly those 64 bytes resumes
/// from the midstate and skips its first compression, one of the three
/// that a 116-byte block header costs. Every nonce of one mining template
/// shares them: the first 64 bytes of a header are its version, its
/// parent digest and most of its Merkle root, and the nonce is its last 8.
/// A hit compares all 64 bytes, so no digest depends on the scratch.
///
/// The midstate is stored only once two consecutive evaluations begin with
/// the same 64 bytes, judged by an 8-byte fingerprint of the last ones:
/// a scratch used once ([`PowFunction::pow_hash`]) or fed inputs that never
/// repeat allocates nothing and stays 16 bytes. Once stored, it follows
/// the latest input.
#[derive(Debug, Default)]
pub struct Sha256dScratch {
    /// [`fingerprint`] of the last input's first 64 bytes while no
    /// midstate is stored; 0, which no fingerprint equals, before any.
    last_fingerprint: u64,
    midstate: Option<Box<Midstate>>,
}

/// A 64-byte head and the hasher that has absorbed exactly it.
#[derive(Debug)]
struct Midstate {
    head: [u8; 64],
    hasher: Sha256,
}

impl Sha256dScratch {
    /// `sha256d(input)`, resuming from the midstate when `input` starts
    /// with its head.
    fn sha256d(&mut self, input: &[u8]) -> Digest256 {
        let Some((head, tail)) = input.split_first_chunk::<64>() else {
            return sha256d(input);
        };
        let mut inner = match &self.midstate {
            Some(midstate) if midstate.head == *head => midstate.hasher.clone(),
            _ => {
                let mut hasher = Sha256::new();
                hasher.update(head);
                self.keep(head, &hasher);
                hasher
            }
        };
        inner.update(tail);
        sha256(&inner.finalize())
    }

    /// Stores `hasher`, which has absorbed `head`, as the midstate: in
    /// place of the stored one, or in a new allocation when the last input
    /// began with the same bytes.
    fn keep(&mut self, head: &[u8; 64], hasher: &Sha256) {
        if self.midstate.is_none() {
            let fingerprint = fingerprint(head);
            let repeat = fingerprint == self.last_fingerprint;
            self.last_fingerprint = fingerprint;
            if !repeat {
                return;
            }
        }
        let kept = Midstate {
            head: *head,
            hasher: hasher.clone(),
        };
        match &mut self.midstate {
            Some(midstate) => **midstate = kept,
            empty => *empty = Some(Box::new(kept)),
        }
    }
}

/// An 8-byte fingerprint of a 64-byte head, never 0. Equal heads have
/// equal fingerprints; a collision only stores a midstate early.
fn fingerprint(head: &[u8; 64]) -> u64 {
    head.chunks_exact(8).fold(0u64, |acc, word| {
        let word = u64::from_le_bytes(word.try_into().expect("an 8-byte word"));
        (acc ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    }) | 1
}

impl PowFunction for Sha256dPow {
    /// The midstate of a recent input's first 64 bytes.
    type Scratch = Sha256dScratch;

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
    fn evaluate(&self, input: &[u8], scratch: &mut Sha256dScratch) -> (Digest256, VerifyCost) {
        let digest = scratch.sha256d(input);
        (digest, synthetic_cost(&digest))
    }

    /// Both SHA-256 applications run four lanes wide: the inner hash over
    /// `header ‖ nonce` via [`lane_seeds`], the outer hash over the four
    /// fixed-size inner digests. This is the ASIC-friendly extreme — the
    /// *entire* function vectorises, which is exactly the contrast the
    /// bench's `simd_vs_scalar` metric quantifies against HashCore.
    /// The lanes start from the initial state, not from the scratch's
    /// midstate.
    fn first_hit_in_lanes(
        &self,
        input: &mut MiningInput,
        nonces: [u64; NONCE_LANES],
        target: Target,
        _scratch: &mut Sha256dScratch,
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
    use hashcore::HashCore;

    /// Evaluating `input` through `scratch` gives `sha256d(input)`.
    fn assert_sha256d(input: &[u8], scratch: &mut Sha256dScratch) {
        let (digest, cost) = Sha256dPow.evaluate(input, scratch);
        assert_eq!(
            digest,
            sha256d(input),
            "{} bytes: {input:02x?}",
            input.len()
        );
        assert_eq!(cost, synthetic_cost(&digest));
    }

    /// A 64-byte head of `head` bytes followed by `tail`.
    fn headed(head: u8, tail: &[u8]) -> Vec<u8> {
        let mut input = vec![head; 64];
        input.extend_from_slice(tail);
        input
    }

    #[test]
    fn one_scratch_over_many_inputs_matches_sha256d() {
        let mut scratch = Sha256dScratch::default();
        // An all-zero head first: a fresh scratch must not read it as a
        // repeat.
        assert_sha256d(&[0; 116], &mut scratch);
        assert!(
            scratch.midstate.is_none(),
            "a fresh scratch's first evaluation allocates nothing"
        );
        // A run sharing that head: the second evaluation stores the
        // midstate and the rest resume from it.
        for nonce in 1..6 {
            assert_sha256d(&headed(0, &[nonce; 52]), &mut scratch);
        }
        assert!(scratch.midstate.is_some());
        // Every length from 0 to 200, each a prefix of one byte string, so
        // from 64 bytes on (where the tail is empty) they share a head.
        let bytes: Vec<u8> = (0..200).collect();
        for len in 0..=bytes.len() {
            assert_sha256d(&bytes[..len], &mut scratch);
        }
        // Interleaved heads, then a head that changes and changes back.
        for head in [1, 2, 1, 2, 1, 3, 3, 1, 1] {
            assert_sha256d(&headed(head, b"tail"), &mut scratch);
        }
        // Heads that differ only in their last byte.
        let mut input = headed(1, b"tail");
        for last in [2, 2, 1, 2] {
            input[63] = last;
            assert_sha256d(&input, &mut scratch);
        }
        // Lane batches between scalar evaluations of one template: the
        // lanes start from the initial state and leave the midstate alone.
        let header = headed(4, &[5; 44]);
        let mut input = MiningInput::new(&header);
        let (hard, easy) = (
            Target::from_leading_zero_bits(255),
            Target::from_leading_zero_bits(3),
        );
        for start in [0, 9, 30] {
            assert_sha256d(input.with_nonce(start), &mut scratch);
            // Six attempts: one lane batch, then two scalar evaluations.
            let missed = Sha256dPow.scan_nonces(&mut input, hard, start, 6, &mut scratch);
            assert_eq!(missed, None);
            assert_sha256d(input.with_nonce(start + 1), &mut scratch);
            let first_hit = (start..start + 64)
                .map(|nonce| (nonce, sha256d(&HashCore::mining_input(&header, nonce))))
                .find(|(_, digest)| easy.is_met_by(digest));
            assert!(first_hit.is_some(), "easy target within 64 nonces");
            let hit = Sha256dPow.scan_nonces(&mut input, easy, start, 64, &mut scratch);
            assert_eq!(hit, first_hit);
        }
    }

    /// Every network node holds two scratches, one in its fork tree and one
    /// in its miner.
    #[test]
    fn scratch_is_two_words() {
        assert_eq!(std::mem::size_of::<Sha256dScratch>(), 16);
    }

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
            let (digest, cost) = Sha256dPow.evaluate(&input, &mut Default::default());
            // The digest contract: identical to the plain path.
            assert_eq!(digest, Sha256dPow.pow_hash(&input));
            // Replay gives the same observation — cost is input-pure.
            assert_eq!(Sha256dPow.evaluate(&input, &mut Default::default()).1, cost);
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
