//! The Bitcoin-style double-SHA-256 PoW baseline.

use crate::{PowFunction, ResourceClass, NONCE_LANES};
use hashcore::{MiningInput, Target, VerifyCost};
use hashcore_crypto::{
    sha256, sha256_x4, sha256_x4_resume, sha256d, sha256d_x4, Digest256, Sha256,
};

/// `SHA256(SHA256(input))` — the PoW function the paper's introduction uses
/// as the canonical example of a function for which specialised ASICs vastly
/// outperform general purpose processors.
///
/// The whole function vectorises, and both lane hooks use that: the
/// miner's hook hashes four nonces per 4-lane pass, and the verifier's
/// hook four independent inputs. The miner's hook and evaluations one
/// input at a time both resume from the midstate of their header's first
/// block that their [`Sha256dScratch`] stores.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sha256dPow;

/// The reusable state of [`Sha256dPow`]: the SHA-256 state after the first
/// 64 bytes (one compression block) of a recent input, its *midstate*.
///
/// An evaluation whose input starts with exactly those 64 bytes resumes
/// from the midstate and skips its first compression, one of the three
/// that a 116-byte block header costs. A lane-hook call whose header
/// starts with them resumes all four lanes from it, so a lane batch of a
/// 116-byte header costs one inner and one outer 4-lane compression. Every
/// nonce of one mining template shares them: the first 64 bytes of a
/// header are its version, its parent digest and most of its Merkle root,
/// and the nonce is its last 8.
///
/// The midstate is stored only once two consecutive uses (evaluations or
/// lane-hook calls) begin with the same 64 bytes, judged by an 8-byte
/// fingerprint of the last ones: a scratch used once
/// ([`PowFunction::pow_hash`]) or fed inputs that never repeat allocates
/// nothing and stays 16 bytes. Once stored, it follows the latest input.
/// No digest depends on the scratch.
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
        match input.split_first_chunk::<64>() {
            Some((head, tail)) => {
                let mut inner = self.absorbed(head);
                inner.update(tail);
                sha256(&inner.finalize())
            }
            None => sha256d(input),
        }
    }

    /// A hasher that has absorbed `head`: a copy of the midstate when it
    /// is of `head`, and otherwise a new one, stored when
    /// [`Sha256dScratch::keeps`] says so.
    fn absorbed(&mut self, head: &[u8; 64]) -> Sha256 {
        if let Some(midstate) = self.midstate.as_ref().filter(|m| m.head == *head) {
            return midstate.hasher.clone();
        }
        let mut hasher = Sha256::new();
        hasher.update(head);
        if self.keeps(head) {
            let kept = Midstate {
                head: *head,
                hasher: hasher.clone(),
            };
            match &mut self.midstate {
                Some(midstate) => **midstate = kept,
                empty => *empty = Some(Box::new(kept)),
            }
        }
        hasher
    }

    /// Whether to store the midstate of `head`, which this scratch does
    /// not hold: always once one is stored, and otherwise when the last
    /// input began with the same bytes.
    fn keeps(&mut self, head: &[u8; 64]) -> bool {
        if self.midstate.is_some() {
            return true;
        }
        let fingerprint = fingerprint(head);
        let repeat = fingerprint == self.last_fingerprint;
        self.last_fingerprint = fingerprint;
        repeat
    }
}

/// Double SHA-256 of `prefix ‖ rest ‖ nonce` for four nonces in one 4-lane
/// pass per application, where `prefix` is what `hasher` has absorbed,
/// a whole number of blocks.
fn sha256d_lanes(
    hasher: &Sha256,
    rest: &[u8],
    nonces: [u64; NONCE_LANES],
) -> [Digest256; NONCE_LANES] {
    let nonce_bytes = nonces.map(u64::to_le_bytes);
    let parts: [[&[u8]; 2]; NONCE_LANES] =
        std::array::from_fn(|lane| [rest, nonce_bytes[lane].as_slice()]);
    let inner = sha256_x4_resume(hasher, parts.each_ref().map(|lane| lane.as_slice()));
    sha256_x4(inner.each_ref().map(|digest| digest.as_slice()))
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
    /// `header ‖ nonce`, the outer hash over the four fixed-size inner
    /// digests. This is the ASIC-friendly extreme — the *entire* function
    /// vectorises, which is exactly the contrast the bench's
    /// `simd_vs_scalar` metric quantifies against HashCore.
    ///
    /// The lanes resume from the scratch's midstate of the header's first
    /// 64 bytes, stored by the same rule as for an evaluation, and start
    /// from SHA-256's initial state when the header is shorter.
    fn first_hit_in_lanes(
        &self,
        input: &mut MiningInput,
        nonces: [u64; NONCE_LANES],
        target: Target,
        scratch: &mut Sha256dScratch,
    ) -> Option<(u64, Digest256)> {
        let header = input.header_bytes();
        let digests = match header.split_first_chunk::<64>() {
            Some((head, rest)) => sha256d_lanes(&scratch.absorbed(head), rest, nonces),
            None => sha256d_lanes(&Sha256::new(), header, nonces),
        };
        nonces
            .into_iter()
            .zip(digests)
            .find(|(_, digest)| target.is_met_by(digest))
    }

    /// Both SHA-256 applications run four lanes wide over four whole
    /// inputs ([`sha256d_x4`]), from SHA-256's initial state. The scratch
    /// is neither read nor changed: independent headers, such as the
    /// blocks a restarting node reads back, share no first block.
    fn evaluate_lanes(
        &self,
        inputs: [&[u8]; NONCE_LANES],
        _scratch: &mut Sha256dScratch,
    ) -> [(Digest256, VerifyCost); NONCE_LANES] {
        sha256d_x4(inputs).map(|digest| (digest, synthetic_cost(&digest)))
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
        // Lane scans of headers shorter and longer than 64 bytes, between
        // evaluations of the same template and through the top of the
        // nonce space. From 64 bytes on the lanes resume from the stored
        // midstate of the header's head; below, from the initial state.
        let hard = Target::from_leading_zero_bits(255);
        let easy = Target::from_leading_zero_bits(3);
        for len in [19, 56, 63, 64, 100, 108, 119, 120, 150] {
            let header: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let mut input = MiningInput::new(&header);
            for start in [0, 9, 30, u64::MAX - 5] {
                let missed = Sha256dPow.scan_nonces(&mut input, hard, start, 8, &mut scratch);
                assert_eq!(missed, None);
                let first_hit = (0..64)
                    .map(|k| start.wrapping_add(k))
                    .map(|nonce| (nonce, sha256d(&HashCore::mining_input(&header, nonce))))
                    .find(|(_, digest)| easy.is_met_by(digest));
                assert!(first_hit.is_some(), "easy target within 64 nonces");
                let hit = Sha256dPow.scan_nonces(&mut input, easy, start, 64, &mut scratch);
                assert_eq!(hit, first_hit, "{len}-byte header from {start}");
                assert_sha256d(input.with_nonce(start), &mut scratch);
            }
            if len >= 64 {
                assert_eq!(stored_head(&scratch), Some(&header[..64]));
            }
        }
        // A fresh scratch's lane-hook calls store a midstate by the rule
        // evaluations follow: not at a template's first call, at its
        // second.
        let mut scratch = Sha256dScratch::default();
        let header = headed(9, &[1; 44]);
        let mut input = MiningInput::new(&header);
        for (start, stored) in [(0, None), (4, Some(&header[..64]))] {
            let missed = Sha256dPow.scan_nonces(&mut input, hard, start, 4, &mut scratch);
            assert_eq!(missed, None);
            assert_eq!(stored_head(&scratch), stored);
        }
    }

    #[test]
    fn lane_evaluations_match_sha256d_beside_a_stored_midstate() {
        let inputs = crate::tests::lane_inputs();
        // A scratch holding the midstate of a 116-byte header's head.
        let header = headed(5, &[7; 52]);
        let mut scratch = Sha256dScratch::default();
        assert_sha256d(&header, &mut scratch);
        assert_sha256d(&header, &mut scratch);
        assert_eq!(stored_head(&scratch), Some(&header[..64]));
        for rotation in 0..inputs.len() {
            // Once stored, the midstate follows the latest input: put the
            // header's back.
            assert_sha256d(&header, &mut scratch);
            let lanes: [&[u8]; NONCE_LANES] =
                std::array::from_fn(|lane| inputs[(rotation + lane) % inputs.len()].as_slice());
            let want = lanes.map(|input| {
                let digest = sha256d(input);
                (digest, synthetic_cost(&digest))
            });
            let fresh = Sha256dPow.evaluate_lanes(lanes, &mut Sha256dScratch::default());
            assert_eq!(fresh, want, "rotation {rotation}");
            assert_eq!(
                Sha256dPow.evaluate_lanes(lanes, &mut scratch),
                want,
                "rotation {rotation}"
            );
            // The lanes leave the stored midstate where it was.
            assert_eq!(stored_head(&scratch), Some(&header[..64]));
            assert_sha256d(lanes[0], &mut scratch);
        }
    }

    /// The head of the midstate `scratch` stores, if any.
    fn stored_head(scratch: &Sha256dScratch) -> Option<&[u8]> {
        scratch.midstate.as_ref().map(|midstate| &midstate.head[..])
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
