//! The Bitcoin-style double-SHA-256 PoW baseline.

use crate::{PowFunction, ResourceClass, NONCE_LANES};
use hashcore::{MiningInput, Target, VerifyCost};
use hashcore_crypto::{sha256, sha256_x4, sha256_x4_resume, sha256d, Digest256, Sha256};

/// `SHA256(SHA256(input))` — the PoW function the paper's introduction uses
/// as the canonical example of a function for which specialised ASICs vastly
/// outperform general purpose processors.
///
/// The whole function vectorises, and both evaluation paths use that: the
/// lane hook hashes four nonces per 4-lane pass, and evaluations one nonce
/// at a time through one [`Sha256dScratch`] resume from the midstate of
/// their header's first block and hash consecutive nonces four to a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sha256dPow;

/// The reusable state of [`Sha256dPow`]: the SHA-256 state after the first
/// 64 bytes (one compression block) of a recent input, its *midstate*, and
/// one lane batch of digests computed from it.
///
/// An evaluation whose input starts with exactly those 64 bytes resumes
/// from the midstate and skips its first compression, one of the three
/// that a 116-byte block header costs. Every nonce of one mining template
/// shares them: the first 64 bytes of a header are its version, its
/// parent digest and most of its Merkle root, and the nonce is its last 8.
///
/// When such an input is the next nonce of the last one (the same bytes
/// but an 8-byte little-endian tail one higher, wrapping) and its bytes
/// after the head fit one block with their padding (inputs of 72 to 119
/// bytes), the evaluation hashes that nonce and the next three in one
/// 4-lane pass from the midstate: one inner and one outer compression per
/// lane. Later evaluations of exactly those four inputs are answered from
/// the kept digests. A miner that evaluates one nonce at a time so pays one
/// 4-lane pass per four nonces. Every hit compares the whole input, so no
/// digest depends on the scratch.
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

/// A 64-byte head, the hasher that has absorbed exactly it, and the lane
/// batch of the inputs that begin with it.
#[derive(Debug)]
struct Midstate {
    head: [u8; 64],
    hasher: Sha256,
    lanes: LaneBatch,
}

/// The most bytes after the head that one block holds with the padding.
const MAX_TAIL: usize = 55;

/// The last input after the head, split into its middle and its nonce,
/// and the digests of one lane batch with that middle.
///
/// The batch sits here, not in a miner that knows its next nonces, because
/// only the scratch holds the midstate. A miner's lookahead through the
/// lane hook would start from the initial state: three 4-lane compressions
/// per four nonces of a 116-byte header, against two here. A hook that
/// stored a midstate would make `bench_mining`'s `sha256d_x4` row skip a
/// compression its `sha256d_scalar` row pays. Inputs that never batch,
/// such as a fork tree's gossiped headers, pay only a compare and a copy
/// of at most 47 bytes per evaluation.
#[derive(Debug, Default)]
struct LaneBatch {
    /// The last input's bytes between the head and its nonce, and how
    /// many there are; `None` when the last input had no nonce after its
    /// head or too long a tail.
    middle: Option<([u8; MAX_TAIL - 8], usize)>,
    last_nonce: u64,
    /// The digests of the inputs with the stored middle and the nonces
    /// `first..first + 4` (wrapping), when a batch is kept.
    digests: Option<(u64, [Digest256; NONCE_LANES])>,
}

impl Sha256dScratch {
    /// `sha256d(input)`, resuming from the midstate when `input` starts
    /// with its head.
    fn sha256d(&mut self, input: &[u8]) -> Digest256 {
        let Some((head, tail)) = input.split_first_chunk::<64>() else {
            return sha256d(input);
        };
        if !matches!(&self.midstate, Some(midstate) if midstate.head == *head) {
            let mut hasher = Sha256::new();
            hasher.update(head);
            if !self.keeps(head) {
                return finish(hasher, tail);
            }
            let kept = Midstate {
                head: *head,
                hasher,
                lanes: LaneBatch::default(),
            };
            match &mut self.midstate {
                Some(midstate) => **midstate = kept,
                empty => *empty = Some(Box::new(kept)),
            }
        }
        let midstate = self.midstate.as_mut().expect("a midstate of this head");
        match midstate.lanes.answer(&midstate.hasher, tail) {
            Some(digest) => digest,
            None => finish(midstate.hasher.clone(), tail),
        }
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

impl LaneBatch {
    /// The digest of the input `head ‖ tail`, where `hasher` has absorbed
    /// `head`, from a lane batch: a kept one, or a new one from `tail`'s
    /// nonce when that is the next nonce of the last input. Records `tail`
    /// as the last input; `None` when no batch answers.
    fn answer(&mut self, hasher: &Sha256, tail: &[u8]) -> Option<Digest256> {
        let Some((middle, nonce)) = tail
            .split_last_chunk::<8>()
            .filter(|_| tail.len() <= MAX_TAIL)
        else {
            *self = Self::default();
            return None;
        };
        let nonce = u64::from_le_bytes(*nonce);
        let follows = nonce == self.last_nonce.wrapping_add(1);
        self.last_nonce = nonce;
        if self.middle.as_ref().map(|(bytes, len)| &bytes[..*len]) != Some(middle) {
            let mut bytes = [0; MAX_TAIL - 8];
            bytes[..middle.len()].copy_from_slice(middle);
            self.middle = Some((bytes, middle.len()));
            self.digests = None;
            return None;
        }
        if let Some((first, digests)) = &self.digests {
            let lane = usize::try_from(nonce.wrapping_sub(*first)).ok();
            if let Some(digest) = lane.and_then(|lane| digests.get(lane)) {
                return Some(*digest);
            }
        }
        if !follows {
            return None;
        }
        let nonces = std::array::from_fn(|lane| nonce.wrapping_add(lane as u64));
        let digests = sha256d_lanes(hasher, middle, nonces);
        self.digests = Some((nonce, digests));
        Some(digests[0])
    }
}

/// `sha256(sha256(m))` of the message `m` that `inner` has absorbed but
/// for `tail`.
fn finish(mut inner: Sha256, tail: &[u8]) -> Digest256 {
    inner.update(tail);
    sha256(&inner.finalize())
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
    /// The lanes start from the initial state, not from the scratch's
    /// midstate, and the hook leaves the scratch as it was. A scan of
    /// whole lane batches so compresses every block, as one evaluation per
    /// nonce through a fresh scratch does, and `bench_mining`'s
    /// `simd_vs_scalar` stays the lane gain alone.
    fn first_hit_in_lanes(
        &self,
        input: &mut MiningInput,
        nonces: [u64; NONCE_LANES],
        target: Target,
        _scratch: &mut Sha256dScratch,
    ) -> Option<(u64, Digest256)> {
        let digests = sha256d_lanes(&Sha256::new(), input.header_bytes(), nonces);
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
        let hard = Target::from_leading_zero_bits(255);
        // Scans of whole lane batches leave a fresh scratch as it was, so
        // they compress every block, as evaluations through fresh
        // scratches do.
        let mut input = MiningInput::new(&headed(9, &[1; 44]));
        for start in [0, 8] {
            let missed = Sha256dPow.scan_nonces(&mut input, hard, start, 8, &mut scratch);
            assert_eq!(missed, None);
        }
        assert!(scratch.midstate.is_none());
        assert_eq!(scratch.last_fingerprint, 0);
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
        let easy = Target::from_leading_zero_bits(3);
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
        // One nonce at a time across lane-batch boundaries, with jumps
        // back inside a kept batch, past it and back, and a restart.
        let header = headed(6, &[7; 44]);
        let mut input = MiningInput::new(&header);
        let scan = (0..13).chain([9, 12, 10, 11, 13, 14, 40, 41, 39, 42, 43, 41, 40, 0, 1, 2]);
        for nonce in scan {
            assert_sha256d(input.with_nonce(nonce), &mut scratch);
        }
        assert_eq!(kept_batch(&scratch), Some(1), "the restart batches again");
        // A kept batch, then inputs that differ from its only between the
        // head and the nonce: in the first or the last such byte.
        for at in [64, 107] {
            for nonce in 20..24 {
                assert_sha256d(input.with_nonce(nonce), &mut scratch);
            }
            assert_eq!(kept_batch(&scratch), Some(21));
            let mut changed = input.with_nonce(22).to_vec();
            changed[at] ^= 1;
            assert_sha256d(&changed, &mut scratch);
            assert_sha256d(input.with_nonce(23), &mut scratch);
        }
        // Through the top of the nonce space, with a batch that wraps.
        for nonce in (u64::MAX - 5..=u64::MAX).chain(0..6) {
            assert_sha256d(input.with_nonce(nonce), &mut scratch);
        }
        // Lane-hook calls inside a kept batch leave it as it was.
        for start in [100, 104, 103] {
            assert_sha256d(input.with_nonce(start), &mut scratch);
            assert_sha256d(input.with_nonce(start + 1), &mut scratch);
            let nonces = std::array::from_fn(|lane| start + 2 + lane as u64);
            let missed = Sha256dPow.first_hit_in_lanes(&mut input, nonces, hard, &mut scratch);
            assert_eq!(missed, None);
            assert_sha256d(input.with_nonce(start + 2), &mut scratch);
            assert_eq!(kept_batch(&scratch), Some(start + 1));
        }
        // Inputs of 64 to 72 bytes, whose nonce overlaps the head below 72,
        // and of 118 to 121, whose tail fits one block up to 119 bytes.
        for len in (64..=72).chain(118..=121) {
            let mut bytes = vec![8; len];
            for nonce in 0..9u64 {
                bytes[len - 8..].copy_from_slice(&nonce.to_le_bytes());
                assert_sha256d(&bytes, &mut scratch);
            }
            let batched = (72..=119).contains(&len);
            assert_eq!(kept_batch(&scratch).is_some(), batched, "{len} bytes");
        }
    }

    /// The first nonce of the lane batch `scratch` keeps, if any.
    fn kept_batch(scratch: &Sha256dScratch) -> Option<u64> {
        let midstate = scratch.midstate.as_ref()?;
        midstate.lanes.digests.as_ref().map(|(first, _)| *first)
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
