//! # hashcore-baselines
//!
//! Comparator Proof-of-Work functions.
//!
//! The paper positions HashCore against three families of prior designs
//! (Sections II and VI):
//!
//! * **Compute-bound cryptographic PoW** — Bitcoin's double SHA-256, the
//!   design most friendly to ASICs ([`Sha256dPow`]),
//! * **Memory-hard PoW** — scrypt / Equihash / Balloon style functions that
//!   force a large scratchpad ([`MemoryHardPow`]),
//! * **Random-program PoW** — RandomX-style explicit utilisation of a
//!   virtual machine's structures by uniformly random programs
//!   ([`RandomxLitePow`]), which the paper contrasts with HashCore's
//!   profile-targeted generation,
//! * **Widget selection** — the Section VI-A alternative in which widgets
//!   are *selected* from a fixed pre-generated pool instead of generated at
//!   run time ([`SelectionPow`]).
//!
//! Every baseline implements the one [`PowFunction`] trait, and
//! [`HashCorePow`] adapts the real `hashcore` implementation to it, so the
//! experiment harness (E7, E8), the chain and the network simulation drive
//! all five through one evaluation and one nonce scan. Code that sweeps
//! several of them calls one generic function per PoW.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod memory_hard;
mod randomx_lite;
mod selection;
mod sha256d_pow;

pub use memory_hard::{MemoryHardPow, MemoryHardScratch};
pub use randomx_lite::RandomxLitePow;
pub use selection::SelectionPow;
pub use sha256d_pow::Sha256dPow;

pub use hashcore::NONCE_LANES;
use hashcore::{HashCore, MiningInput, Target, VerifyCost};
use hashcore_crypto::Digest256;
use std::convert::Infallible;

/// A Proof-of-Work function: a deterministic map from arbitrary input bytes
/// to a 256-bit digest, evaluated through reusable per-worker scratch
/// state, plus enough metadata for comparative reporting.
///
/// An implementation supplies one evaluation, [`PowFunction::evaluate`],
/// and may override one lane hook, [`PowFunction::first_hit_in_lanes`].
/// [`PowFunction::pow_hash`] and [`PowFunction::scan_nonces`] are built on
/// those two and are never overridden.
pub trait PowFunction {
    /// Reusable per-worker evaluation state; `Default` produces a fresh,
    /// empty scratch whose buffers grow on first use. Batch consumers —
    /// chain validation, mining loops, experiment sweeps — keep one per
    /// worker and reuse its buffers across evaluations.
    type Scratch: Default + Send;

    /// Short name used in experiment tables.
    fn name(&self) -> &'static str;

    /// The dominant hardware resource the function stresses, as a coarse
    /// label used by the mining-market model (E9).
    fn dominant_resource(&self) -> ResourceClass;

    /// The nominal verifier-cost budget one evaluation of this function is
    /// expected to pay — what cost-aware difficulty normalises
    /// [`PowFunction::evaluate`] observations against.
    fn nominal_cost(&self) -> VerifyCost {
        VerifyCost::NOMINAL
    }

    /// Evaluates the PoW for `input` through `scratch`, returning the digest
    /// and the verifier-cost observation of that evaluation.
    ///
    /// The digest must not depend on the scratch's prior state. The cost
    /// must be a pure function of the input — every node observing a header
    /// must book the same cost, or cost-committing consensus would fork.
    /// Functions without a meaningful widget stage report their nominal
    /// budget (cost ratio 1), which makes cost-aware difficulty degrade
    /// gracefully to time-only retargeting.
    fn evaluate(&self, input: &[u8], scratch: &mut Self::Scratch) -> (Digest256, VerifyCost);

    /// The lane hook of [`PowFunction::scan_nonces`]: the first of the
    /// [`NONCE_LANES`] consecutive `nonces` of the header held in `input`
    /// whose digest meets `target`.
    ///
    /// The default evaluates the nonces one at a time and stops at the
    /// first hit. A function whose structure lets lanes share work (the
    /// SHA-256 hash gates) overrides it; an override returns the same hit
    /// and digest as the default.
    fn first_hit_in_lanes(
        &self,
        input: &mut MiningInput,
        nonces: [u64; NONCE_LANES],
        target: Target,
        scratch: &mut Self::Scratch,
    ) -> Option<(u64, Digest256)> {
        nonces.into_iter().find_map(|nonce| {
            let digest = self.evaluate(input.with_nonce(nonce), scratch).0;
            target.is_met_by(&digest).then_some((nonce, digest))
        })
    }

    /// Evaluates the PoW digest for `input` with a fresh scratch.
    fn pow_hash(&self, input: &[u8]) -> Digest256 {
        self.evaluate(input, &mut Self::Scratch::default()).0
    }

    /// Scans `attempts` nonces of the header held in `input` starting at
    /// `start`, returning the first `(nonce, digest)` meeting `target`.
    ///
    /// This is the mining loop of `Blockchain::mine_block` and the network
    /// simulation's nodes: [`MiningInput::scan`] with this function's lane
    /// hook for full batches and [`PowFunction::evaluate`] for the
    /// remainder. All per-attempt state lives in the caller's `input` and
    /// `scratch`, so the scan performs no steady-state allocation.
    ///
    /// # Nonce order and wraparound
    ///
    /// Attempt `k` evaluates nonce `start.wrapping_add(k)`, so the sequence
    /// wraps through `u64::MAX` to `0` and never revisits a nonce within one
    /// call (the nonce space is a cycle of length 2⁶⁴ ≥ `attempts`). A
    /// caller resuming an unfinished scan passes `start.wrapping_add(attempts)`
    /// as the next start — `start + attempts` would overflow near the top
    /// of the space and rescan nonces.
    fn scan_nonces(
        &self,
        input: &mut MiningInput,
        target: Target,
        start: u64,
        attempts: u64,
        scratch: &mut Self::Scratch,
    ) -> Option<(u64, Digest256)> {
        let found: Result<_, Infallible> = input.scan(
            target,
            start,
            attempts,
            scratch,
            |input, nonces, scratch| Ok(self.first_hit_in_lanes(input, nonces, target, scratch)),
            |input, scratch| Ok(self.evaluate(input, scratch).0),
        );
        let Ok(hit) = found;
        hit
    }
}

/// [`PowFunction`] under its earlier name, kept only because the
/// `benchmark` package imports the trait by both names.
pub use PowFunction as PreparedPow;

/// Coarse classification of what a PoW function stresses, used by the
/// mining-market cost model to reason about how much an ASIC can strip away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceClass {
    /// A single fixed cryptographic circuit (ideal ASIC territory).
    FixedFunction,
    /// Memory capacity / bandwidth.
    Memory,
    /// The full breadth of a general purpose processor.
    GeneralPurpose,
}

/// Adapter implementing [`PowFunction`] for the real HashCore function.
#[derive(Debug, Clone)]
pub struct HashCorePow {
    inner: HashCore,
}

impl HashCorePow {
    /// Wraps a configured [`HashCore`] instance.
    pub fn new(inner: HashCore) -> Self {
        Self { inner }
    }

    /// The wrapped instance.
    pub fn inner(&self) -> &HashCore {
        &self.inner
    }
}

const WIDGETS_HALT: &str = "generated widgets always execute within their step limit";

impl PowFunction for HashCorePow {
    type Scratch = hashcore::HashScratch;

    fn name(&self) -> &'static str {
        "hashcore"
    }

    fn dominant_resource(&self) -> ResourceClass {
        ResourceClass::GeneralPurpose
    }

    /// The profile budget: the generator's target dynamic instructions per
    /// widget times the widgets per hash. Output bytes (the paper's
    /// 20–38 kB) are omitted from the budget — they are orders of magnitude
    /// below the instruction count for any realistic profile, so the
    /// observed ratio stays within noise of 1 for on-profile widgets.
    fn nominal_cost(&self) -> VerifyCost {
        VerifyCost {
            instructions: self
                .inner
                .generator()
                .base_profile()
                .target_dynamic_instructions
                * self.inner.widgets_per_hash() as u64,
            output_bytes: 0,
        }
    }

    /// The real thing: one full evaluation, with the widget stage's actual
    /// dynamic instructions and output bytes as the cost observation.
    fn evaluate(&self, input: &[u8], scratch: &mut Self::Scratch) -> (Digest256, VerifyCost) {
        let out = self
            .inner
            .hash_with_scratch(input, scratch)
            .expect(WIDGETS_HALT);
        (out.digest, VerifyCost::from_widget(&out.widget))
    }

    /// The first hash gate runs four lanes wide; each lane's widget stage
    /// and second gate run only until a lane hits
    /// ([`HashCore::first_hit_in_lanes`]).
    fn first_hit_in_lanes(
        &self,
        input: &mut MiningInput,
        nonces: [u64; NONCE_LANES],
        target: Target,
        scratch: &mut Self::Scratch,
    ) -> Option<(u64, Digest256)> {
        self.inner
            .first_hit_in_lanes(input.header_bytes(), nonces, target, scratch)
            .expect(WIDGETS_HALT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashcore_profile::PerformanceProfile;

    /// One small instance of each of the five PoWs.
    fn five_pows() -> (
        Sha256dPow,
        MemoryHardPow,
        RandomxLitePow,
        SelectionPow,
        HashCorePow,
    ) {
        let mut profile = PerformanceProfile::leela_like();
        profile.target_dynamic_instructions = 3_000;
        (
            Sha256dPow,
            MemoryHardPow::new(16 * 1024, 2),
            RandomxLitePow::new(3_000),
            SelectionPow::new(profile.clone(), 4, 2),
            HashCorePow::new(HashCore::new(profile)),
        )
    }

    /// The first `(nonce, digest)` meeting `target` among `attempts` nonces
    /// from `start`, one fresh `pow_hash` per nonce: the reference every
    /// scan is held to.
    fn reference_scan<P: PowFunction>(
        pow: &P,
        header: &[u8],
        target: Target,
        start: u64,
        attempts: u64,
    ) -> Option<(u64, Digest256)> {
        (0..attempts).find_map(|k| {
            let nonce = start.wrapping_add(k);
            let digest = pow.pow_hash(&HashCore::mining_input(header, nonce));
            target.is_met_by(&digest).then_some((nonce, digest))
        })
    }

    /// Checks `pow` is deterministic and input-sensitive, and returns its
    /// name with the digest of a fixed input.
    fn checked_digest<P: PowFunction>(pow: &P) -> (&'static str, Digest256) {
        let input = b"comparative input";
        let digest = pow.pow_hash(input);
        assert_eq!(
            digest,
            pow.pow_hash(input),
            "{} must be deterministic",
            pow.name()
        );
        assert_ne!(digest, pow.pow_hash(b"other input"), "{}", pow.name());
        (pow.name(), digest)
    }

    #[test]
    fn all_pow_functions_are_deterministic_and_distinct() {
        let (sha, memory, randomx, selection, hashcore) = five_pows();
        let digests = [
            checked_digest(&sha),
            checked_digest(&memory),
            checked_digest(&randomx),
            checked_digest(&selection),
            checked_digest(&hashcore),
        ];
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(
                    digests[i].1, digests[j].1,
                    "{} vs {}",
                    digests[i].0, digests[j].0
                );
            }
        }
    }

    #[test]
    fn names_and_resources_are_assigned() {
        let (sha, memory, randomx, selection, hashcore) = five_pows();
        let names = [
            sha.name(),
            memory.name(),
            randomx.name(),
            selection.name(),
            hashcore.name(),
        ];
        assert_eq!(
            names,
            [
                "sha256d",
                "memory_hard",
                "randomx_lite",
                "widget_selection",
                "hashcore"
            ]
        );
        assert_eq!(sha.dominant_resource(), ResourceClass::FixedFunction);
        assert_eq!(memory.dominant_resource(), ResourceClass::Memory);
        assert_eq!(hashcore.dominant_resource(), ResourceClass::GeneralPurpose);
    }

    fn assert_scratch_reuse_matches_fresh<P: PowFunction>(pow: &P) {
        let mut scratch = P::Scratch::default();
        // One reused scratch over a stream of inputs must reproduce what a
        // fresh scratch gives every time — digest and cost alike.
        for input in [
            b"one".as_ref(),
            b"two".as_ref(),
            b"".as_ref(),
            b"one".as_ref(),
        ] {
            assert_eq!(
                pow.evaluate(input, &mut scratch),
                pow.evaluate(input, &mut P::Scratch::default()),
                "{} diverged on {input:?}",
                pow.name()
            );
        }
    }

    #[test]
    fn scratch_path_matches_plain_path_for_every_baseline() {
        let (sha, memory, randomx, selection, hashcore) = five_pows();
        assert_scratch_reuse_matches_fresh(&sha);
        assert_scratch_reuse_matches_fresh(&memory);
        assert_scratch_reuse_matches_fresh(&randomx);
        assert_scratch_reuse_matches_fresh(&selection);
        assert_scratch_reuse_matches_fresh(&hashcore);
    }

    #[test]
    fn default_mine_finds_easy_targets() {
        let target = Target::from_leading_zero_bits(4);
        let found = Sha256dPow
            .scan_nonces(&mut MiningInput::new(b"hdr"), target, 0, 256, &mut ())
            .expect("easy target");
        assert!(target.is_met_by(&found.1));
        assert_eq!(
            Some(found),
            reference_scan(&Sha256dPow, b"hdr", target, 0, 256)
        );
    }

    #[test]
    fn scan_nonces_matches_the_naive_mine_and_resumes() {
        let target = Target::from_leading_zero_bits(4);
        let pow = MemoryHardPow::new(16 * 1024, 2);
        let mem_scanned = pow.scan_nonces(
            &mut MiningInput::new(b"hdr"),
            target,
            0,
            256,
            &mut MemoryHardScratch::default(),
        );
        assert_eq!(mem_scanned, reference_scan(&pow, b"hdr", target, 0, 256));

        let scanned = Sha256dPow
            .scan_nonces(&mut MiningInput::new(b"hdr"), target, 0, 256, &mut ())
            .expect("easy target");
        assert_eq!(
            Some(scanned),
            reference_scan(&Sha256dPow, b"hdr", target, 0, 256)
        );
        // Resuming past the hit finds the next qualifying nonce, exactly as
        // the reference starting there would.
        let resumed = Sha256dPow.scan_nonces(
            &mut MiningInput::new(b"hdr"),
            target,
            scanned.0 + 1,
            256,
            &mut (),
        );
        assert_eq!(
            resumed,
            reference_scan(&Sha256dPow, b"hdr", target, scanned.0 + 1, 256)
        );
        assert!(resumed.expect("easy target").0 > scanned.0);
    }

    /// Every nonce the reference would visit — in order, across the u64
    /// wrap — is what the scan visits, and a resume at
    /// `start.wrapping_add(attempts)` continues it.
    #[test]
    fn scan_wraps_through_nonce_space_without_rescanning() {
        let target = Target::from_leading_zero_bits(4);
        let pow = Sha256dPow;
        let start = u64::MAX - 5;
        let expected = reference_scan(&pow, b"hdr", target, start, 64);
        assert!(expected.is_some(), "easy target within 64 nonces");
        let scanned = pow.scan_nonces(&mut MiningInput::new(b"hdr"), target, start, 64, &mut ());
        assert_eq!(scanned, expected);

        // A miss followed by a wrapped resume covers the same 64 nonces.
        let hard = Target::from_leading_zero_bits(255);
        assert_eq!(
            pow.scan_nonces(&mut MiningInput::new(b"hdr"), hard, start, 32, &mut ()),
            None
        );
        let resumed = pow.scan_nonces(
            &mut MiningInput::new(b"hdr"),
            target,
            start.wrapping_add(32),
            32,
            &mut (),
        );
        assert_eq!(
            resumed,
            reference_scan(&pow, b"hdr", target, start.wrapping_add(32), 32)
        );
    }

    fn assert_scan_matches_reference<P: PowFunction>(pow: &P, attempts: u64) {
        let target = Target::from_leading_zero_bits(4);
        let mut scratch = P::Scratch::default();
        for start in [0u64, 3, u64::MAX - 2] {
            let scanned = pow.scan_nonces(
                &mut MiningInput::new(b"hdr"),
                target,
                start,
                attempts,
                &mut scratch,
            );
            assert_eq!(
                scanned,
                reference_scan(pow, b"hdr", target, start, attempts),
                "{} start {start}",
                pow.name()
            );
        }
    }

    #[test]
    fn batch_scan_matches_scalar_scan_for_every_baseline() {
        let (sha, memory, randomx, selection, hashcore) = five_pows();
        assert_scan_matches_reference(&sha, 64);
        assert_scan_matches_reference(&memory, 32);
        assert_scan_matches_reference(&randomx, 24);
        assert_scan_matches_reference(&selection, 24);
        assert_scan_matches_reference(&hashcore, 24);
    }

    /// A PoW whose scratch counts its evaluations and whose digest meets
    /// every target.
    struct CountingPow;

    impl PowFunction for CountingPow {
        type Scratch = u64;

        fn name(&self) -> &'static str {
            "counting"
        }

        fn dominant_resource(&self) -> ResourceClass {
            ResourceClass::FixedFunction
        }

        fn evaluate(&self, _input: &[u8], evaluations: &mut u64) -> (Digest256, VerifyCost) {
            *evaluations += 1;
            ([0; 32], VerifyCost::NOMINAL)
        }
    }

    /// The default lane hook is lazy: with every nonce hitting, a scan of
    /// two full lane batches evaluates the first nonce and stops.
    #[test]
    fn default_lane_hook_stops_at_the_first_hit() {
        let mut evaluations = 0u64;
        let hit = CountingPow.scan_nonces(
            &mut MiningInput::new(b"hdr"),
            Target::from_leading_zero_bits(0),
            7,
            2 * NONCE_LANES as u64,
            &mut evaluations,
        );
        assert_eq!(hit, Some((7, [0; 32])));
        assert_eq!(evaluations, 1);
    }
}
