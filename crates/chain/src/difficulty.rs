//! The difficulty-retarget rule as a pure function of a branch's header
//! timestamps and targets — so a [`ForkTree`](crate::ForkTree) can compute
//! the *expected* target at every block of every branch, a single miner can
//! mine against it ([`ForkTree::mine_next`](crate::ForkTree::mine_next)),
//! and the network simulation can race adaptive-difficulty chains.
//!
//! The expected target of a child block is
//! [`DifficultyRule::child_target`] of its parent's (already-enforced)
//! target and the timestamp delta between them. Headers carry integer
//! timestamps, so branch evaluation observes the elapsed time a miner
//! *reported* — which is exactly what makes timestamp-manipulation attacks
//! expressible, and what the median-time-past/future-drift validity rule
//! in `hashcore-net` bounds.

use crate::block::{Block, BlockHeader};
use crate::chain::InvalidReason;
use hashcore::Target;
use hashcore_crypto::Digest256;

/// What a block's children read of it under a [`DifficultyRule`]: its
/// `(target, timestamp, cost commitment, observed cost ratio)`.
pub(crate) type BranchState = (Target, u64, u16, f64);

/// The [`BranchState`] of a block with this header and observed cost ratio.
pub(crate) fn branch_state(header: &BlockHeader, cost_ratio: f64) -> BranchState {
    (
        Target::from_threshold(header.target),
        header.timestamp,
        cost_commitment_of(header.version),
        cost_ratio,
    )
}

/// Parameters of the smoothed (EMA) retarget step: scale the target toward
/// the value that would have made the last block take `target_block_time`.
///
/// The time unit is whatever the caller's timestamps use — simulated
/// seconds in the single-miner experiments, simulated milliseconds in
/// `hashcore-net` — as long as `target_block_time` and the elapsed values
/// agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmaRetarget {
    /// The genesis target: the difficulty a chain's first block must embed.
    pub initial: Target,
    /// Desired time between blocks, in the same unit as the timestamps the
    /// rule is evaluated over.
    pub target_block_time: f64,
    /// Exponential-moving-average weight (0 = never adjust, 1 = jump
    /// straight to the implied difficulty); clamped to `[0, 1]` when
    /// applied.
    pub gain: f64,
}

impl EmaRetarget {
    /// Constructs the step parameters, rejecting (in debug builds) gains
    /// that are NaN or negative — values the clamp in
    /// [`EmaRetarget::step`] would silently coerce. The struct stays
    /// literal-constructible for the existing call sites; this constructor
    /// is the checked front door.
    pub fn new(initial: Target, target_block_time: f64, gain: f64) -> Self {
        debug_assert!(
            !gain.is_nan() && gain >= 0.0,
            "EMA gain must be a non-negative number, got {gain}"
        );
        debug_assert!(
            target_block_time.is_finite() && target_block_time > 0.0,
            "target block time must be positive and finite, got {target_block_time}"
        );
        Self {
            initial,
            target_block_time,
            gain,
        }
    }

    /// One retarget step: the target for the successor of a block that took
    /// `elapsed` time units at `current` difficulty.
    ///
    /// `elapsed > target_block_time` means blocks come too slow, so the
    /// target is scaled up (easier); too fast scales it down (harder). The
    /// per-step factor is clamped to `[0.25, 4]` and negative elapsed time
    /// (a child timestamp behind its parent's) is treated as zero — the
    /// maximum-hardening correction, not a panic. [`Target::scale`]
    /// saturates at the hardest (threshold 1) and easiest (2^255)
    /// representable targets.
    pub fn step(&self, current: Target, elapsed: f64) -> Target {
        let ratio = (elapsed / self.target_block_time).max(0.0);
        let gain = self.gain.clamp(0.0, 1.0);
        let factor = ratio.powf(gain).clamp(0.25, 4.0);
        current.scale(factor)
    }
}

/// The Q8.8 fixed-point cost commitment of the nominal ratio 1.0 — what a
/// genesis child (a block with no strict ancestors to average over)
/// carries under [`DifficultyRule::CostAware`].
pub const COST_COMMIT_ONE: u16 = 256;

/// Quantizes a verifier-cost EMA ratio to the Q8.8 commitment carried in a
/// header's version word. Clamped to `[1, u16::MAX]`: zero is reserved for
/// "no commitment" (the plain version-1 headers every non-cost-aware rule
/// mines), so a cost-aware chain can never alias a legacy header.
pub fn cost_quantize(ratio: f64) -> u16 {
    (ratio * f64::from(COST_COMMIT_ONE))
        .round()
        .clamp(1.0, f64::from(u16::MAX)) as u16
}

/// The verifier-cost EMA ratio a Q8.8 commitment stands for.
pub fn cost_dequantize(q: u16) -> f64 {
    f64::from(q) / f64::from(COST_COMMIT_ONE)
}

/// Packs a Q8.8 cost commitment into a header version word: base protocol
/// version 1 in the low 16 bits, the commitment in the high 16. The wire
/// layout is untouched — the commitment rides in bits every existing
/// header serialises as zero — and the commitment is part of the PoW input
/// (the version word is hashed), so a miner cannot grind it after the
/// fact.
pub fn pack_cost_commitment(q: u16) -> u32 {
    1 | (u32::from(q) << 16)
}

/// The Q8.8 cost commitment carried in a header version word — 0 (never a
/// valid commitment) for the plain version-1 headers non-cost-aware rules
/// mine.
pub fn cost_commitment_of(version: u32) -> u16 {
    (version >> 16) as u16
}

/// Parameters of the verifier-cost-aware retarget: the [`EmaRetarget`]
/// time step, combined with an EMA of observed verifier cost (dynamic
/// instructions plus output bytes, normalised against the profile budget)
/// that *hardens* the target when recent blocks trend expensive-to-verify.
///
/// The cost EMA is branch state, like the per-branch targets of the time
/// rule — but light clients validate headers without re-executing widgets
/// of ancestor bodies, so each header *commits* to its branch's cost EMA
/// (Q8.8, packed into the version word by [`pack_cost_commitment`]) and
/// every validator — full or header-only — checks the commitment
/// recurrence exactly: `q(child) = quantize(ema(parent) + cost_gain ·
/// (observed(parent) − ema(parent)))`, seeded at [`COST_COMMIT_ONE`] for
/// genesis children. Quantizing *before* each step makes the recurrence
/// bit-exact everywhere.
///
/// Two enforcement surfaces follow from the committed EMA:
///
/// * **target hardening** — the expected child target is the time step
///   scaled by `(1 / ema)^response`, clamped to `[1/4, 4]`: a branch
///   trending expensive mines against a harder target;
/// * **per-block admission** — a block whose *own* observed cost ratio is
///   `r` must meet `target.scale(min(1, (1/r)^response))` (floored at
///   1/16): an expensive-to-verify block needs proportionally more PoW
///   luck to be admitted at all, which is what actually taxes a miner who
///   steers seed selection toward expensive widgets (pure target scaling
///   cannot — it multiplies every miner's hit rate identically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostAwareRetarget {
    /// The time component — exactly the [`EmaRetarget`] step.
    pub time: EmaRetarget,
    /// EMA weight of each block's observed cost ratio folded into its
    /// successor's commitment; clamped to `[0, 1]` when applied.
    pub cost_gain: f64,
    /// Exponent shaping both the target hardening and the admission bound.
    pub response: f64,
}

impl CostAwareRetarget {
    /// Hardest admission scaling an expensive block can face: 1/16 of the
    /// expected target (two retarget clamp steps).
    pub const ADMISSION_FLOOR: f64 = 1.0 / 16.0;

    /// Constructs the rule parameters; debug builds reject NaN or negative
    /// gains and responses, mirroring [`EmaRetarget::new`].
    pub fn new(time: EmaRetarget, cost_gain: f64, response: f64) -> Self {
        debug_assert!(
            !cost_gain.is_nan() && cost_gain >= 0.0,
            "cost gain must be a non-negative number, got {cost_gain}"
        );
        debug_assert!(
            response.is_finite() && response >= 0.0,
            "cost response must be non-negative and finite, got {response}"
        );
        Self {
            time,
            cost_gain,
            response,
        }
    }

    /// The commitment a child of a block carrying `parent_q` must carry,
    /// given the parent's own observed cost ratio `parent_ratio`.
    pub fn child_commitment(&self, parent_q: u16, parent_ratio: f64) -> u16 {
        let gain = self.cost_gain.clamp(0.0, 1.0);
        let ema = cost_dequantize(parent_q);
        cost_quantize(ema + gain * (parent_ratio - ema))
    }

    /// The scale the committed cost EMA applies on top of the time step:
    /// `(1 / ema)^response`, clamped to the time step's own `[1/4, 4]`.
    fn cost_factor(&self, ema_ratio: f64) -> f64 {
        (1.0 / ema_ratio.max(f64::MIN_POSITIVE))
            .powf(self.response)
            .clamp(0.25, 4.0)
    }

    /// The expected target of a child carrying commitment `child_q`.
    pub fn child_target(
        &self,
        parent_target: Target,
        parent_timestamp: u64,
        child_timestamp: u64,
        child_q: u16,
    ) -> Target {
        self.time
            .step(
                parent_target,
                child_timestamp as f64 - parent_timestamp as f64,
            )
            .scale(self.cost_factor(cost_dequantize(child_q)))
    }

    /// The admission target of a block whose own observed cost ratio is
    /// `own_ratio`: its digest must meet this *in addition to* the
    /// expected target. Cheap blocks get no bonus (the scale caps at 1);
    /// expensive blocks need up to 16× more PoW luck.
    pub fn admission_target(&self, expected: Target, own_ratio: f64) -> Target {
        let factor = (1.0 / own_ratio.max(f64::MIN_POSITIVE))
            .powf(self.response)
            .clamp(Self::ADMISSION_FLOOR, 1.0);
        expected.scale(factor)
    }
}

/// A difficulty policy evaluable along any branch from headers alone.
///
/// [`Fixed`](DifficultyRule::Fixed) is the classic fixed-difficulty
/// simulation: every block of every branch must embed exactly the
/// consensus target (the branch-aware generalisation of the old flat
/// target-policy check — behaviourally identical, which the fork proptests
/// pin). [`Ema`](DifficultyRule::Ema) retargets per block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DifficultyRule {
    /// Constant difficulty: the expected target of every block is this one.
    Fixed(Target),
    /// Smoothed per-block retargeting on reported timestamps.
    Ema(EmaRetarget),
    /// Verifier-cost-aware retargeting: the time step of
    /// [`Ema`](DifficultyRule::Ema) combined with a committed EMA of
    /// observed verifier cost and a per-block admission bound (see
    /// [`CostAwareRetarget`]).
    CostAware(CostAwareRetarget),
}

impl DifficultyRule {
    /// The target the chain's first block (a genesis child) must embed.
    pub fn genesis_target(&self) -> Target {
        match self {
            DifficultyRule::Fixed(target) => *target,
            DifficultyRule::Ema(ema) => ema.initial,
            // A genesis child commits to the nominal cost EMA (ratio 1),
            // whose cost factor is exactly 1.
            DifficultyRule::CostAware(cost) => cost.time.initial,
        }
    }

    /// The cost-aware parameters, when this rule carries them.
    pub fn cost_aware(&self) -> Option<&CostAwareRetarget> {
        match self {
            DifficultyRule::CostAware(cost) => Some(cost),
            DifficultyRule::Fixed(_) | DifficultyRule::Ema(_) => None,
        }
    }

    /// The version word a block extending a parent with commitment
    /// `parent_q` and observed cost ratio `parent_ratio` must carry —
    /// `None` for rules without a cost commitment, whose blocks carry the
    /// plain version 1. `None` for `parent_q`/`parent_ratio` means the
    /// parent is genesis.
    pub fn expected_version(&self, parent: Option<(u16, f64)>) -> Option<u32> {
        let cost = self.cost_aware()?;
        let q = match parent {
            None => COST_COMMIT_ONE,
            Some((parent_q, parent_ratio)) => cost.child_commitment(parent_q, parent_ratio),
        };
        Some(pack_cost_commitment(q))
    }

    /// `true` when a block whose digest met its expected target also
    /// clears the per-block cost admission bound — vacuously `true` for
    /// rules without one. `own_ratio` is the block's *own* observed
    /// verifier-cost ratio.
    pub fn admits(&self, expected: Target, digest: &[u8; 32], own_ratio: f64) -> bool {
        match self.cost_aware() {
            None => true,
            Some(cost) => cost.admission_target(expected, own_ratio).is_met_by(digest),
        }
    }

    /// The branch-independent expected target, when the rule has one —
    /// `Some` for [`Fixed`](DifficultyRule::Fixed), `None` for rules whose
    /// expectation depends on the branch. A `Some` lets callers reject a
    /// wrong-target block before any hashing or parent lookup.
    pub fn flat_target(&self) -> Option<Target> {
        match self {
            DifficultyRule::Fixed(target) => Some(*target),
            DifficultyRule::Ema(_) | DifficultyRule::CostAware(_) => None,
        }
    }

    /// The expected target of a child block, from its parent's (enforced)
    /// target and the reported timestamps of both — the branch-evaluable
    /// form [`ForkTree`](crate::ForkTree) enforces along every branch.
    ///
    /// Under [`CostAware`](DifficultyRule::CostAware) this is the
    /// expectation for a child committing to the *nominal* cost EMA
    /// ([`COST_COMMIT_ONE`]); callers holding the child's header use
    /// [`committed_child_target`](DifficultyRule::committed_child_target),
    /// which reads the commitment the header actually carries.
    pub fn child_target(
        &self,
        parent_target: Target,
        parent_timestamp: u64,
        child_timestamp: u64,
    ) -> Target {
        match self {
            DifficultyRule::Fixed(target) => *target,
            DifficultyRule::Ema(ema) => ema.step(
                parent_target,
                child_timestamp as f64 - parent_timestamp as f64,
            ),
            DifficultyRule::CostAware(cost) => cost.child_target(
                parent_target,
                parent_timestamp,
                child_timestamp,
                COST_COMMIT_ONE,
            ),
        }
    }

    /// The expected target of a child block whose header is in hand:
    /// [`child_target`](DifficultyRule::child_target), except that under
    /// [`CostAware`](DifficultyRule::CostAware) the cost factor reads the
    /// commitment embedded in `child_version`. `prev` is the parent's
    /// `(target, timestamp)`, or `None` for a genesis child.
    ///
    /// The embedded commitment is taken at face value here — whether it
    /// satisfies the commitment *recurrence* needs the parent's observed
    /// cost, which only the hashing validator knows; a block whose
    /// commitment lies about its branch still fails at apply time.
    pub fn committed_child_target(
        &self,
        prev: Option<(Target, u64)>,
        child_timestamp: u64,
        child_version: u32,
    ) -> Target {
        match self {
            DifficultyRule::Fixed(_) | DifficultyRule::Ema(_) => match prev {
                None => self.genesis_target(),
                Some((target, timestamp)) => self.child_target(target, timestamp, child_timestamp),
            },
            DifficultyRule::CostAware(cost) => {
                let q = cost_commitment_of(child_version);
                match prev {
                    // The only commitment a genesis child may carry: its
                    // target is the initial one exactly, since `scale`
                    // rounds thresholds wider than an f64 even at 1.0.
                    None if q == COST_COMMIT_ONE => self.genesis_target(),
                    None => cost
                        .time
                        .initial
                        .scale(cost.cost_factor(cost_dequantize(q))),
                    Some((target, timestamp)) => {
                        cost.child_target(target, timestamp, child_timestamp, q)
                    }
                }
            }
        }
    }

    /// [`expected_version`](DifficultyRule::expected_version) of a child of
    /// a block in state `parent` (`None` for a genesis child).
    pub(crate) fn expected_child_version(&self, parent: Option<BranchState>) -> Option<u32> {
        self.expected_version(parent.map(|(_, _, q, ratio)| (q, ratio)))
    }

    /// The target a child of a block in state `parent` (`None` for a
    /// genesis child) must embed when it carries the version word
    /// [`expected_child_version`](DifficultyRule::expected_child_version)
    /// demands.
    pub(crate) fn expected_child_target(
        &self,
        parent: Option<BranchState>,
        child_timestamp: u64,
    ) -> Target {
        self.committed_child_target(
            parent.map(|(target, timestamp, _, _)| (target, timestamp)),
            child_timestamp,
            self.expected_child_version(parent).unwrap_or(1),
        )
    }

    /// The per-block rule check every validator runs once a block's parent
    /// is resolved and its digest meets its embedded target: the version
    /// word's cost commitment and the expected target (both
    /// [`InvalidReason::Target`]), then the cost admission bound
    /// ([`InvalidReason::Pow`]). `parent` is `None` for a genesis child;
    /// `digest` and `cost_ratio` come from the caller's one hash
    /// evaluation.
    pub(crate) fn check_child(
        &self,
        parent: Option<BranchState>,
        header: &BlockHeader,
        digest: &Digest256,
        cost_ratio: f64,
    ) -> Result<(), InvalidReason> {
        let version = self.expected_child_version(parent);
        if version.is_some_and(|version| header.version != version) {
            return Err(InvalidReason::Target);
        }
        let expected = self.expected_child_target(parent, header.timestamp);
        if header.target != *expected.threshold() {
            return Err(InvalidReason::Target);
        }
        if !self.admits(expected, digest, cost_ratio) {
            return Err(InvalidReason::Pow);
        }
        Ok(())
    }

    /// `true` when every block of a contiguous segment embeds exactly the
    /// target this rule expects along it. `anchor` is the `(target,
    /// timestamp)` of the stored block the segment extends, or `None` when
    /// the segment starts at genesis. Pure header arithmetic — no hashing —
    /// so nodes run it before the batched verifier burns any work. Under
    /// [`CostAware`](DifficultyRule::CostAware) each block's embedded cost
    /// commitment feeds its own expected target; the commitment recurrence
    /// itself is enforced at apply time, where observed costs exist.
    pub fn segment_targets_valid(&self, anchor: Option<(Target, u64)>, blocks: &[Block]) -> bool {
        let mut prev = anchor;
        for block in blocks {
            let expected =
                self.committed_child_target(prev, block.header.timestamp, block.header.version);
            if block.header.target != *expected.threshold() {
                return false;
            }
            prev = Some((expected, block.header.timestamp));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockHeader;

    fn ema() -> EmaRetarget {
        EmaRetarget {
            initial: Target::from_leading_zero_bits(8),
            target_block_time: 15.0,
            gain: 0.3,
        }
    }

    #[test]
    fn on_time_blocks_leave_the_target_unchanged() {
        let rule = ema();
        let t = Target::from_leading_zero_bits(12);
        assert_eq!(rule.step(t, 15.0), t.scale(1.0));
    }

    #[test]
    fn slow_blocks_ease_and_fast_blocks_harden() {
        let rule = ema();
        let t = Target::from_leading_zero_bits(12);
        assert!(rule.step(t, 60.0).threshold() > t.threshold());
        assert!(rule.step(t, 1.0).threshold() < t.threshold());
    }

    #[test]
    fn negative_and_zero_elapsed_apply_the_full_hardening_clamp() {
        let rule = DifficultyRule::Ema(ema());
        let t = Target::from_leading_zero_bits(12);
        let zero = rule.child_target(t, 1_000, 1_000);
        assert_eq!(zero, t.scale(0.25));
        // A child timestamp behind its parent's is clamped to zero elapsed,
        // never a NaN scale factor.
        assert_eq!(rule.child_target(t, 1_000, 400), zero);
        assert_eq!(rule.child_target(t, 1_123, 1_000), zero);
    }

    #[test]
    fn gain_boundaries_freeze_or_fully_apply_the_ratio() {
        let t = Target::from_leading_zero_bits(12);
        let frozen = EmaRetarget { gain: 0.0, ..ema() };
        // gain 0: ratio^0 = 1 for every elapsed, including zero.
        assert_eq!(frozen.step(t, 0.0), t.scale(1.0));
        assert_eq!(frozen.step(t, 1_000.0), t.scale(1.0));
        let full = EmaRetarget { gain: 1.0, ..ema() };
        assert_eq!(full.step(t, 30.0), t.scale(2.0));
        // Out-of-range gains clamp to the boundaries.
        let below = EmaRetarget {
            gain: -3.0,
            ..ema()
        };
        assert_eq!(below.step(t, 30.0), frozen.step(t, 30.0));
        let above = EmaRetarget { gain: 7.0, ..ema() };
        assert_eq!(above.step(t, 30.0), full.step(t, 30.0));
    }

    #[test]
    fn repeated_zero_elapsed_steps_saturate_at_the_hardest_target() {
        // Each zero-elapsed step quarters the threshold; from 2 leading zero
        // bits, 200 steps pass the hardest representable threshold (1),
        // which absorbs every further step.
        let rule = ema();
        let mut target = Target::from_leading_zero_bits(2);
        for _ in 0..200 {
            target = rule.step(target, 0.0);
        }
        let mut hardest = [0u8; 32];
        hardest[31] = 1;
        assert_eq!(*target.threshold(), hardest);
        assert_eq!(rule.step(target, 0.0), target);
    }

    #[test]
    fn huge_elapsed_steps_saturate_at_the_easiest_target() {
        // Each catastrophically slow step quadruples the threshold; from 16
        // leading zero bits, 12 steps pass the easiest representable
        // threshold (2^255), which absorbs every further step.
        let rule = EmaRetarget { gain: 1.0, ..ema() };
        let mut target = Target::from_leading_zero_bits(16);
        for _ in 0..12 {
            target = rule.step(target, 1e9);
        }
        let mut easiest = [0u8; 32];
        easiest[0] = 0x80;
        assert_eq!(*target.threshold(), easiest);
        assert_eq!(rule.step(target, 1e12), target);
    }

    #[test]
    fn fixed_rule_expects_its_target_everywhere() {
        let t = Target::from_leading_zero_bits(4);
        let rule = DifficultyRule::Fixed(t);
        assert_eq!(rule.genesis_target(), t);
        assert_eq!(rule.flat_target(), Some(t));
        assert_eq!(rule.child_target(Target::MAX, 0, 99), t);
        assert_eq!(rule.child_target(Target::MAX, 5, 1), t);
        assert_eq!(DifficultyRule::Ema(ema()).flat_target(), None);
    }

    fn block_with(timestamp: u64, target: Target) -> Block {
        Block {
            header: BlockHeader {
                version: 1,
                prev_hash: [0u8; 32],
                merkle_root: [0u8; 32],
                timestamp,
                target: *target.threshold(),
                nonce: 0,
            },
            transactions: Vec::new(),
        }
    }

    #[test]
    fn segment_target_validation_walks_the_expectations() {
        let rule = DifficultyRule::Ema(ema());
        let genesis = rule.genesis_target();
        // Three blocks with uneven gaps, so each expected target differs.
        let t1 = genesis;
        let t2 = rule.child_target(t1, 0, 60);
        let t3 = rule.child_target(t2, 60, 63);
        assert_ne!(t2, t3);
        let good = vec![block_with(0, t1), block_with(60, t2), block_with(63, t3)];
        assert!(rule.segment_targets_valid(None, &good));
        // Anchored mid-chain: the same suffix validates from its anchor.
        assert!(rule.segment_targets_valid(Some((t1, 0)), &good[1..]));
        // An empty segment is vacuously valid.
        assert!(rule.segment_targets_valid(None, &[]));
        // One block embedding a stale target breaks the walk.
        let mut bad = good.clone();
        bad[2].header.target = *t2.threshold();
        assert!(!rule.segment_targets_valid(None, &bad));
        // The wrong anchor state propagates into a mismatch.
        assert!(!rule.segment_targets_valid(Some((Target::MAX, 0)), &good[1..]));
    }

    #[test]
    fn checked_constructor_accepts_the_boundary_gains_exactly() {
        // 0.0 and 1.0 are the clamp boundaries — both legal, and both must
        // behave identically through `new` and through a literal.
        let t = Target::from_leading_zero_bits(12);
        for gain in [0.0, 1.0] {
            let built = EmaRetarget::new(t, 15.0, gain);
            let literal = EmaRetarget {
                initial: t,
                target_block_time: 15.0,
                gain,
            };
            assert_eq!(built, literal);
            assert_eq!(built.step(t, 30.0), literal.step(t, 30.0));
        }
    }

    #[test]
    #[should_panic(expected = "EMA gain must be a non-negative number")]
    #[cfg(debug_assertions)]
    fn checked_constructor_rejects_nan_gain() {
        let _ = EmaRetarget::new(Target::MAX, 15.0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "EMA gain must be a non-negative number")]
    #[cfg(debug_assertions)]
    fn checked_constructor_rejects_negative_gain() {
        let _ = EmaRetarget::new(Target::MAX, 15.0, -0.5);
    }

    #[test]
    #[should_panic(expected = "target block time must be positive")]
    #[cfg(debug_assertions)]
    fn checked_constructor_rejects_zero_block_time() {
        let _ = EmaRetarget::new(Target::MAX, 0.0, 0.5);
    }

    fn cost_aware() -> CostAwareRetarget {
        CostAwareRetarget::new(ema(), 0.5, 2.0)
    }

    #[test]
    #[should_panic(expected = "cost gain must be a non-negative number")]
    #[cfg(debug_assertions)]
    fn cost_aware_constructor_rejects_nan_gain() {
        let _ = CostAwareRetarget::new(ema(), f64::NAN, 2.0);
    }

    #[test]
    fn cost_commitment_quantization_roundtrips_on_the_grid() {
        assert_eq!(cost_quantize(1.0), COST_COMMIT_ONE);
        assert_eq!(cost_dequantize(COST_COMMIT_ONE), 1.0);
        for q in [1u16, 255, 256, 257, 1024, u16::MAX] {
            assert_eq!(cost_quantize(cost_dequantize(q)), q);
        }
        // Zero is reserved: even a vanishing ratio quantizes to at least 1.
        assert_eq!(cost_quantize(0.0), 1);
        assert_eq!(cost_quantize(1e9), u16::MAX);
    }

    #[test]
    fn version_word_packing_keeps_the_base_version_and_carries_q() {
        let v = pack_cost_commitment(COST_COMMIT_ONE);
        assert_eq!(v & 0xFFFF, 1);
        assert_eq!(cost_commitment_of(v), COST_COMMIT_ONE);
        // A plain legacy header carries no commitment.
        assert_eq!(cost_commitment_of(1), 0);
    }

    #[test]
    fn commitment_recurrence_is_a_quantized_ema() {
        let cost = cost_aware();
        // A nominal-cost parent leaves the commitment at one.
        assert_eq!(cost.child_commitment(COST_COMMIT_ONE, 1.0), COST_COMMIT_ONE);
        // gain 0.5 toward ratio 3: ema 1 → 2.
        assert_eq!(
            cost.child_commitment(COST_COMMIT_ONE, 3.0),
            2 * COST_COMMIT_ONE
        );
        // The recurrence quantizes each step, so replaying it from the
        // quantized value is bit-exact — the property light validation
        // relies on.
        let q1 = cost.child_commitment(COST_COMMIT_ONE, 2.731);
        let q2 = cost.child_commitment(q1, 0.301);
        assert_eq!(cost.child_commitment(q1, 0.301), q2);
    }

    #[test]
    fn expensive_branches_mine_against_harder_targets() {
        let rule = DifficultyRule::CostAware(cost_aware());
        let t = Target::from_leading_zero_bits(12);
        // Nominal commitment: exactly the Ema time step (factor 1).
        let on_time =
            rule.committed_child_target(Some((t, 0)), 15, pack_cost_commitment(COST_COMMIT_ONE));
        assert_eq!(
            on_time,
            DifficultyRule::Ema(ema()).child_target(t, 0, 15).scale(1.0)
        );
        // An expensive branch (EMA ratio 2, response 2) hardens 4×.
        let expensive = rule.committed_child_target(
            Some((t, 0)),
            15,
            pack_cost_commitment(2 * COST_COMMIT_ONE),
        );
        assert_eq!(expensive, ema().step(t, 15.0).scale(0.25));
        // A cheap branch eases, clamped at 4×.
        let cheap = rule.committed_child_target(
            Some((t, 0)),
            15,
            pack_cost_commitment(COST_COMMIT_ONE / 4),
        );
        assert_eq!(cheap, ema().step(t, 15.0).scale(4.0));
    }

    #[test]
    fn admission_taxes_expensive_blocks_only() {
        let cost = cost_aware();
        let expected = Target::from_leading_zero_bits(12);
        // Cheap or nominal blocks get no bonus: the admission target is the
        // expected target itself.
        assert_eq!(cost.admission_target(expected, 1.0), expected.scale(1.0));
        assert_eq!(cost.admission_target(expected, 0.25), expected.scale(1.0));
        // Ratio 2 at response 2 needs 4× more luck.
        assert_eq!(cost.admission_target(expected, 2.0), expected.scale(0.25));
        // The floor bounds the tax at 16×.
        assert_eq!(
            cost.admission_target(expected, 1e6),
            expected.scale(CostAwareRetarget::ADMISSION_FLOOR)
        );
    }

    #[test]
    fn admits_is_vacuous_without_a_cost_component() {
        let expected = Target::from_leading_zero_bits(30);
        let digest = [0xFFu8; 32]; // meets nothing
        assert!(DifficultyRule::Fixed(expected).admits(expected, &digest, 100.0));
        assert!(DifficultyRule::Ema(ema()).admits(expected, &digest, 100.0));
        let rule = DifficultyRule::CostAware(cost_aware());
        // A digest just under the expected threshold passes at nominal cost
        // but fails once its own cost scales the bound down.
        let easy = Target::from_leading_zero_bits(8);
        // Threshold 2^248; the digest 2^248 − 1 meets it by exactly one.
        let mut near_miss = [0xFFu8; 32];
        near_miss[0] = 0x00;
        assert!(easy.is_met_by(&near_miss));
        assert!(rule.admits(easy, &near_miss, 1.0));
        assert!(!rule.admits(easy, &near_miss, 2.0));
    }

    #[test]
    fn expected_version_threads_the_commitment_chain() {
        let rule = DifficultyRule::CostAware(cost_aware());
        assert_eq!(DifficultyRule::Ema(ema()).expected_version(None), None);
        let genesis_child = rule.expected_version(None).unwrap();
        assert_eq!(cost_commitment_of(genesis_child), COST_COMMIT_ONE);
        let next = rule.expected_version(Some((COST_COMMIT_ONE, 3.0))).unwrap();
        assert_eq!(cost_commitment_of(next), 2 * COST_COMMIT_ONE);
    }

    #[test]
    fn cost_aware_segments_validate_with_their_embedded_commitments() {
        let cost = cost_aware();
        let rule = DifficultyRule::CostAware(cost);
        let q1 = COST_COMMIT_ONE;
        let q2 = cost.child_commitment(q1, 2.0);
        let t1 = rule.committed_child_target(None, 0, pack_cost_commitment(q1));
        let t2 = rule.committed_child_target(Some((t1, 0)), 60, pack_cost_commitment(q2));
        let mut b1 = block_with(0, t1);
        b1.header.version = pack_cost_commitment(q1);
        let mut b2 = block_with(60, t2);
        b2.header.version = pack_cost_commitment(q2);
        let good = vec![b1, b2];
        assert!(rule.segment_targets_valid(None, &good));
        assert!(rule.segment_targets_valid(Some((t1, 0)), &good[1..]));
        // A block embedding the right target for the *wrong* commitment
        // fails the walk: the embedded q feeds its own expectation.
        let mut bad = good.clone();
        bad[1].header.version = pack_cost_commitment(q1);
        assert!(!rule.segment_targets_valid(None, &bad));
    }
}
