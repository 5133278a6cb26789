//! Block validation: the rejection taxonomy shared by every validator, and
//! the sequential and parallel segment validators that re-check a received
//! block sequence, optionally enforcing a [`DifficultyRule`] along it.

use crate::block::Block;
use crate::difficulty::{branch_state, DifficultyRule};
use hashcore::Target;
use hashcore_baselines::PowFunction;
use hashcore_crypto::Digest256;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Machine-readable classification of why a block failed validation — the
/// rejection taxonomy shared by the sequential and parallel validators, the
/// fork tree, and the network layer's per-peer rejection accounting. The
/// sequential and parallel paths report identical reasons; `Display`
/// preserves the historical human-readable wording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvalidReason {
    /// The block's `prev_hash` does not link to the expected parent digest.
    Linkage,
    /// The Merkle root does not commit to the block's transactions.
    Merkle,
    /// The header's PoW digest does not meet the block's recorded target.
    Pow,
    /// The block's embedded target is not the one the difficulty rule
    /// expects at its position on the branch (reported by rule-enforcing
    /// [`HeaderChain`](crate::HeaderChain)s and segment validators given a
    /// [`RuleContext`], and by the network layer's target policy; without
    /// a rule, embedded targets are trusted).
    Target,
}

impl fmt::Display for InvalidReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InvalidReason::Linkage => "previous-hash linkage broken",
            InvalidReason::Merkle => "merkle root does not commit to the transactions",
            InvalidReason::Pow => "proof of work does not meet the recorded target",
            InvalidReason::Target => "embedded target violates the difficulty rule",
        })
    }
}

/// Errors returned by chain operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// Mining gave up before finding a qualifying nonce.
    MiningExhausted {
        /// The attempt budget that was exhausted.
        attempts: u64,
    },
    /// A block failed validation.
    InvalidBlock {
        /// Height of the offending block.
        height: usize,
        /// Which check failed.
        reason: InvalidReason,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::MiningExhausted { attempts } => {
                write!(f, "no qualifying nonce within {attempts} attempts")
            }
            ChainError::InvalidBlock { height, reason } => {
                write!(f, "block {height} is invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// Rule-enforcement context for the `_with_rule` segment validators: the
/// difficulty rule to enforce, plus the branch state of the stored block
/// the segment extends ([`HeaderChain::rule_context`](crate::HeaderChain::rule_context)
/// builds it).
///
/// Without a context the validators trust embedded targets; with one they
/// additionally run the per-block rule check a rule-enforcing
/// [`ForkTree::apply`](crate::ForkTree::apply) runs — cost-commitment
/// recurrence, expected target, and the per-block cost admission bound —
/// so a segment that validates cleanly is guaranteed to apply cleanly too
/// (apply failures can then only be duplicates).
#[derive(Debug, Clone, Copy)]
pub struct RuleContext<'a> {
    /// The rule to enforce along the segment.
    pub rule: &'a DifficultyRule,
    /// `(target, timestamp, cost_commitment, cost_ratio)` of the anchor
    /// block the segment extends; `None` when the segment starts at
    /// genesis. The commitment and ratio are ignored by rules without a
    /// cost component (pass `0`/`1.0`).
    pub anchor: Option<(Target, u64, u16, f64)>,
}

/// Validates a contiguous chain segment whose first block extends the block
/// with PoW digest `prev_hash` ([`GENESIS_HASH`](crate::GENESIS_HASH) for a
/// whole chain) — the sequential reference the parallel validators are
/// held to. Per block the check order is linkage, Merkle, embedded-target
/// PoW, then, when `ctx` is
/// supplied, the [`DifficultyRule`] checks along the segment: version
/// commitment and expected target as [`InvalidReason::Target`], the cost
/// admission bound as [`InvalidReason::Pow`].
///
/// One [`PowFunction::Scratch`] and one header buffer serve every block.
/// Heights in errors are relative to the start of the segment.
///
/// A valid segment returns each block's PoW digest and cost ratio (cost
/// units over the PoW function's nominal budget), in order: what
/// [`ForkTree::apply_evaluated`](crate::ForkTree::apply_evaluated) takes,
/// with a body verdict of `true` since every body was checked, so a node
/// that syncs the segment evaluates and checks each block once.
///
/// # Errors
///
/// Returns the first [`ChainError::InvalidBlock`] found.
pub fn validate_segment_with_rule<P: PowFunction>(
    pow: &P,
    blocks: &[Block],
    mut prev_hash: Digest256,
    ctx: Option<RuleContext<'_>>,
) -> Result<Vec<(Digest256, f64)>, ChainError> {
    let nominal = pow.nominal_cost();
    let mut scratch = P::Scratch::default();
    let mut header_bytes = Vec::new();
    let mut state = ctx.and_then(|ctx| ctx.anchor);
    let mut evaluated = Vec::with_capacity(blocks.len());
    for (height, block) in blocks.iter().enumerate() {
        let invalid = |reason| Err(ChainError::InvalidBlock { height, reason });
        if block.header.prev_hash != prev_hash {
            return invalid(InvalidReason::Linkage);
        }
        if !block.merkle_consistent() {
            return invalid(InvalidReason::Merkle);
        }
        block.header.write_bytes(&mut header_bytes);
        let (digest, cost) = pow.evaluate(&header_bytes, &mut scratch);
        if !Target::from_threshold(block.header.target).is_met_by(&digest) {
            return invalid(InvalidReason::Pow);
        }
        let ratio = cost.ratio(nominal);
        if let Some(ctx) = &ctx {
            if let Err(reason) = ctx.rule.check_child(state, &block.header, &digest, ratio) {
                return invalid(reason);
            }
            state = Some(branch_state(&block.header, ratio));
        }
        evaluated.push((digest, ratio));
        prev_hash = digest;
    }
    Ok(evaluated)
}

/// The per-chunk result of one parallel-validation worker.
struct ChunkOutcome {
    /// Height of the chunk's first block.
    lo: usize,
    /// Lowest-height check failure inside the chunk (the chunk's first
    /// block's linkage is checked by the stitch phase instead).
    first_error: Option<(usize, InvalidReason)>,
    /// PoW digest of the chunk's last block header, for the next chunk's
    /// boundary linkage check.
    last_digest: Digest256,
    /// Per-block `(digest, cost ratio)` observations, in chunk order: the
    /// stitch phase replays the (pure-arithmetic) rule walk over them, and
    /// a valid segment returns them. May stop short when the worker was
    /// cut off, which can only happen above the globally first error
    /// height.
    observed: Vec<(Digest256, f64)>,
}

/// Validates a contiguous chain segment anchored at `prev_hash` in parallel
/// with no difficulty rule — [`validate_segment_parallel_with_rule`] without
/// a context. This is the hot path of segment sync: a node catching up
/// after a partition fans the received segment out across its hardware
/// threads.
///
/// # Errors
///
/// Returns the same [`ChainError::InvalidBlock`] the sequential path would.
///
/// # Panics
///
/// Panics if `threads` is zero, or if a validation worker panics.
pub fn validate_segment_parallel<P: PowFunction + Sync>(
    pow: &P,
    blocks: &[Block],
    threads: usize,
    prev_hash: Digest256,
) -> Result<Vec<(Digest256, f64)>, ChainError> {
    validate_segment_parallel_with_rule(pow, blocks, threads, prev_hash, None)
}

/// The parallel form of [`validate_segment_with_rule`], with results —
/// each block's digest and cost ratio on acceptance, and the height *and
/// reason* of the first invalid block on rejection — identical to it.
///
/// The sequence is split into contiguous chunks, one per worker, fanned out
/// with `std::thread::scope` exactly like `HashCore::mine_parallel`: each
/// worker owns one [`PowFunction::Scratch`] and one header buffer, so
/// per-block validation performs no steady-state allocation. Workers check
/// internal linkage, Merkle commitments and PoW targets in the sequential
/// order, recording each block's `(digest, cost ratio)`; chunk-boundary
/// linkage is stitched afterwards from each chunk's last digest, and the
/// rule walk (version commitment, expected target, cost admission) is pure
/// arithmetic that runs in the stitch phase over the recorded
/// observations, in sequential order. Error reporting is deterministic
/// lowest-height-first, and at equal heights a basic failure wins over a
/// rule failure: every block below the sequential path's first failure
/// validates cleanly here too, so the minimum-height failure is exactly
/// the sequential failure, regardless of thread count or scheduling.
///
/// # Errors
///
/// Returns the same [`ChainError::InvalidBlock`] the sequential path would.
///
/// # Panics
///
/// Panics if `threads` is zero, or if a validation worker panics.
pub fn validate_segment_parallel_with_rule<P: PowFunction + Sync>(
    pow: &P,
    blocks: &[Block],
    threads: usize,
    prev_hash: Digest256,
    ctx: Option<RuleContext<'_>>,
) -> Result<Vec<(Digest256, f64)>, ChainError> {
    assert!(
        threads > 0,
        "segment validation requires at least one thread"
    );
    let threads = threads.min(blocks.len());
    if threads <= 1 {
        return validate_segment_with_rule(pow, blocks, prev_hash, ctx);
    }
    let nominal = pow.nominal_cost();

    // Lowest height at which any worker found a genuine check failure.
    // Blocks above it cannot affect the result (the lowest-height candidate
    // wins), so workers stop scanning past it — an adversarially invalid
    // chain costs roughly one failing block of PoW work, as in the
    // sequential path, instead of a full-chain re-evaluation. Every cutoff
    // value is a worker-detected error, and no block below the sequential
    // first failure can fail a worker's check, so the worker owning the
    // true first failure is never cut off before reaching it.
    let cutoff = AtomicUsize::new(usize::MAX);
    let chunk = blocks.len().div_ceil(threads);
    let outcomes: Vec<ChunkOutcome> = thread::scope(|scope| {
        let cutoff = &cutoff;
        let handles: Vec<_> = (0..threads)
            .map(|w| (w * chunk, ((w + 1) * chunk).min(blocks.len())))
            .filter(|(lo, hi)| lo < hi)
            .map(|(lo, hi)| {
                scope.spawn(move || {
                    let mut scratch = P::Scratch::default();
                    let mut header_bytes = Vec::new();
                    let mut prev_digest: Option<Digest256> = None;
                    let mut first_error: Option<(usize, InvalidReason)> = None;
                    let mut last_digest = [0u8; 32];
                    let mut observed = Vec::new();
                    for (i, block) in blocks[lo..hi].iter().enumerate() {
                        let height = lo + i;
                        // Past the cutoff this chunk's work — including its
                        // last digest, which the stitch phase would use for
                        // the next chunk's boundary check — can only feed
                        // candidates above the cutoff, all of which lose the
                        // lowest-height selection; abandoning it is safe.
                        if height > cutoff.load(Ordering::Acquire) {
                            break;
                        }
                        // Same per-block check order as the sequential path:
                        // linkage, Merkle commitment, then proof of work.
                        if first_error.is_none() {
                            if let Some(prev) = prev_digest {
                                if block.header.prev_hash != prev {
                                    first_error = Some((height, InvalidReason::Linkage));
                                    cutoff.fetch_min(height, Ordering::AcqRel);
                                }
                            }
                        }
                        if first_error.is_none() && !block.merkle_consistent() {
                            first_error = Some((height, InvalidReason::Merkle));
                            cutoff.fetch_min(height, Ordering::AcqRel);
                        }
                        block.header.write_bytes(&mut header_bytes);
                        let (digest, cost) = pow.evaluate(&header_bytes, &mut scratch);
                        observed.push((digest, cost.ratio(nominal)));
                        if first_error.is_none()
                            && !Target::from_threshold(block.header.target).is_met_by(&digest)
                        {
                            first_error = Some((height, InvalidReason::Pow));
                            cutoff.fetch_min(height, Ordering::AcqRel);
                        }
                        prev_digest = Some(digest);
                        last_digest = digest;
                    }
                    ChunkOutcome {
                        lo,
                        first_error,
                        last_digest,
                        observed,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("validation worker panicked"))
            .collect()
    });

    // Stitch phase: boundary linkage checks plus lowest-height-first error
    // selection. Within a chunk the boundary candidate is considered before
    // the worker's own candidate, so at equal height the linkage error wins
    // — matching the sequential per-block check order.
    let mut first: Option<(usize, InvalidReason)> = None;
    let mut prev_digest = prev_hash;
    for outcome in &outcomes {
        let boundary = (blocks[outcome.lo].header.prev_hash != prev_digest)
            .then_some((outcome.lo, InvalidReason::Linkage));
        for candidate in boundary.into_iter().chain(outcome.first_error) {
            if first.is_none_or(|(height, _)| candidate.0 < height) {
                first = Some(candidate);
            }
        }
        prev_digest = outcome.last_digest;
    }
    // Rule walk over the recorded observations, in sequential order. Every
    // height below the basic first error has a recorded observation (the
    // cutoff never drops below it), so the walk can always reach any
    // lower-height rule failure; at equal heights the basic failure wins,
    // matching the per-block check order of the sequential path.
    if let Some(ctx) = ctx {
        let mut state = ctx.anchor;
        'walk: for outcome in &outcomes {
            for (i, (digest, ratio)) in outcome.observed.iter().enumerate() {
                let height = outcome.lo + i;
                if first.is_some_and(|(h, _)| height >= h) {
                    break 'walk;
                }
                let header = &blocks[height].header;
                if let Err(reason) = ctx.rule.check_child(state, header, digest, *ratio) {
                    first = Some((height, reason));
                    break 'walk;
                }
                state = Some(branch_state(header, *ratio));
            }
        }
    }
    match first {
        // No worker found an error, so none was cut off: every block was
        // observed, in order.
        None => Ok(outcomes
            .into_iter()
            .flat_map(|outcome| outcome.observed)
            .collect()),
        Some((height, reason)) => Err(ChainError::InvalidBlock { height, reason }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::EmaRetarget;
    use crate::fork::{ForkTree, GENESIS_HASH};
    use hashcore_baselines::Sha256dPow;

    /// Simulated seconds one hash attempt stands for on the miner's clock.
    const SECONDS_PER_ATTEMPT: u64 = 1;

    /// The retarget the test chains are mined under: 2-bit genesis target,
    /// 15 s blocks, gain 0.3.
    fn ema() -> EmaRetarget {
        EmaRetarget {
            initial: Target::from_leading_zero_bits(2),
            target_block_time: 15.0,
            gain: 0.3,
        }
    }

    /// A single miner's tree of `blocks` blocks; its clock advances by the
    /// attempts each block took.
    fn mined_tree(blocks: usize) -> ForkTree<Sha256dPow> {
        let mut tree = ForkTree::with_rule(Sha256dPow, DifficultyRule::Ema(ema()));
        let mut clock = 0;
        for i in 0..blocks {
            let nonce = tree
                .mine_next(&[format!("tx-{i}").into_bytes()], clock, 1_000_000)
                .expect("mining at trivial difficulty succeeds")
                .header
                .nonce;
            clock += (nonce + 1) * SECONDS_PER_ATTEMPT;
        }
        tree
    }

    /// The best chain of a [`mined_tree`], as a received block sequence.
    fn mined_chain(blocks: usize) -> Vec<Block> {
        mined_tree(blocks).best_chain()
    }

    /// Re-validates a received whole chain, trusting embedded targets.
    fn validate(blocks: &[Block]) -> Result<Vec<(Digest256, f64)>, ChainError> {
        validate_segment_with_rule(&Sha256dPow, blocks, GENESIS_HASH, None)
    }

    /// Each block's digest and cost ratio, evaluated on its own: what a
    /// validator accepting `blocks` returns.
    fn evaluated(blocks: &[Block]) -> Vec<(Digest256, f64)> {
        blocks
            .iter()
            .map(|block| {
                let (digest, cost) =
                    Sha256dPow.evaluate(&block.header.bytes(), &mut Default::default());
                (digest, cost.ratio(Sha256dPow.nominal_cost()))
            })
            .collect()
    }

    #[test]
    fn mining_extends_and_validates() {
        let tree = mined_tree(5);
        assert_eq!(tree.tip_height(), 5);
        assert!(tree.validate_best_chain().is_ok());
        let chain = tree.best_chain();
        assert_eq!(chain.len(), 5);
        assert!(chain[4].header.timestamp > 0);
        // Every embedded target is the one the rule expects along the chain.
        let ctx = tree.chain().rule_context(&GENESIS_HASH);
        assert!(ctx.is_some());
        assert!(validate_segment_with_rule(&Sha256dPow, &chain, GENESIS_HASH, ctx).is_ok());
    }

    #[test]
    fn tampering_with_a_transaction_is_detected() {
        let mut chain = mined_chain(3);
        chain[1].transactions[0] = b"double spend".to_vec();
        let err = validate(&chain).unwrap_err();
        assert!(matches!(err, ChainError::InvalidBlock { height: 1, .. }));
        assert!(err.to_string().contains("merkle"));
    }

    #[test]
    fn tampering_with_a_header_breaks_linkage_or_pow() {
        let mut chain = mined_chain(3);
        chain[1].header.timestamp += 999;
        assert!(validate(&chain).is_err());
    }

    #[test]
    fn difficulty_rises_when_blocks_come_too_fast() {
        // One second per attempt and a 15 s block time: at difficulty 2
        // bits blocks take ~4 attempts ≈ 4 s < 15 s, so retargeting should
        // make the target harder (expected attempts grow) over time.
        let difficulty: Vec<f64> = mined_chain(30)
            .iter()
            .map(|block| Target::from_threshold(block.header.target).expected_attempts())
            .collect();
        let early: f64 = difficulty[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = difficulty[25..].iter().sum::<f64>() / 5.0;
        assert!(
            late > early,
            "difficulty should rise: early {early}, late {late}"
        );
    }

    #[test]
    fn mining_exhaustion_is_reported() {
        let rule = DifficultyRule::Ema(EmaRetarget {
            initial: Target::from_leading_zero_bits(64),
            ..ema()
        });
        let mut tree = ForkTree::with_rule(Sha256dPow, rule);
        let err = tree.mine_next(&[b"tx".to_vec()], 0, 10).unwrap_err();
        assert_eq!(err, ChainError::MiningExhausted { attempts: 10 });
        assert!(tree.is_empty());
        assert_eq!(tree.tip(), GENESIS_HASH);
    }

    #[test]
    fn empty_chain_validates() {
        let tree = ForkTree::with_rule(Sha256dPow, DifficultyRule::Ema(ema()));
        assert!(tree.validate_best_chain().is_ok());
        assert_eq!(tree.tip(), GENESIS_HASH);
    }

    #[test]
    fn scratch_mining_finds_the_same_nonce_as_a_naive_scan() {
        for block in mined_chain(4) {
            let base = block.header.pow_input();
            let target = Target::from_threshold(block.header.target);
            let naive = (0u64..1_000_000).find(|n| {
                let mut input = base.clone();
                input.extend_from_slice(&n.to_le_bytes());
                target.is_met_by(&Sha256dPow.pow_hash(&input))
            });
            assert_eq!(naive, Some(block.header.nonce));
        }
    }

    #[test]
    fn segment_validation_accepts_a_mid_chain_suffix() {
        let chain = mined_chain(12);
        let anchor = Sha256dPow.pow_hash(&chain[5].header.bytes());
        let segment = &chain[6..];
        assert!(validate_segment_with_rule(&Sha256dPow, segment, anchor, None).is_ok());
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                validate_segment_parallel(&Sha256dPow, segment, threads, anchor),
                Ok(evaluated(segment)),
                "{threads} threads"
            );
        }
        // The wrong anchor is a linkage break at relative height 0.
        let err = validate_segment_parallel(&Sha256dPow, segment, 4, [0xee; 32]).unwrap_err();
        assert!(matches!(err, ChainError::InvalidBlock { height: 0, .. }));
    }

    /// Asserts the parallel path equals the sequential path for every
    /// interesting thread count (1, fewer/equal/more than the block count).
    fn assert_parallel_matches(blocks: &[Block]) {
        let sequential = validate_segment_with_rule(&Sha256dPow, blocks, GENESIS_HASH, None);
        for threads in [1usize, 2, 3, 5, 8, 33, 64] {
            let parallel = validate_segment_parallel(&Sha256dPow, blocks, threads, GENESIS_HASH);
            assert_eq!(parallel, sequential, "{threads} threads");
        }
    }

    #[test]
    fn parallel_validation_accepts_honest_chains() {
        let chain = mined_chain(33);
        assert_parallel_matches(&chain);
        assert!(validate_segment_parallel(&Sha256dPow, &[], 4, GENESIS_HASH).is_ok());
    }

    #[test]
    fn parallel_validation_reports_the_sequential_first_error() {
        // One corruption per failure mode, at interior, chunk-boundary and
        // edge heights.
        for height in [0usize, 1, 10, 16, 17, 31, 32] {
            let mut chain = mined_chain(33);
            chain[height].transactions[0] = b"double spend".to_vec();
            assert_parallel_matches(&chain);

            let mut chain = mined_chain(33);
            chain[height].header.timestamp += 999;
            assert_parallel_matches(&chain);

            let mut chain = mined_chain(33);
            chain[height].header.prev_hash = [0xaa; 32];
            assert_parallel_matches(&chain);
        }
    }

    #[test]
    fn parallel_validation_with_multiple_corruptions_reports_the_lowest() {
        let mut chain = mined_chain(33);
        chain[29].header.timestamp += 1;
        chain[7].transactions[0] = b"forged".to_vec();
        chain[12].header.prev_hash = [0x55; 32];
        let err = validate_segment_parallel(&Sha256dPow, &chain, 4, GENESIS_HASH).unwrap_err();
        assert!(matches!(err, ChainError::InvalidBlock { height: 7, .. }));
        assert_parallel_matches(&chain);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_validation_threads_rejected() {
        let chain = mined_chain(2);
        let _ = validate_segment_parallel(&Sha256dPow, &chain, 0, GENESIS_HASH);
    }
}
