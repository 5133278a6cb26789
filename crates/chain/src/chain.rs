//! The chain: block acceptance, validation, and difficulty retargeting.

use crate::block::{Block, BlockHeader};
use crate::difficulty::{branch_state, DifficultyRule, EmaRetarget};
use crate::fork::GENESIS_HASH;
use hashcore::{MiningInput, Target};
use hashcore_baselines::{PowFunction, PreparedPow};
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

/// Chain parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainConfig {
    /// Desired seconds between blocks (the paper cites Ethereum's sub-minute
    /// block times as the constraint on widget runtime).
    pub target_block_time: u64,
    /// Initial difficulty, in leading zero bits.
    pub initial_difficulty_bits: u32,
    /// Exponential-moving-average weight used when retargeting (0 = never
    /// adjust, 1 = jump straight to the implied difficulty).
    pub retarget_gain: f64,
    /// Simulated seconds of mining work represented by one hash attempt;
    /// lets the simulated clock advance deterministically in tests.
    pub seconds_per_attempt: f64,
}

impl ChainConfig {
    /// Parameters for fast deterministic tests: very low difficulty, 15 s
    /// blocks.
    pub fn fast_test() -> Self {
        Self {
            target_block_time: 15,
            initial_difficulty_bits: 2,
            retarget_gain: 0.3,
            seconds_per_attempt: 1.0,
        }
    }
}

impl Default for ChainConfig {
    fn default() -> Self {
        Self {
            target_block_time: 15,
            initial_difficulty_bits: 8,
            retarget_gain: 0.25,
            seconds_per_attempt: 0.05,
        }
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

/// A blockchain driven by an arbitrary [`PowFunction`].
#[derive(Debug)]
pub struct Blockchain<P> {
    pow: P,
    config: ChainConfig,
    blocks: Vec<Block>,
    target: Target,
    clock: u64,
    /// Fractional seconds of mining work not yet reflected in `clock`.
    /// Carried across blocks so configs with small `seconds_per_attempt`
    /// do not systematically lose the sub-second part of every block.
    clock_remainder: f64,
    /// PoW digest of the chain tip, maintained incrementally so `tip_hash`
    /// does not re-evaluate a full PoW hash on every call.
    tip_digest: Digest256,
    /// Difficulty (expected attempts) history, one entry per mined block.
    difficulty_history: Vec<f64>,
}

impl<P: PowFunction> Blockchain<P> {
    /// Creates an empty chain (height 0) with the genesis difficulty.
    pub fn new(pow: P, config: ChainConfig) -> Self {
        Self {
            pow,
            target: Target::from_leading_zero_bits(config.initial_difficulty_bits),
            config,
            blocks: Vec::new(),
            clock: 0,
            clock_remainder: 0.0,
            tip_digest: [0u8; 32],
            difficulty_history: Vec::new(),
        }
    }

    /// Number of blocks in the chain.
    pub fn height(&self) -> usize {
        self.blocks.len()
    }

    /// The blocks accepted so far.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The current difficulty target.
    pub fn current_target(&self) -> Target {
        self.target
    }

    /// Expected hash attempts per block at the current difficulty.
    pub fn current_difficulty(&self) -> f64 {
        self.target.expected_attempts()
    }

    /// Per-block difficulty history (expected attempts).
    pub fn difficulty_history(&self) -> &[f64] {
        &self.difficulty_history
    }

    /// The simulated clock, in seconds.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Hash of the chain tip (all zeros for the empty chain).
    ///
    /// The digest is cached when each block is mined, so this is a constant
    /// time lookup rather than a full PoW evaluation.
    pub fn tip_hash(&self) -> Digest256 {
        self.tip_digest
    }

    /// The chain's retarget policy as a shared, branch-evaluable
    /// [`DifficultyRule`] — the exact rule [`Blockchain::mine_block`]
    /// applies after every block, extracted so fork trees and the network
    /// simulation can enforce it along arbitrary branches.
    ///
    /// Branch enforcement re-derives elapsed time from *header timestamp
    /// deltas*. `Blockchain` itself retargets on the exact fractional
    /// elapsed seconds while its header timestamps advance by floored
    /// whole seconds (the remainder is carried), so a rule-enforcing
    /// [`ForkTree`](crate::ForkTree) only accepts chains whose timestamps
    /// carry the exact elapsed time — as `hashcore-net`'s millisecond
    /// clock does. Do not feed a `Blockchain`-mined chain with fractional
    /// per-block elapsed into `ForkTree::with_rule(_, chain.difficulty_rule())`.
    pub fn difficulty_rule(&self) -> DifficultyRule {
        DifficultyRule::Ema(EmaRetarget {
            initial: Target::from_leading_zero_bits(self.config.initial_difficulty_bits),
            target_block_time: self.config.target_block_time as f64,
            gain: self.config.retarget_gain,
        })
    }

    /// Ethereum-style smoothed retargeting: scale the target toward the
    /// value that would have made the last block take `target_block_time`.
    /// `elapsed` is the exact (fractional) seconds of mining work the block
    /// represents — no truncation, so small `seconds_per_attempt` configs
    /// retarget on the work actually performed. One step of
    /// [`Blockchain::difficulty_rule`].
    fn retarget(&mut self, elapsed: f64) {
        self.target = self.difficulty_rule().next_target(self.target, elapsed);
    }

    /// Re-validates the entire chain: header linkage, Merkle commitments and
    /// PoW targets.
    ///
    /// Validation fans out across the machine's hardware threads via
    /// [`validate_segment_parallel`] anchored at [`GENESIS_HASH`]; the
    /// result — including which block is reported when the chain is
    /// invalid — is identical to the sequential
    /// [`validate_segment_with_rule`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ChainError::InvalidBlock`] found.
    pub fn validate(&self) -> Result<(), ChainError>
    where
        P: PreparedPow + Sync,
    {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        validate_segment_parallel(&self.pow, &self.blocks, threads, GENESIS_HASH)
    }
}

impl<P: PreparedPow> Blockchain<P> {
    /// Mines and appends the next block containing `transactions`.
    ///
    /// The nonce search runs on the scratch path ([`MiningInput`] +
    /// [`PreparedPow::pow_hash_scratch`]): one input buffer and one scratch
    /// are built per call and reused across every attempt, so steady-state
    /// mining performs no per-nonce heap allocation — the same discipline as
    /// `HashCore::mine`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::MiningExhausted`] if no nonce within
    /// `max_attempts` meets the current target.
    pub fn mine_block(
        &mut self,
        transactions: &[Vec<u8>],
        max_attempts: u64,
    ) -> Result<&Block, ChainError> {
        let txs: Vec<Vec<u8>> = transactions.to_vec();
        let header_template = BlockHeader {
            version: 1,
            prev_hash: self.tip_digest,
            merkle_root: Block::merkle_root(&txs),
            timestamp: self.clock,
            target: *self.target.threshold(),
            nonce: 0,
        };
        let (nonce, attempts, digest) = self.search_nonce(&header_template, max_attempts).ok_or(
            ChainError::MiningExhausted {
                attempts: max_attempts,
            },
        )?;

        // Advance the simulated clock by the work that was performed,
        // carrying the fractional remainder to the next block instead of
        // truncating it away.
        let elapsed = attempts as f64 * self.config.seconds_per_attempt;
        let exact = elapsed + self.clock_remainder;
        let whole = exact.floor();
        self.clock += whole as u64;
        self.clock_remainder = exact - whole;

        let header = BlockHeader {
            nonce,
            ..header_template
        };
        self.difficulty_history.push(self.current_difficulty());
        self.tip_digest = digest;
        self.blocks.push(Block {
            header,
            transactions: txs,
        });
        self.retarget(elapsed);
        Ok(self.blocks.last().expect("just pushed"))
    }

    /// Scans nonces `0..max_attempts` against the current target, returning
    /// `(nonce, attempts, digest)` of the first hit. All per-attempt state
    /// lives in one [`MiningInput`] and one [`PreparedPow::Scratch`]; full
    /// batches run through the PoW's lane-parallel
    /// [`PreparedPow::scan_nonce_batch`] path.
    fn search_nonce(
        &self,
        header: &BlockHeader,
        max_attempts: u64,
    ) -> Option<(u64, u64, Digest256)> {
        let mut header_bytes = Vec::new();
        header.write_pow_input(&mut header_bytes);
        let mut input = MiningInput::new(&header_bytes);
        let mut scratch = P::Scratch::default();
        let (nonce, digest) =
            self.pow
                .scan_nonce_batch(&mut input, self.target, 0, max_attempts, &mut scratch)?;
        Some((nonce, nonce + 1, digest))
    }
}

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
/// with PoW digest `prev_hash` ([`GENESIS_HASH`] for a whole chain) — the
/// sequential reference the parallel validators are held to. Per block the
/// check order is linkage, Merkle, embedded-target PoW, then, when `ctx` is
/// supplied, the [`DifficultyRule`] checks along the segment: version
/// commitment and expected target as [`InvalidReason::Target`], the cost
/// admission bound as [`InvalidReason::Pow`].
///
/// One [`PreparedPow::Scratch`] and one header buffer serve every block.
/// Heights in errors are relative to the start of the segment.
///
/// # Errors
///
/// Returns the first [`ChainError::InvalidBlock`] found.
pub fn validate_segment_with_rule<P: PreparedPow>(
    pow: &P,
    blocks: &[Block],
    mut prev_hash: Digest256,
    ctx: Option<RuleContext<'_>>,
) -> Result<(), ChainError> {
    let nominal = pow.nominal_cost();
    let mut scratch = P::Scratch::default();
    let mut header_bytes = Vec::new();
    let mut state = ctx.and_then(|ctx| ctx.anchor);
    for (height, block) in blocks.iter().enumerate() {
        let invalid = |reason| Err(ChainError::InvalidBlock { height, reason });
        if block.header.prev_hash != prev_hash {
            return invalid(InvalidReason::Linkage);
        }
        if !block.merkle_consistent() {
            return invalid(InvalidReason::Merkle);
        }
        block.header.write_bytes(&mut header_bytes);
        let (digest, cost) = pow.pow_hash_cost_scratch(&header_bytes, &mut scratch);
        if !Target::from_threshold(block.header.target).is_met_by(&digest) {
            return invalid(InvalidReason::Pow);
        }
        if let Some(ctx) = &ctx {
            let ratio = cost.ratio(nominal);
            if let Err(reason) = ctx.rule.check_child(state, &block.header, &digest, ratio) {
                return invalid(reason);
            }
            state = Some(branch_state(&block.header, ratio));
        }
        prev_hash = digest;
    }
    Ok(())
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
    /// Per-block `(digest, cost ratio)` observations, in chunk order —
    /// collected only for rule-aware validation, where the stitch phase
    /// replays the (pure-arithmetic) rule walk over them. May stop short
    /// when the worker was cut off, which can only happen above the
    /// globally first error height.
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
pub fn validate_segment_parallel<P: PreparedPow + Sync>(
    pow: &P,
    blocks: &[Block],
    threads: usize,
    prev_hash: Digest256,
) -> Result<(), ChainError> {
    validate_segment_parallel_with_rule(pow, blocks, threads, prev_hash, None)
}

/// The parallel form of [`validate_segment_with_rule`], with results —
/// acceptance, rejection, and the height *and reason* of the first invalid
/// block — identical to it.
///
/// The sequence is split into contiguous chunks, one per worker, fanned out
/// with `std::thread::scope` exactly like `HashCore::mine_parallel`: each
/// worker owns one [`PreparedPow::Scratch`] and one header buffer, so
/// per-block validation performs no steady-state allocation. Workers check
/// internal linkage, Merkle commitments and PoW targets in the sequential
/// order, recording each block's `(digest, cost ratio)` when a rule is
/// enforced; chunk-boundary linkage is stitched afterwards from each
/// chunk's last digest, and the rule walk (version commitment, expected
/// target, cost admission) is pure arithmetic that runs in the stitch
/// phase over the recorded observations, in sequential order. Error
/// reporting is deterministic lowest-height-first, and at equal heights a
/// basic failure wins over a rule failure: every block below the
/// sequential path's first failure validates cleanly here too, so the
/// minimum-height failure is exactly the sequential failure, regardless of
/// thread count or scheduling.
///
/// # Errors
///
/// Returns the same [`ChainError::InvalidBlock`] the sequential path would.
///
/// # Panics
///
/// Panics if `threads` is zero, or if a validation worker panics.
pub fn validate_segment_parallel_with_rule<P: PreparedPow + Sync>(
    pow: &P,
    blocks: &[Block],
    threads: usize,
    prev_hash: Digest256,
    ctx: Option<RuleContext<'_>>,
) -> Result<(), ChainError> {
    assert!(
        threads > 0,
        "segment validation requires at least one thread"
    );
    let threads = threads.min(blocks.len());
    if threads <= 1 {
        return validate_segment_with_rule(pow, blocks, prev_hash, ctx);
    }
    let observe = ctx.is_some();
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
                        let digest = if observe {
                            let (digest, cost) =
                                pow.pow_hash_cost_scratch(&header_bytes, &mut scratch);
                            observed.push((digest, cost.ratio(nominal)));
                            digest
                        } else {
                            pow.pow_hash_scratch(&header_bytes, &mut scratch)
                        };
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
        None => Ok(()),
        Some((height, reason)) => Err(ChainError::InvalidBlock { height, reason }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashcore_baselines::Sha256dPow;

    fn mined_chain(blocks: usize) -> Blockchain<Sha256dPow> {
        let mut chain = Blockchain::new(Sha256dPow, ChainConfig::fast_test());
        for i in 0..blocks {
            chain
                .mine_block(&[format!("tx-{i}").into_bytes()], 1_000_000)
                .expect("mining at trivial difficulty succeeds");
        }
        chain
    }

    #[test]
    fn mining_extends_and_validates() {
        let chain = mined_chain(5);
        assert_eq!(chain.height(), 5);
        assert!(chain.validate().is_ok());
        assert_eq!(chain.difficulty_history().len(), 5);
        assert!(chain.now() > 0);
    }

    #[test]
    fn tampering_with_a_transaction_is_detected() {
        let mut chain = mined_chain(3);
        chain.blocks[1].transactions[0] = b"double spend".to_vec();
        let err = chain.validate().unwrap_err();
        assert!(matches!(err, ChainError::InvalidBlock { height: 1, .. }));
        assert!(err.to_string().contains("merkle"));
    }

    #[test]
    fn tampering_with_a_header_breaks_linkage_or_pow() {
        let mut chain = mined_chain(3);
        chain.blocks[1].header.timestamp += 999;
        assert!(chain.validate().is_err());
    }

    #[test]
    fn difficulty_rises_when_blocks_come_too_fast() {
        // seconds_per_attempt = 1 and target_block_time = 15: at difficulty
        // 2 bits blocks take ~4 attempts ≈ 4 s < 15 s, so retargeting should
        // make the target harder (expected attempts grow) over time.
        let chain = mined_chain(30);
        let early: f64 = chain.difficulty_history()[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = chain.difficulty_history()[25..].iter().sum::<f64>() / 5.0;
        assert!(
            late > early,
            "difficulty should rise: early {early}, late {late}"
        );
    }

    #[test]
    fn mining_exhaustion_is_reported() {
        let mut chain = Blockchain::new(
            Sha256dPow,
            ChainConfig {
                initial_difficulty_bits: 64,
                ..ChainConfig::fast_test()
            },
        );
        let err = chain.mine_block(&[b"tx".to_vec()], 10).unwrap_err();
        assert_eq!(err, ChainError::MiningExhausted { attempts: 10 });
        assert_eq!(chain.height(), 0);
    }

    #[test]
    fn empty_chain_validates() {
        let chain = Blockchain::new(Sha256dPow, ChainConfig::fast_test());
        assert!(chain.validate().is_ok());
        assert_eq!(chain.tip_hash(), [0u8; 32]);
    }

    #[test]
    fn tip_hash_cache_matches_the_pow_digest_of_the_last_header() {
        let mut chain = Blockchain::new(Sha256dPow, ChainConfig::fast_test());
        for i in 0..4 {
            chain
                .mine_block(&[format!("tx-{i}").into_bytes()], 1_000_000)
                .expect("trivial difficulty");
            let last = chain.blocks().last().expect("just mined");
            assert_eq!(chain.tip_hash(), Sha256dPow.pow_hash(&last.header.bytes()));
        }
    }

    #[test]
    fn scratch_mining_finds_the_same_nonce_as_a_naive_scan() {
        let chain = mined_chain(4);
        for block in chain.blocks() {
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
    fn fractional_mining_time_carries_across_blocks() {
        // Each attempt is worth a quarter second; the clock must advance by
        // the floor of the *accumulated* mining time, not the per-block sum
        // of truncated (or 1-second-clamped) values.
        let mut chain = Blockchain::new(
            Sha256dPow,
            ChainConfig {
                target_block_time: 15,
                initial_difficulty_bits: 0,
                retarget_gain: 0.0,
                seconds_per_attempt: 0.25,
            },
        );
        for i in 0..8 {
            chain
                .mine_block(&[format!("tx-{i}").into_bytes()], 64)
                .expect("0-bit difficulty");
        }
        let total_attempts: u64 = chain.blocks().iter().map(|b| b.header.nonce + 1).sum();
        assert_eq!(chain.now(), (total_attempts as f64 * 0.25) as u64);
        // The truncating clock counted at least one second per block.
        assert!(
            chain.now() < 8,
            "clock {} attempts {total_attempts}",
            chain.now()
        );
    }

    #[test]
    fn segment_validation_accepts_a_mid_chain_suffix() {
        let chain = mined_chain(12);
        let anchor = Sha256dPow.pow_hash(&chain.blocks()[5].header.bytes());
        let segment = &chain.blocks()[6..];
        assert!(validate_segment_with_rule(&Sha256dPow, segment, anchor, None).is_ok());
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                validate_segment_parallel(&Sha256dPow, segment, threads, anchor),
                Ok(()),
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
        assert_parallel_matches(chain.blocks());
        assert!(validate_segment_parallel(&Sha256dPow, &[], 4, GENESIS_HASH).is_ok());
    }

    #[test]
    fn parallel_validation_reports_the_sequential_first_error() {
        // One corruption per failure mode, at interior, chunk-boundary and
        // edge heights.
        for height in [0usize, 1, 10, 16, 17, 31, 32] {
            let mut chain = mined_chain(33);
            chain.blocks[height].transactions[0] = b"double spend".to_vec();
            assert_parallel_matches(chain.blocks());

            let mut chain = mined_chain(33);
            chain.blocks[height].header.timestamp += 999;
            assert_parallel_matches(chain.blocks());

            let mut chain = mined_chain(33);
            chain.blocks[height].header.prev_hash = [0xaa; 32];
            assert_parallel_matches(chain.blocks());
        }
    }

    #[test]
    fn parallel_validation_with_multiple_corruptions_reports_the_lowest() {
        let mut chain = mined_chain(33);
        chain.blocks[29].header.timestamp += 1;
        chain.blocks[7].transactions[0] = b"forged".to_vec();
        chain.blocks[12].header.prev_hash = [0x55; 32];
        let err =
            validate_segment_parallel(&Sha256dPow, chain.blocks(), 4, GENESIS_HASH).unwrap_err();
        assert!(matches!(err, ChainError::InvalidBlock { height: 7, .. }));
        assert_parallel_matches(chain.blocks());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_validation_threads_rejected() {
        let chain = mined_chain(2);
        let _ = validate_segment_parallel(&Sha256dPow, chain.blocks(), 0, GENESIS_HASH);
    }
}
