//! Fork choice: a block store keyed by header PoW digest with
//! cumulative-work tip selection.
//!
//! This module is the one chain model. Every network node holds a
//! [`ForkTree`], blocks from any branch are [`ForkTree::apply`]'d as they
//! arrive, and the tree keeps the tip with the most cumulative expected
//! work — switching branches returns the detached and attached segments so
//! callers can observe (and replay) reorgs. A single miner's linear history
//! is the same tree grown one [`ForkTree::mine_next`] at a time.
//!
//! Fork choice is a strict total order on `(cumulative work, digest)`, so
//! the selected tip depends only on the *set* of blocks stored, never on
//! their arrival order — the property the convergence proptests pin down.

use crate::block::{Block, BlockHeader};
use crate::chain::{validate_segment_with_rule, ChainError, InvalidReason};
use crate::difficulty::DifficultyRule;
use crate::header_chain::{Accepted, Entry, HeaderChain};
use hashcore::{MiningInput, Target};
use hashcore_baselines::{PowFunction, NONCE_LANES};
use hashcore_crypto::{Digest256, Sha256};
use std::fmt;

/// The digest a chain's first block links to: the all-zero "genesis" parent.
pub const GENESIS_HASH: Digest256 = [0u8; 32];

/// Errors returned by [`ForkTree::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForkError {
    /// The block links to a parent this tree has never stored. Carries the
    /// digest of the offending block so a node can request the missing
    /// segment ending at exactly that block.
    UnknownParent {
        /// PoW digest of the orphan block itself.
        digest: Digest256,
        /// The parent digest the block links to.
        prev_hash: Digest256,
    },
    /// The block fails a stateless check (Merkle commitment or PoW target).
    InvalidBlock {
        /// Which check failed, in the shared rejection taxonomy.
        reason: InvalidReason,
    },
}

impl fmt::Display for ForkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForkError::UnknownParent { prev_hash, .. } => {
                write!(
                    f,
                    "block links to unknown parent {}",
                    hashcore_crypto::hex::encode(prev_hash)
                )
            }
            ForkError::InvalidBlock { reason } => write!(f, "block is invalid: {reason}"),
        }
    }
}

impl std::error::Error for ForkError {}

/// Errors returned by [`ForkTree::segment_to`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The wanted block is not stored in this tree.
    UnknownBlock {
        /// The digest that was requested.
        want: Digest256,
    },
    /// Every digest the requester knows lies below this tree's pruned
    /// retention window: the connecting segment no longer exists here. The
    /// requester must sync from a peer with deeper history (or from the
    /// retention root itself).
    Pruned {
        /// The oldest block this tree still stores (its retention root).
        root: Digest256,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::UnknownBlock { want } => {
                write!(
                    f,
                    "segment target {} is not stored",
                    hashcore_crypto::hex::encode(want)
                )
            }
            SegmentError::Pruned { root } => {
                write!(
                    f,
                    "segment history below retention root {} has been pruned",
                    hashcore_crypto::hex::encode(root)
                )
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// The segments a tip change detached and attached, both ordered by
/// ascending height. A plain extension has an empty `detached` and a
/// single-block `attached`; a branch switch detaches the old tip's segment
/// back to the common ancestor and attaches the new branch from there.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Reorg {
    /// Blocks that left the best chain (old branch, ascending height).
    pub detached: Vec<Block>,
    /// Blocks that joined the best chain (new branch, ascending height;
    /// the last entry is the new tip).
    pub attached: Vec<Block>,
}

impl Reorg {
    /// Number of blocks that left the best chain — 0 for a plain extension.
    pub fn depth(&self) -> usize {
        self.detached.len()
    }

    /// `true` when the tip advanced without abandoning any block.
    pub fn is_extension(&self) -> bool {
        self.detached.is_empty()
    }
}

/// What [`ForkTree::apply`] did with a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The digest was already stored; nothing changed.
    AlreadyKnown {
        /// PoW digest of the block.
        digest: Digest256,
    },
    /// Stored on a branch that did not overtake the best tip.
    SideChain {
        /// PoW digest of the block.
        digest: Digest256,
    },
    /// The block extended or switched the best tip.
    TipChanged {
        /// PoW digest of the block (the new tip).
        digest: Digest256,
        /// Exactly what the switch detached and attached.
        reorg: Reorg,
    },
}

impl ApplyOutcome {
    /// PoW digest of the applied block, whatever happened to the tip.
    pub fn digest(&self) -> Digest256 {
        match self {
            ApplyOutcome::AlreadyKnown { digest }
            | ApplyOutcome::SideChain { digest }
            | ApplyOutcome::TipChanged { digest, .. } => *digest,
        }
    }

    /// `true` when the block was stored for the first time.
    pub fn newly_stored(&self) -> bool {
        !matches!(self, ApplyOutcome::AlreadyKnown { .. })
    }
}

/// A complete, self-contained description of a [`ForkTree`]'s logical state
/// — everything [`ForkTree::restore_from_snapshot`] needs to rebuild a tree
/// whose [`ForkTree::fingerprint`] is byte-identical to the source tree's.
///
/// Blocks are ordered by ascending `(height, digest)`, so parents always
/// precede children and the ordering is canonical (two snapshots of equal
/// trees are equal). For a pruned tree the first block is the retention
/// root, whose position in the original chain cannot be recomputed from the
/// retained blocks alone — `root_height` and `root_work` carry it across.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSnapshot {
    /// Digest of the retention root ([`GENESIS_HASH`] for an unpruned
    /// tree, in which case no root block entry exists).
    pub root: Digest256,
    /// Height of the retention root (0 when `root` is [`GENESIS_HASH`]).
    pub root_height: u64,
    /// Cumulative work through the retention root (0.0 when `root` is
    /// [`GENESIS_HASH`]).
    pub root_work: f64,
    /// The difficulty rule the tree enforces along every branch, if any.
    pub rule: Option<DifficultyRule>,
    /// Every stored block, ascending `(height, digest)`.
    pub blocks: Vec<Block>,
}

/// Errors returned when rebuilding a [`ForkTree`] from a [`TreeSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The snapshot names a non-genesis root but its first block's PoW
    /// digest is not that root (the root block is missing or corrupt).
    RootMismatch {
        /// The root digest the snapshot promised.
        want: Digest256,
        /// The digest of the first block actually present (all-zero when
        /// the snapshot holds no blocks at all).
        got: Digest256,
    },
    /// The snapshot's root block fails its own embedded PoW target — a
    /// corrupted snapshot, since the live tree only ever stored valid
    /// blocks.
    RootPow,
    /// A non-root block failed the acceptance [`ForkTree::apply`] runs
    /// during the replay; carries the index of the offending block in the
    /// snapshot ordering.
    Apply {
        /// Index into [`TreeSnapshot::blocks`].
        index: usize,
        /// The underlying apply error.
        error: ForkError,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::RootMismatch { want, .. } => write!(
                f,
                "snapshot root {} does not match its first block",
                hashcore_crypto::hex::encode(want)
            ),
            RestoreError::RootPow => write!(f, "snapshot root block fails its own PoW target"),
            RestoreError::Apply { index, error } => {
                write!(f, "snapshot block {index} failed to re-apply: {error}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Canonical byte encoding of an optional difficulty rule, used only
/// inside [`ForkTree::fingerprint`] (the on-disk codec lives in
/// `hashcore-store` and is versioned separately).
fn hash_rule(hasher: &mut Sha256, rule: Option<&DifficultyRule>) {
    match rule {
        None => hasher.update(&[0u8]),
        Some(DifficultyRule::Fixed(target)) => {
            hasher.update(&[1u8]);
            hasher.update(target.threshold());
        }
        Some(DifficultyRule::Ema(ema)) => {
            hasher.update(&[2u8]);
            hasher.update(ema.initial.threshold());
            hasher.update(&ema.target_block_time.to_bits().to_le_bytes());
            hasher.update(&ema.gain.to_bits().to_le_bytes());
        }
        Some(DifficultyRule::CostAware(cost)) => {
            hasher.update(&[3u8]);
            hasher.update(cost.time.initial.threshold());
            hasher.update(&cost.time.target_block_time.to_bits().to_le_bytes());
            hasher.update(&cost.time.gain.to_bits().to_le_bytes());
            hasher.update(&cost.cost_gain.to_bits().to_le_bytes());
            hasher.update(&cost.response.to_bits().to_le_bytes());
        }
    }
}

/// A block store keyed by header PoW digest, with cumulative-work fork
/// choice: a [`HeaderChain`] over whole [`Block`]s, plus what only a full
/// node has — the PoW function to hash with, the Merkle check of each
/// body, reorg segments, segment serving and snapshots.
///
/// The tree validates each applied block statelessly (Merkle commitment and
/// the block's own embedded PoW target) and contextually (the parent must be
/// stored). A tree built with [`ForkTree::with_rule`] additionally enforces
/// a [`DifficultyRule`] *along every branch*: each block's embedded target
/// must equal the target the rule expects at that position, computed from
/// the parent's (already-enforced) target and the two headers' timestamps.
/// A plain [`ForkTree::new`] tree trusts embedded targets, as it always
/// has — difficulty policy stays the caller's concern there. Either way,
/// branches are scored by the expected attempts their embedded targets
/// imply.
///
/// Hashing runs through one owned [`PowFunction::Scratch`] and one header
/// buffer, so applying a stream of blocks does not allocate per block.
pub struct ForkTree<P: PowFunction> {
    pow: P,
    chain: HeaderChain<Block>,
    scratch: P::Scratch,
    header_bytes: Vec<u8>,
}

impl<P: PowFunction + fmt::Debug> fmt::Debug for ForkTree<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForkTree")
            .field("pow", &self.pow)
            .field("blocks", &self.len())
            .field("tip", &hashcore_crypto::hex::encode(&self.tip()))
            .finish()
    }
}

impl<P: PowFunction> ForkTree<P> {
    /// Creates an empty tree whose tip is [`GENESIS_HASH`]. Embedded
    /// targets are trusted; use [`ForkTree::with_rule`] to enforce a
    /// difficulty policy along every branch.
    pub fn new(pow: P) -> Self {
        Self {
            pow,
            chain: HeaderChain::default(),
            scratch: P::Scratch::default(),
            header_bytes: Vec::new(),
        }
    }

    /// Creates an empty tree that enforces `rule` along every branch:
    /// [`ForkTree::apply`] rejects (as [`InvalidReason::Target`]) any block
    /// whose embedded target differs from the rule's expectation at its
    /// branch position.
    pub fn with_rule(pow: P, rule: DifficultyRule) -> Self {
        let mut tree = Self::new(pow);
        tree.set_rule(rule);
        tree
    }

    /// The header-level state machine the tree runs on: every fork-choice,
    /// rule and ancestry query.
    pub fn chain(&self) -> &HeaderChain<Block> {
        &self.chain
    }

    /// See [`HeaderChain::set_rule`].
    pub fn set_rule(&mut self, rule: DifficultyRule) {
        self.chain.set_rule(rule);
    }

    /// See [`HeaderChain::rule`].
    pub fn rule(&self) -> Option<&DifficultyRule> {
        self.chain.rule()
    }

    /// See [`HeaderChain::root`].
    pub fn root(&self) -> Digest256 {
        self.chain.root()
    }

    /// See [`HeaderChain::root_height`].
    pub fn root_height(&self) -> u64 {
        self.chain.root_height()
    }

    /// The PoW function blocks are validated against.
    pub fn pow(&self) -> &P {
        &self.pow
    }

    /// See [`HeaderChain::len`].
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// See [`HeaderChain::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }

    /// Makes room for at least `additional` more blocks, so that storing
    /// them does not grow the block map. A restore keeps the room, so a
    /// restart that knows how many blocks it reads back (a snapshot plus a
    /// log, as `hashcore_store::rebuild` does) can reserve for all of them
    /// before restoring.
    pub fn reserve(&mut self, additional: usize) {
        self.chain.reserve(additional);
    }

    /// See [`HeaderChain::tip`].
    pub fn tip(&self) -> Digest256 {
        self.chain.tip()
    }

    /// See [`HeaderChain::tip_height`].
    pub fn tip_height(&self) -> u64 {
        self.chain.tip_height()
    }

    /// The best tip's block, if any block has been stored.
    pub fn tip_block(&self) -> Option<&Block> {
        self.block(&self.tip())
    }

    /// See [`HeaderChain::contains`].
    pub fn contains(&self, digest: &Digest256) -> bool {
        self.chain.contains(digest)
    }

    /// The stored block with this digest, if any.
    pub fn block(&self, digest: &Digest256) -> Option<&Block> {
        self.chain.get(digest)
    }

    /// See [`HeaderChain::height_of`].
    pub fn height_of(&self, digest: &Digest256) -> u64 {
        self.chain.height_of(digest)
    }

    /// See [`HeaderChain::work_of`].
    pub fn work_of(&self, digest: &Digest256) -> f64 {
        self.chain.work_of(digest)
    }

    /// See [`HeaderChain::cost_ratio_of`].
    pub fn cost_ratio_of(&self, digest: &Digest256) -> f64 {
        self.chain.cost_ratio_of(digest)
    }

    /// See [`HeaderChain::max_side_branch_height`].
    pub fn max_side_branch_height(&self) -> u64 {
        self.chain.max_side_branch_height()
    }

    /// See [`HeaderChain::expected_child_target`].
    pub fn expected_child_target(
        &self,
        parent: &Digest256,
        child_timestamp: u64,
    ) -> Option<Target> {
        self.chain.expected_child_target(parent, child_timestamp)
    }

    /// See [`HeaderChain::expected_child_version`].
    pub fn expected_child_version(&self, parent: &Digest256) -> Option<u32> {
        self.chain.expected_child_version(parent)
    }

    /// See [`HeaderChain::locator`].
    pub fn locator(&self) -> Vec<Digest256> {
        self.chain.locator()
    }

    /// See [`HeaderChain::prune`]. Any peer whose locator shares at least
    /// one digest inside the retained window can still be served exactly
    /// as before; peers further behind get a clean
    /// [`SegmentError::Pruned`].
    pub fn prune(&mut self, keep_depth: u64) -> usize {
        self.chain.prune(keep_depth)
    }

    /// Evaluates the PoW digest that identifies `block`, through the tree's
    /// scratch.
    pub fn digest_of(&mut self, block: &Block) -> Digest256 {
        self.digest_and_cost_of_header(&block.header).0
    }

    /// Evaluates the PoW digest of a bare header together with its observed
    /// verifier-cost ratio (cost units over the PoW function's nominal
    /// budget) — one hash, both observations, and what a light client feeds
    /// a [`HeaderChain`]. The ratio is a pure function of the header bytes,
    /// so every validator derives the same value.
    pub fn digest_and_cost_of_header(&mut self, header: &BlockHeader) -> (Digest256, f64) {
        header.write_bytes(&mut self.header_bytes);
        let (digest, cost) = self.pow.evaluate(&self.header_bytes, &mut self.scratch);
        (digest, cost.ratio(self.pow.nominal_cost()))
    }

    /// Validates and stores a block through the [`HeaderChain`] acceptance
    /// sequence (with the Merkle check as the body check), advancing the
    /// tip if the block's branch now carries the most cumulative work.
    ///
    /// A block whose header equals the best tip's is
    /// [`ApplyOutcome::AlreadyKnown`] with the tip's digest before any
    /// hashing: equal headers have equal PoW digests, and a known digest
    /// is `AlreadyKnown` whatever the body. Gossip delivers a node's
    /// current tip back to it far more often than any other known block.
    /// Any other known block is recognised by its digest, which costs one
    /// PoW evaluation.
    ///
    /// # Errors
    ///
    /// [`ForkError::UnknownParent`] when the parent is not stored (the
    /// caller should sync the missing segment), [`ForkError::InvalidBlock`]
    /// when the Merkle commitment or PoW target check fails — or, on a
    /// rule-enforcing tree, when the embedded target is not the one the
    /// [`DifficultyRule`] expects at this branch position
    /// ([`InvalidReason::Target`]).
    pub fn apply(&mut self, block: Block) -> Result<ApplyOutcome, ForkError> {
        if self
            .tip_block()
            .is_some_and(|tip| tip.header == block.header)
        {
            return Ok(ApplyOutcome::AlreadyKnown { digest: self.tip() });
        }
        let (digest, cost_ratio) = self.digest_and_cost_of_header(&block.header);
        self.accept(block, digest, cost_ratio, Block::merkle_consistent)
    }

    /// [`ForkTree::apply`] for a block the caller has already checked:
    /// `digest` and `cost_ratio` are the evaluation of its header through
    /// this tree's PoW, as [`ForkTree::digest_and_cost_of_header`] returns
    /// them, and `body_valid` is the verdict of
    /// [`Block::merkle_consistent`] on it. Neither is computed again. A
    /// miner stores the block it has just built from its own transactions
    /// this way, and a node that has just validated a segment stores each
    /// of its blocks with the digest and cost ratio the segment validator
    /// returned, which also checked every body. Debug builds recompute
    /// both to check the caller's.
    ///
    /// # Errors
    ///
    /// As [`ForkTree::apply`]; a new block with `body_valid == false` is
    /// [`InvalidReason::Merkle`].
    pub fn apply_evaluated(
        &mut self,
        block: Block,
        digest: Digest256,
        cost_ratio: f64,
        body_valid: bool,
    ) -> Result<ApplyOutcome, ForkError> {
        debug_assert_eq!(
            digest,
            self.pow.pow_hash(&block.header.bytes()),
            "the digest is the PoW digest of the block's header"
        );
        debug_assert_eq!(
            body_valid,
            block.merkle_consistent(),
            "the body verdict is the block's Merkle consistency"
        );
        self.accept(block, digest, cost_ratio, |_| body_valid)
    }

    /// Applies a run of stored `blocks` in order, as [`ForkTree::apply`]
    /// would one at a time, and returns how many of them it accepted
    /// (stored, or known already). Each block that fails is passed with
    /// its index in `blocks` to `rejected`: `Ok` skips the block and goes
    /// on, and `Err` ends the run with that error.
    ///
    /// This is how a node reads its blocks back from disk: a snapshot
    /// restore, a log replay. Each full chunk of [`NONCE_LANES`] blocks is
    /// checked together: its headers in one [`PowFunction::evaluate_lanes`]
    /// call, and its bodies' Merkle commitments with their transactions
    /// hashed four per 4-lane SHA-256 pass, under every PoW. A pass runs
    /// as long as its longest message, so transactions of uneven lengths
    /// gain less than uniform ones. A short final chunk is checked one
    /// block at a time. Only a PoW that overrides the lane hook (double
    /// SHA-256) hashes headers faster. Then each block goes through the
    /// acceptance sequence of [`ForkTree::apply`], its Merkle verdict as
    /// the body check, with no [`ApplyOutcome`] built: no reorg walk, and
    /// no clone but the stored block. The verdicts of a full chunk are
    /// computed before any of its blocks is accepted, so a block found
    /// known has its body hashed too, which [`ForkTree::apply`] skips (a
    /// replay of many known blocks can cost more than per-block checks),
    /// and a failing block's later lanes are checked already: one bad
    /// block can cost up to `NONCE_LANES - 1` wasted PoW evaluations and as
    /// many wasted Merkle checks. Gossip and sync, which bound that work,
    /// apply one block at a time.
    pub fn apply_stored<E>(
        &mut self,
        blocks: &[Block],
        mut rejected: impl FnMut(usize, ForkError) -> Result<(), E>,
    ) -> Result<usize, E> {
        let nominal = self.pow.nominal_cost();
        let mut headers: [Vec<u8>; NONCE_LANES] = Default::default();
        let mut accepted = 0;
        for (chunk_index, chunk) in blocks.chunks(NONCE_LANES).enumerate() {
            for (bytes, block) in headers.iter_mut().zip(chunk) {
                block.header.write_bytes(bytes);
            }
            let lanes = <&[Block; NONCE_LANES]>::try_from(chunk).ok().map(|full| {
                let evaluated = self
                    .pow
                    .evaluate_lanes(headers.each_ref().map(Vec::as_slice), &mut self.scratch);
                (evaluated, Block::merkle_consistent_x4(full))
            });
            for (lane, block) in chunk.iter().enumerate() {
                let (digest, cost) = match lanes {
                    Some((evaluated, _)) => evaluated[lane],
                    None => self.pow.evaluate(&headers[lane], &mut self.scratch),
                };
                let body_valid = |block: &Block| match lanes {
                    Some((_, consistent)) => consistent[lane],
                    None => block.merkle_consistent(),
                };
                let result =
                    self.chain
                        .accept_item(block.clone(), digest, cost.ratio(nominal), body_valid);
                match result {
                    Ok(_) => accepted += 1,
                    Err(error) => rejected(chunk_index * NONCE_LANES + lane, error)?,
                }
            }
        }
        Ok(accepted)
    }

    /// The acceptance path of [`ForkTree::apply`] and
    /// [`ForkTree::apply_evaluated`]: the [`HeaderChain`] acceptance
    /// sequence for `block`, whose header has PoW `digest` and cost ratio
    /// `cost_ratio` and whose body check is `body_valid`, and its outcome.
    /// [`ForkTree::mine_next`] and [`ForkTree::apply_stored`] run the same
    /// sequence but build no outcome.
    fn accept(
        &mut self,
        block: Block,
        digest: Digest256,
        cost_ratio: f64,
        body_valid: impl FnOnce(&Block) -> bool,
    ) -> Result<ApplyOutcome, ForkError> {
        let accepted = self
            .chain
            .accept_item(block, digest, cost_ratio, body_valid)?;
        Ok(match accepted {
            Accepted::Known => ApplyOutcome::AlreadyKnown { digest },
            Accepted::Side => ApplyOutcome::SideChain { digest },
            Accepted::Tip { previous } => {
                let (detached, attached) = self.chain.fork_path(previous, digest);
                ApplyOutcome::TipChanged {
                    digest,
                    reorg: Reorg {
                        detached: self.blocks(detached),
                        attached: self.blocks(attached),
                    },
                }
            }
        })
    }

    /// Mines the rule-consistent child of the best tip carrying
    /// `transactions` at `timestamp`, stores it, and returns the stored
    /// block.
    ///
    /// The template embeds the version word and target the tree's
    /// [`DifficultyRule`] expects of that child. Nonces are scanned from 0
    /// through [`PowFunction::scan_nonces`] with one [`MiningInput`] and the
    /// tree's own scratch. A hit the rule's cost admission bound rejects
    /// ([`DifficultyRule::admits`]; never under `Fixed` or `Ema`) is
    /// skipped and the scan resumes at the next nonce. The first admissible
    /// hit goes through the acceptance sequence of [`ForkTree::apply`],
    /// reusing the digest and cost already observed for it.
    ///
    /// # Errors
    ///
    /// [`ChainError::MiningExhausted`] when none of the nonces
    /// `0..max_attempts` is admissible; the tree is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the tree enforces no [`DifficultyRule`]: without one there
    /// is no target to mine at (build the tree with [`ForkTree::with_rule`]).
    pub fn mine_next(
        &mut self,
        transactions: &[Vec<u8>],
        timestamp: u64,
        max_attempts: u64,
    ) -> Result<&Block, ChainError> {
        let parent = self.tip();
        let ctx = self
            .chain
            .rule_context(&parent)
            .expect("mining needs a tree that enforces a difficulty rule");
        let (rule, anchor) = (*ctx.rule, ctx.anchor);
        let target = rule.expected_child_target(anchor, timestamp);
        let mut header = BlockHeader {
            version: rule.expected_child_version(anchor).unwrap_or(1),
            prev_hash: parent,
            merkle_root: Block::merkle_root(transactions),
            timestamp,
            target: *target.threshold(),
            nonce: 0,
        };
        header.write_pow_input(&mut self.header_bytes);
        let mut input = MiningInput::new(&self.header_bytes);
        let mut start = 0;
        while let Some((nonce, _)) = self.pow.scan_nonces(
            &mut input,
            target,
            start,
            max_attempts - start,
            &mut self.scratch,
        ) {
            header.nonce = nonce;
            let (digest, cost_ratio) = self.digest_and_cost_of_header(&header);
            if rule.admits(target, &digest, cost_ratio) {
                let block = Block {
                    header,
                    transactions: transactions.to_vec(),
                };
                self.chain
                    .accept_item(block, digest, cost_ratio, Block::merkle_consistent)
                    .expect("the rule-consistent child of the tip is accepted");
                return Ok(self.block(&digest).expect("the mined block is stored"));
            }
            start = nonce + 1;
        }
        Err(ChainError::MiningExhausted {
            attempts: max_attempts,
        })
    }

    /// Clones the stored blocks with these digests, in order.
    fn blocks(&self, digests: Vec<Digest256>) -> Vec<Block> {
        digests
            .into_iter()
            .map(|d| self.block(&d).expect("digest is stored").clone())
            .collect()
    }

    /// The best chain, oldest block first: from the genesis child, or — once
    /// the tree has been pruned — from the retention root.
    pub fn best_chain(&self) -> Vec<Block> {
        let mut digests = self.chain.best_path();
        digests.reverse();
        self.blocks(digests)
    }

    /// The contiguous segment ending at `want`, walking back until a digest
    /// the requester already `known`s (or genesis), ascending height.
    ///
    /// Returns an empty segment when the requester already knows `want`.
    ///
    /// # Errors
    ///
    /// [`SegmentError::UnknownBlock`] when `want` is not stored;
    /// [`SegmentError::Pruned`] when the connecting segment would have to
    /// reach below this tree's retention root — everything the requester
    /// knows lies under pruned history, so the range is no longer servable.
    /// A requester that knows the root itself *or the root's parent digest*
    /// is still served (the retained history anchors at that parent).
    pub fn segment_to(
        &self,
        want: Digest256,
        known: &[Digest256],
    ) -> Result<Vec<Block>, SegmentError> {
        if !self.contains(&want) {
            return Err(SegmentError::UnknownBlock { want });
        }
        let root = self.root();
        let mut out = Vec::new();
        let mut cursor = want;
        while cursor != GENESIS_HASH && !known.contains(&cursor) {
            let block = self.block(&cursor).expect("walk stays on stored blocks");
            out.push(block.clone());
            let parent = block.header.prev_hash;
            if cursor == root && root != GENESIS_HASH {
                // The walk hit the retention root. The full retained chain
                // is exactly servable iff the requester knows the root's
                // parent; anything older is gone.
                if known.contains(&parent) {
                    break;
                }
                return Err(SegmentError::Pruned { root });
            }
            cursor = parent;
        }
        out.reverse();
        Ok(out)
    }

    /// A canonical digest of the tree's complete logical state: the rule,
    /// the retention root (with its height and cumulative-work bits), the
    /// tip, and every stored block with its height and work, ordered by
    /// digest. Two trees with the same fingerprint store the same block
    /// set, agree on fork choice, and will answer every query (`locator`,
    /// `segment_to`, `best_chain`, …) identically — the byte-identity
    /// witness the persistence layer's `save → crash → restore` proofs
    /// compare.
    pub fn fingerprint(&self) -> Digest256 {
        let root = self.root();
        let mut hasher = Sha256::new();
        hasher.update(b"hashcore-forktree-fingerprint-v1");
        hash_rule(&mut hasher, self.rule());
        hasher.update(&root);
        hasher.update(&self.root_height().to_le_bytes());
        hasher.update(&self.work_of(&root).to_bits().to_le_bytes());
        hasher.update(&self.tip());
        hasher.update(&(self.len() as u64).to_le_bytes());
        let mut entries: Vec<_> = self.chain.entries().collect();
        entries.sort_unstable_by_key(|(digest, _)| *digest);
        let mut header_bytes = Vec::new();
        for (digest, entry) in entries {
            hasher.update(digest);
            hasher.update(&entry.height.to_le_bytes());
            hasher.update(&entry.work.to_bits().to_le_bytes());
            entry.item.header.write_bytes(&mut header_bytes);
            hasher.update(&header_bytes);
            hasher.update(&(entry.item.transactions.len() as u64).to_le_bytes());
            for tx in &entry.item.transactions {
                hasher.update(&(tx.len() as u64).to_le_bytes());
                hasher.update(tx);
            }
        }
        hasher.finalize()
    }

    /// Exports the tree's complete logical state as a [`TreeSnapshot`] —
    /// blocks in canonical ascending `(height, digest)` order, plus the
    /// root/rule context a restore needs. The inverse of
    /// [`ForkTree::restore_from_snapshot`].
    pub fn snapshot(&self) -> TreeSnapshot {
        let mut keyed: Vec<_> = self
            .chain
            .entries()
            .map(|(digest, entry)| (entry.height, digest, &entry.item))
            .collect();
        keyed.sort_unstable_by_key(|&(height, digest, _)| (height, digest));
        TreeSnapshot {
            root: self.root(),
            root_height: self.root_height(),
            root_work: self.work_of(&self.root()),
            rule: self.rule().copied(),
            blocks: keyed
                .into_iter()
                .map(|(_, _, block)| block.clone())
                .collect(),
        }
    }

    /// Rebuilds this tree in place from a snapshot, reusing the existing
    /// PoW instance and scratch. All current state is discarded. The
    /// snapshot's root block (when the snapshot is of a pruned tree) is
    /// verified against its recorded digest and its own PoW target, then
    /// trusted at `root_height`/`root_work`; every other block replays
    /// through [`ForkTree::apply_stored`], its PoW and Merkle checks in
    /// 4-lane batches and with no [`ApplyOutcome`] built, so the usual
    /// Merkle/PoW/target checks all run and fork choice recomputes the tip
    /// from scratch. The block map keeps its capacity, so room reserved
    /// beforehand ([`ForkTree::reserve`]) serves the snapshot's blocks and
    /// any applied after it. On success the restored tree's
    /// [`ForkTree::fingerprint`] equals the source tree's.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] on a root/blocks mismatch or any block that fails
    /// to re-apply; the tree is left empty (never half-restored) in that
    /// case.
    pub fn restore_from_snapshot(&mut self, snapshot: &TreeSnapshot) -> Result<(), RestoreError> {
        self.chain.restart(snapshot.rule, None);
        let mut blocks = &snapshot.blocks[..];
        if snapshot.root != GENESIS_HASH {
            let Some((root_block, rest)) = blocks.split_first() else {
                return Err(RestoreError::RootMismatch {
                    want: snapshot.root,
                    got: [0u8; 32],
                });
            };
            let (digest, cost_ratio) = self.digest_and_cost_of_header(&root_block.header);
            if digest != snapshot.root {
                return Err(RestoreError::RootMismatch {
                    want: snapshot.root,
                    got: digest,
                });
            }
            if !Target::from_threshold(root_block.header.target).is_met_by(&digest)
                || !root_block.merkle_consistent()
            {
                return Err(RestoreError::RootPow);
            }
            let root = Entry {
                item: root_block.clone(),
                height: snapshot.root_height,
                work: snapshot.root_work,
                cost_ratio,
            };
            self.chain.restart(snapshot.rule, Some((digest, root)));
            blocks = rest;
        }
        let first = snapshot.blocks.len() - blocks.len();
        let replayed = self.apply_stored(blocks, |index, error| {
            Err(RestoreError::Apply {
                index: first + index,
                error,
            })
        });
        if let Err(error) = replayed {
            self.chain.restart(snapshot.rule, None);
            return Err(error);
        }
        Ok(())
    }

    /// Builds a fresh tree from a snapshot — the owning form of
    /// [`ForkTree::restore_from_snapshot`].
    ///
    /// # Errors
    ///
    /// As [`ForkTree::restore_from_snapshot`].
    pub fn from_snapshot(pow: P, snapshot: &TreeSnapshot) -> Result<Self, RestoreError> {
        let mut tree = Self::new(pow);
        tree.restore_from_snapshot(snapshot)?;
        Ok(tree)
    }

    /// Re-validates the whole best chain through the sequential segment
    /// validator — a consistency check for tests and tooling. A pruned
    /// tree's chain is anchored at the retention root's parent digest.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChainError::InvalidBlock`] found.
    pub fn validate_best_chain(&self) -> Result<(), ChainError> {
        let anchor = self
            .block(&self.root())
            .map_or(GENESIS_HASH, |root| root.header.prev_hash);
        validate_segment_with_rule(&self.pow, &self.best_chain(), anchor, None).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockHeader;
    use crate::chain::validate_segment_parallel;
    use hashcore_baselines::{PowFunction, Sha256dPow};

    /// Mines a child of `prev` tagged by `tag` at `bits` leading-zero bits.
    fn mine_child(prev: Digest256, tag: &str, bits: u32) -> Block {
        mine_body(prev, vec![tag.as_bytes().to_vec()], bits)
    }

    /// Mines a child of `prev` with body `txs` at `bits` leading-zero bits.
    fn mine_body(prev: Digest256, txs: Vec<Vec<u8>>, bits: u32) -> Block {
        let target = Target::from_leading_zero_bits(bits);
        let mut header = BlockHeader {
            version: 1,
            prev_hash: prev,
            merkle_root: Block::merkle_root(&txs),
            timestamp: 0,
            target: *target.threshold(),
            nonce: 0,
        };
        loop {
            if target.is_met_by(&Sha256dPow.pow_hash(&header.bytes())) {
                return Block {
                    header,
                    transactions: txs,
                };
            }
            header.nonce += 1;
        }
    }

    fn digest(block: &Block) -> Digest256 {
        Sha256dPow.pow_hash(&block.header.bytes())
    }

    #[test]
    fn a_body_repeating_its_odd_tail_is_rejected_as_merkle() {
        use crate::chain::InvalidReason;
        // [a, b, c, c] hashes to the root that commits [a, b, c]: a relay
        // that swaps in that body must not get it stored under the digest.
        let txs = vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()];
        let target = Target::from_leading_zero_bits(2);
        let mut header = BlockHeader {
            version: 1,
            prev_hash: GENESIS_HASH,
            merkle_root: Block::merkle_root(&txs),
            timestamp: 0,
            target: *target.threshold(),
            nonce: 0,
        };
        while !target.is_met_by(&Sha256dPow.pow_hash(&header.bytes())) {
            header.nonce += 1;
        }
        let mut repeated = txs.clone();
        repeated.push(b"c".to_vec());
        let mut tree = ForkTree::new(Sha256dPow);
        assert_eq!(
            tree.apply(Block {
                header: header.clone(),
                transactions: repeated,
            }),
            Err(ForkError::InvalidBlock {
                reason: InvalidReason::Merkle,
            })
        );
        let honest = Block {
            header,
            transactions: txs,
        };
        assert!(matches!(
            tree.apply(honest.clone()),
            Ok(ApplyOutcome::TipChanged { .. })
        ));
        assert_eq!(tree.block(&tree.tip()), Some(&honest));
    }

    /// A forged body: a mined header over other transactions than its own.
    fn forged_child() -> Block {
        let mut forged = mine_child(GENESIS_HASH, "honest", 2);
        forged.transactions = vec![b"forged".to_vec()];
        forged
    }

    #[test]
    fn apply_evaluated_stores_no_body_the_caller_found_inconsistent() {
        use crate::chain::InvalidReason;
        let forged = forged_child();
        let mut tree = ForkTree::new(Sha256dPow);
        let (digest, cost_ratio) = tree.digest_and_cost_of_header(&forged.header);
        assert_eq!(
            tree.apply_evaluated(forged, digest, cost_ratio, false),
            Err(ForkError::InvalidBlock {
                reason: InvalidReason::Merkle,
            })
        );
        assert_eq!(tree.tip(), GENESIS_HASH);
    }

    /// `apply_evaluated` takes the caller's body verdict without hashing
    /// the body; a debug build checks it, so a forged body passed as
    /// consistent panics there.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the body verdict is the block's Merkle consistency")]
    fn apply_evaluated_checks_the_body_verdict_in_debug_builds() {
        let forged = forged_child();
        let mut tree = ForkTree::new(Sha256dPow);
        let (digest, cost_ratio) = tree.digest_and_cost_of_header(&forged.header);
        let _ = tree.apply_evaluated(forged, digest, cost_ratio, true);
    }

    #[test]
    fn extension_advances_the_tip_without_detaching() {
        let mut tree = ForkTree::new(Sha256dPow);
        assert_eq!(tree.tip(), GENESIS_HASH);
        assert_eq!(tree.tip_height(), 0);

        let a = mine_child(GENESIS_HASH, "a", 2);
        let b = mine_child(digest(&a), "b", 2);
        for (block, height) in [(a.clone(), 1), (b.clone(), 2)] {
            let expect = digest(&block);
            match tree.apply(block).expect("valid block") {
                ApplyOutcome::TipChanged { digest, reorg } => {
                    assert_eq!(digest, expect);
                    assert!(reorg.is_extension());
                    assert_eq!(reorg.attached.len(), 1);
                }
                other => panic!("expected tip change, got {other:?}"),
            }
            assert_eq!(tree.tip_height(), height);
        }
        assert_eq!(tree.best_chain(), vec![a.clone(), b]);
        assert!(tree.validate_best_chain().is_ok());
        // Re-applying is idempotent.
        assert!(matches!(
            tree.apply(a).unwrap(),
            ApplyOutcome::AlreadyKnown { .. }
        ));
    }

    /// Double SHA-256 that counts its evaluations.
    #[derive(Default)]
    struct CountingPow(std::cell::Cell<u64>);

    impl PowFunction for CountingPow {
        type Scratch = ();

        fn name(&self) -> &'static str {
            "counting"
        }

        fn dominant_resource(&self) -> hashcore_baselines::ResourceClass {
            hashcore_baselines::ResourceClass::FixedFunction
        }

        fn evaluate(&self, input: &[u8], _: &mut ()) -> (Digest256, hashcore::VerifyCost) {
            self.0.set(self.0.get() + 1);
            (
                hashcore_crypto::sha256d(input),
                hashcore::VerifyCost::NOMINAL,
            )
        }
    }

    #[test]
    fn a_redelivered_tip_is_known_without_hashing() {
        let mut tree = ForkTree::new(CountingPow::default());
        let a = mine_child(GENESIS_HASH, "a", 2);
        let b = mine_child(digest(&a), "b", 2);
        tree.apply(a.clone()).expect("valid");
        tree.apply(b.clone()).expect("valid");
        let evaluations = tree.pow().0.get();
        let other_body = Block {
            transactions: vec![b"another body".to_vec()],
            ..b.clone()
        };
        for block in [b.clone(), other_body] {
            assert_eq!(
                tree.apply(block),
                Ok(ApplyOutcome::AlreadyKnown { digest: digest(&b) })
            );
        }
        assert_eq!(tree.pow().0.get(), evaluations, "the tip is not hashed");
        // A known block below the tip is recognised by its digest.
        assert_eq!(
            tree.apply(a.clone()),
            Ok(ApplyOutcome::AlreadyKnown { digest: digest(&a) })
        );
        assert_eq!(tree.pow().0.get(), evaluations + 1);
        // A header that differs from the tip's only in its nonce is
        // another block: one evaluation, then its own verdict.
        let mut sibling = b;
        sibling.header.nonce += 1;
        assert!(!matches!(
            tree.apply(sibling),
            Ok(ApplyOutcome::AlreadyKnown { .. })
        ));
        assert_eq!(tree.pow().0.get(), evaluations + 2);
    }

    #[test]
    fn longer_branch_wins_and_reports_the_reorg_segments() {
        let mut tree = ForkTree::new(Sha256dPow);
        let a = mine_child(GENESIS_HASH, "a", 2);
        let b1 = mine_child(digest(&a), "b1", 2);
        let b2 = mine_child(digest(&b1), "b2", 2);
        // Competing branch off `a`, one block longer.
        let c1 = mine_child(digest(&a), "c1", 2);
        let c2 = mine_child(digest(&c1), "c2", 2);
        let c3 = mine_child(digest(&c2), "c3", 2);

        for block in [&a, &b1, &b2] {
            tree.apply(block.clone()).expect("valid");
        }
        assert_eq!(tree.tip(), digest(&b2));
        // Same length: stays a side chain (or switches on digest tie-break,
        // but work is equal only after c2, where the digest decides).
        tree.apply(c1.clone()).expect("valid");
        tree.apply(c2.clone()).expect("valid");
        let outcome = tree.apply(c3.clone()).expect("valid");
        match outcome {
            ApplyOutcome::TipChanged { digest: d, reorg } => {
                assert_eq!(d, digest(&c3));
                assert_eq!(reorg.detached, vec![b1.clone(), b2.clone()]);
                // The attached segment walks ancestor → new tip.
                let attached_tail = reorg.attached.clone();
                assert_eq!(attached_tail, vec![c1.clone(), c2.clone(), c3.clone()]);
                assert_eq!(reorg.depth(), 2);
                // The attached segment revalidates from the common ancestor.
                let anchor = attached_tail[0].header.prev_hash;
                assert_eq!(anchor, digest(&a));
                assert!(validate_segment_parallel(&Sha256dPow, &attached_tail, 3, anchor).is_ok());
            }
            other => panic!("expected reorg, got {other:?}"),
        }
        assert_eq!(tree.tip_height(), 4);
        assert!(tree.validate_best_chain().is_ok());
    }

    #[test]
    fn fork_choice_is_arrival_order_independent() {
        let a = mine_child(GENESIS_HASH, "a", 2);
        let b = mine_child(digest(&a), "b", 2);
        let c = mine_child(digest(&a), "c", 2); // equal-work sibling of b

        let mut forward = ForkTree::new(Sha256dPow);
        for block in [&a, &b, &c] {
            forward.apply(block.clone()).expect("valid");
        }
        let mut backward = ForkTree::new(Sha256dPow);
        for block in [&a, &c, &b] {
            backward.apply(block.clone()).expect("valid");
        }
        assert_eq!(forward.tip(), backward.tip());
        assert_eq!(forward.tip(), digest(&b).min(digest(&c)));
    }

    #[test]
    fn orphans_and_invalid_blocks_are_rejected() {
        let mut tree = ForkTree::new(Sha256dPow);
        let a = mine_child(GENESIS_HASH, "a", 2);
        let b = mine_child(digest(&a), "b", 2);
        // Parent unknown: the error names both the orphan and its parent.
        let err = tree.apply(b.clone()).unwrap_err();
        assert_eq!(
            err,
            ForkError::UnknownParent {
                digest: digest(&b),
                prev_hash: digest(&a),
            }
        );
        // Forged transaction breaks the Merkle commitment.
        let mut forged = a.clone();
        forged.transactions[0] = b"forged".to_vec();
        assert!(matches!(
            tree.apply(forged),
            Err(ForkError::InvalidBlock { .. })
        ));
        // A nonce that misses the embedded target breaks the PoW check.
        let mut weak = a.clone();
        weak.header.nonce = weak.header.nonce.wrapping_add(1);
        while Target::from_threshold(weak.header.target)
            .is_met_by(&Sha256dPow.pow_hash(&weak.header.bytes()))
        {
            weak.header.nonce = weak.header.nonce.wrapping_add(1);
        }
        assert!(matches!(
            tree.apply(weak),
            Err(ForkError::InvalidBlock { .. })
        ));
        assert!(tree.is_empty());
    }

    #[test]
    fn locator_and_segment_serving_round_trip() {
        let mut server = ForkTree::new(Sha256dPow);
        let mut prev = GENESIS_HASH;
        let mut chain = Vec::new();
        for i in 0..12 {
            let block = mine_child(prev, &format!("block-{i}"), 2);
            prev = digest(&block);
            server.apply(block.clone()).expect("valid");
            chain.push(block);
        }
        // A client that stopped after block 5 asks for the tip's segment.
        let mut client = ForkTree::new(Sha256dPow);
        for block in &chain[..5] {
            client.apply(block.clone()).expect("valid");
        }
        let locator = client.locator();
        assert_eq!(locator.first(), Some(&client.tip()));
        assert_eq!(locator.last(), Some(&GENESIS_HASH));

        let segment = server
            .segment_to(server.tip(), &locator)
            .expect("tip is stored");
        assert_eq!(segment, chain[5..].to_vec());
        // The segment anchors at a digest the client has, and validates.
        let anchor = segment[0].header.prev_hash;
        assert!(anchor == client.tip());
        assert!(validate_segment_parallel(&Sha256dPow, &segment, 4, anchor).is_ok());
        for block in segment {
            client.apply(block).expect("valid");
        }
        assert_eq!(client.tip(), server.tip());

        // A fully synced client gets an empty segment; unknown wants err.
        let synced = server.segment_to(server.tip(), &server.locator());
        assert_eq!(synced, Ok(Vec::new()));
        assert_eq!(
            server.segment_to([0x12; 32], &locator),
            Err(SegmentError::UnknownBlock { want: [0x12; 32] })
        );
    }

    /// Mines a linear chain of `len` blocks over genesis, returning them in
    /// order.
    fn mined_line(len: usize, tag: &str) -> Vec<Block> {
        let mut prev = GENESIS_HASH;
        (0..len)
            .map(|i| {
                let block = mine_child(prev, &format!("{tag}-{i}"), 2);
                prev = digest(&block);
                block
            })
            .collect()
    }

    /// [`mined_line`] with bodies of 3, 2, 3, 1, 5, 3 and 0 transactions in
    /// turn, so a 4-lane chunk's leaves straddle its bodies.
    fn mixed_line(len: usize, tag: &str) -> Vec<Block> {
        let mut prev = GENESIS_HASH;
        (0..len)
            .map(|i| {
                let count = [3, 2, 3, 1, 5, 3, 0][i % 7];
                let txs = (0..count)
                    .map(|j| format!("{tag}-{i}-{j}").into_bytes())
                    .collect();
                let block = mine_body(prev, txs, 2);
                prev = digest(&block);
                block
            })
            .collect()
    }

    #[test]
    fn pruning_keeps_a_locator_safe_window_and_serves_or_errors_cleanly() {
        let chain = mined_line(24, "main");
        let mut server = ForkTree::new(Sha256dPow);
        // A stale side branch forking at height 4: pruned along with the old
        // history once the cutoff passes its fork point.
        let stale = mine_child(digest(&chain[3]), "stale", 2);
        for block in &chain {
            server.apply(block.clone()).expect("valid");
        }
        server.apply(stale.clone()).expect("valid");
        assert_eq!(server.len(), 25);

        // Clients that stopped at various heights, with live locators taken
        // *before* the prune.
        let mut clients: Vec<(usize, Vec<Digest256>)> = Vec::new();
        for stopped in [4usize, 10, 11, 16, 23] {
            let mut client = ForkTree::new(Sha256dPow);
            for block in &chain[..stopped] {
                client.apply(block.clone()).expect("valid");
            }
            clients.push((stopped, client.locator()));
        }

        let evicted = server.prune(12);
        // Heights 1..=11 of the main chain (11 blocks) and the stale branch.
        assert_eq!(evicted, 12);
        assert_eq!(server.len(), 13);
        assert_eq!(server.root(), digest(&chain[11]));
        assert_eq!(server.root_height(), 12);
        assert_eq!(server.tip(), digest(&chain[23]));
        assert_eq!(server.tip_height(), 24);
        assert!(!server.contains(&digest(&stale)));
        server
            .validate_best_chain()
            .expect("retained chain validates");
        assert_eq!(server.best_chain(), chain[11..].to_vec());
        assert_eq!(server.locator().first(), Some(&server.tip()));
        assert!(server.locator().contains(&server.root()));

        for (stopped, locator) in &clients {
            let served = server.segment_to(server.tip(), locator);
            if *stopped >= 11 {
                // The client's tip is the root (height 12), inside the
                // window, or the root's parent (height 11): the segment is
                // exactly what an unpruned server would ship.
                assert_eq!(
                    served.as_deref(),
                    Ok(&chain[*stopped..]),
                    "client at height {stopped}"
                );
            } else {
                // Behind the window: a clean pruned error, never a panic or
                // a mis-anchored segment.
                assert_eq!(
                    served,
                    Err(SegmentError::Pruned {
                        root: server.root()
                    }),
                    "client at height {stopped}"
                );
            }
        }

        // The tree keeps working after the prune: new blocks extend the tip
        // and a second prune advances the window.
        let next = mine_child(server.tip(), "next", 2);
        server.apply(next.clone()).expect("valid");
        assert_eq!(server.tip(), digest(&next));
        assert!(server.prune(12) > 0);
        assert_eq!(server.root_height(), 13);
        server.validate_best_chain().expect("still validates");

        // Widening the window afterwards cannot resurrect pruned history
        // (cutoff would land below the current root): it is a no-op, never
        // a phantom root.
        assert_eq!(server.prune(20), 0);
        assert_eq!(server.root_height(), 13);
        assert!(server.contains(&server.root()));
        server.validate_best_chain().expect("root stays real");
    }

    #[test]
    fn pruning_within_the_window_is_a_no_op() {
        let chain = mined_line(6, "short");
        let mut tree = ForkTree::new(Sha256dPow);
        for block in &chain {
            tree.apply(block.clone()).expect("valid");
        }
        assert_eq!(tree.prune(6), 0);
        assert_eq!(tree.prune(100), 0);
        assert_eq!(tree.root(), GENESIS_HASH);
        assert_eq!(tree.len(), 6);
        // The empty tree is also a no-op.
        let mut empty: ForkTree<Sha256dPow> = ForkTree::new(Sha256dPow);
        assert_eq!(empty.prune(0), 0);
    }

    /// Mines a child of `prev` with an explicit timestamp and target.
    fn mine_child_at(prev: Digest256, tag: &str, target: Target, timestamp: u64) -> Block {
        let txs = vec![tag.as_bytes().to_vec()];
        let mut header = BlockHeader {
            version: 1,
            prev_hash: prev,
            merkle_root: Block::merkle_root(&txs),
            timestamp,
            target: *target.threshold(),
            nonce: 0,
        };
        while !target.is_met_by(&Sha256dPow.pow_hash(&header.bytes())) {
            header.nonce += 1;
        }
        Block {
            header,
            transactions: txs,
        }
    }

    #[test]
    fn fixed_rule_rejects_foreign_targets_before_the_parent_lookup() {
        use crate::chain::InvalidReason;
        use crate::difficulty::DifficultyRule;
        let consensus = Target::from_leading_zero_bits(2);
        let mut tree = ForkTree::with_rule(Sha256dPow, DifficultyRule::Fixed(consensus));
        assert_eq!(tree.rule(), Some(&DifficultyRule::Fixed(consensus)));
        // A valid-PoW block at a cheaper target: rejected as a target
        // violation even though its parent is unknown — never an orphan
        // that would trigger a sync request.
        let cheap = mine_child_at([0xAB; 32], "cheap", Target::from_leading_zero_bits(0), 0);
        assert_eq!(
            tree.apply(cheap),
            Err(ForkError::InvalidBlock {
                reason: InvalidReason::Target,
            })
        );
        // Consensus-target blocks apply exactly as on a trusting tree.
        let a = mine_child(GENESIS_HASH, "a", 2);
        let mut trusting = ForkTree::new(Sha256dPow);
        assert_eq!(tree.apply(a.clone()), trusting.apply(a));
        assert_eq!(tree.expected_child_target(&tree.tip(), 77), Some(consensus));
    }

    #[test]
    fn ema_rule_enforces_the_expected_target_along_each_branch() {
        use crate::chain::InvalidReason;
        use crate::difficulty::{DifficultyRule, EmaRetarget};
        let initial = Target::from_leading_zero_bits(2);
        let rule = DifficultyRule::Ema(EmaRetarget {
            initial,
            target_block_time: 100.0,
            gain: 1.0,
        });
        let mut tree = ForkTree::with_rule(Sha256dPow, rule);
        // Genesis child: the initial target, whatever its timestamp.
        let a = mine_child_at(GENESIS_HASH, "a", initial, 100);
        tree.apply(a.clone()).expect("genesis child at initial");
        // Two children of `a` on diverging branches with different
        // reported gaps: each must embed its own branch's expectation.
        let slow = rule.child_target(initial, 100, 500); // ratio 4 → easier
        let steady = rule.child_target(initial, 100, 200); // ratio 1 → equal
        assert!(slow.threshold() > steady.threshold());
        assert_eq!(steady, initial.scale(1.0));
        let b = mine_child_at(digest(&a), "b-slow", slow, 500);
        let c = mine_child_at(digest(&a), "c-steady", steady, 200);
        tree.apply(b.clone()).expect("slow branch expectation");
        tree.apply(c.clone()).expect("steady branch expectation");
        // Embedding the *other* branch's target is a target violation, not
        // a PoW or policy pass.
        let wrong = mine_child_at(digest(&a), "wrong", slow, 200);
        assert_eq!(
            tree.apply(wrong),
            Err(ForkError::InvalidBlock {
                reason: InvalidReason::Target,
            })
        );
        // The easier (slow) branch carries *less* work: fork choice stays
        // with the steady branch — cheap self-eased blocks cannot buy the
        // tip.
        assert!(tree.work_of(&digest(&c)) > tree.work_of(&digest(&b)));
        assert_eq!(tree.tip(), digest(&c));
        // The query helper exposes exactly what apply enforced.
        assert_eq!(tree.expected_child_target(&digest(&a), 500), Some(slow));
        assert_eq!(tree.expected_child_target(&[0xCD; 32], 0), None);
    }

    #[test]
    fn mined_blocks_apply_to_a_fresh_tree_under_every_rule() {
        use crate::difficulty::{CostAwareRetarget, EmaRetarget};
        let time = EmaRetarget::new(Target::from_leading_zero_bits(2), 15.0, 0.3);
        for rule in [
            DifficultyRule::Fixed(Target::from_leading_zero_bits(2)),
            DifficultyRule::Ema(time),
            DifficultyRule::CostAware(CostAwareRetarget::new(time, 0.5, 2.0)),
        ] {
            let mut miner = ForkTree::with_rule(Sha256dPow, rule);
            let mut fresh = ForkTree::with_rule(Sha256dPow, rule);
            let mut clock = 0;
            for i in 0..12 {
                let block = miner
                    .mine_next(&[format!("tx-{i}").into_bytes()], clock, 1_000_000)
                    .expect("trivial difficulty")
                    .clone();
                clock += (block.header.nonce + 1) * 3;
                assert!(
                    matches!(fresh.apply(block), Ok(ApplyOutcome::TipChanged { .. })),
                    "{rule:?}: block {i}"
                );
            }
            assert_eq!(miner.tip_height(), 12);
            assert_eq!(fresh.fingerprint(), miner.fingerprint(), "{rule:?}");
        }
    }

    #[test]
    #[should_panic(expected = "mining needs a tree that enforces a difficulty rule")]
    fn mining_without_a_rule_panics() {
        let _ = ForkTree::new(Sha256dPow).mine_next(&[], 0, 1);
    }

    #[test]
    fn ancestor_timestamps_and_median_time_past_walk_the_branch() {
        let mut tree = ForkTree::new(Sha256dPow);
        let target = Target::from_leading_zero_bits(2);
        let mut prev = GENESIS_HASH;
        // Deliberately non-monotonic reported times.
        for (i, ts) in [50u64, 10, 40, 20, 30].iter().enumerate() {
            let block = mine_child_at(prev, &format!("t-{i}"), target, *ts);
            prev = digest(&block);
            tree.apply(block).expect("valid");
        }
        assert_eq!(tree.chain().ancestor_timestamps(&prev, 3), vec![40, 20, 30]);
        assert_eq!(tree.chain().ancestor_timestamps(&prev, 99).len(), 5);
        // Median of [40, 20, 30] sorted = [20, 30, 40] → 30.
        assert_eq!(tree.chain().median_time_past(&prev, 3), Some(30));
        // Even-sized window takes the lower middle: [20, 30, 40, 50]... the
        // last four are [10, 40, 20, 30] → sorted [10, 20, 30, 40] → 20.
        assert_eq!(tree.chain().median_time_past(&prev, 4), Some(20));
        assert_eq!(tree.chain().median_time_past(&GENESIS_HASH, 5), None);
        assert!(tree
            .chain()
            .ancestor_timestamps(&GENESIS_HASH, 5)
            .is_empty());
    }

    #[test]
    fn pruning_keeps_side_branches_that_fork_inside_the_window() {
        let chain = mined_line(10, "trunk");
        let mut tree = ForkTree::new(Sha256dPow);
        for block in &chain {
            tree.apply(block.clone()).expect("valid");
        }
        // A fresh side branch off height 8: inside any window of depth ≥ 2.
        let side = mine_child(digest(&chain[7]), "side", 2);
        tree.apply(side.clone()).expect("valid");
        tree.prune(4);
        assert!(tree.contains(&digest(&side)), "in-window fork survives");
        assert_eq!(tree.root(), digest(&chain[5]));
        // The side branch can still win the fork race after the prune.
        let side2 = mine_child(digest(&side), "side-2", 2);
        let side3 = mine_child(digest(&side2), "side-3", 2);
        tree.apply(side2).expect("valid");
        let outcome = tree.apply(side3.clone()).expect("valid");
        assert!(matches!(outcome, ApplyOutcome::TipChanged { .. }));
        assert_eq!(tree.tip(), digest(&side3));
        tree.validate_best_chain().expect("reorged chain validates");
    }

    #[test]
    fn snapshot_restore_roundtrips_fingerprint_and_queries() {
        let mut tree = ForkTree::with_rule(
            Sha256dPow,
            DifficultyRule::Ema(crate::difficulty::EmaRetarget {
                initial: Target::from_leading_zero_bits(2),
                target_block_time: 10.0,
                gain: 0.0, // flat: mined fixtures stay valid under the rule
            }),
        );
        let chain = mined_line(6, "trunk");
        for block in &chain {
            tree.apply(block.clone()).expect("valid");
        }
        // A side branch so the snapshot carries more than the best chain.
        let side = mine_child(digest(&chain[3]), "side", 2);
        tree.apply(side.clone()).expect("valid");

        let snap = tree.snapshot();
        assert_eq!(snap.root, GENESIS_HASH);
        assert_eq!(snap.blocks.len(), 7);
        let restored = ForkTree::from_snapshot(Sha256dPow, &snap).expect("restores");
        assert_eq!(restored.fingerprint(), tree.fingerprint());
        assert_eq!(restored.tip(), tree.tip());
        assert_eq!(restored.locator(), tree.locator());
        assert_eq!(restored.best_chain(), tree.best_chain());
        assert_eq!(restored.rule(), tree.rule());

        // Fingerprints discriminate: dropping the side branch changes it.
        let mut trimmed = snap.clone();
        trimmed
            .blocks
            .retain(|block| digest(block) != digest(&side));
        let thinner = ForkTree::from_snapshot(Sha256dPow, &trimmed).expect("restores");
        assert_ne!(thinner.fingerprint(), tree.fingerprint());
    }

    #[test]
    fn pruned_tree_snapshot_restores_identically() {
        let chain = mined_line(10, "trunk");
        let mut tree = ForkTree::new(Sha256dPow);
        for block in &chain {
            tree.apply(block.clone()).expect("valid");
        }
        assert!(tree.prune(4) > 0);
        assert_eq!(tree.root(), digest(&chain[5]));

        let snap = tree.snapshot();
        assert_eq!(snap.root, digest(&chain[5]));
        assert_eq!(snap.root_height, 6);
        let restored = ForkTree::from_snapshot(Sha256dPow, &snap).expect("restores");

        assert_eq!(restored.fingerprint(), tree.fingerprint());
        assert_eq!(restored.root(), tree.root());
        assert_eq!(restored.root_height(), tree.root_height());
        assert_eq!(restored.tip(), tree.tip());
        assert_eq!(restored.locator(), tree.locator());
        // A requester below the retention window gets the same clean
        // `Pruned` answer from the live and the restored tree.
        let want = tree.tip();
        let below = vec![digest(&chain[1]), GENESIS_HASH];
        let live = tree.segment_to(want, &below).unwrap_err();
        let back = restored.segment_to(want, &below).unwrap_err();
        assert_eq!(live, back);
        assert!(matches!(live, SegmentError::Pruned { root } if root == digest(&chain[5])));
        // And an in-window requester gets the identical segment.
        let known = vec![digest(&chain[7])];
        assert_eq!(
            tree.segment_to(want, &known).expect("servable"),
            restored.segment_to(want, &known).expect("servable"),
        );
        restored
            .validate_best_chain()
            .expect("restored chain validates");
    }

    #[test]
    fn restore_rejects_tampered_snapshots() {
        let chain = mined_line(6, "trunk");
        let mut tree = ForkTree::new(Sha256dPow);
        for block in &chain {
            tree.apply(block.clone()).expect("valid");
        }
        tree.prune(2);
        let snap = tree.snapshot();

        // Swapped root block: digest no longer matches the recorded root.
        let mut wrong_root = snap.clone();
        wrong_root.blocks[0] = chain[0].clone();
        assert!(matches!(
            ForkTree::from_snapshot(Sha256dPow, &wrong_root),
            Err(RestoreError::RootMismatch { .. })
        ));

        // Forged transaction in the root: the digest (header-only) still
        // matches, but the Merkle commitment breaks.
        let mut forged = snap.clone();
        forged.blocks[0].transactions[0] = b"forged".to_vec();
        assert!(matches!(
            ForkTree::from_snapshot(Sha256dPow, &forged),
            Err(RestoreError::RootPow)
        ));

        // Missing interior block: its child fails to attach.
        let mut gapped = snap.clone();
        gapped.blocks.remove(1);
        assert!(matches!(
            ForkTree::from_snapshot(Sha256dPow, &gapped),
            Err(RestoreError::Apply {
                error: ForkError::UnknownParent { .. },
                ..
            })
        ));

        // Empty block list for a pruned snapshot: no root to anchor on.
        let mut empty = snap;
        empty.blocks.clear();
        assert!(matches!(
            ForkTree::from_snapshot(Sha256dPow, &empty),
            Err(RestoreError::RootMismatch { .. })
        ));
    }

    /// The ways a stored block fails, each as a stand-in for `block` with
    /// the reason it fails for (`None` for [`ForkError::UnknownParent`]): a
    /// nonce that misses its target, an altered transaction, a valid block
    /// on a foreign parent and, when `block` has an odd body of three or
    /// more transactions, that body with its last transaction repeated,
    /// which has the header's root and fails only the equal-siblings test.
    fn failing_stand_ins(block: &Block) -> Vec<(Block, Option<InvalidReason>)> {
        let mut weak = block.clone();
        weak.header.nonce = weak.header.nonce.wrapping_add(1);
        while Target::from_threshold(weak.header.target).is_met_by(&digest(&weak)) {
            weak.header.nonce = weak.header.nonce.wrapping_add(1);
        }
        let mut forged = block.clone();
        match forged.transactions.last_mut() {
            Some(tx) => *tx = b"forged".to_vec(),
            None => forged.transactions.push(b"forged".to_vec()),
        }
        let mut stand_ins = vec![
            (weak, Some(InvalidReason::Pow)),
            (forged, Some(InvalidReason::Merkle)),
            (mine_child([0x42; 32], "foreign", 2), None),
        ];
        let count = block.transactions.len();
        if count >= 3 && count % 2 == 1 {
            let mut repeated = block.clone();
            repeated
                .transactions
                .push(block.transactions[count - 1].clone());
            assert_eq!(
                Block::merkle_root(&repeated.transactions),
                block.header.merkle_root
            );
            stand_ins.push((repeated, Some(InvalidReason::Merkle)));
        }
        stand_ins
    }

    /// A restore one block at a time, as it ran before stored blocks were
    /// batched: the root (if any) through the root path, then every other
    /// block through `apply`, stopping at the first error. Returns the
    /// restored fingerprint.
    fn restore_block_by_block(snapshot: &TreeSnapshot) -> Result<Digest256, RestoreError> {
        let roots = usize::from(snapshot.root != GENESIS_HASH);
        let base = TreeSnapshot {
            blocks: snapshot.blocks[..roots].to_vec(),
            ..snapshot.clone()
        };
        let mut tree = ForkTree::from_snapshot(Sha256dPow, &base)?;
        for (index, block) in snapshot.blocks.iter().enumerate().skip(roots) {
            tree.apply(block.clone())
                .map_err(|error| RestoreError::Apply { index, error })?;
        }
        Ok(tree.fingerprint())
    }

    #[test]
    fn batched_restore_matches_a_block_by_block_reference() {
        let chain = mixed_line(14, "trunk");
        let mut unpruned = ForkTree::new(Sha256dPow);
        for block in &chain[..10] {
            unpruned.apply(block.clone()).expect("valid");
        }
        let mut pruned = ForkTree::new(Sha256dPow);
        for block in &chain {
            pruned.apply(block.clone()).expect("valid");
        }
        pruned.prune(7);
        let empty = ForkTree::new(Sha256dPow).fingerprint();
        // Lane positions of full chunks (and `NONCE_LANES` for the short
        // final chunk) that a repeated-tail body was restored at.
        let mut repeated_tails_at = std::collections::BTreeSet::new();
        for source in [unpruned, pruned] {
            let snapshot = source.snapshot();
            let roots = usize::from(snapshot.root != GENESIS_HASH);
            // Two full 4-lane chunks and a short one of two unpruned; a full
            // chunk and a short one of three after the pruned root.
            let replayed = snapshot.blocks.len() - roots;
            assert_eq!(replayed, [10, 7][roots]);
            let restored = ForkTree::from_snapshot(Sha256dPow, &snapshot).expect("restores");
            assert_eq!(restored.fingerprint(), source.fingerprint());
            assert_eq!(restore_block_by_block(&snapshot), Ok(source.fingerprint()));
            // One failing block at every lane position of every chunk: the
            // same error at the same index, and a reset tree.
            for index in roots..snapshot.blocks.len() {
                let stand_ins = failing_stand_ins(&snapshot.blocks[index]);
                if stand_ins.len() == 4 {
                    let offset = index - roots;
                    let full = replayed - replayed % NONCE_LANES;
                    repeated_tails_at.insert(if offset < full {
                        offset % NONCE_LANES
                    } else {
                        NONCE_LANES
                    });
                }
                for (stand_in, reason) in stand_ins {
                    let mut tampered = snapshot.clone();
                    tampered.blocks[index] = stand_in;
                    let want = restore_block_by_block(&tampered);
                    let failed = match &want {
                        Err(RestoreError::Apply { index: i, error }) if *i == index => error,
                        other => panic!("block {index}: {other:?}"),
                    };
                    let failed_for = match failed {
                        ForkError::InvalidBlock { reason } => Some(*reason),
                        ForkError::UnknownParent { .. } => None,
                    };
                    assert_eq!(failed_for, reason);
                    let mut tree =
                        ForkTree::from_snapshot(Sha256dPow, &snapshot).expect("restores");
                    let got = tree.restore_from_snapshot(&tampered);
                    assert_eq!(got.map(|()| tree.fingerprint()), want, "block {index}");
                    assert!(tree.is_empty());
                    assert_eq!(tree.tip(), GENESIS_HASH);
                    assert_eq!(tree.fingerprint(), empty);
                }
            }
        }
        assert_eq!(repeated_tails_at.len(), NONCE_LANES + 1);
    }
}
