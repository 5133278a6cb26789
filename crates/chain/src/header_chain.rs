//! The header-level state machine shared by full nodes and light clients.
//!
//! A [`HeaderChain`] stores items keyed by their header's PoW digest — bare
//! [`BlockHeader`]s for a light client, whole [`Block`](crate::Block)s
//! inside a [`ForkTree`](crate::ForkTree) — and makes every header-level
//! decision for both: the acceptance checks, the strict `(cumulative work,
//! digest)` fork choice, per-branch [`DifficultyRule`] enforcement,
//! median-time-past, locators and the pruning retention root. The caller
//! supplies each header's PoW digest and observed cost ratio (one hash
//! evaluation, e.g. via
//! [`ForkTree::digest_and_cost_of_header`](crate::ForkTree::digest_and_cost_of_header)),
//! so a light client's verify CPU per header is exactly one hash plus
//! policy arithmetic — the cost model the light-client workload measures.
//!
//! Because fork choice is a function of the stored header *set* alone, a
//! light client that has seen the same headers as a full node selects the
//! same tip, whatever the arrival order — and since both run this one
//! state machine, they hand down the same verdict on every header.

use crate::block::BlockHeader;
use crate::chain::{InvalidReason, RuleContext};
use crate::difficulty::{branch_state, BranchState, DifficultyRule};
use crate::fork::{ForkError, GENESIS_HASH};
use hashcore::Target;
use hashcore_crypto::{Digest256, DigestMap, DigestSet, DigestState};

/// What [`HeaderChain::accept`] did with a header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderOutcome {
    /// The digest was already stored; nothing changed.
    AlreadyKnown,
    /// Stored on a branch that did not overtake the best tip.
    SideChain,
    /// The header extended or switched the best tip.
    TipChanged {
        /// How many headers left the best chain (0 for a plain extension).
        reorg_depth: u64,
    },
}

/// What [`HeaderChain::accept_item`] did with an item — the shape both
/// [`HeaderOutcome`] and [`ApplyOutcome`](crate::ApplyOutcome) are built
/// from.
pub(crate) enum Accepted {
    /// The digest was already stored.
    Known,
    /// Stored off the best chain.
    Side,
    /// Stored as the new tip, replacing `previous`.
    Tip {
        /// The tip before this item.
        previous: Digest256,
    },
}

/// One stored item plus its position in the chain.
#[derive(Debug, Clone)]
pub(crate) struct Entry<T> {
    pub(crate) item: T,
    pub(crate) height: u64,
    /// Cumulative expected hash attempts from genesis through this item.
    pub(crate) work: f64,
    /// The item's own observed verifier-cost ratio (1.0 when none was
    /// observed). A pure function of the header bytes — cached from the
    /// accept-time hash so commitment checks and reports never re-execute
    /// widgets — and deliberately not part of
    /// [`ForkTree::fingerprint`](crate::ForkTree::fingerprint), which it is
    /// derivable from.
    pub(crate) cost_ratio: f64,
}

impl<T: AsRef<BlockHeader>> Entry<T> {
    fn branch_state(&self) -> BranchState {
        branch_state(self.item.as_ref(), self.cost_ratio)
    }
}

/// A store of headers (or of items carrying one) keyed by PoW digest, with
/// cumulative-work fork choice — the state a light client keeps, and the
/// core of a full node's [`ForkTree`](crate::ForkTree).
///
/// Acceptance runs one check sequence: already known, the item's own body
/// check (the full node's Merkle commitment; nothing for a bare header),
/// the flat target of a [`DifficultyRule::Fixed`] rule, the digest against
/// the embedded target, the parent lookup (the parent must be stored, or
/// be [`GENESIS_HASH`]), then — on a rule-enforcing chain — the version
/// commitment, the expected target and the cost admission bound at that
/// branch position. Light clients never see bodies; they verify individual
/// transactions against `merkle_root` with batched inclusion proofs.
#[derive(Debug, Clone)]
pub struct HeaderChain<T = BlockHeader> {
    /// Every stored item by its PoW digest, hashed under this chain's own
    /// [`DigestState`] keys.
    entries: DigestMap<Entry<T>>,
    tip: Digest256,
    /// The oldest item every stored branch descends from: [`GENESIS_HASH`]
    /// until the first [`HeaderChain::prune`], afterwards the best-chain
    /// item at the pruning cutoff. Backward walks stop here.
    root: Digest256,
    /// Difficulty policy enforced per branch; `None` trusts embedded
    /// targets.
    rule: Option<DifficultyRule>,
}

impl<T> Default for HeaderChain<T> {
    fn default() -> Self {
        Self {
            entries: DigestMap::default(),
            tip: GENESIS_HASH,
            root: GENESIS_HASH,
            rule: None,
        }
    }
}

impl HeaderChain {
    /// Creates an empty chain whose tip is [`GENESIS_HASH`]. Embedded
    /// targets are trusted; use [`HeaderChain::with_rule`] to enforce a
    /// difficulty policy along every branch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty chain that enforces `rule` along every branch,
    /// exactly as [`ForkTree::with_rule`](crate::ForkTree::with_rule) does
    /// for full blocks.
    pub fn with_rule(rule: DifficultyRule) -> Self {
        let mut chain = Self::new();
        chain.set_rule(rule);
        chain
    }

    /// Validates and stores a header, advancing the tip if its branch now
    /// carries the most cumulative work. `digest` must be the header's PoW
    /// digest, evaluated by the caller.
    ///
    /// # Errors
    ///
    /// [`ForkError::UnknownParent`] when the parent is not stored (the
    /// client should request the connecting headers), or
    /// [`ForkError::InvalidBlock`] when the digest misses the embedded
    /// target ([`InvalidReason::Pow`]) or — on a rule-enforcing chain —
    /// the embedded target is not the one the [`DifficultyRule`] expects
    /// at this branch position ([`InvalidReason::Target`]).
    pub fn accept(
        &mut self,
        header: BlockHeader,
        digest: Digest256,
    ) -> Result<HeaderOutcome, ForkError> {
        self.accept_observed(header, digest, 1.0)
    }

    /// [`HeaderChain::accept`] with the header's observed verifier-cost
    /// ratio (from the same hash evaluation that produced `digest`). Under
    /// a cost-aware rule the ratio drives the commitment recurrence and the
    /// per-block admission bound; other rules ignore it.
    ///
    /// # Errors
    ///
    /// As [`HeaderChain::accept`].
    pub fn accept_observed(
        &mut self,
        header: BlockHeader,
        digest: Digest256,
        cost_ratio: f64,
    ) -> Result<HeaderOutcome, ForkError> {
        let reorg_depth = match self.accept_item(header, digest, cost_ratio, |_| true)? {
            Accepted::Known => return Ok(HeaderOutcome::AlreadyKnown),
            Accepted::Side => return Ok(HeaderOutcome::SideChain),
            Accepted::Tip { previous } => self.fork_path(previous, digest).0.len() as u64,
        };
        Ok(HeaderOutcome::TipChanged { reorg_depth })
    }
}

impl<T: AsRef<BlockHeader>> HeaderChain<T> {
    /// Installs a difficulty rule on an empty chain (builder-style wiring
    /// for callers that construct the chain before choosing the policy).
    ///
    /// # Panics
    ///
    /// Panics if anything is already stored — retroactive enforcement
    /// would leave unchecked branches behind.
    pub fn set_rule(&mut self, rule: DifficultyRule) {
        assert!(
            self.entries.is_empty(),
            "the difficulty rule must be installed before any block is stored"
        );
        self.rule = Some(rule);
    }

    /// The difficulty rule enforced along every branch, if one was set.
    pub fn rule(&self) -> Option<&DifficultyRule> {
        self.rule.as_ref()
    }

    /// The oldest stored item every branch descends from: [`GENESIS_HASH`]
    /// until the chain has been pruned, then the retention root.
    pub fn root(&self) -> Digest256 {
        self.root
    }

    /// Height of the retention root (0 until the chain has been pruned).
    pub fn root_height(&self) -> u64 {
        self.height_of(&self.root)
    }

    /// Number of items stored, across every branch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Digest of the best tip ([`GENESIS_HASH`] for the empty chain).
    pub fn tip(&self) -> Digest256 {
        self.tip
    }

    /// Height of the best tip (number of items on the best chain).
    pub fn tip_height(&self) -> u64 {
        self.height_of(&self.tip)
    }

    /// Cumulative expected work of the best chain.
    pub fn tip_work(&self) -> f64 {
        self.work_of(&self.tip)
    }

    /// `true` when an item with this digest is stored.
    pub fn contains(&self, digest: &Digest256) -> bool {
        self.entries.contains_key(digest)
    }

    /// The header of the stored item with this digest, if any.
    pub fn header(&self, digest: &Digest256) -> Option<&BlockHeader> {
        self.get(digest).map(AsRef::as_ref)
    }

    /// Height of a stored item (0 for [`GENESIS_HASH`], which "stores" the
    /// empty chain).
    pub fn height_of(&self, digest: &Digest256) -> u64 {
        self.entries.get(digest).map_or(0, |e| e.height)
    }

    /// Cumulative expected work through a stored item (0.0 when the digest
    /// is not stored).
    pub fn work_of(&self, digest: &Digest256) -> f64 {
        self.entries.get(digest).map_or(0.0, |e| e.work)
    }

    /// The observed verifier-cost ratio of a stored item (1.0 when the
    /// digest is not stored).
    pub fn cost_ratio_of(&self, digest: &Digest256) -> f64 {
        self.entries.get(digest).map_or(1.0, |e| e.cost_ratio)
    }

    /// The stored item with this digest, if any.
    pub(crate) fn get(&self, digest: &Digest256) -> Option<&T> {
        self.entries.get(digest).map(|e| &e.item)
    }

    /// Every stored entry, in no particular order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&Digest256, &Entry<T>)> {
        self.entries.iter()
    }

    /// Makes room for at least `additional` more items, so that storing
    /// them does not grow the map.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Empties the chain and installs `rule`, optionally planting a
    /// retention root at a recorded position — the starting state of a
    /// snapshot restore. The map keeps its capacity.
    pub(crate) fn restart(
        &mut self,
        rule: Option<DifficultyRule>,
        root: Option<(Digest256, Entry<T>)>,
    ) {
        self.entries.clear();
        self.rule = rule;
        self.root = GENESIS_HASH;
        self.tip = GENESIS_HASH;
        if let Some((digest, entry)) = root {
            self.entries.insert(digest, entry);
            self.root = digest;
            self.tip = digest;
        }
    }

    /// The one acceptance sequence (see [`HeaderChain`]): validates and
    /// stores `item`, whose header has PoW `digest` and observed verifier
    /// cost `cost_ratio`, and moves the tip when `(work, digest)` now beats
    /// it. `body_valid` is the item's own consistency check, failing as
    /// [`InvalidReason::Merkle`].
    pub(crate) fn accept_item(
        &mut self,
        item: T,
        digest: Digest256,
        cost_ratio: f64,
        body_valid: impl FnOnce(&T) -> bool,
    ) -> Result<Accepted, ForkError> {
        let invalid = |reason| Err(ForkError::InvalidBlock { reason });
        if self.entries.contains_key(&digest) {
            return Ok(Accepted::Known);
        }
        if !body_valid(&item) {
            return invalid(InvalidReason::Merkle);
        }
        let header = item.as_ref();
        // The branch-independent half of the difficulty policy: a fixed
        // rule's expectation needs no parent, so a wrong-target block is
        // rejected before the orphan path could trigger a segment sync.
        if let Some(flat) = self.rule.as_ref().and_then(DifficultyRule::flat_target) {
            if header.target != *flat.threshold() {
                return invalid(InvalidReason::Target);
            }
        }
        let target = Target::from_threshold(header.target);
        if !target.is_met_by(&digest) {
            return invalid(InvalidReason::Pow);
        }
        let Some(parent) = self.parent(&header.prev_hash) else {
            return Err(ForkError::UnknownParent {
                digest,
                prev_hash: header.prev_hash,
            });
        };
        // The branch-aware half: with the parent resolved, the rule's
        // expectations at this exact branch position are computable from
        // headers alone.
        if let Some(rule) = &self.rule {
            if let Err(reason) =
                rule.check_child(parent.map(Entry::branch_state), header, &digest, cost_ratio)
            {
                return invalid(reason);
            }
        }
        let (height, work) = parent.map_or((1, 0.0), |p| (p.height + 1, p.work));
        let work = work + target.expected_attempts();
        self.entries.insert(
            digest,
            Entry {
                item,
                height,
                work,
                cost_ratio,
            },
        );
        // Fork choice: the lexicographic order on `(cumulative work,
        // digest)`, so the tip is a function of the stored set alone.
        let tip_work = self.tip_work();
        let previous = self.tip;
        if previous == GENESIS_HASH || work > tip_work || (work == tip_work && digest < previous) {
            self.tip = digest;
            Ok(Accepted::Tip { previous })
        } else {
            Ok(Accepted::Side)
        }
    }

    /// The entry a child of `digest` extends: `Some(None)` for
    /// [`GENESIS_HASH`], `Some(Some(_))` for a stored item, `None` when
    /// `digest` is unknown.
    fn parent(&self, digest: &Digest256) -> Option<Option<&Entry<T>>> {
        if *digest == GENESIS_HASH {
            return Some(None);
        }
        self.entries.get(digest).map(Some)
    }

    /// The chain's rule together with the branch state of `anchor` — what
    /// the `_with_rule` segment validators need to enforce the rule along
    /// a segment extending `anchor`. `None` when no rule is enforced or
    /// `anchor` is neither stored nor [`GENESIS_HASH`].
    pub fn rule_context(&self, anchor: &Digest256) -> Option<RuleContext<'_>> {
        Some(RuleContext {
            rule: self.rule.as_ref()?,
            anchor: self.parent(anchor)?.map(Entry::branch_state),
        })
    }

    /// The target the chain's [`DifficultyRule`] expects of a child of
    /// `parent` reporting `child_timestamp` — what a miner extending that
    /// branch must embed (and meet). `None` when no rule is enforced or
    /// `parent` is neither stored nor [`GENESIS_HASH`].
    pub fn expected_child_target(
        &self,
        parent: &Digest256,
        child_timestamp: u64,
    ) -> Option<Target> {
        let ctx = self.rule_context(parent)?;
        Some(ctx.rule.expected_child_target(ctx.anchor, child_timestamp))
    }

    /// The version word the chain's rule expects of a child of `parent` —
    /// `Some` only under a cost-aware rule, where the version carries the
    /// branch's cost commitment; `None` means the plain version 1 (no rule,
    /// a rule without commitments, or `parent` neither stored nor
    /// [`GENESIS_HASH`]).
    pub fn expected_child_version(&self, parent: &Digest256) -> Option<u32> {
        let ctx = self.rule_context(parent)?;
        ctx.rule.expected_child_version(ctx.anchor)
    }

    /// Reported timestamps of up to `window` items ending at `digest` (the
    /// item itself and its nearest stored ancestors), oldest first — the
    /// window the median-time-past timestamp-validity rule is computed
    /// over. Empty when `digest` is not stored; the walk stops at the
    /// retention root.
    pub fn ancestor_timestamps(&self, digest: &Digest256, window: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cursor = *digest;
        while out.len() < window {
            let Some(header) = self.header(&cursor) else {
                break;
            };
            out.push(header.timestamp);
            if cursor == self.root {
                break;
            }
            cursor = header.prev_hash;
        }
        out.reverse();
        out
    }

    /// Median-time-past: the median of the up-to-`window` reported
    /// timestamps ending at `digest` — the lower bound the
    /// timestamp-validity rule holds child blocks strictly above, so a
    /// miner cannot rewind reported time to re-harden (or re-ease) a branch
    /// retroactively. `None` when `digest` is not stored (a genesis child
    /// has no history to bound).
    pub fn median_time_past(&self, digest: &Digest256, window: usize) -> Option<u64> {
        let mut timestamps = self.ancestor_timestamps(digest, window);
        if timestamps.is_empty() {
            return None;
        }
        timestamps.sort_unstable();
        Some(timestamps[(timestamps.len() - 1) / 2])
    }

    /// Parent digest of a stored item ([`GENESIS_HASH`] stays genesis).
    fn parent_of(&self, digest: &Digest256) -> Digest256 {
        self.header(digest).map_or(GENESIS_HASH, |h| h.prev_hash)
    }

    /// The digests a tip switch from `old` to `new` detaches and attaches,
    /// both ascending by height, found by walking both branches back to
    /// their common ancestor.
    pub(crate) fn fork_path(
        &self,
        old: Digest256,
        new: Digest256,
    ) -> (Vec<Digest256>, Vec<Digest256>) {
        let mut detached = Vec::new();
        let mut attached = Vec::new();
        let (mut a, mut b) = (old, new);
        while self.height_of(&a) > self.height_of(&b) {
            detached.push(a);
            a = self.parent_of(&a);
        }
        while self.height_of(&b) > self.height_of(&a) {
            attached.push(b);
            b = self.parent_of(&b);
        }
        while a != b {
            detached.push(a);
            a = self.parent_of(&a);
            attached.push(b);
            b = self.parent_of(&b);
        }
        detached.reverse();
        attached.reverse();
        (detached, attached)
    }

    /// The best chain's digests from the tip down to the genesis child or,
    /// once pruned, the retention root.
    pub(crate) fn best_path(&self) -> Vec<Digest256> {
        let mut out = Vec::new();
        let mut cursor = self.tip;
        while cursor != GENESIS_HASH {
            out.push(cursor);
            if cursor == self.root {
                break;
            }
            cursor = self.parent_of(&cursor);
        }
        out
    }

    /// Height of the highest stored item *not* on the best chain — how
    /// close the best runner-up branch gets to the tip. 0 when every stored
    /// item is on the best chain. The adversary harness reports
    /// `tip_height - max_side_branch_height` as the honest tip's safety
    /// margin.
    pub fn max_side_branch_height(&self) -> u64 {
        let on_best: DigestSet = self.best_path().into_iter().collect();
        self.entries
            .iter()
            .filter(|(digest, _)| !on_best.contains(*digest))
            .map(|(_, entry)| entry.height)
            .max()
            .unwrap_or(0)
    }

    /// A Bitcoin-style block locator for the best chain: the tip, then
    /// ancestors at exponentially increasing depth, ending with
    /// [`GENESIS_HASH`]. A peer serving a segment walks back from the wanted
    /// block until it hits one of these digests, so catch-up sync ships
    /// `O(missing)` blocks with an `O(log height)`-sized request.
    pub fn locator(&self) -> Vec<Digest256> {
        let mut out = Vec::new();
        let mut cursor = self.tip;
        let mut step = 1u64;
        while cursor != GENESIS_HASH && cursor != self.root {
            out.push(cursor);
            if out.len() >= 4 {
                step *= 2;
            }
            for _ in 0..step {
                cursor = self.parent_of(&cursor);
                if cursor == GENESIS_HASH || cursor == self.root {
                    break;
                }
            }
        }
        // A pruned chain's history bottoms out at its retention root; the
        // trailing genesis digest stays for compatibility (every peer
        // conceptually "knows" the empty chain).
        if cursor == self.root && self.root != GENESIS_HASH {
            out.push(self.root);
        }
        out.push(GENESIS_HASH);
        out
    }

    /// Drops every item more than `keep_depth` below the best tip, plus any
    /// branch that no longer connects to the retained window — the bound
    /// that keeps long-horizon (and adversarially spammed) simulations from
    /// growing without limit.
    ///
    /// The best-chain item exactly `keep_depth` below the tip becomes the
    /// new retention [`HeaderChain::root`]: it is kept, every retained item
    /// descends from it, and backward walks stop there. A branch forking
    /// below the root can never be reattached — items extending it are
    /// reported as [`ForkError::UnknownParent`] — which is the usual
    /// finality assumption of a pruning node.
    ///
    /// Returns the number of items evicted. Calling with a `keep_depth` of
    /// at least the tip height — or one that would place the cutoff at or
    /// below the existing retention root (history already gone) — is a
    /// no-op.
    pub fn prune(&mut self, keep_depth: u64) -> usize {
        let tip_height = self.tip_height();
        if tip_height <= keep_depth || self.tip == GENESIS_HASH {
            return 0;
        }
        let cutoff = tip_height - keep_depth;
        // A widened window cannot bring pruned history back: walking for a
        // root below the current one would step through pruned parents and
        // land on a phantom digest.
        if cutoff <= self.root_height() && self.root != GENESIS_HASH {
            return 0;
        }
        // The new root: the best-chain item at the cutoff height.
        let mut root = self.tip;
        while self.height_of(&root) > cutoff {
            root = self.parent_of(&root);
        }
        // Keep exactly the items whose ancestry stays above the cutoff all
        // the way to the new root; everything else (older history, branches
        // forked below the cutoff) is evicted.
        let mut keep =
            DigestSet::with_capacity_and_hasher(self.entries.len(), DigestState::default());
        keep.insert(root);
        let mut path = Vec::new();
        for digest in self.entries.keys() {
            let mut cursor = *digest;
            path.clear();
            let connected = loop {
                if keep.contains(&cursor) {
                    break true;
                }
                match self.entries.get(&cursor) {
                    Some(entry) if entry.height > cutoff => {
                        path.push(cursor);
                        cursor = entry.item.as_ref().prev_hash;
                    }
                    // Reached the cutoff (or a hole) on a digest that is not
                    // the root: this branch forked below the window.
                    _ => break false,
                }
            };
            if connected {
                keep.extend(path.iter().copied());
            }
        }
        let before = self.entries.len();
        self.entries.retain(|digest, _| keep.contains(digest));
        self.root = root;
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashcore_baselines::{PowFunction, Sha256dPow};

    /// Mines a header over `prev` that meets an easy (8 leading zero bits)
    /// target, returning the header and its digest.
    fn mine_header(prev: Digest256, timestamp: u64, salt: u8) -> (BlockHeader, Digest256) {
        let mut target = [0u8; 32];
        target[1..].fill(0xff);
        let mut header = BlockHeader {
            version: 1,
            prev_hash: prev,
            merkle_root: [salt; 32],
            timestamp,
            target,
            nonce: 0,
        };
        loop {
            let digest = Sha256dPow.pow_hash(&header.bytes());
            if Target::from_threshold(target).is_met_by(&digest) {
                return (header, digest);
            }
            header.nonce += 1;
        }
    }

    #[test]
    fn accepts_a_linear_chain_and_tracks_the_tip() {
        let mut chain = HeaderChain::new();
        assert!(chain.is_empty());
        assert_eq!(chain.tip(), GENESIS_HASH);
        let mut prev = GENESIS_HASH;
        for height in 1..=5u64 {
            let (header, digest) = mine_header(prev, height * 1_000, height as u8);
            let outcome = chain.accept(header, digest).expect("valid header");
            assert_eq!(outcome, HeaderOutcome::TipChanged { reorg_depth: 0 });
            assert_eq!(chain.tip(), digest);
            assert_eq!(chain.tip_height(), height);
            prev = digest;
        }
        assert_eq!(chain.len(), 5);
        let (repeat, repeat_digest) = mine_header(GENESIS_HASH, 1_000, 1);
        assert_eq!(
            chain.accept(repeat, repeat_digest),
            Ok(HeaderOutcome::AlreadyKnown)
        );
    }

    #[test]
    fn rejects_bad_pow_and_unknown_parents() {
        let mut chain = HeaderChain::new();
        let (header, digest) = mine_header(GENESIS_HASH, 1_000, 1);
        // A digest that misses the embedded target is a PoW failure.
        assert_eq!(
            chain.accept(header.clone(), [0xff; 32]),
            Err(ForkError::InvalidBlock {
                reason: InvalidReason::Pow
            })
        );
        // A child of an unseen parent is an orphan carrying both digests.
        let (orphan, orphan_digest) = mine_header([42u8; 32], 2_000, 2);
        assert_eq!(
            chain.accept(orphan, orphan_digest),
            Err(ForkError::UnknownParent {
                digest: orphan_digest,
                prev_hash: [42u8; 32],
            })
        );
        assert_eq!(
            chain.accept(header, digest).unwrap(),
            HeaderOutcome::TipChanged { reorg_depth: 0 }
        );
    }

    #[test]
    fn fork_choice_is_order_independent_and_reports_reorg_depth() {
        // Two branches over a common first header: a 1-header branch now,
        // a 2-header branch later — applying the longer branch reorgs with
        // depth 1.
        let (root, root_digest) = mine_header(GENESIS_HASH, 1_000, 1);
        let (short, short_digest) = mine_header(root_digest, 2_000, 2);
        let (long_a, long_a_digest) = mine_header(root_digest, 2_500, 3);
        let (long_b, long_b_digest) = mine_header(long_a_digest, 3_000, 4);

        let mut chain = HeaderChain::new();
        chain.accept(root.clone(), root_digest).unwrap();
        chain.accept(short.clone(), short_digest).unwrap();
        assert_eq!(chain.tip(), short_digest);
        assert_eq!(
            chain.accept(long_a.clone(), long_a_digest).unwrap(),
            HeaderOutcome::SideChain
        );
        assert_eq!(
            chain.accept(long_b.clone(), long_b_digest).unwrap(),
            HeaderOutcome::TipChanged { reorg_depth: 1 }
        );
        assert_eq!(chain.tip(), long_b_digest);
        assert_eq!(chain.tip_height(), 3);

        // The same set in a different order selects the same tip.
        let mut other = HeaderChain::new();
        other.accept(root, root_digest).unwrap();
        other.accept(long_a, long_a_digest).unwrap();
        other.accept(long_b, long_b_digest).unwrap();
        other.accept(short, short_digest).unwrap();
        assert_eq!(other.tip(), chain.tip());
        assert_eq!(other.tip_work(), chain.tip_work());
    }

    #[test]
    fn median_time_past_and_locator_match_full_node_shapes() {
        let mut chain = HeaderChain::new();
        let mut prev = GENESIS_HASH;
        let mut digests = Vec::new();
        for height in 1..=9u64 {
            let (header, digest) = mine_header(prev, height * 100, height as u8);
            chain.accept(header, digest).unwrap();
            digests.push(digest);
            prev = digest;
        }
        // MTP over a window of 5 ending at the tip: median of
        // {500,600,700,800,900}.
        assert_eq!(chain.median_time_past(&prev, 5), Some(700));
        assert_eq!(chain.median_time_past(&GENESIS_HASH, 5), None);
        let timestamps = chain.ancestor_timestamps(&prev, 3);
        assert_eq!(timestamps, vec![700, 800, 900]);
        // The locator starts at the tip, ends at genesis, and is sparse.
        let locator = chain.locator();
        assert_eq!(locator.first(), Some(&prev));
        assert_eq!(locator.last(), Some(&GENESIS_HASH));
        assert!(locator.len() < 10);
        assert!(locator.contains(&digests[0]) || locator.len() >= 2);
    }

    #[test]
    fn enforces_a_fixed_rule_on_embedded_targets() {
        let mut easy = [0u8; 32];
        easy[1..].fill(0xff);
        let mut chain = HeaderChain::with_rule(DifficultyRule::Fixed(Target::from_threshold(easy)));
        // The miner in `mine_header` embeds exactly this target.
        let (header, digest) = mine_header(GENESIS_HASH, 1_000, 1);
        chain
            .accept(header, digest)
            .expect("target matches the rule");
        // A header embedding a different (easier) target is rejected by the
        // flat-target policy before any parent lookup.
        let wrong = BlockHeader {
            version: 1,
            prev_hash: chain.tip(),
            merkle_root: [2u8; 32],
            timestamp: 2_000,
            target: [0xff; 32],
            nonce: 0,
        };
        let digest = Sha256dPow.pow_hash(&wrong.bytes());
        assert_eq!(
            chain.accept(wrong, digest),
            Err(ForkError::InvalidBlock {
                reason: InvalidReason::Target
            })
        );
    }
}
