//! The node state machine: construction, builders, message dispatch,
//! hardening policy (penalties, bans, plausibility floors), pruning and
//! crash-consistent persistence.

use crate::strategy::{Honest, Strategy};
use hashcore::Target;
use hashcore_baselines::PowFunction;
use hashcore_chain::{
    ApplyOutcome, Block, BlockHeader, DifficultyRule, ForkTree, HeaderChain, TreeSnapshot,
    GENESIS_HASH,
};
use hashcore_crypto::{Digest256, DigestMap, DigestSet};
use hashcore_store::{ChainStore, RecoveryReport};
use std::collections::{BTreeSet, HashMap};
use std::convert::Infallible;
use std::io;
use std::path::Path;

use super::light::{LightConfig, LightState};
use super::miner::Miner;
use super::stats::NodeStats;
use super::sync::PendingRequest;
use super::{Message, Outgoing, Role, TimestampRule, ORPHAN_EASING_SLACK};

/// A node's attachment to its on-disk [`ChainStore`]: every newly stored
/// block is appended to the segment log, and a full-tree snapshot is
/// committed every `snapshot_interval` stored blocks (and after every
/// prune, so the durable state never resurrects evicted branches).
#[derive(Debug)]
pub(crate) struct Persistence {
    pub(crate) store: ChainStore,
    /// Stored blocks between periodic snapshots (0 = snapshot only on
    /// prune).
    pub(crate) snapshot_interval: u64,
    /// Blocks appended since the last committed snapshot.
    pub(crate) since_snapshot: u64,
    /// Whether appends fsync per record (restored after a crash-restart).
    pub(crate) sync_appends: bool,
}

/// One simulated full node.
///
/// The node owns a [`ForkTree`] (its view of the block race), a resumable
/// miner, and a [`Strategy`] consulted at every behavioural decision point
/// — the default [`Honest`] strategy reproduces the pre-strategy node byte
/// for byte. All hashing — mining and fork-tree application alike — runs
/// through reusable per-node scratches, the same per-worker discipline as
/// `HashCore::mine_parallel` and `validate_segment_parallel`.
///
/// # Hardening
///
/// Incoming traffic is filtered before it can cost hash work or state:
/// blocks and segments embedding a non-consensus target are rejected
/// outright, segments that answer no in-flight request are dropped without
/// running the verifier, and every rejection increments a per-peer penalty
/// — a peer crossing the ban threshold is ignored entirely. When request
/// timeouts are enabled, a stalled segment request is re-issued to another
/// peer (deterministic round-robin, excluding peers that already stalled)
/// until it succeeds or the retry budget is spent.
#[derive(Debug)]
pub struct Node<P: PowFunction>
where
    P: std::fmt::Debug,
    P::Scratch: std::fmt::Debug,
{
    pub(crate) id: usize,
    pub(crate) tree: ForkTree<P>,
    /// The genesis (initial-difficulty) target: what a fixed-difficulty
    /// node mines at throughout, and what fake-orphan bait embeds.
    pub(crate) target: Target,
    /// Timestamp validity policy applied to incoming blocks and segments;
    /// `None` accepts any reported timestamp.
    pub(crate) timestamp_rule: Option<TimestampRule>,
    pub(crate) sync_threads: usize,
    pub(crate) miner: Miner<P::Scratch>,
    pub(crate) strategy: Box<dyn Strategy>,
    /// Orphan digests with a segment request in flight: concurrent
    /// duplicate announcements of the same unknown block must not each
    /// trigger a full segment fetch and re-validation.
    pub(crate) requested: DigestMap<PendingRequest>,
    /// Digests whose requests were abandoned after every retry: a reply
    /// that limps in afterwards is stale, not unsolicited — it must not
    /// earn its (possibly honest, merely slow) sender a penalty.
    pub(crate) abandoned: DigestSet,
    /// Total peers in the simulation (for retry round-robin); 0 disables
    /// re-requests.
    pub(crate) peers: usize,
    /// Simulated milliseconds before an unanswered segment request times
    /// out; `None` disables the timeout machinery entirely.
    pub(crate) request_timeout_ms: Option<u64>,
    /// Rejections from one peer before it is banned; 0 disables banning.
    pub(crate) ban_threshold: u32,
    /// Fork-tree retention window; `None` disables pruning.
    pub(crate) prune_depth: Option<u64>,
    /// Private (withheld) chain suffix, oldest first, with digests.
    pub(crate) withheld: Vec<(Block, Digest256)>,
    /// Work and tip of the best *public* (announced) chain this node knows
    /// — what a withholding strategy races against.
    pub(crate) public_work: f64,
    pub(crate) public_tip: Digest256,
    /// Valid-PoW bait blocks mined over a fabricated parent, by digest.
    pub(crate) fabricated: DigestMap<Block>,
    /// Rejection count per peer (lookup-only; never iterated, so the map
    /// order cannot leak into behaviour).
    pub(crate) penalties: HashMap<usize, u32>,
    /// Peers whose traffic is ignored (BTree for deterministic iteration).
    pub(crate) banned: BTreeSet<usize>,
    /// On-disk persistence, when enabled; `None` keeps the node purely
    /// in-memory, exactly as before persistence existed.
    pub(crate) persistence: Option<Persistence>,
    /// What the node does on the network; [`Role::Full`] by default.
    pub(crate) role: Role,
    /// Light-client state, present exactly when `role` is [`Role::Light`].
    pub(crate) light: Option<LightState>,
    /// Most proofs this node serves any single peer (0 = unlimited) —
    /// the serving quota that stops one light client from monopolising a
    /// full node's proof bandwidth.
    pub(crate) proof_quota: u64,
    /// Proofs served per requesting peer (lookup-only; never iterated).
    pub(crate) proofs_served_to: HashMap<usize, u64>,
    /// Bytes of deterministic filler appended to every mined block as a
    /// second transaction (0 = the bare tagged template, as always).
    pub(crate) body_bytes: usize,
    pub(crate) stats: NodeStats,
}

impl<P: PowFunction + Sync + std::fmt::Debug> Node<P>
where
    P::Scratch: std::fmt::Debug,
{
    /// Creates an honest node mining against `target`, validating synced
    /// segments across `sync_threads` workers.
    pub fn new(id: usize, pow: P, target: Target, sync_threads: usize) -> Self {
        Self {
            id,
            tree: ForkTree::with_rule(pow, DifficultyRule::Fixed(target)),
            target,
            timestamp_rule: None,
            sync_threads: sync_threads.max(1),
            miner: Miner::new(),
            strategy: Box::new(Honest),
            requested: DigestMap::default(),
            abandoned: DigestSet::default(),
            peers: 0,
            request_timeout_ms: None,
            ban_threshold: 0,
            prune_depth: None,
            withheld: Vec::new(),
            public_work: 0.0,
            public_tip: GENESIS_HASH,
            fabricated: DigestMap::default(),
            penalties: HashMap::new(),
            banned: BTreeSet::new(),
            persistence: None,
            role: Role::Full,
            light: None,
            proof_quota: 0,
            proofs_served_to: HashMap::new(),
            body_bytes: 0,
            stats: NodeStats::default(),
        }
    }

    /// Turns this node into a header-first light client (builder style).
    /// Must run *after* [`Node::with_difficulty`] so the light header
    /// chain inherits the installed rule. A light node neither mines nor
    /// validates bodies: its slice tick drives header sync and proof
    /// requests against `config.servers` instead.
    pub fn with_light_role(mut self, config: LightConfig) -> Self {
        self.role = Role::Light;
        let rule = self.tree.rule().copied();
        self.light = Some(LightState::new(config, self.id, rule));
        self
    }

    /// Caps the proofs this node serves any single peer (builder style);
    /// 0 (the default) serves without limit. Requests beyond the quota
    /// are silently refused — the requester's timeout rotates it to
    /// another server.
    pub fn with_proof_quota(mut self, quota: u64) -> Self {
        self.proof_quota = quota;
        self
    }

    /// Pads every block this node mines with one deterministic filler
    /// transaction of `bytes` bytes (builder style) — simulated
    /// transaction volume, so bandwidth comparisons between full and
    /// light peers measure something real. 0 (the default) keeps the
    /// bare tagged template, byte for byte.
    pub fn with_body_bytes(mut self, bytes: usize) -> Self {
        self.body_bytes = bytes;
        self
    }

    /// Replaces the node's behaviour strategy (builder style).
    pub fn with_strategy(mut self, strategy: Box<dyn Strategy>) -> Self {
        self.strategy = strategy;
        self
    }

    /// Installs the difficulty rule — mining targets then follow the best
    /// branch's expectation, and the fork tree enforces it per branch —
    /// and the timestamp validity policy (builder style; must run before
    /// any block is mined or applied). The default is
    /// `DifficultyRule::Fixed` at the construction target with no
    /// timestamp rule, which reproduces the fixed-difficulty node exactly.
    pub fn with_difficulty(
        mut self,
        rule: DifficultyRule,
        timestamp_rule: Option<TimestampRule>,
    ) -> Self {
        self.tree.set_rule(rule);
        // Keep the genesis target aligned with the rule: fake-orphan bait
        // and the template fallback must embed what peers' trees expect of
        // a genesis child, not a stale construction-time target.
        self.target = rule.genesis_target();
        self.timestamp_rule = timestamp_rule;
        self
    }

    /// The difficulty rule mining targets derive from — the single copy
    /// the node's fork tree holds and enforces per branch.
    pub(crate) fn rule(&self) -> &DifficultyRule {
        self.tree.rule().expect("nodes always install a rule")
    }

    /// Configures the hardening limits (builder style): total peer count
    /// for retry round-robin, the request timeout (`None` = no timeouts),
    /// the per-peer ban threshold (0 = never ban), and the fork-tree
    /// retention window (`None` = never prune).
    pub fn with_limits(
        mut self,
        peers: usize,
        request_timeout_ms: Option<u64>,
        ban_threshold: u32,
        prune_depth: Option<u64>,
    ) -> Self {
        self.peers = peers;
        self.request_timeout_ms = request_timeout_ms;
        self.ban_threshold = ban_threshold;
        self.prune_depth = prune_depth;
        self
    }

    /// Attaches an on-disk [`ChainStore`] (builder style): every block the
    /// node stores is appended to the segment log, and a full-tree
    /// snapshot is committed every `snapshot_interval` stored blocks
    /// (0 = only after prunes). The store's fsync policy is preserved
    /// across [`Node::crash_restart`].
    pub fn with_persistence(mut self, store: ChainStore, snapshot_interval: u64) -> Self {
        self.persistence = Some(Persistence {
            sync_appends: store.synced_appends(),
            store,
            snapshot_interval,
            since_snapshot: 0,
        });
        self
    }

    /// Directory of the attached chain store, if persistence is enabled.
    pub fn store_dir(&self) -> Option<&Path> {
        self.persistence.as_ref().map(|p| p.store.dir())
    }

    /// Simulates a process crash plus restart from disk: all volatile
    /// state (miner template, in-flight requests, withheld chain, peer
    /// penalties and bans, public-tip tracking) is discarded, the store
    /// directory is reopened through the recovery ladder, and the fork
    /// tree is rebuilt from the newest valid snapshot plus the committed
    /// log suffix. Returns the recovery report and the rejoin sends (a
    /// tip announcement — peers that moved ahead answer the node's
    /// resulting orphan requests through the existing segment sync).
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the node has no attached store; otherwise any
    /// I/O error from reopening, or `InvalidData` when the recovered
    /// snapshot itself fails restore validation (tampering the ladder
    /// could not detect structurally).
    pub fn crash_restart(&mut self) -> io::Result<(RecoveryReport, Vec<Outgoing>)> {
        let Some(old) = self.persistence.take() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "crash_restart requires an attached chain store",
            ));
        };
        let dir = old.store.dir().to_path_buf();
        let snapshot_interval = old.snapshot_interval;
        let sync_appends = old.sync_appends;
        // Close the old file handles before reopening: the crashed
        // process's descriptors are gone.
        drop(old);

        let pre_crash_fingerprint = self.tree.fingerprint();
        let rule = *self.rule();

        // Volatile state dies with the process.
        self.miner.template_valid = false;
        self.requested.clear();
        self.abandoned.clear();
        self.withheld.clear();
        self.fabricated.clear();
        self.penalties.clear();
        self.banned.clear();
        self.public_work = 0.0;
        self.public_tip = GENESIS_HASH;

        let (mut store, recovered) = ChainStore::open(&dir)?;
        store.set_sync(sync_appends);
        let base = recovered.snapshot.unwrap_or(TreeSnapshot {
            root: GENESIS_HASH,
            root_height: 0,
            root_work: 0.0,
            rule: Some(rule),
            blocks: Vec::new(),
        });
        self.tree.restore_from_snapshot(&base).map_err(|error| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("recovered snapshot failed restore: {error}"),
            )
        })?;
        let Ok(replayed) = self
            .tree
            .apply_stored(&recovered.replay, |_, _| Ok::<_, Infallible>(()));
        self.stats.blocks_replayed += replayed as u64;
        self.persistence = Some(Persistence {
            store,
            snapshot_interval,
            since_snapshot: 0,
            sync_appends,
        });
        self.stats.crash_restarts += 1;
        self.stats.recovery_lost_bytes += recovered.report.lost_bytes;
        if self.tree.fingerprint() == pre_crash_fingerprint {
            self.stats.recoveries_identical += 1;
        }
        // Rejoin handshake: announce the recovered tip so peers learn the
        // node is back; any block mined meanwhile arrives as an orphan and
        // triggers the normal catch-up segment sync.
        let out = match self.tree.tip_block().cloned() {
            Some(tip) => vec![Outgoing::Broadcast(Message::Block(tip))],
            None => Vec::new(),
        };
        Ok((recovered.report, out))
    }

    /// Appends a newly stored block to the segment log and commits a
    /// periodic snapshot when the interval is due. Persistence I/O errors
    /// are fatal: a store that silently stops recording would break the
    /// crash-recovery guarantee the simulation asserts.
    pub(crate) fn persist_block(&mut self, block: &Block) {
        let due = {
            let Some(p) = self.persistence.as_mut() else {
                return;
            };
            p.store
                .append_block(block)
                .expect("segment-log append must succeed while the node runs");
            p.since_snapshot += 1;
            p.snapshot_interval > 0 && p.since_snapshot >= p.snapshot_interval
        };
        if due {
            self.snapshot_to_store();
        }
    }

    /// Commits a full-tree snapshot to the attached store (no-op without
    /// one), resetting the periodic-snapshot counter.
    pub(crate) fn snapshot_to_store(&mut self) {
        let Self {
            tree, persistence, ..
        } = &mut *self;
        if let Some(p) = persistence.as_mut() {
            p.store
                .snapshot_now(&tree.snapshot())
                .expect("snapshot commit must succeed while the node runs");
            p.since_snapshot = 0;
        }
    }

    /// The node's identifier (its index in the simulation).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's current best tip digest — the header-chain tip for a
    /// light node, the fork-tree tip otherwise.
    pub fn tip(&self) -> Digest256 {
        match &self.light {
            Some(light) => light.headers.tip(),
            None => self.tree.tip(),
        }
    }

    /// Height of the node's best chain (header chain for a light node).
    pub fn tip_height(&self) -> u64 {
        match &self.light {
            Some(light) => light.headers.tip_height(),
            None => self.tree.tip_height(),
        }
    }

    /// The node's network role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Digest of the last tip whose transaction proofs verified — genesis
    /// until the first batch lands. Only meaningful for light nodes.
    pub fn proved_tip(&self) -> Digest256 {
        match &self.light {
            Some(light) => light.proved_tip,
            None => GENESIS_HASH,
        }
    }

    /// The node's fork tree.
    pub fn tree(&self) -> &ForkTree<P> {
        &self.tree
    }

    /// The node's counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// `true` when this node runs an adversarial strategy.
    pub fn is_adversarial(&self) -> bool {
        self.strategy.is_adversarial()
    }

    /// The strategy's short name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// The node this node's strategy is trying to eclipse, if any (see
    /// [`Strategy::eclipse_target`]).
    pub fn eclipse_target(&self) -> Option<usize> {
        self.strategy.eclipse_target()
    }

    /// Peers this node has banned.
    pub fn banned_peers(&self) -> &BTreeSet<usize> {
        &self.banned
    }

    /// Blocks currently withheld by the strategy.
    pub fn withheld_len(&self) -> usize {
        self.withheld.len()
    }

    /// Handles one delivered message from `from` at simulated time
    /// `now_ms` (the timestamp-validity rule's clock), returning the
    /// follow-up sends. Traffic from banned peers is dropped unseen.
    pub fn handle(&mut self, now_ms: u64, from: usize, message: Message) -> Vec<Outgoing> {
        if self.banned.contains(&from) {
            self.stats.rejections.from_banned += 1;
            return Vec::new();
        }
        match message {
            // The full-validation paths: a light node ignores body traffic
            // entirely (the scheduler converts announcements to headers).
            Message::Block(block) if self.role == Role::Full => {
                self.handle_block(now_ms, from, block)
            }
            Message::GetSegment { want, locator } if self.role == Role::Full => {
                self.handle_get_segment(from, want, &locator)
            }
            Message::Segment(blocks) if self.role == Role::Full => {
                self.handle_segment(now_ms, from, blocks)
            }
            Message::Block(_) | Message::GetSegment { .. } | Message::Segment(_) => Vec::new(),
            // The light-client protocol: full nodes serve, light nodes
            // consume.
            Message::GetHeaders { locator } => self.handle_get_headers(from, &locator),
            Message::Headers(headers) => self.handle_headers(now_ms, from, headers),
            Message::GetProof { block, indices } => self.handle_get_proof(from, block, indices),
            Message::Proof {
                block,
                leaf_count,
                items,
                nodes,
            } => self.handle_proof(now_ms, from, block, leaf_count, items, nodes),
        }
    }

    /// One rejection against `from`; bans the peer once the threshold is
    /// crossed.
    pub(crate) fn penalize(&mut self, from: usize) {
        let count = self.penalties.entry(from).or_insert(0);
        *count += 1;
        if self.ban_threshold > 0 && *count >= self.ban_threshold && self.banned.insert(from) {
            self.stats.peers_banned += 1;
        }
    }

    /// `true` when an orphan's embedded target is within
    /// [`ORPHAN_EASING_SLACK`] of the local tip's target — the
    /// anti-sync-DoS floor adaptive-rule nodes apply before requesting an
    /// unknown branch's ancestry.
    pub(crate) fn orphan_target_plausible(&self, target: &[u8; 32]) -> bool {
        let local = match self.tree.tip_block() {
            Some(tip) => Target::from_threshold(tip.header.target),
            None => self.rule().genesis_target(),
        };
        let floor = local.scale(ORPHAN_EASING_SLACK);
        // Bigger threshold = easier target; beyond the eased floor is
        // implausible.
        target <= floor.threshold()
    }

    /// Timestamp validity of one received header under the configured
    /// [`TimestampRule`] (`true` when no rule is configured): at most the
    /// future drift ahead of `now_ms`, and strictly above the
    /// median-time-past of its parent in `chain` — a full node's fork
    /// tree or a light client's header chain. A parent `chain` does not
    /// store (genesis, or an orphan's) bounds nothing.
    pub(crate) fn timestamp_plausible<T: AsRef<BlockHeader>>(
        &self,
        now_ms: u64,
        header: &BlockHeader,
        chain: &HeaderChain<T>,
    ) -> bool {
        let Some(rule) = self.timestamp_rule else {
            return true;
        };
        header.timestamp <= now_ms.saturating_add(rule.max_future_drift_ms)
            && chain
                .median_time_past(&header.prev_hash, rule.mtp_window)
                .is_none_or(|mtp| header.timestamp > mtp)
    }

    /// Timestamp validity of a whole received segment: every block is
    /// drift-bounded against `now_ms` and strictly above the
    /// median-time-past of its own rolling ancestor window, seeded with
    /// the anchor's stored ancestry — the same bound
    /// [`Node::timestamp_plausible`] applies per gossiped block.
    pub(crate) fn segment_timestamps_plausible(
        &self,
        now_ms: u64,
        anchor: Digest256,
        blocks: &[Block],
    ) -> bool {
        let Some(rule) = self.timestamp_rule else {
            return true;
        };
        let horizon = now_ms.saturating_add(rule.max_future_drift_ms);
        let mut window: Vec<u64> = if anchor == GENESIS_HASH {
            Vec::new()
        } else {
            self.tree
                .chain()
                .ancestor_timestamps(&anchor, rule.mtp_window)
        };
        for block in blocks {
            if block.header.timestamp > horizon {
                return false;
            }
            if !window.is_empty() {
                let mut sorted = window.clone();
                sorted.sort_unstable();
                if block.header.timestamp <= sorted[(sorted.len() - 1) / 2] {
                    return false;
                }
            }
            window.push(block.header.timestamp);
            if window.len() > rule.mtp_window {
                window.remove(0);
            }
        }
        true
    }

    /// Notes that a public (announced) block now carries `work`; while the
    /// strategy withholds a private chain, the public chain's advance is
    /// what triggers releases — or abandonment, when the fork tree has
    /// already switched to the public branch.
    pub(crate) fn note_public_work(&mut self, digest: Digest256) -> Vec<Outgoing> {
        let work = self.tree.work_of(&digest);
        if work <= self.public_work {
            return Vec::new();
        }
        self.public_work = work;
        self.public_tip = digest;
        if self.withheld.is_empty() {
            return Vec::new();
        }
        let private_tip = self.withheld.last().expect("non-empty").1;
        if self.tree.tip() != private_tip {
            // The public branch overtook the private chain: abandon it.
            self.stats.withheld_abandoned += self.withheld.len() as u64;
            self.withheld.clear();
            return Vec::new();
        }
        let lead = self.tree.tip_height() as i64 - self.tree.height_of(&self.public_tip) as i64;
        let release = self
            .strategy
            .on_public_advance(lead, self.withheld.len())
            .min(self.withheld.len());
        let mut out = Vec::new();
        for (block, digest) in self.withheld.drain(..release) {
            self.stats.blocks_released += 1;
            // Released blocks are public now.
            let released_work = self.tree.work_of(&digest);
            if released_work > self.public_work {
                self.public_work = released_work;
                self.public_tip = digest;
            }
            out.push(Outgoing::Broadcast(Message::Block(block)));
        }
        out
    }

    /// Books a tip change's reorg depth and enforces the retention window
    /// — called on every path that can advance the tip (mining, gossip;
    /// segment sync prunes once after its apply loop).
    pub(crate) fn record_tip_change(&mut self, outcome: &ApplyOutcome) {
        if let ApplyOutcome::TipChanged { reorg, .. } = outcome {
            if reorg.depth() > 0 {
                self.stats.reorg_depths.push(reorg.depth());
            }
            self.maybe_prune();
        }
    }

    pub(crate) fn maybe_prune(&mut self) {
        if let Some(depth) = self.prune_depth {
            // Amortized batch eviction: `prune` walks every retained entry,
            // so let the window grow to twice the retention depth and evict
            // in chunks instead of paying O(stored blocks) per tip change.
            // Serving is unaffected (extra retained history only widens the
            // locator-safe window) and memory stays bounded by 2x depth.
            let lag = self
                .tree
                .tip_height()
                .saturating_sub(self.tree.root_height());
            if lag > depth.saturating_mul(2) {
                let pruned = self.tree.prune(depth) as u64;
                self.stats.blocks_pruned += pruned;
                // A snapshot right after the eviction keeps the durable
                // state in lock-step with the pruned tree: recovery from
                // (post-prune snapshot + later appends) reproduces the
                // live tree exactly, instead of resurrecting evicted
                // branches from pre-prune logs.
                if pruned > 0 {
                    self.snapshot_to_store();
                }
            }
        }
    }
}
