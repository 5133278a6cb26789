//! The resumable per-node miner: one scratch, one input buffer, one header
//! template whose nonce scan continues across mining slices.

use crate::strategy::{MinedAction, MiningMode};
use hashcore::{MiningInput, Target, NONCE_LANES};
use hashcore_baselines::PowFunction;
use hashcore_chain::{Block, BlockHeader, GENESIS_HASH};
use hashcore_crypto::Digest256;

use super::{Message, Node, Outgoing, Role};

/// The resumable per-worker mining state: one scratch, one input buffer,
/// one header template whose nonce scan continues across slices.
///
/// The scan runs in whole lane batches, so it may hash nonces past the end
/// of a slice. The miner remembers how many it hashed from `next_nonce` on
/// and whether the last of them met the target, and answers later slices
/// of the same template from that before it hashes again.
#[derive(Debug)]
pub(crate) struct Miner<S> {
    pub(crate) scratch: S,
    pub(crate) input: MiningInput,
    pub(crate) header: BlockHeader,
    pub(crate) transactions: Vec<Vec<u8>>,
    /// The first nonce no slice has covered yet.
    pub(crate) next_nonce: u64,
    /// How many nonces from `next_nonce` on are already hashed.
    pub(crate) ahead: u64,
    /// Whether the last of those `ahead` nonces met the target; all the
    /// others missed it.
    pub(crate) ahead_hit: bool,
    pub(crate) template_tip: Digest256,
    pub(crate) template_valid: bool,
    pub(crate) header_bytes: Vec<u8>,
}

impl<S: Default> Miner<S> {
    pub(crate) fn new() -> Self {
        Self {
            scratch: S::default(),
            input: MiningInput::default(),
            header: BlockHeader {
                version: 1,
                prev_hash: GENESIS_HASH,
                merkle_root: [0u8; 32],
                timestamp: 0,
                target: [0u8; 32],
                nonce: 0,
            },
            transactions: Vec::new(),
            next_nonce: 0,
            ahead: 0,
            ahead_hit: false,
            template_tip: GENESIS_HASH,
            template_valid: false,
            header_bytes: Vec::new(),
        }
    }
}

impl<S> Miner<S> {
    /// The first nonce meeting `target` among the next `attempts` of the
    /// template, the one a scan of exactly those nonces finds. Advances
    /// `next_nonce` past that hit, or past all `attempts` when none hits.
    /// Nonces not yet hashed are scanned in whole lane batches.
    fn first_hit<P: PowFunction<Scratch = S>>(
        &mut self,
        pow: &P,
        target: Target,
        attempts: u64,
    ) -> Option<u64> {
        if !self.ahead_hit && self.ahead < attempts {
            let needed = attempts - self.ahead;
            let count = needed
                .checked_next_multiple_of(NONCE_LANES as u64)
                .unwrap_or(needed);
            let start = self.next_nonce.wrapping_add(self.ahead);
            match pow.scan_nonces(&mut self.input, target, start, count, &mut self.scratch) {
                Some((nonce, _)) => {
                    self.ahead += nonce.wrapping_sub(start) + 1;
                    self.ahead_hit = true;
                }
                None => self.ahead += count,
            }
        }
        if self.ahead_hit && self.ahead <= attempts {
            let nonce = self.next_nonce.wrapping_add(self.ahead - 1);
            self.next_nonce = nonce.wrapping_add(1);
            self.ahead = 0;
            self.ahead_hit = false;
            return Some(nonce);
        }
        // Wrapping, as the scan does, so a miner near the top of the nonce
        // space neither overflows nor rescans.
        self.next_nonce = self.next_nonce.wrapping_add(attempts);
        self.ahead -= attempts;
        None
    }
}

/// The fabricated parent digest fake-orphan miners build over. Consensus
/// difficulty forces real digests to carry leading zero bits, so a `0xFA`
/// first byte can never collide with a stored block.
pub(crate) fn fake_parent_digest(id: usize, counter: u64) -> Digest256 {
    let mut digest = [0u8; 32];
    digest[0] = 0xFA;
    digest[1..9].copy_from_slice(&(id as u64).to_le_bytes());
    digest[9..17].copy_from_slice(&counter.to_le_bytes());
    digest
}

impl<P: PowFunction + Sync + std::fmt::Debug> Node<P>
where
    P::Scratch: std::fmt::Debug,
{
    /// Points the miner at `prev` with a single tagged transaction,
    /// embedding `target` (the branch's expected target, or the fixed one).
    pub(crate) fn reset_template(
        &mut self,
        prev: Digest256,
        tag: String,
        timestamp: u64,
        target: Target,
        version: u32,
    ) {
        let miner = &mut self.miner;
        miner.transactions.clear();
        miner.transactions.push(tag.into_bytes());
        // Deterministic body filler: models real transaction volume so
        // bandwidth figures mean something. 0 (the default) reproduces
        // the single-tag-transaction template byte for byte.
        if self.body_bytes > 0 {
            miner.transactions.push(vec![0xAB; self.body_bytes]);
        }
        miner.header = BlockHeader {
            version,
            prev_hash: prev,
            merkle_root: Block::merkle_root(&miner.transactions),
            timestamp,
            target: *target.threshold(),
            nonce: 0,
        };
        miner.header.write_pow_input(&mut miner.header_bytes);
        miner.input.set_header(&miner.header_bytes);
        miner.next_nonce = 0;
        miner.ahead = 0;
        miner.ahead_hit = false;
        miner.template_tip = prev;
        miner.template_valid = true;
    }

    /// Runs one mining slice of up to `attempts` nonces at simulated time
    /// `now_ms`, returning the sends a found block (or fabricated spam)
    /// triggers.
    pub fn mine_slice(&mut self, now_ms: u64, attempts: u64) -> Vec<Outgoing> {
        // A light node never mines: its slice tick drives header sync and
        // proof requests instead.
        if self.role == Role::Light {
            return self.light_slice(now_ms);
        }
        let mut out = match self.strategy.mining_mode() {
            MiningMode::Off => Vec::new(),
            MiningMode::Extend => self.mine_extend(now_ms, attempts),
            MiningMode::FakeOrphan => self.mine_fake_orphan(attempts),
        };
        if let Some(class) = self.strategy.on_slice() {
            if let Some(message) = self.fabricate_unsolicited(class) {
                out.push(Outgoing::Gossip(message));
            }
        }
        out
    }

    /// Honest/selfish mining: extend the local best tip at the branch's
    /// expected target.
    pub(crate) fn mine_extend(&mut self, now_ms: u64, attempts: u64) -> Vec<Outgoing> {
        self.refresh_template(now_ms);
        // The scan target is whatever the template embeds — the branch's
        // expected target under an adaptive rule, the consensus target
        // under a fixed one.
        let target = Target::from_threshold(self.miner.header.target);
        // A difficulty hopper defects (spends nothing) while the branch is
        // expensive. The template is invalidated so the next slice
        // re-derives the expected target from a fresh timestamp — under an
        // adaptive rule, waiting itself makes the branch look slower and
        // the target easier, which is exactly the moment a hopper rejoins.
        if !self.strategy.mines_at(target.expected_attempts()) {
            self.miner.template_valid = false;
            return Vec::new();
        }
        let mut remaining = attempts;
        let (block, digest, cost_ratio) = loop {
            if remaining == 0 {
                return Vec::new();
            }
            let Self { tree, miner, .. } = &mut *self;
            let start = miner.next_nonce;
            let Some(nonce) = miner.first_hit(tree.pow(), target, remaining) else {
                return Vec::new();
            };
            remaining -= nonce.wrapping_sub(start).wrapping_add(1);
            let header = BlockHeader {
                nonce,
                ..self.miner.header.clone()
            };
            // Re-derive the winning seed through the cost-observing path:
            // its widget cost decides admission and seed selection.
            let (digest, cost_ratio) = self.tree.digest_and_cost_of_header(&header);
            if !self.rule().admits(target, &digest, cost_ratio) {
                // The cost-aware admission bound taxes expensive seeds; an
                // honest miner simply keeps scanning.
                self.stats.seeds_inadmissible += 1;
                continue;
            }
            if !self.strategy.selects_seed(cost_ratio) {
                // The cost-steering grind: the strategy throws away a
                // perfectly valid block because it verifies too cheaply.
                self.stats.seeds_discarded += 1;
                continue;
            }
            break (
                Block {
                    header,
                    transactions: self.miner.transactions.clone(),
                },
                digest,
                cost_ratio,
            );
        };
        // The template's Merkle root was computed from these very
        // transactions, so the body needs no check.
        let outcome = self
            .tree
            .apply_evaluated(block.clone(), digest, cost_ratio, true)
            .expect("a locally mined block extends a stored tip");
        self.stats.blocks_mined += 1;
        self.record_tip_change(&outcome);
        self.persist_block(&block);
        self.miner.template_valid = false;
        match self.strategy.on_mined() {
            MinedAction::Announce => {
                // Releases triggered by our own (now public) block go out
                // first, oldest withheld block to newest, then the block.
                let mut out = self.note_public_work(outcome.digest());
                out.push(Outgoing::Broadcast(Message::Block(block)));
                out
            }
            MinedAction::Withhold => {
                self.stats.blocks_withheld += 1;
                self.withheld.push((block, outcome.digest()));
                Vec::new()
            }
        }
    }

    /// Rebuilds the mining template if the tip moved since the last slice;
    /// otherwise the nonce scan resumes where it stopped. The template's
    /// timestamp is the current time plus the strategy's skew (cumulative
    /// past an already-skewed parent), and its target is the difficulty
    /// rule's expectation for exactly that child timestamp on the current
    /// best branch — so the block is rule-consistent by construction and
    /// only a timestamp-validity rule can catch the skew.
    ///
    /// A node that itself enforces a [`TimestampRule`] also clamps its own
    /// template to the parent window's median-time-past + 1 (Bitcoin's
    /// miner rule): accepted ancestors may sit legitimately inside the
    /// future-drift bound, and an honest block dated plainly "now" behind
    /// that median would be rejected by every honest peer.
    pub(crate) fn refresh_template(&mut self, now_ms: u64) {
        if self.miner.template_valid && self.miner.template_tip == self.tree.tip() {
            return;
        }
        let tip = self.tree.tip();
        let height = self.tree.tip_height() + 1;
        let id = self.id;
        let skew = self.strategy.timestamp_skew_ms();
        let timestamp = if skew == 0 {
            let mtp_floor = self.timestamp_rule.map_or(0, |rule| {
                self.tree
                    .chain()
                    .median_time_past(&tip, rule.mtp_window)
                    .map_or(0, |mtp| mtp.saturating_add(1))
            });
            now_ms.max(mtp_floor)
        } else {
            let parent_ts = self.tree.tip_block().map_or(0, |b| b.header.timestamp);
            now_ms.max(parent_ts.saturating_add(1)).saturating_add(skew)
        };
        let target = self
            .tree
            .expected_child_target(&tip, timestamp)
            .unwrap_or(self.target);
        // Under a cost-aware rule the template must carry the commitment
        // the rule expects in the version word; any other rule leaves the
        // version at its legacy value.
        let version = self.tree.expected_child_version(&tip).unwrap_or(1);
        self.reset_template(
            tip,
            format!("node-{id} height-{height} at-{now_ms}ms"),
            timestamp,
            target,
            version,
        );
    }

    /// Spam mining: valid PoW over a fabricated parent. The block passes
    /// every stateless check, so honest receivers see an orphan and request
    /// its (nonexistent) ancestry — which this node answers with corrupted
    /// segments.
    pub(crate) fn mine_fake_orphan(&mut self, attempts: u64) -> Vec<Outgoing> {
        if !self.miner.template_valid {
            let parent = fake_parent_digest(self.id, self.stats.fake_orphans);
            let tag = format!("spam-{} orphan-{}", self.id, self.stats.fake_orphans);
            self.reset_template(parent, tag, 0, self.target, 1);
        }
        let target = self.target;
        let Self { tree, miner, .. } = &mut *self;
        let Some(nonce) = miner.first_hit(tree.pow(), target, attempts) else {
            return Vec::new();
        };
        let block = Block {
            header: BlockHeader {
                nonce,
                ..self.miner.header.clone()
            },
            transactions: self.miner.transactions.clone(),
        };
        let digest = self.tree.digest_of(&block);
        self.miner.template_valid = false;
        self.stats.fake_orphans += 1;
        self.stats.spam_digests.push(digest);
        self.fabricated.insert(digest, block.clone());
        vec![Outgoing::Broadcast(Message::Block(block))]
    }
}
