//! Segment sync: orphan-triggered requests, the timeout/retry round-robin,
//! and batched segment validation feeding the fork tree.

use hashcore_baselines::PowFunction;
use hashcore_chain::{
    validate_segment_parallel_with_rule, ApplyOutcome, Block, ForkError, InvalidReason, Reorg,
};
use hashcore_crypto::Digest256;
use std::time::Instant;

use super::stats::SyncReorg;
use super::{Message, Node, Outgoing, MAX_SYNC_RETRIES};

/// A sync request in flight: who was asked, how many times the request has
/// been re-issued, and which peers already stalled *this* request (a lost
/// reply must not blacklist an honest peer for every future sync).
#[derive(Debug, Clone)]
pub(crate) struct PendingRequest {
    pub(crate) peer: usize,
    pub(crate) retries: u32,
    pub(crate) tried: Vec<usize>,
}

impl<P: PowFunction + Sync + std::fmt::Debug> Node<P>
where
    P::Scratch: std::fmt::Debug,
{
    pub(crate) fn handle_block(&mut self, now_ms: u64, from: usize, block: Block) -> Vec<Outgoing> {
        // Branch-independent target policy: under a fixed rule every
        // protocol-following block embeds exactly the consensus threshold,
        // so a cheaper embedded target is rejected for free — before any
        // hashing. Adaptive rules have no flat expectation; their
        // branch-aware check is the fork tree's, below.
        if let Some(flat) = self.rule().flat_target() {
            if block.header.target != *flat.threshold() {
                self.stats.rejections.target_policy += 1;
                self.penalize(from);
                return Vec::new();
            }
        }
        // Timestamp validity: bounded future drift, and strictly above the
        // parent window's median-time-past when the parent chain is known.
        // (An orphan is only drift-checked here; the segment delivering
        // its ancestry re-walks the full window.)
        if !self.timestamp_plausible(now_ms, &block.header, self.tree.chain()) {
            self.stats.rejections.timestamp += 1;
            self.penalize(from);
            return Vec::new();
        }
        // The block moves into the tree and is cloned back only when it was
        // stored, so a duplicate delivery allocates nothing.
        let target = block.header.target;
        match self.tree.apply(block) {
            Ok(outcome) if outcome.newly_stored() => {
                let block = self
                    .tree
                    .block(&outcome.digest())
                    .expect("a newly stored block")
                    .clone();
                self.stats.blocks_accepted += 1;
                self.persist_block(&block);
                self.record_tip_change(&outcome);
                let mut out = self.note_public_work(outcome.digest());
                if self.strategy.relays() {
                    out.push(Outgoing::Gossip(Message::Block(block)));
                }
                out
            }
            Ok(_) => Vec::new(),
            Err(ForkError::UnknownParent { digest, .. }) => {
                if !self.strategy.syncs() {
                    return Vec::new();
                }
                // Adaptive rules have no flat pre-check, so an orphan's
                // target is only bounded here: one claiming a difficulty
                // implausibly far below the local view is counted and
                // dropped — but never penalised, since a post-partition
                // honest branch can sit beyond the slack too (see
                // ORPHAN_EASING_SLACK).
                if self.rule().flat_target().is_none() && !self.orphan_target_plausible(&target) {
                    self.stats.rejections.target_policy += 1;
                    return Vec::new();
                }
                self.request_segment(digest, from)
            }
            Err(ForkError::InvalidBlock { reason }) => {
                match reason {
                    InvalidReason::Merkle => self.stats.rejections.merkle += 1,
                    InvalidReason::Pow => self.stats.rejections.pow += 1,
                    // The rule-enforcing fork tree's branch-aware check.
                    InvalidReason::Target => self.stats.rejections.target_policy += 1,
                    // `ForkTree::apply` never reports linkage (an unknown
                    // parent is `UnknownParent`); count it as PoW abuse.
                    InvalidReason::Linkage => self.stats.rejections.pow += 1,
                }
                self.penalize(from);
                Vec::new()
            }
        }
    }

    /// Issues a segment request for orphan `want` to `peer` — once. The
    /// sender of a duplicate announcement rides on the in-flight request.
    pub(crate) fn request_segment(&mut self, want: Digest256, peer: usize) -> Vec<Outgoing> {
        if self.requested.contains_key(&want) {
            return Vec::new();
        }
        // A fresh request supersedes an earlier abandonment: replies to it
        // must be processed, not dropped as stale.
        self.abandoned.remove(&want);
        self.requested.insert(
            want,
            PendingRequest {
                peer,
                retries: 0,
                tried: Vec::new(),
            },
        );
        let mut out = vec![Outgoing::To(
            peer,
            Message::GetSegment {
                want,
                locator: self.tree.locator(),
            },
        )];
        if let Some(after_ms) = self.request_timeout_ms {
            out.push(Outgoing::Timer {
                token: want,
                after_ms,
            });
        }
        out
    }

    /// The request-timeout clock: if the awaited digest is still missing,
    /// the asked peer stalled (or the reply was lost) — exclude it and
    /// re-request from the next peer in a deterministic round-robin.
    pub fn on_timer(&mut self, token: Digest256) -> Vec<Outgoing> {
        if self.tree.contains(&token) {
            self.requested.remove(&token);
            return Vec::new();
        }
        let Some(pending) = self.requested.get(&token).cloned() else {
            return Vec::new();
        };
        self.stats.stalls_detected += 1;
        let mut tried = pending.tried;
        tried.push(pending.peer);
        let retries = pending.retries + 1;
        let candidates: Vec<usize> = (0..self.peers)
            .filter(|p| *p != self.id && !tried.contains(p) && !self.banned.contains(p))
            .collect();
        if retries > MAX_SYNC_RETRIES || candidates.is_empty() {
            self.requested.remove(&token);
            self.abandoned.insert(token);
            self.stats.requests_abandoned += 1;
            return Vec::new();
        }
        let peer = candidates[(self.id + retries as usize) % candidates.len()];
        self.requested.insert(
            token,
            PendingRequest {
                peer,
                retries,
                tried,
            },
        );
        self.stats.requests_retried += 1;
        vec![
            Outgoing::To(
                peer,
                Message::GetSegment {
                    want: token,
                    locator: self.tree.locator(),
                },
            ),
            Outgoing::Timer {
                token,
                after_ms: self
                    .request_timeout_ms
                    .expect("timers fire only when timeouts are enabled"),
            },
        ]
    }

    pub(crate) fn handle_segment(
        &mut self,
        now_ms: u64,
        from: usize,
        blocks: Vec<Block>,
    ) -> Vec<Outgoing> {
        let Some(first) = blocks.first() else {
            return Vec::new();
        };
        let anchor = first.header.prev_hash;
        // A segment whose last block is already stored brings nothing new
        // (all its blocks are that block's ancestors): skip the verifier
        // pass a raced duplicate response would otherwise re-run.
        let last = blocks.last().expect("non-empty");
        let last_digest = self.tree.digest_of(last);
        if self.tree.contains(&last_digest) {
            self.requested.remove(&last_digest);
            return Vec::new();
        }
        // A reply for a request we already gave up on: stale, not hostile.
        if self.abandoned.contains(&last_digest) {
            return Vec::new();
        }
        // Unsolicited: we never asked for this terminal block. Dropped
        // *without* running the verifier: identifying the segment costs
        // exactly one PoW evaluation (the terminal digest above — needed
        // to tell benign raced duplicates and stale replies from spam).
        // The penalty caps unknown-terminal spam at `ban_threshold`
        // evaluations per peer (the ban filter then drops their traffic
        // before any hashing); a segment ending at an already-stored block
        // is dropped silently above, so that shape keeps costing one
        // evaluation per message — the price of never penalising an
        // honest raced duplicate.
        if !self.requested.contains_key(&last_digest) {
            self.stats.rejections.unsolicited_segment += 1;
            self.penalize(from);
            return Vec::new();
        }
        // Target policy scan (branch-independent form): free, before any
        // per-block hashing — and before the anchor lookup, exactly as the
        // flat consensus check always ran.
        if let Some(flat) = self.rule().flat_target() {
            let threshold = *flat.threshold();
            if blocks.iter().any(|b| b.header.target != threshold) {
                self.stats.rejections.target_policy += 1;
                self.penalize(from);
                return Vec::new();
            }
        }
        // The rule plus the anchor's branch state; `None` for an anchor
        // this node does not store.
        let Some(ctx) = self.tree.chain().rule_context(&anchor) else {
            return Vec::new();
        };
        // Branch-aware target policy: with the anchor resolved, every
        // embedded target must equal the difficulty rule's expectation
        // along the segment — still pure header arithmetic, before the
        // verifier burns any hash work. Fixed rules skip this: the flat
        // scan above already proved every target, so the walk cannot fire.
        if ctx.rule.flat_target().is_none() {
            let anchor_state = ctx
                .anchor
                .map(|(target, timestamp, ..)| (target, timestamp));
            if !ctx.rule.segment_targets_valid(anchor_state, &blocks) {
                self.stats.rejections.target_policy += 1;
                self.penalize(from);
                return Vec::new();
            }
        }
        // Timestamp validity along the segment, same bounds as per-block
        // gossip.
        if !self.segment_timestamps_plausible(now_ms, anchor, &blocks) {
            self.stats.rejections.timestamp += 1;
            self.penalize(from);
            return Vec::new();
        }
        // The segment-sync hot path: the batched parallel verifier checks
        // the whole received segment before any block is applied. The
        // pending request is kept alive on rejection, so a poisoned answer
        // cannot mask a later honest one.
        // Under a cost-aware rule the pre-walk above took each block's
        // embedded commitment at face value; the verifier's rule walk now
        // re-derives every commitment from the *observed* widget costs
        // anchored at the tree's stored observation, so a segment lying
        // about its verification bill is rejected here (and the per-block
        // admission bound is enforced). Rules without a cost component
        // skip the walk entirely — the verifier runs exactly as before.
        let started = Instant::now();
        let verdict = validate_segment_parallel_with_rule(
            self.tree.pow(),
            &blocks,
            self.sync_threads,
            anchor,
            ctx.rule.cost_aware().is_some().then_some(ctx),
        );
        self.stats.sync_wall_seconds += started.elapsed().as_secs_f64();
        let Ok(evaluated) = verdict else {
            self.stats.rejections.invalid_segment += 1;
            self.penalize(from);
            return Vec::new();
        };
        self.stats.segments_synced += 1;
        self.stats.segment_blocks += blocks.len() as u64;

        let mut deepest: Option<Reorg> = None;
        let mut tip_changed = false;
        let mut out = Vec::new();
        for (block, (digest, cost_ratio)) in blocks.iter().zip(evaluated) {
            // The verifier evaluated every header and checked every body,
            // so each block is accepted with its digest, cost ratio and
            // body verdict rather than checked again. The segment
            // validated as a whole, so individual apply errors can only be
            // duplicates raced in by gossip — skip them.
            let Ok(outcome) = self
                .tree
                .apply_evaluated(block.clone(), digest, cost_ratio, true)
            else {
                continue;
            };
            if outcome.newly_stored() {
                self.stats.blocks_accepted += 1;
                self.persist_block(block);
            }
            if let ApplyOutcome::TipChanged { reorg, .. } = &outcome {
                tip_changed = true;
                if reorg.depth() > 0 {
                    self.stats.reorg_depths.push(reorg.depth());
                }
                if deepest.as_ref().is_none_or(|d| reorg.depth() > d.depth()) {
                    deepest = Some(reorg.clone());
                }
            }
            out.extend(self.note_public_work(outcome.digest()));
        }
        self.maybe_prune();
        // Requests this segment satisfied are no longer in flight.
        let Self {
            tree, requested, ..
        } = &mut *self;
        requested.retain(|digest, _| !tree.contains(digest));

        if let Some(reorg) = deepest {
            let replaces = self
                .stats
                .deepest_sync
                .as_ref()
                .is_none_or(|s| reorg.depth() > s.reorg.depth());
            if replaces {
                self.stats.deepest_sync = Some(SyncReorg {
                    segment: blocks,
                    reorg,
                });
            }
        }
        if tip_changed && self.strategy.relays() {
            if let Some(tip_block) = self.tree.tip_block() {
                out.push(Outgoing::Gossip(Message::Block(tip_block.clone())));
            }
        }
        out
    }
}
