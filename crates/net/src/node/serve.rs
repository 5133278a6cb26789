//! Responder paths: serving segments to syncing peers and headers plus
//! batched Merkle proofs to light clients — honestly, stalled, withheld,
//! or corrupted, as the node's strategy dictates.

use crate::strategy::{Corruption, ProofAction, ServeAction};
use hashcore::Target;
use hashcore_baselines::PowFunction;
use hashcore_chain::Block;
use hashcore_crypto::{Digest256, MerkleTree};

use super::{Message, Node, Outgoing, Role, MAX_HEADERS_PER_MSG};

impl<P: PowFunction + Sync + std::fmt::Debug> Node<P>
where
    P::Scratch: std::fmt::Debug,
{
    pub(crate) fn handle_get_segment(
        &mut self,
        from: usize,
        want: Digest256,
        locator: &[Digest256],
    ) -> Vec<Outgoing> {
        match self.strategy.serve_segment(from) {
            ServeAction::Honest => self.serve_segment(from, want, locator, None, None),
            ServeAction::Prefix(n) => self.serve_segment(from, want, locator, Some(n), None),
            ServeAction::Delay(ms) => self.serve_segment(from, want, locator, None, Some(ms)),
            ServeAction::Ignore => Vec::new(),
            ServeAction::Corrupt(class) => self.serve_corrupt(from, want, class),
        }
    }

    /// Serves the missing segment (honestly, or truncated/delayed for the
    /// stalling modes). Unknown wants, fully synced requesters and pruned
    /// history all produce no reply — the requester's timeout handles it.
    pub(crate) fn serve_segment(
        &mut self,
        from: usize,
        want: Digest256,
        locator: &[Digest256],
        prefix: Option<usize>,
        delay_ms: Option<u64>,
    ) -> Vec<Outgoing> {
        match self.tree.segment_to(want, locator) {
            Ok(mut segment) if !segment.is_empty() => {
                if let Some(n) = prefix {
                    segment.truncate(n);
                    if segment.is_empty() {
                        return Vec::new();
                    }
                }
                let message = Message::Segment(segment);
                match delay_ms {
                    None => vec![Outgoing::To(from, message)],
                    Some(after_ms) => vec![Outgoing::DelayedTo {
                        to: from,
                        after_ms,
                        message,
                    }],
                }
            }
            _ => Vec::new(),
        }
    }

    /// The chain suffix ending at `want` (at most `n` blocks), oldest
    /// first. Empty when `want` is not stored.
    pub(crate) fn suffix_ending_at(&self, want: Digest256, n: usize) -> Vec<Block> {
        let mut out = Vec::new();
        let mut cursor = want;
        while out.len() < n {
            let Some(block) = self.tree.block(&cursor) else {
                break;
            };
            out.push(block.clone());
            cursor = block.header.prev_hash;
        }
        out.reverse();
        out
    }

    /// Corrupts one block of `segment` in place per `class`, recording the
    /// digests of header-altered blocks in the spam audit list. With
    /// `protect_last` the terminal block is left intact so the receiver's
    /// pending-request match still holds and the segment reaches the
    /// verifier. Returns `false` when the segment is too short to corrupt.
    pub(crate) fn apply_corruption(
        &mut self,
        segment: &mut [Block],
        protect_last: bool,
        class: Corruption,
    ) -> bool {
        let limit = if protect_last {
            segment.len().saturating_sub(1)
        } else {
            segment.len()
        };
        if limit == 0 {
            return false;
        }
        // A broken prev-link on the first block would fail the receiver's
        // anchor check before the verifier ever ran; corrupt later, or fall
        // back to a PoW break when there is no later block.
        let mut class = class;
        let idx = match class {
            Corruption::BrokenPrevLink if limit == 1 => {
                class = Corruption::BadPow;
                0
            }
            Corruption::BrokenPrevLink => (limit / 2).max(1),
            _ => limit / 2,
        };
        match class {
            Corruption::BadPow => loop {
                segment[idx].header.nonce = segment[idx].header.nonce.wrapping_add(1);
                let digest = self.tree.digest_of(&segment[idx]);
                if !Target::from_threshold(segment[idx].header.target).is_met_by(&digest) {
                    self.stats.spam_digests.push(digest);
                    break;
                }
            },
            Corruption::BrokenPrevLink => {
                segment[idx].header.prev_hash = [0xBB; 32];
                let digest = self.tree.digest_of(&segment[idx]);
                self.stats.spam_digests.push(digest);
            }
            Corruption::WrongTarget => {
                segment[idx].header.target = [0xFF; 32];
                let digest = self.tree.digest_of(&segment[idx]);
                self.stats.spam_digests.push(digest);
            }
            Corruption::BadMerkle => {
                // The header — and so the digest — is unchanged; the real
                // block with this digest is valid, so it is not recorded in
                // the spam audit list.
                segment[idx].transactions.push(b"spam".to_vec());
            }
        }
        true
    }

    /// Answers a `GetSegment` with a corrupted segment: real chain suffix
    /// plus (for fabricated wants) the bait orphan, with one block
    /// corrupted mid-segment — engineered to pass the cheap pre-checks and
    /// be rejected by the batched verifier.
    pub(crate) fn serve_corrupt(
        &mut self,
        from: usize,
        want: Digest256,
        class: Corruption,
    ) -> Vec<Outgoing> {
        let mut segment = if let Some(bait) = self.fabricated.get(&want).cloned() {
            let mut basis = self.suffix_ending_at(self.tree.tip(), 2);
            basis.push(bait);
            basis
        } else if self.tree.contains(&want) {
            self.suffix_ending_at(want, 3)
        } else {
            return Vec::new();
        };
        if !self.apply_corruption(&mut segment, true, class) {
            // Too short to corrupt without touching the terminal block:
            // sending it would be an honest (and uncounted) serve.
            return Vec::new();
        }
        self.stats.spam_segments_sent += 1;
        vec![Outgoing::To(from, Message::Segment(segment))]
    }

    /// Answers a `GetHeaders` with the best-chain headers above the
    /// requester's locator, at most [`MAX_HEADERS_PER_MSG`] per reply.
    /// Header serving is *never* strategy-gated: headers are self-proving
    /// (their PoW is checked at the receiver), so lying about them buys an
    /// adversary nothing but a penalty — every strategy serves them
    /// straight. A fully synced requester gets an empty reply so its
    /// in-flight request clears without burning a timeout.
    pub(crate) fn handle_get_headers(
        &mut self,
        from: usize,
        locator: &[Digest256],
    ) -> Vec<Outgoing> {
        if self.role == Role::Light {
            return Vec::new();
        }
        let headers: Vec<_> = match self.tree.segment_to(self.tree.tip(), locator) {
            Ok(segment) => segment
                .into_iter()
                .take(MAX_HEADERS_PER_MSG)
                .map(|block| block.header)
                .collect(),
            Err(_) => Vec::new(),
        };
        self.stats.headers_served += headers.len() as u64;
        vec![Outgoing::To(from, Message::Headers(headers))]
    }

    /// Answers a `GetProof` with the requested transactions and one
    /// batched Merkle proof against the block's committed root — unless
    /// the per-peer serving quota is exhausted (silent refusal; the
    /// requester's timeout rotates it elsewhere) or the strategy withholds
    /// or corrupts the batch.
    pub(crate) fn handle_get_proof(
        &mut self,
        from: usize,
        block: Digest256,
        indices: Vec<u32>,
    ) -> Vec<Outgoing> {
        if self.role == Role::Light {
            return Vec::new();
        }
        if self.proof_quota > 0
            && self.proofs_served_to.get(&from).copied().unwrap_or(0) >= self.proof_quota
        {
            self.stats.quota_refusals += 1;
            return Vec::new();
        }
        let action = self.strategy.serve_proof(from);
        if action == ProofAction::Ignore {
            self.stats.proofs_withheld += 1;
            return Vec::new();
        }
        let Some(stored) = self.tree.block(&block) else {
            return Vec::new();
        };
        let transactions = stored.transactions.clone();
        let leaf_count = transactions.len();
        let mut wanted: Vec<usize> = indices
            .iter()
            .map(|&i| i as usize)
            .filter(|&i| i < leaf_count)
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        if wanted.is_empty() {
            return Vec::new();
        }
        let tree = MerkleTree::from_items(transactions.iter().map(|tx| tx.as_slice()));
        let Some(proof) = tree.proof_batch(&wanted) else {
            return Vec::new();
        };
        let mut items: Vec<(u32, Vec<u8>)> = wanted
            .iter()
            .map(|&i| (i as u32, transactions[i].clone()))
            .collect();
        if action == ProofAction::Corrupt {
            // A fake proof: flip one payload bit so the batch no longer
            // resolves to the committed root. The header the light client
            // checks against is PoW-pinned, so this *must* be caught.
            match items[0].1.first_mut() {
                Some(byte) => *byte ^= 0x01,
                None => items[0].1.push(0xFF),
            }
            self.stats.fake_proofs_sent += 1;
        }
        self.stats.proofs_served += 1;
        *self.proofs_served_to.entry(from).or_insert(0) += 1;
        vec![Outgoing::To(
            from,
            Message::Proof {
                block,
                leaf_count: proof.leaf_count,
                items,
                nodes: proof.nodes,
            },
        )]
    }

    /// Fabricates one unsolicited corrupted segment from the local chain
    /// suffix (the pure-spam strategy's per-slice payload).
    pub(crate) fn fabricate_unsolicited(&mut self, class: Corruption) -> Option<Message> {
        let mut segment = self.suffix_ending_at(self.tree.tip(), 3);
        if segment.is_empty() || !self.apply_corruption(&mut segment, false, class) {
            return None;
        }
        self.stats.spam_segments_sent += 1;
        Some(Message::Segment(segment))
    }
}
