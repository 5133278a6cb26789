//! Per-node statistics: everything the simulation's report aggregates.

use hashcore_chain::{Block, Reorg};
use hashcore_crypto::Digest256;

/// A segment sync that caused a branch switch: the segment exactly as the
/// batched verifier accepted it, and the reorg that replayed part of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncReorg {
    /// The blocks `validate_segment_parallel` accepted, in order.
    pub segment: Vec<Block>,
    /// The reorg the fork tree performed while applying them.
    pub reorg: Reorg,
}

/// Per-peer rejection accounting: one counter per rejection class of the
/// hardened message handlers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionCounts {
    /// Blocks whose Merkle root does not commit to their transactions.
    pub merkle: u64,
    /// Blocks whose PoW digest misses their embedded target.
    pub pow: u64,
    /// Blocks or segments embedding a target other than the one the
    /// difficulty rule expects at their branch position.
    pub target_policy: u64,
    /// Blocks or segments whose reported timestamps violate the
    /// [`TimestampRule`](super::TimestampRule) (future drift or median-time-past).
    pub timestamp: u64,
    /// Segments that answered no in-flight request — dropped *without*
    /// running the verifier.
    pub unsolicited_segment: u64,
    /// Solicited segments the batched verifier rejected.
    pub invalid_segment: u64,
    /// Messages dropped because the sender is banned.
    pub from_banned: u64,
    /// Batched Merkle proofs that failed verification against the
    /// committed header root (fake-proof adversaries land here).
    pub invalid_proof: u64,
    /// `Proof` responses that answered no in-flight proof request.
    pub unsolicited_proof: u64,
}

impl RejectionCounts {
    /// Total rejected messages across every class.
    pub fn total(&self) -> u64 {
        self.merkle
            + self.pow
            + self.target_policy
            + self.timestamp
            + self.unsolicited_segment
            + self.invalid_segment
            + self.from_banned
            + self.invalid_proof
            + self.unsolicited_proof
    }
}

impl std::ops::AddAssign for RejectionCounts {
    fn add_assign(&mut self, other: Self) {
        let Self {
            merkle,
            pow,
            target_policy,
            timestamp,
            unsolicited_segment,
            invalid_segment,
            from_banned,
            invalid_proof,
            unsolicited_proof,
        } = other;
        self.merkle += merkle;
        self.pow += pow;
        self.target_policy += target_policy;
        self.timestamp += timestamp;
        self.unsolicited_segment += unsolicited_segment;
        self.invalid_segment += invalid_segment;
        self.from_banned += from_banned;
        self.invalid_proof += invalid_proof;
        self.unsolicited_proof += unsolicited_proof;
    }
}

/// Per-node counters the simulation report aggregates.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Blocks this node mined itself (including withheld ones).
    pub blocks_mined: u64,
    /// Blocks first stored via gossip or sync (not mined locally).
    pub blocks_accepted: u64,
    /// Depth of every non-trivial reorg (≥ 1 block detached), in order.
    pub reorg_depths: Vec<usize>,
    /// Segments validated through `validate_segment_parallel`.
    pub segments_synced: u64,
    /// Total blocks across those segments.
    pub segment_blocks: u64,
    /// Wall-clock seconds spent inside segment validation (not simulated
    /// time — this measures real verifier throughput).
    pub sync_wall_seconds: f64,
    /// The deepest reorg a segment sync caused, with the segment that
    /// carried it — the witness that reorgs replay verifier-accepted blocks.
    pub deepest_sync: Option<SyncReorg>,
    /// Mined blocks kept private by the strategy.
    pub blocks_withheld: u64,
    /// Withheld blocks later released to the network.
    pub blocks_released: u64,
    /// Withheld blocks abandoned because the public chain overtook them.
    pub withheld_abandoned: u64,
    /// Valid-PoW bait blocks mined over a fabricated parent.
    pub fake_orphans: u64,
    /// Corrupted segments this node fabricated (solicited or gossiped).
    pub spam_segments_sent: u64,
    /// PoW digests of every fabricated or header-corrupted block this node
    /// sent — the list honest fork trees are audited against.
    pub spam_digests: Vec<Digest256>,
    /// Rejected incoming messages, by class.
    pub rejections: RejectionCounts,
    /// Sync requests that timed out (the asked peer stalled or the reply
    /// was lost).
    pub stalls_detected: u64,
    /// Timed-out requests re-issued to a different peer.
    pub requests_retried: u64,
    /// Requests abandoned after exhausting every retry.
    pub requests_abandoned: u64,
    /// Peers this node banned for repeated invalid traffic.
    pub peers_banned: u64,
    /// Blocks evicted by fork-tree pruning.
    pub blocks_pruned: u64,
    /// Times this node crash-restarted from its persistent store.
    pub crash_restarts: u64,
    /// Crash-restarts whose recovered tree fingerprint matched the
    /// pre-crash tree exactly (always, unless log bytes were lost).
    pub recoveries_identical: u64,
    /// Log records re-applied on top of recovered snapshots.
    pub blocks_replayed: u64,
    /// Torn/corrupt log bytes recovery discarded across every restart.
    pub recovery_lost_bytes: u64,
    /// Exact serialized bytes this node put on the wire
    /// ([`Message::wire_size`](super::Message::wire_size) of every
    /// delivered send).
    pub bytes_sent: u64,
    /// Exact serialized bytes delivered to this node.
    pub bytes_received: u64,
    /// Headers a light client accepted into its header chain.
    pub headers_accepted: u64,
    /// Header items this full node served across `Headers` responses.
    pub headers_served: u64,
    /// Batched proofs this full node served.
    pub proofs_served: u64,
    /// Batched proofs this light client verified against a committed
    /// header root.
    pub proofs_verified: u64,
    /// Proof requests re-issued after a timeout or a failed verification.
    pub proof_retries: u64,
    /// Proof requests this node's strategy deliberately left unanswered.
    pub proofs_withheld: u64,
    /// Corrupted proofs this node's strategy served.
    pub fake_proofs_sent: u64,
    /// Proof requests refused because the requester exhausted its per-peer
    /// serving quota.
    pub quota_refusals: u64,
    /// Hash evaluations spent verifying: one per light header digest, plus
    /// one per leaf and shipped node of every batch verification — the
    /// verify-CPU cost model of the light-client workload.
    pub verify_hash_ops: u64,
    /// Raw transaction bytes this light client proved against header
    /// commitments.
    pub tx_bytes_proved: u64,
    /// PoW-winning seeds this node's strategy discarded for verifying too
    /// cheaply (the cost-steering grind).
    pub seeds_discarded: u64,
    /// PoW-winning seeds the cost-aware admission bound rejected before
    /// the block was ever built.
    pub seeds_inadmissible: u64,
}
