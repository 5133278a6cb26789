//! # hashcore-net
//!
//! A deterministic, in-process multi-node network simulation around the
//! HashCore chain substrate.
//!
//! The paper motivates its PoW design with Ethereum-style sub-minute block
//! times — a constraint that only bites when competing chains actually
//! race. This crate produces those races: a set of [`Node`]s, each holding a
//! [`hashcore_chain::ForkTree`] and a resumable per-worker mining scratch,
//! driven by a seeded event scheduler ([`Simulation`]) that models gossip
//! latency, fan-out, and network partitions. Nodes that fall behind catch up
//! through the segment-sync protocol, whose hot path is
//! [`hashcore_chain::validate_segment_parallel`] — the batched verifier.
//!
//! # Determinism
//!
//! A simulation is a pure function of its [`SimConfig`] (including the
//! seed): events are ordered by `(time, insertion sequence)` (the total
//! order the [`sched`] module owns and tests), all randomness flows from
//! one seeded [`hashcore_gen::WidgetRng`], and fork choice is a strict
//! total order on `(cumulative work, digest)`. Two runs with the same
//! config report byte-identical [`SimReport::fingerprint`]s — CI asserts
//! this on every push. Only wall-clock fields (`sync_wall_seconds`,
//! `run_wall_seconds`) vary between runs, and they are excluded from the
//! fingerprint.
//!
//! # The scheduler: timestamp buckets, one thread or N
//!
//! The event queue ([`EventQueue`]) keeps one bucket of events per
//! timestamp. A bucket needs no sort: the scheduler hands out `seq` in
//! push order, so each bucket is already in `(time, seq)` order. Because
//! every handler schedules strictly into the future, the scheduler pops
//! whole timestamp batches. On one thread it runs each node event's
//! handler and merges its outcome — sends, RNG draws, convergence
//! transitions — before the next handler runs. With
//! `SimConfig::threads > 1` it fans the node-local handler runs across
//! `thread::scope` workers, one lane per node, and merges their outcomes
//! afterwards in `seq` order. Handlers touch only their own node and
//! draw no RNG, and a merge writes nothing a handler reads, so N-thread
//! runs are **byte-identical** to 1-thread runs; a proptest, a
//! thread-count test and the pinned honest fingerprint gate this, and
//! the `sim_scale` bench measures the resulting events/sec at 8–256
//! nodes.
//!
//! # Peer topology and eclipse attacks
//!
//! With [`SimConfig::topology`] set, nodes no longer see a full mesh:
//! each holds a bounded table of undirected peer links ([`topology`]),
//! broadcast walks the table, and gossip samples it weighted by each
//! peer's usefulness score (credits for relaying blocks the receiver
//! accepted, halved every topology tick). The [`Eclipse`] strategy
//! monopolises a victim's table with sybil connections until the victim
//! mines on a stale tip; the defences — scoring, pinned anchor links and
//! periodic anchor rotation ([`TopologyConfig`]) — keep honest links in
//! the table and restore convergence.
//!
//! # Node lifecycle
//!
//! Each node loops through scheduler-driven mining slices: refresh the
//! header template when the local tip moved, scan a bounded batch of nonces
//! through its reusable scratch (the search *resumes* across slices, so
//! simulated miners interleave without losing progress), and broadcast any
//! block found. Received blocks are applied to the fork tree; an unknown
//! parent triggers a `GetSegment` request carrying a Bitcoin-style locator,
//! and the responding peer ships exactly the missing segment, which the
//! requester validates in parallel before applying — reorgs of any depth
//! fall out of the fork tree's cumulative-work rule.
//!
//! # Adaptive difficulty
//!
//! With `SimConfig::retarget` set, the run races *adaptive-difficulty*
//! chains: every node derives its mining target from its current best
//! branch through the shared [`hashcore_chain::DifficultyRule`], and every
//! fork tree enforces the rule's expected target along each branch
//! (rejecting mismatches as `InvalidReason::Target`). Because the rule is
//! evaluated over *reported* header timestamps, timestamp manipulation
//! becomes a real attack surface — which the [`TimestampRule`]
//! (`SimConfig::timestamp_rule`) bounds with a future-drift cap and a
//! median-time-past floor. Left `None` (the default), the run mines at the
//! fixed `difficulty_bits` target, byte-identical to the pre-adaptive
//! simulation.
//!
//! # Adversaries and hardening
//!
//! Behaviour is pluggable through the [`Strategy`] trait: [`Honest`]
//! reproduces the protocol exactly (pinned by a byte-identical fingerprint
//! regression test), while [`SelfishMining`], [`SegmentStalling`],
//! [`SegmentSpam`], [`PoisonedSync`], [`TimestampSkew`] and
//! [`DifficultyHopping`] implement the classic attacks. Honest nodes
//! defend themselves: a branch-aware target policy check, the timestamp
//! validity rule above, unsolicited-segment drops that never invoke the
//! verifier, per-peer rejection accounting with banning
//! ([`RejectionCounts`], `SimConfig::ban_threshold`), request timeouts
//! with deterministic re-requests (`SimConfig::request_timeout_ms`), and
//! fork-tree pruning (`SimConfig::prune_depth`). Adversarial nodes draw
//! network randomness from a separate seeded stream, so honest traffic is
//! provably unchanged by an adversary that honest nodes ignore — the
//! property the adversary proptests pin down.
//!
//! # Persistence and crash recovery
//!
//! With `SimConfig::persistence` set, every node attaches a
//! `hashcore_store::ChainStore`: accepted blocks append to a CRC-framed
//! segment log and the fork tree is snapshotted periodically (and after
//! every prune). Scheduled [`CrashRestart`] events then kill a node at a
//! deterministic simulated time — it mines nothing and drops all traffic
//! while down — and restart it from disk through the store's recovery
//! ladder, optionally shearing a torn tail off its active log first. The
//! restarted node re-announces its recovered tip and catches back up
//! through the existing segment sync.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
pub mod sched;
mod sim;
mod strategy;
pub mod topology;

pub use node::{
    LightConfig, Message, Node, NodeCounters, NodeStats, Outgoing, RejectionCounts, Role,
    SyncReorg, TimestampRule, MAX_HEADERS_PER_MSG,
};
pub use sched::{EventQueue, Scheduled};
pub use sim::{
    CostPolicyConfig, CrashRestart, LatencyModel, LightSimConfig, Partition, PersistenceConfig,
    RetargetConfig, SimConfig, SimReport, Simulation,
};
pub use strategy::{
    Corruption, CostSteering, DifficultyHopping, Eclipse, FakeProof, Honest, MinedAction,
    MiningMode, PoisonedSync, ProofAction, ProofWithholding, SegmentSpam, SegmentStalling,
    SelfishMining, ServeAction, Silent, StallMode, Strategy, TimestampSkew,
};
pub use topology::TopologyConfig;
