//! The deterministic event-driven scheduler: seeded latency, gossip
//! fan-out, partitions, request timeouts, and the simulation report.

use crate::node::{LightConfig, Message, Node, NodeCounters, Outgoing, Role, TimestampRule};
use crate::sched::{EventQueue, Scheduled};
use crate::strategy::{Honest, Strategy};
use crate::topology::{Overlay, TopologyConfig};
use hashcore::Target;
use hashcore_baselines::PowFunction;
use hashcore_chain::{CostAwareRetarget, DifficultyRule, EmaRetarget, GENESIS_HASH};
use hashcore_crypto::Digest256;
use hashcore_gen::WidgetRng;
use hashcore_store::ChainStore;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Gossip latency model: every message takes `base_ms` plus a uniformly
/// sampled jitter in `0..=jitter_ms`, drawn from the simulation's seeded
/// RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed propagation delay, milliseconds.
    pub base_ms: u64,
    /// Maximum additional jitter, milliseconds.
    pub jitter_ms: u64,
}

impl LatencyModel {
    fn sample(&self, rng: &mut WidgetRng) -> u64 {
        if self.jitter_ms == 0 {
            self.base_ms
        } else {
            self.base_ms + rng.next_bounded(self.jitter_ms + 1)
        }
    }
}

/// A scheduled network partition: from `start_ms` until `end_ms`, nodes
/// with id below `split` cannot exchange messages with the rest. On heal,
/// every node re-announces its tip — the reconnect handshake that seeds
/// catch-up sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// When the partition begins, milliseconds.
    pub start_ms: u64,
    /// When the partition heals, milliseconds.
    pub end_ms: u64,
    /// Nodes `0..split` form one side, `split..nodes` the other.
    pub split: usize,
}

/// Per-branch EMA difficulty retargeting for the simulation: the
/// [`DifficultyRule::Ema`] rule, seeded at the run's `difficulty_bits` and
/// evaluated in simulated milliseconds. Every node derives its mining
/// target from its current best branch, and every fork tree enforces the
/// rule's expectation along each branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetargetConfig {
    /// Desired simulated milliseconds between blocks.
    pub target_block_time_ms: f64,
    /// Exponential-moving-average weight of the retarget step (see
    /// [`EmaRetarget::gain`]).
    pub gain: f64,
}

/// Verifier-cost feedback layered on top of [`SimConfig::retarget`]: the
/// run installs [`DifficultyRule::CostAware`] instead of the plain EMA
/// rule, so every header carries a quantized cost-EMA commitment in its
/// version word, branch targets harden when recent blocks trend
/// expensive-to-verify, and the per-block admission bound taxes expensive
/// seeds — the defence the cost-steering adversary is measured against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPolicyConfig {
    /// EMA weight of each block's observed cost ratio in the committed
    /// cost average (see [`CostAwareRetarget::cost_gain`]).
    pub cost_gain: f64,
    /// Exponent shaping how hard targets and admission react to the cost
    /// signal (see [`CostAwareRetarget::response`]).
    pub response: f64,
}

/// Per-node on-disk persistence for a simulation run: each node gets a
/// fresh [`ChainStore`] in `dir/node-<id>/` and appends every stored block
/// to its segment log (see [`crate::Node::with_persistence`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistenceConfig {
    /// Directory under which each node's store lives (`node-<id>/`
    /// subdirectories are created; pre-existing store files are an error —
    /// a run never silently extends an older run's history).
    pub dir: PathBuf,
    /// Snapshot every N stored blocks (0 = snapshot only after prunes).
    pub snapshot_interval: u64,
    /// Whether every append fsyncs before returning.
    pub sync_appends: bool,
}

/// Light-client population for a simulation run: nodes `first_light..`
/// take [`Role::Light`] and sync headers (plus batched Merkle proofs of
/// the transactions at `proof_indices`) from the full nodes
/// `0..first_light`, which serve at most `proof_quota` proofs per
/// requesting peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LightSimConfig {
    /// First light node id; nodes `0..first_light` stay full and act as
    /// the light population's servers. Must be in `1..nodes`.
    pub first_light: usize,
    /// Simulated milliseconds before a light client re-issues an
    /// unanswered header or proof request to its next server.
    pub request_timeout_ms: u64,
    /// Transaction leaf indices every light client proves per new tip;
    /// empty runs header-only clients.
    pub proof_indices: Vec<u32>,
    /// Most proofs a full node serves any single peer (0 = unlimited).
    pub proof_quota: u64,
    /// Deterministic filler bytes every mined block carries as a second
    /// transaction — simulated transaction volume, so the full-vs-light
    /// bandwidth comparison measures something real (0 = bare template).
    pub body_bytes: usize,
}

/// A scheduled crash-restart: `node` goes dark at `at_ms` (drops all
/// traffic, mines nothing), then restarts at `at_ms + down_ms` from its
/// on-disk store — recovery ladder, tip re-announcement, and catch-up via
/// the existing segment sync. Requires [`SimConfig::persistence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRestart {
    /// The node that crashes.
    pub node: usize,
    /// Simulated time of the crash, milliseconds.
    pub at_ms: u64,
    /// Downtime before the restart, milliseconds (must be positive).
    pub down_ms: u64,
    /// Bytes sheared off the node's active segment log at restart —
    /// deterministic torn-tail injection modelling appends that never
    /// became durable (0 = the disk kept everything).
    pub torn_tail_bytes: u64,
}

/// Full configuration of one simulation run. A run is a pure function of
/// this value (plus the strategy assignment) — see the crate docs for the
/// determinism guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Seed for all randomness (latency jitter, gossip sampling).
    pub seed: u64,
    /// Mining difficulty, in leading zero bits (all nodes mine at this
    /// fixed target; difficulty policy is out of scope for the race model).
    pub difficulty_bits: u32,
    /// Nonces each node evaluates per mining slice.
    pub attempts_per_slice: u64,
    /// Per-node overrides of `attempts_per_slice` — how adversary hash
    /// power fractions are configured. Empty by default.
    pub node_attempts: Vec<(usize, u64)>,
    /// Simulated duration of one mining slice, milliseconds.
    pub slice_ms: u64,
    /// Message latency model.
    pub latency: LatencyModel,
    /// Peers a relayed (not freshly mined) block is gossiped to.
    pub fan_out: usize,
    /// Scheduled partitions. Must not overlap in time.
    pub partitions: Vec<Partition>,
    /// Simulated time after which mining stops, milliseconds. In-flight
    /// messages still drain, so the network settles before the report.
    pub duration_ms: u64,
    /// Worker threads handed to `validate_segment_parallel` during sync.
    pub sync_threads: usize,
    /// Simulated milliseconds before an unanswered segment request is
    /// re-issued to another peer. `None` (the default) disables timeouts —
    /// and keeps all-honest runs byte-identical to the pre-timeout node.
    pub request_timeout_ms: Option<u64>,
    /// Rejections from one peer before a node bans it (0 = never ban).
    /// Honest peers never accumulate penalties, so the default of 3 does
    /// not affect honest runs.
    pub ban_threshold: u32,
    /// Fork-tree retention window (blocks below the tip); `None` (the
    /// default) keeps every branch forever, as before pruning existed.
    pub prune_depth: Option<u64>,
    /// Per-branch adaptive difficulty; `None` (the default) mines the
    /// whole run at the fixed `difficulty_bits` target, exactly as before
    /// adaptive difficulty existed.
    pub retarget: Option<RetargetConfig>,
    /// Verifier-cost feedback on top of `retarget`: `Some` upgrades the
    /// EMA rule to [`DifficultyRule::CostAware`] (requires `retarget`);
    /// `None` (the default) leaves every existing rule byte-identical.
    pub cost_policy: Option<CostPolicyConfig>,
    /// Header-timestamp validity rule nodes enforce on incoming blocks and
    /// segments; `None` (the default) accepts any reported timestamp —
    /// which is what makes the timestamp-skew attack land, and what this
    /// knob exists to demonstrate turning off.
    pub timestamp_rule: Option<TimestampRule>,
    /// Per-node on-disk persistence; `None` (the default) keeps every node
    /// purely in-memory, exactly as before persistence existed. Building
    /// the simulation creates the stores (and panics on I/O failure).
    pub persistence: Option<PersistenceConfig>,
    /// Scheduled crash-restarts; requires `persistence`. Windows for the
    /// same node must not overlap.
    pub crashes: Vec<CrashRestart>,
    /// Worker threads the scheduler fans node-local events (mining
    /// slices, deliveries, timer checks) across. Any value produces a
    /// byte-identical report — the sharded-scheduler proptest pins N
    /// threads against 1 — so this is purely a wall-clock knob. Default 1.
    pub threads: usize,
    /// First-class peer topology: bounded peer tables, scored gossip and
    /// the eclipse-attack surface (see [`TopologyConfig`]). `None` (the
    /// default) keeps the full-mesh broadcast and uniform gossip sampling
    /// of the pre-topology simulation, byte for byte.
    pub topology: Option<TopologyConfig>,
    /// Light-client population; `None` (the default) runs every node as a
    /// full node, exactly as before light roles existed. Mutually
    /// exclusive with `topology` (light servers assume the full mesh).
    pub light: Option<LightSimConfig>,
}

impl SimConfig {
    /// Nonces `node` evaluates per slice, honouring `node_attempts`.
    pub fn attempts_for(&self, node: usize) -> u64 {
        self.node_attempts
            .iter()
            .find(|(id, _)| *id == node)
            .map_or(self.attempts_per_slice, |(_, attempts)| *attempts)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            nodes: 5,
            seed: 0x5eed_c0de,
            difficulty_bits: 11,
            attempts_per_slice: 64,
            node_attempts: Vec::new(),
            slice_ms: 100,
            latency: LatencyModel {
                base_ms: 20,
                jitter_ms: 80,
            },
            fan_out: 2,
            partitions: Vec::new(),
            duration_ms: 60_000,
            sync_threads: 4,
            request_timeout_ms: None,
            ban_threshold: 3,
            prune_depth: None,
            retarget: None,
            cost_policy: None,
            timestamp_rule: None,
            persistence: None,
            crashes: Vec::new(),
            threads: 1,
            topology: None,
            light: None,
        }
    }
}

/// What one event does when it fires.
#[derive(Debug, Clone)]
enum EventKind {
    /// Node runs one mining slice.
    MineSlice { node: usize },
    /// A message arrives.
    Deliver {
        to: usize,
        from: usize,
        message: Message,
    },
    /// A node's request-timeout clock fires.
    Timeout { node: usize, token: Digest256 },
    /// A partition begins.
    PartitionStart { index: usize },
    /// A partition heals.
    PartitionEnd { index: usize },
    /// A node crashes (goes dark until its restart).
    Crash { index: usize },
    /// A crashed node restarts from its on-disk store.
    Restart { index: usize },
    /// The periodic topology maintenance tick: score decay plus one
    /// anchor rotation per honest node.
    TopologyTick,
}

impl EventKind {
    /// `true` for a *barrier* event: it touches global scheduler state
    /// (the partition split, the down flags, the topology overlay) and
    /// must execute alone, never concurrently with node-local work.
    fn is_barrier(&self) -> bool {
        !matches!(
            self,
            EventKind::MineSlice { .. } | EventKind::Deliver { .. } | EventKind::Timeout { .. }
        )
    }
}

/// A node-local handler invocation, taken from a node event's
/// [`EventKind`].
#[derive(Debug)]
enum NodeAction {
    /// Run one mining slice of `attempts` nonces.
    Mine { attempts: u64 },
    /// Handle an arriving message.
    Deliver { from: usize, message: Message },
    /// Fire a request-timeout check.
    Timeout { token: Digest256 },
    /// The node is down and runs no handler. A skipped mining slice
    /// (`mine`) still reschedules the slice clock, so mining resumes
    /// after the restart.
    Skip { mine: bool },
}

/// One node event ready to execute, tagged with its global `seq` so a
/// lane's outcomes merge back in the exact sequential order.
#[derive(Debug)]
struct NodeEvent {
    seq: u64,
    node: usize,
    action: NodeAction,
}

/// What one node-local event produced, captured by
/// [`Simulation::execute`] and replayed by [`Simulation::merge`].
/// Everything the post-handler code needs — outgoing sends, the node's
/// tip after the event, the facts feeding topology scoring — is here, so
/// the merge consumes the RNG in `seq` order whichever thread ran the
/// handler.
#[derive(Debug)]
struct EventOutcome {
    seq: u64,
    node: usize,
    /// Sends the handler produced (empty for events skipped while down).
    outgoing: Vec<Outgoing>,
    /// The node's tip after this event — replayed into the per-event
    /// convergence tracking.
    tip: Digest256,
    /// For deliveries: the peer that sent the message, credited when the
    /// handler accepted a new block.
    relayer: Option<usize>,
    /// The handler accepted at least one new block into its fork tree.
    useful: bool,
    /// Mining-slice events reschedule the slice clock afterwards.
    mine: bool,
}

/// Aggregated outcome of one simulation run.
///
/// Convergence, tip and safety figures are computed over the *honest*
/// (non-adversarial) nodes — a withholding miner's private tip or a silent
/// spammer's stale tree must not mask honest agreement. In all-honest runs
/// this is every node, exactly as before the adversary framework.
///
/// The per-node counters are summed into [`SimReport::counters`], which the
/// report derefs to: `report.blocks_mined` is every node's
/// [`NodeCounters::blocks_mined`] added up.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Number of nodes simulated.
    pub nodes: usize,
    /// The seed the run used.
    pub seed: u64,
    /// Mining horizon, milliseconds.
    pub duration_ms: u64,
    /// `true` when every honest node finished on the same non-empty tip.
    pub converged: bool,
    /// Simulated time at which the honest nodes last became fully
    /// converged (and stayed so through the end), if they did.
    pub convergence_ms: Option<u64>,
    /// The common tip digest (the first honest node's tip if not
    /// converged).
    pub tip: Digest256,
    /// Height of that tip.
    pub tip_height: u64,
    /// Every non-trivial reorg depth observed by any node, sorted
    /// descending.
    pub reorg_depths: Vec<usize>,
    /// The deepest reorg any node performed.
    pub max_reorg_depth: usize,
    /// Messages delivered (or in flight) across the run.
    pub messages_sent: u64,
    /// Messages dropped at partition boundaries.
    pub messages_dropped: u64,
    /// Wall-clock seconds spent inside segment validation, all nodes.
    /// Excluded from the fingerprints, like
    /// [`SimReport::run_wall_seconds`]: both are wall-clock time.
    pub sync_wall_seconds: f64,
    /// Spam blocks (fabricated or header-corrupted) found in any honest
    /// node's fork tree at the end of the run. The acceptance gate is 0.
    pub spam_accepted: u64,
    /// Minimum over honest nodes of `tip height − best side-branch
    /// height`: how far the closest runner-up branch sits below each
    /// honest tip. Large margins mean adversarial branches never came
    /// close.
    pub honest_tip_safety_margin: u64,
    /// Messages dropped because the sender or receiver was crashed.
    pub messages_lost_to_crashes: u64,
    /// Scheduler events processed across the whole run — identical for
    /// every thread count, so `events / run_wall_seconds` measures pure
    /// scheduling throughput.
    pub events_processed: u64,
    /// Eclipse-style connection attempts adversaries made against peer
    /// tables (0 on topology-less runs).
    pub connect_attempts: u64,
    /// Peer-table links evicted by connection pressure.
    pub peer_evictions: u64,
    /// Anchor rotations honest nodes performed at topology ticks.
    pub anchor_rotations: u64,
    /// Light-client nodes in the run (0 without [`SimConfig::light`]).
    pub light_nodes: u64,
    /// `true` when every light client's header tip equals the honest full
    /// tip at the end of the run (vacuously `true` with no light nodes).
    pub light_converged: bool,
    /// Mean observed verifier-cost ratio (actual over nominal) along the
    /// first honest node's best chain — the per-block verification bill
    /// the cost-steering adversary inflates and the cost-aware rule
    /// restores (`1.0` while the chain is empty).
    pub tip_mean_cost_ratio: f64,
    /// Wall-clock seconds the whole run took. Excluded from the
    /// fingerprints, like [`SimReport::sync_wall_seconds`].
    pub run_wall_seconds: f64,
    /// Every node's counters, summed.
    pub counters: NodeCounters,
    /// The light nodes' counters alone, summed: `light.bytes_received` is
    /// the light-client bandwidth footprint the header-first protocol
    /// exists to shrink.
    pub light: NodeCounters,
}

impl std::ops::Deref for SimReport {
    type Target = NodeCounters;

    fn deref(&self) -> &NodeCounters {
        &self.counters
    }
}

impl SimReport {
    /// A canonical rendering of the deterministic fields every run has had
    /// since the honest-only simulation. Two runs with the same
    /// [`SimConfig`] and strategies produce identical fingerprints. This
    /// string is pinned by the strategy-refactor regression gate, so it
    /// deliberately excludes the adversary-era fields — see
    /// [`SimReport::fingerprint_extended`].
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "nodes={} seed={} duration={} converged={} convergence={:?} \
             tip={} height={} mined={} reorgs={:?} max_reorg={} \
             segments={} segment_blocks={} sent={} dropped={}",
            self.nodes,
            self.seed,
            self.duration_ms,
            self.converged,
            self.convergence_ms,
            hashcore_crypto::hex::encode(&self.tip),
            self.tip_height,
            self.blocks_mined,
            self.reorg_depths,
            self.max_reorg_depth,
            self.segments_synced,
            self.segment_blocks,
            self.messages_sent,
            self.messages_dropped,
        );
        out
    }

    /// [`SimReport::fingerprint`] plus every deterministic adversary-era
    /// field — what the adversary bench compares across runs.
    pub fn fingerprint_extended(&self) -> String {
        let mut out = self.fingerprint();
        let _ = write!(
            out,
            " spam_sent={} spam_accepted={} fake_orphans={} rejections={:?} \
             stalls={} retried={} abandoned={} banned={} withheld={} \
             released={} abandoned_private={} pruned={} safety_margin={} \
             crashes={} recovered_identical={} replayed={} lost_bytes={} \
             crash_dropped={}",
            self.spam_segments_sent,
            self.spam_accepted,
            self.fake_orphans,
            self.rejections,
            self.stalls_detected,
            self.requests_retried,
            self.requests_abandoned,
            self.peers_banned,
            self.blocks_withheld,
            self.blocks_released,
            self.withheld_abandoned,
            self.blocks_pruned,
            self.honest_tip_safety_margin,
            self.crash_restarts,
            self.recoveries_identical,
            self.blocks_replayed,
            self.recovery_lost_bytes,
            self.messages_lost_to_crashes,
        );
        let _ = write!(
            out,
            " events={} connects={} evictions={} rotations={}",
            self.events_processed,
            self.connect_attempts,
            self.peer_evictions,
            self.anchor_rotations,
        );
        let _ = write!(
            out,
            " lights={} light_converged={} bytes={} light_bytes={} \
             headers_served={} headers_accepted={} proofs_served={} \
             proofs_verified={} proof_retries={} proofs_withheld={} \
             fake_proofs={} quota_refusals={} verify_ops={} tx_proved={}",
            self.light_nodes,
            self.light_converged,
            self.bytes_sent,
            self.light.bytes_received,
            self.headers_served,
            self.headers_accepted,
            self.proofs_served,
            self.proofs_verified,
            self.proof_retries,
            self.proofs_withheld,
            self.fake_proofs_sent,
            self.quota_refusals,
            self.verify_hash_ops,
            self.tx_bytes_proved,
        );
        let _ = write!(
            out,
            " seeds_discarded={} seeds_inadmissible={} tip_cost={:.4}",
            self.seeds_discarded, self.seeds_inadmissible, self.tip_mean_cost_ratio,
        );
        out
    }

    /// Proof batches served per wall-clock second — the light bench's
    /// serving-throughput figure (`BENCH_light.json`).
    pub fn served_proofs_per_sec(&self) -> f64 {
        if self.run_wall_seconds > 0.0 {
            self.proofs_served as f64 / self.run_wall_seconds
        } else {
            0.0
        }
    }

    /// Average serialized bytes each light peer received — what a light
    /// client's bandwidth bill looks like next to a full node's.
    pub fn bytes_per_light_peer(&self) -> f64 {
        if self.light_nodes > 0 {
            self.light.bytes_received as f64 / self.light_nodes as f64
        } else {
            0.0
        }
    }

    /// Blocks validated by segment sync per wall-clock second — the sync
    /// throughput figure `BENCH_sync.json` records.
    pub fn sync_blocks_per_sec(&self) -> f64 {
        if self.sync_wall_seconds > 0.0 {
            self.segment_blocks as f64 / self.sync_wall_seconds
        } else {
            0.0
        }
    }

    /// Scheduler events processed per wall-clock second — the scale
    /// bench's throughput figure (`BENCH_scale.json`).
    pub fn events_per_sec(&self) -> f64 {
        if self.run_wall_seconds > 0.0 {
            self.events_processed as f64 / self.run_wall_seconds
        } else {
            0.0
        }
    }
}

/// The event-driven network simulation.
///
/// Build one with [`Simulation::new`] (all-honest) or
/// [`Simulation::with_strategies`] (per-node behaviour), [`Simulation::run`]
/// it to completion, then inspect the [`SimReport`] and the per-node state
/// via [`Simulation::nodes`].
///
/// # RNG isolation
///
/// Sends originating from adversarial nodes draw latency and gossip
/// samples from a *separate* seeded stream. Honest traffic therefore
/// consumes exactly the same random sequence whether an adversary is
/// present or replaced by [`crate::Silent`] — the property that lets the
/// adversary proptests compare honest fork choice against a baseline run.
#[derive(Debug)]
pub struct Simulation<P: PowFunction + std::fmt::Debug>
where
    P::Scratch: std::fmt::Debug,
{
    config: SimConfig,
    nodes: Vec<Node<P>>,
    /// Indices of the non-adversarial nodes (all nodes when every strategy
    /// is adversarial, so reports never divide by zero).
    honest: Vec<usize>,
    queue: EventQueue<EventKind>,
    rng: WidgetRng,
    adversary_rng: WidgetRng,
    seq: u64,
    now: u64,
    split: Option<usize>,
    converged_at: Option<u64>,
    messages_sent: u64,
    messages_dropped: u64,
    /// Per-node crashed flag: a down node mines nothing and all its
    /// traffic (both directions) is dropped until its restart.
    down: Vec<bool>,
    messages_lost_to_crashes: u64,
    /// The peer-topology overlay, when [`SimConfig::topology`] is set.
    overlay: Option<Overlay>,
    /// Per-node tip cache, updated after every node-local event — the
    /// state convergence tracking replays in global `seq` order even when
    /// the handlers themselves ran on worker threads.
    tips: Vec<Digest256>,
    events_processed: u64,
    connect_attempts: u64,
    run_wall_seconds: f64,
}

impl<P: PowFunction + Send + Sync + std::fmt::Debug> Simulation<P>
where
    P::Scratch: std::fmt::Debug,
{
    /// Creates an all-honest simulation; `make_pow` builds each node's PoW
    /// instance (nodes can share a cheap `Clone` or each own a configured
    /// one).
    ///
    /// # Panics
    ///
    /// Panics if the config has fewer than two nodes, a zero slice, a
    /// partition with `split` outside `1..nodes`, or partitions that
    /// overlap in time.
    pub fn new(config: SimConfig, make_pow: impl FnMut(usize) -> P) -> Self {
        Self::with_strategies(config, make_pow, |_| Box::new(Honest))
    }

    /// Creates a simulation with a per-node behaviour strategy.
    ///
    /// # Panics
    ///
    /// As [`Simulation::new`].
    pub fn with_strategies(
        config: SimConfig,
        mut make_pow: impl FnMut(usize) -> P,
        mut make_strategy: impl FnMut(usize) -> Box<dyn Strategy>,
    ) -> Self {
        assert!(config.nodes >= 2, "a network needs at least two nodes");
        assert!(config.slice_ms > 0, "mining slices need a positive length");
        assert!(
            config.threads >= 1,
            "the scheduler needs at least one thread"
        );
        for p in &config.partitions {
            assert!(
                p.split >= 1 && p.split < config.nodes,
                "partition split must leave nodes on both sides"
            );
            assert!(
                p.start_ms < p.end_ms,
                "partitions must have positive length"
            );
        }
        // A timeout shorter than a round trip would make honest nodes
        // mistake in-flight replies for stalls (and, worse, late honest
        // replies for unsolicited spam), so demand headroom for two
        // worst-case latency samples.
        if let Some(timeout) = config.request_timeout_ms {
            assert!(
                timeout >= 2 * (config.latency.base_ms + config.latency.jitter_ms),
                "request_timeout_ms must cover a worst-case round trip"
            );
        }
        // Pruned peers answer out-of-window requests with silence; without
        // the timeout machinery that silence would strand the pending
        // request forever, so the combination is rejected up front.
        assert!(
            config.prune_depth.is_none() || config.request_timeout_ms.is_some(),
            "prune_depth requires request_timeout_ms (a pruned peer's \
             silent non-answer must be recoverable)"
        );
        // The single active-split state cannot represent concurrent
        // partitions, so reject what it would silently get wrong.
        let mut windows: Vec<(u64, u64)> = config
            .partitions
            .iter()
            .map(|p| (p.start_ms, p.end_ms))
            .collect();
        windows.sort_unstable();
        for pair in windows.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "partitions must not overlap in time"
            );
        }
        // Crash-restarts only make sense for nodes that can come back
        // with their chain: demand persistence and non-degenerate,
        // per-node non-overlapping downtime windows.
        if !config.crashes.is_empty() {
            assert!(
                config.persistence.is_some(),
                "crash-restart events require persistence"
            );
        }
        for c in &config.crashes {
            assert!(c.node < config.nodes, "crash node out of range");
            assert!(c.down_ms > 0, "downtime must be positive");
        }
        for (i, a) in config.crashes.iter().enumerate() {
            for b in &config.crashes[i + 1..] {
                assert!(
                    a.node != b.node
                        || a.at_ms + a.down_ms <= b.at_ms
                        || b.at_ms + b.down_ms <= a.at_ms,
                    "crash windows for one node must not overlap"
                );
            }
        }
        if let Some(light) = &config.light {
            assert!(
                light.first_light >= 1 && light.first_light < config.nodes,
                "light clients need at least one full node to serve them"
            );
            assert!(
                config.topology.is_none(),
                "light roles assume the full mesh; combine with topology later"
            );
            // Same round-trip headroom rationale as segment-request
            // timeouts: a light client must not mistake an in-flight
            // reply for a withholding server.
            assert!(
                light.request_timeout_ms >= 2 * (config.latency.base_ms + config.latency.jitter_ms),
                "light request_timeout_ms must cover a worst-case round trip"
            );
        }
        assert!(
            config.cost_policy.is_none() || config.retarget.is_some(),
            "cost_policy layers on the EMA rule and requires retarget"
        );
        let target = Target::from_leading_zero_bits(config.difficulty_bits);
        let rule = match config.retarget {
            None => DifficultyRule::Fixed(target),
            Some(retarget) => {
                let ema = EmaRetarget {
                    initial: target,
                    target_block_time: retarget.target_block_time_ms,
                    gain: retarget.gain,
                };
                match config.cost_policy {
                    None => DifficultyRule::Ema(ema),
                    Some(policy) => DifficultyRule::CostAware(CostAwareRetarget::new(
                        ema,
                        policy.cost_gain,
                        policy.response,
                    )),
                }
            }
        };
        let nodes: Vec<Node<P>> = (0..config.nodes)
            .map(|id| {
                let mut node = Node::new(id, make_pow(id), target, config.sync_threads)
                    .with_difficulty(rule, config.timestamp_rule)
                    .with_strategy(make_strategy(id))
                    .with_limits(
                        config.nodes,
                        config.request_timeout_ms,
                        config.ban_threshold,
                        config.prune_depth,
                    );
                if let Some(p) = &config.persistence {
                    let dir = p.dir.join(format!("node-{id}"));
                    let mut store = ChainStore::create(&dir)
                        .expect("each node's store directory must be creatable and empty");
                    store.set_sync(p.sync_appends);
                    node = node.with_persistence(store, p.snapshot_interval);
                }
                if let Some(light) = &config.light {
                    if id >= light.first_light {
                        node = node.with_light_role(LightConfig {
                            servers: (0..light.first_light).collect(),
                            request_timeout_ms: light.request_timeout_ms,
                            proof_indices: light.proof_indices.clone(),
                        });
                    } else {
                        node = node
                            .with_proof_quota(light.proof_quota)
                            .with_body_bytes(light.body_bytes);
                    }
                }
                node
            })
            .collect();
        let mut honest: Vec<usize> = (0..config.nodes)
            .filter(|&id| !nodes[id].is_adversarial())
            .collect();
        if honest.is_empty() {
            honest = (0..config.nodes).collect();
        }
        // The overlay's initial random links draw from the main RNG
        // *before* any event fires; with `topology: None` no draw happens
        // and the stream is byte-identical to the pre-topology scheduler.
        let mut rng = WidgetRng::new(config.seed);
        let overlay = config
            .topology
            .map(|topology| Overlay::new(config.nodes, topology, &mut rng));
        let tips = nodes.iter().map(Node::tip).collect();
        let mut sim = Self {
            rng,
            adversary_rng: WidgetRng::new(config.seed ^ 0xADAD_F0F0_1234_5678),
            down: vec![false; config.nodes],
            queue: EventQueue::default(),
            nodes,
            honest,
            seq: 0,
            now: 0,
            split: None,
            converged_at: None,
            messages_sent: 0,
            messages_dropped: 0,
            messages_lost_to_crashes: 0,
            overlay,
            tips,
            events_processed: 0,
            connect_attempts: 0,
            run_wall_seconds: 0.0,
            config,
        };
        for node in 0..sim.config.nodes {
            sim.schedule(sim.config.slice_ms, EventKind::MineSlice { node });
        }
        for index in 0..sim.config.partitions.len() {
            let p = sim.config.partitions[index];
            sim.schedule(p.start_ms, EventKind::PartitionStart { index });
            sim.schedule(p.end_ms, EventKind::PartitionEnd { index });
        }
        for index in 0..sim.config.crashes.len() {
            let c = sim.config.crashes[index];
            sim.schedule(c.at_ms, EventKind::Crash { index });
            sim.schedule(c.at_ms + c.down_ms, EventKind::Restart { index });
        }
        if let Some(interval) = sim
            .config
            .topology
            .and_then(|topology| topology.rotation_interval_ms)
        {
            sim.schedule(interval, EventKind::TopologyTick);
        }
        sim
    }

    /// The simulated nodes (final state after [`Simulation::run`]).
    pub fn nodes(&self) -> &[Node<P>] {
        &self.nodes
    }

    /// The configuration the simulation runs under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Peer ids currently in `node`'s table, in connection order — empty
    /// on topology-less runs.
    pub fn peer_table(&self, node: usize) -> Vec<usize> {
        self.overlay
            .as_ref()
            .map_or_else(Vec::new, |overlay| overlay.peers_of(node))
    }

    fn schedule(&mut self, time: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { time, seq, kind });
    }

    /// The RNG stream `from`'s traffic draws on — the isolation that keeps
    /// honest randomness byte-identical whether an adversary acts or sits
    /// silent. Every latency/gossip sample must come through here.
    fn rng_for(&mut self, from: usize) -> &mut WidgetRng {
        if self.nodes[from].is_adversarial() {
            &mut self.adversary_rng
        } else {
            &mut self.rng
        }
    }

    /// `true` when `a` and `b` can currently exchange messages.
    fn connected(&self, a: usize, b: usize) -> bool {
        match self.split {
            None => true,
            Some(split) => (a < split) == (b < split),
        }
    }

    /// Queues a message send, applying partition drops and sampled latency.
    /// `extra_ms` models a sender that sits on the message before sending.
    fn send(&mut self, from: usize, to: usize, message: Message, extra_ms: u64) {
        // A crashed endpoint drops traffic before any RNG is consumed —
        // mirroring the partition path, so crash-free runs stay
        // byte-identical.
        if self.down[from] || self.down[to] {
            self.messages_lost_to_crashes += 1;
            return;
        }
        if !self.connected(from, to) {
            self.messages_dropped += 1;
            return;
        }
        // On topology runs a message only travels over an existing link;
        // a send into an evicted link is dropped before any RNG is
        // consumed, mirroring the partition path.
        if let Some(overlay) = &self.overlay {
            if !overlay.linked(from, to) {
                self.messages_dropped += 1;
                return;
            }
        }
        // A light subscriber gets the header, not the body: the scheduler
        // owns the conversion so full nodes gossip exactly as before and
        // the bandwidth accounting below prices what actually travels.
        let message = match (&message, self.nodes[to].role()) {
            (Message::Block(block), Role::Light) => Message::Headers(vec![block.header.clone()]),
            _ => message,
        };
        // Bandwidth is priced in real serialized bytes, not message
        // counts — what the light-client protocol exists to shrink.
        let bytes = message.wire_size();
        self.nodes[from].stats.bytes_sent += bytes;
        self.nodes[to].stats.bytes_received += bytes;
        self.messages_sent += 1;
        let latency_model = self.config.latency;
        let latency = latency_model.sample(self.rng_for(from));
        let time = self.now + extra_ms + latency.max(1);
        self.schedule(time, EventKind::Deliver { to, from, message });
    }

    /// Executes a node's outgoing sends: direct, gossip-sampled, broadcast,
    /// delayed, or timer arming.
    fn dispatch(&mut self, from: usize, outgoing: Vec<Outgoing>) {
        for out in outgoing {
            match out {
                Outgoing::To(dest, message) => self.send(from, dest, message, 0),
                Outgoing::DelayedTo {
                    to,
                    after_ms,
                    message,
                } => self.send(from, to, message, after_ms),
                Outgoing::Broadcast(message) => {
                    // With topology on, "everyone" is the node's peer
                    // table; without, the legacy full mesh.
                    let table = self.overlay.as_ref().map(|o| o.peers_of(from));
                    match table {
                        Some(peers) => {
                            for dest in peers {
                                self.send(from, dest, message.clone(), 0);
                            }
                        }
                        None => {
                            for dest in 0..self.config.nodes {
                                if dest != from {
                                    self.send(from, dest, message.clone(), 0);
                                }
                            }
                        }
                    }
                }
                Outgoing::Gossip(message) => {
                    if self.overlay.is_some() {
                        // Score-weighted sampling over the peer table:
                        // peers that relayed useful blocks dominate.
                        let adversarial = self.nodes[from].is_adversarial();
                        let mut targets = Vec::new();
                        {
                            let Self {
                                overlay,
                                rng,
                                adversary_rng,
                                config,
                                ..
                            } = &mut *self;
                            let rng = if adversarial { adversary_rng } else { rng };
                            overlay.as_ref().expect("topology run").gossip_targets(
                                from,
                                config.fan_out,
                                rng,
                                &mut targets,
                            );
                        }
                        for dest in targets {
                            self.send(from, dest, message.clone(), 0);
                        }
                    } else {
                        let mut peers: Vec<usize> =
                            (0..self.config.nodes).filter(|&d| d != from).collect();
                        let sample = self.config.fan_out.min(peers.len());
                        for _ in 0..sample {
                            let pick = self.rng_for(from).next_bounded(peers.len() as u64) as usize;
                            let dest = peers.swap_remove(pick);
                            self.send(from, dest, message.clone(), 0);
                        }
                    }
                }
                Outgoing::Timer { token, after_ms } => {
                    self.schedule(
                        self.now + after_ms.max(1),
                        EventKind::Timeout { node: from, token },
                    );
                }
            }
        }
    }

    /// Tracks when the honest nodes last became (and stayed) converged.
    ///
    /// Reads the per-event [`Simulation::tips`] cache rather than the
    /// nodes directly, so the parallel scheduler can replay convergence
    /// transitions event by event in global `seq` order — a tip can flip
    /// convergence on and off *within* one timestamp batch, and the
    /// sequential scheduler observed every such transition.
    fn update_convergence(&mut self) {
        let tip = self.tips[self.honest[0]];
        let all_equal = tip != [0u8; 32] && self.honest.iter().all(|&id| self.tips[id] == tip);
        if all_equal {
            if self.converged_at.is_none() {
                self.converged_at = Some(self.now);
            }
        } else {
            self.converged_at = None;
        }
    }

    /// Runs the simulation to completion — mining until the horizon, then
    /// draining in-flight traffic — and reports the aggregate outcome.
    ///
    /// # Timestamp batches, on one thread and on many
    ///
    /// Every scheduling path lands strictly after `now` (latency floors
    /// at 1 ms, timers floor at 1 ms, slice clocks add `slice_ms`), so
    /// when the earliest queued timestamp is reached, *every* event at
    /// that timestamp is already queued. The loop therefore pops whole
    /// timestamp batches ([`EventQueue::pop_time_batch`]). A batch needs
    /// no sort: `Simulation::schedule` hands out `seq` in push order, so
    /// each timestamp's bucket is already in `seq` order.
    ///
    /// Barrier events (partitions, crashes, topology ticks — anything
    /// touching global state) execute alone. With one thread, every node
    /// event runs its handler and merges its outcome — sends, RNG draws,
    /// scoring credits, the slice clock, convergence — before the next
    /// handler runs. With `threads > 1`, the node events between two
    /// barriers fan out across `thread::scope` workers, one lane per
    /// node, and their outcomes merge afterwards in `seq` order.
    ///
    /// The two are identical. A handler touches only its own node and
    /// draws no RNG, and a merge writes only scheduler state and the
    /// nodes' byte counters, which no handler reads. So running a node's
    /// later handlers before an earlier event's merge changes nothing any
    /// handler or merge sees, and N-thread runs are byte-identical to
    /// 1-thread runs; the sharded-scheduler proptest, the thread-count
    /// test and the pinned honest fingerprint gate this.
    pub fn run(&mut self) -> SimReport {
        let started = Instant::now();
        let mut batch: Vec<Scheduled<EventKind>> = Vec::new();
        let mut pending: Vec<NodeEvent> = Vec::new();
        loop {
            self.queue.pop_time_batch(&mut batch);
            let Some(first) = batch.first() else { break };
            self.now = first.time;
            self.events_processed += batch.len() as u64;
            for event in batch.drain(..) {
                if event.kind.is_barrier() {
                    self.run_lanes(&mut pending);
                    self.run_barrier(event.kind);
                    self.update_convergence();
                    continue;
                }
                let event = self.node_event(event);
                if self.config.threads > 1 {
                    pending.push(event);
                } else {
                    let outcome = Self::execute(self.now, &mut self.nodes[event.node], event);
                    self.merge(outcome);
                }
            }
            self.run_lanes(&mut pending);
        }
        self.run_wall_seconds = started.elapsed().as_secs_f64();
        self.report()
    }

    /// Executes one barrier event — global state only fires here.
    fn run_barrier(&mut self, kind: EventKind) {
        match kind {
            EventKind::PartitionStart { index } => {
                self.split = Some(self.config.partitions[index].split);
            }
            EventKind::PartitionEnd { index } => {
                let _ = index;
                self.split = None;
                // Reconnect handshake: every node announces its tip, so
                // the two sides discover each other's branch even if no
                // further block is mined.
                for from in 0..self.config.nodes {
                    if let Some(block) = self.nodes[from].tree().tip_block().cloned() {
                        self.dispatch(from, vec![Outgoing::Broadcast(Message::Block(block))]);
                    }
                }
            }
            EventKind::Crash { index } => {
                self.down[self.config.crashes[index].node] = true;
            }
            EventKind::Restart { index } => {
                let crash = self.config.crashes[index];
                // Deterministic torn-tail injection: the configured
                // byte count of the active log never became durable.
                if crash.torn_tail_bytes > 0 {
                    let dir = self.nodes[crash.node]
                        .store_dir()
                        .expect("crash-restart nodes have a store")
                        .to_path_buf();
                    hashcore_store::inject_torn_tail(&dir, crash.torn_tail_bytes)
                        .expect("torn-tail injection targets an existing log");
                }
                self.down[crash.node] = false;
                let (_report, out) = self.nodes[crash.node]
                    .crash_restart()
                    .expect("a crashed node restarts from its store");
                self.tips[crash.node] = self.nodes[crash.node].tip();
                self.dispatch(crash.node, out);
            }
            EventKind::TopologyTick => {
                // Decay first — the ranking measures recent usefulness —
                // then every live honest node dials one fresh anchor.
                // Rotation draws from the main RNG (honest protocol
                // behaviour); the tip-exchange handshake on each new link
                // is what re-seeds convergence after a table was
                // monopolised. Adversaries neither rotate nor hand their
                // tip over: a real eclipse attacker controls its own
                // protocol messages.
                let mut handshakes: Vec<(usize, usize)> = Vec::new();
                {
                    let Self {
                        overlay,
                        rng,
                        nodes,
                        down,
                        ..
                    } = &mut *self;
                    if let Some(overlay) = overlay.as_mut() {
                        overlay.decay();
                        for node in 0..nodes.len() {
                            if !down[node] && !nodes[node].is_adversarial() {
                                if let Some(peer) = overlay.rotate(node, rng) {
                                    handshakes.push((node, peer));
                                }
                            }
                        }
                    }
                }
                for (node, peer) in handshakes {
                    for (a, b) in [(node, peer), (peer, node)] {
                        if self.nodes[a].is_adversarial() {
                            continue;
                        }
                        if let Some(block) = self.nodes[a].tree().tip_block().cloned() {
                            self.send(a, b, Message::Block(block), 0);
                        }
                    }
                }
                let interval = self
                    .config
                    .topology
                    .and_then(|topology| topology.rotation_interval_ms)
                    .expect("a topology tick implies a rotation interval");
                let next = self.now + interval;
                if next <= self.config.duration_ms {
                    self.schedule(next, EventKind::TopologyTick);
                }
            }
            EventKind::MineSlice { .. } | EventKind::Deliver { .. } | EventKind::Timeout { .. } => {
                unreachable!("node-local events execute through Simulation::execute")
            }
        }
    }

    /// Takes a node-local event apart for [`Simulation::execute`]. A down
    /// node runs no handler, and a message to it is lost.
    fn node_event(&mut self, event: Scheduled<EventKind>) -> NodeEvent {
        let (node, action) = match event.kind {
            EventKind::MineSlice { node } if self.down[node] => {
                (node, NodeAction::Skip { mine: true })
            }
            EventKind::MineSlice { node } => {
                let attempts = self.config.attempts_for(node);
                (node, NodeAction::Mine { attempts })
            }
            EventKind::Deliver { to, .. } if self.down[to] => {
                // In-flight messages sent before the crash arrive at a
                // dead socket.
                self.messages_lost_to_crashes += 1;
                (to, NodeAction::Skip { mine: false })
            }
            EventKind::Deliver { to, from, message } => (to, NodeAction::Deliver { from, message }),
            EventKind::Timeout { node, .. } if self.down[node] => {
                (node, NodeAction::Skip { mine: false })
            }
            EventKind::Timeout { node, token } => (node, NodeAction::Timeout { token }),
            _ => unreachable!("barriers never reach a node's handlers"),
        };
        NodeEvent {
            seq: event.seq,
            node,
            action,
        }
    }

    /// Runs one node event's handler and captures its outcome. Touches
    /// nothing but `node` — the property that makes lanes safe to run
    /// concurrently.
    fn execute(now: u64, node: &mut Node<P>, event: NodeEvent) -> EventOutcome {
        let before = node.stats().blocks_accepted;
        let (outgoing, mine, relayer) = match event.action {
            NodeAction::Mine { attempts } => (node.mine_slice(now, attempts), true, None),
            NodeAction::Deliver { from, message } => {
                (node.handle(now, from, message), false, Some(from))
            }
            NodeAction::Timeout { token } => (node.on_timer(token), false, None),
            NodeAction::Skip { mine } => (Vec::new(), mine, None),
        };
        EventOutcome {
            seq: event.seq,
            node: event.node,
            outgoing,
            tip: node.tip(),
            relayer,
            useful: node.stats().blocks_accepted > before,
            mine,
        }
    }

    /// Executes the node events queued since the last barrier, one lane
    /// per node spread over [`SimConfig::threads`] workers, then merges
    /// every outcome strictly in `seq` order.
    fn run_lanes(&mut self, pending: &mut Vec<NodeEvent>) {
        if pending.is_empty() {
            return;
        }
        let mut slots: Vec<Vec<NodeEvent>> = (0..self.config.nodes).map(|_| Vec::new()).collect();
        for event in pending.drain(..) {
            slots[event.node].push(event);
        }
        type Lane<'n, P> = (&'n mut Node<P>, Vec<NodeEvent>, Vec<EventOutcome>);
        let mut lanes: Vec<Lane<'_, P>> = self
            .nodes
            .iter_mut()
            .zip(slots)
            .filter(|(_, events)| !events.is_empty())
            .map(|(node, events)| (node, events, Vec::new()))
            .collect();
        let now = self.now;
        let run = move |piece: &mut [Lane<'_, P>]| {
            for (node, events, outcomes) in piece {
                outcomes.extend(
                    events
                        .drain(..)
                        .map(|event| Self::execute(now, node, event)),
                );
            }
        };
        // Disjoint `&mut Node` handles, chunked evenly — the same shape
        // as `validate_segment_parallel`. This thread runs the first
        // chunk, so a single lane spawns nothing.
        let chunk = lanes.len().div_ceil(self.config.threads);
        std::thread::scope(|scope| {
            let mut pieces = lanes.chunks_mut(chunk);
            let first = pieces.next().expect("a non-empty run has a lane");
            for piece in pieces {
                scope.spawn(move || run(piece));
            }
            run(first);
        });
        let mut outcomes: Vec<EventOutcome> = lanes
            .into_iter()
            .flat_map(|(_, _, outcomes)| outcomes)
            .collect();
        outcomes.sort_unstable_by_key(|outcome| outcome.seq);
        for outcome in outcomes {
            self.merge(outcome);
        }
    }

    /// Replays one node event's outcome: the eclipse connection attempt,
    /// the scoring credit, the sends, the slice clock and the convergence
    /// check. All RNG draws and global-state writes of node events happen
    /// here, in `seq` order, whichever thread ran the handler.
    fn merge(&mut self, outcome: EventOutcome) {
        let EventOutcome {
            node,
            outgoing,
            tip,
            relayer,
            useful,
            mine,
            ..
        } = outcome;
        if mine && !self.down[node] {
            // Eclipse pressure: a sybil's mining slice is one connection
            // attempt against its victim's peer table.
            if let (Some(victim), Some(overlay)) =
                (self.nodes[node].eclipse_target(), self.overlay.as_mut())
            {
                self.connect_attempts += 1;
                overlay.connect(node, victim, false);
            }
        }
        if useful {
            // The relayer of an accepted block earns usefulness credit —
            // the signal that keeps honest links scored above freshly
            // connected sybils.
            if let (Some(from), Some(overlay)) = (relayer, self.overlay.as_mut()) {
                overlay.credit(node, from);
            }
        }
        self.dispatch(node, outgoing);
        if mine {
            let next = self.now + self.config.slice_ms;
            if next <= self.config.duration_ms {
                self.schedule(next, EventKind::MineSlice { node });
            }
        }
        // Convergence is a function of the cached tips, so only an event
        // that moved its node's tip can change it.
        if self.tips[node] != tip {
            self.tips[node] = tip;
            self.update_convergence();
        }
    }

    fn report(&self) -> SimReport {
        let mut reorg_depths: Vec<usize> = self
            .nodes
            .iter()
            .flat_map(|n| n.stats().reorg_depths.iter().copied())
            .collect();
        reorg_depths.sort_unstable_by(|a, b| b.cmp(a));
        let first_honest = &self.nodes[self.honest[0]];
        let tip = first_honest.tip();
        let converged =
            tip != [0u8; 32] && self.honest.iter().all(|&id| self.nodes[id].tip() == tip);
        // Audit every honest fork tree against the spam lists.
        let spam_digests: Vec<Digest256> = self
            .nodes
            .iter()
            .flat_map(|n| n.stats().spam_digests.iter().copied())
            .collect();
        let spam_accepted: u64 = self
            .honest
            .iter()
            .map(|&id| {
                spam_digests
                    .iter()
                    .filter(|d| self.nodes[id].tree().contains(d))
                    .count() as u64
            })
            .sum();
        let honest_tip_safety_margin = self
            .honest
            .iter()
            .map(|&id| {
                let node = &self.nodes[id];
                node.tip_height()
                    .saturating_sub(node.tree().max_side_branch_height())
            })
            .min()
            .unwrap_or(0);
        let mut counters = NodeCounters::default();
        let mut light = NodeCounters::default();
        let mut light_nodes = 0;
        let mut light_converged = true;
        for node in &self.nodes {
            counters += node.stats().counters;
            if node.role() == Role::Light {
                light += node.stats().counters;
                light_nodes += 1;
                light_converged &= tip != [0u8; 32] && node.tip() == tip;
            }
        }
        // The per-block verification bill of the honest canonical chain:
        // walk the first honest node's best branch tip-to-root over the
        // cached cost observations (pure header facts, so every honest
        // node agrees on the figure once converged).
        let tip_mean_cost_ratio = {
            let tree = first_honest.tree();
            let mut digest = tree.tip();
            let mut sum = 0.0;
            let mut count = 0u64;
            while digest != GENESIS_HASH {
                let Some(block) = tree.block(&digest) else {
                    break;
                };
                sum += tree.cost_ratio_of(&digest);
                count += 1;
                digest = block.header.prev_hash;
            }
            if count > 0 {
                sum / count as f64
            } else {
                1.0
            }
        };
        SimReport {
            nodes: self.config.nodes,
            seed: self.config.seed,
            duration_ms: self.config.duration_ms,
            converged,
            convergence_ms: self.converged_at,
            tip,
            tip_height: first_honest.tip_height(),
            max_reorg_depth: reorg_depths.first().copied().unwrap_or(0),
            reorg_depths,
            messages_sent: self.messages_sent,
            messages_dropped: self.messages_dropped,
            sync_wall_seconds: self.nodes.iter().map(|n| n.stats().sync_wall_seconds).sum(),
            spam_accepted,
            honest_tip_safety_margin,
            messages_lost_to_crashes: self.messages_lost_to_crashes,
            events_processed: self.events_processed,
            connect_attempts: self.connect_attempts,
            peer_evictions: self.overlay.as_ref().map_or(0, Overlay::evictions),
            anchor_rotations: self.overlay.as_ref().map_or(0, Overlay::rotations),
            light_nodes,
            light_converged,
            tip_mean_cost_ratio,
            run_wall_seconds: self.run_wall_seconds,
            counters,
            light,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{
        SegmentSpam, SegmentStalling, SelfishMining, Silent, StallMode, Strategy,
    };
    use hashcore_baselines::Sha256dPow;

    fn quick_config() -> SimConfig {
        SimConfig {
            nodes: 4,
            seed: 42,
            difficulty_bits: 8,
            attempts_per_slice: 32,
            slice_ms: 100,
            duration_ms: 20_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn a_quiet_network_converges_on_one_chain() {
        let mut sim = Simulation::new(quick_config(), |_| Sha256dPow);
        let report = sim.run();
        assert!(report.converged, "{}", report.fingerprint());
        assert!(report.blocks_mined > 0);
        assert!(report.tip_height > 0);
        assert!(report.convergence_ms.is_some());
        // Every node's best chain revalidates.
        for node in sim.nodes() {
            node.tree().validate_best_chain().expect("honest chain");
        }
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let a = Simulation::new(quick_config(), |_| Sha256dPow).run();
        let b = Simulation::new(quick_config(), |_| Sha256dPow).run();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint_extended(), b.fingerprint_extended());
        let c = Simulation::new(
            SimConfig {
                seed: 43,
                ..quick_config()
            },
            |_| Sha256dPow,
        )
        .run();
        assert!(c.converged);
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "different seed, different race"
        );
    }

    /// The Strategy-refactor regression gate: an all-honest simulation must
    /// keep producing exactly the fingerprint the pre-strategy node code
    /// produced. The literal below was captured from the honest-only
    /// implementation; if this test fails, the honest code path changed
    /// behaviour, not just shape.
    #[test]
    fn honest_fingerprint_is_byte_identical_to_the_pre_strategy_node() {
        let report = Simulation::new(
            SimConfig {
                nodes: 4,
                seed: 0xfee1_600d,
                difficulty_bits: 8,
                attempts_per_slice: 32,
                slice_ms: 100,
                duration_ms: 15_000,
                partitions: vec![Partition {
                    start_ms: 4_000,
                    end_ms: 9_000,
                    split: 2,
                }],
                ..SimConfig::default()
            },
            |_| Sha256dPow,
        )
        .run();
        assert_eq!(
            report.fingerprint(),
            "nodes=4 seed=4276183053 duration=15000 converged=true \
             convergence=Some(14883) \
             tip=00619b00757512f1d17fb4741258d7829a415f0eff630530b58d0f8f785ed7d1 \
             height=56 mined=80 \
             reorgs=[11, 11, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] \
             max_reorg=11 segments=4 segment_blocks=68 sent=543 dropped=93"
        );
    }

    #[test]
    fn a_partition_forces_a_reorg_and_heals() {
        let config = SimConfig {
            nodes: 5,
            seed: 7,
            difficulty_bits: 9,
            attempts_per_slice: 64,
            slice_ms: 100,
            duration_ms: 40_000,
            partitions: vec![Partition {
                start_ms: 5_000,
                end_ms: 25_000,
                split: 2,
            }],
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config, |_| Sha256dPow);
        let report = sim.run();
        assert!(report.converged, "{}", report.fingerprint());
        assert!(report.messages_dropped > 0, "the partition must bite");
        assert!(
            report.max_reorg_depth >= 1,
            "healing must reorganise the losing side: {}",
            report.fingerprint()
        );
        assert!(report.segments_synced >= 1, "{}", report.fingerprint());
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_partitions_are_rejected() {
        let _ = Simulation::new(
            SimConfig {
                partitions: vec![
                    Partition {
                        start_ms: 1_000,
                        end_ms: 5_000,
                        split: 2,
                    },
                    Partition {
                        start_ms: 3_000,
                        end_ms: 10_000,
                        split: 3,
                    },
                ],
                ..SimConfig::default()
            },
            |_| Sha256dPow,
        );
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_networks_are_rejected() {
        let _ = Simulation::new(
            SimConfig {
                nodes: 1,
                ..SimConfig::default()
            },
            |_| Sha256dPow,
        );
    }

    /// RNG isolation: replacing a [`Silent`] node with a spammer must not
    /// change honest traffic at all — the honest fingerprint (tip, reorg
    /// distribution, convergence time) is identical; only the adversary
    /// counters differ.
    #[test]
    fn spam_does_not_perturb_honest_traffic() {
        let config = SimConfig {
            request_timeout_ms: Some(2_000),
            ..quick_config()
        };
        let baseline = Simulation::with_strategies(
            config.clone(),
            |_| Sha256dPow,
            |id| {
                if id == 0 {
                    Box::new(Silent)
                } else {
                    Box::new(Honest)
                }
            },
        )
        .run();
        let spammed = Simulation::with_strategies(
            config,
            |_| Sha256dPow,
            |id| {
                if id == 0 {
                    Box::new(SegmentSpam::default())
                } else {
                    Box::new(Honest)
                }
            },
        )
        .run();
        assert_eq!(baseline.tip, spammed.tip);
        assert_eq!(baseline.tip_height, spammed.tip_height);
        assert_eq!(baseline.convergence_ms, spammed.convergence_ms);
        assert_eq!(baseline.reorg_depths, spammed.reorg_depths);
        assert_eq!(
            spammed.fingerprint_extended(),
            "nodes=4 seed=42 duration=20000 converged=true convergence=Some(19999) \
             tip=00aa0e320d1f08ac168ebb0aef1116d4ad09611ec01ea55f9a45b8de08928edd height=73 \
             mined=83 reorgs=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] \
             max_reorg=1 segments=0 segment_blocks=0 sent=975 dropped=0 spam_sent=197 \
             spam_accepted=0 fake_orphans=0 rejections=RejectionCounts { merkle: 0, pow: 0, \
             target_policy: 0, timestamp: 0, unsolicited_segment: 9, invalid_segment: 0, \
             from_banned: 381, invalid_proof: 0, unsolicited_proof: 0 } stalls=0 retried=0 \
             abandoned=0 banned=3 withheld=0 released=0 abandoned_private=0 pruned=0 \
             safety_margin=6 crashes=0 recovered_identical=0 replayed=0 lost_bytes=0 \
             crash_dropped=0 events=1775 connects=0 evictions=0 rotations=0 lights=0 \
             light_converged=true bytes=264442 light_bytes=0 headers_served=0 \
             headers_accepted=0 proofs_served=0 proofs_verified=0 proof_retries=0 \
             proofs_withheld=0 fake_proofs=0 quota_refusals=0 verify_ops=0 tx_proved=0 \
             seeds_discarded=0 seeds_inadmissible=0 tip_cost=1.2723"
        );
        assert!(spammed.spam_segments_sent > 0, "the spammer must spam");
        assert_eq!(spammed.spam_accepted, 0, "no spam in any honest tree");
        assert!(spammed.rejections.unsolicited_segment > 0);
    }

    /// A stalling adversary cannot stop convergence: honest peers time
    /// out, exclude it, and sync from each other. Node 1 is asked for
    /// segments in this configuration, so every mode trips the timeout and
    /// re-request path the test is named for.
    #[test]
    fn stalling_is_survived_through_timeouts_and_rerequests() {
        for (mode, pinned) in [
            (
                StallMode::Ignore,
                "nodes=5 seed=99 duration=40000 converged=true convergence=Some(40063) \
                 tip=0014d8e4d28580d4cd91019a819c3dc9c63f8547ab92253711660eb77f65a6c9 \
                 height=167 mined=248 reorgs=[38, 37, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1] max_reorg=38 segments=7 segment_blocks=380 sent=2167 dropped=393 \
                 spam_sent=0 spam_accepted=0 fake_orphans=0 rejections=RejectionCounts { \
                 merkle: 0, pow: 0, target_policy: 0, timestamp: 0, unsolicited_segment: 0, \
                 invalid_segment: 0, from_banned: 0, invalid_proof: 0, unsolicited_proof: 0 } \
                 stalls=4 retried=4 abandoned=0 banned=0 withheld=0 released=0 \
                 abandoned_private=0 pruned=0 safety_margin=10 crashes=0 \
                 recovered_identical=0 replayed=0 lost_bytes=0 crash_dropped=0 events=4180 \
                 connects=0 evictions=0 rotations=0 lights=0 light_converged=true \
                 bytes=388149 light_bytes=0 headers_served=0 headers_accepted=0 \
                 proofs_served=0 proofs_verified=0 proof_retries=0 proofs_withheld=0 \
                 fake_proofs=0 quota_refusals=0 verify_ops=0 tx_proved=0 seeds_discarded=0 \
                 seeds_inadmissible=0 tip_cost=1.4749",
            ),
            (
                StallMode::Prefix(1),
                "nodes=5 seed=99 duration=40000 converged=true convergence=Some(39886) \
                 tip=005a648fdf24fc68c6ec54152a6186dd395b5520211043b7ba2be193752d8ba0 \
                 height=179 mined=260 reorgs=[38, 37, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1, 1, 1, 1, 1, 1] max_reorg=38 segments=7 segment_blocks=380 sent=2315 \
                 dropped=393 spam_sent=0 spam_accepted=0 fake_orphans=0 \
                 rejections=RejectionCounts { merkle: 0, pow: 0, target_policy: 0, timestamp: \
                 0, unsolicited_segment: 0, invalid_segment: 0, from_banned: 0, \
                 invalid_proof: 0, unsolicited_proof: 0 } stalls=4 retried=4 abandoned=0 \
                 banned=0 withheld=0 released=0 abandoned_private=0 pruned=0 safety_margin=5 \
                 crashes=0 recovered_identical=0 replayed=0 lost_bytes=0 crash_dropped=0 \
                 events=4328 connects=0 evictions=0 rotations=0 lights=0 light_converged=true \
                 bytes=410797 light_bytes=0 headers_served=0 headers_accepted=0 \
                 proofs_served=0 proofs_verified=0 proof_retries=0 proofs_withheld=0 \
                 fake_proofs=0 quota_refusals=0 verify_ops=0 tx_proved=0 seeds_discarded=0 \
                 seeds_inadmissible=0 tip_cost=1.4389",
            ),
            (
                StallMode::Delay(30_000),
                "nodes=5 seed=99 duration=40000 converged=true convergence=Some(39886) \
                 tip=005a648fdf24fc68c6ec54152a6186dd395b5520211043b7ba2be193752d8ba0 \
                 height=179 mined=260 reorgs=[38, 37, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
                 1, 1, 1, 1, 1, 1] max_reorg=38 segments=7 segment_blocks=380 sent=2315 \
                 dropped=393 spam_sent=0 spam_accepted=0 fake_orphans=0 \
                 rejections=RejectionCounts { merkle: 0, pow: 0, target_policy: 0, timestamp: \
                 0, unsolicited_segment: 0, invalid_segment: 0, from_banned: 0, \
                 invalid_proof: 0, unsolicited_proof: 0 } stalls=4 retried=4 abandoned=0 \
                 banned=0 withheld=0 released=0 abandoned_private=0 pruned=0 safety_margin=5 \
                 crashes=0 recovered_identical=0 replayed=0 lost_bytes=0 crash_dropped=0 \
                 events=4328 connects=0 evictions=0 rotations=0 lights=0 light_converged=true \
                 bytes=441803 light_bytes=0 headers_served=0 headers_accepted=0 \
                 proofs_served=0 proofs_verified=0 proof_retries=0 proofs_withheld=0 \
                 fake_proofs=0 quota_refusals=0 verify_ops=0 tx_proved=0 seeds_discarded=0 \
                 seeds_inadmissible=0 tip_cost=1.4389",
            ),
        ] {
            let config = SimConfig {
                nodes: 5,
                seed: 99,
                difficulty_bits: 9,
                attempts_per_slice: 64,
                duration_ms: 40_000,
                request_timeout_ms: Some(1_500),
                partitions: vec![Partition {
                    start_ms: 5_000,
                    end_ms: 20_000,
                    split: 2,
                }],
                ..SimConfig::default()
            };
            let mut sim = Simulation::with_strategies(
                config,
                |_| Sha256dPow,
                move |id| {
                    if id == 1 {
                        Box::new(SegmentStalling { mode })
                    } else {
                        Box::new(Honest)
                    }
                },
            );
            let report = sim.run();
            assert_eq!(report.fingerprint_extended(), pinned, "{mode:?}");
            assert!(
                report.converged,
                "honest nodes must converge despite {mode:?}: {}",
                report.fingerprint_extended()
            );
            assert!(
                report.stalls_detected > 0 && report.requests_retried > 0,
                "{mode:?} must trip a timeout and a re-request: {}",
                report.fingerprint_extended()
            );
            for node in sim.nodes() {
                node.tree().validate_best_chain().expect("valid chain");
            }
        }
    }

    /// An adaptive-difficulty network still converges, still replays
    /// byte-identically from its seed, and actually moves difficulty: the
    /// final chain embeds more than one distinct target.
    #[test]
    fn adaptive_difficulty_runs_converge_and_replay_identically() {
        let config = SimConfig {
            nodes: 4,
            seed: 77,
            difficulty_bits: 9,
            attempts_per_slice: 32,
            slice_ms: 100,
            duration_ms: 30_000,
            retarget: Some(RetargetConfig {
                target_block_time_ms: 1_000.0,
                gain: 0.5,
            }),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config.clone(), |_| Sha256dPow);
        let a = sim.run();
        let b = Simulation::new(config, |_| Sha256dPow).run();
        assert_eq!(a.fingerprint_extended(), b.fingerprint_extended());
        assert!(a.converged, "{}", a.fingerprint());
        assert!(a.tip_height > 0);
        let chain = sim.nodes()[0].tree().best_chain();
        let distinct_targets: std::collections::HashSet<[u8; 32]> =
            chain.iter().map(|block| block.header.target).collect();
        assert!(
            distinct_targets.len() > 1,
            "difficulty must actually retarget along the chain"
        );
        for node in sim.nodes() {
            node.tree().validate_best_chain().expect("adaptive chain");
        }
    }

    /// With the timestamp rule enforced, a skewing miner's future-dated
    /// blocks are rejected at every honest edge; the honest network still
    /// converges and the rejections land in the new class.
    #[test]
    fn timestamp_skew_is_neutralised_by_the_validity_rule() {
        let config = SimConfig {
            nodes: 5,
            seed: 31,
            difficulty_bits: 9,
            attempts_per_slice: 32,
            slice_ms: 100,
            duration_ms: 30_000,
            retarget: Some(RetargetConfig {
                target_block_time_ms: 1_000.0,
                gain: 0.5,
            }),
            timestamp_rule: Some(crate::node::TimestampRule {
                max_future_drift_ms: 4_000,
                mtp_window: 11,
            }),
            ban_threshold: 0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::with_strategies(
            config,
            |_| Sha256dPow,
            |id| {
                if id == 0 {
                    Box::new(crate::strategy::TimestampSkew { skew_ms: 20_000 })
                } else {
                    Box::new(Honest)
                }
            },
        );
        let report = sim.run();
        assert_eq!(
            report.fingerprint_extended(),
            "nodes=5 seed=31 duration=30000 converged=true convergence=Some(24270) \
             tip=0032568c61b2eb8dc02b4a7dc70d0b8e941054333de38fa6880de021b5032468 height=11 \
             mined=201 reorgs=[105, 27, 7, 1, 1] max_reorg=105 segments=0 segment_blocks=0 \
             sent=892 dropped=0 spam_sent=0 spam_accepted=0 fake_orphans=0 \
             rejections=RejectionCounts { merkle: 0, pow: 0, target_policy: 0, timestamp: \
             760, unsolicited_segment: 0, invalid_segment: 0, from_banned: 0, invalid_proof: \
             0, unsolicited_proof: 0 } stalls=0 retried=0 abandoned=0 banned=0 withheld=0 \
             released=0 abandoned_private=0 pruned=0 safety_margin=11 crashes=0 \
             recovered_identical=0 replayed=0 lost_bytes=0 crash_dropped=0 events=2392 \
             connects=0 evictions=0 rotations=0 lights=0 light_converged=true bytes=135124 \
             light_bytes=0 headers_served=0 headers_accepted=0 proofs_served=0 \
             proofs_verified=0 proof_retries=0 proofs_withheld=0 fake_proofs=0 \
             quota_refusals=0 verify_ops=0 tx_proved=0 seeds_discarded=0 seeds_inadmissible=0 \
             tip_cost=1.2287"
        );
        assert!(report.converged, "{}", report.fingerprint_extended());
        assert!(
            report.rejections.timestamp > 0,
            "skewed headers must be rejected: {}",
            report.fingerprint_extended()
        );
        // No honest chain carries a timestamp past the drift bound at the
        // time it could have been mined (the horizon of the whole run).
        for node in sim.nodes().iter().filter(|n| !n.is_adversarial()) {
            for block in node.tree().best_chain() {
                assert!(
                    block.header.timestamp <= report.duration_ms + 4_000,
                    "honest chains stay drift-bounded"
                );
            }
        }
    }

    /// Selfish mining with majority-ish hash power ends up owning more of
    /// the final chain than its fair share, and the accounting fields
    /// observe the withhold/release cycle.
    #[test]
    fn selfish_mining_withholds_and_releases_deterministically() {
        let config = SimConfig {
            nodes: 4,
            seed: 1234,
            difficulty_bits: 8,
            attempts_per_slice: 32,
            // Node 0 holds ~45% of total hash power.
            node_attempts: vec![(0, 80)],
            duration_ms: 30_000,
            ..SimConfig::default()
        };
        let run = |cfg: SimConfig| {
            Simulation::with_strategies(
                cfg,
                |_| Sha256dPow,
                |id| {
                    if id == 0 {
                        Box::new(SelfishMining)
                    } else {
                        Box::new(Honest)
                    }
                },
            )
            .run()
        };
        let a = run(config.clone());
        let b = run(config);
        assert_eq!(a.fingerprint_extended(), b.fingerprint_extended());
        assert_eq!(
            a.fingerprint_extended(),
            "nodes=4 seed=1234 duration=30000 converged=true convergence=Some(29349) \
             tip=0007d83ed0da33b46b8e17007a3ef129ceebffbbbaf1d28f9816bec289122331 height=91 \
             mined=181 reorgs=[5, 5, 5, 5, 5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3, 3, \
             3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, \
             2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1] max_reorg=5 segments=5 segment_blocks=10 sent=1553 \
             dropped=0 spam_sent=0 spam_accepted=0 fake_orphans=0 rejections=RejectionCounts \
             { merkle: 0, pow: 0, target_policy: 0, timestamp: 0, unsolicited_segment: 0, \
             invalid_segment: 0, from_banned: 0, invalid_proof: 0, unsolicited_proof: 0 } \
             stalls=0 retried=0 abandoned=0 banned=0 withheld=84 released=74 \
             abandoned_private=6 pruned=0 safety_margin=0 crashes=0 recovered_identical=0 \
             replayed=0 lost_bytes=0 crash_dropped=0 events=2753 connects=0 evictions=0 \
             rotations=0 lights=0 light_converged=true bytes=237354 light_bytes=0 \
             headers_served=0 headers_accepted=0 proofs_served=0 proofs_verified=0 \
             proof_retries=0 proofs_withheld=0 fake_proofs=0 quota_refusals=0 verify_ops=0 \
             tx_proved=0 seeds_discarded=0 seeds_inadmissible=0 tip_cost=1.0929"
        );
        assert!(a.blocks_withheld > 0, "{}", a.fingerprint_extended());
        assert!(
            a.blocks_released > 0 || a.withheld_abandoned > 0,
            "withheld blocks must eventually be released or abandoned: {}",
            a.fingerprint_extended()
        );
        assert!(a.converged, "honest nodes still converge");
    }

    /// A persistence run builds each node's store under its own scratch
    /// directory (each run needs a fresh one: `ChainStore::create` refuses
    /// a directory that already holds store files).
    fn persistent_run(
        dir: &hashcore_store::TempDir,
        crashes: Vec<CrashRestart>,
        snapshot_interval: u64,
    ) -> SimReport {
        let config = SimConfig {
            persistence: Some(PersistenceConfig {
                dir: dir.path().to_path_buf(),
                snapshot_interval,
                sync_appends: false,
            }),
            crashes,
            ..quick_config()
        };
        Simulation::new(config, |_| Sha256dPow).run()
    }

    #[test]
    fn a_crashed_node_recovers_from_disk_and_reconverges() {
        let run = |label: &str| {
            let dir = hashcore_store::TempDir::new(label).unwrap();
            persistent_run(
                &dir,
                vec![CrashRestart {
                    node: 1,
                    at_ms: 6_000,
                    down_ms: 4_000,
                    torn_tail_bytes: 0,
                }],
                4,
            )
        };
        let a = run("sim-crash-a");
        assert!(a.converged, "{}", a.fingerprint_extended());
        assert_eq!(a.crash_restarts, 1);
        assert_eq!(
            a.recoveries_identical,
            1,
            "a clean crash restores the exact pre-crash tree: {}",
            a.fingerprint_extended()
        );
        assert!(
            a.messages_lost_to_crashes > 0,
            "a down node drops its traffic"
        );
        // The whole crash/recovery cycle is deterministic.
        let b = run("sim-crash-b");
        assert_eq!(a.fingerprint_extended(), b.fingerprint_extended());
        assert_eq!(
            a.fingerprint_extended(),
            "nodes=4 seed=42 duration=20000 converged=true convergence=Some(19981) \
             tip=003ce102c6202c148d8ee568c020c21236b840ce74d20cf574313bb06dbc74c5 height=67 \
             mined=88 reorgs=[2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] max_reorg=2 segments=1 \
             segment_blocks=9 sent=756 dropped=0 spam_sent=0 spam_accepted=0 fake_orphans=0 \
             rejections=RejectionCounts { merkle: 0, pow: 0, target_policy: 0, timestamp: 0, \
             unsolicited_segment: 0, invalid_segment: 0, from_banned: 0, invalid_proof: 0, \
             unsolicited_proof: 0 } stalls=0 retried=0 abandoned=0 banned=0 withheld=0 \
             released=0 abandoned_private=0 pruned=0 safety_margin=1 crashes=1 \
             recovered_identical=1 replayed=1 lost_bytes=0 crash_dropped=21 events=1558 \
             connects=0 evictions=0 rotations=0 lights=0 light_converged=true bytes=115898 \
             light_bytes=0 headers_served=0 headers_accepted=0 proofs_served=0 \
             proofs_verified=0 proof_retries=0 proofs_withheld=0 fake_proofs=0 \
             quota_refusals=0 verify_ops=0 tx_proved=0 seeds_discarded=0 seeds_inadmissible=0 \
             tip_cost=1.3142"
        );
    }

    #[test]
    fn a_torn_tail_is_truncated_and_segment_sync_heals_the_gap() {
        let dir = hashcore_store::TempDir::new("sim-torn").unwrap();
        let report = persistent_run(
            &dir,
            vec![CrashRestart {
                node: 2,
                at_ms: 8_000,
                down_ms: 3_000,
                torn_tail_bytes: 7,
            }],
            0,
        );
        assert_eq!(
            report.fingerprint_extended(),
            "nodes=4 seed=42 duration=20000 converged=true convergence=Some(19763) \
             tip=007e18aed68258e98bf64416bd130f80523bf122d3e3cb747b4e335894b2133d height=72 \
             mined=89 reorgs=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1] max_reorg=1 segments=2 segment_blocks=21 sent=769 \
             dropped=0 spam_sent=0 spam_accepted=0 fake_orphans=0 rejections=RejectionCounts \
             { merkle: 0, pow: 0, target_policy: 0, timestamp: 0, unsolicited_segment: 0, \
             invalid_segment: 0, from_banned: 0, invalid_proof: 0, unsolicited_proof: 0 } \
             stalls=0 retried=0 abandoned=0 banned=0 withheld=0 released=0 \
             abandoned_private=0 pruned=0 safety_margin=0 crashes=1 recovered_identical=0 \
             replayed=30 lost_bytes=151 crash_dropped=21 events=1571 connects=0 evictions=0 \
             rotations=0 lights=0 light_converged=true bytes=119622 light_bytes=0 \
             headers_served=0 headers_accepted=0 proofs_served=0 proofs_verified=0 \
             proof_retries=0 proofs_withheld=0 fake_proofs=0 quota_refusals=0 verify_ops=0 \
             tx_proved=0 seeds_discarded=0 seeds_inadmissible=0 tip_cost=1.3574"
        );
        assert_eq!(report.crash_restarts, 1);
        assert!(
            report.recovery_lost_bytes > 0,
            "the sheared tail must be detected and truncated: {}",
            report.fingerprint_extended()
        );
        assert!(
            report.converged,
            "the restarted node catches back up over segment sync: {}",
            report.fingerprint_extended()
        );
    }

    #[test]
    fn persistence_without_crashes_leaves_the_race_untouched() {
        let dir = hashcore_store::TempDir::new("sim-quiet").unwrap();
        let persisted = persistent_run(&dir, Vec::new(), 8);
        let volatile = Simulation::new(quick_config(), |_| Sha256dPow).run();
        assert_eq!(persisted.fingerprint(), volatile.fingerprint());
    }

    /// N threads replay the 1-thread run byte for byte. One thread merges
    /// each outcome before the next handler runs, N threads merge whole
    /// lanes afterwards, so each case below drives branches of both
    /// paths: a partition, a topology, a crash-restart (a down node's
    /// slices, deliveries and timers), light clients, and a stalling
    /// adversary whose delayed segments trip request timeouts.
    #[test]
    fn thread_count_never_changes_the_fingerprint() {
        type Strategies = fn(usize) -> Box<dyn Strategy>;
        let honest: Strategies = |_| Box::new(Honest);
        let stalling: Strategies = |id| {
            if id == 0 {
                Box::new(SegmentStalling {
                    mode: StallMode::Delay(30_000),
                })
            } else {
                Box::new(Honest)
            }
        };
        // The crash lands 50 ms after the heal, while tip announcements
        // are still in flight to node 1 and before the timers of its sync
        // requests fire.
        let crash = SimConfig {
            persistence: Some(PersistenceConfig {
                dir: PathBuf::new(),
                snapshot_interval: 4,
                sync_appends: false,
            }),
            crashes: vec![CrashRestart {
                node: 1,
                at_ms: 5_050,
                down_ms: 4_000,
                torn_tail_bytes: 0,
            }],
            partitions: vec![Partition {
                start_ms: 2_000,
                end_ms: 5_000,
                split: 2,
            }],
            request_timeout_ms: Some(1_500),
            ..quick_config()
        };
        let light = SimConfig {
            nodes: 7,
            light: Some(LightSimConfig {
                first_light: 3,
                request_timeout_ms: 1_000,
                proof_indices: vec![0],
                proof_quota: 0,
                body_bytes: 512,
            }),
            ..quick_config()
        };
        // With this seed, peers ask the stalling node 0 for segments
        // after the heal, and its delayed answers come too late.
        let stall = SimConfig {
            nodes: 5,
            seed: 5,
            request_timeout_ms: Some(1_500),
            partitions: vec![Partition {
                start_ms: 7_000,
                end_ms: 14_000,
                split: 2,
            }],
            ..quick_config()
        };
        // Each case: a config, its strategies, and a check that the run
        // reached the branches the case is there for.
        type Reached = fn(&SimReport) -> bool;
        let cases: [(SimConfig, Strategies, Reached); 5] = [
            (
                SimConfig {
                    partitions: vec![Partition {
                        start_ms: 4_000,
                        end_ms: 9_000,
                        split: 2,
                    }],
                    ..quick_config()
                },
                honest,
                |report| report.messages_dropped > 0,
            ),
            (
                SimConfig {
                    nodes: 8,
                    topology: Some(TopologyConfig::defended()),
                    request_timeout_ms: Some(1_500),
                    ..quick_config()
                },
                honest,
                |report| report.anchor_rotations > 0,
            ),
            (crash, honest, |report| report.messages_lost_to_crashes > 0),
            (light, honest, |report| report.proofs_verified > 0),
            (stall, stalling, |report| report.stalls_detected > 0),
        ];
        for (config, strategies, reached) in cases {
            // Each persistence run needs a store directory of its own.
            let run = |threads: usize| {
                let dir = hashcore_store::TempDir::new("sim-threads").unwrap();
                let mut config = SimConfig {
                    threads,
                    ..config.clone()
                };
                if let Some(persistence) = &mut config.persistence {
                    persistence.dir = dir.path().to_path_buf();
                }
                Simulation::with_strategies(config, |_| Sha256dPow, strategies).run()
            };
            let sequential = run(1);
            assert!(
                reached(&sequential),
                "{}",
                sequential.fingerprint_extended()
            );
            for threads in [2, 4, 7] {
                assert_eq!(
                    sequential.fingerprint_extended(),
                    run(threads).fingerprint_extended(),
                    "threads={threads} must replay the 1-thread run byte for byte"
                );
            }
        }
    }

    /// Bounded peer tables with scored gossip still converge, replay
    /// identically, and actually exercise the overlay machinery.
    #[test]
    fn a_topology_network_converges_and_replays_identically() {
        let config = SimConfig {
            nodes: 8,
            topology: Some(TopologyConfig::defended()),
            request_timeout_ms: Some(1_500),
            ..quick_config()
        };
        let a = Simulation::new(config.clone(), |_| Sha256dPow).run();
        let b = Simulation::new(config, |_| Sha256dPow).run();
        assert_eq!(a.fingerprint_extended(), b.fingerprint_extended());
        assert!(a.converged, "{}", a.fingerprint_extended());
        assert!(a.anchor_rotations > 0, "rotation must tick");
    }

    fn eclipse_config(topology: TopologyConfig) -> SimConfig {
        SimConfig {
            nodes: 12,
            seed: 2024,
            difficulty_bits: 8,
            attempts_per_slice: 32,
            slice_ms: 100,
            duration_ms: 20_000,
            // Fan-out covering the whole table makes honest relay
            // reliable, so any end-of-run disagreement is the eclipse
            // doing its work, not a last-block gossip miss.
            fan_out: 4,
            // Timeouts let honest nodes route around requests that died
            // on an evicted link; the victim's retries still drop — every
            // slot of its table holds a sybil.
            request_timeout_ms: Some(1_500),
            topology: Some(topology),
            ..SimConfig::default()
        }
    }

    /// Six sybils dialling every slice against a 4-slot undefended table
    /// (no scoring, no anchors, no rotation): the victim's honest links
    /// are evicted oldest-first and it mines on a stale tip while the
    /// remaining honest nodes converge without it.
    #[test]
    fn eclipse_isolates_a_victim_on_an_undefended_topology() {
        let sybils = 6..12;
        let mut sim = Simulation::with_strategies(
            eclipse_config(TopologyConfig {
                max_peers: 4,
                extra_links: 1,
                ..TopologyConfig::undefended()
            }),
            |_| Sha256dPow,
            |id| {
                if (6..12).contains(&id) {
                    Box::new(crate::strategy::Eclipse { victim: 0 })
                } else {
                    Box::new(Honest)
                }
            },
        );
        let report = sim.run();
        assert_eq!(
            report.fingerprint_extended(),
            "nodes=12 seed=2024 duration=20000 converged=false convergence=None \
             tip=00542495d4db13bc8f7164dae20faad462b3d1c8f3292b35f917807801ee41e3 height=16 \
             mined=137 reorgs=[11, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, \
             2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] max_reorg=11 segments=2 \
             segment_blocks=4 sent=2125 dropped=0 spam_sent=0 spam_accepted=0 fake_orphans=0 \
             rejections=RejectionCounts { merkle: 0, pow: 0, target_policy: 0, timestamp: 0, \
             unsolicited_segment: 0, invalid_segment: 0, from_banned: 0, invalid_proof: 0, \
             unsolicited_proof: 0 } stalls=0 retried=0 abandoned=0 banned=0 withheld=0 \
             released=0 abandoned_private=0 pruned=0 safety_margin=1 crashes=0 \
             recovered_identical=0 replayed=0 lost_bytes=0 crash_dropped=0 events=4527 \
             connects=1200 evictions=1201 rotations=0 lights=0 light_converged=true \
             bytes=322333 light_bytes=0 headers_served=0 headers_accepted=0 proofs_served=0 \
             proofs_verified=0 proof_retries=0 proofs_withheld=0 fake_proofs=0 \
             quota_refusals=0 verify_ops=0 tx_proved=0 seeds_discarded=0 seeds_inadmissible=0 \
             tip_cost=1.7339"
        );
        assert!(report.connect_attempts > 0, "sybils must dial");
        assert!(report.peer_evictions > 0, "pressure must evict");
        // The monopoly: every slot of the victim's table holds a sybil.
        let table = sim.peer_table(0);
        assert!(
            !table.is_empty() && table.iter().all(|peer| sybils.contains(peer)),
            "the victim's table must hold only sybils: {table:?}"
        );
        // The victim mines on its own stale chain while the other honest
        // nodes agree with each other.
        let honest_tip = sim.nodes()[1].tip();
        for id in 2..6 {
            assert_eq!(sim.nodes()[id].tip(), honest_tip, "non-victims agree");
        }
        assert_ne!(sim.nodes()[0].tip(), honest_tip, "the victim is eclipsed");
        assert!(!report.converged, "{}", report.fingerprint_extended());
    }

    /// The same attack against the defended overlay: scored honest links
    /// survive connection pressure, anchors are immune, and anchor
    /// rotation keeps re-establishing honest connectivity — the victim
    /// stays on the honest chain.
    #[test]
    fn scoring_anchors_and_rotation_defeat_the_eclipse() {
        let mut sim = Simulation::with_strategies(
            eclipse_config(TopologyConfig {
                max_peers: 4,
                anchors: 1,
                extra_links: 1,
                rotation_interval_ms: Some(2_000),
                credit: 16,
            }),
            |_| Sha256dPow,
            |id| {
                if (6..12).contains(&id) {
                    Box::new(crate::strategy::Eclipse { victim: 0 })
                } else {
                    Box::new(Honest)
                }
            },
        );
        let report = sim.run();
        assert_eq!(
            report.fingerprint_extended(),
            "nodes=12 seed=2024 duration=20000 converged=true convergence=Some(20003) \
             tip=00a3afe03b99e87304263c69dfd65988df46d980b69278f22c695d33b71dde2a height=95 \
             mined=153 reorgs=[9, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, \
             2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, \
             1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] max_reorg=9 segments=11 \
             segment_blocks=135 sent=3068 dropped=25 spam_sent=0 spam_accepted=0 \
             fake_orphans=0 rejections=RejectionCounts { merkle: 0, pow: 0, target_policy: 0, \
             timestamp: 0, unsolicited_segment: 0, invalid_segment: 0, from_banned: 0, \
             invalid_proof: 0, unsolicited_proof: 0 } stalls=14 retried=12 abandoned=2 \
             banned=0 withheld=0 released=0 abandoned_private=0 pruned=0 safety_margin=0 \
             crashes=0 recovered_identical=0 replayed=0 lost_bytes=0 crash_dropped=0 \
             events=5507 connects=1200 evictions=1200 rotations=60 lights=0 \
             light_converged=true bytes=486151 light_bytes=0 headers_served=0 \
             headers_accepted=0 proofs_served=0 proofs_verified=0 proof_retries=0 \
             proofs_withheld=0 fake_proofs=0 quota_refusals=0 verify_ops=0 tx_proved=0 \
             seeds_discarded=0 seeds_inadmissible=0 tip_cost=1.4339"
        );
        assert!(report.connect_attempts > 0, "sybils must dial");
        assert!(
            report.converged,
            "the defences must keep the victim on the honest chain: {}",
            report.fingerprint_extended()
        );
        assert!(report.anchor_rotations > 0, "rotation must tick");
    }

    /// A light-client population tracks the full nodes' tip through
    /// header-first sync alone, proving each tip's transactions with
    /// batched Merkle proofs — and pays for it in far fewer bytes than
    /// the body-gossip mesh moves.
    #[test]
    fn light_clients_track_the_full_tip_and_prove_it() {
        let mut config = quick_config();
        config.nodes = 7;
        config.light = Some(LightSimConfig {
            first_light: 3,
            request_timeout_ms: 1_000,
            proof_indices: vec![0],
            proof_quota: 0,
            body_bytes: 512,
        });
        let mut sim = Simulation::new(config, |_| Sha256dPow);
        let report = sim.run();
        assert!(
            report.light_converged,
            "light tips must equal the full tip: {}",
            report.fingerprint_extended()
        );
        assert_eq!(report.light_nodes, 4);
        assert!(report.headers_accepted > 0);
        assert!(
            report.proofs_verified > 0,
            "{}",
            report.fingerprint_extended()
        );
        assert!(report.tx_bytes_proved > 0);
        assert!(report.verify_hash_ops > 0);
        assert_eq!(report.rejections.invalid_proof, 0, "honest servers only");
        // Light nodes hold no bodies: segments never flow to them, and
        // their entire bandwidth bill is headers plus proof batches.
        let full_avg: f64 = sim.nodes()[..3]
            .iter()
            .map(|n| n.stats().bytes_received as f64)
            .sum::<f64>()
            / 3.0;
        assert!(
            report.bytes_per_light_peer() < full_avg,
            "a light peer must cost less than a full node: {} vs {full_avg}",
            report.bytes_per_light_peer()
        );
        // Every light node ends header-synced to the reported height.
        for node in &sim.nodes()[3..] {
            assert_eq!(node.tip_height(), report.tip_height);
        }
    }

    /// Two identical light runs — same config, same seed — produce
    /// byte-identical extended fingerprints: the light protocol draws no
    /// randomness and rotates servers deterministically.
    #[test]
    fn light_runs_are_deterministic() {
        let config = || {
            let mut config = quick_config();
            config.nodes = 6;
            config.light = Some(LightSimConfig {
                first_light: 2,
                request_timeout_ms: 1_000,
                proof_indices: vec![0],
                proof_quota: 0,
                body_bytes: 0,
            });
            config
        };
        let a = Simulation::new(config(), |_| Sha256dPow).run();
        let b = Simulation::new(config(), |_| Sha256dPow).run();
        assert_eq!(a.fingerprint_extended(), b.fingerprint_extended());
        assert!(a.light_converged);
    }

    /// A proof-serving adversary that fabricates batches: every fake is
    /// caught against the PoW-pinned header root — the run ends with
    /// `invalid_proof` rejections exactly equal to the fakes sent, and
    /// the light population converged regardless.
    #[test]
    fn fake_proofs_are_all_caught_and_lights_still_converge() {
        let mut config = quick_config();
        config.nodes = 8;
        config.light = Some(LightSimConfig {
            first_light: 3,
            request_timeout_ms: 1_000,
            proof_indices: vec![0],
            proof_quota: 0,
            body_bytes: 0,
        });
        let mut sim = Simulation::with_strategies(
            config,
            |_| Sha256dPow,
            |id| {
                if id == 2 {
                    Box::new(crate::strategy::FakeProof)
                } else {
                    Box::new(Honest)
                }
            },
        );
        let report = sim.run();
        assert_eq!(
            report.fingerprint_extended(),
            "nodes=8 seed=42 duration=20000 converged=true convergence=Some(19900) \
             tip=001d3892614ca9be5246b0d496761c3e3a84f4137cd98e31ba6a4a625b730b11 height=59 \
             mined=67 reorgs=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1] max_reorg=1 segments=0 \
             segment_blocks=0 sent=1299 dropped=0 spam_sent=0 spam_accepted=0 fake_orphans=0 \
             rejections=RejectionCounts { merkle: 0, pow: 0, target_policy: 0, timestamp: 0, \
             unsolicited_segment: 0, invalid_segment: 0, from_banned: 0, invalid_proof: 5, \
             unsolicited_proof: 0 } stalls=0 retried=0 abandoned=0 banned=0 withheld=0 \
             released=0 abandoned_private=0 pruned=0 safety_margin=0 crashes=0 \
             recovered_identical=0 replayed=0 lost_bytes=0 crash_dropped=0 events=2899 \
             connects=0 evictions=0 rotations=0 lights=5 light_converged=true bytes=128974 \
             light_bytes=83386 headers_served=2 headers_accepted=335 proofs_served=265 \
             proofs_verified=260 proof_retries=15 proofs_withheld=0 fake_proofs=5 \
             quota_refusals=0 verify_ops=1045 tx_proved=6861 seeds_discarded=0 \
             seeds_inadmissible=0 tip_cost=1.2868"
        );
        assert!(
            report.fake_proofs_sent > 0,
            "the faker must get asked at least once: {}",
            report.fingerprint_extended()
        );
        assert_eq!(
            report.rejections.invalid_proof,
            report.fake_proofs_sent,
            "every fake must be caught: {}",
            report.fingerprint_extended()
        );
        assert!(report.light_converged, "{}", report.fingerprint_extended());
        assert!(report.proofs_verified > 0);
        assert!(report.proof_retries >= report.fake_proofs_sent);
    }

    /// A withholding proof server never answers: requests time out,
    /// rotate to honest servers, and the population still proves its
    /// tips.
    #[test]
    fn withheld_proofs_time_out_and_rotate_to_honest_servers() {
        let mut config = quick_config();
        config.nodes = 8;
        config.light = Some(LightSimConfig {
            first_light: 3,
            request_timeout_ms: 1_000,
            proof_indices: vec![0],
            proof_quota: 0,
            body_bytes: 0,
        });
        let mut sim = Simulation::with_strategies(
            config,
            |_| Sha256dPow,
            |id| {
                if id == 2 {
                    Box::new(crate::strategy::ProofWithholding)
                } else {
                    Box::new(Honest)
                }
            },
        );
        let report = sim.run();
        assert_eq!(
            report.fingerprint_extended(),
            "nodes=8 seed=42 duration=20000 converged=true convergence=Some(19875) \
             tip=001d3892614ca9be5246b0d496761c3e3a84f4137cd98e31ba6a4a625b730b11 height=59 \
             mined=67 reorgs=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] max_reorg=1 \
             segments=0 segment_blocks=0 sent=1016 dropped=0 spam_sent=0 spam_accepted=0 \
             fake_orphans=0 rejections=RejectionCounts { merkle: 0, pow: 0, target_policy: 0, \
             timestamp: 0, unsolicited_segment: 0, invalid_segment: 0, from_banned: 0, \
             invalid_proof: 0, unsolicited_proof: 0 } stalls=0 retried=0 abandoned=0 banned=0 \
             withheld=0 released=0 abandoned_private=0 pruned=0 safety_margin=0 crashes=0 \
             recovered_identical=0 replayed=0 lost_bytes=0 crash_dropped=0 events=2616 \
             connects=0 evictions=0 rotations=0 lights=5 light_converged=true bytes=110699 \
             light_bytes=72143 headers_served=2 headers_accepted=335 proofs_served=102 \
             proofs_verified=102 proof_retries=53 proofs_withheld=52 fake_proofs=0 \
             quota_refusals=0 verify_ops=733 tx_proved=2683 seeds_discarded=0 \
             seeds_inadmissible=0 tip_cost=1.2868"
        );
        assert!(
            report.proofs_withheld > 0,
            "the withholder must get asked: {}",
            report.fingerprint_extended()
        );
        assert!(report.light_converged, "{}", report.fingerprint_extended());
        assert!(report.proofs_verified > 0);
        assert_eq!(report.rejections.invalid_proof, 0);
    }
}
