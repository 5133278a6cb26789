//! `verify`: a full node accepting blocks one at a time, then syncing the
//! same chain as one segment.
//!
//! Set-up mines a `HashCorePow` chain at a fixed 1-bit target; each block
//! carries a seed-derived tag transaction and a 256-byte one. Each pass
//! applies every block in order into a fresh `ForkTree`, timing each apply
//! (one caller, closed loop), then validates the whole chain with
//! `validate_segment_parallel` on one thread. Every pass does the same
//! work, so each block's apply is timed once per pass. This is the widget pipeline
//! used for one latency-bound block at a time, with no lane batching, plus
//! the chain layer's Merkle, header and fork-choice work.

use crate::alloc_count::allocations;
use crate::common::{timed, Outcome, SeedRng, Settings, Setup, Timings, MIN_PASSES};
use crate::stages::{StageReplay, GATE1, HASH};
use crate::stats::median;
use crate::trace::Tracer;
use hashcore::{HashCore, HashScratch, MiningInput, Target};
use hashcore_baselines::{HashCorePow, PowFunction, PreparedPow};
use hashcore_chain::{
    validate_segment_parallel, ApplyOutcome, Block, BlockHeader, ForkError, ForkTree,
    InvalidReason, GENESIS_HASH,
};
use hashcore_crypto::{hex, sha256, Digest256};
use hashcore_profile::{HashSeed, PerformanceProfile};
use std::time::Instant;

/// Blocks in the chain. 300 accept latencies put the tail at p90 (30
/// blocks beyond it); quick runs keep the 100 a tail needs.
const FULL_BLOCKS: usize = 300;
const QUICK_BLOCKS: usize = 100;
/// Blocks per `validate_segment_parallel` call: the sync is timed in
/// segments, each anchored at the block before it.
const SEGMENT_BLOCKS: usize = 25;
const TAG_BYTES: usize = 32;
const BODY_BYTES: usize = 256;
const DIFFICULTY_BITS: u32 = 1;
/// Dynamic instructions per widget in quick runs.
const QUICK_INSTRUCTIONS: u64 = 5_000;

/// Chain tip digest for the default seed, full and quick chains.
const PIN_TIP: &str = "545525663d4e6da59bbf509d39956b0c54fa03e5cf031ff4327a2290346b81ac";
const PIN_TIP_QUICK: &str = "7bb03761bef930138ca541818fe3e058f654ce8b19b578cc73308cc0394198b6";

struct Chain {
    pow: HashCorePow,
    blocks: Vec<Block>,
    /// The PoW digest of every block: the chain's links.
    digests: Vec<Digest256>,
    tip: Digest256,
    /// A chain block with its nonce changed so the PoW no longer meets the
    /// target: must be rejected as `Pow`.
    control: Block,
    control_height: usize,
}

fn inputs(settings: &Settings) -> Chain {
    let mut profile = PerformanceProfile::leela_like();
    if settings.quick {
        profile.target_dynamic_instructions = QUICK_INSTRUCTIONS;
    }
    let pow = HashCorePow::new(HashCore::new(profile));
    let target = Target::from_leading_zero_bits(DIFFICULTY_BITS);
    let mut rng = SeedRng::new(settings.seed, "verify");
    let mut scratch = HashScratch::new();
    let mut input = MiningInput::default();
    let mut prev = GENESIS_HASH;
    let count = settings.pick(FULL_BLOCKS, QUICK_BLOCKS);
    let mut blocks = Vec::with_capacity(count);
    let mut digests = Vec::with_capacity(count);
    for height in 0..count as u64 {
        let transactions = vec![rng.bytes(TAG_BYTES), rng.bytes(BODY_BYTES)];
        let mut header = BlockHeader {
            version: 1,
            prev_hash: prev,
            merkle_root: Block::merkle_root(&transactions),
            timestamp: 1_700_000_000 + 600 * height,
            target: *target.threshold(),
            nonce: 0,
        };
        input.set_header(&header.pow_input());
        // The scalar scan: at one bit, a 4-lane batch mostly hashes nonces
        // past the first hit.
        let (nonce, digest) = pow
            .scan_nonces(&mut input, target, 0, 1 << 32, &mut scratch)
            .expect("a 1-bit target is met within 2^32 nonces");
        header.nonce = nonce;
        prev = digest;
        digests.push(digest);
        blocks.push(Block {
            header,
            transactions,
        });
    }

    let control_height = (rng.next_u64() % count as u64) as usize;
    let mut control = blocks[control_height].clone();
    let honest_nonce = control.header.nonce;
    for bit in 0..64 {
        control.header.nonce = honest_nonce ^ (1 << bit);
        if !target.is_met_by(&pow.pow_hash(&control.header.bytes())) {
            break;
        }
    }
    Chain {
        pow,
        blocks,
        digests,
        tip: prev,
        control,
        control_height,
    }
}

fn is_extension(result: &Result<ApplyOutcome, ForkError>) -> bool {
    matches!(result, Ok(ApplyOutcome::TipChanged { reorg, .. }) if reorg.is_extension())
}

/// Checks a tree that applied the whole chain: tip and negative control.
fn check_tree(
    chain: &Chain,
    tree: &mut ForkTree<HashCorePow>,
    tip_ok: &mut bool,
    control_ok: &mut bool,
) {
    *tip_ok &= tree.tip() == chain.tip && tree.tip_height() == chain.blocks.len() as u64;
    *control_ok &= matches!(
        tree.apply(chain.control.clone()),
        Err(ForkError::InvalidBlock {
            reason: InvalidReason::Pow
        })
    );
}

pub fn run(settings: &Settings, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut setup, chain) = Setup::start(
        settings,
        || inputs(settings),
        |chain: &Chain| (chain.tip, chain.control.clone()),
    );
    let (tip_ok, control_ok) = if traced {
        run_traced(settings, &chain, &mut outcome)
    } else {
        run_untraced(settings, &chain, &mut setup, &mut outcome)
    };
    setup.finish(&mut outcome);
    outcome.check(
        "tip_matches_chain",
        tip_ok,
        format!(
            "every pass ends on the mined tip at height {}",
            chain.blocks.len()
        ),
    );
    outcome.check(
        "negative_control_rejected",
        control_ok,
        format!(
            "block {} with nonce {} rejected as Pow",
            chain.control_height, chain.control.header.nonce
        ),
    );
    outcome.pin(
        "tip_digest",
        settings,
        &hex::encode(&chain.tip),
        settings.pick(PIN_TIP, PIN_TIP_QUICK),
    );
    outcome
}

/// Validates the chain on one thread, [`SEGMENT_BLOCKS`] at a time, each
/// segment anchored at the digest of the block before it; returns each
/// segment's milliseconds, or `None` if a segment was rejected.
fn sync(chain: &Chain) -> Option<Vec<f64>> {
    let mut anchor = GENESIS_HASH;
    let mut segments_ms = Vec::new();
    for (blocks, digests) in chain
        .blocks
        .chunks(SEGMENT_BLOCKS)
        .zip(chain.digests.chunks(SEGMENT_BLOCKS))
    {
        let (result, elapsed) = timed(|| validate_segment_parallel(&chain.pow, blocks, 1, anchor));
        result.ok()?;
        segments_ms.push(elapsed.as_secs_f64() * 1e3);
        anchor = digests[digests.len() - 1];
    }
    Some(segments_ms)
}

fn run_untraced<K: PartialEq>(
    settings: &Settings,
    chain: &Chain,
    setup: &mut Setup<'_, Chain, K>,
    outcome: &mut Outcome,
) -> (bool, bool) {
    let count = chain.blocks.len();
    let mut timings = Timings {
        unit_ops: count as f64,
        ..Timings::default()
    };
    let (mut tip_ok, mut control_ok) = (true, true);
    let started = Instant::now();
    while settings.more(started, timings.latencies_ms.len(), MIN_PASSES) {
        let mut tree = ForkTree::new(chain.pow.clone());
        let mut accept_ms = Vec::with_capacity(count);
        for block in &chain.blocks {
            let block = block.clone();
            let (result, elapsed) = timed(|| tree.apply(block));
            accept_ms.push(elapsed.as_secs_f64() * 1e3);
            if !is_extension(&result) {
                outcome.failed += 1;
            }
        }
        check_tree(chain, &mut tree, &mut tip_ok, &mut control_ok);
        outcome.attempted += 2 * count as u64;
        let segments_ms = sync(chain).unwrap_or_else(|| {
            outcome.failed += count as u64;
            vec![f64::INFINITY; count.div_ceil(SEGMENT_BLOCKS)]
        });
        timings.parts_ms.push(segments_ms);
        timings.latencies_ms.push(accept_ms);
        if timings.latencies_ms.len() == 1 {
            outcome.record_peak_heap();
        }
        setup.after_pass(settings, started);
    }
    outcome.timings(&timings);
    outcome.notes.push(
        "ops are blocks synced by validate_segment_parallel, latency is one ForkTree::apply".into(),
    );
    (tip_ok, control_ok)
}

/// The traced run, at least one pass. Per block, every untraced call the
/// comparison needs — an apply into a second tree, the scratch and
/// fresh-scratch hash paths — runs next to its traced counterpart, so host
/// drift cancels out of the comparisons between them.
fn run_traced(settings: &Settings, chain: &Chain, outcome: &mut Outcome) -> (bool, bool) {
    let count = chain.blocks.len();
    let core = chain.pow.inner();
    let (mut tip_ok, mut control_ok) = (true, true);
    let mut tracer = Tracer::new();
    let mut replay = StageReplay::new(core);
    let mut header_bytes = chain.blocks[0].header.bytes();
    let mut scratch = HashScratch::new();
    // The first hash sizes the scratch for every later one.
    let _ = core.hash_with_scratch(&header_bytes, &mut scratch);
    let mut untraced_apply_ns = Vec::new();
    let (mut api_ns, mut fresh_ns, mut api_allocs, mut mismatches) = (0.0, 0.0, 0, 0);
    let mut passes = 0usize;
    let started = Instant::now();
    while settings.more(started, passes, 1) {
        let mut untraced = ForkTree::new(chain.pow.clone());
        let mut tree = ForkTree::new(chain.pow.clone());
        let mut parts = ForkTree::new(chain.pow.clone());
        for (height, block) in chain.blocks.iter().enumerate() {
            let owned = block.clone();
            let (result, elapsed) = timed(|| untraced.apply(owned));
            untraced_apply_ns.push(elapsed.as_nanos() as f64);
            if !is_extension(&result) {
                outcome.failed += 1;
            }

            let request = (passes * count + height) as u64;
            let span = tracer.begin("verify.block", None, request);
            let owned = block.clone();
            let result = tracer.span("chain.apply", Some(span), request, || tree.apply(owned));
            if !is_extension(&result) {
                outcome.failed += 1;
            }
            tracer.span("chain.header_encode", Some(span), request, || {
                block.header.write_bytes(&mut header_bytes)
            });
            tracer.span("chain.merkle", Some(span), request, || {
                block.merkle_consistent()
            });
            let (pow_digest, _) = tracer.span("chain.pow", Some(span), request, || {
                parts.digest_and_cost_of_header(&block.header)
            });
            let hash = tracer.begin(HASH, Some(span), request);
            let seed = tracer.span(GATE1, Some(hash), request, || sha256(&header_bytes));
            let replayed = replay.after_gate1(&mut tracer, hash, request, HashSeed::new(seed));
            tracer.end(hash);
            tracer.end(span);

            let allocs_before = allocations();
            let (api, elapsed) = timed(|| core.hash_with_scratch(&header_bytes, &mut scratch));
            api_allocs += allocations() - allocs_before;
            api_ns += elapsed.as_nanos() as f64;
            let (_, elapsed) = timed(|| core.hash(&header_bytes));
            fresh_ns += elapsed.as_nanos() as f64;
            let api = api.map(|out| out.digest).ok();
            if replayed.ok() != api || api != Some(pow_digest) || pow_digest != tree.tip() {
                mismatches += 1;
            }
        }
        check_tree(chain, &mut untraced, &mut tip_ok, &mut control_ok);
        check_tree(chain, &mut tree, &mut tip_ok, &mut control_ok);
        let synced = tracer.span("chain.sync", None, passes as u64, || sync(chain));
        if synced.is_none() {
            outcome.failed += count as u64;
        }
        outcome.attempted += 3 * count as u64;
        passes += 1;
    }

    let hashes = (passes * count) as f64;
    replay.ledger(&tracer, api_ns / hashes, outcome);
    let mean = |name: &str| tracer.total_ns(name) / tracer.count(name).max(1) as f64;
    outcome.metric("chain.header_encode_ns", mean("chain.header_encode"));
    outcome.metric("chain.merkle_ns", mean("chain.merkle"));
    outcome.metric("chain.pow_ns", mean("chain.pow"));
    outcome.metric(
        "chain.apply_self_ns",
        mean("chain.apply") - mean("chain.pow") - mean("chain.merkle"),
    );
    outcome.metric(
        "chain.sync_block_ns",
        tracer.total_ns("chain.sync") / hashes,
    );
    outcome.metric("core.fresh_scratch_ns", (fresh_ns - api_ns) / hashes);
    outcome.metric("core.allocs_per_hash", api_allocs as f64 / hashes);
    let traced = median(&tracer.durations("chain.apply"));
    outcome.metric(
        "trace_overhead",
        100.0 * (traced / median(&untraced_apply_ns) - 1.0),
    );
    outcome.check(
        "replay_matches_api",
        mismatches == 0,
        format!(
            "{mismatches} of {hashes} blocks: replayed, API, chain.pow and applied-tip digests \
             disagree"
        ),
    );
    crate::report::write_trace(settings, "verify", &tracer, outcome);
    (tip_ok, control_ok)
}
