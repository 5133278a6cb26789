//! `restart`: the store's writes and reads side by side, plus `chain`
//! snapshot and restore, with no widget work.
//!
//! Set-up builds a `Sha256dPow` chain. Each pass persists it into a fresh
//! store the way a node does — `ForkTree::apply` then
//! `ChainStore::append_block` with the default per-append fsync, and one
//! `snapshot_now` at the ¾ mark — then restarts from it
//! [`RESTARTS_PER_PASS`] times: `ChainStore::open` plus `store::rebuild`.
//! Each restart is timed in every pass: how long a restarted node takes to
//! get back to its tip. The persist is timed block by block: how fast a
//! node makes blocks durable.

use crate::common::{timed, Outcome, ScratchDir, SeedRng, Settings, Setup, Timings, MIN_PASSES};
use crate::stats::percentile_of;
use crate::trace::{maybe_span, Tracer};
use hashcore::Target;
use hashcore_baselines::{PowFunction, Sha256dPow};
use hashcore_chain::{ApplyOutcome, Block, BlockHeader, ForkTree, GENESIS_HASH};
use hashcore_crypto::hex;
use hashcore_store::{rebuild, ChainStore};
use std::path::Path;
use std::time::Instant;

const FULL_BLOCKS: usize = 2_000;
const QUICK_BLOCKS: usize = 200;
/// Restarts from each persisted store, full or quick: one latency sample
/// each, and 100 put the tail at p90. At full size a restart takes about
/// 10 ms and the persist before them about 0.2 s.
const RESTARTS_PER_PASS: usize = 100;
const TAG_BYTES: usize = 32;

/// `ForkTree::fingerprint` of the persisted chain for the default seed.
const PIN_FINGERPRINT: &str = "d8fa46569d2dac233c789bed3df2a69b54f11f4ae03c87ef2f98de445490598d";
const PIN_FINGERPRINT_QUICK: &str =
    "512dc0bf21ece6152a9e1c4aba10a52c783c0004b4af9ee5a27d31bc4a3c7ab4";

fn inputs(settings: &Settings) -> Vec<Block> {
    let target = Target::from_leading_zero_bits(1);
    let mut rng = SeedRng::new(settings.seed, "restart");
    let mut prev = GENESIS_HASH;
    let count = settings.pick(FULL_BLOCKS, QUICK_BLOCKS);
    (0..count as u64)
        .map(|height| {
            let transactions = vec![rng.bytes(TAG_BYTES)];
            let mut header = BlockHeader {
                version: 1,
                prev_hash: prev,
                merkle_root: Block::merkle_root(&transactions),
                timestamp: 1_700_000_000 + 600 * height,
                target: *target.threshold(),
                nonce: 0,
            };
            loop {
                let digest = Sha256dPow.pow_hash(&header.bytes());
                if target.is_met_by(&digest) {
                    prev = digest;
                    break;
                }
                header.nonce += 1;
            }
            Block {
                header,
                transactions,
            }
        })
        .collect()
}

/// What one persist-then-restart pass measured and found.
struct Pass {
    persist_s: f64,
    /// Each block's apply and append, plus the snapshot on the block it
    /// follows.
    persist_ms: Vec<f64>,
    restarts_ms: Vec<f64>,
    /// Every restart rebuilt the persisted fingerprint and skipped nothing.
    identical: bool,
    /// Every restart recovered from the snapshot plus exactly the blocks
    /// appended after it, with no fault on disk.
    clean: bool,
    replayed: usize,
    live_fingerprint: [u8; 32],
    log_bytes: u64,
    snapshot_bytes: u64,
}

/// Persists `blocks` into a fresh store in `dir`, then restarts from it
/// [`RESTARTS_PER_PASS`] times. Every call into a layer gets a span when
/// `tracer` is given.
fn pass(
    blocks: &[Block],
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
    request: u64,
    outcome: &mut Outcome,
) -> std::io::Result<Pass> {
    let snapshot_at = blocks.len() * 3 / 4;
    let mut store = ChainStore::create(dir)?;
    let mut tree = ForkTree::new(Sha256dPow);
    let mut persist_ms = Vec::with_capacity(blocks.len());
    let started = Instant::now();
    for (i, block) in blocks.iter().enumerate() {
        let (persisted, elapsed) = timed(|| -> std::io::Result<()> {
            let owned = block.clone();
            let applied = maybe_span(&mut tracer, "chain.apply", request, || tree.apply(owned));
            if !matches!(applied, Ok(ApplyOutcome::TipChanged { .. })) {
                outcome.failed += 1;
            }
            maybe_span(&mut tracer, "store.append", request, || {
                store.append_block(block)
            })?;
            if i + 1 == snapshot_at {
                let snapshot =
                    maybe_span(&mut tracer, "chain.snapshot", request, || tree.snapshot());
                maybe_span(&mut tracer, "store.snapshot_commit", request, || {
                    store.snapshot_now(&snapshot)
                })?;
            }
            Ok(())
        });
        persisted?;
        persist_ms.push(elapsed.as_secs_f64() * 1e3);
    }
    let persist_s = started.elapsed().as_secs_f64();
    let live_fingerprint = tree.fingerprint();
    drop(store);
    drop(tree);
    let (log_bytes, snapshot_bytes) = store_bytes(dir)?;

    let mut pass = Pass {
        persist_s,
        persist_ms,
        restarts_ms: Vec::with_capacity(RESTARTS_PER_PASS),
        identical: true,
        clean: true,
        replayed: 0,
        live_fingerprint,
        log_bytes,
        snapshot_bytes,
    };
    for _ in 0..RESTARTS_PER_PASS {
        let started = Instant::now();
        let (store, recovered) =
            maybe_span(&mut tracer, "store.open", request, || ChainStore::open(dir))?;
        let rebuilt = maybe_span(&mut tracer, "chain.rebuild", request, || {
            rebuild(Sha256dPow, None, &recovered)
        });
        pass.restarts_ms.push(started.elapsed().as_secs_f64() * 1e3);
        drop(store);
        pass.identical &= rebuilt
            .is_ok_and(|(tree, skipped)| skipped == 0 && tree.fingerprint() == live_fingerprint);
        pass.replayed = recovered.replay.len();
        pass.clean &= recovered.report.clean()
            && recovered.snapshot.as_ref().map(|s| s.blocks.len()) == Some(snapshot_at)
            && pass.replayed == blocks.len() - snapshot_at;
    }
    Ok(pass)
}

/// Bytes in the store's segment logs and in its snapshots.
fn store_bytes(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut logs, mut snapshots) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let len = entry.metadata()?.len();
        match Path::new(&name).extension().and_then(|e| e.to_str()) {
            Some("log") => logs += len,
            Some("snap") => snapshots += len,
            _ => {}
        }
    }
    Ok((logs, snapshots))
}

pub fn run(settings: &Settings, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    // The tip block's header commits to every block below it.
    let (mut setup, blocks) = Setup::start(
        settings,
        || inputs(settings),
        |blocks: &Vec<Block>| (blocks.len(), blocks.last().cloned()),
    );
    let dir = settings
        .out_dir
        .join(format!("restart-store-{}", std::process::id()));
    let mut passes = Vec::new();
    let mut tracer = Tracer::new();
    let started = Instant::now();
    // A traced run makes one untraced pass, the baseline for the tracing
    // overhead, and one traced pass: two spans per block are plenty.
    let more = |taken| {
        if traced {
            taken < 2
        } else {
            settings.more(started, taken, MIN_PASSES)
        }
    };
    while more(passes.len()) {
        let request = passes.len() as u64;
        let spans = (traced && request > 0).then_some(&mut tracer);
        let pass = ScratchDir::create(dir.clone())
            .and_then(|scratch| pass(&blocks, scratch.path(), spans, request, &mut outcome))
            .unwrap_or_else(|error| panic!("store I/O failed in {}: {error}", dir.display()));
        outcome.attempted += (blocks.len() + RESTARTS_PER_PASS) as u64;
        if !(pass.identical && pass.clean) {
            outcome.failed += RESTARTS_PER_PASS as u64;
        }
        passes.push(pass);
        if passes.len() == 1 {
            outcome.record_peak_heap();
        }
        if !traced {
            setup.after_pass(settings, started);
        }
    }
    setup.finish(&mut outcome);

    let snapshot_at = blocks.len() * 3 / 4;
    outcome.check(
        "recovered_identical",
        passes.iter().all(|p| p.identical),
        format!(
            "{} restarts rebuilt the persisted fingerprint",
            passes.len() * RESTARTS_PER_PASS
        ),
    );
    outcome.check(
        "recovery_clean",
        passes.iter().all(|p| p.clean),
        format!(
            "snapshot of {snapshot_at} blocks plus {} replayed, nothing lost",
            blocks.len() - snapshot_at
        ),
    );
    outcome.pin(
        "fingerprint",
        settings,
        &hex::encode(&passes[0].live_fingerprint),
        settings.pick(PIN_FINGERPRINT, PIN_FINGERPRINT_QUICK),
    );

    if traced {
        let traced_pass = passes.last().expect("two passes in a traced run");
        layer_metrics(&mut outcome, &tracer, traced_pass);
        let wall = |p: &Pass| p.persist_s + p.restarts_ms.iter().sum::<f64>() / 1e3;
        outcome.metric(
            "trace_overhead",
            100.0 * (wall(traced_pass) / wall(&passes[0]) - 1.0),
        );
        crate::report::write_trace(settings, "restart", &tracer, &mut outcome);
    } else {
        outcome.timings(&Timings {
            latencies_ms: passes.iter().map(|p| p.restarts_ms.clone()).collect(),
            parts_ms: passes.iter().map(|p| p.persist_ms.clone()).collect(),
            unit_ops: blocks.len() as f64,
        });
    }
    outcome.notes.push(format!(
        "{} passes over {} blocks; ops are blocks persisted (apply + fsynced append), \
         latency is one restart (open + rebuild)",
        passes.len(),
        blocks.len()
    ));
    outcome
}

fn layer_metrics(outcome: &mut Outcome, tracer: &Tracer, pass: &Pass) {
    let mean = |name: &str| tracer.total_ns(name) / tracer.count(name).max(1) as f64;
    let appends_us: Vec<f64> = tracer
        .durations("store.append")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    outcome.metric("chain.apply_us", mean("chain.apply") / 1e3);
    outcome.metric("store.append_us_p50", percentile_of(&appends_us, 50.0));
    outcome.metric("store.append_us_p99", percentile_of(&appends_us, 99.0));
    outcome.metric("chain.snapshot_build_ms", mean("chain.snapshot") / 1e6);
    outcome.metric(
        "store.snapshot_commit_ms",
        mean("store.snapshot_commit") / 1e6,
    );
    outcome.metric("store.open_ms", mean("store.open") / 1e6);
    outcome.metric("chain.rebuild_ms", mean("chain.rebuild") / 1e6);
    outcome.metric("store.log_bytes", pass.log_bytes as f64);
    outcome.metric("store.snapshot_bytes", pass.snapshot_bytes as f64);
    outcome.metric("store.replayed_blocks", pass.replayed as f64);
}
