//! `mine`: the miner's hot loop.
//!
//! A `MiningSession` scans a seed-derived header against a target no digest
//! meets, one lane batch of `NONCE_LANES` nonces per step, with the default
//! Leela-like profile (about 64k dynamic instructions and 17 kB of output
//! per widget). Widget generation and execution do almost all the work;
//! `chain`, `net` and `store` do none. Every pass scans the same nonces
//! with a fresh session, one step timed at a time, so every batch yields a
//! per-hash latency sample in every pass.

use crate::alloc_count::allocations;
use crate::common::{timed, Outcome, SeedRng, Settings, Setup, Timings, MIN_PASSES};
use crate::stages::{StageReplay, GATE1, HASH};
use crate::trace::Tracer;
use hashcore::{HashCore, HashScratch, MiningSession, Target, NONCE_LANES};
use hashcore_crypto::{hex, sha256, sha256_x4_parts, Digest256};
use hashcore_profile::{HashSeed, PerformanceProfile};
use std::time::Instant;

/// Header bytes before the nonce: a block header's size.
const HEADER_BYTES: usize = 108;
/// Nonces whose scalar digests are checksummed and pinned.
const PREFIX_NONCES: u64 = 16;
/// Lane batches per pass, full or quick: 400 nonces, under a second, and
/// 100 per-hash latencies, the fewest that have a tail (p90).
const PASS_BATCHES: usize = 100;
/// Dynamic instructions per widget in quick runs.
const QUICK_INSTRUCTIONS: u64 = 5_000;

/// Digest checksum of the first [`PREFIX_NONCES`] nonces for the default
/// seed, full and quick profiles.
const PIN_PREFIX: &str = "4780b2e0a0391aa9713a428238ce1bb67ba7d75c6fcd96fa4213a7a68a5e4d15";
const PIN_PREFIX_QUICK: &str = "f81b6e309152314305811e190fed4cddbca821e6823f55de2055b5e92302acb8";

/// A target no digest meets: every nonce in a step is evaluated.
fn unreachable_target() -> Target {
    Target::from_leading_zero_bits(255)
}

struct Miner {
    pow: HashCore,
    header: Vec<u8>,
    /// First nonce of every pass.
    start: u64,
    /// The first pass's session, built by set-up.
    session: Option<MiningSession>,
}

/// A session whose next step hashes nonce `start`, warmed by one untimed
/// step over the batch before it: the warm-up fills the session's scratch
/// to its worst-case size.
fn warm_session(pow: &HashCore, header: &[u8], start: u64) -> MiningSession {
    let before = start.wrapping_sub(NONCE_LANES as u64);
    let mut session = MiningSession::new(header, unreachable_target(), before);
    let warm = session.step(pow, NONCE_LANES as u64);
    assert!(
        matches!(warm, Ok(None)),
        "warm-up batch must complete without a hit: {warm:?}"
    );
    session
}

/// Builds the PoW instance, the header and the first pass's session.
fn inputs(settings: &Settings) -> Miner {
    let mut profile = PerformanceProfile::leela_like();
    if settings.quick {
        profile.target_dynamic_instructions = QUICK_INSTRUCTIONS;
    }
    let pow = HashCore::new(profile);
    let mut rng = SeedRng::new(settings.seed, "mine");
    let header = rng.bytes(HEADER_BYTES);
    let start = rng.next_u64() >> 1;
    let session = Some(warm_session(&pow, &header, start));
    Miner {
        pow,
        header,
        start,
        session,
    }
}

/// Scans passes while `settings` allows, at least [`MIN_PASSES`]; each step
/// is one lane batch, timed on its own, and its latency is per hash.
fn scan_passes<K: PartialEq>(
    settings: &Settings,
    miner: &mut Miner,
    setup: &mut Setup<'_, Miner, K>,
    outcome: &mut Outcome,
) -> Timings {
    let mut timings = Timings {
        unit_ops: (PASS_BATCHES * NONCE_LANES) as f64,
        ..Timings::default()
    };
    let started = Instant::now();
    while settings.more(started, timings.latencies_ms.len(), MIN_PASSES) {
        let mut session = miner
            .session
            .take()
            .unwrap_or_else(|| warm_session(&miner.pow, &miner.header, miner.start));
        let mut batches_ms = Vec::with_capacity(PASS_BATCHES);
        for _ in 0..PASS_BATCHES {
            let (result, elapsed) = timed(|| session.step(&miner.pow, NONCE_LANES as u64));
            if !matches!(result, Ok(None)) {
                outcome.failed += NONCE_LANES as u64;
            }
            batches_ms.push(elapsed.as_secs_f64() * 1e3);
        }
        drop(session);
        outcome.attempted += timings.unit_ops as u64;
        let per_hash = batches_ms.iter().map(|ms| ms / NONCE_LANES as f64);
        timings.latencies_ms.push(per_hash.collect());
        timings.parts_ms.push(batches_ms);
        if timings.latencies_ms.len() == 1 {
            outcome.record_peak_heap();
        }
        setup.after_pass(settings, started);
    }
    timings
}

pub fn run(settings: &Settings, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut setup, mut miner) = Setup::start(
        settings,
        || inputs(settings),
        |miner: &Miner| (miner.header.clone(), miner.start),
    );
    if traced {
        run_traced(settings, &miner, &mut outcome);
    } else {
        let timings = scan_passes(settings, &mut miner, &mut setup, &mut outcome);
        outcome.timings(&timings);
        outcome.notes.push(format!(
            "ops are nonces hashed in steps of {NONCE_LANES}; latency is per hash, one per step"
        ));
    }
    setup.finish(&mut outcome);
    check_outputs(settings, &miner, &mut outcome);
    outcome
}

/// Reference checks, outside the timed phase: the batch path agrees with
/// fresh scalar hashing, `HashCore::mine` finds exactly the first prefix
/// nonce the reference says meets an easy target, and the prefix checksum
/// matches its pin.
fn check_outputs(settings: &Settings, miner: &Miner, outcome: &mut Outcome) {
    let Miner {
        pow, header, start, ..
    } = miner;
    let reference: Vec<Digest256> = (0..PREFIX_NONCES)
        .map(|i| {
            pow.hash(&HashCore::mining_input(header, start.wrapping_add(i)))
                .map_or([0; 32], |out| out.digest)
        })
        .collect();

    // One sampled batch from inside the scanned range, batch vs scalar.
    let offset = SeedRng::new(settings.seed, "mine-sample").next_u64() % PREFIX_NONCES;
    let offset = offset - offset % NONCE_LANES as u64;
    let nonces: [u64; NONCE_LANES] =
        std::array::from_fn(|lane| start.wrapping_add(offset + lane as u64));
    let batch = pow.hash_nonce_batch_with_scratch(header, nonces, &mut HashScratch::new());
    let batch_matches = batch
        .iter()
        .zip(&reference[offset as usize..])
        .all(|(lane, scalar)| lane.as_ref().is_ok_and(|out| out.digest == *scalar));
    outcome.check(
        "batch_matches_scalar",
        batch_matches,
        format!("nonces {}..+{NONCE_LANES}", nonces[0]),
    );

    let easy = Target::from_leading_zero_bits(2);
    let expected = reference
        .iter()
        .enumerate()
        .find(|(_, digest)| easy.is_met_by(digest))
        .map(|(i, digest)| (start.wrapping_add(i as u64), *digest, i as u64 + 1));
    let mined = pow
        .mine(header, easy, *start, PREFIX_NONCES)
        .map(|hit| hit.map(|r| (r.nonce, r.digest, r.attempts)));
    outcome.check(
        "mine_matches_reference",
        mined == Ok(expected),
        match expected {
            Some((nonce, digest, attempts)) => format!(
                "first 2-bit hit: nonce {nonce} after {attempts} attempts, digest {}",
                hex::encode(&digest)
            ),
            None => format!("no 2-bit hit in the first {PREFIX_NONCES} nonces"),
        },
    );

    let checksum = hex::encode(&sha256(&reference.concat()));
    outcome.pin(
        "prefix_checksum",
        settings,
        &checksum,
        settings.pick(PIN_PREFIX, PIN_PREFIX_QUICK),
    );
}

/// The traced run. Per lane batch, the call `MiningSession::step` makes —
/// `hash_nonce_batch_with_scratch` — runs untraced and timed, then the
/// replay times every stage of the same four hashes. Running the two side
/// by side keeps host drift out of the comparison between them.
fn run_traced(settings: &Settings, miner: &Miner, outcome: &mut Outcome) {
    let Miner {
        pow, header, start, ..
    } = miner;
    let mut tracer = Tracer::new();
    let mut replay = StageReplay::new(pow);
    let mut api_scratch = HashScratch::new();
    // The first call sizes the scratch for every later one.
    let _ = pow.hash_nonce_batch_with_scratch(header, [*start; NONCE_LANES], &mut api_scratch);
    let (mut api_ns, mut api_allocs, mut mismatches) = (0.0, 0, 0);
    let mut batches = 0usize;
    let min = settings.pick(MIN_PASSES * PASS_BATCHES, PASS_BATCHES);
    let started = Instant::now();
    while settings.more(started, batches, min) {
        let nonces: [u64; NONCE_LANES] =
            std::array::from_fn(|lane| start.wrapping_add((batches * NONCE_LANES + lane) as u64));
        let request = batches as u64;
        let allocs_before = allocations();
        let (api, elapsed) =
            timed(|| pow.hash_nonce_batch_with_scratch(header, nonces, &mut api_scratch));
        api_allocs += allocations() - allocs_before;
        api_ns += elapsed.as_nanos() as f64;

        let batch = tracer.begin("mine.batch", None, request);
        let nonce_bytes = nonces.map(u64::to_le_bytes);
        let parts: [[&[u8]; 2]; NONCE_LANES] =
            std::array::from_fn(|lane| [header.as_slice(), nonce_bytes[lane].as_slice()]);
        let seeds = tracer.span(GATE1, Some(batch), request, || {
            sha256_x4_parts(parts.each_ref().map(|lane| lane.as_slice()))
        });
        for (seed, api) in seeds.into_iter().zip(&api) {
            let hash = tracer.begin(HASH, Some(batch), request);
            let replayed = replay.after_gate1(&mut tracer, hash, request, HashSeed::new(seed));
            tracer.end(hash);
            if replayed.is_err() || api.is_err() {
                outcome.failed += 1;
            }
            if replayed.ok() != api.as_ref().ok().map(|out| out.digest) {
                mismatches += 1;
            }
        }
        tracer.end(batch);
        outcome.attempted += NONCE_LANES as u64;
        batches += 1;
    }

    let hashes = (batches * NONCE_LANES) as f64;
    let api_hash_ns = api_ns / hashes;
    replay.ledger(&tracer, api_hash_ns, outcome);
    outcome.metric(
        "trace_overhead",
        100.0 * (tracer.total_ns("mine.batch") / api_ns - 1.0),
    );
    outcome.metric("core.allocs_per_hash", api_allocs as f64 / hashes);
    outcome.check(
        "replay_matches_api",
        mismatches == 0,
        format!("{mismatches} of {hashes} replayed digests differ from the API's"),
    );
    outcome.check(
        "zero_allocations_per_hash",
        api_allocs == 0,
        format!("{api_allocs} allocations over {hashes} warmed hashes"),
    );
    outcome.notes.push(format!(
        "gate 1 spans serve {NONCE_LANES} hashes each; {} of them",
        tracer.count(GATE1)
    ));
    crate::report::write_trace(settings, "mine", &tracer, outcome);
}
