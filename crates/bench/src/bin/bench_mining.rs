//! Mining-throughput harness: hashes/sec for the naive path, the
//! zero-allocation scratch path, the lane-parallel batch path, and
//! multi-threaded `mine_parallel`.
//!
//! This bench establishes the repo's performance trajectory for the PoW hot
//! loop (hash → generate → execute → hash, once per nonce). It measures:
//!
//! 1. `hash` — the naive single-thread path (fresh buffers per nonce),
//! 2. `hash_with_scratch` — the prepared/scratch single-thread path,
//! 3. `hash_batch_x4` — the batch-of-[`NONCE_LANES`] path whose first hash
//!    gate runs four lanes wide,
//! 4. `sha256d_scalar` / `sha256d_x4` — the pure hash-gate scan (the
//!    `sha256d` baseline) per-nonce vs four lanes per pass, which isolates
//!    the multi-lane compression gain (`simd_vs_scalar`) from the
//!    widget-dominated HashCore numbers,
//! 5. `mine_parallel` at 1, 2, 4, … threads, scanning a fixed nonce range
//!    against an unreachable target so every nonce is evaluated.
//!
//! Thread counts are clamped to the host's logical cores by default — a
//! `threads=4` row timed on a 1-core host measures scheduler contention,
//! not mining — and the `speedups` section only compares measurements that
//! were actually taken. Pass an explicit third argument to override the
//! clamp (for contention experiments); the JSON then records
//! `thread_counts_within_cores: false` and the bench gate fails, which is
//! the point: such artifacts must not be published as throughput numbers.
//!
//! Results are printed as a table and written to `BENCH_mining.json` in the
//! current directory. Usage:
//!
//! ```text
//! bench_mining [nonces-per-measurement] [target-dynamic-instructions] [max-threads]
//! ```

use hashcore::{HashCore, HashScratch, MiningInput, Target, NONCE_LANES};
use hashcore_baselines::{PowFunction, Sha256dPow};
use hashcore_bench::simbench::positional_arg;
use hashcore_profile::PerformanceProfile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

thread_local! {
    /// Heap operations (alloc, realloc, alloc_zeroed) performed by the
    /// current thread. Thread-local so worker threads warming up their own
    /// scratches do not pollute the measurement thread's count.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A counting wrapper around the system allocator: every allocation and
/// reallocation bumps the current thread's counter. This is how the bench
/// *proves* the steady-state mining loop is allocation-free rather than
/// merely asserting it in documentation.
struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter update allocates
// nothing (const-initialised thread-local `Cell`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations performed by this thread so far.
fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// One measurement row: a mode, its thread count and its throughput.
struct Measurement {
    mode: &'static str,
    threads: usize,
    hashes: u64,
    seconds: f64,
}

impl Measurement {
    fn hashes_per_sec(&self) -> f64 {
        self.hashes as f64 / self.seconds
    }
}

/// Thread counts to sweep `mine_parallel` over: the 1-2-4 ladder plus the
/// full machine, capped at `max_threads`. With the default cap (the logical
/// core count) no row oversubscribes the host; an explicit cap above the
/// core count reintroduces oversubscribed rows deliberately.
fn sweep_thread_counts(max_threads: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = [1usize, 2, 4]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();
    if max_threads > 4 || !counts.contains(&max_threads) {
        counts.push(max_threads);
    }
    counts.dedup();
    counts
}

fn main() {
    let nonces = positional_arg(1, 192).max(NONCE_LANES as u64);
    let instructions = positional_arg(2, 20_000).max(1_000);
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Default: never spawn more miners than the host can run. An explicit
    // third argument overrides the clamp for contention experiments.
    let max_threads = match positional_arg(3, 0) {
        0 => parallelism,
        explicit => explicit as usize,
    };
    let thread_counts = sweep_thread_counts(max_threads);

    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = instructions;
    let pow = HashCore::new(profile);

    // A target no digest can meet: the full range is always scanned, so
    // elapsed time divided by the range is exactly per-hash cost.
    let unreachable = Target::from_leading_zero_bits(255);
    let header: &[u8] = b"bench-mining-header";

    println!(
        "mining throughput: {nonces} nonces/measurement, \
         {instructions} dynamic instructions/widget, \
         {parallelism} hardware threads, sweeping {thread_counts:?} miner threads"
    );

    let mut measurements = Vec::new();

    // Warm-up: fault in code paths and grow the scratch buffers to their
    // steady-state sizes. Buffer capacities adapt to the stream of widget
    // shapes, so we warm until a whole probe batch completes without a
    // single heap operation (bounded in case a regression makes the loop
    // allocate per hash — the assert below then fails loudly).
    let mut scratch = HashScratch::new();
    let mut input = MiningInput::new(header);
    let mut warm_nonce = 0u64;
    let mut warm_batches = 0u32;
    loop {
        let before = thread_allocations();
        for _ in 0..32u64 {
            pow.hash_with_scratch(input.with_nonce(warm_nonce), &mut scratch)
                .expect("widgets execute");
            warm_nonce += 1;
        }
        warm_batches += 1;
        if thread_allocations() == before || warm_batches >= 32 {
            break;
        }
    }
    println!("warmed up over {} nonces", warm_nonce);

    // 1. Naive single-thread path: fresh buffers per nonce.
    let started = Instant::now();
    for nonce in 0..nonces {
        pow.hash(&HashCore::mining_input(header, nonce))
            .expect("widgets execute");
    }
    measurements.push(Measurement {
        mode: "hash_naive",
        threads: 1,
        hashes: nonces,
        seconds: started.elapsed().as_secs_f64(),
    });

    // 2. Scratch single-thread path: zero allocations after warm-up,
    //    witnessed by the counting allocator.
    let allocs_before = thread_allocations();
    let started = Instant::now();
    for nonce in 0..nonces {
        pow.hash_with_scratch(input.with_nonce(nonce), &mut scratch)
            .expect("widgets execute");
    }
    let seconds = started.elapsed().as_secs_f64();
    let scratch_allocations = thread_allocations() - allocs_before;
    let allocations_per_hash = scratch_allocations as f64 / nonces as f64;
    measurements.push(Measurement {
        mode: "hash_with_scratch",
        threads: 1,
        hashes: nonces,
        seconds,
    });
    println!(
        "  steady-state allocations: {scratch_allocations} over {nonces} hashes \
         ({allocations_per_hash:.4}/hash)"
    );
    assert_eq!(
        scratch_allocations, 0,
        "the warmed-up scratch mining loop must perform zero heap allocations per hash"
    );

    // 3. Batch path: the first hash gate runs NONCE_LANES lanes per pass,
    //    widget stage and second gate per lane, same scratch — and still
    //    zero allocations.
    let batch_hashes = nonces - nonces % NONCE_LANES as u64;
    let allocs_before = thread_allocations();
    let started = Instant::now();
    let mut base = 0u64;
    while base < batch_hashes {
        let batch: [u64; NONCE_LANES] = std::array::from_fn(|lane| base + lane as u64);
        for result in pow.hash_nonce_batch_with_scratch(header, batch, &mut scratch) {
            result.expect("widgets execute");
        }
        base += NONCE_LANES as u64;
    }
    let seconds = started.elapsed().as_secs_f64();
    let batch_allocations = thread_allocations() - allocs_before;
    measurements.push(Measurement {
        mode: "hash_batch_x4",
        threads: 1,
        hashes: batch_hashes,
        seconds,
    });
    assert_eq!(
        batch_allocations, 0,
        "the warmed-up batch mining loop must perform zero heap allocations per hash"
    );

    // 4. Pure hash-gate scan, scalar vs 4-lane: the sha256d baseline is all
    //    gate and no widget, so this pair isolates the multi-lane SHA-256
    //    gain itself. The scalar row evaluates one nonce at a time and the
    //    x4 row is the lane-batched `scan_nonces`, each through one
    //    scratch. The header is shorter than one 64-byte block, so
    //    neither row resumes from a midstate and both compress every
    //    block. Far more nonces — a sha256d evaluation is ~1000x cheaper
    //    than a HashCore one.
    let gate_nonces = (nonces * 2_048).max(1 << 18);
    let mut gate_input = MiningInput::new(header);
    let mut gate_scratch = Default::default();
    let started = Instant::now();
    for nonce in 0..gate_nonces {
        let (digest, _) = Sha256dPow.evaluate(gate_input.with_nonce(nonce), &mut gate_scratch);
        assert!(!unreachable.is_met_by(&digest));
    }
    measurements.push(Measurement {
        mode: "sha256d_scalar",
        threads: 1,
        hashes: gate_nonces,
        seconds: started.elapsed().as_secs_f64(),
    });
    let started = Instant::now();
    assert!(Sha256dPow
        .scan_nonces(
            &mut gate_input,
            unreachable,
            0,
            gate_nonces,
            &mut Default::default(),
        )
        .is_none());
    measurements.push(Measurement {
        mode: "sha256d_x4",
        threads: 1,
        hashes: gate_nonces,
        seconds: started.elapsed().as_secs_f64(),
    });

    // 5. Parallel mining across thread counts.
    for &threads in &thread_counts {
        let started = Instant::now();
        let result = pow
            .mine_parallel(header, unreachable, 0, nonces, threads)
            .expect("widgets execute");
        assert!(result.is_none(), "an unreachable target cannot be met");
        measurements.push(Measurement {
            mode: "mine_parallel",
            threads,
            hashes: nonces,
            seconds: started.elapsed().as_secs_f64(),
        });
    }

    let single_rate = measurements[1].hashes_per_sec();
    for m in &measurements {
        println!(
            "  {:<20} threads={:<2} {:>12.2} hashes/sec  ({:.2}x vs scratch single-thread)",
            m.mode,
            m.threads,
            m.hashes_per_sec(),
            m.hashes_per_sec() / single_rate
        );
    }

    let threads_used = thread_counts.iter().copied().max().unwrap_or(1);
    let json = render_json(
        &measurements,
        nonces,
        instructions,
        parallelism,
        threads_used,
        allocations_per_hash,
    );
    std::fs::write("BENCH_mining.json", &json).expect("BENCH_mining.json is writable");
    println!("wrote BENCH_mining.json");
}

/// Rate of the unique measurement matching `mode` and `threads`, if taken.
fn rate_of(measurements: &[Measurement], mode: &str, threads: usize) -> Option<f64> {
    measurements
        .iter()
        .find(|m| m.mode == mode && m.threads == threads)
        .map(Measurement::hashes_per_sec)
}

/// Renders the measurement set as a small, dependency-free JSON document.
///
/// Every speedup is a ratio of two measurements that were actually taken
/// under matched configurations (same nonce count, same mode family); a
/// missing counterpart drops the ratio from the document instead of
/// dividing by a stale default.
fn render_json(
    measurements: &[Measurement],
    nonces: u64,
    instructions: u64,
    logical_cores: usize,
    threads_used: usize,
    allocations_per_hash: f64,
) -> String {
    let naive_rate = rate_of(measurements, "hash_naive", 1);
    let scratch_rate = rate_of(measurements, "hash_with_scratch", 1);
    let batch_rate = rate_of(measurements, "hash_batch_x4", 1);
    let gate_scalar_rate = rate_of(measurements, "sha256d_scalar", 1);
    let gate_x4_rate = rate_of(measurements, "sha256d_x4", 1);
    // The parallel speedup compares the widest mine_parallel row taken
    // against the threads=1 row of the same mode — never against a thread
    // count that was clamped away.
    let parallel_threads = measurements
        .iter()
        .filter(|m| m.mode == "mine_parallel")
        .map(|m| m.threads)
        .max();
    let parallel_speedup = parallel_threads.and_then(|threads| {
        Some(
            rate_of(measurements, "mine_parallel", threads)?
                / rate_of(measurements, "mine_parallel", 1)?,
        )
    });

    let simd_vs_scalar = match (gate_x4_rate, gate_scalar_rate) {
        (Some(x4), Some(scalar)) => Some(x4 / scalar),
        _ => None,
    };
    let within_cores = measurements.iter().all(|m| m.threads <= logical_cores);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"mining_throughput\",");
    let _ = writeln!(
        json,
        "{}",
        hashcore_bench::simbench::host_json(threads_used)
    );
    let _ = writeln!(json, "  \"nonces_per_measurement\": {nonces},");
    let _ = writeln!(json, "  \"target_dynamic_instructions\": {instructions},");
    let _ = writeln!(
        json,
        "  \"allocations_per_hash\": {allocations_per_hash:.4},"
    );
    let _ = writeln!(
        json,
        "  \"simd_faster_than_scalar\": {},",
        simd_vs_scalar.is_some_and(|ratio| ratio >= 1.0)
    );
    let _ = writeln!(json, "  \"thread_counts_within_cores\": {within_cores},");
    let _ = writeln!(json, "  \"measurements\": [");
    for (index, m) in measurements.iter().enumerate() {
        let comma = if index + 1 == measurements.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"threads\": {}, \"hashes\": {}, \
             \"seconds\": {:.6}, \"hashes_per_sec\": {:.3}}}{comma}",
            m.mode,
            m.threads,
            m.hashes,
            m.seconds,
            m.hashes_per_sec()
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": {{");
    let mut ratios: Vec<(String, f64)> = Vec::new();
    if let (Some(scratch), Some(naive)) = (scratch_rate, naive_rate) {
        ratios.push(("scratch_vs_naive_single_thread".into(), scratch / naive));
    }
    if let (Some(batch), Some(scratch)) = (batch_rate, scratch_rate) {
        ratios.push(("batch_x4_vs_scratch_single_thread".into(), batch / scratch));
    }
    if let Some(ratio) = simd_vs_scalar {
        ratios.push(("simd_vs_scalar".into(), ratio));
    }
    if let (Some(threads), Some(speedup)) = (parallel_threads, parallel_speedup) {
        ratios.push((
            format!("parallel_{threads}_threads_vs_single_thread"),
            speedup,
        ));
    }
    for (index, (name, ratio)) in ratios.iter().enumerate() {
        let comma = if index + 1 == ratios.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {ratio:.3}{comma}");
    }
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(mode: &'static str, threads: usize, hashes: u64, seconds: f64) -> Measurement {
        Measurement {
            mode,
            threads,
            hashes,
            seconds,
        }
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let measurements = vec![
            row("hash_naive", 1, 10, 1.0),
            row("hash_with_scratch", 1, 20, 1.0),
            row("hash_batch_x4", 1, 30, 1.0),
            row("sha256d_scalar", 1, 1_000, 1.0),
            row("sha256d_x4", 1, 2_000, 1.0),
            row("mine_parallel", 1, 40, 2.0),
            row("mine_parallel", 4, 40, 1.0),
        ];
        let json = render_json(&measurements, 10, 20_000, 4, 4, 0.0);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"hashes_per_sec\": 20.000"));
        assert!(json.contains("\"host\""));
        assert!(json.contains("\"threads_used\": 4"));
        assert!(json.contains("\"allocations_per_hash\": 0.0000"));
        assert!(json.contains("\"simd_faster_than_scalar\": true"));
        assert!(json.contains("\"thread_counts_within_cores\": true"));
        assert!(json.contains("\"scratch_vs_naive_single_thread\": 2.000"));
        assert!(json.contains("\"batch_x4_vs_scratch_single_thread\": 1.500"));
        assert!(json.contains("\"simd_vs_scalar\": 2.000"));
        assert!(json.contains("\"parallel_4_threads_vs_single_thread\": 2.000"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn oversubscribed_rows_are_reported_and_flagged() {
        // A 4-thread row on a 1-core host: the measurement stays in the
        // artifact (it was taken) but the boolean gate flags it, and no
        // speedup compares it against a clamped-away configuration.
        let measurements = vec![
            row("hash_naive", 1, 10, 1.0),
            row("hash_with_scratch", 1, 20, 1.0),
            row("mine_parallel", 1, 40, 1.0),
            row("mine_parallel", 4, 40, 1.5),
        ];
        let json = render_json(&measurements, 10, 20_000, 1, 4, 0.0);
        assert!(json.contains("\"thread_counts_within_cores\": false"));
        assert!(json.contains("\"parallel_4_threads_vs_single_thread\""));
        // No simd rows were taken: the ratio is absent, not defaulted.
        assert!(!json.contains("\"simd_vs_scalar\""));
        assert!(json.contains("\"simd_faster_than_scalar\": false"));
    }

    #[test]
    fn thread_sweep_is_clamped_to_the_cap() {
        assert_eq!(sweep_thread_counts(1), vec![1]);
        assert_eq!(sweep_thread_counts(2), vec![1, 2]);
        assert_eq!(sweep_thread_counts(3), vec![1, 2, 3]);
        assert_eq!(sweep_thread_counts(4), vec![1, 2, 4]);
        assert_eq!(sweep_thread_counts(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn positional_args_fall_back_to_defaults() {
        assert_eq!(positional_arg(7, 42), 42);
    }
}
