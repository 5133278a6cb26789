//! The HashCore PoW function over SHA-256 gates and the widget pipeline.

use crate::target::Target;
use hashcore_crypto::{sha256, sha256_x4_parts, Digest256, Sha256, SHA256_LANES};
use hashcore_gen::{GeneratorConfig, PipelineScratch, WidgetGenerator};
use hashcore_profile::{HashSeed, PerformanceProfile};
use hashcore_vm::ExecError;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// Number of consecutive nonces one lane batch evaluates: the lane width of
/// the multi-lane hash gate.
pub const NONCE_LANES: usize = SHA256_LANES;

/// The first hash gate of [`NONCE_LANES`] nonces sharing one header:
/// `G(header ‖ nonce_i)` per lane, in one multi-lane SHA-256 pass that
/// hashes `header ‖ nonce` without materialising four input buffers.
///
/// Lane `i` equals `sha256(&HashCore::mining_input(header, nonces[i]))`.
pub fn lane_seeds(header: &[u8], nonces: [u64; NONCE_LANES]) -> [Digest256; NONCE_LANES] {
    let nonce_bytes = nonces.map(u64::to_le_bytes);
    let parts: [[&[u8]; 2]; NONCE_LANES] =
        std::array::from_fn(|lane| [header, nonce_bytes[lane].as_slice()]);
    sha256_x4_parts(parts.each_ref().map(|lane| lane.as_slice()))
}

/// Configuration of a [`HashCore`] instance.
#[derive(Debug, Clone)]
pub struct HashCoreConfig {
    /// The reference performance profile widgets are generated against
    /// (the paper uses SPEC CPU 2017 Leela; `hashcore-workloads` derives the
    /// equivalent profile from its Go-engine kernel).
    pub profile: PerformanceProfile,
    /// Widget-generator tuning.
    pub generator: GeneratorConfig,
    /// Number of widgets generated and executed sequentially per hash.
    ///
    /// The paper notes (Section IV) that "it is certainly possible that
    /// multiple widgets could be generated for a given input string and
    /// executed sequentially"; values above 1 implement that extension.
    /// Widget `i > 0` is generated from the derived seed
    /// `G(s ‖ i)`, and the second hash gate absorbs every widget's output,
    /// so the Theorem-1 reduction applies unchanged (the whole widget stage
    /// is still a single polynomial-time function of `s`).
    pub widgets_per_hash: usize,
}

impl HashCoreConfig {
    /// A configuration using the given reference profile and default
    /// generator settings.
    pub fn new(profile: PerformanceProfile) -> Self {
        Self {
            profile,
            generator: GeneratorConfig::default(),
            widgets_per_hash: 1,
        }
    }

    /// Sets the number of sequential widgets per hash.
    ///
    /// # Panics
    ///
    /// Panics if `widgets_per_hash` is zero.
    pub fn with_widgets_per_hash(mut self, widgets_per_hash: usize) -> Self {
        assert!(
            widgets_per_hash > 0,
            "at least one widget per hash is required"
        );
        self.widgets_per_hash = widgets_per_hash;
        self
    }
}

/// Error returned by the PoW function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HashCoreError {
    /// The generated widget failed to execute. With a correct generator this
    /// indicates either corruption of the configured profile or a step-limit
    /// breach, and the input cannot be hashed.
    WidgetExecution(ExecError),
}

impl fmt::Display for HashCoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HashCoreError::WidgetExecution(e) => write!(f, "widget execution failed: {e}"),
        }
    }
}

impl std::error::Error for HashCoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HashCoreError::WidgetExecution(e) => Some(e),
        }
    }
}

impl From<ExecError> for HashCoreError {
    fn from(value: ExecError) -> Self {
        HashCoreError::WidgetExecution(value)
    }
}

/// Statistics about the widget stage of one hash evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidgetReport {
    /// Dynamic instructions the widget retired.
    pub dynamic_instructions: u64,
    /// Number of register snapshots emitted.
    pub snapshots: u64,
    /// Size of the widget output in bytes (the paper reports 20–38 kB).
    pub output_bytes: usize,
    /// Number of basic blocks in the generated program.
    pub program_blocks: usize,
}

/// The verifier-cost observation of one PoW evaluation: what re-executing
/// the hash costs a validator, in the paper's Section V accounting —
/// dynamic instructions retired by the widget stage plus the widget output
/// bytes the second hash gate must absorb. Cost-aware difficulty
/// (`hashcore-chain`) normalises these observations against a nominal
/// budget and hardens the target when recent blocks trend
/// expensive-to-verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyCost {
    /// Dynamic instructions the widget stage retired.
    pub instructions: u64,
    /// Widget output bytes absorbed by the second hash gate.
    pub output_bytes: u64,
}

impl VerifyCost {
    /// The nominal (profile-budget) cost of one hash evaluation: 48 Ki
    /// instructions plus 16 KiB of widget output, 2^16 units in total.
    /// Cost-aware difficulty normalises observations against this, so an
    /// evaluation on budget has [`VerifyCost::ratio`] 1.
    pub const NOMINAL: VerifyCost = VerifyCost {
        instructions: 49_152,
        output_bytes: 16_384,
    };

    /// The cost observation of one widget-stage report.
    pub fn from_widget(report: &WidgetReport) -> Self {
        Self {
            instructions: report.dynamic_instructions,
            output_bytes: report.output_bytes as u64,
        }
    }

    /// Scalar cost units: instructions plus output bytes — the two
    /// verifier expenses the paper's cost model accounts per hash.
    pub fn units(&self) -> u64 {
        self.instructions.saturating_add(self.output_bytes)
    }

    /// This observation's cost relative to `nominal` (1.0 = on budget).
    pub fn ratio(&self, nominal: VerifyCost) -> f64 {
        self.units() as f64 / (nominal.units().max(1)) as f64
    }
}

/// The result of one HashCore evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashCoreOutput {
    /// The final digest `H(x) = G(s ‖ W(s))`.
    pub digest: Digest256,
    /// The hash seed `s = G(x)` (also the widget-generation seed).
    pub seed: HashSeed,
    /// Widget-stage statistics.
    pub widget: WidgetReport,
}

/// Reusable per-evaluation state for the PoW hot path.
///
/// One hash evaluation noises the profile, generates a widget, pre-decodes
/// it and executes it; this scratch owns reusable storage for **every** one
/// of those stages — the generation scratch (program builder and
/// bookkeeping), the generated widget itself (program blocks, target
/// profile), the prepared program's slot array, and the execution buffers
/// (machine state, output, trace) — so the whole generate→prepare→execute
/// chain stops allocating once the buffers reach steady-state size. Each
/// mining or verification worker owns exactly one scratch; scratches are
/// never shared between threads.
#[derive(Debug, Clone, Default)]
pub struct HashScratch {
    pipeline: PipelineScratch,
    /// Set once every buffer has been pre-sized to the generator's
    /// worst-case bounds (first `hash_with_scratch` call), after which the
    /// pipeline performs no heap allocation at all.
    warmed: bool,
}

impl HashScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The result of a successful mining search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningResult {
    /// The nonce that met the target.
    pub nonce: u64,
    /// The winning digest.
    pub digest: Digest256,
    /// Number of nonces evaluated (including the winner).
    pub attempts: u64,
}

/// A resumable nonce search over a fixed header and target.
///
/// [`HashCore::mine`] scans a range in one call; a simulated miner instead
/// interleaves with other nodes, evaluating a bounded slice of nonces per
/// scheduler tick. A session owns the per-worker state — one [`HashScratch`]
/// and one [`MiningInput`] — and remembers where the scan stopped, so
/// repeated [`MiningSession::step`] calls cover exactly the nonces a single
/// [`HashCore::mine`] call would, with the same zero-allocation steady
/// state.
#[derive(Debug, Clone)]
pub struct MiningSession {
    scratch: HashScratch,
    input: MiningInput,
    target: Target,
    start: u64,
    scanned: u64,
}

impl MiningSession {
    /// Starts a search over nonces `start..` of `header` against `target`.
    pub fn new(header: &[u8], target: Target, start: u64) -> Self {
        Self {
            scratch: HashScratch::new(),
            input: MiningInput::new(header),
            target,
            start,
            scanned: 0,
        }
    }

    /// Number of nonces evaluated so far across all steps.
    pub fn attempts(&self) -> u64 {
        self.scanned
    }

    /// Evaluates up to `budget` further nonces.
    ///
    /// Returns `Ok(Some(..))` as soon as a nonce meets the target — with
    /// `attempts` counting every nonce this session has evaluated, exactly
    /// as the equivalent single [`HashCore::mine`] call would report — and
    /// `Ok(None)` when the budget is exhausted without a hit (call `step`
    /// again to resume). Stepping past a hit resumes the scan at the next
    /// nonce.
    ///
    /// The nonces run through [`MiningInput::scan`] with
    /// [`HashCore::first_hit_in_lanes`] as the lane hook.
    ///
    /// # Errors
    ///
    /// Propagates widget-execution failures; a failed step leaves the
    /// session where the step began.
    pub fn step(
        &mut self,
        pow: &HashCore,
        budget: u64,
    ) -> Result<Option<MiningResult>, HashCoreError> {
        let first = self.start.wrapping_add(self.scanned);
        let hit = pow.scan(
            &mut self.input,
            self.target,
            first,
            budget,
            &mut self.scratch,
        )?;
        let Some((nonce, digest)) = hit else {
            self.scanned += budget;
            return Ok(None);
        };
        self.scanned += nonce.wrapping_sub(first) + 1;
        Ok(Some(MiningResult {
            nonce,
            digest,
            attempts: self.scanned,
        }))
    }
}

/// A reusable mining-input buffer holding `header ‖ nonce`, with the 8-byte
/// little-endian nonce overwritten in place per attempt — the mining and
/// verification loops build their input once instead of allocating a fresh
/// `Vec` per nonce (what [`HashCore::mining_input`] would do).
#[derive(Debug, Clone, Default)]
pub struct MiningInput {
    buffer: Vec<u8>,
}

impl MiningInput {
    /// Creates a buffer for `header` with a zero nonce.
    pub fn new(header: &[u8]) -> Self {
        let mut input = Self::default();
        input.set_header(header);
        input
    }

    /// Replaces the header, reusing the buffer's allocation (the nonce
    /// resets to zero). Batch verifiers call this once per block instead of
    /// building a fresh input.
    pub fn set_header(&mut self, header: &[u8]) {
        self.buffer.clear();
        self.buffer.extend_from_slice(header);
        self.buffer.extend_from_slice(&0u64.to_le_bytes());
    }

    /// Writes `nonce` into the buffer tail and returns the full input,
    /// byte-identical to [`HashCore::mining_input`]`(header, nonce)`.
    ///
    /// A default-constructed buffer with no header set behaves as if the
    /// header were empty.
    pub fn with_nonce(&mut self, nonce: u64) -> &[u8] {
        if self.buffer.len() < 8 {
            self.set_header(b"");
        }
        let tail = self.buffer.len() - 8;
        self.buffer[tail..].copy_from_slice(&nonce.to_le_bytes());
        &self.buffer
    }

    /// The header portion of the buffer — everything except the 8-byte nonce
    /// tail. Lane hooks pass this to [`lane_seeds`], which appends each
    /// lane's nonce itself instead of overwriting the tail in place.
    ///
    /// A default-constructed buffer with no header set behaves as if the
    /// header were empty, matching [`MiningInput::with_nonce`].
    pub fn header_bytes(&self) -> &[u8] {
        match self.buffer.len().checked_sub(8) {
            Some(tail) => &self.buffer[..tail],
            None => b"",
        }
    }

    /// The one nonce-scan loop: scans `attempts` nonces of this buffer's
    /// header from `start` and returns the first `(nonce, digest)` meeting
    /// `target`.
    ///
    /// Attempt `k` evaluates nonce `start.wrapping_add(k)`, so the scan
    /// wraps through `u64::MAX` to `0` and never revisits a nonce within one
    /// call; a caller resuming an unfinished scan passes
    /// `start.wrapping_add(attempts)`. Each full batch of [`NONCE_LANES`]
    /// consecutive nonces goes to `lanes`, which returns the first of them
    /// whose digest meets the target (evaluating lanes in nonce order, as
    /// far as the first hit). The `attempts % NONCE_LANES` remainder is
    /// hashed one nonce at a time by `single` over the full
    /// `header ‖ nonce` input. Both closures share `scratch`; the first
    /// error either returns ends the scan.
    ///
    /// # Errors
    ///
    /// Returns the first error of `lanes` or `single`.
    pub fn scan<S, E>(
        &mut self,
        target: Target,
        start: u64,
        attempts: u64,
        scratch: &mut S,
        mut lanes: impl FnMut(
            &mut Self,
            [u64; NONCE_LANES],
            &mut S,
        ) -> Result<Option<(u64, Digest256)>, E>,
        mut single: impl FnMut(&[u8], &mut S) -> Result<Digest256, E>,
    ) -> Result<Option<(u64, Digest256)>, E> {
        let mut done = 0;
        while attempts - done >= NONCE_LANES as u64 {
            let base = start.wrapping_add(done);
            let nonces = std::array::from_fn(|lane| base.wrapping_add(lane as u64));
            if let Some(hit) = lanes(self, nonces, scratch)? {
                return Ok(Some(hit));
            }
            done += NONCE_LANES as u64;
        }
        for offset in done..attempts {
            let nonce = start.wrapping_add(offset);
            let digest = single(self.with_nonce(nonce), scratch)?;
            if target.is_met_by(&digest) {
                return Ok(Some((nonce, digest)));
            }
        }
        Ok(None)
    }
}

/// The HashCore Proof-of-Work function.
///
/// See the crate-level documentation for the construction. The struct is
/// cheap to clone; each [`HashCore::hash`] call is a full PoW evaluation
/// (hash gate → widget generation → widget execution → hash gate).
#[derive(Debug, Clone)]
pub struct HashCore {
    generator: WidgetGenerator,
    widgets_per_hash: usize,
}

impl HashCore {
    /// Creates a HashCore instance targeting `profile` with default settings.
    pub fn new(profile: PerformanceProfile) -> Self {
        Self::with_config(HashCoreConfig::new(profile))
    }

    /// Creates a HashCore instance from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests zero widgets per hash.
    pub fn with_config(config: HashCoreConfig) -> Self {
        assert!(
            config.widgets_per_hash > 0,
            "at least one widget per hash is required"
        );
        Self {
            generator: WidgetGenerator::with_config(config.profile, config.generator),
            widgets_per_hash: config.widgets_per_hash,
        }
    }

    /// The widget generator used by this instance.
    pub fn generator(&self) -> &WidgetGenerator {
        &self.generator
    }

    /// Number of widgets generated and executed per hash evaluation.
    pub fn widgets_per_hash(&self) -> usize {
        self.widgets_per_hash
    }

    /// Evaluates `H(input)`, returning the digest and widget statistics.
    ///
    /// # Errors
    ///
    /// Returns [`HashCoreError::WidgetExecution`] if a generated widget
    /// fails to execute within its step limit.
    pub fn hash(&self, input: &[u8]) -> Result<HashCoreOutput, HashCoreError> {
        self.hash_with_scratch(input, &mut HashScratch::new())
    }

    /// Evaluates `H(input)` using reusable scratch state.
    ///
    /// Identical to [`HashCore::hash`] — same digest, byte for byte — but
    /// the widget is pre-decoded into and executed from `scratch`, so a
    /// caller evaluating many inputs (every miner) allocates nothing per
    /// hash once the scratch buffers reach steady-state size.
    ///
    /// # Errors
    ///
    /// Returns [`HashCoreError::WidgetExecution`] if a generated widget
    /// fails to execute within its step limit.
    pub fn hash_with_scratch(
        &self,
        input: &[u8],
        scratch: &mut HashScratch,
    ) -> Result<HashCoreOutput, HashCoreError> {
        // First hash gate: s = G(x).
        self.hash_from_seed(HashSeed::new(sha256(input)), scratch)
    }

    /// The widget stage and second hash gate from an already-computed
    /// first-gate output `s = G(x)`: the tail of
    /// [`HashCore::hash_with_scratch`], entered directly by the lane paths,
    /// which compute the first gate four lanes at a time.
    fn hash_from_seed(
        &self,
        seed: HashSeed,
        scratch: &mut HashScratch,
    ) -> Result<HashCoreOutput, HashCoreError> {
        // One-time pre-sizing to the generator's worst-case bounds: the
        // seed noise is capped, so the largest program, memory image and
        // output any seed can produce are known up front (the generation
        // scratch primes itself the same way on its first use). After this,
        // no nonce — however its widget is shaped — grows a buffer.
        if !scratch.warmed {
            scratch.warmed = true;
            let bounds = self.generator.bounds();
            let pipeline = &mut scratch.pipeline;
            pipeline.widget.program.reserve_blocks(bounds.max_blocks);
            pipeline.prepared.prime(
                bounds.max_blocks * (bounds.max_block_len + 1),
                bounds.max_blocks,
            );
            pipeline
                .exec
                .prime(bounds.max_memory_bytes, bounds.max_output_bytes);
        }

        // Widget generation and execution: w_i = W(seed_i), where seed_0 = s
        // and seed_i = G(s ‖ i) for the sequential-widget extension. The
        // second hash gate absorbs the seed and every widget output.
        let mut gate = Sha256::new();
        gate.update(seed.as_bytes());
        let mut report = WidgetReport {
            dynamic_instructions: 0,
            snapshots: 0,
            output_bytes: 0,
            program_blocks: 0,
        };
        for index in 0..self.widgets_per_hash {
            let widget_seed = if index == 0 {
                seed
            } else {
                let mut derivation = Sha256::new();
                derivation.update(seed.as_bytes());
                derivation.update(&(index as u64).to_le_bytes());
                HashSeed::new(derivation.finalize())
            };
            let stats = scratch
                .pipeline
                .run(&self.generator, &widget_seed, false)
                .map_err(HashCoreError::from)?;
            gate.update(scratch.pipeline.exec.output());
            report.dynamic_instructions += stats.dynamic_instructions;
            report.snapshots += stats.snapshot_count;
            report.output_bytes += scratch.pipeline.exec.output().len();
            report.program_blocks += scratch.pipeline.widget.program.blocks().len();
        }

        // Second hash gate: H(x) = G(s ‖ w_0 ‖ … ‖ w_{k-1}).
        let digest = gate.finalize();

        Ok(HashCoreOutput {
            digest,
            seed,
            widget: report,
        })
    }

    /// Evaluates `H(header ‖ nonce)` for [`NONCE_LANES`] nonces sharing one
    /// header, running the first hash gate four lanes at a time.
    ///
    /// Lane `i`'s result is byte-identical to
    /// [`HashCore::hash_with_scratch`] over
    /// [`HashCore::mining_input`]`(header, nonces[i])`: the seeds come out
    /// of one [`lane_seeds`] pass, and the widget stage plus second gate
    /// then run per lane out of the single shared `scratch` — widget
    /// outputs differ in shape per seed, so those stages stay sequential
    /// while the fixed-shape gate is where the lanes pay off. Nothing here
    /// allocates once the scratch is warm. Every lane is evaluated; a scan
    /// that stops at its first hit uses [`HashCore::first_hit_in_lanes`].
    ///
    /// # Errors
    ///
    /// Each lane carries its own `Result`, so a caller scanning lanes in
    /// nonce order observes exactly what the equivalent sequential scan
    /// would: a hit in lane `i` is visible even if lane `j > i` fails.
    /// Once a lane fails, later lanes are not evaluated and report a clone
    /// of the same error (the sequential scan would never have reached
    /// them).
    pub fn hash_nonce_batch_with_scratch(
        &self,
        header: &[u8],
        nonces: [u64; NONCE_LANES],
        scratch: &mut HashScratch,
    ) -> [Result<HashCoreOutput, HashCoreError>; NONCE_LANES] {
        let seeds = lane_seeds(header, nonces);
        let mut first_error: Option<HashCoreError> = None;
        std::array::from_fn(|lane| {
            if let Some(error) = &first_error {
                return Err(error.clone());
            }
            self.hash_from_seed(HashSeed::new(seeds[lane]), scratch)
                .inspect_err(|error| first_error = Some(error.clone()))
        })
    }

    /// The lane hook of every HashCore nonce scan: the first of `nonces`
    /// (consecutive nonces of `header`) whose digest meets `target`.
    ///
    /// The first hash gate runs four lanes wide ([`lane_seeds`]); each
    /// lane's widget stage and second gate run only while no earlier lane
    /// has met the target, so a hit in lane `i` costs `i + 1` widget
    /// stages. Digests are byte-identical to [`HashCore::hash_with_scratch`]
    /// over [`HashCore::mining_input`]`(header, nonce)`.
    ///
    /// # Errors
    ///
    /// Returns the first widget-execution failure among the lanes
    /// evaluated.
    pub fn first_hit_in_lanes(
        &self,
        header: &[u8],
        nonces: [u64; NONCE_LANES],
        target: Target,
        scratch: &mut HashScratch,
    ) -> Result<Option<(u64, Digest256)>, HashCoreError> {
        for (nonce, seed) in nonces.into_iter().zip(lane_seeds(header, nonces)) {
            let digest = self.hash_from_seed(HashSeed::new(seed), scratch)?.digest;
            if target.is_met_by(&digest) {
                return Ok(Some((nonce, digest)));
            }
        }
        Ok(None)
    }

    /// [`MiningInput::scan`] with this function's lane hook: the scan of
    /// [`MiningSession::step`] and of every [`HashCore::mine_parallel`]
    /// worker.
    fn scan(
        &self,
        input: &mut MiningInput,
        target: Target,
        start: u64,
        attempts: u64,
        scratch: &mut HashScratch,
    ) -> Result<Option<(u64, Digest256)>, HashCoreError> {
        input.scan(
            target,
            start,
            attempts,
            scratch,
            |input, nonces, scratch| {
                self.first_hit_in_lanes(input.header_bytes(), nonces, target, scratch)
            },
            |input, scratch| Ok(self.hash_with_scratch(input, scratch)?.digest),
        )
    }

    /// Builds the canonical mining input for a header and nonce.
    pub fn mining_input(header: &[u8], nonce: u64) -> Vec<u8> {
        let mut input = Vec::with_capacity(header.len() + 8);
        input.extend_from_slice(header);
        input.extend_from_slice(&nonce.to_le_bytes());
        input
    }

    /// Searches nonces `start..start + max_attempts` for a digest meeting
    /// `target`.
    ///
    /// This is a single-shot [`MiningSession`]: callers that need to
    /// interleave the search with other work (the network simulation's
    /// nodes) hold a session and spend the budget in slices. Verifying a
    /// mined nonce is evaluating [`HashCore::hash`] over
    /// [`HashCore::mining_input`] again and checking the target.
    ///
    /// # Errors
    ///
    /// Propagates widget-execution failures; returns `Ok(None)` if no nonce
    /// in the range qualifies.
    pub fn mine(
        &self,
        header: &[u8],
        target: Target,
        start: u64,
        max_attempts: u64,
    ) -> Result<Option<MiningResult>, HashCoreError> {
        MiningSession::new(header, target, start).step(self, max_attempts)
    }

    /// Searches nonces `start..start + max_attempts` for a digest meeting
    /// `target`, sharding the nonce space across `threads` OS threads.
    ///
    /// Workers claim consecutive ranges of [`NONCE_LANES`] offsets in
    /// increasing order and scan each with the same loop as
    /// [`HashCore::mine`], each out of its own [`HashScratch`]. An atomic
    /// cutoff stops every worker as soon as no lower qualifying nonce can
    /// remain unscanned. The result is **deterministic and identical to
    /// [`HashCore::mine`]**: the lowest qualifying nonce in the range wins
    /// regardless of thread scheduling, and `attempts` reports the same
    /// count the sequential search would.
    ///
    /// # Errors
    ///
    /// Propagates widget-execution failures exactly as the sequential
    /// search would (an error at offset `e` is reported only if no nonce
    /// below `e` qualifies); returns `Ok(None)` if no nonce in the range
    /// qualifies.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, or if a mining worker thread panics.
    pub fn mine_parallel(
        &self,
        header: &[u8],
        target: Target,
        start: u64,
        max_attempts: u64,
        threads: usize,
    ) -> Result<Option<MiningResult>, HashCoreError> {
        assert!(threads > 0, "mine_parallel requires at least one thread");
        // A worker per nonce is the most the range can use; surplus threads
        // would spawn only to exit immediately.
        let threads = threads.min(usize::try_from(max_attempts).unwrap_or(usize::MAX));
        if threads <= 1 {
            return self.mine(header, target, start, max_attempts);
        }

        // `next` hands out range starts; it publishes no other data. The
        // cutoff is the lowest decisive offset found so far: a hit's own
        // offset, or the start of a range whose scan failed (ranges are
        // disjoint and each scan stops at its first decisive nonce, so the
        // range start orders a failure correctly against every other
        // range). No range at or past the cutoff is claimed, and every
        // range below the final cutoff is scanned to its end.
        let next = AtomicU64::new(0);
        let cutoff = AtomicU64::new(max_attempts);
        type Outcome = (u64, Result<(u64, Digest256), HashCoreError>);

        let outcomes: Vec<Option<Outcome>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = HashScratch::new();
                        let mut input = MiningInput::new(header);
                        loop {
                            let offset = next.fetch_add(NONCE_LANES as u64, Ordering::Relaxed);
                            let limit = cutoff.load(Ordering::Acquire);
                            if offset >= limit {
                                return None;
                            }
                            let attempts = (limit - offset).min(NONCE_LANES as u64);
                            let first = start.wrapping_add(offset);
                            let outcome = match self.scan(
                                &mut input,
                                target,
                                first,
                                attempts,
                                &mut scratch,
                            ) {
                                Ok(None) => continue,
                                Ok(Some((nonce, digest))) => {
                                    (nonce.wrapping_sub(start), Ok((nonce, digest)))
                                }
                                Err(error) => (offset, Err(error)),
                            };
                            cutoff.fetch_min(outcome.0, Ordering::AcqRel);
                            return Some(outcome);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("mining worker panicked"))
                .collect()
        });

        // The decisive outcome with the lowest offset is exactly what the
        // sequential scan would have hit first.
        let winner = outcomes
            .into_iter()
            .flatten()
            .min_by_key(|(offset, _)| *offset);
        match winner {
            None => Ok(None),
            Some((offset, Ok((nonce, digest)))) => Ok(Some(MiningResult {
                nonce,
                digest,
                attempts: offset + 1,
            })),
            Some((_, Err(error))) => Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashcore_vm::Executor;

    fn fast_pow() -> HashCore {
        let mut profile = PerformanceProfile::leela_like();
        profile.target_dynamic_instructions = 4_000;
        HashCore::new(profile)
    }

    #[test]
    fn hashing_is_deterministic_and_input_sensitive() {
        let pow = fast_pow();
        let a = pow.hash(b"input-a").unwrap();
        let b = pow.hash(b"input-a").unwrap();
        let c = pow.hash(b"input-b").unwrap();
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn seed_is_first_gate_output() {
        let pow = fast_pow();
        let out = pow.hash(b"header").unwrap();
        assert_eq!(*out.seed.as_bytes(), sha256(b"header"));
    }

    #[test]
    fn digest_matches_manual_composition() {
        // H(x) must literally equal G(s || W(s)).
        let pow = fast_pow();
        let input = b"manual-composition-check";
        let out = pow.hash(input).unwrap();

        let seed = HashSeed::new(sha256(input));
        let widget = pow.generator().generate(&seed);
        let exec = Executor::new(widget.exec_config())
            .execute(&widget.program)
            .unwrap();
        let mut gate = Sha256::new();
        gate.update(seed.as_bytes());
        gate.update(&exec.output);
        assert_eq!(out.digest, gate.finalize());
        assert_eq!(out.widget.output_bytes, exec.output.len());
    }

    #[test]
    fn widget_report_is_populated() {
        let out = fast_pow().hash(b"report").unwrap();
        assert!(out.widget.dynamic_instructions > 1_000);
        assert!(out.widget.snapshots >= 1);
        assert_eq!(out.widget.output_bytes % hashcore_vm::SNAPSHOT_BYTES, 0);
        assert!(out.widget.program_blocks > 3);
    }

    #[test]
    fn mining_finds_and_verifies_a_nonce_on_an_easy_target() {
        let pow = fast_pow();
        let target = Target::from_leading_zero_bits(2); // 1 in 4 digests
        let result = pow
            .mine(b"block-42", target, 0, 64)
            .unwrap()
            .expect("an easy target should be met within 64 nonces");
        assert!(target.is_met_by(&result.digest));
        // Verification is re-evaluation over the same header and nonce.
        let input = HashCore::mining_input(b"block-42", result.nonce);
        assert_eq!(pow.hash(&input).unwrap().digest, result.digest);
        // A harder target rejects the same digest.
        assert!(!Target::from_leading_zero_bits(255).is_met_by(&result.digest));
    }

    #[test]
    fn mining_respects_attempt_budget() {
        let pow = fast_pow();
        // An absurdly hard target cannot be met in 3 attempts.
        let result = pow
            .mine(b"hard", Target::from_leading_zero_bits(128), 0, 3)
            .unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn sequential_widgets_extension_behaves_like_a_longer_widget_stage() {
        let mut profile = PerformanceProfile::leela_like();
        profile.target_dynamic_instructions = 3_000;
        let single = HashCore::with_config(HashCoreConfig::new(profile.clone()));
        let double = HashCore::with_config(HashCoreConfig::new(profile).with_widgets_per_hash(2));
        assert_eq!(double.widgets_per_hash(), 2);

        let a = single.hash(b"multi-widget").unwrap();
        let b = double.hash(b"multi-widget").unwrap();
        // Same first gate, different overall digest, roughly doubled work.
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.digest, b.digest);
        assert!(b.widget.dynamic_instructions > a.widget.dynamic_instructions);
        assert!(b.widget.output_bytes > a.widget.output_bytes);
        // Still deterministic.
        assert_eq!(double.hash(b"multi-widget").unwrap().digest, b.digest);
    }

    #[test]
    #[should_panic(expected = "at least one widget")]
    fn zero_widgets_per_hash_is_rejected() {
        let _ = HashCoreConfig::new(PerformanceProfile::leela_like()).with_widgets_per_hash(0);
    }

    #[test]
    fn scratch_path_is_bit_identical_to_fresh_hashing() {
        let pow = fast_pow();
        let mut scratch = HashScratch::new();
        // One scratch serves a stream of different inputs (the mining
        // usage); every digest and report must match the fresh path.
        for input in [b"a".as_ref(), b"b".as_ref(), b"".as_ref(), b"a".as_ref()] {
            let fresh = pow.hash(input).unwrap();
            let reused = pow.hash_with_scratch(input, &mut scratch).unwrap();
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn nonce_batch_matches_scalar_hashing() {
        let pow = fast_pow();
        let mut scratch = HashScratch::new();
        for (header, base) in [
            (b"batch-header".as_ref(), 0u64),
            (b"".as_ref(), 17),
            (
                b"a-longer-header-spanning-a-block-boundary-soon!".as_ref(),
                9,
            ),
            (b"wrap".as_ref(), u64::MAX - 1),
        ] {
            let nonces: [u64; NONCE_LANES] =
                std::array::from_fn(|lane| base.wrapping_add(lane as u64));
            let batch = pow.hash_nonce_batch_with_scratch(header, nonces, &mut scratch);
            for (nonce, result) in nonces.into_iter().zip(batch) {
                let scalar = pow.hash(&HashCore::mining_input(header, nonce)).unwrap();
                assert_eq!(result.unwrap(), scalar, "header {header:?} nonce {nonce}");
            }
        }
    }

    #[test]
    fn header_bytes_is_the_buffer_minus_the_nonce_tail() {
        let mut input = MiningInput::new(b"some header");
        assert_eq!(input.header_bytes(), b"some header");
        input.with_nonce(u64::MAX);
        assert_eq!(input.header_bytes(), b"some header");
        input.set_header(b"");
        assert_eq!(input.header_bytes(), b"");
        assert_eq!(MiningInput::default().header_bytes(), b"");
    }

    #[test]
    fn mining_input_buffer_matches_the_allocating_form() {
        let mut input = MiningInput::new(b"abc");
        assert_eq!(input.with_nonce(5), HashCore::mining_input(b"abc", 5));
        input.set_header(b"longer header");
        assert_eq!(
            input.with_nonce(u64::MAX),
            HashCore::mining_input(b"longer header", u64::MAX)
        );
        input.set_header(b"");
        assert_eq!(input.with_nonce(1), HashCore::mining_input(b"", 1));
        // A default-constructed buffer behaves as if the header were empty
        // instead of panicking on the missing nonce tail.
        assert_eq!(
            MiningInput::default().with_nonce(3),
            HashCore::mining_input(b"", 3)
        );
    }

    #[test]
    fn stepped_mining_session_matches_single_shot_mining() {
        let pow = fast_pow();
        let target = Target::from_leading_zero_bits(3);
        let single = pow.mine(b"session-block", target, 10, 96).unwrap();
        assert!(single.is_some(), "an easy target is met within 96 nonces");
        // The same search spent in uneven slices finds the same nonce and
        // reports the same attempt count.
        for slice in [1u64, 7, 30] {
            let mut session = MiningSession::new(b"session-block", target, 10);
            let mut found = None;
            let mut budget = 96u64;
            while budget > 0 && found.is_none() {
                let step = slice.min(budget);
                found = session.step(&pow, step).unwrap();
                budget -= step;
            }
            assert_eq!(found, single, "slice {slice}");
            assert_eq!(session.attempts(), single.as_ref().unwrap().attempts);
        }
    }

    #[test]
    fn mining_session_resumes_past_a_hit() {
        let pow = fast_pow();
        let target = Target::from_leading_zero_bits(2);
        let mut session = MiningSession::new(b"resume-block", target, 0);
        let first = session.step(&pow, 256).unwrap().expect("easy target");
        let second = session.step(&pow, 256).unwrap().expect("easy target");
        assert!(second.nonce > first.nonce);
        assert!(second.attempts > first.attempts);
        // The second hit is what a fresh search starting past the first
        // winner would find.
        let fresh = pow
            .mine(b"resume-block", target, first.nonce + 1, 256)
            .unwrap()
            .expect("easy target");
        assert_eq!(second.nonce, fresh.nonce);
        assert_eq!(second.digest, fresh.digest);
    }

    #[test]
    fn parallel_mining_matches_sequential_mining() {
        let pow = fast_pow();
        let target = Target::from_leading_zero_bits(3);
        let sequential = pow.mine(b"parallel-block", target, 0, 96).unwrap();
        assert!(
            sequential.is_some(),
            "an easy target is met within 96 nonces"
        );
        for threads in [1usize, 2, 3, 4] {
            let parallel = pow
                .mine_parallel(b"parallel-block", target, 0, 96, threads)
                .unwrap();
            assert_eq!(parallel, sequential, "{threads} threads");
        }
    }

    #[test]
    fn parallel_mining_respects_attempt_budget() {
        let pow = fast_pow();
        let result = pow
            .mine_parallel(b"hard", Target::from_leading_zero_bits(128), 0, 6, 3)
            .unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn parallel_mining_with_nonzero_start_finds_the_lowest_nonce() {
        let pow = fast_pow();
        let target = Target::from_leading_zero_bits(2);
        let sequential = pow.mine(b"offset-block", target, 1_000, 64).unwrap();
        let parallel = pow
            .mine_parallel(b"offset-block", target, 1_000, 64, 4)
            .unwrap();
        assert_eq!(parallel, sequential);
        assert!(parallel.unwrap().nonce >= 1_000);
    }

    /// `mine` and `mine_parallel` at every thread count find the first hit
    /// of a per-nonce enumeration, with its attempt count, for starts that
    /// wrap through `u64::MAX`, budgets on both sides of the lane width and
    /// targets from every nonce hitting to none.
    #[test]
    fn mining_matches_a_per_nonce_reference_across_the_wrap() {
        let pow = fast_pow();
        let header = b"reference-block";
        for start in [0u64, u64::MAX - 5] {
            let digests: Vec<Digest256> = (0..11u64)
                .map(|k| {
                    let input = HashCore::mining_input(header, start.wrapping_add(k));
                    pow.hash(&input).unwrap().digest
                })
                .collect();
            for bits in [0u32, 2, 255] {
                let target = Target::from_leading_zero_bits(bits);
                for attempts in [1u64, 3, 4, 7, 11] {
                    let expected = digests[..attempts as usize]
                        .iter()
                        .position(|digest| target.is_met_by(digest))
                        .map(|k| MiningResult {
                            nonce: start.wrapping_add(k as u64),
                            digest: digests[k],
                            attempts: k as u64 + 1,
                        });
                    let case = format!("start {start} bits {bits} attempts {attempts}");
                    assert_eq!(
                        pow.mine(header, target, start, attempts).unwrap(),
                        expected,
                        "{case}"
                    );
                    for threads in [2usize, 3] {
                        let parallel = pow
                            .mine_parallel(header, target, start, attempts, threads)
                            .unwrap();
                        assert_eq!(parallel, expected, "{case} threads {threads}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_mining_threads_rejected() {
        let _ = fast_pow().mine_parallel(b"x", Target::from_leading_zero_bits(1), 0, 4, 0);
    }

    #[test]
    fn avalanche_between_adjacent_nonces() {
        let pow = fast_pow();
        let a = pow.hash(&HashCore::mining_input(b"hdr", 1)).unwrap().digest;
        let b = pow.hash(&HashCore::mining_input(b"hdr", 2)).unwrap().digest;
        let differing: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!(differing > 64, "only {differing} bits differ");
    }
}
