//! Stage-by-stage replay of one HashCore evaluation for the traced runs.
//!
//! `HashCore` runs gate 1, seed noise, widget generation, prepare, execute
//! and gate 2 inside one call. The replay calls each stage's public function
//! in turn — `profile::apply_seed_into`, `WidgetGenerator::generate_into`,
//! `PreparedProgram::prepare`, `Executor::execute_prepared`, a `Sha256` gate —
//! with a span around each, and the caller asserts that the digest it
//! produces equals the one the API returned.

use crate::common::Outcome;
use crate::stats::percentile_of;
use crate::trace::{SpanId, Tracer};
use hashcore::HashCore;
use hashcore_crypto::{Digest256, Sha256};
use hashcore_gen::PipelineScratch;
use hashcore_profile::{apply_seed_into, HashSeed, SeededProfile};
use hashcore_vm::{ExecConfig, ExecError, Executor};

/// Span names of the per-hash stages, in pipeline order.
pub const GATE1: &str = "crypto.gate1";
pub const NOISE: &str = "profile.noise";
pub const GENERATE: &str = "gen.generate";
pub const PREPARE: &str = "vm.prepare";
pub const EXECUTE: &str = "vm.execute";
pub const GATE2: &str = "crypto.gate2";
/// The span around one whole replayed hash.
pub const HASH: &str = "core.hash";

/// Largest share of the API's per-hash time the replayed stages may leave
/// unaccounted.
pub const RECONCILE_SHARE: f64 = 0.10;

/// Reusable state of the replay, primed the way `HashScratch` primes itself
/// so the replayed stages do the same work as the API's.
pub struct StageReplay<'a> {
    pow: &'a HashCore,
    pipeline: PipelineScratch,
    seeded: SeededProfile,
    /// Per-hash counts summed over every replayed hash.
    dyn_instructions: u64,
    output_bytes: u64,
    program_blocks: u64,
    static_instructions: u64,
    hashes: u64,
}

impl<'a> StageReplay<'a> {
    pub fn new(pow: &'a HashCore) -> Self {
        assert_eq!(
            pow.widgets_per_hash(),
            1,
            "the replay models one widget per hash"
        );
        let bounds = pow.generator().bounds();
        let mut pipeline = PipelineScratch::new();
        pipeline.widget.program.reserve_blocks(bounds.max_blocks);
        pipeline.prepared.prime(
            bounds.max_blocks * (bounds.max_block_len + 1),
            bounds.max_blocks,
        );
        pipeline
            .exec
            .prime(bounds.max_memory_bytes, bounds.max_output_bytes);
        StageReplay {
            pow,
            pipeline,
            seeded: SeededProfile::default(),
            dyn_instructions: 0,
            output_bytes: 0,
            program_blocks: 0,
            static_instructions: 0,
            hashes: 0,
        }
    }

    /// Replays everything after gate 1 for `seed`, with one span per stage
    /// under `hash_span`, and returns the digest.
    pub fn after_gate1(
        &mut self,
        tracer: &mut Tracer,
        hash_span: SpanId,
        request: u64,
        seed: HashSeed,
    ) -> Result<Digest256, ExecError> {
        let pow: &HashCore = self.pow;
        let generator = pow.generator();
        let StageReplay {
            pipeline, seeded, ..
        } = self;
        let parent = Some(hash_span);
        // `generate_into` noises the profile itself; noise is timed on its
        // own here, and subtracted from generation when the ledger is built.
        tracer.span(NOISE, parent, request, || {
            apply_seed_into(
                generator.base_profile(),
                &seed,
                &generator.config().noise,
                seeded,
            )
        });
        tracer.span(GENERATE, parent, request, || {
            generator.generate_into(&seed, &mut pipeline.gen, &mut pipeline.widget)
        });
        tracer.span(PREPARE, parent, request, || {
            pipeline.prepared.prepare(&pipeline.widget.program)
        })?;
        let executor = Executor::new(ExecConfig {
            collect_trace: false,
            ..pipeline.widget.exec_config()
        });
        let stats = tracer.span(EXECUTE, parent, request, || {
            executor.execute_prepared(&pipeline.prepared, &mut pipeline.exec)
        })?;
        let digest = tracer.span(GATE2, parent, request, || {
            let mut gate = Sha256::new();
            gate.update(seed.as_bytes());
            gate.update(pipeline.exec.output());
            gate.finalize()
        });

        let program = &pipeline.widget.program;
        let blocks = program.blocks().len() as u64;
        self.dyn_instructions += stats.dynamic_instructions;
        self.output_bytes += pipeline.exec.output().len() as u64;
        self.program_blocks += blocks;
        // Every block has one terminator slot; the rest are instructions.
        self.static_instructions += u64::from(program.pc_slot_count()) - blocks;
        self.hashes += 1;
        Ok(digest)
    }

    /// Adds the per-hash stage ledger to `outcome`: each stage's summed
    /// span time over every replayed hash (a 4-lane gate-1 span serves four
    /// hashes). `api_hash_ns` is the per-hash time the untraced API phase
    /// measured; the stages must add up to it within [`RECONCILE_SHARE`].
    pub fn ledger(&self, tracer: &Tracer, api_hash_ns: f64, outcome: &mut Outcome) {
        let hashes = self.hashes.max(1) as f64;
        let per_hash = |name: &str| tracer.total_ns(name) / hashes;
        let gate1 = per_hash(GATE1);
        let noise = per_hash(NOISE);
        let generate = per_hash(GENERATE) - noise;
        let prepare = per_hash(PREPARE);
        let execute = per_hash(EXECUTE);
        let gate2 = per_hash(GATE2);
        let stage_sum = gate1 + generate + noise + prepare + execute + gate2;
        let unaccounted = api_hash_ns - stage_sum;

        outcome.metric("crypto.gate1_ns", gate1);
        outcome.metric("profile.noise_ns", noise);
        outcome.metric("gen.generate_ns", generate);
        outcome.metric("vm.prepare_ns", prepare);
        outcome.metric("vm.execute_ns", execute);
        outcome.metric(
            "vm.execute_ns_p99",
            percentile_of(&tracer.durations(EXECUTE), 99.0),
        );
        outcome.metric("crypto.gate2_ns", gate2);
        outcome.metric("core.hash_ns", api_hash_ns);
        outcome.metric("core.unaccounted_ns", unaccounted);
        outcome.metric("vm.dyn_instructions", self.dyn_instructions as f64 / hashes);
        outcome.metric("vm.output_bytes", self.output_bytes as f64 / hashes);
        outcome.metric("gen.program_blocks", self.program_blocks as f64 / hashes);
        outcome.metric(
            "gen.static_instructions",
            self.static_instructions as f64 / hashes,
        );
        outcome.metric(
            "vm.instructions_per_us",
            self.dyn_instructions as f64 / (tracer.total_ns(EXECUTE) / 1e3),
        );
        // Gate 2 absorbs the 32-byte seed and the widget output.
        outcome.metric(
            "crypto.gate2_bytes_per_us",
            (32 * self.hashes + self.output_bytes) as f64 / (tracer.total_ns(GATE2) / 1e3),
        );
        outcome.check(
            "stages_reconcile",
            unaccounted.abs() <= RECONCILE_SHARE * api_hash_ns,
            format!(
                "stages sum to {stage_sum:.0} ns of {api_hash_ns:.0} ns per hash \
                 ({:+.1}% unaccounted, limit ±{:.0}%)",
                100.0 * unaccounted / api_hash_ns,
                100.0 * RECONCILE_SHARE
            ),
        );
        let share = |ns: f64| 100.0 * ns / stage_sum;
        outcome.notes.push(format!(
            "stage shares: execute {:.1}%, generate {:.1}%, gate2 {:.1}%, prepare {:.1}%, \
             gate1 {:.2}%, noise {:.2}% over {} hashes",
            share(execute),
            share(generate),
            share(gate2),
            share(prepare),
            share(gate1),
            share(noise),
            self.hashes
        ));
    }
}
