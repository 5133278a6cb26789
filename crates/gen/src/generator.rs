//! The seed-driven widget generator.
//!
//! The generator follows the PerfProx recipe the paper adapts (Section IV-B):
//!
//! 1. start from the reference workload's performance profile,
//! 2. fold in the hash seed (Table I): positive noise on the per-class
//!    instruction counts, a perturbation of the branch behaviour, and two
//!    PRNG seeds (basic-block vector, memory),
//! 3. build a control-flow skeleton (an outer loop of *segments*, each a
//!    branch "diamond") whose dynamic branch count, basic-block sizes and
//!    loop trip counts track the profile,
//! 4. fill the blocks with instructions selected to match the noised mix,
//!    with operand selection reproducing the dependency-distance profile and
//!    address generation reproducing the memory profile (strided streams,
//!    pointer chasing, working-set size),
//! 5. instrument the program with register snapshots so the output string
//!    depends on complete execution (irreducibility).

use crate::rng::WidgetRng;
use hashcore_isa::{
    BlockId, BranchCond, FpOp, FpReg, IntAluOp, IntMulOp, IntReg, OpClass, Program, ProgramBuilder,
    Terminator, VecOp, VecReg,
};
use hashcore_profile::{apply_seed_into, HashSeed, NoiseConfig, PerformanceProfile, SeededProfile};
use hashcore_vm::{
    ExecConfig, ExecError, ExecScratch, ExecStats, Executor, PreparedProgram, SNAPSHOT_BYTES,
};

/// Tunable parameters of the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Seed-noise configuration (Table-I noise magnitudes).
    pub noise: NoiseConfig,
    /// Approximate number of dynamic instructions between register
    /// snapshots ("every few thousand instructions", Section V).
    pub snapshot_cadence: u64,
    /// Fraction of diamonds whose branch condition is data-dependent
    /// (hard to predict) as opposed to counter-based (easy to predict),
    /// expressed as a multiplier on the profile's transition rate.
    pub unpredictable_branch_gain: f64,
    /// Lower bound on the program's data segment, in bytes.
    pub min_memory_bytes: usize,
    /// Upper bound on the program's data segment, in bytes.
    pub max_memory_bytes: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            noise: NoiseConfig::default(),
            snapshot_cadence: 2000,
            unpredictable_branch_gain: 1.0,
            min_memory_bytes: 1 << 12,
            max_memory_bytes: 1 << 26,
        }
    }
}

/// Reusable widget-generation state.
///
/// One scratch serves a stream of seeds: the program builder's instruction
/// arena and block table, the per-segment bookkeeping vectors and the
/// class-budget table are all retained between
/// [`WidgetGenerator::generate_into`] calls. The first call sizes them to
/// the generator's [`GenerationBounds`], so generation performs no heap
/// allocation after it. A scratch is the per-worker unit of the mining
/// fan-out (each thread owns exactly one); it is not shared between
/// threads.
#[derive(Debug, Clone, Default)]
pub struct GenScratch {
    builder: ProgramBuilder,
    seg_heads: Vec<BlockId>,
    seg_arms: Vec<(BlockId, BlockId)>,
    diamond_unpredictable: Vec<bool>,
    budget: Vec<(OpClass, f64)>,
    /// Set once the scratch has been pre-sized to the generator's
    /// worst-case [`GenerationBounds`]; the first `generate_into` call does
    /// it, so every later call is allocation-free.
    warmed: bool,
}

impl GenScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Worst-case generation sizes over *every possible seed*, derived from the
/// generator's configuration.
///
/// The Table-I noise is positive-only and capped
/// ([`hashcore_profile::NoiseConfig::max_relative_count_noise`]), so the
/// segment count, block sizes, memory footprint and output size of any
/// widget the generator can ever emit are bounded by arithmetic over the
/// base profile — no seed needs to be sampled. Scratch buffers pre-sized to
/// these bounds never grow again, which is what turns "allocation-free
/// after an empirical warm-up visited the worst case" (an unbounded-tail
/// property) into "allocation-free after the first call" (a guarantee).
/// Every bound is an over-approximation; tightness is not required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationBounds {
    /// Maximum number of basic blocks in a generated program.
    pub max_blocks: usize,
    /// Maximum number of instructions in any single basic block.
    pub max_block_len: usize,
    /// Maximum number of body instructions over all blocks of a program:
    /// the size of the program builder's arena and of the program's.
    pub max_instructions: usize,
    /// Maximum number of diamond segments.
    pub max_segments: usize,
    /// Maximum data-segment size in bytes.
    pub max_memory_bytes: usize,
    /// Maximum widget output size in bytes.
    pub max_output_bytes: usize,
}

/// One reusable generate→prepare→execute pipeline: the generation scratch,
/// the generated widget, its compiled form, and the execution buffers.
///
/// This is the common composition every batch consumer of widgets needs —
/// the HashCore hash scratch, the RandomX-lite baseline, the measurement
/// harnesses — factored out so the pipeline contract (every buffer reused
/// in place and sized once to the worst case) lives in one place.
/// Fields are public so callers with extra stages (hash gates between
/// widgets, profilers over the trace) can drive them individually; most
/// callers just use [`PipelineScratch::run`]. One scratch belongs to one
/// worker; it is never shared between threads.
#[derive(Debug, Clone, Default)]
pub struct PipelineScratch {
    /// Generation state (program builder and its arena, bookkeeping
    /// vectors).
    pub gen: GenScratch,
    /// The most recently generated widget.
    pub widget: GeneratedWidget,
    /// The widget's compiled, validate-once form.
    pub prepared: PreparedProgram,
    /// Execution state: machine, widget output, dynamic trace.
    pub exec: ExecScratch,
}

impl PipelineScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates the widget for `seed` with `generator`, compiles it and
    /// executes it, returning the execution stats.
    ///
    /// The widget output — and, when `collect_trace` is set, the dynamic
    /// trace — is left in [`PipelineScratch::exec`]; the widget itself stays
    /// in [`PipelineScratch::widget`]. Allocation-free at steady state, like
    /// the stages it composes.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StepLimitExceeded`] if the widget does not halt
    /// within its step limit (generated widgets never fail validation).
    pub fn run(
        &mut self,
        generator: &WidgetGenerator,
        seed: &HashSeed,
        collect_trace: bool,
    ) -> Result<ExecStats, ExecError> {
        generator.generate_into(seed, &mut self.gen, &mut self.widget);
        self.prepared.prepare(&self.widget.program)?;
        Executor::new(ExecConfig {
            collect_trace,
            ..self.widget.exec_config()
        })
        .execute_prepared(&self.prepared, &mut self.exec)
    }
}

/// A widget produced by the generator.
#[derive(Debug, Clone)]
pub struct GeneratedWidget {
    /// The executable widget program.
    pub program: Program,
    /// The hash seed the widget was generated from.
    pub seed: HashSeed,
    /// The noised profile the generator targeted (the centre of the
    /// distribution the widget should land on).
    pub target: SeededProfile,
    /// Expected number of register snapshots (and therefore output size).
    pub expected_snapshots: u64,
}

impl Default for GeneratedWidget {
    /// An empty placeholder widget (invalid program, zero seed) meant to be
    /// filled in place by [`WidgetGenerator::generate_into`].
    fn default() -> Self {
        Self {
            program: Program::default(),
            seed: HashSeed::new([0u8; 32]),
            target: SeededProfile::default(),
            expected_snapshots: 0,
        }
    }
}

impl GeneratedWidget {
    /// Expected widget output size in bytes.
    pub fn expected_output_bytes(&self) -> usize {
        self.expected_snapshots as usize * SNAPSHOT_BYTES
    }

    /// An execution configuration suitable for running this widget: the
    /// memory seed comes from the Table-I memory field and the step limit
    /// leaves generous head-room above the expected dynamic instruction
    /// count so honest widgets never hit it.
    pub fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            max_steps: self.target.profile.target_dynamic_instructions * 4 + 100_000,
            collect_trace: true,
            memory_seed: ((self.target.memory_seed as u64) << 32) | self.target.bbv_seed as u64,
        }
    }
}

/// Generates widgets from a base performance profile.
///
/// The generator is deterministic: the same base profile, configuration and
/// seed always produce the byte-identical program, which is what allows every
/// verifier to regenerate and re-execute a widget from the block header
/// alone.
#[derive(Debug, Clone)]
pub struct WidgetGenerator {
    base: PerformanceProfile,
    config: GeneratorConfig,
}

// Register conventions used by generated widgets.
const REG_LOOP: IntReg = IntReg(0); // outer loop counter
const REG_ZERO: IntReg = IntReg(1); // always zero
const REG_RAND_THRESH: IntReg = IntReg(2); // threshold for data-dependent branches
const REG_LOOP_THRESH: IntReg = IntReg(3); // threshold for counter-based branches
const REG_STRIDE_CURSOR: IntReg = IntReg(13);
const REG_CHASE_CURSOR: IntReg = IntReg(14);
const POOL: [IntReg; 10] = [
    IntReg(4),
    IntReg(5),
    IntReg(6),
    IntReg(7),
    IntReg(8),
    IntReg(9),
    IntReg(10),
    IntReg(11),
    IntReg(12),
    IntReg(15),
];

impl WidgetGenerator {
    /// Creates a generator targeting `base` with the default configuration.
    pub fn new(base: PerformanceProfile) -> Self {
        Self::with_config(base, GeneratorConfig::default())
    }

    /// Creates a generator with an explicit configuration.
    pub fn with_config(base: PerformanceProfile, config: GeneratorConfig) -> Self {
        Self { base, config }
    }

    /// The base (un-noised) profile the generator targets.
    pub fn base_profile(&self) -> &PerformanceProfile {
        &self.base
    }

    /// The generator configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Computes the worst-case generation sizes over every possible seed.
    ///
    /// See [`GenerationBounds`]; the arithmetic mirrors
    /// [`WidgetGenerator::generate_into`] with every noise factor at its cap
    /// (and conservative rounding), so each bound dominates the value any
    /// actual seed can produce.
    pub fn bounds(&self) -> GenerationBounds {
        let cadence = self.config.snapshot_cadence.max(1) as f64;
        let noise_cap = 1.0 + self.config.noise.max_relative_count_noise.max(0.0);
        let base = self.base.target_count_array();
        let t0 = base.iter().sum::<u64>().max(1) as f64;
        let t1: f64 = base.iter().map(|&b| (b as f64 * noise_cap).ceil()).sum();
        let outer = |t: f64| (t.max(1000.0) / cadence).round().max(1.0);
        let (o0, o1) = (outer(t0), outer(t1));
        // budget_c = noised_c / total * max(total, 1000) / outer, with
        // noised_c ≤ ceil(base_c · cap), max(total, 1000)/total ≤ scale and
        // outer ≥ o0 — so `upper` dominates any seed's per-iteration budget.
        let scale = (1000.0 / t0).max(1.0);
        let upper = |b: u64| (b as f64 * noise_cap).ceil() * scale / o0;
        let class_index = |class: OpClass| {
            OpClass::ALL
                .iter()
                .position(|&c| c == class)
                .expect("known class")
        };

        let branch_base = base[class_index(OpClass::Branch)];
        let max_segments = (upper(branch_base).ceil() as i64 + 1).clamp(1, 1024) as usize;
        let min_segments = ((branch_base as f64 / o1).floor() as i64 - 2).clamp(1, 1024) as usize;
        // A work block emits at most ceil(share/2) items per class, two
        // instructions per item; the entry block is 6 set-ups plus the pool
        // initialisers.
        let work_upper: f64 = OpClass::ALL
            .iter()
            .enumerate()
            .filter(|(_, c)| !matches!(c, OpClass::Branch | OpClass::Control))
            .map(|(i, _)| upper(base[i]))
            .sum();
        let entry_len = 6 + POOL.len();
        let max_block_len =
            ((work_upper / min_segments as f64).ceil() as usize + 16).max(entry_len + 4);
        let max_blocks = 3 * max_segments + 3;
        // The three blocks of a segment each emit at most
        // ceil(budget_c / (2 · segments)) items of class c, so all segments
        // together emit at most 1.5 · budget_c + 3 · segments of them. An
        // item is at most two instructions for a load (the load and its
        // cursor update) and one otherwise, which makes 1.5 · (work + loads)
        // plus 3 · 7 · segments over the six work classes. The entry block,
        // the latch (2) and the exit (1) come on top; 16 absorbs rounding.
        let load_upper = upper(base[class_index(OpClass::Load)]);
        let max_instructions = (1.5 * (work_upper + load_upper)).ceil() as usize
            + 3 * 7 * max_segments
            + entry_len
            + 3
            + 16;

        // Memory geometry (the memory-profile knobs are not seed-noised, so
        // only the load/store budgets and iteration count vary).
        let stride = (((self.base.memory.average_stride.max(8) as i32) & !7).max(8)) as f64;
        let loads_stores = load_upper + upper(base[class_index(OpClass::Store)]);
        let strided_max =
            loads_stores * o1 * self.base.memory.strided_fraction.clamp(0.0, 1.0) * stride;
        let max_memory_bytes = ((strided_max / 4.0) as usize + (32 << 10))
            .min(self.base.memory.working_set_bytes)
            .clamp(self.config.min_memory_bytes, self.config.max_memory_bytes)
            .next_power_of_two();
        let max_output_bytes = (o1 as usize + 1) * SNAPSHOT_BYTES;

        GenerationBounds {
            max_blocks,
            max_block_len,
            max_instructions,
            max_segments,
            max_memory_bytes,
            max_output_bytes,
        }
    }

    /// Pre-sizes `scratch` to this generator's [`GenerationBounds`]. The
    /// output widget's program needs no priming of its own: `finish_into`
    /// sizes it to the builder's arena and block table.
    fn warm_scratch(&self, scratch: &mut GenScratch) {
        let bounds = self.bounds();
        scratch
            .builder
            .prime(bounds.max_blocks, bounds.max_instructions);
        scratch.seg_heads.reserve(bounds.max_segments);
        scratch.seg_arms.reserve(bounds.max_segments);
        scratch.diamond_unpredictable.reserve(bounds.max_segments);
        scratch.budget.reserve(OpClass::ALL.len());
    }

    /// Generates the widget for `seed`.
    ///
    /// Convenience wrapper over [`WidgetGenerator::generate_into`] with
    /// fresh scratch state; callers generating many widgets (every miner —
    /// one widget per nonce) should reuse long-lived state instead.
    pub fn generate(&self, seed: &HashSeed) -> GeneratedWidget {
        let mut scratch = GenScratch::new();
        let mut out = GeneratedWidget::default();
        self.generate_into(seed, &mut scratch, &mut out);
        out
    }

    /// Generates the widget for `seed` into `out`, reusing `scratch`.
    ///
    /// Byte-identical to [`WidgetGenerator::generate`] — the same seed
    /// always produces the same program, whichever path built it — but the
    /// program builder, the per-segment bookkeeping vectors and the output
    /// widget's own storage are all reused, so generation performs no heap
    /// allocation once the buffers reach their steady-state sizes.
    pub fn generate_into(
        &self,
        seed: &HashSeed,
        scratch: &mut GenScratch,
        out: &mut GeneratedWidget,
    ) {
        if !scratch.warmed {
            scratch.warmed = true;
            self.warm_scratch(scratch);
        }
        let GenScratch {
            builder,
            seg_heads,
            seg_arms,
            diamond_unpredictable,
            budget,
            warmed: _,
        } = scratch;

        apply_seed_into(&self.base, seed, &self.config.noise, &mut out.target);
        let profile = &out.target.profile;

        // Two PRNG streams, exactly as Table I prescribes: one shapes the
        // control-flow / instruction selection, the other shapes memory
        // behaviour.
        let mut code_rng = WidgetRng::new(out.target.bbv_seed as u64);
        let mut mem_rng = WidgetRng::new(out.target.memory_seed as u64);

        let total = profile.target_dynamic_instructions.max(1000) as f64;
        // Clamped as in `bounds`: a zero cadence would saturate the loop
        // count.
        let cadence = self.config.snapshot_cadence.max(1) as f64;
        let outer_iters = (total / cadence).round().max(1.0) as u64;
        let per_iter = total / outer_iters as f64;

        // Per-iteration class budgets (branches handled structurally).
        budget.clear();
        budget.extend(
            OpClass::ALL
                .iter()
                .map(|&class| (class, profile.mix.fraction(class) * per_iter)),
        );
        let branch_budget = budget
            .iter()
            .find(|(c, _)| *c == OpClass::Branch)
            .map(|(_, b)| *b)
            .unwrap_or(1.0);
        // One branch per segment plus the loop latch.
        let segments = (branch_budget.round() as i64 - 1).clamp(1, 1024) as usize;

        // Decide each diamond's flavour (counter-based and predictable vs
        // data-dependent and hard to predict) up front. The flavour mix is
        // steered by the profile's branch transition rate, which is the knob
        // the Branch-Behaviour seed field perturbs.
        let unpredictable_fraction = (profile.branch.transition_rate
            * self.config.unpredictable_branch_gain)
            .clamp(0.0, 1.0);
        diamond_unpredictable.clear();
        diamond_unpredictable
            .extend((0..segments).map(|_| code_rng.chance(unpredictable_fraction)));

        // Memory geometry. The strided stream keeps the profile's natural
        // stride so spatial locality survives; the data segment is sized so
        // the stream revisits its footprint a few times during the run
        // (temporal locality), as the reference workload does with its
        // resident data structures. Pointer-chase accesses are confined to a
        // small hot region, mirroring chasing within a resident game tree.
        let stride = ((profile.memory.average_stride.max(8) as i32) & !7).max(8);
        let loads_per_iter = class_budget(budget, OpClass::Load);
        let stores_per_iter = class_budget(budget, OpClass::Store);
        let expected_strided_bytes = (loads_per_iter + stores_per_iter)
            * outer_iters as f64
            * profile.memory.strided_fraction
            * stride as f64;
        let reuse_target_bytes = (expected_strided_bytes / 4.0) as usize + (32 << 10);
        let memory_size = reuse_target_bytes
            .min(profile.memory.working_set_bytes)
            .clamp(self.config.min_memory_bytes, self.config.max_memory_bytes)
            .next_power_of_two();
        let hot_region_mask = (memory_size.min(1 << 13) - 1) as i32 & !7;

        // Structural overhead charged against the work budgets before the
        // filler runs: cursor maintenance for strided and pointer-chase
        // accesses, plus the loop-latch decrement. Branch conditions are free
        // (they compare live registers against thresholds set up once in the
        // entry block).
        let support_per_load = profile.memory.pointer_chase_fraction
            + (1.0 - profile.memory.pointer_chase_fraction) * profile.memory.strided_fraction;
        let support_per_store = profile.memory.strided_fraction * 0.0; // stores reuse the cursor
        let overhead_int_alu =
            loads_per_iter * support_per_load + stores_per_iter * support_per_store + 1.0;
        for (class, value) in budget.iter_mut() {
            match class {
                OpClass::IntAlu => *value = (*value - overhead_int_alu).max(0.0),
                OpClass::Branch | OpClass::Control => *value = 0.0,
                _ => {}
            }
        }

        // Taken-probability target for diamond branches.
        let taken_fraction = profile.branch.taken_fraction.clamp(0.05, 0.95);

        builder.reset(memory_size);
        let mut emitter = Emitter {
            builder,
            profile,
            stride,
            hot_region_mask,
            last_int: None,
            last_fp: None,
        };

        // ---- entry block -------------------------------------------------
        let entry = emitter.builder.begin_block();
        emitter.builder.load_imm(REG_LOOP, outer_iters as i64);
        emitter.builder.load_imm(REG_ZERO, 0);
        // Threshold for data-dependent branches: a uniformly random 64-bit
        // operand is below this value with probability `taken_fraction`.
        emitter.builder.load_imm(
            REG_RAND_THRESH,
            (taken_fraction * u64::MAX as f64) as u64 as i64,
        );
        // Threshold for counter-based branches: the loop counter stays above
        // it for `taken_fraction` of the iterations.
        emitter.builder.load_imm(
            REG_LOOP_THRESH,
            ((1.0 - taken_fraction) * outer_iters as f64).round() as i64,
        );
        emitter.builder.load_imm(REG_STRIDE_CURSOR, 0);
        emitter
            .builder
            .load_imm(REG_CHASE_CURSOR, (memory_size as i64) / 2);
        for (i, reg) in POOL.iter().enumerate() {
            emitter
                .builder
                .load_imm(*reg, (mem_rng.next_u64() >> (i as u32 % 8)) as i64);
        }

        // Reserve the per-segment blocks: head + two arms each, then latch
        // and exit.
        seg_heads.clear();
        seg_heads.extend((0..segments).map(|_| emitter.builder.reserve_block()));
        seg_arms.clear();
        seg_arms.extend((0..segments).map(|_| {
            (
                emitter.builder.reserve_block(),
                emitter.builder.reserve_block(),
            )
        }));
        let latch = emitter.builder.reserve_block();
        let exit = emitter.builder.reserve_block();

        emitter.builder.terminate(Terminator::Jump(seg_heads[0]));

        // Per-segment work budgets (main block gets half, each arm a
        // quarter; one arm executes per iteration, so the expected dynamic
        // contribution matches the budget).
        let work_classes = [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::FpAlu,
            OpClass::Load,
            OpClass::Store,
            OpClass::Vector,
        ];
        // Half of each class's per-segment budget: the expected count of
        // one block, the same for every segment of the widget.
        let halves = work_classes.map(|class| class_budget(budget, class) / segments as f64 * 0.5);

        for s in 0..segments {
            let next = if s + 1 == segments {
                latch
            } else {
                seg_heads[s + 1]
            };

            // Head block: half of the segment's work (the other half lives in
            // the diamond arms, of which exactly one executes).
            emitter.builder.begin_reserved(seg_heads[s]);
            for (&class, &half) in work_classes.iter().zip(&halves) {
                let count = stochastic_round(half, &mut code_rng);
                for _ in 0..count {
                    emitter.emit_work(class, &mut code_rng, &mut mem_rng);
                }
            }
            let (cond, src1, src2) = emitter.condition(diamond_unpredictable[s], &mut code_rng);
            emitter.builder.terminate(Terminator::Branch {
                cond,
                src1,
                src2,
                taken: seg_arms[s].0,
                not_taken: seg_arms[s].1,
            });

            // Arms: half of the segment's work each; exactly one arm executes
            // per iteration, so the expected dynamic contribution of the
            // segment equals its budget.
            for arm in [seg_arms[s].0, seg_arms[s].1] {
                emitter.builder.begin_reserved(arm);
                for (&class, &half) in work_classes.iter().zip(&halves) {
                    let count = stochastic_round(half, &mut code_rng);
                    for _ in 0..count {
                        emitter.emit_work(class, &mut code_rng, &mut mem_rng);
                    }
                }
                emitter.builder.terminate(Terminator::Jump(next));
            }
        }

        // ---- latch -------------------------------------------------------
        emitter.builder.begin_reserved(latch);
        emitter.builder.snapshot();
        emitter
            .builder
            .int_alu_imm(IntAluOp::Sub, REG_LOOP, REG_LOOP, 1);
        emitter.builder.terminate(Terminator::Branch {
            cond: BranchCond::Ne,
            src1: REG_LOOP,
            src2: REG_ZERO,
            taken: seg_heads[0],
            not_taken: exit,
        });

        // ---- exit --------------------------------------------------------
        emitter.builder.begin_reserved(exit);
        emitter.builder.snapshot();
        emitter.builder.terminate(Terminator::Halt);

        emitter.builder.finish_into(entry, &mut out.program);
        debug_assert!(out.program.validate().is_ok());

        out.seed = *seed;
        out.expected_snapshots = outer_iters + 1;
    }
}

fn class_budget(budget: &[(OpClass, f64)], class: OpClass) -> f64 {
    budget
        .iter()
        .find(|(c, _)| *c == class)
        .map(|(_, b)| *b)
        .unwrap_or(0.0)
}

/// Rounds `value` to an integer, using the RNG to dither the fractional part
/// so expectations are preserved across many segments.
fn stochastic_round(value: f64, rng: &mut WidgetRng) -> u64 {
    let floor = value.floor();
    let frac = value - floor;
    floor as u64 + u64::from(rng.chance(frac))
}

/// Internal instruction-emission state.
struct Emitter<'a> {
    builder: &'a mut ProgramBuilder,
    profile: &'a PerformanceProfile,
    stride: i32,
    /// Mask confining pointer-chase and scattered accesses to a hot region.
    hot_region_mask: i32,
    last_int: Option<IntReg>,
    last_fp: Option<FpReg>,
}

impl Emitter<'_> {
    fn pool_reg(&self, rng: &mut WidgetRng) -> IntReg {
        POOL[rng.next_bounded(POOL.len() as u64) as usize]
    }

    fn fp_reg(&self, rng: &mut WidgetRng) -> FpReg {
        FpReg(rng.next_bounded(hashcore_isa::NUM_FP_REGS as u64) as u8)
    }

    fn vec_reg(&self, rng: &mut WidgetRng) -> VecReg {
        VecReg(rng.next_bounded(hashcore_isa::NUM_VEC_REGS as u64) as u8)
    }

    /// Picks an integer source register honouring the dependency profile:
    /// with probability `serial_fraction` reuse the most recently written
    /// register (a tight chain), otherwise draw from the pool.
    fn int_src(&self, rng: &mut WidgetRng) -> IntReg {
        match self.last_int {
            Some(reg) if rng.chance(self.profile.dependency.serial_fraction) => reg,
            _ => self.pool_reg(rng),
        }
    }

    fn fp_src(&self, rng: &mut WidgetRng) -> FpReg {
        match self.last_fp {
            Some(reg) if rng.chance(self.profile.dependency.serial_fraction) => reg,
            _ => self.fp_reg(rng),
        }
    }

    /// Emits one work instruction of the requested class.
    fn emit_work(&mut self, class: OpClass, code_rng: &mut WidgetRng, mem_rng: &mut WidgetRng) {
        match class {
            OpClass::IntAlu => {
                let op = IntAluOp::ALL[code_rng.next_bounded(IntAluOp::ALL.len() as u64) as usize];
                let dst = self.pool_reg(code_rng);
                let src1 = self.int_src(code_rng);
                if code_rng.chance(0.3) {
                    let imm = (code_rng.next_u64() & 0xffff) as i32 - 0x8000;
                    self.builder.int_alu_imm(op, dst, src1, imm);
                } else {
                    let src2 = self.pool_reg(code_rng);
                    self.builder.int_alu(op, dst, src1, src2);
                }
                self.last_int = Some(dst);
            }
            OpClass::IntMul => {
                let op = IntMulOp::ALL[code_rng.next_bounded(IntMulOp::ALL.len() as u64) as usize];
                let dst = self.pool_reg(code_rng);
                let src1 = self.int_src(code_rng);
                let src2 = self.pool_reg(code_rng);
                self.builder.int_mul(op, dst, src1, src2);
                self.last_int = Some(dst);
            }
            OpClass::FpAlu => {
                if code_rng.chance(0.15) {
                    let dst = self.fp_reg(code_rng);
                    let src = self.pool_reg(code_rng);
                    self.builder.fp_from_int(dst, src);
                    self.last_fp = Some(dst);
                } else {
                    let op = FpOp::ALL[code_rng.next_bounded(FpOp::ALL.len() as u64) as usize];
                    let dst = self.fp_reg(code_rng);
                    let src1 = self.fp_src(code_rng);
                    let src2 = self.fp_reg(code_rng);
                    self.builder.fp(op, dst, src1, src2);
                    self.last_fp = Some(dst);
                }
            }
            OpClass::Load => {
                let chase = mem_rng.chance(self.profile.memory.pointer_chase_fraction);
                if chase {
                    // A pointer-chase step: the loaded value becomes the next
                    // address. The chase is confined to a hot region (as the
                    // reference workload's pointer chasing is confined to its
                    // resident data structure) by masking the cursor.
                    let offset = (mem_rng.next_bounded(8) * 8) as i32;
                    self.builder
                        .load(REG_CHASE_CURSOR, REG_CHASE_CURSOR, offset);
                    self.builder.int_alu_imm(
                        IntAluOp::And,
                        REG_CHASE_CURSOR,
                        REG_CHASE_CURSOR,
                        self.hot_region_mask,
                    );
                } else if mem_rng.chance(self.profile.memory.strided_fraction) {
                    let dst = self.pool_reg(code_rng);
                    let offset = (mem_rng.next_bounded(4) * 8) as i32;
                    self.builder.load(dst, REG_STRIDE_CURSOR, offset);
                    self.builder.int_alu_imm(
                        IntAluOp::Add,
                        REG_STRIDE_CURSOR,
                        REG_STRIDE_CURSOR,
                        self.stride,
                    );
                    self.last_int = Some(dst);
                } else {
                    // A scattered access in the neighbourhood of the strided
                    // cursor (moderate locality).
                    let dst = self.pool_reg(code_rng);
                    let offset = (mem_rng.next_bounded(512) * 8) as i32 - 2048;
                    self.builder.load(dst, REG_STRIDE_CURSOR, offset);
                    self.last_int = Some(dst);
                }
            }
            OpClass::Store => {
                let src = self.int_src(code_rng);
                if mem_rng.chance(self.profile.memory.strided_fraction) {
                    let offset = (mem_rng.next_bounded(4) * 8) as i32;
                    self.builder.store(src, REG_STRIDE_CURSOR, offset);
                } else {
                    let offset = (mem_rng.next_bounded(512) * 8) as i32 - 2048;
                    self.builder.store(src, REG_CHASE_CURSOR, offset);
                }
            }
            OpClass::Vector => {
                let op = VecOp::ALL[code_rng.next_bounded(VecOp::ALL.len() as u64) as usize];
                let dst = self.vec_reg(code_rng);
                let src1 = self.vec_reg(code_rng);
                let src2 = self.vec_reg(code_rng);
                self.builder.vec(op, dst, src1, src2);
            }
            OpClass::Branch | OpClass::Control => {
                // Branches are emitted structurally as terminators and
                // control instructions as latch snapshots; nothing to do.
            }
        }
    }

    /// Chooses the condition for one diamond branch. Conditions compare live
    /// registers against thresholds that were set up once in the entry
    /// block, so diamonds carry no per-execution setup cost (matching the
    /// fact that real compare-and-branch sequences are one or two fused
    /// micro-operations on x86).
    ///
    /// * Unpredictable diamonds compare a pool register — whose value is the
    ///   churn of the surrounding data-dependent work — against the random
    ///   threshold, so the direction is effectively data-dependent with
    ///   probability ≈ `taken_fraction`.
    /// * Predictable diamonds compare the outer loop counter against a fixed
    ///   threshold, so the direction is constant for long runs (taken for a
    ///   `taken_fraction` share of the iterations) and trivially learned by
    ///   the predictor.
    fn condition(
        &mut self,
        unpredictable: bool,
        code_rng: &mut WidgetRng,
    ) -> (BranchCond, IntReg, IntReg) {
        if unpredictable {
            let operand = self.pool_reg(code_rng);
            (BranchCond::Ltu, operand, REG_RAND_THRESH)
        } else {
            (BranchCond::Geu, REG_LOOP, REG_LOOP_THRESH)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashcore_isa::encode;
    use hashcore_profile::ProfileDistance;
    use hashcore_sim::{CoreConfig, CoreModel, WorkloadProfiler};
    use hashcore_vm::Executor;

    fn seed(fill: u8) -> HashSeed {
        HashSeed::new([fill; 32])
    }

    fn small_generator() -> WidgetGenerator {
        // A reduced instruction target keeps the unit tests fast while
        // exercising the full pipeline; the benches use the paper-scale
        // targets.
        let mut profile = PerformanceProfile::leela_like();
        profile.target_dynamic_instructions = 20_000;
        WidgetGenerator::new(profile)
    }

    #[test]
    fn generated_widgets_validate_and_execute() {
        let generator = small_generator();
        for fill in [0u8, 1, 7, 100, 255] {
            let widget = generator.generate(&seed(fill));
            assert!(widget.program.validate().is_ok(), "seed fill {fill}");
            let exec = Executor::new(widget.exec_config())
                .execute(&widget.program)
                .expect("widget must halt");
            assert!(exec.snapshot_count >= 1);
            assert!(!exec.output.is_empty());
        }
    }

    #[test]
    fn generate_into_with_reused_scratch_matches_generate() {
        let generator = small_generator();
        let mut scratch = GenScratch::new();
        let mut widget = GeneratedWidget::default();
        // One scratch and one output widget serve a stream of different
        // seeds (the mining usage); every field must match the fresh path.
        for fill in [0u8, 42, 42, 7, 255, 0] {
            let fresh = generator.generate(&seed(fill));
            generator.generate_into(&seed(fill), &mut scratch, &mut widget);
            assert_eq!(widget.program, fresh.program, "fill {fill}");
            assert_eq!(encode(&widget.program), encode(&fresh.program));
            assert_eq!(widget.seed, fresh.seed);
            assert_eq!(widget.target, fresh.target);
            assert_eq!(widget.expected_snapshots, fresh.expected_snapshots);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let generator = small_generator();
        let a = generator.generate(&seed(0x5a));
        let b = generator.generate(&seed(0x5a));
        assert_eq!(encode(&a.program), encode(&b.program));
        assert_eq!(a.expected_snapshots, b.expected_snapshots);
    }

    #[test]
    fn different_seeds_give_different_programs() {
        let generator = small_generator();
        let a = generator.generate(&seed(1));
        let b = generator.generate(&seed(2));
        assert_ne!(encode(&a.program), encode(&b.program));
    }

    #[test]
    fn dynamic_instruction_count_tracks_target() {
        let generator = small_generator();
        let widget = generator.generate(&seed(42));
        let exec = Executor::new(widget.exec_config())
            .execute(&widget.program)
            .unwrap();
        let target = widget.target.profile.target_dynamic_instructions as f64;
        let actual = exec.dynamic_instructions as f64;
        let ratio = actual / target;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "dynamic instructions {actual} vs target {target}"
        );
    }

    #[test]
    fn measured_mix_is_close_to_noised_target() {
        let generator = small_generator();
        let widget = generator.generate(&seed(9));
        let exec = Executor::new(widget.exec_config())
            .execute(&widget.program)
            .unwrap();
        let measured = WorkloadProfiler::default().profile("widget", &widget.program, &exec.trace);
        let distance = ProfileDistance::between(&measured, &widget.target.profile);
        assert!(
            distance.mix_l1 < 0.30,
            "mix L1 distance too large: {} (measured {:?})",
            distance.mix_l1,
            measured.mix
        );
        assert!(distance.taken_fraction_delta < 0.25, "{distance}");
    }

    #[test]
    fn output_size_matches_expectation_and_cadence() {
        let generator = small_generator();
        let widget = generator.generate(&seed(17));
        let exec = Executor::new(widget.exec_config())
            .execute(&widget.program)
            .unwrap();
        assert_eq!(exec.snapshot_count, widget.expected_snapshots);
        assert_eq!(exec.output.len(), widget.expected_output_bytes());
        // Snapshots land roughly every `snapshot_cadence` instructions.
        let cadence = exec.dynamic_instructions / exec.snapshot_count.max(1);
        assert!(
            (300..=4000).contains(&cadence),
            "snapshot cadence {cadence}"
        );
    }

    #[test]
    fn widgets_execute_on_the_simulated_core() {
        let generator = small_generator();
        let widget = generator.generate(&seed(33));
        let exec = Executor::new(widget.exec_config())
            .execute(&widget.program)
            .unwrap();
        let sim =
            CoreModel::new(CoreConfig::ivy_bridge_like()).simulate(&widget.program, &exec.trace);
        let ipc = sim.counters.ipc();
        assert!(ipc > 0.15 && ipc < 4.0, "ipc {ipc}");
        assert!(sim.counters.branch_hit_rate() > 0.5);
    }

    #[test]
    fn widget_output_depends_on_memory_seed() {
        // The same program executed with a different memory seed produces a
        // different snapshot stream: the output really does depend on the
        // seeded data, not just the code path.
        let generator = small_generator();
        let widget = generator.generate(&seed(71));
        let mut config = widget.exec_config();
        let a = Executor::new(config).execute(&widget.program).unwrap();
        config.memory_seed ^= 1;
        let b = Executor::new(config).execute(&widget.program).unwrap();
        assert_ne!(a.output, b.output);
    }

    #[test]
    fn positive_noise_means_no_widget_below_base_instruction_count() {
        let base = {
            let mut p = PerformanceProfile::leela_like();
            p.target_dynamic_instructions = 20_000;
            p
        };
        let base_total: u64 = base.target_counts().values().sum();
        let generator = WidgetGenerator::new(base);
        for fill in 0..16u8 {
            let widget = generator.generate(&seed(fill * 16 + 3));
            assert!(
                widget.target.profile.target_dynamic_instructions >= base_total,
                "noised target shrank for fill {fill}"
            );
        }
    }

    #[test]
    fn zero_snapshot_cadence_generates_the_cadence_one_widget() {
        let mut profile = PerformanceProfile::leela_like();
        profile.target_dynamic_instructions = 5_000;
        let with_cadence = |snapshot_cadence| {
            WidgetGenerator::with_config(
                profile.clone(),
                GeneratorConfig {
                    snapshot_cadence,
                    ..GeneratorConfig::default()
                },
            )
        };
        let (zero, one) = (with_cadence(0), with_cadence(1));
        let widget = zero.generate(&seed(5));
        let reference = one.generate(&seed(5));
        assert_eq!(widget.program, reference.program);
        assert_eq!(widget.expected_snapshots, reference.expected_snapshots);

        let bounds = zero.bounds();
        assert_eq!(bounds, one.bounds());
        let program = &widget.program;
        assert!(program.blocks().len() <= bounds.max_blocks);
        let total: usize = program.blocks().map(|b| b.instructions.len()).sum();
        assert!(total <= bounds.max_instructions);
        assert!(program.memory_size() <= bounds.max_memory_bytes);
        let exec = Executor::new(widget.exec_config())
            .execute(program)
            .expect("a cadence-0 widget halts");
        assert_eq!(exec.snapshot_count, widget.expected_snapshots);
        assert_eq!(exec.output.len(), widget.expected_output_bytes());
        assert!(exec.output.len() <= bounds.max_output_bytes);
    }

    #[test]
    fn config_accessors() {
        let generator = small_generator();
        assert_eq!(generator.config().snapshot_cadence, 2000);
        assert_eq!(generator.base_profile().name, "leela_like");
    }
}
