//! The widget executor.

use crate::prepared::{ExecScratch, Op, PreparedProgram};
use crate::state::{write_snapshot, MachineState, SNAPSHOT_BYTES};
use crate::trace::{BranchRecord, Trace, TraceEntry};
use hashcore_isa::{BranchCond, OpClass, Program, VEC_LANES};
use std::fmt;

/// Configuration for one widget execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum number of retired instructions: a program that halts after
    /// retiring `max_steps` or more fails with
    /// [`ExecError::StepLimitExceeded`], as does one that never halts. This
    /// bounds verification cost and guarantees termination for any program.
    ///
    /// The limit is tested at control transfers (jumps, branches) and at
    /// halt, not after every instruction, so a run that fails may first
    /// finish the block in which it crossed the limit. Output, trace and
    /// machine state in the [`ExecScratch`] are unspecified after an error.
    pub max_steps: u64,
    /// Whether to record the dynamic trace (needed for simulation; the plain
    /// PoW path switches it off to go faster). The executor's loop is
    /// compiled once for each setting, so the untraced loop carries no
    /// tracing code at all.
    pub collect_trace: bool,
    /// Seed used to initialise memory and registers before execution (the
    /// Table-I memory seed in the full HashCore pipeline).
    pub memory_seed: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            max_steps: 2_000_000,
            collect_trace: true,
            memory_seed: 0,
        }
    }
}

/// Error produced by [`Executor::execute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program failed validation.
    InvalidProgram(hashcore_isa::ValidateError),
    /// The step limit was reached before the program halted.
    StepLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InvalidProgram(e) => write!(f, "invalid widget program: {e}"),
            ExecError::StepLimitExceeded { limit } => {
                write!(f, "widget exceeded the step limit of {limit} instructions")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::InvalidProgram(e) => Some(e),
            ExecError::StepLimitExceeded { .. } => None,
        }
    }
}

impl From<hashcore_isa::ValidateError> for ExecError {
    fn from(value: hashcore_isa::ValidateError) -> Self {
        ExecError::InvalidProgram(value)
    }
}

/// Summary statistics of one prepared execution; the widget output and
/// trace stay in the [`ExecScratch`] so the hot path moves no buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of retired instructions (including conditional terminators).
    pub dynamic_instructions: u64,
    /// Number of snapshots emitted.
    pub snapshot_count: u64,
}

/// The result of executing a widget.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// The widget output: the concatenated register snapshots. This is the
    /// byte string `W(s)` that HashCore concatenates with the hash seed and
    /// feeds to the second hash gate.
    pub output: Vec<u8>,
    /// The dynamic trace (empty unless [`ExecConfig::collect_trace`]).
    pub trace: Trace,
    /// Number of retired instructions (including conditional terminators).
    pub dynamic_instructions: u64,
    /// Number of snapshots emitted.
    pub snapshot_count: u64,
    /// Architectural state at halt, useful for tests and debugging.
    pub final_state: MachineState,
}

/// Executes widget programs deterministically.
#[derive(Debug, Clone)]
pub struct Executor {
    config: ExecConfig,
}

impl Executor {
    /// Creates an executor with the given configuration.
    pub fn new(config: ExecConfig) -> Self {
        Self { config }
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Runs `program` to completion.
    ///
    /// This is a convenience wrapper over the prepared path: it validates
    /// and compiles the program, executes it in a fresh [`ExecScratch`],
    /// and moves the buffers into an owned [`Execution`]. Hot loops that run
    /// many programs (or one program many times) should call
    /// [`Executor::execute_prepared`] with long-lived state instead.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidProgram`] if the program fails
    /// [`Program::validate`], or [`ExecError::StepLimitExceeded`] if it does
    /// not halt within the configured number of steps.
    pub fn execute(&self, program: &Program) -> Result<Execution, ExecError> {
        let prepared = PreparedProgram::new(program)?;
        let mut scratch = ExecScratch::new();
        let stats = self.execute_prepared(&prepared, &mut scratch)?;
        Ok(Execution {
            output: scratch.output,
            trace: scratch.trace,
            dynamic_instructions: stats.dynamic_instructions,
            snapshot_count: stats.snapshot_count,
            final_state: scratch.state,
        })
    }

    /// Runs a prepared program in reusable scratch state.
    ///
    /// The scratch's machine state is re-seeded in place from
    /// [`ExecConfig::memory_seed`] and its output/trace buffers are cleared
    /// (capacity retained), so repeated calls perform no heap allocation
    /// once the buffers have reached their steady-state sizes.
    ///
    /// On success the widget output is in [`ExecScratch::output`] and the
    /// trace (when [`ExecConfig::collect_trace`] is set) in
    /// [`ExecScratch::trace`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StepLimitExceeded`] if the program does not
    /// halt within the configured number of steps (validation already
    /// happened when the [`PreparedProgram`] was built).
    ///
    /// # Panics
    ///
    /// Panics if `prepared` never held a successfully prepared program
    /// (e.g. a `Default`-constructed value).
    pub fn execute_prepared(
        &self,
        prepared: &PreparedProgram,
        scratch: &mut ExecScratch,
    ) -> Result<ExecStats, ExecError> {
        assert!(
            !prepared.ops.is_empty(),
            "execute_prepared requires a successfully prepared program"
        );
        scratch.state.reset(prepared.memory_size);
        scratch.state.seed(self.config.memory_seed);
        scratch.output.clear();
        scratch.trace.clear();

        let max_steps = self.config.max_steps;
        let dynamic_instructions = if self.config.collect_trace {
            run::<true>(prepared, max_steps, scratch)
        } else {
            run::<false>(prepared, max_steps, scratch)
        }?;
        Ok(ExecStats {
            dynamic_instructions,
            snapshot_count: (scratch.output.len() / SNAPSHOT_BYTES) as u64,
        })
    }
}

/// The interpreter loop, compiled once with the trace on and once with it
/// off. Returns the number of retired instructions.
///
/// Each op reaches its handler through a six-level binary tree of
/// conditional branches on its tag, one leaf per tag, not through one
/// `match`, which compiles to a single indirect jump through a table. The
/// tree relies on a property of generated widgets: long op sequences that
/// do not repeat (a Leela-like widget makes about 32 passes over a random
/// loop body of about 2,300 ops). One indirect jump predicts a sequence
/// that long poorly, while the tree's branches, each predicted on its own,
/// do much better. On a 2-core x86-64 host, untraced, fresh Leela-like
/// widgets run once each, as a miner runs them, went from 13–17 to 9–12 ns
/// per retired instruction. Short regular loops pay for it, since one
/// indirect jump predicts them well: the four reference kernels, run only
/// in traced profiling passes, went from 3–5 to 4–7 ns per instruction
/// untraced.
///
/// Steps are counted, and the limit tested, only at control transfers,
/// where a terminator adds its block's body length (and one for a branch).
/// A jump always lands on an op that retires an instruction or halts, so a
/// run that never halts reaches the limit, and one that halts fails exactly
/// when it retired at least `max_steps` instructions.
fn run<const TRACE: bool>(
    prepared: &PreparedProgram,
    max_steps: u64,
    scratch: &mut ExecScratch,
) -> Result<u64, ExecError> {
    let ExecScratch {
        state,
        output,
        trace,
    } = scratch;
    let MachineState {
        int_regs: x,
        fp_regs: f,
        vec_regs: v,
        memory: m,
    } = state;
    let ops = prepared.ops.as_slice();
    let mut pc = prepared.entry_pc as usize;
    let mut steps = 0u64;

    // Adds `$retired` steps at a control transfer; fails once they reach
    // the limit.
    macro_rules! transfer {
        ($retired:expr) => {
            steps += $retired;
            if steps >= max_steps {
                return Err(ExecError::StepLimitExceeded { limit: max_steps });
            }
        };
    }
    // Retires a conditional branch that ends a block of `$len` body
    // instructions, and follows it.
    macro_rules! branch {
        ($cond:expr, $a:ident, $b:ident, $to:ident, $len:ident) => {{
            let taken = $cond.evaluate(x[$a as usize], x[$b as usize]);
            let target = $to[usize::from(taken)];
            if TRACE {
                trace.push(TraceEntry {
                    pc: pc as u32,
                    class: OpClass::Branch,
                    mem_addr: None,
                    branch: Some(BranchRecord {
                        taken,
                        target_pc: target,
                    }),
                });
            }
            transfer!(u64::from($len) + 1);
            pc = target as usize;
            continue;
        }};
    }

    loop {
        let op = ops[pc];
        // The address a load or store used, for the trace.
        let mut addr = None;
        // The handlers, expanded once in each leaf of the tree below.
        macro_rules! execute {
            () => {
                match op {
                    Op::Add(d, a, b) => x[d as usize] = x[a as usize].wrapping_add(x[b as usize]),
                    Op::Sub(d, a, b) => x[d as usize] = x[a as usize].wrapping_sub(x[b as usize]),
                    Op::And(d, a, b) => x[d as usize] = x[a as usize] & x[b as usize],
                    Op::Or(d, a, b) => x[d as usize] = x[a as usize] | x[b as usize],
                    Op::Xor(d, a, b) => x[d as usize] = x[a as usize] ^ x[b as usize],
                    Op::Shl(d, a, b) => x[d as usize] = x[a as usize] << (x[b as usize] & 63),
                    Op::Shr(d, a, b) => x[d as usize] = x[a as usize] >> (x[b as usize] & 63),
                    Op::Rotl(d, a, b) => {
                        x[d as usize] = x[a as usize].rotate_left((x[b as usize] & 63) as u32)
                    }
                    Op::Min(d, a, b) => x[d as usize] = x[a as usize].min(x[b as usize]),
                    Op::Max(d, a, b) => x[d as usize] = x[a as usize].max(x[b as usize]),
                    Op::AddI(d, a, imm) => x[d as usize] = x[a as usize].wrapping_add(imm),
                    Op::SubI(d, a, imm) => x[d as usize] = x[a as usize].wrapping_sub(imm),
                    Op::AndI(d, a, imm) => x[d as usize] = x[a as usize] & imm,
                    Op::OrI(d, a, imm) => x[d as usize] = x[a as usize] | imm,
                    Op::XorI(d, a, imm) => x[d as usize] = x[a as usize] ^ imm,
                    Op::ShlI(d, a, imm) => x[d as usize] = x[a as usize] << (imm & 63),
                    Op::ShrI(d, a, imm) => x[d as usize] = x[a as usize] >> (imm & 63),
                    Op::RotlI(d, a, imm) => {
                        x[d as usize] = x[a as usize].rotate_left((imm & 63) as u32)
                    }
                    Op::MinI(d, a, imm) => x[d as usize] = x[a as usize].min(imm),
                    Op::MaxI(d, a, imm) => x[d as usize] = x[a as usize].max(imm),
                    Op::LoadImm(d, imm) => x[d as usize] = imm,
                    Op::Mul(d, a, b) => x[d as usize] = x[a as usize].wrapping_mul(x[b as usize]),
                    Op::MulHi(d, a, b) => {
                        x[d as usize] =
                            ((u128::from(x[a as usize]) * u128::from(x[b as usize])) >> 64) as u64
                    }
                    Op::FAdd(d, a, b) => f[d as usize] = canon(f[a as usize] + f[b as usize]),
                    Op::FSub(d, a, b) => f[d as usize] = canon(f[a as usize] - f[b as usize]),
                    Op::FMul(d, a, b) => f[d as usize] = canon(f[a as usize] * f[b as usize]),
                    Op::FDiv(d, a, b) => f[d as usize] = canon(f[a as usize] / f[b as usize]),
                    Op::FMin(d, a, b) => {
                        let (p, q) = (f[a as usize], f[b as usize]);
                        f[d as usize] = canon(if p < q { p } else { q });
                    }
                    Op::FMax(d, a, b) => {
                        let (p, q) = (f[a as usize], f[b as usize]);
                        f[d as usize] = canon(if p > q { p } else { q });
                    }
                    Op::FpFromInt(d, a) => f[d as usize] = canon(x[a as usize] as i64 as f64),
                    // `as` casts saturate in Rust, which is exactly the deterministic
                    // behaviour we want.
                    Op::FpToInt(d, a) => x[d as usize] = canon(f[a as usize]) as i64 as u64,
                    Op::Load(r, base, offset) => {
                        let at = x[base as usize].wrapping_add(offset);
                        x[r as usize] = m.load(at);
                        addr = Some(at);
                    }
                    Op::Store(r, base, offset) => {
                        let at = x[base as usize].wrapping_add(offset);
                        m.store(at, x[r as usize]);
                        addr = Some(at);
                    }
                    Op::FpLoad(r, base, offset) => {
                        let at = x[base as usize].wrapping_add(offset);
                        f[r as usize] = canon(f64::from_bits(m.load(at)));
                        addr = Some(at);
                    }
                    Op::FpStore(r, base, offset) => {
                        let at = x[base as usize].wrapping_add(offset);
                        m.store(at, canon(f[r as usize]).to_bits());
                        addr = Some(at);
                    }
                    Op::VecLoad(r, base, offset) => {
                        let at = x[base as usize].wrapping_add(offset);
                        v[r as usize] =
                            std::array::from_fn(|lane| m.load(at.wrapping_add(8 * lane as u64)));
                        addr = Some(at);
                    }
                    Op::VecStore(r, base, offset) => {
                        let at = x[base as usize].wrapping_add(offset);
                        for (lane, &value) in v[r as usize].iter().enumerate() {
                            m.store(at.wrapping_add(8 * lane as u64), value);
                        }
                        addr = Some(at);
                    }
                    Op::VAdd(d, a, b) => {
                        v[d as usize] = lanes(v[a as usize], v[b as usize], u64::wrapping_add)
                    }
                    Op::VXor(d, a, b) => {
                        v[d as usize] = lanes(v[a as usize], v[b as usize], |p, q| p ^ q)
                    }
                    Op::VMul(d, a, b) => {
                        v[d as usize] = lanes(v[a as usize], v[b as usize], u64::wrapping_mul)
                    }
                    Op::VRotl(d, a, b) => {
                        v[d as usize] = lanes(v[a as usize], v[b as usize], |p, q| {
                            p.rotate_left((q & 63) as u32)
                        })
                    }
                    Op::Snapshot => write_snapshot(x, f, v, output),
                    Op::Beq(a, b, to, len) => branch!(BranchCond::Eq, a, b, to, len),
                    Op::Bne(a, b, to, len) => branch!(BranchCond::Ne, a, b, to, len),
                    Op::Blt(a, b, to, len) => branch!(BranchCond::Lt, a, b, to, len),
                    Op::Bge(a, b, to, len) => branch!(BranchCond::Ge, a, b, to, len),
                    Op::Bltu(a, b, to, len) => branch!(BranchCond::Ltu, a, b, to, len),
                    Op::Bgeu(a, b, to, len) => branch!(BranchCond::Geu, a, b, to, len),
                    Op::Jump(target, len) => {
                        transfer!(u64::from(len));
                        pc = target as usize;
                        continue;
                    }
                    Op::NeverHalts => return Err(ExecError::StepLimitExceeded { limit: max_steps }),
                    Op::Halt(len) => {
                        transfer!(u64::from(len));
                        return Ok(steps);
                    }
                }
            };
        }
        // `black_box` is only a codegen barrier: it returns the tag
        // unchanged, so results never depend on it, but it hides the tag's
        // link to `op` from the optimiser, which would otherwise fold the
        // tree back into jump tables.
        let tag = std::hint::black_box(op.tag());
        // Branches on the tag's bits from the highest down to one leaf per
        // tag below 64. A leaf's check never fails (`tag` is `op.tag()`);
        // it tells the optimiser which single arm of `execute!` runs there.
        macro_rules! tree {
            ([] $leaf:expr) => {{
                if op.tag() != $leaf {
                    unreachable!()
                }
                execute!()
            }};
            ([$bit:literal $($rest:literal)*] $leaf:expr) => {
                if tag & (1 << $bit) == 0 {
                    tree!([$($rest)*] $leaf)
                } else {
                    tree!([$($rest)*] $leaf | (1 << $bit))
                }
            };
        }
        tree!([5 4 3 2 1 0] 0);
        if TRACE {
            trace.push(TraceEntry {
                pc: pc as u32,
                class: op.class(),
                mem_addr: addr.map(|at| m.wrap(at)),
                branch: None,
            });
        }
        pc += 1;
    }
}

/// Canonicalises floating-point values so widget output is bit-identical on
/// every platform: NaNs collapse to +0.0 and negative zero to positive zero.
fn canon(x: f64) -> f64 {
    if x.is_nan() || x == 0.0 {
        0.0
    } else {
        x
    }
}

/// Applies `op` lane by lane.
fn lanes(
    p: [u64; VEC_LANES],
    q: [u64; VEC_LANES],
    op: impl Fn(u64, u64) -> u64,
) -> [u64; VEC_LANES] {
    std::array::from_fn(|lane| op(p[lane], q[lane]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashcore_isa::{
        BlockId, FpOp, FpReg, IntAluOp, IntMulOp, IntReg, ProgramBuilder, Terminator, VecOp, VecReg,
    };

    fn run(program: &Program) -> Execution {
        Executor::new(ExecConfig::default())
            .execute(program)
            .expect("execution")
    }

    #[test]
    fn arithmetic_and_snapshot() {
        let mut b = ProgramBuilder::new(256);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 6);
        b.load_imm(IntReg(1), 7);
        b.int_mul(IntMulOp::Mul, IntReg(2), IntReg(0), IntReg(1));
        b.snapshot();
        b.terminate(Terminator::Halt);
        let p = b.finish(entry);
        let exec = run(&p);
        assert_eq!(exec.final_state.int_regs[2], 42);
        assert_eq!(exec.output.len(), SNAPSHOT_BYTES);
        assert_eq!(exec.snapshot_count, 1);
        assert_eq!(exec.dynamic_instructions, 4);
    }

    #[test]
    fn loop_executes_expected_iterations() {
        let mut b = ProgramBuilder::new(256);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 10); // counter
        b.load_imm(IntReg(1), 0); // accumulator
        b.load_imm(IntReg(2), 0); // zero
        let body = b.reserve_block();
        let exit = b.reserve_block();
        b.terminate(Terminator::Jump(body));
        b.begin_reserved(body);
        b.int_alu_imm(IntAluOp::Add, IntReg(1), IntReg(1), 5);
        b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
        b.branch(BranchCond::Ne, IntReg(0), IntReg(2), body, exit);
        b.begin_reserved(exit);
        b.snapshot();
        b.terminate(Terminator::Halt);
        let exec = run(&b.finish(entry));
        assert_eq!(exec.final_state.int_regs[1], 50);
        // 10 iterations of (2 alu + branch) + 3 setup + snapshot
        assert_eq!(exec.dynamic_instructions, 3 + 10 * 3 + 1);
        let counts = exec.trace.class_counts();
        assert_eq!(counts[&OpClass::Branch], 10);
        // 9 taken (back edges) + 1 not-taken (exit).
        assert!((exec.trace.taken_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn memory_roundtrip_and_trace_addresses() {
        let mut b = ProgramBuilder::new(1024);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 512);
        b.load_imm(IntReg(1), 0x1234_5678);
        b.store(IntReg(1), IntReg(0), 8);
        b.load(IntReg(2), IntReg(0), 8);
        b.terminate(Terminator::Halt);
        let exec = run(&b.finish(entry));
        assert_eq!(exec.final_state.int_regs[2], 0x1234_5678);
        let mems: Vec<u64> = exec.trace.iter().filter_map(|e| e.mem_addr).collect();
        assert_eq!(mems, vec![520, 520]);
    }

    #[test]
    fn fp_operations_are_canonicalised() {
        let mut b = ProgramBuilder::new(256);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 0);
        b.fp_from_int(FpReg(0), IntReg(0)); // f0 = 0.0
        b.fp(FpOp::Div, FpReg(1), FpReg(0), FpReg(0)); // 0/0 = NaN -> canon 0.0
        b.fp_to_int(IntReg(1), FpReg(1));
        b.terminate(Terminator::Halt);
        let exec = run(&b.finish(entry));
        assert_eq!(exec.final_state.fp_regs[1], 0.0);
        assert_eq!(exec.final_state.int_regs[1], 0);
    }

    #[test]
    fn vector_operations() {
        let mut b = ProgramBuilder::new(256);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 0);
        b.vec_load(VecReg(0), IntReg(0), 0);
        b.vec(VecOp::Xor, VecReg(1), VecReg(0), VecReg(0));
        b.vec_store(VecReg(1), IntReg(0), 64);
        b.load(IntReg(1), IntReg(0), 64);
        b.terminate(Terminator::Halt);
        let exec = run(&b.finish(entry));
        // x ^ x == 0 for every lane.
        assert_eq!(exec.final_state.vec_regs[1], [0, 0, 0, 0]);
        assert_eq!(exec.final_state.int_regs[1], 0);
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        let spin = b.reserve_block();
        b.terminate(Terminator::Jump(spin));
        b.begin_reserved(spin);
        b.int_alu_imm(IntAluOp::Add, IntReg(0), IntReg(0), 1);
        let halt = b.reserve_block();
        b.terminate(Terminator::Jump(spin));
        b.begin_reserved(halt);
        b.terminate(Terminator::Halt);
        let p = b.finish(entry);
        let exec = Executor::new(ExecConfig {
            max_steps: 1000,
            ..ExecConfig::default()
        })
        .execute(&p);
        assert_eq!(exec, Err(ExecError::StepLimitExceeded { limit: 1000 }));
    }

    #[test]
    fn invalid_program_rejected() {
        let p = Program::new(Vec::new(), BlockId(0), 64);
        let err = Executor::new(ExecConfig::default())
            .execute(&p)
            .unwrap_err();
        assert!(matches!(err, ExecError::InvalidProgram(_)));
        assert!(err.to_string().contains("invalid widget program"));
    }

    #[test]
    fn execution_is_deterministic_across_runs() {
        let mut b = ProgramBuilder::new(4096);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 64);
        b.load_imm(IntReg(3), 0);
        let body = b.reserve_block();
        let exit = b.reserve_block();
        b.terminate(Terminator::Jump(body));
        b.begin_reserved(body);
        b.load(IntReg(1), IntReg(0), 0);
        b.int_alu(IntAluOp::Xor, IntReg(2), IntReg(2), IntReg(1));
        b.int_mul(IntMulOp::MulHi, IntReg(4), IntReg(1), IntReg(2));
        b.store(IntReg(4), IntReg(0), 8);
        b.int_alu_imm(IntAluOp::Add, IntReg(0), IntReg(0), 24);
        b.int_alu_imm(IntAluOp::Add, IntReg(3), IntReg(3), 1);
        b.load_imm(IntReg(5), 200);
        b.snapshot();
        b.branch(BranchCond::Ltu, IntReg(3), IntReg(5), body, exit);
        b.begin_reserved(exit);
        b.terminate(Terminator::Halt);
        let p = b.finish(entry);

        let config = ExecConfig {
            memory_seed: 99,
            ..ExecConfig::default()
        };
        let a = Executor::new(config).execute(&p).unwrap();
        let b2 = Executor::new(config).execute(&p).unwrap();
        assert_eq!(a.output, b2.output);
        assert_eq!(a.dynamic_instructions, b2.dynamic_instructions);

        // A different memory seed must change the output (the widget reads
        // seeded memory).
        let c = Executor::new(ExecConfig {
            memory_seed: 100,
            ..ExecConfig::default()
        })
        .execute(&p)
        .unwrap();
        assert_ne!(a.output, c.output);
    }

    #[test]
    fn trace_disabled_still_produces_output() {
        let mut b = ProgramBuilder::new(256);
        let entry = b.begin_block();
        b.snapshot();
        b.terminate(Terminator::Halt);
        let p = b.finish(entry);
        let exec = Executor::new(ExecConfig {
            collect_trace: false,
            ..ExecConfig::default()
        })
        .execute(&p)
        .unwrap();
        assert!(exec.trace.is_empty());
        assert_eq!(exec.output.len(), SNAPSHOT_BYTES);
    }

    #[test]
    fn pc_assignment_is_block_major_and_unique() {
        let mut b = ProgramBuilder::new(256);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 1);
        b.load_imm(IntReg(1), 1);
        let second = b.reserve_block();
        b.terminate(Terminator::Jump(second));
        b.begin_reserved(second);
        b.int_alu(IntAluOp::Add, IntReg(2), IntReg(0), IntReg(1));
        b.terminate(Terminator::Halt);
        let exec = run(&b.finish(entry));
        let pcs: Vec<u32> = exec.trace.iter().map(|e| e.pc).collect();
        // Block 0 occupies pcs 0..=2 (2 instructions + terminator slot);
        // block 1 starts at pc 3.
        assert_eq!(pcs, vec![0, 1, 3]);
    }
}
