//! Prepared execution: programs compiled once into flat ops, plus reusable
//! execution state.
//!
//! [`PreparedProgram::prepare`] validates a program and compiles it in a
//! single pass, checking each instruction's registers as it compiles it.
//! Every static pc slot becomes one 16-byte [`Op`], in the block-major
//! layout (each block's body, then its terminator), so an op's index *is*
//! its static program counter. An op names one operation — `Add`, `AddI`, `FDiv`,
//! `Bltu`, … — with its register indices, its sign-extended immediate and
//! its successor slots already resolved, so
//! [`crate::Executor::execute_prepared`] dispatches once per retired
//! instruction and never looks back at the [`Program`].
//!
//! [`ExecScratch`] owns the machine state and the output and trace buffers
//! and is re-seeded in place, so repeated executions perform no heap
//! allocation once the buffers have grown to their steady-state sizes.
//! [`crate::Executor::execute`] is a thin wrapper that prepares, runs and
//! moves the scratch buffers into an owned [`crate::Execution`].

use crate::state::MachineState;
use hashcore_isa::{
    BlockId, BranchCond, FpOp, FpReg, Instruction, IntAluOp, IntMulOp, IntReg, OpClass, Program,
    Terminator, ValidateError, VecOp, VecReg,
};

/// One compiled pc slot: a body instruction or a block terminator.
///
/// Operands are positional, as each group's comment lists them. Registers
/// are register-file indices, immediates and memory offsets are
/// sign-extended to 64 bits, and successors are slot indices. A
/// terminator's `len` is the length of its block's body: control only ever
/// enters a block at its first slot, so `len` instructions have retired in
/// the block when its terminator runs, and the executor counts steps there
/// and nowhere else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    // Integer ALU, `(d, a, b)`: `d = a op b`.
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    And(u8, u8, u8),
    Or(u8, u8, u8),
    Xor(u8, u8, u8),
    Shl(u8, u8, u8),
    Shr(u8, u8, u8),
    Rotl(u8, u8, u8),
    Min(u8, u8, u8),
    Max(u8, u8, u8),
    // Integer ALU with an immediate, `(d, a, imm)`: `d = a op imm`.
    AddI(u8, u8, u64),
    SubI(u8, u8, u64),
    AndI(u8, u8, u64),
    OrI(u8, u8, u64),
    XorI(u8, u8, u64),
    ShlI(u8, u8, u64),
    ShrI(u8, u8, u64),
    RotlI(u8, u8, u64),
    MinI(u8, u8, u64),
    MaxI(u8, u8, u64),
    // `(d, imm)`: `d = imm`.
    LoadImm(u8, u64),
    // Integer multiply, `(d, a, b)`.
    Mul(u8, u8, u8),
    MulHi(u8, u8, u8),
    // Floating point, `(d, a, b)`, then conversions `(d, a)` from and to an
    // integer register.
    FAdd(u8, u8, u8),
    FSub(u8, u8, u8),
    FMul(u8, u8, u8),
    FDiv(u8, u8, u8),
    FMin(u8, u8, u8),
    FMax(u8, u8, u8),
    FpFromInt(u8, u8),
    FpToInt(u8, u8),
    // Memory, `(r, base, offset)`: register `r` is loaded from or stored to
    // address `base + offset`.
    Load(u8, u8, u64),
    Store(u8, u8, u64),
    FpLoad(u8, u8, u64),
    FpStore(u8, u8, u64),
    VecLoad(u8, u8, u64),
    VecStore(u8, u8, u64),
    // Vector, lane by lane, `(d, a, b)`.
    VAdd(u8, u8, u8),
    VXor(u8, u8, u8),
    VMul(u8, u8, u8),
    VRotl(u8, u8, u8),
    Snapshot,
    // Conditional branches on integer registers, `(a, b, to, len)`: `to`
    // holds the successor slots indexed by the outcome, `[not taken, taken]`.
    Beq(u8, u8, [u32; 2], u32),
    Bne(u8, u8, [u32; 2], u32),
    Blt(u8, u8, [u32; 2], u32),
    Bge(u8, u8, [u32; 2], u32),
    Bltu(u8, u8, [u32; 2], u32),
    Bgeu(u8, u8, [u32; 2], u32),
    // `(target, len)`: `target` is the first slot on the chain of jumps
    // from here that is not itself a jump. A chain that cycles retires
    // nothing, forever, so its jumps compile to `NeverHalts`.
    Jump(u32, u32),
    NeverHalts,
    // `(len)`.
    Halt(u32),
}

impl Op {
    /// Compiles one body instruction, or returns `None` if it names a
    /// register outside its file.
    fn body(inst: Instruction) -> Option<Op> {
        let sext = |imm: i32| imm as i64 as u64;
        // Register indices, each range check folded into one flag so the
        // compiled op is built without a branch per register.
        let valid = std::cell::Cell::new(true);
        let check = |ok: bool, r: u8| {
            valid.set(valid.get() & ok);
            r
        };
        let int = |r: IntReg| check(r.is_valid(), r.0);
        let fp = |r: FpReg| check(r.is_valid(), r.0);
        let vec = |r: VecReg| check(r.is_valid(), r.0);
        let op = match inst {
            Instruction::IntAlu {
                op,
                dst,
                src1,
                src2,
            } => {
                let (d, a, b) = (int(dst), int(src1), int(src2));
                match op {
                    IntAluOp::Add => Op::Add(d, a, b),
                    IntAluOp::Sub => Op::Sub(d, a, b),
                    IntAluOp::And => Op::And(d, a, b),
                    IntAluOp::Or => Op::Or(d, a, b),
                    IntAluOp::Xor => Op::Xor(d, a, b),
                    IntAluOp::Shl => Op::Shl(d, a, b),
                    IntAluOp::Shr => Op::Shr(d, a, b),
                    IntAluOp::Rotl => Op::Rotl(d, a, b),
                    IntAluOp::Min => Op::Min(d, a, b),
                    IntAluOp::Max => Op::Max(d, a, b),
                }
            }
            Instruction::IntAluImm { op, dst, src, imm } => {
                let (d, a, imm) = (int(dst), int(src), sext(imm));
                match op {
                    IntAluOp::Add => Op::AddI(d, a, imm),
                    IntAluOp::Sub => Op::SubI(d, a, imm),
                    IntAluOp::And => Op::AndI(d, a, imm),
                    IntAluOp::Or => Op::OrI(d, a, imm),
                    IntAluOp::Xor => Op::XorI(d, a, imm),
                    IntAluOp::Shl => Op::ShlI(d, a, imm),
                    IntAluOp::Shr => Op::ShrI(d, a, imm),
                    IntAluOp::Rotl => Op::RotlI(d, a, imm),
                    IntAluOp::Min => Op::MinI(d, a, imm),
                    IntAluOp::Max => Op::MaxI(d, a, imm),
                }
            }
            Instruction::LoadImm { dst, imm } => Op::LoadImm(int(dst), imm as u64),
            Instruction::IntMul {
                op,
                dst,
                src1,
                src2,
            } => {
                let (d, a, b) = (int(dst), int(src1), int(src2));
                match op {
                    IntMulOp::Mul => Op::Mul(d, a, b),
                    IntMulOp::MulHi => Op::MulHi(d, a, b),
                }
            }
            Instruction::Fp {
                op,
                dst,
                src1,
                src2,
            } => {
                let (d, a, b) = (fp(dst), fp(src1), fp(src2));
                match op {
                    FpOp::Add => Op::FAdd(d, a, b),
                    FpOp::Sub => Op::FSub(d, a, b),
                    FpOp::Mul => Op::FMul(d, a, b),
                    FpOp::Div => Op::FDiv(d, a, b),
                    FpOp::Min => Op::FMin(d, a, b),
                    FpOp::Max => Op::FMax(d, a, b),
                }
            }
            Instruction::FpFromInt { dst, src } => Op::FpFromInt(fp(dst), int(src)),
            Instruction::FpToInt { dst, src } => Op::FpToInt(int(dst), fp(src)),
            Instruction::Load { dst, base, offset } => Op::Load(int(dst), int(base), sext(offset)),
            Instruction::Store { src, base, offset } => {
                Op::Store(int(src), int(base), sext(offset))
            }
            Instruction::FpLoad { dst, base, offset } => {
                Op::FpLoad(fp(dst), int(base), sext(offset))
            }
            Instruction::FpStore { src, base, offset } => {
                Op::FpStore(fp(src), int(base), sext(offset))
            }
            Instruction::VecLoad { dst, base, offset } => {
                Op::VecLoad(vec(dst), int(base), sext(offset))
            }
            Instruction::VecStore { src, base, offset } => {
                Op::VecStore(vec(src), int(base), sext(offset))
            }
            Instruction::Vec {
                op,
                dst,
                src1,
                src2,
            } => {
                let (d, a, b) = (vec(dst), vec(src1), vec(src2));
                match op {
                    VecOp::Add => Op::VAdd(d, a, b),
                    VecOp::Xor => Op::VXor(d, a, b),
                    VecOp::Mul => Op::VMul(d, a, b),
                    VecOp::Rotl => Op::VRotl(d, a, b),
                }
            }
            Instruction::Snapshot => Op::Snapshot,
        };
        valid.get().then_some(op)
    }

    /// Compiles the terminator of a block with a body of `len` instructions,
    /// or returns `None` if a branch names a register outside the file;
    /// `slot` gives a block's first slot.
    fn terminator(terminator: Terminator, len: u32, slot: impl Fn(BlockId) -> u32) -> Option<Op> {
        Some(match terminator {
            Terminator::Halt => Op::Halt(len),
            Terminator::Jump(to) => Op::Jump(slot(to), len),
            Terminator::Branch {
                cond,
                src1,
                src2,
                taken,
                not_taken,
            } => {
                let valid = |r: IntReg| r.is_valid().then_some(r.0);
                let (a, b) = (valid(src1)?, valid(src2)?);
                let to = [slot(not_taken), slot(taken)];
                match cond {
                    BranchCond::Eq => Op::Beq(a, b, to, len),
                    BranchCond::Ne => Op::Bne(a, b, to, len),
                    BranchCond::Lt => Op::Blt(a, b, to, len),
                    BranchCond::Ge => Op::Bge(a, b, to, len),
                    BranchCond::Ltu => Op::Bltu(a, b, to, len),
                    BranchCond::Geu => Op::Bgeu(a, b, to, len),
                }
            }
        })
    }

    /// The variant's index in declaration order, below 64: the executor
    /// branches on its bits to reach the op's handler.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Op::Add(..) => 0,
            Op::Sub(..) => 1,
            Op::And(..) => 2,
            Op::Or(..) => 3,
            Op::Xor(..) => 4,
            Op::Shl(..) => 5,
            Op::Shr(..) => 6,
            Op::Rotl(..) => 7,
            Op::Min(..) => 8,
            Op::Max(..) => 9,
            Op::AddI(..) => 10,
            Op::SubI(..) => 11,
            Op::AndI(..) => 12,
            Op::OrI(..) => 13,
            Op::XorI(..) => 14,
            Op::ShlI(..) => 15,
            Op::ShrI(..) => 16,
            Op::RotlI(..) => 17,
            Op::MinI(..) => 18,
            Op::MaxI(..) => 19,
            Op::LoadImm(..) => 20,
            Op::Mul(..) => 21,
            Op::MulHi(..) => 22,
            Op::FAdd(..) => 23,
            Op::FSub(..) => 24,
            Op::FMul(..) => 25,
            Op::FDiv(..) => 26,
            Op::FMin(..) => 27,
            Op::FMax(..) => 28,
            Op::FpFromInt(..) => 29,
            Op::FpToInt(..) => 30,
            Op::Load(..) => 31,
            Op::Store(..) => 32,
            Op::FpLoad(..) => 33,
            Op::FpStore(..) => 34,
            Op::VecLoad(..) => 35,
            Op::VecStore(..) => 36,
            Op::VAdd(..) => 37,
            Op::VXor(..) => 38,
            Op::VMul(..) => 39,
            Op::VRotl(..) => 40,
            Op::Snapshot => 41,
            Op::Beq(..) => 42,
            Op::Bne(..) => 43,
            Op::Blt(..) => 44,
            Op::Bge(..) => 45,
            Op::Bltu(..) => 46,
            Op::Bgeu(..) => 47,
            Op::Jump(..) => 48,
            Op::NeverHalts => 49,
            Op::Halt(..) => 50,
        }
    }

    /// The resource class a trace records for a retired body instruction
    /// (branches record [`OpClass::Branch`] themselves).
    pub(crate) fn class(self) -> OpClass {
        match self {
            Op::Add(..)
            | Op::Sub(..)
            | Op::And(..)
            | Op::Or(..)
            | Op::Xor(..)
            | Op::Shl(..)
            | Op::Shr(..)
            | Op::Rotl(..)
            | Op::Min(..)
            | Op::Max(..)
            | Op::AddI(..)
            | Op::SubI(..)
            | Op::AndI(..)
            | Op::OrI(..)
            | Op::XorI(..)
            | Op::ShlI(..)
            | Op::ShrI(..)
            | Op::RotlI(..)
            | Op::MinI(..)
            | Op::MaxI(..)
            | Op::LoadImm(..) => OpClass::IntAlu,
            Op::Mul(..) | Op::MulHi(..) => OpClass::IntMul,
            Op::FAdd(..)
            | Op::FSub(..)
            | Op::FMul(..)
            | Op::FDiv(..)
            | Op::FMin(..)
            | Op::FMax(..)
            | Op::FpFromInt(..)
            | Op::FpToInt(..) => OpClass::FpAlu,
            Op::Load(..) | Op::FpLoad(..) | Op::VecLoad(..) => OpClass::Load,
            Op::Store(..) | Op::FpStore(..) | Op::VecStore(..) => OpClass::Store,
            Op::VAdd(..) | Op::VXor(..) | Op::VMul(..) | Op::VRotl(..) => OpClass::Vector,
            Op::Beq(..) | Op::Bne(..) | Op::Blt(..) | Op::Bge(..) | Op::Bltu(..) | Op::Bgeu(..) => {
                OpClass::Branch
            }
            Op::Snapshot | Op::Jump(..) | Op::NeverHalts | Op::Halt(..) => OpClass::Control,
        }
    }
}

/// Points every `Jump` at the first slot of its chain of jumps that is not
/// itself a jump, and turns a chain that cycles into `NeverHalts`.
///
/// Linear time: a chain is walked once to find its end (Brent's cycle
/// finding) and once more to point every jump on it there, so a later walk
/// that reaches one of those jumps ends one slot further on.
fn thread_jumps(ops: &mut [Op]) {
    for start in 0..ops.len() {
        let Op::Jump(target, _) = ops[start] else {
            continue;
        };
        let end = chain_end(ops, target);
        let mut slot = start;
        while let Op::Jump(next, len) = ops[slot] {
            ops[slot] = match end {
                Some(end) => Op::Jump(end, len),
                None => Op::NeverHalts,
            };
            slot = next as usize;
        }
    }
}

/// The first slot on the chain of jumps from `slot` that is not a jump, or
/// `None` if the chain cycles.
fn chain_end(ops: &[Op], mut slot: u32) -> Option<u32> {
    // Brent: compare against a saved slot, moved up to the current one
    // whenever the distance walked since reaches the next power of two.
    let (mut saved, mut power, mut walked) = (slot, 1u32, 0u32);
    loop {
        match ops[slot as usize] {
            Op::Jump(target, _) => slot = target,
            Op::NeverHalts => return None,
            _ => return Some(slot),
        }
        if slot == saved {
            return None;
        }
        walked += 1;
        if walked == power {
            (saved, power, walked) = (slot, power * 2, 0);
        }
    }
}

/// A validated widget program compiled for repeated execution.
///
/// Construction compiles each static pc slot into one op inside one pass of
/// [`Program::validate_with`], which makes every check of
/// [`Program::validate`] but the register ranges; compiling an instruction
/// checks those, so an invalid program fails with the error `validate`
/// returns for it. Reuse one value across programs via
/// [`PreparedProgram::prepare`] to keep the op buffer's allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreparedProgram {
    pub(crate) ops: Vec<Op>,
    pub(crate) entry_pc: u32,
    pub(crate) memory_size: usize,
    block_count: usize,
}

impl PreparedProgram {
    /// Validates and compiles `program`.
    ///
    /// # Errors
    ///
    /// Returns the [`ValidateError`] of [`Program::validate`] when the
    /// program is structurally invalid.
    pub fn new(program: &Program) -> Result<Self, ValidateError> {
        let mut prepared = Self::default();
        prepared.prepare(program)?;
        Ok(prepared)
    }

    /// Re-prepares `self` from `program` in place, reusing the op buffer.
    ///
    /// This is the zero-allocation path for the mining loop, where every
    /// nonce produces a fresh widget of roughly the same size: once the
    /// buffer has grown to the steady-state program size, preparation
    /// performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns the [`ValidateError`] of [`Program::validate`] when the
    /// program is structurally invalid; `self` is left unspecified but safe
    /// to reuse.
    pub fn prepare(&mut self, program: &Program) -> Result<(), ValidateError> {
        // One pass in block order, inside validation: a block's slots are
        // its body followed by its terminator, each compiled as it is
        // checked, and a successor's first slot is its static pc, which the
        // program's block table gives directly.
        self.ops.clear();
        self.ops.reserve(program.pc_slot_count() as usize);
        let ops = &mut self.ops;
        let slot = |id: BlockId| program.block_pc_base(id);
        let mut jumps_to_jumps = false;
        program.validate_with(|block| {
            let invalid = |index| ValidateError::InvalidRegister {
                block: block.id,
                index,
            };
            // Compiling stops at the first instruction with a register out
            // of range, so the number compiled is its index.
            let (start, len) = (ops.len(), block.instructions.len());
            ops.extend(block.instructions.iter().map_while(|&inst| Op::body(inst)));
            let compiled = ops.len() - start;
            if compiled < len {
                return Err(invalid(compiled));
            }
            if let Terminator::Jump(to) = block.terminator {
                let target = program.block(to);
                jumps_to_jumps |= target.instructions.is_empty()
                    && matches!(target.terminator, Terminator::Jump(_));
            }
            ops.push(
                Op::terminator(block.terminator, len as u32, slot).ok_or_else(|| invalid(len))?,
            );
            Ok(())
        })?;
        // Generated widgets never jump to an empty jump block, so they skip
        // the threading pass.
        if jumps_to_jumps {
            thread_jumps(&mut self.ops);
        }

        self.entry_pc = slot(program.entry());
        self.memory_size = program.memory_size();
        self.block_count = program.blocks().len();
        Ok(())
    }

    /// Size of the program's data segment in bytes.
    pub fn memory_size(&self) -> usize {
        self.memory_size
    }

    /// Number of basic blocks in the source program.
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// Total number of static pc slots (equals
    /// [`Program::pc_slot_count`] of the source program).
    pub fn pc_slot_count(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Pre-sizes the op array for programs of up to `slots` pc slots, so a
    /// caller with a worst-case bound pays all growth up front instead of
    /// on whichever program first hits the maximum.
    ///
    /// The block count is not needed: preparation reads the block table
    /// from the program and keeps nothing per block. The parameter stays so
    /// existing callers keep compiling.
    pub fn prime(&mut self, slots: usize, _blocks: usize) {
        if self.ops.capacity() < slots {
            self.ops.reserve_exact(slots - self.ops.len());
        }
    }
}

/// Reusable execution state: the machine state plus output and trace
/// buffers.
///
/// A scratch is the per-worker unit of parallel mining: each mining thread
/// owns one and re-seeds it for every nonce, so the whole hash evaluation
/// allocates nothing once buffers reach steady state.
#[derive(Debug, Clone)]
pub struct ExecScratch {
    pub(crate) state: MachineState,
    pub(crate) output: Vec<u8>,
    pub(crate) trace: crate::trace::Trace,
}

impl Default for ExecScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            state: MachineState::new(8),
            output: Vec::new(),
            trace: crate::trace::Trace::new(),
        }
    }

    /// The widget output bytes of the most recent execution.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// The dynamic trace of the most recent execution (empty unless the
    /// executor was configured with `collect_trace`).
    pub fn trace(&self) -> &crate::trace::Trace {
        &self.trace
    }

    /// The architectural state at halt of the most recent execution.
    pub fn final_state(&self) -> &MachineState {
        &self.state
    }

    /// Pre-sizes the machine memory and output buffer, so a caller that
    /// knows upper bounds over every program it will run (the widget
    /// generator's noise caps bound both) pays all growth up front instead
    /// of on whichever run first hits the maximum.
    pub fn prime(&mut self, memory_size: usize, output_bytes: usize) {
        self.state.reset(memory_size.max(8).next_power_of_two());
        if self.output.capacity() < output_bytes {
            self.output.reserve_exact(output_bytes - self.output.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecConfig, ExecError, Executor};
    use crate::trace::BranchRecord;
    use hashcore_isa::{IntReg, ProgramBuilder};

    fn two_block_program() -> Program {
        let mut b = ProgramBuilder::new(256);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 1);
        b.load_imm(IntReg(1), 2);
        let second = b.reserve_block();
        b.terminate(Terminator::Jump(second));
        b.begin_reserved(second);
        b.int_alu(IntAluOp::Add, IntReg(2), IntReg(0), IntReg(1));
        b.snapshot();
        b.terminate(Terminator::Halt);
        b.finish(entry)
    }

    #[test]
    fn ops_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }

    #[test]
    fn slot_indices_equal_the_block_major_pc_layout() {
        let program = two_block_program();
        let prepared = PreparedProgram::new(&program).expect("validates");
        // Block 0: two instructions at pc 0,1 and the jump at pc 2;
        // block 1 starts at pc 3 with two instructions and halt at pc 5.
        assert_eq!(prepared.pc_slot_count(), program.pc_slot_count());
        assert_eq!(prepared.entry_pc, 0);
        assert_eq!(prepared.block_count(), 2);
        assert_eq!(prepared.memory_size(), 256);
        assert_eq!(prepared.ops[1], Op::LoadImm(1, 2));
        assert_eq!(prepared.ops[2], Op::Jump(3, 2));
        assert_eq!(prepared.ops[3], Op::Add(2, 0, 1));
        assert_eq!(prepared.ops[5], Op::Halt(2));
    }

    #[test]
    fn immediates_and_offsets_are_sign_extended() {
        let mut b = ProgramBuilder::new(256);
        let entry = b.begin_block();
        b.int_alu_imm(IntAluOp::Xor, IntReg(1), IntReg(2), -2);
        b.load(IntReg(3), IntReg(4), -8);
        b.terminate(Terminator::Halt);
        let prepared = PreparedProgram::new(&b.finish(entry)).expect("validates");
        assert_eq!(
            prepared.ops[..2],
            [Op::XorI(1, 2, -2i64 as u64), Op::Load(3, 4, -8i64 as u64)]
        );
    }

    #[test]
    fn invalid_programs_are_rejected_once_at_preparation() {
        let invalid = Program::new(Vec::new(), BlockId(0), 64);
        assert!(PreparedProgram::new(&invalid).is_err());
        // A failed re-preparation leaves the value safe to reuse.
        let valid = two_block_program();
        let mut prepared = PreparedProgram::new(&valid).expect("validates");
        assert!(prepared.prepare(&invalid).is_err());
        prepared.prepare(&valid).expect("validates again");
        let mut scratch = ExecScratch::new();
        let stats = Executor::new(ExecConfig::default())
            .execute_prepared(&prepared, &mut scratch)
            .expect("executes");
        assert_eq!(stats.snapshot_count, 1);
        assert_eq!(scratch.final_state().int_regs[2], 3);
    }

    #[test]
    fn preparing_a_smaller_program_reuses_the_slot_buffer() {
        let program = two_block_program();
        let mut prepared = PreparedProgram::new(&program).expect("validates");
        let capacity = prepared.ops.capacity();

        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        b.snapshot();
        b.terminate(Terminator::Halt);
        let tiny = b.finish(entry);

        prepared.prepare(&tiny).expect("validates");
        assert_eq!(prepared.pc_slot_count(), 2);
        assert_eq!(prepared.memory_size(), 64);
        assert!(prepared.ops.capacity() >= capacity, "capacity retained");
    }

    fn run(program: &Program, collect_trace: bool) -> Result<crate::Execution, ExecError> {
        Executor::new(ExecConfig {
            max_steps: 1000,
            collect_trace,
            memory_seed: 0,
        })
        .execute(program)
    }

    /// `entry` (one instruction) → `spin`, an empty block that jumps to
    /// itself; a third block halts.
    #[test]
    fn a_self_looping_jump_never_halts() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 1);
        let spin = b.reserve_block();
        let halt = b.reserve_block();
        b.terminate(Terminator::Jump(spin));
        b.begin_reserved(spin);
        b.terminate(Terminator::Jump(spin));
        b.begin_reserved(halt);
        b.terminate(Terminator::Halt);
        let program = b.finish(entry);
        assert_eq!(program.validate(), Ok(()));

        let prepared = PreparedProgram::new(&program).expect("validates");
        assert_eq!(prepared.ops[1..3], [Op::NeverHalts, Op::NeverHalts]);
        for collect_trace in [false, true] {
            let result = run(&program, collect_trace);
            assert_eq!(result, Err(ExecError::StepLimitExceeded { limit: 1000 }));
        }
    }

    /// Two empty blocks jumping to each other, reached from the entry.
    #[test]
    fn a_two_block_jump_cycle_never_halts() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        let first = b.reserve_block();
        let second = b.reserve_block();
        let halt = b.reserve_block();
        b.snapshot();
        b.terminate(Terminator::Jump(first));
        b.begin_reserved(first);
        b.terminate(Terminator::Jump(second));
        b.begin_reserved(second);
        b.terminate(Terminator::Jump(first));
        b.begin_reserved(halt);
        b.terminate(Terminator::Halt);
        let program = b.finish(entry);

        for collect_trace in [false, true] {
            let result = run(&program, collect_trace);
            assert_eq!(result, Err(ExecError::StepLimitExceeded { limit: 1000 }));
        }
    }

    /// The entry block is itself an empty block on a three-block jump cycle.
    #[test]
    fn an_entry_block_on_a_jump_cycle_never_halts() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        let second = b.reserve_block();
        let third = b.reserve_block();
        let halt = b.reserve_block();
        b.terminate(Terminator::Jump(second));
        b.begin_reserved(second);
        b.terminate(Terminator::Jump(third));
        b.begin_reserved(third);
        b.terminate(Terminator::Jump(entry));
        b.begin_reserved(halt);
        b.terminate(Terminator::Halt);
        let program = b.finish(entry);

        let prepared = PreparedProgram::new(&program).expect("validates");
        assert_eq!(prepared.ops[..3], [Op::NeverHalts; 3]);
        assert_eq!(prepared.ops[3], Op::Halt(0));
        for collect_trace in [false, true] {
            let result = run(&program, collect_trace);
            assert_eq!(result, Err(ExecError::StepLimitExceeded { limit: 1000 }));
        }
    }

    /// A branch into an empty block that jumps on: the jump is threaded
    /// past the empty block, but the trace records the branch's own target
    /// block, and the jump retires nothing.
    #[test]
    fn a_branch_into_an_empty_jump_block_keeps_its_trace_target() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 1);
        let hop = b.reserve_block();
        let exit = b.reserve_block();
        let other = b.reserve_block();
        b.branch(BranchCond::Eq, IntReg(0), IntReg(0), hop, other);
        b.begin_reserved(hop);
        b.terminate(Terminator::Jump(exit));
        b.begin_reserved(exit);
        b.snapshot();
        b.terminate(Terminator::Halt);
        b.begin_reserved(other);
        b.terminate(Terminator::Halt);
        let program = b.finish(entry);
        // Layout: entry at pc 0–1, hop's jump at 2, exit at 3–4, other at 5.
        let prepared = PreparedProgram::new(&program).expect("validates");
        assert_eq!(prepared.ops[2], Op::Jump(3, 0));

        let exec = run(&program, true).expect("halts");
        assert_eq!(exec.dynamic_instructions, 3);
        let branch = exec.trace.entries()[1];
        assert_eq!(branch.pc, 1);
        assert_eq!(
            branch.branch,
            Some(BranchRecord {
                taken: true,
                target_pc: 2,
            })
        );
        assert_eq!(exec.trace.entries()[2].pc, 3);
    }

    #[test]
    fn a_chain_of_empty_jump_blocks_is_threaded_to_its_end() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        let hops: Vec<BlockId> = (0..4).map(|_| b.reserve_block()).collect();
        let exit = b.reserve_block();
        b.load_imm(IntReg(0), 7);
        b.terminate(Terminator::Jump(hops[0]));
        for (i, &hop) in hops.iter().enumerate() {
            b.begin_reserved(hop);
            b.terminate(Terminator::Jump(hops.get(i + 1).copied().unwrap_or(exit)));
        }
        b.begin_reserved(exit);
        b.snapshot();
        b.terminate(Terminator::Halt);
        let program = b.finish(entry);

        let prepared = PreparedProgram::new(&program).expect("validates");
        let exit_slot = program.block_pc_base(exit);
        assert_eq!(prepared.ops[1], Op::Jump(exit_slot, 1));
        for slot in 2..exit_slot as usize {
            assert_eq!(prepared.ops[slot], Op::Jump(exit_slot, 0));
        }
        let exec = run(&program, true).expect("halts");
        assert_eq!(exec.dynamic_instructions, 2);
    }
}
