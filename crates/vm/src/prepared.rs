//! Prepared execution: validate-once, pre-decoded programs plus reusable
//! execution state.
//!
//! The naive [`crate::Executor::execute`] path pays per-run costs that the
//! mining hot loop (hash → generate → execute → hash, once per nonce) cannot
//! afford: it re-validates the program, re-derives the block-major pc
//! layout, allocates and re-seeds a fresh [`MachineState`], and allocates
//! fresh output/trace buffers. [`PreparedProgram`] and [`ExecScratch`] split
//! those costs out:
//!
//! * [`PreparedProgram`] validates the program once and flattens its blocks
//!   into a block-major slot array in which the array index *is* the static
//!   program counter and every terminator's successor is resolved to the
//!   target's slot index — the dispatch loop never chases
//!   `BlockId → block → instruction iterator` indirection again;
//! * [`ExecScratch`] owns the machine state and the output/trace buffers and
//!   is re-seeded in place, so repeated executions perform no heap
//!   allocation once the buffers have grown to their steady-state sizes.
//!
//! [`crate::Executor::execute_prepared`] is the entry point; the classic
//! [`crate::Executor::execute`] is a thin wrapper that prepares, runs and
//! moves the scratch buffers into an owned [`crate::Execution`]. Both paths
//! retire the identical instruction sequence and therefore produce
//! byte-identical output, traces and statistics (asserted by the
//! equivalence tests in `tests/proptest_executor.rs`).

use crate::state::MachineState;
use hashcore_isa::{BlockId, BranchCond, Instruction, IntReg, Program, Terminator, ValidateError};

/// One pre-decoded slot of a [`PreparedProgram`].
///
/// The slot array is block-major — each block contributes its body
/// instructions followed by one terminator slot — so a slot's index equals
/// the static program counter the naive executor would assign it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Slot {
    /// A straight-line body instruction.
    Inst(Instruction),
    /// An unconditional jump, resolved to the target block's first slot.
    Jump {
        /// Slot index (= static pc) of the target block's first slot.
        target: u32,
    },
    /// A conditional branch with both successors resolved.
    Branch {
        /// Comparison applied to the two source registers.
        cond: BranchCond,
        /// First comparison operand.
        src1: IntReg,
        /// Second comparison operand.
        src2: IntReg,
        /// Slot index of the successor when the condition holds.
        taken: u32,
        /// Slot index of the successor when the condition does not hold.
        not_taken: u32,
    },
    /// Terminates execution.
    Halt,
}

/// A validated, pre-decoded widget program ready for repeated execution.
///
/// Construction runs [`Program::validate`] exactly once; afterwards the
/// interpreter dispatch loop indexes straight into the flattened slot
/// array. Reuse one value across runs via [`PreparedProgram::prepare`] to
/// keep the slot buffer's allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreparedProgram {
    pub(crate) slots: Vec<Slot>,
    pub(crate) entry_pc: u32,
    pub(crate) memory_size: usize,
    block_count: usize,
}

impl PreparedProgram {
    /// Validates and pre-decodes `program`.
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

    /// Re-prepares `self` from `program` in place, reusing the slot buffer.
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
        program.validate()?;

        // One pass in block order: a block's slots are its body followed by
        // its terminator, and a successor's first slot is its static pc,
        // which the program's block table gives directly.
        self.slots.clear();
        self.slots.reserve(program.pc_slot_count() as usize);
        let resolve = |id: BlockId| program.block_pc_base(id);
        for block in program.blocks() {
            self.slots
                .extend(block.instructions.iter().map(|&inst| Slot::Inst(inst)));
            self.slots.push(match block.terminator {
                Terminator::Halt => Slot::Halt,
                Terminator::Jump(target) => Slot::Jump {
                    target: resolve(target),
                },
                Terminator::Branch {
                    cond,
                    src1,
                    src2,
                    taken,
                    not_taken,
                } => Slot::Branch {
                    cond,
                    src1,
                    src2,
                    taken: resolve(taken),
                    not_taken: resolve(not_taken),
                },
            });
        }

        self.entry_pc = resolve(program.entry());
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
        self.slots.len() as u32
    }

    /// Pre-sizes the slot array for programs of up to `slots` pc slots, so
    /// a caller with a worst-case bound pays all growth up front instead of
    /// on whichever program first hits the maximum.
    ///
    /// The block count is not needed: preparation reads the block table
    /// from the program and keeps nothing per block. The parameter stays so
    /// existing callers keep compiling.
    pub fn prime(&mut self, slots: usize, _blocks: usize) {
        if self.slots.capacity() < slots {
            self.slots.reserve_exact(slots - self.slots.len());
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
    use crate::exec::{ExecConfig, Executor};
    use hashcore_isa::{IntAluOp, ProgramBuilder, Terminator};

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
    fn slot_indices_equal_the_block_major_pc_layout() {
        let program = two_block_program();
        let prepared = PreparedProgram::new(&program).expect("validates");
        // Block 0: two instructions at pc 0,1 and the jump at pc 2;
        // block 1 starts at pc 3 with two instructions and halt at pc 5.
        assert_eq!(prepared.pc_slot_count(), program.pc_slot_count());
        assert_eq!(prepared.entry_pc, 0);
        assert_eq!(prepared.block_count(), 2);
        assert_eq!(prepared.memory_size(), 256);
        assert!(matches!(prepared.slots[2], Slot::Jump { target: 3 }));
        assert!(matches!(prepared.slots[5], Slot::Halt));
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
        let capacity = prepared.slots.capacity();

        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        b.snapshot();
        b.terminate(Terminator::Halt);
        let tiny = b.finish(entry);

        prepared.prepare(&tiny).expect("validates");
        assert_eq!(prepared.pc_slot_count(), 2);
        assert_eq!(prepared.memory_size(), 64);
        assert!(prepared.slots.capacity() >= capacity, "capacity retained");
    }
}
