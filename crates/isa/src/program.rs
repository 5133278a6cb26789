//! Widget programs: a control-flow graph of basic blocks plus a data segment.

use crate::block::{BasicBlock, BlockId, Terminator};
use crate::inst::{Instruction, OpClass};
use std::collections::HashMap;
use std::fmt;

/// A complete widget program.
///
/// A program is a table of basic blocks, an entry block, and the size of
/// its private data segment (the memory the widget may load from and store
/// to). Programs are static data: execution state lives in `hashcore-vm`.
///
/// The blocks live in one flat arena: every block body back to back in
/// [`BlockId`] order, plus one `(end, terminator)` entry per block. A body
/// is the arena slice between the previous block's end and its own, and a
/// block's first static pc is its arena start plus its index (one
/// terminator slot per earlier block): the block-major layout that the
/// executor (`hashcore-vm`) and the core model (`hashcore-sim`) share, which
/// is what lets traces be replayed against the static program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Every block body, back to back in `BlockId` order.
    pub(crate) instructions: Vec<Instruction>,
    /// Per block: the arena offset one past its body, and its terminator.
    pub(crate) blocks: Vec<(u32, Terminator)>,
    pub(crate) entry: BlockId,
    /// Size of the data segment in bytes (always a power of two so address
    /// wrapping is a mask).
    pub(crate) memory_size: usize,
}

impl Default for Program {
    /// An empty placeholder program (entry `bb0`, minimal memory).
    ///
    /// The placeholder does **not** pass [`Program::validate`]; it exists so
    /// reusable-scratch pipelines can allocate a program slot up front and
    /// fill it with [`crate::ProgramBuilder::finish_into`].
    fn default() -> Self {
        Self {
            instructions: Vec::new(),
            blocks: Vec::new(),
            entry: BlockId(0),
            memory_size: 8,
        }
    }
}

/// Errors detected by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The program contains no blocks.
    Empty,
    /// The entry block id does not exist.
    BadEntry {
        /// The offending entry id.
        entry: BlockId,
    },
    /// A terminator references a block id that does not exist.
    DanglingEdge {
        /// Block whose terminator is broken.
        from: BlockId,
        /// The missing successor.
        to: BlockId,
    },
    /// An instruction or a branch terminator references a register outside
    /// the architectural file.
    InvalidRegister {
        /// Block containing the instruction.
        block: BlockId,
        /// Index of the instruction within the block; the body length for
        /// the terminator.
        index: usize,
    },
    /// The memory size is not a power of two of at least 8 bytes.
    BadMemorySize {
        /// The offending size.
        size: usize,
    },
    /// No block is a `Halt` terminator, so the program can never finish.
    NoHalt,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Empty => write!(f, "program has no basic blocks"),
            ValidateError::BadEntry { entry } => write!(f, "entry block {entry} does not exist"),
            ValidateError::DanglingEdge { from, to } => {
                write!(f, "block {from} branches to missing block {to}")
            }
            ValidateError::InvalidRegister { block, index } => {
                write!(
                    f,
                    "instruction {index} of block {block} uses an invalid register"
                )
            }
            ValidateError::BadMemorySize { size } => {
                write!(
                    f,
                    "memory size {size} is not a power of two of at least 8 bytes"
                )
            }
            ValidateError::NoHalt => write!(f, "program has no halt terminator"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Static statistics of a program, used by the generator's self-checks and by
/// the experiment harness to report widget sizes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProgramStats {
    /// Number of basic blocks.
    pub block_count: usize,
    /// Total static instruction count (bodies plus conditional terminators).
    pub static_instructions: usize,
    /// Static instruction count per resource class.
    pub class_counts: HashMap<OpClass, usize>,
    /// Number of conditional branches.
    pub conditional_branches: usize,
    /// Number of snapshot instructions.
    pub snapshots: usize,
}

impl Program {
    /// Creates a program from `(body, terminator)` pairs, numbered in order.
    ///
    /// Use [`crate::ProgramBuilder`] for ergonomic construction; this
    /// constructor performs no validation (call [`Program::validate`]).
    pub fn new<'a>(
        blocks: impl IntoIterator<Item = (&'a [Instruction], Terminator)>,
        entry: BlockId,
        memory_size: usize,
    ) -> Self {
        let mut program = Self {
            entry,
            memory_size,
            ..Self::default()
        };
        for (body, terminator) in blocks {
            program.push_block(body, terminator);
        }
        program
    }

    /// Appends the next block: its body to the arena, its end and
    /// terminator to the table.
    pub(crate) fn push_block(&mut self, body: &[Instruction], terminator: Terminator) {
        self.instructions.extend_from_slice(body);
        self.blocks
            .push((self.instructions.len() as u32, terminator));
    }

    /// The program's basic blocks in [`BlockId`] order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = BasicBlock<'_>> + Clone {
        let mut start = 0;
        self.blocks
            .iter()
            .enumerate()
            .map(move |(index, &(end, terminator))| {
                let body = &self.instructions[start..end as usize];
                start = end as usize;
                BasicBlock::new(BlockId(index as u32), body, terminator)
            })
    }

    /// Pre-sizes the block table for up to `blocks` blocks. Reusable-scratch
    /// pipelines size the program once for their worst case so that
    /// rebuilding it via [`crate::ProgramBuilder::finish_into`] never
    /// reallocates the table; `finish_into` also sizes the table and the
    /// arena to the builder's own capacity.
    pub fn reserve_blocks(&mut self, blocks: usize) {
        if self.blocks.capacity() < blocks {
            self.blocks.reserve_exact(blocks - self.blocks.len());
        }
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Size of the data segment in bytes.
    pub fn memory_size(&self) -> usize {
        self.memory_size
    }

    /// Arena offset of the first body instruction of block `index`.
    fn body_start(&self, index: usize) -> usize {
        index
            .checked_sub(1)
            .map_or(0, |prev| self.blocks[prev].0 as usize)
    }

    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range; validated programs never do this.
    pub fn block(&self, id: BlockId) -> BasicBlock<'_> {
        let (end, terminator) = self.blocks[id.index()];
        let body = &self.instructions[self.body_start(id.index())..end as usize];
        BasicBlock::new(id, body, terminator)
    }

    /// Checks the structural invariants of the program.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found, if any: program-wide
    /// faults first (no blocks, then the memory size, then the entry), then
    /// each block's faults in [`BlockId`] order (a missing successor, then
    /// an out-of-range register, body instructions first and the
    /// terminator last), then a missing halt.
    pub fn validate(&self) -> Result<(), ValidateError> {
        self.validate_with(|block| {
            let body = block.instructions;
            let invalid = body
                .iter()
                .position(|inst| !inst.registers_valid())
                .or_else(|| (!block.terminator.registers_valid()).then_some(body.len()));
            invalid.map_or(Ok(()), |index| {
                Err(ValidateError::InvalidRegister {
                    block: block.id,
                    index,
                })
            })
        })
    }

    /// Runs every check of [`Program::validate`] except the register
    /// ranges, and calls `check_block` on each block in their place.
    ///
    /// A block reaches `check_block` in [`BlockId`] order once its
    /// successors are known to exist, and the first error from either side
    /// is returned. A caller that reads every instruction anyway checks the
    /// registers there (as `Program::validate` does, reporting
    /// [`ValidateError::InvalidRegister`]) and gets the error `validate`
    /// would return, without a second pass over the program.
    ///
    /// # Errors
    ///
    /// Returns the first structural [`ValidateError`], or the first error
    /// `check_block` returns, in [`Program::validate`]'s order.
    pub fn validate_with(
        &self,
        mut check_block: impl FnMut(BasicBlock<'_>) -> Result<(), ValidateError>,
    ) -> Result<(), ValidateError> {
        if self.blocks.is_empty() {
            return Err(ValidateError::Empty);
        }
        // The executor's machine state addresses memory through a 64-bit
        // mask in 8-byte words, so the floor matches its `memory_size >= 8`
        // requirement — a validated program must never crash the verifier.
        if self.memory_size < 8 || !self.memory_size.is_power_of_two() {
            return Err(ValidateError::BadMemorySize {
                size: self.memory_size,
            });
        }
        if self.entry.index() >= self.blocks.len() {
            return Err(ValidateError::BadEntry { entry: self.entry });
        }
        let mut has_halt = false;
        for block in self.blocks() {
            // Successor edges are matched inline rather than through
            // `Terminator::successors` so validation performs no heap
            // allocation: the prepared-execution path validates one
            // program per nonce.
            let check = |to: BlockId| {
                if to.index() >= self.blocks.len() {
                    Err(ValidateError::DanglingEdge { from: block.id, to })
                } else {
                    Ok(())
                }
            };
            match block.terminator {
                Terminator::Halt => has_halt = true,
                Terminator::Jump(to) => check(to)?,
                Terminator::Branch {
                    taken, not_taken, ..
                } => {
                    check(taken)?;
                    check(not_taken)?;
                }
            }
            check_block(block)?;
        }
        if !has_halt {
            return Err(ValidateError::NoHalt);
        }
        Ok(())
    }

    /// Returns the static program counter of the first slot of block `id`
    /// under the canonical block-major layout.
    ///
    /// Every instruction occupies one pc slot and every block's terminator
    /// occupies one additional slot, so block `id` starts at its arena
    /// offset plus `id` and its terminator sits `instructions.len()` slots
    /// later.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range; validated programs never do this.
    pub fn block_pc_base(&self, id: BlockId) -> u32 {
        assert!(id.index() < self.blocks.len(), "block {id} does not exist");
        self.body_start(id.index()) as u32 + id.0
    }

    /// Total number of static pc slots (instructions plus one terminator slot
    /// per block).
    pub fn pc_slot_count(&self) -> u32 {
        (self.instructions.len() + self.blocks.len()) as u32
    }

    /// Computes static statistics for the program.
    pub fn stats(&self) -> ProgramStats {
        let mut stats = ProgramStats {
            block_count: self.blocks.len(),
            ..ProgramStats::default()
        };
        for block in self.blocks() {
            for inst in block.instructions {
                *stats.class_counts.entry(inst.class()).or_insert(0) += 1;
                stats.static_instructions += 1;
                if matches!(inst, Instruction::Snapshot) {
                    stats.snapshots += 1;
                }
            }
            if block.terminator.is_conditional() {
                *stats.class_counts.entry(OpClass::Branch).or_insert(0) += 1;
                stats.static_instructions += 1;
                stats.conditional_branches += 1;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{BranchCond, IntAluOp};
    use crate::reg::IntReg;

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new(256);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 1);
        b.load_imm(IntReg(1), 2);
        b.int_alu(IntAluOp::Add, IntReg(2), IntReg(0), IntReg(1));
        b.snapshot();
        b.terminate(Terminator::Halt);
        b.finish(entry)
    }

    #[test]
    fn tiny_program_validates() {
        assert_eq!(tiny_program().validate(), Ok(()));
    }

    #[test]
    fn stats_count_classes() {
        let stats = tiny_program().stats();
        assert_eq!(stats.block_count, 1);
        assert_eq!(stats.snapshots, 1);
        assert_eq!(stats.class_counts[&OpClass::IntAlu], 3);
        assert_eq!(stats.class_counts[&OpClass::Control], 1);
        assert_eq!(stats.conditional_branches, 0);
        assert_eq!(stats.static_instructions, 4);
    }

    #[test]
    fn empty_program_rejected() {
        let p = Program::new(Vec::new(), BlockId(0), 256);
        assert_eq!(p.validate(), Err(ValidateError::Empty));
    }

    #[test]
    fn bad_memory_size_rejected() {
        let mut p = tiny_program();
        p.memory_size = 300;
        assert_eq!(
            p.validate(),
            Err(ValidateError::BadMemorySize { size: 300 })
        );
        p.memory_size = 0;
        assert_eq!(p.validate(), Err(ValidateError::BadMemorySize { size: 0 }));
        // Power-of-two sizes below the executor's 8-byte floor must be
        // rejected too, or a decoded program could panic the verifier.
        p.memory_size = 4;
        assert_eq!(p.validate(), Err(ValidateError::BadMemorySize { size: 4 }));
    }

    #[test]
    fn bad_entry_rejected() {
        let mut p = tiny_program();
        p.entry = BlockId(9);
        assert_eq!(
            p.validate(),
            Err(ValidateError::BadEntry { entry: BlockId(9) })
        );
    }

    #[test]
    fn dangling_edge_rejected() {
        let branch = Terminator::Branch {
            cond: BranchCond::Eq,
            src1: IntReg(0),
            src2: IntReg(0),
            taken: BlockId(5),
            not_taken: BlockId(0),
        };
        let p = Program::new(
            [(&[][..], branch), (&[], Terminator::Halt)],
            BlockId(0),
            256,
        );
        assert_eq!(
            p.validate(),
            Err(ValidateError::DanglingEdge {
                from: BlockId(0),
                to: BlockId(5)
            })
        );
    }

    #[test]
    fn invalid_register_rejected() {
        let body = [Instruction::LoadImm {
            dst: IntReg(200),
            imm: 0,
        }];
        let p = Program::new([(&body[..], Terminator::Halt)], BlockId(0), 256);
        assert_eq!(
            p.validate(),
            Err(ValidateError::InvalidRegister {
                block: BlockId(0),
                index: 0
            })
        );
    }

    #[test]
    fn invalid_branch_register_rejected_at_the_terminator() {
        let body = [Instruction::LoadImm {
            dst: IntReg(3),
            imm: 0,
        }; 2];
        let branch = |src1, src2| Terminator::Branch {
            cond: BranchCond::Eq,
            src1: IntReg(src1),
            src2: IntReg(src2),
            taken: BlockId(1),
            not_taken: BlockId(1),
        };
        for terminator in [branch(16, 0), branch(0, 16)] {
            let p = Program::new(
                [(&body[..], terminator), (&[], Terminator::Halt)],
                BlockId(0),
                256,
            );
            assert_eq!(
                p.validate(),
                Err(ValidateError::InvalidRegister {
                    block: BlockId(0),
                    index: 2
                })
            );
        }
    }

    #[test]
    fn a_block_reports_its_missing_successor_before_its_registers() {
        let body = [Instruction::LoadImm {
            dst: IntReg(200),
            imm: 0,
        }];
        let p = Program::new(
            [
                (&body[..], Terminator::Jump(BlockId(7))),
                (&[], Terminator::Halt),
            ],
            BlockId(0),
            256,
        );
        assert_eq!(
            p.validate(),
            Err(ValidateError::DanglingEdge {
                from: BlockId(0),
                to: BlockId(7)
            })
        );
    }

    #[test]
    fn validate_with_visits_every_block_once_in_order() {
        let p = Program::new(
            [
                (&[][..], Terminator::Jump(BlockId(2))),
                (&[], Terminator::Halt),
                (&[], Terminator::Jump(BlockId(1))),
            ],
            BlockId(0),
            256,
        );
        let mut seen = Vec::new();
        assert_eq!(
            p.validate_with(|block| {
                seen.push(block.id);
                Ok(())
            }),
            Ok(())
        );
        assert_eq!(seen, [BlockId(0), BlockId(1), BlockId(2)]);
        // The first error from the callback stops the walk.
        assert_eq!(
            p.validate_with(|block| Err(ValidateError::DanglingEdge {
                from: block.id,
                to: block.id
            })),
            Err(ValidateError::DanglingEdge {
                from: BlockId(0),
                to: BlockId(0)
            })
        );
    }

    #[test]
    fn missing_halt_rejected() {
        let p = Program::new([(&[][..], Terminator::Jump(BlockId(0)))], BlockId(0), 256);
        assert_eq!(p.validate(), Err(ValidateError::NoHalt));
    }

    #[test]
    fn validate_error_display() {
        let err = ValidateError::DanglingEdge {
            from: BlockId(1),
            to: BlockId(2),
        };
        assert!(err.to_string().contains("bb1"));
        assert!(err.to_string().contains("bb2"));
    }
}
