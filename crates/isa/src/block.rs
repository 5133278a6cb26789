//! Basic blocks and control-flow terminators.

use crate::inst::{BranchCond, Instruction};
use crate::reg::IntReg;
use std::fmt;

/// Identifier of a basic block inside a [`crate::Program`].
///
/// Block ids are dense indices into the program's block table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Returns the index form of the id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// How control leaves a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump to another block.
    Jump(BlockId),
    /// Conditional two-way branch.
    Branch {
        /// Comparison applied to the two source registers.
        cond: BranchCond,
        /// First comparison operand.
        src1: IntReg,
        /// Second comparison operand.
        src2: IntReg,
        /// Successor when the condition holds.
        taken: BlockId,
        /// Successor when the condition does not hold.
        not_taken: BlockId,
    },
    /// Terminates widget execution.
    Halt,
}

impl Terminator {
    /// Returns the blocks this terminator can transfer control to.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(target) => vec![*target],
            Terminator::Branch {
                taken, not_taken, ..
            } => vec![*taken, *not_taken],
            Terminator::Halt => Vec::new(),
        }
    }

    /// Returns `true` if the terminator is a conditional branch (the only
    /// terminator kind that exercises the branch predictor).
    pub fn is_conditional(&self) -> bool {
        matches!(self, Terminator::Branch { .. })
    }

    /// Returns `true` if every register the terminator reads is inside its
    /// architectural file.
    pub(crate) fn registers_valid(&self) -> bool {
        match self {
            Terminator::Branch { src1, src2, .. } => src1.is_valid() && src2.is_valid(),
            Terminator::Jump(_) | Terminator::Halt => true,
        }
    }
}

/// A straight-line sequence of instructions ending in a single terminator,
/// borrowed from its [`crate::Program`].
///
/// A program stores every block body back to back in one instruction arena;
/// a `BasicBlock` is the view of one block's slice of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicBlock<'a> {
    /// The block's id (its index in the program block table).
    pub id: BlockId,
    /// Straight-line body instructions.
    pub instructions: &'a [Instruction],
    /// Control-flow exit.
    pub terminator: Terminator,
}

impl<'a> BasicBlock<'a> {
    /// Creates a block view with the given id, body and terminator.
    pub fn new(id: BlockId, instructions: &'a [Instruction], terminator: Terminator) -> Self {
        Self {
            id,
            instructions,
            terminator,
        }
    }

    /// Number of dynamic operations the block contributes per execution
    /// (body instructions plus one for the terminator when it is a branch).
    pub fn len(&self) -> usize {
        self.instructions.len() + usize::from(self.terminator.is_conditional())
    }

    /// Returns `true` if the block has no body instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::IntAluOp;

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId(7).to_string(), "bb7");
        assert_eq!(BlockId(7).index(), 7);
    }

    #[test]
    fn successors() {
        assert_eq!(Terminator::Jump(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(Terminator::Halt.successors(), Vec::<BlockId>::new());
        let branch = Terminator::Branch {
            cond: BranchCond::Eq,
            src1: IntReg(0),
            src2: IntReg(1),
            taken: BlockId(1),
            not_taken: BlockId(2),
        };
        assert_eq!(branch.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(branch.is_conditional());
        assert!(!Terminator::Halt.is_conditional());
    }

    #[test]
    fn block_len_counts_branch() {
        let body = vec![Instruction::IntAlu {
            op: IntAluOp::Add,
            dst: IntReg(0),
            src1: IntReg(0),
            src2: IntReg(1),
        }];
        let block = BasicBlock::new(BlockId(0), &body, Terminator::Halt);
        assert_eq!(block.len(), 1);
        assert!(!block.is_empty());
        let block = BasicBlock::new(
            BlockId(0),
            &body,
            Terminator::Branch {
                cond: BranchCond::Ne,
                src1: IntReg(0),
                src2: IntReg(1),
                taken: BlockId(0),
                not_taken: BlockId(0),
            },
        );
        assert_eq!(block.len(), 2);
    }
}
