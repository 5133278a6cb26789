//! Assembly-style textual rendering of widget programs.

use crate::block::Terminator;
use crate::inst::Instruction;
use crate::program::Program;
use std::fmt;

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::IntAlu {
                op,
                dst,
                src1,
                src2,
            } => {
                write!(f, "{} {dst}, {src1}, {src2}", op.mnemonic())
            }
            Instruction::IntAluImm { op, dst, src, imm } => {
                write!(f, "{}i {dst}, {src}, {imm}", op.mnemonic())
            }
            Instruction::IntMul {
                op,
                dst,
                src1,
                src2,
            } => {
                write!(f, "{} {dst}, {src1}, {src2}", op.mnemonic())
            }
            Instruction::LoadImm { dst, imm } => write!(f, "li {dst}, {imm}"),
            Instruction::Fp {
                op,
                dst,
                src1,
                src2,
            } => {
                write!(f, "{} {dst}, {src1}, {src2}", op.mnemonic())
            }
            Instruction::FpFromInt { dst, src } => write!(f, "fcvt.d.l {dst}, {src}"),
            Instruction::FpToInt { dst, src } => write!(f, "fcvt.l.d {dst}, {src}"),
            Instruction::Load { dst, base, offset } => write!(f, "ld {dst}, {offset}({base})"),
            Instruction::Store { src, base, offset } => write!(f, "sd {src}, {offset}({base})"),
            Instruction::FpLoad { dst, base, offset } => write!(f, "fld {dst}, {offset}({base})"),
            Instruction::FpStore { src, base, offset } => write!(f, "fsd {src}, {offset}({base})"),
            Instruction::Vec {
                op,
                dst,
                src1,
                src2,
            } => {
                write!(f, "{} {dst}, {src1}, {src2}", op.mnemonic())
            }
            Instruction::VecLoad { dst, base, offset } => write!(f, "vld {dst}, {offset}({base})"),
            Instruction::VecStore { src, base, offset } => write!(f, "vsd {src}, {offset}({base})"),
            Instruction::Snapshot => write!(f, "snapshot"),
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(target) => write!(f, "j {target}"),
            Terminator::Branch {
                cond,
                src1,
                src2,
                taken,
                not_taken,
            } => write!(
                f,
                "{} {src1}, {src2}, {taken} else {not_taken}",
                cond.mnemonic()
            ),
            Terminator::Halt => write!(f, "halt"),
        }
    }
}

impl fmt::Display for Program {
    /// Renders the whole program as annotated assembly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; widget program: {} blocks, {} bytes of memory",
            self.blocks().len(),
            self.memory_size()
        )?;
        writeln!(f, "; entry: {}", self.entry())?;
        for block in self.blocks() {
            writeln!(f, "{}:", block.id)?;
            for inst in block.instructions {
                writeln!(f, "    {inst}")?;
            }
            writeln!(f, "    {}", block.terminator)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::inst::{IntAluOp, IntMulOp};
    use crate::reg::IntReg;
    use crate::{BranchCond, Terminator};

    #[test]
    fn program_disassembly_contains_expected_lines() {
        let mut b = ProgramBuilder::new(128);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 5);
        b.int_alu(IntAluOp::Add, IntReg(1), IntReg(0), IntReg(0));
        b.int_mul(IntMulOp::Mul, IntReg(2), IntReg(1), IntReg(0));
        b.load(IntReg(3), IntReg(0), 24);
        b.snapshot();
        let exit = b.reserve_block();
        b.branch(BranchCond::Ltu, IntReg(0), IntReg(1), entry, exit);
        b.begin_reserved(exit);
        b.terminate(Terminator::Halt);
        let text = b.finish(entry).to_string();
        for needle in [
            "bb0:",
            "li r0, 5",
            "add r1, r0, r0",
            "mul r2, r1, r0",
            "ld r3, 24(r0)",
            "snapshot",
            "bltu r0, r1, bb0 else bb1",
            "halt",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
