//! Compact binary encoding of widget programs.
//!
//! The encoding serves three purposes in the reproduction:
//!
//! 1. **Fingerprinting** — the PoW pipeline hashes the encoded widget so test
//!    suites can assert that a given seed always produces the identical
//!    program on every platform.
//! 2. **Size accounting** — experiment E4 reports widget code sizes alongside
//!    output sizes.
//! 3. **Transport** — a verifier could ship generated widgets to a remote
//!    checker.
//!
//! The format is little-endian, length-prefixed, and self-describing enough
//! to round-trip exactly; it is not designed for forward compatibility.

use crate::block::{BasicBlock, BlockId, Terminator};
use crate::inst::{BranchCond, FpOp, Instruction, IntAluOp, IntMulOp, VecOp};
use crate::program::Program;
use crate::reg::{FpReg, IntReg, VecReg};
use std::fmt;

/// Error returned by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream ended before the structure was complete.
    UnexpectedEnd,
    /// An opcode or enum tag was not recognised.
    BadTag {
        /// The unrecognised tag value.
        tag: u8,
        /// What was being decoded.
        context: &'static str,
    },
    /// The magic prefix was wrong.
    BadMagic,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of encoded program"),
            DecodeError::BadTag { tag, context } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            DecodeError::BadMagic => write!(f, "missing widget program magic"),
        }
    }
}

impl std::error::Error for DecodeError {}

const MAGIC: &[u8; 4] = b"HCW1";

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Bytes not yet consumed: an upper bound on the items still to come
    /// (every block and every instruction encodes to at least one byte),
    /// so a declared count never sizes an allocation beyond it.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.data.len() {
            return Err(DecodeError::UnexpectedEnd);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn i32(&mut self) -> Result<i32, DecodeError> {
        Ok(self.u32()? as i32)
    }
    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.u64()? as i64)
    }
}

fn alu_tag(op: IntAluOp) -> u8 {
    IntAluOp::ALL
        .iter()
        .position(|&o| o == op)
        .expect("known op") as u8
}
fn mul_tag(op: IntMulOp) -> u8 {
    IntMulOp::ALL
        .iter()
        .position(|&o| o == op)
        .expect("known op") as u8
}
fn fp_tag(op: FpOp) -> u8 {
    FpOp::ALL.iter().position(|&o| o == op).expect("known op") as u8
}
fn vec_tag(op: VecOp) -> u8 {
    VecOp::ALL.iter().position(|&o| o == op).expect("known op") as u8
}
fn cond_tag(cond: BranchCond) -> u8 {
    BranchCond::ALL
        .iter()
        .position(|&c| c == cond)
        .expect("known cond") as u8
}

fn alu_from(tag: u8) -> Result<IntAluOp, DecodeError> {
    IntAluOp::ALL
        .get(tag as usize)
        .copied()
        .ok_or(DecodeError::BadTag {
            tag,
            context: "int alu op",
        })
}
fn mul_from(tag: u8) -> Result<IntMulOp, DecodeError> {
    IntMulOp::ALL
        .get(tag as usize)
        .copied()
        .ok_or(DecodeError::BadTag {
            tag,
            context: "int mul op",
        })
}
fn fp_from(tag: u8) -> Result<FpOp, DecodeError> {
    FpOp::ALL
        .get(tag as usize)
        .copied()
        .ok_or(DecodeError::BadTag {
            tag,
            context: "fp op",
        })
}
fn vec_from(tag: u8) -> Result<VecOp, DecodeError> {
    VecOp::ALL
        .get(tag as usize)
        .copied()
        .ok_or(DecodeError::BadTag {
            tag,
            context: "vec op",
        })
}
fn cond_from(tag: u8) -> Result<BranchCond, DecodeError> {
    BranchCond::ALL
        .get(tag as usize)
        .copied()
        .ok_or(DecodeError::BadTag {
            tag,
            context: "branch cond",
        })
}

fn encode_instruction(w: &mut Writer, inst: &Instruction) {
    match inst {
        Instruction::IntAlu {
            op,
            dst,
            src1,
            src2,
        } => {
            w.u8(0);
            w.u8(alu_tag(*op));
            w.u8(dst.0);
            w.u8(src1.0);
            w.u8(src2.0);
        }
        Instruction::IntAluImm { op, dst, src, imm } => {
            w.u8(1);
            w.u8(alu_tag(*op));
            w.u8(dst.0);
            w.u8(src.0);
            w.i32(*imm);
        }
        Instruction::IntMul {
            op,
            dst,
            src1,
            src2,
        } => {
            w.u8(2);
            w.u8(mul_tag(*op));
            w.u8(dst.0);
            w.u8(src1.0);
            w.u8(src2.0);
        }
        Instruction::LoadImm { dst, imm } => {
            w.u8(3);
            w.u8(dst.0);
            w.i64(*imm);
        }
        Instruction::Fp {
            op,
            dst,
            src1,
            src2,
        } => {
            w.u8(4);
            w.u8(fp_tag(*op));
            w.u8(dst.0);
            w.u8(src1.0);
            w.u8(src2.0);
        }
        Instruction::FpFromInt { dst, src } => {
            w.u8(5);
            w.u8(dst.0);
            w.u8(src.0);
        }
        Instruction::FpToInt { dst, src } => {
            w.u8(6);
            w.u8(dst.0);
            w.u8(src.0);
        }
        Instruction::Load { dst, base, offset } => {
            w.u8(7);
            w.u8(dst.0);
            w.u8(base.0);
            w.i32(*offset);
        }
        Instruction::Store { src, base, offset } => {
            w.u8(8);
            w.u8(src.0);
            w.u8(base.0);
            w.i32(*offset);
        }
        Instruction::FpLoad { dst, base, offset } => {
            w.u8(9);
            w.u8(dst.0);
            w.u8(base.0);
            w.i32(*offset);
        }
        Instruction::FpStore { src, base, offset } => {
            w.u8(10);
            w.u8(src.0);
            w.u8(base.0);
            w.i32(*offset);
        }
        Instruction::Vec {
            op,
            dst,
            src1,
            src2,
        } => {
            w.u8(11);
            w.u8(vec_tag(*op));
            w.u8(dst.0);
            w.u8(src1.0);
            w.u8(src2.0);
        }
        Instruction::VecLoad { dst, base, offset } => {
            w.u8(12);
            w.u8(dst.0);
            w.u8(base.0);
            w.i32(*offset);
        }
        Instruction::VecStore { src, base, offset } => {
            w.u8(13);
            w.u8(src.0);
            w.u8(base.0);
            w.i32(*offset);
        }
        Instruction::Snapshot => {
            w.u8(14);
        }
    }
}

fn decode_instruction(r: &mut Reader<'_>) -> Result<Instruction, DecodeError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => Instruction::IntAlu {
            op: alu_from(r.u8()?)?,
            dst: IntReg(r.u8()?),
            src1: IntReg(r.u8()?),
            src2: IntReg(r.u8()?),
        },
        1 => Instruction::IntAluImm {
            op: alu_from(r.u8()?)?,
            dst: IntReg(r.u8()?),
            src: IntReg(r.u8()?),
            imm: r.i32()?,
        },
        2 => Instruction::IntMul {
            op: mul_from(r.u8()?)?,
            dst: IntReg(r.u8()?),
            src1: IntReg(r.u8()?),
            src2: IntReg(r.u8()?),
        },
        3 => Instruction::LoadImm {
            dst: IntReg(r.u8()?),
            imm: r.i64()?,
        },
        4 => Instruction::Fp {
            op: fp_from(r.u8()?)?,
            dst: FpReg(r.u8()?),
            src1: FpReg(r.u8()?),
            src2: FpReg(r.u8()?),
        },
        5 => Instruction::FpFromInt {
            dst: FpReg(r.u8()?),
            src: IntReg(r.u8()?),
        },
        6 => Instruction::FpToInt {
            dst: IntReg(r.u8()?),
            src: FpReg(r.u8()?),
        },
        7 => Instruction::Load {
            dst: IntReg(r.u8()?),
            base: IntReg(r.u8()?),
            offset: r.i32()?,
        },
        8 => Instruction::Store {
            src: IntReg(r.u8()?),
            base: IntReg(r.u8()?),
            offset: r.i32()?,
        },
        9 => Instruction::FpLoad {
            dst: FpReg(r.u8()?),
            base: IntReg(r.u8()?),
            offset: r.i32()?,
        },
        10 => Instruction::FpStore {
            src: FpReg(r.u8()?),
            base: IntReg(r.u8()?),
            offset: r.i32()?,
        },
        11 => Instruction::Vec {
            op: vec_from(r.u8()?)?,
            dst: VecReg(r.u8()?),
            src1: VecReg(r.u8()?),
            src2: VecReg(r.u8()?),
        },
        12 => Instruction::VecLoad {
            dst: VecReg(r.u8()?),
            base: IntReg(r.u8()?),
            offset: r.i32()?,
        },
        13 => Instruction::VecStore {
            src: VecReg(r.u8()?),
            base: IntReg(r.u8()?),
            offset: r.i32()?,
        },
        14 => Instruction::Snapshot,
        _ => {
            return Err(DecodeError::BadTag {
                tag,
                context: "instruction",
            })
        }
    })
}

fn encode_terminator(w: &mut Writer, term: &Terminator) {
    match term {
        Terminator::Jump(target) => {
            w.u8(0);
            w.u32(target.0);
        }
        Terminator::Branch {
            cond,
            src1,
            src2,
            taken,
            not_taken,
        } => {
            w.u8(1);
            w.u8(cond_tag(*cond));
            w.u8(src1.0);
            w.u8(src2.0);
            w.u32(taken.0);
            w.u32(not_taken.0);
        }
        Terminator::Halt => w.u8(2),
    }
}

fn decode_terminator(r: &mut Reader<'_>) -> Result<Terminator, DecodeError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => Terminator::Jump(BlockId(r.u32()?)),
        1 => Terminator::Branch {
            cond: cond_from(r.u8()?)?,
            src1: IntReg(r.u8()?),
            src2: IntReg(r.u8()?),
            taken: BlockId(r.u32()?),
            not_taken: BlockId(r.u32()?),
        },
        2 => Terminator::Halt,
        _ => {
            return Err(DecodeError::BadTag {
                tag,
                context: "terminator",
            })
        }
    })
}

/// Encodes a program into its canonical binary form.
///
/// # Examples
///
/// ```
/// use hashcore_isa::{ProgramBuilder, Terminator, encode, decode};
///
/// let mut b = ProgramBuilder::new(64);
/// let entry = b.begin_block();
/// b.snapshot();
/// b.terminate(Terminator::Halt);
/// let program = b.finish(entry);
///
/// let bytes = encode(&program);
/// assert_eq!(decode(&bytes).unwrap(), program);
/// ```
pub fn encode(program: &Program) -> Vec<u8> {
    let mut w = Writer { out: Vec::new() };
    w.out.extend_from_slice(MAGIC);
    w.u64(program.memory_size() as u64);
    w.u32(program.entry().0);
    w.u32(program.blocks().len() as u32);
    for block in program.blocks() {
        w.u32(block.instructions.len() as u32);
        for inst in &block.instructions {
            encode_instruction(&mut w, inst);
        }
        encode_terminator(&mut w, &block.terminator);
    }
    w.out
}

/// Decodes a program previously produced by [`encode`].
///
/// # Errors
///
/// Returns a [`DecodeError`] if the bytes are truncated or contain
/// unrecognised tags.
pub fn decode(bytes: &[u8]) -> Result<Program, DecodeError> {
    let mut r = Reader {
        data: bytes,
        pos: 0,
    };
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let memory_size = r.u64()? as usize;
    let entry = BlockId(r.u32()?);
    let block_count = r.u32()? as usize;
    let mut blocks = Vec::with_capacity(block_count.min(r.remaining()));
    for id in 0..block_count {
        let inst_count = r.u32()? as usize;
        let mut instructions = Vec::with_capacity(inst_count.min(r.remaining()));
        for _ in 0..inst_count {
            instructions.push(decode_instruction(&mut r)?);
        }
        let terminator = decode_terminator(&mut r)?;
        blocks.push(BasicBlock::new(
            BlockId(id as u32),
            instructions,
            terminator,
        ));
    }
    Ok(Program::new(blocks, entry, memory_size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{FpOp, IntAluOp, IntMulOp, VecOp};
    use crate::reg::{FpReg, IntReg, VecReg};

    fn rich_program() -> Program {
        let mut b = ProgramBuilder::new(4096);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), -12345);
        b.int_alu(IntAluOp::Rotl, IntReg(1), IntReg(0), IntReg(0));
        b.int_alu_imm(IntAluOp::Xor, IntReg(2), IntReg(1), -7);
        b.int_mul(IntMulOp::MulHi, IntReg(3), IntReg(2), IntReg(1));
        b.fp_from_int(FpReg(0), IntReg(3));
        b.fp(FpOp::Div, FpReg(1), FpReg(0), FpReg(0));
        b.fp_to_int(IntReg(4), FpReg(1));
        b.load(IntReg(5), IntReg(0), 64);
        b.store(IntReg(5), IntReg(0), -8);
        b.fp_load(FpReg(2), IntReg(0), 128);
        b.fp_store(FpReg(2), IntReg(0), 136);
        b.vec(VecOp::Rotl, VecReg(0), VecReg(1), VecReg(2));
        b.vec_load(VecReg(3), IntReg(0), 256);
        b.vec_store(VecReg(3), IntReg(0), 288);
        b.snapshot();
        let loop_block = b.reserve_block();
        let exit = b.reserve_block();
        b.terminate(Terminator::Jump(loop_block));
        b.begin_reserved(loop_block);
        b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
        b.branch(
            crate::BranchCond::Ne,
            IntReg(0),
            IntReg(15),
            loop_block,
            exit,
        );
        b.begin_reserved(exit);
        b.snapshot();
        b.terminate(Terminator::Halt);
        b.finish(entry)
    }

    #[test]
    fn roundtrip_rich_program() {
        let p = rich_program();
        let bytes = encode(&p);
        let decoded = decode(&bytes).expect("decode");
        assert_eq!(decoded, p);
        assert!(decoded.validate().is_ok());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOPE....."), Err(DecodeError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&rich_program());
        for cut in [0, 3, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).expect_err("should fail");
            assert!(
                matches!(err, DecodeError::UnexpectedEnd | DecodeError::BadMagic),
                "cut={cut} err={err:?}"
            );
        }
    }

    #[test]
    fn bad_instruction_tag_detected() {
        let mut bytes = encode(&rich_program());
        // Locate the first instruction tag (after magic + memsize + entry +
        // block count + inst count) and corrupt it.
        let offset = 4 + 8 + 4 + 4 + 4;
        bytes[offset] = 0xff;
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::BadTag {
                context: "instruction",
                ..
            })
        ));
    }

    #[test]
    fn huge_declared_counts_are_rejected_without_allocating_for_them() {
        // 20 bytes declaring u32::MAX blocks: the count must not size an
        // allocation before the input runs out.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&4096u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 20);
        assert_eq!(decode(&bytes), Err(DecodeError::UnexpectedEnd));
        // The same for one block declaring u32::MAX instructions.
        let mut one_block = bytes[..16].to_vec();
        one_block.extend_from_slice(&1u32.to_le_bytes());
        one_block.extend_from_slice(&u32::MAX.to_le_bytes());
        one_block.push(14); // one snapshot instruction, then the input ends
        assert_eq!(decode(&one_block), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode(&rich_program()), encode(&rich_program()));
    }

    #[test]
    fn decode_error_display() {
        assert!(DecodeError::UnexpectedEnd
            .to_string()
            .contains("unexpected end"));
        assert!(DecodeError::BadMagic.to_string().contains("magic"));
    }
}
