//! Preparation rejects exactly the programs validation rejects.
//!
//! `PreparedProgram::prepare` checks register ranges while it compiles, and
//! shares every other check with `Program::validate`, so both must report
//! the same first error for any program: here, for programs with
//! out-of-range registers in bodies and in branch terminators, missing
//! successors, a missing entry block, a bad memory size or no halt. A
//! program that does validate must then run without panicking.

use hashcore_isa::{
    decode, encode, BlockId, BranchCond, FpOp, FpReg, Instruction, IntAluOp, IntMulOp, IntReg,
    Program, Terminator, ValidateError, VecOp, VecReg, NUM_FP_REGS, NUM_INT_REGS, NUM_VEC_REGS,
};
use hashcore_vm::{ExecConfig, ExecError, Executor, PreparedProgram};
use proptest::prelude::*;

/// A branch on `r16` (or `r255`) survives encoding and decoding, and every
/// entry point then rejects it at the terminator's index without panicking.
#[test]
fn a_decoded_branch_on_an_out_of_range_register_is_rejected() {
    let body = [Instruction::LoadImm {
        dst: IntReg(0),
        imm: 1,
    }; 2];
    let branch = |src1, src2| Terminator::Branch {
        cond: BranchCond::Eq,
        src1: IntReg(src1),
        src2: IntReg(src2),
        taken: BlockId(1),
        not_taken: BlockId(1),
    };
    for (body, terminator) in [(&body[..0], branch(16, 0)), (&body[..], branch(0, 255))] {
        let program = Program::new(
            [(body, terminator), (&[], Terminator::Halt)],
            BlockId(0),
            256,
        );
        let decoded = decode(&encode(&program)).expect("any register byte encodes");
        assert_eq!(decoded, program);
        let expected = ValidateError::InvalidRegister {
            block: BlockId(0),
            index: body.len(),
        };
        assert_eq!(decoded.validate(), Err(expected.clone()));
        assert_eq!(PreparedProgram::new(&decoded).err(), Some(expected.clone()));
        for collect_trace in [false, true] {
            let config = ExecConfig {
                collect_trace,
                ..ExecConfig::default()
            };
            let result = Executor::new(config).execute(&decoded);
            assert_eq!(
                result.err(),
                Some(ExecError::InvalidProgram(expected.clone()))
            );
        }
    }
}

/// A register index: in range for a file of `size` registers, unless `raw`
/// is in the top sixteenth of the byte range, which is out of every file.
fn reg(raw: u8, size: usize) -> u8 {
    if raw >= 240 {
        raw
    } else {
        raw % size as u8
    }
}

/// A block id among `blocks`, unless `raw` is in the top sixteenth of the
/// byte range, which names no block of a program this small.
fn block_id(raw: u8, blocks: usize) -> BlockId {
    if raw >= 240 || blocks == 0 {
        BlockId(raw.into())
    } else {
        BlockId(u32::from(raw) % blocks as u32)
    }
}

/// One instruction of any form from raw draws.
fn instruction((kind, x, y, z, imm): (u8, u8, u8, u8, i32)) -> Instruction {
    let int = |raw| IntReg(reg(raw, NUM_INT_REGS));
    let fp = |raw| FpReg(reg(raw, NUM_FP_REGS));
    let vec = |raw| VecReg(reg(raw, NUM_VEC_REGS));
    let pick = imm.unsigned_abs() as usize;
    match kind % 15 {
        0 => Instruction::IntAlu {
            op: IntAluOp::ALL[pick % IntAluOp::ALL.len()],
            dst: int(x),
            src1: int(y),
            src2: int(z),
        },
        1 => Instruction::IntAluImm {
            op: IntAluOp::ALL[pick % IntAluOp::ALL.len()],
            dst: int(x),
            src: int(y),
            imm,
        },
        2 => Instruction::LoadImm {
            dst: int(x),
            imm: imm.into(),
        },
        3 => Instruction::IntMul {
            op: IntMulOp::ALL[pick % IntMulOp::ALL.len()],
            dst: int(x),
            src1: int(y),
            src2: int(z),
        },
        4 => Instruction::Fp {
            op: FpOp::ALL[pick % FpOp::ALL.len()],
            dst: fp(x),
            src1: fp(y),
            src2: fp(z),
        },
        5 => Instruction::FpFromInt {
            dst: fp(x),
            src: int(y),
        },
        6 => Instruction::FpToInt {
            dst: int(x),
            src: fp(y),
        },
        7 => Instruction::Load {
            dst: int(x),
            base: int(y),
            offset: imm,
        },
        8 => Instruction::Store {
            src: int(x),
            base: int(y),
            offset: imm,
        },
        9 => Instruction::FpLoad {
            dst: fp(x),
            base: int(y),
            offset: imm,
        },
        10 => Instruction::FpStore {
            src: fp(x),
            base: int(y),
            offset: imm,
        },
        11 => Instruction::VecLoad {
            dst: vec(x),
            base: int(y),
            offset: imm,
        },
        12 => Instruction::VecStore {
            src: vec(x),
            base: int(y),
            offset: imm,
        },
        13 => Instruction::Vec {
            op: VecOp::ALL[pick % VecOp::ALL.len()],
            dst: vec(x),
            src1: vec(y),
            src2: vec(z),
        },
        _ => Instruction::Snapshot,
    }
}

/// A halt, jump or branch of a program of `blocks` blocks from raw draws.
fn terminator((kind, x, y, taken, not_taken): (u8, u8, u8, u8, u8), blocks: usize) -> Terminator {
    match kind % 3 {
        0 => Terminator::Halt,
        1 => Terminator::Jump(block_id(taken, blocks)),
        _ => Terminator::Branch {
            cond: BranchCond::ALL[usize::from(kind / 3) % BranchCond::ALL.len()],
            src1: IntReg(reg(x, NUM_INT_REGS)),
            src2: IntReg(reg(y, NUM_INT_REGS)),
            taken: block_id(taken, blocks),
            not_taken: block_id(not_taken, blocks),
        },
    }
}

/// Programs of up to five blocks, mostly well formed, with any mix of the
/// faults `validate` looks for.
fn arb_program() -> impl Strategy<Value = Program> {
    let body = prop::collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<i32>(),
        ),
        0..5,
    );
    let exit = (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
    );
    let blocks = prop::collection::vec((body, exit), 0..6);
    (blocks, any::<u8>(), any::<u8>()).prop_map(|(blocks, entry, memory)| {
        let count = blocks.len();
        let bodies: Vec<Vec<Instruction>> = blocks
            .iter()
            .map(|(body, _)| body.iter().copied().map(instruction).collect())
            .collect();
        let exits = blocks.iter().map(|&(_, exit)| terminator(exit, count));
        let memory_size = if memory >= 240 {
            [0, 4, 12, 100][usize::from(memory % 4)]
        } else {
            8 << (memory % 10)
        };
        Program::new(
            bodies.iter().map(Vec::as_slice).zip(exits),
            block_id(entry, count),
            memory_size,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn preparation_fails_exactly_as_validation_does(program in arb_program()) {
        let expected = program.validate().err();
        prop_assert_eq!(PreparedProgram::new(&program).err(), expected.clone());

        let config = ExecConfig {
            max_steps: 10_000,
            collect_trace: true,
            memory_seed: 7,
        };
        let result = Executor::new(config).execute(&program);
        match expected {
            Some(error) => prop_assert_eq!(result.err(), Some(ExecError::InvalidProgram(error))),
            None => {
                let ran = matches!(result, Ok(_) | Err(ExecError::StepLimitExceeded { .. }));
                prop_assert!(ran);
            }
        }
    }
}
