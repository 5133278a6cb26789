//! Property-based tests over arbitrary (structurally valid) widget programs:
//! encode/decode round-trips, validation stability, statistics consistency
//! and disassembly totality.

use hashcore_isa::{
    decode, emit_c_source, encode, BasicBlock, BlockId, BranchCond, FpOp, FpReg, Instruction,
    IntAluOp, IntMulOp, IntReg, OpClass, Program, Terminator, VecOp, VecReg,
};
use proptest::prelude::*;

fn arb_int_reg() -> impl Strategy<Value = IntReg> {
    (0u8..16).prop_map(IntReg)
}
fn arb_fp_reg() -> impl Strategy<Value = FpReg> {
    (0u8..16).prop_map(FpReg)
}
fn arb_vec_reg() -> impl Strategy<Value = VecReg> {
    (0u8..8).prop_map(VecReg)
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (
            prop::sample::select(IntAluOp::ALL.to_vec()),
            arb_int_reg(),
            arb_int_reg(),
            arb_int_reg()
        )
            .prop_map(|(op, dst, src1, src2)| Instruction::IntAlu {
                op,
                dst,
                src1,
                src2
            }),
        (
            prop::sample::select(IntAluOp::ALL.to_vec()),
            arb_int_reg(),
            arb_int_reg(),
            any::<i32>()
        )
            .prop_map(|(op, dst, src, imm)| Instruction::IntAluImm { op, dst, src, imm }),
        (
            prop::sample::select(IntMulOp::ALL.to_vec()),
            arb_int_reg(),
            arb_int_reg(),
            arb_int_reg()
        )
            .prop_map(|(op, dst, src1, src2)| Instruction::IntMul {
                op,
                dst,
                src1,
                src2
            }),
        (arb_int_reg(), any::<i64>()).prop_map(|(dst, imm)| Instruction::LoadImm { dst, imm }),
        (
            prop::sample::select(FpOp::ALL.to_vec()),
            arb_fp_reg(),
            arb_fp_reg(),
            arb_fp_reg()
        )
            .prop_map(|(op, dst, src1, src2)| Instruction::Fp {
                op,
                dst,
                src1,
                src2
            }),
        (arb_fp_reg(), arb_int_reg()).prop_map(|(dst, src)| Instruction::FpFromInt { dst, src }),
        (arb_int_reg(), arb_fp_reg()).prop_map(|(dst, src)| Instruction::FpToInt { dst, src }),
        (arb_int_reg(), arb_int_reg(), any::<i32>())
            .prop_map(|(dst, base, offset)| Instruction::Load { dst, base, offset }),
        (arb_int_reg(), arb_int_reg(), any::<i32>())
            .prop_map(|(src, base, offset)| Instruction::Store { src, base, offset }),
        (arb_fp_reg(), arb_int_reg(), any::<i32>())
            .prop_map(|(dst, base, offset)| Instruction::FpLoad { dst, base, offset }),
        (arb_fp_reg(), arb_int_reg(), any::<i32>())
            .prop_map(|(src, base, offset)| Instruction::FpStore { src, base, offset }),
        (
            prop::sample::select(VecOp::ALL.to_vec()),
            arb_vec_reg(),
            arb_vec_reg(),
            arb_vec_reg()
        )
            .prop_map(|(op, dst, src1, src2)| Instruction::Vec {
                op,
                dst,
                src1,
                src2
            }),
        (arb_vec_reg(), arb_int_reg(), any::<i32>())
            .prop_map(|(dst, base, offset)| Instruction::VecLoad { dst, base, offset }),
        (arb_vec_reg(), arb_int_reg(), any::<i32>())
            .prop_map(|(src, base, offset)| Instruction::VecStore { src, base, offset }),
        Just(Instruction::Snapshot),
    ]
}

/// Builds a structurally valid program: every block terminates, the last
/// block halts, and branch targets stay within range.
fn arb_program() -> impl Strategy<Value = Program> {
    let block_count = 1usize..8;
    block_count.prop_flat_map(|blocks| {
        let bodies = prop::collection::vec(prop::collection::vec(arb_instruction(), 0..12), blocks);
        let memory_bits = 6u32..16;
        (bodies, memory_bits, any::<u64>()).prop_map(|(bodies, memory_bits, picker)| {
            let count = bodies.len();
            let blocks: Vec<BasicBlock> = bodies
                .into_iter()
                .enumerate()
                .map(|(i, instructions)| {
                    let id = BlockId(i as u32);
                    let terminator = if i + 1 == count {
                        Terminator::Halt
                    } else if picker.rotate_left(i as u32) % 3 == 0 {
                        Terminator::Branch {
                            cond: BranchCond::ALL[(picker as usize + i) % BranchCond::ALL.len()],
                            src1: IntReg((picker as u8).wrapping_add(i as u8) % 16),
                            src2: IntReg((picker as u8).wrapping_mul(3) % 16),
                            taken: BlockId(((i + 1) % count) as u32),
                            not_taken: BlockId((count - 1) as u32),
                        }
                    } else {
                        Terminator::Jump(BlockId(((i + 1) % count) as u32))
                    };
                    BasicBlock::new(id, instructions, terminator)
                })
                .collect();
            Program::new(blocks, BlockId(0), 1 << memory_bits)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_roundtrip(program in arb_program()) {
        prop_assert_eq!(program.validate(), Ok(()));
        let bytes = encode(&program);
        let decoded = decode(&bytes).expect("decoding an encoded program succeeds");
        prop_assert_eq!(&decoded, &program);
        // Re-encoding is byte identical (canonical encoding).
        prop_assert_eq!(encode(&decoded), bytes);
    }

    #[test]
    fn stats_match_block_contents(program in arb_program()) {
        let stats = program.stats();
        prop_assert_eq!(stats.block_count, program.blocks().len());
        let body_total: usize = program.blocks().iter().map(|b| b.instructions.len()).sum();
        let branches = program
            .blocks()
            .iter()
            .filter(|b| b.terminator.is_conditional())
            .count();
        prop_assert_eq!(stats.static_instructions, body_total + branches);
        prop_assert_eq!(stats.conditional_branches, branches);
        let class_total: usize = stats.class_counts.values().sum();
        prop_assert_eq!(class_total, stats.static_instructions);
        prop_assert_eq!(
            stats.class_counts.get(&OpClass::Branch).copied().unwrap_or(0),
            branches
        );
    }

    #[test]
    fn pc_layout_is_dense_and_consistent(program in arb_program()) {
        let bases = program.block_pc_bases();
        prop_assert_eq!(bases.len(), program.blocks().len());
        let mut expected = 0u32;
        for (base, block) in bases.iter().zip(program.blocks()) {
            prop_assert_eq!(*base, expected);
            expected += block.instructions.len() as u32 + 1;
        }
        prop_assert_eq!(program.pc_slot_count(), expected);
    }

    #[test]
    fn disassembly_and_c_emission_are_total(program in arb_program()) {
        let asm = program.to_string();
        prop_assert!(asm.contains("bb0:"));
        prop_assert!(asm.contains("halt"));
        let c = emit_c_source(&program);
        prop_assert!(c.contains("int main(void)"));
        prop_assert_eq!(c.matches('{').count(), c.matches('}').count());
    }

    #[test]
    fn truncated_encodings_never_decode_to_the_same_program(program in arb_program()) {
        let bytes = encode(&program);
        // Any strict prefix either fails to decode or decodes to a different
        // program (no silent truncation).
        if bytes.len() > 4 {
            let cut = bytes.len() - 1;
            if let Ok(other) = decode(&bytes[..cut]) {
                prop_assert_ne!(other, program);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes decode to a program or an error without panicking —
    /// half of them behind the magic prefix, so the declared counts are
    /// reached and must not size an allocation beyond the input.
    #[test]
    fn arbitrary_bytes_decode_without_panicking(
        magic in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut bytes = if magic { b"HCW1".to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&body);
        let _ = decode(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every truncation of a valid encoding, and every 1-byte mutation of
    /// it to a drawn value, decodes to a program or an error without
    /// panicking.
    #[test]
    fn mutated_and_truncated_encodings_decode_without_panicking(
        program in arb_program(),
        value in any::<u8>(),
    ) {
        let bytes = encode(&program);
        for cut in 0..bytes.len() {
            let _ = decode(&bytes[..cut]);
        }
        let mut mutated = bytes.clone();
        for position in 0..bytes.len() {
            mutated[position] = value;
            let _ = decode(&mutated);
            mutated[position] = bytes[position];
        }
    }
}
