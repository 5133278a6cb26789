//! C source emission for widget programs.
//!
//! The paper's widget pipeline generates a C program which gcc compiles to
//! native x86 (Section IV-B). For portability and verification determinism
//! the reproduction *executes* widgets on the `hashcore-vm` interpreter, but
//! this module emits a C rendering of the widget so the original pipeline
//! remains inspectable: the emitted translation unit walks the widget's
//! control-flow graph through `goto`-labelled blocks, with 64-bit integer
//! arithmetic and IEEE-754 doubles, and at each snapshot writes the integer
//! and FP registers to `stdout`.
//!
//! The C is not yet a bit-exact oracle for the VM: compiled, it prints
//! different bytes. It departs from the VM in five known ways.
//!
//! 1. It starts from zero registers and zero memory. The VM's
//!    `MachineState::seed` fills memory, then the integer, FP and vector
//!    registers, from one splitmix64 stream of the memory seed.
//! 2. A snapshot writes the integer and FP registers only (256 bytes). The
//!    VM's also writes the 32 vector lanes (512 bytes in all).
//! 3. Its `canon` turns NaN into 0.0 but keeps -0.0; the VM's turns both
//!    into +0.0. Its `FpLoad` and `FpStore` copy raw bits; the VM
//!    canonicalises both.
//! 4. `FpToInt` casts with `(int64_t)`, which is undefined in C for an
//!    out-of-range value; Rust's `as` saturates.
//! 5. It has no step limit, so a program that never halts hangs it.

use crate::block::Terminator;
use crate::inst::{FpOp, Instruction, IntAluOp, IntMulOp, VecOp};
use crate::program::Program;
use crate::reg::{NUM_FP_REGS, NUM_INT_REGS, NUM_VEC_REGS, VEC_LANES};
use std::fmt::Write as _;

/// Emits a self-contained C translation unit that renders `program`'s
/// control flow and instructions. Its output is not the VM's: see the
/// module docs for the five ways it departs.
///
/// # Examples
///
/// ```
/// use hashcore_isa::{ProgramBuilder, Terminator, emit_c_source};
///
/// let mut b = ProgramBuilder::new(64);
/// let entry = b.begin_block();
/// b.snapshot();
/// b.terminate(Terminator::Halt);
/// let source = emit_c_source(&b.finish(entry));
/// assert!(source.contains("int main(void)"));
/// ```
pub fn emit_c_source(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* Auto-generated HashCore widget ({} blocks). */",
        program.blocks().len()
    );
    out.push_str("#include <stdint.h>\n#include <stdio.h>\n#include <string.h>\n\n");
    let _ = writeln!(out, "#define MEM_SIZE {}", program.memory_size());
    let _ = writeln!(out, "#define MEM_MASK (MEM_SIZE - 1)");
    out.push_str(
        "static uint8_t mem[MEM_SIZE];\n\
         static uint64_t ld64(uint64_t a) { uint64_t v; memcpy(&v, mem + (a & MEM_MASK & ~7ull), 8); return v; }\n\
         static void st64(uint64_t a, uint64_t v) { memcpy(mem + (a & MEM_MASK & ~7ull), &v, 8); }\n\
         static uint64_t rotl64(uint64_t x, uint64_t s) { s &= 63; return s ? (x << s) | (x >> (64 - s)) : x; }\n\
         static double canon(double x) { return x != x ? 0.0 : x; }\n\
         static void emit_snapshot(const uint64_t *r, const double *f) {\n\
             fwrite(r, 8, ",
    );
    let _ = write!(out, "{NUM_INT_REGS}");
    out.push_str(
        ", stdout);\n\
             fwrite(f, 8, ",
    );
    let _ = write!(out, "{NUM_FP_REGS}");
    out.push_str(
        ", stdout);\n\
         }\n\n",
    );
    out.push_str("int main(void) {\n");
    let _ = writeln!(out, "    uint64_t r[{NUM_INT_REGS}] = {{0}};");
    let _ = writeln!(out, "    double f[{NUM_FP_REGS}] = {{0}};");
    let _ = writeln!(
        out,
        "    uint64_t v[{NUM_VEC_REGS}][{VEC_LANES}] = {{{{0}}}};"
    );
    let _ = writeln!(out, "    goto bb{};", program.entry().0);

    for block in program.blocks() {
        let _ = writeln!(out, "bb{}:", block.id.0);
        for inst in block.instructions {
            emit_instruction(&mut out, inst);
        }
        match &block.terminator {
            Terminator::Jump(target) => {
                let _ = writeln!(out, "    goto bb{};", target.0);
            }
            Terminator::Branch {
                cond,
                src1,
                src2,
                taken,
                not_taken,
            } => {
                let expr = match cond {
                    crate::BranchCond::Eq => format!("r[{}] == r[{}]", src1.0, src2.0),
                    crate::BranchCond::Ne => format!("r[{}] != r[{}]", src1.0, src2.0),
                    crate::BranchCond::Lt => {
                        format!("(int64_t)r[{}] < (int64_t)r[{}]", src1.0, src2.0)
                    }
                    crate::BranchCond::Ge => {
                        format!("(int64_t)r[{}] >= (int64_t)r[{}]", src1.0, src2.0)
                    }
                    crate::BranchCond::Ltu => format!("r[{}] < r[{}]", src1.0, src2.0),
                    crate::BranchCond::Geu => format!("r[{}] >= r[{}]", src1.0, src2.0),
                };
                let _ = writeln!(
                    out,
                    "    if ({expr}) goto bb{}; else goto bb{};",
                    taken.0, not_taken.0
                );
            }
            Terminator::Halt => {
                out.push_str("    return 0;\n");
            }
        }
    }
    out.push_str("}\n");
    out
}

fn alu_expr(op: IntAluOp, a: &str, b: &str) -> String {
    match op {
        IntAluOp::Add => format!("{a} + {b}"),
        IntAluOp::Sub => format!("{a} - {b}"),
        IntAluOp::And => format!("{a} & {b}"),
        IntAluOp::Or => format!("{a} | {b}"),
        IntAluOp::Xor => format!("{a} ^ {b}"),
        IntAluOp::Shl => format!("{a} << ({b} & 63)"),
        IntAluOp::Shr => format!("{a} >> ({b} & 63)"),
        IntAluOp::Rotl => format!("rotl64({a}, {b})"),
        IntAluOp::Min => format!("({a} < {b} ? {a} : {b})"),
        IntAluOp::Max => format!("({a} > {b} ? {a} : {b})"),
    }
}

fn emit_instruction(out: &mut String, inst: &Instruction) {
    match inst {
        Instruction::IntAlu {
            op,
            dst,
            src1,
            src2,
        } => {
            let a = format!("r[{}]", src1.0);
            let b = format!("r[{}]", src2.0);
            let _ = writeln!(out, "    r[{}] = {};", dst.0, alu_expr(*op, &a, &b));
        }
        Instruction::IntAluImm { op, dst, src, imm } => {
            let a = format!("r[{}]", src.0);
            let b = format!("(uint64_t)(int64_t){imm}");
            let _ = writeln!(out, "    r[{}] = {};", dst.0, alu_expr(*op, &a, &b));
        }
        Instruction::IntMul {
            op,
            dst,
            src1,
            src2,
        } => match op {
            IntMulOp::Mul => {
                let _ = writeln!(out, "    r[{}] = r[{}] * r[{}];", dst.0, src1.0, src2.0);
            }
            IntMulOp::MulHi => {
                let _ = writeln!(
                    out,
                    "    r[{}] = (uint64_t)(((__uint128_t)r[{}] * (__uint128_t)r[{}]) >> 64);",
                    dst.0, src1.0, src2.0
                );
            }
        },
        Instruction::LoadImm { dst, imm } => {
            let _ = writeln!(out, "    r[{}] = (uint64_t)(int64_t){imm}LL;", dst.0);
        }
        Instruction::Fp {
            op,
            dst,
            src1,
            src2,
        } => {
            let a = format!("f[{}]", src1.0);
            let b = format!("f[{}]", src2.0);
            let expr = match op {
                FpOp::Add => format!("{a} + {b}"),
                FpOp::Sub => format!("{a} - {b}"),
                FpOp::Mul => format!("{a} * {b}"),
                FpOp::Div => format!("{a} / {b}"),
                FpOp::Min => format!("({a} < {b} ? {a} : {b})"),
                FpOp::Max => format!("({a} > {b} ? {a} : {b})"),
            };
            let _ = writeln!(out, "    f[{}] = canon({expr});", dst.0);
        }
        Instruction::FpFromInt { dst, src } => {
            let _ = writeln!(out, "    f[{}] = (double)(int64_t)r[{}];", dst.0, src.0);
        }
        Instruction::FpToInt { dst, src } => {
            let _ = writeln!(
                out,
                "    r[{}] = (uint64_t)(int64_t)canon(f[{}]);",
                dst.0, src.0
            );
        }
        Instruction::Load { dst, base, offset } => {
            let _ = writeln!(
                out,
                "    r[{}] = ld64(r[{}] + (int64_t){offset});",
                dst.0, base.0
            );
        }
        Instruction::Store { src, base, offset } => {
            let _ = writeln!(
                out,
                "    st64(r[{}] + (int64_t){offset}, r[{}]);",
                base.0, src.0
            );
        }
        Instruction::FpLoad { dst, base, offset } => {
            let _ = writeln!(
                out,
                "    {{ uint64_t t = ld64(r[{}] + (int64_t){offset}); memcpy(&f[{}], &t, 8); }}",
                base.0, dst.0
            );
        }
        Instruction::FpStore { src, base, offset } => {
            let _ = writeln!(
                out,
                "    {{ uint64_t t; memcpy(&t, &f[{}], 8); st64(r[{}] + (int64_t){offset}, t); }}",
                src.0, base.0
            );
        }
        Instruction::Vec {
            op,
            dst,
            src1,
            src2,
        } => {
            let expr = |a: String, b: String| match op {
                VecOp::Add => format!("{a} + {b}"),
                VecOp::Xor => format!("{a} ^ {b}"),
                VecOp::Mul => format!("{a} * {b}"),
                VecOp::Rotl => format!("rotl64({a}, {b})"),
            };
            let _ = writeln!(
                out,
                "    for (int l = 0; l < {VEC_LANES}; ++l) v[{}][l] = {};",
                dst.0,
                expr(format!("v[{}][l]", src1.0), format!("v[{}][l]", src2.0))
            );
        }
        Instruction::VecLoad { dst, base, offset } => {
            let _ = writeln!(
                out,
                "    for (int l = 0; l < {VEC_LANES}; ++l) v[{}][l] = ld64(r[{}] + (int64_t){offset} + 8*l);",
                dst.0, base.0
            );
        }
        Instruction::VecStore { src, base, offset } => {
            let _ = writeln!(
                out,
                "    for (int l = 0; l < {VEC_LANES}; ++l) st64(r[{}] + (int64_t){offset} + 8*l, v[{}][l]);",
                base.0, src.0
            );
        }
        Instruction::Snapshot => {
            out.push_str("    emit_snapshot(r, f);\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{FpOp, IntAluOp, IntMulOp, VecOp};
    use crate::reg::{FpReg, IntReg, VecReg};
    use crate::{BranchCond, Terminator};

    #[test]
    fn emits_all_constructs() {
        let mut b = ProgramBuilder::new(512);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 3);
        b.int_alu(IntAluOp::Rotl, IntReg(1), IntReg(0), IntReg(0));
        b.int_alu_imm(IntAluOp::Min, IntReg(2), IntReg(1), 9);
        b.int_mul(IntMulOp::MulHi, IntReg(3), IntReg(2), IntReg(1));
        b.fp_from_int(FpReg(0), IntReg(3));
        b.fp(FpOp::Div, FpReg(1), FpReg(0), FpReg(0));
        b.fp_to_int(IntReg(4), FpReg(1));
        b.load(IntReg(5), IntReg(0), 8);
        b.store(IntReg(5), IntReg(0), 16);
        b.fp_load(FpReg(2), IntReg(0), 24);
        b.fp_store(FpReg(2), IntReg(0), 32);
        b.vec(VecOp::Mul, VecReg(0), VecReg(1), VecReg(2));
        b.vec_load(VecReg(1), IntReg(0), 64);
        b.vec_store(VecReg(1), IntReg(0), 96);
        b.snapshot();
        let exit = b.reserve_block();
        b.branch(BranchCond::Geu, IntReg(0), IntReg(1), entry, exit);
        b.begin_reserved(exit);
        b.terminate(Terminator::Halt);
        let src = emit_c_source(&b.finish(entry));

        for needle in [
            "int main(void)",
            "#define MEM_SIZE 512",
            "rotl64(r[0], r[0])",
            "__uint128_t",
            "emit_snapshot(r, f);",
            "goto bb0",
            "return 0;",
            "f[1] = canon(f[0] / f[0]);",
        ] {
            assert!(src.contains(needle), "missing {needle:?}");
        }
        // Balanced braces is a cheap well-formedness smoke test.
        assert_eq!(src.matches('{').count(), src.matches('}').count());
    }
}
