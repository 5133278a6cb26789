//! Step-limit boundary cases.
//!
//! A halting program that retires `T` instructions succeeds exactly when
//! `max_steps > T` and otherwise fails with `StepLimitExceeded`, whatever
//! instruction the limit lands on and whether the trace is collected. Each
//! case runs both through `Executor::execute` and through one reused
//! `ExecScratch`, so a run after an error must still match a fresh one.

use hashcore_isa::{BranchCond, IntAluOp, IntMulOp, IntReg, Program, ProgramBuilder, Terminator};
use hashcore_vm::{ExecConfig, ExecError, ExecScratch, Executor, PreparedProgram};

/// A program of `t` straight-line instructions and a halt, split over two
/// blocks joined by a jump when `t >= 2` (a jump retires nothing).
fn straight_line(t: u64) -> Program {
    let mut b = ProgramBuilder::new(256);
    let entry = b.begin_block();
    let first = t / 2;
    for i in 0..t {
        if i == first && t >= 2 {
            let next = b.reserve_block();
            b.terminate(Terminator::Jump(next));
            b.begin_reserved(next);
        }
        match i % 3 {
            0 => b.load_imm(IntReg((i % 8) as u8), i as i64),
            1 => b.int_alu_imm(IntAluOp::Add, IntReg(1), IntReg(0), 7),
            _ => b.snapshot(),
        }
    }
    b.terminate(Terminator::Halt);
    b.finish(entry)
}

/// Loop shape: `SETUP` instructions, then `ITERS` passes of a body of
/// `BODY` instructions and a back-edge branch, then `EXIT` instructions and
/// a halt.
const SETUP: u64 = 3;
const BODY: u64 = 3;
const ITERS: u64 = 5;
const EXIT: u64 = 1;
const LOOP_STEPS: u64 = SETUP + ITERS * (BODY + 1) + EXIT;

fn counted_loop() -> Program {
    let mut b = ProgramBuilder::new(256);
    let entry = b.begin_block();
    b.load_imm(IntReg(0), ITERS as i64);
    b.load_imm(IntReg(1), 0);
    b.load_imm(IntReg(2), 3);
    let body = b.reserve_block();
    let exit = b.reserve_block();
    b.terminate(Terminator::Jump(body));
    b.begin_reserved(body);
    b.int_mul(IntMulOp::Mul, IntReg(2), IntReg(2), IntReg(2));
    b.int_alu_imm(IntAluOp::Xor, IntReg(3), IntReg(2), 11);
    b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
    b.branch(BranchCond::Ne, IntReg(0), IntReg(1), body, exit);
    b.begin_reserved(exit);
    b.snapshot();
    b.terminate(Terminator::Halt);
    b.finish(entry)
}

fn config(max_steps: u64, collect_trace: bool) -> ExecConfig {
    ExecConfig {
        max_steps,
        collect_trace,
        memory_seed: 5,
    }
}

/// Runs `program` under `max_steps` with the trace on and off, through both
/// entry points, and checks the result against the program's retired
/// instruction count `t`.
fn assert_limit(program: &Program, t: u64, max_steps: u64, scratch: &mut ExecScratch) {
    let prepared = PreparedProgram::new(program).expect("program validates");
    for collect_trace in [false, true] {
        let config = config(max_steps, collect_trace);
        let executor = Executor::new(config);
        let fresh = executor.execute(program);
        let reused = executor.execute_prepared(&prepared, scratch);
        let context = format!("T = {t}, max_steps = {max_steps}, trace = {collect_trace}");
        if max_steps > t {
            let fresh = fresh.unwrap_or_else(|e| panic!("{context}: {e}"));
            let reused = reused.unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_eq!(fresh.dynamic_instructions, t, "{context}");
            assert_eq!(reused.dynamic_instructions, t, "{context}");
            assert_eq!(reused.snapshot_count, fresh.snapshot_count, "{context}");
            assert_eq!(scratch.output(), fresh.output.as_slice(), "{context}");
            assert_eq!(scratch.final_state(), &fresh.final_state, "{context}");
            let traced = if collect_trace { t as usize } else { 0 };
            assert_eq!(fresh.trace.len(), traced, "{context}");
            assert_eq!(scratch.trace().len(), traced, "{context}");
        } else {
            let expected = Err(ExecError::StepLimitExceeded { limit: max_steps });
            assert_eq!(fresh.map(|e| e.dynamic_instructions), expected, "{context}");
            assert_eq!(
                reused.map(|s| s.dynamic_instructions),
                expected,
                "{context}"
            );
        }
    }
}

#[test]
fn straight_line_limit_boundary() {
    let mut scratch = ExecScratch::new();
    for t in [1, 2, 7, 12] {
        let program = straight_line(t);
        for max_steps in [t - 1, t, t + 1] {
            assert_limit(&program, t, max_steps, &mut scratch);
        }
    }
}

#[test]
fn counted_loop_limit_mid_body_and_on_a_branch() {
    let program = counted_loop();
    let mut scratch = ExecScratch::new();
    // Two passes in: the limit lands on the second body instruction, then
    // exactly on the back-edge branch, then just after it.
    let passes = SETUP + 2 * (BODY + 1);
    for max_steps in [passes + 1, passes + BODY, passes + BODY + 1] {
        assert_limit(&program, LOOP_STEPS, max_steps, &mut scratch);
    }
    // Every limit around the whole run, including the last branch and halt.
    for max_steps in 0..=LOOP_STEPS + 2 {
        assert_limit(&program, LOOP_STEPS, max_steps, &mut scratch);
    }
}

#[test]
fn zero_step_limit_fails_every_program() {
    let mut scratch = ExecScratch::new();
    assert_limit(&straight_line(0), 0, 0, &mut scratch);
    assert_limit(&straight_line(4), 4, 0, &mut scratch);
    assert_limit(&counted_loop(), LOOP_STEPS, 0, &mut scratch);
}
