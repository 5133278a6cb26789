//! Ergonomic construction of widget programs.

use crate::block::{BlockId, Terminator};
use crate::inst::{BranchCond, FpOp, Instruction, IntAluOp, IntMulOp, VecOp};
use crate::program::Program;
use crate::reg::{FpReg, IntReg, VecReg};

/// Incremental builder for [`Program`]s.
///
/// Blocks are opened with [`ProgramBuilder::begin_block`] (which returns the
/// id that branches can target, even before the block is populated),
/// populated with the instruction helpers, and closed with
/// [`ProgramBuilder::terminate`]. Both the reference workloads and the widget
/// generator construct programs through this type.
///
/// # Examples
///
/// ```
/// use hashcore_isa::{ProgramBuilder, IntReg, IntAluOp, BranchCond, Terminator};
///
/// // A counted loop: r0 counts down from 10, r1 accumulates.
/// let mut b = ProgramBuilder::new(1 << 12);
/// let entry = b.begin_block();
/// b.load_imm(IntReg(0), 10);
/// b.load_imm(IntReg(1), 0);
/// let body = b.reserve_block();
/// let exit = b.reserve_block();
/// b.terminate(Terminator::Jump(body));
///
/// b.begin_reserved(body);
/// b.int_alu_imm(IntAluOp::Add, IntReg(1), IntReg(1), 3);
/// b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
/// b.load_imm(IntReg(2), 0);
/// b.terminate(Terminator::Branch {
///     cond: BranchCond::Ne,
///     src1: IntReg(0),
///     src2: IntReg(2),
///     taken: body,
///     not_taken: exit,
/// });
///
/// b.begin_reserved(exit);
/// b.snapshot();
/// b.terminate(Terminator::Halt);
///
/// let program = b.finish(entry);
/// assert!(program.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    /// Every block body, back to back in emission order. Only one block is
    /// open at a time, so the open block's body is always the tail.
    instructions: Vec<Instruction>,
    /// Per reserved block: its body's `start..end` span in `instructions`
    /// and its terminator, or `None` until the block is closed.
    spans: Vec<Option<(u32, u32, Terminator)>>,
    /// The open block and the offset its body starts at.
    current: Option<(BlockId, u32)>,
    memory_size: usize,
}

impl Default for ProgramBuilder {
    /// An empty builder with the minimum 8-byte data segment; callers that
    /// reuse a default-constructed builder start it with
    /// [`ProgramBuilder::reset`].
    fn default() -> Self {
        Self::new(8)
    }
}

impl ProgramBuilder {
    /// Creates a builder whose program owns a data segment of
    /// `memory_size` bytes (rounded up to the next power of two).
    pub fn new(memory_size: usize) -> Self {
        Self {
            instructions: Vec::new(),
            spans: Vec::new(),
            current: None,
            memory_size: memory_size.max(8).next_power_of_two(),
        }
    }

    /// Clears the builder for a new program with a `memory_size`-byte data
    /// segment, discarding any blocks built since the last
    /// [`ProgramBuilder::finish_into`] and keeping every allocation.
    pub fn reset(&mut self, memory_size: usize) {
        self.instructions.clear();
        self.spans.clear();
        self.current = None;
        self.memory_size = memory_size.max(8).next_power_of_two();
    }

    /// Pre-sizes the builder for programs of up to `blocks` blocks holding
    /// up to `instructions` body instructions in total.
    ///
    /// A caller that knows an upper bound on every program it will ever
    /// build — the widget generator's seed-noise caps bound both over
    /// *all* seeds — primes the builder once, and every later build is
    /// allocation-free, as is every program it finishes into (see
    /// [`ProgramBuilder::finish_into`]).
    pub fn prime(&mut self, blocks: usize, instructions: usize) {
        if self.spans.capacity() < blocks {
            self.spans.reserve_exact(blocks - self.spans.len());
        }
        if self.instructions.capacity() < instructions {
            self.instructions
                .reserve_exact(instructions - self.instructions.len());
        }
    }

    /// Reserves a block id without opening it, so forward branches can refer
    /// to blocks that will be populated later.
    pub fn reserve_block(&mut self) -> BlockId {
        let id = BlockId(self.spans.len() as u32);
        self.spans.push(None);
        id
    }

    /// Reserves and immediately opens a new block, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if another block is currently open.
    pub fn begin_block(&mut self) -> BlockId {
        let id = self.reserve_block();
        self.begin_reserved(id);
        id
    }

    /// Opens a previously reserved block.
    ///
    /// # Panics
    ///
    /// Panics if another block is open or the id was already populated.
    pub fn begin_reserved(&mut self, id: BlockId) {
        assert!(self.current.is_none(), "a block is already open");
        assert!(
            self.spans[id.index()].is_none(),
            "block {id} was already populated"
        );
        self.current = Some((id, self.instructions.len() as u32));
    }

    /// Appends a raw instruction to the open block.
    ///
    /// # Panics
    ///
    /// Panics if no block is open.
    pub fn push(&mut self, inst: Instruction) {
        assert!(self.current.is_some(), "no block is open");
        self.instructions.push(inst);
    }

    /// Appends `dst = op(src1, src2)` on the integer ALU.
    pub fn int_alu(&mut self, op: IntAluOp, dst: IntReg, src1: IntReg, src2: IntReg) {
        self.push(Instruction::IntAlu {
            op,
            dst,
            src1,
            src2,
        });
    }

    /// Appends `dst = op(src, imm)` on the integer ALU.
    pub fn int_alu_imm(&mut self, op: IntAluOp, dst: IntReg, src: IntReg, imm: i32) {
        self.push(Instruction::IntAluImm { op, dst, src, imm });
    }

    /// Appends an integer multiply.
    pub fn int_mul(&mut self, op: IntMulOp, dst: IntReg, src1: IntReg, src2: IntReg) {
        self.push(Instruction::IntMul {
            op,
            dst,
            src1,
            src2,
        });
    }

    /// Appends `dst = imm`.
    pub fn load_imm(&mut self, dst: IntReg, imm: i64) {
        self.push(Instruction::LoadImm { dst, imm });
    }

    /// Appends a floating-point operation.
    pub fn fp(&mut self, op: FpOp, dst: FpReg, src1: FpReg, src2: FpReg) {
        self.push(Instruction::Fp {
            op,
            dst,
            src1,
            src2,
        });
    }

    /// Appends an int→fp conversion.
    pub fn fp_from_int(&mut self, dst: FpReg, src: IntReg) {
        self.push(Instruction::FpFromInt { dst, src });
    }

    /// Appends an fp→int conversion.
    pub fn fp_to_int(&mut self, dst: IntReg, src: FpReg) {
        self.push(Instruction::FpToInt { dst, src });
    }

    /// Appends a 64-bit load.
    pub fn load(&mut self, dst: IntReg, base: IntReg, offset: i32) {
        self.push(Instruction::Load { dst, base, offset });
    }

    /// Appends a 64-bit store.
    pub fn store(&mut self, src: IntReg, base: IntReg, offset: i32) {
        self.push(Instruction::Store { src, base, offset });
    }

    /// Appends a floating-point load.
    pub fn fp_load(&mut self, dst: FpReg, base: IntReg, offset: i32) {
        self.push(Instruction::FpLoad { dst, base, offset });
    }

    /// Appends a floating-point store.
    pub fn fp_store(&mut self, src: FpReg, base: IntReg, offset: i32) {
        self.push(Instruction::FpStore { src, base, offset });
    }

    /// Appends a vector operation.
    pub fn vec(&mut self, op: VecOp, dst: VecReg, src1: VecReg, src2: VecReg) {
        self.push(Instruction::Vec {
            op,
            dst,
            src1,
            src2,
        });
    }

    /// Appends a vector load.
    pub fn vec_load(&mut self, dst: VecReg, base: IntReg, offset: i32) {
        self.push(Instruction::VecLoad { dst, base, offset });
    }

    /// Appends a vector store.
    pub fn vec_store(&mut self, src: VecReg, base: IntReg, offset: i32) {
        self.push(Instruction::VecStore { src, base, offset });
    }

    /// Appends a register-state snapshot.
    pub fn snapshot(&mut self) {
        self.push(Instruction::Snapshot);
    }

    /// Closes the open block with `terminator`.
    ///
    /// # Panics
    ///
    /// Panics if no block is open.
    pub fn terminate(&mut self, terminator: Terminator) {
        let (id, start) = self.current.take().expect("no block is open");
        let end = self.instructions.len() as u32;
        self.spans[id.index()] = Some((start, end, terminator));
    }

    /// Convenience: close the open block with a conditional branch.
    pub fn branch(
        &mut self,
        cond: BranchCond,
        src1: IntReg,
        src2: IntReg,
        taken: BlockId,
        not_taken: BlockId,
    ) {
        self.terminate(Terminator::Branch {
            cond,
            src1,
            src2,
            taken,
            not_taken,
        });
    }

    /// Number of blocks reserved so far.
    pub fn block_count(&self) -> usize {
        self.spans.len()
    }

    /// Finishes the program with `entry` as its entry block.
    ///
    /// # Panics
    ///
    /// Panics if a block is still open or any reserved block was never
    /// populated.
    pub fn finish(mut self, entry: BlockId) -> Program {
        let mut out = Program::default();
        self.finish_into(entry, &mut out);
        out
    }

    /// Finishes the program into `out`, reusing `out`'s storage.
    ///
    /// The previous contents of `out` are discarded. The block bodies are
    /// copied from this builder's emission-order arena into `out`'s arena
    /// in [`BlockId`] order, in one pass, and the builder is left empty.
    /// `out`'s arena and block table keep their allocations and are grown
    /// to at least this builder's capacity first, so a builder primed once
    /// with [`ProgramBuilder::prime`] keeps every program it fills
    /// allocation-free too.
    ///
    /// The resulting program is byte-identical to what
    /// [`ProgramBuilder::finish`] returns for the same builder state.
    ///
    /// # Panics
    ///
    /// Panics if a block is still open or any reserved block was never
    /// populated.
    pub fn finish_into(&mut self, entry: BlockId, out: &mut Program) {
        assert!(self.current.is_none(), "a block is still open");
        out.instructions.clear();
        out.instructions.reserve_exact(self.instructions.capacity());
        out.blocks.clear();
        out.blocks.reserve_exact(self.spans.capacity());
        for (i, span) in self.spans.iter().enumerate() {
            let (start, end, terminator) =
                span.unwrap_or_else(|| panic!("reserved block bb{i} was never populated"));
            out.push_block(&self.instructions[start as usize..end as usize], terminator);
        }
        out.entry = entry;
        out.memory_size = self.memory_size;
        self.instructions.clear();
        self.spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_size_rounded_to_power_of_two() {
        let mut b = ProgramBuilder::new(1000);
        let e = b.begin_block();
        b.snapshot();
        b.terminate(Terminator::Halt);
        let p = b.finish(e);
        assert_eq!(p.memory_size(), 1024);
    }

    #[test]
    fn forward_references_resolve() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        let exit = b.reserve_block();
        b.terminate(Terminator::Jump(exit));
        b.begin_reserved(exit);
        b.terminate(Terminator::Halt);
        let p = b.finish(entry);
        assert!(p.validate().is_ok());
        assert_eq!(p.blocks().len(), 2);
    }

    #[test]
    #[should_panic(expected = "a block is already open")]
    fn double_open_panics() {
        let mut b = ProgramBuilder::new(64);
        b.begin_block();
        b.begin_block();
    }

    #[test]
    #[should_panic(expected = "no block is open")]
    fn push_without_block_panics() {
        let mut b = ProgramBuilder::new(64);
        b.snapshot();
    }

    #[test]
    #[should_panic(expected = "never populated")]
    fn unpopulated_reserved_block_panics() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        let dangling = b.reserve_block();
        b.terminate(Terminator::Jump(dangling));
        b.finish(entry);
    }

    fn counted_loop(b: &mut ProgramBuilder, iters: i64) -> Program {
        let entry = b.begin_block();
        b.load_imm(IntReg(0), iters);
        b.load_imm(IntReg(1), 0);
        let body = b.reserve_block();
        let exit = b.reserve_block();
        b.terminate(Terminator::Jump(body));
        b.begin_reserved(body);
        b.int_alu_imm(IntAluOp::Add, IntReg(1), IntReg(1), 3);
        b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
        b.branch(BranchCond::Ne, IntReg(0), IntReg(1), body, exit);
        b.begin_reserved(exit);
        b.snapshot();
        b.terminate(Terminator::Halt);
        let mut out = Program::default();
        b.finish_into(entry, &mut out);
        out
    }

    #[test]
    fn reset_and_finish_into_match_the_one_shot_path() {
        let mut b = ProgramBuilder::new(128);
        let reference = counted_loop(&mut b, 10);

        // Rebuilding the same program through reset + finish_into must be
        // identical, and a different program built afterwards must not be
        // contaminated by the reused arenas.
        let mut reused = ProgramBuilder::new(4096);
        let mut out = Program::default();
        for iters in [3, 10, 7, 10] {
            reused.reset(128);
            let entry = reused.begin_block();
            reused.load_imm(IntReg(0), iters);
            reused.load_imm(IntReg(1), 0);
            let body = reused.reserve_block();
            let exit = reused.reserve_block();
            reused.terminate(Terminator::Jump(body));
            reused.begin_reserved(body);
            reused.int_alu_imm(IntAluOp::Add, IntReg(1), IntReg(1), 3);
            reused.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
            reused.branch(BranchCond::Ne, IntReg(0), IntReg(1), body, exit);
            reused.begin_reserved(exit);
            reused.snapshot();
            reused.terminate(Terminator::Halt);
            reused.finish_into(entry, &mut out);
            assert!(out.validate().is_ok());
            if iters == 10 {
                assert_eq!(out, reference);
            } else {
                assert_ne!(out, reference);
            }
        }
    }

    #[test]
    fn reset_recycles_unfinished_blocks() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 1);
        b.terminate(Terminator::Halt);
        // Never finished: reset must discard the terminated block (keeping
        // the arena's storage) and allow a clean rebuild.
        b.reset(256);
        let entry2 = b.begin_block();
        b.snapshot();
        b.terminate(Terminator::Halt);
        let p = b.finish(entry2);
        assert_eq!(p.memory_size(), 256);
        assert_eq!(p.blocks().len(), 1);
        assert_eq!(p.block(entry2).instructions.len(), 1);
        let _ = entry;
    }

    #[test]
    fn primed_builder_fills_programs_without_growing_them() {
        let mut b = ProgramBuilder::new(64);
        b.prime(2, 41);
        let mut out = Program::default();
        let mut arena = None;
        // Bodies of different sizes, the larger block emitted after the
        // block it jumps to: every round must rebuild `out` exactly, in the
        // storage the primed builder sized it to on the first round.
        for len in [32, 8, 40] {
            b.reset(64);
            let entry = b.reserve_block();
            let exit = b.begin_block();
            b.snapshot();
            b.terminate(Terminator::Halt);
            b.begin_reserved(entry);
            for i in 0..len {
                b.load_imm(IntReg((i % 8) as u8), i);
            }
            b.terminate(Terminator::Jump(exit));
            b.finish_into(entry, &mut out);
            assert_eq!(out.block(entry).instructions.len(), len as usize);
            assert_eq!(out.block(exit).instructions, [Instruction::Snapshot]);
            assert!(out.instructions.capacity() >= 41 && out.blocks.capacity() >= 2);
            let storage = out.instructions.as_ptr();
            assert_eq!(*arena.get_or_insert(storage), storage);
            assert_eq!(b.block_count(), 0, "finish_into leaves the builder empty");
        }
    }

    #[test]
    fn helpers_emit_expected_instructions() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 42);
        b.int_alu(IntAluOp::Xor, IntReg(1), IntReg(0), IntReg(0));
        b.int_mul(IntMulOp::MulHi, IntReg(2), IntReg(0), IntReg(0));
        b.fp_from_int(FpReg(0), IntReg(0));
        b.fp(FpOp::Mul, FpReg(1), FpReg(0), FpReg(0));
        b.fp_to_int(IntReg(3), FpReg(1));
        b.load(IntReg(4), IntReg(0), 8);
        b.store(IntReg(4), IntReg(0), 16);
        b.vec(VecOp::Add, VecReg(0), VecReg(1), VecReg(2));
        b.snapshot();
        b.terminate(Terminator::Halt);
        let p = b.finish(entry);
        assert_eq!(p.block(entry).instructions.len(), 10);
        assert!(p.validate().is_ok());
    }
}
