//! The out-of-order core timing model.
//!
//! The model is a one-pass, trace-driven approximation of an out-of-order
//! superscalar core: every retired instruction from the functional trace is
//! assigned a fetch cycle (bounded by fetch width, instruction-cache misses,
//! branch-misprediction redirects and re-order-buffer occupancy), an issue
//! cycle (bounded by operand readiness, issue bandwidth and per-class
//! functional-unit availability) and a completion cycle (issue plus execution
//! or memory latency). IPC is retired instructions divided by the cycle at
//! which the last instruction retires.
//!
//! This is the standard "structural + dependency" approximation used by
//! proxy-benchmark work such as PerfProx: it does not model every pipeline
//! artefact of a real Ivy Bridge core, but it responds to the same inputs the
//! paper's widgets are designed to stress — instruction mix, branch
//! predictability, memory locality and dependency chains — which is what the
//! Figure 2/3 distribution shapes are made of.

use crate::cache::MemoryHierarchy;
use crate::config::CoreConfig;
use crate::counters::PerfCounters;
use hashcore_isa::{Instruction, OpClass, Program, Terminator};
use hashcore_vm::Trace;
use std::collections::VecDeque;

/// Result of simulating one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Accumulated performance counters.
    pub counters: PerfCounters,
    /// Name of the branch predictor that was used.
    pub predictor: &'static str,
}

/// A register operand reference used for dependency tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegRef {
    Int(u8),
    Fp(u8),
    Vec(u8),
}

/// Static per-pc operand information derived from the program.
#[derive(Debug, Clone, Default)]
struct SlotInfo {
    sources: Vec<RegRef>,
    dest: Option<RegRef>,
}

fn instruction_slot(inst: &Instruction) -> SlotInfo {
    use Instruction::*;
    let (sources, dest) = match *inst {
        IntAlu {
            dst, src1, src2, ..
        } => (
            vec![RegRef::Int(src1.0), RegRef::Int(src2.0)],
            Some(RegRef::Int(dst.0)),
        ),
        IntAluImm { dst, src, .. } => (vec![RegRef::Int(src.0)], Some(RegRef::Int(dst.0))),
        IntMul {
            dst, src1, src2, ..
        } => (
            vec![RegRef::Int(src1.0), RegRef::Int(src2.0)],
            Some(RegRef::Int(dst.0)),
        ),
        LoadImm { dst, .. } => (vec![], Some(RegRef::Int(dst.0))),
        Fp {
            dst, src1, src2, ..
        } => (
            vec![RegRef::Fp(src1.0), RegRef::Fp(src2.0)],
            Some(RegRef::Fp(dst.0)),
        ),
        FpFromInt { dst, src } => (vec![RegRef::Int(src.0)], Some(RegRef::Fp(dst.0))),
        FpToInt { dst, src } => (vec![RegRef::Fp(src.0)], Some(RegRef::Int(dst.0))),
        Load { dst, base, .. } => (vec![RegRef::Int(base.0)], Some(RegRef::Int(dst.0))),
        Store { src, base, .. } => (vec![RegRef::Int(src.0), RegRef::Int(base.0)], None),
        FpLoad { dst, base, .. } => (vec![RegRef::Int(base.0)], Some(RegRef::Fp(dst.0))),
        FpStore { src, base, .. } => (vec![RegRef::Fp(src.0), RegRef::Int(base.0)], None),
        Vec {
            dst, src1, src2, ..
        } => (
            vec![RegRef::Vec(src1.0), RegRef::Vec(src2.0)],
            Some(RegRef::Vec(dst.0)),
        ),
        VecLoad { dst, base, .. } => (vec![RegRef::Int(base.0)], Some(RegRef::Vec(dst.0))),
        VecStore { src, base, .. } => (vec![RegRef::Vec(src.0), RegRef::Int(base.0)], None),
        Snapshot => (vec![], None),
    };
    SlotInfo { sources, dest }
}

/// Builds the pc-indexed operand table for `program` using the canonical
/// block-major layout shared with the functional executor: each block's
/// body slots, then its terminator slot.
fn build_slot_table(program: &Program) -> Vec<SlotInfo> {
    let mut table = Vec::with_capacity(program.pc_slot_count() as usize);
    for block in program.blocks() {
        table.extend(block.instructions.iter().map(instruction_slot));
        table.push(match block.terminator {
            Terminator::Branch { src1, src2, .. } => SlotInfo {
                sources: vec![RegRef::Int(src1.0), RegRef::Int(src2.0)],
                dest: None,
            },
            Terminator::Jump(_) | Terminator::Halt => SlotInfo::default(),
        });
    }
    table
}

/// The trace-driven core timing model.
#[derive(Debug, Clone)]
pub struct CoreModel {
    config: CoreConfig,
}

impl CoreModel {
    /// Creates a model with the given configuration.
    pub fn new(config: CoreConfig) -> Self {
        Self { config }
    }

    /// The model's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Simulates `trace` (produced by executing `program` on the functional
    /// executor) and returns performance counters.
    ///
    /// # Panics
    ///
    /// Panics if the trace references program counters outside `program`'s
    /// layout (i.e. the trace was produced from a different program).
    pub fn simulate(&self, program: &Program, trace: &Trace) -> SimResult {
        let slots = build_slot_table(program);
        let mut predictor = self.config.predictor.build();
        let mut hierarchy = MemoryHierarchy::new(self.config.hierarchy);

        // Register scoreboard: cycle at which each architectural register's
        // newest value becomes available.
        let mut int_ready = [0u64; hashcore_isa::NUM_INT_REGS];
        let mut fp_ready = [0u64; hashcore_isa::NUM_FP_REGS];
        let mut vec_ready = [0u64; hashcore_isa::NUM_VEC_REGS];

        // Functional-unit and issue-port next-free cycles.
        let mut fu_free: Vec<Vec<u64>> = OpClass::ALL
            .iter()
            .map(|&class| vec![0u64; self.config.units(class).max(1) as usize])
            .collect();
        let mut issue_ports = vec![0u64; self.config.issue_width.max(1) as usize];

        // Re-order buffer occupancy: retire cycles of in-flight instructions.
        let mut rob: VecDeque<u64> = VecDeque::with_capacity(self.config.rob_size);

        let mut counters = PerfCounters::default();
        let mut cur_fetch_cycle = 0u64;
        let mut fetched_this_cycle = 0u32;
        let mut redirect_cycle = 0u64;
        let mut last_retire = 0u64;

        for entry in trace.iter() {
            // --- Fetch ---------------------------------------------------
            if fetched_this_cycle >= self.config.fetch_width {
                cur_fetch_cycle += 1;
                fetched_this_cycle = 0;
            }
            let mut fetch_cycle = cur_fetch_cycle.max(redirect_cycle);

            // ROB back-pressure: the window holds at most `rob_size` in-flight
            // instructions; a full window stalls fetch until the oldest
            // instruction retires.
            if rob.len() >= self.config.rob_size {
                let oldest_retire = rob.pop_front().expect("rob non-empty");
                fetch_cycle = fetch_cycle.max(oldest_retire);
            }

            // Instruction-cache access (4 bytes per pc slot).
            let fetch_latency = hierarchy.fetch_instruction(entry.pc as u64 * 4);
            if fetch_latency > self.config.hierarchy.l1i.hit_latency {
                fetch_cycle += (fetch_latency - self.config.hierarchy.l1i.hit_latency) as u64;
            }

            if fetch_cycle > cur_fetch_cycle {
                cur_fetch_cycle = fetch_cycle;
                fetched_this_cycle = 0;
            }
            fetched_this_cycle += 1;

            // --- Dispatch / issue ----------------------------------------
            let slot = &slots[entry.pc as usize];
            let dispatch_ready = fetch_cycle + self.config.frontend_depth as u64;
            let mut operand_ready = dispatch_ready;
            for src in &slot.sources {
                let ready = match src {
                    RegRef::Int(r) => int_ready[*r as usize],
                    RegRef::Fp(r) => fp_ready[*r as usize],
                    RegRef::Vec(r) => vec_ready[*r as usize],
                };
                operand_ready = operand_ready.max(ready);
            }

            let class_idx = OpClass::ALL
                .iter()
                .position(|c| *c == entry.class)
                .expect("known class");
            let (unit_idx, unit_free) = fu_free[class_idx]
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|(_, free)| *free)
                .expect("at least one unit");
            let (port_idx, port_free) = issue_ports
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|(_, free)| *free)
                .expect("at least one port");

            let issue_cycle = operand_ready.max(unit_free).max(port_free);
            fu_free[class_idx][unit_idx] = issue_cycle + 1;
            issue_ports[port_idx] = issue_cycle + 1;

            // --- Execute --------------------------------------------------
            let latency = match entry.class {
                OpClass::Load => {
                    counters.loads += 1;
                    let addr = entry.mem_addr.unwrap_or(0);
                    hierarchy.access_data(addr) as u64
                }
                OpClass::Store => {
                    counters.stores += 1;
                    let addr = entry.mem_addr.unwrap_or(0);
                    // The store still occupies the cache (for later loads and
                    // miss statistics) but retires through the write buffer.
                    let _ = hierarchy.access_data(addr);
                    self.config.latency(OpClass::Store) as u64
                }
                class => self.config.latency(class) as u64,
            };
            let complete_cycle = issue_cycle + latency;

            if let Some(dest) = slot.dest {
                match dest {
                    RegRef::Int(r) => int_ready[r as usize] = complete_cycle,
                    RegRef::Fp(r) => fp_ready[r as usize] = complete_cycle,
                    RegRef::Vec(r) => vec_ready[r as usize] = complete_cycle,
                }
            }

            // --- Branch resolution ----------------------------------------
            if let Some(branch) = entry.branch {
                counters.branches += 1;
                let predicted = predictor.predict(entry.pc);
                predictor.update(entry.pc, branch.taken);
                if predicted != branch.taken {
                    counters.branch_mispredictions += 1;
                    redirect_cycle =
                        redirect_cycle.max(complete_cycle + self.config.mispredict_penalty as u64);
                }
            }

            // --- Retire (in order) ----------------------------------------
            let retire_cycle = complete_cycle.max(last_retire);
            last_retire = retire_cycle;
            if rob.len() >= self.config.rob_size {
                rob.pop_front();
            }
            rob.push_back(retire_cycle);

            counters.instructions += 1;
        }

        counters.cycles = last_retire.max(if counters.instructions > 0 { 1 } else { 0 });
        let (l1i, l1d, l2, l3) = hierarchy.stats();
        counters.l1i = l1i;
        counters.l1d = l1d;
        counters.l2 = l2;
        counters.l3 = l3;

        SimResult {
            counters,
            predictor: predictor.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashcore_isa::{BranchCond, IntAluOp, IntReg, ProgramBuilder, Terminator};
    use hashcore_vm::{ExecConfig, Executor};

    fn simulate(program: &Program, config: CoreConfig) -> SimResult {
        let exec = Executor::new(ExecConfig::default())
            .execute(program)
            .expect("run");
        CoreModel::new(config).simulate(program, &exec.trace)
    }

    /// A simple counted loop with `iters` iterations and `body` independent
    /// ALU instructions per iteration.
    fn loop_program(iters: i64, body: usize, serial: bool) -> Program {
        let mut b = ProgramBuilder::new(4096);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), iters);
        b.load_imm(IntReg(1), 0);
        b.load_imm(IntReg(15), 0);
        let body_block = b.reserve_block();
        let exit = b.reserve_block();
        b.terminate(Terminator::Jump(body_block));
        b.begin_reserved(body_block);
        for i in 0..body {
            if serial {
                // A serial dependency chain through r1.
                b.int_alu_imm(IntAluOp::Add, IntReg(1), IntReg(1), 1);
            } else {
                // Independent operations spread over registers r2..r9.
                let dst = IntReg(2 + (i % 8) as u8);
                b.int_alu_imm(IntAluOp::Add, dst, dst, 1);
            }
        }
        b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
        b.branch(BranchCond::Ne, IntReg(0), IntReg(15), body_block, exit);
        b.begin_reserved(exit);
        b.snapshot();
        b.terminate(Terminator::Halt);
        b.finish(entry)
    }

    #[test]
    fn ipc_is_positive_and_bounded_by_width() {
        let p = loop_program(200, 8, false);
        let result = simulate(&p, CoreConfig::ivy_bridge_like());
        let ipc = result.counters.ipc();
        assert!(ipc > 0.5, "ipc {ipc}");
        assert!(ipc <= CoreConfig::ivy_bridge_like().issue_width as f64 + 1e-9);
    }

    #[test]
    fn independent_work_achieves_higher_ipc_than_serial_chain() {
        let parallel = simulate(&loop_program(300, 12, false), CoreConfig::ivy_bridge_like());
        let serial = simulate(&loop_program(300, 12, true), CoreConfig::ivy_bridge_like());
        assert!(
            parallel.counters.ipc() > serial.counters.ipc() * 1.3,
            "parallel {} vs serial {}",
            parallel.counters.ipc(),
            serial.counters.ipc()
        );
    }

    #[test]
    fn wide_core_beats_small_core() {
        let p = loop_program(300, 12, false);
        let big = simulate(&p, CoreConfig::ivy_bridge_like());
        let small = simulate(&p, CoreConfig::small_core());
        assert!(big.counters.ipc() > small.counters.ipc());
        assert!(small.counters.ipc() <= 1.0 + 1e-9);
    }

    #[test]
    fn loop_branches_are_well_predicted() {
        let p = loop_program(500, 4, false);
        let result = simulate(&p, CoreConfig::ivy_bridge_like());
        assert!(result.counters.branches >= 500);
        assert!(
            result.counters.branch_hit_rate() > 0.95,
            "hit rate {}",
            result.counters.branch_hit_rate()
        );
        assert_eq!(result.predictor, "hybrid");
    }

    #[test]
    fn data_dependent_branches_mispredict_more() {
        // Branch direction depends on pseudo-random loaded data.
        let mut b = ProgramBuilder::new(1 << 14);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 400); // counter
        b.load_imm(IntReg(15), 0);
        b.load_imm(IntReg(3), 0); // memory cursor
        b.load_imm(IntReg(5), 1);
        let body = b.reserve_block();
        let taken_path = b.reserve_block();
        let join = b.reserve_block();
        let exit = b.reserve_block();
        b.terminate(Terminator::Jump(body));

        b.begin_reserved(body);
        b.load(IntReg(4), IntReg(3), 0);
        b.int_alu_imm(IntAluOp::Add, IntReg(3), IntReg(3), 8);
        b.int_alu_imm(IntAluOp::And, IntReg(4), IntReg(4), 1);
        b.branch(BranchCond::Eq, IntReg(4), IntReg(5), taken_path, join);

        b.begin_reserved(taken_path);
        b.int_alu_imm(IntAluOp::Add, IntReg(6), IntReg(6), 1);
        b.terminate(Terminator::Jump(join));

        b.begin_reserved(join);
        b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
        b.branch(BranchCond::Ne, IntReg(0), IntReg(15), body, exit);

        b.begin_reserved(exit);
        b.snapshot();
        b.terminate(Terminator::Halt);
        let random_branches = b.finish(entry);

        let random = simulate(&random_branches, CoreConfig::ivy_bridge_like());
        let regular = simulate(&loop_program(400, 4, false), CoreConfig::ivy_bridge_like());
        assert!(
            random.counters.branch_hit_rate() < regular.counters.branch_hit_rate(),
            "random {} vs regular {}",
            random.counters.branch_hit_rate(),
            regular.counters.branch_hit_rate()
        );
    }

    #[test]
    fn empty_trace_gives_zero_counters() {
        let p = loop_program(1, 1, false);
        let result = CoreModel::new(CoreConfig::default()).simulate(&p, &Trace::new());
        assert_eq!(result.counters.instructions, 0);
        assert_eq!(result.counters.cycles, 0);
        assert_eq!(result.counters.ipc(), 0.0);
    }

    #[test]
    fn memory_heavy_code_has_lower_ipc_when_working_set_grows() {
        // Stream through memory with a stride that defeats the L1 once the
        // working set exceeds it.
        fn streaming(memory: usize, iters: i64) -> Program {
            let mut b = ProgramBuilder::new(memory);
            let entry = b.begin_block();
            b.load_imm(IntReg(0), iters);
            b.load_imm(IntReg(15), 0);
            b.load_imm(IntReg(3), 0);
            let body = b.reserve_block();
            let exit = b.reserve_block();
            b.terminate(Terminator::Jump(body));
            b.begin_reserved(body);
            b.load(IntReg(4), IntReg(3), 0);
            b.int_alu(IntAluOp::Xor, IntReg(5), IntReg(5), IntReg(4));
            b.int_alu_imm(IntAluOp::Add, IntReg(3), IntReg(3), 4096);
            b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
            b.branch(BranchCond::Ne, IntReg(0), IntReg(15), body, exit);
            b.begin_reserved(exit);
            b.snapshot();
            b.terminate(Terminator::Halt);
            b.finish(entry)
        }
        let small = simulate(&streaming(1 << 12, 2000), CoreConfig::ivy_bridge_like());
        let large = simulate(&streaming(1 << 23, 2000), CoreConfig::ivy_bridge_like());
        assert!(
            small.counters.ipc() > large.counters.ipc(),
            "small-ws {} vs large-ws {}",
            small.counters.ipc(),
            large.counters.ipc()
        );
        assert!(large.counters.l1d.miss_rate() > small.counters.l1d.miss_rate());
    }
}
