//! Workload profiling: turning an execution into a PerfProx-style profile.
//!
//! This is the "profiling a selected workload on a variety of performance
//! metrics such as instruction mix, branch behavior, memory access patterns,
//! and data dependencies" step of the paper's Section IV-B. The resulting
//! [`PerformanceProfile`] is exactly what the widget generator consumes, so
//! the reference-workload → profile → widget pipeline is closed entirely
//! inside the reproduction.

use crate::config::CoreConfig;
use crate::core::CoreModel;
use hashcore_isa::{OpClass, Program, Terminator};
use hashcore_profile::{
    BasicBlockProfile, BranchProfile, DependencyProfile, InstructionMix, MemoryProfile,
    PerformanceProfile,
};
use hashcore_vm::Trace;
use std::collections::{HashMap, HashSet};

/// Extracts [`PerformanceProfile`]s from programs and their traces.
#[derive(Debug, Clone)]
pub struct WorkloadProfiler {
    config: CoreConfig,
}

impl Default for WorkloadProfiler {
    fn default() -> Self {
        Self::new(CoreConfig::ivy_bridge_like())
    }
}

impl WorkloadProfiler {
    /// Creates a profiler that measures reference IPC / branch behaviour on
    /// the given core configuration.
    pub fn new(config: CoreConfig) -> Self {
        Self { config }
    }

    /// Profiles one execution of `program` described by `trace`.
    ///
    /// The returned profile contains the measured instruction mix, branch
    /// behaviour, memory-access pattern, dependency statistics, basic-block
    /// structure, and the simulated reference IPC / branch hit rate of the
    /// workload on the configured core.
    pub fn profile(&self, name: &str, program: &Program, trace: &Trace) -> PerformanceProfile {
        let counts = trace.class_counts();
        let mix = InstructionMix::from_counts(&counts);
        let branch = self.branch_profile(program, trace, &counts);
        let memory = self.memory_profile(program, trace);
        let dependency = self.dependency_profile(program, trace);
        let blocks = self.block_profile(program, trace);

        let sim = CoreModel::new(self.config).simulate(program, trace);

        PerformanceProfile {
            name: name.to_string(),
            mix,
            branch,
            memory,
            dependency,
            blocks,
            target_dynamic_instructions: trace.len() as u64,
            reference_ipc: sim.counters.ipc(),
            reference_branch_hit_rate: sim.counters.branch_hit_rate(),
        }
    }

    fn branch_profile(
        &self,
        program: &Program,
        trace: &Trace,
        counts: &HashMap<OpClass, u64>,
    ) -> BranchProfile {
        let total: u64 = counts.values().sum();
        let branches = *counts.get(&OpClass::Branch).unwrap_or(&0);
        let mut taken = 0u64;
        let mut transitions = 0u64;
        let mut transition_opportunities = 0u64;
        let mut last_outcome: HashMap<u32, bool> = HashMap::new();
        let mut sites: HashSet<u32> = HashSet::new();
        for entry in trace.iter() {
            if let Some(b) = entry.branch {
                sites.insert(entry.pc);
                if b.taken {
                    taken += 1;
                }
                if let Some(prev) = last_outcome.insert(entry.pc, b.taken) {
                    transition_opportunities += 1;
                    if prev != b.taken {
                        transitions += 1;
                    }
                }
            }
        }
        let static_sites = program
            .blocks()
            .filter(|b| b.terminator.is_conditional())
            .count() as u32;
        BranchProfile {
            branch_fraction: if total == 0 {
                0.0
            } else {
                branches as f64 / total as f64
            },
            taken_fraction: if branches == 0 {
                0.0
            } else {
                taken as f64 / branches as f64
            },
            transition_rate: if transition_opportunities == 0 {
                0.0
            } else {
                transitions as f64 / transition_opportunities as f64
            },
            static_branch_sites: static_sites.max(sites.len() as u32),
        }
    }

    fn memory_profile(&self, program: &Program, trace: &Trace) -> MemoryProfile {
        let mut lines: HashSet<u64> = HashSet::new();
        let mut prev_addr: Option<u64> = None;
        let mut strided = 0u64;
        let mut accesses = 0u64;
        let mut stride_sum = 0u64;
        let mut stride_count = 0u64;
        for entry in trace.iter() {
            if let Some(addr) = entry.mem_addr {
                lines.insert(addr >> 6);
                accesses += 1;
                if let Some(prev) = prev_addr {
                    let delta = addr.abs_diff(prev);
                    if delta > 0 && delta <= 256 {
                        strided += 1;
                        stride_sum += delta;
                        stride_count += 1;
                    }
                }
                prev_addr = Some(addr);
            }
        }

        // Pointer-chase estimate via dynamic taint analysis: a load whose
        // address register carries a load-derived value (possibly massaged by
        // ALU operations, as in `node = load(node); node &= mask`) is a
        // pointer-chase step. Taint is tracked per integer register and
        // propagated through integer ALU results.
        let slots = dependency_slots(program);
        let mut tainted = [false; hashcore_isa::NUM_INT_REGS];
        let mut chased = 0u64;
        let mut loads = 0u64;
        for entry in trace.iter() {
            let slot = &slots[entry.pc as usize];
            match entry.class {
                OpClass::Load => {
                    loads += 1;
                    if slot.int_sources.iter().any(|r| tainted[*r as usize]) {
                        chased += 1;
                    }
                    if let Some(dst) = slot.int_dest {
                        tainted[dst as usize] = true;
                    }
                }
                _ => {
                    if let Some(dst) = slot.int_dest {
                        tainted[dst as usize] =
                            slot.int_sources.iter().any(|r| tainted[*r as usize]);
                    }
                }
            }
        }

        MemoryProfile {
            working_set_bytes: (lines.len() * 64).max(64),
            strided_fraction: if accesses <= 1 {
                0.0
            } else {
                strided as f64 / (accesses - 1) as f64
            },
            average_stride: stride_sum.checked_div(stride_count).unwrap_or(0) as u32,
            pointer_chase_fraction: if loads == 0 {
                0.0
            } else {
                chased as f64 / loads as f64
            },
        }
    }

    fn dependency_profile(&self, program: &Program, trace: &Trace) -> DependencyProfile {
        // Replay the trace tracking, for every integer register, the dynamic
        // position of its most recent producer; each consumption records the
        // producer→consumer distance.
        let slots = dependency_slots(program);
        let mut producer_pos = [usize::MAX; hashcore_isa::NUM_INT_REGS];
        let mut total_distance = 0u64;
        let mut consumptions = 0u64;
        let mut serial = 0u64;
        for (pos, entry) in trace.iter().enumerate() {
            let slot = &slots[entry.pc as usize];
            for &src in &slot.int_sources {
                let producer = producer_pos[src as usize];
                if producer != usize::MAX {
                    let distance = (pos - producer) as u64;
                    total_distance += distance;
                    consumptions += 1;
                    if distance == 1 {
                        serial += 1;
                    }
                }
            }
            if let Some(dst) = slot.int_dest {
                producer_pos[dst as usize] = pos;
            }
        }
        DependencyProfile {
            average_distance: if consumptions == 0 {
                0.0
            } else {
                total_distance as f64 / consumptions as f64
            },
            serial_fraction: if trace.is_empty() {
                0.0
            } else {
                serial as f64 / trace.len() as f64
            },
        }
    }

    fn block_profile(&self, program: &Program, trace: &Trace) -> BasicBlockProfile {
        let block_count = program.blocks().len();
        let average_block_size = if block_count == 0 {
            0.0
        } else {
            program.blocks().map(|b| b.len()).sum::<usize>() as f64 / block_count as f64
        };

        // Dynamic execution count per block, recovered from branch targets and
        // the block-major pc layout.
        let mut block_of_pc: Vec<u32> = Vec::with_capacity(program.pc_slot_count() as usize);
        for block in program.blocks() {
            block_of_pc.extend(std::iter::repeat_n(
                block.id.0,
                block.instructions.len() + 1,
            ));
        }
        let mut block_counts: HashMap<u32, u64> = HashMap::new();
        for entry in trace.iter() {
            *block_counts
                .entry(block_of_pc[entry.pc as usize])
                .or_insert(0) += 1;
        }
        let mut counts: Vec<u64> = block_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let mut covered = 0u64;
        let mut hot_blocks = 0u32;
        for c in &counts {
            if total > 0 && covered as f64 / total as f64 >= 0.9 {
                break;
            }
            covered += c;
            hot_blocks += 1;
        }

        // Loop trip count estimate: mean run length of consecutive taken
        // outcomes per branch site, plus the terminating not-taken execution.
        let mut run: HashMap<u32, u64> = HashMap::new();
        let mut finished_runs = 0u64;
        let mut finished_len = 0u64;
        for entry in trace.iter() {
            if let Some(b) = entry.branch {
                let counter = run.entry(entry.pc).or_insert(0);
                if b.taken {
                    *counter += 1;
                } else if *counter > 0 {
                    finished_runs += 1;
                    finished_len += *counter + 1;
                    *counter = 0;
                }
            }
        }
        let average_loop_trip_count = finished_len
            .checked_div(finished_runs)
            .map_or(1, |trips| trips.max(1) as u32);

        BasicBlockProfile {
            average_block_size,
            hot_blocks: hot_blocks.max(1),
            average_loop_trip_count,
        }
    }
}

/// Integer-register operand info per pc slot (dependency analysis only needs
/// the integer file; FP and vector chains follow the same generation knobs).
#[derive(Debug, Clone, Default)]
struct DepSlot {
    int_sources: Vec<u8>,
    int_dest: Option<u8>,
}

fn dependency_slots(program: &Program) -> Vec<DepSlot> {
    let mut table = Vec::with_capacity(program.pc_slot_count() as usize);
    for block in program.blocks() {
        table.extend(block.instructions.iter().map(|inst| DepSlot {
            int_sources: inst.int_srcs().iter().map(|r| r.0).collect(),
            int_dest: inst.int_dst().map(|r| r.0),
        }));
        table.push(match block.terminator {
            Terminator::Branch { src1, src2, .. } => DepSlot {
                int_sources: vec![src1.0, src2.0],
                int_dest: None,
            },
            Terminator::Jump(_) | Terminator::Halt => DepSlot::default(),
        });
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashcore_isa::{BranchCond, IntAluOp, IntReg, ProgramBuilder};
    use hashcore_vm::{ExecConfig, Executor};

    fn profile_of(program: &Program) -> PerformanceProfile {
        let exec = Executor::new(ExecConfig::default())
            .execute(program)
            .expect("run");
        WorkloadProfiler::default().profile("test", program, &exec.trace)
    }

    fn mixed_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new(1 << 14);
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
        b.store(IntReg(5), IntReg(3), 8);
        b.int_alu_imm(IntAluOp::Add, IntReg(3), IntReg(3), 64);
        b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
        b.branch(BranchCond::Ne, IntReg(0), IntReg(15), body, exit);
        b.begin_reserved(exit);
        b.snapshot();
        b.terminate(Terminator::Halt);
        b.finish(entry)
    }

    #[test]
    fn mix_fractions_reflect_the_code() {
        let profile = profile_of(&mixed_loop(200));
        // Per iteration: 1 load, 1 store, 3 int alu, 1 branch.
        assert!(profile.mix.fraction(OpClass::Load) > 0.1);
        assert!(profile.mix.fraction(OpClass::Store) > 0.1);
        assert!(profile.mix.fraction(OpClass::Branch) > 0.1);
        assert!(profile.mix.fraction(OpClass::IntAlu) > 0.4);
        assert!((profile.mix.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn branch_behaviour_of_counted_loop() {
        let profile = profile_of(&mixed_loop(200));
        assert!(profile.branch.taken_fraction > 0.98);
        assert!(profile.branch.transition_rate < 0.05);
        assert!(profile.branch.static_branch_sites >= 1);
    }

    #[test]
    fn memory_profile_of_strided_stream() {
        let profile = profile_of(&mixed_loop(200));
        // 200 iterations striding 64 bytes touch ~200 lines * 64 B, and the
        // per-iteration load/store pair is 8 bytes apart (strided).
        assert!(profile.memory.working_set_bytes >= 64 * 100);
        assert!(profile.memory.strided_fraction > 0.5);
        assert!(profile.memory.average_stride > 0);
    }

    #[test]
    fn dependency_profile_detects_serial_chain() {
        // r1 += 1 repeated: every instruction depends on the previous one.
        let mut b = ProgramBuilder::new(256);
        let entry = b.begin_block();
        for _ in 0..64 {
            b.int_alu_imm(IntAluOp::Add, IntReg(1), IntReg(1), 1);
        }
        b.terminate(Terminator::Halt);
        let serial = profile_of(&b.finish(entry));

        let mut b = ProgramBuilder::new(256);
        let entry = b.begin_block();
        for i in 0..64u8 {
            b.int_alu_imm(IntAluOp::Add, IntReg(i % 8), IntReg(i % 8), 1);
        }
        b.terminate(Terminator::Halt);
        let parallel = profile_of(&b.finish(entry));

        assert!(serial.dependency.serial_fraction > 0.9);
        assert!(parallel.dependency.average_distance > serial.dependency.average_distance);
    }

    #[test]
    fn reference_metrics_are_simulated() {
        let profile = profile_of(&mixed_loop(300));
        assert!(profile.reference_ipc > 0.0);
        assert!(profile.reference_branch_hit_rate > 0.9);
        assert_eq!(profile.name, "test");
        assert!(profile.target_dynamic_instructions > 1000);
    }

    #[test]
    fn loop_trip_count_estimated_from_nested_loop() {
        // Outer loop of 20, inner loop of 10.
        let mut b = ProgramBuilder::new(1024);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 20);
        b.load_imm(IntReg(15), 0);
        let outer = b.reserve_block();
        let inner = b.reserve_block();
        let outer_latch = b.reserve_block();
        let exit = b.reserve_block();
        b.terminate(Terminator::Jump(outer));
        b.begin_reserved(outer);
        b.load_imm(IntReg(1), 10);
        b.terminate(Terminator::Jump(inner));
        b.begin_reserved(inner);
        b.int_alu_imm(IntAluOp::Add, IntReg(2), IntReg(2), 3);
        b.int_alu_imm(IntAluOp::Sub, IntReg(1), IntReg(1), 1);
        b.branch(BranchCond::Ne, IntReg(1), IntReg(15), inner, outer_latch);
        b.begin_reserved(outer_latch);
        b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
        b.branch(BranchCond::Ne, IntReg(0), IntReg(15), outer, exit);
        b.begin_reserved(exit);
        b.terminate(Terminator::Halt);
        let profile = profile_of(&b.finish(entry));
        // The inner loop dominates; estimate should be near 10-20.
        assert!(
            profile.blocks.average_loop_trip_count >= 5
                && profile.blocks.average_loop_trip_count <= 25,
            "trip count {}",
            profile.blocks.average_loop_trip_count
        );
        assert!(profile.blocks.hot_blocks >= 1);
    }
}
