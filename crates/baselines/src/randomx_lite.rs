//! A RandomX-style random-program PoW baseline.
//!
//! Section VI-C of the paper contrasts HashCore with RandomX: both execute
//! seed-derived programs, but RandomX "target[s] explicit utilization of each
//! computational structure" with uniformly random programs over a virtual
//! machine, whereas HashCore targets the execution *profile* of a reference
//! benchmark. This baseline reproduces the RandomX idea at small scale on
//! the same widget ISA: the program's instruction classes are drawn
//! uniformly (every class equally represented) rather than profile-matched,
//! and the program output is hashed exactly as HashCore's widgets are.

use crate::{PowFunction, ResourceClass, NONCE_LANES};
use hashcore::{lane_seeds, MiningInput, Target, VerifyCost};
use hashcore_crypto::{sha256, Digest256, Sha256};
use hashcore_gen::{GeneratorConfig, PipelineScratch, WidgetGenerator};
use hashcore_isa::OpClass;
use hashcore_profile::{
    BasicBlockProfile, BranchProfile, DependencyProfile, HashSeed, InstructionMix, MemoryProfile,
    NoiseConfig, PerformanceProfile,
};

/// A RandomX-like PoW: uniformly random program generation over the widget
/// virtual machine, followed by a hash of the program output.
#[derive(Debug, Clone)]
pub struct RandomxLitePow {
    generator: WidgetGenerator,
}

impl RandomxLitePow {
    /// Creates an instance whose random programs execute roughly
    /// `program_instructions` dynamic instructions per hash.
    pub fn new(program_instructions: u64) -> Self {
        // A uniform mix over every executable class — the "stress every
        // structure equally" philosophy — with generic branch/memory/
        // dependency behaviour (no reference workload involved).
        let uniform = PerformanceProfile {
            name: "randomx_lite_uniform".to_string(),
            mix: InstructionMix::from_fractions(&[
                (OpClass::IntAlu, 1.0),
                (OpClass::IntMul, 1.0),
                (OpClass::FpAlu, 1.0),
                (OpClass::Load, 1.0),
                (OpClass::Store, 1.0),
                (OpClass::Branch, 1.0),
                (OpClass::Vector, 1.0),
                (OpClass::Control, 0.0),
            ]),
            branch: BranchProfile {
                branch_fraction: 1.0 / 7.0,
                taken_fraction: 0.5,
                transition_rate: 0.5,
                static_branch_sites: 64,
            },
            memory: MemoryProfile {
                working_set_bytes: 2 << 20,
                strided_fraction: 0.5,
                average_stride: 64,
                pointer_chase_fraction: 0.25,
            },
            dependency: DependencyProfile {
                average_distance: 4.0,
                serial_fraction: 0.3,
            },
            blocks: BasicBlockProfile {
                average_block_size: 8.0,
                hot_blocks: 32,
                average_loop_trip_count: 16,
            },
            target_dynamic_instructions: program_instructions.max(1_000),
            reference_ipc: 1.0,
            reference_branch_hit_rate: 0.75,
        };
        let config = GeneratorConfig {
            noise: NoiseConfig::default(),
            ..GeneratorConfig::default()
        };
        Self {
            generator: WidgetGenerator::with_config(uniform, config),
        }
    }

    /// The seed-onward tail of [`PowFunction::evaluate`]: random program
    /// generation, execution and the output hash. The lane hook computes
    /// the four seeds lane-parallel and enters here per lane.
    fn hash_from_seed(&self, seed: HashSeed, scratch: &mut PipelineScratch) -> Digest256 {
        scratch
            .run(&self.generator, &seed, false)
            .expect("random programs always halt within the step limit");
        let mut gate = Sha256::new();
        gate.update(seed.as_bytes());
        gate.update(scratch.exec.output());
        gate.finalize()
    }
}

impl PowFunction for RandomxLitePow {
    /// Reusable generate→prepare→execute state, the same composition as
    /// HashCore's own hash scratch.
    type Scratch = PipelineScratch;

    fn name(&self) -> &'static str {
        "randomx_lite"
    }

    fn dominant_resource(&self) -> ResourceClass {
        ResourceClass::GeneralPurpose
    }

    fn evaluate(&self, input: &[u8], scratch: &mut Self::Scratch) -> (Digest256, VerifyCost) {
        let digest = self.hash_from_seed(HashSeed::new(sha256(input)), scratch);
        (digest, self.nominal_cost())
    }

    /// The seed derivation runs four lanes wide; program generation and
    /// execution stay per lane (each lane's random program is shaped by its
    /// own seed), sharing the one pipeline scratch, and stop at the first
    /// hit.
    fn first_hit_in_lanes(
        &self,
        input: &mut MiningInput,
        nonces: [u64; NONCE_LANES],
        target: Target,
        scratch: &mut Self::Scratch,
    ) -> Option<(u64, Digest256)> {
        let seeds = lane_seeds(input.header_bytes(), nonces);
        nonces.into_iter().zip(seeds).find_map(|(nonce, seed)| {
            let digest = self.hash_from_seed(HashSeed::new(seed), scratch);
            target.is_met_by(&digest).then_some((nonce, digest))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_input_sensitive() {
        let pow = RandomxLitePow::new(2_000);
        assert_eq!(pow.pow_hash(b"a"), pow.pow_hash(b"a"));
        assert_ne!(pow.pow_hash(b"a"), pow.pow_hash(b"b"));
    }

    #[test]
    fn uniform_mix_differs_from_profile_targeted_mix() {
        // The defining difference from HashCore: every class is weighted
        // equally before noise.
        let pow = RandomxLitePow::new(2_000);
        let mix = &pow.generator.base_profile().mix;
        let int_alu = mix.fraction(OpClass::IntAlu);
        let fp = mix.fraction(OpClass::FpAlu);
        assert!((int_alu - fp).abs() < 1e-9);
        assert!((int_alu - 1.0 / 7.0).abs() < 1e-9);
    }
}
