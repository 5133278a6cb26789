//! Property-based equivalence of the scratch-reuse generation path: for any
//! stream of seeds, `generate_into` driven through one long-lived scratch
//! and output widget must produce exactly what fresh-allocation `generate`
//! produces — program bytes, target profile, snapshot expectation, all of it.

use hashcore_gen::{GenScratch, GeneratedWidget, WidgetGenerator};
use hashcore_isa::encode;
use hashcore_profile::{HashSeed, PerformanceProfile};
use proptest::prelude::*;

fn small_generator(target_instructions: u64) -> WidgetGenerator {
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = target_instructions.clamp(2_000, 30_000);
    WidgetGenerator::new(profile)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `generate_into` ≡ `generate`: identical `Program` for an identical
    /// seed, even when the scratch and output widget are reused across a
    /// stream of different seeds (the mining-loop usage).
    #[test]
    fn generate_into_matches_generate_for_seed_streams(
        seeds in prop::collection::vec(prop::collection::vec(any::<u8>(), 32..33), 1..5),
        target in 2_000u64..30_000,
    ) {
        let generator = small_generator(target);
        let mut scratch = GenScratch::new();
        let mut widget = GeneratedWidget::default();
        for bytes in &seeds {
            let mut raw = [0u8; 32];
            raw.copy_from_slice(bytes);
            let seed = HashSeed::new(raw);

            let fresh = generator.generate(&seed);
            generator.generate_into(&seed, &mut scratch, &mut widget);

            prop_assert_eq!(&widget.program, &fresh.program);
            prop_assert_eq!(encode(&widget.program), encode(&fresh.program));
            prop_assert_eq!(&widget.target, &fresh.target);
            prop_assert_eq!(widget.seed, fresh.seed);
            prop_assert_eq!(widget.expected_snapshots, fresh.expected_snapshots);
            prop_assert!(widget.program.validate().is_ok());
        }
    }

    /// The generator's worst-case bounds dominate every actual widget, for
    /// arbitrary seeds of both built-in profiles at their default (mining)
    /// size — including the total body instructions, which is what the
    /// builder's arena and the program's are primed to: a widget above it
    /// would allocate inside a warmed hash.
    #[test]
    fn generation_bounds_dominate_actual_widgets(seed in prop::array::uniform32(any::<u8>())) {
        for profile in [PerformanceProfile::leela_like(), PerformanceProfile::fp_stencil_like()] {
            let name = profile.name.clone();
            let generator = WidgetGenerator::new(profile);
            let bounds = generator.bounds();
            let widget = generator.generate(&HashSeed::new(seed));
            let program = &widget.program;
            prop_assert!(program.blocks().len() <= bounds.max_blocks, "{name}");
            let longest = program.blocks().map(|b| b.instructions.len()).max().unwrap_or(0);
            prop_assert!(
                longest <= bounds.max_block_len,
                "{name}: {longest} > {}",
                bounds.max_block_len
            );
            let total: usize = program.blocks().map(|b| b.instructions.len()).sum();
            prop_assert!(
                total <= bounds.max_instructions,
                "{name}: {total} > {}",
                bounds.max_instructions
            );
            prop_assert!(program.memory_size() <= bounds.max_memory_bytes, "{name}");
            prop_assert!(widget.expected_output_bytes() <= bounds.max_output_bytes, "{name}");
        }
    }
}
