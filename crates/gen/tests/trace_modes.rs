//! Trace mode on and off run the same widget.
//!
//! The untraced path is the one every miner and verifier takes; the traced
//! one feeds the core model and is what `widget_corpus.rs` pins. Each corpus
//! widget (`sha256(i.to_le_bytes())`, `i < 16`) goes through one reused
//! `PipelineScratch` untraced, then traced, and both runs must give the same
//! output bytes, statistics and final machine state.

use hashcore_crypto::sha256;
use hashcore_gen::{PipelineScratch, WidgetGenerator};
use hashcore_profile::{HashSeed, PerformanceProfile};

fn assert_trace_modes_agree(profile: PerformanceProfile) {
    let generator = WidgetGenerator::new(profile);
    let mut pipeline = PipelineScratch::new();
    for i in 0..16u64 {
        let seed = HashSeed::new(sha256(&i.to_le_bytes()));
        let untraced = pipeline
            .run(&generator, &seed, false)
            .expect("a generated widget halts");
        assert!(pipeline.exec.trace().is_empty(), "seed {i}");
        let output = pipeline.exec.output().to_vec();
        let state = pipeline.exec.final_state().clone();

        let traced = pipeline
            .run(&generator, &seed, true)
            .expect("a generated widget halts");
        assert_eq!(traced, untraced, "seed {i}");
        assert_eq!(pipeline.exec.output(), output.as_slice(), "seed {i}");
        assert_eq!(pipeline.exec.final_state(), &state, "seed {i}");
        assert_eq!(
            pipeline.exec.trace().len() as u64,
            traced.dynamic_instructions,
            "seed {i}"
        );
    }
}

#[test]
fn leela_like_trace_modes_agree() {
    assert_trace_modes_agree(PerformanceProfile::leela_like());
}

#[test]
fn fp_stencil_like_trace_modes_agree() {
    assert_trace_modes_agree(PerformanceProfile::fp_stencil_like());
}
