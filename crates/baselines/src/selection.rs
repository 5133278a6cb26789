//! The widget-selection PoW variant (Section VI-A).
//!
//! Instead of generating a fresh widget per hash, this variant keeps a fixed,
//! pre-generated pool of widgets and uses the hash seed only to *select* an
//! ordered subset of them to execute. The paper discusses the tradeoffs:
//! selection needs a (potentially very large) stored pool and risks per-widget
//! ASICs, but skips the generation cost on every hash, so widget execution is
//! a larger share of the total work. Experiment E7 quantifies exactly that
//! tradeoff with this implementation.

use crate::{PowFunction, ResourceClass, NONCE_LANES};
use hashcore::{lane_seeds, MiningInput, Target, VerifyCost};
use hashcore_crypto::{hmac::HmacStream, sha256, Digest256, Sha256};
use hashcore_gen::{GeneratedWidget, WidgetGenerator};
use hashcore_profile::{HashSeed, PerformanceProfile};
use hashcore_vm::{ExecScratch, Executor, PreparedProgram};

/// A PoW function that selects widgets from a fixed pool.
///
/// The pool is pre-decoded at construction: the stored widgets never change,
/// so selection pays the validate/pre-decode cost once per pool entry
/// instead of once per execution — exactly the trade the paper's Section
/// VI-A discussion describes (storage for per-hash work).
#[derive(Debug, Clone)]
pub struct SelectionPow {
    pool: Vec<GeneratedWidget>,
    prepared: Vec<PreparedProgram>,
    widgets_per_hash: usize,
}

impl SelectionPow {
    /// Builds a pool of `pool_size` widgets from `profile` (using fixed,
    /// publicly known pool seeds) and executes `widgets_per_hash` of them per
    /// PoW evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `pool_size` or `widgets_per_hash` is zero.
    pub fn new(profile: PerformanceProfile, pool_size: usize, widgets_per_hash: usize) -> Self {
        assert!(pool_size > 0, "pool must contain at least one widget");
        assert!(
            widgets_per_hash > 0,
            "must execute at least one widget per hash"
        );
        let generator = WidgetGenerator::new(profile);
        let pool: Vec<GeneratedWidget> = (0..pool_size)
            .map(|i| {
                // Pool seeds are fixed and public: the digest of the pool index.
                let seed = HashSeed::new(sha256(format!("hashcore-pool-{i}").as_bytes()));
                generator.generate(&seed)
            })
            .collect();
        let prepared = pool
            .iter()
            .map(|w| PreparedProgram::new(&w.program).expect("pool widgets validate"))
            .collect();
        Self {
            pool,
            prepared,
            widgets_per_hash,
        }
    }

    /// Number of widgets stored in the pool.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Total encoded size of the stored pool in bytes — the storage cost the
    /// paper's discussion weighs against generation-time cost.
    pub fn pool_storage_bytes(&self) -> usize {
        self.pool
            .iter()
            .map(|w| hashcore_isa::encode(&w.program).len())
            .sum()
    }

    /// The seed-onward tail of [`PowFunction::evaluate`]: widget
    /// selection, execution and the output hash. The lane hook computes
    /// the four seeds lane-parallel and enters here per lane.
    fn hash_from_seed(&self, seed: HashSeed, scratch: &mut ExecScratch) -> Digest256 {
        // The seed drives an HMAC stream that picks the ordered widget subset.
        let mut selector = HmacStream::new(seed.as_bytes());
        let mut gate = Sha256::new();
        gate.update(seed.as_bytes());
        for _ in 0..self.widgets_per_hash {
            let index = selector.next_bounded(self.pool.len() as u64) as usize;
            let widget = &self.pool[index];
            let mut config = widget.exec_config();
            config.collect_trace = false;
            // The memory seed still comes from the block-specific hash seed,
            // so executing a pooled widget remains input-dependent.
            config.memory_seed ^= selector.next_u64();
            Executor::new(config)
                .execute_prepared(&self.prepared[index], scratch)
                .expect("pool widgets always halt within their step limit");
            gate.update(&(index as u64).to_le_bytes());
            gate.update(scratch.output());
        }
        gate.finalize()
    }
}

impl PowFunction for SelectionPow {
    /// Selection executes pre-decoded pool programs, so the only per-worker
    /// state is the execution scratch.
    type Scratch = ExecScratch;

    fn name(&self) -> &'static str {
        "widget_selection"
    }

    fn dominant_resource(&self) -> ResourceClass {
        ResourceClass::GeneralPurpose
    }

    fn evaluate(&self, input: &[u8], scratch: &mut Self::Scratch) -> (Digest256, VerifyCost) {
        let digest = self.hash_from_seed(HashSeed::new(sha256(input)), scratch);
        (digest, self.nominal_cost())
    }

    /// The seed derivation runs four lanes wide; selection and execution
    /// stay per lane (each lane's seed picks its own widget subset),
    /// sharing the one execution scratch, and stop at the first hit.
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

    fn small_pool() -> SelectionPow {
        let mut profile = PerformanceProfile::leela_like();
        profile.target_dynamic_instructions = 2_000;
        SelectionPow::new(profile, 4, 2)
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        let pow = small_pool();
        assert_eq!(pow.pow_hash(b"a"), pow.pow_hash(b"a"));
        assert_ne!(pow.pow_hash(b"a"), pow.pow_hash(b"b"));
    }

    #[test]
    fn pool_metadata() {
        let pow = small_pool();
        assert_eq!(pow.pool_size(), 4);
        assert!(pow.pool_storage_bytes() > 4 * 1_000);
    }

    #[test]
    #[should_panic(expected = "at least one widget")]
    fn empty_pool_panics() {
        SelectionPow::new(PerformanceProfile::leela_like(), 0, 1);
    }
}
