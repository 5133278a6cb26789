//! A scrypt-style memory-hard PoW baseline.
//!
//! The construction follows the shape of scrypt's ROMix (and of the
//! memory-hard functions the paper cites — Equihash, Balloon, scrypt):
//!
//! 1. fill an `N`-block scratchpad by iterated hashing of the input,
//! 2. perform `passes × N` data-dependent random walks over the scratchpad,
//!    mixing each visited block into a running state,
//! 3. hash the final state.
//!
//! Step 2 is what forces the memory to actually be resident: the address of
//! each visited block depends on the current state, so the scratchpad cannot
//! be streamed or recomputed cheaply.

use crate::{PowFunction, ResourceClass};
use hashcore::VerifyCost;
use hashcore_crypto::{sha256, sha512, Digest256};

const BLOCK_BYTES: usize = 64;

/// Reusable scratchpad storage for [`MemoryHardPow`]: the whole point of a
/// memory-hard function is a large resident buffer, so reusing it across
/// evaluations removes the dominant allocation from batch verification.
#[derive(Debug, Clone, Default)]
pub struct MemoryHardScratch {
    scratchpad: Vec<[u8; BLOCK_BYTES]>,
}

/// A sequential memory-hard PoW function with a configurable scratchpad.
#[derive(Debug, Clone, Copy)]
pub struct MemoryHardPow {
    scratchpad_bytes: usize,
    passes: u32,
}

impl MemoryHardPow {
    /// Creates a function using `scratchpad_bytes` of memory (rounded up to
    /// a whole number of 64-byte blocks, minimum one block) and `passes`
    /// mixing passes.
    pub fn new(scratchpad_bytes: usize, passes: u32) -> Self {
        Self {
            scratchpad_bytes: scratchpad_bytes.max(BLOCK_BYTES),
            passes: passes.max(1),
        }
    }

    /// The configured scratchpad size in bytes.
    pub fn scratchpad_bytes(&self) -> usize {
        (self.scratchpad_bytes / BLOCK_BYTES).max(1) * BLOCK_BYTES
    }
}

/// Every stage is a serial dependency chain — the fill iterates SHA-512 on
/// its own output, and the mixing walk's next address depends on the state
/// just produced — and lanes would each need their own scratchpad. That
/// sequential, memory-resident structure is the point of the design, so
/// nonce scans use the default one-nonce-at-a-time lane hook.
impl PowFunction for MemoryHardPow {
    type Scratch = MemoryHardScratch;

    fn name(&self) -> &'static str {
        "memory_hard"
    }

    fn dominant_resource(&self) -> ResourceClass {
        ResourceClass::Memory
    }

    fn evaluate(&self, input: &[u8], scratch: &mut Self::Scratch) -> (Digest256, VerifyCost) {
        let blocks = (self.scratchpad_bytes / BLOCK_BYTES).max(1);

        // Phase 1: sequential fill (every slot is overwritten, so reusing
        // the scratchpad buffer cannot leak state between evaluations).
        let scratchpad = &mut scratch.scratchpad;
        scratchpad.clear();
        scratchpad.reserve(blocks);
        let mut block = sha512(input);
        for _ in 0..blocks {
            scratchpad.push(block);
            block = sha512(&block);
        }

        // Phase 2: data-dependent mixing walks.
        let mut state = sha512(&block);
        for _ in 0..self.passes {
            for _ in 0..blocks {
                let index =
                    u64::from_le_bytes(state[..8].try_into().expect("8 bytes")) as usize % blocks;
                // Mix the visited block into the state and write back, so
                // later passes depend on earlier writes.
                let mut mixed = [0u8; BLOCK_BYTES];
                for (i, m) in mixed.iter_mut().enumerate() {
                    *m = state[i] ^ scratchpad[index][i];
                }
                state = sha512(&mixed);
                scratchpad[index] = mixed;
            }
        }

        (sha256(&state), self.nominal_cost())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_parameter_sensitive() {
        let a = MemoryHardPow::new(16 * 1024, 2);
        assert_eq!(a.pow_hash(b"x"), a.pow_hash(b"x"));
        assert_ne!(a.pow_hash(b"x"), a.pow_hash(b"y"));
        let b = MemoryHardPow::new(32 * 1024, 2);
        let c = MemoryHardPow::new(16 * 1024, 3);
        assert_ne!(a.pow_hash(b"x"), b.pow_hash(b"x"));
        assert_ne!(a.pow_hash(b"x"), c.pow_hash(b"x"));
    }

    #[test]
    fn scratchpad_is_rounded_to_blocks() {
        assert_eq!(MemoryHardPow::new(1, 1).scratchpad_bytes(), 64);
        assert_eq!(MemoryHardPow::new(130, 1).scratchpad_bytes(), 128);
    }
}
