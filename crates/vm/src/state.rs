//! Architectural machine state.

use hashcore_isa::{NUM_FP_REGS, NUM_INT_REGS, NUM_VEC_REGS, VEC_LANES};

/// Number of bytes one register snapshot contributes to the widget output:
/// all integer registers, all floating-point registers (as IEEE-754 bit
/// patterns) and all vector registers, each 8 bytes per 64-bit value.
pub const SNAPSHOT_BYTES: usize = (NUM_INT_REGS + NUM_FP_REGS + NUM_VEC_REGS * VEC_LANES) * 8;

/// The architectural state of the widget machine.
///
/// Memory is a private array of power-of-two size; addresses wrap, so every
/// access is in bounds by construction (there are no memory faults in the
/// widget ISA — a PoW function must never crash its verifier).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    /// 64-bit integer registers.
    pub int_regs: [u64; NUM_INT_REGS],
    /// Double-precision floating-point registers.
    pub fp_regs: [f64; NUM_FP_REGS],
    /// Vector registers (4 × 64-bit lanes each).
    pub vec_regs: [[u64; VEC_LANES]; NUM_VEC_REGS],
    pub(crate) memory: Memory,
}

/// The data segment as 64-bit words: every access is 8 bytes at an address
/// wrapped into the segment and aligned down to 8, so the byte layout (a
/// word's bytes are its little-endian encoding) never needs to exist.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Memory {
    words: Vec<u64>,
    /// `words.len() - 1`, a power of two minus one.
    mask: u64,
}

impl Memory {
    /// Index of the word holding byte address `addr`.
    fn index(&self, addr: u64) -> usize {
        ((addr >> 3) & self.mask) as usize
    }

    /// `addr` wrapped into the segment and aligned down to 8 bytes.
    pub(crate) fn wrap(&self, addr: u64) -> u64 {
        (self.index(addr) as u64) << 3
    }

    /// The word at byte address `addr`.
    pub(crate) fn load(&self, addr: u64) -> u64 {
        self.words[self.index(addr)]
    }

    /// Stores `value` as the word at byte address `addr`.
    pub(crate) fn store(&mut self, addr: u64, value: u64) {
        let index = self.index(addr);
        self.words[index] = value;
    }
}

impl MachineState {
    /// Creates a zeroed machine with `memory_size` bytes of memory.
    ///
    /// # Panics
    ///
    /// Panics if `memory_size` is not a power of two of at least 8 bytes
    /// (validated programs always carry such a size).
    pub fn new(memory_size: usize) -> Self {
        assert!(
            memory_size.is_power_of_two() && memory_size >= 8,
            "memory size must be a power of two of at least 8 bytes"
        );
        let words = memory_size / 8;
        Self {
            int_regs: [0; NUM_INT_REGS],
            fp_regs: [0.0; NUM_FP_REGS],
            vec_regs: [[0; VEC_LANES]; NUM_VEC_REGS],
            memory: Memory {
                words: vec![0; words],
                mask: (words - 1) as u64,
            },
        }
    }

    /// Re-sizes the machine for a program with `memory_size` bytes of
    /// memory, reusing the existing allocation when possible.
    ///
    /// Register and memory *contents* are unspecified afterwards; callers
    /// follow up with [`MachineState::seed`], which overwrites every
    /// register and every memory byte. This is the in-place equivalent of
    /// [`MachineState::new`] used by the reusable-scratch execution path.
    ///
    /// # Panics
    ///
    /// Panics if `memory_size` is not a power of two of at least 8 bytes.
    pub fn reset(&mut self, memory_size: usize) {
        assert!(
            memory_size.is_power_of_two() && memory_size >= 8,
            "memory size must be a power of two of at least 8 bytes"
        );
        let words = memory_size / 8;
        if self.memory.words.len() != words {
            self.memory.words.resize(words, 0);
            self.memory.mask = (words - 1) as u64;
        }
    }

    /// Deterministically fills memory and registers from `seed` using a
    /// splitmix64 stream.
    ///
    /// The paper's widgets begin from the state the generated C program sets
    /// up; here the memory seed from Table I plays that role, so two widgets
    /// with different memory seeds traverse different data even if their code
    /// were identical.
    pub fn seed(&mut self, seed: u64) {
        let mut s = Splitmix64::new(seed);
        for word in self.memory.words.iter_mut() {
            *word = s.next();
        }
        for r in self.int_regs.iter_mut() {
            *r = s.next();
        }
        for f in self.fp_regs.iter_mut() {
            // Start from small, finite values so FP chains stay numerically
            // interesting instead of saturating to infinity.
            *f = (s.next() % 4096) as f64 / 64.0 + 1.0;
        }
        for v in self.vec_regs.iter_mut() {
            for lane in v.iter_mut() {
                *lane = s.next();
            }
        }
    }

    /// Size of the memory in bytes.
    pub fn memory_size(&self) -> usize {
        self.memory.words.len() * 8
    }

    /// Wraps an address into the memory and aligns it down to 8 bytes.
    pub fn wrap_addr(&self, addr: u64) -> u64 {
        self.memory.wrap(addr)
    }

    /// Loads a 64-bit little-endian value from the (wrapped, aligned)
    /// address.
    pub fn load64(&self, addr: u64) -> u64 {
        self.memory.load(addr)
    }

    /// Stores a 64-bit little-endian value at the (wrapped, aligned)
    /// address.
    pub fn store64(&mut self, addr: u64, value: u64) {
        self.memory.store(addr, value);
    }

    /// Serialises the register file into `out` as one snapshot record.
    pub fn write_snapshot(&self, out: &mut Vec<u8>) {
        write_snapshot(&self.int_regs, &self.fp_regs, &self.vec_regs, out);
    }
}

/// Appends one snapshot record of the three register files to `out`.
///
/// The files are written as whole little-endian slabs through a fixed-size
/// stack buffer and appended with a single `extend_from_slice`, instead of
/// one `Vec` append per register. The chunked `to_le_bytes` copies compile
/// to straight word moves on little-endian targets, so the snapshot cost is
/// one `memcpy` of [`SNAPSHOT_BYTES`] — snapshots are the dominant output
/// cost of snapshot-heavy widgets. The byte layout: integer registers, FP
/// registers as IEEE-754 bit patterns, then vector lanes, each as 8
/// little-endian bytes.
pub(crate) fn write_snapshot(
    int_regs: &[u64; NUM_INT_REGS],
    fp_regs: &[f64; NUM_FP_REGS],
    vec_regs: &[[u64; VEC_LANES]; NUM_VEC_REGS],
    out: &mut Vec<u8>,
) {
    let mut slab = [0u8; SNAPSHOT_BYTES];
    let (ints, rest) = slab.split_at_mut(NUM_INT_REGS * 8);
    let (fps, vecs) = rest.split_at_mut(NUM_FP_REGS * 8);
    for (chunk, r) in ints.chunks_exact_mut(8).zip(int_regs) {
        chunk.copy_from_slice(&r.to_le_bytes());
    }
    for (chunk, f) in fps.chunks_exact_mut(8).zip(fp_regs) {
        chunk.copy_from_slice(&f.to_bits().to_le_bytes());
    }
    for (chunk, lane) in vecs.chunks_exact_mut(8).zip(vec_regs.iter().flatten()) {
        chunk.copy_from_slice(&lane.to_le_bytes());
    }
    out.extend_from_slice(&slab);
}

/// The splitmix64 generator, used only for deterministic state seeding.
#[derive(Debug, Clone)]
pub(crate) struct Splitmix64 {
    state: u64,
}

impl Splitmix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_size_matches_constant() {
        let state = MachineState::new(64);
        let mut out = Vec::new();
        state.write_snapshot(&mut out);
        assert_eq!(out.len(), SNAPSHOT_BYTES);
    }

    /// The pre-slab serialisation path, kept as the reference for the
    /// byte-for-byte equivalence test below.
    fn write_snapshot_reference(state: &MachineState, out: &mut Vec<u8>) {
        for r in &state.int_regs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        for f in &state.fp_regs {
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        for v in &state.vec_regs {
            for lane in v {
                out.extend_from_slice(&lane.to_le_bytes());
            }
        }
    }

    #[test]
    fn slab_snapshot_is_byte_identical_to_per_register_path() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut state = MachineState::new(256);
            state.seed(seed);
            // Exercise non-trivial FP bit patterns (negative zero survives
            // serialisation as its own bit pattern).
            state.fp_regs[3] = -0.0;
            state.fp_regs[5] = f64::MAX;
            let mut slab = Vec::new();
            let mut reference = Vec::new();
            state.write_snapshot(&mut slab);
            write_snapshot_reference(&state, &mut reference);
            assert_eq!(slab, reference, "seed {seed}");
            assert_eq!(slab.len(), SNAPSHOT_BYTES);
        }
    }

    #[test]
    fn memory_wraps_and_aligns() {
        let mut state = MachineState::new(64);
        state.store64(7, 0xdead_beef);
        // Address 7 aligns down to 0.
        assert_eq!(state.load64(0), 0xdead_beef);
        // Address 64 + 3 wraps to 0.
        assert_eq!(state.load64(67), 0xdead_beef);
        assert_eq!(state.wrap_addr(63), 56);
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = MachineState::new(256);
        let mut b = MachineState::new(256);
        let mut c = MachineState::new(256);
        a.seed(42);
        b.seed(42);
        c.seed(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // FP registers must start finite.
        assert!(a.fp_regs.iter().all(|f| f.is_finite()));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_memory_panics() {
        MachineState::new(100);
    }

    #[test]
    fn splitmix_known_sequence_is_stable() {
        let mut s = Splitmix64::new(0);
        let first = s.next();
        let second = s.next();
        assert_ne!(first, second);
        let mut s2 = Splitmix64::new(0);
        assert_eq!(s2.next(), first);
        assert_eq!(s2.next(), second);
    }
}
