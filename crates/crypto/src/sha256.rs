//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! This is the *hash gate* `G` of the HashCore construction. The paper's
//! collision-resistance theorem (Theorem 1) reduces the security of the whole
//! PoW function to the collision resistance of this primitive, so the
//! implementation is deliberately simple, constant-structure, and covered by
//! the official FIPS / NIST test vectors in the unit tests below.

/// A SHA-256 digest: 32 bytes.
pub type Digest256 = [u8; 32];

/// Initial hash values (first 32 bits of the fractional parts of the square
/// roots of the first eight primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (first 32 bits of the fractional parts of the cube roots of
/// the first 64 primes).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Maximum message length SHA-256 is defined for: the FIPS 180-4 length
/// field is 64 bits of *bit* count, so messages must stay below 2^61 bytes.
pub const MAX_MESSAGE_BYTES: u64 = (1 << 61) - 1;

/// Incremental SHA-256 hasher.
///
/// # Message-length contract
///
/// FIPS 180-4 defines SHA-256 only for messages shorter than 2^64 *bits*
/// ([`MAX_MESSAGE_BYTES`] bytes). Feeding more wraps the length field:
/// debug builds panic at the [`Sha256::update`] call that crosses the
/// bound, release builds silently produce a digest of a different
/// (length-reduced) message. Every real input in this workspace — headers,
/// nonces, widget outputs — is kilobytes, so the bound exists as an
/// explicit contract, not a reachable state.
///
/// # Examples
///
/// ```
/// use hashcore_crypto::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let digest = hasher.finalize();
/// assert_eq!(digest, hashcore_crypto::sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes processed so far.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher with the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the total message length exceeds
    /// [`MAX_MESSAGE_BYTES`] (the FIPS 180-4 64-bit length field); see the
    /// type-level message-length contract.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        debug_assert!(
            self.total_len <= MAX_MESSAGE_BYTES,
            "message exceeds the FIPS 180-4 64-bit length field (2^61 - 1 bytes)"
        );
        let mut input = data;

        // Fill the partial buffer first.
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }

        // Process full blocks directly from the input slice, with no
        // staging copy — this is the hot path of the second hash gate,
        // which absorbs the full 20–38 kB widget output on every hash.
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            // chunks_exact guarantees the length; the conversion is free.
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        input = blocks.remainder();

        // Stash the remainder.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> Digest256 {
        // In range by the `update` contract (debug-asserted there); the
        // wrapping multiply documents the release-build overflow behaviour
        // rather than hiding it behind an unchecked `*`.
        let bit_len = self.total_len.wrapping_mul(8);

        // Append the 0x80 terminator.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        // Number of zero bytes so that (buffer_len + 1 + zeros + 8) % 64 == 0.
        let rem = (self.buffer_len + 1 + 8) % 64;
        let zeros = if rem == 0 { 0 } else { 64 - rem };
        pad[1 + zeros..1 + zeros + 8].copy_from_slice(&bit_len.to_be_bytes());
        // `update` must not double-count padding in total_len; compress directly.
        let pad_len = 1 + zeros + 8;
        let mut input = &pad[..pad_len];

        // Merge with buffered bytes and compress.
        let mut block = [0u8; 64];
        block[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        let mut offset = self.buffer_len;
        while !input.is_empty() {
            let take = (64 - offset).min(input.len());
            block[offset..offset + take].copy_from_slice(&input[..take]);
            offset += take;
            input = &input[take..];
            if offset == 64 {
                compress(&mut self.state, &block);
                block = [0u8; 64];
                offset = 0;
            }
        }
        debug_assert_eq!(offset, 0, "padding must end on a block boundary");

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The chaining state and the number of bytes absorbed, when those
    /// bytes are whole 64-byte blocks and nothing is buffered: a state a
    /// multi-lane pass can start from.
    pub(crate) fn block_state(&self) -> Option<([u32; 8], u64)> {
        (self.buffer_len == 0).then_some((self.state, self.total_len))
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest256 {
        let mut hasher = Self::new();
        hasher.update(data);
        hasher.finalize()
    }
}

/// One SHA-256 round on named working variables.
///
/// The round leaves the new `a` in the variable passed as `$h` and the new
/// `e` in the one passed as `$d`; the other six keep their values. The next
/// round is written with every name passed one place on
/// (`round!(h, a, b, c, d, e, f, g, ..)`), so no round moves a register and
/// eight rounds bring the names back to where they started.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        $h = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($kw);
        $d = $d.wrapping_add($h);
        $h = $h
            .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) | ($c & ($a | $b)));
    };
}

/// Compresses one 64-byte block into `state`.
///
/// The message schedule is a 16-word ring: each group of 16 rounds reads
/// the ring, and the next group's words are computed over it in place
/// (word `i` of the ring is the schedule's word `t ≡ i (mod 16)`).
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (group, k) in K.chunks_exact(16).enumerate() {
        if group > 0 {
            for i in 0..16 {
                let w15 = w[(i + 1) % 16];
                let w2 = w[(i + 14) % 16];
                w[i] = w[i]
                    .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                    .wrapping_add(w[(i + 9) % 16])
                    .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
            }
        }
        for i in (0..16).step_by(8) {
            round!(a, b, c, d, e, f, g, h, k[i].wrapping_add(w[i]));
            round!(h, a, b, c, d, e, f, g, k[i + 1].wrapping_add(w[i + 1]));
            round!(g, h, a, b, c, d, e, f, k[i + 2].wrapping_add(w[i + 2]));
            round!(f, g, h, a, b, c, d, e, k[i + 3].wrapping_add(w[i + 3]));
            round!(e, f, g, h, a, b, c, d, k[i + 4].wrapping_add(w[i + 4]));
            round!(d, e, f, g, h, a, b, c, k[i + 5].wrapping_add(w[i + 5]));
            round!(c, d, e, f, g, h, a, b, k[i + 6].wrapping_add(w[i + 6]));
            round!(b, c, d, e, f, g, h, a, k[i + 7].wrapping_add(w[i + 7]));
        }
    }
    for (word, sum) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(sum);
    }
}

/// Computes the SHA-256 digest of `data` in one call.
///
/// This is the hash-gate function `G` of the paper.
///
/// # Examples
///
/// ```
/// let d = hashcore_crypto::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> Digest256 {
    Sha256::digest(data)
}

/// Double SHA-256: `SHA256(SHA256(data))`, the Bitcoin-style PoW baseline.
pub fn sha256d(data: &[u8]) -> Digest256 {
    sha256(&sha256(data))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hex;

    /// SplitMix64 step: a small deterministic source of kernel test inputs.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random chaining state and a random block.
    pub(crate) fn random_input(rng: &mut u64) -> ([u32; 8], [u8; 64]) {
        let state = std::array::from_fn(|_| splitmix(rng) as u32);
        let mut block = [0u8; 64];
        for chunk in block.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix(rng).to_le_bytes());
        }
        (state, block)
    }

    /// The textbook FIPS 180-4 compression, kept as the reference the
    /// kernel is pinned to: the whole 64-word schedule first, then 64
    /// rounds that shift the eight working variables down by one.
    fn reference_compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (word, sum) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(sum);
        }
    }

    #[test]
    fn compress_matches_textbook_rounds() {
        let mut rng = 0x5eed;
        for _ in 0..10_000 {
            let (mut state, block) = random_input(&mut rng);
            let mut expected = state;
            reference_compress(&mut expected, &block);
            compress(&mut state, &block);
            assert_eq!(state, expected, "block {block:02x?}");
        }
    }

    fn hex_digest(data: &[u8]) -> String {
        hex::encode(&sha256(data))
    }

    #[test]
    fn empty_string() {
        assert_eq!(
            hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_abc() {
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_two_block_message() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_four_block_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex_digest(msg),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_digest(&msg),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 7, 63, 64, 65, 100, 4096, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise every interesting padding boundary.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128, 129] {
            let data = vec![0xa5u8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "length {len}");
        }
    }

    #[test]
    fn update_block_boundary_handoff() {
        // Regression: the hand-off between the partial-buffer fill and the
        // direct full-block path in `update`. For every buffered prefix
        // length, feed a second slice that under-fills, exactly fills, or
        // over-fills the 64-byte block (and continues into whole blocks +
        // remainder) — all splits must match the one-shot digest.
        let data: Vec<u8> = (0..=255u8).cycle().take(4 * 64 + 7).collect();
        for buffered in 0usize..=66 {
            for second in [
                0usize,
                1,
                63 - buffered.min(63),
                64 - buffered.min(64),
                64,
                65,
                128,
                129,
            ] {
                let end = (buffered + second).min(data.len());
                let mut h = Sha256::new();
                h.update(&data[..buffered]);
                h.update(&data[buffered..end]);
                h.update(&data[end..]);
                assert_eq!(
                    h.finalize(),
                    sha256(&data),
                    "buffered {buffered}, second {second}"
                );
            }
        }
    }

    #[test]
    fn double_sha_differs_from_single() {
        let d1 = sha256(b"hashcore");
        let d2 = sha256d(b"hashcore");
        assert_ne!(d1, d2);
        assert_eq!(d2, sha256(&d1));
    }

    #[test]
    fn avalanche_effect() {
        // Flipping one bit should change roughly half the output bits.
        let a = sha256(b"HashCore widget 0");
        let b = sha256(b"HashCore widget 1");
        let differing: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!(differing > 80, "only {differing} bits differ");
        assert!(differing < 176, "{differing} bits differ");
    }
}
