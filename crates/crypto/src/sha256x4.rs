//! 4-lane SHA-256: four independent messages hashed per compression pass.
//!
//! The scalar [`crate::Sha256`] is latency-bound: every round depends on the
//! previous one, so a core spends most of a compression waiting on one
//! dependency chain. This module lays the hash state out as a *struct of
//! arrays* — each working variable and each schedule word is a `[u32; 4]`
//! holding one word per lane — so four chains run side by side.
//!
//! The compression is written for LLVM's vectoriser, not with intrinsics:
//! it is plain safe Rust, bit-identical per lane to the scalar
//! implementation (pinned by the kernel and FIPS tests below and the
//! `proptest_sha256x4` sweep). Every step is a `for l in 0..SHA256_LANES`
//! loop over lane arrays inside one out-of-line function, and the
//! feed-forward is masked with a per-lane word rather than branched on, so
//! each step becomes one 128-bit vector operation and the working
//! variables stay in vector registers from the first round to the last.
//! Built with the workspace's release profile for an AVX-512 host, the
//! rotations lower to `vprold` and the three-input boolean functions to
//! `vpternlogd`; the stack holds only the 16-word message schedule.
//!
//! That speed needs the build to target the host's vector ISA, as the
//! repository's `.cargo/config.toml` does with `target-cpu=native`. A
//! package that depends on this crate builds it with its own flags, and for
//! the portable x86-64 baseline (SSE2, no vector rotate) every rotation
//! lowers to shift, shift and or: there one [`sha256_x4`] call over four
//! 32-byte messages took 1,386–1,449 ns against 1,183–1,189 ns for four
//! scalar [`crate::sha256()`] calls, and 2,000 uneven bodies through the fork
//! tree's batched Merkle checks took twice as long as block by block. The
//! lanes are chosen by the callers, not by the build, so such a build is
//! slower, never wrong: digests are bit-exact under every target.
//!
//! Lanes are fully independent messages and may have different lengths: a
//! lane that runs out of blocks keeps compressing a dummy block but its
//! feed-forward is masked off, so its state — and therefore its digest —
//! is untouched. The hot callers (the nonce-scanning loops) hash four
//! equal-length `header ‖ nonce` inputs, where no masking ever triggers.
//!
//! Callers that assemble a lane from non-contiguous pieces (the mining
//! loops hash `header ‖ nonce` without materialising four separate
//! buffers) use [`sha256_x4_parts`], which treats each lane as the
//! concatenation of a slice list. [`sha256_x4_resume`] does the same from a
//! scalar [`crate::Sha256`] that has absorbed a shared prefix of whole
//! blocks, and [`sha256_x4_parts`] is its case for the initial state.
//! Everything here is allocation-free: state, schedules and staged blocks
//! all live on the stack.

use crate::sha256::{Digest256, Sha256, K};

/// Number of independent messages one multi-lane evaluation hashes.
pub const SHA256_LANES: usize = 4;

/// One word across all four lanes.
type Lanes = [u32; SHA256_LANES];

/// Compresses one 64-byte block per lane into `state`, feeding forward only
/// the lanes flagged `active` — an inactive lane's state is untouched, as if
/// the block had never been presented.
///
/// Kept out of line: inlined into [`sha256_x4_parts`], the same loops ran
/// at half the speed (3.4–3.6 against 1.7–1.8 ns per byte per lane).
#[inline(never)]
fn compress_x4(
    state: &mut [Lanes; 8],
    blocks: &[[u8; 64]; SHA256_LANES],
    active: [bool; SHA256_LANES],
) {
    let mut w = [[0u32; SHA256_LANES]; 16];
    for (i, word) in w.iter_mut().enumerate() {
        for l in 0..SHA256_LANES {
            let bytes = &blocks[l][4 * i..4 * i + 4];
            word[l] = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
    }
    let mut v = *state;
    for (group, k) in K.chunks_exact(16).enumerate() {
        if group > 0 {
            // The schedule's next 16 words, over the 16-word ring in place.
            for i in 0..16 {
                let (w15, w7, w2) = (w[(i + 1) % 16], w[(i + 9) % 16], w[(i + 14) % 16]);
                for l in 0..SHA256_LANES {
                    w[i][l] = w[i][l]
                        .wrapping_add(
                            w15[l].rotate_right(7) ^ w15[l].rotate_right(18) ^ (w15[l] >> 3),
                        )
                        .wrapping_add(w7[l])
                        .wrapping_add(
                            w2[l].rotate_right(17) ^ w2[l].rotate_right(19) ^ (w2[l] >> 10),
                        );
                }
            }
        }
        for (&k, w) in k.iter().zip(&w) {
            let [a, b, c, d, e, f, g, h] = v;
            let mut new_a = [0u32; SHA256_LANES];
            let mut new_e = [0u32; SHA256_LANES];
            for l in 0..SHA256_LANES {
                let t1 = h[l]
                    .wrapping_add(
                        e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25),
                    )
                    .wrapping_add(g[l] ^ (e[l] & (f[l] ^ g[l])))
                    .wrapping_add(k.wrapping_add(w[l]));
                let t2 = (a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22))
                    .wrapping_add((a[l] & b[l]) | (c[l] & (a[l] | b[l])));
                new_a[l] = t1.wrapping_add(t2);
                new_e[l] = d[l].wrapping_add(t1);
            }
            v = [new_a, a, b, c, new_e, e, f, g];
        }
    }
    // All ones for a lane whose block is fed forward, zero for one whose
    // state must stay as it was.
    let mask = active.map(|on| 0u32.wrapping_sub(u32::from(on)));
    for (word, sum) in state.iter_mut().zip(v) {
        for l in 0..SHA256_LANES {
            word[l] = word[l].wrapping_add(sum[l] & mask[l]);
        }
    }
}

/// Writes block `block_index` of the padded stream for a message formed by
/// concatenating `parts` (total length `total_len`, spanning `blocks` padded
/// blocks) after a prefix of `prefix_len` bytes, whole blocks already
/// compressed, into `out`.
///
/// The padded stream is the FIPS 180-4 framing: the message bytes, one
/// `0x80` terminator, zeros, and the 64-bit big-endian bit length of the
/// prefix and the message closing the final block.
fn fill_block(
    parts: &[&[u8]],
    total_len: usize,
    prefix_len: u64,
    blocks: usize,
    block_index: usize,
    out: &mut [u8; 64],
) {
    out.fill(0);
    let start = block_index * 64;
    let end = start + 64;

    // Message bytes overlapping this block, gathered across the parts.
    let mut offset = 0usize;
    for part in parts {
        let part_start = offset;
        let part_end = offset + part.len();
        if part_end > start && part_start < end {
            let from = start.max(part_start);
            let to = end.min(part_end);
            out[from - start..to - start]
                .copy_from_slice(&part[from - part_start..to - part_start]);
        }
        offset = part_end;
    }

    // The 0x80 terminator immediately follows the message.
    if (start..end).contains(&total_len) {
        out[total_len - start] = 0x80;
    }

    // The bit length closes the last block.
    if block_index + 1 == blocks {
        let bit_len = (prefix_len + total_len as u64) * 8;
        out[56..64].copy_from_slice(&bit_len.to_be_bytes());
    }
}

/// Hashes four independent messages, each given as a list of slices that are
/// treated as one concatenated message, returning the four digests.
///
/// Lane `i`'s digest is byte-identical to
/// [`crate::sha256()`](fn@crate::sha256)`(concat(lanes[i]))`. Lanes may have different total
/// lengths; the compression loop runs until the longest lane's final block
/// and masks finished lanes out of the feed-forward. No heap allocation is
/// performed. This is [`sha256_x4_resume`] from the initial state.
///
/// This is the mining loops' entry point: a `header ‖ nonce` input is two
/// slices, so four nonce variants hash without materialising four buffers.
///
/// # Panics
///
/// Panics (in debug builds) if a lane exceeds the 2^61 − 1 byte FIPS length
/// bound — the same contract as the scalar [`crate::Sha256`].
pub fn sha256_x4_parts(lanes: [&[&[u8]]; SHA256_LANES]) -> [Digest256; SHA256_LANES] {
    sha256_x4_resume(&Sha256::new(), lanes)
}

/// Hashes four messages that share the prefix `prefix` has absorbed, each
/// lane continuing it with the concatenation of its slice list.
///
/// Lane `i`'s digest is byte-identical to the digest of `prefix` after
/// absorbing `concat(lanes[i])`. All four lanes start from `prefix`'s
/// chaining state, so the prefix is compressed once, not once per lane:
/// a miner whose nonces share the first block of their header (its
/// *midstate*) resumes four of them from it. Lanes may have different
/// lengths, as in [`sha256_x4_parts`], and no heap allocation is performed.
///
/// # Panics
///
/// Panics if `prefix` has absorbed a length that is not a multiple of
/// 64 bytes: the lanes could not share a part-filled block. Panics (in
/// debug builds) if a lane's whole message exceeds the 2^61 − 1 byte FIPS
/// length bound, the same contract as the scalar [`crate::Sha256`].
pub fn sha256_x4_resume(
    prefix: &Sha256,
    lanes: [&[&[u8]]; SHA256_LANES],
) -> [Digest256; SHA256_LANES] {
    let (chain, prefix_len) = prefix
        .block_state()
        .expect("the prefix hasher has absorbed whole 64-byte blocks");
    let mut total_len = [0usize; SHA256_LANES];
    let mut blocks = [0usize; SHA256_LANES];
    for lane in 0..SHA256_LANES {
        total_len[lane] = lanes[lane].iter().map(|part| part.len()).sum();
        debug_assert!(
            prefix_len + (total_len[lane] as u64) < 1u64 << 61,
            "message exceeds the FIPS 180-4 64-bit length field"
        );
        blocks[lane] = (total_len[lane] + 9).div_ceil(64);
    }
    let max_blocks = blocks.iter().copied().max().unwrap_or(0);

    let mut state = chain.map(|word| [word; SHA256_LANES]);

    let mut staged = [[0u8; 64]; SHA256_LANES];
    for block_index in 0..max_blocks {
        let mut active = [false; SHA256_LANES];
        for lane in 0..SHA256_LANES {
            if block_index < blocks[lane] {
                fill_block(
                    lanes[lane],
                    total_len[lane],
                    prefix_len,
                    blocks[lane],
                    block_index,
                    &mut staged[lane],
                );
                active[lane] = true;
            }
        }
        compress_x4(&mut state, &staged, active);
    }

    let mut out = [[0u8; 32]; SHA256_LANES];
    for lane in 0..SHA256_LANES {
        for (i, word) in state.iter().enumerate() {
            out[lane][i * 4..i * 4 + 4].copy_from_slice(&word[lane].to_be_bytes());
        }
    }
    out
}

/// Hashes four independent messages in one 4-lane pass.
///
/// Lane `i`'s digest is byte-identical to [`crate::sha256()`](fn@crate::sha256)`(messages[i])`; see
/// [`sha256_x4_parts`] for the mixed-length semantics.
pub fn sha256_x4(messages: [&[u8]; SHA256_LANES]) -> [Digest256; SHA256_LANES] {
    sha256_x4_parts([
        &[messages[0]],
        &[messages[1]],
        &[messages[2]],
        &[messages[3]],
    ])
}

/// Double SHA-256 of four independent messages: lane `i` is byte-identical
/// to [`crate::sha256d`]`(messages[i])`. Both applications run 4-lane (the
/// second over four uniform 32-byte inputs, so no masking occurs there).
pub fn sha256d_x4(messages: [&[u8]; SHA256_LANES]) -> [Digest256; SHA256_LANES] {
    let first = sha256_x4(messages);
    sha256_x4([&first[0], &first[1], &first[2], &first[3]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::tests::random_input;
    use crate::{sha256, sha256d};

    #[test]
    fn compress_x4_matches_scalar_compress_under_every_mask() {
        let mut rng = 0x4_1a9e5;
        for mask in 0..16u32 {
            for _ in 0..64 {
                let inputs: [([u32; 8], [u8; 64]); SHA256_LANES] =
                    std::array::from_fn(|_| random_input(&mut rng));
                let active = std::array::from_fn(|lane| mask & (1 << lane) != 0);
                let mut state = [[0u32; SHA256_LANES]; 8];
                for (lane, (words, _)) in inputs.iter().enumerate() {
                    for (word, &value) in state.iter_mut().zip(words) {
                        word[lane] = value;
                    }
                }
                compress_x4(&mut state, &inputs.map(|(_, block)| block), active);
                for (lane, (words, block)) in inputs.iter().enumerate() {
                    let mut expected = *words;
                    if active[lane] {
                        crate::sha256::compress(&mut expected, block);
                    }
                    let got: [u32; 8] = std::array::from_fn(|i| state[i][lane]);
                    assert_eq!(got, expected, "mask {mask:04b}, lane {lane}");
                }
            }
        }
    }

    #[test]
    fn fips_vectors_per_lane() {
        // The four canonical FIPS 180-4 vectors, one per lane — different
        // lengths, so the masked tail path runs too.
        let two_block = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        let four_block: &[u8] = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        let msgs: [&[u8]; 4] = [b"", b"abc", two_block, four_block];
        let digests = sha256_x4(msgs);
        for (lane, msg) in msgs.iter().enumerate() {
            assert_eq!(digests[lane], sha256(msg), "lane {lane}");
        }
    }

    #[test]
    fn equal_length_lanes_match_scalar() {
        let msgs: [&[u8]; 4] = [b"nonce-0", b"nonce-1", b"nonce-2", b"nonce-3"];
        let digests = sha256_x4(msgs);
        for (lane, msg) in msgs.iter().enumerate() {
            assert_eq!(digests[lane], sha256(msg), "lane {lane}");
        }
    }

    #[test]
    fn padding_boundary_lengths_match_scalar() {
        // Every interesting padding boundary, rotated across lanes so each
        // boundary exercises each lane position.
        let data = [0xa5u8; 256];
        let lengths = [55usize, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128, 129];
        for window in lengths.windows(4) {
            let msgs: [&[u8]; 4] = [
                &data[..window[0]],
                &data[..window[1]],
                &data[..window[2]],
                &data[..window[3]],
            ];
            let digests = sha256_x4(msgs);
            for lane in 0..4 {
                assert_eq!(digests[lane], sha256(msgs[lane]), "length {}", window[lane]);
            }
        }
    }

    #[test]
    fn parts_concatenate_exactly() {
        let header = b"block-header-bytes";
        let nonces: [[u8; 8]; 4] = [0u64, 1, u64::MAX, 0xdead_beef].map(u64::to_le_bytes);
        let lanes: [[&[u8]; 2]; 4] = [
            [header, &nonces[0]],
            [header, &nonces[1]],
            [header, &nonces[2]],
            [header, &nonces[3]],
        ];
        let digests = sha256_x4_parts([&lanes[0], &lanes[1], &lanes[2], &lanes[3]]);
        for lane in 0..4 {
            let mut whole = header.to_vec();
            whole.extend_from_slice(&nonces[lane]);
            assert_eq!(digests[lane], sha256(&whole), "lane {lane}");
        }
    }

    #[test]
    fn empty_parts_and_empty_lanes() {
        let lanes: [[&[u8]; 3]; 4] = [
            [b"", b"", b""],
            [b"a", b"", b"bc"],
            [b"", b"abc", b""],
            [b"abc", b"def", b"g"],
        ];
        let digests = sha256_x4_parts([&lanes[0], &lanes[1], &lanes[2], &lanes[3]]);
        assert_eq!(digests[0], sha256(b""));
        assert_eq!(digests[1], sha256(b"abc"));
        assert_eq!(digests[2], sha256(b"abc"));
        assert_eq!(digests[3], sha256(b"abcdefg"));
    }

    #[test]
    fn resumed_lanes_match_scalar_over_prefix_and_lane() {
        let data: Vec<u8> = (0..=255u8).cycle().take(128 + 203).collect();
        for prefix_len in [64, 128] {
            let (prefix, rest) = data.split_at(prefix_len);
            let mut hasher = Sha256::new();
            hasher.update(prefix);
            for len in 0..=200 {
                // Four different lengths and contents, each lane in two parts.
                let lanes: [&[u8]; SHA256_LANES] =
                    std::array::from_fn(|lane| &rest[lane..][..(len + 50 * lane) % 201]);
                let parts = lanes.map(|lane| lane.split_at(lane.len() / 3));
                let parts = parts.map(|(first, second)| [first, second]);
                let digests = sha256_x4_resume(&hasher, parts.each_ref().map(|p| p.as_slice()));
                for (lane, bytes) in lanes.iter().enumerate() {
                    let whole = [prefix, bytes].concat();
                    assert_eq!(
                        digests[lane],
                        sha256(&whole),
                        "prefix {prefix_len}, lane {lane} of {} bytes",
                        bytes.len()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole 64-byte blocks")]
    fn a_part_filled_prefix_is_refused() {
        let mut hasher = Sha256::new();
        hasher.update(&[0; 65]);
        sha256_x4_resume(&hasher, [&[], &[], &[], &[]]);
    }

    #[test]
    fn double_sha_matches_scalar_double_sha() {
        let msgs: [&[u8]; 4] = [
            b"",
            b"hashcore",
            b"a longer message spanning one block",
            b"x",
        ];
        let digests = sha256d_x4(msgs);
        for (lane, msg) in msgs.iter().enumerate() {
            assert_eq!(digests[lane], sha256d(msg), "lane {lane}");
        }
    }

    #[test]
    fn multi_kilobyte_lanes_match_scalar() {
        let data: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        let msgs: [&[u8]; 4] = [&data[..8192], &data[..4097], &data[..63], &data[..1000]];
        let digests = sha256_x4(msgs);
        for (lane, msg) in msgs.iter().enumerate() {
            assert_eq!(digests[lane], sha256(msg), "lane {lane}");
        }
    }
}
