//! Dependency-free LZSS compression for snapshot payloads.
//!
//! Snapshots serialise every retained block, and chain data is highly
//! repetitive — 32-byte parent digests recur as the next header's
//! `prev_hash`, targets repeat across flat-difficulty stretches, and
//! transaction payloads share prefixes — so even a simple LZ pass shrinks
//! snapshots substantially. The build environment is offline and the
//! workspace vendors no compression crates, so this module implements the
//! classic LZSS token stream directly:
//!
//! * the output is a sequence of groups: one control byte whose bits
//!   (LSB-first) flag the following eight tokens,
//! * flag `0` → a literal byte, copied verbatim,
//! * flag `1` → a back-reference: `offset` (`u16` LE, `1..=65535` bytes back
//!   into the already-decoded output) and `length` (`u8`, storing
//!   `length - MIN_MATCH`, so matches span `3..=258` bytes). Overlapping
//!   matches (`offset < length`) are legal and reproduce run-length
//!   encoding, exactly as in LZ77.
//!
//! Compression is deterministic (a fixed hash-chain match finder with a
//! bounded probe depth — no randomised data structures), which the
//! byte-identical `save → restore → fingerprint` proofs rely on. The
//! decompressor validates every token against the declared output length
//! and rejects malformed streams instead of panicking: a corrupt snapshot
//! must surface as a recoverable error so the recovery ladder can fall back
//! to an older snapshot.
//!
//! The decompressor copies a match whose source lies wholly in the decoded
//! output (`offset >= length`) in one slice copy, and an overlapping match
//! byte by byte, since it re-reads bytes it writes. A group of eight
//! literals (control byte 0) that the stream holds and the declared length
//! takes is one slice copy too; snapshots are mostly such groups, since
//! digests and transaction tags do not repeat. Any other group is decoded
//! token by token, so every error is raised where it always was. Its tests
//! keep the all-bytewise decompressor as a reference and hold it to that
//! on hand-built streams of every kind, at, past and short of the declared
//! length, and cut short.

use std::fmt;

/// Shortest back-reference worth emitting: a match token costs 3 bytes plus
/// a flag bit, so 3-byte matches are the break-even point.
const MIN_MATCH: usize = 3;
/// Longest back-reference a length byte can express (`255 + MIN_MATCH`).
const MAX_MATCH: usize = 258;
/// How far back an offset can reach (`u16` range, zero excluded).
const WINDOW: usize = 65_535;
/// Match-finder probe depth: how many previous positions with the same
/// 3-byte prefix each step considers. Bounds worst-case compression time on
/// pathological inputs while finding long matches on chain data.
const MAX_PROBES: usize = 32;

/// A compressed stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// A token was cut off mid-stream (torn write inside the payload).
    TruncatedStream,
    /// A back-reference pointed before the start of the decoded output.
    BadOffset,
    /// The stream decoded to a different length than it declared.
    LengthMismatch {
        /// Bytes the caller asked for.
        want: usize,
        /// Bytes the stream actually produced.
        got: usize,
    },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::TruncatedStream => write!(f, "compressed stream is truncated"),
            CompressError::BadOffset => write!(f, "back-reference reaches before output start"),
            CompressError::LengthMismatch { want, got } => {
                write!(f, "stream decoded to {got} bytes, expected {want}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

/// Compresses `input` into an LZSS token stream decodable by
/// [`decompress`]. Deterministic: equal inputs always produce equal output.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    if input.is_empty() {
        return out;
    }
    // Hash-chain match finder: `head[h]` is the most recent position whose
    // 3-byte prefix hashes to `h`; `chain[i & mask]` links position `i` to
    // the previous position with the same hash.
    const HASH_BITS: usize = 15;
    let mask = WINDOW; // chain is indexed modulo a 64Ki ring
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut chain = vec![usize::MAX; WINDOW + 1];
    let hash = |window: &[u8]| -> usize {
        let v = u32::from_le_bytes([window[0], window[1], window[2], 0]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    };

    let mut pos = 0;
    // One control byte governs the next eight tokens; tokens accumulate in
    // `group` until the byte is full, then both flush together.
    let mut flags = 0u8;
    let mut flag_count = 0;
    let mut group: Vec<u8> = Vec::with_capacity(8 * 3);

    while pos < input.len() {
        let mut best_len = 0;
        let mut best_offset = 0;
        if pos + MIN_MATCH <= input.len() {
            let h = hash(&input[pos..]);
            let mut candidate = head[h];
            let mut probes = 0;
            while candidate != usize::MAX
                && candidate < pos
                && pos - candidate <= WINDOW
                && probes < MAX_PROBES
            {
                let limit = (input.len() - pos).min(MAX_MATCH);
                let mut len = 0;
                while len < limit && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_offset = pos - candidate;
                    if len == MAX_MATCH {
                        break;
                    }
                }
                candidate = chain[candidate & mask];
                probes += 1;
            }
        }

        let advance = if best_len >= MIN_MATCH {
            flags |= 1 << flag_count;
            group.extend_from_slice(&(best_offset as u16).to_le_bytes());
            group.push((best_len - MIN_MATCH) as u8);
            best_len
        } else {
            group.push(input[pos]);
            1
        };
        flag_count += 1;
        if flag_count == 8 {
            out.push(flags);
            out.extend_from_slice(&group);
            flags = 0;
            flag_count = 0;
            group.clear();
        }
        // Index every position the token covered so later matches can
        // reach into it.
        for p in pos..(pos + advance).min(input.len().saturating_sub(MIN_MATCH - 1)) {
            let h = hash(&input[p..]);
            chain[p & mask] = head[h];
            head[h] = p;
        }
        pos += advance;
    }
    if flag_count > 0 {
        out.push(flags);
        out.extend_from_slice(&group);
    }
    out
}

/// Decompresses a [`compress`]-produced stream into exactly
/// `output_len` bytes.
///
/// # Errors
///
/// [`CompressError`] when the stream is truncated, a back-reference is out
/// of range, or the decoded length disagrees with `output_len` — all signs
/// of on-disk corruption, reported (never panicked) so the recovery ladder
/// can fall back.
pub fn decompress(input: &[u8], output_len: usize) -> Result<Vec<u8>, CompressError> {
    // `output_len` may come from a corrupt header: never let it size an
    // allocation directly. A token expands to at most MAX_MATCH bytes, so
    // the true output is bounded by the input size; growth past the cap is
    // organic and the final length check still enforces `output_len`.
    let mut out = Vec::with_capacity(output_len.min(input.len().saturating_mul(MAX_MATCH)));
    let mut pos = 0;
    while pos < input.len() && out.len() < output_len {
        let flags = input[pos];
        pos += 1;
        // Eight literals that the input holds and the declared length
        // takes: the token loop would copy them all and stop at nothing.
        if flags == 0 && input.len() - pos >= 8 && output_len - out.len() >= 8 {
            out.extend_from_slice(&input[pos..pos + 8]);
            pos += 8;
            continue;
        }
        for bit in 0..8 {
            if out.len() >= output_len {
                break;
            }
            if pos >= input.len() {
                return Err(CompressError::TruncatedStream);
            }
            if flags & (1 << bit) == 0 {
                out.push(input[pos]);
                pos += 1;
            } else {
                if pos + 3 > input.len() {
                    return Err(CompressError::TruncatedStream);
                }
                let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                let len = input[pos + 2] as usize + MIN_MATCH;
                pos += 3;
                if offset == 0 || offset > out.len() {
                    return Err(CompressError::BadOffset);
                }
                let start = out.len() - offset;
                if offset >= len {
                    // The whole source is decoded already: one copy.
                    out.extend_from_within(start..start + len);
                } else {
                    // Byte-at-a-time copy: an overlapping match re-reads
                    // bytes this very copy produces.
                    for i in 0..len {
                        let byte = out[start + i];
                        out.push(byte);
                    }
                }
            }
        }
    }
    if out.len() != output_len {
        return Err(CompressError::LengthMismatch {
            want: output_len,
            got: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &[u8]) {
        let packed = compress(input);
        let unpacked = decompress(&packed, input.len()).expect("valid stream");
        assert_eq!(unpacked, input);
    }

    #[test]
    fn roundtrips_edge_shapes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
        roundtrip(&[0u8; 10_000]); // long run → overlapping matches
        roundtrip(b"abcabcabcabcabcabcabcabc");
        let mixed: Vec<u8> = (0..5_000).map(|i| (i % 251) as u8).collect();
        roundtrip(&mixed);
    }

    #[test]
    fn chain_like_data_actually_shrinks() {
        // Repeated 32-byte "digests" with small variations, like headers.
        let mut data = Vec::new();
        for i in 0u32..200 {
            let mut digest = [0xABu8; 32];
            digest[..4].copy_from_slice(&i.to_le_bytes());
            data.extend_from_slice(&digest);
            data.extend_from_slice(&digest); // prev_hash repeats
        }
        let packed = compress(&data);
        assert!(
            packed.len() * 2 < data.len(),
            "expected >2x compression, got {} -> {}",
            data.len(),
            packed.len()
        );
        assert_eq!(decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_error_instead_of_panicking() {
        let data = b"abcabcabcabcabcabcabcabcabcabc";
        let packed = compress(data);
        // Truncation at every prefix length.
        for cut in 0..packed.len() {
            let _ = decompress(&packed[..cut], data.len());
        }
        // Single-byte corruption at every offset.
        for i in 0..packed.len() {
            let mut bad = packed.clone();
            bad[i] ^= 0xFF;
            let _ = decompress(&bad, data.len());
        }
        // An offset pointing before the output start is rejected.
        let bogus = [0x01, 0x10, 0x00, 0x00]; // match at offset 16, empty out
        assert_eq!(decompress(&bogus, 3).unwrap_err(), CompressError::BadOffset);
    }

    /// The decompressor before matches were copied whole: every match
    /// byte at a time. The reference `decompress` is held to.
    fn reference_decompress(input: &[u8], output_len: usize) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < input.len() && out.len() < output_len {
            let flags = input[pos];
            pos += 1;
            for bit in 0..8 {
                if out.len() >= output_len {
                    break;
                }
                if pos >= input.len() {
                    return Err(CompressError::TruncatedStream);
                }
                if flags & (1 << bit) == 0 {
                    out.push(input[pos]);
                    pos += 1;
                } else {
                    if pos + 3 > input.len() {
                        return Err(CompressError::TruncatedStream);
                    }
                    let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                    let len = input[pos + 2] as usize + MIN_MATCH;
                    pos += 3;
                    if offset == 0 || offset > out.len() {
                        return Err(CompressError::BadOffset);
                    }
                    let start = out.len() - offset;
                    for i in 0..len {
                        let byte = out[start + i];
                        out.push(byte);
                    }
                }
            }
        }
        if out.len() != output_len {
            return Err(CompressError::LengthMismatch {
                want: output_len,
                got: out.len(),
            });
        }
        Ok(out)
    }

    /// A token of a hand-built stream.
    enum Token {
        Literal(u8),
        Match { offset: u16, len: usize },
    }

    /// Encodes `tokens` as an LZSS stream and returns it with the length
    /// it decodes to.
    fn stream(tokens: &[Token]) -> (Vec<u8>, usize) {
        let mut out = Vec::new();
        let mut decoded = 0;
        for group in tokens.chunks(8) {
            let flags_at = out.len();
            out.push(0);
            for (bit, token) in group.iter().enumerate() {
                match *token {
                    Token::Literal(byte) => {
                        out.push(byte);
                        decoded += 1;
                    }
                    Token::Match { offset, len } => {
                        out[flags_at] |= 1 << bit;
                        out.extend_from_slice(&offset.to_le_bytes());
                        out.push((len - MIN_MATCH) as u8);
                        decoded += len;
                    }
                }
            }
        }
        (out, decoded)
    }

    #[test]
    fn whole_match_copies_match_the_byte_loop_reference() {
        use Token::{Literal, Match};
        let literals = |n: u8| (0..n).map(|i| Literal(b'a' + i)).collect::<Vec<_>>();
        let with = |mut tokens: Vec<Token>, tail: Vec<Token>| {
            tokens.extend(tail);
            tokens
        };
        let cases = [
            // offset == len: the source ends where the copy starts.
            with(literals(3), vec![Match { offset: 3, len: 3 }]),
            with(
                literals(8),
                vec![Match { offset: 8, len: 8 }, Literal(b'z')],
            ),
            // offset == len - 1: the copy re-reads its own first byte.
            with(literals(3), vec![Match { offset: 3, len: 4 }]),
            with(literals(9), vec![Match { offset: 9, len: 10 }]),
            // offset == 1: a run of the last byte.
            with(
                literals(1),
                vec![Match {
                    offset: 1,
                    len: 258,
                }],
            ),
            // A long source well before the copy, then every shape in one
            // stream, crossing groups.
            with(
                literals(20),
                vec![
                    Match { offset: 20, len: 5 },
                    Match {
                        offset: 25,
                        len: 25,
                    },
                    Match { offset: 2, len: 7 },
                    Literal(b'q'),
                    Match { offset: 1, len: 3 },
                    Match {
                        offset: 40,
                        len: 41,
                    },
                    Match {
                        offset: 58,
                        len: 58,
                    },
                ],
            ),
        ];
        for tokens in &cases {
            let (packed, len) = stream(tokens);
            // The exact length, one byte more, and one and three bytes
            // less: a last match that overruns the declared length, or a
            // match that ends exactly at it with a literal left over.
            for output_len in [len, len + 1, len - 1, len - 3] {
                let want = reference_decompress(&packed, output_len);
                assert_eq!(
                    decompress(&packed, output_len),
                    want,
                    "{output_len} of {len}"
                );
            }
            assert!(decompress(&packed, len).is_ok());
            if let Some(Match { .. }) = tokens.last() {
                assert_eq!(
                    decompress(&packed, len - 1),
                    Err(CompressError::LengthMismatch {
                        want: len - 1,
                        got: len,
                    })
                );
            }
        }
    }

    #[test]
    fn literal_groups_match_the_byte_loop_reference() {
        use Token::{Literal, Match};
        let literals = |n: usize| (0..n).map(|i| Literal(i as u8)).collect::<Vec<_>>();
        let cases = [
            // Whole literal groups that end the stream, and a short one.
            literals(8),
            literals(24),
            literals(21),
            // Literal groups around a match group.
            literals(8)
                .into_iter()
                .chain([Match { offset: 8, len: 8 }])
                .chain(literals(15))
                .collect(),
        ];
        for tokens in &cases {
            let (packed, len) = stream(tokens);
            assert!(decompress(&packed, len).is_ok());
            // The declared length, one that cuts a group short, and one
            // that asks for more.
            for output_len in [len, 0, 1, 7, 8, 9, len - 8, len - 1, len + 1, len + 8] {
                assert_eq!(
                    decompress(&packed, output_len),
                    reference_decompress(&packed, output_len),
                    "{output_len} of {len}"
                );
            }
            // The stream is cut short, inside a group or at its end.
            for cut in 0..packed.len() {
                assert_eq!(
                    decompress(&packed[..cut], len),
                    reference_decompress(&packed[..cut], len),
                    "{cut} of {} bytes",
                    packed.len()
                );
            }
        }
    }
}
