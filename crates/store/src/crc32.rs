//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! framing every log record and snapshot payload, implemented here because
//! the build environment is offline and the workspace vendors no
//! compression/checksum crates.
//!
//! A CRC is the right tool for this job: it detects the corruption classes
//! a crashing disk actually produces (torn tails, zeroed pages, single-bit
//! flips) with a 2^-32 false-accept rate, and it is cheap enough to run on
//! every append. It is *not* an integrity MAC — an adversary who can write
//! the store's files can forge records; the fork tree re-validates PoW and
//! Merkle commitments on every replayed block, so forged payloads still
//! cannot smuggle an invalid block past recovery.
//!
//! The kernel is slicing-by-8: eight compile-time tables let it fold one
//! 8-byte word per step, with eight independent lookups, where the
//! bytewise loop takes eight dependent steps; a tail shorter than a word
//! takes the bytewise loop. Its tests keep the bytewise loop as a
//! reference and hold the kernel to it at every length up to 300 bytes
//! and every start offset within a word: the checksum is a function of
//! the bytes alone, so the file formats do not depend on the kernel.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 lookup tables, built at compile time so the checksum
/// has no runtime initialisation state. `TABLES[0]` is the classic
/// bytewise table: entry `b` is the CRC update of byte `b`. Entry `b` of
/// `TABLES[k]` is the update of byte `b` followed by `k` zero bytes, so one
/// lookup per byte of an 8-byte word, XORed together, advances the CRC
/// over the whole word.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let previous = tables[k - 1][i];
            tables[k][i] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `data` (IEEE, reflected, init and final XOR `0xFFFF_FFFF`) —
/// matches the checksum used by zlib, PNG and Ethernet, so the on-disk
/// format is checkable with standard external tools. Whole 8-byte words
/// take the slicing step, and the last `len % 8` bytes the bytewise loop.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("an 8-byte word")) ^ u64::from(crc);
        crc = (0..8).fold(0, |acc, byte| {
            acc ^ TABLES[7 - byte][(word >> (8 * byte)) as usize & 0xFF]
        });
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise loop the slicing kernel replaced, with each byte's
    /// table entry computed bit by bit: the reference `crc32` is held to.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            let mut entry = (crc ^ u32::from(byte)) & 0xFF;
            for _ in 0..8 {
                entry = if entry & 1 != 0 {
                    (entry >> 1) ^ 0xEDB8_8320
                } else {
                    entry >> 1
                };
            }
            crc = (crc >> 8) ^ entry;
        }
        !crc
    }

    #[test]
    fn slicing_kernel_matches_the_bytewise_reference() {
        for (data, want) in [
            (b"123456789".as_ref(), 0xCBF4_3926),
            (b"".as_ref(), 0),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(reference_crc32(data), want);
        }
        // Every length up to 300 at every start offset within a word, so
        // every split into whole words and a bytewise tail is covered.
        let bytes: Vec<u8> = (0..308u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let data = &bytes[start..start + len];
                assert_eq!(
                    crc32(data),
                    reference_crc32(data),
                    "{len} bytes from {start}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let data = b"hashcore store record payload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
