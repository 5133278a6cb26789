//! # hashcore-crypto
//!
//! Cryptographic primitives used by the HashCore Proof-of-Work reproduction.
//!
//! The paper's *hash gates* are instantiations of SHA-256 (Section IV). This
//! crate provides a from-scratch, dependency-free implementation of the
//! FIPS 180-4 secure hash family members used throughout the workspace:
//!
//! * [`Sha256`] / [`sha256()`](fn@sha256) — the hash-gate function `G` in the paper,
//! * [`sha256_x4`] / [`sha256d_x4`] — the 4-lane struct-of-arrays variant the
//!   nonce-scanning loops batch hash-gate evaluations through, and
//!   [`sha256_x4_resume`], its form that starts every lane from one scalar
//!   midstate,
//! * [`Sha512`] / [`sha512()`](fn@sha512) — used by the memory-hard baseline,
//! * [`sha256d`] — double SHA-256 (the Bitcoin PoW baseline),
//! * [`hmac_sha256`] — keyed hashing used by the deterministic stream cipher
//!   in the widget-selection baseline,
//! * [`MerkleTree`] — transaction commitment trees for the chain substrate,
//!   and [`merkle::fold_leaves`], the allocation-free root and
//!   equal-siblings verdict of one,
//! * [`DigestMap`] / [`DigestSet`] — hash maps keyed by SHA-256 digests,
//!   hashed by [`DigestState`]'s one keyed multiply instead of SipHash,
//! * [`hex`] — hexadecimal encoding/decoding helpers.
//!
//! Everything is pure, deterministic Rust with no `unsafe` code, so PoW
//! verification is bit-exact across platforms.
//!
//! The 4-lane kernels are written for LLVM's vectoriser and are fast only
//! when the build targets the host's vector ISA (`-C target-cpu=native`, set
//! by this repository's `.cargo/config.toml`). Built for the portable
//! x86-64 baseline, as another package depending on this crate would build
//! it by default, [`sha256_x4`] over four 32-byte messages is slower than
//! four scalar [`sha256()`](fn@sha256) calls (1,386–1,449 ns against
//! 1,183–1,189 ns); see the [`sha256x4`] module.
//!
//! # Examples
//!
//! ```
//! use hashcore_crypto::{sha256, hex};
//!
//! let digest = sha256(b"abc");
//! assert_eq!(
//!     hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest_map;
pub mod hex;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod sha256x4;
pub mod sha512;

pub use digest_map::{DigestMap, DigestSet, DigestState};
pub use hmac::hmac_sha256;
pub use merkle::{BatchProof, MerkleTree};
pub use sha256::{sha256, sha256d, Digest256, Sha256};
pub use sha256x4::{sha256_x4, sha256_x4_parts, sha256_x4_resume, sha256d_x4, SHA256_LANES};
pub use sha512::{sha512, Digest512, Sha512};

/// Number of bytes in a SHA-256 digest (the hash-gate output width `n`).
pub const DIGEST256_LEN: usize = 32;

/// Number of bytes in a SHA-512 digest.
pub const DIGEST512_LEN: usize = 64;
