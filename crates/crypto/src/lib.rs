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
//! * [`hex`] — hexadecimal encoding/decoding helpers.
//!
//! Everything is pure, deterministic Rust with no `unsafe` code, so PoW
//! verification is bit-exact across platforms.
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

pub mod hex;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod sha256x4;
pub mod sha512;

pub use hmac::hmac_sha256;
pub use merkle::{BatchProof, MerkleTree};
pub use sha256::{sha256, sha256d, Digest256, Sha256};
pub use sha256x4::{sha256_x4, sha256_x4_parts, sha256_x4_resume, sha256d_x4, SHA256_LANES};
pub use sha512::{sha512, Digest512, Sha512};

/// Number of bytes in a SHA-256 digest (the hash-gate output width `n`).
pub const DIGEST256_LEN: usize = 32;

/// Number of bytes in a SHA-512 digest.
pub const DIGEST512_LEN: usize = 64;
