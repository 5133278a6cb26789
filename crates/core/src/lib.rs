//! # hashcore
//!
//! The HashCore Proof-of-Work function — the paper's primary contribution.
//!
//! HashCore (Section IV of the paper) composes two *hash gates* `G` (SHA-256)
//! around a *widget* `W`, a program generated pseudo-randomly from the first
//! gate's output and executed to completion:
//!
//! ```text
//!           ┌──────────┐   s   ┌─────────────────────────┐  W(s)
//! input ───►│ hash gate├──┬───►│ widget generate + execute├────────┐
//!           │   G      │  │    └─────────────────────────┘        ▼
//!           └──────────┘  │                                  ┌──────────┐
//!                         └────────────── s ────────────────►│ hash gate├──► H(x)
//!                                                             │   G      │
//!                                                             └──────────┘
//! ```
//!
//! formally `H(x) = G(s ‖ W(s))` with `s = G(x)`. The widget is generated by
//! *inverted benchmarking*: its execution profile mimics a reference
//! workload (SPEC CPU 2017 Leela in the paper, the Go-engine kernel of
//! `hashcore-workloads` here), so a general purpose processor is already a
//! near-optimal ASIC for it.
//!
//! This crate provides:
//!
//! * [`HashCore`] — the PoW function over SHA-256 gates and the
//!   `hashcore-gen` widget pipeline,
//! * [`Target`], [`HashCore::mine`] and the one nonce-scan loop
//!   [`MiningInput::scan`] with its four-lane first gate [`lane_seeds`] —
//!   the PoW interface a blockchain consumes (`hashcore-chain` builds on
//!   it; verifying a block is evaluating the hash again),
//! * [`security`] — an executable rendering of Theorem 1: the generic
//!   construction, the CRHF security game, and the reduction `B` from the
//!   appendix proof, tested end-to-end with a deliberately weak toy gate.
//!
//! # Examples
//!
//! ```
//! use hashcore::HashCore;
//! use hashcore_profile::PerformanceProfile;
//!
//! let mut profile = PerformanceProfile::leela_like();
//! profile.target_dynamic_instructions = 5_000; // keep the doc test fast
//! let pow = HashCore::new(profile);
//! let out = pow.hash(b"block header bytes")?;
//! assert_eq!(out.digest.len(), 32);
//! // Verification is re-execution: the same input always gives the same digest.
//! assert_eq!(pow.hash(b"block header bytes")?.digest, out.digest);
//! # Ok::<(), hashcore::HashCoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pow;
pub mod security;
mod target;

pub use pow::{
    lane_seeds, HashCore, HashCoreConfig, HashCoreError, HashCoreOutput, HashScratch, MiningInput,
    MiningResult, MiningSession, VerifyCost, WidgetReport, NONCE_LANES,
};
pub use target::Target;
