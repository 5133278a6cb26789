//! # hashcore-chain
//!
//! The blockchain substrate surrounding the HashCore PoW function, plus the
//! mining-market accessibility model.
//!
//! The paper's motivation (Sections I and III) is about the *system* around
//! the PoW function: block headers that must be hashed, difficulty that
//! tracks total hash power, and a mining market whose decentralisation
//! depends on how much better custom hardware is than the hardware users
//! already own. This crate provides those pieces:
//!
//! * [`BlockHeader`] / [`Block`] — canonical header serialisation with a
//!   Merkle commitment to the transactions (only the header flows through
//!   the PoW function, exactly as in Bitcoin/Ethereum),
//! * [`Blockchain`] — a chain driven by any [`PowFunction`], with
//!   Ethereum-style per-block difficulty retargeting toward a target block
//!   time, and full re-validation,
//! * [`DifficultyRule`] — the retarget rule extracted from [`Blockchain`]
//!   as a pure function of a branch's header timestamps and targets, so
//!   difficulty is evaluable (and enforceable) along arbitrary fork-tree
//!   branches, not just a linear history,
//! * [`HeaderChain`] — the one header-level state machine: items keyed by
//!   header PoW digest, one acceptance check sequence, `(work, digest)`
//!   cumulative-work fork choice, per-branch difficulty enforcement,
//!   median-time-past, locators and pruning. Over bare headers it is what
//!   a light client stores,
//! * [`ForkTree`] — that state machine over whole blocks, plus the PoW
//!   function that hashes them, the Merkle check, reorg segments,
//!   segment serving for the `hashcore-net` sync protocol, fingerprints
//!   and snapshots. Built with [`ForkTree::with_rule`], it enforces the
//!   expected difficulty target along every branch,
//! * [`validate_segment_with_rule`] / [`validate_segment_parallel`] — the
//!   sequential and parallel segment validators, byte-identical in their
//!   verdicts, optionally enforcing a rule along the segment,
//! * [`market`] — the mining-market model used by experiment E9: miners
//!   with heterogeneous capital choose hardware whose efficiency depends on
//!   how ASIC-friendly the PoW's dominant resource is, and the resulting
//!   hash-power distribution is summarised by its Gini coefficient and
//!   participation rate.
//!
//! # Examples
//!
//! ```
//! use hashcore_baselines::Sha256dPow;
//! use hashcore_chain::{Blockchain, ChainConfig};
//!
//! let mut chain = Blockchain::new(Sha256dPow, ChainConfig::fast_test());
//! chain.mine_block(&[b"tx".to_vec()], 1_000_000).unwrap();
//! assert_eq!(chain.height(), 1);
//! assert!(chain.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod chain;
mod difficulty;
mod fork;
mod header_chain;
pub mod market;

pub use block::{Block, BlockHeader};
pub use chain::{
    validate_segment_parallel, validate_segment_parallel_with_rule, validate_segment_with_rule,
    Blockchain, ChainConfig, ChainError, InvalidReason, RuleContext,
};
pub use difficulty::{
    cost_commitment_of, cost_dequantize, cost_quantize, pack_cost_commitment, CostAwareRetarget,
    DifficultyRule, EmaRetarget, COST_COMMIT_ONE,
};
pub use fork::{
    ApplyOutcome, ForkError, ForkTree, Reorg, RestoreError, SegmentError, TreeSnapshot,
    GENESIS_HASH,
};
pub use hashcore_baselines::{PowFunction, PreparedPow};
pub use header_chain::{HeaderChain, HeaderOutcome};
