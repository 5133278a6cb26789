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
//! * [`DifficultyRule`] — the retarget rule as a pure function of a
//!   branch's header timestamps and targets, so difficulty is evaluable
//!   (and enforceable) along arbitrary fork-tree branches,
//! * [`HeaderChain`] — the one header-level state machine: items keyed by
//!   header PoW digest, one acceptance check sequence, `(work, digest)`
//!   cumulative-work fork choice, per-branch difficulty enforcement,
//!   median-time-past, locators and pruning. Over bare headers it is what
//!   a light client stores,
//! * [`ForkTree`] — that state machine over whole blocks, plus the PoW
//!   function that hashes them, the Merkle check, reorg segments,
//!   segment serving for the `hashcore-net` sync protocol, fingerprints
//!   and snapshots. Built with [`ForkTree::with_rule`], it enforces the
//!   expected difficulty target along every branch, and
//!   [`ForkTree::mine_next`] mines the rule-consistent child of its best
//!   tip — a single miner's chain is this tree grown one block at a time,
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
//! use hashcore::Target;
//! use hashcore_baselines::Sha256dPow;
//! use hashcore_chain::{DifficultyRule, EmaRetarget, ForkTree};
//!
//! let rule = DifficultyRule::Ema(EmaRetarget {
//!     initial: Target::from_leading_zero_bits(2),
//!     target_block_time: 15.0,
//!     gain: 0.3,
//! });
//! let mut tree = ForkTree::with_rule(Sha256dPow, rule);
//! let mut clock = 0;
//! for height in 0..3 {
//!     let tx = format!("tx-{height}").into_bytes();
//!     let nonce = tree.mine_next(&[tx], clock, 1_000_000).unwrap().header.nonce;
//!     clock += nonce + 1; // one simulated second per attempt
//! }
//! assert_eq!(tree.tip_height(), 3);
//! assert!(tree.validate_best_chain().is_ok());
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
    ChainError, InvalidReason, RuleContext,
};
pub use difficulty::{
    cost_commitment_of, cost_dequantize, cost_quantize, pack_cost_commitment, CostAwareRetarget,
    DifficultyRule, EmaRetarget, COST_COMMIT_ONE,
};
pub use fork::{
    ApplyOutcome, ForkError, ForkTree, Reorg, RestoreError, SegmentError, TreeSnapshot,
    GENESIS_HASH,
};
pub use hashcore_baselines::PowFunction;
pub use header_chain::{HeaderChain, HeaderOutcome};
