//! # hashcore-suite
//!
//! Facade over the HashCore reproduction workspace: re-exports every crate
//! so downstream code (and the workspace-level integration tests and
//! examples) can reach the whole system through one dependency.
//!
//! The individual crates are:
//!
//! * [`hashcore`] — the PoW function itself (`crates/core`),
//! * [`hashcore_crypto`] — SHA-256/512, HMAC, Merkle trees,
//! * [`hashcore_isa`] — the widget instruction set,
//! * [`hashcore_vm`] — the functional executor (programs compiled to flat ops),
//! * [`hashcore_gen`] — the seed-driven widget generator,
//! * [`hashcore_profile`] — performance profiles and seed noise,
//! * [`hashcore_sim`] — the trace-driven micro-architecture model,
//! * [`hashcore_workloads`] — reference kernels (Go engine, LBM, MCF, …),
//! * [`hashcore_baselines`] — comparator PoW functions,
//! * [`hashcore_chain`] — the blockchain substrate, fork choice and mining
//!   market,
//! * [`hashcore_net`] — the deterministic multi-node network simulation,
//! * [`hashcore_bench`] — shared experiment machinery.

#![forbid(unsafe_code)]

pub use hashcore;
pub use hashcore_baselines;
pub use hashcore_bench;
pub use hashcore_chain;
pub use hashcore_crypto;
pub use hashcore_gen;
pub use hashcore_isa;
pub use hashcore_net;
pub use hashcore_profile;
pub use hashcore_sim;
pub use hashcore_vm;
pub use hashcore_workloads;
