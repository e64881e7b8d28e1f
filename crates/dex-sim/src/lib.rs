//! Synchronous round-based CONGEST message-passing simulator substrate.
//!
//! The DEX paper's costs are *model* quantities — rounds of synchronous
//! communication, O(log n)-bit messages, and topology changes — not
//! wall-clock seconds. This crate realizes exactly that model:
//!
//! * [`network::Network`] owns the physical topology and meters every cost:
//!   healing edge changes are charged as topology changes, every message
//!   hop is charged, and rounds accumulate per recovery step;
//! * [`tokens`] implements per-hop token forwarding (random-walk searches
//!   and path routing) including store-and-forward **congestion** with a
//!   per-edge-per-round capacity — the CONGEST constraint that makes the
//!   paper give Phase-2 walks `ρ = O(log² n)` rounds;
//! * [`flood`] implements BFS broadcast + convergecast aggregation
//!   (the paper's `computeSpare` / `computeLow`, Algorithm 4.4);
//! * [`msim`] runs the same walks, routes and floods as scheduled
//!   messages under fault injection. Like the `tokens` and `flood`
//!   kernels it speaks the graph's arena slots;
//! * [`rng`] derives deterministic per-purpose RNG streams so whole runs
//!   replay bit-identically from one master seed (the adaptive adversary is
//!   entitled to all past random choices — determinism makes that honest).
//!
//! Locality discipline: protocol code in `dex-core` reads only per-node
//! state and the physical adjacency; this crate's helpers take closures so
//! that *what a node can see* is explicit at every call site.

pub mod flood;
pub mod metrics;
pub mod msim;
pub mod network;
pub mod rng;
pub mod tokens;

pub use metrics::{
    HasStepLog, RecoveryKind, StepAggregate, StepKind, StepLog, StepMetrics, Summary,
};
pub use msim::{FaultSpec, FaultStats, OpResult, OpStatus, RouteOp, RunReport, WalkOp};
pub use network::{HistoryMode, Network, StepTotals};
