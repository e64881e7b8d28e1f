//! `dex-core` — the DEX self-healing expander maintenance algorithm
//! (Pandurangan, Robinson, Trehan; IPDPS 2014 / Distrib. Comput. 2016).
//!
//! DEX keeps a dynamic network a **constant-degree expander with a
//! deterministically constant spectral gap** under an adaptive adversary
//! that inserts or deletes one node per step, healing each change with
//! O(log n) rounds and messages (w.h.p.) and O(1) topology changes
//! (Theorem 1).
//!
//! The construction simulates a virtual 3-regular *p-cycle* expander
//! `Z(p)` on the real nodes through a balanced surjective mapping Φ; the
//! real network is the contraction image of `Z(p)` and inherits its
//! spectral gap (Lemma 1). Healing rebalances Φ with random walks
//! (*type-1*, [`dex`]) and occasionally replaces the whole virtual graph
//! (*type-2*): one-shot ([`type2_simple`], amortized bounds) or staggered
//! over Θ(n) steps behind a coordinator ([`staggered`], worst-case
//! bounds). A DHT rides on top ([`dht`]) and a batch extension handles εn
//! simultaneous insertions/deletions ([`batch`]).
//!
//! # Quick start
//!
//! ```
//! use dex_core::{DexConfig, DexNetwork};
//!
//! let mut dex = DexNetwork::bootstrap(DexConfig::new(42), 16);
//! let u = dex.fresh_node_id();
//! let m = dex.insert(u, dex_graph::NodeId(0));
//! assert!(m.rounds > 0);
//! let m = dex.delete(u);
//! assert!(m.topology_changes > 0);
//! dex_core::invariants::assert_ok(&dex);
//! assert!(dex.spectral_gap() > 0.01);
//! ```

pub mod batch;
pub mod config;
pub mod dex;
pub mod dht;
pub mod fabric;
pub mod faulted;
pub mod invariants;
pub mod mapping;
pub mod routing;
pub mod scratch;
pub mod staggered;
pub mod type2_simple;

pub use config::{DexConfig, RecoveryMode};
pub use dex::{DexNetwork, WalkStats};
pub use dex_sim::msim::{FaultSpec, FaultStats};
pub use mapping::VirtualMapping;
