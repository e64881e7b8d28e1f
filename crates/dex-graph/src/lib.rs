//! Graph and numeric substrate for the DEX self-healing expander reproduction.
//!
//! This crate provides everything "below" the distributed algorithm:
//!
//! * [`adjacency::MultiGraph`] — a dynamic undirected multigraph with
//!   self-loops. Multigraphs are essential here: the real network is a
//!   *vertex contraction* of the virtual p-cycle (paper, Sect. 3.1), and
//!   contraction creates parallel edges and loops that carry spectral weight.
//! * [`primes`] — deterministic Miller–Rabin primality and Bertrand-range
//!   prime search, used to pick the p-cycle size `p ∈ (4n, 8n)`.
//! * [`pcycle`] — the 3-regular p-cycle expander family `Z(p)`
//!   (paper, Definition 1; Lubotzky's construction) and its one route
//!   search, a multi-source bidirectional BFS. Whole-cycle distances and
//!   diameters are [`connectivity`] over [`pcycle::PCycle::to_multigraph`].
//! * [`spectral`] — one eigen-solver: matrix-free power iteration (one
//!   plain CSR row loop) for the second eigenvalue of the lazy random-walk
//!   operator, which also gives the spectral gap at every n;
//!   Cheeger-inequality helpers (paper, Theorem 2).
//! * [`expansion`] — exact edge expansion `h(G)` by subset enumeration for
//!   small graphs (paper, Definition 5).
//! * [`generators`] — random regular graphs, unions of random Hamiltonian
//!   cycles (the Law–Siu baseline substrate), rings, cliques, hypercubes.
//! * [`walks`] — a random-walk engine.
//! * [`connectivity`] — BFS/DFS, components, diameter.
//!
//! # Storage model
//!
//! [`adjacency::MultiGraph`] stores nodes in a dense **slot arena** (u32
//! slots, free-list reuse) with neighbor lists as contiguous slot-index
//! vectors. Numeric code asks [`adjacency::MultiGraph::csr`] for a compact
//! CSR form, built from scratch on each call (O(n + m), ascending by id);
//! the graph caches none, so a mutation is only its row edits. Hot loops
//! (walks, floods, mat-vecs, expansion checks) run on dense indices with
//! no hashing and no per-step allocation; see the `adjacency` module docs
//! for the conventions.
//!
//! All structures are deterministic given an RNG seed, and everything here
//! is sequential: numeric reductions sum fixed-size chunks in chunk order,
//! so their bits do not depend on how a caller fans out around them.

pub mod adjacency;
pub mod connectivity;
pub mod expansion;
pub mod fxhash;
pub mod generators;
pub mod ids;
pub mod pcycle;
pub mod primes;
pub mod spectral;
pub mod walks;

pub use adjacency::{Csr, MultiGraph, Neighbors};
pub use ids::{NodeId, VertexId};
pub use pcycle::PCycle;
pub use spectral::Lambda2Solver;
