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
//! * [`spectral`] — matrix-free power iteration (one plain CSR row loop)
//!   for the second eigenvalue of the lazy random-walk operator, plus a
//!   dense Jacobi eigensolver for small graphs and as the test oracle;
//!   Cheeger-inequality helpers (paper, Theorem 2).
//! * [`expansion`] — exact edge expansion `h(G)` by subset enumeration for
//!   small graphs (paper, Definition 5).
//! * [`contraction`] — vertex contraction, used both to *build* the real
//!   network from the virtual graph and to validate Lemma 10 numerically.
//! * [`generators`] — random regular graphs, unions of random Hamiltonian
//!   cycles (the Law–Siu baseline substrate), rings, cliques, hypercubes.
//! * [`walks`] — a random-walk engine and mixing-time estimation.
//! * [`connectivity`] — BFS/DFS, components, diameter.
//!
//! # Storage and snapshot model
//!
//! [`adjacency::MultiGraph`] stores nodes in a dense **slot arena** (u32
//! slots, free-list reuse) with neighbor lists as contiguous slot-index
//! vectors, and owns a **generation-stamped cached CSR snapshot**:
//! mutations bump a generation counter and mark dirty rows;
//! [`adjacency::MultiGraph::csr`] returns a borrowed up-to-date snapshot,
//! refreshing only dirty rows under edge churn. Hot loops (walks, floods,
//! mat-vecs, expansion checks) run on dense indices with no hashing and no
//! per-step allocation; see the `adjacency` module docs for the
//! conventions.
//!
//! All structures are deterministic given an RNG seed, and everything here
//! is sequential: numeric reductions sum fixed-size chunks in chunk order,
//! so their bits do not depend on how a caller fans out around them.

pub mod adjacency;
pub mod connectivity;
pub mod contraction;
pub mod expansion;
pub mod fxhash;
pub mod generators;
pub mod ids;
pub mod pcycle;
pub mod primes;
pub mod spectral;
pub mod walks;

pub use adjacency::{Csr, CsrRef, MultiGraph, Neighbors};
pub use ids::{NodeId, VertexId};
pub use pcycle::PCycle;
pub use spectral::Lambda2Solver;
