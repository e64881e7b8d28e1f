//! Pooled scratch buffers for the healing hot path.
//!
//! Type-1 recovery runs on every adversarial step; the paper charges it
//! O(log n) rounds and messages, and the implementation should cost the
//! simulator a comparable amount — not a handful of `Vec` allocations per
//! step. [`HealScratch`] is the protocol-side analogue of
//! [`dex_sim::flood::FloodScratch`]: one instance lives in
//! [`crate::DexNetwork`] and is threaded through `insert` / `delete` /
//! `insert_batch` / `delete_batch`, the fabric edge-instance enumeration,
//! and type-2 permutation routing. After warm-up every buffer has reached
//! its high-water capacity and steady-state healing performs **zero heap
//! allocation per operation** (`bench_heal` measures and asserts this via
//! a counting allocator).
//!
//! Buffers are `pub` fields rather than accessors: callers routinely need
//! two of them simultaneously (disjoint-field borrows), and several sites
//! `mem::take` a buffer to detach it from `self` across a `&mut self`
//! call, restoring it afterwards so the capacity is never lost.

use crate::routing::RouteScratch;
use dex_graph::fxhash::{FxHashMap, FxHashSet};
use dex_graph::ids::{NodeId, VertexId};

/// Reusable buffers for one healing driver. See module docs.
#[derive(Default)]
pub struct HealScratch {
    /// Vertex set being rehomed (a victim's `Sim` copy, a move set, …).
    pub zs: Vec<VertexId>,
    /// Chord partners of `zs`, index for index (one batched inversion per
    /// deletion).
    pub chords: Vec<VertexId>,
    /// `u32` workspace of that inversion
    /// ([`dex_graph::pcycle::PCycle::chords_into`]).
    pub inverse: Vec<u32>,
    /// Virtual-edge instance buffer for fabric moves
    /// ([`crate::fabric::incident_edges_into`]).
    pub insts: Vec<(VertexId, VertexId)>,
    /// Path-resolution buffers for type-2 permutation routing.
    pub route: RouteScratch,
    /// Batch-validation map: attach-point fan-in counts.
    pub fan_in: FxHashMap<NodeId, usize>,
    /// Batch-validation set: newcomer / victim uniqueness.
    pub seen: FxHashSet<NodeId>,
    /// Batch-validation output, one entry per op: the slot of a victim, or
    /// of an attach point (`None`: an earlier newcomer of the same batch).
    pub batch_slots: Vec<Option<u32>>,
}

impl HealScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }
}
