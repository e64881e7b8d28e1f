//! The virtual mapping Φ (paper, Definition 2) with incremental
//! `Spare`/`Low` accounting, on flat slot-indexed storage.
//!
//! Ground truth for "which node simulates which vertex". The distributed
//! protocol only ever *reads* local projections of this structure (a node's
//! own `Sim` set, a hit node's load); global counts are consumed solely by
//! the coordinator logic, which maintains its own counters via charged
//! messages and is tested against these.
//!
//! # Storage model: dense vertex records + pooled Sim segments
//!
//! Every healing operation reads and writes Φ, so its layout *is* the hot
//! path. Mirroring the graph core's slot arena (`dex_graph::adjacency`):
//!
//! * **per-vertex state** is one dense `Vec` of 8-byte records keyed by
//!   the p-cycle vertex index (`z.0`): the owner's *node slot* (`NO_OWNER`
//!   when unassigned) and the vertex's index inside its owner's `Sim`
//!   segment. One load therefore serves `owner_slot_of` — called ~12
//!   times per fabric vertex move — the unassign half of a transfer, and
//!   the swap-remove pos fix-up, with no hashing. The owner's `NodeId` is
//!   not mirrored here: [`VirtualMapping::owner_of`] reads it from the
//!   slot's node record, a second dependent load. At p = 2,000,003 the
//!   mirror cost 16 MB; its readers are a DHT route's path resolution
//!   (≈ 20 vertices) and type-2 bookkeeping, while type-1 healing works
//!   in slots.
//! * **per-node `Sim` sets** are contiguous segments carved from one
//!   pooled `Vec<VertexId>`. Segments come in power-of-two capacity
//!   classes (8, 16, 32, …). A node starts in the smallest ("inline")
//!   class — which covers the steady-state load bound 4ζ = 32 with ζ = 8
//!   in three classes — and *spills* to the next class only when its load
//!   outgrows the segment: a new segment is carved (reusing a same-class
//!   segment from the per-class free list when one exists), the entries
//!   are copied, and the old segment is pushed onto its class's free list.
//!   `sim(u)` is therefore always one contiguous `&[VertexId]` slice.
//! * **node slots** index a per-node record array — the one copy of each
//!   held node's id, plus its segment — and a compact
//!   4-byte-per-node `lens` array of loads, so walk and flood predicates
//!   ([`VirtualMapping::load_at`], one read per node visited) touch a
//!   near-cache-resident structure. A node occupies a slot iff it
//!   simulates ≥ 1 vertex (`Φ` prunes empty nodes, matching the paper's
//!   surjectivity); a slot with load 0 is *vacant*. **Who numbers the
//!   slots is decided once, at construction:**
//!   - [`VirtualMapping::new`] / [`VirtualMapping::with_vertex_capacity`]
//!     build a *self-allocating* map: a node new to the map gets the most
//!     recently vacated slot (LIFO free list, like the graph arena) or a
//!     fresh one, and a `NodeId → slot` `FxHashMap` of held nodes finds
//!     it again. This is the stand-alone Φ of unit tests and benches.
//!   - [`VirtualMapping::with_caller_slots`] builds a *caller-slotted*
//!     map: every mutation names the node's slot, the map keeps no free
//!     list and no id index, and a vacated slot is simply the caller's to
//!     name again.
//!     Every Φ inside a [`crate::DexNetwork`] — the live map, a type-2
//!     rebuild's new map, a staggered operation's staged map — is
//!     slotted by the physical graph's node arena
//!     ([`dex_graph::adjacency`]): **a node's Φ slot is its graph slot.**
//!     The owner slot a vertex record stores is therefore the adjacency
//!     row to edit, a walk's current slot is the load to read, and a
//!     type-1 step translates each id the adversary names once, at
//!     [`crate::DexNetwork::insert`] / [`crate::DexNetwork::delete`], and
//!     never again.
//!
//!   The slot-explicit entry points ([`VirtualMapping::assign_at`],
//!   [`VirtualMapping::assign_run_at`], [`VirtualMapping::transfer_at`];
//!   readers [`VirtualMapping::owner_slot_of`],
//!   [`VirtualMapping::load_at`], [`VirtualMapping::sim_at`]) *are* the
//!   implementation. The `NodeId` methods (`load`, `sim`, `is_spare`,
//!   `is_low`, `assign`, `assign_run`, `transfer`) resolve `u` through a
//!   self-allocating map's id index and call them. A caller-slotted map
//!   maintains no id index, because the graph arena already has one: a
//!   caller resolves an id there once ([`crate::DexNetwork::load`] and
//!   [`crate::DexNetwork::sim`] do) and uses the `*_at` forms. Its
//!   `NodeId` mutators panic; its `NodeId` readers, which nothing in a
//!   `DexNetwork` calls, build an index of the held nodes on first use
//!   (one O(n) scan) and drop it at the next change of who holds a slot.
//!   An `*_at` call asserts its slot is vacant or already that node's.
//!   Readers that return ids (`owner`, `owner_of`, `entries`, `nodes`)
//!   read them from the slot's node record, so a recycled slot reports
//!   its new node.
//!
//!   *Step-boundary invariant* (checked by [`crate::invariants::check`]):
//!   every node a `DexNetwork`'s Φ holds sits in the slot the graph gave
//!   it, under the same id. Inside a deletion the invariant is suspended
//!   for exactly one node: the graph has freed the victim's slot while Φ
//!   still keeps its `Sim` there, until the rescuer adopts it
//!   (`fabric::adopt_vertices`) — and no node is added in between, so
//!   the slot cannot be recycled under it.
//! * `|Spare|` / `|Low|` are maintained incrementally in place on every
//!   load transition (Eqs. 1–2), as before.
//!
//! Iterating `(vertex, owner)` pairs over the dense array yields canonical
//! (vertex-ascending) order *for free* — see [`VirtualMapping::entries`].
//! Type-2 inflation assigns whole clouds of consecutive vertices in one
//! call via [`VirtualMapping::assign_run_at`] (sequential dense writes into
//! the owner's slot, which the new Φ shares with the old).
//!
//! The previous `FxHashMap`-backed implementation is the differential
//! oracle of `tests/mapping_diff.rs`: its proptests drive long random op
//! sequences through both and assert identical owner / `Sim` / counter
//! state after every operation.

use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::{NodeId, VertexId};
use std::sync::OnceLock;

/// Sentinel slot for unassigned vertices.
const NO_OWNER: u32 = u32::MAX;

/// Capacity of the smallest (inline) segment class.
const BASE_CAP: u32 = 8;

/// Number of segment capacity classes: class `c` holds `8 << c` entries,
/// so the largest class holds 8·2²³ ≈ 67M — far beyond any load DEX can
/// produce (≤ 8ζ) but enough for adversarial test mappings.
const NUM_CLASSES: usize = 24;

#[inline]
fn class_cap(class: u8) -> u32 {
    BASE_CAP << class
}

/// One node's record: identity plus its `Sim` segment descriptor. The
/// load lives in the separate compact [`VirtualMapping::lens`] array so
/// `load()` — the walk-predicate read, evaluated on scattered nodes every
/// hop — touches a structure small enough to stay cache-resident.
#[derive(Clone, Copy)]
struct NodeRec {
    id: NodeId,
    /// Segment start offset in the pool.
    start: u32,
    /// Capacity class of the segment.
    class: u8,
}

/// One vertex's dense record: its owner's slot and its place in that
/// owner's `Sim` segment — all a fabric resolution or a transfer reads.
/// The owner's id is not mirrored here: it lives once, in the slot's
/// [`NodeRec`].
#[derive(Clone, Copy)]
struct VertexRec {
    /// Owner slot ([`NO_OWNER`] = unassigned).
    slot: u32,
    /// Index within the owner's segment.
    pos: u32,
}

const _: () = assert!(std::mem::size_of::<VertexRec>() == 8);

const VERTEX_FREE: VertexRec = VertexRec {
    slot: NO_OWNER,
    pos: 0,
};

/// A node slot nobody holds (load 0 in [`VirtualMapping::lens`]).
const NODE_VACANT: NodeRec = NodeRec {
    id: NodeId(u64::MAX),
    start: 0,
    class: 0,
};

/// The slot numbering of a self-allocating map: its `NodeId → slot` index
/// of held nodes and its LIFO free list of vacated slots. A caller-slotted
/// map has neither — its caller's arena already indexes the ids.
#[derive(Clone, Default)]
struct OwnSlots {
    /// NodeId → slot for held nodes.
    slot_of: FxHashMap<NodeId, u32>,
    /// LIFO free list of vacated slots.
    free: Vec<u32>,
}

/// Surjective map `Φ : V(Z) → V(G)` with per-node `Sim` sets and
/// incremental `|Spare|` / `|Low|` counters. See module docs for the
/// storage model.
#[derive(Clone)]
pub struct VirtualMapping {
    /// Dense vertex records keyed by the p-cycle vertex index.
    meta: Vec<VertexRec>,
    /// Assigned vertices.
    num_vertices: usize,
    /// Node slot arena: the one copy of each held node's id.
    nodes: Vec<NodeRec>,
    /// Per-slot load (`|Sim|`); 0 ⇔ the slot is free. Kept apart from
    /// [`NodeRec`] so the array is 4 bytes per node and predicates read a
    /// near-resident structure.
    lens: Vec<u32>,
    /// Nodes held (slots with load ≥ 1).
    num_nodes: usize,
    /// Segment pool backing every `Sim` set.
    pool: Vec<VertexId>,
    /// Per-class free lists of segment start offsets.
    free_segs: Vec<Vec<u32>>,
    /// Nodes with load ≥ 2 (Eq. 2).
    spare_count: usize,
    /// Nodes with 1 ≤ load ≤ 2ζ (Eq. 1; nodes absent from the map are not
    /// counted — in steady state the map is surjective so this matches the
    /// paper's `Low`).
    low_count: usize,
    zeta: u64,
    /// Who numbers the node slots, fixed at construction: this map
    /// (`Some`, as a stand-alone Φ) or the caller (`None`: inside a
    /// `DexNetwork` a node's Φ slot *is* its graph slot).
    own: Option<OwnSlots>,
    /// Caller-slotted maps only: a `NodeId → slot` index of the held
    /// nodes, built by the first `NodeId` reader and dropped by the next
    /// change of who holds a slot. Nothing inside a `DexNetwork` reads Φ
    /// by id, so there it stays unbuilt; it serves outside code that does
    /// (`benchmark/`'s layer probes read the live map's `is_spare`).
    id_cache: OnceLock<FxHashMap<NodeId, u32>>,
}

impl VirtualMapping {
    /// Empty self-allocating mapping with the given ζ (for the `Low`
    /// threshold 2ζ).
    pub fn new(zeta: u64) -> Self {
        VirtualMapping {
            meta: Vec::new(),
            num_vertices: 0,
            nodes: Vec::new(),
            lens: Vec::new(),
            num_nodes: 0,
            pool: Vec::new(),
            free_segs: vec![Vec::new(); NUM_CLASSES],
            spare_count: 0,
            low_count: 0,
            zeta,
            own: Some(OwnSlots::default()),
            id_cache: OnceLock::new(),
        }
    }

    /// Empty self-allocating mapping pre-sized for vertices `0..p` (avoids
    /// dense-array regrowth during bootstrap / type-2 rebuilds).
    pub fn with_vertex_capacity(zeta: u64, p: u64) -> Self {
        let mut m = Self::new(zeta);
        m.meta = vec![VERTEX_FREE; p as usize];
        m
    }

    /// Empty mapping, pre-sized for vertices `0..p` and node slots
    /// `0..slots`, whose node slots are the caller's: every mutation names
    /// the slot (the `*_at` forms), the map never allocates or recycles
    /// one, and it maintains no id index: its `NodeId` mutators panic, and
    /// its `NodeId` readers index the held nodes on demand. This is every
    /// Φ inside a `DexNetwork`, slotted by the graph's node arena (`slots`
    /// = its current bound; later slots grow the arrays).
    pub fn with_caller_slots(zeta: u64, p: u64, slots: usize) -> Self {
        VirtualMapping {
            nodes: Vec::with_capacity(slots),
            lens: Vec::with_capacity(slots),
            own: None,
            ..Self::with_vertex_capacity(zeta, p)
        }
    }

    /// Number of vertices assigned.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of nodes simulating at least one vertex.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The `NodeId → slot` index of the held nodes: a self-allocating
    /// map's own, or a caller-slotted map's [`Self::id_cache`], built here
    /// in one O(n) scan when a change of holders dropped it.
    fn id_index(&self) -> &FxHashMap<NodeId, u32> {
        match &self.own {
            Some(own) => &own.slot_of,
            None => self.id_cache.get_or_init(|| {
                let mut index =
                    FxHashMap::with_capacity_and_hasher(self.num_nodes, Default::default());
                index.extend(self.nodes_at());
                index
            }),
        }
    }

    /// Has a `NodeId` reader built a caller-slotted map's id index since
    /// the last change of holders?
    #[cfg(test)]
    pub(crate) fn id_index_built(&self) -> bool {
        self.id_cache.get().is_some()
    }

    /// The slot `u` holds (`None` if it holds none).
    #[inline]
    fn held_slot(&self, u: NodeId) -> Option<u32> {
        self.id_index().get(&u).copied()
    }

    /// Owner of vertex `z`, if assigned.
    #[inline]
    pub fn owner(&self, z: VertexId) -> Option<NodeId> {
        match self.meta.get(z.0 as usize) {
            Some(rec) if rec.slot != NO_OWNER => Some(self.nodes[rec.slot as usize].id),
            _ => None,
        }
    }

    /// Owner of vertex `z`; panics when unassigned (protocol invariant).
    /// Two dependent loads: the vertex record's slot, then that slot's
    /// node record. The check is kept in release builds: an unassigned
    /// vertex has no owner slot to read, and the branch tests a field the
    /// first load already fetched.
    #[inline]
    pub fn owner_of(&self, z: VertexId) -> NodeId {
        self.nodes[self.owner_slot_of(z) as usize].id
    }

    /// Slot of the owner of vertex `z`; panics when unassigned, like
    /// [`Self::owner_of`].
    #[inline]
    pub fn owner_slot_of(&self, z: VertexId) -> u32 {
        let rec = &self.meta[z.0 as usize];
        assert!(rec.slot != NO_OWNER, "vertex {z} not assigned");
        rec.slot
    }

    /// The `Sim` set of node `u` (empty slice if `u` simulates nothing).
    /// On a caller-slotted map the first id read after a change of holders
    /// indexes the held nodes (O(n)); callers that hold slots use
    /// [`Self::sim_at`].
    pub fn sim(&self, u: NodeId) -> &[VertexId] {
        match self.held_slot(u) {
            Some(s) => self.sim_at(s),
            None => &[],
        }
    }

    /// The `Sim` set held in `slot` (empty for a vacant or unseen slot).
    #[inline]
    pub fn sim_at(&self, slot: u32) -> &[VertexId] {
        match self.nodes.get(slot as usize) {
            Some(rec) => {
                let len = self.lens[slot as usize];
                &self.pool[rec.start as usize..(rec.start + len) as usize]
            }
            None => &[],
        }
    }

    /// The node held in `slot` (`None` for a vacant or unseen slot).
    #[inline]
    pub(crate) fn node_at(&self, slot: u32) -> Option<NodeId> {
        (self.load_at(slot) > 0).then(|| self.nodes[slot as usize].id)
    }

    /// Exclusive upper bound on the node slots this map has seen (vacant
    /// ones included).
    #[inline]
    pub(crate) fn slot_bound(&self) -> usize {
        self.lens.len()
    }

    /// Load of `u` = `|Sim(u)|` (see [`Self::sim`] on the id index).
    #[inline]
    pub fn load(&self, u: NodeId) -> u64 {
        self.held_slot(u).map_or(0, |s| self.load_at(s))
    }

    /// Load held in `slot` (0 for a vacant or unseen slot) — the walk and
    /// flood predicates' one read per node.
    #[inline]
    pub fn load_at(&self, slot: u32) -> u64 {
        self.lens.get(slot as usize).map_or(0, |&l| l as u64)
    }

    /// `|Spare|` (nodes with load ≥ 2).
    pub fn spare_count(&self) -> usize {
        self.spare_count
    }

    /// `|Low|` (nodes with 1 ≤ load ≤ 2ζ).
    pub fn low_count(&self) -> usize {
        self.low_count
    }

    /// Is `u ∈ Spare`? (see [`Self::sim`] on the id index)
    #[inline]
    pub fn is_spare(&self, u: NodeId) -> bool {
        self.load(u) >= 2
    }

    /// Is `u ∈ Low`? (requires u to simulate ≥ 1 vertex; see
    /// [`Self::sim`] on the id index)
    #[inline]
    pub fn is_low(&self, u: NodeId) -> bool {
        let l = self.load(u);
        l >= 1 && l <= 2 * self.zeta
    }

    /// Is the node in `slot` in Spare?
    #[inline]
    pub fn is_spare_at(&self, slot: u32) -> bool {
        self.load_at(slot) >= 2
    }

    /// Is the node in `slot` in Low?
    #[inline]
    pub fn is_low_at(&self, slot: u32) -> bool {
        let l = self.load_at(slot);
        l >= 1 && l <= 2 * self.zeta
    }

    fn count_delta(&mut self, load_before: u64, load_after: u64) {
        let spare = |l: u64| l >= 2;
        let low = |l: u64| l >= 1 && l <= 2 * self.zeta;
        match (spare(load_before), spare(load_after)) {
            (false, true) => self.spare_count += 1,
            (true, false) => self.spare_count -= 1,
            _ => {}
        }
        match (low(load_before), low(load_after)) {
            (false, true) => self.low_count += 1,
            (true, false) => self.low_count -= 1,
            _ => {}
        }
    }

    /// Carve a fresh segment of `class` from the pool (reusing a freed
    /// same-class segment when available).
    fn alloc_seg(&mut self, class: u8) -> u32 {
        if let Some(start) = self.free_segs[class as usize].pop() {
            return start;
        }
        let start = self.pool.len();
        let cap = class_cap(class) as usize;
        assert!(start + cap <= u32::MAX as usize, "segment pool overflow");
        self.pool
            .resize(start + cap, VertexId(u64::MAX) /* poison */);
        start as u32
    }

    /// Slot for a `NodeId` mutator: the one `u` holds, else the most
    /// recently vacated or a fresh one.
    ///
    /// # Panics
    /// Panics on a caller-slotted map: only the caller knows the slot, so
    /// it must use the `*_at` form.
    fn slot_for(&mut self, u: NodeId) -> u32 {
        let fresh = self.nodes.len() as u32;
        let Some(own) = &mut self.own else {
            panic!("node {u}: a caller-slotted Φ numbers no slots: name its slot")
        };
        match own.slot_of.get(&u) {
            Some(&s) => s,
            None => own.free.pop().unwrap_or(fresh),
        }
    }

    /// Make `slot` ready to take a vertex for `u`: a vacant slot is claimed
    /// (inline segment, plus the id index entry of a self-allocating map),
    /// an occupied one must be `u`'s.
    #[inline]
    fn claim(&mut self, u: NodeId, slot: u32) {
        let i = slot as usize;
        if i >= self.nodes.len() {
            assert!(slot != NO_OWNER, "node arena overflow");
            self.nodes.resize(i + 1, NODE_VACANT);
            self.lens.resize(i + 1, 0);
        }
        if self.lens[i] == 0 {
            let start = self.alloc_seg(0);
            self.nodes[i] = NodeRec {
                id: u,
                start,
                class: 0,
            };
            self.num_nodes += 1;
            self.id_cache.take();
            if let Some(own) = &mut self.own {
                let prev = own.slot_of.insert(u, slot);
                assert!(prev.is_none(), "{u} claims slot {slot} but holds {prev:?}");
            }
        } else {
            let held = self.nodes[i].id;
            assert!(held == u, "slot {slot} belongs to {held}, not {u}");
        }
    }

    /// Spill `slot`'s segment to the next capacity class.
    #[cold]
    fn grow_seg(&mut self, slot: u32) {
        let rec = self.nodes[slot as usize];
        let len = self.lens[slot as usize];
        let new_class = rec.class + 1;
        assert!((new_class as usize) < NUM_CLASSES, "Sim set too large");
        let new_start = self.alloc_seg(new_class);
        self.pool.copy_within(
            rec.start as usize..(rec.start + len) as usize,
            new_start as usize,
        );
        self.free_segs[rec.class as usize].push(rec.start);
        let rec = &mut self.nodes[slot as usize];
        rec.start = new_start;
        rec.class = new_class;
    }

    /// Assign an unowned vertex `z` to `u`.
    ///
    /// # Panics
    /// Panics if `z` is already assigned.
    pub fn assign(&mut self, z: VertexId, u: NodeId) {
        let slot = self.slot_for(u);
        self.assign_at(z, u, slot);
    }

    /// Assign an unowned vertex `z` to node `u` living in `slot`. On a
    /// self-allocating map `slot` must be one the map handed out (its own
    /// `NodeId` methods are the only expected callers there).
    ///
    /// # Panics
    /// Panics if `z` is already assigned, or `slot` holds another node.
    pub fn assign_at(&mut self, z: VertexId, u: NodeId, slot: u32) {
        let idx = z.0 as usize;
        if idx >= self.meta.len() {
            self.meta.resize(idx + 1, VERTEX_FREE);
        }
        assert!(
            self.meta[idx].slot == NO_OWNER,
            "vertex {z} already owned by {:?}",
            self.owner(z)
        );
        self.claim(u, slot);
        let len = self.lens[slot as usize];
        if len == class_cap(self.nodes[slot as usize].class) {
            self.grow_seg(slot);
        }
        let rec = &self.nodes[slot as usize];
        self.pool[(rec.start + len) as usize] = z;
        self.meta[idx] = VertexRec { slot, pos: len };
        self.lens[slot as usize] = len + 1;
        let after = (len + 1) as u64;
        self.num_vertices += 1;
        self.count_delta(after - 1, after);
    }

    /// Remove vertex `z` from the mapping; returns its former owner. A
    /// node left with no vertex leaves the map (its slot goes back on the
    /// free list only when the map numbers its own).
    ///
    /// # Panics
    /// Panics if `z` is unassigned.
    pub fn unassign(&mut self, z: VertexId) -> NodeId {
        let idx = z.0 as usize;
        let (slot, p) = match self.meta.get(idx) {
            Some(rec) if rec.slot != NO_OWNER => (rec.slot, rec.pos),
            _ => panic!("vertex {z} not assigned"),
        };
        let rec = self.nodes[slot as usize];
        let u = rec.id;
        // Swap-remove within the segment, fixing the moved vertex's pos.
        let len = self.lens[slot as usize] - 1;
        self.lens[slot as usize] = len;
        let last = self.pool[(rec.start + len) as usize];
        if last != z {
            self.pool[(rec.start + p) as usize] = last;
            self.meta[last.0 as usize].pos = p;
        }
        let after = len as u64;
        self.meta[idx].slot = NO_OWNER;
        self.num_vertices -= 1;
        self.count_delta(after + 1, after);
        if after == 0 {
            self.free_segs[rec.class as usize].push(rec.start);
            self.num_nodes -= 1;
            self.id_cache.take();
            if let Some(own) = &mut self.own {
                own.slot_of.remove(&u);
                own.free.push(slot);
            }
        }
        u
    }

    /// Move vertex `z` to node `to`; returns the former owner.
    pub fn transfer(&mut self, z: VertexId, to: NodeId) -> NodeId {
        let from = self.unassign(z);
        self.assign(z, to);
        from
    }

    /// Move vertex `z` to node `to` living in `slot`; returns the former
    /// owner. See [`Self::assign_at`] for the slot contract.
    pub fn transfer_at(&mut self, z: VertexId, to: NodeId, slot: u32) -> NodeId {
        let from = self.unassign(z);
        self.assign_at(z, to, slot);
        from
    }

    /// Assign the run of `count` unowned consecutive vertices starting at
    /// `z_start` to `u` — the type-2 inflation shape, where every old
    /// vertex generates a *cloud* of α consecutive new vertices (Eq. 7).
    /// One slot resolution and one capacity check serve the whole run,
    /// and the dense vertex records are written sequentially.
    ///
    /// # Panics
    /// Panics if any vertex in the run is already assigned.
    pub fn assign_run(&mut self, z_start: VertexId, count: u64, u: NodeId) {
        if count == 0 {
            return;
        }
        let slot = self.slot_for(u);
        self.assign_run_at(z_start, count, u, slot);
    }

    /// [`Self::assign_run`] for node `u` living in `slot`. See
    /// [`Self::assign_at`] for the slot contract.
    pub fn assign_run_at(&mut self, z_start: VertexId, count: u64, u: NodeId, slot: u32) {
        if count > 0 {
            let lo = z_start.0;
            self.append_at((lo..lo + count).map(VertexId), count as u32, u, slot);
        }
    }

    /// Assign the unowned vertices `zs`, in order, to node `u` living in
    /// `slot` — the bootstrap deals a node its whole `Sim` set this way.
    /// See [`Self::assign_at`] for the slot contract.
    ///
    /// # Panics
    /// Panics if any vertex of `zs` is already assigned.
    pub fn assign_all_at(&mut self, zs: &[VertexId], u: NodeId, slot: u32) {
        if !zs.is_empty() {
            self.append_at(zs.iter().copied(), zs.len() as u32, u, slot);
        }
    }

    /// Append the `count ≥ 1` unowned vertices `zs` to the `Sim` segment
    /// of `u` in `slot`, the body of [`Self::assign_run_at`] and
    /// [`Self::assign_all_at`]: one claim, one capacity check and one
    /// counter update for the whole run, the vertex records written in
    /// order. (`assign_at`, the healing path's single vertex, keeps its
    /// own straight-line body.)
    fn append_at(&mut self, zs: impl Iterator<Item = VertexId>, count: u32, u: NodeId, slot: u32) {
        self.claim(u, slot);
        let mut len = self.lens[slot as usize];
        let before = len as u64;
        while (len + count) > class_cap(self.nodes[slot as usize].class) {
            self.grow_seg(slot);
        }
        let start = self.nodes[slot as usize].start;
        for z in zs {
            let idx = z.0 as usize;
            if idx >= self.meta.len() {
                self.meta.resize(idx + 1, VERTEX_FREE);
            }
            assert!(
                self.meta[idx].slot == NO_OWNER,
                "vertex {z} already owned by {:?}",
                self.owner(z)
            );
            self.pool[(start + len) as usize] = z;
            self.meta[idx] = VertexRec { slot, pos: len };
            len += 1;
        }
        self.lens[slot as usize] = len;
        self.num_vertices += count as usize;
        self.count_delta(before, len as u64);
    }

    /// All `(vertex, owner)` pairs in canonical (vertex-ascending) order —
    /// a plain scan of the dense owner array, no allocation, no sort.
    pub fn entries(&self) -> impl Iterator<Item = (VertexId, NodeId)> + '_ {
        self.entries_at().map(|(z, u, _)| (z, u))
    }

    /// [`Self::entries`] with each owner's slot: `(vertex, owner, slot)`.
    pub fn entries_at(&self) -> impl Iterator<Item = (VertexId, NodeId, u32)> + '_ {
        self.meta
            .iter()
            .enumerate()
            .filter(|&(_, rec)| rec.slot != NO_OWNER)
            .map(|(z, rec)| {
                (
                    VertexId(z as u64),
                    self.nodes[rec.slot as usize].id,
                    rec.slot,
                )
            })
    }

    /// All `(vertex, owner)` pairs, sorted by vertex (canonical order).
    ///
    /// Allocating convenience; hot paths iterate [`VirtualMapping::entries`]
    /// instead (the dense layout is already in canonical order).
    pub fn entries_sorted(&self) -> Vec<(VertexId, NodeId)> {
        self.entries().collect()
    }

    /// Nodes simulating at least one vertex, in slot order (deterministic
    /// for a given operation history; not sorted by id).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes_at().map(|(u, _)| u)
    }

    /// [`Self::nodes`] with each node's slot: `(node, slot)`.
    pub fn nodes_at(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.nodes
            .iter()
            .zip(&self.lens)
            .enumerate()
            .filter(|&(_, (_, &len))| len > 0)
            .map(|(slot, (rec, _))| (rec.id, slot as u32))
    }

    /// Maximum load over all mapped nodes.
    pub fn max_load(&self) -> u64 {
        self.lens.iter().map(|&l| l as u64).max().unwrap_or(0)
    }

    /// Recount spare/low from scratch (test oracle for the incremental
    /// counters).
    pub fn recount(&self) -> (usize, usize) {
        let mut spare = 0;
        let mut low = 0;
        for &len in &self.lens {
            let l = len as u64;
            if l >= 2 {
                spare += 1;
            }
            if l >= 1 && l <= 2 * self.zeta {
                low += 1;
            }
        }
        (spare, low)
    }

    /// Internal consistency check (dense arrays, segments, counters, and
    /// the slot numbering: on a self-allocating map every vacant slot is on
    /// the free list; a caller-slotted map has none — a vacant slot is the
    /// caller's to reuse; an id index, built or kept, names exactly the
    /// held slots).
    pub fn validate(&self) -> Result<(), String> {
        let held = self.lens.iter().filter(|&&len| len > 0).count();
        if held != self.num_nodes {
            return Err(format!("{held} held slots, node count {}", self.num_nodes));
        }
        if let Some(own) = &self.own {
            if let Some(&f) = own.free.iter().find(|&&f| self.lens[f as usize] != 0) {
                return Err(format!("free list contains occupied slot {f}"));
            }
            let vacant = self.lens.len() - held;
            if own.free.len() != vacant {
                return Err(format!(
                    "{} free-listed slots, expected {vacant} vacant",
                    own.free.len()
                ));
            }
        }
        let index = self.own.as_ref().map(|own| &own.slot_of);
        if let Some(index) = index.or(self.id_cache.get()) {
            if index.len() != held {
                return Err(format!("id index has {} of {held} nodes", index.len()));
            }
            for (&u, &s) in index {
                if self.node_at(s) != Some(u) {
                    return Err(format!(
                        "id index puts {u} in slot {s}, which holds {:?}",
                        self.node_at(s)
                    ));
                }
            }
        }
        let mut total = 0usize;
        for (u, s) in self.nodes_at() {
            let rec = self.nodes[s as usize];
            let len = self.lens[s as usize];
            if len > class_cap(rec.class) {
                return Err(format!("{u}: len {len} over class cap"));
            }
            if (rec.start + class_cap(rec.class)) as usize > self.pool.len() {
                return Err(format!("{u}: segment out of pool bounds"));
            }
            for i in 0..len {
                let z = self.pool[(rec.start + i) as usize];
                let idx = z.0 as usize;
                match self.meta.get(idx) {
                    Some(m) if m.slot == s => {
                        if m.pos != i {
                            return Err(format!("pos[{z}] = {} != {i}", m.pos));
                        }
                    }
                    _ => return Err(format!("sim({u}) holds {z} but owner disagrees")),
                }
            }
            total += len as usize;
        }
        if total != self.num_vertices {
            return Err(format!(
                "sim total {total} != vertex count {}",
                self.num_vertices
            ));
        }
        let owned = self.meta.iter().filter(|rec| rec.slot != NO_OWNER).count();
        if owned != self.num_vertices {
            return Err(format!(
                "dense owner count {owned} != vertex count {}",
                self.num_vertices
            ));
        }
        let (spare, low) = self.recount();
        if spare != self.spare_count || low != self.low_count {
            return Err(format!(
                "counter drift: spare {} (true {spare}), low {} (true {low})",
                self.spare_count, self.low_count
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for VirtualMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Φ(|V|={}, nodes={}, spare={}, low={}, maxload={})",
            self.num_vertices(),
            self.num_nodes(),
            self.spare_count,
            self.low_count,
            self.max_load()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z(i: u64) -> VertexId {
        VertexId(i)
    }
    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn assign_transfer_unassign_roundtrip() {
        let mut m = VirtualMapping::new(8);
        m.assign(z(0), n(0));
        m.assign(z(1), n(0));
        m.assign(z(2), n(1));
        assert_eq!(m.load(n(0)), 2);
        assert_eq!(m.owner_of(z(1)), n(0));
        assert_eq!(m.transfer(z(1), n(1)), n(0));
        assert_eq!(m.load(n(1)), 2);
        assert_eq!(m.unassign(z(2)), n(1));
        m.validate().unwrap();
    }

    #[test]
    fn spare_low_counters_track() {
        let mut m = VirtualMapping::new(8);
        // One node with 1 vertex: low but not spare.
        m.assign(z(0), n(0));
        assert_eq!((m.spare_count(), m.low_count()), (0, 1));
        // Load 2: spare and low.
        m.assign(z(1), n(0));
        assert_eq!((m.spare_count(), m.low_count()), (1, 1));
        // Push to 2ζ + 1 = 17: leaves Low.
        for i in 2..17 {
            m.assign(z(i), n(0));
        }
        assert_eq!(m.load(n(0)), 17);
        assert_eq!((m.spare_count(), m.low_count()), (1, 0));
        // Back to 16: re-enters Low.
        m.unassign(z(16));
        assert_eq!((m.spare_count(), m.low_count()), (1, 1));
        m.validate().unwrap();
    }

    #[test]
    fn empty_nodes_are_pruned() {
        let mut m = VirtualMapping::new(8);
        m.assign(z(0), n(3));
        m.unassign(z(0));
        assert_eq!(m.num_nodes(), 0);
        assert_eq!(m.load(n(3)), 0);
        assert_eq!((m.spare_count(), m.low_count()), (0, 0));
        assert_eq!(m.nodes().count(), 0);
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_assign_rejected() {
        let mut m = VirtualMapping::new(8);
        m.assign(z(0), n(0));
        m.assign(z(0), n(1));
    }

    #[test]
    fn recount_matches_incremental_under_churn() {
        let mut m = VirtualMapping::new(8);
        for i in 0..100u64 {
            m.assign(z(i), n(i % 7));
        }
        for i in (0..100u64).step_by(3) {
            m.transfer(z(i), n((i + 1) % 7));
        }
        for i in (0..100u64).step_by(5) {
            m.unassign(z(i));
        }
        m.validate().unwrap();
        let (s, l) = m.recount();
        assert_eq!(s, m.spare_count());
        assert_eq!(l, m.low_count());
    }

    #[test]
    fn segments_spill_and_reuse() {
        let mut m = VirtualMapping::new(8);
        // Push one node through several class spills.
        for i in 0..100u64 {
            m.assign(z(i), n(0));
        }
        assert_eq!(m.load(n(0)), 100);
        assert_eq!(m.sim(n(0)).len(), 100);
        m.validate().unwrap();
        // Drain it; its segments go back to the free lists and a new node
        // reuses them without growing the pool.
        for i in 0..100u64 {
            m.unassign(z(i));
        }
        let pool_high_water = m.pool.len();
        for i in 0..100u64 {
            m.assign(z(i), n(1));
        }
        assert_eq!(m.pool.len(), pool_high_water, "freed segments not reused");
        m.validate().unwrap();
    }

    #[test]
    fn assign_run_matches_per_vertex_assigns() {
        let mut a = VirtualMapping::new(8);
        let mut b = VirtualMapping::new(8);
        // Cloud-shaped runs across several nodes, with spills.
        for (start, count, u) in [
            (0u64, 4u64, 0u64),
            (4, 7, 1),
            (11, 4, 0),
            (15, 30, 2),
            (45, 4, 0),
        ] {
            a.assign_run(z(start), count, n(u));
            for i in 0..count {
                b.assign(z(start + i), n(u));
            }
        }
        a.validate().unwrap();
        b.validate().unwrap();
        for u in 0..3 {
            assert_eq!(a.sim(n(u)), b.sim(n(u)));
            assert_eq!(a.load(n(u)), b.load(n(u)));
        }
        assert_eq!(a.entries_sorted(), b.entries_sorted());
        assert_eq!(
            (a.spare_count(), a.low_count()),
            (b.spare_count(), b.low_count())
        );
        // Runs and singles compose: drain one run, reassign as a run.
        for i in 15..45 {
            a.unassign(z(i));
            b.unassign(z(i));
        }
        a.assign_run(z(20), 5, n(7));
        for i in 0..5 {
            b.assign(z(20 + i), n(7));
        }
        a.validate().unwrap();
        assert_eq!(a.sim(n(7)), b.sim(n(7)));
    }

    #[test]
    fn caller_slotted_map_takes_slots_and_keeps_no_free_list() {
        let mut m = VirtualMapping::with_caller_slots(8, 16, 0);
        m.assign_at(z(0), n(7), 5);
        m.assign_at(z(1), n(7), 5);
        m.assign_run_at(z(2), 3, n(9), 2);
        assert_eq!((m.load_at(5), m.load_at(2), m.load_at(3)), (2, 3, 0));
        assert_eq!(m.owner_slot_of(z(3)), 2);
        assert_eq!(m.sim_at(2), &[z(2), z(3), z(4)]);
        assert_eq!(m.load_at(1000), 0);
        assert!(m.sim_at(1000).is_empty());
        for i in 2..5 {
            assert_eq!(m.transfer_at(z(i), n(7), 5), n(9));
        }
        // n9 left: its slot is vacant and on no list — the caller's to reuse.
        assert!(m.own.is_none());
        assert_eq!(m.num_nodes(), 1);
        m.validate().unwrap();
        m.assign_at(z(9), n(11), 2);
        assert_eq!(m.sim_at(2), &[z(9)]);
        assert_eq!(
            m.nodes_at().collect::<Vec<_>>(),
            vec![(n(11), 2), (n(7), 5)]
        );
        m.validate().unwrap();
    }

    #[test]
    fn caller_slotted_map_indexes_ids_on_demand_and_drops_the_index() {
        let mut m = VirtualMapping::with_caller_slots(8, 16, 0);
        m.assign_run_at(z(0), 2, n(4), 3);
        m.assign_at(z(2), n(5), 0);
        assert!(m.id_cache.get().is_none(), "built before any id read");
        assert_eq!(
            (m.load(n(4)), m.sim(n(5)), m.load(n(6))),
            (2, &[z(2)][..], 0)
        );
        assert!(m.is_spare(n(4)) && m.is_low(n(5)));
        m.validate().unwrap();
        // A transfer between held nodes keeps the holders and the index.
        m.transfer_at(z(1), n(5), 0);
        assert!(m.id_cache.get().is_some());
        // Vacating slot 3 and handing it to n6 drops it; the next read
        // rebuilds it with the new holder.
        m.transfer_at(z(0), n(5), 0);
        assert!(m.id_cache.get().is_none());
        m.assign_at(z(3), n(6), 3);
        assert_eq!((m.load(n(4)), m.load(n(6)), m.load(n(5))), (0, 1, 3));
        m.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "name its slot")]
    fn caller_slotted_map_cannot_place_an_unknown_node() {
        let mut m = VirtualMapping::with_caller_slots(8, 16, 0);
        m.assign_at(z(0), n(0), 0);
        m.assign(z(1), n(1));
    }

    #[test]
    #[should_panic(expected = "belongs to")]
    fn at_forms_reject_a_slot_held_by_another_node() {
        let mut m = VirtualMapping::with_caller_slots(8, 16, 0);
        m.assign_run_at(z(0), 2, n(0), 3);
        m.transfer_at(z(0), n(1), 3);
    }

    #[test]
    fn validate_checks_the_free_list_of_a_self_allocating_map() {
        let mut m = VirtualMapping::new(8);
        m.assign(z(0), n(0));
        m.assign(z(1), n(1));
        m.unassign(z(0));
        m.validate().unwrap();
        m.own.as_mut().unwrap().free.clear();
        assert!(m.validate().unwrap_err().contains("free-listed"));
    }

    /// How a test places a run of vertices for a node in a slot.
    type Place = fn(&mut VirtualMapping, VertexId, u64, NodeId, u32);

    /// Drain `old` from slot `s` (every vertex it holds moves to `keep`'s
    /// slot `k`), then let `new` claim `s` through `place`: every id reader
    /// must name `new` (or `keep`) and never `old`.
    fn recycle(
        m: &mut VirtualMapping,
        place: Place,
        [old, new, keep]: [NodeId; 3],
        s: u32,
        k: u32,
    ) {
        let held: Vec<VertexId> = m.sim_at(s).to_vec();
        // An id read first: a caller-slotted map indexes its holders now.
        assert_eq!(m.load(old), held.len() as u64);
        for &v in &held {
            assert_eq!(m.owner_of(v), old);
            assert_eq!(m.transfer_at(v, keep, k), old);
        }
        assert_eq!((m.load_at(s), m.load(old)), (0, 0));
        // One of `old`'s vertices comes back, to the slot's new node.
        assert_eq!(m.unassign(held[0]), keep);
        place(m, z(100), 3, new, s);
        place(m, held[0], 1, new, s);
        assert_eq!(
            m.owner_slot_of(z(100)),
            s,
            "the vacated slot was not reused"
        );
        m.validate().unwrap();
        for (v, u, slot) in m.entries_at() {
            assert_ne!(u, old, "entries_at names the vacated node for {v}");
            assert_eq!(u, if slot == s { new } else { keep });
            assert_eq!((m.owner_of(v), m.owner(v)), (u, Some(u)));
        }
        let mut want = vec![(new, s), (keep, k)];
        want.sort_unstable_by_key(|&(_, slot)| slot);
        assert_eq!(m.nodes_at().collect::<Vec<_>>(), want);
        assert_eq!(m.num_nodes(), 2);
        assert_eq!((m.load(new), m.load(old)), (4, 0));
        assert!(m.sim(old).is_empty());
    }

    #[test]
    fn a_recycled_slot_reports_its_new_node_in_a_caller_slotted_map() {
        let mut m = VirtualMapping::with_caller_slots(8, 16, 0);
        m.assign_run_at(z(0), 4, n(1), 0);
        m.assign_run_at(z(4), 4, n(2), 1);
        let place: Place = |m, z, count, u, s| m.assign_run_at(z, count, u, s);
        recycle(&mut m, place, [n(1), n(3), n(2)], 0, 1);
    }

    #[test]
    fn a_recycled_slot_reports_its_new_node_in_a_self_allocating_map() {
        let mut m = VirtualMapping::new(8);
        m.assign_run(z(0), 4, n(1));
        m.assign_run(z(4), 4, n(2));
        let (s1, s2) = (m.owner_slot_of(z(0)), m.owner_slot_of(z(4)));
        // The map numbers its own slots: LIFO hands the new node `s1`.
        let place: Place = |m, z, count, u, _| m.assign_run(z, count, u);
        recycle(&mut m, place, [n(1), n(3), n(2)], s1, s2);
        // The old id is new to the map again: it gets a fresh slot.
        m.assign(z(10), n(1));
        assert_ne!(m.owner_slot_of(z(10)), s1);
        m.validate().unwrap();
    }

    #[test]
    fn entries_are_vertex_ordered() {
        let mut m = VirtualMapping::new(8);
        for i in [5u64, 2, 9, 0, 7] {
            m.assign(z(i), n(i % 3));
        }
        let got: Vec<u64> = m.entries().map(|(z, _)| z.0).collect();
        assert_eq!(got, vec![0, 2, 5, 7, 9]);
        assert_eq!(m.entries_sorted().len(), 5);
    }
}
