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
//! * **per-vertex state** is one dense `Vec` of 16-byte records keyed by
//!   the p-cycle vertex index (`z.0`): the owner's *node slot* (`NO_OWNER`
//!   when unassigned), the vertex's index inside its owner's `Sim`
//!   segment, and a mirror of the owner's `NodeId`. One cache line
//!   therefore serves `owner_of` — called ~12 times per fabric vertex
//!   move — the unassign half of a transfer, and the swap-remove pos
//!   fix-up, with no hashing and no indirection through the node arena.
//! * **per-node `Sim` sets** are contiguous segments carved from one
//!   pooled `Vec<VertexId>`. Segments come in power-of-two capacity
//!   classes (8, 16, 32, …). A node starts in the smallest ("inline")
//!   class — which covers the steady-state load bound 4ζ = 32 with ζ = 8
//!   in three classes — and *spills* to the next class only when its load
//!   outgrows the segment: a new segment is carved (reusing a same-class
//!   segment from the per-class free list when one exists), the entries
//!   are copied, and the old segment is pushed onto its class's free list.
//!   `sim(u)` is therefore always one contiguous `&[VertexId]` slice.
//! * **node slots** use a LIFO free list exactly like the graph arena; the
//!   `NodeId ↔ slot` translation is one `FxHashMap` lookup at the API
//!   edge, and per-slot loads live in a compact 4-byte-per-node `lens`
//!   array so walk predicates (`is_spare` / `is_low`, one read per hop)
//!   touch a near-cache-resident structure. A node occupies a slot iff it
//!   simulates ≥ 1 vertex (`Φ` prunes empty nodes, matching the paper's
//!   surjectivity).
//! * `|Spare|` / `|Low|` are maintained incrementally in place on every
//!   load transition (Eqs. 1–2), as before.
//!
//! Iterating `(vertex, owner)` pairs over the dense array yields canonical
//! (vertex-ascending) order *for free* — see [`VirtualMapping::entries`];
//! the old collect-and-sort path survives only as a test oracle. Type-2
//! inflation assigns whole clouds of consecutive vertices in one call via
//! [`VirtualMapping::assign_run`] (one slot resolution per cloud,
//! sequential dense writes).
//!
//! The previous `FxHashMap`-backed implementation lives on verbatim as
//! [`oracle::HashMapping`]: the differential proptests drive long random
//! op sequences through both and assert identical owner / `Sim` / counter
//! state after every operation.

use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::{NodeId, VertexId};

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

/// One vertex's dense record: everything a fabric resolution or a
/// transfer needs, in a single 16-byte entry (one cache line serves
/// `owner_of`, the unassign half of a transfer, and the pos fix-up).
#[derive(Clone, Copy)]
struct VertexRec {
    /// Owner slot ([`NO_OWNER`] = unassigned).
    slot: u32,
    /// Index within the owner's segment.
    pos: u32,
    /// Owner id, mirrored from the slot record.
    owner: NodeId,
}

const VERTEX_FREE: VertexRec = VertexRec {
    slot: NO_OWNER,
    pos: 0,
    owner: NodeId(u64::MAX),
};

/// Surjective map `Φ : V(Z) → V(G)` with per-node `Sim` sets and
/// incremental `|Spare|` / `|Low|` counters. See module docs for the
/// storage model.
#[derive(Clone)]
pub struct VirtualMapping {
    /// Dense vertex records keyed by the p-cycle vertex index.
    meta: Vec<VertexRec>,
    /// Assigned vertices.
    num_vertices: usize,
    /// Node slot arena.
    nodes: Vec<NodeRec>,
    /// Per-slot load (`|Sim|`); 0 ⇔ the slot is free. Kept apart from
    /// [`NodeRec`] so the array is 4 bytes per node and predicates read a
    /// near-resident structure.
    lens: Vec<u32>,
    /// NodeId → slot for live nodes.
    slot_of: FxHashMap<NodeId, u32>,
    /// LIFO free list of node slots.
    free_slots: Vec<u32>,
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
}

impl VirtualMapping {
    /// Empty mapping with the given ζ (for the `Low` threshold 2ζ).
    pub fn new(zeta: u64) -> Self {
        VirtualMapping {
            meta: Vec::new(),
            num_vertices: 0,
            nodes: Vec::new(),
            lens: Vec::new(),
            slot_of: FxHashMap::default(),
            free_slots: Vec::new(),
            pool: Vec::new(),
            free_segs: vec![Vec::new(); NUM_CLASSES],
            spare_count: 0,
            low_count: 0,
            zeta,
        }
    }

    /// Empty mapping pre-sized for vertices `0..p` (avoids dense-array
    /// regrowth during bootstrap / type-2 rebuilds).
    pub fn with_vertex_capacity(zeta: u64, p: u64) -> Self {
        let mut m = Self::new(zeta);
        m.meta = vec![VERTEX_FREE; p as usize];
        m
    }

    /// Number of vertices assigned.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of nodes simulating at least one vertex.
    pub fn num_nodes(&self) -> usize {
        self.slot_of.len()
    }

    /// Owner of vertex `z`, if assigned.
    #[inline]
    pub fn owner(&self, z: VertexId) -> Option<NodeId> {
        match self.meta.get(z.0 as usize) {
            Some(rec) if rec.slot != NO_OWNER => Some(rec.owner),
            _ => None,
        }
    }

    /// Owner of vertex `z`; panics when unassigned (protocol invariant).
    /// The check is kept in release builds: the owner mirror of an
    /// unassigned vertex is stale, and returning it silently would turn a
    /// protocol-invariant violation into fabric corruption. The branch
    /// tests a field on the cache line the read already loaded.
    #[inline]
    pub fn owner_of(&self, z: VertexId) -> NodeId {
        let rec = &self.meta[z.0 as usize];
        assert!(rec.slot != NO_OWNER, "vertex {z} not assigned");
        rec.owner
    }

    /// The `Sim` set of node `u` (empty slice if `u` simulates nothing).
    pub fn sim(&self, u: NodeId) -> &[VertexId] {
        match self.slot_of.get(&u) {
            Some(&s) => {
                let rec = &self.nodes[s as usize];
                let len = self.lens[s as usize];
                &self.pool[rec.start as usize..(rec.start + len) as usize]
            }
            None => &[],
        }
    }

    /// Load of `u` = `|Sim(u)|`.
    #[inline]
    pub fn load(&self, u: NodeId) -> u64 {
        match self.slot_of.get(&u) {
            Some(&s) => self.lens[s as usize] as u64,
            None => 0,
        }
    }

    /// `|Spare|` (nodes with load ≥ 2).
    pub fn spare_count(&self) -> usize {
        self.spare_count
    }

    /// `|Low|` (nodes with 1 ≤ load ≤ 2ζ).
    pub fn low_count(&self) -> usize {
        self.low_count
    }

    /// Is `u ∈ Spare`?
    #[inline]
    pub fn is_spare(&self, u: NodeId) -> bool {
        self.load(u) >= 2
    }

    /// Is `u ∈ Low`? (requires u to simulate ≥ 1 vertex)
    #[inline]
    pub fn is_low(&self, u: NodeId) -> bool {
        let l = self.load(u);
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

    /// Resolve or create the slot for `u`.
    fn slot_for(&mut self, u: NodeId) -> u32 {
        if let Some(&s) = self.slot_of.get(&u) {
            return s;
        }
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                assert!(self.nodes.len() < NO_OWNER as usize, "node arena overflow");
                self.nodes.push(NodeRec {
                    id: u,
                    start: 0,
                    class: 0,
                });
                self.lens.push(0);
                self.nodes.len() as u32 - 1
            }
        };
        let start = self.alloc_seg(0);
        self.nodes[slot as usize] = NodeRec {
            id: u,
            start,
            class: 0,
        };
        self.lens[slot as usize] = 0;
        self.slot_of.insert(u, slot);
        slot
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
        let idx = z.0 as usize;
        if idx >= self.meta.len() {
            self.meta.resize(idx + 1, VERTEX_FREE);
        }
        assert!(
            self.meta[idx].slot == NO_OWNER,
            "vertex {z} already owned by {:?}",
            self.owner(z)
        );
        let slot = self.slot_for(u);
        let len = self.lens[slot as usize];
        if len == class_cap(self.nodes[slot as usize].class) {
            self.grow_seg(slot);
        }
        let rec = &self.nodes[slot as usize];
        self.pool[(rec.start + len) as usize] = z;
        self.meta[z.0 as usize] = VertexRec {
            slot,
            pos: len,
            owner: rec.id,
        };
        self.lens[slot as usize] = len + 1;
        let after = (len + 1) as u64;
        self.num_vertices += 1;
        self.count_delta(after - 1, after);
    }

    /// Remove vertex `z` from the mapping; returns its former owner.
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
            self.slot_of.remove(&u);
            self.free_slots.push(slot);
        }
        u
    }

    /// Move vertex `z` to node `to`; returns the former owner.
    pub fn transfer(&mut self, z: VertexId, to: NodeId) -> NodeId {
        let from = self.unassign(z);
        self.assign(z, to);
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
        let lo = z_start.0 as usize;
        let hi = lo + count as usize;
        if hi > self.meta.len() {
            self.meta.resize(hi, VERTEX_FREE);
        }
        let slot = self.slot_for(u);
        let mut len = self.lens[slot as usize];
        let before = len as u64;
        while (len + count as u32) > class_cap(self.nodes[slot as usize].class) {
            self.grow_seg(slot);
        }
        let rec = self.nodes[slot as usize];
        for idx in lo..hi {
            assert!(
                self.meta[idx].slot == NO_OWNER,
                "vertex z{idx} already owned by {:?}",
                self.meta[idx].owner
            );
            self.pool[(rec.start + len) as usize] = VertexId(idx as u64);
            self.meta[idx] = VertexRec {
                slot,
                pos: len,
                owner: rec.id,
            };
            len += 1;
        }
        self.lens[slot as usize] = len;
        self.num_vertices += count as usize;
        self.count_delta(before, len as u64);
    }

    /// All `(vertex, owner)` pairs in canonical (vertex-ascending) order —
    /// a plain scan of the dense owner array, no allocation, no sort.
    pub fn entries(&self) -> impl Iterator<Item = (VertexId, NodeId)> + '_ {
        self.meta
            .iter()
            .enumerate()
            .filter(|&(_, rec)| rec.slot != NO_OWNER)
            .map(|(z, rec)| (VertexId(z as u64), rec.owner))
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
        self.nodes
            .iter()
            .zip(&self.lens)
            .filter(|&(_, &len)| len > 0)
            .map(|(rec, _)| rec.id)
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

    /// Internal consistency check (dense arrays, segments, counters).
    pub fn validate(&self) -> Result<(), String> {
        let mut total = 0usize;
        for (&u, &s) in &self.slot_of {
            let rec = self
                .nodes
                .get(s as usize)
                .ok_or_else(|| format!("slot {s} of {u} out of range"))?;
            let len = self.lens[s as usize];
            if rec.id != u {
                return Err(format!("slot {s} holds {:?}, expected {u}", rec.id));
            }
            if len == 0 {
                return Err(format!("live node {u} has empty Sim"));
            }
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
                        if m.owner != u {
                            return Err(format!("owner mirror of {z} is {} != {u}", m.owner));
                        }
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

pub mod oracle {
    //! The previous `FxHashMap`-backed Φ, kept verbatim as the
    //! differential-test oracle (and the "before" side of `bench_heal`'s
    //! Φ-kernel comparison). Semantics are identical to
    //! [`VirtualMapping`](super::VirtualMapping), including `Sim` slice
    //! order (push + swap-remove).

    use dex_graph::fxhash::FxHashMap;
    use dex_graph::ids::{NodeId, VertexId};

    /// HashMap-backed Φ with the same API surface as the slot-arena
    /// implementation.
    #[derive(Clone)]
    pub struct HashMapping {
        owner: FxHashMap<VertexId, NodeId>,
        sim: FxHashMap<NodeId, Vec<VertexId>>,
        spare_count: usize,
        low_count: usize,
        zeta: u64,
    }

    impl HashMapping {
        /// Empty mapping with the given ζ.
        pub fn new(zeta: u64) -> Self {
            HashMapping {
                owner: FxHashMap::default(),
                sim: FxHashMap::default(),
                spare_count: 0,
                low_count: 0,
                zeta,
            }
        }

        /// Number of vertices assigned.
        pub fn num_vertices(&self) -> usize {
            self.owner.len()
        }

        /// Number of nodes simulating at least one vertex.
        pub fn num_nodes(&self) -> usize {
            self.sim.len()
        }

        /// Owner of vertex `z`, if assigned.
        #[inline]
        pub fn owner(&self, z: VertexId) -> Option<NodeId> {
            self.owner.get(&z).copied()
        }

        /// Owner of vertex `z`; panics when unassigned.
        #[inline]
        pub fn owner_of(&self, z: VertexId) -> NodeId {
            self.owner[&z]
        }

        /// The `Sim` set of node `u`.
        pub fn sim(&self, u: NodeId) -> &[VertexId] {
            self.sim.get(&u).map(Vec::as_slice).unwrap_or(&[])
        }

        /// Load of `u`.
        #[inline]
        pub fn load(&self, u: NodeId) -> u64 {
            self.sim.get(&u).map(|v| v.len() as u64).unwrap_or(0)
        }

        /// `|Spare|`.
        pub fn spare_count(&self) -> usize {
            self.spare_count
        }

        /// `|Low|`.
        pub fn low_count(&self) -> usize {
            self.low_count
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

        /// Assign an unowned vertex `z` to `u`.
        pub fn assign(&mut self, z: VertexId, u: NodeId) {
            let prev = self.owner.insert(z, u);
            assert!(prev.is_none(), "vertex {z} already owned by {:?}", prev);
            let list = self.sim.entry(u).or_default();
            list.push(z);
            let after = list.len() as u64;
            self.count_delta(after - 1, after);
        }

        /// Remove vertex `z`; returns its former owner.
        pub fn unassign(&mut self, z: VertexId) -> NodeId {
            let u = self
                .owner
                .remove(&z)
                .unwrap_or_else(|| panic!("vertex {z} not assigned"));
            let after = {
                let list = self.sim.get_mut(&u).expect("sim list missing");
                let pos = list
                    .iter()
                    .position(|&w| w == z)
                    .expect("sim entry missing");
                list.swap_remove(pos);
                list.len() as u64
            };
            self.count_delta(after + 1, after);
            if after == 0 {
                self.sim.remove(&u);
            }
            u
        }

        /// Move vertex `z` to node `to`; returns the former owner.
        pub fn transfer(&mut self, z: VertexId, to: NodeId) -> NodeId {
            let from = self.unassign(z);
            self.assign(z, to);
            from
        }

        /// All `(vertex, owner)` pairs, sorted by vertex — the original
        /// collect-and-sort path, kept as the canonical-order oracle.
        pub fn entries_sorted(&self) -> Vec<(VertexId, NodeId)> {
            let mut v: Vec<(VertexId, NodeId)> = self.owner.iter().map(|(&z, &u)| (z, u)).collect();
            v.sort_unstable();
            v
        }

        /// Nodes simulating at least one vertex (unsorted).
        pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
            self.sim.keys().copied()
        }

        /// Maximum load over all mapped nodes.
        pub fn max_load(&self) -> u64 {
            self.sim.values().map(|v| v.len() as u64).max().unwrap_or(0)
        }
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
    fn entries_are_vertex_ordered() {
        let mut m = VirtualMapping::new(8);
        for i in [5u64, 2, 9, 0, 7] {
            m.assign(z(i), n(i % 3));
        }
        let got: Vec<u64> = m.entries().map(|(z, _)| z.0).collect();
        assert_eq!(got, vec![0, 2, 5, 7, 9]);
        assert_eq!(m.entries_sorted().len(), 5);
    }

    #[test]
    fn matches_hashmap_oracle_under_random_churn() {
        use oracle::HashMapping;
        let mut fast = VirtualMapping::new(8);
        let mut slow = HashMapping::new(8);
        let mut state = 0x5eedu64;
        let mut rnd = || {
            // splitmix64 step — self-contained deterministic stream.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        let mut live: Vec<u64> = Vec::new();
        for step in 0..4000u64 {
            let r = rnd();
            if live.len() < 40 || r % 3 != 0 {
                // assign or transfer
                let v = r % 512;
                let u = n(rnd() % 37);
                if fast.owner(z(v)).is_some() {
                    assert_eq!(fast.transfer(z(v), u), slow.transfer(z(v), u));
                } else {
                    fast.assign(z(v), u);
                    slow.assign(z(v), u);
                    live.push(v);
                }
            } else if let Some(&v) = live.get((r / 7) as usize % live.len().max(1)) {
                if fast.owner(z(v)).is_some() {
                    assert_eq!(fast.unassign(z(v)), slow.unassign(z(v)));
                    live.retain(|&w| w != v);
                }
            }
            if step % 64 == 0 {
                fast.validate().unwrap();
            }
            assert_eq!(fast.num_vertices(), slow.num_vertices());
            assert_eq!(fast.num_nodes(), slow.num_nodes());
            assert_eq!(fast.spare_count(), slow.spare_count());
            assert_eq!(fast.low_count(), slow.low_count());
        }
        for u in 0..37u64 {
            assert_eq!(fast.sim(n(u)), slow.sim(n(u)), "sim({u}) diverged");
        }
        assert_eq!(fast.entries_sorted(), slow.entries_sorted());
    }
}
