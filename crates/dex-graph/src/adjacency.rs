//! A dynamic undirected multigraph with self-loops, stored in a slot arena,
//! with a compact CSR form built on demand.
//!
//! The real network maintained by DEX is the image of the virtual p-cycle
//! under a vertex contraction (paper, Sect. 3.1), and contractions produce
//! parallel edges and self-loops. Those must be kept — they carry weight in
//! the random-walk operator, and Lemma 1 (λ_G ≤ λ_Z) only holds for the true
//! contracted multigraph.
//!
//! # Storage model: slots
//!
//! Nodes live in dense `u32` **slots** with a free-list: inserting a node
//! reuses the most recently vacated slot (LIFO) or appends a new one
//! ([`MultiGraph::insert_node`] returns it). Neighbor lists are stored per
//! slot as contiguous `Vec<u32>` of *slot indices*, so every hot loop —
//! random walks, floods, spectral mat-vecs, expansion checks — runs on
//! dense indices with no hashing and no per-step heap allocation.
//!
//! The `NodeId → slot` translation (one `FxHashMap` probe) belongs to the
//! edge of a *caller's* work, not to every call: the `NodeId`-speaking
//! entry points (`add_edge`, `remove_edge`, `degree`, `neighbors`, …) each
//! pay it per argument, while the slot-space API —
//! [`MultiGraph::slot_of`] / [`MultiGraph::id_of_slot`] /
//! [`MultiGraph::neighbor_slots`] / [`MultiGraph::add_edge_slots`] /
//! [`MultiGraph::remove_edge_slots`] — lets a caller resolve an id once
//! and then read and edit rows by index. DEX's healing path goes one step
//! further: its virtual mapping Φ is slotted by *this* arena (a node's Φ
//! slot is its graph slot — `dex_core::mapping`), so the owner slot Φ
//! stores for a vertex is already the row to edit, and a type-1 step
//! translates only the ids the adversary names. A slot stays valid until
//! its node is removed; a removed node's slot is dead until recycled.
//!
//! A slot is one 32-byte record, so two share a cache line: the node's id
//! and its row's `Vec` header (pointer, capacity, length). A free slot
//! carries the reserved id [`NodeId::VACANT`], which no node may have, in
//! place of a separate liveness flag (which padded the record to 40
//! bytes).
//!
//! # Row edits: touch first
//!
//! Editing a row costs two dependent cache misses on a large arena: the
//! slot record, then the heap row it points to. A type-1 healing step
//! edits about a dozen rows, none of which it has read before, and each
//! edit would wait for its own two misses. [`MultiGraph::touch_rows`]
//! reads a batch of records and then the ends of their rows, each pass a
//! run of independent loads, so the misses of the whole batch overlap;
//! the edits that follow run on cached lines. [`MultiGraph::remove_node`]
//! touches the victim's neighbours before it clears their entries, and
//! `dex_core::fabric` touches the owner rows of a vertex move's edge
//! instances before its first edit. The edits, and their order, do not
//! change.
//!
//! # CSR form: built on demand
//!
//! Numeric code (spectral solvers, exact expansion) wants a compact CSR
//! view in dense indices. [`MultiGraph::csr`] builds one from scratch into
//! an owned [`Csr`], O(n + m); a measurement builds it once and runs on
//! it. The graph keeps no cached copy, so mutations do no bookkeeping for
//! one: on a 2-CPU Xeon, a build of a 20k-node p-cycle takes about
//! 0.4 ms, and a warm-started λ₂ measurement of it about 100 ms.
//!
//! Conventions:
//! * a self-loop at `u` appears **once** in `adj[u]` and contributes **1** to
//!   `degree(u)` — this matches Definition 1, where the p-cycle is called
//!   3-regular with vertex 0 carrying a self-loop;
//! * a parallel edge appears once per copy;
//! * `num_edges` counts undirected edges with multiplicity (self-loops
//!   count 1);
//! * CSR dense indices order nodes ascending by id (deterministic numerics).

use crate::fxhash::FxHashMap;
use crate::ids::NodeId;
use rand::Rng;
use std::collections::hash_map::Entry;

/// Sentinel dense index for dead slots.
const NO_DENSE: u32 = u32::MAX;

/// Floor capacity of a slot's adjacency list. DEX keeps deg(u) ≤ 3·load(u)
/// with typical steady-state loads ≤ 8, so 32 entries (one 128-byte
/// allocation) covers almost every node for its whole lifetime — growth
/// reallocs on the healing hot path all but disappear.
const ADJ_MIN_CAP: usize = 32;

/// One arena record: 32 bytes, so two share a 64-byte cache line.
#[derive(Clone)]
struct Slot {
    /// The node in the slot; [`NodeId::VACANT`] while the slot is free.
    id: NodeId,
    /// Neighbor multiset as slot indices; a self-loop appears once.
    adj: Vec<u32>,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

impl Slot {
    /// Is a node in this slot? (A freed slot carries the reserved id.)
    #[inline]
    fn alive(&self) -> bool {
        self.id != NodeId::VACANT
    }
}

/// Dynamic undirected multigraph in a slot arena. See module docs.
#[derive(Clone)]
pub struct MultiGraph {
    slots: Vec<Slot>,
    index: FxHashMap<NodeId, u32>,
    free: Vec<u32>,
    live: usize,
    num_edges: usize,
}

impl Default for MultiGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiGraph {
    /// Empty graph.
    pub fn new() -> Self {
        MultiGraph {
            slots: Vec::new(),
            index: FxHashMap::default(),
            free: Vec::new(),
            live: 0,
            num_edges: 0,
        }
    }

    /// Empty graph with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        MultiGraph {
            slots: Vec::with_capacity(n),
            index: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            ..Self::new()
        }
    }

    /// Empty graph whose `NodeId → slot` index has room for `n` nodes, so
    /// adding them never rehashes it. The slot array is not sized: it
    /// grows by doubling, and sized to exactly `n` it would double at
    /// once on the first node past `n` — at n = 500k that costs 18 MB of
    /// peak RSS on `benchmark/`'s `churn`. (The index is a hash table with
    /// head room of its own: 2²⁰ buckets at n = 500k.)
    pub fn with_id_capacity(n: usize) -> Self {
        MultiGraph {
            index: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            ..Self::new()
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.live
    }

    /// Number of undirected edges, counted with multiplicity
    /// (self-loops count 1).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Does the graph contain `u`?
    #[inline]
    pub fn has_node(&self, u: NodeId) -> bool {
        self.index.contains_key(&u)
    }

    // ---- slot-space API (hot loops) ---------------------------------------

    /// Slot of node `u`, if present. Resolve once, then stay in slot space.
    #[inline]
    pub fn slot_of(&self, u: NodeId) -> Option<u32> {
        self.index.get(&u).copied()
    }

    /// Node id stored in `slot`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the slot is dead; callers own liveness.
    #[inline]
    pub fn id_of_slot(&self, slot: u32) -> NodeId {
        debug_assert!(self.slots[slot as usize].alive(), "dead slot {slot}");
        self.slots[slot as usize].id
    }

    /// Neighbor multiset of `slot` as slot indices (self-loops appear as
    /// the slot itself, once per loop; parallel edges once per copy).
    #[inline]
    pub fn neighbor_slots(&self, slot: u32) -> &[u32] {
        &self.slots[slot as usize].adj
    }

    /// Is `slot` currently occupied by a live node? (Dead slots linger in
    /// the arena until the free list recycles them.)
    #[inline]
    pub fn slot_alive(&self, slot: u32) -> bool {
        self.slots.get(slot as usize).is_some_and(Slot::alive)
    }

    /// The dead slots below [`Self::slot_bound`], each once, in the order
    /// the free list will recycle them (last first). Lets a slot-indexed
    /// pass tell dead slots from live ones without reading the arena.
    #[inline]
    pub fn free_slots(&self) -> &[u32] {
        &self.free
    }

    /// Degree of `slot`.
    #[inline]
    pub fn degree_of_slot(&self, slot: u32) -> usize {
        self.slots[slot as usize].adj.len()
    }

    /// Exclusive upper bound on slot indices currently in use (dead slots
    /// included). Sizes slot-indexed scratch buffers.
    #[inline]
    pub fn slot_bound(&self) -> usize {
        self.slots.len()
    }

    /// One uniform random-walk step in slot space: a uniformly random
    /// adjacency entry, so parallel edges weight their endpoint and a
    /// self-loop stays put with probability `1/deg`.
    ///
    /// # Panics
    /// Panics if the slot is isolated.
    #[inline]
    pub fn step_slot<R: Rng + ?Sized>(&self, slot: u32, rng: &mut R) -> u32 {
        let adj = &self.slots[slot as usize].adj;
        assert!(
            !adj.is_empty(),
            "random walk stuck at isolated node {}",
            self.slots[slot as usize].id
        );
        adj[rng.random_range(0..adj.len())]
    }

    /// Walk `len` uniform steps from `slot`; returns the final slot. No
    /// heap allocation: each hop is two array reads and one RNG draw.
    #[inline]
    pub fn walk_slots<R: Rng + ?Sized>(&self, mut slot: u32, len: usize, rng: &mut R) -> u32 {
        for _ in 0..len {
            slot = self.step_slot(slot, rng);
        }
        slot
    }

    /// Read the record of every slot in `slots`, then the first and last
    /// entry of its row, and nothing else. Each pass is a run of
    /// independent loads, so a batch of rows pays its cache misses
    /// together instead of one after another; the edits that follow find
    /// their records and the ends of their rows cached (a removal scans a
    /// row from its start, an addition writes at its end). Duplicates and
    /// empty rows are fine. Dead slots read as empty rows.
    pub fn touch_rows(&self, slots: &[u32]) {
        let mut acc = 0usize;
        for &s in slots {
            let row = &self.slots[s as usize].adj;
            acc ^= row.as_ptr() as usize ^ row.len();
        }
        for &s in slots {
            let row = &self.slots[s as usize].adj;
            if let (Some(&a), Some(&b)) = (row.first(), row.last()) {
                acc ^= (a ^ b) as usize;
            }
        }
        // The fold is what the loads feed; it keeps them from being
        // dropped as dead code.
        std::hint::black_box(acc);
    }

    // ---- mutation ---------------------------------------------------------

    /// Insert an isolated node. Returns `false` if it already existed.
    pub fn add_node(&mut self, u: NodeId) -> bool {
        self.insert_node(u).is_some()
    }

    /// Insert an isolated node and return its slot (`None` if it already
    /// existed): the most recently vacated slot, else a fresh one. One
    /// probe of the id index serves the membership test and the insertion.
    ///
    /// # Panics
    /// Panics if `u` is [`NodeId::VACANT`], the id that marks a freed slot.
    pub fn insert_node(&mut self, u: NodeId) -> Option<u32> {
        assert_ne!(u, NodeId::VACANT, "insert_node: the id of a freed slot");
        let Entry::Vacant(entry) = self.index.entry(u) else {
            return None;
        };
        let slot = match self.free.pop() {
            Some(s) => {
                let cell = &mut self.slots[s as usize];
                debug_assert!(!cell.alive() && cell.adj.is_empty());
                cell.id = u;
                if cell.adj.capacity() < ADJ_MIN_CAP {
                    cell.adj.reserve(ADJ_MIN_CAP);
                }
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("more than u32::MAX nodes");
                self.slots.push(Slot {
                    id: u,
                    adj: Vec::with_capacity(ADJ_MIN_CAP),
                });
                s
            }
        };
        entry.insert(slot);
        self.live += 1;
        Some(slot)
    }

    /// Remove `u` and all incident edges (including parallel copies and
    /// loops). Returns the number of undirected edges removed, or `None` if
    /// `u` was not present.
    pub fn remove_node(&mut self, u: NodeId) -> Option<usize> {
        let slot = self.index.remove(&u)?;
        let mut incident = std::mem::take(&mut self.slots[slot as usize].adj);
        self.touch_rows(&incident);
        let mut removed = 0usize;
        for &v in &incident {
            removed += 1;
            if v != slot {
                let list = &mut self.slots[v as usize].adj;
                let pos = list
                    .iter()
                    .position(|&w| w == slot)
                    .expect("adjacency symmetry violated: missing reverse entry");
                list.swap_remove(pos);
            }
        }
        // Hand the (cleared) list back to the slot: its capacity is reused
        // when the free-list recycles the slot, keeping steady-state
        // delete→insert churn allocation-free.
        incident.clear();
        self.slots[slot as usize] = Slot {
            id: NodeId::VACANT,
            adj: incident,
        };
        self.free.push(slot);
        self.live -= 1;
        self.num_edges -= removed;
        Some(removed)
    }

    /// Split the arena into disjoint mutable borrows of two *distinct*
    /// slots' adjacency lists. Pure `split_at_mut` borrow splitting — no
    /// interior mutability, no unsafe — so callers holding both halves can
    /// edit an edge's two endpoint rows without re-borrowing `self`
    /// between them.
    #[inline]
    fn adj_pair_mut(&mut self, a: u32, b: u32) -> (&mut Vec<u32>, &mut Vec<u32>) {
        debug_assert_ne!(a, b, "adj_pair_mut needs distinct slots");
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        let (left, right) = self.slots.split_at_mut(hi);
        let (lo_adj, hi_adj) = (&mut left[lo].adj, &mut right[0].adj);
        if a < b {
            (lo_adj, hi_adj)
        } else {
            (hi_adj, lo_adj)
        }
    }

    /// Add one copy of the undirected edge `{u, v}` (which may be a
    /// self-loop or a parallel copy). Both endpoints must exist.
    ///
    /// # Panics
    /// Panics if either endpoint is missing — the caller owns membership.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        let su = *self
            .index
            .get(&u)
            .unwrap_or_else(|| panic!("add_edge: missing endpoint {u}"));
        let sv = *self
            .index
            .get(&v)
            .unwrap_or_else(|| panic!("add_edge: missing endpoint {v}"));
        self.add_edge_slots(su, sv);
    }

    /// [`Self::add_edge`] in slot space: the hot batch paths resolve each
    /// endpoint's slot once per healing plan instead of twice per edge
    /// instance. Both slots must be live.
    pub fn add_edge_slots(&mut self, su: u32, sv: u32) {
        debug_assert!(self.slot_alive(su) && self.slot_alive(sv));
        if su == sv {
            self.slots[su as usize].adj.push(su);
        } else {
            let (lu, lv) = self.adj_pair_mut(su, sv);
            lu.push(sv);
            lv.push(su);
        }
        self.num_edges += 1;
    }

    /// Write every live row of an edgeless graph in one slot-order pass:
    /// `fill(slot, row)` appends the slot's neighbour multiset to its
    /// empty row (a self-loop once, a parallel edge once per copy). A bulk
    /// builder that knows each node's neighbourhood writes every row once,
    /// in its final order, instead of pushing each edge onto two rows.
    /// The caller owns symmetry: each entry `v ≠ u` in row `u` needs an
    /// entry `u` in row `v`, as many times. The edge count follows from
    /// the rows, (entries + loops) / 2.
    ///
    /// # Panics
    /// Panics if the graph already has an edge.
    pub fn fill_rows(&mut self, mut fill: impl FnMut(u32, &mut Vec<u32>)) {
        assert_eq!(self.num_edges, 0, "fill_rows needs an edgeless graph");
        let mut ends = 0usize;
        for (slot, cell) in self.slots.iter_mut().enumerate() {
            if !cell.alive() {
                continue;
            }
            let slot = slot as u32;
            fill(slot, &mut cell.adj);
            ends += cell.adj.len() + cell.adj.iter().filter(|&&v| v == slot).count();
        }
        debug_assert!(ends.is_multiple_of(2), "fill_rows: asymmetric rows");
        self.num_edges = ends / 2;
    }

    /// Remove one copy of the undirected edge `{u, v}`. Returns `true` if a
    /// copy existed and was removed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let (Some(&su), Some(&sv)) = (self.index.get(&u), self.index.get(&v)) else {
            return false;
        };
        self.remove_edge_slots(su, sv)
    }

    /// [`Self::remove_edge`] in slot space (see [`Self::add_edge_slots`]).
    /// Both slots must be live.
    pub fn remove_edge_slots(&mut self, su: u32, sv: u32) -> bool {
        debug_assert!(self.slot_alive(su) && self.slot_alive(sv));
        if su == sv {
            let lu = &mut self.slots[su as usize].adj;
            let Some(pos) = lu.iter().position(|&w| w == su) else {
                return false;
            };
            lu.swap_remove(pos);
        } else {
            let (lu, lv) = self.adj_pair_mut(su, sv);
            let Some(pos) = lu.iter().position(|&w| w == sv) else {
                return false;
            };
            lu.swap_remove(pos);
            let pos = lv
                .iter()
                .position(|&w| w == su)
                .expect("adjacency symmetry violated: missing reverse entry");
            lv.swap_remove(pos);
        }
        self.num_edges -= 1;
        true
    }

    // ---- queries ----------------------------------------------------------

    /// Degree of `u` (self-loop counts 1, parallel edges count each).
    ///
    /// # Panics
    /// Panics if `u` is not in the graph.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.slots[self.index[&u] as usize].adj.len()
    }

    /// Neighbor multiset of `u` (self-loops appear as `u` itself). The
    /// returned view yields [`NodeId`]s; iterate it directly or index with
    /// [`Neighbors::at`]. For tight loops prefer staying in slot space via
    /// [`MultiGraph::neighbor_slots`].
    ///
    /// # Panics
    /// Panics if `u` is not in the graph.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> Neighbors<'_> {
        let slot = self.index[&u];
        Neighbors {
            graph: self,
            slots: &self.slots[slot as usize].adj,
        }
    }

    /// Multiplicity of the undirected edge `{u, v}` (0 if absent).
    pub fn edge_multiplicity(&self, u: NodeId, v: NodeId) -> usize {
        match (self.index.get(&u), self.index.get(&v)) {
            (Some(&su), Some(&sv)) => self.slots[su as usize]
                .adj
                .iter()
                .filter(|&&w| w == sv)
                .count(),
            _ => 0,
        }
    }

    /// Is there at least one copy of `{u, v}`?
    #[inline]
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_multiplicity(u, v) > 0
    }

    /// Iterator over node ids (slot order; deterministic for a fixed
    /// insert/remove history).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots.iter().filter(|s| s.alive()).map(|s| s.id)
    }

    /// Node ids in ascending order (canonical order for reporting).
    pub fn nodes_sorted(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.nodes().collect();
        v.sort_unstable();
        v
    }

    /// Enumerate undirected edges with multiplicity; each parallel copy is
    /// yielded once, with endpoints ordered `u <= v`.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for s in self.slots.iter().filter(|s| s.alive()) {
            for &v in &s.adj {
                let vid = self.slots[v as usize].id;
                if s.id <= vid {
                    out.push((s.id, vid));
                }
            }
        }
        out
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.alive())
            .map(|s| s.adj.len())
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree over all nodes (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.alive())
            .map(|s| s.adj.len())
            .min()
            .unwrap_or(0)
    }

    /// Sum of all degrees. Equals `2·edges − loops` under our conventions.
    pub fn degree_sum(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.alive())
            .map(|s| s.adj.len())
            .sum()
    }

    /// Consistency check: every directed entry has its reverse, edge count
    /// matches, no dangling endpoints, arena bookkeeping is coherent. Used
    /// by tests and invariant checkers.
    pub fn validate(&self) -> Result<(), String> {
        // Arena bookkeeping.
        let alive = self.slots.iter().filter(|s| s.alive()).count();
        if alive != self.live {
            return Err(format!("live count {} != alive slots {alive}", self.live));
        }
        if self.index.len() != self.live {
            return Err(format!(
                "index size {} != live count {}",
                self.index.len(),
                self.live
            ));
        }
        for (&id, &slot) in &self.index {
            let s = self
                .slots
                .get(slot as usize)
                .ok_or_else(|| format!("index maps {id} to out-of-range slot {slot}"))?;
            if !s.alive() || s.id != id {
                return Err(format!("index maps {id} to stale slot {slot}"));
            }
        }
        for &f in &self.free {
            let s = &self.slots[f as usize];
            if s.alive() {
                return Err(format!("free list contains live slot {f}"));
            }
            if !s.adj.is_empty() {
                return Err(format!("dead slot {f} has residual adjacency"));
            }
        }
        // Adjacency symmetry and edge count.
        let mut directed = 0usize;
        let mut loops = 0usize;
        for (si, s) in self.slots.iter().enumerate() {
            if !s.alive() {
                continue;
            }
            let si = si as u32;
            for &v in &s.adj {
                let t = self
                    .slots
                    .get(v as usize)
                    .ok_or_else(|| format!("edge {}->slot {v} out of range", s.id))?;
                if !t.alive() {
                    return Err(format!("edge {}->slot {v} dangles: slot dead", s.id));
                }
                if v == si {
                    loops += 1;
                    directed += 2; // a loop is its own reverse
                    continue;
                }
                directed += 1;
                let fwd = s.adj.iter().filter(|&&w| w == v).count();
                let rev = t.adj.iter().filter(|&&w| w == si).count();
                if fwd != rev {
                    return Err(format!(
                        "asymmetric multiplicity {}<->{}: {fwd} vs {rev}",
                        s.id, t.id
                    ));
                }
            }
        }
        let undirected = directed / 2;
        if undirected != self.num_edges {
            return Err(format!(
                "edge count mismatch: counted {undirected} (loops {loops}), cached {}",
                self.num_edges
            ));
        }
        Ok(())
    }

    // ---- CSR form ---------------------------------------------------------

    /// Compressed sparse row form in dense indices, built from scratch.
    /// Dense index `i` is the `i`-th node in ascending id order, so numeric
    /// code over it is deterministic. A self-loop contributes a single
    /// entry, matching `degree`. O(n + m).
    pub fn csr(&self) -> Csr {
        let mut order: Vec<NodeId> = self.nodes().collect();
        order.sort_unstable();
        let mut dense_of_slot = vec![NO_DENSE; self.slots.len()];
        for (i, &u) in order.iter().enumerate() {
            dense_of_slot[self.index[&u] as usize] = i as u32;
        }
        let mut offsets = Vec::with_capacity(order.len() + 1);
        let mut targets = Vec::with_capacity(self.degree_sum());
        offsets.push(0u32);
        for &u in &order {
            let slot = self.index[&u];
            for &v in &self.slots[slot as usize].adj {
                targets.push(dense_of_slot[v as usize]);
            }
            offsets.push(targets.len() as u32);
        }
        Csr {
            order,
            offsets,
            targets,
        }
    }
}

impl std::fmt::Debug for MultiGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MultiGraph(n={}, m={}, Δ={})",
            self.num_nodes(),
            self.num_edges(),
            self.max_degree(),
        )
    }
}

/// Borrowed view of a node's neighbor multiset, yielding [`NodeId`]s while
/// the underlying storage stays in slot space.
#[derive(Clone, Copy)]
pub struct Neighbors<'g> {
    graph: &'g MultiGraph,
    slots: &'g [u32],
}

impl<'g> Neighbors<'g> {
    /// Number of entries (= degree).
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the neighbor list empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Id of the `i`-th adjacency entry.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn at(&self, i: usize) -> NodeId {
        self.graph.id_of_slot(self.slots[i])
    }

    /// Iterate entries as node ids.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + 'g {
        let graph = self.graph;
        self.slots.iter().map(move |&s| graph.id_of_slot(s))
    }

    /// Does the multiset contain `v`?
    pub fn contains(&self, v: NodeId) -> bool {
        self.iter().any(|w| w == v)
    }

    /// Copy out as a vector of ids.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl<'g> IntoIterator for Neighbors<'g> {
    type Item = NodeId;
    type IntoIter = NeighborsIter<'g>;

    fn into_iter(self) -> NeighborsIter<'g> {
        NeighborsIter {
            graph: self.graph,
            inner: self.slots.iter(),
        }
    }
}

impl<'g> IntoIterator for &Neighbors<'g> {
    type Item = NodeId;
    type IntoIter = NeighborsIter<'g>;

    fn into_iter(self) -> NeighborsIter<'g> {
        (*self).into_iter()
    }
}

/// Iterator over a [`Neighbors`] view.
pub struct NeighborsIter<'g> {
    graph: &'g MultiGraph,
    inner: std::slice::Iter<'g, u32>,
}

impl Iterator for NeighborsIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.inner.next().map(|&s| self.graph.id_of_slot(s))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for NeighborsIter<'_> {}

/// Compressed sparse row form of a [`MultiGraph`] (see [`MultiGraph::csr`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Csr {
    /// Dense-index → node id (ascending by id).
    pub order: Vec<NodeId>,
    /// Row offsets, length `n + 1`.
    pub offsets: Vec<u32>,
    /// Concatenated neighbor lists (dense indices).
    pub targets: Vec<u32>,
}

impl Csr {
    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.order.len()
    }

    /// Neighbors of dense index `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree of dense index `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn triangle() -> MultiGraph {
        let mut g = MultiGraph::new();
        for i in 0..3 {
            g.add_node(n(i));
        }
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(0));
        g
    }

    #[test]
    fn basic_construction() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(n(0)), 2);
        assert!(g.contains_edge(n(0), n(1)));
        assert!(!g.contains_edge(n(0), n(0)));
        g.validate().unwrap();
    }

    #[test]
    fn self_loop_counts_once() {
        let mut g = MultiGraph::new();
        g.add_node(n(0));
        g.add_edge(n(0), n(0));
        assert_eq!(g.degree(n(0)), 1);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_multiplicity(n(0), n(0)), 1);
        g.validate().unwrap();
        assert!(g.remove_edge(n(0), n(0)));
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn parallel_edges_tracked_with_multiplicity() {
        let mut g = MultiGraph::new();
        g.add_node(n(0));
        g.add_node(n(1));
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(0));
        assert_eq!(g.edge_multiplicity(n(0), n(1)), 3);
        assert_eq!(g.degree(n(0)), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.remove_edge(n(0), n(1)));
        assert_eq!(g.edge_multiplicity(n(1), n(0)), 2);
        g.validate().unwrap();
    }

    #[test]
    fn remove_node_cleans_reverse_entries() {
        let mut g = triangle();
        g.add_edge(n(0), n(0)); // loop
        g.add_edge(n(0), n(1)); // parallel copy
        let removed = g.remove_node(n(0)).unwrap();
        assert_eq!(removed, 4); // 0-1, 0-2, loop, parallel 0-1
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1); // only 1-2 survives
        assert_eq!(g.degree(n(1)), 1);
        g.validate().unwrap();
    }

    #[test]
    fn remove_missing_returns_none_or_false() {
        let mut g = triangle();
        assert!(g.remove_node(n(99)).is_none());
        assert!(!g.remove_edge(n(0), n(99)));
        assert!(!g.remove_edge(n(99), n(0)));
    }

    #[test]
    fn edges_enumeration_covers_multiplicity() {
        let mut g = MultiGraph::new();
        g.add_node(n(0));
        g.add_node(n(1));
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(1));
        let mut e = g.edges();
        e.sort();
        assert_eq!(e, vec![(n(0), n(1)), (n(0), n(1)), (n(1), n(1))]);
    }

    #[test]
    fn csr_matches_graph() {
        let mut g = triangle();
        g.add_edge(n(1), n(1));
        let csr = g.csr();
        assert_eq!(csr.n(), 3);
        // order is ascending by id, so dense index i == node id i here.
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(1), 3);
        let mut row1: Vec<u32> = csr.row(1).to_vec();
        row1.sort_unstable();
        assert_eq!(row1, vec![0, 1, 2]);
    }

    #[test]
    fn degree_sum_identity() {
        let mut g = triangle();
        g.add_edge(n(0), n(0));
        // degree_sum = 2·(non-loop edges) + 1·loops = 2*3 + 1 = 7
        assert_eq!(g.degree_sum(), 7);
    }

    #[test]
    #[should_panic(expected = "missing endpoint")]
    fn add_edge_requires_endpoints() {
        let mut g = MultiGraph::new();
        g.add_node(n(0));
        g.add_edge(n(0), n(1));
    }

    // ---- arena behaviour --------------------------------------------------

    #[test]
    fn slots_are_reused_after_removal() {
        let mut g = MultiGraph::new();
        for i in 0..4 {
            g.add_node(n(i));
        }
        assert_eq!(g.slot_bound(), 4);
        g.remove_node(n(1)).unwrap();
        g.remove_node(n(3)).unwrap();
        // LIFO: the most recently vacated slot first; an existing id gets none.
        assert_eq!(g.insert_node(n(10)), Some(3));
        assert_eq!(g.insert_node(n(11)), Some(1));
        assert_eq!(g.insert_node(n(10)), None);
        // Freed slots were recycled: the arena did not grow.
        assert_eq!(g.slot_bound(), 4);
        assert_eq!(g.num_nodes(), 4);
        g.validate().unwrap();
    }

    #[test]
    fn recycled_slots_read_correctly_over_many_reuses() {
        let mut g = MultiGraph::new();
        for i in 0..6 {
            g.add_node(n(i));
        }
        for i in 0..6 {
            g.add_edge(n(i), n((i + 1) % 6));
        }
        let bound = g.slot_bound();
        let mut fresh = 100;
        for _ in 0..5 {
            // Free two slots: they read dead, through every view.
            let live: Vec<NodeId> = g.nodes().collect();
            let victims = [live[0], live[live.len() - 1]];
            let freed: Vec<u32> = victims.iter().map(|&u| g.slot_of(u).unwrap()).collect();
            for &u in &victims {
                g.remove_node(u).unwrap();
            }
            for &s in &freed {
                assert!(!g.slot_alive(s));
                assert!(g.free_slots().contains(&s));
            }
            assert_eq!(g.nodes().count(), g.num_nodes());
            assert!(g.nodes().all(|u| !victims.contains(&u)));
            g.touch_rows(&(0..bound as u32).collect::<Vec<_>>());
            g.validate().unwrap();
            // Recycle them, last freed first, each joined to a survivor.
            let anchor = g.nodes().next().unwrap();
            for &s in freed.iter().rev() {
                let u = n(fresh);
                fresh += 1;
                assert_eq!(g.insert_node(u), Some(s));
                assert!(g.slot_alive(s));
                assert_eq!(g.id_of_slot(s), u);
                assert!(!g.free_slots().contains(&s));
                g.add_edge(u, anchor);
            }
            assert!(g.free_slots().is_empty());
            assert_eq!(g.slot_bound(), bound);
            assert_eq!(g.nodes().count(), 6);
            g.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "the id of a freed slot")]
    fn the_vacant_id_cannot_be_inserted() {
        MultiGraph::new().insert_node(NodeId::VACANT);
    }

    #[test]
    fn slot_space_round_trips() {
        let g = triangle();
        for u in g.nodes() {
            let s = g.slot_of(u).unwrap();
            assert_eq!(g.id_of_slot(s), u);
            assert_eq!(g.degree_of_slot(s), g.degree(u));
            let via_slots: Vec<NodeId> = g
                .neighbor_slots(s)
                .iter()
                .map(|&t| g.id_of_slot(t))
                .collect();
            assert_eq!(via_slots, g.neighbors(u).to_vec());
        }
        assert_eq!(g.slot_of(n(99)), None);
    }

    #[test]
    fn neighbors_view_api() {
        let mut g = triangle();
        g.add_edge(n(0), n(0));
        let nbrs = g.neighbors(n(0));
        assert_eq!(nbrs.len(), 3);
        assert!(!nbrs.is_empty());
        assert!(nbrs.contains(n(0)) && nbrs.contains(n(1)) && nbrs.contains(n(2)));
        let mut collected: Vec<NodeId> = nbrs.iter().collect();
        collected.sort_unstable();
        assert_eq!(collected, vec![n(0), n(1), n(2)]);
        let mut by_index: Vec<NodeId> = (0..nbrs.len()).map(|i| nbrs.at(i)).collect();
        by_index.sort_unstable();
        assert_eq!(by_index, collected);
        let mut by_for: Vec<NodeId> = Vec::new();
        for v in g.neighbors(n(0)) {
            by_for.push(v);
        }
        by_for.sort_unstable();
        assert_eq!(by_for, collected);
    }

    #[test]
    fn walk_slots_stays_in_graph() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = triangle();
        let mut rng = StdRng::seed_from_u64(1);
        let start = g.slot_of(n(0)).unwrap();
        for len in [0, 1, 5, 50] {
            let end = g.walk_slots(start, len, &mut rng);
            assert!(g.has_node(g.id_of_slot(end)));
        }
    }
}
