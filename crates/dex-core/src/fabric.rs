//! Edge fabric: keeping the physical network equal to the contraction of
//! the virtual graph under Φ.
//!
//! Every virtual edge `(z₁, z₂) ∈ E(Z)` must be realized by a physical edge
//! `(Φ(z₁), Φ(z₂))` — with multiplicity, because the real network is the
//! *contraction image* of `Z` (Definition 2 + Lemma 1; parallel edges and
//! loops carry spectral weight). This module enumerates edge instances
//! canonically (each undirected virtual edge counted exactly once), applies
//! vertex moves with O(1) topology changes, and rebuilds the fabric by
//! multiset diff after a one-shot type-2 recovery.
//!
//! Φ is slotted by the network's node arena (`mapping` module docs), so
//! the owner *slot* Φ stores for a vertex is the adjacency row to edit or
//! read. The per-step paths — [`move_vertices`],
//! [`adopt_vertices`] — and the bootstrap's row-order sweep
//! ([`deal_round_robin`]) never see a `NodeId`. The whole-fabric passes
//! sweep the rows in slot order (`ContractionRows`): the invariant
//! checker compares each node's row with the one Φ implies — during a
//! staggered type-2 operation the old remnant plus the overlay of staged
//! vertices and intermediate edges — and the simplified type-2 rewire
//! ([`rewire_diff`], [`rewire_to_map`]) diffs them. Neither builds a
//! whole-network edge list. The rewire's edit lists alone speak ids: they
//! are sorted by `(min id, max id)` and applied in that order, because an
//! edit's swap-remove fixes where the other entries of a row land, and
//! every golden digest pins that order (a walk indexes rows).

use crate::mapping::VirtualMapping;
use crate::staggered::StaggeredOp;
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::PCycle;
use dex_graph::primes::inverse_batch;
use dex_sim::Network;

/// All virtual-edge instances with at least one endpoint in `set`, each
/// exactly once, appended to the caller's buffer (`out` is cleared first).
/// `set` must be duplicate-free and `chords[i]` the chord partner of
/// `set[i]` — the caller inverts the whole set once
/// ([`PCycle::chords_into`]; a single vertex pays one [`PCycle::chord`]).
///
/// Dedup rules: the successor edge is sourced at `z`; the predecessor edge
/// is included only when `pred(z) ∉ set` (otherwise it is the predecessor's
/// successor edge); chords are included when the partner is outside `set`
/// or `z` is the canonical (smaller) endpoint; loops always.
///
/// The healing hot path calls this for every vertex move; threading the
/// buffer from [`crate::scratch::HealScratch`] keeps it allocation-free.
pub fn incident_edges_into(
    cycle: &PCycle,
    set: &[VertexId],
    chords: &[VertexId],
    out: &mut Vec<(VertexId, VertexId)>,
) {
    debug_assert_eq!(set.len(), chords.len());
    out.clear();
    let in_set = |v: VertexId| set.contains(&v);
    for (&z, &c) in set.iter().zip(chords) {
        debug_assert_eq!(c, cycle.chord(z));
        out.push((z, cycle.succ(z)));
        let p = cycle.pred(z);
        if !in_set(p) {
            out.push((p, z));
        }
        if c == z {
            out.push((z, z));
        } else if !in_set(c) || z < c {
            out.push((z, c));
        }
    }
}

/// Both endpoints' slots of the virtual-edge instance `(a, b)`. Inside a
/// `DexNetwork` a node's Φ slot is its graph slot, so these index the
/// network's adjacency rows directly.
#[inline]
fn owner_slots(map: &VirtualMapping, (a, b): (VertexId, VertexId)) -> (u32, u32) {
    (map.owner_slot_of(a), map.owner_slot_of(b))
}

/// The bootstrap object for nodes `0..n`: the vertices of `cycle` dealt
/// round-robin (vertex `x` to node `x mod n`) into a Φ slotted by the
/// network's node arena, and the contraction fabric, uncharged.
///
/// Each node computes its own neighbourhood (Sect. 4): node `i` simulates
/// `{i, i+n, i+2n, …}`, so its adjacency row and its `Sim` segment follow
/// from that set alone, and one pass in slot order writes each of them
/// once (`RoundRobinDeal`). The rows are entry for entry those of the
/// edge-by-edge build over [`for_each_canonical_edge`] (kept as the
/// oracle of `tests/bootstrap_diff.rs`).
pub fn deal_round_robin(zeta: u64, cycle: &PCycle, n: u64) -> (Network, VirtualMapping) {
    // Two memory traps (peak RSS follows allocation order, not only live
    // bytes). The arena and Φ's node arrays grow node by node and are never
    // sized to exactly `n`: sized so, the first insertion past `n` would
    // double every per-slot array at once. (Only the arena's id index is
    // sized for `n`, once, instead of growing through every rehash: a hash
    // table keeps head room of its own.) And the sweep's scratch is
    // allocated first, at its final size: carved out between the arena's
    // growth and Φ's, it left a hole that cost `serve` 0.8 MB of peak.
    let mut deal = RoundRobinDeal::new(cycle.p(), n);
    let mut map = VirtualMapping::with_caller_slots(zeta, cycle.p(), 0);
    let mut net = Network::with_id_capacity(n as usize);
    for i in 0..n {
        let slot = net.adversary_add_node(NodeId(i));
        assert_eq!(slot as u64, i, "a fresh arena numbers slots in order");
    }
    net.adversary_fill_rows(|slot, row| deal.node(slot, row, &mut map));
    (net, map)
}

/// The row-order sweep behind [`deal_round_robin`]. Node `i`'s edge
/// instances are those of its vertices `v`, each keyed by its place in the
/// canonical sequence: the successor edge `(v, v+1)` by `2v`, the
/// predecessor edge by `2·pred(v)`, the chord by `2·min(v, v⁻¹) + 1`. An
/// edge-by-edge build appends to a row in key order, so writing the
/// neighbour slots in key order reproduces its rows exactly; a key seen
/// twice is an edge with both ends in the node — the `(p−1, 0)` wrap or a
/// chord between two of its vertices — and is a single entry, as
/// `add_edge_slots` writes a loop once.
struct RoundRobinDeal {
    p: u64,
    n: u64,
    /// Most vertices a node holds, ⌈p/n⌉.
    k: u64,
    /// The block of node slots whose chords are inverted.
    lo: u64,
    hi: u64,
    /// The block's vertices, `k` contiguous ranges `[lo+j·n, hi+j·n)`
    /// clipped to `p`; range `j` starts at `starts[j]`.
    xs: Vec<u32>,
    starts: Vec<usize>,
    /// `inv[t]` is the chord partner of `xs[t]`.
    inv: Vec<u32>,
    /// The node's `(key, neighbour slot)` entries: cycle edges (already in
    /// key order) and chords.
    cyc: Vec<(u64, u32)>,
    chords: Vec<(u64, u32)>,
    /// The node's vertices, ascending.
    sim: Vec<VertexId>,
}

impl RoundRobinDeal {
    /// Node slots per chord block.
    const BLOCK: u64 = 2048;

    fn new(p: u64, n: u64) -> Self {
        let k = p.div_ceil(n);
        let block_len = (Self::BLOCK.min(n) * k).min(p) as usize;
        RoundRobinDeal {
            p,
            n,
            k,
            lo: 0,
            hi: 0,
            xs: Vec::with_capacity(block_len),
            starts: Vec::with_capacity(k as usize),
            inv: Vec::with_capacity(block_len),
            cyc: Vec::with_capacity(2 * k as usize + 1),
            chords: Vec::with_capacity(k as usize),
            sim: Vec::with_capacity(k as usize),
        }
    }

    /// Invert the chords of the vertices of node slots `[lo, lo+BLOCK)`.
    fn next_block(&mut self, lo: u64) {
        self.lo = lo;
        self.hi = (lo + Self::BLOCK).min(self.n);
        self.xs.clear();
        self.starts.clear();
        for j in 0..self.k {
            self.starts.push(self.xs.len());
            let a = lo + j * self.n;
            let b = (self.hi + j * self.n).min(self.p);
            self.xs.extend((a..b.max(a)).map(|x| x as u32));
        }
        self.inv.resize(self.xs.len(), 0);
        inverse_batch(self.p, &self.xs, &mut self.inv);
    }

    /// Write node `slot`'s row and deal it its vertices in Φ, both in
    /// ascending order.
    fn node(&mut self, slot: u32, row: &mut Vec<u32>, map: &mut VirtualMapping) {
        let (p, n, i) = (self.p, self.n, slot as u64);
        if i >= self.hi {
            self.next_block(i);
        }
        let owner = |x: u64| (x as u32) % (n as u32);
        let prev = if i == 0 { n - 1 } else { i - 1 } as u32;
        let next = if i + 1 == n { 0 } else { i + 1 } as u32;
        self.cyc.clear();
        self.chords.clear();
        self.sim.clear();
        let mut v = i;
        for start in &self.starts {
            if v >= p {
                break;
            }
            if v > 0 {
                self.cyc.push((2 * (v - 1), prev));
            }
            self.cyc.push((2 * v, if v + 1 == p { 0 } else { next }));
            let c = self.inv[start + (i - self.lo) as usize] as u64;
            self.chords.push((2 * v.min(c) + 1, owner(c)));
            self.sim.push(VertexId(v));
            v += n;
        }
        map.assign_all_at(&self.sim, NodeId(i), slot);
        if i == 0 {
            // Vertex 0's predecessor edge (p−1, 0) is the last cycle key.
            self.cyc.push((2 * (p - 1), owner(p - 1)));
        }
        self.chords.sort_unstable();
        let (mut a, mut b, mut last) = (0, 0, u64::MAX);
        loop {
            // Cycle keys are even and chord keys odd: never tied.
            let (key, to) = match (self.cyc.get(a), self.chords.get(b)) {
                (Some(&x), Some(&y)) if x.0 < y.0 => {
                    a += 1;
                    x
                }
                (_, Some(&y)) => {
                    b += 1;
                    y
                }
                (Some(&x), None) => {
                    a += 1;
                    x
                }
                (None, None) => break,
            };
            if key != last {
                row.push(to);
                last = key;
            }
        }
    }
}

/// Visit every virtual edge of `cycle` exactly once: the successor edge
/// `(z, z+1)` from `z`, the chord `(z, z⁻¹)` from `min(z, z⁻¹)` (the
/// self-inverse vertices 0, 1 and p−1 give their own loop), chords from
/// the cycle's block sweep rather than one inversion per vertex.
pub fn for_each_canonical_edge(cycle: &PCycle, mut f: impl FnMut(VertexId, VertexId)) {
    cycle.for_each_chord(0..cycle.p(), |z, c| {
        f(z, cycle.succ(z));
        if c == z || z < c {
            f(z, c);
        }
    });
}

/// Move the vertex set `zs` (all owned by a live node; `chords` their
/// chord partners) to the node in slot `to`: removes every incident
/// physical instance, retargets the mapping, and re-adds the instances
/// under the new owners — all by slot, Φ's being the network's. All edge
/// churn is charged. O(|zs|) topology changes. `insts` is a reusable
/// instance buffer (typically [`crate::scratch::HealScratch::insts`]); its
/// prior contents are discarded.
pub fn move_vertices(
    net: &mut Network,
    map: &mut VirtualMapping,
    cycle: &PCycle,
    zs: &[VertexId],
    chords: &[VertexId],
    to: u32,
    insts: &mut Vec<(VertexId, VertexId)>,
) {
    incident_edges_into(cycle, zs, chords, insts);
    for &inst in insts.iter() {
        let (sa, sb) = owner_slots(map, inst);
        assert!(
            net.remove_edge_slots(sa, sb),
            "fabric desync: missing instance {}->{} at slots ({sa},{sb})",
            inst.0,
            inst.1
        );
    }
    let to_id = net.graph().id_of_slot(to);
    for &z in zs {
        map.transfer_at(z, to_id, to);
    }
    for &inst in insts.iter() {
        let (sa, sb) = owner_slots(map, inst);
        net.add_edge_slots(sa, sb);
    }
}

/// After the adversary deleted a node (taking all its physical edges with
/// it), the node in slot `to` adopts the vertex set `zs` the dead node
/// simulated (`chords` their chord partners): retarget the mapping and
/// re-add the lost instances. Until this runs, the dead node's `Sim`
/// still sits in its — already freed — graph slot. Additions are charged;
/// nothing is removed (the attack already removed it). `insts` is a
/// reusable instance buffer; its prior contents are discarded.
pub fn adopt_vertices(
    net: &mut Network,
    map: &mut VirtualMapping,
    cycle: &PCycle,
    zs: &[VertexId],
    chords: &[VertexId],
    to: u32,
    insts: &mut Vec<(VertexId, VertexId)>,
) {
    let to_id = net.graph().id_of_slot(to);
    for &z in zs {
        map.transfer_at(z, to_id, to);
    }
    incident_edges_into(cycle, zs, chords, insts);
    for &inst in insts.iter() {
        let (sa, sb) = owner_slots(map, inst);
        net.add_edge_slots(sa, sb);
    }
}

/// The adjacency rows of the contraction of `cycle` under `map`, one node
/// at a time: [`Self::row`] is the neighbour-slot multiset Φ implies for
/// the node in a slot, sorted. Ask for slots in ascending order: chords
/// are inverted a block of node slots at a time, so the scratch is
/// O(block + max load), never O(p).
///
/// A row holds the node's incident edge instances by the dedup rule of
/// [`incident_edges_into`], with "owned by this node" as the set test: an
/// edge with both ends in the node is one self-loop entry, each parallel
/// copy one entry. Those are the network's own row conventions, so once
/// Φ's node set is the network's, equal rows at every live node mean equal
/// edge multisets.
///
/// During a staggered type-2 operation `map` holds the old vertices not
/// yet dropped, and a row is the old remnant (edges to dropped vertices
/// are gone) plus the overlay's entries (`StaggeredOp::push_overlay_row`).
pub(crate) struct ContractionRows<'a> {
    map: &'a VirtualMapping,
    cycle: &'a PCycle,
    stag: Option<&'a StaggeredOp>,
    /// The node slots `[lo, hi)` whose chords are inverted: their `Sim`
    /// sets concatenated in slot order, slot `lo + i`'s at
    /// `xs[starts[i]..starts[i + 1]]`, and `inv[t]` the chord of `xs[t]`.
    lo: u32,
    hi: u32,
    starts: Vec<u32>,
    xs: Vec<u32>,
    inv: Vec<u32>,
    row: Vec<u32>,
}

impl<'a> ContractionRows<'a> {
    /// A chord block ends with the first slot that takes it to this many
    /// vertices.
    const BLOCK: usize = 256;

    /// Rows of the contraction of `cycle` under `map`, with the overlay of
    /// `stag` if an operation is in flight. `map` must assign exactly the
    /// vertices of `cycle` not yet dropped, and the staged map exactly the
    /// staged ones.
    pub(crate) fn new(
        map: &'a VirtualMapping,
        cycle: &'a PCycle,
        stag: Option<&'a StaggeredOp>,
    ) -> Self {
        ContractionRows {
            map,
            cycle,
            stag,
            lo: 0,
            hi: 0,
            starts: Vec::new(),
            // A block overshoots `BLOCK` by less than one node's load.
            xs: Vec::with_capacity(2 * Self::BLOCK),
            inv: Vec::with_capacity(2 * Self::BLOCK),
            row: Vec::new(),
        }
    }

    /// Invert the chords of the vertices held in the slots from `lo` on,
    /// a block of at least one slot.
    fn next_block(&mut self, lo: u32) {
        self.lo = lo;
        self.hi = lo;
        self.starts.clear();
        self.xs.clear();
        loop {
            self.starts.push(self.xs.len() as u32);
            self.xs
                .extend(self.map.sim_at(self.hi).iter().map(|z| z.0 as u32));
            self.hi += 1;
            if self.xs.len() >= Self::BLOCK || self.hi as usize >= self.map.slot_bound() {
                break;
            }
        }
        self.starts.push(self.xs.len() as u32);
        self.inv.resize(self.xs.len(), 0);
        inverse_batch(self.cycle.p(), &self.xs, &mut self.inv);
    }

    /// The row Φ implies for the node in `slot`, sorted (empty for a slot
    /// Φ does not hold).
    pub(crate) fn row(&mut self, slot: u32) -> &[u32] {
        if !(self.lo..self.hi).contains(&slot) {
            self.next_block(slot);
        }
        let i = (slot - self.lo) as usize;
        let span = self.starts[i] as usize..self.starts[i + 1] as usize;
        let (map, cycle) = (self.map, self.cycle);
        // Old vertices below the drop cursor are gone, with their edges.
        let dropped = self.stag.map_or(0, |op| op.old_live().start);
        let live = |z: VertexId| z.0 >= dropped;
        self.row.clear();
        for (&x, &c) in self.xs[span.clone()].iter().zip(&self.inv[span]) {
            let (z, c) = (VertexId(x as u64), VertexId(c as u64));
            let succ = cycle.succ(z);
            if live(succ) {
                self.row.push(map.owner_slot_of(succ));
            }
            let pred = cycle.pred(z);
            if live(pred) {
                let from = map.owner_slot_of(pred);
                if from != slot {
                    self.row.push(from);
                }
            }
            if c == z {
                self.row.push(slot);
            } else if live(c) {
                let to = map.owner_slot_of(c);
                if to != slot || z < c {
                    self.row.push(to);
                }
            }
        }
        if let Some(op) = self.stag {
            op.push_overlay_row(map, slot, &mut self.row);
        }
        self.row.sort_unstable();
        &self.row
    }
}

/// Merge two sorted slot multisets: `f(t, true)` for each entry of `have`
/// beyond `want`, `f(t, false)` for each entry of `want` beyond `have`.
fn diff_sorted(have: &[u32], want: &[u32], mut f: impl FnMut(u32, bool)) {
    let (mut i, mut j) = (0, 0);
    loop {
        match (have.get(i), want.get(j)) {
            (Some(&h), Some(&w)) if h == w => {
                i += 1;
                j += 1;
            }
            (Some(&h), Some(&w)) if h < w => {
                f(h, true);
                i += 1;
            }
            (Some(&h), None) => {
                f(h, true);
                i += 1;
            }
            (_, Some(&w)) => {
                f(w, false);
                j += 1;
            }
            (None, None) => break,
        }
    }
}

/// The network's row at `slot`, sorted into `have` (cleared first).
fn sorted_row(net: &Network, slot: u32, have: &mut Vec<u32>) {
    have.clear();
    have.extend_from_slice(net.graph().neighbor_slots(slot));
    have.sort_unstable();
}

/// Compare the network's row at the live `slot` with `want` (sorted, as
/// `ContractionRows::row` returns it); `have` is scratch. The error
/// names the first few extra and missing neighbours.
pub(crate) fn check_row(
    net: &Network,
    slot: u32,
    want: &[u32],
    have: &mut Vec<u32>,
) -> Result<(), String> {
    sorted_row(net, slot, have);
    if have == want {
        return Ok(());
    }
    let g = net.graph();
    let name = |t: u32| {
        if g.slot_alive(t) {
            g.id_of_slot(t).to_string()
        } else {
            format!("dead slot {t}")
        }
    };
    let mut msg = format!("fabric mismatch at node {}:", g.id_of_slot(slot));
    let mut shown = 0;
    diff_sorted(have, want, |t, extra| {
        shown += 1;
        if shown <= 6 {
            let kind = if extra { "extra" } else { "missing" };
            msg.push_str(&format!(" {kind}({})", name(t)));
        }
    });
    Err(msg)
}

/// Undirected edges as `(min id, max id)` pairs.
pub type EdgeList = Vec<(NodeId, NodeId)>;

/// The edits that turn the network into the contraction of `cycle` under
/// `map` (a Φ slotted by the network's arena, assigning every vertex):
/// `(remove, add)`, the multiset differences current − target and
/// target − current as `(min id, max id)` pairs, each sorted. One slot-order
/// sweep diffs every live row against `ContractionRows` and lists each
/// edge from its smaller-id end (a loop from its node), so the lists are
/// those of a sorted merge of the two whole edge lists, in the same order,
/// in O(diff) memory.
pub fn rewire_diff(net: &Network, map: &VirtualMapping, cycle: &PCycle) -> (EdgeList, EdgeList) {
    let g = net.graph();
    let mut rows = ContractionRows::new(map, cycle, None);
    let mut have = Vec::new();
    let (mut remove, mut add) = (Vec::new(), Vec::new());
    for slot in 0..g.slot_bound() as u32 {
        if !g.slot_alive(slot) {
            continue;
        }
        let u = g.id_of_slot(slot);
        let pair = |t: u32| {
            let v = g.id_of_slot(t);
            (u <= v).then_some((u, v))
        };
        sorted_row(net, slot, &mut have);
        diff_sorted(&have, rows.row(slot), |t, extra| {
            if let Some(e) = pair(t) {
                if extra {
                    remove.push(e)
                } else {
                    add.push(e)
                }
            }
        });
    }
    remove.sort_unstable();
    add.sort_unstable();
    (remove, add)
}

/// Rewire the physical graph to exactly the contraction of `cycle` under
/// `map`: apply [`rewire_diff`]'s removals, then its additions, each in
/// list order. Returns `(removed, added)`. Only the multiset difference is
/// charged — edges shared between the old and new fabric are untouched,
/// which is what keeps one-shot type-2 recovery at O(n) topology changes.
pub fn rewire_to_map(net: &mut Network, map: &VirtualMapping, cycle: &PCycle) -> (u64, u64) {
    let (remove, add) = rewire_diff(net, map, cycle);
    for &(a, b) in &remove {
        assert!(net.remove_edge(a, b), "rewire: missing edge ({a},{b})");
    }
    for &(a, b) in &add {
        net.add_edge(a, b);
    }
    (remove.len() as u64, add.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a tiny DEX-like world: Z(p) with vertices dealt round-robin to
    /// `n` nodes.
    fn world(p: u64, n: u64) -> (Network, VirtualMapping, PCycle) {
        let cycle = PCycle::new(p);
        let (net, map) = deal_round_robin(8, &cycle, n);
        (net, map, cycle)
    }

    fn slot(net: &Network, u: u64) -> u32 {
        net.graph().slot_of(NodeId(u)).unwrap()
    }

    fn chords(cycle: &PCycle, zs: &[VertexId]) -> Vec<VertexId> {
        zs.iter().map(|&z| cycle.chord(z)).collect()
    }

    /// Every live row is the one Φ implies, and the rewire has nothing to
    /// do.
    fn assert_exact(net: &Network, map: &VirtualMapping, cycle: &PCycle) {
        let mut rows = ContractionRows::new(map, cycle, None);
        let mut have = Vec::new();
        for slot in 0..net.graph().slot_bound() as u32 {
            if net.graph().slot_alive(slot) {
                check_row(net, slot, rows.row(slot), &mut have).unwrap();
            }
        }
        let (remove, add) = rewire_diff(net, map, cycle);
        assert!(remove.is_empty() && add.is_empty(), "-{remove:?} +{add:?}");
    }

    #[test]
    fn materialized_fabric_matches_expected() {
        let (net, map, cycle) = world(23, 5);
        assert_exact(&net, &map, &cycle);
        // Total instances = p cycle edges + (p-3)/2 chords + 3 loops.
        assert_eq!(net.graph().num_edges(), 23 + 10 + 3);
        net.graph().validate().unwrap();
    }

    #[test]
    fn canonical_enumeration_counts_each_edge_once() {
        let cycle = PCycle::new(23);
        let mut count = 0;
        for_each_canonical_edge(&cycle, |_, _| count += 1);
        assert_eq!(count, 23 + 10 + 3);
    }

    #[test]
    fn incident_set_enumeration_matches_brute_force() {
        let cycle = PCycle::new(23);
        // Contiguous and scattered sets, including chord partners.
        for set in [
            vec![VertexId(0)],
            vec![VertexId(1)],
            vec![VertexId(3), VertexId(4), VertexId(5)],
            vec![VertexId(2), VertexId(12)], // chord pair (2·12 ≡ 1)
            vec![VertexId(0), VertexId(22), VertexId(1)],
        ] {
            let mut got = Vec::new();
            incident_edges_into(&cycle, &set, &chords(&cycle, &set), &mut got);
            // Brute force: all undirected edges of Z(p) touching the set,
            // each once.
            let norm = |(a, b): (VertexId, VertexId)| (a.min(b), a.max(b));
            let mut got: Vec<_> = got.into_iter().map(norm).collect();
            let mut expect: Vec<_> = cycle
                .edges()
                .into_iter()
                .filter(|(a, b)| set.contains(a) || set.contains(b))
                .map(norm)
                .collect();
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect, "set {set:?}");
        }
    }

    #[test]
    fn move_vertex_keeps_fabric_exact() {
        let (mut net, mut map, cycle) = world(23, 5);
        net.begin_step();
        let to = slot(&net, 0);
        move_vertices(
            &mut net,
            &mut map,
            &cycle,
            &[VertexId(7)],
            &[cycle.chord(VertexId(7))],
            to,
            &mut Vec::new(),
        );
        let m = net.end_step(dex_sim::StepKind::Insert, dex_sim::RecoveryKind::Type1);
        assert!(
            m.topology_changes <= 6,
            "O(1) changes, got {}",
            m.topology_changes
        );
        assert_exact(&net, &map, &cycle);
        assert_eq!(map.owner_of(VertexId(7)), NodeId(0));
    }

    #[test]
    fn move_vertex_set_with_internal_edges() {
        let (mut net, mut map, cycle) = world(23, 5);
        net.begin_step();
        // 3,4,5 are consecutive: internal cycle edges must not double count.
        let zs = [VertexId(3), VertexId(4), VertexId(5)];
        let to = slot(&net, 1);
        move_vertices(
            &mut net,
            &mut map,
            &cycle,
            &zs,
            &chords(&cycle, &zs),
            to,
            &mut Vec::new(),
        );
        net.end_step(dex_sim::StepKind::Insert, dex_sim::RecoveryKind::Type1);
        assert_exact(&net, &map, &cycle);
    }

    #[test]
    fn adoption_restores_fabric_after_deletion() {
        let (mut net, mut map, cycle) = world(23, 5);
        // Node 2 simulates {2, 7, 12, 17, 22}.
        let zs: Vec<VertexId> = map.sim_at(slot(&net, 2)).to_vec();
        net.adversary_remove_node(NodeId(2));
        net.begin_step();
        let to = slot(&net, 3);
        adopt_vertices(
            &mut net,
            &mut map,
            &cycle,
            &zs,
            &chords(&cycle, &zs),
            to,
            &mut Vec::new(),
        );
        net.end_step(dex_sim::StepKind::Delete, dex_sim::RecoveryKind::Type1);
        assert_exact(&net, &map, &cycle);
    }

    #[test]
    fn rewire_diff_is_minimal() {
        let (mut net, mut map, cycle) = world(23, 5);
        // Target: same fabric but vertex 7 moved — diff must be ≤ 3+3.
        let mut target_map = map.clone();
        let s0 = slot(&net, 0);
        target_map.transfer_at(VertexId(7), NodeId(0), s0);
        net.begin_step();
        let (rm, add) = rewire_to_map(&mut net, &target_map, &cycle);
        net.end_step(dex_sim::StepKind::Insert, dex_sim::RecoveryKind::Type1);
        assert!(rm <= 3 && add <= 3, "diff too large: -{rm} +{add}");
        map.transfer_at(VertexId(7), NodeId(0), s0);
        assert_exact(&net, &map, &cycle);
    }

    #[test]
    fn verify_fabric_reports_mismatch() {
        let (mut net, map, cycle) = world(23, 5);
        net.adversary_add_edge(NodeId(0), NodeId(1));
        // The row check names the extra edge from both of its ends, and
        // finds nothing wrong elsewhere.
        let mut rows = ContractionRows::new(&map, &cycle, None);
        for (u, v) in [(0, 1), (1, 0)] {
            let s = slot(&net, u);
            let err = check_row(&net, s, rows.row(s), &mut Vec::new()).unwrap_err();
            assert!(err.contains(&format!("extra({})", NodeId(v))), "{err}");
        }
        for u in 2..5 {
            let s = slot(&net, u);
            check_row(&net, s, rows.row(s), &mut Vec::new()).unwrap();
        }
    }
}
