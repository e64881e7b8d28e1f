//! BFS flood + convergecast aggregation (Algorithm 4.4).
//!
//! `computeSpare` / `computeLow` deterministically count the network size
//! and the size of a predicate set: the initiator floods a request through
//! the whole network (each node forwards on first receipt), then the counts
//! converge back up the implicit BFS tree. Cost charged: one message per
//! directed edge during the broadcast (`degree sum`), one message per
//! non-root node during the convergecast, and `2·ecc(root)` rounds.
//!
//! DEX floods on a step's first *walk miss* — type-1 recovery falls back
//! to this count when a random walk finds no Spare / Low node, which near
//! a type-2 threshold is most steps — so callers hold a [`FloodScratch`] and
//! use the slot kernel, [`flood_count_slots`]. The `NodeId` form,
//! [`flood_count_with`], resolves the root and wraps it.
//!
//! # The kernel
//!
//! The flood is a level-synchronous BFS in the graph's dense slot space
//! over two flat frontier buffers; after the one-time buffer sizing it
//! hashes nothing and allocates nothing. Each level is first *accounted*
//! in one pass over the frontier (predicate, degree, witness candidate),
//! then the next level is *discovered* in one of two directions:
//!
//! * **top-down** — every frontier row is read and each unseen neighbour
//!   joins the next level;
//! * **bottom-up** — every live node not yet reached reads its own row
//!   and stops at the first neighbour in the frontier. When the frontier's
//!   rows hold many more entries than there are nodes left to find (a
//!   high-load network: degree ≈ 3·load and eccentricity 3–4, so the
//!   level before the last holds most of the graph's rows and a few
//!   dozen nodes are still missing), almost every such node has a parent
//!   within its first few entries and the rest of the adjacency is never
//!   looked at.
//!
//! The last level is free: once a level's accounting brings the reached
//! count to `num_nodes()` nothing is left to discover, so its rows are
//! never read (its degrees, which the charge needs, are row lengths).
//!
//! Nothing the flood returns can depend on the direction taken or on the
//! order nodes are discovered in: a node's level is its distance from the
//! root whichever neighbour claims it, and the result is made only of
//! per-level sets — `n` and `matching` are counts, `rounds` is twice the
//! number of the last non-empty level, `messages` is a sum of degrees, and
//! the witness is the minimum id within the first level that matches.

use crate::network::Network;
use dex_graph::adjacency::MultiGraph;
use dex_graph::ids::NodeId;

/// Discover bottom-up when the frontier's degree sum `F` exceeds this many
/// times the number `U` of nodes still unreached.
///
/// Top-down probes the stamp of all `F` entries, and its staged loop keeps
/// row fetches overlapped: ≈ 3 ns an entry. Bottom-up reads one row per
/// unreached node and leaves it through an unpredictable branch, so its
/// row fetches do not overlap: ≈ 50 ns a row — sixteen top-down entries —
/// plus the entries ahead of the first frontier neighbour, about
/// `Σdeg / F` of them. Below `F = 16·U` the row fetches alone cost more
/// than top-down's whole level; above it the scan term is what is left to
/// lose, and it shrinks as `F` grows. Measured on networks shrunk by real
/// deletes to load 5, 8 and 16 (degree 13, 21, 45), 16 is within 10 % of
/// the best fixed ratio at each (8 loses 1.5× at load 16, 32 loses 1.2× at
/// load 5); at load 1 (degree 3) the ratio only passes 16 on the last
/// two or three levels, which are a few hundred nodes either way.
const BOTTOM_UP_RATIO: usize = 16;

/// Candidates top-down discovery stages before it stamps them (4 KiB of
/// `next`, so a block is still in L1 when it is stamped).
const STAGE: usize = 1024;

/// Slots the buffers grow by.
const GROW: usize = 4096;

/// Lengthen `buf` to `len` zero-filled entries without spare capacity.
fn grow_exact(buf: &mut Vec<u32>, len: usize) {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, 0);
    }
}

/// Deterministic work counts of every flood run on one [`FloodScratch`]
/// so far — the unit a flood's cost is stated in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FloodWork {
    /// Floods run.
    pub floods: u64,
    /// Levels accounted, the root's included.
    pub levels: u64,
    /// Frontier rows read whole by top-down discovery.
    pub rows_top_down: u64,
    /// Rows of unreached nodes read (up to their first frontier
    /// neighbour) by bottom-up discovery.
    pub rows_bottom_up: u64,
    /// Adjacency entries examined, both directions.
    pub entries: u64,
}

/// Reusable buffers for [`flood_count_with`]. One instance per driver is
/// enough; every buffer grows to the network's slot bound and stays
/// allocated.
#[derive(Default)]
pub struct FloodScratch {
    /// Slot-indexed level stamp. A flood stamps the nodes of level `l`
    /// with `base + l`, where `base` is one more than any stamp an earlier
    /// flood wrote — so "reached" is `stamp >= base`, "in the frontier" is
    /// `stamp == base + level`, and no flood clears the table.
    stamp: Vec<u32>,
    /// Highest stamp any flood may have written.
    top: u32,
    /// The current level's slots, and the level being discovered.
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// Live slots not yet reached, built by a flood's first bottom-up
    /// level and thinned by every later one.
    unreached: Vec<u32>,
    work: FloodWork,
}

impl FloodScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Work done by every flood on this scratch so far.
    pub fn work(&self) -> FloodWork {
        self.work
    }

    /// Size the per-level buffers for `bound` slots and return the new
    /// flood's base stamp.
    fn begin(&mut self, bound: usize) -> u32 {
        if self.stamp.len() < bound {
            // Grown in steps and to the exact size: doubling would hold
            // up to twice the arena in each of four buffers.
            let slots = bound.next_multiple_of(GROW);
            grow_exact(&mut self.stamp, slots);
            // A level holds fewer than `bound` slots; top-down discovery
            // stages fewer than `2 * STAGE` candidates past them.
            grow_exact(&mut self.frontier, slots + 2 * STAGE);
            grow_exact(&mut self.next, slots + 2 * STAGE);
        }
        // A flood writes stamps up to `base + levels`, and has at most
        // `bound` levels.
        if self.top as u64 + bound as u64 + 2 > u32::MAX as u64 {
            self.stamp.fill(0);
            self.top = 0;
        }
        self.top + 1
    }
}

/// Outcome of a flood-aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodResult {
    /// Nodes reached (the component of the root — the whole network when
    /// connected, which DEX maintains).
    pub n: usize,
    /// Nodes satisfying the predicate.
    pub matching: usize,
    /// Rounds charged (2 × eccentricity of the root).
    pub rounds: u64,
    /// Messages charged.
    pub messages: u64,
    /// A deterministic representative of the predicate set: the matching
    /// node minimizing (BFS distance from the root, node id). The
    /// convergecast can carry one candidate id at no extra asymptotic
    /// cost; the fault-injected healer uses it as a walk-free fallback
    /// target when repeated walks are lost.
    pub witness: Option<NodeId>,
}

/// Flood from `root`, count nodes satisfying `pred`, converge-cast back,
/// using caller-provided scratch buffers (see the module docs for the
/// cost charged). Thin wrapper over the slot kernel
/// ([`flood_count_slots`]): the root is resolved once and the predicate
/// sees `id_of_slot`. Held for `benchmark/`, goes with the next
/// benchmark PR.
pub fn flood_count_with(
    net: &mut Network,
    root: NodeId,
    pred: impl Fn(NodeId) -> bool,
    scratch: &mut FloodScratch,
) -> FloodResult {
    let g = net.graph();
    let root = g
        .slot_of(root)
        .unwrap_or_else(|| panic!("flood root {root} missing"));
    let res = flood_kernel(g, root, |s| pred(g.id_of_slot(s)), scratch);
    charge(net, res)
}

/// The flood in the graph's dense slot space: `root` and the
/// predicate's argument are arena slots, so a predicate that reads a
/// slot-indexed table (Φ's per-slot loads) costs no hashing per node. The
/// witness is still the matching node minimizing (BFS distance, node
/// *id*), reported as an id.
pub fn flood_count_slots(
    net: &mut Network,
    root: u32,
    pred: impl Fn(u32) -> bool,
    scratch: &mut FloodScratch,
) -> FloodResult {
    let res = flood_kernel(net.graph(), root, pred, scratch);
    charge(net, res)
}

/// The flood and its cost, uncharged (the graph is borrowed shared so the
/// id-speaking wrapper's predicate can read it). `msim::run_flood` sizes
/// its timeout from it. See the module docs.
///
/// Never inlined: it is instantiated per predicate in the healer's crate,
/// and folded into the heal loops it slows the steps that do not flood
/// (`batch`, whose walks never miss, lost 6–11 %).
#[inline(never)]
pub(crate) fn flood_kernel(
    g: &MultiGraph,
    root_slot: u32,
    pred: impl Fn(u32) -> bool,
    scratch: &mut FloodScratch,
) -> FloodResult {
    debug_assert!(g.slot_alive(root_slot), "flood root slot {root_slot} dead");
    let bound = g.slot_bound();
    let live = g.num_nodes();
    let base = scratch.begin(bound);
    let FloodScratch {
        stamp,
        frontier,
        next,
        unreached,
        work,
        ..
    } = scratch;
    let stamp = &mut stamp[..bound];
    stamp[root_slot as usize] = base;
    frontier[0] = root_slot;
    let mut frontier_len = 1usize;
    // Length of the unreached list once a bottom-up level has built it.
    let mut unreached_len: Option<usize> = None;
    let mut level = 0u32;
    let mut reached = 0usize;
    let mut matching = 0usize;
    let mut messages = 0u64;
    let mut witness = u64::MAX;
    loop {
        // Account the level. On first receipt a node forwards to all
        // neighbors except the sender — its full degree for the root, its
        // degree minus one otherwise; parallel edges each carry a copy
        // (the node cannot know its parallel edges lead to the same peer
        // without extra protocol) — and every non-root node sends one
        // convergecast message, which puts back the one withheld from its
        // sender: the flood costs the degree sum of the nodes it reaches.
        let level_slots = &frontier[..frontier_len];
        let first_match = matching == 0;
        let mut degree_sum = 0usize;
        for &u in level_slots {
            degree_sum += g.degree_of_slot(u);
            if pred(u) {
                matching += 1;
                if first_match {
                    witness = witness.min(g.id_of_slot(u).0);
                }
            }
        }
        reached += frontier_len;
        messages += degree_sum as u64;
        work.levels += 1;
        let to_find = live - reached;
        if to_find == 0 {
            break;
        }

        let in_frontier = base + level;
        let in_next = in_frontier + 1;
        let mut next_len = 0usize;
        if degree_sum > BOTTOM_UP_RATIO * to_find {
            let listed = match unreached_len {
                Some(len) => len,
                None => {
                    // Dead slots carry stale stamps: stamp them reached,
                    // then list what is left. (No live row names a dead
                    // slot, so the stamp's level is never looked at.)
                    for &dead in g.free_slots() {
                        stamp[dead as usize] = base;
                    }
                    grow_exact(unreached, bound.next_multiple_of(GROW));
                    let mut len = 0usize;
                    for (s, &st) in stamp.iter().enumerate() {
                        unreached[len] = s as u32;
                        len += usize::from(st < base);
                    }
                    len
                }
            };
            let mut kept = 0usize;
            for i in 0..listed {
                let u = unreached[i];
                // A top-down level since the list was built may have
                // reached `u` already.
                if stamp[u as usize] >= base {
                    continue;
                }
                let row = g.neighbor_slots(u);
                work.rows_bottom_up += 1;
                match row.iter().position(|&v| stamp[v as usize] == in_frontier) {
                    Some(pos) => {
                        work.entries += pos as u64 + 1;
                        stamp[u as usize] = in_next;
                        next[next_len] = u;
                        next_len += 1;
                    }
                    None => {
                        work.entries += row.len() as u64;
                        unreached[kept] = u;
                        kept += 1;
                    }
                }
            }
            unreached_len = Some(kept);
        } else {
            work.rows_top_down += frontier_len as u64;
            work.entries += degree_sum as u64;
            // Probe first, stamp later: candidates that look unseen are
            // staged past `next_len` by a loop that stores nothing into
            // `stamp`, then stamped (and de-duplicated) a block at a
            // time. Stamping inside the probing loop makes every probe
            // wait for the stores ahead of it, whose addresses come out
            // of row fetches, and the fetches stop overlapping.
            let mut staged = next_len;
            for &u in level_slots {
                for part in g.neighbor_slots(u).chunks(STAGE) {
                    for &v in part {
                        next[staged] = v;
                        staged += usize::from(stamp[v as usize] < base);
                    }
                    if staged - next_len >= STAGE {
                        next_len = commit(stamp, next, next_len, staged, base, in_next);
                        staged = next_len;
                    }
                }
            }
            next_len = commit(stamp, next, next_len, staged, base, in_next);
        }
        if next_len == 0 {
            break; // the root's component is smaller than the graph
        }
        std::mem::swap(frontier, next);
        frontier_len = next_len;
        level += 1;
    }
    work.floods += 1;
    scratch.top = base + level + 1;
    FloodResult {
        n: reached,
        matching,
        rounds: 2 * level as u64,
        messages,
        witness: (matching > 0).then_some(NodeId(witness)),
    }
}

/// Stamp the staged candidates `next[len..staged]` that are still unseen
/// and pack them down to `next[len..]`; returns the new length.
fn commit(
    stamp: &mut [u32],
    next: &mut [u32],
    len: usize,
    staged: usize,
    base: u32,
    in_next: u32,
) -> usize {
    let mut kept = len;
    for i in len..staged {
        let v = next[i];
        if stamp[v as usize] < base {
            stamp[v as usize] = in_next;
            next[kept] = v;
            kept += 1;
        }
    }
    kept
}

fn charge(net: &mut Network, res: FloodResult) -> FloodResult {
    net.charge_rounds(res.rounds);
    net.charge_messages(res.messages);
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RecoveryKind, StepKind};

    /// One flood on a fresh scratch.
    fn fresh_flood(net: &mut Network, root: NodeId, pred: impl Fn(NodeId) -> bool) -> FloodResult {
        flood_count_with(net, root, pred, &mut FloodScratch::new())
    }

    fn ring_net(k: u64) -> Network {
        let mut net = Network::new();
        for i in 0..k {
            net.adversary_add_node(NodeId(i));
        }
        for i in 0..k {
            net.adversary_add_edge(NodeId(i), NodeId((i + 1) % k));
        }
        net
    }

    #[test]
    fn counts_whole_ring() {
        let mut net = ring_net(8);
        net.begin_step();
        let r = fresh_flood(&mut net, NodeId(0), |u| u.0 % 2 == 0);
        assert_eq!(r.n, 8);
        assert_eq!(r.matching, 4);
        assert_eq!(r.rounds, 2 * 4); // ecc of a ring root = n/2
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }

    #[test]
    fn message_cost_is_linear_in_edges() {
        let mut net = ring_net(8);
        net.begin_step();
        let r = fresh_flood(&mut net, NodeId(0), |_| true);
        // broadcast: root sends deg=2, others deg-1=1 each → 2 + 7 = 9;
        // convergecast: 7. Total 16.
        assert_eq!(r.messages, 16);
        let (_, m, _) = net.current_counters();
        assert_eq!(m, 16);
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }

    #[test]
    fn flood_restricted_to_component() {
        let mut net = ring_net(4);
        for i in 10..13 {
            net.adversary_add_node(NodeId(i));
        }
        net.adversary_add_edge(NodeId(10), NodeId(11));
        net.begin_step();
        let r = fresh_flood(&mut net, NodeId(10), |_| true);
        assert_eq!(r.n, 2);
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }

    #[test]
    fn singleton_flood() {
        let mut net = Network::new();
        net.adversary_add_node(NodeId(0));
        net.begin_step();
        let r = fresh_flood(&mut net, NodeId(0), |_| true);
        assert_eq!(r.n, 1);
        assert_eq!(r.matching, 1);
        assert_eq!(r.rounds, 0);
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let mut net = ring_net(12);
        let mut scratch = FloodScratch::new();
        net.begin_step();
        let a = flood_count_with(&mut net, NodeId(0), |u| u.0 < 6, &mut scratch);
        let b = fresh_flood(&mut net, NodeId(0), |u| u.0 < 6);
        assert_eq!(a, b);
        // Mutate, re-flood with the same scratch: results track the graph.
        net.adversary_remove_node(NodeId(6));
        let c = flood_count_with(&mut net, NodeId(0), |u| u.0 < 6, &mut scratch);
        assert_eq!(c.n, 11);
        assert_eq!(c.matching, 6);
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }

    /// When the next flood's stamps would not fit below `u32::MAX` the
    /// table starts over, and stamps of earlier floods mean nothing again.
    #[test]
    fn stamp_space_starts_over_before_it_runs_out() {
        let mut net = ring_net(12);
        let mut scratch = FloodScratch::new();
        net.begin_step();
        let first = flood_count_with(&mut net, NodeId(3), |u| u.0 > 7, &mut scratch);
        scratch.top = u32::MAX - 5;
        let again = flood_count_with(&mut net, NodeId(3), |u| u.0 > 7, &mut scratch);
        assert_eq!(first, again);
        assert_eq!(scratch.top, 1 + 6 + 1, "base 1, six levels below the root");
        assert_eq!(scratch.work().floods, 2);
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }

    #[test]
    fn witness_is_nearest_matching_node_lowest_id() {
        let mut net = ring_net(10);
        net.begin_step();
        // pred = odd ids; from root 0 the nearest odd nodes are 1 and 9
        // (both at distance 1) — the witness is the lower id.
        let r = fresh_flood(&mut net, NodeId(0), |u| u.0 % 2 == 1);
        assert_eq!(r.witness, Some(NodeId(1)));
        // No matching node: no witness.
        let r2 = fresh_flood(&mut net, NodeId(0), |u| u.0 > 100);
        assert_eq!(r2.witness, None);
        // Root matches: the witness is the root itself (distance 0).
        let r3 = fresh_flood(&mut net, NodeId(4), |_| true);
        assert_eq!(r3.witness, Some(NodeId(4)));
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }

    /// The `NodeId` form is the slot kernel plus id resolution: the same
    /// `FloodResult` — witness included — and the same charge.
    #[test]
    fn id_wrapper_equals_slot_kernel() {
        let mut net = ring_net(14);
        // Recycle slots so ids and slots disagree, and split the witness
        // tie on ids rather than slots.
        net.adversary_remove_node(NodeId(2));
        net.adversary_remove_node(NodeId(9));
        for (id, a, b) in [(30, 1, 3), (20, 8, 10)] {
            net.adversary_add_node(NodeId(id));
            net.adversary_add_edge(NodeId(id), NodeId(a));
            net.adversary_add_edge(NodeId(id), NodeId(b));
        }
        let ids = net.graph().nodes_sorted();
        let mut scratch = FloodScratch::new();
        net.begin_step();
        for (case, &root) in ids.iter().enumerate() {
            let pred = |u: NodeId| u.0 % 5 == case as u64 % 5 || u.0 >= 20;
            let before = net.current_counters();
            let by_id = flood_count_with(&mut net, root, pred, &mut scratch);
            let mid = net.current_counters();
            let g = net.graph();
            let ids_of: Vec<NodeId> = (0..g.slot_bound() as u32)
                .map(|s| g.id_of_slot(s))
                .collect();
            let root_slot = g.slot_of(root).unwrap();
            let by_slot = flood_count_slots(
                &mut net,
                root_slot,
                |s| pred(ids_of[s as usize]),
                &mut scratch,
            );
            let after = net.current_counters();
            assert_eq!(by_id, by_slot, "case {case}");
            assert!(by_id.witness.is_some());
            assert_eq!(mid.0 - before.0, after.0 - mid.0, "rounds, case {case}");
            assert_eq!(mid.1 - before.1, after.1 - mid.1, "messages, case {case}");
        }
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }
}
