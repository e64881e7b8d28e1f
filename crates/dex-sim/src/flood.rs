//! BFS flood + convergecast aggregation (Algorithm 4.4).
//!
//! `computeSpare` / `computeLow` deterministically count the network size
//! and the size of a predicate set: the initiator floods a request through
//! the whole network (each node forwards on first receipt), then the counts
//! converge back up the implicit BFS tree. Cost charged: one message per
//! directed edge during the broadcast (`degree sum`), one message per
//! non-root node during the convergecast, and `2·ecc(root)` rounds.
//!
//! The BFS runs in the graph's dense slot space with reusable scratch
//! buffers ([`FloodScratch`]): after the one-time buffer sizing, a flood
//! performs no hashing and no per-node heap allocation. DEX floods the
//! network on every type-2 step, so callers that flood repeatedly should
//! hold a scratch and use [`flood_count_with`] — or, when they already
//! hold slots, the kernel under it, [`flood_count_slots`].

use crate::network::Network;
use dex_graph::adjacency::MultiGraph;
use dex_graph::ids::NodeId;
use std::collections::VecDeque;

/// Sentinel distance for unvisited slots.
const UNSEEN: u32 = u32::MAX;

/// Reusable BFS scratch for [`flood_count_with`]. One instance per driver
/// is enough; buffers grow to the network's slot bound and stay allocated.
#[derive(Default)]
pub struct FloodScratch {
    /// Slot-indexed BFS distance ([`UNSEEN`] = not reached).
    dist: Vec<u32>,
    /// BFS frontier of slot indices.
    queue: VecDeque<u32>,
}

impl FloodScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
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

/// Flood from `root`, count nodes satisfying `pred`, converge-cast back.
/// Convenience wrapper allocating a throwaway [`FloodScratch`]; repeated
/// callers should keep one and use [`flood_count_with`].
pub fn flood_count(net: &mut Network, root: NodeId, pred: impl Fn(NodeId) -> bool) -> FloodResult {
    flood_count_with(net, root, pred, &mut FloodScratch::new())
}

/// Flood from `root` using caller-provided scratch buffers. See
/// [`flood_count`] for semantics and cost accounting. Thin wrapper over
/// the slot kernel ([`flood_count_slots`]): the root is resolved once and
/// the predicate sees `id_of_slot`.
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
    let res = flood_bfs(g, root, |s| pred(g.id_of_slot(s)), scratch);
    charge(net, res)
}

/// [`flood_count_with`] in the graph's dense slot space: `root` and the
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
    let res = flood_bfs(net.graph(), root, pred, scratch);
    charge(net, res)
}

/// The BFS and its cost, uncharged (the graph is borrowed shared so the
/// id-speaking wrapper's predicate can read it).
fn flood_bfs(
    g: &MultiGraph,
    root_slot: u32,
    pred: impl Fn(u32) -> bool,
    scratch: &mut FloodScratch,
) -> FloodResult {
    scratch.dist.clear();
    scratch.dist.resize(g.slot_bound(), UNSEEN);
    scratch.queue.clear();
    scratch.dist[root_slot as usize] = 0;
    scratch.queue.push_back(root_slot);
    let mut reached = 0usize;
    let mut ecc = 0u32;
    let mut broadcast_msgs = 0u64;
    let mut matching = 0usize;
    let mut witness: Option<(u32, NodeId)> = None;
    while let Some(u) = scratch.queue.pop_front() {
        let du = scratch.dist[u as usize];
        ecc = ecc.max(du);
        reached += 1;
        if pred(u) {
            matching += 1;
            let cand = (du, g.id_of_slot(u));
            if witness.is_none_or(|best| cand < best) {
                witness = Some(cand);
            }
        }
        // On first receipt a node forwards to all neighbors (except the
        // sender); we charge its full degree minus one for non-roots,
        // the full degree for the root. Parallel edges each carry a
        // copy (the node cannot know its parallel edges lead to the
        // same peer without extra protocol).
        let nbrs = g.neighbor_slots(u);
        let deg = nbrs.len() as u64;
        broadcast_msgs += if u == root_slot {
            deg
        } else {
            deg.saturating_sub(1)
        };
        for &v in nbrs {
            if scratch.dist[v as usize] == UNSEEN {
                scratch.dist[v as usize] = du + 1;
                scratch.queue.push_back(v);
            }
        }
    }
    let convergecast_msgs = (reached as u64).saturating_sub(1);
    FloodResult {
        n: reached,
        matching,
        rounds: 2 * ecc as u64,
        messages: broadcast_msgs + convergecast_msgs,
        witness: witness.map(|(_, id)| id),
    }
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
        let r = flood_count(&mut net, NodeId(0), |u| u.0 % 2 == 0);
        assert_eq!(r.n, 8);
        assert_eq!(r.matching, 4);
        assert_eq!(r.rounds, 2 * 4); // ecc of a ring root = n/2
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }

    #[test]
    fn message_cost_is_linear_in_edges() {
        let mut net = ring_net(8);
        net.begin_step();
        let r = flood_count(&mut net, NodeId(0), |_| true);
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
        let r = flood_count(&mut net, NodeId(10), |_| true);
        assert_eq!(r.n, 2);
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }

    #[test]
    fn singleton_flood() {
        let mut net = Network::new();
        net.adversary_add_node(NodeId(0));
        net.begin_step();
        let r = flood_count(&mut net, NodeId(0), |_| true);
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
        let b = flood_count(&mut net, NodeId(0), |u| u.0 < 6);
        assert_eq!(a, b);
        // Mutate, re-flood with the same scratch: results track the graph.
        net.adversary_remove_node(NodeId(6));
        let c = flood_count_with(&mut net, NodeId(0), |u| u.0 < 6, &mut scratch);
        assert_eq!(c.n, 11);
        assert_eq!(c.matching, 6);
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }

    #[test]
    fn witness_is_nearest_matching_node_lowest_id() {
        let mut net = ring_net(10);
        net.begin_step();
        // pred = odd ids; from root 0 the nearest odd nodes are 1 and 9
        // (both at distance 1) — the witness is the lower id.
        let r = flood_count(&mut net, NodeId(0), |u| u.0 % 2 == 1);
        assert_eq!(r.witness, Some(NodeId(1)));
        // No matching node: no witness.
        let r2 = flood_count(&mut net, NodeId(0), |u| u.0 > 100);
        assert_eq!(r2.witness, None);
        // Root matches: the witness is the root itself (distance 0).
        let r3 = flood_count(&mut net, NodeId(4), |_| true);
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
