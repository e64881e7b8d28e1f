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
//! The per-step paths — [`move_vertices`], [`adopt_vertices`] and the
//! bootstrap's [`materialize_all`] — never see a `NodeId`: Φ is slotted by
//! the network's node arena (`mapping` module docs), so the owner *slot*
//! Φ stores for a vertex is the adjacency row to edit. Only the whole-
//! fabric passes ([`expected_edge_multiset`], [`rewire_to_target`],
//! [`verify_fabric`]) speak ids: their sort order is by id, and the
//! adjacency order every golden digest pins follows from it.

use crate::mapping::VirtualMapping;
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::PCycle;
use dex_sim::Network;

/// The canonical virtual-edge instances "sourced" at vertex `z`:
/// * the successor cycle edge `(z, z+1)` — always sourced at `z`;
/// * the chord `(z, z⁻¹)` — sourced at `min(z, z⁻¹)`; self-inverse
///   vertices (0, 1, p−1) source their own loop.
///
/// Iterating this over all `z ∈ Z_p` yields each virtual edge exactly once.
pub fn canonical_edges_of(cycle: &PCycle, z: VertexId) -> Vec<(VertexId, VertexId)> {
    let mut out = Vec::with_capacity(2);
    out.push((z, cycle.succ(z)));
    let c = cycle.chord(z);
    if c == z || z < c {
        out.push((z, c));
    }
    out
}

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

/// Allocating convenience wrapper over [`incident_edges_into`].
pub fn incident_edges_of_set(cycle: &PCycle, set: &[VertexId]) -> Vec<(VertexId, VertexId)> {
    let mut chords = Vec::with_capacity(set.len());
    cycle.chords_into(set, &mut Vec::new(), &mut chords);
    let mut out = Vec::with_capacity(set.len() * 3);
    incident_edges_into(cycle, set, &chords, &mut out);
    out
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
/// network's node arena, and the contraction fabric materialized
/// uncharged.
pub fn deal_round_robin(zeta: u64, cycle: &PCycle, n: u64) -> (Network, VirtualMapping) {
    // No slot pre-sizing: Φ's node arrays grow with the arena, node by
    // node, the way the graph's own do.
    let mut map = VirtualMapping::with_caller_slots(zeta, cycle.p(), 0);
    let mut net = Network::new();
    for i in 0..n {
        let slot = net.adversary_add_node(NodeId(i));
        assert_eq!(slot as u64, i, "a fresh arena numbers slots in order");
    }
    for x in 0..cycle.p() {
        let i = x % n;
        map.assign_at(VertexId(x), NodeId(i), i as u32);
    }
    materialize_all(&mut net, &map, cycle, false);
    (net, map)
}

/// Materialize the entire contraction fabric from scratch. `charged`
/// selects whether edges count as algorithm topology changes (bootstrap
/// passes `false`). `map` must be slotted by `net`'s node arena.
pub fn materialize_all(net: &mut Network, map: &VirtualMapping, cycle: &PCycle, charged: bool) {
    for_each_canonical_edge(cycle, |a, b| {
        let (sa, sb) = owner_slots(map, (a, b));
        if charged {
            net.add_edge_slots(sa, sb);
        } else {
            net.adversary_add_edge_slots(sa, sb);
        }
    });
}

/// Visit every canonical virtual-edge instance of `cycle` exactly once
/// (the fabric-wide analogue of [`canonical_edges_of`]), chords from the
/// cycle's block sweep rather than one inversion per vertex.
pub fn for_each_canonical_edge(cycle: &PCycle, mut f: impl FnMut(VertexId, VertexId)) {
    cycle.for_each_chord(0..cycle.p(), |z, c| {
        f(z, cycle.succ(z));
        if c == z || z < c {
            f(z, c);
        }
    });
}

/// The full expected physical edge multiset (normalized `(min, max)`
/// pairs, sorted) for the contraction of `cycle` under `map`. Used by the
/// invariant checker and by [`rewire_to_target`].
pub fn expected_edge_multiset(map: &VirtualMapping, cycle: &PCycle) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::with_capacity(cycle.p() as usize * 2);
    for_each_canonical_edge(cycle, |a, b| {
        let (ua, ub) = (map.owner_of(a), map.owner_of(b));
        out.push((ua.min(ub), ua.max(ub)));
    });
    out.sort_unstable();
    out
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

/// Rewire the physical graph to exactly `target` (a normalized sorted edge
/// multiset): removes instances not in the target, adds missing ones.
/// Returns `(removed, added)`. Only the multiset difference is charged —
/// edges shared between the old and new fabric are untouched, which is
/// what keeps one-shot type-2 recovery at O(n) topology changes.
pub fn rewire_to_target(net: &mut Network, target: &[(NodeId, NodeId)]) -> (u64, u64) {
    let mut current: Vec<(NodeId, NodeId)> = net
        .graph()
        .edges()
        .into_iter()
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    current.sort_unstable();
    // Multiset difference by merge.
    let mut to_remove = Vec::new();
    let mut to_add = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < current.len() || j < target.len() {
        match (current.get(i), target.get(j)) {
            (Some(&c), Some(&t)) => {
                if c == t {
                    i += 1;
                    j += 1;
                } else if c < t {
                    to_remove.push(c);
                    i += 1;
                } else {
                    to_add.push(t);
                    j += 1;
                }
            }
            (Some(&c), None) => {
                to_remove.push(c);
                i += 1;
            }
            (None, Some(&t)) => {
                to_add.push(t);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    for &(a, b) in &to_remove {
        assert!(net.remove_edge(a, b), "rewire: missing edge ({a},{b})");
    }
    for &(a, b) in &to_add {
        net.add_edge(a, b);
    }
    (to_remove.len() as u64, to_add.len() as u64)
}

/// Compare the physical graph against the expected contraction multiset.
pub fn verify_fabric(net: &Network, expected: &[(NodeId, NodeId)]) -> Result<(), String> {
    let mut current: Vec<(NodeId, NodeId)> = net
        .graph()
        .edges()
        .into_iter()
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    current.sort_unstable();
    if current != expected {
        // Report the first few discrepancies for debugging.
        let mut msg = String::from("fabric mismatch:");
        let mut shown = 0;
        let (mut i, mut j) = (0usize, 0usize);
        while (i < current.len() || j < expected.len()) && shown < 6 {
            match (current.get(i), expected.get(j)) {
                (Some(&c), Some(&t)) if c == t => {
                    i += 1;
                    j += 1;
                }
                (Some(&c), Some(&t)) if c < t => {
                    msg.push_str(&format!(" extra({},{})", c.0, c.1));
                    i += 1;
                    shown += 1;
                }
                (Some(_), Some(&t)) => {
                    msg.push_str(&format!(" missing({},{})", t.0, t.1));
                    j += 1;
                    shown += 1;
                }
                (Some(&c), None) => {
                    msg.push_str(&format!(" extra({},{})", c.0, c.1));
                    i += 1;
                    shown += 1;
                }
                (None, Some(&t)) => {
                    msg.push_str(&format!(" missing({},{})", t.0, t.1));
                    j += 1;
                    shown += 1;
                }
                (None, None) => break,
            }
        }
        return Err(msg);
    }
    Ok(())
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

    #[test]
    fn materialized_fabric_matches_expected() {
        let (net, map, cycle) = world(23, 5);
        let expected = expected_edge_multiset(&map, &cycle);
        verify_fabric(&net, &expected).unwrap();
        // Total instances = p cycle edges + (p-3)/2 chords + 3 loops.
        assert_eq!(net.graph().num_edges(), 23 + 10 + 3);
        net.graph().validate().unwrap();
    }

    #[test]
    fn canonical_enumeration_counts_each_edge_once() {
        let cycle = PCycle::new(23);
        let mut count = 0;
        for x in 0..23 {
            count += canonical_edges_of(&cycle, VertexId(x)).len();
        }
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
            // Scalar chords and the batched form the delete path uses.
            let mut scalar = Vec::new();
            incident_edges_into(&cycle, &set, &chords(&cycle, &set), &mut scalar);
            let batched = incident_edges_of_set(&cycle, &set);
            assert_eq!(scalar, batched, "set {set:?}");
            // Brute force: all undirected edges of Z(p) touching the set.
            let all = cycle.edges();
            let expect = all
                .iter()
                .filter(|(a, b)| set.contains(a) || set.contains(b))
                .count();
            assert_eq!(batched.len(), expect, "set {set:?}");
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
        let expected = expected_edge_multiset(&map, &cycle);
        verify_fabric(&net, &expected).unwrap();
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
        let expected = expected_edge_multiset(&map, &cycle);
        verify_fabric(&net, &expected).unwrap();
    }

    #[test]
    fn adoption_restores_fabric_after_deletion() {
        let (mut net, mut map, cycle) = world(23, 5);
        // Node 2 simulates {2, 7, 12, 17, 22}.
        let zs: Vec<VertexId> = map.sim(NodeId(2)).to_vec();
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
        let expected = expected_edge_multiset(&map, &cycle);
        verify_fabric(&net, &expected).unwrap();
    }

    #[test]
    fn rewire_diff_is_minimal() {
        let (mut net, mut map, cycle) = world(23, 5);
        // Target: same fabric but vertex 7 moved — diff must be ≤ 6+6.
        let mut target_map = map.clone();
        target_map.transfer(VertexId(7), NodeId(0));
        let target = expected_edge_multiset(&target_map, &cycle);
        net.begin_step();
        let (rm, add) = rewire_to_target(&mut net, &target);
        net.end_step(dex_sim::StepKind::Insert, dex_sim::RecoveryKind::Type1);
        assert!(rm <= 3 && add <= 3, "diff too large: -{rm} +{add}");
        verify_fabric(&net, &target).unwrap();
        map.transfer(VertexId(7), NodeId(0));
        verify_fabric(&net, &expected_edge_multiset(&map, &cycle)).unwrap();
    }

    #[test]
    fn verify_fabric_reports_mismatch() {
        let (mut net, map, cycle) = world(23, 5);
        net.adversary_add_edge(NodeId(0), NodeId(1));
        let expected = expected_edge_multiset(&map, &cycle);
        let err = verify_fabric(&net, &expected).unwrap_err();
        assert!(err.contains("extra"), "{err}");
    }
}
