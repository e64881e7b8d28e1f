//! Token forwarding: random-walk searches and congestion-aware routing.
//!
//! Every hop of a token is one message over one physical edge in one round —
//! the unit of cost in the CONGEST model. Two primitives, both on the
//! graph's arena slots end to end:
//!
//! * [`random_walk_search_slots`] — the type-1 recovery walk (Algorithms
//!   4.2/4.3): forward a token to uniformly random neighbors until an
//!   accepting node is reached or the length budget runs out. The
//!   `NodeId` form [`random_walk_search`] resolves its two ids and wraps
//!   it; only the `benchmark/` crate's probes call it;
//! * [`route_batch_flat`] — store-and-forward routing of many tokens along
//!   prescribed slot paths with a per-edge-per-round capacity; this is the
//!   congestion discipline under which the paper budgets `ρ = O(log² n)`
//!   rounds for Phase-2 rebalancing walks and runs permutation routing.

use crate::network::Network;
use dex_graph::adjacency::MultiGraph;
use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::NodeId;
use rand::Rng;

/// Result of a random-walk search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Accepting node the token reached, if any.
    pub hit: Option<NodeId>,
    /// Hops actually taken (= messages = rounds charged).
    pub hops: u64,
}

/// Result of [`random_walk_search_slots`]: [`WalkOutcome`] in slot space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotWalkOutcome {
    /// Slot of the accepting node the token reached, if any.
    pub hit: Option<u32>,
    /// Hops actually taken (= messages = rounds charged).
    pub hops: u64,
}

/// Forward a token from `start` for at most `max_len` hops, choosing a
/// uniformly random neighbor each hop (entries of the adjacency multiset,
/// so parallel edges bias the step and self-loops may keep it in place).
/// `exclude` is never stepped onto (the paper excludes the freshly inserted
/// node from insertion walks). The walk stops at the first node for which
/// `accept` returns true; the start node itself is *not* tested (the paper
/// has the initiator send the token out before any membership test).
///
/// Charges 1 round + 1 message per hop.
///
/// Thin wrapper over the slot kernel ([`random_walk_search_slots`]): the
/// two ids are resolved to slots once up front and the predicate sees
/// `id_of_slot` — same draws, same hops, same hit. Held for `benchmark/`,
/// goes with the next benchmark PR.
pub fn random_walk_search<R: Rng + ?Sized>(
    net: &mut Network,
    start: NodeId,
    max_len: u64,
    exclude: Option<NodeId>,
    accept: impl Fn(NodeId) -> bool,
    rng: &mut R,
) -> WalkOutcome {
    let g = net.graph();
    let start = g
        .slot_of(start)
        .unwrap_or_else(|| panic!("walk start {start} missing"));
    // The excluded node may have been deleted already (the paper's
    // type-1 deletion walk excludes the *vanished* node); a missing id
    // simply never matches.
    let exclude = exclude.and_then(|u| g.slot_of(u));
    let out = walk_search(g, start, max_len, exclude, |s| accept(g.id_of_slot(s)), rng);
    let hit = out.hit.map(|s| g.id_of_slot(s));
    charge_hops(net, out.hops);
    WalkOutcome {
        hit,
        hops: out.hops,
    }
}

/// [`random_walk_search`] in the graph's dense slot space: `start`,
/// `exclude`, the predicate's argument and the hit are all arena slots, so
/// a caller that already holds slots (the type-1 healing path, whose
/// predicate is a per-slot load read) pays no id translation at all. Each
/// hop is a reservoir pass over a contiguous `&[u32]` — no hashing and no
/// heap allocation.
pub fn random_walk_search_slots<R: Rng + ?Sized>(
    net: &mut Network,
    start: u32,
    max_len: u64,
    exclude: Option<u32>,
    accept: impl Fn(u32) -> bool,
    rng: &mut R,
) -> SlotWalkOutcome {
    let out = walk_search(net.graph(), start, max_len, exclude, accept, rng);
    charge_hops(net, out.hops);
    out
}

/// The walk itself, uncharged (the graph is borrowed shared so the
/// id-speaking wrapper's predicate can read it).
#[inline]
fn walk_search<R: Rng + ?Sized>(
    g: &MultiGraph,
    start: u32,
    max_len: u64,
    exclude: Option<u32>,
    accept: impl Fn(u32) -> bool,
    rng: &mut R,
) -> SlotWalkOutcome {
    let mut cur = start;
    let mut hops = 0u64;
    let mut hit = None;
    while hops < max_len {
        // Reservoir-pick a uniformly random neighbor entry, skipping
        // the excluded node.
        let mut choice: Option<u32> = None;
        let mut seen = 0usize;
        for &v in g.neighbor_slots(cur) {
            if Some(v) == exclude {
                continue;
            }
            seen += 1;
            if rng.random_range(0..seen) == 0 {
                choice = Some(v);
            }
        }
        let Some(next) = choice else {
            // Only the excluded node is adjacent — the walk is stuck.
            break;
        };
        hops += 1;
        cur = next;
        if accept(cur) {
            hit = Some(cur);
            break;
        }
    }
    SlotWalkOutcome { hit, hops }
}

fn charge_hops(net: &mut Network, hops: u64) {
    net.charge_rounds(hops);
    net.charge_messages(hops);
}

/// Store-and-forward batch routing over flattened slot paths: token `i`
/// follows `flat[ranges[i].0 .. ranges[i].0 + ranges[i].1]` (consecutive
/// entries adjacent or equal; equal = local handoff, free). At most `cap`
/// tokens traverse any directed physical edge per round. Returns the
/// makespan in rounds; charges the makespan as rounds and each actual
/// traversal as one message. The flat form lets callers resolve an entire
/// permutation into one reused buffer with no per-token allocation (see
/// `dex-core`'s `RouteScratch`).
pub fn route_batch_flat(
    net: &mut Network,
    flat: &[u32],
    ranges: &[(usize, usize)],
    cap: usize,
) -> u64 {
    assert!(cap >= 1);
    let path = |i: usize| -> &[u32] {
        let (start, len) = ranges[i];
        &flat[start..start + len]
    };
    // Positions of each token along its path.
    let mut pos: Vec<usize> = vec![0; ranges.len()];
    let mut done = (0..ranges.len()).filter(|&i| path(i).len() <= 1).count();
    // Skip leading local handoffs.
    for i in 0..ranges.len() {
        let p = path(i);
        while pos[i] + 1 < p.len() && p[pos[i]] == p[pos[i] + 1] {
            pos[i] += 1;
        }
        if pos[i] + 1 >= p.len() && p.len() > 1 {
            done += 1;
        }
    }
    let total = ranges.len();
    let mut rounds = 0u64;
    let mut messages = 0u64;
    let mut edge_use: FxHashMap<(u32, u32), usize> = FxHashMap::default();
    while done < total {
        rounds += 1;
        edge_use.clear();
        for i in 0..total {
            let p = path(i);
            if pos[i] + 1 >= p.len() {
                continue;
            }
            let (from, to) = (p[pos[i]], p[pos[i] + 1]);
            debug_assert!(
                net.graph().neighbor_slots(from).contains(&to),
                "route_batch_flat: slots {from}->{to} not an edge"
            );
            let used = edge_use.entry((from, to)).or_insert(0);
            if *used >= cap {
                continue; // token waits this round
            }
            *used += 1;
            pos[i] += 1;
            messages += 1;
            // Consume any following local handoffs for free.
            while pos[i] + 1 < p.len() && p[pos[i]] == p[pos[i] + 1] {
                pos[i] += 1;
            }
            if pos[i] + 1 >= p.len() {
                done += 1;
            }
        }
    }
    net.charge_rounds(rounds);
    net.charge_messages(messages);
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line(net: &mut Network, k: u64) {
        for i in 0..k {
            net.adversary_add_node(NodeId(i));
        }
        for i in 0..k - 1 {
            net.adversary_add_edge(NodeId(i), NodeId(i + 1));
        }
    }

    #[test]
    fn walk_finds_adjacent_target() {
        let mut net = Network::new();
        line(&mut net, 2);
        net.begin_step();
        let mut rng = StdRng::seed_from_u64(1);
        let out = random_walk_search(&mut net, NodeId(0), 10, None, |u| u == NodeId(1), &mut rng);
        assert_eq!(out.hit, Some(NodeId(1)));
        assert_eq!(out.hops, 1);
        let (r, m, _) = net.current_counters();
        assert_eq!((r, m), (1, 1));
        net.end_step(crate::StepKind::Insert, crate::RecoveryKind::Type1);
    }

    #[test]
    fn walk_respects_budget_and_misses() {
        let mut net = Network::new();
        line(&mut net, 10);
        net.begin_step();
        let mut rng = StdRng::seed_from_u64(2);
        // Target unreachable within 3 hops from node 0 on a line.
        let out = random_walk_search(&mut net, NodeId(0), 3, None, |u| u == NodeId(9), &mut rng);
        assert_eq!(out.hit, None);
        assert_eq!(out.hops, 3);
        net.end_step(crate::StepKind::Insert, crate::RecoveryKind::Type1);
    }

    #[test]
    fn walk_excludes_node() {
        // Star: 0 in the middle, leaves 1 and 2; exclude 1 ⇒ token can only
        // bounce 0 <-> 2.
        let mut net = Network::new();
        for i in 0..3 {
            net.adversary_add_node(NodeId(i));
        }
        net.adversary_add_edge(NodeId(0), NodeId(1));
        net.adversary_add_edge(NodeId(0), NodeId(2));
        net.begin_step();
        let mut rng = StdRng::seed_from_u64(3);
        let out = random_walk_search(
            &mut net,
            NodeId(0),
            50,
            Some(NodeId(1)),
            |u| u == NodeId(1),
            &mut rng,
        );
        assert_eq!(out.hit, None, "excluded node must be unreachable");
        net.end_step(crate::StepKind::Insert, crate::RecoveryKind::Type1);
    }

    #[test]
    fn walk_stuck_when_only_excluded_neighbor() {
        let mut net = Network::new();
        line(&mut net, 2);
        net.begin_step();
        let mut rng = StdRng::seed_from_u64(4);
        let out = random_walk_search(&mut net, NodeId(0), 10, Some(NodeId(1)), |_| true, &mut rng);
        assert_eq!(out.hit, None);
        assert_eq!(out.hops, 0);
        net.end_step(crate::StepKind::Insert, crate::RecoveryKind::Type1);
    }

    /// The `NodeId` form is the slot kernel plus id resolution: same hit,
    /// same hops, same charge, and the RNG left in the same state.
    #[test]
    fn id_wrapper_equals_slot_kernel() {
        // A ring with chords, parallel edges and a loop; node 3 deleted and
        // 40 inserted so slots and ids disagree.
        let mut net = Network::new();
        for i in 0..12 {
            net.adversary_add_node(NodeId(i));
        }
        for i in 0..12 {
            net.adversary_add_edge(NodeId(i), NodeId((i + 1) % 12));
            net.adversary_add_edge(NodeId(i), NodeId((i * 5 + 2) % 12));
        }
        net.adversary_remove_node(NodeId(3));
        net.adversary_add_node(NodeId(40));
        net.adversary_add_edge(NodeId(40), NodeId(2));
        net.adversary_add_edge(NodeId(40), NodeId(4));
        net.adversary_add_edge(NodeId(40), NodeId(40));
        let ids = net.graph().nodes_sorted();
        net.begin_step();
        for (case, &start) in ids.iter().enumerate() {
            let exclude = (case % 3 != 0).then(|| ids[(case + 5) % ids.len()]);
            let accept = |u: NodeId| u.0 % 7 == case as u64 % 7;
            let mut rng_a = StdRng::seed_from_u64(case as u64);
            let mut rng_b = rng_a.clone();
            let before = net.current_counters();
            let by_id = random_walk_search(&mut net, start, 9, exclude, accept, &mut rng_a);
            let mid = net.current_counters();
            let g = net.graph();
            let ids_of: Vec<NodeId> = (0..g.slot_bound() as u32)
                .map(|s| {
                    if g.slot_alive(s) {
                        g.id_of_slot(s)
                    } else {
                        NodeId(u64::MAX)
                    }
                })
                .collect();
            let (s_start, s_excl) = (
                g.slot_of(start).unwrap(),
                exclude.map(|u| g.slot_of(u).unwrap()),
            );
            let by_slot = random_walk_search_slots(
                &mut net,
                s_start,
                9,
                s_excl,
                |s| accept(ids_of[s as usize]),
                &mut rng_b,
            );
            let after = net.current_counters();
            assert_eq!(by_id.hops, by_slot.hops, "case {case}");
            assert_eq!(
                by_id.hit,
                by_slot.hit.map(|s| ids_of[s as usize]),
                "case {case}"
            );
            assert_eq!(mid.0 - before.0, after.0 - mid.0, "rounds, case {case}");
            assert_eq!(mid.1 - before.1, after.1 - mid.1, "messages, case {case}");
            assert_eq!(
                rng_a.random::<u64>(),
                rng_b.random::<u64>(),
                "rng, case {case}"
            );
        }
        net.end_step(crate::StepKind::Insert, crate::RecoveryKind::Type1);
    }

    /// Route `paths` (slots of `line`, where node `i` sits in slot `i`)
    /// through [`route_batch_flat`].
    fn route(net: &mut Network, paths: &[&[u32]], cap: usize) -> u64 {
        let flat: Vec<u32> = paths.concat();
        let mut ranges = Vec::new();
        let mut start = 0;
        for p in paths {
            ranges.push((start, p.len()));
            start += p.len();
        }
        route_batch_flat(net, &flat, &ranges, cap)
    }

    #[test]
    fn local_handoffs_are_free() {
        let mut net = Network::new();
        line(&mut net, 4);
        net.begin_step();
        // 0 -> 1 -> 1 (local handoff) -> 2 -> 3: 3 real hops
        let rounds = route(&mut net, &[&[0, 1, 1, 2, 3]], 1);
        assert_eq!(rounds, 3);
        let (r, m, _) = net.current_counters();
        assert_eq!((r, m), (3, 3));
        net.end_step(crate::StepKind::Insert, crate::RecoveryKind::Type1);
    }

    #[test]
    fn congestion_serializes_shared_edge() {
        // 3 tokens all need edge 0->1; cap 1 ⇒ 3 rounds.
        let mut net = Network::new();
        line(&mut net, 2);
        net.begin_step();
        let rounds = route(&mut net, &[&[0, 1], &[0, 1], &[0, 1]], 1);
        assert_eq!(rounds, 3);
        let (r, m, _) = net.current_counters();
        assert_eq!(r, 3);
        assert_eq!(m, 3);
        net.end_step(crate::StepKind::Insert, crate::RecoveryKind::Type1);
    }

    #[test]
    fn disjoint_paths_run_in_parallel() {
        let mut net = Network::new();
        line(&mut net, 6);
        net.begin_step();
        let rounds = route(&mut net, &[&[0, 1, 2], &[3, 4, 5]], 1);
        assert_eq!(rounds, 2, "disjoint paths must not serialize");
        net.end_step(crate::StepKind::Insert, crate::RecoveryKind::Type1);
    }

    #[test]
    fn empty_and_local_paths_cost_nothing() {
        let mut net = Network::new();
        line(&mut net, 3);
        net.begin_step();
        let rounds = route(&mut net, &[&[], &[1], &[2, 2]], 1);
        assert_eq!(rounds, 0);
        let (r, m, _) = net.current_counters();
        assert_eq!((r, m), (0, 0));
        net.end_step(crate::StepKind::Insert, crate::RecoveryKind::Type1);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        // cap applies per *directed* edge: 0->1 and 1->0 simultaneously OK.
        let mut net = Network::new();
        line(&mut net, 2);
        net.begin_step();
        let rounds = route(&mut net, &[&[0, 1], &[1, 0]], 1);
        assert_eq!(rounds, 1);
        net.end_step(crate::StepKind::Insert, crate::RecoveryKind::Type1);
    }
}
