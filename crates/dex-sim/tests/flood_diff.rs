//! The flood kernel against the queue BFS it replaced.
//!
//! `dex_sim::flood` discovers levels top-down or bottom-up, never expands
//! the last one and keeps no distance table; the BFS below pops one node
//! at a time and reads every adjacency entry. They must agree on every
//! field of [`FloodResult`] — the witness's tie on ids included — and on
//! what is charged to the [`Network`], on any multigraph the arena can
//! hold: recycled slots, dead slots, self-loops, parallel edges, several
//! components.

use dex_graph::adjacency::MultiGraph;
use dex_graph::ids::NodeId;
use dex_sim::flood::{flood_count_slots, flood_count_with, FloodResult, FloodScratch};
use dex_sim::{Network, RecoveryKind, StepKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The deleted `flood_bfs`: a `VecDeque` BFS over a fresh distance table.
fn reference_flood(g: &MultiGraph, root: NodeId, pred: impl Fn(NodeId) -> bool) -> FloodResult {
    let root = g.slot_of(root).expect("root is live");
    let mut dist = vec![u32::MAX; g.slot_bound()];
    let mut queue = VecDeque::from([root]);
    dist[root as usize] = 0;
    let (mut n, mut matching, mut ecc, mut broadcast) = (0usize, 0usize, 0u32, 0u64);
    let mut witness: Option<(u32, NodeId)> = None;
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        ecc = ecc.max(du);
        n += 1;
        if pred(g.id_of_slot(u)) {
            matching += 1;
            let cand = (du, g.id_of_slot(u));
            if witness.is_none_or(|best| cand < best) {
                witness = Some(cand);
            }
        }
        // The root forwards on every edge, the others on all but the one
        // the request came in on.
        let nbrs = g.neighbor_slots(u);
        let deg = nbrs.len() as u64;
        broadcast += if u == root {
            deg
        } else {
            deg.saturating_sub(1)
        };
        for &v in nbrs {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    FloodResult {
        n,
        matching,
        rounds: 2 * ecc as u64,
        messages: broadcast + (n as u64).saturating_sub(1),
        witness: witness.map(|(_, id)| id),
    }
}

/// `live` nodes in an arena of `6 * live` slots, `recycled` of them in
/// slots a removed node vacated, split into `components` edge-disjoint
/// groups with `edges` random edges each endpoint pair drawn within one
/// group — so self-loops and parallel copies occur — plus one of each
/// placed on purpose.
fn scrambled_net(
    seed: u64,
    live: usize,
    recycled: usize,
    components: usize,
    edges: usize,
) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new();
    let mut ids: Vec<NodeId> = (0..6 * live as u64).map(|i| NodeId(1_000 + i)).collect();
    for &u in &ids {
        net.adversary_add_node(u);
    }
    // Remove all but `live - recycled`, in random order: the free list is
    // a random permutation of the dead slots.
    while ids.len() > live - recycled {
        let u = ids.swap_remove(rng.random_range(0..ids.len()));
        net.adversary_remove_node(u);
    }
    // Newcomers take the most recently vacated slots; their ids sort
    // below every survivor's, so id order and slot order disagree.
    for i in 0..recycled as u64 {
        ids.push(NodeId(i));
        net.adversary_add_node(NodeId(i));
    }
    assert_eq!(net.graph().num_nodes(), live);
    assert!(net.graph().slot_bound() >= 5 * live);
    let groups: Vec<Vec<NodeId>> = (0..components)
        .map(|c| ids.iter().copied().skip(c).step_by(components).collect())
        .collect();
    for group in &groups {
        for _ in 0..edges {
            let a = group[rng.random_range(0..group.len())];
            let b = group[rng.random_range(0..group.len())];
            net.adversary_add_edge(a, b);
        }
        net.adversary_add_edge(group[0], group[0]);
        net.adversary_add_edge(group[0], group[group.len() - 1]);
        net.adversary_add_edge(group[0], group[group.len() - 1]);
    }
    net.graph().validate().expect("scrambled graph is coherent");
    net
}

/// One flood through the `NodeId` form, the slot kernel, and the `NodeId`
/// form on a fresh scratch: all equal to the reference, each charging
/// exactly what it reports.
fn assert_flood_matches(
    net: &mut Network,
    root: NodeId,
    pred: impl Fn(NodeId) -> bool + Copy,
    scratch: &mut FloodScratch,
) -> FloodResult {
    let expected = reference_flood(net.graph(), root, pred);
    let root_slot = net.graph().slot_of(root).expect("root is live");
    let ids_of: Vec<Option<NodeId>> = (0..net.graph().slot_bound() as u32)
        .map(|s| net.graph().slot_alive(s).then(|| net.graph().id_of_slot(s)))
        .collect();
    let slot_pred = |s: u32| pred(ids_of[s as usize].expect("the flood only visits live slots"));
    net.begin_step();
    for entry in 0..3 {
        let before = net.current_counters();
        let got = match entry {
            0 => flood_count_with(net, root, pred, scratch),
            1 => flood_count_slots(net, root_slot, slot_pred, scratch),
            _ => flood_count_with(net, root, pred, &mut FloodScratch::new()),
        };
        let after = net.current_counters();
        assert_eq!(got, expected, "root {root}, entry point {entry}");
        assert_eq!(after.0 - before.0, expected.rounds, "rounds charged");
        assert_eq!(after.1 - before.1, expected.messages, "messages charged");
        assert_eq!(after.2, before.2, "a flood changes no topology");
    }
    net.end_step(StepKind::Insert, RecoveryKind::Type1);
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Every root, three predicates, one scratch for the whole case (so
    // stamps of earlier floods are what later ones must see through).
    // `density` spans rows of ≈ 2 entries — all top-down — to rows of
    // ≈ 50, where most levels go bottom-up.
    #[test]
    fn every_root_matches_the_reference(
        seed in any::<u64>(),
        live in 6usize..40,
        components in 2usize..4,
        density in 1usize..26,
    ) {
        let recycled = live / 3;
        let per_group = live / components;
        let mut net = scrambled_net(seed, live, recycled, components, per_group * density);
        let mut scratch = FloodScratch::new();
        let sparse = seed % 5 + 2;
        for root in net.graph().nodes_sorted() {
            assert_flood_matches(&mut net, root, |_| false, &mut scratch);
            let all = assert_flood_matches(&mut net, root, |_| true, &mut scratch);
            assert_flood_matches(&mut net, root, move |u| u.0 % sparse == 1, &mut scratch);
            prop_assert_eq!(all.matching, all.n);
            prop_assert!(all.n < live, "at least two components");
        }
        let work = scratch.work();
        prop_assert_eq!(work.floods, 6 * live as u64);
        prop_assert!(work.levels >= work.floods);
    }
}

/// One flood that goes bottom-up, top-down, bottom-up, bottom-up — so the
/// unreached list, built on the first level, holds nodes a later top-down
/// level reached, and the next bottom-up level must not find them again.
///
/// Twelve live nodes; bottom-up is taken when the frontier's degree sum
/// exceeds 16 × the nodes left to find:
///
/// * level 0, `r` with 200 self-loops: 201 > 16·11 → bottom-up finds `a`;
/// * level 1, `a` with 5 edges: 5 < 16·10 → top-down finds `b1..b4`;
/// * level 2, each `b` tied to its `c` by 30 parallel edges: 124 > 16·6 →
///   bottom-up finds `c1..c4` (the list still names the `b`s);
/// * level 3, `c1`–`d1` and `c2`–`d2`: 122 > 16·2 → bottom-up finds both;
/// * level 4 completes the count and is not expanded.
#[test]
fn one_flood_switches_direction_twice() {
    let mut net = Network::new();
    // Dead slots first, so the bottom-up list has some to leave out.
    for i in 0..20 {
        net.adversary_add_node(NodeId(500 + i));
    }
    for i in (0..20).step_by(2) {
        net.adversary_remove_node(NodeId(500 + i));
    }
    for i in (1..20).step_by(2) {
        net.adversary_remove_node(NodeId(500 + i));
    }
    let [r, a] = [NodeId(90), NodeId(80)];
    let b: Vec<NodeId> = (0..4).map(|i| NodeId(70 + i)).collect();
    let c: Vec<NodeId> = (0..4).map(|i| NodeId(10 + i)).collect();
    let d = [NodeId(40), NodeId(41)];
    for &u in [r, a].iter().chain(&b).chain(&c).chain(&d) {
        net.adversary_add_node(u);
    }
    for _ in 0..200 {
        net.adversary_add_edge(r, r);
    }
    net.adversary_add_edge(r, a);
    for i in 0..4 {
        net.adversary_add_edge(a, b[i]);
        for _ in 0..30 {
            net.adversary_add_edge(b[i], c[i]);
        }
    }
    net.adversary_add_edge(c[0], d[0]);
    net.adversary_add_edge(c[1], d[1]);
    assert_eq!(net.graph().num_nodes(), 12);
    assert_eq!(net.graph().free_slots().len(), 8);

    let mut scratch = FloodScratch::new();
    net.begin_step();
    let got = flood_count_with(&mut net, r, |u| u.0 < 50, &mut scratch);
    net.end_step(StepKind::Insert, RecoveryKind::Type1);
    assert_eq!(
        got,
        reference_flood(net.graph(), r, |u| u.0 < 50),
        "kernel vs reference"
    );
    assert_eq!(got.n, 12, "no node is found twice");
    assert_eq!(got.rounds, 8);
    assert_eq!(got.witness, Some(c[0]), "nearest match, lowest id");
    let work = scratch.work();
    assert_eq!(work.floods, 1);
    assert_eq!(work.levels, 5);
    assert_eq!(work.rows_top_down, 1, "only a's row is read top-down");
    // Level 0 reads the 11 other rows, level 2 the 6 not yet reached
    // (skipping the four stale entries), level 3 the last two.
    assert_eq!(work.rows_bottom_up, 11 + 6 + 2);
    assert!(work.entries < net.graph().degree_sum() as u64);
}
