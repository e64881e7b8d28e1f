//! Differential tests: the row-by-row contraction check and the type-2
//! rewire's row diff against the whole-network edge lists they replaced.
//!
//! [`expected_edge_multiset`] and [`merge_rewire`] are those passes, kept
//! here as the oracle (test scaffolding, not API): the first lists every
//! canonical virtual edge as its owners' `(min id, max id)` pair and sorts
//! the list; the second merges it with the network's sorted edge list
//! into the edits the old rewire applied.
//!
//! `invariants::check` compares each live node's sorted row with the row
//! Φ implies (`fabric::ContractionRows`). It must agree with the oracle on
//! clean networks — random bootstraps run through insert/delete scripts,
//! type-2 rebuilds included — and on corruptions that keep every degree,
//! which a degree count cannot see: two edges swapping endpoints, two
//! self-loops traded for a parallel copy (or back), and a Φ transfer whose
//! edges were not moved. `fabric::rewire_diff` must produce the oracle's
//! edit lists exactly, and `fabric::rewire_to_map` the rows that applying
//! them produces, entry order included, on random target maps.

use dex_core::fabric;
use dex_core::{invariants, DexConfig, DexNetwork, VirtualMapping};
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::PCycle;
use dex_graph::primes;
use dex_sim::rng::splitmix64;
use dex_sim::Network;
use proptest::prelude::*;

type Edges = Vec<(NodeId, NodeId)>;

/// The expected physical edge multiset of the contraction of `cycle`
/// under `map`: normalized `(min, max)` pairs, sorted.
fn expected_edge_multiset(map: &VirtualMapping, cycle: &PCycle) -> Edges {
    let mut out = Vec::with_capacity(cycle.p() as usize * 2);
    fabric::for_each_canonical_edge(cycle, |a, b| {
        let (ua, ub) = (map.owner_of(a), map.owner_of(b));
        out.push((ua.min(ub), ua.max(ub)));
    });
    out.sort_unstable();
    out
}

/// The network's edges as normalized pairs, sorted.
fn current_edges(net: &Network) -> Edges {
    let mut out: Edges = net.graph().edges();
    out.sort_unstable();
    out
}

/// The old rewire's edit lists: the multiset differences current − target
/// and target − current, by a merge of the two sorted lists.
fn merge_rewire(net: &Network, target: &[(NodeId, NodeId)]) -> (Edges, Edges) {
    let current = current_edges(net);
    let (mut remove, mut add) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    loop {
        match (current.get(i), target.get(j)) {
            (Some(&c), Some(&t)) if c == t => {
                i += 1;
                j += 1;
            }
            (Some(&c), Some(&t)) if c < t => {
                remove.push(c);
                i += 1;
            }
            (Some(&c), None) => {
                remove.push(c);
                i += 1;
            }
            (_, Some(&t)) => {
                add.push(t);
                j += 1;
            }
            (None, None) => break,
        }
    }
    (remove, add)
}

/// Does the oracle find the fabric exact?
fn oracle_exact(dex: &DexNetwork) -> bool {
    current_edges(&dex.net) == expected_edge_multiset(&dex.map, &dex.cycle)
}

/// A simplified network bootstrapped at `n0` and run through `script`
/// (insert? and a raw index picking the attach point or the victim).
/// Deterministic, so a test can build the same network twice.
fn build(seed: u64, n0: u64, script: &[(bool, usize)]) -> DexNetwork {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(seed).simplified(), n0);
    let mut next = dex.fresh_node_id().0;
    for &(insert, raw) in script {
        let live = dex.node_ids();
        let pick = live[raw % live.len()];
        if insert || live.len() <= 6 {
            dex.insert(NodeId(next), pick);
            next += 1;
        } else {
            dex.delete(pick);
        }
    }
    dex
}

/// A uniform pick from `0..len` off a SplitMix64 state.
fn pick(state: &mut u64, len: usize) -> usize {
    *state = splitmix64(*state);
    (*state % len as u64) as usize
}

/// The three degree-preserving corruptions.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    SwapEndpoints,
    TradeLoops,
    PhiTransfer,
}

/// Apply `kind` to `dex`, choices drawn from `state`. Returns `false` when
/// the network offers no place for it.
fn corrupt(dex: &mut DexNetwork, kind: Corruption, state: &mut u64) -> bool {
    let edges = current_edges(&dex.net);
    let net = &mut dex.net;
    match kind {
        Corruption::SwapEndpoints => {
            let links: Edges = edges.into_iter().filter(|(a, b)| a != b).collect();
            if links.len() < 2 {
                return false;
            }
            let i = pick(state, links.len());
            let j = (i + 1 + pick(state, links.len() - 1)) % links.len();
            let ((a, b), (c, d)) = (links[i], links[j]);
            assert!(net.adversary_remove_edge(a, b));
            assert!(net.adversary_remove_edge(c, d));
            net.adversary_add_edge(a, d);
            net.adversary_add_edge(c, b);
        }
        Corruption::TradeLoops => {
            let g = net.graph();
            let looped: Vec<NodeId> = g
                .nodes_sorted()
                .into_iter()
                .filter(|&u| g.contains_edge(u, u))
                .collect();
            let doubled: Edges = edges
                .windows(2)
                .filter(|w| w[0] == w[1] && w[0].0 != w[0].1)
                .map(|w| w[0])
                .collect();
            // Two loops for one more copy of an edge between their nodes
            // (adjacent ones when there are), or a doubled edge's copy for
            // two loops.
            let adjacent: Edges = edges
                .iter()
                .copied()
                .filter(|&(a, b)| a != b && looped.contains(&a) && looped.contains(&b))
                .collect();
            if looped.len() >= 2 && (pick(state, 2) == 0 || doubled.is_empty()) {
                let (a, b) = if adjacent.is_empty() {
                    let a = looped[pick(state, looped.len())];
                    let b = loop {
                        let b = looped[pick(state, looped.len())];
                        if b != a {
                            break b;
                        }
                    };
                    (a, b)
                } else {
                    adjacent[pick(state, adjacent.len())]
                };
                assert!(net.adversary_remove_edge(a, a));
                assert!(net.adversary_remove_edge(b, b));
                net.adversary_add_edge(a, b);
            } else if !doubled.is_empty() {
                let (a, b) = doubled[pick(state, doubled.len())];
                assert!(net.adversary_remove_edge(a, b));
                net.adversary_add_edge(a, a);
                net.adversary_add_edge(b, b);
            } else {
                return false;
            }
        }
        Corruption::PhiTransfer => {
            let nodes = dex.node_ids();
            let from: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&u| dex.load(u) >= 2)
                .collect();
            if from.is_empty() {
                return false;
            }
            let a = from[pick(state, from.len())];
            let b = *nodes
                .iter()
                .filter(|&&u| u != a)
                .min_by_key(|&&u| dex.load(u))
                .expect("two nodes");
            let sim = dex.sim(a);
            let z = sim[pick(state, sim.len())];
            let sb = dex.net.graph().slot_of(b).expect("live");
            dex.map.transfer_at(z, b, sb);
        }
    }
    true
}

/// The row check agrees with the oracle on `dex`; a mismatch is reported
/// as one, not as some other violation.
fn agrees(dex: &DexNetwork) -> Result<(), TestCaseError> {
    let verdict = invariants::check(dex);
    if oracle_exact(dex) {
        prop_assert!(verdict.is_ok(), "oracle exact, check says {verdict:?}");
    } else {
        let err = verdict.err().unwrap_or_default();
        prop_assert!(err.starts_with("fabric mismatch"), "check says {err:?}");
    }
    Ok(())
}

/// A random Φ of `Z(q)` onto the live nodes of `dex`, slotted by its arena
/// (some nodes may get nothing: their rows empty out).
fn random_target(dex: &DexNetwork, q: u64, state: &mut u64) -> VirtualMapping {
    let g = dex.net.graph();
    let nodes = dex.node_ids();
    let mut map = VirtualMapping::with_caller_slots(dex.cfg.zeta, q, g.slot_bound());
    for z in 0..q {
        let u = nodes[pick(state, nodes.len())];
        map.assign_at(VertexId(z), u, g.slot_of(u).expect("live"));
    }
    map
}

fn arb_script() -> impl Strategy<Value = Vec<(bool, usize)>> {
    proptest::collection::vec((any::<bool>(), 0usize..1 << 16), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn row_check_agrees_with_the_edge_list_oracle(
        seed in 0u64..1 << 20,
        n0 in 8u64..160,
        script in arb_script(),
        choice in any::<u64>(),
    ) {
        let clean = build(seed, n0, &script);
        prop_assert!(oracle_exact(&clean));
        agrees(&clean)?;
        let kinds = [Corruption::SwapEndpoints, Corruption::TradeLoops, Corruption::PhiTransfer];
        for (i, kind) in kinds.into_iter().enumerate() {
            let mut dex = build(seed, n0, &script);
            let mut state = choice ^ i as u64;
            if corrupt(&mut dex, kind, &mut state) {
                agrees(&dex)?;
            }
        }
    }

    #[test]
    fn rewire_lists_and_rows_match_the_merge_oracle(
        seed in 0u64..1 << 20,
        n0 in 8u64..160,
        script in arb_script(),
        choice in any::<u64>(),
    ) {
        let mut old = build(seed, n0, &script);
        let mut new = build(seed, n0, &script);
        // The cycle itself, or the next one up or down.
        let p = old.cycle.p();
        let mut state = choice;
        let q = match pick(&mut state, 3) {
            0 => p,
            1 => primes::inflation_prime(p),
            _ => primes::deflation_prime(p).filter(|&q| q >= 5).unwrap_or(p),
        };
        let cycle = PCycle::new(q);
        let target = random_target(&old, q, &mut state);

        let (remove, add) = merge_rewire(&old.net, &expected_edge_multiset(&target, &cycle));
        prop_assert_eq!(fabric::rewire_diff(&new.net, &target, &cycle), (remove.clone(), add.clone()));

        for &(a, b) in &remove {
            prop_assert!(old.net.remove_edge(a, b));
        }
        for &(a, b) in &add {
            old.net.add_edge(a, b);
        }
        let counts = fabric::rewire_to_map(&mut new.net, &target, &cycle);
        prop_assert_eq!(counts, (remove.len() as u64, add.len() as u64));
        let (g_old, g_new) = (old.net.graph(), new.net.graph());
        prop_assert_eq!(g_old.slot_bound(), g_new.slot_bound());
        for slot in 0..g_old.slot_bound() as u32 {
            prop_assert_eq!(g_old.neighbor_slots(slot), g_new.neighbor_slots(slot));
        }
        old.map = target;
        old.cycle = cycle;
        prop_assert!(oracle_exact(&old));
        prop_assert_eq!(fabric::rewire_diff(&old.net, &old.map, &old.cycle), (vec![], vec![]));
    }
}
