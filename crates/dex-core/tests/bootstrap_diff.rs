//! Differential tests: the row-order bootstrap against the edge-by-edge
//! build it replaced.
//!
//! [`edge_by_edge`] is that build, kept here as the oracle (test
//! scaffolding, not API): it deals vertex `x` to node `x mod n` one
//! `assign_at` at a time, then pushes every canonical virtual-edge
//! instance onto its two owners' rows in [`fabric::for_each_canonical_edge`]
//! order. [`fabric::deal_round_robin`] writes each node's row and `Sim`
//! segment once, in slot order, and must come out identical: every row
//! entry for entry (order included — walks draw a uniform index into it),
//! the edge count and the CSR snapshot, Φ's entries, every `Sim` slice in
//! order, `|Spare|` and `|Low|`.
//!
//! Small primes on n ∈ {2, 3, 5, 7} hit the shapes a row has to merge:
//! the `(p−1, 0)` wrap with both ends in one node, chords between two
//! vertices of one node, the three self-loops, and nodes with no vertex
//! (n > p). The proptest covers n up to 30k with the bootstrap's own
//! prime and with arbitrary primes p > n, up to 20 vertices a node, so
//! `Sim` segments spill past the inline class.

use dex_core::fabric;
use dex_core::{invariants, DexConfig, DexNetwork, VirtualMapping};
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::PCycle;
use dex_graph::primes;
use dex_sim::Network;
use proptest::prelude::*;

/// The edge-by-edge bootstrap, the oracle.
fn edge_by_edge(zeta: u64, cycle: &PCycle, n: u64) -> (Network, VirtualMapping) {
    let mut map = VirtualMapping::with_caller_slots(zeta, cycle.p(), 0);
    let mut net = Network::new();
    for i in 0..n {
        net.adversary_add_node(NodeId(i));
    }
    for x in 0..cycle.p() {
        let i = x % n;
        map.assign_at(VertexId(x), NodeId(i), i as u32);
    }
    fabric::for_each_canonical_edge(cycle, |a, b| {
        net.adversary_add_edge_slots(map.owner_slot_of(a), map.owner_slot_of(b));
    });
    (net, map)
}

/// Both builds of `(p, n)` agree slot by slot; `Err` names the first
/// difference.
fn same_bootstrap(p: u64, n: u64) -> Result<(), String> {
    let cycle = PCycle::new(p);
    let (net, map) = fabric::deal_round_robin(8, &cycle, n);
    let (want_net, want_map) = edge_by_edge(8, &cycle, n);
    let (g, want) = (net.graph(), want_net.graph());
    let case = format!("p = {p}, n = {n}");
    if g.slot_bound() != want.slot_bound() || g.num_nodes() != want.num_nodes() {
        return Err(format!("{case}: node arenas differ"));
    }
    if g.num_edges() != want.num_edges() {
        let (got, exp) = (g.num_edges(), want.num_edges());
        return Err(format!("{case}: {got} edges, expected {exp}"));
    }
    for slot in 0..g.slot_bound() as u32 {
        if g.neighbor_slots(slot) != want.neighbor_slots(slot) {
            return Err(format!(
                "{case}: row {slot} is {:?}, expected {:?}",
                g.neighbor_slots(slot),
                want.neighbor_slots(slot)
            ));
        }
        if map.sim_at(slot) != want_map.sim_at(slot) {
            return Err(format!(
                "{case}: Sim of slot {slot} is {:?}, expected {:?}",
                map.sim_at(slot),
                want_map.sim_at(slot)
            ));
        }
    }
    if !map.entries().eq(want_map.entries()) {
        return Err(format!("{case}: Φ entries differ"));
    }
    if (map.spare_count(), map.low_count()) != (want_map.spare_count(), want_map.low_count()) {
        return Err(format!("{case}: |Spare| / |Low| differ"));
    }
    if *g.csr() != *want.csr() {
        return Err(format!("{case}: CSR snapshots differ"));
    }
    map.validate().map_err(|e| format!("{case}: Φ: {e}"))
}

#[test]
fn small_primes_match_the_edge_by_edge_build() {
    let small_primes = (5..=97).filter(|&p| primes::is_prime(p));
    for p in small_primes {
        for n in [1, 2, 3, 5, 7] {
            same_bootstrap(p, n).unwrap();
        }
    }
}

#[test]
fn wrap_and_chords_inside_one_node() {
    // (p−1) mod n = 0 puts both ends of the wrap edge (p−1, 0) in node 0:
    // p = 7, n = 3 and n = 2; p = 11, n = 5.
    // Same-node chords: in Z(7), 2·4 ≡ 1 and 3·5 ≡ 1, so n = 2 holds the
    // chords (2, 4) and (3, 5) inside nodes 0 and 1.
    for (p, n) in [(7, 3), (7, 2), (11, 5), (13, 2), (13, 3)] {
        same_bootstrap(p, n).unwrap();
    }
}

#[test]
fn bootstrapped_networks_pass_the_invariant_check() {
    for n in [2, 3, 5, 7, 2_000] {
        let dex = DexNetwork::bootstrap(DexConfig::new(1), n);
        invariants::check(&dex).unwrap_or_else(|e| panic!("n = {n}: {e}"));
        same_bootstrap(dex.cycle.p(), n).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn row_order_sweep_matches_edge_by_edge(
        n in 2u64..30_001,
        arbitrary in any::<bool>(),
        per_node in 1u64..20,
    ) {
        // The bootstrap's prime in (4n, 8n), or the first prime past
        // n·per_node (so p > n, up to 20 vertices a node).
        let p = if arbitrary {
            primes::smallest_prime_in((n * per_node).max(4), u64::MAX).unwrap()
        } else {
            primes::initial_prime(n)
        };
        prop_assert_eq!(same_bootstrap(p, n), Ok(()));
    }
}
