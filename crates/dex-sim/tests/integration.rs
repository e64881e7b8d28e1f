//! Cross-module tests for the simulator substrate: metering composes
//! correctly across walks, floods, and batch routing within one step.

use dex_graph::ids::NodeId;
use dex_sim::flood::{flood_count_slots, FloodScratch};
use dex_sim::rng::{Purpose, SeedSpace};
use dex_sim::tokens::{random_walk_search_slots, route_batch_flat};
use dex_sim::{Network, RecoveryKind, StepKind, Summary};

/// Z(p) as a physical network, vertex `x` on node `x` in slot `x`.
fn expander_net(p: u64) -> Network {
    let z = dex_graph::pcycle::PCycle::new(p);
    let mut net = Network::new();
    for x in 0..p {
        net.adversary_add_node(NodeId(x));
    }
    for (a, b) in z.edges() {
        net.adversary_add_edge(NodeId(a.0), NodeId(b.0));
    }
    net
}

#[test]
fn mixed_operations_accumulate_in_one_step() {
    let mut net = expander_net(101);
    let seeds = SeedSpace::new(5);
    net.begin_step();

    let mut rng = seeds.stream(Purpose::InsertWalk, &[1]);
    let walk = random_walk_search_slots(&mut net, 0, 30, None, |s| s == 50, &mut rng);
    let (r1, m1, _) = net.current_counters();
    assert_eq!(r1, walk.hops);
    assert_eq!(m1, walk.hops);

    let mut scratch = FloodScratch::new();
    let flood = flood_count_slots(&mut net, 0, |s| s % 2 == 0, &mut scratch);
    assert_eq!(flood.n, 101);
    assert_eq!(flood.matching, 51);
    let (r2, m2, _) = net.current_counters();
    assert_eq!(r2, r1 + flood.rounds);
    assert_eq!(m2, m1 + flood.messages);

    route_batch_flat(&mut net, &[0, 1, 2], &[(0, 3)], 1);
    let (r3, m3, _) = net.current_counters();
    assert_eq!(r3, r2 + 2);
    assert_eq!(m3, m2 + 2);

    let metrics = net.end_step(StepKind::Insert, RecoveryKind::Type1);
    assert_eq!(metrics.rounds, r3);
    assert_eq!(metrics.messages, m3);
    assert_eq!(metrics.topology_changes, 0);
}

#[test]
fn walk_on_expander_finds_large_targets_quickly() {
    // On Z(499): a target set of half the nodes is hit within a few hops
    // almost always — Lemma 2's practical face.
    let mut net = expander_net(499);
    let seeds = SeedSpace::new(6);
    let mut hops = Vec::new();
    net.begin_step();
    for i in 0..200u64 {
        let mut rng = seeds.stream(Purpose::InsertWalk, &[i]);
        let out = random_walk_search_slots(&mut net, 0, 100, None, |s| s % 2 == 1, &mut rng);
        assert!(out.hit.is_some());
        hops.push(out.hops);
    }
    net.end_step(StepKind::Insert, RecoveryKind::Type1);
    let s = Summary::of(hops);
    assert!(s.p95 <= 10, "p95 hops {} to hit half the graph", s.p95);
}

#[test]
fn congested_routing_is_conserving() {
    // Total messages equals total real hops regardless of capacity.
    let flat: Vec<u32> = (0..20u32).flat_map(|i| [i, i + 1, i + 2]).collect();
    let ranges: Vec<(usize, usize)> = (0..20).map(|i| (3 * i, 3)).collect();
    for cap in [1usize, 2, 8] {
        let mut net = expander_net(101);
        net.begin_step();
        route_batch_flat(&mut net, &flat, &ranges, cap);
        let (_, m, _) = net.current_counters();
        assert_eq!(m, 40, "cap {cap}: messages {m}");
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }
}

#[test]
fn history_records_every_step_in_order() {
    let mut net = expander_net(23);
    for i in 0..5 {
        net.begin_step();
        net.charge_rounds(i);
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }
    assert_eq!(net.history().len(), 5);
    for (i, m) in net.history().iter().enumerate() {
        assert_eq!(m.step, i as u64 + 1);
        assert_eq!(m.rounds, i as u64);
    }
}
