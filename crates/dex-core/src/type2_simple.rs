//! Simplified (one-shot) type-2 recovery: Procedures `simplifiedInfl`
//! (Algorithm 4.5) and `simplifiedDefl` (Algorithm 4.6).
//!
//! The whole virtual graph is replaced in a single step: O(n) topology
//! changes and O(n log² n) messages, amortized over the Ω(n) type-1 steps
//! that separate consecutive type-2 events (Lemma 8 ⇒ Corollary 1).
//!
//! Cost accounting:
//! * the rebuild request flood and the Phase-2 balls-into-bins walks are
//!   simulated hop-by-hop with real congestion (CONGEST: per-edge
//!   serialization);
//! * the permutation-routing step that installs inverse-chord edges is
//!   *executed* token-by-token on the old virtual graph with per-edge
//!   congestion up to `p ≤` [`crate::routing::EXACT_ROUTING_MAX_P`]; above
//!   that it is charged at the analytical cost (`O(p·log p)` messages,
//!   `O(log p)` rounds);
//! * edge churn is the exact multiset difference between the old and new
//!   contraction fabrics.

use crate::dex::DexNetwork;
use crate::fabric;
use crate::mapping::VirtualMapping;
use dex_graph::fxhash::{FxHashMap, FxHashSet};
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::{resize, PCycle};
use dex_graph::primes;
use dex_sim::rng::Purpose;
use dex_sim::tokens::random_walk_search;
use rand::Rng;

/// Charge the analytical cost of one permutation-routing pass on a
/// bounded-degree expander of `p` vertices (Scheideler, Cor. 7.7.3): we
/// bill `6·⌈log₂ p⌉` rounds and `p·⌈log₂ p⌉` messages per pass. Used only
/// above [`crate::routing::EXACT_ROUTING_MAX_P`]; below it the inverse
/// permutation is actually routed token-by-token (tests in
/// [`crate::routing`] check the model dominates reality).
fn charge_permutation_routing(dex: &mut DexNetwork, p: u64) {
    let logp = (64 - p.max(2).leading_zeros() as u64).max(1);
    dex.net.charge_rounds(6 * logp);
    dex.net.charge_messages(p * logp);
}

/// Install the inverse-chord edges of the new cycle: route the inverse
/// permutation for real when feasible, else charge the analytical model.
/// Requests travel between the old-cycle *source* vertices of `y` and
/// `y⁻¹` along the old virtual graph, which is still fully materialized
/// (the paper solves permutation routing on `Z_{t-1}(p_i)`).
fn inverse_edge_routing(dex: &mut DexNetwork, inflating: bool, new_cycle: &PCycle) {
    let p_new = new_cycle.p();
    if p_new > crate::routing::EXACT_ROUTING_MAX_P {
        charge_permutation_routing(dex, p_new);
        return;
    }
    let p_old = dex.cycle.p();
    let mut pairs = if inflating {
        crate::routing::inflation_inverse_pairs(p_old, p_new)
    } else {
        crate::routing::deflation_inverse_pairs(p_old, p_new)
    };
    // Pairs whose sources live on the same node are local and free.
    pairs.retain(|&(a, b)| dex.map.owner_of(a) != dex.map.owner_of(b));
    crate::routing::route_pairs_with(
        &mut dex.net,
        &dex.map,
        &dex.cycle,
        &pairs,
        1,
        &mut dex.heal.route,
    );
}

/// Smallest prime we are willing to deflate to (`PCycle` needs p ≥ 5;
/// below this the network is a constant-size object anyway).
pub const MIN_PRIME: u64 = 5;

/// Procedure `simplifiedInfl`. `pending` carries the freshly inserted node
/// and its attach point when the inflation was triggered by an insertion.
pub fn inflate(dex: &mut DexNetwork, pending: Option<(NodeId, NodeId)>) {
    let p_old = dex.cycle.p();
    let p_new = primes::inflation_prime(p_old);
    let new_cycle = PCycle::new(p_new);

    // Flood the rebuild request so every node switches to the same Z(p').
    let root = pending
        .map(|(_, v)| v)
        .unwrap_or_else(|| dex.net.graph().nodes_sorted()[0]);
    // Under a fault spec the announcement flood plus its convergecast
    // (reservations + commit acks) run on the message schedule and may
    // roll back and re-initiate; nothing below executes until a
    // coordination round completes.
    dex.type2_coordinate(root);

    // Phase 1: every node locally replaces each owned vertex x by its
    // cloud (Eq. 6–8), in canonical (vertex-ascending) order. Local
    // computation is free in the model. Clouds are contiguous (Eq. 7):
    // one run assignment per old vertex — sequential dense writes instead
    // of α separate assigns — into the owner's slot, which the new Φ
    // shares with the old one (both are slotted by the graph's arena).
    let mut new_map =
        VirtualMapping::with_caller_slots(dex.cfg.zeta, p_new, dex.net.graph().slot_bound());
    for (z, owner, slot) in dex.map.entries_at() {
        let (start, len) = resize::inflation_cloud_range(z.0, p_old, p_new);
        new_map.assign_run_at(VertexId(start), len, owner, slot);
    }
    // Cycle edges come from the old cycle's edges: O(1) rounds, one
    // message per old cycle edge per direction.
    dex.net.charge_rounds(2);
    dex.net.charge_messages(2 * p_old);
    // Inverse-chord edges by permutation routing on the old virtual graph.
    inverse_edge_routing(dex, true, &new_cycle);

    // The freshly inserted node receives one newly generated vertex from
    // its attach point (Algorithm 4.5, line 6).
    if let Some((u, v)) = pending {
        debug_assert!(new_map.load(v) >= 4, "cloud sizes are >= 4 (α > 4)");
        let z = *new_map.sim(v).iter().max().expect("nonempty");
        new_map.transfer_at(z, u, dex.slot(u));
        dex.net.charge_messages(4);
        dex.net.charge_rounds(1);
    }

    // Install the new fabric (exact multiset diff — shared edges are
    // untouched). The adversarial attach edge disappears here unless the
    // new virtual graph requires a (u, v) edge.
    fabric::rewire_to_map(&mut dex.net, &new_map, &new_cycle);
    dex.map = new_map;
    dex.cycle = new_cycle;

    // Every node announces its new load to its neighbors once.
    let total_deg = dex.net.graph().degree_sum() as u64;
    dex.net.charge_messages(total_deg);
    dex.net.charge_rounds(1);

    // Phase 2: spread overload (> 4ζ) via random walks on the new virtual
    // graph until the mapping is 4ζ-balanced again.
    rebalance_overload(dex);
}

/// Procedure `simplifiedDefl`. `root` is the node that detected the
/// failure (the deletion rescuer).
pub fn deflate(dex: &mut DexNetwork, root: NodeId) {
    let p_old = dex.cycle.p();
    let p_new = primes::deflation_prime(p_old)
        .filter(|&q| q >= MIN_PRIME)
        .unwrap_or_else(|| panic!("cannot deflate below p = {p_old}: network too small for Z(p)"));
    let new_cycle = PCycle::new(p_new);

    // Same coordination contract as `inflate`: commit only after a
    // complete announcement/reservation/ack round.
    dex.type2_coordinate(root);

    // Phase 1: dominating vertices survive (y = ⌊x/α⌋, smallest preimage
    // keeps it), assigned in canonical order; everything else is
    // contracted away.
    let mut new_map =
        VirtualMapping::with_caller_slots(dex.cfg.zeta, p_new, dex.net.graph().slot_bound());
    for (z, owner, slot) in dex.map.entries_at() {
        if resize::is_dominating(z.0, p_old, p_new) {
            let image = resize::deflation_image(z.0, p_old, p_new);
            new_map.assign_at(VertexId(image), owner, slot);
        }
    }
    dex.net.charge_rounds(2);
    dex.net.charge_messages(2 * p_old);
    inverse_edge_routing(dex, false, &new_cycle);

    // Every node that got at least one new vertex reserves one by marking
    // it `taken` (Algorithm 4.6, line 9).
    let mut taken: FxHashSet<VertexId> = FxHashSet::default();
    let mut owners: Vec<NodeId> = new_map.nodes().collect();
    owners.sort_unstable();
    for u in owners {
        let reserve = *new_map.sim(u).iter().min().expect("nonempty");
        taken.insert(reserve);
    }

    // Phase 2 — run *before* discarding the old fabric so contending nodes
    // can still communicate. A node with no new vertex walks (on the
    // actual network) until it finds a node holding a non-taken vertex.
    let mut contending: Vec<NodeId> = dex
        .net
        .graph()
        .nodes_sorted()
        .into_iter()
        .filter(|&u| new_map.load(u) == 0)
        .collect();
    let walk_len = dex.cfg.walk_len(p_old);
    let step_no = dex.step_no;
    for (ci, c) in contending.drain(..).enumerate() {
        let mut attempt = 0u64;
        loop {
            let nm = &new_map;
            let mut rng = dex
                .seeds
                .stream(Purpose::RebalanceWalk, &[step_no, ci as u64, attempt]);
            // Non-taken vertex exists iff new load ≥ 2 (one is reserved).
            let out = random_walk_search(
                &mut dex.net,
                c,
                walk_len,
                None,
                |w| nm.load(w) >= 2,
                &mut rng,
            );
            if let Some(w) = out.hit {
                let z = *new_map
                    .sim(w)
                    .iter()
                    .filter(|z| !taken.contains(z))
                    .max()
                    .expect("load >= 2 implies a non-taken vertex");
                new_map.transfer_at(z, c, dex.slot(c));
                taken.insert(z);
                dex.net.charge_messages(4);
                dex.net.charge_rounds(1);
                break;
            }
            attempt += 1;
            assert!(
                attempt < dex.cfg.max_walk_retries,
                "deflation phase-2 walk starved (p {p_old} -> {p_new})"
            );
        }
    }

    // Install the new fabric and switch over.
    fabric::rewire_to_map(&mut dex.net, &new_map, &new_cycle);
    dex.map = new_map;
    dex.cycle = new_cycle;

    let total_deg = dex.net.graph().degree_sum() as u64;
    dex.net.charge_messages(total_deg);
    dex.net.charge_rounds(1);

    // Defensive: adversarial vertex placement can leave a node above 4ζ
    // even after contraction (the paper's Claim bounds the typical case);
    // reuse the inflation rebalancer.
    rebalance_overload(dex);
}

/// Phase 2 of `simplifiedInfl`: nodes with load > 4ζ spread their surplus
/// via Θ(log n)-length random walks on the (new) virtual graph, simulated
/// on the real network with per-edge congestion. Tokens that land alone on
/// a vertex of a non-full node win; full = load > 2ζ.
fn rebalance_overload(dex: &mut DexNetwork) {
    let four_zeta = dex.cfg.max_load();
    let two_zeta = 2 * dex.cfg.zeta;

    let mut full: FxHashSet<NodeId> = dex
        .map
        .nodes()
        .filter(|&u| dex.map.load(u) > two_zeta)
        .collect();

    // Surplus vertices, deterministically the largest ids beyond 4ζ.
    let mut surplus: Vec<VertexId> = Vec::new();
    let mut nodes: Vec<NodeId> = dex.map.nodes().collect();
    nodes.sort_unstable();
    for u in nodes {
        let load = dex.map.load(u);
        if load > four_zeta {
            let mut sim: Vec<VertexId> = dex.map.sim(u).to_vec();
            sim.sort_unstable();
            surplus.extend_from_slice(&sim[four_zeta as usize..]);
        }
    }

    let p = dex.cycle.p();
    let walk_len = dex.cfg.walk_len(p);
    let step_no = dex.step_no;
    let mut epoch = 0u64;
    while !surplus.is_empty() {
        assert!(
            epoch < 400,
            "rebalance did not converge ({} left)",
            surplus.len()
        );
        // Tokens walk the virtual graph in lockstep; CONGEST serializes
        // tokens sharing a directed physical edge within a round.
        let mut cur: Vec<VertexId> = surplus.clone();
        let mut rngs: Vec<_> = (0..cur.len())
            .map(|i| {
                dex.seeds
                    .stream(Purpose::RebalanceWalk, &[step_no, epoch, i as u64])
            })
            .collect();
        let mut rounds = 0u64;
        let mut messages = 0u64;
        let mut edge_load: FxHashMap<(NodeId, NodeId), u64> = FxHashMap::default();
        for _ in 0..walk_len {
            edge_load.clear();
            for (c, rng) in cur.iter_mut().zip(rngs.iter_mut()) {
                // Draw first: only a chord step pays an inversion.
                let next = match rng.random_range(0..3usize) {
                    0 => dex.cycle.succ(*c),
                    1 => dex.cycle.pred(*c),
                    _ => dex.cycle.chord(*c),
                };
                let (a, b) = (dex.map.owner_of(*c), dex.map.owner_of(next));
                if a != b {
                    *edge_load.entry((a, b)).or_insert(0) += 1;
                    messages += 1;
                }
                *c = next;
            }
            rounds += edge_load.values().copied().max().unwrap_or(0);
        }
        dex.net.charge_rounds(rounds);
        dex.net.charge_messages(messages);

        // Landing resolution: a token wins iff it is alone on its final
        // vertex and the host is not full (and not its own origin).
        let mut landing_count: FxHashMap<VertexId, u32> = FxHashMap::default();
        for &c in &cur {
            *landing_count.entry(c).or_insert(0) += 1;
        }
        let mut next_surplus = Vec::new();
        for (i, &z) in surplus.iter().enumerate() {
            let land = cur[i];
            let (host, host_slot) = (dex.map.owner_of(land), dex.map.owner_slot_of(land));
            let origin = dex.map.owner_of(z);
            if landing_count[&land] == 1 && !full.contains(&host) && host != origin {
                fabric::move_vertices(
                    &mut dex.net,
                    &mut dex.map,
                    &dex.cycle,
                    &[z],
                    &[dex.cycle.chord(z)],
                    host_slot,
                    &mut dex.heal.insts,
                );
                dex.net.charge_messages(4);
                dex.net.charge_rounds(1);
                if dex.map.load(host) > two_zeta {
                    full.insert(host);
                }
            } else {
                next_surplus.push(z);
            }
        }
        surplus = next_surplus;
        epoch += 1;
    }
}
