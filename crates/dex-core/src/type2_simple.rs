//! Simplified (one-shot) type-2 recovery: Procedures `simplifiedInfl`
//! (Algorithm 4.5) and `simplifiedDefl` (Algorithm 4.6).
//!
//! The whole virtual graph is replaced in a single step: O(n) topology
//! changes and O(n log² n) messages, amortized over the Ω(n) type-1 steps
//! that separate consecutive type-2 events (Lemma 8 ⇒ Corollary 1).
//!
//! Both procedures read one [`Plan`]: a shared Phase 1 (`stage`) gives
//! every old vertex's owner the new vertices the vertex generates and
//! builds the new cycle's edges, and a shared switchover (`install`)
//! rewires, announces and rebalances. Each procedure keeps only its own
//! middle step: the inflation hands the newcomer a vertex; the deflation
//! reserves one vertex per node and walks the contending nodes to the
//! rest.
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
use dex_graph::pcycle::resize::Plan;
use dex_graph::pcycle::PCycle;
use dex_sim::rng::Purpose;
use rand::Rng;

/// Charge the analytical cost of one permutation-routing pass on a
/// bounded-degree expander of `p` vertices (Scheideler, Cor. 7.7.3): we
/// bill `6·⌈log₂ p⌉` rounds and `p·⌈log₂ p⌉` messages per pass. Used only
/// above [`crate::routing::EXACT_ROUTING_MAX_P`]; below it the inverse
/// permutation is actually routed token-by-token. The charge does not
/// dominate that executed cost: `bench_paper`'s `ablation.routing` rows
/// measure executed messages at 1.36–1.85× `p·⌈log₂ p⌉` for
/// p ∈ {101, 499, 1009, 2003}, and 71 executed rounds against 60 charged
/// at p = 1009.
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
fn inverse_edge_routing(dex: &mut DexNetwork, plan: &Plan) {
    if plan.p_new() > crate::routing::EXACT_ROUTING_MAX_P {
        charge_permutation_routing(dex, plan.p_new());
        return;
    }
    let mut pairs = crate::routing::inverse_pairs(plan);
    // Pairs whose sources live on the same node are local and free.
    pairs.retain(|&(a, b)| dex.map.owner_slot_of(a) != dex.map.owner_slot_of(b));
    crate::routing::route_pairs_with(
        &mut dex.net,
        &dex.map,
        &dex.cycle,
        &pairs,
        1,
        &mut dex.heal.route,
    );
}

/// Phase 1, shared by both procedures: coordinate the rebuild from the
/// node in slot `root`, hand every old vertex's generated run (its
/// inflation cloud, or its deflation image if it dominates) to the
/// vertex's owner, and build the new cycle's edges. Returns the new Φ;
/// the old one stays live.
fn stage(dex: &mut DexNetwork, plan: &Plan, root: u32) -> VirtualMapping {
    // Flood the rebuild request so every node switches to the same Z(p').
    // Under a fault spec the announcement flood plus its convergecast
    // (reservations + commit acks) run on the message schedule and may
    // roll back and re-initiate; nothing below executes until a
    // coordination round completes.
    dex.type2_coordinate(root);

    // Every node locally replaces each owned vertex by what it generates
    // (Eq. 6–8), in canonical (vertex-ascending) order. Local computation
    // is free in the model. A run is contiguous: one run assignment per
    // old vertex — sequential dense writes — into the owner's slot, which
    // the new Φ shares with the old one (both are slotted by the graph's
    // arena).
    let mut new_map =
        VirtualMapping::with_caller_slots(dex.cfg.zeta, plan.p_new(), dex.net.graph().slot_bound());
    for (z, owner, slot) in dex.map.entries_at() {
        let ys = plan.generated_by(z.0);
        new_map.assign_run_at(VertexId(ys.start), ys.end - ys.start, owner, slot);
    }
    // Cycle edges come from the old cycle's edges: O(1) rounds, one
    // message per old cycle edge per direction.
    dex.net.charge_rounds(2);
    dex.net.charge_messages(2 * plan.p_old());
    // Inverse-chord edges by permutation routing on the old virtual graph.
    inverse_edge_routing(dex, plan);
    new_map
}

/// Install `new_map` on the new cycle and switch over: rewire the fabric
/// (exact multiset diff — shared edges are untouched), announce every
/// node's new load to its neighbours, and spread any overload (> 4ζ) by
/// random walks on the new virtual graph.
fn install(dex: &mut DexNetwork, new_map: VirtualMapping, plan: &Plan) {
    let new_cycle = PCycle::new(plan.p_new());
    fabric::rewire_to_map(&mut dex.net, &new_map, &new_cycle);
    dex.map = new_map;
    dex.cycle = new_cycle;

    let total_deg = dex.net.graph().degree_sum() as u64;
    dex.net.charge_messages(total_deg);
    dex.net.charge_rounds(1);

    // Deflation too: adversarial vertex placement can leave a node above
    // 4ζ even after contraction (the paper's Claim bounds the typical
    // case).
    rebalance_overload(dex);
}

/// Procedure `simplifiedInfl`, triggered by the insertion of the node in
/// slot `u` at the attach point in slot `v`.
pub fn inflate(dex: &mut DexNetwork, (u, v): (u32, u32)) {
    let plan = Plan::inflation(dex.cycle.p());
    let mut new_map = stage(dex, &plan, v);

    // The freshly inserted node receives one newly generated vertex from
    // its attach point (Algorithm 4.5, line 6). The adversarial attach
    // edge disappears at the rewire unless the new virtual graph requires
    // a (u, v) edge.
    debug_assert!(new_map.load_at(v) >= 4, "cloud sizes are >= 4 (α > 4)");
    let z = *new_map.sim_at(v).iter().max().expect("nonempty");
    new_map.transfer_at(z, dex.net.graph().id_of_slot(u), u);
    dex.net.charge_messages(4);
    dex.net.charge_rounds(1);

    install(dex, new_map, &plan);
}

/// Procedure `simplifiedDefl`. `root` is the slot of the node that
/// detected the failure (the deletion rescuer).
pub fn deflate(dex: &mut DexNetwork, root: u32) {
    let p_old = dex.cycle.p();
    let plan = Plan::deflation(p_old)
        .unwrap_or_else(|| panic!("cannot deflate below p = {p_old}: network too small for Z(p)"));
    let mut new_map = stage(dex, &plan, root);

    // Every node that got at least one new vertex reserves one by marking
    // it `taken` (Algorithm 4.6, line 9).
    let mut taken: FxHashSet<VertexId> = FxHashSet::default();
    for (_, s) in new_map.nodes_at() {
        let reserve = *new_map.sim_at(s).iter().min().expect("nonempty");
        taken.insert(reserve);
    }

    // Phase 2 — run *before* discarding the old fabric so contending nodes
    // can still communicate. A node with no new vertex walks (on the
    // actual network) until it finds a node holding a non-taken vertex.
    // Contenders walk in id order: their rank in it keys each one's walk.
    let g = dex.net.graph();
    let mut contending: Vec<(NodeId, u32)> = (0..g.slot_bound() as u32)
        .filter(|&s| g.slot_alive(s) && new_map.load_at(s) == 0)
        .map(|s| (g.id_of_slot(s), s))
        .collect();
    contending.sort_unstable();
    let step_no = dex.step_no;
    for (ci, &(c, sc)) in contending.iter().enumerate() {
        let key = [step_no, ci as u64];
        let budget = 0..dex.cfg.max_walk_retries;
        // Non-taken vertex exists iff new load ≥ 2 (one is reserved).
        let untaken = |_: &VirtualMapping, w| new_map.load_at(w) >= 2;
        let (w, _) = dex
            .walk_central(sc, None, Purpose::RebalanceWalk, &key, budget, untaken)
            .unwrap_or_else(|| {
                panic!(
                    "deflation phase-2 walk starved (p {p_old} -> {})",
                    plan.p_new()
                )
            });
        let z = *new_map
            .sim_at(w)
            .iter()
            .filter(|z| !taken.contains(z))
            .max()
            .expect("load >= 2 implies a non-taken vertex");
        new_map.transfer_at(z, c, sc);
        taken.insert(z);
        dex.net.charge_messages(4);
        dex.net.charge_rounds(1);
    }

    install(dex, new_map, &plan);
}

/// Phase 2 of `simplifiedInfl`: nodes with load > 4ζ spread their surplus
/// via Θ(log n)-length random walks on the (new) virtual graph, simulated
/// on the real network with per-edge congestion. Tokens that land alone on
/// a vertex of a non-full node win; full = load > 2ζ.
fn rebalance_overload(dex: &mut DexNetwork) {
    let four_zeta = dex.cfg.max_load();
    let two_zeta = 2 * dex.cfg.zeta;

    let mut full: FxHashSet<u32> = dex
        .map
        .nodes_at()
        .map(|(_, s)| s)
        .filter(|&s| dex.map.load_at(s) > two_zeta)
        .collect();

    // Surplus vertices, deterministically the largest ids beyond 4ζ.
    let mut surplus: Vec<VertexId> = Vec::new();
    let mut nodes: Vec<(NodeId, u32)> = dex.map.nodes_at().collect();
    nodes.sort_unstable();
    for (_, s) in nodes {
        let load = dex.map.load_at(s);
        if load > four_zeta {
            let mut sim: Vec<VertexId> = dex.map.sim_at(s).to_vec();
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
        let mut edge_load: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for _ in 0..walk_len {
            edge_load.clear();
            for (c, rng) in cur.iter_mut().zip(rngs.iter_mut()) {
                // Draw first: only a chord step pays an inversion.
                let next = match rng.random_range(0..3usize) {
                    0 => dex.cycle.succ(*c),
                    1 => dex.cycle.pred(*c),
                    _ => dex.cycle.chord(*c),
                };
                let (a, b) = (dex.map.owner_slot_of(*c), dex.map.owner_slot_of(next));
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
            let host = dex.map.owner_slot_of(land);
            let origin = dex.map.owner_slot_of(z);
            if landing_count[&land] == 1 && !full.contains(&host) && host != origin {
                fabric::move_vertices(
                    &mut dex.net,
                    &mut dex.map,
                    &dex.cycle,
                    &[z],
                    &[dex.cycle.chord(z)],
                    host,
                    &mut dex.heal.fabric,
                );
                dex.net.charge_messages(4);
                dex.net.charge_rounds(1);
                if dex.map.load_at(host) > two_zeta {
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
