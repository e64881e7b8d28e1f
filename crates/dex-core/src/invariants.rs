//! Run-time invariant checking.
//!
//! Theorem 1's deterministic guarantees, checked directly on the live
//! structure. Tests call [`check`] after *every* adversarial step; it is
//! O(n) and not part of the protocol cost.
//!
//! Checked invariants:
//! 1. internal consistency of the graph and the mapping, and their shared
//!    node arena: every node Φ holds (in the live map and in a staged
//!    one) sits in the slot the graph gave it, under the same id — at a
//!    step boundary Φ has no ghost owner and no stale slot;
//! 2. Φ is surjective (every node simulates ≥ 1 vertex — counting staged
//!    vertices while a staggered type-2 operation is mid-flight);
//! 3. load bounds: ≤ 4ζ steady state, ≤ 8ζ during a staggered operation
//!    (Lemma 3(a) / Lemma 9(a));
//! 4. the physical network is *exactly* the contraction of the virtual
//!    graph under Φ (multiset of edges, Definition 2);
//! 5. degree bound: deg(u) = Θ(load(u)) ≤ 3·load (plus staged/intermediate
//!    edges during staggering);
//! 6. the network is connected;
//! 7. during a deflation every reserve is a staged vertex and no node
//!    holds two (the credit protocol's lemma: credit ≥ 1 implies a
//!    donatable unit).

use crate::dex::DexNetwork;
use crate::fabric;
use dex_graph::connectivity::is_connected;

/// Check all structural invariants; `Err` describes the first violation.
pub fn check(dex: &DexNetwork) -> Result<(), String> {
    dex.net
        .graph()
        .validate()
        .map_err(|e| format!("graph: {e}"))?;

    // Φ slot == graph slot and Φ id == graph id for every mapped node
    // (which also rules out ghost owners).
    let staged = dex.stag.as_ref().map(|op| op.staged_map());
    for map in std::iter::once(&dex.map).chain(staged) {
        map.validate().map_err(|e| format!("mapping: {e}"))?;
        for (u, slot) in map.nodes_at() {
            if dex.net.graph().slot_of(u) != Some(slot) {
                return Err(format!(
                    "mapping owner {u} in Φ slot {slot}, graph slot {:?}",
                    dex.net.graph().slot_of(u)
                ));
            }
        }
    }

    let staggering = dex.stag.is_some();
    let max_load = if staggering {
        dex.cfg.max_load_staggered()
    } else {
        dex.cfg.max_load()
    };

    // Surjectivity + load bounds + degree bounds.
    for u in dex.net.graph().nodes() {
        let old_load = dex.map.load(u);
        let staged = dex.stag.as_ref().map_or(0, |s| s.staged_load(u));
        let total = old_load + staged;
        if total == 0 {
            return Err(format!("node {u} simulates nothing (Φ not surjective)"));
        }
        if total > max_load {
            return Err(format!(
                "node {u} load {total} exceeds bound {max_load} (staggering={staggering})"
            ));
        }
        let deg = dex.net.graph().degree(u) as u64;
        // Each simulated vertex contributes ≤ 3 incident edge instances;
        // during staggering an old vertex can additionally attract up to
        // ζ + 2 intermediate edges (its cloud's boundary + chords).
        let deg_factor = if staggering { 3 + dex.cfg.zeta + 2 } else { 3 };
        if deg > deg_factor * total {
            return Err(format!(
                "node {u} degree {deg} exceeds {deg_factor}·load = {}",
                deg_factor * total
            ));
        }
    }

    // Exact contraction fabric.
    match &dex.stag {
        None => {
            let expected = fabric::expected_edge_multiset(&dex.map, &dex.cycle);
            fabric::verify_fabric(&dex.net, &expected)?;
        }
        Some(op) => {
            op.verify_fabric(dex)?;
            op.verify_reserves()?;
        }
    }

    if !is_connected(dex.net.graph()) {
        return Err("network disconnected".into());
    }
    Ok(())
}

/// Convenience: panic with the violation message (for tests).
pub fn assert_ok(dex: &DexNetwork) {
    if let Err(e) = check(dex) {
        panic!(
            "invariant violated at step {}: {e}\n{dex:?}",
            dex.net.steps_completed()
        );
    }
}
