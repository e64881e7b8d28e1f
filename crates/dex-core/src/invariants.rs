//! Run-time invariant checking.
//!
//! Theorem 1's deterministic guarantees, checked directly on the live
//! structure. Tests call [`check`] after *every* adversarial step; it is
//! not part of the protocol cost. It takes O(p) time and O(n + max degree)
//! extra memory in both type-2 modes: every per-node check below runs in
//! one sweep over the node slots, each node's row against the row Φ
//! implies (`fabric::ContractionRows`), and only the connectivity BFS
//! keeps a per-node array. No whole-network edge list is built.
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
//!    graph under Φ (multiset of edges, Definition 2): with Φ's node set
//!    the graph's (1 and 2), each node's sorted row equals the row Φ
//!    implies — during a staggered operation the old remnant plus the
//!    overlay of staged vertices and intermediate edges;
//! 5. degree bound: deg(u) = Θ(load(u)) ≤ 3·load (plus staged/intermediate
//!    edges during staggering);
//! 6. the network is connected;
//! 7. during a deflation each node's reserve, if it has one (one per node
//!    slot, so never two), is a staged vertex it holds (the credit
//!    protocol's lemma: credit ≥ 1 implies a donatable unit).

use crate::dex::DexNetwork;
use crate::fabric;
use crate::mapping::VirtualMapping;
use dex_graph::connectivity::is_connected;
use std::ops::Range;

/// Check all structural invariants; `Err` describes the first violation.
pub fn check(dex: &DexNetwork) -> Result<(), String> {
    let g = dex.net.graph();
    g.validate().map_err(|e| format!("graph: {e}"))?;
    let staged = dex.stag.as_ref().map(|op| op.staged_map());
    for map in std::iter::once(&dex.map).chain(staged) {
        map.validate().map_err(|e| format!("mapping: {e}"))?;
    }

    let staggering = staged.is_some();
    let max_load = if staggering {
        dex.cfg.max_load_staggered()
    } else {
        dex.cfg.max_load()
    };
    // Each simulated vertex contributes ≤ 3 incident edge instances;
    // during staggering an old vertex can additionally attract up to
    // ζ + 2 intermediate edges (its cloud's boundary + chords).
    let deg_factor = if staggering { 3 + dex.cfg.zeta + 2 } else { 3 };

    // The rows read Φ of exactly the vertices that carry edges: all of
    // Z(p), or during an operation the old vertices not yet dropped and
    // the staged new ones.
    let old_live = dex
        .stag
        .as_ref()
        .map_or(0..dex.cycle.p(), |op| op.old_live());
    holds_exactly(&dex.map, old_live)?;
    if let Some(op) = &dex.stag {
        holds_exactly(op.staged_map(), 0..op.staged_end())?;
    }
    let mut rows = fabric::ContractionRows::new(&dex.map, &dex.cycle, dex.stag.as_ref());
    let mut have = Vec::new();

    let bound = std::iter::once(&dex.map)
        .chain(staged)
        .map(|m| m.slot_bound())
        .fold(g.slot_bound(), usize::max);
    for slot in 0..bound as u32 {
        let id = g.slot_alive(slot).then(|| g.id_of_slot(slot));
        // Φ slot == graph slot and Φ id == graph id for every mapped node
        // (which also rules out ghost owners).
        for map in std::iter::once(&dex.map).chain(staged) {
            if let Some(u) = map.node_at(slot).filter(|&u| Some(u) != id) {
                return Err(format!(
                    "mapping owner {u} in Φ slot {slot}, graph slot {:?}",
                    g.slot_of(u)
                ));
            }
        }
        if let Some(op) = &dex.stag {
            op.check_reserve(slot)?;
        }
        let Some(u) = id else { continue };

        let total = dex.map.load_at(slot) + staged.map_or(0, |s| s.load_at(slot));
        if total == 0 {
            return Err(format!("node {u} simulates nothing (Φ not surjective)"));
        }
        if total > max_load {
            return Err(format!(
                "node {u} load {total} exceeds bound {max_load} (staggering={staggering})"
            ));
        }
        fabric::check_row(&dex.net, slot, rows.row(slot), &mut have)?;
        let deg = g.degree_of_slot(slot) as u64;
        if deg > deg_factor * total {
            return Err(format!(
                "node {u} degree {deg} exceeds {deg_factor}·load = {}",
                deg_factor * total
            ));
        }
    }

    if !is_connected(g) {
        return Err("network disconnected".into());
    }
    Ok(())
}

/// `map` assigns exactly the vertices `range`.
fn holds_exactly(map: &VirtualMapping, range: Range<u64>) -> Result<(), String> {
    let n = map.num_vertices() as u64;
    if n != range.end - range.start || map.entries().any(|(z, _)| !range.contains(&z.0)) {
        return Err(format!("Φ assigns {n} vertices, not exactly {range:?}"));
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
