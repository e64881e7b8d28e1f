//! Random walks on multigraphs.
//!
//! Type-1 recovery is built on O(log n)-length random walks whose hitting
//! behaviour is controlled by Gillman's Chernoff bound for expanders
//! (paper, Lemma 2). This module provides the walk primitive used by tests
//! and analysis tooling; the *protocol* walk (token forwarding with round
//! accounting) is `dex_sim::tokens::random_walk_search_slots`: the same
//! uniform pick over adjacency entries, minus an optional excluded node,
//! stopping at the first accepted node.
//!
//! Walks run in the graph's dense slot space: the public [`NodeId`]
//! entry points resolve the id→slot translation once, then every hop is
//! two array reads and one RNG draw — no hashing, no heap allocation.
//!
//! Held for `benchmark/`, goes with the next benchmark PR: its probes
//! call [`walk`]; everything else walks slots
//! ([`MultiGraph::walk_slots`]).

use crate::adjacency::MultiGraph;
use crate::ids::NodeId;
use rand::Rng;

/// One uniform step from `u`: picks an adjacency entry uniformly, so
/// parallel edges weight their endpoint proportionally and a self-loop
/// stays put with probability `1/deg(u)`.
pub fn step<R: Rng + ?Sized>(g: &MultiGraph, u: NodeId, rng: &mut R) -> NodeId {
    let slot = g
        .slot_of(u)
        .unwrap_or_else(|| panic!("random walk from missing node {u}"));
    g.id_of_slot(g.step_slot(slot, rng))
}

/// Walk `len` steps from `start`; returns the endpoint.
pub fn walk<R: Rng + ?Sized>(g: &MultiGraph, start: NodeId, len: usize, rng: &mut R) -> NodeId {
    let slot = g
        .slot_of(start)
        .unwrap_or_else(|| panic!("random walk from missing node {start}"));
    g.id_of_slot(g.walk_slots(slot, len, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcycle::PCycle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn walk_stays_in_graph() {
        let g = PCycle::new(23).to_multigraph();
        let mut rng = StdRng::seed_from_u64(1);
        for start in [0u64, 7, 22] {
            let end = walk(&g, NodeId(start), 50, &mut rng);
            assert!(g.has_node(end));
        }
    }

    #[test]
    fn parallel_edges_bias_the_step() {
        let mut g = MultiGraph::new();
        g.add_node(NodeId(0));
        g.add_node(NodeId(1));
        g.add_node(NodeId(2));
        for _ in 0..9 {
            g.add_edge(NodeId(0), NodeId(1));
        }
        g.add_edge(NodeId(0), NodeId(2));
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits1 = 0;
        for _ in 0..2000 {
            if step(&g, NodeId(0), &mut rng) == NodeId(1) {
                hits1 += 1;
            }
        }
        // Expected 90%; allow generous slack.
        assert!(hits1 > 1650, "parallel edge bias missing: {hits1}/2000");
    }
}
