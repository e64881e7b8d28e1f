//! Random walks on multigraphs.
//!
//! Type-1 recovery is built on O(log n)-length random walks whose hitting
//! behaviour is controlled by Gillman's Chernoff bound for expanders
//! (paper, Lemma 2). This module provides the walk primitive used by tests
//! and analysis tooling; the *protocol* walk (token forwarding with round
//! accounting) lives in `dex-core::walk` and must match this semantics.
//!
//! Walks run in the graph's dense slot space: the public [`NodeId`]
//! entry points resolve the id→slot translation once, then every hop is
//! two array reads and one RNG draw — no hashing, no heap allocation.

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

/// Walk `len` steps from `start`; returns the full path (len+1 nodes).
pub fn walk_path<R: Rng + ?Sized>(
    g: &MultiGraph,
    start: NodeId,
    len: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut path = Vec::with_capacity(len + 1);
    path.push(start);
    let mut slot = g
        .slot_of(start)
        .unwrap_or_else(|| panic!("random walk from missing node {start}"));
    for _ in 0..len {
        slot = g.step_slot(slot, rng);
        path.push(g.id_of_slot(slot));
    }
    path
}

/// Total-variation distance of the `t`-step *lazy* walk distribution from
/// stationarity, starting at `start`. Dense O(t·m); for analysis and tests.
pub fn tv_distance_after(g: &MultiGraph, start: NodeId, t: usize) -> f64 {
    let csr = g.csr();
    let n = csr.n();
    let idx = csr
        .order
        .iter()
        .position(|&u| u == start)
        .expect("start not in graph");
    let deg_sum: f64 = (0..n).map(|i| csr.degree(i) as f64).sum();
    let pi: Vec<f64> = (0..n).map(|i| csr.degree(i) as f64 / deg_sum).collect();
    let mut dist = vec![0.0f64; n];
    dist[idx] = 1.0;
    let mut next = vec![0.0f64; n];
    for _ in 0..t {
        next.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..n {
            if dist[i] == 0.0 {
                continue;
            }
            let d = csr.degree(i) as f64;
            next[i] += dist[i] * 0.5;
            let share = dist[i] * 0.5 / d;
            for &j in csr.row(i) {
                next[j as usize] += share;
            }
        }
        std::mem::swap(&mut dist, &mut next);
    }
    0.5 * dist
        .iter()
        .zip(pi.iter())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
}

/// Smallest `t ≤ max_t` with TV distance below `eps` from the worst start,
/// or `None`. Exact dense computation — small graphs only.
pub fn mixing_time(g: &MultiGraph, eps: f64, max_t: usize) -> Option<usize> {
    let nodes = g.nodes_sorted();
    'outer: for t in 1..=max_t {
        for &u in &nodes {
            if tv_distance_after(g, u, t) > eps {
                continue 'outer;
            }
        }
        return Some(t);
    }
    None
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
    fn walk_path_steps_are_edges() {
        let g = PCycle::new(23).to_multigraph();
        let mut rng = StdRng::seed_from_u64(2);
        let path = walk_path(&g, NodeId(0), 30, &mut rng);
        assert_eq!(path.len(), 31);
        for w in path.windows(2) {
            assert!(
                g.contains_edge(w[0], w[1]),
                "non-edge step {:?}->{:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn lazy_walk_mixes_on_expander() {
        let g = PCycle::new(101).to_multigraph();
        // O(log n) mixing with the family's constant: the p-cycle gap is
        // ≈0.06 (lazy ≈0.03), so C·log p with C ≈ 35 suffices here.
        let tv250 = tv_distance_after(&g, NodeId(0), 250);
        assert!(tv250 < 0.02, "tv after 250 lazy steps: {tv250}");
        // And mixing is monotone in t.
        let tv80 = tv_distance_after(&g, NodeId(0), 80);
        assert!(tv80 > tv250);
    }

    #[test]
    fn expander_mixes_faster_than_ring() {
        let expander = PCycle::new(61).to_multigraph();
        let mut ring = MultiGraph::new();
        for i in 0..61 {
            ring.add_node(NodeId(i));
        }
        for i in 0..61u64 {
            ring.add_edge(NodeId(i), NodeId((i + 1) % 61));
        }
        let t_exp = mixing_time(&expander, 0.05, 400).unwrap();
        let t_ring = mixing_time(&ring, 0.05, 4000).unwrap_or(4000);
        assert!(
            t_exp * 4 < t_ring,
            "expander {t_exp} not clearly faster than ring {t_ring}"
        );
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
