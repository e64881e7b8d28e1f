//! Exact edge expansion and conductance by subset enumeration.
//!
//! `h(G) = min_{|S| ≤ n/2} |E(S, S̄)| / |S|` (paper, Definition 5).
//! Exponential in n — the honest oracle for small graphs, used to validate
//! the Cheeger sandwich (Theorem 2) and the spectral solvers. For large
//! graphs the spectral gap plus Cheeger bounds are the reported proxy.

use crate::adjacency::MultiGraph;

/// Largest `n` for which exact enumeration is allowed (2²⁴ subsets ≈ 16M).
pub const MAX_EXACT_N: usize = 24;

/// Exact edge expansion `h(G)`; `None` if the graph has more than
/// [`MAX_EXACT_N`] nodes or fewer than 2 nodes. Self-loops never cross a
/// cut; parallel edges count with multiplicity.
pub fn edge_expansion(g: &MultiGraph) -> Option<f64> {
    let n = g.num_nodes();
    if !(2..=MAX_EXACT_N).contains(&n) {
        return None;
    }
    let csr = g.csr();
    let half = n / 2;
    let mut best = f64::INFINITY;
    for mask in 1u32..(1u32 << n) {
        let size = mask.count_ones() as usize;
        if size > half {
            continue;
        }
        let mut cut = 0usize;
        let mut m = mask;
        while m != 0 {
            let u = m.trailing_zeros() as usize;
            m &= m - 1;
            for &v in csr.row(u) {
                if mask & (1u32 << v) == 0 {
                    cut += 1;
                }
            }
        }
        let ratio = cut as f64 / size as f64;
        if ratio < best {
            best = ratio;
        }
    }
    Some(best)
}

/// Exact conductance `φ(G) = min_S cut(S) / min(vol S, vol S̄)` with
/// volume = degree sum. Same size limit as [`edge_expansion`].
pub fn conductance(g: &MultiGraph) -> Option<f64> {
    let n = g.num_nodes();
    if !(2..=MAX_EXACT_N).contains(&n) {
        return None;
    }
    let csr = g.csr();
    let total_vol: usize = (0..n).map(|i| csr.degree(i)).sum();
    let mut best = f64::INFINITY;
    for mask in 1u32..((1u32 << n) - 1) {
        let mut cut = 0usize;
        let mut vol = 0usize;
        let mut m = mask;
        while m != 0 {
            let u = m.trailing_zeros() as usize;
            m &= m - 1;
            vol += csr.degree(u);
            for &v in csr.row(u) {
                if mask & (1u32 << v) == 0 {
                    cut += 1;
                }
            }
        }
        let denom = vol.min(total_vol - vol);
        if denom == 0 {
            continue;
        }
        let phi = cut as f64 / denom as f64;
        if phi < best {
            best = phi;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::pcycle::PCycle;
    use crate::spectral;

    fn cycle_graph(k: u64) -> MultiGraph {
        let mut g = MultiGraph::new();
        for i in 0..k {
            g.add_node(NodeId(i));
        }
        for i in 0..k {
            g.add_edge(NodeId(i), NodeId((i + 1) % k));
        }
        g
    }

    #[test]
    fn cycle_expansion_is_two_over_half() {
        // Worst cut of C_n is a contiguous arc of n/2 nodes: 2 edges cross.
        let g = cycle_graph(10);
        let h = edge_expansion(&g).unwrap();
        assert!((h - 2.0 / 5.0).abs() < 1e-12, "h = {h}");
    }

    #[test]
    fn clique_expansion() {
        // K_4: S of size 2 cuts 4 edges → h = 2; singleton cuts 3 → h = 3.
        let mut g = MultiGraph::new();
        for i in 0..4 {
            g.add_node(NodeId(i));
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
        assert!((edge_expansion(&g).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_graph_has_zero_expansion() {
        let mut g = cycle_graph(4);
        for i in 10..13u64 {
            g.add_node(NodeId(i));
        }
        g.add_edge(NodeId(10), NodeId(11));
        g.add_edge(NodeId(11), NodeId(12));
        g.add_edge(NodeId(12), NodeId(10));
        assert_eq!(edge_expansion(&g).unwrap(), 0.0);
        assert_eq!(conductance(&g).unwrap(), 0.0);
    }

    #[test]
    fn self_loops_do_not_cross_cuts() {
        let mut g = cycle_graph(6);
        let base = edge_expansion(&g).unwrap();
        for i in 0..6 {
            g.add_edge(NodeId(i), NodeId(i));
        }
        // Loops raise degrees but never cross, so h is unchanged.
        assert_eq!(edge_expansion(&g).unwrap(), base);
    }

    #[test]
    fn parallel_edges_count_with_multiplicity() {
        let mut g = MultiGraph::new();
        g.add_node(NodeId(0));
        g.add_node(NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        assert!((edge_expansion(&g).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn too_large_returns_none() {
        let g = cycle_graph(30);
        assert!(edge_expansion(&g).is_none());
    }

    #[test]
    fn cheeger_sandwich_exact_small_pcycles() {
        // φ(G) sandwich: (1−λ)/2 ≤ φ ≤ √(2(1−λ)). Conductance version is
        // exactly the normalized form Theorem 2 speaks about.
        for p in [5u64, 7, 11, 13, 17, 19, 23] {
            let g = PCycle::new(p).to_multigraph();
            let gap = spectral::spectral_gap(&g);
            let phi = conductance(&g).unwrap();
            assert!(
                spectral::cheeger_lower(gap) <= phi + 1e-9,
                "p={p}: lower {} > φ {phi}",
                spectral::cheeger_lower(gap)
            );
            assert!(
                phi <= spectral::cheeger_upper(gap) + 1e-9,
                "p={p}: φ {phi} > upper {}",
                spectral::cheeger_upper(gap)
            );
        }
    }
}
