//! Graph generators: rings, cliques, hypercubes, random regular graphs and
//! unions of random Hamiltonian cycles (the Law–Siu substrate, baseline of
//! Table 1).

use crate::adjacency::MultiGraph;
use crate::ids::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Cycle graph `C_n` on ids `0..n`.
pub fn ring(n: u64) -> MultiGraph {
    assert!(n >= 3, "ring needs n >= 3");
    let mut g = MultiGraph::with_capacity(n as usize);
    for i in 0..n {
        g.add_node(NodeId(i));
    }
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n));
    }
    g
}

/// Complete graph `K_n` on ids `0..n`.
pub fn clique(n: u64) -> MultiGraph {
    let mut g = MultiGraph::with_capacity(n as usize);
    for i in 0..n {
        g.add_node(NodeId(i));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(NodeId(i), NodeId(j));
        }
    }
    g
}

/// `dim`-dimensional hypercube on ids `0..2^dim`.
pub fn hypercube(dim: u32) -> MultiGraph {
    let n = 1u64 << dim;
    let mut g = MultiGraph::with_capacity(n as usize);
    for i in 0..n {
        g.add_node(NodeId(i));
    }
    for i in 0..n {
        for b in 0..dim {
            let j = i ^ (1 << b);
            if j > i {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
    }
    g
}

/// Union of `k` independent uniformly random Hamiltonian cycles on ids
/// `0..n` — the graph family Law–Siu \[18\] maintains (degree `2k`).
/// Parallel edges are kept (it is a multigraph union).
pub fn hamiltonian_union<R: Rng + ?Sized>(n: u64, k: usize, rng: &mut R) -> MultiGraph {
    assert!(n >= 3);
    let mut g = MultiGraph::with_capacity(n as usize);
    for i in 0..n {
        g.add_node(NodeId(i));
    }
    let mut perm: Vec<u64> = (0..n).collect();
    for _ in 0..k {
        perm.shuffle(rng);
        for w in 0..n as usize {
            let a = perm[w];
            let b = perm[(w + 1) % n as usize];
            g.add_edge(NodeId(a), NodeId(b));
        }
    }
    g
}

/// Simple random `d`-regular graph on ids `0..n` via the configuration
/// model with swap-repair of loops and parallel edges. `n·d` must be even
/// and `d < n`. The repair loop makes the result *simple* (no loops, no
/// parallels); distribution is approximately uniform, which is all the
/// baselines need.
pub fn random_regular<R: Rng + ?Sized>(n: u64, d: usize, rng: &mut R) -> MultiGraph {
    assert!((d as u64) < n, "need d < n");
    assert!((n as usize * d).is_multiple_of(2), "n·d must be even");
    const MAX_ATTEMPTS: usize = 200;
    for _ in 0..MAX_ATTEMPTS {
        if let Some(g) = try_configuration(n, d, rng) {
            return g;
        }
    }
    panic!("random_regular failed to produce a simple graph (n={n}, d={d})");
}

fn try_configuration<R: Rng + ?Sized>(n: u64, d: usize, rng: &mut R) -> Option<MultiGraph> {
    let mut stubs: Vec<u64> = Vec::with_capacity(n as usize * d);
    for i in 0..n {
        for _ in 0..d {
            stubs.push(i);
        }
    }
    stubs.shuffle(rng);
    // Pair stubs; use a set to detect duplicates/loops, retry-local repair.
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(stubs.len() / 2);
    let mut used: crate::fxhash::FxHashSet<(u64, u64)> = Default::default();
    let mut i = 0;
    let mut stalls = 0usize;
    while i + 1 < stubs.len() {
        let (a, b) = (stubs[i], stubs[i + 1]);
        let key = (a.min(b), a.max(b));
        if a == b || used.contains(&key) {
            // Swap stub i+1 with a random later stub and retry.
            if i + 2 >= stubs.len() {
                return None;
            }
            let j = rng.random_range(i + 2..stubs.len());
            stubs.swap(i + 1, j);
            stalls += 1;
            if stalls > stubs.len() * 10 {
                return None;
            }
            continue;
        }
        used.insert(key);
        pairs.push((a, b));
        i += 2;
    }
    let mut g = MultiGraph::with_capacity(n as usize);
    for v in 0..n {
        g.add_node(NodeId(v));
    }
    for (a, b) in pairs {
        g.add_edge(NodeId(a), NodeId(b));
    }
    Some(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;
    use crate::spectral::spectral_gap;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ring_shape() {
        let g = ring(8);
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.num_edges(), 8);
        assert!(g.nodes().all(|u| g.degree(u) == 2));
    }

    #[test]
    fn clique_shape() {
        let g = clique(6);
        assert_eq!(g.num_edges(), 15);
        assert!(g.nodes().all(|u| g.degree(u) == 5));
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.num_nodes(), 16);
        assert_eq!(g.num_edges(), 32);
        assert!(g.nodes().all(|u| g.degree(u) == 4));
        assert!(is_connected(&g));
    }

    #[test]
    fn hamiltonian_union_is_2k_regular() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = hamiltonian_union(50, 3, &mut rng);
        assert!(g.nodes().all(|u| g.degree(u) == 6));
        assert!(is_connected(&g));
        g.validate().unwrap();
    }

    #[test]
    fn hamiltonian_union_is_good_expander_whp() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = hamiltonian_union(200, 3, &mut rng);
        let gap = spectral_gap(&g);
        assert!(gap > 0.1, "union of 3 Hamiltonian cycles gap {gap}");
    }

    #[test]
    fn random_regular_is_simple_and_regular() {
        let mut rng = StdRng::seed_from_u64(7);
        for (n, d) in [(20u64, 3usize), (50, 4), (101, 6)] {
            let g = random_regular(n, d, &mut rng);
            assert!(g.nodes().all(|u| g.degree(u) == d), "n={n} d={d}");
            for u in g.nodes() {
                assert_eq!(g.edge_multiplicity(u, u), 0, "loop at {u}");
                for v in g.neighbors(u) {
                    assert!(g.edge_multiplicity(u, v) <= 1, "parallel {u}-{v}");
                }
            }
            g.validate().unwrap();
        }
    }

    #[test]
    fn random_regular_expands() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = random_regular(300, 4, &mut rng);
        assert!(is_connected(&g));
        assert!(spectral_gap(&g) > 0.1);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_degree_sum_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let _ = random_regular(5, 3, &mut rng);
    }
}
