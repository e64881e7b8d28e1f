//! The Sect.-3 flooding strawman: guaranteed expansion at Θ(n) cost.
//!
//! Every insertion/deletion is flooded to the whole network; every node,
//! holding complete knowledge of the topology, recomputes a fresh random
//! `d`-regular graph. Expansion and degree are as good as DEX's — but each
//! step costs Θ(n) messages and up to Θ(n) topology changes, which is the
//! whole reason DEX exists (the harness puts these side by side in
//! Table 1).

use crate::Overlay;
use dex_graph::adjacency::MultiGraph;
use dex_graph::generators::random_regular;
use dex_graph::ids::NodeId;
use dex_sim::flood::{flood_count_with, FloodScratch};
use dex_sim::{Network, RecoveryKind, StepKind, StepMetrics};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Flooding full-recompute overlay.
pub struct Flooding {
    net: Network,
    d: usize,
    rng: StdRng,
    /// Every step floods; the buffers are sized once.
    flood_scratch: FloodScratch,
}

impl Flooding {
    /// Bootstrap with `n0` nodes (ids `0..n0`) and target degree `d`.
    pub fn bootstrap(seed: u64, n0: u64, d: usize) -> Self {
        assert!(n0 as usize > d && d >= 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new();
        for i in 0..n0 {
            net.adversary_add_node(NodeId(i));
        }
        let mut s = Flooding {
            net,
            d,
            rng: StdRng::seed_from_u64(0),
            flood_scratch: FloodScratch::new(),
        };
        s.rewire_fresh(&mut rng, false);
        s.rng = rng;
        s
    }

    /// Replace the topology with a fresh random d-regular graph over the
    /// current node set (multiset diff so unchanged edges are free).
    fn rewire_fresh(&mut self, rng: &mut StdRng, charged: bool) {
        let ids = self.net.graph().nodes_sorted();
        let n = ids.len() as u64;
        let d = if (n as usize * self.d).is_multiple_of(2) {
            self.d
        } else {
            self.d + 1
        };
        let template = random_regular(n, d, rng);
        // Map template ids 0..n onto the live id set.
        let mut target: Vec<(NodeId, NodeId)> = template
            .edges()
            .into_iter()
            .map(|(a, b)| {
                let (x, y) = (ids[a.0 as usize], ids[b.0 as usize]);
                (x.min(y), x.max(y))
            })
            .collect();
        target.sort_unstable();
        // Remove edges not in target, add missing ones.
        let mut current: Vec<(NodeId, NodeId)> = self
            .net
            .graph()
            .edges()
            .into_iter()
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        current.sort_unstable();
        let (mut i, mut j) = (0, 0);
        let mut removals = Vec::new();
        let mut additions = Vec::new();
        while i < current.len() || j < target.len() {
            match (current.get(i), target.get(j)) {
                (Some(&c), Some(&t)) if c == t => {
                    i += 1;
                    j += 1;
                }
                (Some(&c), Some(&t)) if c < t => {
                    removals.push(c);
                    i += 1;
                }
                (Some(_), Some(&t)) => {
                    additions.push(t);
                    j += 1;
                }
                (Some(&c), None) => {
                    removals.push(c);
                    i += 1;
                }
                (None, Some(&t)) => {
                    additions.push(t);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        for (a, b) in removals {
            if charged {
                self.net.remove_edge(a, b);
            } else {
                self.net.adversary_remove_edge(a, b);
            }
        }
        for (a, b) in additions {
            if charged {
                self.net.add_edge(a, b);
            } else {
                self.net.adversary_add_edge(a, b);
            }
        }
    }
}

impl Overlay for Flooding {
    fn name(&self) -> &'static str {
        "flooding"
    }

    fn graph(&self) -> &MultiGraph {
        self.net.graph()
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn insert(&mut self, id: NodeId, attach: NodeId) -> StepMetrics {
        self.net.begin_step();
        self.net.adversary_add_node(id);
        self.net.adversary_add_edge(id, attach);
        // Flood the change to everyone.
        flood_count_with(&mut self.net, attach, |_| false, &mut self.flood_scratch);
        self.net.adversary_remove_edge(id, attach);
        let mut rng = self.rng.clone();
        self.rewire_fresh(&mut rng, true);
        self.rng = rng;
        self.net.end_step(StepKind::Insert, RecoveryKind::Type1)
    }

    fn delete(&mut self, victim: NodeId) -> StepMetrics {
        let nbr = self
            .net
            .graph()
            .neighbors(victim)
            .iter()
            .find(|&w| w != victim)
            .expect("victim had a neighbor");
        self.net.begin_step();
        self.net.adversary_remove_node(victim);
        flood_count_with(&mut self.net, nbr, |_| false, &mut self.flood_scratch);
        let mut rng = self.rng.clone();
        self.rewire_fresh(&mut rng, true);
        self.rng = rng;
        self.net.end_step(StepKind::Delete, RecoveryKind::Type1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn always_regular_and_expanding() {
        let mut f = Flooding::bootstrap(1, 32, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let mut next = 1000u64;
        for _ in 0..40 {
            let ids = f.node_ids();
            if rng.random_bool(0.5) || ids.len() <= 8 {
                f.insert(NodeId(next), ids[rng.random_range(0..ids.len())]);
                next += 1;
            } else {
                f.delete(ids[rng.random_range(0..ids.len())]);
            }
            assert!(f.max_degree() <= 5);
            assert!(f.spectral_gap() > 0.05, "gap {}", f.spectral_gap());
        }
    }

    #[test]
    fn cost_is_linear_in_n() {
        let mut small = Flooding::bootstrap(3, 32, 4);
        let m_small = small.insert(NodeId(900), NodeId(0));
        let mut big = Flooding::bootstrap(3, 256, 4);
        let m_big = big.insert(NodeId(900), NodeId(0));
        // Messages scale ~linearly with n (that's the strawman's flaw).
        assert!(
            m_big.messages > m_small.messages * 4,
            "expected linear scaling: {} vs {}",
            m_big.messages,
            m_small.messages
        );
    }
}
