//! Permutation routing on the virtual expander (paper, Corollary 3 /
//! Scheideler Cor. 7.7.3).
//!
//! Type-2 recovery installs the inverse-chord edges of the new p-cycle by
//! routing one request per vertex to the owner of its inverse — a
//! permutation-routing instance. Scheideler's bound says any permutation
//! on a bounded-degree expander routes in O(log n·(log log n)²/log log
//! log n) rounds; this module *executes* store-and-forward routing with a
//! per-edge-per-round capacity (the CONGEST constraint) along locally
//! computed shortest paths and measures the real makespan.
//!
//! A path is the one [`PCycle::shortest_path_with`] returns — the same
//! bidirectional search, over the same pooled scratch, that resolves a
//! DHT route: "node v can locally compute a shortest path in the virtual
//! graph" (Sect. 4.4) has one implementation. It expands O(√p) vertices
//! per pair, so resolving a permutation is not what bounds executed
//! routing; the store-and-forward simulation of its ≈ p·log p token hops
//! is. The one-shot type-2 procedures execute real routing up to
//! [`EXACT_ROUTING_MAX_P`] and fall back to the analytical charge above
//! it; the tests here check that the charge dominates the executed cost
//! in the overlap region.

use crate::mapping::VirtualMapping;
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::{PCycle, PathScratch};
use dex_sim::tokens::route_batch_flat;
use dex_sim::Network;

/// Largest p for which one-shot type-2 executes real permutation routing.
pub const EXACT_ROUTING_MAX_P: u64 = 2500;

/// Reusable path-resolution buffers for [`route_pairs_with`] and the DHT
/// route: one bidirectional-BFS scratch and one vertex-path buffer serve
/// every search, and all token paths of a permutation live in one flat
/// node buffer addressed by `(start, len)` ranges, so resolving a pair
/// allocates nothing. The BFS scratch holds one visited mark per vertex
/// of the largest cycle searched: p bytes, under 8 B per node.
#[derive(Default)]
pub struct RouteScratch {
    /// Flattened physical paths, one range per token.
    flat: Vec<NodeId>,
    /// `(start, len)` of each token's path within `flat`.
    ranges: Vec<(usize, usize)>,
    /// Bidirectional-BFS scratch of the virtual shortest-path search.
    pub(crate) bfs: PathScratch,
    /// The virtual path of the pair (or DHT route) being resolved.
    pub(crate) vpath: Vec<VertexId>,
    /// The DHT route's physical node path (`vpath`'s owner sequence with
    /// consecutive duplicates collapsed).
    pub(crate) npath: Vec<NodeId>,
}

impl RouteScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Route one token per `(source, target)` vertex pair along virtual
/// shortest paths mapped to physical node paths (Fact 1), with at most
/// `cap` tokens per directed physical edge per round. Returns the makespan
/// in rounds; messages and rounds are charged to `net`.
///
/// Convenience wrapper allocating a throwaway [`RouteScratch`]; repeated
/// callers (the type-2 procedures) hold one and use [`route_pairs_with`].
pub fn route_pairs(
    net: &mut Network,
    map: &VirtualMapping,
    cycle: &PCycle,
    pairs: &[(VertexId, VertexId)],
    cap: usize,
) -> u64 {
    route_pairs_with(net, map, cycle, pairs, cap, &mut RouteScratch::new())
}

/// Resolve the physical path (the owner of every virtual hop) of each
/// `src → dst` into `scratch`'s flat buffer, one `(start, len)` range per
/// pair.
fn resolve_pairs(
    map: &VirtualMapping,
    cycle: &PCycle,
    pairs: &[(VertexId, VertexId)],
    scratch: &mut RouteScratch,
) {
    let RouteScratch {
        flat,
        ranges,
        bfs,
        vpath,
        ..
    } = scratch;
    flat.clear();
    ranges.clear();
    for &(src, dst) in pairs {
        cycle.shortest_path_with(src, dst, bfs, vpath);
        ranges.push((flat.len(), vpath.len()));
        flat.extend(vpath.iter().map(|&z| map.owner_of(z)));
    }
}

/// [`route_pairs`] over caller-provided buffers.
pub fn route_pairs_with(
    net: &mut Network,
    map: &VirtualMapping,
    cycle: &PCycle,
    pairs: &[(VertexId, VertexId)],
    cap: usize,
    scratch: &mut RouteScratch,
) -> u64 {
    resolve_pairs(map, cycle, pairs, scratch);
    route_batch_flat(net, &scratch.flat, &scratch.ranges, cap)
}

/// The inverse-chord permutation of `Z(p)`: vertex `x` routes to `x⁻¹`
/// (fixed points 0, 1, p−1 route to themselves and cost nothing).
/// Note that on `Z(p)` itself every such pair is adjacent (the chord *is*
/// an edge) — the non-trivial workload is [`inflation_inverse_pairs`],
/// which routes the *new* cycle's chords across the *old* cycle.
pub fn inverse_permutation(cycle: &PCycle) -> Vec<(VertexId, VertexId)> {
    let mut pairs = Vec::with_capacity(cycle.p() as usize);
    cycle.for_each_chord(0..cycle.p(), |x, inv| pairs.push((x, inv)));
    pairs
}

/// The routing workload of an inflation `Z(p_old) → Z(p_new)`: for every
/// new vertex `y < y⁻¹ (mod p_new)`, a request must travel between the
/// nodes that will simulate them — i.e. between the *old* vertices that
/// generate `y` and `y⁻¹` (Eq. 7's cloud sources). Endpoints are old-cycle
/// vertices, spread over the whole cycle, so paths have Θ(log p) hops.
pub fn inflation_inverse_pairs(p_old: u64, p_new: u64) -> Vec<(VertexId, VertexId)> {
    use dex_graph::pcycle::resize;
    let mut pairs = Vec::new();
    PCycle::new(p_new).for_each_chord(0..p_new, |y, inv| {
        if y >= inv {
            return;
        }
        let src = resize::inflation_source(y.0, p_old, p_new);
        let dst = resize::inflation_source(inv.0, p_old, p_new);
        if src != dst {
            pairs.push((VertexId(src), VertexId(dst)));
        }
    });
    pairs
}

/// The deflation analogue: the surviving new vertex `y`'s request travels
/// between the dominating old sources of `y` and `y⁻¹` on the old cycle.
pub fn deflation_inverse_pairs(p_old: u64, p_new: u64) -> Vec<(VertexId, VertexId)> {
    use dex_graph::pcycle::resize;
    let mut pairs = Vec::new();
    PCycle::new(p_new).for_each_chord(0..p_new, |y, inv| {
        if y >= inv {
            return;
        }
        let src = resize::deflation_cloud(y.0, p_old, p_new).start;
        let dst = resize::deflation_cloud(inv.0, p_old, p_new).start;
        if src != dst {
            pairs.push((VertexId(src), VertexId(dst)));
        }
    });
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric;
    use dex_graph::connectivity::bfs_distances;
    use dex_graph::primes;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// A DEX-shaped world: Z(p) dealt round-robin onto n nodes.
    fn world(p: u64, n: u64) -> (Network, VirtualMapping, PCycle) {
        let cycle = PCycle::new(p);
        let (net, map) = fabric::deal_round_robin(8, &cycle, n);
        (net, map, cycle)
    }

    fn log2(p: u64) -> u64 {
        (64 - p.leading_zeros() as u64).max(1)
    }

    /// The two permutations a type-2 rebuild routes on `Z(p)`.
    fn type2_workloads(p: u64) -> [(&'static str, Vec<(VertexId, VertexId)>); 2] {
        let p_down = primes::deflation_prime(p).expect("p large enough to deflate");
        [
            (
                "inflation",
                inflation_inverse_pairs(p, primes::inflation_prime(p)),
            ),
            ("deflation", deflation_inverse_pairs(p, p_down)),
        ]
    }

    #[test]
    fn type2_workloads_resolve_to_shortest_virtual_paths() {
        for p in [101u64, 1009, 10007] {
            // Identity Φ (vertex x on node x): a resolved owner path *is*
            // the virtual path.
            let cycle = PCycle::new(p);
            let graph = cycle.to_multigraph();
            let mut map = VirtualMapping::new(8);
            for x in 0..p {
                map.assign(VertexId(x), NodeId(x));
            }
            let mut scratch = RouteScratch::new();
            for (name, pairs) in type2_workloads(p) {
                resolve_pairs(&map, &cycle, &pairs, &mut scratch);
                assert_eq!(scratch.ranges.len(), pairs.len());
                // Every path is a path; its length is held against the
                // reference BFS for every pair of a workload of up to
                // 1,000 pairs (the executed ones) and for an even sample
                // of 1,000 of a larger one.
                let stride = pairs.len().div_ceil(1000);
                let mut sampled = Vec::new();
                for (i, (&(src, dst), &(start, len))) in
                    pairs.iter().zip(&scratch.ranges).enumerate()
                {
                    let path = &scratch.flat[start..start + len];
                    assert_eq!(
                        (path[0], path[len - 1]),
                        (NodeId(src.0), NodeId(dst.0)),
                        "{name} of Z({p})"
                    );
                    for w in path.windows(2) {
                        assert!(
                            cycle.adjacent(VertexId(w[0].0), VertexId(w[1].0)),
                            "{name} of Z({p}), {src} -> {dst}: non-edge step {w:?}"
                        );
                    }
                    if i % stride == 0 {
                        sampled.push((path[0], path[len - 1], len as u32 - 1));
                    }
                }
                // One reference BFS per distinct source.
                sampled.sort_unstable();
                for run in sampled.chunk_by(|a, b| a.0 == b.0) {
                    let dist = bfs_distances(&graph, run[0].0);
                    for &(src, dst, hops) in run {
                        assert_eq!(
                            hops, dist[&dst],
                            "{name} of Z({p}), {src} -> {dst} not shortest"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_permutation_is_an_involution() {
        let cycle = PCycle::new(101);
        let pairs = inverse_permutation(&cycle);
        assert_eq!(pairs.len(), 101);
        for &(x, y) in &pairs {
            assert_eq!(cycle.chord(y), x);
        }
        // It is a permutation: every vertex appears exactly once as target.
        let mut targets: Vec<u64> = pairs.iter().map(|&(_, y)| y.0).collect();
        targets.sort_unstable();
        assert_eq!(targets, (0..101).collect::<Vec<_>>());
    }

    #[test]
    fn routing_completes_and_charges() {
        let (mut net, map, cycle) = world(101, 25);
        net.begin_step();
        let pairs = inflation_inverse_pairs(101, primes::inflation_prime(101));
        let rounds = route_pairs(&mut net, &map, &cycle, &pairs, 1);
        let (r, m, _) = net.current_counters();
        assert_eq!(r, rounds);
        assert!(m > 0);
        net.end_step(dex_sim::StepKind::Insert, dex_sim::RecoveryKind::Type1);
        assert!(rounds > 0);
    }

    #[test]
    fn inverse_permutation_pairs_are_adjacent() {
        // On Z(p) itself, x and x⁻¹ share the chord edge — routing them is
        // a single hop; the real type-2 workload is the cross-cycle one.
        let cycle = PCycle::new(101);
        for (a, b) in inverse_permutation(&cycle) {
            assert!(cycle.adjacent(a, b) || a == b);
        }
    }

    #[test]
    fn inflation_pairs_span_the_old_cycle() {
        let p_old = 499u64;
        let p_new = primes::inflation_prime(p_old);
        let pairs = inflation_inverse_pairs(p_old, p_new);
        assert!(
            pairs.len() as u64 > p_new / 3,
            "too few pairs: {}",
            pairs.len()
        );
        // One BFS per distinct source.
        let graph = PCycle::new(p_old).to_multigraph();
        let mut by_source = pairs.clone();
        by_source.sort_unstable();
        let far: usize = by_source
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                let dist = bfs_distances(&graph, NodeId(run[0].0 .0));
                run.iter()
                    .filter(|&&(_, b)| dist[&NodeId(b.0)] >= 3)
                    .count()
            })
            .sum();
        assert!(
            far * 2 > pairs.len(),
            "inflation routing workload is mostly trivial ({far}/{})",
            pairs.len()
        );
    }

    #[test]
    fn makespan_is_polylog_in_p() {
        // Corollary 3's shape on the *real* type-2 workload: rounds grow
        // ~log²p, nowhere near p.
        let mut results = Vec::new();
        for p in [101u64, 499, 2003] {
            let n = p / 4;
            let (mut net, map, cycle) = world(p, n);
            net.begin_step();
            let pairs = inflation_inverse_pairs(p, primes::inflation_prime(p));
            let rounds = route_pairs(&mut net, &map, &cycle, &pairs, 1);
            net.end_step(dex_sim::StepKind::Insert, dex_sim::RecoveryKind::Type1);
            results.push((p, rounds));
        }
        for &(p, rounds) in &results {
            let bound = 10 * log2(p) * log2(p);
            assert!(
                rounds <= bound,
                "permutation on Z({p}) took {rounds} rounds > 10·log² = {bound}"
            );
            assert!((rounds as f64) < p as f64, "not sublinear at p={p}");
        }
        // Growth from p=101 to p=2003 (~20×) must stay well under 20×.
        let growth = results[2].1 as f64 / results[0].1.max(1) as f64;
        assert!(growth < 10.0, "superlogarithmic growth: {growth}");
    }

    #[test]
    fn random_permutation_also_routes_fast() {
        let (mut net, map, cycle) = world(499, 124);
        let mut rng = StdRng::seed_from_u64(9);
        let mut targets: Vec<u64> = (0..499).collect();
        targets.shuffle(&mut rng);
        let pairs: Vec<(VertexId, VertexId)> = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| (VertexId(i as u64), VertexId(t)))
            .collect();
        net.begin_step();
        let rounds = route_pairs(&mut net, &map, &cycle, &pairs, 1);
        net.end_step(dex_sim::StepKind::Insert, dex_sim::RecoveryKind::Type1);
        let bound = 4 * log2(499) * log2(499);
        assert!(
            rounds <= bound,
            "random permutation took {rounds} > {bound}"
        );
    }

    #[test]
    fn higher_capacity_reduces_makespan() {
        let (mut net, map, cycle) = world(499, 124);
        let pairs = inflation_inverse_pairs(499, primes::inflation_prime(499));
        net.begin_step();
        let r1 = route_pairs(&mut net, &map, &cycle, &pairs, 1);
        net.end_step(dex_sim::StepKind::Insert, dex_sim::RecoveryKind::Type1);
        let (mut net2, map2, cycle2) = world(499, 124);
        net2.begin_step();
        let r4 = route_pairs(&mut net2, &map2, &cycle2, &pairs, 4);
        net2.end_step(dex_sim::StepKind::Insert, dex_sim::RecoveryKind::Type1);
        assert!(r4 <= r1, "cap 4 ({r4}) should not exceed cap 1 ({r1})");
    }

    #[test]
    fn analytical_charge_upper_bounds_executed_routing() {
        // The fallback model (6·log p rounds) must dominate reality in the
        // regime where we can execute both, on both type-2 workloads.
        for p in [101u64, 499, 1009] {
            for (name, pairs) in type2_workloads(p) {
                let (mut net, map, cycle) = world(p, p / 5);
                net.begin_step();
                let rounds = route_pairs(&mut net, &map, &cycle, &pairs, 1);
                net.end_step(dex_sim::StepKind::Insert, dex_sim::RecoveryKind::Type1);
                // Executed routing includes congestion; allow log-factor
                // slack but verify the same order of magnitude.
                assert!(
                    rounds <= 6 * log2(p) * log2(p),
                    "{name} of Z({p}): executed {rounds} far above model"
                );
            }
        }
    }
}
