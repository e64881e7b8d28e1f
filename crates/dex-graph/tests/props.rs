//! Property-based tests for the graph substrate.

use dex_graph::adjacency::MultiGraph;
use dex_graph::connectivity::bfs_distances;
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::resize::Plan;
use dex_graph::pcycle::PCycle;
use dex_graph::primes;
use proptest::prelude::*;

/// Trial-division oracle.
fn is_prime_naive(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Primes in [5, 4000) for p-cycle properties.
fn arb_prime() -> impl Strategy<Value = u64> {
    (5u64..4000).prop_filter_map("prime", |n| if is_prime_naive(n) { Some(n) } else { None })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn miller_rabin_matches_trial_division(n in 0u64..100_000) {
        prop_assert_eq!(primes::is_prime(n), is_prime_naive(n));
    }

    #[test]
    fn mod_inverse_really_inverts(p in arb_prime(), x in 1u64..4000) {
        let x = x % p;
        prop_assume!(x != 0);
        let inv = primes::mod_inverse(x, p);
        prop_assert_eq!(primes::mod_mul(x, inv, p), 1);
    }

    #[test]
    fn pcycle_is_three_regular(p in arb_prime()) {
        let z = PCycle::new(p);
        let g = z.to_multigraph();
        for u in g.nodes() {
            prop_assert_eq!(g.degree(u), 3);
        }
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn pcycle_chord_is_involution(p in arb_prime(), x in 0u64..4000) {
        let z = PCycle::new(p);
        let v = VertexId(x % p);
        prop_assert_eq!(z.chord(z.chord(v)), v);
    }

    #[test]
    fn inflation_partitions_new_cycle(p in arb_prime()) {
        let plan = Plan::inflation(p);
        let mut seen = vec![false; plan.p_new() as usize];
        for x in 0..p {
            for y in plan.generated_by(x) {
                prop_assert!(!seen[y as usize], "duplicate {}", y);
                seen[y as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn inflation_cloud_size_below_zeta(p in arb_prime(), x in 0u64..4000) {
        let cloud = Plan::inflation(p).generated_by(x % p);
        prop_assert!(!cloud.is_empty());
        prop_assert!(cloud.end - cloud.start <= 8, "cloud of {:?}", cloud);
    }

    #[test]
    fn deflation_image_within_range(p in arb_prime().prop_filter("large enough", |&p| p >= 97)) {
        let plan = Plan::deflation(p).expect("deflation prime exists for p >= 97");
        let q = plan.p_new();
        // Each new vertex has exactly one dominating preimage, which alone
        // generates it; every image lies in Z_q.
        let mut dom = vec![0u32; q as usize];
        for x in 0..p {
            let ys = plan.generated_by(x);
            prop_assert!(ys.end <= q, "image {} out of Z_{}", ys.end - 1, q);
            for y in ys {
                dom[y as usize] += 1;
            }
        }
        prop_assert!(dom.iter().all(|&c| c == 1));
    }

    #[test]
    fn multigraph_random_script_stays_consistent(
        script in proptest::collection::vec((0u8..4, 0u64..12, 0u64..12), 1..200)
    ) {
        let mut g = MultiGraph::new();
        for (op, a, b) in script {
            let (u, v) = (NodeId(a), NodeId(b));
            match op {
                0 => { g.add_node(u); }
                1 => { g.remove_node(u); }
                2 => {
                    if g.has_node(u) && g.has_node(v) {
                        g.add_edge(u, v);
                    }
                }
                _ => { g.remove_edge(u, v); }
            }
            prop_assert!(g.validate().is_ok(), "after op {} {:?} {:?}", op, u, v);
        }
    }

    #[test]
    fn bfs_distance_symmetric_on_pcycle(p in arb_prime(), a in 0u64..4000, b in 0u64..4000) {
        let g = PCycle::new(p).to_multigraph();
        let (a, b) = (NodeId(a % p), NodeId(b % p));
        prop_assert_eq!(bfs_distances(&g, a)[&b], bfs_distances(&g, b)[&a]);
    }

    #[test]
    fn inflation_then_deflation_returns_near_start(p in arb_prime()) {
        // Inflating p→q and deflating q→(q/8, q/4) lands near the original
        // scale: q ∈ (4p, 8p) so the deflation target is in (p/2, 2p).
        let q = primes::inflation_prime(p);
        let r = primes::deflation_prime(q).expect("q >= 23");
        prop_assert!(r > p / 2 && r < 2 * p, "p={} q={} r={}", p, q, r);
    }
}
