//! Differential oracle for [`PCycle::shortest_path_from_any`] and its
//! one-root form [`PCycle::shortest_path_with`].
//!
//! The route's *bytes* are protocol state: which physical nodes a DHT
//! message crosses decides its rounds and messages, so every benchmark's
//! deterministic metrics pin the exact path, not just its length.
//! [`reference_path`] is the search with a scalar inversion per
//! expansion, two hash maps, every level finished and the earliest
//! minimum kept, expanding by the shipped rule: the forward side starts
//! from the whole root set, and the side with the smaller frontier grows
//! next (the forward one on a tie). The shipped search batches the
//! inversions, never inverts a chord-discovered vertex, never probes a
//! parent, stamps its marks with an epoch and stops at the first meeting;
//! these tests hold it to the same path for every input, and hold both to
//! the whole-cycle BFS distance from the nearest root.

use dex_graph::connectivity::bfs_distances;
use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::{PCycle, PathScratch};
use dex_graph::primes;
use proptest::prelude::*;

#[derive(Default)]
struct ReferenceScratch {
    /// Forward side: vertex → (parent toward its root, depth); a root is
    /// its own parent.
    fwd: FxHashMap<u64, (u64, u32)>,
    /// Backward side: vertex → (parent toward `to`, depth).
    bwd: FxHashMap<u64, (u64, u32)>,
    fq: Vec<u64>,
    bq: Vec<u64>,
    next: Vec<u64>,
}

fn reference_path(
    cycle: &PCycle,
    roots: &[VertexId],
    to: VertexId,
    scratch: &mut ReferenceScratch,
    out: &mut Vec<VertexId>,
) {
    out.clear();
    if roots.contains(&to) {
        out.push(to);
        return;
    }
    let ReferenceScratch {
        fwd,
        bwd,
        fq,
        bq,
        next,
    } = scratch;
    fwd.clear();
    bwd.clear();
    fq.clear();
    bq.clear();
    next.clear();
    for r in roots {
        if fwd.insert(r.0, (r.0, 0)).is_none() {
            fq.push(r.0);
        }
    }
    bwd.insert(to.0, (to.0, 0));
    bq.push(to.0);
    let (mut df, mut db) = (0u32, 0u32);
    let mut best: u32 = u32::MAX;
    let mut meet: u64 = u64::MAX;
    while (best as u64) > (df + db) as u64 {
        // Expand one full level of the side with the smaller frontier.
        let (this, other, queue, depth) = if fq.len() <= bq.len() {
            (&mut *fwd, &*bwd, &mut *fq, &mut df)
        } else {
            (&mut *bwd, &*fwd, &mut *bq, &mut db)
        };
        if queue.is_empty() {
            break; // exhausted: unreachable vertex (not on Z(p))
        }
        *depth += 1;
        next.clear();
        for &x in queue.iter() {
            for v in cycle.neighbors(VertexId(x)) {
                if let std::collections::hash_map::Entry::Vacant(e) = this.entry(v.0) {
                    e.insert((x, *depth));
                    next.push(v.0);
                    if let Some(&(_, do_)) = other.get(&v.0) {
                        let cand = *depth + do_;
                        if cand < best {
                            best = cand;
                            meet = v.0;
                        }
                    }
                }
            }
        }
        std::mem::swap(queue, next);
    }
    assert!(meet != u64::MAX, "Z(p) is connected");
    // Reconstruct: forward half back to its root, reversed; then the
    // backward chain.
    let mut cur = meet;
    out.push(VertexId(cur));
    while fwd[&cur].0 != cur {
        cur = fwd[&cur].0;
        out.push(VertexId(cur));
    }
    out.reverse();
    cur = meet;
    while cur != to.0 {
        cur = bwd[&cur].0;
        out.push(VertexId(cur));
    }
}

/// Both searches on one root set; the shipped one on a caller-owned
/// (warm) scratch *and* on a cold one. Returns the path.
fn assert_same_path_from(
    cycle: &PCycle,
    roots: &[VertexId],
    to: VertexId,
    warm: &mut PathScratch,
    reference: &mut ReferenceScratch,
) -> Vec<VertexId> {
    let (mut want, mut got, mut cold) = (Vec::new(), Vec::new(), Vec::new());
    reference_path(cycle, roots, to, reference, &mut want);
    cycle.shortest_path_from_any(roots, to, warm, &mut got);
    assert_eq!(got, want, "{roots:?} -> {to} on {cycle:?} (warm scratch)");
    cycle.shortest_path_from_any(roots, to, &mut PathScratch::new(), &mut cold);
    assert_eq!(cold, want, "{roots:?} -> {to} on {cycle:?} (cold scratch)");
    got
}

/// [`assert_same_path_from`] for one root, through the one-root wrapper.
fn assert_same_path(
    cycle: &PCycle,
    from: u64,
    to: u64,
    warm: &mut PathScratch,
    reference: &mut ReferenceScratch,
) {
    let (from, to) = (VertexId(from), VertexId(to));
    let got = assert_same_path_from(cycle, &[from], to, warm, reference);
    let mut single = Vec::new();
    cycle.shortest_path_with(from, to, warm, &mut single);
    assert_eq!(
        single, got,
        "{from} -> {to} on {cycle:?} (one-root wrapper)"
    );
}

#[test]
fn all_pairs_match_the_reference_on_small_cycles() {
    // Exhaustive: covers the 0 / 1 / p−1 self-loops, from == to, adjacent
    // pairs, and (p = 5, 7) cycles where a chord coincides with a cycle
    // edge. One scratch serves every cycle in turn.
    let mut warm = PathScratch::new();
    let mut reference = ReferenceScratch::default();
    for p in [5u64, 7, 23, 101] {
        let cycle = PCycle::new(p);
        for from in 0..p {
            for to in 0..p {
                assert_same_path(&cycle, from, to, &mut warm, &mut reference);
            }
        }
    }
}

#[test]
fn one_scratch_serves_cycles_of_different_size() {
    // Grow the visited table on a large cycle, then route on small ones
    // (entries of earlier searches must read as empty), then grow again.
    let mut warm = PathScratch::new();
    let mut reference = ReferenceScratch::default();
    for p in [101u64, 2_000_003, 5, 20_011, 2_000_003, 7] {
        let cycle = PCycle::new(p);
        for i in 0..40u64 {
            let from = (i * 7_919 + 3) % p;
            let to = (i * i * 104_729 + p / 2) % p;
            assert_same_path(&cycle, from, to, &mut warm, &mut reference);
        }
    }
}

#[test]
#[should_panic(expected = "leaves Z(23)")]
fn off_cycle_endpoint_is_rejected_at_entry() {
    let mut out = Vec::new();
    PCycle::new(23).shortest_path_with(
        VertexId(3),
        VertexId(23),
        &mut PathScratch::new(),
        &mut out,
    );
}

#[test]
#[should_panic(expected = "has no root")]
fn empty_root_set_is_rejected_at_entry() {
    let mut out = Vec::new();
    PCycle::new(23).shortest_path_from_any(&[], VertexId(3), &mut PathScratch::new(), &mut out);
}

#[test]
fn warm_scratch_matches_cold_across_epoch_wraps() {
    // 160 searches on one scratch — five epoch wraps, each zeroing the
    // whole mark array — over cycles of mixed size, one to four roots
    // each: every path equals the reference and a cold scratch's.
    let mut warm = PathScratch::new();
    let mut reference = ReferenceScratch::default();
    let mut roots = Vec::new();
    for i in 0..160u64 {
        let p = [1_009u64, 200_003, 5, 20_011, 101][(i % 5) as usize];
        let cycle = PCycle::new(p);
        roots.clear();
        roots.extend((0..=i % 4).map(|j| VertexId((i * 7_919 + j * 104_729 + 3) % p)));
        let to = VertexId((i * i * 15_485_863 + p / 2) % p);
        assert_same_path_from(&cycle, &roots, to, &mut warm, &mut reference);
    }
}

/// Random primes in [5, 10⁶]: the smallest prime above a random point
/// (Bertrand: it is below twice the point).
fn arb_prime() -> impl Strategy<Value = u64> {
    (4u64..1_000_000).prop_map(|lo| primes::smallest_prime_in(lo, 2 * lo + 2).expect("Bertrand"))
}

/// Random primes in [5, 1,009].
fn arb_small_prime() -> impl Strategy<Value = u64> {
    (4u64..505).prop_map(|lo| primes::smallest_prime_in(lo, 2 * lo + 2).expect("Bertrand"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_routes_match_the_reference(
        p in arb_prime(),
        ends in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..8),
    ) {
        let cycle = PCycle::new(p);
        let mut warm = PathScratch::new();
        let mut reference = ReferenceScratch::default();
        for (a, b) in ends {
            assert_same_path(&cycle, a % p, b % p, &mut warm, &mut reference);
        }
    }

    #[test]
    fn multi_source_routes_start_at_the_nearest_root(
        p in arb_small_prime(),
        ends in proptest::collection::vec(
            (proptest::collection::vec(any::<u64>(), 1..9), any::<u64>()),
            1..6,
        ),
    ) {
        let cycle = PCycle::new(p);
        let g = cycle.to_multigraph();
        let mut warm = PathScratch::new();
        let mut reference = ReferenceScratch::default();
        for (raw, b) in ends {
            let roots: Vec<VertexId> = raw.iter().map(|&a| VertexId(a % p)).collect();
            let to = VertexId(b % p);
            let path = assert_same_path_from(&cycle, &roots, to, &mut warm, &mut reference);
            let dist = bfs_distances(&g, NodeId(to.0));
            let nearest = roots.iter().map(|r| dist[&NodeId(r.0)]).min().unwrap();
            prop_assert_eq!(path.len() as u32 - 1, nearest, "{:?} -> {} on Z({})", roots, to, p);
            prop_assert!(roots.contains(&path[0]), "path starts off the root set");
            prop_assert_eq!(*path.last().unwrap(), to);
            for w in path.windows(2) {
                prop_assert!(cycle.adjacent(w[0], w[1]), "non-edge step {:?}", w);
            }
        }
    }
}
