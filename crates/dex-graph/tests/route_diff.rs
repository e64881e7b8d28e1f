//! Differential oracle for [`PCycle::shortest_path_with`].
//!
//! The route's *bytes* are protocol state: which physical nodes a DHT
//! message crosses decides its rounds and messages, so every benchmark's
//! deterministic metrics pin the exact path, not just its length.
//! [`reference_bidirectional_path`] is the search as it was before the
//! chord kernel — a scalar inversion per expansion, two hash maps, every
//! level finished and the earliest minimum kept — moved here verbatim.
//! The shipped search batches the inversions, never inverts a
//! chord-discovered vertex, never probes a parent and stops at the first
//! meeting; these tests hold it to the same path for every input.

use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::VertexId;
use dex_graph::pcycle::{PCycle, PathScratch};
use dex_graph::primes;
use proptest::prelude::*;

#[derive(Default)]
struct ReferenceScratch {
    /// Forward side: vertex → (parent toward `from`, depth).
    fwd: FxHashMap<u64, (u64, u32)>,
    /// Backward side: vertex → (parent toward `to`, depth).
    bwd: FxHashMap<u64, (u64, u32)>,
    fq: Vec<u64>,
    bq: Vec<u64>,
    next: Vec<u64>,
}

fn reference_bidirectional_path(
    cycle: &PCycle,
    from: VertexId,
    to: VertexId,
    scratch: &mut ReferenceScratch,
    out: &mut Vec<VertexId>,
) {
    out.clear();
    if from == to {
        out.push(from);
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
    fwd.insert(from.0, (from.0, 0));
    bwd.insert(to.0, (to.0, 0));
    fq.push(from.0);
    bq.push(to.0);
    let (mut df, mut db) = (0u32, 0u32);
    let mut best: u32 = u32::MAX;
    let mut meet: u64 = u64::MAX;
    let mut forward = true;
    while (best as u64) > (df + db) as u64 {
        // Expand one full level of the chosen side (alternating;
        // falling back to the other side if this one is exhausted).
        let go_forward = (forward && !fq.is_empty()) || bq.is_empty();
        let (this, other, queue, depth) = if go_forward {
            (&mut *fwd, &*bwd, &mut *fq, &mut df)
        } else {
            (&mut *bwd, &*fwd, &mut *bq, &mut db)
        };
        if queue.is_empty() {
            break; // both exhausted: unreachable vertex (not on Z(p))
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
        forward = !forward;
    }
    assert!(meet != u64::MAX, "Z(p) is connected");
    // Reconstruct: forward half reversed, then the backward chain.
    out.push(VertexId(meet));
    let mut cur = meet;
    while cur != from.0 {
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

/// Both searches on one pair; the shipped one on a caller-owned (warm)
/// scratch *and* on a cold one.
fn assert_same_path(
    cycle: &PCycle,
    from: u64,
    to: u64,
    warm: &mut PathScratch,
    reference: &mut ReferenceScratch,
) {
    let (from, to) = (VertexId(from), VertexId(to));
    let (mut want, mut got, mut cold) = (Vec::new(), Vec::new(), Vec::new());
    reference_bidirectional_path(cycle, from, to, reference, &mut want);
    cycle.shortest_path_with(from, to, warm, &mut got);
    assert_eq!(got, want, "{from} -> {to} on {cycle:?} (warm scratch)");
    cycle.shortest_path_with(from, to, &mut PathScratch::new(), &mut cold);
    assert_eq!(cold, want, "{from} -> {to} on {cycle:?} (cold scratch)");
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

/// Random primes in [5, 10⁶]: the smallest prime above a random point
/// (Bertrand: it is below twice the point).
fn arb_prime() -> impl Strategy<Value = u64> {
    (4u64..1_000_000).prop_map(|lo| primes::smallest_prime_in(lo, 2 * lo + 2).expect("Bertrand"))
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
}
