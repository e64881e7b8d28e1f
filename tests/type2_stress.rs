//! Type-2 recovery stress: force many inflations and deflations in both
//! modes, verify separation (Lemma 8), staggered cost bounds (Lemma 9)
//! and the gap floor.

use dex::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Grow by pure insertion until at least `k` type-2 events have fired.
fn grow_through_inflations(cfg: DexConfig, k: usize) -> DexNetwork {
    let mut net = DexNetwork::bootstrap(cfg, 8);
    let mut adv = InsertOnly::new(99);
    let mut fired = 0;
    for _ in 0..30_000 {
        let before = net.cycle.p();
        dex::adversary::driver::step(&mut net, &mut adv);
        if net.cycle.p() != before {
            fired += 1;
            if fired >= k {
                break;
            }
        }
    }
    assert!(fired >= k, "only {fired} inflations in 30k steps");
    net
}

#[test]
fn repeated_inflations_simplified() {
    let net = grow_through_inflations(DexConfig::new(41).simplified(), 3);
    invariants::assert_ok(&net);
    assert!(net.spectral_gap() > 0.01);
}

#[test]
fn repeated_inflations_staggered() {
    let net = grow_through_inflations(DexConfig::new(42).staggered(), 2);
    invariants::assert_ok(&net);
    assert!(net.spectral_gap() > 0.005);
}

#[test]
fn oscillation_forces_both_directions() {
    let mut net = DexNetwork::bootstrap(DexConfig::new(43).simplified(), 8);
    let mut adv = OscillatingSize::new(44, 8, 600);
    let mut grew = 0;
    let mut shrank = 0;
    for _ in 0..4000 {
        let before = net.cycle.p();
        dex::adversary::driver::step(&mut net, &mut adv);
        let after = net.cycle.p();
        if after > before {
            grew += 1;
        }
        if after < before {
            shrank += 1;
        }
    }
    assert!(grew >= 1, "no inflation in 4000 oscillating steps");
    assert!(shrank >= 1, "no deflation in 4000 oscillating steps");
    invariants::assert_ok(&net);
}

#[test]
fn type2_events_are_separated_by_many_type1_steps() {
    // Lemma 8: consecutive type-2 events are Ω(n) apart.
    let mut net = DexNetwork::bootstrap(DexConfig::new(45).simplified(), 8);
    let mut adv = RandomChurn::new(46, 0.75);
    let mut last: Option<(u64, usize)> = None; // (step, n at event)
    let mut min_ratio = f64::INFINITY;
    for _ in 0..6000 {
        let before = net.cycle.p();
        dex::adversary::driver::step(&mut net, &mut adv);
        if net.cycle.p() != before {
            let step = net.net.steps_completed();
            if let Some((prev_step, prev_n)) = last {
                let sep = (step - prev_step) as f64 / prev_n as f64;
                min_ratio = min_ratio.min(sep);
            }
            last = Some((step, net.n()));
        }
    }
    if min_ratio.is_finite() {
        assert!(
            min_ratio > 0.2,
            "type-2 separation only {min_ratio:.3}·n steps"
        );
    }
}

#[test]
fn staggered_steps_stay_cheap_during_type2() {
    // Lemma 9(a): every step during a staggered operation is O(log n)
    // rounds/messages and O(1) (n-independent) topology changes.
    let mut net = DexNetwork::bootstrap(DexConfig::new(47).staggered(), 8);
    let mut adv = InsertOnly::new(48);
    let mut during: Vec<StepMetrics> = Vec::new();
    for _ in 0..6000 {
        dex::adversary::driver::step(&mut net, &mut adv);
        let m = *net.net.history().last().unwrap();
        if m.recovery.is_type2() {
            during.push(m);
        }
        if during.len() > 400 {
            break;
        }
    }
    assert!(!during.is_empty(), "no staggered steps observed");
    let n = net.n() as u64;
    // Lemma 9(a) is a w.h.p. statement: the per-step cost is dominated by
    // O(log n)-length rebalancing walks, but walk *retries* give it a heavy
    // tail, so assert the bulk (95th percentile) against the strict bound
    // and only a loose cap on the worst step. Even the cap is ~100x below
    // the simplified mode's ~n·log²n one-shot cost.
    let mut msgs: Vec<u64> = during.iter().map(|m| m.messages).collect();
    msgs.sort_unstable();
    let p95 = msgs[(msgs.len() * 95 / 100).min(msgs.len() - 1)];
    let worst = *msgs.last().unwrap();
    assert!(
        p95 < n.max(256), // << O(n): simplified would be ~n·log²n
        "typical staggered step used {p95} messages at n={n}"
    );
    assert!(
        worst < 8 * n.max(256),
        "worst staggered step used {worst} messages at n={n}"
    );
    invariants::assert_ok(&net);
}

#[test]
fn mass_exodus_after_growth_deflates_cleanly() {
    let mut net = DexNetwork::bootstrap(DexConfig::new(49).simplified(), 8);
    let mut rng = StdRng::seed_from_u64(50);
    let mut ids = IdAllocator::new();
    for _ in 0..1500 {
        let live = net.node_ids();
        net.insert(ids.fresh(), live[rng.random_range(0..live.len())]);
    }
    let p_grown = net.cycle.p();
    while net.n() > 10 {
        let live = net.node_ids();
        net.delete(live[rng.random_range(0..live.len())]);
    }
    assert!(net.cycle.p() < p_grown, "no deflation during exodus");
    invariants::assert_ok(&net);
    assert!(net.spectral_gap() > 0.01);
}
