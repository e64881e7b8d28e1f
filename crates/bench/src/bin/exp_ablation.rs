//! **Ablations** of three design choices:
//!
//! * **θ sweep** — the rebuilding parameter trades type-2 frequency
//!   against spare capacity (paper Eq. 3 demands θ ≤ 1/545; how much do
//!   larger values change behaviour at laptop scale?);
//! * **staggered window size** — the number of vertices activated per
//!   step trades operation duration against per-step cost;
//! * **executed vs modeled permutation routing** — the one-shot type-2
//!   inverse-edge phase routes real tokens below p ≈ 2500 (Cor. 3); check
//!   the analytical model used above the cutoff against executed numbers.
//!
//! ```sh
//! cargo run --release -p dex-bench --bin exp_ablation
//! ```

use dex::core::fabric;
use dex::core::routing;
use dex::prelude::*;
use dex_bench::{print_table, sss, Schedule};

fn theta_sweep() {
    println!("A1: θ ablation (insert-heavy growth, 1200 steps, n 32 → ~1100, simplified mode)");
    let mut rows = Vec::new();
    for theta_inv in [16u64, 64, 256, 545] {
        let cfg = DexConfig::new(61).simplified().with_theta_inv(theta_inv);
        let mut net = DexNetwork::bootstrap(cfg, 32);
        let sched = Schedule::random(62, 1200, 0.9);
        sched.apply(&mut net);
        invariants::assert_ok(&net);
        let h = net.net.history();
        let type2 = h.iter().filter(|m| m.recovery.is_type2()).count();
        let msgs = Summary::of(h.iter().map(|m| m.messages));
        rows.push(vec![
            format!("1/{theta_inv}"),
            format!("{}", net.n()),
            format!("{type2}"),
            format!("{}", msgs.p95),
            format!("{}", msgs.max),
            format!("{:.4}", net.spectral_gap()),
        ]);
    }
    print_table(
        "θ controls when type-2 fires, not whether the invariants hold",
        &[
            "θ",
            "n@end",
            "type2 events",
            "msgs p95",
            "msgs max",
            "gap@end",
        ],
        &rows,
    );
}

fn window_sweep() {
    println!("\nA2: staggered window ablation (growth through inflations, staggered mode)");
    // The window is derived from θ; sweeping θ in staggered mode sweeps
    // the window (vertices activated per step) with it.
    let mut rows = Vec::new();
    for theta_inv in [16u64, 64, 256] {
        let cfg = DexConfig::new(63).staggered().with_theta_inv(theta_inv);
        let mut net = DexNetwork::bootstrap(cfg, 32);
        let sched = Schedule::random(64, 1500, 0.9);
        sched.apply(&mut net);
        invariants::assert_ok(&net);
        let h = net.net.history();
        let t2: Vec<_> = h.iter().filter(|m| m.recovery.is_type2()).collect();
        let t2_msgs = Summary::of(t2.iter().map(|m| m.messages));
        let t2_topo = Summary::of(t2.iter().map(|m| m.topology_changes));
        rows.push(vec![
            format!("1/{theta_inv}"),
            format!("{}", t2.len()),
            sss(&t2_msgs),
            sss(&t2_topo),
            format!("{:.4}", net.spectral_gap()),
        ]);
    }
    print_table(
        "larger θ ⇒ larger windows ⇒ fewer but heavier staggered steps",
        &[
            "θ",
            "staggered steps",
            "t2 msgs p50/p95/max",
            "t2 topoΔ p50/p95/max",
            "gap@end",
        ],
        &rows,
    );
}

fn routing_validation() {
    println!("\nA3: permutation routing — executed rounds vs the analytical charge (Cor. 3)");
    let mut rows = Vec::new();
    for p in [101u64, 499, 1009, 2003] {
        let cycle = PCycle::new(p);
        let n = (p / 5).max(4);
        let (mut net, map) = fabric::deal_round_robin(8, &cycle, n);
        net.begin_step();
        let p_new = dex::graph::primes::inflation_prime(p);
        let pairs = routing::inflation_inverse_pairs(p, p_new);
        let rounds = routing::route_pairs(&mut net, &map, &cycle, &pairs, 1);
        let (_, messages, _) = net.current_counters();
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
        let logp = (64 - p.leading_zeros() as u64).max(1);
        rows.push(vec![
            format!("{p}"),
            format!("{rounds}"),
            format!("{}", 6 * logp),
            format!("{messages}"),
            format!("{}", p * logp),
            format!("{:.2}", rounds as f64 / (logp * logp) as f64),
        ]);
    }
    print_table(
        "store-and-forward makespan vs the 6·log p model (messages vs p·log p)",
        &[
            "p",
            "rounds (executed)",
            "rounds (model)",
            "msgs (executed)",
            "msgs (model)",
            "rounds/log²p",
        ],
        &rows,
    );
    println!("\nexpected: executed rounds stay within a small factor of the model; the");
    println!("rounds/log²p column is ~constant (Scheideler's bound has shape log·polyloglog).");
}

fn main() {
    theta_sweep();
    window_sweep();
    routing_validation();
}
