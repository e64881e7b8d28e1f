//! What a self-healing expander is *for*: the services running on top.
//!
//! Demonstrates the paper's motivating applications on a live DEX network
//! under churn: near-uniform peer sampling, O(log n) broadcast, push–pull
//! gossip, and crash-tolerant multipath delivery. Each service's printed
//! numbers are also asserted, so a broken service exits non-zero.
//!
//! ```sh
//! cargo run --release --example overlay_services
//! ```

use dex::prelude::*;
use dex::services::{broadcast, gossip, multipath, sampling};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut net = DexNetwork::bootstrap(DexConfig::new(3), 128);
    let mut rng = StdRng::seed_from_u64(17);

    // Warm the network up with churn so this is not a pristine bootstrap.
    let mut ids = IdAllocator::new();
    for _ in 0..300 {
        let live = net.node_ids();
        if rng.random_bool(0.5) {
            let attach = live[rng.random_range(0..live.len())];
            net.insert(ids.fresh(), attach);
        } else {
            net.delete(live[rng.random_range(0..live.len())]);
        }
    }
    println!(
        "network after churn: n = {}, gap = {:.4}, max degree = {}\n",
        net.n(),
        net.spectral_gap(),
        net.max_degree()
    );

    // 1. Peer sampling (paper: "quickly sample a random node").
    let from = net.node_ids()[0];
    let mut counts = std::collections::HashMap::new();
    net.net.begin_step();
    for _ in 0..2000 {
        let (u, _) = sampling::uniform_sample(&mut net, from, &mut rng);
        *counts.entry(u).or_insert(0usize) += 1;
    }
    net.net.end_step(StepKind::Insert, RecoveryKind::Type1);
    let distinct = counts.len();
    let max_count = counts.values().copied().max().unwrap();
    println!(
        "peer sampling:   2000 Metropolis-Hastings samples hit {distinct}/{} nodes, \
         max frequency {:.2}x uniform",
        net.n(),
        max_count as f64 / (2000.0 / net.n() as f64)
    );
    assert_eq!(distinct, net.n(), "peer sampling missed a node");

    // 2. Broadcast (low latency for all messages).
    let src = net.node_ids()[1];
    net.net.begin_step();
    let b = broadcast::broadcast(&mut net, src);
    net.net.end_step(StepKind::Insert, RecoveryKind::Type1);
    println!(
        "broadcast:       reached {}/{} nodes in {} rounds ({} messages)",
        b.reached,
        net.n(),
        b.rounds,
        b.messages
    );
    assert_eq!(b.reached, net.n(), "broadcast missed a node");

    // 3. Gossip.
    let src = net.node_ids()[2];
    net.net.begin_step();
    let g = gossip::push_pull(&mut net, src, 100, &mut rng);
    net.net.end_step(StepKind::Insert, RecoveryKind::Type1);
    println!(
        "gossip:          push-pull informed everyone: {} (rounds = {}, messages = {})",
        g.complete, g.rounds, g.messages
    );
    assert!(g.complete, "gossip left a node uninformed");

    // 4. Multipath under crashes.
    let live = net.node_ids();
    let (s, d) = (live[0], live[live.len() - 1]);
    let crashed: dex::graph::fxhash::FxHashSet<NodeId> = live
        .iter()
        .copied()
        .filter(|&u| u != s && u != d && u.0 % 6 == 1)
        .collect();
    net.net.begin_step();
    let m = multipath::send_multipath(&mut net, s, d, 4, 96, &crashed, &mut rng);
    net.net.end_step(StepKind::Insert, RecoveryKind::Type1);
    println!(
        "multipath:       {} of 4 copies delivered with {} nodes crashed ({} hops total)",
        m.delivered,
        crashed.len(),
        m.hops
    );
    assert!(m.delivered >= 1, "multipath delivered no copy");

    println!("\nall services stay functional on the self-healing expander ✓");
}
