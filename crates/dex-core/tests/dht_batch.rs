//! DHT (Sect. 4.4.4) and batch-churn (Sect. 5) end-to-end tests.

use dex_core::{invariants, DexConfig, DexNetwork};
use dex_graph::ids::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn dht_store_and_lookup() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(1).simplified(), 16);
    let ids = dex.node_ids();
    for k in 0..100u64 {
        dex.dht_insert(ids[(k % 16) as usize], k, k * 10);
    }
    for k in 0..100u64 {
        let (v, m) = dex.dht_lookup(ids[((k + 3) % 16) as usize], k);
        assert_eq!(v, Some(k * 10), "key {k}");
        assert!(m.rounds <= 64, "lookup rounds {}", m.rounds);
    }
    let (v, _) = dex.dht_lookup(ids[0], 10_000);
    assert_eq!(v, None);
}

#[test]
fn dht_survives_churn_and_rehash() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(2).simplified(), 8);
    let mut rng = StdRng::seed_from_u64(5);
    for k in 0..50u64 {
        let ids = dex.node_ids();
        let from = ids[rng.random_range(0..ids.len())];
        dex.dht_insert(from, k, 7000 + k);
    }
    // Heavy growth: forces at least one inflation (rehash).
    for next in 1_000_000u64..1_000_300 {
        let ids = dex.node_ids();
        let v = ids[rng.random_range(0..ids.len())];
        dex.insert(NodeId(next), v);
    }
    assert!(dex.walk_stats.type2 >= 1, "inflation expected");
    invariants::assert_ok(&dex);
    for k in 0..50u64 {
        let ids = dex.node_ids();
        let from = ids[rng.random_range(0..ids.len())];
        let (v, _) = dex.dht_lookup(from, k);
        assert_eq!(v, Some(7000 + k), "key {k} lost after churn");
    }
}

#[test]
fn dht_lookup_cost_is_logarithmic() {
    // Routing cost must track the p-cycle diameter (O(log n)), not n.
    let mut costs = Vec::new();
    for n0 in [16u64, 64, 256] {
        let mut dex = DexNetwork::bootstrap(DexConfig::new(3).simplified(), n0);
        let ids = dex.node_ids();
        let mut worst = 0;
        for k in 0..40u64 {
            dex.dht_insert(ids[0], k, k);
            let (_, m) = dex.dht_lookup(ids[(k % n0) as usize], k);
            worst = worst.max(m.rounds);
        }
        costs.push(worst);
    }
    // 16× more nodes must not cost anywhere near 16× the rounds.
    assert!(
        costs[2] < costs[0] * 4 + 16,
        "lookup cost not logarithmic: {costs:?}"
    );
}

#[test]
fn batch_insert_heals_in_one_step() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(4).simplified(), 32);
    let ids = dex.node_ids();
    let joins: Vec<(NodeId, NodeId)> = (0..8)
        .map(|i| (NodeId(2_000_000 + i), ids[i as usize * 3]))
        .collect();
    let m = dex.insert_batch(&joins);
    assert_eq!(dex.n(), 40);
    assert!(m.messages > 0);
    invariants::assert_ok(&dex);
}

#[test]
fn batch_delete_heals_in_one_step() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(5).simplified(), 32);
    let ids = dex.node_ids();
    let victims: Vec<NodeId> = ids.iter().copied().take(6).collect();
    dex.delete_batch(&victims);
    assert_eq!(dex.n(), 26);
    invariants::assert_ok(&dex);
}

#[test]
fn repeated_batches_with_type2() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(6).simplified(), 16);
    let mut rng = StdRng::seed_from_u64(9);
    let mut next = 3_000_000u64;
    for round in 0..30 {
        if round % 3 != 2 {
            let ids = dex.node_ids();
            let joins: Vec<(NodeId, NodeId)> = (0..4)
                .map(|_| {
                    let v = ids[rng.random_range(0..ids.len())];
                    next += 1;
                    (NodeId(next), v)
                })
                .collect();
            dex.insert_batch(&joins);
        } else {
            let ids = dex.node_ids();
            let mut victims = Vec::new();
            let mut i = 0;
            while victims.len() < 3 && i < ids.len() {
                victims.push(ids[rng.random_range(0..ids.len())]);
                victims.dedup();
                i += 1;
            }
            victims.sort_unstable();
            victims.dedup();
            dex.delete_batch(&victims);
        }
        invariants::assert_ok(&dex);
    }
    assert!(dex.spectral_gap() > 0.01);
}

#[test]
#[should_panic(expected = "fan-in")]
fn batch_rejects_excess_fan_in() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(7).simplified(), 8);
    let v = dex.node_ids()[0];
    let joins: Vec<(NodeId, NodeId)> = (0..9).map(|i| (NodeId(900 + i), v)).collect();
    dex.insert_batch(&joins);
}

#[test]
fn batch_fan_in_boundary_accepts_exactly_the_bound() {
    // MAX_ATTACH_FAN_IN newcomers on one attach point is legal; one more
    // is not (covered by `batch_rejects_excess_fan_in`).
    let mut dex = DexNetwork::bootstrap(DexConfig::new(8).simplified(), 32);
    let v = dex.node_ids()[0];
    let joins: Vec<(NodeId, NodeId)> = (0..dex_core::batch::MAX_ATTACH_FAN_IN as u64)
        .map(|i| (NodeId(910 + i), v))
        .collect();
    dex.insert_batch(&joins);
    assert_eq!(dex.n(), 32 + dex_core::batch::MAX_ATTACH_FAN_IN);
    invariants::assert_ok(&dex);
}

#[test]
fn batch_accepts_chained_intra_batch_attaches() {
    // A later pair may attach to an earlier newcomer of the same batch
    // (healing runs pair-by-pair, so the attach point exists by then).
    let mut dex = DexNetwork::bootstrap(DexConfig::new(14).simplified(), 16);
    let live = dex.node_ids()[0];
    let joins = vec![
        (NodeId(7_000_000), live),
        (NodeId(7_000_001), NodeId(7_000_000)),
        (NodeId(7_000_002), NodeId(7_000_001)),
    ];
    dex.insert_batch(&joins);
    assert_eq!(dex.n(), 19);
    invariants::assert_ok(&dex);
}

#[test]
fn batch_rejects_id_collision_before_mutating() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(9).simplified(), 16);
    let ids = dex.node_ids();
    // First pair is fine; the second newcomer collides with a live node.
    let joins = vec![(NodeId(5_000_000), ids[0]), (ids[1], ids[2])];
    let n_before = dex.n();
    let mut edges_before = dex.graph().edges();
    edges_before.sort();
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dex.insert_batch(&joins)));
    let err = *result
        .expect_err("collision must panic")
        .downcast::<String>()
        .unwrap();
    assert!(err.contains("collides"), "{err}");
    // Validation runs before any mutation: nothing changed.
    assert_eq!(dex.n(), n_before);
    let mut edges_after = dex.graph().edges();
    edges_after.sort();
    assert_eq!(edges_after, edges_before);
    invariants::assert_ok(&dex);
}

#[test]
#[should_panic(expected = "duplicate newcomer")]
fn batch_rejects_duplicate_newcomers() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(10).simplified(), 16);
    let ids = dex.node_ids();
    let joins = vec![(NodeId(6_000_000), ids[0]), (NodeId(6_000_000), ids[1])];
    dex.insert_batch(&joins);
}

#[test]
#[should_panic(expected = "duplicate victim")]
fn batch_rejects_duplicate_victims() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(11).simplified(), 16);
    let ids = dex.node_ids();
    dex.delete_batch(&[ids[0], ids[0]]);
}

#[test]
#[should_panic(expected = "attach point")]
fn batch_rejects_missing_attach_point() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(15).simplified(), 16);
    let ids = dex.node_ids();
    // The second pair attaches to a node that is neither live nor an
    // earlier newcomer of the batch.
    let joins = vec![
        (NodeId(8_000_000), ids[0]),
        (NodeId(8_000_001), NodeId(8_999_999)),
    ];
    dex.insert_batch(&joins);
}

#[test]
#[should_panic(expected = "empty the network")]
fn batch_rejects_emptying_the_network() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(16).simplified(), 8);
    let ids = dex.node_ids();
    dex.delete_batch(&ids[..7]);
}

#[test]
fn dht_remigrates_when_hashed_under_changes_across_staggered_switchover() {
    // Data stored under Z(p₀) must follow the hash function to the new
    // cycle when a *staggered* type-2 operation switches over, with the
    // lump migration charged exactly once.
    let mut dex = DexNetwork::bootstrap(DexConfig::new(12).staggered(), 8);
    let ids = dex.node_ids();
    for k in 0..40u64 {
        dex.dht_insert(ids[(k % 8) as usize], k, 9000 + k);
    }
    let p0 = dex.cycle.p();
    assert_eq!(dex.dht_store().hashed_under(), Some(p0));

    // Grow until an inflation fires, staggers through its windows, and
    // switches over (p changes only at switchover).
    let mut rng = StdRng::seed_from_u64(13);
    let mut next = 5_000_000u64;
    while dex.cycle.p() == p0 {
        let live = dex.node_ids();
        let v = live[rng.random_range(0..live.len())];
        dex.insert(NodeId(next), v);
        next += 1;
        assert!(next < 5_010_000, "staggered inflation never completed");
    }
    assert!(dex.cycle.p() > p0);
    // The store is still partitioned under p₀ until the next DHT op
    // observes the new cycle...
    assert_eq!(dex.dht_store().hashed_under(), Some(p0));

    let from = dex.node_ids()[0];
    let (v, m_migrating) = dex.dht_lookup(from, 0);
    assert_eq!(v, Some(9000));
    // ...which re-partitions everything and charges one message per item.
    assert_eq!(dex.dht_store().hashed_under(), Some(dex.cycle.p()));
    let (_, m_settled) = dex.dht_lookup(from, 0);
    assert_eq!(
        m_migrating.messages,
        m_settled.messages + dex.dht_store().len() as u64,
        "migration must be charged exactly once, one message per item"
    );

    // No key was lost across the rehash.
    for k in 0..40u64 {
        let (v, _) = dex.dht_lookup(from, k);
        assert_eq!(v, Some(9000 + k), "key {k} lost across switchover");
    }
    invariants::assert_ok(&dex);
}
