//! Golden digests for the paths `tests/batch.rs`'s golden does not reach:
//! single-op steps in simplified and in staggered mode, and a mixed
//! script under a lossy fault spec. Recorded on cf379e9, the last commit
//! where each of the insert and delete heal loops existed four times
//! (single/batch × centralized/faulted); the merged `heal_insert` /
//! `heal_delete` must reproduce every value. The simplified and lossy
//! scripts execute a type-2 permutation routing, so their `rounds` and
//! `messages` were re-recorded once since (PR 17, CHANGES.md), when that
//! routing moved from whole-BFS-tree paths to
//! `PCycle::shortest_path_with`: equally short paths, a different
//! tie-break among them; Φ, topology changes and every counter kept.
//! All three were re-recorded once more when a single-op deletion stopped
//! re-flooding after every missed walk (it carries its first complete Low
//! count forward by its own moves) and stopped charging neighbor load
//! updates, which a batch deletion never charged: fewer rounds and
//! messages, with Φ, topology changes, the walk counters and every fault
//! counter unchanged.
//! The simplified and lossy digests were re-recorded once more when the
//! route search became multi-source and frontier-balanced: a DHT route
//! starts from the nearest of the initiator's vertices (lossy: fewer
//! rounds, messages and sends, one abandoned route fewer), and the side
//! with the smaller frontier expands next, a different tie-break among
//! equally short permutation-routing paths (simplified: 57,612 → 57,610
//! messages). Φ, topology changes and the walk counters kept.
//!
//! The staggered resize script (two inflations, then two deflations with
//! deletions landing mid-deflation, `invariants::check` after every step)
//! was recorded once, when staged rebalancing and a deletion's
//! redistribution stopped moving reserves; the code before that change
//! gives the same digest, so the script reaches neither guarded path.

use dex_core::{invariants, DexConfig, DexNetwork, FaultSpec, FaultStats};
use dex_graph::ids::NodeId;
use dex_sim::rng::splitmix64;

/// What a golden pins: Φ, the metered totals, the walk counters and the
/// fault-layer counters (all zero when no spec is installed).
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    /// Hash of `map.entries_sorted()`.
    phi: u64,
    rounds: u64,
    messages: u64,
    topology_changes: u64,
    /// `walk_stats` as `[attempts, hits, misses, type2]`.
    walks: [u64; 4],
    faults: FaultStats,
}

fn digest(dex: &DexNetwork) -> Digest {
    let phi = dex
        .map
        .entries_sorted()
        .iter()
        .fold(0, |h, &(z, u)| splitmix64(splitmix64(h ^ z.0) ^ u.0));
    let t = dex.net.totals();
    let w = dex.walk_stats;
    Digest {
        phi,
        rounds: t.rounds,
        messages: t.messages,
        topology_changes: t.topology_changes,
        walks: [w.attempts, w.hits, w.misses, w.type2],
        faults: dex.fault_stats(),
    }
}

/// Deterministic request source over the live-node list (the same
/// bookkeeping as `tests/batch.rs`'s driver).
struct Script {
    live: Vec<NodeId>,
    next_id: u64,
    state: u64,
}

impl Script {
    fn new(dex: &DexNetwork, seed: u64) -> Self {
        let live = dex.node_ids();
        let next_id = live.iter().map(|u| u.0).max().unwrap_or(0) + 1;
        Script {
            live,
            next_id,
            state: splitmix64(seed),
        }
    }

    fn rnd(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    fn pick_live(&mut self) -> NodeId {
        let i = (self.rnd() % self.live.len() as u64) as usize;
        self.live[i]
    }

    fn insert(&mut self, dex: &mut DexNetwork) {
        let attach = self.pick_live();
        let u = NodeId(self.next_id);
        self.next_id += 1;
        dex.insert(u, attach);
        self.live.push(u);
    }

    fn delete(&mut self, dex: &mut DexNetwork) {
        let idx = (self.rnd() % self.live.len() as u64) as usize;
        let victim = self.live.swap_remove(idx);
        dex.delete(victim);
    }

    fn insert_batch(&mut self, dex: &mut DexNetwork, k: usize) {
        let mut joins: Vec<(NodeId, NodeId)> = Vec::with_capacity(k);
        for _ in 0..k {
            let attach = loop {
                let v = self.pick_live();
                if joins.iter().filter(|&&(_, a)| a == v).count() < 8 {
                    break v;
                }
            };
            joins.push((NodeId(self.next_id), attach));
            self.next_id += 1;
        }
        dex.insert_batch(&joins);
        self.live.extend(joins.iter().map(|&(u, _)| u));
    }

    fn delete_batch(&mut self, dex: &mut DexNetwork, k: usize) {
        let mut victims: Vec<NodeId> = Vec::with_capacity(k);
        while victims.len() < k {
            let v = self.pick_live();
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        self.live.retain(|u| !victims.contains(u));
        dex.delete_batch(&victims);
    }
}

/// Single-op script: 200 steps of mixed churn, inserts until the cycle
/// has grown (an inflation ran to completion), then deletes until it has
/// shrunk again (a deflation ran to completion).
fn run_single_op_script(cfg: DexConfig) -> DexNetwork {
    let mut dex = DexNetwork::bootstrap(cfg, 64);
    let mut script = Script::new(&dex, 0x5106);
    for _ in 0..200 {
        if script.rnd().is_multiple_of(2) {
            script.insert(&mut dex);
        } else {
            script.delete(&mut dex);
        }
    }
    let p0 = dex.cycle.p();
    let mut steps = 0;
    while dex.cycle.p() <= p0 || dex.type2_in_progress() {
        script.insert(&mut dex);
        steps += 1;
        assert!(steps < 4_000, "growth phase must complete an inflation");
    }
    let p1 = dex.cycle.p();
    while dex.cycle.p() >= p1 || dex.type2_in_progress() {
        assert!(dex.n() > 8, "ran out of nodes before a deflation completed");
        script.delete(&mut dex);
        steps += 1;
        assert!(steps < 8_000, "shrink phase must complete a deflation");
    }
    invariants::assert_ok(&dex);
    dex
}

const GOLDEN_SIMPLIFIED: Digest = Digest {
    phi: 4951634934777399712,
    rounds: 10_540,
    messages: 57_610,
    topology_changes: 20_702,
    walks: [2_281, 2_252, 29, 2],
    faults: NO_FAULTS,
};

const GOLDEN_STAGGERED: Digest = Digest {
    phi: 6947582991771896879,
    rounds: 24_086,
    messages: 57_085,
    topology_changes: 23_109,
    walks: [2_151, 2_155, 3, 0],
    faults: NO_FAULTS,
};

const NO_FAULTS: FaultStats = FaultStats {
    sent: 0,
    delivered: 0,
    lost_random: 0,
    lost_burst: 0,
    lost_partition: 0,
    retransmits: 0,
    timeouts: 0,
    reinitiations: 0,
    walks_lost: 0,
    routes_lost: 0,
    heal_fallbacks: 0,
    dht_abandoned: 0,
    flood_retries: 0,
    floods_partial: 0,
    type2_rollbacks: 0,
    type2_reinitiations: 0,
};

#[test]
fn single_op_simplified_digest_is_unchanged_at_every_thread_count() {
    let dex = run_single_op_script(DexConfig::new(0x601d_0001).simplified());
    assert!(dex.walk_stats.type2 >= 2, "script never ran both type-2s");
    assert!(dex.walk_stats.misses >= 1, "script never flooded");
    assert_eq!(digest(&dex), GOLDEN_SIMPLIFIED);
}

#[test]
fn single_op_staggered_digest_is_unchanged_at_every_thread_count() {
    let dex = run_single_op_script(DexConfig::new(0x601d_0001).staggered());
    assert_eq!(digest(&dex), GOLDEN_STAGGERED);
}

/// Staggered grow-then-shrink script: from 64 nodes, inserts until two
/// inflations have switched over, then deletes until two deflations have
/// — so every deletion of the shrink phase lands while a deflation stages
/// or between two, reserves and credit donations in play.
/// `invariants::check` runs after every step.
fn run_staggered_resize_script() -> DexNetwork {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(0x601d_0004).staggered(), 64);
    let mut script = Script::new(&dex, 0x5a66);
    let mut steps = 0;
    let mut checked_step = |dex: &DexNetwork| {
        steps += 1;
        assert!(
            steps < 20_000,
            "script must cross two inflations and two deflations"
        );
        if let Err(e) = invariants::check(dex) {
            panic!("step {steps} (n = {}): {e}", dex.n());
        }
    };
    for _ in 0..2 {
        let p = dex.cycle.p();
        while dex.cycle.p() <= p {
            script.insert(&mut dex);
            checked_step(&dex);
        }
    }
    let mut staged_deletions = 0;
    for _ in 0..2 {
        let p = dex.cycle.p();
        while dex.cycle.p() >= p {
            staged_deletions += u64::from(dex.type2_in_progress());
            script.delete(&mut dex);
            checked_step(&dex);
        }
    }
    assert!(staged_deletions > 0, "no deletion landed mid-deflation");
    dex
}

const GOLDEN_STAGGERED_RESIZE: Digest = Digest {
    phi: 2050997079920403584,
    rounds: 95_861,
    messages: 256_956,
    topology_changes: 88_862,
    walks: [7_721, 7_731, 26, 0],
    faults: NO_FAULTS,
};

#[test]
fn staggered_resize_digest_is_unchanged_at_every_thread_count() {
    let dex = run_staggered_resize_script();
    assert!(!dex.type2_in_progress());
    assert_eq!(digest(&dex), GOLDEN_STAGGERED_RESIZE);
}

/// Mixed script under Bernoulli loss and rare per-link burst windows,
/// with the spec's budgets small enough that lost walks reach the heal
/// fallbacks, floods close partial and routes are abandoned. Hop-level
/// ARQ rides out independent loss, so a walk or route token is lost
/// mostly to a bad window that outlasts its hop's budget (32 rounds
/// against one retransmission after τ = 5). Batches of 64 with single
/// ops and DHT puts/gets between them, growing until an inflation has
/// run and then shrinking until a deflation has run (walks are long, and
/// so get lost, only near those two boundaries).
fn run_lossy_script() -> DexNetwork {
    let spec = FaultSpec::zero()
        .with_loss(30)
        .with_latency(1, 2)
        .with_burst(32, 10)
        .with_retries(1, 1)
        .with_fallback(1)
        .with_flood_retries(1)
        .with_seed(0x1055);
    let mut dex = DexNetwork::bootstrap(DexConfig::new(0x601d_0003).simplified(), 128);
    dex.set_faults(Some(spec));
    let mut script = Script::new(&dex, 0x1055);
    let mut batches = 0;
    while dex.walk_stats.type2 < 2 {
        let growing = dex.walk_stats.type2 == 0;
        if growing {
            script.insert_batch(&mut dex, 64);
        } else {
            assert!(dex.n() > 96, "ran out of nodes before a deflation ran");
            script.delete_batch(&mut dex, 64);
        }
        for _ in 0..16 {
            // Singles lean the way the batches go, so they meet the same
            // scarce target set.
            if script.rnd().is_multiple_of(4) {
                script.insert(&mut dex);
                script.delete(&mut dex);
            } else if growing {
                script.insert(&mut dex);
            } else {
                script.delete(&mut dex);
            }
            let from = script.pick_live();
            let (key, value) = (script.rnd() % 256, script.rnd());
            dex.dht_insert(from, key, value);
            let from = script.pick_live();
            let key = script.rnd() % 256;
            dex.dht_lookup(from, key);
        }
        batches += 1;
        assert!(
            batches < 64,
            "script must cross an inflation and a deflation"
        );
    }
    invariants::assert_ok(&dex);
    dex
}

const GOLDEN_LOSSY: Digest = Digest {
    phi: 11255324475236437600,
    rounds: 151_665,
    messages: 445_603,
    topology_changes: 39_501,
    walks: [4_271, 4_220, 40, 2],
    faults: FaultStats {
        sent: 391_610,
        delivered: 376_148,
        lost_random: 11_741,
        lost_burst: 3_721,
        lost_partition: 0,
        retransmits: 871,
        timeouts: 316,
        reinitiations: 194,
        walks_lost: 28,
        routes_lost: 3,
        heal_fallbacks: 17,
        dht_abandoned: 3,
        flood_retries: 43,
        floods_partial: 48,
        type2_rollbacks: 5,
        type2_reinitiations: 4,
    },
};

#[test]
fn lossy_mixed_digest_is_unchanged_at_every_thread_count() {
    let dex = run_lossy_script();
    let fs = dex.fault_stats();
    assert!(fs.heal_fallbacks > 0, "no heal ever fell back");
    assert!(fs.floods_partial > 0, "no flood ever closed partial");
    assert!(fs.dht_abandoned > 0, "no DHT op was ever abandoned");
    assert_eq!(digest(&dex), GOLDEN_LOSSY);
}
