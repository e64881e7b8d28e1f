//! Differential tests for the fault-injected execution mode
//! (`dex_core::faulted` over `dex_sim::msim`): a network with a **zero**
//! fault spec installed must be bit-identical to a plain network — same
//! graph arena, same Φ, same DHT contents, same per-step rounds and
//! messages, same walk statistics — because the message-level walk
//! replays exactly the RNG stream and reservoir logic of the centralized
//! `random_walk_search`, and unit-latency scheduling charges exactly one
//! round and one message per hop.
//!
//! Random scripts mix single ops, batches, flood- and type-2-triggering
//! churn, and DHT puts/gets; everything must match the oracle
//! bit-for-bit.

use dex_core::{invariants, DexConfig, DexNetwork, FaultSpec};
use dex_graph::ids::NodeId;
use dex_sim::rng::splitmix64;
use dex_sim::StepMetrics;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Step {
    SingleInsert,
    SingleDelete,
    /// Batch insert of `k` fresh nodes.
    Inserts(u8),
    /// Batch delete of `k` distinct victims.
    Deletes(u8),
    /// DHT put of a scripted key/value.
    DhtPut,
    /// DHT lookup of a scripted (possibly absent) key.
    DhtGet,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..6, 1u8..20).prop_map(|(kind, k)| match kind {
        0 => Step::SingleInsert,
        1 => Step::SingleDelete,
        2 => Step::Inserts(k.max(8)),
        3 => Step::Deletes(k),
        4 => Step::DhtPut,
        _ => Step::DhtGet,
    })
}

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

    fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn joins(&mut self, k: u8) -> Vec<(NodeId, NodeId)> {
        let mut joins: Vec<(NodeId, NodeId)> = Vec::with_capacity(k as usize);
        for _ in 0..k {
            let attach = loop {
                let v = self.pick_live();
                if joins.iter().filter(|&&(_, a)| a == v).count() < 8 {
                    break v;
                }
            };
            joins.push((self.fresh(), attach));
        }
        joins
    }

    fn victims(&mut self, k: u8) -> Option<Vec<NodeId>> {
        let k = k as usize;
        if self.live.len() < 2 * k + 48 {
            return None;
        }
        let mut victims: Vec<NodeId> = Vec::with_capacity(k);
        while victims.len() < k {
            let v = self.pick_live();
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        self.live.retain(|u| !victims.contains(u));
        Some(victims)
    }
}

fn assert_metrics_match(a: &StepMetrics, b: &StepMetrics) {
    assert_eq!(a.kind, b.kind);
    assert_eq!(a.recovery, b.recovery, "recovery kind diverged");
    assert_eq!(a.rounds, b.rounds, "charged rounds diverged");
    assert_eq!(a.messages, b.messages, "charged messages diverged");
    assert_eq!(
        a.topology_changes, b.topology_changes,
        "topology changes diverged"
    );
    assert_eq!(a.n_after, b.n_after);
}

/// Deep bit-level comparison (graph arena order, Φ, DHT, walk stats,
/// totals) — the same notion of identity `tests/batch.rs` uses, plus
/// the DHT store.
fn assert_networks_identical(a: &DexNetwork, b: &DexNetwork) {
    assert_eq!(a.n(), b.n());
    assert_eq!(a.cycle.p(), b.cycle.p());
    assert_eq!(a.graph().num_edges(), b.graph().num_edges());
    let nodes_a: Vec<NodeId> = a.graph().nodes().collect();
    let nodes_b: Vec<NodeId> = b.graph().nodes().collect();
    assert_eq!(nodes_a, nodes_b, "slot allocation order diverged");
    for &u in &nodes_a {
        let na: Vec<NodeId> = a.graph().neighbors(u).iter().collect();
        let nb: Vec<NodeId> = b.graph().neighbors(u).iter().collect();
        assert_eq!(na, nb, "adjacency of {u} diverged (order included)");
        assert_eq!(a.sim(u), b.sim(u), "Sim({u}) diverged");
        assert_eq!(a.load(u), b.load(u));
    }
    assert_eq!(a.map.entries_sorted(), b.map.entries_sorted());
    assert_eq!(
        a.dht_store().entries_sorted(),
        b.dht_store().entries_sorted(),
        "DHT contents diverged"
    );
    assert_eq!(a.walk_stats.attempts, b.walk_stats.attempts);
    assert_eq!(a.walk_stats.hits, b.walk_stats.hits);
    assert_eq!(a.walk_stats.misses, b.walk_stats.misses);
    assert_eq!(a.walk_stats.type2, b.walk_stats.type2);
    let ta = a.net.totals();
    let tb = b.net.totals();
    assert_eq!(ta.rounds, tb.rounds, "total rounds diverged");
    assert_eq!(ta.messages, tb.messages, "total messages diverged");
    assert_eq!(ta.topology_changes, tb.topology_changes);
    assert_eq!(ta.type2_steps, tb.type2_steps);
}

/// Drive the same script through a zero-fault message-level subject and
/// the centralized oracle. Returns the subject so callers can assert on
/// what the script actually exercised (misses, type-2 steps, …).
fn run_script(n0: u64, seed: u64, steps: &[Step]) -> DexNetwork {
    let cfg = DexConfig::new(splitmix64(seed ^ 0xfa17)).simplified();
    let mut subject = DexNetwork::bootstrap(cfg, n0);
    let mut oracle = DexNetwork::bootstrap(cfg, n0);
    subject.set_faults(Some(FaultSpec::zero()));
    let mut script = Script::new(&subject, seed ^ 0x51ff);
    for (i, &step) in steps.iter().enumerate() {
        let pair = match step {
            Step::SingleInsert => {
                let attach = script.pick_live();
                let u = script.fresh();
                let ms = subject.insert(u, attach);
                let mo = oracle.insert(u, attach);
                script.live.push(u);
                Some((ms, mo))
            }
            Step::SingleDelete => {
                if script.live.len() < 64 {
                    None
                } else {
                    let idx = (script.rnd() % script.live.len() as u64) as usize;
                    let victim = script.live.swap_remove(idx);
                    Some((subject.delete(victim), oracle.delete(victim)))
                }
            }
            Step::Inserts(k) => {
                let joins = script.joins(k);
                let ms = subject.insert_batch(&joins);
                let mo = oracle.insert_batch(&joins);
                script.live.extend(joins.iter().map(|&(u, _)| u));
                Some((ms, mo))
            }
            Step::Deletes(k) => script
                .victims(k)
                .map(|v| (subject.delete_batch(&v), oracle.delete_batch(&v))),
            Step::DhtPut => {
                let from = script.pick_live();
                let key = script.rnd() % 512;
                let val = script.rnd();
                Some((
                    subject.dht_insert(from, key, val),
                    oracle.dht_insert(from, key, val),
                ))
            }
            Step::DhtGet => {
                let from = script.pick_live();
                let key = script.rnd() % 512;
                let (vs, ms) = subject.dht_lookup(from, key);
                let (vo, mo) = oracle.dht_lookup(from, key);
                assert_eq!(vs, vo, "lookup value diverged");
                Some((ms, mo))
            }
        };
        if let Some((ms, mo)) = pair {
            assert_metrics_match(&ms, &mo);
        }
        if i % 4 == 3 {
            assert_networks_identical(&subject, &oracle);
        }
    }
    assert_networks_identical(&subject, &oracle);
    // The zero spec must never have engaged any fault machinery.
    let fs = subject.fault_stats();
    assert_eq!(fs.sent, fs.delivered, "zero faults lost a message");
    assert_eq!(fs.timeouts, 0);
    assert_eq!(fs.reinitiations, 0);
    assert_eq!(fs.heal_fallbacks, 0);
    assert_eq!(fs.dht_abandoned, 0);
    assert_eq!(fs.flood_retries, 0, "zero faults re-flooded");
    assert_eq!(fs.floods_partial, 0, "zero faults degraded a flood");
    assert_eq!(fs.type2_rollbacks, 0, "zero faults rolled back a type-2");
    assert_eq!(fs.type2_reinitiations, 0);
    assert!(fs.sent > 0, "script never exercised the simulator");
    invariants::assert_ok(&subject);
    subject
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn zero_fault_simulator_matches_centralized(
        seed in any::<u64>(),
        steps in proptest::collection::vec(arb_step(), 6..20),
    ) {
        run_script(160, seed, &steps);
    }
}

/// A fixed deterministic spot check that stays cheap enough for `--smoke`
/// environments and pins one concrete script forever.
#[test]
fn zero_fault_fixed_script_matches() {
    let steps = [
        Step::Inserts(10),
        Step::DhtPut,
        Step::SingleInsert,
        Step::Deletes(6),
        Step::DhtGet,
        Step::SingleDelete,
        Step::Inserts(8),
        Step::DhtPut,
        Step::DhtGet,
        Step::Deletes(9),
    ];
    run_script(120, 0xbeef, &steps);
}

/// Flood- and type-2-triggering script: a tiny bootstrap (p ∈ (64, 128))
/// flooded with insert-heavy churn runs the spare pool dry, forcing walk
/// misses (→ message-scheduled flood counts) and at least one inflation
/// (→ message-scheduled type-2 coordination). The zero-fault subject
/// must still match the centralized oracle bit-for-bit.
#[test]
fn zero_fault_flood_and_type2_script_matches() {
    let mut steps = Vec::new();
    for _ in 0..7 {
        steps.push(Step::Inserts(19));
    }
    steps.extend([Step::Deletes(10), Step::DhtPut, Step::DhtGet]);
    let subject = run_script(16, 0xf100d, &steps);
    assert!(subject.walk_stats.type2 >= 1, "script never ran a type-2");
    assert!(
        subject.walk_stats.misses >= 1,
        "script never missed → never flooded"
    );
}

/// Under real faults there is no centralized oracle to compare against —
/// instead: structural invariants must hold after every healing step,
/// the fault machinery must actually engage, and the whole run must be
/// deterministic.
#[test]
fn faulted_run_is_deterministic_and_invariant_preserving() {
    let spec = FaultSpec::zero()
        .with_loss(400)
        .with_latency(1, 3)
        .with_burst(16, 200)
        .with_retries(4, 4)
        .with_fallback(1)
        .with_seed(0xfa57);
    let steps = [
        Step::Inserts(9),
        Step::DhtPut,
        Step::SingleInsert,
        Step::Deletes(5),
        Step::DhtGet,
        Step::DhtPut,
        Step::SingleDelete,
        Step::Inserts(8),
        Step::DhtGet,
        Step::Deletes(7),
    ];
    let run = || {
        let cfg = DexConfig::new(0x600d_5eed).simplified();
        let mut dex = DexNetwork::bootstrap(cfg, 120);
        dex.set_faults(Some(spec));
        let mut script = Script::new(&dex, 0x7357);
        for &step in &steps {
            match step {
                Step::SingleInsert => {
                    let attach = script.pick_live();
                    let u = script.fresh();
                    dex.insert(u, attach);
                    script.live.push(u);
                }
                Step::SingleDelete => {
                    if script.live.len() >= 64 {
                        let idx = (script.rnd() % script.live.len() as u64) as usize;
                        let victim = script.live.swap_remove(idx);
                        dex.delete(victim);
                    }
                }
                Step::Inserts(k) => {
                    let joins = script.joins(k);
                    dex.insert_batch(&joins);
                    script.live.extend(joins.iter().map(|&(u, _)| u));
                }
                Step::Deletes(k) => {
                    if let Some(v) = script.victims(k) {
                        dex.delete_batch(&v);
                    }
                }
                Step::DhtPut => {
                    let from = script.pick_live();
                    let (key, val) = (script.rnd() % 64, script.rnd());
                    dex.dht_insert(from, key, val);
                }
                Step::DhtGet => {
                    let from = script.pick_live();
                    let key = script.rnd() % 64;
                    dex.dht_lookup(from, key);
                }
            }
            invariants::assert_ok(&dex);
        }
        let fs = dex.fault_stats();
        assert!(fs.sent > fs.delivered, "loss never fired");
        assert!(fs.timeouts > 0, "no stall was ever detected");
        (
            dex.map.entries_sorted(),
            dex.dht_store().entries_sorted(),
            dex.net.totals(),
            fs,
        )
    };
    assert_eq!(run(), run(), "faulted run diverged on replay");
}
