//! Batch-step tests (`DexNetwork::insert_batch` / `delete_batch`).
//!
//! A batch step heals its ops one at a time in canonical (batch) order
//! inside one step scope. These tests pin what that must keep true:
//!
//! * a **golden digest** of one fixed script, recorded on the commit that
//!   still had the speculative wave engine — the surviving path must
//!   produce exactly the state and metered costs the engine produced;
//! * the structural invariants after **every** step of random batch
//!   scripts (mixed batch inserts/deletes, chained and clique attaches,
//!   neighborhood deletes, interleaved single ops);
//! * replaying a script reproduces the network bit for bit.

use dex_core::{invariants, DexConfig, DexNetwork};
use dex_graph::ids::NodeId;
use dex_sim::rng::splitmix64;
use dex_sim::StepMetrics;
use proptest::prelude::*;

/// One scripted adversarial step over the live-node universe.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Insert a batch of `k` fresh nodes on random live attach points.
    Inserts(u8),
    /// Insert a batch where later newcomers attach to *earlier newcomers
    /// of the same batch* (chained joins).
    ChainedInserts(u8),
    /// Insert a batch where every newcomer shares one attach point (up to
    /// the fan-in bound).
    CliqueInserts(u8),
    /// Delete a batch of `k` distinct random victims.
    Deletes(u8),
    /// Delete a batch of `k` distinct victims drawn from one node's
    /// neighborhood (victims that are each other's rescuers).
    NeighborhoodDeletes(u8),
    /// One single insert (perturbs state between batches).
    SingleInsert,
    /// One single delete.
    SingleDelete,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..7, 1u8..25).prop_map(|(kind, k)| match kind {
        0 => Step::Inserts(k),
        1 => Step::ChainedInserts(k.max(8)),
        2 => Step::CliqueInserts(k.max(8)),
        3 => Step::Deletes(k),
        4 => Step::NeighborhoodDeletes(k.max(8)),
        5 => Step::SingleInsert,
        _ => Step::SingleDelete,
    })
}

/// Deterministic script driver: mirrors the bench churn driver's
/// bookkeeping (live list, fresh ids) so every run of a script issues the
/// exact same adversarial requests.
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

    /// Pick a live attach point that still has spare fan-in budget in the
    /// batch under construction (validation caps fan-in at 8).
    fn pick_attach(&mut self, joins: &[(NodeId, NodeId)]) -> NodeId {
        loop {
            let v = self.pick_live();
            if joins.iter().filter(|&&(_, a)| a == v).count() < 8 {
                return v;
            }
        }
    }

    /// `k` distinct random live victims, removed from the live list.
    fn pick_victims(&mut self, k: usize) -> Vec<NodeId> {
        let mut victims: Vec<NodeId> = Vec::with_capacity(k);
        while victims.len() < k {
            let v = self.pick_live();
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        self.live.retain(|u| !victims.contains(u));
        victims
    }

    /// Materialize `step` into concrete joins against the current live
    /// set. Returns `None` for non-insert steps.
    fn joins_for(&mut self, step: Step) -> Option<Vec<(NodeId, NodeId)>> {
        match step {
            Step::Inserts(k) => {
                let mut joins: Vec<(NodeId, NodeId)> = Vec::with_capacity(k as usize);
                for _ in 0..k {
                    let attach = self.pick_attach(&joins);
                    let u = self.fresh();
                    joins.push((u, attach));
                }
                Some(joins)
            }
            Step::ChainedInserts(k) => {
                // First newcomer attaches to a live node, each subsequent
                // one to the previous newcomer.
                let mut joins = Vec::with_capacity(k as usize);
                let mut attach = self.pick_live();
                for _ in 0..k {
                    let u = self.fresh();
                    joins.push((u, attach));
                    attach = u;
                }
                Some(joins)
            }
            Step::CliqueInserts(k) => {
                // Fan-in is capped at 8 by validation; chunk the clique
                // into groups of 8 sharing one attach point each, with all
                // groups inside one batch.
                let mut joins: Vec<(NodeId, NodeId)> = Vec::with_capacity(k as usize);
                let mut attach = self.pick_attach(&joins);
                for i in 0..k {
                    if i % 8 == 0 && i > 0 {
                        attach = self.pick_attach(&joins);
                    }
                    joins.push((self.fresh(), attach));
                }
                Some(joins)
            }
            _ => None,
        }
    }

    /// Materialize a delete step into concrete victims. Returns `None`
    /// when the step is not applicable (network too small to delete from
    /// safely).
    fn victims_for(&mut self, step: Step, dex: &DexNetwork) -> Option<Vec<NodeId>> {
        let k = match step {
            Step::Deletes(k) => k as usize,
            Step::NeighborhoodDeletes(k) => k as usize,
            _ => return None,
        };
        // Keep a healthy floor so victims always retain a live neighbor
        // and the graph stays well above the "would empty the network"
        // panic.
        if self.live.len() < 2 * k + 48 {
            return None;
        }
        if !matches!(step, Step::NeighborhoodDeletes(_)) {
            return Some(self.pick_victims(k));
        }
        // Victims clustered around one center: its neighbors, their
        // neighbors, ... (deduped, center excluded so the batch never
        // orphans a newcomer mid-script).
        let mut victims: Vec<NodeId> = Vec::with_capacity(k);
        let center = self.pick_live();
        let mut frontier = vec![center];
        'fill: while victims.len() < k {
            let Some(c) = frontier.pop() else { break };
            for w in dex.graph().neighbors(c) {
                if w != center && !victims.contains(&w) {
                    victims.push(w);
                    frontier.push(w);
                    if victims.len() == k {
                        break 'fill;
                    }
                }
            }
        }
        if victims.is_empty() {
            return None;
        }
        self.live.retain(|u| !victims.contains(u));
        Some(victims)
    }

    /// Apply one scripted step to `dex`; `None` when it was not applicable.
    fn apply(&mut self, dex: &mut DexNetwork, step: Step) -> Option<StepMetrics> {
        match step {
            Step::Inserts(_) | Step::ChainedInserts(_) | Step::CliqueInserts(_) => {
                let joins = self.joins_for(step).unwrap();
                let m = dex.insert_batch(&joins);
                self.live.extend(joins.iter().map(|&(u, _)| u));
                Some(m)
            }
            Step::Deletes(_) | Step::NeighborhoodDeletes(_) => {
                let victims = self.victims_for(step, dex)?;
                Some(dex.delete_batch(&victims))
            }
            Step::SingleInsert => {
                let attach = self.pick_live();
                let u = self.fresh();
                let m = dex.insert(u, attach);
                self.live.push(u);
                Some(m)
            }
            Step::SingleDelete => {
                if self.live.len() < 64 {
                    return None;
                }
                let idx = (self.rnd() % self.live.len() as u64) as usize;
                let victim = self.live.swap_remove(idx);
                Some(dex.delete(victim))
            }
        }
    }

    /// Batch inserts of `k` until an inflation has fired (hard cap so a
    /// regression cannot loop forever).
    fn grow_through_inflation(&mut self, dex: &mut DexNetwork, k: u8) {
        let before = dex.walk_stats.type2;
        for _ in 0..400 {
            if dex.walk_stats.type2 > before {
                return;
            }
            self.apply(dex, Step::Inserts(k));
        }
        panic!("growth phase must trigger an inflation");
    }

    /// Batch deletes of up to `k` until a deflation has fired. Victims are
    /// drawn directly (no safety floor — healing restores the fabric
    /// victim-by-victim, so the network stays connected all the way down
    /// to the deflation regime where nearly every node is overloaded).
    fn shrink_through_deflation(&mut self, dex: &mut DexNetwork, k: usize) {
        let before = dex.walk_stats.type2;
        for _ in 0..400 {
            if dex.walk_stats.type2 > before {
                return;
            }
            let n = self.live.len();
            assert!(n > 14, "ran out of nodes before a deflation fired");
            let victims = self.pick_victims(k.min(n - 14));
            dex.delete_batch(&victims);
        }
        panic!("shrink phase must trigger a deflation");
    }
}

/// Deep bit-level comparison of two networks: graph arena (including
/// adjacency *order* and slot allocation), Φ, cycle state, walk counters
/// and metered totals.
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
        assert_eq!(a.map.sim(u), b.map.sim(u), "Sim({u}) diverged");
        assert_eq!(a.map.load(u), b.map.load(u));
    }
    assert_eq!(a.map.spare_count(), b.map.spare_count());
    assert_eq!(a.map.low_count(), b.map.low_count());
    assert_eq!(a.map.max_load(), b.map.max_load());
    assert_eq!(a.map.entries_sorted(), b.map.entries_sorted());
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

fn bootstrap(n0: u64, seed: u64) -> DexNetwork {
    let cfg = DexConfig::new(splitmix64(seed ^ 0xd5c0)).simplified();
    DexNetwork::bootstrap(cfg, n0)
}

// ----------------------------------------------------------------------
// Golden: the surviving path produces what the wave engine produced
// ----------------------------------------------------------------------

/// What the golden pins: Φ, the metered totals, and the walk counters.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    /// Hash of `map.entries_sorted()`.
    phi: u64,
    rounds: u64,
    messages: u64,
    topology_changes: u64,
    /// `walk_stats` as `[attempts, hits, misses, type2]`.
    walks: [u64; 4],
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
    }
}

/// The fixed script: n0 = 2,000; 200 alternating `insert_batch` /
/// `delete_batch` steps of 64; then batches of 64 growing through an
/// inflation and shrinking through a deflation.
fn run_golden_script() -> DexNetwork {
    let mut dex = bootstrap(2_000, 0x601d);
    let mut script = Script::new(&dex, 0x601d);
    for i in 0..200 {
        let step = if i % 2 == 0 {
            Step::Inserts(64)
        } else {
            Step::Deletes(64)
        };
        script.apply(&mut dex, step).expect("step applies");
    }
    script.grow_through_inflation(&mut dex, 64);
    script.shrink_through_deflation(&mut dex, 64);
    dex
}

/// Recorded at the last commit that had the wave engine (3e77e6d),
/// where `insert_batch`/`delete_batch` ran through the wave engine at
/// 1, 3 and 8 executor threads and all three agreed. The one test that
/// fails if the surviving per-op path ever drifts from what the engine
/// produced.
const GOLDEN: Digest = Digest {
    phi: 2837674740750611915,
    rounds: 361_625,
    messages: 18_282_692,
    topology_changes: 767_524,
    walks: [83_381, 83_100, 281, 2],
};

#[test]
fn golden_script_digest_is_unchanged_at_every_thread_count() {
    let dex = run_golden_script();
    assert_eq!(digest(&dex), GOLDEN);
    invariants::assert_ok(&dex);
}

// ----------------------------------------------------------------------
// Random scripts
// ----------------------------------------------------------------------

/// Drive `steps` through one network; with `check_every_step` the full
/// invariant check runs after every applied step.
fn run_script(n0: u64, seed: u64, steps: &[Step], check_every_step: bool) -> DexNetwork {
    let mut dex = bootstrap(n0, seed);
    let mut script = Script::new(&dex, seed ^ 0x5c71);
    for &step in steps {
        if script.apply(&mut dex, step).is_some() && check_every_step {
            invariants::assert_ok(&dex);
        }
    }
    dex
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_batch_scripts_preserve_invariants(
        seed in any::<u64>(),
        steps in proptest::collection::vec(arb_step(), 4..24),
    ) {
        run_script(160, seed, &steps, true);
    }

    #[test]
    fn random_batch_scripts_replay_bit_identically(
        seed in any::<u64>(),
        steps in proptest::collection::vec(arb_step(), 4..12),
    ) {
        // A network is sequential, so this is the replay contract: the
        // same script twice gives the same bits.
        let base = run_script(160, seed, &steps, false);
        assert_networks_identical(&run_script(160, seed, &steps, false), &base);
    }
}

/// Deleting a whole neighborhood makes victims each other's neighbors;
/// every victim must still find a surviving rescuer at its turn and the
/// fabric must come back intact.
#[test]
fn neighborhood_deletes_heal_and_preserve_invariants() {
    let mut dex = bootstrap(400, 0xfeed);
    let mut script = Script::new(&dex, 0xfeed);
    for _ in 0..6 {
        if let Some(m) = script.apply(&mut dex, Step::NeighborhoodDeletes(12)) {
            assert_eq!(m.n_after, dex.n());
            invariants::assert_ok(&dex);
        }
        // Refill so the floor check keeps passing.
        script.apply(&mut dex, Step::Inserts(12));
        invariants::assert_ok(&dex);
    }
}
