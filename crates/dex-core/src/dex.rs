//! The top-level DEX network: adversarial steps and type-1 recovery
//! (Algorithms 4.2 and 4.3), dispatching to type-2 recovery when spare
//! capacity runs out.

use crate::config::{DexConfig, RecoveryMode};
use crate::fabric;
use crate::mapping::VirtualMapping;
use crate::scratch::HealScratch;
use crate::staggered::StaggeredOp;
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::resize::Plan;
use dex_graph::pcycle::PCycle;
use dex_graph::primes;
use dex_sim::flood::{flood_count_slots, FloodScratch, FloodWork};
use dex_sim::msim::{FloodOutcome, FloodRunScratch};
use dex_sim::rng::{Purpose, SeedSpace};
use dex_sim::tokens::random_walk_search_slots;
use dex_sim::{Network, RecoveryKind, StepKind, StepMetrics};
use std::ops::Range;

/// Counters for walk behaviour (experiment E7).
#[derive(Debug, Default, Clone, Copy)]
pub struct WalkStats {
    /// Individual walk attempts, type-1 and type-2 alike.
    pub attempts: u64,
    /// Walks that found an accepting node (and type-1 steps healed to a
    /// flood's witness after their walks were lost).
    pub hits: u64,
    /// Type-1 walks that missed and forced a flood count.
    pub misses: u64,
    /// Type-2 recoveries triggered.
    pub type2: u64,
}

/// What a type-1 walk or count is looking for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalkGoal {
    /// A node in Spare (insertion healing).
    Spare,
    /// A node in Low (deletion healing).
    Low,
}

impl WalkGoal {
    /// Is the node in `slot` in this goal's set? One load read, no id.
    #[inline]
    pub(crate) fn accepts_at(self, map: &VirtualMapping, slot: u32) -> bool {
        match self {
            WalkGoal::Spare => map.is_spare_at(slot),
            WalkGoal::Low => map.is_low_at(slot),
        }
    }
}

/// Whether a heal is its step's only op or one op of a batch. The
/// algorithm is the same (Sect. 5 / Corollary 2 run the single-op recovery
/// op by op); two pieces of data differ: a batch op's RNG stream keys
/// carry its node id, and a batch op recounts Spare / Low on every miss
/// where a single op counts once per step (a single delete carries its
/// count forward by its own moves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HealScope {
    SingleOp,
    BatchOp,
}

/// Outcome of one healing walk attempt.
pub(crate) struct HealWalk {
    /// Slot of the accepting node, if the walk hit.
    pub(crate) hit: Option<u32>,
    /// The walk was abandoned: every transport retry lost its token.
    /// (`false` + `hit: None` is a genuine protocol miss.)
    pub(crate) lost: bool,
}

/// A DEX-maintained self-healing expander network.
///
/// Drive it with [`DexNetwork::insert`] / [`DexNetwork::delete`] (one
/// adversarial event per step, exactly the paper's model); each call runs
/// the full distributed recovery and returns the step's metered cost.
pub struct DexNetwork {
    /// Algorithm parameters.
    pub cfg: DexConfig,
    /// The metered physical network.
    pub net: Network,
    /// Current virtual graph `Z(p)` — global knowledge (every node knows p).
    pub cycle: PCycle,
    /// The virtual mapping Φ.
    pub map: VirtualMapping,
    /// In-progress staggered type-2 operation (worst-case mode only).
    pub(crate) stag: Option<StaggeredOp>,
    /// RNG stream derivation.
    pub(crate) seeds: SeedSpace,
    /// Walk success statistics.
    pub walk_stats: WalkStats,
    /// DHT storage (keys live with the vertex they hash to).
    pub(crate) dht: crate::dht::DhtStore,
    pub(crate) step_no: u64,
    /// Reusable buffers for the walk-miss floods (reusing them keeps the
    /// hot path allocation-free).
    pub(crate) flood_scratch: FloodScratch,
    /// Reusable buffers for the message-scheduled floods and type-2
    /// announcements under a fault spec ([`dex_sim::msim::run_flood`]).
    pub(crate) flood_run: FloodRunScratch,
    /// Pooled healing buffers (vertex sets, fabric instances, routing
    /// paths) — with these, steady-state type-1 recovery allocates
    /// nothing per operation.
    pub(crate) heal: HealScratch,
    /// Always zero; see [`crate::batch::BatchHealStats`].
    pub batch_stats: crate::batch::BatchHealStats,
    /// When set, walks, floods, type-2 coordination and DHT routes run on
    /// the message-level simulator ([`dex_sim::msim`]) under this fault
    /// model (see [`crate::faulted`]). `None` (the default) keeps the
    /// centralized transports.
    pub(crate) faults: Option<dex_sim::msim::FaultSpec>,
    /// Fault-layer counters accumulated while `faults` is set.
    pub(crate) fault_stats: dex_sim::msim::FaultStats,
    /// Test twin: when `Some`, a deletion step that holds a carried Low
    /// count floods anyway at every miss, asserts the two counts agree,
    /// and counts the check here.
    #[cfg(test)]
    pub(crate) twin_checks: Option<u64>,
}

impl DexNetwork {
    /// Bootstrap an initial network of `n0` nodes with ids `0..n0`.
    ///
    /// The paper starts from a constant-size `G₀` whose nodes compute
    /// `Z₀(p₀)`, `p₀` the smallest prime in `(4n₀, 8n₀)`, by local
    /// broadcast. We allow any `n0` and construct the same object directly
    /// (centralized bootstrap is explicitly permitted, Sect. 4).
    pub fn bootstrap(cfg: DexConfig, n0: u64) -> Self {
        assert!(n0 >= 2, "need at least 2 initial nodes");
        let p0 = primes::initial_prime(n0);
        let cycle = PCycle::new(p0);
        // Deal vertices round-robin: every load is ⌈p₀/n₀⌉ or ⌊p₀/n₀⌋,
        // i.e. within [4, 8] — comfortably 4ζ-balanced and all in Spare/Low.
        let (net, map) = fabric::deal_round_robin(cfg.zeta, &cycle, n0);
        DexNetwork {
            cfg,
            net,
            cycle,
            map,
            stag: None,
            seeds: SeedSpace::new(cfg.seed),
            walk_stats: WalkStats::default(),
            dht: crate::dht::DhtStore::default(),
            step_no: 0,
            flood_scratch: FloodScratch::new(),
            flood_run: FloodRunScratch::new(),
            heal: HealScratch::new(cfg.max_load_staggered()),
            batch_stats: crate::batch::BatchHealStats::default(),
            faults: None,
            fault_stats: dex_sim::msim::FaultStats::default(),
            #[cfg(test)]
            twin_checks: None,
        }
    }

    /// No-op, kept only because the frozen `benchmark/` crate calls it: a
    /// `DexNetwork` is a sequential object and fans nothing out. Goes
    /// with the next `benchmark` PR (ROADMAP).
    pub fn set_heal_threads(&mut self, _threads: usize) {}

    /// Current network size.
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// The physical graph.
    pub fn graph(&self) -> &dex_graph::MultiGraph {
        self.net.graph()
    }

    /// Spectral gap `1 − λ₂` of the current physical network.
    pub fn spectral_gap(&self) -> f64 {
        dex_graph::spectral::spectral_gap(self.net.graph())
    }

    /// Maximum load (vertices simulated) over all nodes, counting staged
    /// vertices of an in-progress type-2 operation.
    pub fn max_total_load(&self) -> u64 {
        let (g, extra) = (self.net.graph(), self.stag.as_ref());
        (0..g.slot_bound() as u32)
            .filter(|&s| g.slot_alive(s))
            .map(|s| self.map.load_at(s) + extra.map_or(0, |op| op.staged_load_at(s)))
            .max()
            .unwrap_or(0)
    }

    /// Load of node `u` in Φ, `|Sim(u)|` (0 for a node not in the
    /// network).
    pub fn load(&self, u: NodeId) -> u64 {
        self.net
            .graph()
            .slot_of(u)
            .map_or(0, |s| self.map.load_at(s))
    }

    /// `Sim(u)`, the vertices node `u` simulates (empty for a node not in
    /// the network).
    pub fn sim(&self, u: NodeId) -> &[VertexId] {
        self.net
            .graph()
            .slot_of(u)
            .map_or(&[], |s| self.map.sim_at(s))
    }

    /// Work done by every centralized flood count so far (a single-op
    /// step floods on its first walk miss, a batch op on every miss), as
    /// deterministic counts ([`FloodScratch::work`]).
    pub fn flood_work(&self) -> FloodWork {
        self.flood_scratch.work()
    }

    /// Maximum physical degree.
    pub fn max_degree(&self) -> usize {
        self.net.graph().max_degree()
    }

    /// Is a staggered type-2 operation in progress?
    pub fn type2_in_progress(&self) -> bool {
        self.stag.is_some()
    }

    /// Staged (next-cycle) load of `u` during an in-progress staggered
    /// operation; 0 otherwise.
    pub fn staged_load(&self, u: NodeId) -> u64 {
        let slot = self.net.graph().slot_of(u);
        self.stag
            .as_ref()
            .zip(slot)
            .map_or(0, |(op, s)| op.staged_load_at(s))
    }

    /// Node ids currently in the network, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.net.graph().nodes_sorted()
    }

    // ------------------------------------------------------------------
    // Insertion (Algorithm 4.2)
    // ------------------------------------------------------------------

    /// Adversary inserts node `u` attached to existing node `v`; the
    /// algorithm heals and the step's cost is returned.
    ///
    /// # Panics
    /// Panics if `u` is present or is the reserved [`NodeId::VACANT`], or
    /// if `v` is missing.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> StepMetrics {
        // The step's only id translations: from here on it runs on slots.
        assert_ne!(u, NodeId::VACANT, "insert: {u} is the reserved id");
        assert!(!self.net.graph().has_node(u), "insert: {u} already present");
        let sv = self
            .net
            .graph()
            .slot_of(v)
            .unwrap_or_else(|| panic!("insert: attach point {v} missing"));
        self.step_no += 1;
        self.net.begin_step();
        let su = self.net.adversary_add_node(u);
        self.net.adversary_add_edge_slots(su, sv);

        let recovery = if self.stag.is_some() {
            crate::staggered::insert_during_staggered(self, su, sv);
            RecoveryKind::Type1Staggered
        } else {
            self.heal_insert(su, sv, HealScope::SingleOp)
        };
        // Worst-case mode: coordinator bookkeeping + window advance.
        if self.cfg.mode == RecoveryMode::Staggered {
            crate::staggered::after_step(self);
        }
        let recovery = self.final_recovery_kind(recovery);
        self.net.end_step(StepKind::Insert, recovery)
    }

    /// Insertion recovery (Algorithm 4.2) for the newcomer in slot `u`
    /// attached at the node in slot `v`, inside an open step. The one
    /// type-1 insert loop: a single-op step and a batch op run it with
    /// different data (see [`HealScope`]), and the centralized and the
    /// message-scheduled execution differ only in the transport behind
    /// [`Self::heal_walk`] / [`Self::heal_flood`] — on the centralized one
    /// no walk is ever `lost` and every count is `complete`, so the
    /// fallback branches are dead there.
    pub(crate) fn heal_insert(&mut self, u: u32, v: u32, scope: HealScope) -> RecoveryKind {
        let u_id = self.net.graph().id_of_slot(u);
        let mut flooded = false;
        let mut lost = 0u32;
        for attempt in 0..self.cfg.max_walk_retries {
            let (single, batch);
            let ctx: &[u64] = match scope {
                HealScope::SingleOp => {
                    single = [self.step_no, attempt];
                    &single
                }
                HealScope::BatchOp => {
                    batch = [self.step_no, u_id.0, attempt];
                    &batch
                }
            };
            let out = self.heal_walk(v, Some(u), WalkGoal::Spare, Purpose::InsertWalk, ctx);
            if let Some(w) = out.hit {
                self.give_vertex_to_new_node(w, u, v);
                return RecoveryKind::Type1;
            }
            if out.lost {
                lost += 1;
                if lost > self.scheduled_spec().fallback_after {
                    return self.insert_fallback(u, v);
                }
                continue;
            }
            self.walk_stats.misses += 1;
            // Deterministic count (Algorithm 4.4) before deciding. A
            // single-op step floods once, then retries walks (Alg. 4.2
            // line 9 repeats from line 1 — loads cannot change mid-step);
            // inside a batch the earlier ops' transfers can, so every
            // miss recounts.
            if flooded && scope == HealScope::SingleOp {
                continue;
            }
            flooded = true;
            let res = self.heal_flood(v, WalkGoal::Spare, ctx);
            // The flood reaches the fresh node u too; the paper counts
            // |Spare| against |G_{t-1}|.
            let n_prev = res.n.saturating_sub(1);
            if !self.cfg.spare_sufficient(res.matching, n_prev) {
                // Only a *complete* convergecast proves the spare set is
                // dry: a partial count is a lower bound, and inflating on
                // it compounds under sustained loss until the mapping can
                // no longer balance. Partial + insufficient degrades to
                // the best partial witness; no witness → the walk-free
                // fallback, since a single-op step never re-floods and
                // walks that complete keep missing an empty spare set.
                if res.complete {
                    self.walk_stats.type2 += 1;
                    return match self.cfg.mode {
                        RecoveryMode::Simplified => {
                            crate::type2_simple::inflate(self, (u, v));
                            RecoveryKind::InflateSimple
                        }
                        RecoveryMode::Staggered => {
                            // The coordinator should have fired at 3θn;
                            // reaching the hard wall means it must start
                            // now, and the new node is served from the
                            // first staged window.
                            crate::staggered::begin(self, Plan::inflation(self.cycle.p()));
                            crate::staggered::insert_during_staggered(self, u, v);
                            RecoveryKind::InflateStaggered
                        }
                    };
                }
                if let Some(w) = res.witness {
                    self.fault_stats.heal_fallbacks += 1;
                    self.walk_stats.hits += 1;
                    self.give_vertex_to_new_node(w, u, v);
                    return RecoveryKind::Type1;
                }
                return self.insert_fallback(u, v);
            }
            // Enough spares exist; the walk was simply unlucky — retry.
        }
        panic!(
            "insertion walk failed {} times with |Spare| ≥ θn — bug or \
             pathological parameters (n={}, p={})",
            self.cfg.max_walk_retries,
            self.n(),
            self.cycle.p()
        );
    }

    /// Transfer one vertex from spare node `w` to the fresh node `u`, then
    /// drop the adversarial attach edge to `v` (the fabric edge set
    /// re-creates a `(u, v)` edge if and only if the virtual graph requires
    /// one). All three are slots.
    pub(crate) fn give_vertex_to_new_node(&mut self, w: u32, u: u32, v: u32) {
        debug_assert!(self.map.load_at(w) >= 2);
        // Deterministic pick: the largest vertex id at w.
        let z = *self
            .map
            .sim_at(w)
            .iter()
            .max()
            .expect("spare node must simulate a vertex");
        fabric::move_vertices(
            &mut self.net,
            &mut self.map,
            &self.cycle,
            &[z],
            &[self.cycle.chord(z)],
            u,
            &mut self.heal.fabric,
        );
        // O(1) handoff messages: vertex id + its 3 neighbor node ids.
        self.net.charge_messages(4);
        self.net.charge_rounds(1);
        self.charge_load_updates(&[w, u]);
        // Remove the adversary's temporary attach edge (one extra instance
        // beyond the fabric).
        self.net.remove_edge_slots(u, v);
    }

    // ------------------------------------------------------------------
    // Deletion (Algorithm 4.3)
    // ------------------------------------------------------------------

    /// Adversary deletes `victim`; the algorithm heals and the step cost is
    /// returned.
    pub fn delete(&mut self, victim: NodeId) -> StepMetrics {
        // The step's only id translation: from here on it runs on slots.
        let victim_slot = self
            .net
            .graph()
            .slot_of(victim)
            .unwrap_or_else(|| panic!("delete: {victim} missing"));
        assert!(self.n() > 2, "refusing to delete below 2 nodes");
        self.step_no += 1;

        // Former neighbors learn of the attack in the same time step.
        let rescuer = self
            .rescuer_of(victim_slot)
            .expect("deleted node had no neighbors — network was disconnected");

        self.net.begin_step();
        self.net.adversary_remove_node(victim);

        let recovery = if self.stag.is_some() {
            crate::staggered::delete_during_staggered(self, victim_slot, rescuer);
            RecoveryKind::Type1Staggered
        } else {
            self.heal_delete(victim, victim_slot, rescuer, HealScope::SingleOp)
        };
        if self.cfg.mode == RecoveryMode::Staggered {
            crate::staggered::after_step(self);
        }
        let recovery = self.final_recovery_kind(recovery);
        self.net.end_step(StepKind::Delete, recovery)
    }

    /// Deletion recovery (Algorithm 4.3) for `victim` — already gone from
    /// the graph, its `Sim` still in Φ under its freed slot `victim_slot` —
    /// healed by the node in slot `rescuer`, inside an open step. Detaches
    /// the pooled vertex/chord buffers from `self`, runs the loop, and
    /// reattaches them so their capacity survives across steps (including
    /// the early type-2 return). The victim's whole vertex set is inverted
    /// here, once: adoption and every redistribution move read their
    /// chords from it.
    pub(crate) fn heal_delete(
        &mut self,
        victim: NodeId,
        victim_slot: u32,
        rescuer: u32,
        scope: HealScope,
    ) -> RecoveryKind {
        let mut zs = std::mem::take(&mut self.heal.zs);
        let mut chords = std::mem::take(&mut self.heal.chords);
        zs.clear();
        zs.extend_from_slice(self.map.sim_at(victim_slot));
        self.cycle
            .chords_into(&zs, &mut self.heal.inverse, &mut chords);
        let kind = self.heal_delete_loop(victim, rescuer, &zs, &chords, scope);
        self.heal.zs = zs;
        self.heal.chords = chords;
        kind
    }

    /// The one type-1 delete loop (see [`Self::heal_insert`] for how scope
    /// and transport enter).
    fn heal_delete_loop(
        &mut self,
        victim: NodeId,
        rescuer: u32,
        zs: &[VertexId],
        chords: &[VertexId],
        scope: HealScope,
    ) -> RecoveryKind {
        // Rescuer adopts the victim's vertices and restores their edges.
        debug_assert!(!zs.is_empty(), "every node simulates >= 1 vertex");
        fabric::adopt_vertices(
            &mut self.net,
            &mut self.map,
            &self.cycle,
            zs,
            chords,
            rescuer,
            &mut self.heal.fabric,
        );
        self.net.charge_messages(3 * zs.len() as u64);
        self.net.charge_rounds(1);

        // Redistribute each adopted vertex to a node in Low. Algorithm 4.3
        // (lines 6–11) re-counts Low after every failed walk, because the
        // step's own transfers can shrink it. In a single-op step those
        // transfers are the rescuer's own and it knows what each did to
        // |Low| (`move_to_low`), so the step's first complete count is
        // carried forward by those deltas instead of re-run: every decision
        // is the one a fresh count would give. A batch op re-counts on every
        // miss (earlier ops moved loads it never saw), and so does a step
        // whose count so far is partial.
        let mut carried: Option<FloodOutcome> = None;
        for (i, (&z, &chord)) in zs.iter().zip(chords).enumerate() {
            let z = (z, chord);
            let mut attempt = 0u64;
            let mut lost = 0u32;
            loop {
                let (single, batch);
                let ctx: &[u64] = match scope {
                    HealScope::SingleOp => {
                        single = [self.step_no, i as u64, attempt];
                        &single
                    }
                    HealScope::BatchOp => {
                        batch = [self.step_no, victim.0, i as u64, attempt];
                        &batch
                    }
                };
                let out = self.heal_walk(rescuer, None, WalkGoal::Low, Purpose::DeleteWalk, ctx);
                if let Some(w) = out.hit {
                    let delta = self.move_to_low(z, rescuer, w);
                    if let Some(count) = carried.as_mut() {
                        count.matching = count
                            .matching
                            .checked_add_signed(delta)
                            .expect("|Low| counts the rescuer and w, whose loads moved");
                    }
                    break;
                }
                if out.lost {
                    lost += 1;
                    if lost > self.scheduled_spec().fallback_after {
                        match self.delete_fallback(z, rescuer) {
                            // Healed to a flood's witness: the next miss
                            // counts afresh.
                            true => {
                                carried = None;
                                break;
                            }
                            // The deflation rehomed this vertex and every
                            // remaining one.
                            false => return RecoveryKind::DeflateSimple,
                        }
                    }
                } else {
                    self.walk_stats.misses += 1;
                    let res = self.count_low(rescuer, scope, ctx, &mut carried);
                    if !self.cfg.low_sufficient(res.matching, res.n) {
                        // Deflate only on a complete convergecast — a
                        // partial count undercounts the Low set, and a
                        // spurious deflation can shrink p below what the
                        // surviving nodes need. Partial + witness heals
                        // to the witness; no witness → keep walking.
                        if res.complete {
                            self.walk_stats.type2 += 1;
                            return match self.cfg.mode {
                                RecoveryMode::Simplified => {
                                    crate::type2_simple::deflate(self, rescuer);
                                    RecoveryKind::DeflateSimple
                                }
                                RecoveryMode::Staggered => {
                                    let plan = Plan::deflation(self.cycle.p())
                                        .expect("network too small for a smaller Z(p)");
                                    crate::staggered::begin(self, plan);
                                    RecoveryKind::DeflateStaggered
                                }
                            };
                        }
                        // A partial count is never carried, so this move
                        // has no count to adjust.
                        if let Some(w) = res.witness {
                            self.fault_stats.heal_fallbacks += 1;
                            self.walk_stats.hits += 1;
                            self.move_to_low(z, rescuer, w);
                            break;
                        }
                    }
                }
                attempt += 1;
                assert!(
                    attempt < self.cfg.max_walk_retries,
                    "deletion walk failed {} times with |Low| ≥ θn",
                    self.cfg.max_walk_retries
                );
            }
        }
        RecoveryKind::Type1
    }

    /// The Low count a missed deletion walk decides on (Algorithm 4.4):
    /// the step's carried count when it holds one, else a flood from the
    /// rescuer, which a single-op step carries from then on when it is
    /// complete.
    fn count_low(
        &mut self,
        rescuer: u32,
        scope: HealScope,
        ctx: &[u64],
        carried: &mut Option<FloodOutcome>,
    ) -> FloodOutcome {
        if let Some(count) = *carried {
            #[cfg(test)]
            if self.twin_checks.is_some() {
                let fresh = self.heal_flood(rescuer, WalkGoal::Low, ctx);
                assert_eq!(
                    (count.n, count.matching),
                    (fresh.n, fresh.matching),
                    "step {}: carried |Low| differs from a fresh count",
                    self.step_no
                );
                self.twin_checks = self.twin_checks.map(|k| k + 1);
            }
            return count;
        }
        let res = self.heal_flood(rescuer, WalkGoal::Low, ctx);
        if res.complete && scope == HealScope::SingleOp {
            *carried = Some(res);
        }
        res
    }

    /// Move vertex `z` (with its chord partner) from `rescuer` to the Low
    /// node `w` — both slots; no-op when the rescuer itself was picked.
    /// Returns what the move did to |Low|, which the rescuer knows: its own
    /// load, and `w`'s, acknowledged in the handoff.
    pub(crate) fn move_to_low(
        &mut self,
        (z, chord): (VertexId, VertexId),
        rescuer: u32,
        w: u32,
    ) -> isize {
        if w == rescuer {
            return 0;
        }
        let low =
            |map: &VirtualMapping| map.is_low_at(rescuer) as isize + map.is_low_at(w) as isize;
        let before = low(&self.map);
        fabric::move_vertices(
            &mut self.net,
            &mut self.map,
            &self.cycle,
            &[z],
            &[chord],
            w,
            &mut self.heal.fabric,
        );
        self.net.charge_messages(4);
        self.net.charge_rounds(1);
        low(&self.map) - before
    }

    // ------------------------------------------------------------------
    // Transports
    // ------------------------------------------------------------------

    /// One healing walk from slot `start`, keyed by `(purpose, ctx)`;
    /// `ctx` ends in the walk's attempt index, and `walk_stats` counts it
    /// on either transport. Without a fault spec it is one attempt of the
    /// centralized leaf ([`Self::walk_central`]), a token that cannot be
    /// lost; with one it runs on the message schedule
    /// ([`Self::walk_scheduled`]). Both walk the arena with a per-slot
    /// load read as their predicate. Inlined into the two loops so the
    /// caller's constant goal and exclusion reach the walk's inner loop.
    #[inline]
    fn heal_walk(
        &mut self,
        start: u32,
        exclude: Option<u32>,
        goal: WalkGoal,
        purpose: Purpose,
        ctx: &[u64],
    ) -> HealWalk {
        match self.faults {
            None => {
                let (&attempt, key) = ctx.split_last().expect("ctx ends in the attempt");
                let one = attempt..attempt + 1;
                // Matched out here so the walk's per-hop predicate stays a
                // direct call.
                let hit = match goal {
                    WalkGoal::Spare => {
                        let spare = VirtualMapping::is_spare_at;
                        self.walk_central(start, exclude, purpose, key, one, spare)
                    }
                    WalkGoal::Low => {
                        let low = VirtualMapping::is_low_at;
                        self.walk_central(start, exclude, purpose, key, one, low)
                    }
                };
                HealWalk {
                    hit: hit.map(|(w, _)| w),
                    lost: false,
                }
            }
            Some(spec) => {
                let out = self.walk_scheduled(&spec, start, exclude, goal, purpose, ctx);
                self.walk_stats.attempts += 1;
                self.walk_stats.hits += u64::from(out.hit.is_some());
                out
            }
        }
    }

    /// The centralized walk-with-budget leaf: one walk of `walk_len` hops
    /// from slot `start` (never onto `exclude`) per attempt index in
    /// `attempts`, attempt `k` drawing its stream from `(purpose, ctx ++
    /// [k])`, until one stops on a node `accept(&Φ, slot)` takes. Returns
    /// that node's slot and the attempt that found it. Every walk it runs
    /// counts as an attempt in `walk_stats`, and the one that stops on an
    /// accepted node as a hit. Type-1's walks
    /// ([`Self::heal_walk`], one attempt at a time) and every type-2 walk,
    /// simplified or staggered, go through it. Generic and inlined, so
    /// each caller's predicate is a direct call in the walk's inner loop.
    #[inline]
    pub(crate) fn walk_central(
        &mut self,
        start: u32,
        exclude: Option<u32>,
        purpose: Purpose,
        ctx: &[u64],
        attempts: Range<u64>,
        accept: impl Fn(&VirtualMapping, u32) -> bool,
    ) -> Option<(u32, u64)> {
        let walk_len = self.cfg.walk_len(self.cycle.p());
        // Every caller's key is at most three words before the attempt.
        let mut key = [0u64; 4];
        let n = ctx.len();
        key[..n].copy_from_slice(ctx);
        for attempt in attempts {
            key[n] = attempt;
            let mut rng = self.seeds.stream(purpose, &key[..=n]);
            let map = &self.map;
            let out = random_walk_search_slots(
                &mut self.net,
                start,
                walk_len,
                exclude,
                |w| accept(map, w),
                &mut rng,
            );
            self.walk_stats.attempts += 1;
            if let Some(w) = out.hit {
                self.walk_stats.hits += 1;
                return Some((w, attempt));
            }
        }
        None
    }

    /// One deterministic count of `goal`'s set from the node in slot
    /// `root` (Algorithm 4.4). Without a fault spec the centralized flood
    /// always covers the whole component, reading one load per slot; with
    /// one it runs on the message schedule and may close on a partial
    /// count ([`Self::flood_scheduled`]).
    fn heal_flood(&mut self, root: u32, goal: WalkGoal, ctx: &[u64]) -> FloodOutcome {
        match self.faults {
            None => {
                let map = &self.map;
                let res = flood_count_slots(
                    &mut self.net,
                    root,
                    |w| goal.accepts_at(map, w),
                    &mut self.flood_scratch,
                );
                FloodOutcome {
                    n: res.n,
                    matching: res.matching,
                    witness: res.witness.map(|w| self.slot(w)),
                    complete: true,
                    retries: 0,
                    close_round: res.rounds,
                }
            }
            Some(spec) => self.flood_scheduled(&spec, root, Some(goal), ctx, spec.flood_retries),
        }
    }

    // ------------------------------------------------------------------
    // Shared helpers
    // ------------------------------------------------------------------

    /// The neighbor that heals the deletion of the node in slot `victim`:
    /// its smallest-id neighbor other than itself, as a slot (`None` when
    /// it has none).
    pub(crate) fn rescuer_of(&self, victim: u32) -> Option<u32> {
        let g = self.net.graph();
        g.neighbor_slots(victim)
            .iter()
            .copied()
            .filter(|&w| w != victim)
            .min_by_key(|&w| g.id_of_slot(w))
    }

    /// Slot of a live node named by its id (the centralized flood's
    /// witness, a batch newcomer that is a later join's attach point).
    pub(crate) fn slot(&self, u: NodeId) -> u32 {
        self.net
            .graph()
            .slot_of(u)
            .unwrap_or_else(|| panic!("{u} is not in the network"))
    }

    /// Nodes advertise load changes to their neighbors (constant overhead,
    /// Sect. 4.1); charged as one message per incident edge. `slots` may
    /// name a node the step has since lost; it advertises nothing.
    pub(crate) fn charge_load_updates(&mut self, slots: &[u32]) {
        let g = self.net.graph();
        let msgs = slots
            .iter()
            .filter(|&&s| g.slot_alive(s))
            .map(|&s| g.degree_of_slot(s) as u64)
            .sum();
        self.net.charge_messages(msgs);
    }

    /// Refine the step's recovery label with staggered-operation state.
    fn final_recovery_kind(&self, base: RecoveryKind) -> RecoveryKind {
        match (&self.stag, base) {
            (Some(op), RecoveryKind::Type1 | RecoveryKind::Type1Staggered) => {
                if op.is_inflation() {
                    RecoveryKind::InflateStaggered
                } else {
                    RecoveryKind::DeflateStaggered
                }
            }
            _ => base,
        }
    }

    /// Fresh unused node id (convenience for workloads; the adversary may
    /// also pick its own ids).
    pub fn fresh_node_id(&self) -> NodeId {
        NodeId(
            self.net
                .graph()
                .nodes()
                .map(|u| u.0)
                .max()
                .map(|m| m + 1)
                .unwrap_or(0),
        )
    }
}

impl std::fmt::Debug for DexNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DexNetwork(n={}, p={}, {:?}, stag={})",
            self.n(),
            self.cycle.p(),
            self.map,
            self.stag.is_some()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_sim::rng::splitmix64;

    /// The centralized transports cannot lose a token or miss a report:
    /// hit or miss, no walk is `lost`, and every count is `complete` and
    /// exact.
    #[test]
    fn centralized_transports_never_lose_a_walk_or_close_a_count_partial() {
        // p₀ = 67; 48 inserts leave at most 3 spare nodes among 64, so
        // Spare walks both hit and miss.
        let mut dex = DexNetwork::bootstrap(DexConfig::new(0x7a11).simplified(), 16);
        for i in 0..48 {
            dex.insert(NodeId(16 + i), NodeId(i % 16));
        }
        assert!(dex.faults.is_none());
        let nodes = dex.node_ids();
        dex.net.begin_step();
        let mut misses = 0;
        for (i, &start) in nodes.iter().cycle().take(256).enumerate() {
            let goal = [WalkGoal::Spare, WalkGoal::Low][i % 2];
            let out = dex.heal_walk(
                dex.slot(start),
                None,
                goal,
                Purpose::InsertWalk,
                &[i as u64],
            );
            assert!(!out.lost, "centralized walk {i} reported lost");
            assert!(out.hit.is_none_or(|w| goal.accepts_at(&dex.map, w)));
            misses += out.hit.is_none() as usize;
        }
        assert!((1..256).contains(&misses), "misses={misses}");
        for goal in [WalkGoal::Spare, WalkGoal::Low] {
            let res = dex.heal_flood(dex.slot(nodes[0]), goal, &[0]);
            let matching = nodes
                .iter()
                .filter(|&&w| goal.accepts_at(&dex.map, dex.slot(w)))
                .count();
            assert!(res.complete);
            assert_eq!((res.n, res.matching), (dex.n(), matching));
        }
        dex.net.end_step(StepKind::Insert, RecoveryKind::Type1);
    }

    /// The walk-with-budget leaf. With a predicate that takes nothing and
    /// a budget of `b` attempts it returns `None` after exactly `b` walks
    /// of `walk_len` hops, charged one round and one message per hop. An
    /// attempt range starting at `k` draws attempt `k`'s stream from
    /// `(purpose, ctx ++ [k])`: hop for hop the walk a direct
    /// `random_walk_search_slots` call on that stream takes. A hit returns
    /// the first attempt whose direct walk hits.
    #[test]
    fn walk_leaf_spends_exactly_its_budget_and_keys_attempts_by_index() {
        use std::cell::{Cell, RefCell};
        let mut dex = DexNetwork::bootstrap(DexConfig::new(0x1eaf).simplified(), 32);
        let walk_len = dex.cfg.walk_len(dex.cycle.p());
        let start = dex.slot(NodeId(3));
        let (purpose, ctx) = (Purpose::DeleteWalk, [7, 11]);
        dex.net.begin_step();
        for (k, b) in [(0, 0), (0, 1), (4, 5), (9, 16)] {
            let (r0, m0, t0) = dex.net.current_counters();
            let hops = Cell::new(0);
            let never = |_: &VirtualMapping, _| {
                hops.set(hops.get() + 1);
                false
            };
            assert_eq!(
                dex.walk_central(start, None, purpose, &ctx, k..k + b, never),
                None
            );
            assert_eq!(hops.get(), b * walk_len, "{b} walks, none cut short");
            let (r, m, t) = dex.net.current_counters();
            assert_eq!((r - r0, m - m0, t - t0), (b * walk_len, b * walk_len, 0));
        }
        // The slots one walk visits, through the leaf or called directly.
        let path = |dex: &mut DexNetwork, direct: bool, k: u64| {
            let seen = RefCell::new(Vec::new());
            let record = |w: u32| {
                seen.borrow_mut().push(w);
                false
            };
            if direct {
                let mut rng = dex.seeds.stream(purpose, &[ctx[0], ctx[1], k]);
                random_walk_search_slots(&mut dex.net, start, walk_len, None, record, &mut rng);
            } else {
                dex.walk_central(start, None, purpose, &ctx, k..k + 1, |_, w| record(w));
            }
            seen.into_inner()
        };
        for k in [0, 3, 40] {
            let leaf = path(&mut dex, false, k);
            assert_eq!(leaf.len() as u64, walk_len);
            assert_eq!(leaf, path(&mut dex, true, k), "attempt {k}");
        }
        let target = dex.slot(NodeId(20));
        let first_hit = (5..).find(|&k| path(&mut dex, true, k).contains(&target));
        let hit = dex.walk_central(start, None, purpose, &ctx, 5..200, |_, w| w == target);
        assert_eq!(hit, first_hit.map(|k| (target, k)));
        dex.net.end_step(StepKind::Delete, RecoveryKind::Type1);
    }

    /// One script step on both networks — an insert attached to a random
    /// live node, or the deletion of one — which must take the same
    /// recovery with the same topology changes.
    fn step_both(nets: &mut [DexNetwork; 2], live: &mut Vec<NodeId>, r: &mut u64, grow: bool) {
        *r = splitmix64(*r);
        let pick = (*r % live.len() as u64) as usize;
        let [a, b] = if grow {
            let (u, v) = (nets[0].fresh_node_id(), live[pick]);
            live.push(u);
            nets.each_mut().map(|dex| dex.insert(u, v))
        } else {
            let victim = live.swap_remove(pick);
            nets.each_mut().map(|dex| dex.delete(victim))
        };
        assert_eq!(
            (a.recovery, a.topology_changes),
            (b.recovery, b.topology_changes),
            "step {}",
            nets[0].step_no
        );
    }

    /// A deletion step decides on its carried |Low| exactly as on a fresh
    /// count. A twin that floods anyway at every miss (asserting the two
    /// counts agree) takes the same recovery kind and topology changes at
    /// every step and ends on the same Φ, through grow-then-shrink scripts
    /// whose shrink phase runs up to deflations, where deleting walks miss
    /// several times a step — on the centralized transport and on the
    /// message schedule with a zero fault spec.
    #[test]
    fn carried_low_count_equals_a_fresh_flood_at_every_miss() {
        let simplified = DexConfig::new(0x601d_0001).simplified();
        let scripts = [
            (simplified, None, 1_500, 24),
            (simplified, Some(dex_sim::msim::FaultSpec::zero()), 600, 24),
            (DexConfig::new(0x601d_0001).staggered(), None, 600, 32),
        ];
        let mut checks = 0;
        for (cfg, faults, peak, floor) in scripts {
            let mut nets = [
                DexNetwork::bootstrap(cfg, 64),
                DexNetwork::bootstrap(cfg, 64),
            ];
            nets.iter_mut().for_each(|dex| dex.set_faults(faults));
            nets[1].twin_checks = Some(0);
            let mut live = nets[0].node_ids();
            let mut r = 0x0ca7_71ed;
            while live.len() < peak {
                step_both(&mut nets, &mut live, &mut r, true);
            }
            while live.len() > floor {
                step_both(&mut nets, &mut live, &mut r, false);
            }
            let [carry, twin] = &nets;
            // The heal paths read Φ by slot only: nothing built an id index.
            assert!(!carry.map.id_index_built() && !twin.map.id_index_built());
            assert_eq!(carry.map.entries_sorted(), twin.map.entries_sorted());
            assert_eq!(carry.walk_stats.misses, twin.walk_stats.misses);
            let k = twin.twin_checks.expect("twin");
            // A scheduled count is not a centralized flood.
            if faults.is_none() {
                assert_eq!(
                    twin.flood_work().floods - carry.flood_work().floods,
                    k,
                    "{:?}: one flood saved per carried miss",
                    cfg.mode
                );
            }
            checks += k;
        }
        assert!(checks > 0, "no deletion step ever reused its count");
    }

    /// Φ shares the graph's node arena: a delete frees the victim's slot in
    /// both, and the next insert recycles it in both.
    #[test]
    fn phi_follows_the_graph_slot_a_delete_and_insert_recycle() {
        for cfg in [DexConfig::new(0x5107).simplified(), DexConfig::new(0x5107)] {
            let mut dex = DexNetwork::bootstrap(cfg, 24);
            let victim = NodeId(5);
            let slot = dex.slot(victim);
            assert_eq!(dex.map.sim_at(slot), dex.sim(victim));
            assert!(dex.map.load_at(slot) >= 1);
            dex.delete(victim);
            assert!(!dex.graph().slot_alive(slot));
            assert_eq!(dex.map.load_at(slot), 0, "victim's Sim left its slot");
            crate::invariants::assert_ok(&dex);
            let newcomer = NodeId(100);
            dex.insert(newcomer, NodeId(6));
            assert_eq!(dex.slot(newcomer), slot, "LIFO arena recycles the slot");
            assert_eq!(dex.map.sim_at(slot), dex.sim(newcomer));
            assert!(dex.map.load_at(slot) >= 1);
            assert!(dex
                .map
                .sim_at(slot)
                .iter()
                .all(|&z| dex.map.owner_slot_of(z) == slot && dex.map.owner_of(z) == newcomer));
            crate::invariants::assert_ok(&dex);
        }
    }

    /// A batch newcomer may attach to an earlier newcomer of the same
    /// batch: its attach slot is resolved when its turn comes, the others'
    /// at validation.
    #[test]
    fn batch_newcomer_attaches_to_an_earlier_newcomer_of_the_batch() {
        let mut dex = DexNetwork::bootstrap(DexConfig::new(0xba7c).simplified(), 24);
        dex.delete(NodeId(3)); // a hole for the first newcomer to recycle
        let joins = [
            (NodeId(50), NodeId(7)),
            (NodeId(51), NodeId(50)),
            (NodeId(52), NodeId(51)),
            (NodeId(53), NodeId(8)),
        ];
        let m = dex.insert_batch(&joins);
        assert_eq!(m.kind, StepKind::BatchInsert(4));
        for (u, _) in joins {
            assert!(dex.map.load_at(dex.slot(u)) >= 1, "{u} simulates nothing");
        }
        crate::invariants::assert_ok(&dex);
        let m = dex.delete_batch(&[NodeId(51), NodeId(7), NodeId(50)]);
        assert_eq!(m.kind, StepKind::BatchDelete(3));
        crate::invariants::assert_ok(&dex);
    }
}
