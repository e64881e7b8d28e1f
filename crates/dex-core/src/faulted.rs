//! The message-scheduled transports: healing walks, counting floods,
//! type-2 coordination and DHT routes on the message-level simulator
//! ([`dex_sim::msim`]), plus the fallbacks that only a lossy transport
//! can reach.
//!
//! There is one insert-heal loop and one delete-heal loop
//! (`DexNetwork::heal_insert` / `DexNetwork::heal_delete`) and one
//! DHT route. Each asks a transport for a walk, a count or a delivery;
//! with a [`FaultSpec`] installed ([`DexNetwork::set_faults`]) the
//! transport is this module's — every token, flood forward, convergecast
//! report and route hop is an actual scheduled message, subject to loss,
//! latency skew and partitions — and without one it is the centralized
//! `random_walk_search` / `flood_count_with` / hop count, which never
//! loses a token and always completes its convergecast. Generation 0 of
//! a scheduled walk replays the centralized RNG stream and unit-latency
//! scheduling charges one round and one message per hop, so a **zero**
//! fault spec is bit-identical to no spec at all: same end state, same
//! per-step rounds and messages (`tests/msim_diff.rs` runs the two
//! transports under the one loop).
//!
//! Under real faults, three robustness layers engage:
//!
//! 1. **transport retries** — inside the simulator, walks and routes run
//!    hop-level ARQ: a lost hop is retransmitted on the same link after
//!    the per-hop timeout, up to the spec's budget (`walk_retries` /
//!    `route_retries`), so under independent loss a walk takes exactly
//!    the centralized walk's hops. Only a hop that spends its budget (a
//!    burst or partition outlasting it) loses the token; the operation's
//!    timeout then fires and it relaunches with deterministic
//!    exponential backoff, up to the same budget (each re-initiation
//!    draws a fresh RNG stream keyed by the retry index);
//! 2. **heal fallback** — a heal step whose walks keep getting lost
//!    (more than `fallback_after` abandoned walks), or an insertion whose
//!    miss-path count closed partial with no witness, stops walking and
//!    heals to the flood's witness node — the best member of the target
//!    set the (possibly partial) flood reported — so a heal step always
//!    terminates with the invariants intact;
//! 3. **graceful degradation** — DHT operations whose route is lost
//!    terminally are abandoned and counted ([`FaultStats`]'s
//!    `dht_abandoned`): a put is not applied, a get returns `None`.
//!
//! Floods (Algorithm 4.4's computeSpare/computeLow) run on the same
//! schedule via [`dex_sim::msim::run_flood`]: per-round frontier
//! expansion where every forward and every convergecast report is a
//! faultable send. An incomplete flood re-floods up to `flood_retries`
//! times with deterministic backoff and then settles for the partial
//! count plus the best partial witness (`flood_retries` /
//! `floods_partial` in [`FaultStats`]) — a heal decision taken on a
//! partial count is the protocol's honest degradation, never an
//! unsoundness: every path still terminates with the invariants intact.
//!
//! Type-2 rebuilds coordinate on the schedule too
//! (`DexNetwork::type2_coordinate`): the announcement flood's
//! broadcast carries the cloud-range announcement, and its convergecast
//! reports double as permutation-route reservations and commit acks. The
//! initiator releases the rebuild only after a *complete* convergecast;
//! an incomplete attempt rolls back cleanly — nothing has been staged,
//! so graph/Φ/DHT are byte-identical to the pre-op state — and
//! re-initiates with exponential backoff up to `type2_retries` times
//! before escalating to a per-link-ARQ reliable announcement (charged at
//! the centralized flood cost), so a type-2 always completes. Only the
//! in-rebuild traffic models (permutation routing, phase-2 rebalance
//! walks) stay analytical/centralized — they run after the commit point
//! on charged cost models.

use crate::config::RecoveryMode;
use crate::dex::{DexNetwork, HealWalk, WalkGoal};
use crate::dht::Key;
use dex_graph::ids::{NodeId, VertexId};
use dex_sim::flood::flood_count_with;
use dex_sim::msim::{self, FaultSpec, FaultStats, FloodOutcome, OpStatus, RouteOp, WalkOp};
use dex_sim::rng::{splitmix64, Purpose};
use dex_sim::{RecoveryKind, StepKind, StepMetrics};

/// Context word appended for transport-level re-initiations: each retry
/// generation draws a fresh, deterministic RNG stream (`"RETRY" | r`).
const RETRY_WORD: u64 = 0x5245_5452_5900;

/// Op-key salt for flood operations (`"FLOOD"`), separating their fault
/// draws from walk and route streams.
const FLOOD_WORD: u64 = 0x464c_4f4f_4400;

/// Context word for type-2 coordination attempts (`"TYPE2" | attempt`).
const TYPE2_WORD: u64 = 0x5459_5045_3200;

/// Deterministic op key: a splitmix64 chain of `seed ^ word` over the
/// context words.
fn op_key_for(seed: u64, word: u64, ctx: &[u64]) -> u64 {
    let mut acc = splitmix64(seed ^ word);
    for &w in ctx {
        acc = splitmix64(acc ^ w);
    }
    acc
}

impl DexNetwork {
    /// Install (or clear) the fault model. While set, walks, floods,
    /// type-2 coordination and DHT routes run on the message-level
    /// simulator (see the module docs). Requires simplified mode with no
    /// staggered operation in progress (the staggered machinery assumes
    /// one event per step).
    pub fn set_faults(&mut self, spec: Option<FaultSpec>) {
        if spec.is_some() {
            assert_eq!(
                self.cfg.mode,
                RecoveryMode::Simplified,
                "fault injection requires simplified mode"
            );
            assert!(
                self.stag.is_none(),
                "cannot install faults mid staggered operation"
            );
        }
        self.faults = spec;
    }

    /// [`Self::set_faults`] recorded as its own (cost-free) step in the
    /// metric history, so replayed traces keep a contiguous step ledger.
    /// Does **not** advance the protocol's `step_no` — the RNG streams
    /// of subsequent heals must not depend on how often the fault model
    /// was reconfigured.
    pub fn set_faults_step(&mut self, spec: Option<FaultSpec>) -> StepMetrics {
        self.net.begin_step();
        self.set_faults(spec);
        self.net.end_step(StepKind::Config, RecoveryKind::Type1)
    }

    /// The installed fault model, if any.
    pub fn faults(&self) -> Option<FaultSpec> {
        self.faults
    }

    /// Fault-layer counters accumulated since bootstrap.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// The installed spec, for code only a lost walk or a partial count
    /// can lead to.
    pub(crate) fn scheduled_spec(&self) -> FaultSpec {
        self.faults.expect("reached only under a fault spec")
    }

    /// Run one healing walk on the message schedule. `ctx` is exactly
    /// the context the centralized transport keys its stream with;
    /// generation 0 replays that stream, so at zero faults the outcome
    /// (hit, hops, charge) is bit-identical to
    /// [`dex_sim::tokens::random_walk_search`]. The schedule speaks ids;
    /// the hit goes back to the heal loop as a slot.
    pub(crate) fn walk_scheduled(
        &mut self,
        spec: &FaultSpec,
        start: NodeId,
        exclude: Option<NodeId>,
        goal: WalkGoal,
        purpose: Purpose,
        ctx: &[u64],
    ) -> HealWalk {
        let walk_len = self.cfg.walk_len(self.cycle.p());
        let op_key = op_key_for(spec.seed, RETRY_WORD, ctx);
        let ops = [WalkOp {
            start,
            max_len: walk_len,
            exclude,
            op_key,
        }];
        let (results, report) = {
            let g = self.net.graph();
            let map = &self.map;
            let seeds = &self.seeds;
            let accept = move |w: NodeId| goal.accepts(map, g, w);
            let mk_rng = |_: usize, retry: u32| {
                if retry == 0 {
                    seeds.stream(purpose, ctx)
                } else {
                    let mut ext = Vec::with_capacity(ctx.len() + 1);
                    ext.extend_from_slice(ctx);
                    ext.push(RETRY_WORD | retry as u64);
                    seeds.stream(purpose, &ext)
                }
            };
            msim::run_walks(g, spec, &ops, accept, mk_rng)
        };
        self.net.charge_rounds(report.makespan);
        self.net.charge_messages(report.messages);
        self.fault_stats.merge(&report.stats);
        let r = &results[0];
        HealWalk {
            hit: r.hit.map(|w| self.slot(w)),
            lost: r.status == OpStatus::Lost,
        }
    }

    // ------------------------------------------------------------------
    // Floods & type-2 coordination
    // ------------------------------------------------------------------

    /// Run one flood-aggregate on the message schedule with a re-flood
    /// budget of `retries`, charging its makespan and sends; `goal: None`
    /// counts nothing (a type-2 announcement). At zero faults the outcome
    /// and charges are bit-identical to [`flood_count_with`]; under
    /// faults the result may be a partial count with the best partial
    /// witness.
    pub(crate) fn flood_scheduled(
        &mut self,
        spec: &FaultSpec,
        root: NodeId,
        goal: Option<WalkGoal>,
        ctx: &[u64],
        retries: u32,
    ) -> FloodOutcome {
        let op_key = op_key_for(spec.seed, FLOOD_WORD, ctx);
        let (outcome, report) = {
            let g = self.net.graph();
            let map = &self.map;
            let pred = move |w: NodeId| goal.is_some_and(|goal| goal.accepts(map, g, w));
            msim::run_flood(g, spec, root, pred, op_key, retries)
        };
        self.net.charge_rounds(report.makespan);
        self.net.charge_messages(report.messages);
        self.fault_stats.merge(&report.stats);
        outcome
    }

    /// One type-2 coordination attempt: a single flood generation (no
    /// internal re-flood — retries are type-2 re-initiations, counted
    /// separately by [`Self::type2_coordinate`]). The broadcast carries
    /// the cloud-range announcement, the convergecast reports double as
    /// permutation-route reservations and commit acks. Returns whether
    /// the convergecast completed; a failed attempt charges its timeout
    /// rounds and messages but stages nothing — graph, Φ and DHT are
    /// byte-identical to the pre-op state.
    pub(crate) fn type2_coordinate_attempt(
        &mut self,
        spec: &FaultSpec,
        root: NodeId,
        attempt: u32,
    ) -> FloodOutcome {
        self.flood_scheduled(
            spec,
            root,
            None,
            &[self.step_no, root.0, TYPE2_WORD | attempt as u64],
            0,
        )
    }

    /// Announce a type-2 rebuild (inflate/deflate) from `root` so every
    /// node switches to the same Z(p'). Without a fault spec that is one
    /// centralized flood. With one, the announcement and its convergecast
    /// run on the message schedule first: the initiator releases the
    /// rebuild — the commit rides the first Phase-1 message wave — only
    /// after an attempt's convergecast completes. An incomplete attempt
    /// rolls back cleanly (counted in `type2_rollbacks`), waits out a
    /// deterministic exponential backoff, and re-initiates
    /// (`type2_reinitiations`) up to the spec's `type2_retries`; when the
    /// budget exhausts, the announcement escalates to per-link ARQ
    /// (reliable, charged at the centralized flood cost), so a type-2
    /// always completes.
    pub(crate) fn type2_coordinate(&mut self, root: NodeId) {
        if let Some(spec) = self.faults {
            for attempt in 0..=spec.type2_retries {
                let out = self.type2_coordinate_attempt(&spec, root, attempt);
                if out.complete {
                    return;
                }
                self.fault_stats.type2_rollbacks += 1;
                if attempt < spec.type2_retries {
                    self.fault_stats.type2_reinitiations += 1;
                    // Deterministic exponential backoff: the failed
                    // attempt already charged one timeout window (its
                    // close round); the initiator idles for
                    // 2^min(a,3) − 1 more of them before re-initiating.
                    let wait = out.close_round * ((1u64 << attempt.min(3)) - 1);
                    self.net.charge_rounds(wait);
                }
            }
        }
        flood_count_with(&mut self.net, root, |_| false, &mut self.flood_scratch);
    }

    // ------------------------------------------------------------------
    // Fallbacks after repeated walk loss
    // ------------------------------------------------------------------

    /// Walk-free insert fallback for the newcomer in slot `su` attached at
    /// slot `sv`, after repeated lost walks or a partial count with no
    /// witness: flood for the spare set, heal to its witness (or inflate
    /// if spares ran out).
    pub(crate) fn insert_fallback(&mut self, su: u32, sv: u32) -> RecoveryKind {
        let (u, v) = {
            let g = self.net.graph();
            (g.id_of_slot(su), g.id_of_slot(sv))
        };
        let spec = self.scheduled_spec();
        let ctx = [self.step_no, u.0, FLOOD_WORD];
        let res = self.flood_scheduled(&spec, v, Some(WalkGoal::Spare), &ctx, spec.flood_retries);
        let n_prev = res.n.saturating_sub(1);
        // Inflate only on *proof* that the spare set is dry: a complete
        // convergecast (exact count) that fails the sufficiency test. A
        // partial count is a lower bound, never proof — inflation jumps
        // p into (4p, 8p), so a spurious one while n ≪ p leaves a
        // mapping that can never rebalance, and under sustained loss the
        // spurious rebuilds compound.
        if res.complete && !self.cfg.spare_sufficient(res.matching, n_prev) {
            self.walk_stats.type2 += 1;
            crate::type2_simple::inflate(self, Some((u, v)));
            return RecoveryKind::InflateSimple;
        }
        // Partial flood: heal to the best partial witness. When not even
        // one spare was reachable, degrade to a local donation — the
        // attach point, or failing that its least-loaded direct neighbor
        // (one ARQ-reliable link away), hands `u` one of its vertices.
        // Only a neighborhood uniformly down to its last vertex — the
        // local signature of n ≈ p — still escalates to inflation.
        let donor = res.witness.map(|w| self.slot(w)).or_else(|| {
            if self.map.load_at(sv) >= 2 {
                return Some(sv);
            }
            let g = self.net.graph();
            g.neighbor_slots(sv)
                .iter()
                .copied()
                .filter(|&w| self.map.load_at(w) >= 2)
                .min_by_key(|&w| (self.map.load_at(w), g.id_of_slot(w)))
        });
        let Some(w) = donor else {
            self.walk_stats.type2 += 1;
            crate::type2_simple::inflate(self, Some((u, v)));
            return RecoveryKind::InflateSimple;
        };
        self.fault_stats.heal_fallbacks += 1;
        self.walk_stats.hits += 1;
        self.give_vertex_to_new_node(w, su, sv);
        RecoveryKind::Type1
    }

    /// Walk-free delete fallback: flood for the low set, rehome `z` (with
    /// its chord partner) from the rescuer in slot `rescuer_slot` to the
    /// witness (or deflate if Low ran out). Returns `true` when type-1
    /// healing sufficed.
    pub(crate) fn delete_fallback(&mut self, z: (VertexId, VertexId), rescuer_slot: u32) -> bool {
        let rescuer = self.net.graph().id_of_slot(rescuer_slot);
        let spec = self.scheduled_spec();
        let ctx = [self.step_no, z.0 .0, rescuer.0];
        let res = self.flood_scheduled(
            &spec,
            rescuer,
            Some(WalkGoal::Low),
            &ctx,
            spec.flood_retries,
        );
        // Deflate when no Low node was reached at all, or when a
        // *complete* convergecast proves the Low set insufficient; a
        // partial count with a witness in hand degrades to healing to
        // that witness (mirrors `insert_fallback`).
        let proven_dry = res.complete && !self.cfg.low_sufficient(res.matching, res.n);
        if res.witness.is_none() || proven_dry {
            self.walk_stats.type2 += 1;
            crate::type2_simple::deflate(self, rescuer);
            return false;
        }
        let w = res.witness.expect("checked above");
        self.fault_stats.heal_fallbacks += 1;
        self.walk_stats.hits += 1;
        self.move_to_low(z, rescuer_slot, self.slot(w));
        true
    }

    // ------------------------------------------------------------------
    // DHT routing
    // ------------------------------------------------------------------

    /// Run the resolved DHT route (`self.heal.route.npath`) as one
    /// [`RouteOp`] on the message schedule (round-trip for lookups).
    /// Charges the run's makespan and sends; returns `false` when the
    /// route was abandoned (counted in `dht_abandoned`).
    pub(crate) fn route_scheduled(&mut self, spec: &FaultSpec, key: Key, round_trip: bool) -> bool {
        let op_key = splitmix64(
            splitmix64(spec.seed ^ key) ^ (self.net.steps_completed().wrapping_mul(0x9e37)),
        );
        let ops = [RouteOp {
            path: std::mem::take(&mut self.heal.route.npath),
            round_trip,
            op_key,
        }];
        let (results, report) = msim::run_routes(self.net.graph(), spec, &ops);
        let [op] = ops;
        self.heal.route.npath = op.path;
        self.net.charge_rounds(report.makespan);
        self.net.charge_messages(report.messages);
        self.fault_stats.merge(&report.stats);
        let delivered = results[0].status == OpStatus::Delivered;
        if !delivered {
            self.fault_stats.dht_abandoned += 1;
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{invariants, DexConfig};

    /// A spec whose burst window covers every round: every send is lost,
    /// so no flood generation can ever complete.
    fn all_loss() -> FaultSpec {
        FaultSpec::zero()
            .with_burst(1 << 20, 1000)
            .with_seed(0xdead)
    }

    /// Full observable state: (adjacency, Φ entries, p).
    type Snapshot = (
        Vec<(NodeId, Vec<NodeId>)>,
        Vec<(dex_graph::ids::VertexId, NodeId)>,
        u64,
    );

    fn snapshot(dex: &DexNetwork) -> Snapshot {
        let adj = dex
            .graph()
            .nodes()
            .map(|u| (u, dex.graph().neighbors(u).iter().collect()))
            .collect();
        (adj, dex.map.entries_sorted(), dex.cycle.p())
    }

    /// A type-2 attempt that cannot complete must stage nothing: graph,
    /// Φ and DHT byte-identical to the pre-op state.
    #[test]
    fn failed_type2_attempt_rolls_back_byte_identically() {
        let cfg = DexConfig::new(0x7e57_0001).simplified();
        let mut dex = DexNetwork::bootstrap(cfg, 48);
        let root = dex.node_ids()[0];
        dex.dht_insert(root, 7, 0x1234);
        dex.dht_insert(root, 9, 0x5678);
        dex.set_faults(Some(all_loss()));
        let before = snapshot(&dex);
        let dht_before = dex.dht_store().entries_sorted();
        dex.net.begin_step();
        let out = dex.type2_coordinate_attempt(&all_loss(), root, 0);
        dex.net.end_step(StepKind::Insert, RecoveryKind::Type1);
        assert!(!out.complete, "all-loss spec completed a convergecast");
        assert_eq!(snapshot(&dex), before, "failed attempt mutated state");
        assert_eq!(
            dex.dht_store().entries_sorted(),
            dht_before,
            "failed attempt mutated the DHT"
        );
        assert!(dex.fault_stats.floods_partial > 0);
        invariants::assert_ok(&dex);
    }

    /// Growth until n reaches p empties the spare set. Hop-level ARQ
    /// lets the insertion walks complete and miss, and the miss path's
    /// flood closes partial under heavy loss with no witness — proof of
    /// nothing. The step must fall back rather than walk until the retry
    /// cap, and growth must go on through type-2 rebuilds.
    #[test]
    fn growth_past_an_empty_spare_set_terminates_under_loss() {
        let cfg = DexConfig::new(0x7e57_0003).simplified();
        let mut dex = DexNetwork::bootstrap(cfg, 16);
        dex.set_faults(Some(
            FaultSpec::zero()
                .with_loss(250)
                .with_latency(1, 3)
                .with_seed(0x5bad),
        ));
        let mut live = dex.node_ids();
        for i in 0..120u64 {
            let attach = live[(splitmix64(0xa77 ^ i) % live.len() as u64) as usize];
            let u = NodeId(1_000 + i);
            dex.insert(u, attach);
            live.push(u);
        }
        assert!(dex.walk_stats.type2 >= 1, "growth never forced a type-2");
        invariants::assert_ok(&dex);
    }

    /// When every re-initiation times out, the coordinator must count
    /// one rollback per failed attempt, one re-initiation per retry, and
    /// still terminate by escalating to the reliable per-link path.
    #[test]
    fn exhausted_type2_escalates_after_counted_reinitiations() {
        let cfg = DexConfig::new(0x7e57_0002).simplified();
        let mut dex = DexNetwork::bootstrap(cfg, 48);
        let root = dex.node_ids()[0];
        let spec = all_loss();
        dex.set_faults(Some(spec));
        let before = snapshot(&dex);
        dex.net.begin_step();
        dex.type2_coordinate(root);
        let m = dex.net.end_step(StepKind::Insert, RecoveryKind::Type1);
        assert_eq!(
            dex.fault_stats.type2_rollbacks,
            spec.type2_retries as u64 + 1
        );
        assert_eq!(
            dex.fault_stats.type2_reinitiations,
            spec.type2_retries as u64
        );
        // The escalated announcement is reliable: it still reached every
        // node, and the coordination itself left the structure untouched.
        assert!(m.rounds > 0 && m.messages > 0);
        assert_eq!(snapshot(&dex), before);
        invariants::assert_ok(&dex);
    }
}
