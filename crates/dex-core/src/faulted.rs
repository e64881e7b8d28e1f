//! Fault-injected execution: type-1 healing walks and DHT routing on
//! the message-level simulator ([`dex_sim::msim`]).
//!
//! With a [`FaultSpec`] installed ([`DexNetwork::set_faults`]), every
//! type-1 walk and every DHT route runs as actual scheduled messages —
//! subject to loss, latency skew and partitions — instead of the
//! centralized fast path. The adapter preserves the protocol shape of
//! each centralized heal loop exactly (flood-once vs flood-per-miss,
//! load-update batching, RNG stream keying), so a **zero** fault spec is
//! bit-identical to running with no spec at all: same end state, same
//! per-step rounds and messages (`tests/msim_diff.rs` enforces this at
//! several thread counts).
//!
//! Under real faults, three robustness layers engage:
//!
//! 1. **transport retries** — inside the simulator, a lost token fires
//!    its timeout and the operation relaunches with deterministic
//!    exponential backoff, up to the spec's retry budget (each
//!    re-initiation draws a fresh RNG stream keyed by the retry index);
//! 2. **heal fallback** — a heal step whose walks keep getting lost
//!    (more than `fallback_after` abandoned walks) stops walking and
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
//! partial count (e.g. concluding the spare set ran dry and inflating)
//! is the protocol's honest degradation, never an unsoundness: every
//! path still terminates with the invariants intact.
//!
//! Type-2 rebuilds coordinate on the schedule too
//! ([`DexNetwork::type2_coordinate`]): the announcement flood's
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
use crate::dex::DexNetwork;
use crate::dht::{hash_to_vertex, Key};
use dex_graph::ids::{NodeId, VertexId};
use dex_sim::flood::flood_count_with;
use dex_sim::msim::{self, FaultSpec, FaultStats, OpStatus, RouteOp, WalkOp};
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

/// What a faulted walk is searching for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkGoal {
    /// A node in Spare (insertion healing).
    Spare,
    /// A node in Low (deletion healing).
    Low,
}

/// Outcome of one faulted walk attempt.
struct FaultedWalk {
    /// Accepting node, if the walk hit.
    hit: Option<NodeId>,
    /// The walk was abandoned: every transport retry lost its token.
    /// (`false` + `hit: None` is a genuine protocol miss.)
    lost: bool,
}

impl DexNetwork {
    /// Install (or clear) the fault model. While set, type-1 walks and
    /// DHT routing run on the message-level simulator (see the module
    /// docs). Requires simplified mode with no staggered operation in
    /// progress (the staggered machinery assumes one event per step).
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

    /// Run one healing walk on the message schedule. `ctx` is exactly
    /// the context the centralized path would key its stream with;
    /// generation 0 replays that stream, so at zero faults the outcome
    /// (hit, hops, charge) is bit-identical to
    /// [`dex_sim::tokens::random_walk_search`].
    fn walk_faulted(
        &mut self,
        start: NodeId,
        exclude: Option<NodeId>,
        goal: WalkGoal,
        purpose: Purpose,
        ctx: &[u64],
    ) -> FaultedWalk {
        let spec = self.faults.expect("walk_faulted without a fault spec");
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
            let accept = move |w: NodeId| match goal {
                WalkGoal::Spare => map.is_spare(w),
                WalkGoal::Low => map.is_low(w),
            };
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
            msim::run_walks(g, &spec, &ops, accept, mk_rng, self.heal_threads)
        };
        self.net.charge_rounds(report.makespan);
        self.net.charge_messages(report.messages);
        self.fault_stats.merge(&report.stats);
        let r = &results[0];
        FaultedWalk {
            hit: r.hit,
            lost: r.status == OpStatus::Lost,
        }
    }

    // ------------------------------------------------------------------
    // Floods & type-2 coordination
    // ------------------------------------------------------------------

    /// Run one flood-aggregate on the message schedule, charging its
    /// makespan and sends. At zero faults the outcome and charges are
    /// bit-identical to [`flood_count_with`]; under faults the result
    /// may be a partial count with the best partial witness.
    fn flood_faulted_inner(
        &mut self,
        root: NodeId,
        goal: Option<WalkGoal>,
        ctx: &[u64],
        retries: u32,
    ) -> msim::FloodOutcome {
        let spec = self.faults.expect("flood_faulted without a fault spec");
        let op_key = op_key_for(spec.seed, FLOOD_WORD, ctx);
        let (outcome, report) = {
            let g = self.net.graph();
            let map = &self.map;
            let pred = move |w: NodeId| match goal {
                Some(WalkGoal::Spare) => map.is_spare(w),
                Some(WalkGoal::Low) => map.is_low(w),
                None => false,
            };
            msim::run_flood(g, &spec, root, pred, op_key, retries, self.heal_threads)
        };
        self.net.charge_rounds(report.makespan);
        self.net.charge_messages(report.messages);
        self.fault_stats.merge(&report.stats);
        outcome
    }

    /// Heal-path flood (computeSpare/computeLow) with the spec's
    /// re-flood budget.
    fn flood_faulted(&mut self, root: NodeId, goal: WalkGoal, ctx: &[u64]) -> msim::FloodOutcome {
        let retries = self
            .faults
            .expect("flood_faulted without a fault spec")
            .flood_retries;
        self.flood_faulted_inner(root, Some(goal), ctx, retries)
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
        root: NodeId,
        attempt: u32,
    ) -> msim::FloodOutcome {
        self.flood_faulted_inner(
            root,
            None,
            &[self.step_no, root.0, TYPE2_WORD | attempt as u64],
            0,
        )
    }

    /// Coordinate a type-2 rebuild (inflate/deflate) on the message
    /// schedule. The initiator releases the rebuild — the commit rides
    /// the first Phase-1 message wave — only after an attempt's
    /// convergecast completes. An incomplete attempt rolls back cleanly
    /// (counted in `type2_rollbacks`), waits out a deterministic
    /// exponential backoff, and re-initiates (`type2_reinitiations`) up
    /// to the spec's `type2_retries`; when the budget exhausts, the
    /// announcement escalates to per-link ARQ (reliable, charged at the
    /// centralized flood cost), so a type-2 always completes.
    pub(crate) fn type2_coordinate(&mut self, root: NodeId) {
        let spec = self.faults.expect("type2_coordinate without a fault spec");
        for attempt in 0..=spec.type2_retries {
            let out = self.type2_coordinate_attempt(root, attempt);
            if out.complete {
                return;
            }
            self.fault_stats.type2_rollbacks += 1;
            if attempt < spec.type2_retries {
                self.fault_stats.type2_reinitiations += 1;
                // Deterministic exponential backoff: the failed attempt
                // already charged one timeout window (its close round);
                // the initiator idles for 2^min(a,3) − 1 more of them
                // before re-initiating.
                let wait = out.close_round * ((1u64 << attempt.min(3)) - 1);
                self.net.charge_rounds(wait);
            }
        }
        // Budget exhausted: reliable announcement (per-link ARQ).
        flood_count_with(&mut self.net, root, |_| false, &mut self.flood_scratch);
    }

    // ------------------------------------------------------------------
    // Insertion healing (mirrors `insert_normal` / `heal_one_insert`)
    // ------------------------------------------------------------------

    /// Faulted single-insert recovery: same shape as `insert_normal`
    /// (flood at most once per step, then keep retrying walks), plus the
    /// lost-walk fallback.
    pub(crate) fn insert_normal_faulted(&mut self, u: NodeId, v: NodeId) -> RecoveryKind {
        let spec = self.faults.expect("faulted heal without a fault spec");
        let mut flooded = false;
        let mut lost = 0u32;
        for attempt in 0..self.cfg.max_walk_retries {
            self.walk_stats.attempts += 1;
            let out = self.walk_faulted(
                v,
                Some(u),
                WalkGoal::Spare,
                Purpose::InsertWalk,
                &[self.step_no, attempt],
            );
            if let Some(w) = out.hit {
                self.walk_stats.hits += 1;
                self.give_vertex_to_new_node(w, u, v);
                return RecoveryKind::Type1;
            }
            if out.lost {
                lost += 1;
                if lost > spec.fallback_after {
                    return match self.insert_fallback(u, v) {
                        true => RecoveryKind::Type1,
                        false => RecoveryKind::InflateSimple,
                    };
                }
                continue;
            }
            self.walk_stats.misses += 1;
            if flooded {
                continue;
            }
            flooded = true;
            let res = self.flood_faulted(v, WalkGoal::Spare, &[self.step_no, attempt]);
            let n_prev = res.n.saturating_sub(1);
            if !self.cfg.spare_sufficient(res.matching, n_prev) {
                // Only a *complete* convergecast proves the spare set is
                // dry: a partial count is a lower bound, and inflating on
                // it compounds under sustained loss until the mapping can
                // no longer balance. Partial + insufficient degrades to
                // the best partial witness; no witness → keep walking.
                if res.complete {
                    self.walk_stats.type2 += 1;
                    crate::type2_simple::inflate(self, Some((u, v)));
                    return RecoveryKind::InflateSimple;
                }
                if let Some(w) = res.witness {
                    self.fault_stats.heal_fallbacks += 1;
                    self.walk_stats.hits += 1;
                    self.give_vertex_to_new_node(w, u, v);
                    return RecoveryKind::Type1;
                }
            }
        }
        panic!(
            "faulted insertion walk failed {} times (n={}, p={})",
            self.cfg.max_walk_retries,
            self.n(),
            self.cycle.p()
        );
    }

    /// Faulted batch-insert healing: same shape as `heal_one_insert`
    /// (flood on every miss). Returns whether type-2 was needed.
    pub(crate) fn heal_one_insert_faulted(&mut self, u: NodeId, v: NodeId) -> bool {
        let spec = self.faults.expect("faulted heal without a fault spec");
        let mut lost = 0u32;
        for attempt in 0..self.cfg.max_walk_retries {
            self.walk_stats.attempts += 1;
            let out = self.walk_faulted(
                v,
                Some(u),
                WalkGoal::Spare,
                Purpose::InsertWalk,
                &[self.step_no, u.0, attempt],
            );
            if let Some(w) = out.hit {
                self.walk_stats.hits += 1;
                self.give_vertex_to_new_node(w, u, v);
                return false;
            }
            if out.lost {
                lost += 1;
                if lost > spec.fallback_after {
                    return !self.insert_fallback(u, v);
                }
                continue;
            }
            self.walk_stats.misses += 1;
            let res = self.flood_faulted(v, WalkGoal::Spare, &[self.step_no, u.0, attempt]);
            if !self
                .cfg
                .spare_sufficient(res.matching, res.n.saturating_sub(1))
            {
                // Same partial-evidence rule as `insert_normal_faulted`:
                // only a complete convergecast may trigger inflation.
                if res.complete {
                    self.walk_stats.type2 += 1;
                    crate::type2_simple::inflate(self, Some((u, v)));
                    return true;
                }
                if let Some(w) = res.witness {
                    self.fault_stats.heal_fallbacks += 1;
                    self.walk_stats.hits += 1;
                    self.give_vertex_to_new_node(w, u, v);
                    return false;
                }
            }
        }
        panic!("faulted batch insertion starved (n={})", self.n());
    }

    /// Walk-free insert fallback after repeated walk loss: flood for the
    /// spare set, heal to its witness (or inflate if spares ran out).
    /// Returns `true` when type-1 healing sufficed.
    fn insert_fallback(&mut self, u: NodeId, v: NodeId) -> bool {
        let res = self.flood_faulted(v, WalkGoal::Spare, &[self.step_no, u.0, FLOOD_WORD]);
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
            return false;
        }
        // Partial flood: heal to the best partial witness. When not even
        // one spare was reachable, degrade to a local donation — the
        // attach point, or failing that its least-loaded direct neighbor
        // (one ARQ-reliable link away), hands `u` one of its vertices.
        // Only a neighborhood uniformly down to its last vertex — the
        // local signature of n ≈ p — still escalates to inflation.
        let donor = res.witness.or_else(|| {
            if self.map.load(v) >= 2 {
                return Some(v);
            }
            self.net
                .graph()
                .neighbors(v)
                .iter()
                .filter(|&w| self.map.load(w) >= 2)
                .min_by_key(|&w| (self.map.load(w), w))
        });
        let Some(w) = donor else {
            self.walk_stats.type2 += 1;
            crate::type2_simple::inflate(self, Some((u, v)));
            return false;
        };
        self.fault_stats.heal_fallbacks += 1;
        self.walk_stats.hits += 1;
        self.give_vertex_to_new_node(w, u, v);
        true
    }

    // ------------------------------------------------------------------
    // Deletion healing (mirrors `delete_normal_core` /
    // `heal_one_delete_core`)
    // ------------------------------------------------------------------

    /// Faulted single-delete recovery: same shape as
    /// `delete_normal_core` (re-flood after every miss; batched load
    /// updates at the end), plus the lost-walk fallback.
    pub(crate) fn delete_normal_core_faulted(
        &mut self,
        rescuer: NodeId,
        zs: &[VertexId],
        touched: &mut Vec<NodeId>,
    ) -> RecoveryKind {
        let spec = self.faults.expect("faulted heal without a fault spec");
        debug_assert!(!zs.is_empty(), "every node simulates >= 1 vertex");
        crate::fabric::adopt_vertices(
            &mut self.net,
            &mut self.map,
            &self.cycle,
            zs,
            rescuer,
            &mut self.heal.insts,
        );
        self.net.charge_messages(3 * zs.len() as u64);
        self.net.charge_rounds(1);
        touched.push(rescuer);
        for (i, &z) in zs.iter().enumerate() {
            let mut attempt = 0;
            let mut lost = 0u32;
            loop {
                self.walk_stats.attempts += 1;
                let out = self.walk_faulted(
                    rescuer,
                    None,
                    WalkGoal::Low,
                    Purpose::DeleteWalk,
                    &[self.step_no, i as u64, attempt],
                );
                if let Some(w) = out.hit {
                    self.walk_stats.hits += 1;
                    self.move_to_low(z, rescuer, w, Some(touched));
                    break;
                }
                if out.lost {
                    lost += 1;
                    if lost > spec.fallback_after {
                        match self.delete_fallback(z, rescuer, Some(touched)) {
                            true => break,
                            false => return RecoveryKind::DeflateSimple,
                        }
                    }
                } else {
                    self.walk_stats.misses += 1;
                    let res = self.flood_faulted(
                        rescuer,
                        WalkGoal::Low,
                        &[self.step_no, i as u64, attempt],
                    );
                    if !self.cfg.low_sufficient(res.matching, res.n) {
                        // Deflate only on a complete convergecast — a
                        // partial count undercounts the Low set, and a
                        // spurious deflation can shrink p below what the
                        // surviving nodes need. Partial + witness heals
                        // to the witness; no witness → keep walking.
                        if res.complete {
                            self.walk_stats.type2 += 1;
                            crate::type2_simple::deflate(self, rescuer);
                            return RecoveryKind::DeflateSimple;
                        }
                        if let Some(w) = res.witness {
                            self.fault_stats.heal_fallbacks += 1;
                            self.walk_stats.hits += 1;
                            self.move_to_low(z, rescuer, w, Some(touched));
                            break;
                        }
                    }
                }
                attempt += 1;
                assert!(
                    attempt < self.cfg.max_walk_retries,
                    "faulted deletion walk failed {} times",
                    self.cfg.max_walk_retries
                );
            }
        }
        touched.sort_unstable();
        touched.dedup();
        self.charge_load_updates(touched);
        RecoveryKind::Type1
    }

    /// Faulted batch-delete healing: same shape as
    /// `heal_one_delete_core` (no load-update batching; deflation
    /// rehomes the remaining vertices). Returns whether type-2 was
    /// needed.
    pub(crate) fn heal_one_delete_core_faulted(
        &mut self,
        victim: NodeId,
        rescuer: NodeId,
        zs: &[VertexId],
    ) -> bool {
        let spec = self.faults.expect("faulted heal without a fault spec");
        crate::fabric::adopt_vertices(
            &mut self.net,
            &mut self.map,
            &self.cycle,
            zs,
            rescuer,
            &mut self.heal.insts,
        );
        self.net.charge_messages(3 * zs.len() as u64);
        self.net.charge_rounds(1);
        let mut used_type2 = false;
        for (i, &z) in zs.iter().enumerate() {
            let mut attempt = 0u64;
            let mut lost = 0u32;
            loop {
                self.walk_stats.attempts += 1;
                let out = self.walk_faulted(
                    rescuer,
                    None,
                    WalkGoal::Low,
                    Purpose::DeleteWalk,
                    &[self.step_no, victim.0, i as u64, attempt],
                );
                if let Some(w) = out.hit {
                    self.walk_stats.hits += 1;
                    self.move_to_low(z, rescuer, w, None);
                    break;
                }
                if out.lost {
                    lost += 1;
                    if lost > spec.fallback_after {
                        match self.delete_fallback(z, rescuer, None) {
                            true => break,
                            false => {
                                used_type2 = true;
                                break;
                            }
                        }
                    }
                } else {
                    self.walk_stats.misses += 1;
                    let res = self.flood_faulted(
                        rescuer,
                        WalkGoal::Low,
                        &[self.step_no, victim.0, i as u64, attempt],
                    );
                    if !self.cfg.low_sufficient(res.matching, res.n) {
                        // Same partial-evidence rule as the single-delete
                        // path: only a complete convergecast may deflate.
                        if res.complete {
                            self.walk_stats.type2 += 1;
                            crate::type2_simple::deflate(self, rescuer);
                            used_type2 = true;
                            break;
                        }
                        if let Some(w) = res.witness {
                            self.fault_stats.heal_fallbacks += 1;
                            self.walk_stats.hits += 1;
                            self.move_to_low(z, rescuer, w, None);
                            break;
                        }
                    }
                }
                attempt += 1;
                assert!(
                    attempt < self.cfg.max_walk_retries,
                    "faulted batch deletion starved"
                );
            }
            if used_type2 {
                break; // remaining vertices were redistributed by deflate
            }
        }
        used_type2
    }

    /// Move vertex `z` from `rescuer` to the Low node `w` (no-op when the
    /// rescuer itself was picked), recording `w` in `touched` when the
    /// caller batches load updates.
    fn move_to_low(
        &mut self,
        z: VertexId,
        rescuer: NodeId,
        w: NodeId,
        touched: Option<&mut Vec<NodeId>>,
    ) {
        if w != rescuer {
            crate::fabric::move_vertices(
                &mut self.net,
                &mut self.map,
                &self.cycle,
                &[z],
                w,
                &mut self.heal.insts,
            );
            self.net.charge_messages(4);
            self.net.charge_rounds(1);
            if let Some(t) = touched {
                t.push(w);
            }
        }
    }

    /// Walk-free delete fallback after repeated walk loss: flood for the
    /// low set, rehome `z` to its witness (or deflate if Low ran out).
    /// Returns `true` when type-1 healing sufficed.
    fn delete_fallback(
        &mut self,
        z: VertexId,
        rescuer: NodeId,
        touched: Option<&mut Vec<NodeId>>,
    ) -> bool {
        let res = self.flood_faulted(rescuer, WalkGoal::Low, &[self.step_no, z.0, rescuer.0]);
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
        self.move_to_low(z, rescuer, w, touched);
        true
    }

    // ------------------------------------------------------------------
    // DHT routing
    // ------------------------------------------------------------------

    /// Route a DHT message on the actual schedule: resolve the virtual
    /// shortest path exactly as the centralized `route_dht` does, then
    /// run the physical hop sequence as one [`RouteOp`] (round-trip for
    /// lookups). Charges the run's makespan and sends; returns `false`
    /// when the route was abandoned (counted in `dht_abandoned`).
    pub(crate) fn route_dht_faulted(&mut self, from: NodeId, key: Key, round_trip: bool) -> bool {
        let spec = self.faults.expect("faulted route without a fault spec");
        let target = hash_to_vertex(key, self.cycle.p());
        let start = *self
            .map
            .sim(from)
            .iter()
            .min()
            .expect("initiator simulates a vertex");
        let route = &mut self.heal.route;
        self.cycle
            .shortest_path_with(start, target, &mut route.bfs, &mut route.vpath);
        // Physical node path: the owner sequence of the virtual path with
        // consecutive duplicates collapsed (same-node virtual hops are
        // free local computation).
        let mut path: Vec<NodeId> = Vec::with_capacity(route.vpath.len());
        path.push(self.map.owner_of(route.vpath[0]));
        for &zv in &route.vpath[1..] {
            let cur = self.map.owner_of(zv);
            if cur != *path.last().expect("path starts non-empty") {
                debug_assert!(
                    self.net
                        .graph()
                        .contains_edge(*path.last().expect("non-empty"), cur),
                    "virtual path step not physical"
                );
                path.push(cur);
            }
        }
        let op_key = splitmix64(
            splitmix64(spec.seed ^ key) ^ (self.net.steps_completed().wrapping_mul(0x9e37)),
        );
        let ops = [RouteOp {
            path,
            round_trip,
            op_key,
        }];
        let (results, report) = msim::run_routes(self.net.graph(), &spec, &ops, self.heal_threads);
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
        let out = dex.type2_coordinate_attempt(root, 0);
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
