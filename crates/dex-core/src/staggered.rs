//! Worst-case type-2 recovery: coordinator-driven staggered inflation and
//! deflation (paper, Sect. 4.4, Algorithms 4.7–4.9).
//!
//! Instead of replacing the virtual graph in one expensive step, the
//! replacement is spread over Θ(n) adversarial steps. Each step the
//! coordinator (the simulator of vertex 0) activates a *window* of O(1)
//! old vertices:
//!
//! * **Phase 1 (staging)** — windows sweep the old cycle in ascending
//!   order; each old vertex generates its piece of the new cycle, the
//!   range the operation's [`Plan`] gives it (its inflation cloud, Eq. 7,
//!   or, if it dominates, its deflation image). New-cycle edges whose far
//!   endpoint is not yet generated are realized as **intermediate edges**
//!   to the node owning the far endpoint's *source* old vertex. When the
//!   far side stages, the intermediate edge is upgraded in place.
//! * **Phase 2 (dropping)** — windows sweep again, discarding old-cycle
//!   edges and vertices; when the cursor completes, the network atomically
//!   switches `Φ` and `Z` to the new cycle.
//!
//! Because staging is keyed to *vertices* (not nodes), type-1 churn during
//! an operation composes cleanly: a transferred vertex carries its staging
//! obligations to its new owner, and intermediate edges follow the vertex
//! they point at.
//!
//! Deflation additionally runs the *credit* protocol: every node is
//! guaranteed one vertex of the smaller cycle (its reserve, one per node
//! slot); nodes whose old vertices yield nothing walk to a node with
//! spare credit and either receive a staged vertex or a *preassignment* of
//! a not-yet-staged one (the paper's "generate such vertices on the fly").
//!
//! The operation is built from type-1's primitives, on node slots
//! throughout. Every walk — rebalancing, contention, a newcomer's, a
//! rescuer's — is one call of the walk-with-budget leaf
//! (`DexNetwork::walk_central`). Every edge edit goes through one
//! enumerator of edge instances (`Inst`: old remnant, overlay,
//! intermediate) and one detach/attach pair: staging attaches, dropping
//! detaches, and every move of vertices between nodes — a type-1 heal's,
//! a donation, a rescuer's adoption — is one `rehome`.
//!
//! An operation starts at [`begin`] with its plan (either kind); the
//! coordinator's entry points take it out of `DexNetwork::stag` for the
//! call and hand `&mut StaggeredOp` down explicitly; nothing they call on
//! the network reads `stag`.

use crate::config::RecoveryMode;
use crate::dex::DexNetwork;
use crate::fabric;
use crate::mapping::VirtualMapping;
use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::VertexId;
use dex_graph::pcycle::resize::{Kind, Plan};
use dex_graph::pcycle::PCycle;
use dex_sim::rng::Purpose;
use std::ops::Range;

/// An in-progress staggered type-2 operation.
pub struct StaggeredOp {
    /// Which new vertices each old vertex generates.
    plan: Plan,
    new_cycle: PCycle,
    /// Owners of already-staged new vertices.
    staged_map: VirtualMapping,
    /// Old vertices `x < stage_cursor` have been processed (Phase 1). A
    /// node still holding an old vertex `≥ stage_cursor` has work ahead.
    stage_cursor: u64,
    /// Old vertices `x < drop_cursor` have been discarded (Phase 2).
    drop_cursor: u64,
    /// Old vertices activated per step (O(1) in n).
    window: u64,
    // --- deflation-only state, indexed by node slot like Φ ---
    /// Each node's reserve: the one staged vertex it never gives away.
    reserve: Vec<Option<VertexId>>,
    /// Future owners' slots of not-yet-staged new vertices (credit
    /// donations).
    preassigned: FxHashMap<u64, u32>,
    /// Per node, the entries of `preassigned` naming it.
    preassigned_count: Vec<u32>,
}

/// `v[slot]`, growing `v` with defaults to reach it.
fn at_mut<T: Clone + Default>(v: &mut Vec<T>, slot: u32) -> &mut T {
    let i = slot as usize;
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

impl StaggeredOp {
    fn new(dex: &DexNetwork, plan: Plan) -> Self {
        StaggeredOp {
            plan,
            new_cycle: PCycle::new(plan.p_new()),
            staged_map: VirtualMapping::with_caller_slots(
                dex.cfg.zeta,
                0,
                dex.net.graph().slot_bound(),
            ),
            stage_cursor: 0,
            drop_cursor: 0,
            window: window_size(plan.p_old(), dex.cfg.theta_inv, dex.n()),
            reserve: Vec::new(),
            preassigned: FxHashMap::default(),
            preassigned_count: Vec::new(),
        }
    }

    /// Is this an inflation?
    pub fn is_inflation(&self) -> bool {
        self.plan.kind() == Kind::Inflation
    }

    /// Phase 1 still running?
    pub fn staging(&self) -> bool {
        self.stage_cursor < self.plan.p_old()
    }

    /// Staged (new-cycle) load of the node in `slot`.
    pub fn staged_load_at(&self, slot: u32) -> u64 {
        self.staged_map.load_at(slot)
    }

    /// Φ of the new cycle so far (slotted by the graph's arena, like the
    /// live one it replaces at switchover).
    pub(crate) fn staged_map(&self) -> &VirtualMapping {
        &self.staged_map
    }

    /// The old vertices not yet dropped — the ones the live Φ holds.
    pub(crate) fn old_live(&self) -> Range<u64> {
        self.drop_cursor..self.plan.p_old()
    }

    /// The staged new vertices, `0..staged_end()`: the plan's ranges tile
    /// the new cycle in order, so the stage cursor has generated a prefix.
    pub(crate) fn staged_end(&self) -> u64 {
        self.stage_cursor
            .checked_sub(1)
            .map_or(0, |x| self.plan.generated_by(x).end)
    }

    /// Is new vertex `y` staged yet?
    fn staged(&self, y: u64) -> bool {
        self.plan.source(y) < self.stage_cursor
    }

    /// Has old vertex `x` been dropped (Phase 2)?
    fn dropped(&self, x: u64) -> bool {
        x < self.drop_cursor
    }

    /// The reserve of the node in `slot`.
    fn reserve_at(&self, slot: u32) -> Option<VertexId> {
        self.reserve.get(slot as usize).copied().flatten()
    }

    /// The largest staged vertex the node in `slot` may give away: any but
    /// its reserve (an inflation has none).
    fn giveable_at(&self, slot: u32) -> Option<u64> {
        let reserve = self.reserve_at(slot);
        let sim = self.staged_map.sim_at(slot).iter();
        sim.filter(|&&z| Some(z) != reserve).map(|z| z.0).max()
    }

    /// Preassignments promised to the node in `slot`.
    fn preassigned_at(&self, slot: u32) -> u64 {
        self.preassigned_count
            .get(slot as usize)
            .map_or(0, |&c| c as u64)
    }

    /// Record `y` as the reserve of the node in `slot`, which has none.
    fn set_reserve(&mut self, slot: u32, y: u64) {
        let r = at_mut(&mut self.reserve, slot);
        debug_assert!(r.is_none(), "slot {slot} already holds reserve {r:?}");
        *r = Some(VertexId(y));
    }

    // ------------------------------------------------------------------
    // Edge instances
    // ------------------------------------------------------------------

    /// Both endpoints' slots of one instance: a staged vertex's owner from
    /// the staged map, an old vertex's from the live Φ `map`.
    fn endpoints(&self, map: &VirtualMapping, inst: Inst) -> (u32, u32) {
        let old = |x: u64| map.owner_slot_of(VertexId(x));
        let new = |y: u64| self.staged_map.owner_slot_of(VertexId(y));
        match inst {
            Inst::Old(a, b) => (old(a), old(b)),
            Inst::Real(a, b) => (new(a), new(b)),
            Inst::Loop(y) => (new(y), new(y)),
            Inst::Inter(y, x) => (new(y), old(x)),
        }
    }

    /// The instances incident to the live old vertices `old` and the
    /// staged vertices `staged`, each undirected instance exactly once:
    /// the old remnant ([`fabric::incident_edges_into`] minus the instances
    /// whose far endpoint is dropped), the overlay of `staged`, then the
    /// intermediate edges other staged vertices point at `old`. A move
    /// detaches and attaches them in this order, which fixes where each
    /// lands in its rows, and with that every later walk.
    fn incident(&self, cycle_old: &PCycle, old: &[VertexId], staged: &[u64]) -> Vec<Inst> {
        debug_assert!(old.iter().all(|z| !self.dropped(z.0)));
        let chords: Vec<VertexId> = old.iter().map(|&z| cycle_old.chord(z)).collect();
        let mut remnant = Vec::new();
        fabric::incident_edges_into(cycle_old, old, &chords, &mut remnant);
        let mut out: Vec<Inst> = remnant
            .into_iter()
            .filter(|&(a, b)| !self.dropped(a.0) && !self.dropped(b.0))
            .map(|(a, b)| Inst::Old(a.0, b.0))
            .collect();

        let p = self.new_cycle.p();
        let in_set = |v: u64| staged.contains(&v);
        for &y in staged {
            debug_assert!(self.staged(y));
            let succ = (y + 1) % p;
            if self.staged(succ) {
                out.push(Inst::Real(y, succ));
            } else {
                out.push(Inst::Inter(y, self.plan.source(succ)));
            }
            let pred = (y + p - 1) % p;
            if self.staged(pred) {
                if !in_set(pred) {
                    out.push(Inst::Real(pred, y));
                }
            } else {
                out.push(Inst::Inter(y, self.plan.source(pred)));
            }
            let chord = self.new_cycle.chord(VertexId(y)).0;
            if chord == y {
                out.push(Inst::Loop(y));
            } else if self.staged(chord) {
                if !in_set(chord) || y < chord {
                    out.push(Inst::Real(y.min(chord), y.max(chord)));
                }
            } else {
                out.push(Inst::Inter(y, self.plan.source(chord)));
            }
        }

        for &z in old.iter().filter(|z| z.0 >= self.stage_cursor) {
            self.for_each_inter_source(z.0, |y| {
                if !in_set(y) {
                    out.push(Inst::Inter(y, z.0));
                }
            });
        }
        out
    }

    /// Staged vertices whose intermediate edges point at the unprocessed
    /// old vertex `x`, one call of `f` per instance (a repeated vertex
    /// means parallel instances): the staged cycle neighbours and chord
    /// partners of the vertices `x` will generate.
    fn for_each_inter_source(&self, x: u64, mut f: impl FnMut(u64)) {
        debug_assert!(x >= self.stage_cursor);
        let p = self.new_cycle.p();
        for t in self.plan.generated_by(x) {
            let c = self.new_cycle.chord(VertexId(t)).0;
            let chord = (c != t).then_some(c);
            for y in [(t + p - 1) % p, (t + 1) % p].into_iter().chain(chord) {
                if self.staged(y) {
                    f(y);
                }
            }
        }
    }

    /// Append the overlay's entries of the row of the node in `slot`, by
    /// the row conventions of `fabric::ContractionRows` (an instance with
    /// both ends in the node is one entry): the instances of its staged
    /// vertices, then the intermediate edges other nodes' staged vertices
    /// point at its unprocessed old vertices. `map` is the live Φ.
    pub(crate) fn push_overlay_row(&self, map: &VirtualMapping, slot: u32, row: &mut Vec<u32>) {
        let p = self.new_cycle.p();
        let staged_slot = |y: u64| self.staged_map.owner_slot_of(VertexId(y));
        // Where an instance from a staged vertex toward `t` lands: `t`'s
        // owner, or the intermediate edge's old source's owner.
        let far = |t: u64| {
            if self.staged(t) {
                staged_slot(t)
            } else {
                map.owner_slot_of(VertexId(self.plan.source(t)))
            }
        };
        for &y in self.staged_map.sim_at(slot) {
            let y = y.0;
            row.push(far((y + 1) % p));
            let pred = (y + p - 1) % p;
            if !self.staged(pred) || staged_slot(pred) != slot {
                row.push(far(pred));
            }
            let chord = self.new_cycle.chord(VertexId(y)).0;
            if chord == y {
                row.push(slot);
            } else if !self.staged(chord) || staged_slot(chord) != slot || y < chord {
                row.push(far(chord));
            }
        }
        for &x in map.sim_at(slot) {
            if x.0 >= self.stage_cursor {
                self.for_each_inter_source(x.0, |y| {
                    let s = staged_slot(y);
                    if s != slot {
                        row.push(s);
                    }
                });
            }
        }
    }

    /// A deflation's reserve at `slot` is a staged vertex the node there
    /// holds. With one reserve per node, `credit(w) ≥ 1` means `w` holds a
    /// staged vertex beyond its reserve or has a future one to promise,
    /// so [`donate`] always has a unit to give.
    pub(crate) fn check_reserve(&self, slot: u32) -> Result<(), String> {
        match self.reserve_at(slot) {
            Some(y)
                if self.staged_map.owner(y).is_none()
                    || self.staged_map.owner_slot_of(y) != slot =>
            {
                Err(format!(
                    "reserve {y} of node slot {slot} is not a staged vertex it holds"
                ))
            }
            _ => Ok(()),
        }
    }
}

/// One edge instance of the network during an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inst {
    /// Old-remnant edge between two live old vertices.
    Old(u64, u64),
    /// Both endpoints staged (new-cycle edge).
    Real(u64, u64),
    /// Self-loop at a staged vertex.
    Loop(u64),
    /// Intermediate edge: staged vertex → owner of an old source vertex.
    Inter(u64, u64),
}

/// Take the instances `insts` off the network, each between the nodes
/// that hold its endpoints now.
fn detach(dex: &mut DexNetwork, op: &StaggeredOp, insts: &[Inst]) {
    for &inst in insts {
        let (a, b) = op.endpoints(&dex.map, inst);
        assert!(
            dex.net.remove_edge_slots(a, b),
            "missing instance {inst:?} at slots ({a},{b})"
        );
    }
}

/// Put the instances `insts` on the network, each between the nodes that
/// hold its endpoints now.
fn attach(dex: &mut DexNetwork, op: &StaggeredOp, insts: &[Inst]) {
    for &inst in insts {
        let (a, b) = op.endpoints(&dex.map, inst);
        dex.net.add_edge_slots(a, b);
    }
}

/// Move the live old vertices `old` and the staged vertices `staged` to
/// the node in slot `to` with every instance incident to them
/// ([`StaggeredOp::incident`]): detach the instances, retarget both maps,
/// attach them again. `wired` is `false` for a deletion's rescuer: the
/// victim took the instances with it, so there is nothing to detach.
/// Uncharged: each caller charges its own handoff.
fn rehome(
    dex: &mut DexNetwork,
    op: &mut StaggeredOp,
    old: &[VertexId],
    staged: &[u64],
    to: u32,
    wired: bool,
) {
    let insts = op.incident(&dex.cycle, old, staged);
    if wired {
        detach(dex, op, &insts);
    }
    let id = dex.net.graph().id_of_slot(to);
    for &z in old {
        dex.map.transfer_at(z, id, to);
    }
    for &y in staged {
        op.staged_map.transfer_at(VertexId(y), id, to);
    }
    attach(dex, op, &insts);
}

/// One vertex handoff: the vertex and its neighbours' owners in O(1)
/// messages, one round.
fn charge_handoff(dex: &mut DexNetwork) {
    dex.net.charge_messages(4);
    dex.net.charge_rounds(1);
}

// ======================================================================
// Coordinator driver
// ======================================================================

/// Per-step coordinator bookkeeping (Algorithm 4.7): charge the counter
/// update route, advance any in-progress operation by one window, or fire
/// a new operation when a threshold is crossed.
pub fn after_step(dex: &mut DexNetwork) {
    debug_assert_eq!(dex.cfg.mode, RecoveryMode::Staggered);
    // The recovering node routes its counter delta to the coordinator.
    charge_coordinator_route(dex);

    if let Some(op) = dex.stag.take() {
        advance(dex, op);
        return;
    }
    let n = dex.n();
    let spare = dex.map.spare_count();
    let low = dex.map.low_count();
    if dex.cfg.staggered_trigger(spare, n) {
        begin(dex, Plan::inflation(dex.cycle.p()));
    } else if dex.cfg.staggered_trigger(low, n) {
        // A constant-size network has no smaller cycle: it stays put.
        if let Some(plan) = Plan::deflation(dex.cycle.p()) {
            begin(dex, plan);
        }
    }
}

/// Charge one route between a node and the coordinator (the simulator of
/// vertex 0) along a virtual shortest path: O(diam) = O(log p) messages
/// and rounds each way.
fn charge_coordinator_route(dex: &mut DexNetwork) {
    let logp = (64 - dex.cycle.p().leading_zeros() as u64).max(1);
    dex.net.charge_messages(2 * logp);
    dex.net.charge_rounds(2 * logp);
}

fn window_size(p_old: u64, theta_inv: u64, n: usize) -> u64 {
    // Phase 1 must finish within θn steps: window ≥ p·θ⁻¹/n, O(1) in n.
    // An inflation starts when |Spare| < 3θn (`staggered_trigger`), so
    // nearly every node holds one vertex: p/n ≈ 1, a window of ≈ θ⁻¹. A
    // deflation starts when |Low| < 3θn, so nearly every node holds more
    // than 2ζ vertices (`VirtualMapping::is_low_at`): p/n ≈ 2ζ, a window
    // of ≈ 2ζθ⁻¹ old vertices per step (about 1,080 at p/n = 16.6 with
    // the default θ⁻¹ = 64 on the resize trace). `bench_paper`'s
    // `theorem1.resize_rows` record the cost.
    (p_old * theta_inv).div_ceil(n.max(1) as u64).max(1)
}

/// Start the staggered operation `plan` (on the current cycle) and stage
/// its first window.
pub fn begin(dex: &mut DexNetwork, plan: Plan) {
    debug_assert!(dex.stag.is_none());
    debug_assert_eq!(plan.p_old(), dex.cycle.p());
    let op = StaggeredOp::new(dex, plan);
    advance(dex, op);
}

/// Advance the operation by one window (Phase 1 staging or Phase 2
/// dropping), then put it back in `dex.stag`, or switch over when done.
fn advance(dex: &mut DexNetwork, mut op: StaggeredOp) {
    // Activation request routed from the coordinator to the window owners.
    charge_coordinator_route(dex);

    let p_old = op.plan.p_old();
    if op.staging() {
        for _ in 0..op.window {
            let x = op.stage_cursor;
            if x >= p_old {
                break;
            }
            stage_one(dex, &mut op, x);
        }
    } else {
        for _ in 0..op.window {
            let x = op.drop_cursor;
            if x >= p_old {
                break;
            }
            drop_one(dex, &mut op, x);
        }
        if op.drop_cursor >= p_old {
            switchover(dex, op);
            return;
        }
    }
    dex.stag = Some(op);
}

/// Phase 1: process old vertex `x` (stage its generated vertices).
fn stage_one(dex: &mut DexNetwork, op: &mut StaggeredOp, x: u64) {
    let owner = dex.map.owner_slot_of(VertexId(x));

    // Remove intermediate instances that currently point at x: they are
    // about to be upgraded to real new-cycle edges.
    let mut inters = Vec::new();
    op.for_each_inter_source(x, |y| inters.push(Inst::Inter(y, x)));
    detach(dex, op, &inters);

    // Stage the generated vertices.
    let gens: Vec<u64> = op.plan.generated_by(x).collect();
    for &y in &gens {
        let slot = match op.preassigned.remove(&y) {
            Some(s) => {
                op.preassigned_count[s as usize] -= 1;
                s
            }
            None => owner,
        };
        let id = dex.net.graph().id_of_slot(slot);
        op.staged_map.assign_at(VertexId(y), id, slot);
        if !op.is_inflation() && op.staged_map.load_at(slot) == 1 {
            op.set_reserve(slot, y); // the node's reserve
        }
    }
    // Advance the cursor before computing the new instances (the staged()
    // predicate must see the fresh vertices).
    op.stage_cursor = x + 1;
    // Materialize the staged vertices' instances (real edges to staged
    // neighbors, intermediate edges into the unstaged region).
    let insts = op.incident(&dex.cycle, &[], &gens);
    attach(dex, op, &insts);
    dex.net.charge_messages(3 * gens.len() as u64 + 2);
    dex.net.charge_rounds(1);

    if op.is_inflation() {
        // A node holding > 4ζ staged vertices spreads the surplus.
        rebalance_staged(dex, op, owner);
    } else {
        // Contention check for the owner whose old vertices may now all
        // be processed.
        maybe_contend(dex, op, owner);
    }
}

/// Inflation Phase 1 rebalancing (Algorithm 4.8, line 6): while the node
/// in slot `u` holds more than 4ζ staged vertices, walk the real network
/// for nodes with staged load < 4ζ and hand surplus vertices over. One
/// attempt budget serves the whole surplus.
fn rebalance_staged(dex: &mut DexNetwork, op: &mut StaggeredOp, u: u32) {
    let cap = dex.cfg.max_load();
    let key = [dex.step_no, dex.net.graph().id_of_slot(u).0];
    let budget = dex.cfg.max_walk_retries;
    let mut attempt = 0u64;
    while op.staged_map.load_at(u) > cap {
        let under_cap = |_: &VirtualMapping, w| w != u && op.staged_map.load_at(w) < cap;
        let purpose = Purpose::RebalanceWalk;
        let (w, hit) = dex
            .walk_central(u, None, purpose, &key, attempt..budget, under_cap)
            .unwrap_or_else(|| panic!("staged rebalance starved at node {}", key[1]));
        let y = op.giveable_at(u).expect("load > cap");
        rehome(dex, op, &[], &[y], w, true);
        charge_handoff(dex);
        attempt = hit + 1;
    }
}

/// Deflation contention check: if the node in slot `u` has no processed or
/// future vertex of the new cycle left, it walks for credit (Algorithm
/// 4.9 + on-the-fly generation).
fn maybe_contend(dex: &mut DexNetwork, op: &mut StaggeredOp, u: u32) {
    if dex.map.sim_at(u).iter().any(|z| z.0 >= op.stage_cursor)
        || op.staged_map.load_at(u) > 0
        || op.preassigned_at(u) > 0
    {
        return;
    }
    // u is contending: walk until a node with spare credit donates.
    let key = [dex.step_no, dex.net.graph().id_of_slot(u).0 ^ 0xdef1a7e];
    let has_credit = |map: &VirtualMapping, w| w != u && credit(op, map, w) >= 1;
    let budget = 0..dex.cfg.max_walk_retries;
    let (w, _) = dex
        .walk_central(u, None, Purpose::RebalanceWalk, &key, budget, has_credit)
        .unwrap_or_else(|| panic!("contending node slot {u} starved for credit"));
    donate(dex, op, w, u);
    charge_handoff(dex);
}

/// Deflation credit of the node in slot `w`: guaranteed new vertices
/// beyond its reserve. Locally computable by the node (its staged set, its
/// preassignments, and the dominating status of its own old vertices).
fn credit(op: &StaggeredOp, map: &VirtualMapping, w: u32) -> u64 {
    let guaranteed = op.staged_map.load_at(w)
        + op.preassigned_at(w)
        + unstaged_dominating_unpreassigned(op, map, w).count() as u64;
    guaranteed.saturating_sub(1)
}

/// The old vertices of the node in slot `w` that are unprocessed,
/// dominating (they generate a vertex), and whose image is not already
/// promised to someone else.
fn unstaged_dominating_unpreassigned<'a>(
    op: &'a StaggeredOp,
    map: &'a VirtualMapping,
    w: u32,
) -> impl Iterator<Item = u64> + 'a {
    map.sim_at(w).iter().map(|z| z.0).filter(move |&x| {
        x >= op.stage_cursor
            && op
                .plan
                .generated_by(x)
                .any(|y| !op.preassigned.contains_key(&y))
    })
}

/// Donate one unit of deflation credit from the node in slot `w` to the
/// one in slot `to`: a staged non-reserve vertex if available, else a
/// preassignment of a future one.
fn donate(dex: &mut DexNetwork, op: &mut StaggeredOp, w: u32, to: u32) {
    // Prefer a physically staged, non-reserved vertex.
    if let Some(y) = op.giveable_at(w) {
        rehome(dex, op, &[], &[y], to, true);
        charge_handoff(dex);
        op.set_reserve(to, y); // recipient's reserve
        return;
    }
    // Else promise a future vertex from w's dominating stock.
    if let Some(x) = unstaged_dominating_unpreassigned(op, &dex.map, w).max() {
        let y = op.plan.generated_by(x).start;
        op.preassigned.insert(y, to);
        *at_mut(&mut op.preassigned_count, to) += 1;
        return;
    }
    // Last resort: reassign one of w's own preassignments.
    let y = *op
        .preassigned
        .iter()
        .filter(|&(_, &v)| v == w)
        .map(|(y, _)| y)
        .max()
        .expect("credit >= 1 guaranteed a donatable unit");
    op.preassigned.insert(y, to);
    op.preassigned_count[w as usize] -= 1;
    *at_mut(&mut op.preassigned_count, to) += 1;
}

/// Phase 2: discard old vertex `x` and its remaining old-cycle edges.
fn drop_one(dex: &mut DexNetwork, op: &mut StaggeredOp, x: u64) {
    let z = VertexId(x);
    // Staging is over: nothing points at x but its old remnant.
    let insts = op.incident(&dex.cycle, &[z], &[]);
    detach(dex, op, &insts);
    dex.map.unassign(z);
    op.drop_cursor = x + 1;
    dex.net.charge_messages(3);
}

/// All old vertices dropped: switch Φ and Z to the new cycle.
fn switchover(dex: &mut DexNetwork, op: StaggeredOp) {
    debug_assert_eq!(dex.map.num_vertices(), 0, "old map fully drained");
    debug_assert!(op.preassigned.is_empty(), "all preassignments staged");
    debug_assert!(
        op.preassigned_count.iter().all(|&c| c == 0),
        "preassignment counts drained"
    );
    dex.cycle = op.new_cycle;
    dex.map = op.staged_map;
    // Coordinator state transfers to the owner of new vertex 0.
    charge_coordinator_route(dex);
}

// ======================================================================
// Type-1 recovery while an operation is in flight
// ======================================================================

/// Insertion during a staggered operation (paper Sect. 4.4.1/4.4.2: serve
/// the newcomer from the new cycle where possible): the newcomer in slot
/// `u` attached at the node in slot `v`.
pub fn insert_during_staggered(dex: &mut DexNetwork, u: u32, v: u32) {
    let mut op = dex
        .stag
        .take()
        .expect("a staggered operation is in progress");
    insert_into(dex, &mut op, u, v);
    dex.stag = Some(op);
}

fn insert_into(dex: &mut DexNetwork, op: &mut StaggeredOp, u: u32, v: u32) {
    let phase = (op.plan.kind(), op.staging());
    let accept = |map: &VirtualMapping, w: u32| match phase {
        (Kind::Inflation, true) => {
            op.staged_map.load_at(w) >= 2
                || (map.load_at(w) >= 2 && map.sim_at(w).iter().any(|z| z.0 >= op.stage_cursor))
        }
        (_, false) => op.staged_map.load_at(w) >= 2,
        (Kind::Deflation, true) => map.load_at(w) >= 2 && credit(op, map, w) >= 1,
    };
    let (key, budget) = ([dex.step_no], 0..dex.cfg.max_walk_retries);
    let hit = dex.walk_central(v, Some(u), Purpose::InsertWalk, &key, budget, accept);
    let Some((w, _)) = hit else {
        panic!(
            "staggered insertion starved after {} walks (n={}, p={})",
            dex.cfg.max_walk_retries,
            dex.n(),
            dex.cycle.p()
        );
    };

    match phase {
        (Kind::Inflation, true) if op.staged_map.load_at(w) < 2 => {
            let x = dex
                .map
                .sim_at(w)
                .iter()
                .map(|z| z.0)
                .filter(|&x| x >= op.stage_cursor)
                .max()
                .expect("acceptance guaranteed an unstaged vertex");
            rehome(dex, op, &[VertexId(x)], &[], u, true);
            charge_handoff(dex);
        }
        (Kind::Deflation, true) => {
            // Give the newcomer an old vertex for connectivity; a
            // dominating unpromised one carries its future new vertex,
            // any other comes with a unit of w's credit.
            let dominating = unstaged_dominating_unpreassigned(op, &dex.map, w).max();
            let x = dominating.or_else(|| dex.map.sim_at(w).iter().map(|z| z.0).max());
            rehome(dex, op, &[VertexId(x.expect("load >= 2"))], &[], u, true);
            charge_handoff(dex);
            // The donor may have become contending.
            maybe_contend(dex, op, w);
            if dominating.is_none() {
                donate(dex, op, w, u);
            }
        }
        _ => {
            // Staged load ≥ 2 leaves a vertex beyond w's reserve (an
            // inflation has none); a deflation's newcomer keeps it as its
            // own.
            let y = op.giveable_at(w).expect("load >= 2");
            rehome(dex, op, &[], &[y], u, true);
            charge_handoff(dex);
            if !op.is_inflation() {
                op.set_reserve(u, y);
            }
        }
    }
    charge_handoff(dex);
    dex.charge_load_updates(&[w, u]);
    dex.net.remove_edge_slots(u, v);
}

/// Deletion during a staggered operation: the rescuer in slot `rescuer`
/// adopts everything the victim (who held Φ slot `victim_slot`)
/// simulated — old vertices, staged vertices, preassignments — and
/// redistributes.
pub fn delete_during_staggered(dex: &mut DexNetwork, victim_slot: u32, rescuer: u32) {
    let mut op = dex
        .stag
        .take()
        .expect("a staggered operation is in progress");
    delete_from(dex, &mut op, victim_slot, rescuer);
    dex.stag = Some(op);
}

fn delete_from(dex: &mut DexNetwork, op: &mut StaggeredOp, victim_slot: u32, rescuer: u32) {
    let old_zs: Vec<VertexId> = dex.map.sim_at(victim_slot).to_vec();
    let staged_zs: Vec<u64> = op
        .staged_map
        .sim_at(victim_slot)
        .iter()
        .map(|z| z.0)
        .collect();

    // Adopt both sets and restore every instance the victim's
    // disappearance destroyed.
    rehome(dex, op, &old_zs, &staged_zs, rescuer, false);
    // The victim's reserve came along: the rescuer keeps the smaller of
    // the two and releases the other as credit, so it holds one.
    let victims = op
        .reserve
        .get_mut(victim_slot as usize)
        .and_then(Option::take);
    if let Some(y) = victims {
        let kept = at_mut(&mut op.reserve, rescuer);
        *kept = Some(kept.map_or(y, |r| r.min(y)));
    }
    // Preassignments follow the rescuer.
    for owner in op.preassigned.values_mut() {
        if *owner == victim_slot {
            *owner = rescuer;
        }
    }
    if let Some(c) = op.preassigned_count.get_mut(victim_slot as usize) {
        let c = std::mem::take(c);
        *at_mut(&mut op.preassigned_count, rescuer) += c;
    }
    dex.net
        .charge_messages(3 * (old_zs.len() + staged_zs.len()) as u64 + 2);
    dex.net.charge_rounds(1);
    dex.charge_load_updates(&[rescuer]);

    // Redistribute: old vertices to Low(old), staged ones to nodes with
    // staged load below the balance cap. Mid-operation the target sets can
    // be genuinely scarce (deflation fires *because* Low is small), so
    // walks get only a constant number of attempts and the rescuer keeps
    // whatever cannot be placed — that is exactly the slack the 8ζ bound
    // of Lemma 9(a) provides, and it keeps every step at O(log n).
    const STAGGERED_WALK_ATTEMPTS: u64 = 4;
    let step_no = dex.step_no;
    for (i, &z) in old_zs.iter().enumerate() {
        let key = [step_no, i as u64];
        let budget = 0..STAGGERED_WALK_ATTEMPTS;
        let low = VirtualMapping::is_low_at;
        let hit = dex.walk_central(rescuer, None, Purpose::DeleteWalk, &key, budget, low);
        if let Some((w, _)) = hit.filter(|&(w, _)| w != rescuer) {
            rehome(dex, op, &[z], &[], w, true);
            charge_handoff(dex);
            if !op.is_inflation() {
                maybe_contend(dex, op, rescuer);
            }
        }
    }
    let cap = dex.cfg.max_load();
    for (i, &y) in staged_zs.iter().enumerate() {
        if op.staged_map.load_at(rescuer) <= cap {
            break;
        }
        // The victim's reserve, if the rescuer kept it, stays put.
        if op.reserve_at(rescuer) == Some(VertexId(y)) {
            continue;
        }
        let key = [step_no, 0x57a6 + i as u64];
        let budget = 0..STAGGERED_WALK_ATTEMPTS;
        let under_cap = |_: &VirtualMapping, w| w != rescuer && op.staged_map.load_at(w) < cap;
        let hit = dex.walk_central(rescuer, None, Purpose::DeleteWalk, &key, budget, under_cap);
        if let Some((w, _)) = hit {
            rehome(dex, op, &[], &[y], w, true);
            charge_handoff(dex);
        }
    }
    // The rescuer's contention state may have changed (deflation).
    if !op.is_inflation() {
        maybe_contend(dex, op, rescuer);
    }
}

#[cfg(test)]
mod tests {
    //! Differential test: the overlay rows of `fabric::ContractionRows`
    //! against the whole-network edge list they replaced.

    use super::*;
    use crate::config::DexConfig;
    use crate::invariants;
    use dex_graph::ids::NodeId;
    use dex_graph::MultiGraph;
    use dex_sim::rng::splitmix64;

    type Edges = Vec<(NodeId, NodeId)>;

    /// The staggered fabric oracle: the full expected edge multiset (old
    /// remnant + overlay) as `(min id, max id)` pairs, sorted, each
    /// overlay instance listed once by set-free canonical rules. `g` names
    /// the nodes in the slots the instances' endpoints resolve to.
    fn expected_multiset(
        op: &StaggeredOp,
        map: &VirtualMapping,
        cycle_old: &PCycle,
        g: &MultiGraph,
    ) -> Edges {
        let mut out = Vec::new();
        let mut push = |(a, b): (NodeId, NodeId)| out.push((a.min(b), a.max(b)));
        // Old remnant.
        cycle_old.for_each_chord(0..op.plan.p_old(), |z, c| {
            if op.dropped(z.0) {
                return;
            }
            let s = cycle_old.succ(z);
            if !op.dropped(s.0) {
                push((map.owner_of(z), map.owner_of(s)));
            }
            if (c == z || z < c) && !op.dropped(c.0) {
                push((map.owner_of(z), map.owner_of(c)));
            }
        });
        // Overlay.
        let p = op.new_cycle.p();
        op.new_cycle.for_each_chord(0..p, |y, chord| {
            let (y, chord) = (y.0, chord.0);
            if !op.staged(y) {
                return;
            }
            let mut inst = |i: Inst| {
                let (a, b) = op.endpoints(map, i);
                push((g.id_of_slot(a), g.id_of_slot(b)))
            };
            let succ = (y + 1) % p;
            if op.staged(succ) {
                inst(Inst::Real(y, succ));
            } else {
                inst(Inst::Inter(y, op.plan.source(succ)));
            }
            let pred = (y + p - 1) % p;
            if !op.staged(pred) {
                inst(Inst::Inter(y, op.plan.source(pred)));
            }
            if chord == y {
                inst(Inst::Loop(y));
            } else if op.staged(chord) {
                if y < chord {
                    inst(Inst::Real(y, chord));
                }
            } else {
                inst(Inst::Inter(y, op.plan.source(chord)));
            }
        });
        out.sort_unstable();
        out
    }

    fn current_edges(dex: &DexNetwork) -> Edges {
        let mut out = dex.net.graph().edges();
        out.sort_unstable();
        out
    }

    fn oracle_exact(dex: &DexNetwork) -> bool {
        let op = dex.stag.as_ref().expect("mid-operation");
        current_edges(dex) == expected_multiset(op, &dex.map, &dex.cycle, dex.graph())
    }

    /// The row check's verdict is the oracle's; a mismatch is reported as
    /// one, not as some other violation. Returns whether it was exact.
    fn assert_agrees(dex: &DexNetwork, what: &str) -> bool {
        let verdict = invariants::check(dex);
        let exact = oracle_exact(dex);
        if exact {
            assert!(
                verdict.is_ok(),
                "{what}: oracle exact, check says {verdict:?}"
            );
        } else {
            let err = verdict.expect_err(&format!("{what}: oracle finds a mismatch, check none"));
            assert!(
                err.starts_with("fabric mismatch"),
                "{what}: check says {err:?}"
            );
        }
        exact
    }

    /// Swap the far endpoints of two distinct non-loop edges `(a, b)`,
    /// `(c, d)` → `(a, d)`, `(c, b)`: every degree stays. Returns the
    /// swapped pairs for [`unswap`].
    fn swap(dex: &mut DexNetwork, state: &mut u64) -> [(NodeId, NodeId); 2] {
        let links: Edges = current_edges(dex)
            .into_iter()
            .filter(|(a, b)| a != b)
            .collect();
        let mut pick = |len: usize| {
            *state = splitmix64(*state);
            (*state % len as u64) as usize
        };
        let i = pick(links.len());
        let j = (i + 1 + pick(links.len() - 1)) % links.len();
        let ((a, b), (c, d)) = (links[i], links[j]);
        assert!(dex.net.adversary_remove_edge(a, b) && dex.net.adversary_remove_edge(c, d));
        dex.net.adversary_add_edge(a, d);
        dex.net.adversary_add_edge(c, b);
        [(a, b), (c, d)]
    }

    fn unswap(dex: &mut DexNetwork, [(a, b), (c, d)]: [(NodeId, NodeId); 2]) {
        assert!(dex.net.adversary_remove_edge(a, d) && dex.net.adversary_remove_edge(c, b));
        dex.net.adversary_add_edge(a, b);
        dex.net.adversary_add_edge(c, d);
    }

    /// Grow a staggered network from `n0` to `top`, then shrink it to
    /// `floor` (attach points and victims from SplitMix64). After every
    /// mid-operation step the row check must agree with the oracle, on
    /// the network as it is and with two edges' endpoints swapped.
    /// Returns the steps seen per (inflation?, staging?) and the number
    /// of swaps the oracle found inexact.
    fn run(seed: u64, n0: u64, top: usize, floor: usize) -> ([[u32; 2]; 2], u32) {
        // θ = 1/8 keeps windows small, so an operation spans many steps.
        let cfg = DexConfig::new(seed).staggered().with_theta_inv(8);
        let mut dex = DexNetwork::bootstrap(cfg, n0);
        let mut ids = dex.node_ids();
        let mut fresh = dex.fresh_node_id().0;
        let mut state = seed ^ 0x5eed;
        let (mut seen, mut caught) = ([[0u32; 2]; 2], 0);
        let mut grow = true;
        for step in 0.. {
            grow &= ids.len() < top;
            if !grow && ids.len() <= floor {
                break;
            }
            state = splitmix64(state);
            let at = (state % ids.len() as u64) as usize;
            if grow {
                dex.insert(NodeId(fresh), ids[at]);
                ids.push(NodeId(fresh));
                fresh += 1;
            } else {
                dex.delete(ids.swap_remove(at));
            }
            let Some(op) = &dex.stag else { continue };
            seen[op.is_inflation() as usize][op.staging() as usize] += 1;
            let what = format!("seed {seed}, step {step}");
            assert!(assert_agrees(&dex, &what), "{what}: clean network inexact");
            let swapped = swap(&mut dex, &mut state);
            caught += !assert_agrees(&dex, &format!("{what}, swapped {swapped:?}")) as u32;
            unswap(&mut dex, swapped);
        }
        (seen, caught)
    }

    #[test]
    fn overlay_rows_agree_with_the_edge_list_oracle() {
        for seed in [1, 2] {
            let (seen, caught) = run(seed, 24, 400, 24);
            let steps: u32 = seen.iter().flatten().sum();
            assert!(
                seen.iter().flatten().all(|&k| k > 0),
                "seed {seed}: every kind and phase is reached: {seen:?}"
            );
            assert!(
                caught * 10 >= steps * 9,
                "seed {seed}: {caught} of {steps} swaps caught"
            );
        }
    }
}
