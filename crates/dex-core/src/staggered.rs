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
//! An operation starts at [`begin`] with its plan (either kind); the
//! coordinator's entry points take it out of `DexNetwork::stag` for the
//! call and hand `&mut StaggeredOp` down explicitly; nothing they call on
//! the network reads `stag`.

use crate::config::RecoveryMode;
use crate::dex::DexNetwork;
use crate::fabric;
use crate::mapping::VirtualMapping;
use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::resize::{Kind, Plan};
use dex_graph::pcycle::PCycle;
use dex_sim::rng::Purpose;
use dex_sim::tokens::random_walk_search_slots;
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
    /// Future owners of not-yet-staged new vertices (credit donations).
    preassigned: FxHashMap<u64, NodeId>,
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
    // Overlay instance enumeration
    // ------------------------------------------------------------------

    /// Physical endpoints of one overlay instance.
    fn endpoints(&self, map: &VirtualMapping, inst: Inst) -> (NodeId, NodeId) {
        match inst {
            Inst::Real(a, b) => (
                self.staged_map.owner_of(VertexId(a)),
                self.staged_map.owner_of(VertexId(b)),
            ),
            Inst::Loop(y) => {
                let u = self.staged_map.owner_of(VertexId(y));
                (u, u)
            }
            Inst::Inter(y, x) => (
                self.staged_map.owner_of(VertexId(y)),
                map.owner_of(VertexId(x)),
            ),
        }
    }

    /// Overlay instances incident to the staged vertex set `set` (each
    /// undirected instance exactly once). All members must be staged.
    fn incident_overlay(&self, set: &[u64]) -> Vec<Inst> {
        let p = self.new_cycle.p();
        let in_set = |v: u64| set.contains(&v);
        let mut out = Vec::new();
        for &y in set {
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

    /// Staged vertices whose intermediate edges point at old vertex `x`
    /// (one entry per instance; duplicates mean parallel instances).
    /// `exclude` suppresses sources in a set being handled elsewhere.
    fn inter_sources_at_old(&self, x: u64, exclude: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        if self.stage_cursor > x {
            return out; // x processed: nothing points at it
        }
        self.for_each_inter_source(x, |y| {
            if !exclude.contains(&y) {
                out.push(y);
            }
        });
        out
    }

    /// Old-fabric instances incident to the live old vertices `xs`, each
    /// exactly once: [`fabric::incident_edges_into`] minus the instances
    /// whose far endpoint is dropped (Phase 2).
    fn old_incident(&self, cycle_old: &PCycle, xs: &[VertexId]) -> Vec<(VertexId, VertexId)> {
        debug_assert!(xs.iter().all(|z| !self.dropped(z.0)));
        let chords: Vec<VertexId> = xs.iter().map(|&z| cycle_old.chord(z)).collect();
        let mut out = Vec::new();
        fabric::incident_edges_into(cycle_old, xs, &chords, &mut out);
        out.retain(|&(a, b)| !self.dropped(a.0) && !self.dropped(b.0));
        out
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

/// One overlay edge instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inst {
    /// Both endpoints staged (new-cycle edge).
    Real(u64, u64),
    /// Self-loop at a staged vertex.
    Loop(u64),
    /// Intermediate edge: staged vertex → owner of an old source vertex.
    Inter(u64, u64),
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
    let owner_old = dex.map.owner_of(VertexId(x));

    // Remove intermediate instances that currently point at x: they are
    // about to be upgraded to real new-cycle edges.
    for src in op.inter_sources_at_old(x, &[]) {
        let a = op.staged_map.owner_of(VertexId(src));
        assert!(
            dex.net.remove_edge(a, owner_old),
            "missing intermediate ({a} -> {owner_old}) for staged {src} at old {x}"
        );
    }

    // Stage the generated vertices.
    let gens: Vec<u64> = op.plan.generated_by(x).collect();
    let is_deflate = !op.is_inflation();
    for &y in &gens {
        let target = match op.preassigned.remove(&y) {
            Some(u) => {
                *at_mut(&mut op.preassigned_count, dex.slot(u)) -= 1;
                u
            }
            None => owner_old,
        };
        let slot = dex.slot(target);
        op.staged_map.assign_at(VertexId(y), target, slot);
        if is_deflate && op.staged_map.load_at(slot) == 1 {
            op.set_reserve(slot, y); // the node's reserve
        }
    }
    // Advance the cursor before computing the new instances (the staged()
    // predicate must see the fresh vertices).
    op.stage_cursor = x + 1;
    // Materialize the staged vertices' instances (real edges to staged
    // neighbors, intermediate edges into the unstaged region).
    for inst in op.incident_overlay(&gens) {
        let (a, b) = op.endpoints(&dex.map, inst);
        dex.net.add_edge(a, b);
    }
    dex.net.charge_messages(3 * gens.len() as u64 + 2);
    dex.net.charge_rounds(1);

    // Inflation: a node holding > 4ζ staged vertices spreads the surplus.
    if op.is_inflation() {
        rebalance_staged(dex, op, owner_old);
        // Transfers may also have pushed the preassignment recipient over.
    } else {
        // Deflation: contention check for the owner whose old vertices may
        // now all be processed.
        maybe_contend(dex, op, owner_old);
    }
}

/// Inflation Phase 1 rebalancing (Algorithm 4.8, line 6): while `u` holds
/// more than 4ζ staged vertices, walk the real network for nodes with
/// staged load < 4ζ and hand surplus vertices over.
fn rebalance_staged(dex: &mut DexNetwork, op: &mut StaggeredOp, u: NodeId) {
    let cap = dex.cfg.max_load();
    let walk_len = dex.cfg.walk_len(dex.cycle.p());
    let su = dex.slot(u);
    let mut attempt = 0u64;
    while op.staged_map.load_at(su) > cap {
        let step_no = dex.step_no;
        let out = {
            let op = &*op;
            let mut rng = dex
                .seeds
                .stream(Purpose::RebalanceWalk, &[step_no, u.0, attempt]);
            random_walk_search_slots(
                &mut dex.net,
                su,
                walk_len,
                None,
                |w| w != su && op.staged_map.load_at(w) < cap,
                &mut rng,
            )
        };
        if let Some(sw) = out.hit {
            // An inflation has no reserves: any vertex may go.
            let y = op
                .staged_map
                .sim_at(su)
                .iter()
                .map(|z| z.0)
                .max()
                .expect("load > cap");
            let w = dex.net.graph().id_of_slot(sw);
            move_staged_vertex(dex, op, y, w);
        }
        attempt += 1;
        assert!(
            attempt < dex.cfg.max_walk_retries,
            "staged rebalance starved at node {u}"
        );
    }
}

/// Deflation contention check: if `u` has no processed or future vertex of
/// the new cycle left, it walks for credit (Algorithm 4.9 + on-the-fly
/// generation).
fn maybe_contend(dex: &mut DexNetwork, op: &mut StaggeredOp, u: NodeId) {
    let Some(su) = dex.net.graph().slot_of(u) else {
        return;
    };
    if dex.map.sim_at(su).iter().any(|z| z.0 >= op.stage_cursor)
        || op.staged_map.load_at(su) > 0
        || op.preassigned_at(su) > 0
    {
        return;
    }
    // u is contending: walk until a node with spare credit donates.
    let walk_len = dex.cfg.walk_len(dex.cycle.p());
    let step_no = dex.step_no;
    let mut attempt = 0u64;
    loop {
        let out = {
            let (op, map) = (&*op, &dex.map);
            let mut rng = dex
                .seeds
                .stream(Purpose::RebalanceWalk, &[step_no, u.0 ^ 0xdef1a7e, attempt]);
            random_walk_search_slots(
                &mut dex.net,
                su,
                walk_len,
                None,
                |w| w != su && credit(op, map, w) >= 1,
                &mut rng,
            )
        };
        if let Some(w) = out.hit {
            let w = dex.net.graph().id_of_slot(w);
            donate(dex, op, w, u);
            dex.net.charge_messages(4);
            dex.net.charge_rounds(1);
            return;
        }
        attempt += 1;
        assert!(
            attempt < dex.cfg.max_walk_retries,
            "contending node {u} starved for credit"
        );
    }
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

/// Donate one unit of deflation credit from `w` to `to`: a staged
/// non-reserve vertex if available, else a preassignment of a future one.
fn donate(dex: &mut DexNetwork, op: &mut StaggeredOp, w: NodeId, to: NodeId) {
    let (sw, st) = (dex.slot(w), dex.slot(to));
    // Prefer a physically staged, non-reserved vertex.
    let reserve = op.reserve_at(sw);
    let staged_pick = op
        .staged_map
        .sim_at(sw)
        .iter()
        .filter(|&&z| Some(z) != reserve)
        .map(|z| z.0)
        .max();
    if let Some(y) = staged_pick {
        move_staged_vertex(dex, op, y, to);
        op.set_reserve(st, y); // recipient's reserve
        return;
    }
    // Else promise a future vertex from w's dominating stock.
    if let Some(x) = unstaged_dominating_unpreassigned(op, &dex.map, sw).max() {
        let y = op.plan.generated_by(x).start;
        op.preassigned.insert(y, to);
        *at_mut(&mut op.preassigned_count, st) += 1;
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
    op.preassigned_count[sw as usize] -= 1;
    *at_mut(&mut op.preassigned_count, st) += 1;
}

/// Phase 2: discard old vertex `x` and its remaining old-cycle edges.
fn drop_one(dex: &mut DexNetwork, op: &mut StaggeredOp, x: u64) {
    let z = VertexId(x);
    for (a, b) in op.old_incident(&dex.cycle, &[z]) {
        let (ua, ub) = (dex.map.owner_of(a), dex.map.owner_of(b));
        assert!(
            dex.net.remove_edge(ua, ub),
            "missing old instance {a}-{b} at {x}"
        );
    }
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
// Vertex movement during a staggered operation
// ======================================================================

/// Move staged vertex `y` to node `to`, rewiring its overlay instances.
fn move_staged_vertex(dex: &mut DexNetwork, op: &mut StaggeredOp, y: u64, to: NodeId) {
    let insts = op.incident_overlay(&[y]);
    for &inst in &insts {
        let (a, b) = op.endpoints(&dex.map, inst);
        assert!(
            dex.net.remove_edge(a, b),
            "missing overlay instance {inst:?} at ({a},{b})"
        );
    }
    op.staged_map.transfer_at(VertexId(y), to, dex.slot(to));
    for &inst in &insts {
        let (a, b) = op.endpoints(&dex.map, inst);
        dex.net.add_edge(a, b);
    }
    dex.net.charge_messages(4);
    dex.net.charge_rounds(1);
}

/// Move live old vertex `x` to node `to`: old-fabric instances plus any
/// intermediate instances pointing at `x` follow it.
fn move_old_vertex(dex: &mut DexNetwork, op: &mut StaggeredOp, x: u64, to: NodeId) {
    let z = VertexId(x);
    let from = dex.map.owner_of(z);
    let old_insts = op.old_incident(&dex.cycle, &[z]);
    let inters = op.inter_sources_at_old(x, &[]);
    for &(a, b) in &old_insts {
        let (ua, ub) = (dex.map.owner_of(a), dex.map.owner_of(b));
        assert!(dex.net.remove_edge(ua, ub), "missing old instance {a}-{b}");
    }
    for &src in &inters {
        let a = op.staged_map.owner_of(VertexId(src));
        assert!(dex.net.remove_edge(a, from), "missing inter at old {x}");
    }
    dex.map.transfer_at(z, to, dex.slot(to));
    for &(a, b) in &old_insts {
        let (ua, ub) = (dex.map.owner_of(a), dex.map.owner_of(b));
        dex.net.add_edge(ua, ub);
    }
    for &src in &inters {
        let a = op.staged_map.owner_of(VertexId(src));
        dex.net.add_edge(a, to);
    }
    dex.net.charge_messages(4);
    dex.net.charge_rounds(1);
    // The donor may have become contending (deflation).
    if !op.is_inflation() {
        maybe_contend(dex, op, from);
    }
}

// ======================================================================
// Type-1 recovery while an operation is in flight
// ======================================================================

/// Insertion during a staggered operation (paper Sect. 4.4.1/4.4.2: serve
/// the newcomer from the new cycle where possible).
pub fn insert_during_staggered(dex: &mut DexNetwork, u: NodeId, v: NodeId) {
    let mut op = dex
        .stag
        .take()
        .expect("a staggered operation is in progress");
    insert_into(dex, &mut op, u, v);
    dex.stag = Some(op);
}

fn insert_into(dex: &mut DexNetwork, op: &mut StaggeredOp, u: NodeId, v: NodeId) {
    let walk_len = dex.cfg.walk_len(dex.cycle.p());
    let step_no = dex.step_no;
    let (su, sv) = (dex.slot(u), dex.slot(v));
    for attempt in 0..dex.cfg.max_walk_retries {
        let out = {
            let (op, map) = (&*op, &dex.map);
            let mut rng = dex.seeds.stream(Purpose::InsertWalk, &[step_no, attempt]);
            let accept: Box<dyn Fn(u32) -> bool> = match (op.plan.kind(), op.staging()) {
                (Kind::Inflation, true) => Box::new(move |w| {
                    op.staged_map.load_at(w) >= 2
                        || (map.load_at(w) >= 2
                            && map.sim_at(w).iter().any(|z| z.0 >= op.stage_cursor))
                }),
                (_, false) => Box::new(move |w| op.staged_map.load_at(w) >= 2),
                (Kind::Deflation, true) => {
                    Box::new(move |w| map.load_at(w) >= 2 && credit(op, map, w) >= 1)
                }
            };
            random_walk_search_slots(&mut dex.net, sv, walk_len, Some(su), &accept, &mut rng)
        };
        let Some(sw) = out.hit else { continue };
        let w = dex.net.graph().id_of_slot(sw);
        dex.walk_stats.hits += 1;

        match (op.plan.kind(), op.staging()) {
            (Kind::Inflation, true) => {
                if op.staged_map.load_at(sw) >= 2 {
                    let y = op.staged_map.sim_at(sw).iter().map(|z| z.0).max();
                    move_staged_vertex(dex, op, y.expect("load >= 2"), u);
                } else {
                    let x = dex
                        .map
                        .sim_at(sw)
                        .iter()
                        .map(|z| z.0)
                        .filter(|&x| x >= op.stage_cursor)
                        .max()
                        .expect("acceptance guaranteed an unstaged vertex");
                    move_old_vertex(dex, op, x, u);
                }
            }
            (_, false) => {
                // Load ≥ 2 leaves a vertex beyond w's reserve (an
                // inflation has none); a deflation's newcomer keeps it as
                // its own.
                let reserve = op.reserve_at(sw);
                let y = op
                    .staged_map
                    .sim_at(sw)
                    .iter()
                    .filter(|&&z| Some(z) != reserve)
                    .map(|z| z.0)
                    .max()
                    .expect("load >= 2");
                move_staged_vertex(dex, op, y, u);
                if !op.is_inflation() {
                    op.set_reserve(su, y);
                }
            }
            (Kind::Deflation, true) => {
                // Give the newcomer an old vertex for connectivity; a
                // dominating unpromised one carries its future new vertex.
                if let Some(x) = unstaged_dominating_unpreassigned(op, &dex.map, sw).max() {
                    move_old_vertex(dex, op, x, u);
                } else {
                    let x = dex.map.sim_at(sw).iter().map(|z| z.0).max();
                    move_old_vertex(dex, op, x.expect("load >= 2"), u);
                    donate(dex, op, w, u);
                }
            }
        }
        dex.net.charge_messages(4);
        dex.net.charge_rounds(1);
        dex.charge_load_updates(&[sw, su]);
        dex.net.remove_edge(u, v);
        return;
    }
    panic!(
        "staggered insertion starved after {} walks (n={}, p={})",
        dex.cfg.max_walk_retries,
        dex.n(),
        dex.cycle.p()
    );
}

/// Deletion during a staggered operation: the rescuer adopts everything
/// the victim (who held Φ slot `victim_slot`) simulated — old vertices,
/// staged vertices, preassignments — and redistributes.
pub fn delete_during_staggered(
    dex: &mut DexNetwork,
    victim: NodeId,
    victim_slot: u32,
    rescuer: NodeId,
) {
    let mut op = dex
        .stag
        .take()
        .expect("a staggered operation is in progress");
    delete_from(dex, &mut op, victim, victim_slot, rescuer);
    dex.stag = Some(op);
}

fn delete_from(
    dex: &mut DexNetwork,
    op: &mut StaggeredOp,
    victim: NodeId,
    victim_slot: u32,
    rescuer: NodeId,
) {
    let old_zs: Vec<VertexId> = dex.map.sim_at(victim_slot).to_vec();
    let staged_zs: Vec<u64> = op
        .staged_map
        .sim_at(victim_slot)
        .iter()
        .map(|z| z.0)
        .collect();

    // Retarget ownership.
    let rescuer_slot = dex.slot(rescuer);
    for &z in &old_zs {
        dex.map.transfer_at(z, rescuer, rescuer_slot);
    }
    for &y in &staged_zs {
        op.staged_map
            .transfer_at(VertexId(y), rescuer, rescuer_slot);
    }
    // The victim's reserve came along: the rescuer keeps the smaller of
    // the two and releases the other as credit, so it holds one.
    let victims = op
        .reserve
        .get_mut(victim_slot as usize)
        .and_then(Option::take);
    if let Some(y) = victims {
        let kept = at_mut(&mut op.reserve, rescuer_slot);
        *kept = Some(kept.map_or(y, |r| r.min(y)));
    }
    // Preassignments follow the rescuer.
    for owner in op.preassigned.values_mut() {
        if *owner == victim {
            *owner = rescuer;
        }
    }
    if let Some(c) = op.preassigned_count.get_mut(victim_slot as usize) {
        let c = std::mem::take(c);
        *at_mut(&mut op.preassigned_count, rescuer_slot) += c;
    }

    // Restore all physical instances the victim's disappearance destroyed.
    let old_insts = op.old_incident(&dex.cycle, &old_zs);
    let staged_insts = op.incident_overlay(&staged_zs);
    let mut inter_insts: Vec<(u64, u64)> = Vec::new(); // (staged src, old x)
    for &z in &old_zs {
        for src in op.inter_sources_at_old(z.0, &staged_zs) {
            inter_insts.push((src, z.0));
        }
    }
    for (a, b) in old_insts {
        let (ua, ub) = (dex.map.owner_of(a), dex.map.owner_of(b));
        dex.net.add_edge(ua, ub);
    }
    for inst in staged_insts {
        let (a, b) = op.endpoints(&dex.map, inst);
        dex.net.add_edge(a, b);
    }
    for (src, x) in inter_insts {
        let a = op.staged_map.owner_of(VertexId(src));
        dex.net.add_edge(a, dex.map.owner_of(VertexId(x)));
    }
    dex.net
        .charge_messages(3 * (old_zs.len() + staged_zs.len()) as u64 + 2);
    dex.net.charge_rounds(1);
    dex.charge_load_updates(&[rescuer_slot]);

    // Redistribute: old vertices to Low(old), staged ones to nodes with
    // staged load below the balance cap. Mid-operation the target sets can
    // be genuinely scarce (deflation fires *because* Low is small), so
    // walks get only a constant number of attempts and the rescuer keeps
    // whatever cannot be placed — that is exactly the slack the 8ζ bound
    // of Lemma 9(a) provides, and it keeps every step at O(log n).
    const STAGGERED_WALK_ATTEMPTS: u64 = 4;
    let walk_len = dex.cfg.walk_len(dex.cycle.p());
    let step_no = dex.step_no;
    for (i, &z) in old_zs.iter().enumerate() {
        let mut attempt = 0u64;
        loop {
            let out = {
                let map = &dex.map;
                let mut rng = dex
                    .seeds
                    .stream(Purpose::DeleteWalk, &[step_no, i as u64, attempt]);
                random_walk_search_slots(
                    &mut dex.net,
                    rescuer_slot,
                    walk_len,
                    None,
                    |w| map.is_low_at(w),
                    &mut rng,
                )
            };
            if let Some(sw) = out.hit {
                if sw != rescuer_slot {
                    let w = dex.net.graph().id_of_slot(sw);
                    move_old_vertex(dex, op, z.0, w);
                }
                break;
            }
            attempt += 1;
            if attempt >= STAGGERED_WALK_ATTEMPTS {
                break; // rescuer keeps the vertex (≤ 8ζ, Lemma 9(a))
            }
        }
    }
    let cap = dex.cfg.max_load();
    for (i, &y) in staged_zs.iter().enumerate() {
        if op.staged_map.load_at(rescuer_slot) <= cap {
            break;
        }
        // The victim's reserve, if the rescuer kept it, stays put.
        if op.reserve_at(rescuer_slot) == Some(VertexId(y)) {
            continue;
        }
        let mut attempt = 0u64;
        loop {
            let out = {
                let op = &*op;
                let mut rng = dex
                    .seeds
                    .stream(Purpose::DeleteWalk, &[step_no, 0x57a6 + i as u64, attempt]);
                random_walk_search_slots(
                    &mut dex.net,
                    rescuer_slot,
                    walk_len,
                    None,
                    |w| w != rescuer_slot && op.staged_map.load_at(w) < cap,
                    &mut rng,
                )
            };
            if let Some(sw) = out.hit {
                let w = dex.net.graph().id_of_slot(sw);
                move_staged_vertex(dex, op, y, w);
                break;
            }
            attempt += 1;
            if attempt >= STAGGERED_WALK_ATTEMPTS {
                break;
            }
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
    use dex_sim::rng::splitmix64;

    type Edges = Vec<(NodeId, NodeId)>;

    /// The staggered fabric oracle: the full expected edge multiset (old
    /// remnant + overlay) as `(min id, max id)` pairs, sorted, each
    /// overlay instance listed once by set-free canonical rules.
    fn expected_multiset(op: &StaggeredOp, map: &VirtualMapping, cycle_old: &PCycle) -> Edges {
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
            let mut inst = |i: Inst| push(op.endpoints(map, i));
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
        current_edges(dex) == expected_multiset(op, &dex.map, &dex.cycle)
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
