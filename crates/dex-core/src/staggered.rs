//! Worst-case type-2 recovery: coordinator-driven staggered inflation and
//! deflation (paper, Sect. 4.4, Algorithms 4.7–4.9).
//!
//! Instead of replacing the virtual graph in one expensive step, the
//! replacement is spread over Θ(n) adversarial steps. Each step the
//! coordinator (the simulator of vertex 0) activates a *window* of O(1)
//! old vertices:
//!
//! * **Phase 1 (staging)** — windows sweep the old cycle in ascending
//!   order; each old vertex generates its piece of the new cycle (its
//!   inflation cloud, Eq. 7, or its deflation image). New-cycle edges whose
//!   far endpoint is not yet generated are realized as **intermediate
//!   edges** to the node owning the far endpoint's *source* old vertex.
//!   When the far side stages, the intermediate edge is upgraded in place.
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
//! guaranteed one vertex of the smaller cycle (its reserve, marked
//! `taken`); nodes whose old vertices yield nothing walk to a node with
//! spare credit and either receive a staged vertex or a *preassignment* of
//! a not-yet-staged one (the paper's "generate such vertices on the fly").

use crate::config::RecoveryMode;
use crate::dex::DexNetwork;
use crate::mapping::VirtualMapping;
use dex_graph::fxhash::{FxHashMap, FxHashSet};
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::{resize, PCycle};
use dex_graph::primes;
use dex_sim::rng::Purpose;
use dex_sim::tokens::random_walk_search;

/// Inflation or deflation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Move to the larger cycle `Z(p')`, `p' ∈ (4p, 8p)`.
    Inflate,
    /// Move to the smaller cycle `Z(p_s)`, `p_s ∈ (p/8, p/4)`.
    Deflate,
}

/// An in-progress staggered type-2 operation.
pub struct StaggeredOp {
    kind: OpKind,
    p_old: u64,
    new_cycle: PCycle,
    /// Owners of already-staged new vertices.
    staged_map: VirtualMapping,
    /// Old vertices `x < stage_cursor` have been processed (Phase 1).
    stage_cursor: u64,
    /// Old vertices `x < drop_cursor` have been discarded (Phase 2).
    drop_cursor: u64,
    /// Old vertices activated per step (O(1) in n).
    window: u64,
    // --- deflation-only state ---
    /// Reserved new vertices (one per node; never given away).
    taken: FxHashSet<VertexId>,
    /// Future owners of not-yet-staged new vertices (credit donations).
    preassigned: FxHashMap<u64, NodeId>,
    /// Per-node count of entries in `preassigned`.
    preassigned_count: FxHashMap<NodeId, u64>,
    /// Per-node count of old vertices not yet processed by the stage
    /// cursor (drives contention detection).
    unprocessed: FxHashMap<NodeId, u64>,
}

impl StaggeredOp {
    /// Is this an inflation?
    pub fn is_inflation(&self) -> bool {
        self.kind == OpKind::Inflate
    }

    /// Phase 1 still running?
    pub fn staging(&self) -> bool {
        self.stage_cursor < self.p_old
    }

    /// Staged (new-cycle) load of node `u`.
    pub fn staged_load(&self, u: NodeId) -> u64 {
        self.staged_map.load(u)
    }

    /// Φ of the new cycle so far (slotted by the graph's arena, like the
    /// live one it replaces at switchover).
    pub(crate) fn staged_map(&self) -> &VirtualMapping {
        &self.staged_map
    }

    /// Is new vertex `y` staged yet?
    fn staged(&self, y: u64) -> bool {
        self.source_old(y) < self.stage_cursor
    }

    /// The old vertex that generates new vertex `y`.
    fn source_old(&self, y: u64) -> u64 {
        match self.kind {
            OpKind::Inflate => resize::inflation_source(y, self.p_old, self.new_cycle.p()),
            OpKind::Deflate => resize::deflation_cloud(y, self.p_old, self.new_cycle.p()).start,
        }
    }

    /// Has old vertex `x` been dropped (Phase 2)?
    fn dropped(&self, x: u64) -> bool {
        x < self.drop_cursor
    }

    /// The new vertices generated by old vertex `x` (empty for
    /// non-dominating vertices under deflation).
    fn generated_by(&self, x: u64) -> Vec<u64> {
        match self.kind {
            OpKind::Inflate => resize::inflation_cloud(x, self.p_old, self.new_cycle.p()),
            OpKind::Deflate => {
                if resize::is_dominating(x, self.p_old, self.new_cycle.p()) {
                    vec![resize::deflation_image(x, self.p_old, self.new_cycle.p())]
                } else {
                    Vec::new()
                }
            }
        }
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
                out.push(Inst::Inter(y, self.source_old(succ)));
            }
            let pred = (y + p - 1) % p;
            if self.staged(pred) {
                if !in_set(pred) {
                    out.push(Inst::Real(pred, y));
                }
            } else {
                out.push(Inst::Inter(y, self.source_old(pred)));
            }
            let chord = self.new_cycle.chord(VertexId(y)).0;
            if chord == y {
                out.push(Inst::Loop(y));
            } else if self.staged(chord) {
                if !in_set(chord) || y < chord {
                    out.push(Inst::Real(y.min(chord), y.max(chord)));
                }
            } else {
                out.push(Inst::Inter(y, self.source_old(chord)));
            }
        }
        out
    }

    /// Staged vertices whose intermediate edges point at old vertex `x`
    /// (one entry per instance; duplicates mean parallel instances).
    /// `exclude` suppresses sources in a set being handled elsewhere.
    fn inter_sources_at_old(&self, x: u64, exclude: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        let p = self.new_cycle.p();
        if self.stage_cursor > x {
            return out; // x processed: nothing points at it
        }
        let gens = self.generated_by(x);
        for &t in &gens {
            // Boundary cycle edges into the unstaged region.
            let before = (t + p - 1) % p;
            if self.staged(before) && self.source_old(before) != x && !exclude.contains(&before) {
                out.push(before); // before's succ-slot intermediate
            }
            let after = (t + 1) % p;
            if self.staged(after) && self.source_old(after) != x && !exclude.contains(&after) {
                out.push(after); // after's pred-slot intermediate
            }
            // Chords from staged vertices into this cloud.
            let c = self.new_cycle.chord(VertexId(t)).0;
            if c != t && self.staged(c) && !exclude.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// Old-fabric instances incident to live old vertex `x`, skipping
    /// dropped far endpoints (Phase 2) — each instance exactly once.
    fn old_incident(&self, cycle_old: &PCycle, xs: &[VertexId]) -> Vec<(VertexId, VertexId)> {
        let in_set = |v: VertexId| xs.contains(&v);
        let mut out = Vec::new();
        for &z in xs {
            debug_assert!(!self.dropped(z.0));
            let s = cycle_old.succ(z);
            if !self.dropped(s.0) {
                out.push((z, s));
            }
            let p = cycle_old.pred(z);
            if !self.dropped(p.0) && !in_set(p) {
                out.push((p, z));
            }
            let c = cycle_old.chord(z);
            if c == z {
                out.push((z, z));
            } else if !self.dropped(c.0) && (!in_set(c) || z < c) {
                out.push((z, c));
            }
        }
        out
    }

    /// Expected full physical edge multiset (old remnant + overlay),
    /// normalized and sorted — the staggered fabric oracle.
    pub fn expected_multiset(
        &self,
        map: &VirtualMapping,
        cycle_old: &PCycle,
    ) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        // Old remnant.
        cycle_old.for_each_chord(0..self.p_old, |z, c| {
            if self.dropped(z.0) {
                return;
            }
            let s = cycle_old.succ(z);
            if !self.dropped(s.0) {
                let (a, b) = (map.owner_of(z), map.owner_of(s));
                out.push((a.min(b), a.max(b)));
            }
            if (c == z || z < c) && !self.dropped(c.0) {
                let (a, b) = (map.owner_of(z), map.owner_of(c));
                out.push((a.min(b), a.max(b)));
            }
        });
        // Overlay: enumerate per staged vertex with global (set-free)
        // canonical rules.
        let p = self.new_cycle.p();
        self.new_cycle.for_each_chord(0..p, |y, chord| {
            let (y, chord) = (y.0, chord.0);
            if !self.staged(y) {
                return;
            }
            let mut push = |inst: Inst| {
                let (a, b) = self.endpoints(map, inst);
                out.push((a.min(b), a.max(b)));
            };
            let succ = (y + 1) % p;
            if self.staged(succ) {
                push(Inst::Real(y, succ));
            } else {
                push(Inst::Inter(y, self.source_old(succ)));
            }
            let pred = (y + p - 1) % p;
            if !self.staged(pred) {
                push(Inst::Inter(y, self.source_old(pred)));
            }
            if chord == y {
                push(Inst::Loop(y));
            } else if self.staged(chord) {
                if y < chord {
                    push(Inst::Real(y, chord));
                }
            } else {
                push(Inst::Inter(y, self.source_old(chord)));
            }
        });
        out.sort_unstable();
        out
    }

    /// Verify the physical graph against the staggered fabric oracle.
    pub fn verify_fabric(&self, dex: &DexNetwork) -> Result<(), String> {
        let expected = self.expected_multiset(&dex.map, &dex.cycle);
        crate::fabric::verify_fabric(&dex.net, &expected)
    }

    /// A deflation's reserves: every reserve is a staged vertex, and no
    /// node holds two. With one reserve per node, `credit(w) ≥ 1` means
    /// `w` holds a staged vertex beyond its reserve or has a future one to
    /// promise, so [`donate`] always has a unit to give.
    pub(crate) fn verify_reserves(&self) -> Result<(), String> {
        let mut holders = FxHashSet::default();
        for &y in &self.taken {
            if !self.staged(y.0) {
                return Err(format!("reserve {y} is not staged"));
            }
            let u = self.staged_map.owner_of(y);
            if !holders.insert(u) {
                return Err(format!("node {u} holds two reserves"));
            }
        }
        Ok(())
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
    // The recovering node routes its counter delta to the coordinator
    // along a virtual shortest path: O(diam) = O(log n).
    let logp = (64 - dex.cycle.p().leading_zeros() as u64).max(1);
    dex.net.charge_messages(2 * logp);
    dex.net.charge_rounds(2 * logp);

    if dex.stag.is_some() {
        advance(dex);
        return;
    }
    let n = dex.n();
    let spare = dex.map.spare_count();
    let low = dex.map.low_count();
    if dex.cfg.staggered_trigger(spare, n) {
        begin_inflation(dex);
    } else if dex.cfg.staggered_trigger(low, n) {
        let p = dex.cycle.p();
        if primes::deflation_prime(p).is_some_and(|q| q >= crate::type2_simple::MIN_PRIME) {
            begin_deflation(dex);
        }
        // else: network is constant-sized; stay on the current cycle.
    }
}

fn window_size(p_old: u64, theta_inv: u64, n: usize) -> u64 {
    // Phase 1 must finish within θn steps: window ≥ p·θ⁻¹/n (O(1) in n
    // since p ≤ 8n).
    (p_old * theta_inv).div_ceil(n.max(1) as u64).max(1)
}

/// Start a staggered inflation and stage its first window.
pub fn begin_inflation(dex: &mut DexNetwork) {
    debug_assert!(dex.stag.is_none());
    let p_old = dex.cycle.p();
    let p_new = primes::inflation_prime(p_old);
    dex.stag = Some(StaggeredOp {
        kind: OpKind::Inflate,
        p_old,
        new_cycle: PCycle::new(p_new),
        staged_map: VirtualMapping::with_caller_slots(
            dex.cfg.zeta,
            0,
            dex.net.graph().slot_bound(),
        ),
        stage_cursor: 0,
        drop_cursor: 0,
        window: window_size(p_old, dex.cfg.theta_inv, dex.n()),
        taken: FxHashSet::default(),
        preassigned: FxHashMap::default(),
        preassigned_count: FxHashMap::default(),
        unprocessed: FxHashMap::default(),
    });
    advance(dex);
}

/// Start a staggered deflation and stage its first window.
pub fn begin_deflation(dex: &mut DexNetwork) {
    debug_assert!(dex.stag.is_none());
    let p_old = dex.cycle.p();
    let p_new = primes::deflation_prime(p_old)
        .filter(|&q| q >= crate::type2_simple::MIN_PRIME)
        .expect("caller checked deflation feasibility");
    let mut unprocessed: FxHashMap<NodeId, u64> = FxHashMap::default();
    for u in dex.map.nodes() {
        unprocessed.insert(u, dex.map.load(u));
    }
    dex.stag = Some(StaggeredOp {
        kind: OpKind::Deflate,
        p_old,
        new_cycle: PCycle::new(p_new),
        staged_map: VirtualMapping::with_caller_slots(
            dex.cfg.zeta,
            0,
            dex.net.graph().slot_bound(),
        ),
        stage_cursor: 0,
        drop_cursor: 0,
        window: window_size(p_old, dex.cfg.theta_inv, dex.n()),
        taken: FxHashSet::default(),
        preassigned: FxHashMap::default(),
        preassigned_count: FxHashMap::default(),
        unprocessed,
    });
    advance(dex);
}

/// The in-progress staggered operation. `stage_one`/`drop_one` take `&mut
/// DexNetwork`, so the borrow cannot be held across iterations; each site
/// re-borrows through this single checked accessor instead of scattering
/// bare `unwrap()`s.
const OP_GONE: &str = "staggered type-2 operation vanished while a window was being advanced";

fn op_ref(dex: &DexNetwork) -> &StaggeredOp {
    dex.stag.as_ref().expect(OP_GONE)
}

/// Mutable twin of [`op_ref`].
fn op_mut(dex: &mut DexNetwork) -> &mut StaggeredOp {
    dex.stag.as_mut().expect(OP_GONE)
}

/// Advance the in-progress operation by one window (Phase 1 staging or
/// Phase 2 dropping), switching over when done.
fn advance(dex: &mut DexNetwork) {
    // Activation request routed from the coordinator to the window owners.
    let logp = (64 - dex.cycle.p().leading_zeros() as u64).max(1);
    dex.net.charge_messages(2 * logp);
    dex.net.charge_rounds(2 * logp);

    let (window, staging) = {
        let op = op_ref(dex);
        (op.window, op.staging())
    };
    if staging {
        for _ in 0..window {
            let (cursor, p_old) = {
                let op = op_ref(dex);
                (op.stage_cursor, op.p_old)
            };
            if cursor >= p_old {
                break;
            }
            stage_one(dex, cursor);
        }
    } else {
        for _ in 0..window {
            let (cursor, p_old) = {
                let op = op_ref(dex);
                (op.drop_cursor, op.p_old)
            };
            if cursor >= p_old {
                break;
            }
            drop_one(dex, cursor);
        }
        let op = op_ref(dex);
        if op.drop_cursor >= op.p_old {
            switchover(dex);
        }
    }
}

/// Phase 1: process old vertex `x` (stage its generated vertices).
fn stage_one(dex: &mut DexNetwork, x: u64) {
    let owner_old = dex.map.owner_of(VertexId(x));

    // Remove intermediate instances that currently point at x: they are
    // about to be upgraded to real new-cycle edges.
    let inters = {
        let op = op_ref(dex);
        op.inter_sources_at_old(x, &[])
    };
    for &src in &inters {
        let op = op_ref(dex);
        let a = op.staged_map.owner_of(VertexId(src));
        assert!(
            dex.net.remove_edge(a, owner_old),
            "missing intermediate ({a} -> {owner_old}) for staged {src} at old {x}"
        );
    }

    // Stage the generated vertices.
    let gens = op_ref(dex).generated_by(x);
    let is_deflate = !op_ref(dex).is_inflation();
    for &y in &gens {
        let op = op_mut(dex);
        let target = op
            .preassigned
            .remove(&y)
            .inspect(|u| {
                let c = op.preassigned_count.get_mut(u).expect("count tracked");
                *c -= 1;
                if *c == 0 {
                    op.preassigned_count.remove(u);
                }
            })
            .unwrap_or(owner_old);
        let slot = dex.slot(target);
        let op = op_mut(dex);
        op.staged_map.assign_at(VertexId(y), target, slot);
        if is_deflate && op.staged_map.load(target) == 1 {
            op.taken.insert(VertexId(y)); // the node's reserve
        }
    }
    // Advance the cursor before computing the new instances (the staged()
    // predicate must see the fresh vertices).
    {
        let op = op_mut(dex);
        op.stage_cursor = x + 1;
        if is_deflate {
            if let Some(c) = op.unprocessed.get_mut(&owner_old) {
                *c -= 1;
                if *c == 0 {
                    op.unprocessed.remove(&owner_old);
                }
            }
        }
    }
    // Materialize the staged vertices' instances (real edges to staged
    // neighbors, intermediate edges into the unstaged region).
    let insts = {
        let op = op_ref(dex);
        op.incident_overlay(&gens)
    };
    for inst in insts {
        let (a, b) = {
            let op = op_ref(dex);
            op.endpoints(&dex.map, inst)
        };
        dex.net.add_edge(a, b);
    }
    dex.net.charge_messages(3 * gens.len() as u64 + 2);
    dex.net.charge_rounds(1);

    // Inflation: a node holding > 4ζ staged vertices spreads the surplus.
    if op_ref(dex).is_inflation() {
        rebalance_staged(dex, owner_old);
        // Transfers may also have pushed the preassignment recipient over.
    } else {
        // Deflation: contention check for the owner whose old vertices may
        // now all be processed.
        maybe_contend(dex, owner_old);
    }
}

/// Inflation Phase 1 rebalancing (Algorithm 4.8, line 6): while `u` holds
/// more than 4ζ staged vertices, walk the real network for nodes with
/// staged load < 4ζ and hand surplus vertices over.
fn rebalance_staged(dex: &mut DexNetwork, u: NodeId) {
    let cap = dex.cfg.max_load();
    let walk_len = dex.cfg.walk_len(dex.cycle.p());
    let mut attempt = 0u64;
    while op_ref(dex).staged_map.load(u) > cap {
        let step_no = dex.step_no;
        let out = {
            let op = dex.stag.as_ref().expect(OP_GONE);
            let mut rng = dex
                .seeds
                .stream(Purpose::RebalanceWalk, &[step_no, u.0, attempt]);
            random_walk_search(
                &mut dex.net,
                u,
                walk_len,
                None,
                |w| w != u && op.staged_map.load(w) < cap,
                &mut rng,
            )
        };
        if let Some(w) = out.hit {
            // A reserve never moves: with at most one a node, load > cap
            // leaves another to give.
            let y = {
                let op = op_ref(dex);
                op.staged_map
                    .sim(u)
                    .iter()
                    .filter(|z| !op.taken.contains(z))
                    .map(|z| z.0)
                    .max()
                    .expect("load > cap leaves a vertex beyond the reserve")
            };
            move_staged_vertex(dex, y, w);
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
fn maybe_contend(dex: &mut DexNetwork, u: NodeId) {
    if !dex.net.graph().has_node(u) {
        return;
    }
    {
        let op = op_ref(dex);
        if op.unprocessed.get(&u).copied().unwrap_or(0) > 0
            || op.staged_map.load(u) > 0
            || op.preassigned_count.get(&u).copied().unwrap_or(0) > 0
        {
            return;
        }
    }
    // u is contending: walk until a node with spare credit donates.
    let walk_len = dex.cfg.walk_len(dex.cycle.p());
    let step_no = dex.step_no;
    let mut attempt = 0u64;
    loop {
        let out = {
            let op = dex.stag.as_ref().expect(OP_GONE);
            let map = &dex.map;
            let mut rng = dex
                .seeds
                .stream(Purpose::RebalanceWalk, &[step_no, u.0 ^ 0xdef1a7e, attempt]);
            random_walk_search(
                &mut dex.net,
                u,
                walk_len,
                None,
                |w| w != u && credit(op, map, w) >= 1,
                &mut rng,
            )
        };
        if let Some(w) = out.hit {
            donate(dex, w, u);
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

/// Deflation credit of node `w`: guaranteed new vertices beyond its
/// reserve. Locally computable by `w` (its staged set, its preassignments,
/// and the dominating status of its own old vertices).
fn credit(op: &StaggeredOp, map: &VirtualMapping, w: NodeId) -> u64 {
    let guaranteed = op.staged_map.load(w)
        + op.preassigned_count.get(&w).copied().unwrap_or(0)
        + unstaged_dominating_unpreassigned(op, map, w).len() as u64;
    guaranteed.saturating_sub(1)
}

/// `w`'s old vertices that are unprocessed, dominating, and whose image is
/// not already promised to someone else.
fn unstaged_dominating_unpreassigned(
    op: &StaggeredOp,
    map: &VirtualMapping,
    w: NodeId,
) -> Vec<u64> {
    let p_new = op.new_cycle.p();
    map.sim(w)
        .iter()
        .map(|z| z.0)
        .filter(|&x| {
            x >= op.stage_cursor
                && resize::is_dominating(x, op.p_old, p_new)
                && !op
                    .preassigned
                    .contains_key(&resize::deflation_image(x, op.p_old, p_new))
        })
        .collect()
}

/// Donate one unit of deflation credit from `w` to `to`: a staged
/// non-taken vertex if available, else a preassignment of a future one.
fn donate(dex: &mut DexNetwork, w: NodeId, to: NodeId) {
    // Prefer a physically staged, non-reserved vertex.
    let staged_pick = {
        let op = op_ref(dex);
        op.staged_map
            .sim(w)
            .iter()
            .filter(|z| !op.taken.contains(z))
            .map(|z| z.0)
            .max()
    };
    if let Some(y) = staged_pick {
        move_staged_vertex(dex, y, to);
        let op = op_mut(dex);
        op.taken.insert(VertexId(y)); // recipient's reserve
        return;
    }
    // Else promise a future vertex from w's dominating stock.
    let future = {
        let op = op_ref(dex);
        unstaged_dominating_unpreassigned(op, &dex.map, w)
            .into_iter()
            .max()
    };
    if let Some(x) = future {
        let op = op_mut(dex);
        let y = resize::deflation_image(x, op.p_old, op.new_cycle.p());
        op.preassigned.insert(y, to);
        *op.preassigned_count.entry(to).or_insert(0) += 1;
        return;
    }
    // Last resort: reassign one of w's own preassignments.
    let op = op_mut(dex);
    let y = *op
        .preassigned
        .iter()
        .filter(|&(_, &v)| v == w)
        .map(|(y, _)| y)
        .max()
        .expect("credit >= 1 guaranteed a donatable unit");
    op.preassigned.insert(y, to);
    let cw = op.preassigned_count.get_mut(&w).expect("tracked");
    *cw -= 1;
    if *cw == 0 {
        op.preassigned_count.remove(&w);
    }
    *op.preassigned_count.entry(to).or_insert(0) += 1;
}

/// Phase 2: discard old vertex `x` and its remaining old-cycle edges.
fn drop_one(dex: &mut DexNetwork, x: u64) {
    let z = VertexId(x);
    let u = dex.map.owner_of(z);
    let cycle = dex.cycle;
    {
        let op = dex.stag.as_ref().expect(OP_GONE);
        let s = cycle.succ(z);
        if !op.dropped(s.0) && s != z {
            let b = dex.map.owner_of(s);
            assert!(dex.net.remove_edge(u, b), "missing old succ edge {x}");
        }
        let pr = cycle.pred(z);
        if !op.dropped(pr.0) && pr != z {
            let b = dex.map.owner_of(pr);
            assert!(dex.net.remove_edge(u, b), "missing old pred edge {x}");
        }
        let c = cycle.chord(z);
        if c == z {
            assert!(dex.net.remove_edge(u, u), "missing old loop {x}");
        } else if !op.dropped(c.0) {
            let b = dex.map.owner_of(c);
            assert!(dex.net.remove_edge(u, b), "missing old chord edge {x}");
        }
    }
    dex.map.unassign(z);
    op_mut(dex).drop_cursor = x + 1;
    dex.net.charge_messages(3);
}

/// All old vertices dropped: switch Φ and Z to the new cycle.
fn switchover(dex: &mut DexNetwork) {
    let op = dex.stag.take().expect("operation in progress");
    debug_assert_eq!(dex.map.num_vertices(), 0, "old map fully drained");
    debug_assert!(op.preassigned.is_empty(), "all preassignments staged");
    dex.cycle = op.new_cycle;
    dex.map = op.staged_map;
    // Coordinator state transfers to the owner of new vertex 0.
    let logp = (64 - dex.cycle.p().leading_zeros() as u64).max(1);
    dex.net.charge_messages(2 * logp);
    dex.net.charge_rounds(2 * logp);
}

// ======================================================================
// Vertex movement during a staggered operation
// ======================================================================

/// Move staged vertex `y` to node `to`, rewiring its overlay instances.
fn move_staged_vertex(dex: &mut DexNetwork, y: u64, to: NodeId) {
    let insts = {
        let op = op_ref(dex);
        op.incident_overlay(&[y])
    };
    for &inst in &insts {
        let (a, b) = {
            let op = op_ref(dex);
            op.endpoints(&dex.map, inst)
        };
        assert!(
            dex.net.remove_edge(a, b),
            "missing overlay instance {inst:?} at ({a},{b})"
        );
    }
    let slot = dex.slot(to);
    op_mut(dex).staged_map.transfer_at(VertexId(y), to, slot);
    for &inst in &insts {
        let (a, b) = {
            let op = op_ref(dex);
            op.endpoints(&dex.map, inst)
        };
        dex.net.add_edge(a, b);
    }
    dex.net.charge_messages(4);
    dex.net.charge_rounds(1);
}

/// Move live old vertex `x` to node `to`: old-fabric instances plus any
/// intermediate instances pointing at `x` follow it.
fn move_old_vertex(dex: &mut DexNetwork, x: u64, to: NodeId) {
    let z = VertexId(x);
    let from = dex.map.owner_of(z);
    let (old_insts, inters) = {
        let op = op_ref(dex);
        (
            op.old_incident(&dex.cycle, &[z]),
            op.inter_sources_at_old(x, &[]),
        )
    };
    for &(a, b) in &old_insts {
        let (ua, ub) = (dex.map.owner_of(a), dex.map.owner_of(b));
        assert!(dex.net.remove_edge(ua, ub), "missing old instance {a}-{b}");
    }
    for &src in &inters {
        let a = {
            let op = op_ref(dex);
            op.staged_map.owner_of(VertexId(src))
        };
        assert!(dex.net.remove_edge(a, from), "missing inter at old {x}");
    }
    dex.map.transfer_at(z, to, dex.slot(to));
    {
        let op = op_mut(dex);
        if !op.is_inflation() && x >= op.stage_cursor {
            if let Some(c) = op.unprocessed.get_mut(&from) {
                *c -= 1;
                if *c == 0 {
                    op.unprocessed.remove(&from);
                }
            }
            *op.unprocessed.entry(to).or_insert(0) += 1;
        }
    }
    for &(a, b) in &old_insts {
        let (ua, ub) = (dex.map.owner_of(a), dex.map.owner_of(b));
        dex.net.add_edge(ua, ub);
    }
    for &src in &inters {
        let a = {
            let op = op_ref(dex);
            op.staged_map.owner_of(VertexId(src))
        };
        dex.net.add_edge(a, to);
    }
    dex.net.charge_messages(4);
    dex.net.charge_rounds(1);
    // The donor may have become contending (deflation).
    if !op_ref(dex).is_inflation() {
        maybe_contend(dex, from);
    }
}

// ======================================================================
// Type-1 recovery while an operation is in flight
// ======================================================================

/// Insertion during a staggered operation (paper Sect. 4.4.1/4.4.2: serve
/// the newcomer from the new cycle where possible).
pub fn insert_during_staggered(dex: &mut DexNetwork, u: NodeId, v: NodeId) {
    let walk_len = dex.cfg.walk_len(dex.cycle.p());
    let step_no = dex.step_no;
    for attempt in 0..dex.cfg.max_walk_retries {
        let out = {
            let op = dex.stag.as_ref().expect(OP_GONE);
            let map = &dex.map;
            let mut rng = dex.seeds.stream(Purpose::InsertWalk, &[step_no, attempt]);
            let accept: Box<dyn Fn(NodeId) -> bool> = match (op.kind, op.staging()) {
                (OpKind::Inflate, true) => Box::new(move |w| {
                    op.staged_map.load(w) >= 2
                        || (map.load(w) >= 2 && map.sim(w).iter().any(|z| z.0 >= op.stage_cursor))
                }),
                (OpKind::Inflate, false) | (OpKind::Deflate, false) => {
                    Box::new(move |w| op.staged_map.load(w) >= 2)
                }
                (OpKind::Deflate, true) => {
                    Box::new(move |w| map.load(w) >= 2 && credit(op, map, w) >= 1)
                }
            };
            random_walk_search(&mut dex.net, v, walk_len, Some(u), &accept, &mut rng)
        };
        let Some(w) = out.hit else { continue };
        dex.walk_stats.hits += 1;

        let (kind, staging) = {
            let op = op_ref(dex);
            (op.kind, op.staging())
        };
        match (kind, staging) {
            (OpKind::Inflate, true) => {
                let staged_pick = {
                    let op = op_ref(dex);
                    if op.staged_map.load(w) >= 2 {
                        op.staged_map.sim(w).iter().map(|z| z.0).max()
                    } else {
                        None
                    }
                };
                if let Some(y) = staged_pick {
                    move_staged_vertex(dex, y, u);
                } else {
                    let x = {
                        let op = op_ref(dex);
                        dex.map
                            .sim(w)
                            .iter()
                            .map(|z| z.0)
                            .filter(|&x| x >= op.stage_cursor)
                            .max()
                            .expect("acceptance guaranteed an unstaged vertex")
                    };
                    move_old_vertex(dex, x, u);
                }
            }
            (OpKind::Inflate, false) | (OpKind::Deflate, false) => {
                let y = {
                    let op = op_ref(dex);
                    let pick = op
                        .staged_map
                        .sim(w)
                        .iter()
                        .filter(|z| !op.taken.contains(z))
                        .map(|z| z.0)
                        .max();
                    // Inflation has no reserves; deflation keeps one taken.
                    pick.unwrap_or_else(|| {
                        op.staged_map
                            .sim(w)
                            .iter()
                            .map(|z| z.0)
                            .max()
                            .expect("load >= 2")
                    })
                };
                move_staged_vertex(dex, y, u);
                let op = op_mut(dex);
                if !op.is_inflation() {
                    op.taken.insert(VertexId(y));
                }
            }
            (OpKind::Deflate, true) => {
                // Give the newcomer an old vertex for connectivity; a
                // dominating unpromised one carries its future new vertex.
                let dom_pick = {
                    let op = op_ref(dex);
                    unstaged_dominating_unpreassigned(op, &dex.map, w)
                        .into_iter()
                        .max()
                };
                if let Some(x) = dom_pick {
                    move_old_vertex(dex, x, u);
                } else {
                    let x = dex.map.sim(w).iter().map(|z| z.0).max().expect("load >= 2");
                    move_old_vertex(dex, x, u);
                    donate(dex, w, u);
                }
            }
        }
        dex.net.charge_messages(4);
        dex.net.charge_rounds(1);
        dex.charge_load_updates(&[dex.slot(w), dex.slot(u)]);
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
/// the victim simulated (old vertices, staged vertices, preassignments)
/// and redistributes.
pub fn delete_during_staggered(dex: &mut DexNetwork, victim: NodeId, rescuer: NodeId) {
    let old_zs: Vec<VertexId> = dex.map.sim(victim).to_vec();
    let staged_zs: Vec<u64> = {
        let op = op_ref(dex);
        op.staged_map.sim(victim).iter().map(|z| z.0).collect()
    };

    // Retarget ownership.
    let rescuer_slot = dex.slot(rescuer);
    for &z in &old_zs {
        dex.map.transfer_at(z, rescuer, rescuer_slot);
    }
    {
        let op = op_mut(dex);
        for &y in &staged_zs {
            op.staged_map
                .transfer_at(VertexId(y), rescuer, rescuer_slot);
        }
        // The victim's reserve came along: the rescuer keeps its smallest
        // reserve and releases the rest as credit, so it holds one.
        let keep = op
            .staged_map
            .sim(rescuer)
            .iter()
            .filter(|z| op.taken.contains(z))
            .min()
            .copied();
        for z in op.staged_map.sim(rescuer) {
            if Some(*z) != keep {
                op.taken.remove(z);
            }
        }
        // Preassignments and unprocessed counts follow the rescuer.
        let moved: Vec<u64> = op
            .preassigned
            .iter()
            .filter(|&(_, &v)| v == victim)
            .map(|(&y, _)| y)
            .collect();
        for y in moved {
            op.preassigned.insert(y, rescuer);
            *op.preassigned_count.entry(rescuer).or_insert(0) += 1;
        }
        op.preassigned_count.remove(&victim);
        if let Some(c) = op.unprocessed.remove(&victim) {
            *op.unprocessed.entry(rescuer).or_insert(0) += c;
        }
    }

    // Restore all physical instances the victim's disappearance destroyed.
    let (old_insts, staged_insts, inter_insts) = {
        let op = op_ref(dex);
        let old_insts = op.old_incident(&dex.cycle, &old_zs);
        let staged_insts = op.incident_overlay(&staged_zs);
        let mut inter_insts: Vec<(u64, u64)> = Vec::new(); // (staged src, old x)
        for &z in &old_zs {
            for src in op.inter_sources_at_old(z.0, &staged_zs) {
                inter_insts.push((src, z.0));
            }
        }
        (old_insts, staged_insts, inter_insts)
    };
    for (a, b) in old_insts {
        let (ua, ub) = (dex.map.owner_of(a), dex.map.owner_of(b));
        dex.net.add_edge(ua, ub);
    }
    for inst in staged_insts {
        let (a, b) = {
            let op = op_ref(dex);
            op.endpoints(&dex.map, inst)
        };
        dex.net.add_edge(a, b);
    }
    for (src, x) in inter_insts {
        let a = {
            let op = op_ref(dex);
            op.staged_map.owner_of(VertexId(src))
        };
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
                random_walk_search(
                    &mut dex.net,
                    rescuer,
                    walk_len,
                    None,
                    |w| map.is_low(w),
                    &mut rng,
                )
            };
            if let Some(w) = out.hit {
                if w != rescuer {
                    move_old_vertex(dex, z.0, w);
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
        let (done, reserve) = {
            let op = op_ref(dex);
            (
                op.staged_map.load(rescuer) <= cap,
                op.taken.contains(&VertexId(y)),
            )
        };
        if done {
            break;
        }
        // The victim's reserve, if the rescuer kept it, stays put.
        if reserve {
            continue;
        }
        let mut attempt = 0u64;
        loop {
            let out = {
                let op = dex.stag.as_ref().expect(OP_GONE);
                let mut rng = dex
                    .seeds
                    .stream(Purpose::DeleteWalk, &[step_no, 0x57a6 + i as u64, attempt]);
                random_walk_search(
                    &mut dex.net,
                    rescuer,
                    walk_len,
                    None,
                    |w| w != rescuer && op.staged_map.load(w) < cap,
                    &mut rng,
                )
            };
            if let Some(w) = out.hit {
                move_staged_vertex(dex, y, w);
                break;
            }
            attempt += 1;
            if attempt >= STAGGERED_WALK_ATTEMPTS {
                break;
            }
        }
    }
    // The rescuer's contention state may have changed (deflation).
    if !op_ref(dex).is_inflation() {
        maybe_contend(dex, rescuer);
    }
}
