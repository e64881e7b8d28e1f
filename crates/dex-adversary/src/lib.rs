//! Adaptive adversary strategies for self-healing overlay experiments.
//!
//! The paper's adversary is *fully adaptive*: it sees the entire network
//! state — topology, the virtual mapping, and all past random choices —
//! before choosing each attack (Sect. 2). Strategies here receive a full
//! [`View`] of the network each step, which is exactly that power
//! (runs are deterministic given the master seed, so "past random
//! choices" are implied by the observable state).
//!
//! Strategies:
//! * [`RandomChurn`] — baseline churn at a chosen insert probability;
//! * [`InsertOnly`] / [`DeleteOnly`] — monotone growth/shrink, driving
//!   repeated inflations/deflations;
//! * [`HighLoadHunter`] — always deletes a maximum-load node, attacking
//!   the balance invariant;
//! * [`CoordinatorHunter`] — always deletes the simulator of virtual
//!   vertex 0 (DEX's coordinator), attacking the worst-case machinery;
//! * [`CutAttacker`] — greedily deletes boundary nodes of the sparsest
//!   spectral sweep cut it can find, attacking expansion directly;
//! * [`OscillatingSize`] — sawtooths the network size across the
//!   inflation/deflation thresholds, forcing type-2 thrash;
//! * [`ReplayTrace`] — replays a recorded action trace (plain-text
//!   format, see [`trace`]).

pub mod driver;
pub mod trace;

use dex_graph::adjacency::MultiGraph;
use dex_graph::fxhash::FxHashSet;
use dex_graph::ids::{NodeId, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One adversarial or workload action.
///
/// Beyond the paper's single-event churn (`Insert` / `Delete`), the
/// grammar covers the Sect. 5 batch extension and DHT traffic, so a
/// recorded trace can replay an entire mixed workload bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Insert `id`, attached to `attach`.
    Insert {
        /// The new node's id (chosen by the adversary).
        id: NodeId,
        /// The existing node it is initially connected to.
        attach: NodeId,
    },
    /// Delete `victim`.
    Delete {
        /// The node removed from the network.
        victim: NodeId,
    },
    /// Insert a whole batch of `(new_node, attach_to)` pairs in one
    /// adversarial step (Sect. 5; drives `DexNetwork::insert_batch`).
    BatchInsert {
        /// The `(newcomer, attach point)` pairs.
        joins: Vec<(NodeId, NodeId)>,
    },
    /// Delete a batch of victims in one adversarial step
    /// (drives `DexNetwork::delete_batch`).
    BatchDelete {
        /// The victims, in processing order.
        victims: Vec<NodeId>,
    },
    /// Store a key–value pair via the DHT, initiated by `from`.
    DhtPut {
        /// Initiating node.
        from: NodeId,
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// Look up a key via the DHT, initiated by `from`.
    DhtGet {
        /// Initiating node.
        from: NodeId,
        /// Key.
        key: u64,
    },
    /// Install a message-level fault spec: every subsequent action runs on
    /// the event-driven simulator ([`dex_sim::msim`]) under these faults
    /// until a [`Action::ClearFaults`] record restores centralized
    /// execution. Lets a recorded trace capture an entire fault campaign —
    /// including the exact loss/latency/partition parameters — replayably.
    SetFaults {
        /// The fault model to install.
        spec: dex_sim::msim::FaultSpec,
    },
    /// Remove the installed fault spec (back to centralized execution).
    ClearFaults,
}

/// Everything the adaptive adversary may inspect before striking.
pub struct View<'a> {
    /// The physical topology.
    pub graph: &'a MultiGraph,
    /// Load of each node (the virtual mapping Φ is public to the
    /// adversary).
    pub load: &'a dyn Fn(NodeId) -> u64,
    /// Owner of a virtual vertex (e.g. the coordinator = owner of 0).
    pub owner: &'a dyn Fn(VertexId) -> Option<NodeId>,
    /// Current virtual-graph size p.
    pub p: u64,
}

impl View<'_> {
    /// Node ids, ascending.
    pub fn ids(&self) -> Vec<NodeId> {
        self.graph.nodes_sorted()
    }
}

/// An adaptive adversary strategy.
pub trait Adversary {
    /// Decide the next attack given full knowledge of the network.
    fn next(&mut self, view: &View<'_>) -> Action;
    /// Display name for reports.
    fn name(&self) -> &'static str;
}

/// Allocate fresh ids for inserted nodes, never colliding with live ids.
#[derive(Debug)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// Start above any id the bootstrap may have used.
    pub fn new() -> Self {
        IdAllocator { next: 1 << 32 }
    }

    /// Next fresh id.
    pub fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next);
        self.next += 1;
        id
    }
}

impl Default for IdAllocator {
    fn default() -> Self {
        Self::new()
    }
}

/// Uniform random churn with insert probability `p_insert`.
pub struct RandomChurn {
    rng: StdRng,
    ids: IdAllocator,
    /// Probability of choosing an insertion.
    pub p_insert: f64,
    /// Never delete below this size.
    pub min_n: usize,
}

impl RandomChurn {
    /// New strategy with its own RNG stream.
    pub fn new(seed: u64, p_insert: f64) -> Self {
        RandomChurn {
            rng: StdRng::seed_from_u64(seed),
            ids: IdAllocator::new(),
            p_insert,
            min_n: 4,
        }
    }
}

impl Adversary for RandomChurn {
    fn next(&mut self, view: &View<'_>) -> Action {
        let ids = view.ids();
        if self.rng.random_bool(self.p_insert) || ids.len() <= self.min_n {
            Action::Insert {
                id: self.ids.fresh(),
                attach: ids[self.rng.random_range(0..ids.len())],
            }
        } else {
            Action::Delete {
                victim: ids[self.rng.random_range(0..ids.len())],
            }
        }
    }

    fn name(&self) -> &'static str {
        "random-churn"
    }
}

/// Pure growth.
pub struct InsertOnly {
    rng: StdRng,
    ids: IdAllocator,
}

impl InsertOnly {
    /// New strategy.
    pub fn new(seed: u64) -> Self {
        InsertOnly {
            rng: StdRng::seed_from_u64(seed),
            ids: IdAllocator::new(),
        }
    }
}

impl Adversary for InsertOnly {
    fn next(&mut self, view: &View<'_>) -> Action {
        let ids = view.ids();
        Action::Insert {
            id: self.ids.fresh(),
            attach: ids[self.rng.random_range(0..ids.len())],
        }
    }

    fn name(&self) -> &'static str {
        "insert-only"
    }
}

/// Pure shrink (random victims) down to `min_n`, then idles with
/// insert/delete pairs.
pub struct DeleteOnly {
    rng: StdRng,
    ids: IdAllocator,
    /// Floor below which the strategy stops deleting.
    pub min_n: usize,
    flip: bool,
}

impl DeleteOnly {
    /// New strategy.
    pub fn new(seed: u64, min_n: usize) -> Self {
        DeleteOnly {
            rng: StdRng::seed_from_u64(seed),
            ids: IdAllocator::new(),
            min_n: min_n.max(4),
            flip: false,
        }
    }
}

impl Adversary for DeleteOnly {
    fn next(&mut self, view: &View<'_>) -> Action {
        let ids = view.ids();
        if ids.len() > self.min_n {
            Action::Delete {
                victim: ids[self.rng.random_range(0..ids.len())],
            }
        } else {
            // Hold size with an insert/delete oscillation.
            self.flip = !self.flip;
            if self.flip {
                Action::Insert {
                    id: self.ids.fresh(),
                    attach: ids[self.rng.random_range(0..ids.len())],
                }
            } else {
                Action::Delete {
                    victim: ids[self.rng.random_range(0..ids.len())],
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "delete-only"
    }
}

/// Deletes a maximum-load node each step (alternating with insertions to
/// keep the size stable): the strongest attack on the balance invariant.
pub struct HighLoadHunter {
    rng: StdRng,
    ids: IdAllocator,
    flip: bool,
}

impl HighLoadHunter {
    /// New strategy.
    pub fn new(seed: u64) -> Self {
        HighLoadHunter {
            rng: StdRng::seed_from_u64(seed),
            ids: IdAllocator::new(),
            flip: false,
        }
    }
}

impl Adversary for HighLoadHunter {
    fn next(&mut self, view: &View<'_>) -> Action {
        self.flip = !self.flip;
        let ids = view.ids();
        if self.flip && ids.len() > 4 {
            let victim = ids
                .iter()
                .copied()
                .max_by_key(|&u| ((view.load)(u), u))
                .expect("nonempty");
            Action::Delete { victim }
        } else {
            Action::Insert {
                id: self.ids.fresh(),
                attach: ids[self.rng.random_range(0..ids.len())],
            }
        }
    }

    fn name(&self) -> &'static str {
        "high-load-hunter"
    }
}

/// Deletes the owner of virtual vertex 0 — DEX's coordinator — every
/// other step. Tests coordinator handoff under targeted fire.
pub struct CoordinatorHunter {
    rng: StdRng,
    ids: IdAllocator,
    flip: bool,
}

impl CoordinatorHunter {
    /// New strategy.
    pub fn new(seed: u64) -> Self {
        CoordinatorHunter {
            rng: StdRng::seed_from_u64(seed),
            ids: IdAllocator::new(),
            flip: false,
        }
    }
}

impl Adversary for CoordinatorHunter {
    fn next(&mut self, view: &View<'_>) -> Action {
        self.flip = !self.flip;
        let ids = view.ids();
        if self.flip && ids.len() > 4 {
            if let Some(coord) = (view.owner)(VertexId(0)) {
                return Action::Delete { victim: coord };
            }
        }
        Action::Insert {
            id: self.ids.fresh(),
            attach: ids[self.rng.random_range(0..ids.len())],
        }
    }

    fn name(&self) -> &'static str {
        "coordinator-hunter"
    }
}

/// Small side of the sparsest BFS sweep cut of a nonempty `g`: order
/// the nodes breadth-first from a lowest-degree node, expanding each
/// node's neighbours in ascending id order, then sweep the prefixes of
/// the first half of that order for the lowest cut/size ratio (the
/// first prefix wins a tie). A cheap deterministic stand-in for a
/// Fiedler sweep: [`CutAttacker`] and the workload engine's cut bursts
/// both attack this side.
pub fn sparsest_sweep_side(g: &MultiGraph) -> Vec<NodeId> {
    let start = g
        .nodes()
        .min_by_key(|&u| (g.degree(u), u))
        .expect("nonempty graph");
    let mut order = vec![start];
    let mut seen: FxHashSet<NodeId> = [start].into_iter().collect();
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        let mut nbrs = g.neighbors(u).to_vec();
        nbrs.sort_unstable();
        for v in nbrs {
            if seen.insert(v) {
                order.push(v);
            }
        }
    }
    let mut in_prefix: FxHashSet<NodeId> = FxHashSet::default();
    let mut cut = 0i64;
    let mut best = (f64::INFINITY, 1usize);
    for (i, &u) in order.iter().enumerate().take(order.len() / 2) {
        for v in g.neighbors(u) {
            if v != u {
                cut += if in_prefix.contains(&v) { -1 } else { 1 };
            }
        }
        in_prefix.insert(u);
        let ratio = cut as f64 / (i + 1) as f64;
        if ratio < best.0 {
            best = (ratio, i + 1);
        }
    }
    order.truncate(best.1);
    order
}

/// `(cross, u)` for every `u` of `side`, in `side`'s order: `cross`
/// counts `u`'s edges (with multiplicity) that leave `side`.
pub fn cross_degrees(g: &MultiGraph, side: &[NodeId]) -> Vec<(usize, NodeId)> {
    let side_set: FxHashSet<NodeId> = side.iter().copied().collect();
    side.iter()
        .map(|&u| {
            let cross = g
                .neighbors(u)
                .iter()
                .filter(|v| !side_set.contains(v))
                .count();
            (cross, u)
        })
        .collect()
}

/// The node of `side` with the most cross edges, the larger id on a tie.
fn busiest_boundary(g: &MultiGraph, side: &[NodeId]) -> NodeId {
    cross_degrees(g, side)
        .into_iter()
        .max()
        .expect("nonempty side")
        .1
}

/// Greedy expansion attack: find [`sparsest_sweep_side`] (BFS layering
/// from the lowest-degree node approximates the Fiedler order at this
/// scale) and delete its node with the most cross-edges. Alternates with
/// insertions that all attach inside the small side, trying to grow a
/// poorly-connected lobe.
pub struct CutAttacker {
    rng: StdRng,
    ids: IdAllocator,
    flip: bool,
}

impl CutAttacker {
    /// New strategy.
    pub fn new(seed: u64) -> Self {
        CutAttacker {
            rng: StdRng::seed_from_u64(seed),
            ids: IdAllocator::new(),
            flip: false,
        }
    }
}

impl Adversary for CutAttacker {
    fn next(&mut self, view: &View<'_>) -> Action {
        self.flip = !self.flip;
        let side = sparsest_sweep_side(view.graph);
        if self.flip && view.graph.num_nodes() > 6 {
            Action::Delete {
                victim: busiest_boundary(view.graph, &side),
            }
        } else {
            // Grow the weak side.
            Action::Insert {
                id: self.ids.fresh(),
                attach: side[self.rng.random_range(0..side.len())],
            }
        }
    }

    fn name(&self) -> &'static str {
        "cut-attacker"
    }
}

/// The strongest expansion attack we can mount: compute the true spectral
/// sweep cut (Fiedler vector + conductance sweep — the certificate side of
/// Cheeger's inequality) and work on thinning it: delete the boundary node
/// of the sparse side with the most cross-edges, and grow the sparse side
/// with targeted insertions. An overlay with merely probabilistic
/// expansion eventually exposes a sparse cut to this adversary; DEX's
/// deterministic gap means the sweep never finds anything thin.
pub struct SpectralCutAttacker {
    rng: StdRng,
    ids: IdAllocator,
    flip: bool,
}

impl SpectralCutAttacker {
    /// New strategy.
    pub fn new(seed: u64) -> Self {
        SpectralCutAttacker {
            rng: StdRng::seed_from_u64(seed),
            ids: IdAllocator::new(),
            flip: false,
        }
    }
}

impl Adversary for SpectralCutAttacker {
    fn next(&mut self, view: &View<'_>) -> Action {
        self.flip = !self.flip;
        let (side, _phi) = dex_graph::spectral::sweep_cut(view.graph);
        if side.is_empty() {
            let ids = view.ids();
            return Action::Insert {
                id: self.ids.fresh(),
                attach: ids[self.rng.random_range(0..ids.len())],
            };
        }
        if self.flip && view.graph.num_nodes() > 6 {
            Action::Delete {
                victim: busiest_boundary(view.graph, &side),
            }
        } else {
            Action::Insert {
                id: self.ids.fresh(),
                attach: side[self.rng.random_range(0..side.len())],
            }
        }
    }

    fn name(&self) -> &'static str {
        "spectral-cut-attacker"
    }
}

/// Sawtooth the network size between `lo` and `hi`, crossing the type-2
/// thresholds repeatedly — worst case for inflation/deflation churn.
pub struct OscillatingSize {
    rng: StdRng,
    ids: IdAllocator,
    /// Lower turning point.
    pub lo: usize,
    /// Upper turning point.
    pub hi: usize,
    growing: bool,
}

impl OscillatingSize {
    /// New strategy oscillating between `lo` and `hi` nodes.
    pub fn new(seed: u64, lo: usize, hi: usize) -> Self {
        assert!(4 <= lo && lo < hi);
        OscillatingSize {
            rng: StdRng::seed_from_u64(seed),
            ids: IdAllocator::new(),
            lo,
            hi,
            growing: true,
        }
    }
}

impl Adversary for OscillatingSize {
    fn next(&mut self, view: &View<'_>) -> Action {
        let n = view.graph.num_nodes();
        if n >= self.hi {
            self.growing = false;
        }
        if n <= self.lo {
            self.growing = true;
        }
        let ids = view.ids();
        if self.growing {
            Action::Insert {
                id: self.ids.fresh(),
                attach: ids[self.rng.random_range(0..ids.len())],
            }
        } else {
            Action::Delete {
                victim: ids[self.rng.random_range(0..ids.len())],
            }
        }
    }

    fn name(&self) -> &'static str {
        "oscillating-size"
    }
}

/// Replays a recorded trace (see [`trace`]); panics when exhausted.
pub struct ReplayTrace {
    actions: std::vec::IntoIter<Action>,
}

impl ReplayTrace {
    /// Replay the given actions.
    pub fn new(actions: Vec<Action>) -> Self {
        ReplayTrace {
            actions: actions.into_iter(),
        }
    }
}

impl Adversary for ReplayTrace {
    fn next(&mut self, _view: &View<'_>) -> Action {
        self.actions.next().expect("trace exhausted")
    }

    fn name(&self) -> &'static str {
        "replay-trace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_graph::generators::ring;

    fn view_of(g: &MultiGraph) -> View<'_> {
        static LOAD: fn(NodeId) -> u64 = |_| 1;
        static OWNER: fn(VertexId) -> Option<NodeId> = |_| Some(NodeId(0));
        View {
            graph: g,
            load: &LOAD,
            owner: &OWNER,
            p: 23,
        }
    }

    #[test]
    fn random_churn_respects_floor() {
        let g = ring(4);
        let mut adv = RandomChurn::new(1, 0.0); // always wants to delete
        for _ in 0..10 {
            match adv.next(&view_of(&g)) {
                Action::Insert { .. } => {}
                a => panic!("expected insert above floor, got {a:?}"),
            }
        }
    }

    #[test]
    fn ids_are_fresh_and_unique() {
        let mut ids = IdAllocator::new();
        let a = ids.fresh();
        let b = ids.fresh();
        assert_ne!(a, b);
        assert!(a.0 >= 1 << 32);
    }

    #[test]
    fn coordinator_hunter_targets_vertex_zero_owner() {
        let g = ring(8);
        let mut adv = CoordinatorHunter::new(3);
        let mut saw_delete_of_owner = false;
        for _ in 0..4 {
            if let Action::Delete { victim } = adv.next(&view_of(&g)) {
                assert_eq!(victim, NodeId(0)); // our stub owner
                saw_delete_of_owner = true;
            }
        }
        assert!(saw_delete_of_owner);
    }

    #[test]
    fn cut_attacker_finds_a_boundary() {
        // Barbell: two rings joined by one edge — the sweep must find it.
        let mut g = ring(6);
        for i in 10..16u64 {
            g.add_node(NodeId(i));
        }
        for i in 10..16u64 {
            let j = if i == 15 { 10 } else { i + 1 };
            g.add_edge(NodeId(i), NodeId(j));
        }
        g.add_edge(NodeId(0), NodeId(10));
        let side = sparsest_sweep_side(&g);
        assert!(side.len() <= 6);
        let Action::Delete { victim } = CutAttacker::new(4).next(&view_of(&g)) else {
            panic!("expected a delete");
        };
        assert!(side.contains(&victim));
    }

    #[test]
    fn oscillator_turns_around() {
        let mut adv = OscillatingSize::new(5, 4, 6);
        let g6 = ring(6);
        match adv.next(&view_of(&g6)) {
            Action::Delete { .. } => {}
            a => panic!("expected delete at hi, got {a:?}"),
        }
        let g4 = ring(4);
        match adv.next(&view_of(&g4)) {
            Action::Insert { .. } => {}
            a => panic!("expected insert at lo, got {a:?}"),
        }
    }
}
