//! The metered physical network.
//!
//! Wraps a [`MultiGraph`] and charges every cost the paper reports:
//!
//! * **topology changes** — edges added/removed by the healing algorithm
//!   (`add_edge` / `remove_edge`). The adversary's own attack — attaching a
//!   new node, or a deletion taking its incident edges down — is applied
//!   through the `adversary_*` methods and is *not* charged, matching the
//!   paper's accounting (the algorithm's "number of topology changes").
//! * **messages** and **rounds** — charged explicitly by protocol helpers
//!   ([`crate::tokens`], [`crate::flood`]) and by protocol code in
//!   `dex-core`.
//!
//! A *step scope* (`begin_step` / `end_step`) brackets each adversarial
//! event and snapshots the counters into a [`StepMetrics`] history entry.

use crate::metrics::{RecoveryKind, StepKind, StepMetrics};
use dex_graph::adjacency::MultiGraph;
use dex_graph::ids::NodeId;
use std::collections::VecDeque;

/// How the network records per-step metrics. Long-running large-n drivers
/// (the 1M-node churn benchmarks) switch away from [`HistoryMode::Full`]
/// so a multi-thousand-step run does not hold every [`StepMetrics`] live;
/// running [`StepTotals`] are maintained in every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryMode {
    /// Keep every step (default — tests and experiment-scale harnesses).
    Full,
    /// Ring buffer of the most recent `k` steps.
    Window(usize),
    /// Keep no per-step history at all.
    Off,
}

/// Running totals over every completed step, maintained regardless of the
/// [`HistoryMode`] — the O(1)-memory summary a streaming driver reads
/// instead of the history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTotals {
    /// Completed steps.
    pub steps: u64,
    /// Total rounds across all steps.
    pub rounds: u64,
    /// Total messages across all steps.
    pub messages: u64,
    /// Total topology changes across all steps.
    pub topology_changes: u64,
    /// Steps whose recovery was a type-2 flavour.
    pub type2_steps: u64,
}

/// Metered dynamic network. See module docs.
pub struct Network {
    graph: MultiGraph,
    rounds: u64,
    messages: u64,
    topology_changes: u64,
    in_step: bool,
    step_counter: u64,
    mode: HistoryMode,
    /// Per-step metric history (push order = step order; bounded by the
    /// mode's window).
    history: VecDeque<StepMetrics>,
    totals: StepTotals,
}

impl Network {
    /// Empty network recording full history.
    pub fn new() -> Self {
        Network {
            graph: MultiGraph::new(),
            rounds: 0,
            messages: 0,
            topology_changes: 0,
            in_step: false,
            step_counter: 0,
            mode: HistoryMode::Full,
            history: VecDeque::new(),
            totals: StepTotals::default(),
        }
    }

    /// Change how per-step metrics are retained. Shrinking modes drop the
    /// oldest retained entries immediately; totals are unaffected.
    pub fn set_history_mode(&mut self, mode: HistoryMode) {
        self.mode = mode;
        match mode {
            HistoryMode::Full => {}
            HistoryMode::Window(k) => {
                while self.history.len() > k {
                    self.history.pop_front();
                }
            }
            HistoryMode::Off => self.history.clear(),
        }
    }

    /// The retained per-step history (everything under
    /// [`HistoryMode::Full`], the trailing window under
    /// [`HistoryMode::Window`], empty under [`HistoryMode::Off`]).
    #[inline]
    pub fn history(&self) -> &VecDeque<StepMetrics> {
        &self.history
    }

    /// Running totals over *all* completed steps (mode-independent).
    #[inline]
    pub fn totals(&self) -> StepTotals {
        self.totals
    }

    /// Read-only view of the physical topology.
    #[inline]
    pub fn graph(&self) -> &MultiGraph {
        &self.graph
    }

    /// Current network size.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.num_nodes()
    }

    // ---- adversarial (uncharged) mutations -------------------------------

    /// Adversary inserts an isolated node; returns its arena slot.
    pub fn adversary_add_node(&mut self, u: NodeId) -> u32 {
        self.graph
            .insert_node(u)
            .unwrap_or_else(|| panic!("adversary inserted existing node {u}"))
    }

    /// Adversary attaches an edge (e.g. the initial connection of an
    /// inserted node). Not charged to the algorithm.
    pub fn adversary_add_edge(&mut self, u: NodeId, v: NodeId) {
        self.graph.add_edge(u, v);
    }

    /// [`Self::adversary_add_edge`] between two live slots.
    pub fn adversary_add_edge_slots(&mut self, su: u32, sv: u32) {
        self.graph.add_edge_slots(su, sv);
    }

    /// Adversary (or uncharged bootstrap code) removes one edge copy.
    /// Not charged. Returns whether a copy existed.
    pub fn adversary_remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.graph.remove_edge(u, v)
    }

    /// Adversary deletes a node with all incident edges. Not charged.
    pub fn adversary_remove_node(&mut self, u: NodeId) -> usize {
        self.graph
            .remove_node(u)
            .unwrap_or_else(|| panic!("adversary deleted missing node {u}"))
    }

    // ---- algorithm (charged) mutations ------------------------------------

    /// Healing code adds an edge: one topology change.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.graph.add_edge(u, v);
        self.topology_changes += 1;
    }

    /// [`Self::add_edge`] between two live slots — the form the type-1
    /// healing path uses (it holds slots from the walk and from Φ).
    #[inline]
    pub fn add_edge_slots(&mut self, su: u32, sv: u32) {
        self.graph.add_edge_slots(su, sv);
        self.topology_changes += 1;
    }

    /// Healing code removes one edge copy: one topology change.
    /// Returns whether an edge was present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let removed = self.graph.remove_edge(u, v);
        if removed {
            self.topology_changes += 1;
        }
        removed
    }

    /// [`Self::remove_edge`] between two live slots.
    #[inline]
    pub fn remove_edge_slots(&mut self, su: u32, sv: u32) -> bool {
        let removed = self.graph.remove_edge_slots(su, sv);
        if removed {
            self.topology_changes += 1;
        }
        removed
    }

    /// Healing code adds a node (only used when bootstrapping).
    pub fn add_node(&mut self, u: NodeId) {
        assert!(self.graph.add_node(u), "node {u} already present");
    }

    // ---- cost charging -----------------------------------------------------

    /// Charge `k` synchronous rounds.
    #[inline]
    pub fn charge_rounds(&mut self, k: u64) {
        self.rounds += k;
    }

    /// Charge `k` messages.
    #[inline]
    pub fn charge_messages(&mut self, k: u64) {
        self.messages += k;
    }

    /// Counters since the current step began: `(rounds, messages,
    /// topology_changes)`.
    pub fn current_counters(&self) -> (u64, u64, u64) {
        (self.rounds, self.messages, self.topology_changes)
    }

    // ---- step scoping ------------------------------------------------------

    /// Begin an adversarial step: zero the per-step counters.
    pub fn begin_step(&mut self) {
        assert!(!self.in_step, "begin_step inside an open step");
        self.in_step = true;
        self.step_counter += 1;
        self.rounds = 0;
        self.messages = 0;
        self.topology_changes = 0;
    }

    /// End the step, record and return its metrics.
    pub fn end_step(&mut self, kind: StepKind, recovery: RecoveryKind) -> StepMetrics {
        assert!(self.in_step, "end_step without begin_step");
        self.in_step = false;
        let m = StepMetrics {
            step: self.step_counter,
            kind,
            recovery,
            rounds: self.rounds,
            messages: self.messages,
            topology_changes: self.topology_changes,
            n_after: self.n(),
        };
        self.totals.steps += 1;
        self.totals.rounds += m.rounds;
        self.totals.messages += m.messages;
        self.totals.topology_changes += m.topology_changes;
        if recovery.is_type2() {
            self.totals.type2_steps += 1;
        }
        match self.mode {
            HistoryMode::Full => self.history.push_back(m),
            HistoryMode::Window(k) => {
                if k > 0 {
                    if self.history.len() == k {
                        self.history.pop_front();
                    }
                    self.history.push_back(m);
                }
            }
            HistoryMode::Off => {}
        }
        m
    }

    /// Number of completed steps.
    pub fn steps_completed(&self) -> u64 {
        self.step_counter
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn charges_algorithm_edges_only() {
        let mut net = Network::new();
        net.adversary_add_node(n(0));
        net.adversary_add_node(n(1));
        net.begin_step();
        net.adversary_add_edge(n(0), n(1)); // attack: free
        net.add_edge(n(0), n(1)); // healing: charged
        net.remove_edge(n(0), n(1)); // healing: charged
                                     // The slot forms meter the same way.
        let (s0, s1) = (net.graph().slot_of(n(0)), net.graph().slot_of(n(1)));
        let (s0, s1) = (s0.unwrap(), s1.unwrap());
        net.adversary_add_edge_slots(s0, s1);
        net.add_edge_slots(s0, s1);
        assert!(net.remove_edge_slots(s1, s0));
        let m = net.end_step(StepKind::Insert, RecoveryKind::Type1);
        assert_eq!(m.topology_changes, 4);
        assert_eq!(net.graph().num_edges(), 2);
    }

    #[test]
    fn step_scope_resets_counters() {
        let mut net = Network::new();
        net.adversary_add_node(n(0));
        net.begin_step();
        net.charge_rounds(5);
        net.charge_messages(9);
        let m1 = net.end_step(StepKind::Insert, RecoveryKind::Type1);
        assert_eq!((m1.rounds, m1.messages), (5, 9));
        net.begin_step();
        let m2 = net.end_step(StepKind::Delete, RecoveryKind::Type1);
        assert_eq!((m2.rounds, m2.messages), (0, 0));
        assert_eq!(net.history().len(), 2);
        assert_eq!(net.history()[1].step, 2);
    }

    #[test]
    fn window_mode_keeps_trailing_steps_and_totals_everything() {
        let mut net = Network::new();
        net.adversary_add_node(n(0));
        net.set_history_mode(HistoryMode::Window(2));
        for i in 0..5u64 {
            net.begin_step();
            net.charge_rounds(i + 1);
            net.end_step(StepKind::Insert, RecoveryKind::Type1);
        }
        assert_eq!(net.history().len(), 2);
        assert_eq!(net.history()[0].step, 4);
        assert_eq!(net.history()[1].step, 5);
        let t = net.totals();
        assert_eq!(t.steps, 5);
        assert_eq!(t.rounds, 1 + 2 + 3 + 4 + 5);
        assert_eq!(t.type2_steps, 0);
    }

    #[test]
    fn off_mode_retains_nothing_but_still_totals() {
        let mut net = Network::new();
        net.adversary_add_node(n(0));
        net.set_history_mode(HistoryMode::Off);
        net.begin_step();
        net.charge_messages(7);
        net.end_step(StepKind::Delete, RecoveryKind::InflateSimple);
        assert!(net.history().is_empty());
        assert_eq!(net.totals().messages, 7);
        assert_eq!(net.totals().type2_steps, 1);
        // Switching modes later drops retained entries but keeps totals.
        net.set_history_mode(HistoryMode::Full);
        net.begin_step();
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
        assert_eq!(net.history().len(), 1);
        assert_eq!(net.totals().steps, 2);
    }

    #[test]
    #[should_panic(expected = "begin_step inside an open step")]
    fn nested_steps_rejected() {
        let mut net = Network::new();
        net.begin_step();
        net.begin_step();
    }

    #[test]
    fn adversary_remove_reports_edge_count() {
        let mut net = Network::new();
        for i in 0..3 {
            net.adversary_add_node(n(i));
        }
        net.adversary_add_edge(n(0), n(1));
        net.adversary_add_edge(n(0), n(2));
        assert_eq!(net.adversary_remove_node(n(0)), 2);
        assert_eq!(net.n(), 2);
    }

    #[test]
    fn remove_missing_edge_not_charged() {
        let mut net = Network::new();
        net.adversary_add_node(n(0));
        net.adversary_add_node(n(1));
        net.begin_step();
        assert!(!net.remove_edge(n(0), n(1)));
        let m = net.end_step(StepKind::Delete, RecoveryKind::Type1);
        assert_eq!(m.topology_changes, 0);
    }
}
