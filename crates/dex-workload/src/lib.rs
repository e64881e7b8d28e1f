//! `dex-workload` — a composable, deterministic scenario engine for
//! adversarial and traffic workloads.
//!
//! The paper's guarantees are exercised one churn event at a time; real
//! deployments see *structured* load: flash crowds of simultaneous joins,
//! correlated failures taking out a whole neighborhood, partitions healed
//! under fire, and steady DHT read/write traffic riding on top of churn.
//! This crate expresses those as data:
//!
//! * a [`Scenario`] is a named sequence of [`Phase`]s;
//! * each phase compiles — against the live network state — into a stream
//!   of [`Action`](dex_adversary::Action)s (the extended grammar: single events, Sect. 5 batches,
//!   DHT puts/gets) applied through the existing `DexNetwork` entry
//!   points;
//! * [`run_trials`] runs R independent trials in parallel over
//!   [`dex_exec::par_map`], each trial seeded by its own
//!   splitmix64-derived stream, so results are **bit-identical for any
//!   thread count**;
//! * every trial records its full action trace (replayable through
//!   [`dex_adversary::trace`]), a columnar per-step
//!   [`StepLog`](dex_sim::StepLog) of rounds, messages and topology
//!   changes, and a sampled λ₂ trajectory.
//!
//! # Example
//!
//! ```
//! use dex_workload::{Phase, RunOptions, Scenario, Targeting};
//!
//! let sc = Scenario::new("crowd-then-failures")
//!     .phase(Phase::FlashCrowd { waves: 2, wave_size: 6 })
//!     .phase(Phase::CorrelatedDelete {
//!         bursts: 2,
//!         burst_size: 4,
//!         targeting: Targeting::Neighborhood,
//!         replenish: true,
//!     })
//!     .phase(Phase::DhtMix { ops: 20, read_pct: 70, keyspace: 1 << 20 });
//! let opts = RunOptions { n0: 24, trials: 2, ..RunOptions::default() };
//! let reports = dex_workload::run_trials(&sc, &opts);
//! assert_eq!(reports.len(), 2);
//! assert!(reports[0].dht_mismatches == 0);
//! ```

pub mod gen;
pub mod runner;
pub mod serve;

pub use runner::{pool_aggregate, run_scenario, run_trials, RunOptions, TrialReport};
pub use serve::{run_serve, Arrivals, ServeOptions, ServeReport};

/// Victim selection policy for correlated deletion bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Targeting {
    /// Independent uniform victims (baseline correlated churn).
    Random,
    /// An epicenter plus its BFS neighborhood — models a rack/region
    /// failure taking out topologically-adjacent nodes.
    Neighborhood,
    /// The maximum-load nodes — the strongest attack on the balance
    /// invariant (cf. `HighLoadHunter`).
    HighLoad,
}

/// One phase of a scenario. Sizes are in *events*, not steps: a batch of
/// k joins is one adversarial step.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// `waves` batch-insert waves of `wave_size` newcomers each, attach
    /// points spread to respect the O(1) fan-in bound.
    FlashCrowd {
        /// Number of join waves.
        waves: usize,
        /// Newcomers per wave.
        wave_size: usize,
    },
    /// `bursts` batch-deletions of `burst_size` victims chosen by
    /// `targeting`; with `replenish`, each burst is followed by an
    /// equal-size join wave so the size (and thus the regime) holds.
    CorrelatedDelete {
        /// Number of deletion bursts.
        bursts: usize,
        /// Victims per burst.
        burst_size: usize,
        /// Victim selection policy.
        targeting: Targeting,
        /// Refill the network to its pre-burst size after each burst.
        replenish: bool,
    },
    /// Attack the sparsest cut the generator can find (BFS sweep), then
    /// let the network heal: per burst, delete up to `burst_size`
    /// boundary nodes of the small side; afterwards regrow with `regrow`
    /// single inserts.
    PartitionHeal {
        /// Number of cut-attack bursts.
        bursts: usize,
        /// Boundary victims per burst.
        burst_size: usize,
        /// Single-insert recovery steps after the bursts.
        regrow: usize,
    },
    /// Steady-state DHT traffic: `ops` operations, `read_pct`% lookups /
    /// the rest inserts, keys drawn from `[0, keyspace)`.
    DhtMix {
        /// Total DHT operations.
        ops: usize,
        /// Percentage (0–100) of operations that are lookups.
        read_pct: u32,
        /// Key domain size.
        keyspace: u64,
    },
    /// Monotone growth: `steps` single insertions.
    Growth {
        /// Number of insertions.
        steps: usize,
    },
    /// Monotone shrink: up to `steps` single deletions; the phase ends
    /// early once the network is down to `floor` nodes.
    Shrink {
        /// Number of deletions.
        steps: usize,
        /// Minimum network size.
        floor: usize,
    },
    /// Uniform random churn at `p_insert` insert probability.
    Churn {
        /// Number of single-event steps.
        steps: usize,
        /// Probability a step is an insertion.
        p_insert: f64,
    },
    /// Install a message-level fault model: every subsequent phase runs on
    /// the event-driven simulator ([`dex_sim::msim`]) under these faults
    /// until a [`Phase::FaultsOff`] restores centralized execution. The
    /// spec lands in the trial's trace as an `F` record, so the whole
    /// fault campaign replays bit-identically.
    Faults {
        /// Loss/latency/partition/retry parameters.
        spec: dex_sim::msim::FaultSpec,
    },
    /// Remove the installed fault model (back to centralized execution).
    FaultsOff,
}

/// A named, ordered composition of phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display/report name.
    pub name: String,
    /// Phases, applied in order.
    pub phases: Vec<Phase>,
}

impl Scenario {
    /// New empty scenario.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            phases: Vec::new(),
        }
    }

    /// Append a phase (builder style).
    pub fn phase(mut self, p: Phase) -> Self {
        self.phases.push(p);
        self
    }

    /// Total single-step events this scenario will drive (batches count
    /// as one step; used for progress estimates, not control flow).
    pub fn step_estimate(&self) -> usize {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::FlashCrowd { waves, .. } => *waves,
                Phase::CorrelatedDelete {
                    bursts, replenish, ..
                } => bursts * if *replenish { 2 } else { 1 },
                Phase::PartitionHeal { bursts, regrow, .. } => bursts + regrow,
                Phase::DhtMix { ops, .. } => *ops,
                Phase::Growth { steps } => *steps,
                Phase::Shrink { steps, .. } => *steps,
                Phase::Churn { steps, .. } => *steps,
                Phase::Faults { .. } | Phase::FaultsOff => 1,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_in_order() {
        let sc = Scenario::new("x")
            .phase(Phase::Growth { steps: 3 })
            .phase(Phase::Shrink { steps: 2, floor: 8 });
        assert_eq!(sc.phases.len(), 2);
        assert_eq!(sc.step_estimate(), 5);
    }
}
