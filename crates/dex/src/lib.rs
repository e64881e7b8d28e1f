//! `dex` — self-healing expander networks.
//!
//! A full Rust implementation of **DEX** (Pandurangan, Robinson, Trehan;
//! IPDPS 2014 / *Distributed Computing* 29(3), 2016): a distributed
//! algorithm that maintains a constant-degree expander overlay with a
//! **deterministically** constant spectral gap under an adaptive adversary
//! inserting/deleting one node per step, at O(log n) rounds and messages
//! per step (w.h.p.) and O(1) topology changes.
//!
//! This facade re-exports the whole stack:
//!
//! * [`graph`] — multigraphs, the p-cycle expander family, primes,
//!   spectral analysis, exact expansion;
//! * [`sim`] — the synchronous CONGEST simulator substrate (metered
//!   rounds / messages / topology changes);
//! * [`exec`] — the scoped, order-preserving `par_map` the trial and
//!   shard fan-outs run on, and the thread budget that sizes it;
//! * [`core`] — the DEX algorithm: type-1 recovery, simplified and
//!   staggered type-2 recovery, the DHT, batch churn, invariant checkers;
//! * [`adversary`] — adaptive attack strategies and churn traces;
//! * [`baselines`] — Law–Siu, skip-graph-lite, flooding, and naive
//!   patching comparators behind one [`baselines::Overlay`] trait;
//! * [`workload`] — the scenario engine: composable adversarial/traffic
//!   workloads (flash crowds, correlated failures, partition-then-heal,
//!   DHT mixes) with deterministic parallel trial fan-out.
//!
//! # Quick start
//!
//! ```
//! use dex::prelude::*;
//!
//! // Bootstrap a 16-node DEX network, then survive adversarial churn.
//! let mut net = DexNetwork::bootstrap(DexConfig::new(1), 16);
//! let mut adversary = RandomChurn::new(7, 0.5);
//! for _ in 0..50 {
//!     dex::adversary::driver::step(&mut net, &mut adversary);
//! }
//! dex::core::invariants::assert_ok(&net);
//! assert!(net.spectral_gap() > 0.01);          // still an expander
//! assert!(net.max_total_load() <= 32);         // 4ζ-balanced
//! ```

pub use dex_adversary as adversary;
pub use dex_baselines as baselines;
pub use dex_core as core;
pub use dex_exec as exec;
pub use dex_graph as graph;
pub use dex_sim as sim;
pub use dex_workload as workload;

/// Everything most programs need.
pub mod prelude {
    pub use dex_adversary::{
        Action, Adversary, CoordinatorHunter, CutAttacker, DeleteOnly, HighLoadHunter, IdAllocator,
        InsertOnly, OscillatingSize, RandomChurn, ReplayTrace, SpectralCutAttacker, View,
    };
    pub use dex_baselines::{
        flooding::Flooding, law_siu::LawSiu, naive_patch::NaivePatch, skip_lite::SkipLite, Overlay,
    };
    pub use dex_core::{invariants, DexConfig, DexNetwork, RecoveryMode};
    pub use dex_exec::ExecConfig;
    pub use dex_graph::ids::{NodeId, VertexId};
    pub use dex_graph::pcycle::PCycle;
    pub use dex_graph::spectral;
    pub use dex_graph::spectral::Lambda2Solver;
    pub use dex_graph::MultiGraph;
    pub use dex_sim::msim::{FaultSpec, FaultStats, OpStatus, RouteOp, WalkOp};
    pub use dex_sim::{RecoveryKind, StepAggregate, StepKind, StepMetrics, Summary};
    pub use dex_workload::{
        pool_aggregate, run_trials, Phase, RunOptions, Scenario, Targeting, TrialReport,
    };
}
