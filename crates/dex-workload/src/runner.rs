//! Executing scenarios: one trial sequentially, R trials in parallel.
//!
//! Determinism contract: a trial's entire behaviour is a function of
//! `(scenario, n0, trial seed)`. Trial seeds derive from the master seed
//! through splitmix64, trials run under the order-preserving
//! [`dex_exec::par_map`], and nothing reads wall-clock or thread identity —
//! so a run is bit-identical for any `exec` value, and any recorded trace
//! replays exactly on a fresh [`bootstrap_for`] network.

use dex_adversary::{driver, Action, IdAllocator};
use dex_core::{invariants, DexConfig, DexNetwork};
use dex_graph::fxhash::FxHashMap;
use dex_graph::spectral::Lambda2Solver;
use dex_sim::rng::splitmix64;
use dex_sim::{HasStepLog, HistoryMode, StepAggregate, StepLog, StepMetrics};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen;
use crate::{Phase, Scenario};

/// λ₂ solver settings for trajectory sampling (warm-started across
/// samples, so later samples converge in a handful of iterations).
const LAMBDA_ITERS: usize = 4000;
const LAMBDA_TOL: f64 = 1e-7;
const LAMBDA_SEED: u64 = 0xdecafbad;

/// How a batch of trials should run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Bootstrap size of every trial network.
    pub n0: u64,
    /// Number of independent trials.
    pub trials: usize,
    /// Master seed; per-trial streams derive from it via splitmix64.
    pub seed: u64,
    /// Sample λ₂ every this many actions (0 disables the trajectory).
    pub lambda_every: usize,
    /// The one thread knob: width of the trial fan-out over
    /// [`dex_exec::par_map`] (trials share nothing; each network inside
    /// one is sequential; `ExecConfig::AUTO` → the global thread
    /// budget). Purely a throughput knob — results are
    /// bit-identical for any value.
    pub exec: dex_exec::ExecConfig,
    /// Assert the full structural invariants after every action
    /// (O(n) per step — test-scale only).
    pub check_invariants: bool,
    /// Retain the full replayable action trace in the report. Large-n
    /// streaming runs turn this off; the compact [`StepLog`] (and hence
    /// [`pool_aggregate`]) is unaffected.
    pub keep_actions: bool,
    /// Retain every [`StepMetrics`] record in the report. Off, the report
    /// carries only the columnar [`StepLog`] (24 bytes/step).
    pub keep_step_metrics: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            n0: 32,
            trials: 4,
            seed: 0xd5c0,
            lambda_every: 32,
            exec: dex_exec::ExecConfig::AUTO,
            check_invariants: false,
            keep_actions: true,
            keep_step_metrics: true,
        }
    }
}

/// Everything one trial produced.
#[derive(Debug, Clone)]
pub struct TrialReport {
    /// Scenario name.
    pub scenario: String,
    /// Trial index within the batch.
    pub trial: usize,
    /// The trial's derived seed (replay: [`bootstrap_for`] + the trace).
    pub seed: u64,
    /// Full action trace, replayable via `dex_adversary::trace` (empty
    /// when the run streamed with `keep_actions: false`).
    pub actions: Vec<Action>,
    /// Per-step metered cost, aligned with `actions` (empty when the run
    /// streamed with `keep_step_metrics: false`).
    pub metrics: Vec<StepMetrics>,
    /// Columnar per-step counters — always recorded; the streaming-mode
    /// source of [`pool_aggregate`].
    pub log: StepLog,
    /// Sampled λ₂ trajectory (index 0 is the bootstrap network).
    pub lambda2: Vec<f64>,
    /// DHT lookups whose result disagreed with the shadow oracle
    /// (always 0 unless the DHT is broken; abandoned operations under an
    /// installed fault spec are excluded — see [`dex_core::FaultStats`]).
    pub dht_mismatches: u64,
    /// Message-level fault counters accumulated across every
    /// [`Phase::Faults`](crate::Phase::Faults) span of the trial (all
    /// zero for fault-free scenarios).
    pub fault_stats: dex_core::FaultStats,
    /// Network size at the end of the run.
    pub final_n: usize,
}

/// The network a trial with this seed starts from (and the one a trace
/// replay must start from).
pub fn bootstrap_for(trial_seed: u64, n0: u64) -> DexNetwork {
    DexNetwork::bootstrap(
        DexConfig::new(splitmix64(trial_seed ^ 0x6e75)).simplified(),
        n0,
    )
}

/// Derive the seed of trial `t` from the master seed.
pub fn trial_seed(master: u64, t: usize) -> u64 {
    splitmix64(master ^ splitmix64(0x7419_5eed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Run every trial of a scenario, fanned out over `opts.exec` workers.
pub fn run_trials(sc: &Scenario, opts: &RunOptions) -> Vec<TrialReport> {
    let idx: Vec<usize> = (0..opts.trials).collect();
    dex_exec::par_map(&idx, opts.exec.resolve(), |&t| {
        run_scenario(sc, opts.n0, trial_seed(opts.seed, t), t, opts)
    })
}

impl HasStepLog for TrialReport {
    fn step_log(&self) -> &StepLog {
        &self.log
    }
}

/// Pool all trials' per-step metrics into one percentile aggregate
/// (streams from the compact logs — works in every retention mode).
pub fn pool_aggregate(reports: &[TrialReport]) -> StepAggregate {
    StepAggregate::pooled(reports)
}

/// Run one trial sequentially.
pub fn run_scenario(
    sc: &Scenario,
    n0: u64,
    seed: u64,
    trial: usize,
    opts: &RunOptions,
) -> TrialReport {
    let mut t = Trial {
        dex: bootstrap_for(seed, n0),
        rng: StdRng::seed_from_u64(splitmix64(seed ^ 0x9e4)),
        ids: IdAllocator::new(),
        solver: Lambda2Solver::new(),
        shadow: FxHashMap::default(),
        known_keys: Vec::new(),
        actions: Vec::new(),
        metrics: Vec::new(),
        log: StepLog::new(),
        lambda2: Vec::new(),
        dht_mismatches: 0,
        lambda_every: opts.lambda_every,
        check_invariants: opts.check_invariants,
        keep_actions: opts.keep_actions,
        keep_step_metrics: opts.keep_step_metrics,
    };
    // The trial streams its own compact log; the inner network need not
    // hold a second copy of every step.
    t.dex.net.set_history_mode(HistoryMode::Off);
    t.sample_lambda();
    for phase in &sc.phases {
        t.run_phase(phase);
    }
    // Close the trajectory on the final topology (unless the last action
    // already sampled it).
    if opts.lambda_every > 0 && !t.log.len().is_multiple_of(opts.lambda_every) {
        t.sample_lambda();
    }
    TrialReport {
        scenario: sc.name.clone(),
        trial,
        seed,
        final_n: t.dex.n(),
        fault_stats: t.dex.fault_stats(),
        actions: t.actions,
        metrics: t.metrics,
        log: t.log,
        lambda2: t.lambda2,
        dht_mismatches: t.dht_mismatches,
    }
}

/// In-flight state of one trial.
struct Trial {
    dex: DexNetwork,
    rng: StdRng,
    ids: IdAllocator,
    solver: Lambda2Solver,
    /// Shadow oracle of the DHT contents.
    shadow: FxHashMap<u64, u64>,
    /// Insertion-ordered distinct keys (deterministic read sampling).
    known_keys: Vec<u64>,
    actions: Vec<Action>,
    metrics: Vec<StepMetrics>,
    log: StepLog,
    lambda2: Vec<f64>,
    dht_mismatches: u64,
    lambda_every: usize,
    check_invariants: bool,
    keep_actions: bool,
    keep_step_metrics: bool,
}

impl Trial {
    fn run_phase(&mut self, phase: &Phase) {
        match *phase {
            Phase::FlashCrowd { waves, wave_size } => {
                for _ in 0..waves {
                    let a = gen::flash_wave(&self.dex, &mut self.rng, &mut self.ids, wave_size);
                    self.apply(a);
                }
            }
            Phase::CorrelatedDelete {
                bursts,
                burst_size,
                targeting,
                replenish,
            } => {
                for _ in 0..bursts {
                    let Some(a) =
                        gen::correlated_burst(&self.dex, &mut self.rng, burst_size, targeting)
                    else {
                        break;
                    };
                    let lost = match &a {
                        Action::BatchDelete { victims } => victims.len(),
                        _ => unreachable!("bursts are batch deletes"),
                    };
                    self.apply(a);
                    if replenish {
                        let a = gen::flash_wave(&self.dex, &mut self.rng, &mut self.ids, lost);
                        self.apply(a);
                    }
                }
            }
            Phase::PartitionHeal {
                bursts,
                burst_size,
                regrow,
            } => {
                for _ in 0..bursts {
                    let Some(a) = gen::cut_burst(&self.dex, burst_size) else {
                        break;
                    };
                    self.apply(a);
                }
                for _ in 0..regrow {
                    let a = gen::single_insert(&self.dex, &mut self.rng, &mut self.ids);
                    self.apply(a);
                }
            }
            Phase::DhtMix {
                ops,
                read_pct,
                keyspace,
            } => {
                for _ in 0..ops {
                    let a = gen::dht_op(
                        &self.dex,
                        &mut self.rng,
                        read_pct,
                        keyspace,
                        &self.known_keys,
                    );
                    self.apply(a);
                }
            }
            Phase::Growth { steps } => {
                for _ in 0..steps {
                    let a = gen::single_insert(&self.dex, &mut self.rng, &mut self.ids);
                    self.apply(a);
                }
            }
            Phase::Shrink { steps, floor } => {
                for _ in 0..steps {
                    let Some(a) = gen::single_delete(&self.dex, &mut self.rng, floor) else {
                        break; // reached the floor: the phase is done
                    };
                    self.apply(a);
                }
            }
            Phase::Faults { spec } => self.apply(Action::SetFaults { spec }),
            Phase::FaultsOff => self.apply(Action::ClearFaults),
            Phase::Churn { steps, p_insert } => {
                for _ in 0..steps {
                    use rand::Rng as _;
                    let a = if self.rng.random_bool(p_insert) {
                        gen::single_insert(&self.dex, &mut self.rng, &mut self.ids)
                    } else {
                        match gen::single_delete(&self.dex, &mut self.rng, gen::MIN_N) {
                            Some(a) => a,
                            None => gen::single_insert(&self.dex, &mut self.rng, &mut self.ids),
                        }
                    };
                    self.apply(a);
                }
            }
        }
    }

    /// Apply one action through the shared dispatch, meter it, maintain
    /// the DHT shadow oracle, and sample the λ₂ trajectory on schedule.
    ///
    /// Under an installed fault spec a DHT operation can be *abandoned*
    /// (route lost after exhausting its retry budget — graceful
    /// degradation, visible in `FaultStats::dht_abandoned`). An abandoned
    /// put was never applied, so the shadow oracle must not record it; an
    /// abandoned get returns `None` by protocol, not by store content, so
    /// it is excluded from the mismatch comparison.
    fn apply(&mut self, a: Action) {
        let abandoned_before = self.dex.fault_stats().dht_abandoned;
        let m = match &a {
            Action::DhtGet { from, key } => {
                let (got, m) = self.dex.dht_lookup(*from, *key);
                let abandoned = self.dex.fault_stats().dht_abandoned > abandoned_before;
                if !abandoned && got != self.shadow.get(key).copied() {
                    self.dht_mismatches += 1;
                }
                m
            }
            Action::DhtPut { from, key, value } => {
                let m = self.dex.dht_insert(*from, *key, *value);
                let abandoned = self.dex.fault_stats().dht_abandoned > abandoned_before;
                if !abandoned && self.shadow.insert(*key, *value).is_none() {
                    self.known_keys.push(*key);
                }
                m
            }
            other => driver::apply(&mut self.dex, other),
        };
        self.log.push(&m);
        if self.keep_step_metrics {
            self.metrics.push(m);
        }
        if self.keep_actions {
            self.actions.push(a);
        }
        if self.check_invariants {
            invariants::assert_ok(&self.dex);
        }
        // The always-recorded log is the step counter (one entry per action).
        if self.lambda_every > 0 && self.log.len().is_multiple_of(self.lambda_every) {
            self.sample_lambda();
        }
    }

    fn sample_lambda(&mut self) {
        self.lambda2.push(self.solver.lambda2(
            self.dex.graph(),
            LAMBDA_ITERS,
            LAMBDA_TOL,
            LAMBDA_SEED,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Targeting;
    use dex_adversary::trace;

    fn small_scenario() -> Scenario {
        Scenario::new("mixed")
            .phase(Phase::FlashCrowd {
                waves: 2,
                wave_size: 6,
            })
            .phase(Phase::DhtMix {
                ops: 24,
                read_pct: 60,
                keyspace: 1 << 16,
            })
            .phase(Phase::CorrelatedDelete {
                bursts: 2,
                burst_size: 4,
                targeting: Targeting::Neighborhood,
                replenish: true,
            })
            .phase(Phase::PartitionHeal {
                bursts: 1,
                burst_size: 3,
                regrow: 6,
            })
            .phase(Phase::Churn {
                steps: 20,
                p_insert: 0.5,
            })
            .phase(Phase::Shrink {
                steps: 10,
                floor: 12,
            })
    }

    fn opts() -> RunOptions {
        RunOptions {
            n0: 24,
            trials: 3,
            seed: 42,
            lambda_every: 16,
            exec: dex_exec::ExecConfig::with_threads(2),
            check_invariants: true,
            keep_actions: true,
            keep_step_metrics: true,
        }
    }

    #[test]
    fn scenario_preserves_invariants_and_dht_consistency() {
        let reports = run_trials(&small_scenario(), &opts());
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.dht_mismatches, 0, "trial {}", r.trial);
            assert!(!r.metrics.is_empty());
            assert_eq!(r.metrics.len(), r.actions.len());
            assert!(r.lambda2.iter().all(|&l| l < 1.0), "still an expander");
        }
        let agg = pool_aggregate(&reports);
        assert_eq!(
            agg.steps,
            reports.iter().map(|r| r.metrics.len()).sum::<usize>()
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let sc = small_scenario();
        let mut o = opts();
        o.check_invariants = false;
        o.exec = dex_exec::ExecConfig::with_threads(1);
        let seq = run_trials(&sc, &o);
        for threads in [2, 3, 8] {
            o.exec = dex_exec::ExecConfig::with_threads(threads);
            let par = run_trials(&sc, &o);
            for (a, b) in seq.iter().zip(par.iter()) {
                assert_eq!(a.actions, b.actions, "threads={threads}");
                assert_eq!(a.lambda2, b.lambda2, "threads={threads}");
                assert_eq!(
                    a.metrics.iter().map(|m| m.messages).collect::<Vec<_>>(),
                    b.metrics.iter().map(|m| m.messages).collect::<Vec<_>>(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn streaming_mode_matches_full_retention() {
        let sc = small_scenario();
        let mut o = opts();
        o.check_invariants = false;
        let full = run_trials(&sc, &o);
        o.keep_actions = false;
        o.keep_step_metrics = false;
        let slim = run_trials(&sc, &o);
        assert_eq!(pool_aggregate(&full), pool_aggregate(&slim));
        for (a, b) in full.iter().zip(slim.iter()) {
            assert!(b.actions.is_empty(), "streaming run must not keep traces");
            assert!(b.metrics.is_empty(), "streaming run must not keep metrics");
            assert_eq!(a.log, b.log, "compact log must be retention-invariant");
            assert_eq!(a.lambda2, b.lambda2);
            assert_eq!(a.final_n, b.final_n);
            // And the full run's log matches its own retained metrics.
            assert_eq!(
                a.log.rounds,
                a.metrics.iter().map(|m| m.rounds).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn trace_roundtrip_replays_to_identical_topology() {
        let sc = small_scenario();
        let mut o = opts();
        o.trials = 1;
        o.check_invariants = false;
        let r = run_trials(&sc, &o).into_iter().next().unwrap();

        // Serialize, parse, and replay on an identical bootstrap.
        let text = trace::to_string(&r.actions);
        let parsed = trace::parse(&text).unwrap();
        assert_eq!(parsed, r.actions);
        let mut dex = bootstrap_for(r.seed, o.n0);
        let mut messages = Vec::new();
        for a in &parsed {
            messages.push(driver::apply(&mut dex, a).messages);
        }
        assert_eq!(dex.n(), r.final_n);
        assert_eq!(
            messages,
            r.metrics.iter().map(|m| m.messages).collect::<Vec<_>>()
        );
    }

    #[test]
    fn faulted_scenario_degrades_gracefully_and_stays_deterministic() {
        // Heavy loss plus latency skew in the middle of a mixed workload:
        // the network must stay structurally sound, the shadow oracle must
        // stay consistent (abandoned ops excluded by construction), the
        // fault machinery must demonstrably engage, and the whole thing
        // must be thread-count invariant.
        let spec = dex_core::FaultSpec::zero()
            .with_loss(450)
            .with_latency(1, 4)
            .with_burst(24, 150)
            .with_retries(4, 3)
            .with_fallback(1)
            .with_seed(0x10ad);
        let sc = Scenario::new("lossy-campaign")
            .phase(Phase::FlashCrowd {
                waves: 2,
                wave_size: 8,
            })
            .phase(Phase::Faults { spec })
            .phase(Phase::Churn {
                steps: 24,
                p_insert: 0.5,
            })
            .phase(Phase::DhtMix {
                ops: 30,
                read_pct: 50,
                keyspace: 1 << 10,
            })
            .phase(Phase::FaultsOff)
            .phase(Phase::Churn {
                steps: 10,
                p_insert: 0.5,
            });
        let mut o = opts();
        o.trials = 2;
        let reports = run_trials(&sc, &o);
        for r in &reports {
            assert_eq!(r.dht_mismatches, 0, "trial {}", r.trial);
            let fs = &r.fault_stats;
            assert!(
                fs.sent > fs.delivered,
                "trial {}: loss never fired",
                r.trial
            );
            assert!(fs.timeouts > 0, "trial {}: no stall detected", r.trial);
        }
        // Bit-identical across trial fan-out widths.
        o.check_invariants = false;
        o.exec = dex_exec::ExecConfig::with_threads(1);
        let seq = run_trials(&sc, &o);
        o.exec = dex_exec::ExecConfig::with_threads(8);
        let par = run_trials(&sc, &o);
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.actions, b.actions, "faulted trace diverged");
            assert_eq!(a.fault_stats, b.fault_stats, "fault counters diverged");
            assert_eq!(a.final_n, b.final_n);
        }
        // And the fault phases survive a trace round trip.
        let text = trace::to_string(&seq[0].actions);
        assert_eq!(trace::parse(&text).unwrap(), seq[0].actions);
    }

    #[test]
    fn growth_and_shrink_move_size_monotonically() {
        let sc = Scenario::new("grow").phase(Phase::Growth { steps: 10 });
        let mut o = opts();
        o.trials = 1;
        let r = &run_trials(&sc, &o)[0];
        assert_eq!(r.final_n, 24 + 10);

        let sc = Scenario::new("shrink").phase(Phase::Shrink {
            steps: 30,
            floor: 16,
        });
        let r = &run_trials(&sc, &o)[0];
        assert_eq!(r.final_n, 16, "shrink stops at the floor");
    }
}
