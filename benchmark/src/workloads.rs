//! The six workloads: what each one runs, and the replay loop that runs it.
//!
//! A run is several *replays* in one process. Each replay bootstraps afresh
//! from the same seed and executes the identical call stream, cut into
//! fixed-size segments; host time is kept per segment so the report can
//! take, for each segment, the fastest replay. Everything counted in
//! simulated time (rounds, messages, topology changes, results) must come
//! out the same in every replay, which the step digest checks.

use crate::script::{Mix, Op, Script, BATCH, KEYSPACE, MIN_LIVE};
use crate::trace::{Name, Tracer};
use dex::core::{invariants, DexConfig, DexNetwork, FaultSpec, WalkStats};
use dex::graph::fxhash::FxHashMap;
use dex::graph::Lambda2Solver;
use dex::sim::rng::splitmix64;
use dex::sim::{HistoryMode, StepLog, StepMetrics};
use dex::workload::serve::{build_schedule, run_serve, Arrivals, ServeOptions, ServeReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Replays per run. A traced run records spans in the last one only; the
/// first replay of a process pays for its first touch of memory, so tracing
/// overhead is read off the last two.
pub const REPLAYS: usize = 3;
/// `--seconds` the base sizes below were chosen for.
pub const BASE_SECONDS: u64 = 10;
/// A client repeats an abandoned DHT operation this many times before the
/// operation counts as failed (only `lossy` abandons any).
pub const CLIENT_TRIES: u32 = 16;
/// The correctness gate rejects a spectral gap below this at any
/// checkpoint. A freshly bootstrapped network measures ≈ 0.16–0.18; the
/// floor sits well under every value seen on seed code and well over the
/// ≈ 0 of a network about to disconnect.
pub const GAP_FLOOR: f64 = 0.05;
/// λ₂ is computed only on networks at most this large.
pub const GAP_MAX_N: usize = 8_000;
/// Offered rates of `serve`, in operations per virtual round.
pub const SERVE_RATES: [(&str, f64); 3] = [("r030", 0.03), ("r050", 0.05), ("r080", 0.08)];

const LAMBDA_ITERS: usize = 4000;
const LAMBDA_TOL: f64 = 1e-7;
const LAMBDA_SEED: u64 = 0xdeca_fbad;

const CFG_SALT: u64 = 0xbe0c_0001;
const GEN_SALT: u64 = 0xbe0c_0002;
const FAULT_SALT: u64 = 0xbe0c_0003;
const SERVE_SALT: u64 = 0xbe0c_0004;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Churn,
    Dht,
    Resize,
    Batch,
    Serve,
    Lossy,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Churn,
        Workload::Dht,
        Workload::Resize,
        Workload::Batch,
        Workload::Serve,
        Workload::Lossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::Dht => "dht",
            Workload::Resize => "resize",
            Workload::Batch => "batch",
            Workload::Serve => "serve",
            Workload::Lossy => "lossy",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Every n and operation count ÷ 100: a functional check, never a
    /// source of numbers.
    Smoke,
}

/// Sizes of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    /// Bootstrap size (per shard on `serve`).
    pub n0: u64,
    pub segments: usize,
    /// Generated calls per segment (a batch call carries [`BATCH`] operations).
    pub seg_calls: usize,
    pub mix: Mix,
    /// Operations offered at each rate of [`SERVE_RATES`] on `serve`.
    pub serve_ops: [usize; 3],
    pub heal_threads: usize,
    /// Set-ups per replay. A small network sets up in milliseconds, so it
    /// is set up several times and the report takes the median.
    pub setups: usize,
}

impl Plan {
    /// Sizes for `--seconds`: operation counts scale with it, n does not.
    pub fn new(workload: Workload, scale: Scale, seconds: u64, threads: usize) -> Plan {
        let div = match scale {
            Scale::Full => 1,
            Scale::Smoke => 100,
        };
        let by_seconds = |base: u64| (base * seconds).div_ceil(BASE_SECONDS).max(2);
        // The last column is set-ups per replay: several where one takes
        // milliseconds. (`batch` keeps to one: repeated bootstraps of its
        // network made its peak memory differ from run to run.)
        let (n0, segments, seg_calls, mix, setups) = match workload {
            Workload::Churn => (500_000 / div, by_seconds(60), 5_000 / div, Mix::Churn, 1),
            Workload::Dht => (500_000 / div, by_seconds(60), 50 / div, Mix::Dht, 1),
            Workload::Resize => {
                // Insert-only to n0 + grow, then delete-only to 500. A peak
                // of 40 000 is past the second inflation (n ≈ 31 400).
                let n0 = 2_000 / div;
                let grow = by_seconds(38_000) / div;
                let shrink = n0 + grow - (500 / div).max(MIN_LIVE as u64);
                let seg_calls = 2_500 / div;
                let segments = (grow + shrink).div_ceil(seg_calls);
                (n0, segments, seg_calls, Mix::Resize { grow }, 5)
            }
            // A batch call is already 64 operations; smoke keeps two a segment.
            Workload::Batch => (
                200_000 / div,
                by_seconds(80),
                (50 / div).max(2),
                Mix::Batch,
                1,
            ),
            Workload::Serve => (100_000 / div, SERVE_RATES.len() as u64, 0, Mix::Dht, 3),
            Workload::Lossy => (20_000 / div, by_seconds(45), 1_000 / div, Mix::Lossy, 5),
        };
        Plan {
            workload,
            n0,
            segments: segments as usize,
            seg_calls: (seg_calls as usize).max(1),
            mix,
            // Most of the operations go to r030, whose latency tail is an
            // end-to-end metric; 2 000 at r080 keep the backlog well under
            // `queue_cap`, so nothing is shed.
            serve_ops: [8_000, 4_000, 2_000].map(|base| (by_seconds(base) / div) as usize),
            heal_threads: if workload == Workload::Batch {
                threads
            } else {
                1
            },
            setups,
        }
    }

    pub fn calls(&self) -> usize {
        self.segments * self.seg_calls
    }

    /// Operations the plan attempts (on `serve`, over all rates).
    pub fn ops(&self) -> u64 {
        match (self.workload, self.mix) {
            (Workload::Serve, _) => self.serve_ops.iter().sum::<usize>() as u64,
            (_, Mix::Batch) => (self.calls() * BATCH) as u64,
            _ => self.calls() as u64,
        }
    }

    fn cfg(&self, seed: u64) -> DexConfig {
        DexConfig::new(splitmix64(seed ^ CFG_SALT)).simplified()
    }

    fn faults(&self, seed: u64) -> Option<FaultSpec> {
        (self.workload == Workload::Lossy).then(|| {
            FaultSpec::zero()
                .with_loss(50)
                .with_latency(1, 3)
                .with_seed(splitmix64(seed ^ FAULT_SALT))
        })
    }

    /// Options of the run at `SERVE_RATES[rate]`.
    pub fn serve_options(&self, seed: u64, rate: usize, threads: usize) -> ServeOptions {
        ServeOptions {
            shards: 2,
            n0: self.n0,
            ops: self.serve_ops[rate],
            offered: SERVE_RATES[rate].1,
            arrivals: Arrivals::Poisson,
            read_pct: 60,
            churn_pct: 20,
            keyspace: KEYSPACE,
            queue_cap: 512,
            batch_max: BATCH,
            seed: splitmix64(seed ^ SERVE_SALT),
            threads,
            heal_threads: 1,
        }
    }
}

/// Calls made into the library, by kind, and what they moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub inserts: u64,
    pub deletes: u64,
    pub gets: u64,
    pub puts: u64,
    pub insert_batches: u64,
    pub delete_batches: u64,
    pub type2_steps: u64,
    /// DHT calls repeated because the previous attempt was abandoned.
    pub client_retries: u64,
    /// Σ over segments of (walk misses in the segment × n at its end): the
    /// nodes the miss-triggered floods visited, to first order.
    pub flood_nodes: u64,
}

/// Everything one replay counted in simulated time. Equal across replays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOut {
    /// One entry per generated call (a batch step is one entry).
    pub log: StepLog,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub counts: Counts,
    pub walk_attempts: u64,
    pub walk_misses: u64,
    /// Φ vertices rehomed, to first order: one per insert, p/n per delete
    /// (p and n read at the end of the delete's segment).
    pub vertices_moved: f64,
    pub max_load: u64,
    pub max_degree: usize,
    /// (n, 1 − λ₂) at each checkpoint.
    pub gaps: Vec<(usize, f64)>,
    pub final_n: usize,
}

#[derive(Debug, Clone, Default)]
pub struct ReplayTimes {
    /// One entry per set-up; the last is the one the replay ran on.
    pub setup_ns: Vec<u64>,
    pub seg_ns: Vec<u64>,
    pub lambda2_ns: u64,
}

pub struct ClosedRun {
    pub times: Vec<ReplayTimes>,
    pub sim: SimOut,
    /// The last replay's network, for the end-of-run checks and the probes.
    pub net: Option<DexNetwork>,
    pub invariants_ns: u64,
    /// Why the run is incorrect, if it is.
    pub violations: Vec<String>,
}

pub struct ServeRun {
    /// Per set-up: every rate's `build_schedule` plus the two reference
    /// bootstraps.
    pub setup_ns: Vec<u64>,
    /// `run_serve` wall time, `[rate][replay]`.
    pub wall_ns: Vec<Vec<u64>>,
    /// Replay 0's report per rate.
    pub reports: Vec<ServeReport>,
    /// A shard-sized network the traced replay bootstrapped, for the probes.
    pub ref_net: Option<DexNetwork>,
    /// The traced replay's two reference bootstraps, one after the other.
    pub ref_bootstrap_ns: u64,
    pub violations: Vec<String>,
}

/// Open a span if there is a tracer.
fn begin(tr: &mut Option<&mut Tracer>, name: Name, op: u64) -> u32 {
    tr.as_mut().map_or(0, |t| t.begin(name, op))
}

fn end(tr: &mut Option<&mut Tracer>, id: u32) {
    if let Some(t) = tr.as_mut() {
        t.end(id);
    }
}

struct Exec<'a> {
    net: DexNetwork,
    shadow: FxHashMap<u64, u64>,
    sim: SimOut,
    tr: Option<&'a mut Tracer>,
}

impl Exec<'_> {
    fn begin(&mut self, name: Name, op: u64) -> u32 {
        begin(&mut self.tr, name, op)
    }

    fn end_as(&mut self, id: u32, name: Name) {
        if let Some(t) = self.tr.as_mut() {
            t.end_as(id, name);
        }
    }

    fn fold(&mut self, x: u64) {
        self.sim.digest = splitmix64(self.sim.digest ^ x);
    }

    fn record(&mut self, rounds: u64, messages: u64, topology: u64) {
        self.sim.log.rounds.push(rounds);
        self.sim.log.messages.push(messages);
        self.sim.log.topology.push(topology);
        self.fold(rounds);
        self.fold(messages);
        self.fold(topology);
    }

    fn record_step(&mut self, m: &StepMetrics) {
        if m.recovery.is_type2() {
            self.sim.counts.type2_steps += 1;
        }
        self.record(m.rounds, m.messages, m.topology_changes);
    }

    /// One DHT operation as its client sees it: the call, repeated while
    /// the fault layer abandons it. Costs add up over the attempts.
    fn dht(&mut self, idx: u64, op: Op) {
        let (mut rounds, mut messages) = (0, 0);
        for attempt in 1..=CLIENT_TRIES {
            let abandoned = self.net.fault_stats().dht_abandoned;
            let (m, got) = match op {
                Op::Put { from, key, value } => {
                    let id = self.begin(Name::Put, idx);
                    let m = self.net.dht_insert(from, key, value);
                    self.end_as(id, Name::Put);
                    (m, None)
                }
                Op::Get { from, key } => {
                    let id = self.begin(Name::Get, idx);
                    let (got, m) = self.net.dht_lookup(from, key);
                    self.end_as(id, Name::Get);
                    (m, got)
                }
                _ => unreachable!("dht() takes Get and Put only"),
            };
            rounds += m.rounds;
            messages += m.messages;
            if self.net.fault_stats().dht_abandoned == abandoned {
                match op {
                    Op::Put { key, value, .. } => {
                        self.sim.counts.puts += 1;
                        self.shadow.insert(key, value);
                    }
                    Op::Get { key, .. } => {
                        self.sim.counts.gets += 1;
                        if got != self.shadow.get(&key).copied() {
                            self.sim.mismatches += 1;
                            self.sim.failed += 1;
                        }
                        self.fold(got.unwrap_or(u64::MAX));
                    }
                    _ => unreachable!(),
                }
                break;
            }
            if attempt == CLIENT_TRIES {
                self.sim.failed += 1;
            } else {
                self.sim.counts.client_retries += 1;
            }
        }
        self.sim.attempted += 1;
        self.record(rounds, messages, 0);
    }

    fn apply(&mut self, idx: u64, op: Op, script: &Script) {
        // Span name, its name when the heal turned out type-2, and the
        // counter of the call's kind.
        type Counter = fn(&mut Counts) -> &mut u64;
        let (name, type2, counter): (Name, Name, Counter) = match op {
            Op::Get { .. } | Op::Put { .. } => return self.dht(idx, op),
            Op::Insert { .. } => (Name::Insert, Name::InsertType2, |c| &mut c.inserts),
            Op::Delete { .. } => (Name::Delete, Name::DeleteType2, |c| &mut c.deletes),
            Op::InsertBatch => (Name::InsertBatch, Name::InsertBatchType2, |c| {
                &mut c.insert_batches
            }),
            Op::DeleteBatch => (Name::DeleteBatch, Name::DeleteBatchType2, |c| {
                &mut c.delete_batches
            }),
        };
        let id = self.begin(name, idx);
        let (m, ops) = match op {
            Op::Insert { u, v } => (self.net.insert(u, v), 1),
            Op::Delete { victim } => (self.net.delete(victim), 1),
            Op::InsertBatch => (self.net.insert_batch(&script.joins), script.joins.len()),
            Op::DeleteBatch => (self.net.delete_batch(&script.victims), script.victims.len()),
            Op::Get { .. } | Op::Put { .. } => unreachable!("handled above"),
        };
        self.end_as(id, if m.recovery.is_type2() { type2 } else { name });
        *counter(&mut self.sim.counts) += 1;
        self.sim.attempted += ops as u64;
        self.record_step(&m);
    }
}

/// What happens at a segment boundary, with the clock stopped: load and
/// degree maxima, the flood and Φ-move estimates, and the λ₂ checkpoints.
///
/// `resize` checkpoints the bootstrap network, the first boundary of the
/// shrink phase at which n ≤ [`GAP_MAX_N`], and the end. The other
/// workloads checkpoint the end only, when the network is small enough.
struct Boundary {
    solver: Lambda2Solver,
    seen_shrunk: bool,
    walk: WalkStats,
    deletes: u64,
    inserts: u64,
}

impl Boundary {
    fn checkpoint_due(&mut self, plan: &Plan, calls_done: usize, n: usize) -> bool {
        if n > GAP_MAX_N {
            return false;
        }
        let last = calls_done >= plan.calls();
        match plan.mix {
            Mix::Resize { grow } => {
                let first_small =
                    calls_done as u64 > grow && !std::mem::replace(&mut self.seen_shrunk, true);
                calls_done == 0 || first_small || last
            }
            _ => last,
        }
    }

    fn at(&mut self, plan: &Plan, ex: &mut Exec, times: &mut ReplayTimes, calls_done: usize) {
        let n = ex.net.n();
        ex.sim.max_load = ex.sim.max_load.max(ex.net.map.max_load());
        ex.sim.max_degree = ex.sim.max_degree.max(ex.net.max_degree());
        let walk = ex.net.walk_stats;
        ex.sim.counts.flood_nodes += (walk.misses - self.walk.misses) * n as u64;
        self.walk = walk;
        let c = ex.sim.counts;
        let deletes = c.deletes + c.delete_batches * BATCH as u64;
        let inserts = c.inserts + c.insert_batches * BATCH as u64;
        ex.sim.vertices_moved += (inserts - self.inserts) as f64
            + (deletes - self.deletes) as f64 * ex.net.cycle.p() as f64 / n as f64;
        (self.deletes, self.inserts) = (deletes, inserts);
        if self.checkpoint_due(plan, calls_done, n) {
            let t = Instant::now();
            let id = ex.begin(Name::Lambda2, calls_done as u64);
            // Cold start each time: a warm start would make a checkpoint's
            // value depend on which checkpoints ran before it.
            self.solver.reset();
            let lambda2 =
                self.solver
                    .lambda2(ex.net.graph(), LAMBDA_ITERS, LAMBDA_TOL, LAMBDA_SEED);
            ex.end_as(id, Name::Lambda2);
            times.lambda2_ns += t.elapsed().as_nanos() as u64;
            ex.sim.gaps.push((n, 1.0 - lambda2));
        }
    }
}

struct Replay {
    times: ReplayTimes,
    sim: SimOut,
    net: DexNetwork,
}

/// Everything a replay needs before its first call.
fn set_up(plan: &Plan, seed: u64) -> (DexNetwork, Script, SimOut) {
    let mut net = DexNetwork::bootstrap(plan.cfg(seed), plan.n0);
    net.net.set_history_mode(HistoryMode::Off);
    net.set_heal_threads(plan.heal_threads);
    net.set_faults(plan.faults(seed));
    let script = Script::new(plan.mix, plan.n0, splitmix64(seed ^ GEN_SALT));
    let mut sim = SimOut {
        digest: splitmix64(seed),
        ..SimOut::default()
    };
    sim.log.rounds.reserve(plan.calls());
    sim.log.messages.reserve(plan.calls());
    sim.log.topology.reserve(plan.calls());
    (net, script, sim)
}

/// Set up ([`Plan::setups`] times, keeping the last) and run the plan's
/// whole call stream once.
fn replay(plan: &Plan, seed: u64, threads: usize, mut tr: Option<&mut Tracer>) -> Replay {
    let mut times = ReplayTimes {
        setup_ns: Vec::with_capacity(plan.setups),
        seg_ns: Vec::with_capacity(plan.segments),
        lambda2_ns: 0,
    };
    for _ in 1..plan.setups {
        let t = Instant::now();
        drop(set_up(plan, seed));
        times.setup_ns.push(t.elapsed().as_nanos() as u64);
    }
    let t = Instant::now();
    let span = begin(&mut tr, Name::Bootstrap, 0);
    let (net, mut script, sim) = set_up(plan, seed);
    end(&mut tr, span);
    times.setup_ns.push(t.elapsed().as_nanos() as u64);

    let mut ex = Exec {
        net,
        shadow: FxHashMap::default(),
        sim,
        tr,
    };
    let mut boundary = Boundary {
        solver: Lambda2Solver::with_threads(threads),
        seen_shrunk: false,
        walk: ex.net.walk_stats,
        deletes: 0,
        inserts: 0,
    };
    boundary.at(plan, &mut ex, &mut times, 0);
    for seg in 0..plan.segments {
        let t = Instant::now();
        let id = ex.begin(Name::Segment, seg as u64);
        for k in 0..plan.seg_calls {
            let idx = (seg * plan.seg_calls + k) as u64;
            let op = script.next_op();
            ex.apply(idx, op, &script);
        }
        ex.end_as(id, Name::Segment);
        times.seg_ns.push(t.elapsed().as_nanos() as u64);
        boundary.at(plan, &mut ex, &mut times, (seg + 1) * plan.seg_calls);
    }
    let walk = ex.net.walk_stats;
    ex.sim.walk_attempts = walk.attempts;
    ex.sim.walk_misses = walk.misses;
    ex.sim.final_n = ex.net.n();
    assert_eq!(
        ex.sim.final_n,
        script.live(),
        "script and network disagree on n"
    );
    Replay {
        times,
        sim: ex.sim,
        net: ex.net,
    }
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Run a closed-loop workload: [`REPLAYS`] replays, the last one traced if
/// there is a tracer.
pub fn run_closed(
    plan: &Plan,
    seed: u64,
    threads: usize,
    mut tr: Option<&mut Tracer>,
) -> ClosedRun {
    let mut run = ClosedRun {
        times: Vec::new(),
        sim: SimOut::default(),
        net: None,
        invariants_ns: 0,
        violations: Vec::new(),
    };
    for r in 0..REPLAYS {
        // One network at a time, so peak memory is that of one replay.
        run.net = None;
        let traced = if r + 1 == REPLAYS {
            tr.as_deref_mut()
        } else {
            None
        };
        let out = match catch_unwind(AssertUnwindSafe(|| replay(plan, seed, threads, traced))) {
            Ok(out) => out,
            Err(e) => {
                run.violations
                    .push(format!("replay {r} panicked: {}", panic_text(e)));
                return run;
            }
        };
        if r == 0 {
            run.sim = out.sim;
        } else if out.sim != run.sim {
            run.violations.push(format!(
                "replay {r} differs from replay 0 (digest {:#x} vs {:#x})",
                out.sim.digest, run.sim.digest
            ));
        }
        run.times.push(out.times);
        run.net = Some(out.net);
    }
    let net = run.net.as_ref().expect("a replay ran");
    let t = Instant::now();
    let id = begin(&mut tr, Name::InvariantsCheck, 0);
    if let Err(e) = invariants::check(net) {
        run.violations.push(format!("invariants: {e}"));
    }
    end(&mut tr, id);
    run.invariants_ns = t.elapsed().as_nanos() as u64;
    let sim = &run.sim;
    if sim.max_load > net.cfg.max_load() {
        run.violations.push(format!(
            "max_load {} > {}",
            sim.max_load,
            net.cfg.max_load()
        ));
    }
    if sim.max_degree as u64 > 3 * sim.max_load {
        run.violations.push(format!(
            "max_degree {} > 3·max_load {}",
            sim.max_degree, sim.max_load
        ));
    }
    if sim.mismatches > 0 {
        run.violations.push(format!(
            "{} lookups disagree with the shadow map",
            sim.mismatches
        ));
    }
    for &(n, gap) in &sim.gaps {
        if gap.is_nan() || gap < GAP_FLOOR {
            run.violations.push(format!(
                "spectral gap {gap} at n={n} below floor {}",
                GAP_FLOOR
            ));
        }
    }
    run
}

/// Run `serve`: every rate, [`REPLAYS`] times each.
///
/// `run_serve` bootstraps its shards inside the call and offers no seam, so
/// set-up is timed on the side: each replay builds every rate's schedule and
/// bootstraps two shard-sized networks of its own, which are dropped before
/// serving starts (the traced run keeps the last for the probes).
pub fn run_serve_workload(
    plan: &Plan,
    seed: u64,
    threads: usize,
    mut tr: Option<&mut Tracer>,
) -> ServeRun {
    let mut run = ServeRun {
        setup_ns: Vec::new(),
        wall_ns: vec![Vec::new(); SERVE_RATES.len()],
        reports: Vec::new(),
        ref_net: None,
        ref_bootstrap_ns: 0,
        violations: Vec::new(),
    };
    for r in 0..REPLAYS {
        let mut traced = if r + 1 == REPLAYS {
            tr.as_deref_mut()
        } else {
            None
        };
        for _ in 0..plan.setups {
            let t = Instant::now();
            for i in 0..SERVE_RATES.len() {
                let opts = plan.serve_options(seed, i, threads);
                let id = begin(&mut traced, Name::BuildSchedule, i as u64);
                let schedule = build_schedule(&opts);
                end(&mut traced, id);
                assert_eq!(schedule.iter().map(Vec::len).sum::<usize>(), opts.ops);
            }
            let t_boot = Instant::now();
            let id = begin(&mut traced, Name::Bootstrap, 0);
            drop(DexNetwork::bootstrap(plan.cfg(seed), plan.n0));
            let net = DexNetwork::bootstrap(plan.cfg(seed), plan.n0);
            end(&mut traced, id);
            run.ref_bootstrap_ns = t_boot.elapsed().as_nanos() as u64;
            run.setup_ns.push(t.elapsed().as_nanos() as u64);
            run.ref_net = traced.is_some().then_some(net);
        }

        for (i, &(label, _)) in SERVE_RATES.iter().enumerate() {
            let opts = plan.serve_options(seed, i, threads);
            let t = Instant::now();
            let seg = begin(&mut traced, Name::Segment, i as u64);
            let id = begin(&mut traced, Name::RunServe, i as u64);
            let report = match catch_unwind(AssertUnwindSafe(|| run_serve(&opts))) {
                Ok(report) => report,
                Err(e) => {
                    run.violations
                        .push(format!("run_serve at {label} panicked: {}", panic_text(e)));
                    return run;
                }
            };
            end(&mut traced, id);
            end(&mut traced, seg);
            run.wall_ns[i].push(t.elapsed().as_nanos() as u64);
            if r == 0 {
                let mismatches: u64 = report.shards.iter().map(|s| s.mismatches).sum();
                if mismatches > 0 {
                    run.violations.push(format!(
                        "{label}: {mismatches} lookups disagree with the shadow map"
                    ));
                }
                if report.served + report.shed != opts.ops as u64 {
                    run.violations.push(format!(
                        "{label}: served {} + shed {} != offered {}",
                        report.served, report.shed, opts.ops
                    ));
                }
                run.reports.push(report);
            } else if report.digest != run.reports[i].digest {
                run.violations
                    .push(format!("{label}: replay {r} differs from replay 0"));
            }
        }
    }
    run
}
