//! The healing-throughput benchmark behind `bench_heal` (and its CI
//! smoke + determinism tests): times the slot-arena Φ on the heal access
//! pattern, and drives end-to-end insert/delete/batch churn on full
//! `DexNetwork`s up to n ≈ 1M.
//!
//! Two sections, both emitted into `BENCH_heal.json`:
//!
//! 1. **Φ heal kernel** — the exact mapping-op sequence type-1 healing
//!    performs (probe a spare node, pick the max vertex of its `Sim` set,
//!    transfer it, resolve the owners of the incident vertices; then the
//!    deletion mirror) plus one synthetic inflate/deflate rebuild, replayed
//!    against Φ. The op count and a checksum over every owner and load the
//!    replay observed are deterministic; timed runs add Φ ops/s overall,
//!    in the steady section and in the rebuild.
//! 2. **End-to-end churn** — full DEX networks at n ∈ {20k, 200k, 1M}
//!    under a deterministic 45/45/5/5 single-insert / single-delete /
//!    batch-insert / batch-delete mix, with trials fanned out over the
//!    order-preserving `par_map`. Separate single-threaded passes, each on
//!    a network of its own after an untimed warm-up, measure wall-clock
//!    ops/s (the median of five, with its quartiles) and — through a
//!    caller-provided allocation counter, in the first pass — **bytes
//!    allocated per healing operation**, which is 0 in steady state (no
//!    type-2 in the measurement window) now that every hot-path buffer is
//!    pooled in `HealScratch`.
//!
//! Determinism contract: everything except the clearly-labelled timing
//! fields (`*_ops_per_sec`, `ops_per_sec_iqr`, `*wall_s`) is a pure
//! function of `(smoke, seed, trials)` — independent of the thread budget
//! and of machine speed. In `--smoke` mode the timing fields are omitted entirely and
//! the JSON is **byte-identical** across thread counts; the
//! `heal_determinism` test runs threads ∈ {1, 3, 8} and diffs the bytes.

use crate::json::Json;
use dex::core::VirtualMapping;
use dex::exec::par_map;
use dex::prelude::*;
use dex::sim::rng::splitmix64;
use dex::sim::{HasStepLog, HistoryMode, StepLog};
use std::time::Instant;

/// Options for one benchmark run.
pub struct HealBenchOptions {
    /// Toy scales, per-step invariant checking, no timing fields.
    pub smoke: bool,
    /// Worker threads for the churn trial fan-out.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Trials per churn scale (0 = default 2).
    pub trials: usize,
    /// Reads the process-wide allocated-bytes counter, when the caller
    /// installed a counting allocator. `None` ⇒ allocation fields are
    /// reported as `null`.
    pub alloc_bytes: Option<fn() -> u64>,
}

impl Default for HealBenchOptions {
    fn default() -> Self {
        HealBenchOptions {
            smoke: false,
            threads: dex::exec::thread_budget(),
            seed: 0x4ea1,
            trials: 0,
            alloc_bytes: None,
        }
    }
}

// ======================================================================
// Section 1: the Φ heal kernel
// ======================================================================

/// Outcome of one kernel replay: op counts, a checksum folding every
/// owner/load the kernel observed, and per-section wall time.
struct KernelOutcome {
    ops: u64,
    checksum: u64,
    /// Ops / wall seconds spent in the steady type-1 section.
    steady_ops: u64,
    steady_s: f64,
    /// Ops / wall seconds spent in the type-2 rebuild sections.
    type2_ops: u64,
    type2_s: f64,
}

/// Cloud size of the kernel's synthetic inflation (the paper's α ∈ (4, 8);
/// real clouds are 4–8 consecutive new vertices per old vertex, Eq. 7).
const KERNEL_CLOUD: u64 = 4;

/// Replay `steps` insert+delete heal pairs against `phi` at scale
/// `(n, p0)`, including one full inflate/deflate type-2 cycle (the
/// amortized part of healing: with θ = 1/64 the trigger can fire as often
/// as every θn steps, and Lemma 8 bounds the gap below by Ω(γn) — one
/// inflation and one deflation per n/2 heals sits inside that band).
/// The op sequence, op count and checksum are pure functions of
/// `(n, p0, steps, seed)`.
fn run_kernel(phi: &mut VirtualMapping, n: u64, p0: u64, steps: u64, seed: u64) -> KernelOutcome {
    // Bootstrap: vertices dealt round-robin, like `DexNetwork::bootstrap`.
    for z in 0..p0 {
        phi.assign(VertexId(z), NodeId(z % n));
    }
    let mut p = p0;
    // Bootstrap is setup, not healing: excluded from both the op count
    // and the timed sections (the timer starts below).
    let mut ops = 0u64;
    let mut type2_ops = 0u64;
    let mut type2_s = 0.0f64;
    let kernel_t = Instant::now();
    let mut checksum = splitmix64(seed ^ p);
    let mut state = seed;
    let rnd = move |s: &mut u64| {
        *s = splitmix64(*s);
        *s
    };
    // Cheap mod-p reduction (multiply-shift) and a 2-op checksum fold:
    // the kernel must time Φ, not the driver's ALU (divisions and hash
    // folds would blur Φ's unit cost).
    #[inline(always)]
    fn reduce(x: u64, p: u64) -> u64 {
        ((x as u128 * p as u128) >> 64) as u64
    }
    #[inline(always)]
    fn fold(checksum: &mut u64, v: u64) {
        *checksum = checksum.rotate_left(1) ^ v;
    }
    #[inline(always)]
    fn succ(z: u64, p: u64) -> u64 {
        if z + 1 == p {
            0
        } else {
            z + 1
        }
    }
    #[inline(always)]
    fn pred(z: u64, p: u64) -> u64 {
        if z == 0 {
            p - 1
        } else {
            z - 1
        }
    }
    // The incident vertices whose owners a one-vertex move resolves
    // (cycle succ/pred plus a chord-distributed partner: uniformly
    // scattered, like the real modular inverse).
    let resolve = |phi: &VirtualMapping, z: u64, p: u64, checksum: &mut u64, ops: &mut u64| {
        let h = reduce(splitmix64(z), p);
        for v in [succ(z, p), pred(z, p), z, h, succ(h, p), pred(h, p)] {
            fold(checksum, phi.owner_of(VertexId(v)).0);
            *ops += 1;
        }
    };
    // One vertex move = `fabric::move_vertices`: enumerate the incident
    // instances, resolve their owners (edge removal), transfer, resolve
    // again under the new owner (edge re-add).
    let moved = |phi: &mut VirtualMapping,
                 z: VertexId,
                 to: NodeId,
                 p: u64,
                 checksum: &mut u64,
                 ops: &mut u64| {
        resolve(phi, z.0, p, checksum, ops);
        phi.transfer(z, to);
        *ops += 1;
        resolve(phi, z.0, p, checksum, ops);
    };
    // Post-rebuild fabric pass: resolve the owner of every canonical edge
    // endpoint (succ sequential, chord scattered), mirroring the
    // type-2 rewire's row sweep (`fabric::rewire_diff`).
    let resolve_fabric = |phi: &VirtualMapping, p: u64, checksum: &mut u64, ops: &mut u64| {
        for z in 0..p {
            let chord = reduce(splitmix64(z), p);
            fold(checksum, phi.owner_of(VertexId(z)).0);
            fold(checksum, phi.owner_of(VertexId(succ(z, p))).0);
            fold(checksum, phi.owner_of(VertexId(chord)).0);
        }
        *ops += 3 * p;
    };
    let mut zs_buf: Vec<VertexId> = Vec::new();
    for step in 0..steps {
        // --- insert heal: find a spare node, hand its max vertex over ---
        let mut w = rnd(&mut state) % n;
        while phi.load(NodeId(w)) < 2 {
            ops += 1;
            w = (w + 1) % n;
        }
        ops += 1;
        let z = *phi
            .sim(NodeId(w))
            .iter()
            .max()
            .expect("spare node simulates a vertex");
        // Fresh ids are allocated one per step, above the bootstrap range.
        let u = NodeId(n + step);
        moved(phi, z, u, p, &mut checksum, &mut ops);

        // --- delete heal ---
        // "Low" scales with the current average load p/n (after the
        // synthetic inflation loads quadruple, as they do transiently in
        // the real protocol before rebalancing spreads them).
        let low_cap = (4 * p / n).max(16);
        let low_probe = |phi: &VirtualMapping, from: u64, ops: &mut u64| {
            let mut w = from % n;
            while {
                let l = phi.load(NodeId(w));
                l < 1 || l > low_cap
            } {
                *ops += 1;
                w = (w + 1) % n;
            }
            *ops += 1;
            w
        };
        if step % 8 == 7 {
            // An established node dies: the rescuer adopts its whole Sim
            // set, then redistributes each vertex to a Low node — the
            // `adopt_vertices` + per-vertex walk shape of Algorithm 4.3.
            let victim = NodeId(rnd(&mut state) % n);
            zs_buf.clear();
            zs_buf.extend_from_slice(phi.sim(victim));
            ops += 1;
            let rescuer = NodeId(low_probe(phi, rnd(&mut state), &mut ops));
            for &z in &zs_buf {
                if phi.owner_of(z) != rescuer {
                    moved(phi, z, rescuer, p, &mut checksum, &mut ops);
                }
            }
            for &z in &zs_buf {
                let w2 = NodeId(low_probe(phi, rnd(&mut state), &mut ops));
                if phi.owner_of(z) != w2 {
                    moved(phi, z, w2, p, &mut checksum, &mut ops);
                }
            }
        } else {
            // The freshly inserted node dies again: one-vertex adoption.
            let w2 = NodeId(low_probe(phi, rnd(&mut state), &mut ops));
            let zs = phi.sim(u);
            debug_assert_eq!(zs.len(), 1);
            let z = zs[0];
            moved(phi, z, w2, p, &mut checksum, &mut ops);
        }

        if step % 1024 == 0 {
            checksum = splitmix64(
                checksum ^ (phi.spare_count() as u64) ^ ((phi.low_count() as u64) << 32),
            );
        }

        // --- type-2 inflation (`simplifiedInfl` Phase 1, Eq. 7): every
        // old vertex is replaced by a cloud of α consecutive new vertices
        // owned by the same node, read from Φ in canonical order.
        if step + 1 == steps / 3 {
            let t2 = Instant::now();
            let ops_before = ops;
            debug_assert_eq!(p, p0);
            let p_new = p * KERNEL_CLOUD;
            let mut next = VirtualMapping::with_vertex_capacity(8, p_new);
            for (z, owner) in phi.entries() {
                next.assign_run(VertexId(z.0 * KERNEL_CLOUD), KERNEL_CLOUD, owner);
            }
            ops += p + p_new; // p entry reads + p_new assigns
            *phi = next;
            p = p_new;
            resolve_fabric(phi, p, &mut checksum, &mut ops);
            type2_s += t2.elapsed().as_secs_f64();
            type2_ops += ops - ops_before;
        }
        // --- type-2 deflation (`simplifiedDefl` Phase 1): only dominating
        // vertices survive, contracting each cloud back to one vertex.
        if step + 1 == 2 * steps / 3 {
            let t2 = Instant::now();
            let ops_before = ops;
            debug_assert_eq!(p, p0 * KERNEL_CLOUD);
            let p_new = p0;
            let mut next = VirtualMapping::with_vertex_capacity(8, p_new);
            for (z, owner) in phi.entries() {
                if z.0 % KERNEL_CLOUD == 0 {
                    next.assign(VertexId(z.0 / KERNEL_CLOUD), owner);
                }
            }
            ops += p + p_new;
            *phi = next;
            p = p_new;
            resolve_fabric(phi, p, &mut checksum, &mut ops);
            type2_s += t2.elapsed().as_secs_f64();
            type2_ops += ops - ops_before;
        }
    }
    checksum = splitmix64(checksum ^ phi.spare_count() as u64 ^ phi.low_count() as u64);
    KernelOutcome {
        ops,
        checksum,
        steady_ops: ops - type2_ops,
        steady_s: kernel_t.elapsed().as_secs_f64() - type2_s,
        type2_ops,
        type2_s,
    }
}

struct KernelReport {
    n: u64,
    p: u64,
    steps: u64,
    outcome: KernelOutcome,
}

fn phi_kernel_scale(n: u64, seed: u64) -> KernelReport {
    let p = dex::graph::primes::initial_prime(n);
    let steps = n / 2;
    let mut phi = VirtualMapping::with_vertex_capacity(8, p);
    KernelReport {
        n,
        p,
        steps,
        outcome: run_kernel(&mut phi, n, p, steps, seed),
    }
}

// ======================================================================
// Section 2: end-to-end churn on DexNetwork
// ======================================================================

/// Floor below which the churn mix stops deleting.
fn churn_floor(n0: u64) -> usize {
    ((n0 / 2) as usize).max(16)
}

/// Deterministic churn driver: 45% single insert, 45% single delete,
/// 5% batch insert (8), 5% batch delete (8). Maintains its own live-node
/// list (no O(n) `node_ids()` per step) and reuses the batch buffers so
/// the adversary side allocates nothing per step either.
struct ChurnDriver {
    dex: DexNetwork,
    live: Vec<NodeId>,
    next_id: u64,
    state: u64,
    floor: usize,
    joins: Vec<(NodeId, NodeId)>,
    victims: Vec<NodeId>,
    pub log: StepLog,
    pub ops: u64,
    pub digest: u64,
}

impl ChurnDriver {
    fn new(n0: u64, steps: usize, seed: u64) -> Self {
        let mut dex =
            DexNetwork::bootstrap(DexConfig::new(splitmix64(seed ^ 0xd5c0)).simplified(), n0);
        dex.net.set_history_mode(HistoryMode::Off);
        let mut live = dex.node_ids();
        live.reserve(steps);
        let next_id = live.iter().map(|u| u.0).max().unwrap_or(0) + 1;
        let mut log = StepLog::new();
        log.rounds.reserve(steps + 1);
        log.messages.reserve(steps + 1);
        log.topology.reserve(steps + 1);
        ChurnDriver {
            dex,
            live,
            next_id,
            state: splitmix64(seed ^ 0x11ea1),
            floor: churn_floor(n0),
            joins: Vec::with_capacity(8),
            victims: Vec::with_capacity(8),
            log,
            ops: 0,
            digest: splitmix64(seed),
        }
    }

    #[inline]
    fn rnd(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    /// One adversarial step. Returns `(healing ops, used type-2)`.
    fn step(&mut self) -> (u64, bool) {
        let r = self.rnd() % 100;
        let can_delete = self.live.len() > self.floor;
        let m = if r < 45 || !can_delete && r < 90 {
            // single insert
            let r = self.rnd();
            let attach = self.live[(r % self.live.len() as u64) as usize];
            let u = self.fresh();
            let m = self.dex.insert(u, attach);
            self.live.push(u);
            self.account(m, 1)
        } else if r < 90 {
            // single delete
            let r = self.rnd();
            let idx = (r % self.live.len() as u64) as usize;
            let victim = self.live.swap_remove(idx);
            let m = self.dex.delete(victim);
            self.account(m, 1)
        } else if r < 95 || !can_delete {
            // batch insert of 8 (distinct fresh ids, fan-in ≤ 8 trivially)
            self.joins.clear();
            for _ in 0..8 {
                let r = self.rnd();
                let attach = self.live[(r % self.live.len() as u64) as usize];
                let u = self.fresh();
                self.joins.push((u, attach));
            }
            let joins = std::mem::take(&mut self.joins);
            let m = self.dex.insert_batch(&joins);
            self.live.extend(joins.iter().map(|&(u, _)| u));
            self.joins = joins;
            self.account(m, 8)
        } else {
            // batch delete of 8 distinct victims
            self.victims.clear();
            for _ in 0..8 {
                let r = self.rnd();
                let idx = (r % self.live.len() as u64) as usize;
                self.victims.push(self.live.swap_remove(idx));
            }
            let victims = std::mem::take(&mut self.victims);
            let m = self.dex.delete_batch(&victims);
            self.victims = victims;
            self.account(m, 8)
        };
        (
            match m.kind {
                StepKind::BatchInsert(k) | StepKind::BatchDelete(k) => k as u64,
                _ => 1,
            },
            m.recovery.is_type2(),
        )
    }

    fn account(&mut self, m: StepMetrics, ops: u64) -> StepMetrics {
        self.log.push(&m);
        self.ops += ops;
        self.digest = splitmix64(self.digest ^ m.rounds);
        self.digest = splitmix64(self.digest ^ m.messages);
        self.digest = splitmix64(self.digest ^ m.topology_changes);
        m
    }
}

impl HasStepLog for ChurnTrial {
    fn step_log(&self) -> &StepLog {
        &self.log
    }
}

struct ChurnTrial {
    log: StepLog,
    ops: u64,
    digest: u64,
    final_n: usize,
    p: u64,
    max_load: u64,
}

fn churn_trial(n0: u64, steps: usize, seed: u64, check_every_step: bool) -> ChurnTrial {
    let mut d = ChurnDriver::new(n0, steps, seed);
    for _ in 0..steps {
        d.step();
        if check_every_step {
            invariants::assert_ok(&d.dex);
        }
    }
    // Full structural verification at the end of every trial (per-step at
    // smoke scale): the benchmark fails loudly on any violation.
    invariants::check(&d.dex).expect("churn trial ended with an invariant violation");
    ChurnTrial {
        log: d.log,
        ops: d.ops,
        digest: d.digest,
        final_n: d.dex.n(),
        p: d.dex.cycle.p(),
        max_load: d.dex.max_total_load(),
    }
}

/// Timed churn passes per scale (full mode): `ops_per_sec` is their
/// median, `ops_per_sec_iqr` their quartiles. A pass of 1,500–3,000 steps
/// takes tens of milliseconds, so one pass alone cannot resolve a change.
const CHURN_PASSES: usize = 5;

/// One single-threaded measurement pass on a network of its own: warm the
/// scratch pools (untimed), then meter wall time and allocated bytes over
/// the tail of the run.
struct MeasuredChurn {
    measured_ops: u64,
    window_type2: u64,
    bytes: Option<u64>,
    wall_s: f64,
}

fn churn_measure(
    n0: u64,
    steps: usize,
    seed: u64,
    alloc_bytes: Option<fn() -> u64>,
) -> MeasuredChurn {
    let warmup = steps / 4;
    let mut d = ChurnDriver::new(n0, steps, seed);
    for _ in 0..warmup {
        d.step();
    }
    let b0 = alloc_bytes.map(|f| f());
    let t0 = Instant::now();
    let mut measured_ops = 0u64;
    let mut window_type2 = 0u64;
    for _ in warmup..steps {
        let (k, t2) = d.step();
        measured_ops += k;
        window_type2 += t2 as u64;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let bytes = alloc_bytes.map(|f| f() - b0.unwrap());
    MeasuredChurn {
        measured_ops,
        window_type2,
        bytes,
        wall_s,
    }
}

// ======================================================================
// Assembly
// ======================================================================

/// Derive the seed of churn trial `t` at scale `n`.
fn scale_trial_seed(master: u64, n: u64, t: usize) -> u64 {
    splitmix64(master ^ splitmix64(n ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Run the benchmark and return the `BENCH_heal.json` contents.
pub fn run_heal_bench(opts: &HealBenchOptions) -> String {
    let trials = if opts.trials > 0 { opts.trials } else { 2 };
    let scales: Vec<(u64, usize)> = if opts.smoke {
        vec![(192, 300), (768, 500)]
    } else {
        vec![(20_000, 4000), (200_000, 4000), (1_000_000, 2000)]
    };
    let kernel_ns: Vec<u64> = if opts.smoke {
        vec![512, 2048]
    } else {
        vec![20_000, 200_000, 1_000_000]
    };

    // --- Φ heal kernel -------------------------------------------------

    let mut kernel_rows = Vec::new();
    for &n in &kernel_ns {
        let r = phi_kernel_scale(n, splitmix64(opts.seed ^ n));
        let k = &r.outcome;
        let mut row = Json::obj([
            ("n", r.n.into()),
            ("p", r.p.into()),
            ("steps", r.steps.into()),
            ("mapping_ops", k.ops.into()),
            ("checksum", Json::hex(k.checksum)),
        ]);
        if opts.smoke {
            println!(
                "phi_kernel n={:<9} ops {:>10}  (smoke: untimed)",
                r.n, k.ops
            );
        } else {
            let all_ops = k.ops as f64 / (k.steady_s + k.type2_s);
            let steady_ops = k.steady_ops as f64 / k.steady_s;
            let type2_ops = k.type2_ops as f64 / k.type2_s;
            row.push("slot_ops_per_sec", Json::Fixed(all_ops, 0));
            row.push("steady_ops_per_sec", Json::Fixed(steady_ops, 0));
            row.push("type2_rebuild_ops_per_sec", Json::Fixed(type2_ops, 0));
            println!(
                "phi_kernel n={:<9} ops {:>10}  slot Φ {all_ops:>12.0}/s (steady {steady_ops:.0}/s, type-2 rebuild {type2_ops:.0}/s)",
                r.n, k.ops
            );
        }
        kernel_rows.push(row);
    }

    // --- end-to-end churn ----------------------------------------------
    let mut churn_rows = Vec::new();
    for &(n0, steps) in &scales {
        let idx: Vec<usize> = (0..trials).collect();
        let t0 = Instant::now();
        let reports: Vec<ChurnTrial> = par_map(&idx, opts.threads, |&t| {
            churn_trial(n0, steps, scale_trial_seed(opts.seed, n0, t), opts.smoke)
        });
        let trials_wall = t0.elapsed().as_secs_f64();
        let agg = StepAggregate::pooled(&reports);
        let ops: u64 = reports.iter().map(|r| r.ops).sum();
        let mut digest = splitmix64(n0);
        for r in &reports {
            digest = splitmix64(digest ^ r.digest);
        }

        // Single-threaded measurement passes (trial-0 seed): bytes/op from
        // the first and, in full mode, ops/s over all of them.
        let passes = if opts.smoke { 1 } else { CHURN_PASSES };
        let runs: Vec<MeasuredChurn> = (0..passes)
            .map(|_| {
                churn_measure(
                    n0,
                    steps,
                    scale_trial_seed(opts.seed, n0, 0),
                    opts.alloc_bytes,
                )
            })
            .collect();
        let m = &runs[0];
        assert!(
            runs.iter().all(|r| r.measured_ops == m.measured_ops),
            "churn passes replay one seed"
        );
        let bytes_per_op = m.bytes.map(|b| b / m.measured_ops.max(1));
        // Every pass times the same ops, so the quartiles of the walls are
        // those of the rates, reversed.
        let mut walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        walls.sort_by(f64::total_cmp);
        let q = |k: usize| walls[k * (passes - 1) / 4];
        let rate = |wall: f64| m.measured_ops as f64 / wall;
        let (wall_s, q1, q3) = (q(2), rate(q(3)), rate(q(1)));

        let mut row = Json::obj([
            ("n0", n0.into()),
            ("steps", steps.into()),
            ("trials", trials.into()),
            ("ops", ops.into()),
            ("final_n", Json::arr(reports.iter().map(|r| r.final_n))),
            ("p", Json::arr(reports.iter().map(|r| r.p))),
            (
                "max_load",
                reports.iter().map(|r| r.max_load).max().unwrap_or(0).into(),
            ),
            ("type2_steps", agg.type2_steps.into()),
            ("digest", Json::hex(digest)),
            ("invariants", "ok".into()),
            ("rounds", (&agg.rounds).into()),
            ("messages", (&agg.messages).into()),
            ("topology", (&agg.topology).into()),
            ("steady_alloc_bytes_per_op", bytes_per_op.into()),
            ("alloc_window_type2", m.window_type2.into()),
            ("alloc_window_ops", m.measured_ops.into()),
        ]);
        if !opts.smoke {
            row.push("ops_per_sec", Json::Fixed(rate(wall_s), 0));
            row.push(
                "ops_per_sec_iqr",
                Json::arr([Json::Fixed(q1, 0), Json::Fixed(q3, 0)]),
            );
            row.push("wall_s", Json::Fixed(wall_s, 3));
            row.push("trials_wall_s", Json::Fixed(trials_wall, 3));
        }
        churn_rows.push(row);
        println!(
            "churn n0={n0:<9} steps {steps:>6}  ops {ops:>8}  type2 {}  heal {:>10.0} ops/s [{q1:.0}, {q3:.0}]  alloc/op {}",
            agg.type2_steps,
            rate(wall_s),
            bytes_per_op
                .map(|b| format!("{b} B"))
                .unwrap_or_else(|| "n/a".into()),
        );
    }
    Json::obj([
        (
            "config",
            Json::obj([
                ("smoke", opts.smoke.into()),
                ("seed", opts.seed.into()),
                ("trials", trials.into()),
            ]),
        ),
        ("exec", crate::exec_header()),
        ("phi_kernel", Json::Arr(kernel_rows)),
        ("churn", Json::Arr(churn_rows)),
    ])
    .render()
}
