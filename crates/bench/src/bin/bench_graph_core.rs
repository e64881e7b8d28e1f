//! Graph-core unit costs: emits `BENCH_graph_core.json`.
//!
//! Each section is an absolute cost of one graph-layer operation on the
//! shipped code path:
//!
//! * **λ₂ under churn** (n ≈ 20k): the "mutate the multigraph, then
//!   re-measure" loop — per epoch a few edges churn, then a warm-started
//!   [`Lambda2Solver`] measures λ₂ on a CSR form built from scratch
//!   ([`MultiGraph::csr`]); seconds over all epochs and per epoch.
//! * **walk throughput**: slot-space random-walk hops per second
//!   ([`MultiGraph::walk_slots`]).
//! * **route**: the DHT's shortest-path search on `Z(p)` at the p of
//!   every workload that routes (a 20k-vertex graph, and networks of
//!   20k, 100k and 500k nodes) — work per route as exact counts
//!   (visited-mark probes, modular inversions) and a splitmix64 digest of
//!   every returned path (these are in the smoke JSON too) and, timed,
//!   µs per route (median and quartiles of five passes over the pairs,
//!   after an untimed warm one) and the two forms of the chord kernel
//!   under it (scalar [`primes::mod_inverse`], batched
//!   [`primes::inverse_batch`]).
//! * **flood**: `computeSpare` (Algorithm 4.4, `dex_sim::flood`) along one
//!   run of `benchmark/`'s `resize` script (real `insert` / `delete`,
//!   2k → 40k → 500 nodes), at the two regimes that script floods in — n
//!   within 5 % of p (load ≈ 1, degree ≈ 3) and n ≈ p/16 with four dead
//!   arena slots per live one (degree ≈ 45). Work per flood as exact
//!   counts ([`FloodScratch::work`]; in the smoke JSON too, at toy scale),
//!   every result asserted equal to the queue BFS the kernel replaced,
//!   and, timed, ns per node and per adjacency entry. The `script` row is
//!   the network's own floods over the whole script and, timed, the share
//!   of its wall time spent in steps that flooded.
//! * **bootstrap**: [`DexNetwork::bootstrap`] at n ∈ {20k, 200k, 1M} — a
//!   digest of every adjacency row and `Sim` segment in slot order (in
//!   the smoke JSON too, at toy n), and, timed, ns per node (median of
//!   the builds) and the rise of the peak RSS (`VmHWM`, reset first) over
//!   the RSS before the first build.
//!
//! Run with `cargo run --release -p dex-bench --bin bench_graph_core`.
//! `--smoke` emits only deterministic digests (no timings), byte-identical
//! for any `DEX_EXEC_THREADS` setting. `--out FILE` overrides the output
//! path.

use dex::graph::pcycle::PathScratch;
use dex::graph::primes;
use dex::prelude::*;
use dex::sim::flood::{flood_count_slots, FloodResult, FloodScratch, FloodWork};
use dex::sim::rng::splitmix64;
use dex_bench::json::Json;
use dex_bench::Args;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const P: u64 = 20011; // prime ⇒ n = 20011 ≈ 20k nodes, 3-regular
const EPOCHS: usize = 12;
const CHURN_PER_EPOCH: usize = 4;
const MAX_ITERS: usize = 6000;
const TOL: f64 = 1e-10;

fn churn_edges(g: &mut MultiGraph, rng: &mut StdRng) {
    for _ in 0..CHURN_PER_EPOCH {
        let a = NodeId(rng.random_range(0..P));
        let b = NodeId(rng.random_range(0..P));
        if g.contains_edge(a, b) && g.degree(a) > 1 && g.degree(b) > 1 {
            g.remove_edge(a, b);
        } else {
            g.add_edge(a, b);
        }
    }
}

struct Lambda2Outcome {
    total_s: f64,
    last_lambda: f64,
}

/// λ₂ under churn: each epoch builds the CSR form anew, and a persistent
/// solver warm-starts from the previous eigenvector.
fn lambda2_under_churn(mut g: MultiGraph, seed: u64) -> Lambda2Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut solver = Lambda2Solver::new();
    let mut last = 0.0;
    let t0 = Instant::now();
    for _ in 0..EPOCHS {
        churn_edges(&mut g, &mut rng);
        last = solver.lambda2(&g, MAX_ITERS, TOL, 0xdecafbad);
    }
    Lambda2Outcome {
        total_s: t0.elapsed().as_secs_f64(),
        last_lambda: last,
    }
}

/// Slot-space walk: two array reads per hop, ids resolved once.
fn walk_slot_path(g: &MultiGraph, hops: usize, seed: u64) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let slot = g.slot_of(NodeId(0)).unwrap();
    let end = g.walk_slots(slot, hops, &mut rng);
    let elapsed = t0.elapsed().as_secs_f64();
    (elapsed, g.id_of_slot(end).0)
}

/// The route rows, `(p, roots)`. One root is type-2's vertex-to-vertex
/// search: this bench's own graph, and the cycle of a 500k-node network.
/// Four roots a quarter-cycle apart are the `Sim` set `{i, i+n, i+2n,
/// i+3n}` a bootstrap node holds, which a DHT route starts from: at the p
/// of `benchmark/`'s `lossy` (n = 20k), of one `serve` shard (n = 100k)
/// and of `dht` (n = 500k).
const ROUTE_ROWS: [(u64, u64); 5] = [
    (P, 1),
    (80_021, 4),
    (400_009, 4),
    (2_000_003, 1),
    (2_000_003, 4),
];
const ROUTE_PAIRS: usize = 2000;
/// Timed passes over the pairs per route row (after one untimed warm
/// pass): `route_us` is their median, `route_us_iqr` their quartiles.
const ROUTE_REPS: usize = 5;

/// One `route` row: deterministic work counts, plus wall-clock unit costs
/// when `timed` (and the inversion kernel's, on the one-root rows).
fn route_row(p: u64, roots: u64, timed: bool) -> Json {
    let cycle = PCycle::new(p);
    let stride = p / roots;
    let mut rng = StdRng::seed_from_u64(0x5eed ^ p);
    let pairs: Vec<(VertexId, VertexId)> = (0..ROUTE_PAIRS)
        .map(|_| {
            (
                VertexId(rng.random_range(0..stride)),
                VertexId(rng.random_range(0..p)),
            )
        })
        .collect();
    let mut scratch = PathScratch::new();
    let (mut sources, mut path) = (Vec::new(), Vec::new());
    // One pass over every pair: (total hops, digest of every path).
    let mut pass = |scratch: &mut PathScratch| {
        let (mut hops, mut digest) = (0usize, 0u64);
        for &(a, b) in &pairs {
            sources.clear();
            sources.extend((0..roots).map(|j| VertexId(a.0 + j * stride)));
            cycle.shortest_path_from_any(&sources, b, scratch, &mut path);
            hops += path.len() - 1;
            digest = splitmix64(digest ^ path.len() as u64);
            for z in &path {
                digest = splitmix64(digest ^ z.0);
            }
        }
        (hops, digest)
    };
    // The counted pass doubles as the timed passes' warm-up.
    let (hops, digest) = pass(&mut scratch);
    let (probes, inversions) = scratch.work();
    let per_route = |x: u64| Json::Fixed(x as f64 / ROUTE_PAIRS as f64, 1);
    let mut row = Json::obj([
        ("p", p.into()),
        ("roots", roots.into()),
        ("pairs", ROUTE_PAIRS.into()),
        ("probes_per_route", per_route(probes)),
        ("inversions_per_route", per_route(inversions)),
        (
            "mean_path_len",
            Json::Fixed(hops as f64 / ROUTE_PAIRS as f64, 3),
        ),
        ("path_digest", Json::hex(digest)),
    ]);
    if timed {
        let mut us: Vec<f64> = (0..ROUTE_REPS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(pass(&mut scratch));
                t0.elapsed().as_secs_f64() * 1e6 / ROUTE_PAIRS as f64
            })
            .collect();
        us.sort_by(f64::total_cmp);
        let q = |k: usize| us[k * (ROUTE_REPS - 1) / 4];
        let (q1, median, q3) = (q(1), q(2), q(3));
        println!("route p={p} roots={roots}: {median:.1} us/route [{q1:.1}, {q3:.1}]");
        row.push("route_us", Json::Fixed(median, 1));
        row.push(
            "route_us_iqr",
            Json::arr([Json::Fixed(q1, 1), Json::Fixed(q3, 1)]),
        );
    }
    if timed && roots == 1 {
        let xs: Vec<u32> = (0..1 << 16)
            .map(|_| rng.random_range(1..p) as u32)
            .collect();
        let t0 = Instant::now();
        let mut acc = 0u64;
        for &x in &xs {
            acc ^= primes::mod_inverse(std::hint::black_box(x as u64), p);
        }
        let scalar_ns = t0.elapsed().as_secs_f64() * 1e9 / xs.len() as f64;
        let mut out = vec![0u32; xs.len()];
        let t0 = Instant::now();
        primes::inverse_batch(p, std::hint::black_box(&xs), &mut out);
        let batch_ns = t0.elapsed().as_secs_f64() * 1e9 / xs.len() as f64;
        std::hint::black_box((acc, &out));
        println!("inverse p={p}: {scalar_ns:.1} ns scalar, {batch_ns:.2} ns/elt batched");
        row.push("scalar_inverse_ns", Json::Fixed(scalar_ns, 1));
        row.push("batch_inverse_ns_per_elt", Json::Fixed(batch_ns, 2));
    }
    row
}

/// The `"route"` section.
fn route_section(timed: bool) -> Json {
    Json::arr(
        ROUTE_ROWS
            .iter()
            .map(|&(p, roots)| route_row(p, roots, timed)),
    )
}

/// The queue BFS the flood kernel replaced, kept as its reference: every
/// adjacency entry of every reached node is examined.
fn reference_flood(g: &MultiGraph, root: u32, pred: impl Fn(u32) -> bool) -> FloodResult {
    let mut dist = vec![u32::MAX; g.slot_bound()];
    let mut queue = std::collections::VecDeque::from([root]);
    dist[root as usize] = 0;
    let (mut n, mut matching, mut ecc, mut messages) = (0usize, 0usize, 0u32, 0u64);
    let mut witness: Option<(u32, NodeId)> = None;
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        ecc = ecc.max(du);
        n += 1;
        if pred(u) {
            matching += 1;
            let cand = (du, g.id_of_slot(u));
            if witness.is_none_or(|best| cand < best) {
                witness = Some(cand);
            }
        }
        let nbrs = g.neighbor_slots(u);
        let deg = nbrs.len() as u64;
        messages += if u == root {
            deg
        } else {
            deg.saturating_sub(1)
        };
        for &v in nbrs {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    FloodResult {
        n,
        matching,
        rounds: 2 * ecc as u64,
        messages: messages + (n as u64).saturating_sub(1),
        witness: witness.map(|(_, id)| id),
    }
}

/// Floods per regime.
const FLOODS: usize = 64;

/// Append the work members of a `flood` row: `after − before`, per flood.
fn push_work(row: &mut Json, after: FloodWork, before: FloodWork) {
    let floods = after.floods - before.floods;
    row.push("floods", floods);
    for (key, a, b, decimals) in [
        ("levels_per_flood", after.levels, before.levels, 2),
        (
            "rows_top_down_per_flood",
            after.rows_top_down,
            before.rows_top_down,
            1,
        ),
        (
            "rows_bottom_up_per_flood",
            after.rows_bottom_up,
            before.rows_bottom_up,
            1,
        ),
        ("entries_per_flood", after.entries, before.entries, 1),
    ] {
        row.push(key, Json::Fixed((a - b) as f64 / floods as f64, decimals));
    }
}

/// A network driven the way `benchmark/`'s `resize` drives one: inserts
/// attached to a uniformly random live node, deletes of one. Every step
/// is timed, and the steps that missed a walk — the ones that flooded —
/// are summed apart, so the script's flood share needs no timer inside
/// the library.
struct Grown {
    net: DexNetwork,
    live: Vec<NodeId>,
    next_id: u64,
    rng: StdRng,
    steps: u64,
    steps_s: f64,
    flood_steps: u64,
    flood_steps_s: f64,
}

impl Grown {
    fn bootstrap(n0: u64) -> Self {
        let net = DexNetwork::bootstrap(DexConfig::new(1).simplified(), n0);
        let live = net.node_ids();
        let next_id = live.iter().map(|u| u.0).max().expect("n0 > 0") + 1;
        Grown {
            net,
            live,
            next_id,
            rng: StdRng::seed_from_u64(0xf100d),
            steps: 0,
            steps_s: 0.0,
            flood_steps: 0,
            flood_steps_s: 0.0,
        }
    }

    fn step(&mut self, op: impl FnOnce(&mut DexNetwork)) {
        let misses = self.net.walk_stats.misses;
        let t0 = Instant::now();
        op(&mut self.net);
        let dt = t0.elapsed().as_secs_f64();
        self.steps += 1;
        self.steps_s += dt;
        if self.net.walk_stats.misses > misses {
            self.flood_steps += 1;
            self.flood_steps_s += dt;
        }
    }

    fn insert(&mut self) {
        let v = self.live[self.rng.random_range(0..self.live.len())];
        let u = NodeId(self.next_id);
        self.next_id += 1;
        self.step(|net| {
            net.insert(u, v);
        });
        self.live.push(u);
    }

    fn delete(&mut self) {
        let i = self.rng.random_range(0..self.live.len());
        let victim = self.live.swap_remove(i);
        self.step(|net| {
            net.delete(victim);
        });
    }

    /// The `script` row: what the network's own floods cost over every
    /// step so far.
    fn script_row(&self, timed: bool) -> Json {
        let work = self.net.flood_work();
        let mut row = Json::obj([
            ("steps", self.steps.into()),
            ("flood_steps", self.flood_steps.into()),
            ("walk_misses", self.net.walk_stats.misses.into()),
        ]);
        push_work(&mut row, work, FloodWork::default());
        if timed {
            println!(
                "resize script: {} steps {:.3} s, of which {} flooded ({} floods): {:.3} s = {:.0} %",
                self.steps,
                self.steps_s,
                self.flood_steps,
                work.floods,
                self.flood_steps_s,
                100.0 * self.flood_steps_s / self.steps_s
            );
            row.push("steps_s", Json::Fixed(self.steps_s, 3));
            row.push("flood_steps_s", Json::Fixed(self.flood_steps_s, 3));
        }
        row
    }

    /// One `flood` row: [`FLOODS`] `computeSpare` counts from random
    /// roots, each asserted equal to the reference BFS.
    fn flood_row(&mut self, regime: &str, timed: bool) -> Json {
        let roots: Vec<u32> = (0..FLOODS)
            .map(|_| {
                let u = self.live[self.rng.random_range(0..self.live.len())];
                self.net.graph().slot_of(u).expect("live node")
            })
            .collect();
        let map = &self.net.map;
        let spare = |s: u32| map.is_spare_at(s);
        let mut scratch = FloodScratch::new();
        // Sizes the buffers; timed floods reuse them, as the healer's do.
        flood_count_slots(&mut self.net.net, roots[0], spare, &mut scratch);
        let before = scratch.work();
        let t0 = Instant::now();
        let results: Vec<FloodResult> = roots
            .iter()
            .map(|&r| flood_count_slots(&mut self.net.net, r, spare, &mut scratch))
            .collect();
        let kernel_ns = t0.elapsed().as_secs_f64() * 1e9 / FLOODS as f64;
        let work = scratch.work();
        let g = self.net.graph();
        let t0 = Instant::now();
        let expected: Vec<FloodResult> = roots
            .iter()
            .map(|&r| reference_flood(g, r, spare))
            .collect();
        let reference_ns = t0.elapsed().as_secs_f64() * 1e9 / FLOODS as f64;
        assert_eq!(
            results, expected,
            "{regime}: kernel and reference BFS differ"
        );

        let entries = (work.entries - before.entries) as f64 / FLOODS as f64;
        let (n, degree_sum) = (g.num_nodes(), g.degree_sum());
        // The reference examines every entry: Σ degree per flood.
        assert!(
            entries < degree_sum as f64,
            "{regime}: {entries} entries examined per flood, Σ degree {degree_sum}"
        );
        let mut row = Json::obj([
            ("regime", regime.into()),
            ("n", n.into()),
            ("p", self.net.cycle.p().into()),
            ("dead_slots", g.free_slots().len().into()),
            ("degree_sum", degree_sum.into()),
        ]);
        push_work(&mut row, work, before);
        if timed {
            println!(
                "flood {regime}: n={n} Σdeg={degree_sum} entries/flood={entries:.0}: kernel \
                 {:.0} us, reference BFS {:.0} us",
                kernel_ns / 1e3,
                reference_ns / 1e3
            );
            row.push("kernel_ns_per_node", Json::Fixed(kernel_ns / n as f64, 1));
            row.push("kernel_ns_per_entry", Json::Fixed(kernel_ns / entries, 2));
            row.push(
                "reference_ns_per_node",
                Json::Fixed(reference_ns / n as f64, 1),
            );
            row.push(
                "reference_ns_per_entry",
                Json::Fixed(reference_ns / degree_sum as f64, 2),
            );
        }
        row
    }
}

/// The `"flood"` section, from one run
/// of `resize`'s script: grow from `n0` through one inflation to within
/// 5 % of the next, flood; grow to `peak`, shrink until n ≤ p/16 with four
/// dead slots per live node, flood; shrink to `n0 / 4`. Smoke runs the
/// same script at toy scale.
fn flood_section(timed: bool) -> Json {
    let (n0, peak) = if timed { (2_000, 40_000) } else { (100, 2_000) };
    let mut grown = Grown::bootstrap(n0);
    let p0 = grown.net.cycle.p();
    while grown.net.cycle.p() == p0 || grown.net.n() as u64 * 100 < grown.net.cycle.p() * 95 {
        grown.insert();
    }
    let low = grown.flood_row("load_1", timed);
    while grown.net.n() < peak {
        grown.insert();
    }
    while grown.net.n() as u64 * 16 > grown.net.cycle.p()
        || grown.net.graph().free_slots().len() < 4 * grown.net.n()
    {
        grown.delete();
    }
    let high = grown.flood_row("load_16", timed);
    while grown.net.n() as u64 > n0 / 4 {
        grown.delete();
    }
    Json::obj([
        ("regimes", Json::arr([low, high])),
        ("script", grown.script_row(timed)),
    ])
}

/// Bootstrap sizes: timed, and at toy scale in the smoke JSON.
const BOOTSTRAP_NS: [u64; 3] = [20_000, 200_000, 1_000_000];
const BOOTSTRAP_SMOKE_NS: [u64; 3] = [2, 7, 2_000];

/// FNV-1a over the bootstrapped network in slot order: every adjacency row
/// (order included) and `Sim` segment, then the edge count, `|Spare|` and
/// `|Low|`.
fn bootstrap_digest(dex: &DexNetwork) -> u64 {
    let (g, map) = (dex.graph(), &dex.map);
    let mut h = FNV_SEED;
    for slot in 0..g.slot_bound() as u32 {
        let (row, sim) = (g.neighbor_slots(slot), map.sim_at(slot));
        h = fnv1a(h, row.len() as u64);
        h = row.iter().fold(h, |h, &v| fnv1a(h, v as u64));
        h = fnv1a(h, sim.len() as u64);
        h = sim.iter().fold(h, |h, z| fnv1a(h, z.0));
    }
    [g.num_edges(), map.spare_count(), map.low_count()]
        .iter()
        .fold(h, |h, &c| fnv1a(h, c as u64))
}

/// A `/proc/self/status` field in MB (`None` off Linux).
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix(field))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// One bootstrap row; timed, `reps` builds.
fn bootstrap_row(n: u64, timed: bool) -> Json {
    let cfg = DexConfig::new(1);
    let mut row = Json::obj([("n", n.into())]);
    if timed {
        // Writing 5 to clear_refs resets VmHWM to the current RSS.
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        let before = status_mb("VmRSS:");
        let reps = (2_000_000 / n).clamp(3, 21);
        let mut ns = Vec::with_capacity(reps as usize);
        let mut hwm = None;
        for rep in 0..reps {
            let t0 = Instant::now();
            let dex = DexNetwork::bootstrap(cfg, n);
            ns.push(t0.elapsed().as_secs_f64() * 1e9 / n as f64);
            if rep == 0 {
                hwm = status_mb("VmHWM:").filter(|_| reset);
            }
            std::hint::black_box(&dex);
        }
        ns.sort_by(f64::total_cmp);
        let median = ns[ns.len() / 2];
        let rise = hwm.zip(before).map(|(h, b)| h - b);
        println!(
            "bootstrap n={n}: {median:.0} ns/node (median of {reps}), VmHWM +{} MB",
            rise.map_or("null".into(), |r| format!("{r:.1}"))
        );
        row.push("reps", reps);
        row.push("ns_per_node", Json::Fixed(median, 1));
        row.push("ns_per_node_min", Json::Fixed(ns[0], 1));
        row.push("ns_per_node_max", Json::Fixed(ns[ns.len() - 1], 1));
        row.push("hwm_rise_mb", rise.map(|r| Json::Fixed(r, 1)));
    }
    let dex = DexNetwork::bootstrap(cfg, n);
    row.push("p", dex.cycle.p());
    row.push("edges", dex.graph().num_edges());
    row.push("digest", Json::hex(bootstrap_digest(&dex)));
    row
}

/// The `"bootstrap"` section.
fn bootstrap_section(timed: bool) -> Json {
    let ns = if timed {
        BOOTSTRAP_NS
    } else {
        BOOTSTRAP_SMOKE_NS
    };
    Json::arr(ns.map(|n| bootstrap_row(n, timed)))
}

/// The `"graph"` header of both modes.
fn graph_header(base: &MultiGraph) -> Json {
    Json::obj([
        ("n", base.num_nodes().into()),
        ("m", base.num_edges().into()),
        ("family", "pcycle".into()),
    ])
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a u64 stream — the deterministic digest of the smoke JSON.
fn fnv1a(acc: u64, v: u64) -> u64 {
    let mut h = acc;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Smoke mode: deterministic digests only — no timings — byte-identical
// for any DEX_EXEC_THREADS setting.
// ---------------------------------------------------------------------

fn run_smoke(base: &MultiGraph) -> Json {
    let csr = base.csr();
    let rows = csr.n();
    let x: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.618).sin()).collect();
    let mut y = vec![0.0f64; rows];
    spectral::lazy_spmv(&csr, &x, &mut y);
    let spmv_fnv = y.iter().fold(FNV_SEED, |h, v| fnv1a(h, v.to_bits()));

    let mut g = base.clone();
    let mut rng = StdRng::seed_from_u64(99);
    let mut solver = Lambda2Solver::new();
    let mut last = 0.0;
    for _ in 0..3 {
        churn_edges(&mut g, &mut rng);
        last = solver.lambda2(&g, 600, TOL, 0xdecafbad);
    }

    Json::obj([
        ("graph", graph_header(base)),
        ("exec", dex_bench::exec_header()),
        (
            "digests",
            Json::obj([
                ("spmv_y_fnv", Json::hex(spmv_fnv)),
                ("lambda2_bits", Json::hex(last.to_bits())),
            ]),
        ),
        ("route", route_section(false)),
        ("flood", flood_section(false)),
        ("bootstrap", bootstrap_section(false)),
    ])
}

fn run_full(base: &MultiGraph) -> Json {
    // First, while the heap holds little else to recycle.
    let bootstrap = bootstrap_section(true);
    let lambda = lambda2_under_churn(base.clone(), 99);
    let per_epoch_ms = lambda.total_s * 1e3 / EPOCHS as f64;
    println!(
        "lambda2 under churn: {:.4} s over {EPOCHS} epochs, {per_epoch_ms:.2} ms each (λ₂ = {:.6})",
        lambda.total_s, lambda.last_lambda
    );

    // Walk throughput.
    let hops = 4_000_000usize;
    let (t_slot, sink) = walk_slot_path(base, hops, 7);
    std::hint::black_box(sink);
    let slot_mhps = hops as f64 / t_slot / 1e6;
    println!("walks: slot-space {slot_mhps:.2} Mhops/s");

    Json::obj([
        ("graph", graph_header(base)),
        ("exec", dex_bench::exec_header()),
        (
            "lambda2_under_churn",
            Json::obj([
                ("epochs", EPOCHS.into()),
                ("edge_churn_per_epoch", CHURN_PER_EPOCH.into()),
                ("warm_start_s", Json::Fixed(lambda.total_s, 4)),
                ("ms_per_epoch", Json::Fixed(per_epoch_ms, 3)),
                ("lambda2", Json::Fixed(lambda.last_lambda, 6)),
            ]),
        ),
        (
            "walk_throughput",
            Json::obj([
                ("hops", hops.into()),
                ("slot_space_mhops_per_s", Json::Fixed(slot_mhps, 2)),
            ]),
        ),
        ("route", route_section(true)),
        ("flood", flood_section(true)),
        ("bootstrap", bootstrap),
    ])
}

fn main() {
    let args = Args::parse(&["--smoke", "--out"]);
    let out = args.get("--out", "BENCH_graph_core.json".to_string());
    let base = PCycle::new(P).to_multigraph();
    println!("graph: n={} m={}", base.num_nodes(), base.num_edges());
    let json = if args.smoke() {
        run_smoke(&base)
    } else {
        run_full(&base)
    };
    std::fs::write(&out, json.render()).expect("write graph-core bench JSON");
    println!("wrote {out}");
}
