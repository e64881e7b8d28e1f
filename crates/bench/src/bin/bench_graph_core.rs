//! Graph-core unit costs: emits `BENCH_graph_core.json`.
//!
//! Each section is an absolute cost of one graph-layer operation on the
//! shipped code path:
//!
//! * **λ₂ under churn** (n ≈ 20k): the "mutate the multigraph, then
//!   re-measure" loop — per epoch a few edges churn, then λ₂ is measured
//!   through the cached incremental snapshot ([`MultiGraph::csr`]) and a
//!   warm-started [`Lambda2Solver`]; seconds over all epochs and per
//!   epoch.
//! * **walk throughput**: slot-space random-walk hops per second
//!   ([`MultiGraph::walk_slots`]).
//! * **route**: the DHT's shortest-path search on `Z(p)` at the p of a
//!   20k-vertex and a 500k-node network — work per route as exact counts
//!   (vertices expanded, modular inversions) and a splitmix64 digest of
//!   every returned path (these are in the smoke JSON too) and, timed,
//!   the route and the two forms of the chord kernel under it (scalar
//!   [`primes::mod_inverse`], batched [`primes::inverse_batch`]).
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
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
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

/// λ₂ under churn: the graph's cached snapshot refreshes dirty rows only,
/// and a persistent solver warm-starts from the previous eigenvector.
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

/// The route rows, `(p, roots)`: this bench's own graph and the cycle of
/// a 500k-node network (`benchmark/`'s `dht` workload) point to point,
/// and that cycle again from four roots a quarter-cycle apart — the `Sim`
/// set `{i, i+n, i+2n, i+3n}` a bootstrap node holds at n = 500k, which a
/// DHT route starts from.
const ROUTE_ROWS: [(u64, u64); 3] = [(P, 1), (2_000_003, 1), (2_000_003, 4)];
const ROUTE_PAIRS: usize = 2000;

/// One `route` row: deterministic work counts, plus wall-clock unit costs
/// when `timed` (and the inversion kernel's, on the one-root rows).
fn route_row(p: u64, roots: u64, timed: bool) -> String {
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
    let (mut hops, mut digest) = (0usize, 0u64);
    let t0 = Instant::now();
    for &(a, b) in &pairs {
        sources.clear();
        sources.extend((0..roots).map(|j| VertexId(a.0 + j * stride)));
        cycle.shortest_path_from_any(&sources, b, &mut scratch, &mut path);
        hops += path.len() - 1;
        digest = splitmix64(digest ^ path.len() as u64);
        for z in &path {
            digest = splitmix64(digest ^ z.0);
        }
    }
    let route_us = t0.elapsed().as_secs_f64() * 1e6 / ROUTE_PAIRS as f64;
    let (expansions, inversions) = scratch.work();
    let mut row = format!(
        "{{\"p\": {p}, \"roots\": {roots}, \"pairs\": {ROUTE_PAIRS}, \
         \"expansions_per_route\": {:.1}, \"inversions_per_route\": {:.1}, \
         \"mean_path_len\": {:.3}, \"path_digest\": \"{digest:#018x}\"",
        expansions as f64 / ROUTE_PAIRS as f64,
        inversions as f64 / ROUTE_PAIRS as f64,
        hops as f64 / ROUTE_PAIRS as f64
    );
    if timed {
        println!("route p={p} roots={roots}: {route_us:.1} us/route");
        let _ = write!(row, ", \"route_us\": {route_us:.1}");
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
        let _ = write!(
            row,
            ", \"scalar_inverse_ns\": {scalar_ns:.1}, \"batch_inverse_ns_per_elt\": {batch_ns:.2}"
        );
    }
    row.push('}');
    row
}

/// The `"route"` JSON member (no trailing comma or newline).
fn route_section(timed: bool) -> String {
    let rows: Vec<String> = ROUTE_ROWS
        .iter()
        .map(|&(p, roots)| route_row(p, roots, timed))
        .collect();
    format!("  \"route\": [\n    {}\n  ]", rows.join(",\n    "))
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

/// The work members of a `flood` row: `after − before`, per flood.
fn work_members(after: FloodWork, before: FloodWork) -> String {
    let floods = after.floods - before.floods;
    let per_flood = |after: u64, before: u64| (after - before) as f64 / floods as f64;
    format!(
        "\"floods\": {floods}, \"levels_per_flood\": {:.2}, \"rows_top_down_per_flood\": {:.1}, \
         \"rows_bottom_up_per_flood\": {:.1}, \"entries_per_flood\": {:.1}",
        per_flood(after.levels, before.levels),
        per_flood(after.rows_top_down, before.rows_top_down),
        per_flood(after.rows_bottom_up, before.rows_bottom_up),
        per_flood(after.entries, before.entries),
    )
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
    fn script_row(&self, timed: bool) -> String {
        let work = self.net.flood_work();
        let mut row = format!(
            "{{\"steps\": {}, \"flood_steps\": {}, \"walk_misses\": {}, {}",
            self.steps,
            self.flood_steps,
            self.net.walk_stats.misses,
            work_members(work, FloodWork::default()),
        );
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
            let _ = write!(
                row,
                ", \"steps_s\": {:.3}, \"flood_steps_s\": {:.3}",
                self.steps_s, self.flood_steps_s
            );
        }
        row.push('}');
        row
    }

    /// One `flood` row: [`FLOODS`] `computeSpare` counts from random
    /// roots, each asserted equal to the reference BFS.
    fn flood_row(&mut self, regime: &str, timed: bool) -> String {
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
        let mut row = format!(
            "{{\"regime\": \"{regime}\", \"n\": {n}, \"p\": {}, \"dead_slots\": {}, \
             \"degree_sum\": {degree_sum}, {}",
            self.net.cycle.p(),
            g.free_slots().len(),
            work_members(work, before),
        );
        if timed {
            println!(
                "flood {regime}: n={n} Σdeg={degree_sum} entries/flood={entries:.0}: kernel \
                 {:.0} us, reference BFS {:.0} us",
                kernel_ns / 1e3,
                reference_ns / 1e3
            );
            let _ = write!(
                row,
                ", \"kernel_ns_per_node\": {:.1}, \"kernel_ns_per_entry\": {:.2}, \
                 \"reference_ns_per_node\": {:.1}, \"reference_ns_per_entry\": {:.2}",
                kernel_ns / n as f64,
                kernel_ns / entries,
                reference_ns / n as f64,
                reference_ns / degree_sum as f64
            );
        }
        row.push('}');
        row
    }
}

/// The `"flood"` JSON member (no trailing comma or newline), from one run
/// of `resize`'s script: grow from `n0` through one inflation to within
/// 5 % of the next, flood; grow to `peak`, shrink until n ≤ p/16 with four
/// dead slots per live node, flood; shrink to `n0 / 4`. Smoke runs the
/// same script at toy scale.
fn flood_section(timed: bool) -> String {
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
    let script = grown.script_row(timed);
    format!(
        "  \"flood\": {{\n    \"regimes\": [\n      {low},\n      {high}\n    ],\n    \
         \"script\": {script}\n  }}"
    )
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
fn bootstrap_row(n: u64, timed: bool) -> String {
    let cfg = DexConfig::new(1);
    let mut row = format!("{{\"n\": {n}");
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
        let rise = match (hwm, before) {
            (Some(h), Some(b)) => format!("{:.1}", h - b),
            _ => "null".into(),
        };
        println!("bootstrap n={n}: {median:.0} ns/node (median of {reps}), VmHWM +{rise} MB");
        let _ = write!(
            row,
            ", \"reps\": {reps}, \"ns_per_node\": {median:.1}, \"ns_per_node_min\": {:.1}, \
             \"ns_per_node_max\": {:.1}, \"hwm_rise_mb\": {rise}",
            ns[0],
            ns[ns.len() - 1]
        );
    }
    let dex = DexNetwork::bootstrap(cfg, n);
    let _ = write!(
        row,
        ", \"p\": {}, \"edges\": {}, \"digest\": \"{:#018x}\"}}",
        dex.cycle.p(),
        dex.graph().num_edges(),
        bootstrap_digest(&dex)
    );
    row
}

/// The `"bootstrap"` JSON member (no trailing comma or newline).
fn bootstrap_section(timed: bool) -> String {
    let ns = if timed {
        BOOTSTRAP_NS
    } else {
        BOOTSTRAP_SMOKE_NS
    };
    let rows: Vec<String> = ns.iter().map(|&n| bootstrap_row(n, timed)).collect();
    format!("  \"bootstrap\": [\n    {}\n  ]", rows.join(",\n    "))
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

fn run_smoke(base: &MultiGraph) -> String {
    let csr = base.csr();
    let rows = csr.n();
    let x: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.618).sin()).collect();
    let mut y = vec![0.0f64; rows];
    spectral::lazy_spmv(&csr, &x, &mut y, -1.0);
    let spmv_fnv = y.iter().fold(FNV_SEED, |h, v| fnv1a(h, v.to_bits()));

    let mut g = base.clone();
    let mut rng = StdRng::seed_from_u64(99);
    let mut solver = Lambda2Solver::new();
    let mut last = 0.0;
    for _ in 0..3 {
        churn_edges(&mut g, &mut rng);
        last = solver.lambda2(&g, 600, TOL, 0xdecafbad);
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"graph\": {{\"n\": {}, \"m\": {}, \"family\": \"pcycle\"}},",
        base.num_nodes(),
        base.num_edges()
    );
    let _ = writeln!(json, "  {},", dex_bench::exec_header_json());
    let _ = writeln!(json, "  \"digests\": {{");
    let _ = writeln!(json, "    \"spmv_y_fnv\": \"{spmv_fnv:#018x}\",");
    let _ = writeln!(json, "    \"lambda2_bits\": \"{:#018x}\"", last.to_bits());
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "{},", route_section(false));
    let _ = writeln!(json, "{},", flood_section(false));
    let _ = writeln!(json, "{}", bootstrap_section(false));
    let _ = writeln!(json, "}}");
    json
}

fn run_full(base: &MultiGraph) -> String {
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

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"graph\": {{\"n\": {}, \"m\": {}, \"family\": \"pcycle\"}},",
        base.num_nodes(),
        base.num_edges()
    );
    let _ = writeln!(json, "  {},", dex_bench::exec_header_json());
    let _ = writeln!(json, "  \"lambda2_under_churn\": {{");
    let _ = writeln!(json, "    \"epochs\": {EPOCHS},");
    let _ = writeln!(json, "    \"edge_churn_per_epoch\": {CHURN_PER_EPOCH},");
    let _ = writeln!(json, "    \"cached_warm_start_s\": {:.4},", lambda.total_s);
    let _ = writeln!(json, "    \"ms_per_epoch\": {per_epoch_ms:.3},");
    let _ = writeln!(json, "    \"lambda2\": {:.6}", lambda.last_lambda);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"walk_throughput\": {{");
    let _ = writeln!(json, "    \"hops\": {hops},");
    let _ = writeln!(json, "    \"slot_space_mhops_per_s\": {slot_mhps:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "{},", route_section(true));
    let _ = writeln!(json, "{},", flood_section(true));
    let _ = writeln!(json, "{bootstrap}");
    let _ = writeln!(json, "}}");
    json
}

fn main() {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(it.next().expect("--out FILE")),
            other => panic!("unknown flag {other:?} (try --smoke / --out)"),
        }
    }
    let out = out.unwrap_or_else(|| "BENCH_graph_core.json".into());
    let base = PCycle::new(P).to_multigraph();
    println!("graph: n={} m={}", base.num_nodes(), base.num_edges());
    let json = if smoke {
        run_smoke(&base)
    } else {
        run_full(&base)
    };
    std::fs::write(&out, &json).expect("write graph-core bench JSON");
    println!("wrote {out}");
}
