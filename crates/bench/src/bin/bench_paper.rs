//! How the reproduction measures against the paper: one section per
//! claim, written to `BENCH_paper.json`.
//!
//! | section | claim | what is measured |
//! |---|---|---|
//! | `figure1` | Fig. 1, Lemma 1 | Z(23) and its 4-balanced mapping onto 7 nodes: gaps, degrees, loads |
//! | `table1` | Table 1 | DEX (both type-2 modes) against four baselines on one churn schedule |
//! | `envelopes` | E1, Theorem 1 | type-1 rounds and messages per step against log₂ n; topology changes |
//! | `theorem1` | E4, Theorem 1 vs Cor. 1 | worst step, staggered (worst case) against simplified (amortized) |
//! | `dht` | E5, Sect. 4.4.4 | DHT insert/lookup messages against log₂ n; lost keys |
//! | `lambda2_floor` | E2/E3, Lemma 9 | min spectral gap under seven adversaries against the Lemma 9(b) floor |
//! | `degradation` | E8 | DEX's gap against probabilistic and naive overlays, random and adaptive |
//! | `walks` | E7, Lemmas 2 and 8 | walk hit rate against ℓ; steps between type-2 events |
//! | `ablation` | — | θ, the staggered window, executed permutation routing against its charge |
//!
//! `theorem1`'s `resize_rows` replay a resize-shaped trace (insert
//! 2,000 → 90,000, then delete to 500) in both modes and record where
//! staggered mode does not yet meet Theorem 1's per-step envelope.
//!
//! Everything runs sequentially from fixed seeds and no field is a
//! wall-clock reading, so the file is a pure function of `--smoke`, apart
//! from the `exec` header. `--smoke` shrinks the three expensive sections
//! (the resize trace, the λ₂ series, the degradation runs), drops the
//! three largest envelope sizes and keeps every other section at full size.
//!
//! ```sh
//! cargo run --release -p dex-bench --bin bench_paper            # full
//! cargo run --release -p dex-bench --bin bench_paper -- --smoke # CI-sized
//! ```

use dex::core::{fabric, routing};
use dex::graph::connectivity;
use dex::prelude::*;
use dex::sim::rng::splitmix64;
use dex::sim::HistoryMode;
use dex_bench::{exec_header_json, summary_json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// A churn schedule that drives any overlay identically: each entry is
/// (insert?, index into the live node list), the index drawn large and
/// reduced mod the live count at apply time.
struct Schedule {
    ops: Vec<(bool, usize)>,
}

impl Schedule {
    /// Random schedule with the given insert probability.
    fn random(seed: u64, steps: usize, p_insert: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = (0..steps)
            .map(|_| (rng.random_bool(p_insert), rng.random_range(0..usize::MAX)))
            .collect();
        Schedule { ops }
    }

    /// Apply the schedule; returns per-step metrics and the running
    /// maximum degree. Fresh ids are allocated above the overlay's
    /// current maximum, and at most 8 live nodes every step inserts.
    fn apply(&self, o: &mut dyn Overlay) -> (Vec<StepMetrics>, usize) {
        let mut next_id = o.node_ids().iter().map(|u| u.0).max().unwrap_or(0) + 1;
        let mut out = Vec::with_capacity(self.ops.len());
        let mut max_deg = 0;
        for &(insert, raw) in &self.ops {
            let live = o.node_ids();
            let idx = raw % live.len();
            let m = if insert || live.len() <= 8 {
                let id = NodeId(next_id);
                next_id += 1;
                o.insert(id, live[idx])
            } else {
                o.delete(live[idx])
            };
            out.push(m);
            max_deg = max_deg.max(o.max_degree());
        }
        (out, max_deg)
    }
}

/// Table 1's lineup at size `n0`, all bootstrapped on ids `0..n0`:
/// (label, expansion guarantee, overlay).
fn lineup(seed: u64, n0: u64) -> Vec<(&'static str, &'static str, Box<dyn Overlay>)> {
    let dex = |cfg: DexConfig| Box::new(DexNetwork::bootstrap(cfg, n0));
    vec![
        (
            "dex (staggered)",
            "deterministic",
            dex(DexConfig::new(seed).staggered()),
        ),
        (
            "dex (simplified)",
            "deterministic",
            dex(DexConfig::new(seed).simplified()),
        ),
        (
            "law-siu",
            "probabilistic",
            Box::new(LawSiu::bootstrap(seed + 1, n0, 3)),
        ),
        (
            "skip-lite",
            "w.h.p.",
            Box::new(SkipLite::bootstrap(seed + 2, n0)),
        ),
        (
            "flooding",
            "deterministic",
            Box::new(Flooding::bootstrap(seed + 3, n0, 4)),
        ),
        (
            "naive-patch",
            "none",
            Box::new(NaivePatch::bootstrap(seed + 4, n0)),
        ),
    ]
}

/// ⌊log₂ n⌋ + 1, the bit length of `n` (at least 1).
fn log2(n: usize) -> u64 {
    (64 - (n.max(2) as u64).leading_zeros() as u64).max(1)
}

/// Grow a DEX network to `target` nodes by pure insertion, each new node
/// attached to a uniformly drawn live node. The live list stays sorted
/// (every fresh id is the new maximum), so the draws are exactly those
/// against a fresh `node_ids()` per step, without its O(n) per step.
fn grow_to(net: &mut DexNetwork, target: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live = net.node_ids();
    let mut next = net.fresh_node_id();
    while live.len() < target {
        net.insert(next, live[rng.random_range(0..live.len())]);
        live.push(next);
        next = NodeId(next.0 + 1);
    }
}

/// Pre-rendered items as a JSON array at a section's field depth.
fn list(items: &[String]) -> String {
    format!("[\n      {}\n    ]", items.join(",\n      "))
}

/// The `"rounds"`, `"messages"` and `"topology"` fields of an aggregate.
fn costs(a: &StepAggregate) -> String {
    format!(
        "\"rounds\": {}, \"messages\": {}, \"topology\": {}",
        summary_json(&a.rounds),
        summary_json(&a.messages),
        summary_json(&a.topology)
    )
}

/// Fig. 1: the 23-cycle and the mapping of vertex x to node x mod 7.
fn figure1(json: &mut String, _smoke: bool) {
    let z = PCycle::new(23);
    let zg = z.to_multigraph();
    let (net, map) = fabric::deal_round_robin(8, &z, 7);
    let g = net.graph();
    // Φ is slotted by the graph's node arena: resolve a name there.
    let slot = |i: u64| g.slot_of(NodeId(i)).expect("a dealt node");
    let graph = |name: &str, g: &MultiGraph| {
        format!(
            "{{\"graph\": \"{name}\", \"n\": {}, \"edges\": {}, \"max_degree\": {}, \"spectral_gap\": {:.4}, \"diameter\": {}}}",
            g.num_nodes(),
            g.num_edges(),
            g.max_degree(),
            spectral::spectral_gap(g),
            connectivity::diameter(g).expect("connected")
        )
    };
    let graphs = [graph("Z(23)", &zg), graph("Φ(Z(23))", g)];
    let mapping: Vec<String> = (0..7u64)
        .map(|i| {
            let mut sim: Vec<u64> = map.sim_at(slot(i)).iter().map(|z| z.raw()).collect();
            sim.sort_unstable();
            let name = (b'A' + i as u8) as char;
            format!(
                "{{\"node\": \"{name}\", \"load\": {}, \"vertices\": {sim:?}}}",
                sim.len()
            )
        })
        .collect();
    let lemma1 = spectral::spectral_gap(g) >= spectral::spectral_gap(&zg) - 1e-9;
    let degree = (0..7).all(|i| g.degree(NodeId(i)) as u64 == 3 * map.load_at(slot(i)));
    let _ = writeln!(json, "    \"graphs\": {},", list(&graphs));
    let _ = writeln!(json, "    \"mapping\": {},", list(&mapping));
    let _ = writeln!(json, "    \"lemma1_gap_not_below_z\": {lemma1},");
    let _ = writeln!(json, "    \"degree_is_3_load\": {degree}");
}

/// Table 1: one churn schedule through every overlay.
fn table1(json: &mut String, _smoke: bool) {
    let (n0, steps) = (128, 400);
    let sched = Schedule::random(0x7ab1e, steps, 0.5);
    let rows: Vec<String> = lineup(1, n0)
        .into_iter()
        .map(|(label, guarantee, mut o)| {
            let (metrics, max_deg) = sched.apply(o.as_mut());
            format!(
                "{{\"overlay\": \"{label}\", \"guarantee\": \"{guarantee}\", \"gap_end\": {:.4}, \"max_degree\": {max_deg}, {}}}",
                o.spectral_gap(),
                costs(&StepAggregate::of(&metrics))
            )
        })
        .collect();
    let _ = writeln!(json, "    \"n0\": {n0},\n    \"steps\": {steps},");
    let _ = writeln!(json, "    \"rows\": {}", list(&rows));
}

/// E1: type-1 step costs at growing n, staggered mode, 300 churn steps
/// after growing from 64 nodes.
fn envelopes(json: &mut String, smoke: bool) {
    let steps = 300;
    let mut sizes = vec![64usize, 128, 256, 512, 1024, 2048, 4096];
    if !smoke {
        sizes.extend([1 << 14, 1 << 17, 1 << 20]);
    }
    let rows: Vec<String> = sizes
        .into_iter()
        .map(|n| {
            let mut net = DexNetwork::bootstrap(DexConfig::new(1).staggered(), 64);
            net.net.set_history_mode(HistoryMode::Off);
            grow_to(&mut net, n, 2);
            let (metrics, _) = Schedule::random(3, steps, 0.5).apply(&mut net);
            invariants::assert_ok(&net);
            let a = StepAggregate::of(metrics.iter().filter(|m| !m.recovery.is_type2()));
            let ratio = |p95: u64| p95 as f64 / log2(n) as f64;
            format!(
                "{{\"n\": {n}, \"log2_n\": {}, {}, \"rounds_p95_per_log2_n\": {:.1}, \"messages_p95_per_log2_n\": {:.1}}}",
                log2(n),
                costs(&a),
                ratio(a.rounds.p95),
                ratio(a.messages.p95)
            )
        })
        .collect();
    let _ = writeln!(
        json,
        "    \"mode\": \"staggered\",\n    \"steps_per_size\": {steps},"
    );
    let _ = writeln!(json, "    \"rows\": {}", list(&rows));
}

/// Bootstrap `cfg` at `n0`, insert to `top`, then delete to `floor`.
/// Attach points and victims come from the SplitMix64 stream at
/// `seed ^ 0xabcdef`, the choices of `grow_then_shrink` in
/// `crates/dex-core/tests/staggered_reserves.rs`.
fn resize_trace(cfg: DexConfig, seed: u64, n0: u64, top: usize, floor: usize) -> Vec<StepMetrics> {
    let mut dex = DexNetwork::bootstrap(cfg, n0);
    dex.net.set_history_mode(HistoryMode::Off);
    let mut ids = dex.node_ids();
    let mut state = seed ^ 0xabcdef;
    let mut pick = |len: usize| {
        let r = splitmix64(state);
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (r % len as u64) as usize
    };
    let mut fresh = dex.fresh_node_id().0;
    let mut out = Vec::with_capacity(2 * top - n0 as usize - floor);
    while ids.len() < top {
        out.push(dex.insert(NodeId(fresh), ids[pick(ids.len())]));
        ids.push(NodeId(fresh));
        fresh += 1;
    }
    while ids.len() > floor {
        let victim = ids.swap_remove(pick(ids.len()));
        out.push(dex.delete(victim));
    }
    invariants::assert_ok(&dex);
    out
}

/// E4: the worst single step of each type-2 mode. `growth_rows`: an
/// insert-heavy schedule (92 % joins) from 32 nodes. `resize_rows`: the
/// resize trace at seeds 1 and 7, with the worst per-step cost over
/// log₂ n and the number of steps above 64·log₂ n rounds or messages.
fn theorem1(json: &mut String, smoke: bool) {
    let steps = 3000;
    let modes = [
        ("simplified", DexConfig::new(11).simplified()),
        ("staggered", DexConfig::new(11).staggered()),
    ];
    let growth: Vec<String> = modes
        .into_iter()
        .map(|(mode, cfg)| {
            let mut net = DexNetwork::bootstrap(cfg, 32);
            let (h, _) = Schedule::random(7, steps, 0.92).apply(&mut net);
            invariants::assert_ok(&net);
            let t2 = StepAggregate::of(h.iter().filter(|m| m.recovery.is_type2()));
            let total: u64 = h.iter().map(|m| m.messages).sum();
            format!(
                "{{\"mode\": \"{mode}\", \"n_end\": {}, \"type2_steps\": {}, \"type2_rounds\": {}, \"type2_messages\": {}, \"worst_step_messages\": {}, \"amortized_messages_per_step\": {:.0}}}",
                net.n(),
                t2.steps,
                summary_json(&t2.rounds),
                summary_json(&t2.messages),
                h.iter().map(|m| m.messages).max().unwrap_or(0),
                total as f64 / h.len() as f64
            )
        })
        .collect();
    let (n0, top, floor) = if smoke {
        (200, 9_000, 50)
    } else {
        (2_000, 90_000, 500)
    };
    let mut resize = Vec::new();
    for (mode, staggered) in [("staggered", true), ("simplified", false)] {
        for seed in [1u64, 7] {
            let cfg = DexConfig::new(seed);
            let cfg = if staggered { cfg } else { cfg.simplified() };
            let h = resize_trace(cfg, seed, n0, top, floor);
            let per_log = |f: fn(&StepMetrics) -> u64| {
                h.iter()
                    .map(|m| f(m) as f64 / log2(m.n_after) as f64)
                    .fold(0.0, f64::max)
            };
            let over = h
                .iter()
                .filter(|m| m.rounds.max(m.messages) > 64 * log2(m.n_after))
                .count();
            resize.push(format!(
                "{{\"mode\": \"{mode}\", \"seed\": {seed}, \"steps\": {}, \"type2_steps\": {}, {}, \"rounds_max_per_log2_n\": {:.1}, \"messages_max_per_log2_n\": {:.1}, \"steps_over_64_log2_n\": {over}}}",
                h.len(),
                h.iter().filter(|m| m.recovery.is_type2()).count(),
                costs(&StepAggregate::of(&h)),
                per_log(|m| m.rounds),
                per_log(|m| m.messages)
            ));
        }
    }
    let _ = writeln!(
        json,
        "    \"growth\": {{\"n0\": 32, \"steps\": {steps}, \"p_insert\": 0.92}},"
    );
    let _ = writeln!(json, "    \"growth_rows\": {},", list(&growth));
    let _ = writeln!(
        json,
        "    \"resize\": {{\"n0\": {n0}, \"top\": {top}, \"floor\": {floor}}},"
    );
    let _ = writeln!(json, "    \"resize_rows\": {}", list(&resize));
}

/// E5: 200 DHT inserts then 200 lookups from random nodes, simplified mode.
fn dht(json: &mut String, _smoke: bool) {
    let rows: Vec<String> = [64usize, 256, 1024, 4096]
        .into_iter()
        .map(|n| {
            let mut net = DexNetwork::bootstrap(DexConfig::new(21).simplified(), 64);
            grow_to(&mut net, n, 22);
            let mut rng = StdRng::seed_from_u64(23);
            let live = net.node_ids();
            let mut from = || live[rng.random_range(0..live.len())];
            let ins: Vec<u64> = (0..200u64)
                .map(|k| net.dht_insert(from(), k, k).messages)
                .collect();
            let mut lost = 0;
            let looks: Vec<u64> = (0..200u64)
                .map(|k| {
                    let (v, m) = net.dht_lookup(from(), k);
                    lost += usize::from(v != Some(k));
                    m.messages
                })
                .collect();
            let (si, sl) = (Summary::of(ins), Summary::of(looks));
            format!(
                "{{\"n\": {n}, \"log2_n\": {}, \"insert_messages\": {}, \"lookup_messages\": {}, \"lookup_p95_per_log2_n\": {:.2}, \"lost\": {lost}}}",
                log2(n),
                summary_json(&si),
                summary_json(&sl),
                sl.p95 as f64 / log2(n) as f64
            )
        })
        .collect();
    let _ = writeln!(json, "    \"ops\": 200,");
    let _ = writeln!(json, "    \"rows\": {}", list(&rows));
}

/// E2/E3: the sampled minimum spectral gap, overall and during staggered
/// type-2, against Lemma 9(b)'s floor, with the worst load and degree.
fn lambda2_floor(json: &mut String, smoke: bool) {
    let steps = if smoke { 100 } else { 500 };
    let adversaries: Vec<(&str, Box<dyn Adversary>)> = vec![
        ("random-churn", Box::new(RandomChurn::new(1, 0.5))),
        ("insert-only", Box::new(InsertOnly::new(2))),
        ("delete-heavy", Box::new(RandomChurn::new(3, 0.25))),
        ("high-load-hunter", Box::new(HighLoadHunter::new(4))),
        ("coordinator-hunter", Box::new(CoordinatorHunter::new(5))),
        ("cut-attacker", Box::new(CutAttacker::new(6))),
        ("oscillating", Box::new(OscillatingSize::new(7, 24, 300))),
    ];
    let rows: Vec<String> = adversaries
        .into_iter()
        .map(|(name, mut adv)| {
            let mut net = DexNetwork::bootstrap(DexConfig::new(5).staggered(), 48);
            let (mut min_gap, mut min_gap_type2) = (f64::INFINITY, f64::INFINITY);
            let (mut max_load, mut max_deg, mut type2_steps) = (0u64, 0usize, 0usize);
            for s in 0..steps {
                dex::adversary::driver::step(&mut net, adv.as_mut());
                max_load = max_load.max(net.max_total_load());
                max_deg = max_deg.max(net.max_degree());
                type2_steps += usize::from(net.type2_in_progress());
                if s % 5 == 0 {
                    let g = net.spectral_gap();
                    min_gap = min_gap.min(g);
                    if net.type2_in_progress() {
                        min_gap_type2 = min_gap_type2.min(g);
                    }
                }
            }
            invariants::assert_ok(&net);
            let family_gap = spectral::spectral_gap(&net.cycle.to_multigraph());
            let floor = spectral::staggered_gap_floor(family_gap);
            let during = if min_gap_type2.is_finite() {
                format!("{min_gap_type2:.4}")
            } else {
                "null".into()
            };
            format!(
                "{{\"adversary\": \"{name}\", \"n_end\": {}, \"min_gap\": {min_gap:.4}, \"min_gap_during_type2\": {during}, \"floor\": {floor:.4}, \"max_load\": {max_load}, \"max_degree\": {max_deg}, \"type2_steps\": {type2_steps}}}",
                net.n()
            )
        })
        .collect();
    let _ = writeln!(
        json,
        "    \"steps\": {steps},\n    \"gap_sampled_every\": 5,"
    );
    let _ = writeln!(json, "    \"rows\": {}", list(&rows));
}

/// Drive any overlay with the spectral cut attacker (it needs only the
/// graph); returns the minimum and final spectral gap.
fn adaptive_attack(o: &mut dyn Overlay, steps: usize, seed: u64) -> (f64, f64) {
    let mut adv = SpectralCutAttacker::new(seed);
    let mut ids = IdAllocator::new();
    let mut min_gap = f64::INFINITY;
    for _ in 0..steps {
        let load = |_u| 1u64;
        let owner = |_z| None;
        let view = View {
            graph: o.graph(),
            load: &load,
            owner: &owner,
            p: 0,
        };
        match adv.next(&view) {
            Action::Insert { attach, .. } => {
                o.insert(ids.fresh(), attach);
            }
            Action::Delete { victim } => {
                if o.n() > 8 {
                    o.delete(victim);
                }
            }
            _ => unreachable!("SpectralCutAttacker emits single events only"),
        }
        min_gap = min_gap.min(o.spectral_gap());
    }
    (min_gap, o.spectral_gap())
}

/// Fair-coin churn from uniform live nodes, the gap sampled every 10 steps.
fn random_churn(o: &mut dyn Overlay, steps: usize, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = IdAllocator::new();
    let mut min_gap = f64::INFINITY;
    for s in 0..steps {
        let live = o.node_ids();
        if rng.random_bool(0.5) || live.len() <= 8 {
            o.insert(ids.fresh(), live[rng.random_range(0..live.len())]);
        } else {
            o.delete(live[rng.random_range(0..live.len())]);
        }
        if s % 10 == 0 {
            min_gap = min_gap.min(o.spectral_gap());
        }
    }
    (min_gap, o.spectral_gap())
}

/// E8: min and final gap under random churn and under the adaptive cut
/// attack, DEX against the probabilistic and naive overlays.
fn degradation(json: &mut String, smoke: bool) {
    let steps = if smoke { 100 } else { 500 };
    let make = |name: &str| -> Box<dyn Overlay> {
        match name {
            "dex" => Box::new(DexNetwork::bootstrap(DexConfig::new(51).staggered(), 48)),
            "law-siu" => Box::new(LawSiu::bootstrap(52, 48, 3)),
            "skip-lite" => Box::new(SkipLite::bootstrap(53, 48)),
            _ => Box::new(NaivePatch::bootstrap(54, 48)),
        }
    };
    let rows: Vec<String> = ["dex", "law-siu", "skip-lite", "naive-patch"]
        .into_iter()
        .map(|name| {
            let (rmin, rend) = random_churn(make(name).as_mut(), steps, 55);
            let mut attacked = make(name);
            let (amin, aend) = adaptive_attack(attacked.as_mut(), steps, 56);
            format!(
                "{{\"overlay\": \"{name}\", \"random_min\": {rmin:.4}, \"random_end\": {rend:.4}, \"adaptive_min\": {amin:.4}, \"adaptive_end\": {aend:.4}, \"degree_after_attack\": {}}}",
                attacked.max_degree()
            )
        })
        .collect();
    let _ = writeln!(json, "    \"steps\": {steps},");
    let _ = writeln!(json, "    \"rows\": {}", list(&rows));
}

/// E7: walk hits against the length factor ℓ (n = 256, 400 steps), and
/// the steps between consecutive type-2 events of an 80 %-join run.
fn walks(json: &mut String, _smoke: bool) {
    let hits: Vec<String> = [1u64, 2, 3, 4, 6, 8]
        .into_iter()
        .map(|ell| {
            let cfg = DexConfig::new(41).simplified().with_walk_len_factor(ell);
            let mut net = DexNetwork::bootstrap(cfg, 256);
            Schedule::random(42, 400, 0.5).apply(&mut net);
            let s = net.walk_stats;
            format!(
                "{{\"ell\": {ell}, \"attempts\": {}, \"hits\": {}, \"hit_rate\": {:.4}, \"misses\": {}, \"type2\": {}}}",
                s.attempts,
                s.hits,
                s.hits as f64 / s.attempts.max(1) as f64,
                s.misses,
                s.type2
            )
        })
        .collect();
    let mut net = DexNetwork::bootstrap(DexConfig::new(43).simplified(), 16);
    let mut ids = IdAllocator::new();
    let mut last: Option<(usize, usize)> = None;
    let mut separations = Vec::new();
    for (step, &(insert, raw)) in Schedule::random(44, 6000, 0.8).ops.iter().enumerate() {
        let live = net.node_ids();
        let before = net.cycle.p();
        if insert || live.len() <= 8 {
            net.insert(ids.fresh(), live[raw % live.len()]);
        } else {
            net.delete(live[raw % live.len()]);
        }
        if net.cycle.p() != before {
            let (since, per_n) = match last {
                Some((prev, n)) => (
                    (step - prev).to_string(),
                    format!("{:.2}", (step - prev) as f64 / n as f64),
                ),
                None => ("null".into(), "null".into()),
            };
            separations.push(format!(
                "{{\"step\": {step}, \"p_from\": {before}, \"p_to\": {}, \"steps_since_last\": {since}, \"per_n_at_last\": {per_n}}}",
                net.cycle.p()
            ));
            last = Some((step, net.n()));
        }
    }
    let _ = writeln!(json, "    \"hit_rate\": {},", list(&hits));
    let _ = writeln!(json, "    \"type2_separations\": {}", list(&separations));
}

/// Ablations: θ (simplified, insert-heavy growth), the staggered window
/// (derived from θ), and executed permutation routing against the
/// analytical charge that type-2 bills above `EXACT_ROUTING_MAX_P`.
fn ablation(json: &mut String, _smoke: bool) {
    let theta: Vec<String> = [16u64, 64, 256, 545]
        .into_iter()
        .map(|theta_inv| {
            let cfg = DexConfig::new(61).simplified().with_theta_inv(theta_inv);
            let mut net = DexNetwork::bootstrap(cfg, 32);
            let (h, _) = Schedule::random(62, 1200, 0.9).apply(&mut net);
            invariants::assert_ok(&net);
            let msgs = Summary::of(h.iter().map(|m| m.messages));
            format!(
                "{{\"theta_inv\": {theta_inv}, \"n_end\": {}, \"type2_steps\": {}, \"messages_p95\": {}, \"messages_max\": {}, \"gap_end\": {:.4}}}",
                net.n(),
                h.iter().filter(|m| m.recovery.is_type2()).count(),
                msgs.p95,
                msgs.max,
                net.spectral_gap()
            )
        })
        .collect();
    let window: Vec<String> = [16u64, 64, 256]
        .into_iter()
        .map(|theta_inv| {
            let cfg = DexConfig::new(63).staggered().with_theta_inv(theta_inv);
            let mut net = DexNetwork::bootstrap(cfg, 32);
            let (h, _) = Schedule::random(64, 1500, 0.9).apply(&mut net);
            invariants::assert_ok(&net);
            let t2 = StepAggregate::of(h.iter().filter(|m| m.recovery.is_type2()));
            format!(
                "{{\"theta_inv\": {theta_inv}, \"type2_steps\": {}, \"type2_messages\": {}, \"type2_topology\": {}, \"gap_end\": {:.4}}}",
                t2.steps,
                summary_json(&t2.messages),
                summary_json(&t2.topology),
                net.spectral_gap()
            )
        })
        .collect();
    let routing: Vec<String> = [101u64, 499, 1009, 2003]
        .into_iter()
        .map(|p| {
            let cycle = PCycle::new(p);
            let (mut net, map) = fabric::deal_round_robin(8, &cycle, (p / 5).max(4));
            net.begin_step();
            let pairs = routing::inflation_inverse_pairs(p, dex::graph::primes::inflation_prime(p));
            let rounds = routing::route_pairs(&mut net, &map, &cycle, &pairs, 1);
            let (_, messages, _) = net.current_counters();
            net.end_step(StepKind::Insert, RecoveryKind::Type1);
            let logp = log2(p as usize);
            format!(
                "{{\"p\": {p}, \"rounds\": {rounds}, \"rounds_charged\": {}, \"messages\": {messages}, \"messages_charged\": {}, \"messages_over_charged\": {:.2}, \"rounds_per_log2_p_sq\": {:.2}}}",
                6 * logp,
                p * logp,
                messages as f64 / (p * logp) as f64,
                rounds as f64 / (logp * logp) as f64
            )
        })
        .collect();
    let _ = writeln!(json, "    \"theta\": {},", list(&theta));
    let _ = writeln!(json, "    \"window\": {},", list(&window));
    let _ = writeln!(json, "    \"routing\": {}", list(&routing));
}

type Section = fn(&mut String, bool);

const SECTIONS: [(&str, Section); 9] = [
    ("figure1", figure1),
    ("table1", table1),
    ("envelopes", envelopes),
    ("theorem1", theorem1),
    ("dht", dht),
    ("lambda2_floor", lambda2_floor),
    ("degradation", degradation),
    ("walks", walks),
    ("ablation", ablation),
];

fn main() {
    let mut smoke = false;
    let mut out = "BENCH_paper.json".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().expect("--out FILE"),
            other => panic!("unknown flag {other:?} (try --smoke / --out)"),
        }
    }
    let mut json = String::new();
    let _ = writeln!(json, "{{\n  \"config\": {{\"smoke\": {smoke}}},");
    let _ = writeln!(json, "  {},", exec_header_json());
    for (i, (name, section)) in SECTIONS.iter().enumerate() {
        let t = Instant::now();
        let _ = writeln!(json, "  \"{name}\": {{");
        section(&mut json, smoke);
        let comma = if i + 1 < SECTIONS.len() { "," } else { "" };
        let _ = writeln!(json, "  }}{comma}");
        println!("{name}: {:.1} s", t.elapsed().as_secs_f64());
    }
    let _ = writeln!(json, "}}");
    std::fs::write(&out, &json).expect("write paper bench JSON");
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_overlay_agnostic_and_deterministic() {
        let sched = Schedule::random(1, 60, 0.5);
        let mut a = DexNetwork::bootstrap(DexConfig::new(2).simplified(), 16);
        let mut b = DexNetwork::bootstrap(DexConfig::new(2).simplified(), 16);
        let (ma, _) = sched.apply(&mut a);
        let (mb, _) = sched.apply(&mut b);
        let ra: Vec<u64> = ma.iter().map(|m| m.rounds).collect();
        let rb: Vec<u64> = mb.iter().map(|m| m.rounds).collect();
        assert_eq!(ra, rb);
        // And it drives baselines too.
        let mut ls = LawSiu::bootstrap(3, 16, 2);
        let (ml, _) = sched.apply(&mut ls);
        assert_eq!(ml.len(), 60);
    }

    #[test]
    fn lineup_contains_all_six() {
        let l = lineup(5, 16);
        assert_eq!(l.len(), 6);
    }

    #[test]
    fn grow_to_reaches_target() {
        let mut net = DexNetwork::bootstrap(DexConfig::new(6).simplified(), 8);
        grow_to(&mut net, 64, 7);
        assert!(net.n() >= 64);
    }

    /// Fig. 1's facts hold: Lemma 1's gap order, deg = 3·load, max load 4.
    #[test]
    fn figure1_section_reports_the_papers_facts() {
        let mut json = String::new();
        figure1(&mut json, true);
        assert!(json.contains("\"lemma1_gap_not_below_z\": true"));
        assert!(json.contains("\"degree_is_3_load\": true"));
        assert_eq!(json.matches("\"load\": 4").count(), 2, "{json}");
    }

    /// The local live list draws what a fresh `node_ids()` per step would.
    #[test]
    fn grow_to_draws_as_against_node_ids() {
        let mut a = DexNetwork::bootstrap(DexConfig::new(6).simplified(), 8);
        grow_to(&mut a, 200, 7);
        let mut b = DexNetwork::bootstrap(DexConfig::new(6).simplified(), 8);
        let mut rng = StdRng::seed_from_u64(7);
        while b.n() < 200 {
            let live = b.node_ids();
            b.insert(b.fresh_node_id(), live[rng.random_range(0..live.len())]);
        }
        let edges = |n: &DexNetwork| n.net.graph().edges();
        assert_eq!(edges(&a), edges(&b));
    }
}
