//! From a finished run to named numbers: the end-to-end metrics of the
//! untraced run and the per-layer ledger of the traced one. Names, units
//! and bounds are read from `BENCHMARK.json`, the one place they are set.

use crate::json::Json;
use crate::probes::UnitCosts;
use crate::trace::{Name, Tracer};
use crate::workloads::{ClosedRun, Plan, ServeRun, SERVE_RATES};
use dex::sim::Summary;
use std::collections::BTreeMap;

/// `BENCHMARK.json` as committed beside this package.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Reconciliation is flagged outside this band (the ROADMAP's 25 %).
pub const RECON_BAND: (f64, f64) = (0.75, 1.33);

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// `None` for a per-layer metric.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: u64,
}

impl Spec {
    pub fn load() -> Spec {
        let root = Json::parse(SPEC).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<MetricSpec> {
            let items = root.get(key).and_then(Json::as_arr).expect("metric list");
            items
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).expect("metric field");
                    MetricSpec {
                        name: field("name").to_string(),
                        unit: field("unit").to_string(),
                        higher_is_better: field("better") == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    }
                })
                .collect()
        };
        let workloads = root
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        Spec {
            workloads: workloads
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect(),
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds") as u64,
        }
    }
}

/// Computed values by metric name. A per-layer metric that does not apply
/// to the workload of the run is left out and reads 0 in the result.
pub type Values = BTreeMap<String, f64>;

fn put(v: &mut Values, name: &str, x: f64) {
    let fresh = v.insert(name.to_string(), x).is_none();
    debug_assert!(fresh, "{name} computed twice");
}

/// Σ over segments of the median over replays of that segment's time.
pub fn typical_segments_ns(replays: &[&[u64]]) -> f64 {
    let segments = replays.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..segments)
        .map(|s| median(&replays.iter().map(|r| r[s]).collect::<Vec<u64>>()))
        .sum()
}

pub fn median(xs: &[u64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2] as f64,
        n => (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0,
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The cost a step log shows its caller: rounds and messages per step.
fn step_metrics(v: &mut Values, rounds: Summary, messages: Summary) {
    put(v, "rounds_mean", rounds.mean);
    put(v, "rounds_p99", rounds.p99 as f64);
    put(v, "messages_mean", messages.mean);
}

/// The tail statistics that differ too much from seed to seed to carry a
/// bound (see README): reported with the layers.
fn step_tail_metrics(v: &mut Values, rounds: Summary, messages: Summary, topology: Summary) {
    put(v, "core.rounds_max", rounds.max as f64);
    put(v, "core.messages_p99", messages.p99 as f64);
    put(v, "core.topology_p99", topology.p99 as f64);
}

pub fn end_to_end_closed(run: &ClosedRun) -> Values {
    let mut v = Values::new();
    let sim = &run.sim;
    let segs: Vec<&[u64]> = run.times.iter().map(|t| t.seg_ns.as_slice()).collect();
    let setups: Vec<u64> = run
        .times
        .iter()
        .flat_map(|t| t.setup_ns.iter().copied())
        .collect();
    put(&mut v, "setup_s", median(&setups) / 1e9);
    put(
        &mut v,
        "ops_per_s",
        ratio(sim.attempted as f64 * 1e9, typical_segments_ns(&segs)),
    );
    put(&mut v, "peak_rss_mb", peak_rss_mb());
    let rounds = Summary::of(sim.log.rounds.iter().copied());
    step_metrics(
        &mut v,
        rounds,
        Summary::of(sim.log.messages.iter().copied()),
    );
    put(&mut v, "latency_p50_rounds", rounds.p50 as f64);
    put(&mut v, "latency_p99_rounds", rounds.p99 as f64);
    let total_rounds: u64 = sim.log.rounds.iter().sum();
    put(
        &mut v,
        "goodput_ops_per_round",
        ratio((sim.attempted - sim.failed) as f64, total_rounds as f64),
    );
    put(
        &mut v,
        "ok_share",
        1.0 - ratio(sim.failed as f64, sim.attempted as f64),
    );
    v
}

/// Operations `serve` offered and the ones that failed (shed, or answered
/// against the shadow map).
pub fn serve_attempted_failed(run: &ServeRun, plan: &Plan) -> (u64, u64) {
    let failed = run
        .reports
        .iter()
        .map(|r| r.shed + r.shards.iter().map(|s| s.mismatches).sum::<u64>())
        .sum();
    (plan.ops(), failed)
}

fn rate_index(label: &str) -> usize {
    SERVE_RATES
        .iter()
        .position(|(l, _)| *l == label)
        .expect("known rate")
}

pub fn end_to_end_serve(run: &ServeRun, plan: &Plan) -> Values {
    let mut v = Values::new();
    put(&mut v, "setup_s", median(&run.setup_ns) / 1e9);
    let walls: f64 = run.wall_ns.iter().map(|w| median(w)).sum();
    let served: u64 = run.reports.iter().map(|r| r.served).sum();
    put(&mut v, "ops_per_s", ratio(served as f64 * 1e9, walls));
    put(&mut v, "peak_rss_mb", peak_rss_mb());
    // Cost per service batch and latency at r030, goodput at r080.
    let light = &run.reports[rate_index("r030")];
    step_metrics(&mut v, light.steps.rounds, light.steps.messages);
    put(&mut v, "latency_p50_rounds", light.latency.p50 as f64);
    put(&mut v, "latency_p99_rounds", light.latency.p99 as f64);
    put(
        &mut v,
        "goodput_ops_per_round",
        run.reports[rate_index("r080")].ops_per_round,
    );
    let (attempted, failed) = serve_attempted_failed(run, plan);
    put(
        &mut v,
        "ok_share",
        1.0 - ratio(failed as f64, attempted as f64),
    );
    v
}

/// What the traced run counted, in the units the reconciliation needs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub dht_calls: f64,
    pub walks: f64,
    pub flood_nodes: f64,
    pub vertices_moved: f64,
    pub edge_edits: f64,
    /// Host time the calls took, by their spans.
    pub measured_ns: f64,
    /// Host time outside the layers' unit costs that the spans include
    /// (the shards' bootstrap inside `run_serve`).
    pub fixed_ns: f64,
    /// Workers the calls were spread over.
    pub parallel: f64,
}

/// Σ(unit cost × counted operations) / Σ span time.
pub fn reconcile(work: &Work, costs: &UnitCosts) -> f64 {
    let predicted = work.dht_calls
        * (costs.route_bfs_ns + costs.route_path_len * costs.phi_owner_of_ns)
        + work.walks * costs.walk_search_ns
        + work.flood_nodes * costs.flood_ns_per_node
        + work.vertices_moved * costs.phi_transfer_ns
        + work.edge_edits * costs.edge_edit_ns
        + work.fixed_ns;
    ratio(predicted / work.parallel.max(1.0), work.measured_ns)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Per-call span metrics; 0 where the workload makes no such call.
fn span_metrics(v: &mut Values, tr: &Tracer) {
    for (key, name) in [
        ("core.insert_us", Name::Insert),
        ("core.delete_us", Name::Delete),
        ("core.get_us", Name::Get),
        ("core.put_us", Name::Put),
    ] {
        let s = Summary::of(tr.durations_ns(name));
        put(v, &format!("{key}_p50"), us(s.p50));
        put(v, &format!("{key}_p99"), us(s.p99));
    }
    let max_ms = |a: Name, b: Name| {
        let longest = tr
            .durations_ns(a)
            .into_iter()
            .chain(tr.durations_ns(b))
            .max();
        longest.unwrap_or(0) as f64 / 1e6
    };
    put(
        v,
        "core.type2_inflate_ms_max",
        max_ms(Name::InsertType2, Name::InsertBatchType2),
    );
    put(
        v,
        "core.type2_deflate_ms_max",
        max_ms(Name::DeleteType2, Name::DeleteBatchType2),
    );
    let calls_ns = tr.total_ns(is_call);
    put(
        v,
        "core.type2_time_share",
        ratio(tr.total_ns(Name::is_type2) as f64, calls_ns as f64),
    );
    put(v, "trace.coverage", tr.coverage());
}

/// Spans that wrap a call of the workload's stream.
fn is_call(name: Name) -> bool {
    !matches!(
        name,
        Name::Segment
            | Name::Bootstrap
            | Name::BuildSchedule
            | Name::InvariantsCheck
            | Name::Lambda2
            | Name::Probe
    )
}

fn probe_metrics(v: &mut Values, costs: &UnitCosts, threads: usize) {
    put(v, "core.phi_owner_of_ns", costs.phi_owner_of_ns);
    put(v, "core.phi_transfer_ns", costs.phi_transfer_ns);
    put(v, "graph.route_bfs_ns", costs.route_bfs_ns);
    put(v, "graph.route_path_len", costs.route_path_len);
    put(v, "graph.walk_hop_ns", costs.walk_hop_ns);
    put(v, "sim.flood_ns_per_node", costs.flood_ns_per_node);
    put(v, "sim.walk_search_ns", costs.walk_search_ns);
    put(v, "sim.walk_search_hops", costs.walk_search_hops);
    put(v, "sim.edge_edit_ns", costs.edge_edit_ns);
    put(v, "exec.handoff_ns", costs.handoff_ns);
    put(v, "exec.threads", threads as f64);
}

fn recon_metrics(v: &mut Values, work: &Work, costs: &UnitCosts) {
    let r = reconcile(work, costs);
    put(v, "recon.predicted_over_measured", r);
    let flagged = !(RECON_BAND.0..=RECON_BAND.1).contains(&r);
    put(v, "recon.flagged", flagged as u64 as f64);
}

pub struct LayerInputs<'a> {
    pub tr: &'a Tracer,
    pub costs: &'a UnitCosts,
    pub threads: usize,
    /// The script alone, against a sink.
    pub gen_ns_per_call: f64,
}

pub fn per_layer_closed(run: &ClosedRun, plan: &Plan, inp: &LayerInputs) -> Values {
    let mut v = Values::new();
    let (tr, sim) = (inp.tr, &run.sim);
    let net = run.net.as_ref().expect("the traced replay's network");
    span_metrics(&mut v, tr);
    probe_metrics(&mut v, inp.costs, inp.threads);

    let c = sim.counts;
    let batch_ops = |calls: u64| (calls * crate::script::BATCH as u64) as f64;
    let batch_ns = |a: Name, b: Name| tr.total_ns(|n| n == a || n == b) as f64;
    put(
        &mut v,
        "core.insert_batch_us_per_op",
        ratio(
            batch_ns(Name::InsertBatch, Name::InsertBatchType2) / 1e3,
            batch_ops(c.insert_batches),
        ),
    );
    put(
        &mut v,
        "core.delete_batch_us_per_op",
        ratio(
            batch_ns(Name::DeleteBatch, Name::DeleteBatchType2) / 1e3,
            batch_ops(c.delete_batches),
        ),
    );
    let b = &net.batch_stats;
    put(&mut v, "core.batch_waves", b.waves as f64);
    put(&mut v, "core.batch_replans", b.replans as f64);
    put(&mut v, "core.batch_max_wave", b.max_wave as f64);
    put(
        &mut v,
        "core.batch_plan_share",
        ratio(
            b.plan_ns as f64,
            (b.plan_ns + b.partition_ns + b.commit_ns + b.serial_ns) as f64,
        ),
    );
    put(&mut v, "core.type2_steps", c.type2_steps as f64);
    put(&mut v, "core.walk_attempts", sim.walk_attempts as f64);
    put(&mut v, "core.walk_misses", sim.walk_misses as f64);
    put(
        &mut v,
        "core.walk_hit_ratio",
        ratio(
            (sim.walk_attempts - sim.walk_misses) as f64,
            sim.walk_attempts as f64,
        ),
    );
    let traced = run.times.last().expect("the traced replay");
    put(
        &mut v,
        "core.bootstrap_ns_per_node",
        ratio(
            *traced.setup_ns.last().expect("a set-up") as f64,
            plan.n0 as f64,
        ),
    );
    put(
        &mut v,
        "core.invariants_check_s",
        run.invariants_ns as f64 / 1e9,
    );
    let f = net.fault_stats();
    put(&mut v, "core.fault_sent", f.sent as f64);
    put(&mut v, "core.fault_timeouts", f.timeouts as f64);
    put(&mut v, "core.fault_reinitiations", f.reinitiations as f64);
    put(&mut v, "core.fault_routes_lost", f.routes_lost as f64);
    put(&mut v, "core.fault_dht_abandoned", f.dht_abandoned as f64);
    put(
        &mut v,
        "core.fault_delivery_ratio",
        if f.sent == 0 { 0.0 } else { f.delivery_rate() },
    );
    step_tail_metrics(
        &mut v,
        Summary::of(sim.log.rounds.iter().copied()),
        Summary::of(sim.log.messages.iter().copied()),
        Summary::of(sim.log.topology.iter().copied()),
    );
    put(&mut v, "core.max_load", sim.max_load as f64);
    put(&mut v, "core.max_degree", sim.max_degree as f64);
    let gap_min = sim
        .gaps
        .iter()
        .map(|&(_, g)| g)
        .fold(f64::INFINITY, f64::min);
    put(
        &mut v,
        "graph.gap_min",
        if gap_min.is_finite() { gap_min } else { 0.0 },
    );
    put(
        &mut v,
        "graph.lambda2_s",
        ratio(traced.lambda2_ns as f64 / 1e9, sim.gaps.len() as f64),
    );
    let calls_ns = tr.total_ns(is_call) as f64;
    put(
        &mut v,
        "sim.msim_ns_per_send",
        ratio(calls_ns, f.sent as f64),
    );
    put(&mut v, "driver.gen_ns_per_op", inp.gen_ns_per_call);
    put(&mut v, "driver.client_retries", c.client_retries as f64);
    put(
        &mut v,
        "driver.fail_share",
        ratio(sim.failed as f64, sim.attempted as f64),
    );
    let work = Work {
        dht_calls: (c.gets + c.puts + c.client_retries) as f64,
        walks: sim.walk_attempts as f64,
        flood_nodes: c.flood_nodes as f64,
        vertices_moved: sim.vertices_moved,
        edge_edits: sim.log.topology.iter().sum::<u64>() as f64,
        measured_ns: calls_ns,
        fixed_ns: 0.0,
        parallel: 1.0,
    };
    recon_metrics(&mut v, &work, inp.costs);
    let untraced = &run.times[run.times.len() - 2];
    put(
        &mut v,
        "trace.overhead_share",
        ratio(
            traced.seg_ns.iter().sum::<u64>() as f64,
            untraced.seg_ns.iter().sum::<u64>() as f64,
        ) - 1.0,
    );
    v
}

pub struct ServeRef {
    /// Two bootstraps of a shard-sized network, one after the other.
    pub bootstrap_ns: u64,
    /// Φ vertices per node on such a network.
    pub load: f64,
}

pub fn per_layer_serve(run: &ServeRun, plan: &Plan, sref: &ServeRef, inp: &LayerInputs) -> Values {
    let mut v = Values::new();
    let tr = inp.tr;
    span_metrics(&mut v, tr);
    probe_metrics(&mut v, inp.costs, inp.threads);
    let light = &run.reports[rate_index("r030")];
    put(&mut v, "core.type2_steps", light.steps.type2_steps as f64);
    step_tail_metrics(
        &mut v,
        light.steps.rounds,
        light.steps.messages,
        light.steps.topology,
    );
    put(
        &mut v,
        "core.bootstrap_ns_per_node",
        ratio(sref.bootstrap_ns as f64, 2.0 * plan.n0 as f64),
    );
    put(
        &mut v,
        "workload.serve_bootstrap_ref_s",
        sref.bootstrap_ns as f64 / 1e9,
    );
    let mut work = Work {
        fixed_ns: (SERVE_RATES.len() as u64 * sref.bootstrap_ns) as f64,
        parallel: inp.threads.min(2) as f64,
        measured_ns: tr.total_ns(|n| n == Name::RunServe) as f64,
        ..Work::default()
    };
    for (i, (label, _)) in SERVE_RATES.iter().enumerate() {
        let r = &run.reports[i];
        let traced_wall = *run.wall_ns[i].last().expect("the traced replay");
        put(
            &mut v,
            &format!("workload.serve_run_s.{label}"),
            traced_wall as f64 / 1e9,
        );
        let peak = |f: fn(&dex::workload::serve::ShardReport) -> usize| {
            r.shards.iter().map(f).max().unwrap_or(0) as f64
        };
        put(
            &mut v,
            &format!("workload.queue_peak.{label}"),
            peak(|s| s.queue_peak),
        );
        put(
            &mut v,
            &format!("workload.batch_peak.{label}"),
            peak(|s| s.batch_peak),
        );
        put(&mut v, &format!("workload.shed.{label}"), r.shed as f64);
        put(
            &mut v,
            &format!("workload.latency_p99_rounds.{label}"),
            r.latency.p99 as f64,
        );
        for s in &r.shards {
            work.dht_calls += (s.gets + s.puts) as f64;
            // One search per join; a leave orphans `load` vertices and
            // searches once for each.
            work.walks += s.joins as f64 + s.leaves as f64 * sref.load;
            work.vertices_moved += s.joins as f64 + s.leaves as f64 * sref.load;
            work.edge_edits += s.log.topology.iter().sum::<u64>() as f64;
        }
    }
    put(&mut v, "driver.gen_ns_per_op", inp.gen_ns_per_call);
    let (attempted, failed) = serve_attempted_failed(run, plan);
    put(
        &mut v,
        "driver.fail_share",
        ratio(failed as f64, attempted as f64),
    );
    recon_metrics(&mut v, &work, inp.costs);
    let sum = |k: usize| run.wall_ns.iter().map(|w| w[k]).sum::<u64>() as f64;
    let last = run.wall_ns[0].len() - 1;
    put(
        &mut v,
        "trace.overhead_share",
        ratio(sum(last), sum(last - 1)) - 1.0,
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_hand_cases() {
        // Nearest rank: the smallest value with at least q·count values ≤ it.
        let s = Summary::of(1..=100u64);
        assert_eq!((s.p50, s.p99, s.max), (50, 99, 100));
        let s = Summary::of([7u64]);
        assert_eq!((s.p50, s.p99, s.max), (7, 7, 7));
        let s = Summary::of([10u64, 20, 30, 40]);
        assert_eq!((s.p50, s.p99), (20, 40));
        // 200 samples: p99 is the 198th, two samples lie beyond it.
        let s = Summary::of(1..=200u64);
        assert_eq!(s.p99, 198);
        assert_eq!(Summary::of([5u64, 1, 3]).p50, 3, "input need not be sorted");
    }

    #[test]
    fn typical_segments_takes_each_segments_median_replay() {
        // One stalled replay (b, segment 2) and one lucky one (a, segment
        // 1) both drop out.
        let a = [10, 5, 30];
        let b = [12, 20, 90];
        let c = [11, 25, 31];
        assert_eq!(typical_segments_ns(&[&a, &b, &c]), 11.0 + 20.0 + 31.0);
        assert_eq!(typical_segments_ns(&[&a]), 45.0);
        assert_eq!(typical_segments_ns(&[&a, &b]), 11.0 + 12.5 + 60.0);
        assert_eq!(typical_segments_ns(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3, 1, 2]), 2.0);
        assert_eq!(median(&[4, 1, 3, 2]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reconciliation_is_predicted_over_measured() {
        let costs = UnitCosts {
            route_bfs_ns: 900.0,
            route_path_len: 10.0,
            phi_owner_of_ns: 10.0,
            walk_search_ns: 50.0,
            ..UnitCosts::default()
        };
        let work = Work {
            dht_calls: 100.0,
            walks: 200.0,
            measured_ns: 220_000.0,
            parallel: 1.0,
            ..Work::default()
        };
        // 100 × (900 + 10 × 10) + 200 × 50 = 110 000.
        assert!((reconcile(&work, &costs) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spec_names_are_well_formed_and_unique() {
        let spec = Spec::load();
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let metrics = spec.end_to_end.iter().chain(&spec.per_layer);
        for name in spec.workloads.iter().chain(metrics.map(|m| &m.name)) {
            assert!(ok(name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        let listed: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(listed, ours);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
