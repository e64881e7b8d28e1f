//! The sharded DHT serving benchmark behind `bench_serve` (and its CI
//! smoke + determinism checks): the open-loop serving harness
//! (`dex::workload::serve`) driven through a calibrated offered-load
//! sweep. Emits `BENCH_serve.json`.
//!
//! The run has two stages:
//!
//! 1. **Calibration** — a closed-loop saturation probe ([`Arrivals::Burst`]
//!    into an unbounded queue): every op is available from round 0, so the
//!    shards batch maximally and the measured `served/makespan` is the
//!    harness's service **capacity** in ops per virtual round. Pure
//!    virtual-time arithmetic — no wall-clock.
//! 2. **Sweep** — open-loop Poisson arrivals at fixed fractions of that
//!    capacity (0.25× … 1.25×) through the bounded ingestion queue. Below
//!    the knee, latency is flat and nothing sheds; at and above capacity,
//!    queueing delay climbs and the bounded queue starts shedding — the
//!    saturation knee and the backpressure behavior, in one table.
//!
//! Reported per sweep point: sustained throughput in ops per virtual
//! round, utilization against calibrated capacity, shed count, the most
//! DHT routes in flight on one shard at once, and latency percentiles
//! (p50/p95/p99/p999) in virtual rounds — pooled, and split per class
//! (DHT, churn) into queueing and service — plus the pooled per-batch
//! heal/route cost summaries and a bit-identity digest.
//!
//! Determinism contract: everything except the clearly-labelled timing
//! fields is a pure function of `(smoke, seed, shards, queue_cap)` —
//! independent of the thread budget. In `--smoke` mode the timing fields
//! are omitted and the JSON is **byte-identical** across thread counts
//! (CI runs `DEX_EXEC_THREADS=1/3/8` and diffs the files).

use crate::json::Json;
use dex::workload::serve::{ServeReport, ShardReport};
use dex::workload::{Arrivals, ServeOptions};
use std::time::Instant;

/// Offered-load fractions of calibrated capacity the sweep visits.
const SWEEP_FRACS: &[f64] = &[0.25, 0.5, 0.75, 1.0, 1.25];

/// Options for one benchmark run.
pub struct ServeBenchOptions {
    /// Toy scale, no timing fields, byte-identical across thread counts.
    pub smoke: bool,
    /// Executor fan-out width of the shard map (results are bit-identical
    /// for any value); defaults to `dex::exec::thread_budget()`.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Shard count (`--shards`).
    pub shards: usize,
    /// Ingestion-queue bound (`--queue-cap`).
    pub queue_cap: usize,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        ServeBenchOptions {
            smoke: false,
            threads: dex::exec::thread_budget(),
            seed: 0x5e7e,
            shards: 4,
            queue_cap: 4096,
        }
    }
}

/// Sanity every run must satisfy regardless of scale or load.
fn check_report(r: &ServeReport, offered_ops: usize, what: &str) {
    assert_eq!(
        r.served + r.shed,
        offered_ops as u64,
        "{what}: accounting must close"
    );
    assert_eq!(
        r.latency.count as u64, r.served,
        "{what}: one latency sample per served op"
    );
    assert_eq!(
        (r.dht_queueing.count + r.churn_queueing.count) as u64,
        r.served,
        "{what}: every served op is DHT or churn"
    );
    for sr in &r.shards {
        assert_eq!(
            sr.mismatches, 0,
            "{what}: shard {} DHT oracle mismatch",
            sr.shard
        );
    }
}

/// Most DHT ops in flight at once on any one shard.
fn inflight_peak(r: &ServeReport) -> usize {
    r.shards.iter().map(|s| s.inflight_peak).max().unwrap_or(0)
}

/// Run the benchmark; returns the `BENCH_serve.json` contents.
pub fn run_serve_bench(opts: &ServeBenchOptions) -> String {
    let (shards, queue_cap) = (opts.shards, opts.queue_cap);
    // Full scale: 4 × 250k = n≈1M aggregate. Smoke: CI-sized.
    let (n0, cal_ops, point_ops, batch_max) = if opts.smoke {
        (48, 192, 320, 16)
    } else {
        (250_000, 4_096, 16_384, 64)
    };
    let base = ServeOptions {
        shards,
        n0,
        ops: point_ops,
        offered: 1.0,
        arrivals: Arrivals::Poisson,
        read_pct: 60,
        churn_pct: 20,
        keyspace: 1 << 24,
        queue_cap,
        batch_max,
        seed: opts.seed,
        threads: opts.threads,
        ..ServeOptions::default()
    };

    // Stage 1: closed-loop capacity calibration (virtual time only).
    let cal = dex::workload::run_serve(&ServeOptions {
        arrivals: Arrivals::Burst,
        queue_cap: usize::MAX,
        ops: cal_ops,
        ..base
    });
    check_report(&cal, cal_ops, "calibration");
    let capacity = if cal.makespan == 0 {
        1.0
    } else {
        cal.served as f64 / cal.makespan as f64
    };

    // Stage 2: offered-load sweep.
    struct Point {
        frac: f64,
        report: ServeReport,
        wall_s: f64,
    }
    let points: Vec<Point> = SWEEP_FRACS
        .iter()
        .map(|&frac| {
            let t0 = Instant::now();
            let report = dex::workload::run_serve(&ServeOptions {
                offered: capacity * frac,
                ..base
            });
            let wall_s = t0.elapsed().as_secs_f64();
            check_report(&report, point_ops, "sweep");
            Point {
                frac,
                report,
                wall_s,
            }
        })
        .collect();

    // Human-readable table.
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let r = &p.report;
            vec![
                format!("{:.2}x", p.frac),
                format!("{:.3}", capacity * p.frac),
                format!("{:.3}", r.ops_per_round),
                format!("{}", r.shed),
                format!("{}", r.latency.p50),
                format!("{}", r.latency.p99),
                format!("{}", r.latency.p999),
                format!("{}", inflight_peak(r)),
                format!("{}", r.dht_queueing.p99),
                format!("{}", r.dht_service.p99),
                format!("{}", r.churn_queueing.p99),
                format!("{}", r.churn_service.p99),
                if opts.smoke {
                    "-".into()
                } else {
                    format!("{:.0}", r.served as f64 / p.wall_s.max(1e-9))
                },
            ]
        })
        .collect();
    crate::print_table(
        &format!(
            "serve: {} shards x n0={} (capacity {:.3} ops/round)",
            shards, n0, capacity
        ),
        &[
            "load",
            "offered",
            "ops/rnd",
            "shed",
            "p50",
            "p99",
            "p999",
            "inflight",
            "dht q99",
            "dht s99",
            "churn q99",
            "churn s99",
            "ops/s",
        ],
        &rows,
    );

    let sweep = points.iter().map(|p| {
        let r = &p.report;
        let total = |f: fn(&ShardReport) -> u64| r.shards.iter().map(f).sum::<u64>();
        let peak = |f: fn(&ShardReport) -> usize| r.shards.iter().map(f).max().unwrap_or(0);
        let mut row = Json::obj([
            ("offered_frac", Json::Fixed(p.frac, 2)),
            ("offered_ops_per_round", Json::Fixed(capacity * p.frac, 6)),
            ("served", r.served.into()),
            ("shed", r.shed.into()),
            ("leaves_skipped", total(|s| s.leaves_skipped).into()),
            ("final_n", r.final_n.into()),
            ("makespan_rounds", r.makespan.into()),
            ("ops_per_round", Json::Fixed(r.ops_per_round, 6)),
            ("utilization", Json::Fixed(r.ops_per_round / capacity, 4)),
            ("batches", total(|s| s.batches).into()),
            ("batch_peak", peak(|s| s.batch_peak).into()),
            ("queue_peak", peak(|s| s.queue_peak).into()),
            ("inflight_peak", inflight_peak(r).into()),
            ("latency_rounds", (&r.latency).into()),
            ("dht_queueing_rounds", (&r.dht_queueing).into()),
            ("dht_service_rounds", (&r.dht_service).into()),
            ("churn_queueing_rounds", (&r.churn_queueing).into()),
            ("churn_service_rounds", (&r.churn_service).into()),
            ("heal_rounds", (&r.steps.rounds).into()),
            ("heal_messages", (&r.steps.messages).into()),
            ("digest", Json::hex(r.digest)),
        ]);
        if !opts.smoke {
            // Wall-clock throughput: the only machine-dependent fields,
            // full mode only (smoke output must byte-diff clean).
            row.push("wall_s", Json::Fixed(p.wall_s, 3));
            let ops_per_sec = r.served as f64 / p.wall_s.max(1e-9);
            row.push("ops_per_sec", Json::Fixed(ops_per_sec, 0));
        }
        row
    });
    Json::obj([
        (
            "config",
            Json::obj([
                ("smoke", opts.smoke.into()),
                ("seed", opts.seed.into()),
                ("shards", shards.into()),
                ("n0_per_shard", n0.into()),
                ("aggregate_n0", (shards as u64 * n0).into()),
                ("queue_cap", queue_cap.into()),
                ("batch_max", batch_max.into()),
                ("read_pct", base.read_pct.into()),
                ("churn_pct", base.churn_pct.into()),
            ]),
        ),
        ("exec", crate::exec_header()),
        (
            "calibration",
            Json::obj([
                ("ops", cal_ops.into()),
                ("capacity_ops_per_round", Json::Fixed(capacity, 6)),
                ("makespan_rounds", cal.makespan.into()),
                (
                    "batches",
                    cal.shards.iter().map(|s| s.batches).sum::<u64>().into(),
                ),
                ("digest", Json::hex(cal.digest)),
            ]),
        ),
        ("sweep", Json::arr(sweep)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_json_is_thread_invariant_and_shows_the_knee() {
        let a = run_serve_bench(&ServeBenchOptions {
            smoke: true,
            threads: 1,
            ..ServeBenchOptions::default()
        });
        for threads in [3, 8] {
            let b = run_serve_bench(&ServeBenchOptions {
                smoke: true,
                threads,
                ..ServeBenchOptions::default()
            });
            assert_eq!(a, b, "smoke JSON diverged at threads={threads}");
        }
        assert!(a.contains("\"sweep\""));
        assert!(a.contains("\"p999\""));
        assert!(!a.contains("wall_s"), "smoke must omit wall-clock fields");
    }
}
