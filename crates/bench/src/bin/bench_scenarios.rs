//! Scenario-engine benchmark: drives the `dex-workload` scenario families
//! against DEX at n ≈ 20k and emits `BENCH_scenarios.json` with per-step
//! percentile cost summaries and λ₂ trajectories.
//!
//! Determinism contract: everything in the JSON except the executor
//! header is **byte-identical** for a given `--seed` regardless of
//! `--exec-threads` (trials fan out over the order-preserving `par_map`;
//! nothing in the output depends on timing). The CI smoke job relies on
//! `--smoke` running every family at toy scale in seconds.
//!
//! ```sh
//! cargo run --release -p dex-bench --bin bench_scenarios            # full, n≈20k
//! cargo run --release -p dex-bench --bin bench_scenarios -- --smoke # CI-sized
//! cargo run --release -p dex-bench --bin bench_scenarios -- --exec-threads 1
//! ```

use dex::prelude::*;
use dex_bench::summary_json;
use std::fmt::Write as _;

struct Args {
    smoke: bool,
    threads: usize,
    seed: u64,
    trials: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        threads: dex::exec::thread_budget(),
        seed: 0xd5c0_cafe,
        trials: 0, // 0 = scale default
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--exec-threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--exec-threads N");
            }
            "--seed" => {
                args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--trials" => {
                args.trials = it.next().and_then(|v| v.parse().ok()).expect("--trials R");
            }
            other => {
                panic!("unknown flag {other:?} (try --smoke / --exec-threads / --seed / --trials)")
            }
        }
    }
    args
}

/// The benchmark's scenario lineup. `full` scales every family to the
/// n ≈ 20k regime; otherwise sizes are CI-smoke toys. Shapes mirror the
/// evaluation workloads of the self-healing literature: flash crowds,
/// correlated/targeted failures, cut attacks with recovery, steady DHT
/// traffic over churn, and monotone growth/shrink phases.
fn lineup(full: bool) -> Vec<Scenario> {
    // (waves/bursts/steps, batch size, dht ops, churn steps)
    let s = |a: usize, b: usize| if full { a } else { b };
    vec![
        Scenario::new("flash-crowd").phase(Phase::FlashCrowd {
            waves: s(8, 2),
            wave_size: s(64, 6),
        }),
        Scenario::new("correlated-neighborhood-failures").phase(Phase::CorrelatedDelete {
            bursts: s(6, 2),
            burst_size: s(32, 4),
            targeting: Targeting::Neighborhood,
            replenish: true,
        }),
        Scenario::new("high-load-targeted-failures").phase(Phase::CorrelatedDelete {
            bursts: s(6, 2),
            burst_size: s(24, 4),
            targeting: Targeting::HighLoad,
            replenish: true,
        }),
        Scenario::new("partition-then-heal")
            .phase(Phase::PartitionHeal {
                bursts: s(4, 1),
                burst_size: s(24, 3),
                regrow: s(96, 6),
            })
            .phase(Phase::Churn {
                steps: s(64, 6),
                p_insert: 0.5,
            }),
        Scenario::new("dht-steady-traffic")
            .phase(Phase::DhtMix {
                ops: s(400, 24),
                read_pct: 70,
                keyspace: 1 << 20,
            })
            .phase(Phase::Churn {
                steps: s(48, 6),
                p_insert: 0.5,
            })
            .phase(Phase::DhtMix {
                ops: s(200, 12),
                read_pct: 90,
                keyspace: 1 << 20,
            }),
        Scenario::new("growth-only").phase(Phase::Growth { steps: s(256, 12) }),
        Scenario::new("shrink-only").phase(Phase::Shrink {
            steps: s(256, 12),
            floor: 8,
        }),
    ]
}

fn main() {
    let args = parse_args();
    let n0: u64 = if args.smoke { 48 } else { 20_000 };
    let trials = if args.trials > 0 {
        args.trials
    } else if args.smoke {
        2
    } else {
        4
    };
    let opts = RunOptions {
        n0,
        trials,
        seed: args.seed,
        lambda_every: if args.smoke { 16 } else { 64 },
        exec: dex::exec::ExecConfig::with_threads(args.threads),
        check_invariants: args.smoke, // free correctness coverage at toy scale
        // Aggregates come from the compact per-step logs; full traces and
        // StepMetrics records are dead weight at benchmark scale.
        keep_actions: false,
        keep_step_metrics: false,
    };
    let lineup = lineup(!args.smoke);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"config\": {{\"n0\": {n0}, \"trials\": {trials}, \"seed\": {}, \"lambda_every\": {}, \"smoke\": {}}},",
        args.seed, opts.lambda_every, args.smoke
    );
    let _ = writeln!(json, "  {},", dex_bench::exec_header_json());
    let _ = writeln!(json, "  \"scenarios\": [");

    for (i, sc) in lineup.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let reports = run_trials(sc, &opts);
        let wall = t0.elapsed().as_secs_f64();
        let agg = pool_aggregate(&reports);
        let mismatches: u64 = reports.iter().map(|r| r.dht_mismatches).sum();
        assert_eq!(mismatches, 0, "{}: DHT lost data", sc.name);

        println!(
            "{:<36} steps {:>5}  rounds p50/p95/max {}/{}/{}  messages p50/p95/max {}/{}/{}  type2 {}  ({wall:.2}s)",
            sc.name,
            agg.steps,
            agg.rounds.p50,
            agg.rounds.p95,
            agg.rounds.max,
            agg.messages.p50,
            agg.messages.p95,
            agg.messages.max,
            agg.type2_steps,
        );

        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", sc.name);
        let _ = writeln!(json, "      \"steps\": {},", agg.steps);
        let _ = writeln!(json, "      \"type2_steps\": {},", agg.type2_steps);
        let _ = writeln!(json, "      \"dht_mismatches\": {mismatches},");
        let _ = writeln!(
            json,
            "      \"final_n\": [{}],",
            reports
                .iter()
                .map(|r| r.final_n.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(json, "      \"rounds\": {},", summary_json(&agg.rounds));
        let _ = writeln!(json, "      \"messages\": {},", summary_json(&agg.messages));
        let _ = writeln!(json, "      \"topology\": {},", summary_json(&agg.topology));
        let _ = writeln!(json, "      \"lambda2_trajectories\": [");
        for (t, r) in reports.iter().enumerate() {
            let traj = r
                .lambda2
                .iter()
                .map(|l| format!("{l:.6}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                json,
                "        [{traj}]{}",
                if t + 1 < reports.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < lineup.len() { "," } else { "" }
        );
    }

    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_scenarios.json", &json).expect("write BENCH_scenarios.json");
    println!(
        "wrote BENCH_scenarios.json ({} scenario families)",
        lineup.len()
    );
}
