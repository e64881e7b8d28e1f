//! Scenario-engine benchmark: drives the `dex-workload` scenario families
//! against DEX at n ≈ 20k and emits `BENCH_scenarios.json` with per-step
//! percentile cost summaries and λ₂ trajectories.
//!
//! Determinism contract: everything in the JSON except the executor
//! header is **byte-identical** for a given `--seed` regardless of the
//! thread budget (trials fan out over the order-preserving `par_map`;
//! nothing in the output depends on timing). The CI smoke job relies on
//! `--smoke` running every family at toy scale in seconds.
//!
//! ```sh
//! cargo run --release -p dex-bench --bin bench_scenarios            # full, n≈20k
//! cargo run --release -p dex-bench --bin bench_scenarios -- --smoke # CI-sized
//! DEX_EXEC_THREADS=1 cargo run --release -p dex-bench --bin bench_scenarios
//! ```

use dex::prelude::*;
use dex_bench::json::Json;
use dex_bench::Args;

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
    let args = Args::parse(&["--smoke", "--seed", "--trials"]);
    let smoke = args.smoke();
    let seed = args.get("--seed", 0xd5c0_cafe_u64);
    let n0: u64 = if smoke { 48 } else { 20_000 };
    let trials = match args.get("--trials", 0) {
        0 if smoke => 2,
        0 => 4,
        t => t,
    };
    let opts = RunOptions {
        n0,
        trials,
        seed,
        lambda_every: if smoke { 16 } else { 64 },
        exec: dex::exec::ExecConfig::AUTO,
        check_invariants: smoke, // free correctness coverage at toy scale
        // Aggregates come from the compact per-step logs; full traces and
        // StepMetrics records are dead weight at benchmark scale.
        keep_actions: false,
    };
    let lineup = lineup(!smoke);

    let scenarios = lineup.iter().map(|sc| {
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

        let trajectory = |r: &TrialReport| Json::arr(r.lambda2.iter().map(|&l| Json::Fixed(l, 6)));
        Json::obj([
            ("name", sc.name.as_str().into()),
            ("steps", agg.steps.into()),
            ("type2_steps", agg.type2_steps.into()),
            ("dht_mismatches", mismatches.into()),
            ("final_n", Json::arr(reports.iter().map(|r| r.final_n))),
            ("rounds", (&agg.rounds).into()),
            ("messages", (&agg.messages).into()),
            ("topology", (&agg.topology).into()),
            ("lambda2_trajectories", Json::arr(reports.iter().map(trajectory))),
        ])
    });
    let json = Json::obj([
        (
            "config",
            Json::obj([
                ("n0", n0.into()),
                ("trials", trials.into()),
                ("seed", seed.into()),
                ("lambda_every", opts.lambda_every.into()),
                ("smoke", smoke.into()),
            ]),
        ),
        ("exec", dex_bench::exec_header()),
        ("scenarios", Json::arr(scenarios)),
    ]);
    std::fs::write("BENCH_scenarios.json", json.render()).expect("write BENCH_scenarios.json");
    println!(
        "wrote BENCH_scenarios.json ({} scenario families)",
        lineup.len()
    );
}
