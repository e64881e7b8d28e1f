//! The DEX reproduction's benchmark. One invocation runs one workload and
//! prints, as the last line of standard output, one JSON object with the
//! run's correctness, operation counts and metrics; `BENCHMARK.json` at the
//! repository root names the workloads and metrics, and `README.md` beside
//! this package explains them.

mod agree;
mod json;
mod metrics;
mod probes;
mod script;
mod trace;
mod workloads;

use json::Json;
use metrics::{LayerInputs, ServeRef, Spec, Values};
use std::path::PathBuf;
use std::time::Instant;
use trace::{Name, Tracer};
use workloads::{Plan, Scale, Workload};

const USAGE: &str = "usage: run.sh --workload <name> [--seed N] [--seconds N] [--trace 0|1] \
[--scale full|smoke] [--out-dir DIR]\n       run.sh agree <A> <B>   (report files or directories of them)";

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
    pub rustc: String,
}

fn parse_args(args: &[String], spec: &Spec) -> Result<Options, String> {
    let mut o = Options {
        workload: Workload::Churn,
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from("benchmark/out"),
        rustc: String::new(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()?.clamp(1, 60),
            "--trace" => o.trace = number()? != 0,
            "--scale" => {
                o.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("unknown scale {value:?}")),
                }
            }
            "--out-dir" => o.out_dir = PathBuf::from(value),
            "--rustc" => o.rustc = value.clone(),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    Ok(o)
}

/// Registered `DEX_*` knobs set in the environment. Any of them changes
/// what a run measures, so the benchmark refuses to start under one.
fn knobs_set() -> Vec<&'static str> {
    dex::exec::knobs::REGISTRY
        .iter()
        .filter(|k| std::env::var_os(k.name).is_some())
        .map(|k| k.name)
        .collect()
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One finished run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Every end-to-end metric (untraced) or every per-layer one (traced).
    pub values: Values,
    /// Sample counts behind the percentiles, and whatever else a reader of
    /// the report file may want.
    pub detail: Json,
}

fn script_alone_ns_per_call(plan: &Plan, seed: u64) -> f64 {
    let mut script = script::Script::new(plan.mix, plan.n0, seed);
    let calls = plan.calls().max(1);
    let t = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(script.next_op());
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

fn counts_json(c: &workloads::Counts) -> Json {
    Json::obj([
        ("inserts", c.inserts.into()),
        ("deletes", c.deletes.into()),
        ("gets", c.gets.into()),
        ("puts", c.puts.into()),
        ("insert_batches", c.insert_batches.into()),
        ("delete_batches", c.delete_batches.into()),
        ("type2_steps", c.type2_steps.into()),
        ("client_retries", c.client_retries.into()),
    ])
}

fn run_closed(o: &Options, plan: &Plan, threads: usize) -> Outcome {
    let mut tracer = o
        .trace
        .then(|| Tracer::with_capacity(2 * plan.calls() + 1024));
    let mut run = workloads::run_closed(plan, o.seed, threads, tracer.as_mut());
    let sim = &run.sim;
    let mut detail = vec![
        ("samples_steps", Json::from(sim.log.len() as u64)),
        ("digest", Json::str(format!("{:#018x}", sim.digest))),
        ("final_n", Json::from(sim.final_n as u64)),
        ("max_load", sim.max_load.into()),
        ("max_degree", Json::from(sim.max_degree as u64)),
        (
            "gaps",
            Json::Arr(
                sim.gaps
                    .iter()
                    .map(|&(n, g)| Json::obj([("n", Json::from(n as u64)), ("gap", g.into())]))
                    .collect(),
            ),
        ),
        ("counts", counts_json(&sim.counts)),
        (
            "setup_s_samples",
            Json::Arr(
                run.times
                    .iter()
                    .flat_map(|t| t.setup_ns.iter().map(|&ns| (ns as f64 / 1e9).into()))
                    .collect(),
            ),
        ),
        (
            "segment_ns_per_replay",
            Json::Arr(
                run.times
                    .iter()
                    .map(|t| Json::Arr(t.seg_ns.iter().map(|&ns| ns.into()).collect()))
                    .collect(),
            ),
        ),
    ];
    // A replay that panicked leaves nothing to measure: every operation of
    // the plan counts as failed.
    let panicked = run.times.is_empty() || run.net.is_none();
    let (attempted, failed) = if panicked {
        (plan.ops(), plan.ops())
    } else {
        (sim.attempted, sim.failed)
    };
    let values = match tracer.as_mut() {
        _ if panicked => Values::new(),
        None => metrics::end_to_end_closed(&run),
        Some(tr) => {
            let net = run.net.as_mut().expect("checked above");
            let costs = probes::run(net, o.seed, threads, tr);
            let inp = LayerInputs {
                tr,
                costs: &costs,
                threads,
                gen_ns_per_call: script_alone_ns_per_call(plan, o.seed),
            };
            let v = metrics::per_layer_closed(&run, plan, &inp);
            detail.push(("trace_file", write_trace(tr, o)));
            v
        }
    };
    Outcome {
        attempted,
        failed,
        violations: std::mem::take(&mut run.violations),
        values,
        detail: Json::obj(detail),
    }
}

fn run_serve(o: &Options, plan: &Plan, threads: usize) -> Outcome {
    let mut tracer = o.trace.then(|| Tracer::with_capacity(1024));
    let mut run = workloads::run_serve_workload(plan, o.seed, threads, tracer.as_mut());
    let complete = run.reports.len() == workloads::SERVE_RATES.len();
    let (attempted, failed) = if complete {
        metrics::serve_attempted_failed(&run, plan)
    } else {
        (plan.ops(), plan.ops())
    };
    let mut detail: Vec<(&str, Json)> = Vec::new();
    for (r, (label, _)) in run.reports.iter().zip(workloads::SERVE_RATES) {
        detail.push((
            label,
            Json::obj([
                ("samples_latency", Json::from(r.latency.count as u64)),
                ("samples_batches", Json::from(r.steps.steps as u64)),
                ("served", r.served.into()),
                ("shed", r.shed.into()),
                ("makespan_rounds", r.makespan.into()),
                ("ops_per_round", r.ops_per_round.into()),
                ("latency_p50_rounds", r.latency.p50.into()),
                ("latency_p99_rounds", r.latency.p99.into()),
                ("digest", Json::str(format!("{:#018x}", r.digest))),
            ]),
        ));
    }
    let values = match tracer.as_mut() {
        _ if !complete => Values::new(),
        None => metrics::end_to_end_serve(&run, plan),
        Some(tr) => {
            // `run_serve` keeps its shards to itself, so the probes run on
            // the shard-sized network the traced replay set up on the side.
            let mut net = run.ref_net.take().expect("the traced replay's network");
            let sref = ServeRef {
                bootstrap_ns: run.ref_bootstrap_ns,
                load: net.cycle.p() as f64 / net.n() as f64,
            };
            let costs = probes::run(&mut net, o.seed, threads, tr);
            let gen_ns_per_call =
                tr.total_ns(|n| n == Name::BuildSchedule) as f64 / plan.ops() as f64;
            let inp = LayerInputs {
                tr,
                costs: &costs,
                threads,
                gen_ns_per_call,
            };
            let v = metrics::per_layer_serve(&run, plan, &sref, &inp);
            detail.push(("trace_file", write_trace(tr, o)));
            v
        }
    };
    Outcome {
        attempted,
        failed,
        violations: std::mem::take(&mut run.violations),
        values,
        detail: Json::obj(detail),
    }
}

fn write_trace(tr: &Tracer, o: &Options) -> Json {
    let path = o.out_dir.join(format!("trace-{}.json", o.workload.name()));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        tr.write_json(&mut w)?;
        std::io::Write::flush(&mut w)
    });
    match written {
        Ok(()) => Json::str(path.display().to_string()),
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            Json::Null
        }
    }
}

/// The metrics object of the result line: exactly the metrics
/// `BENCHMARK.json` lists for this kind of run, in its order.
fn metrics_json(spec: &Spec, trace: bool, values: &Values) -> Result<Json, String> {
    let wanted = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut out = Vec::new();
    for m in wanted {
        let x = match values.get(&m.name) {
            Some(&x) => x,
            // A layer the workload never enters.
            None if trace => 0.0,
            None => return Err(format!("metric {} was not computed", m.name)),
        };
        if !x.is_finite() {
            return Err(format!("metric {} is not a number", m.name));
        }
        out.push((
            m.name.clone(),
            Json::obj([("value", Json::Num(x)), ("unit", Json::str(m.unit.clone()))]),
        ));
    }
    if let Some(extra) = values
        .keys()
        .find(|k| !wanted.iter().any(|m| &m.name == *k))
    {
        return Err(format!(
            "metric {extra} is computed but not in BENCHMARK.json"
        ));
    }
    Ok(Json::Obj(out))
}

/// Run one workload and build both the result line and the report.
pub fn run(o: &Options, spec: &Spec) -> (Json, Json, bool) {
    let started = Instant::now();
    let threads = available_parallelism().min(2);
    dex::exec::set_thread_budget(threads);
    let plan = Plan::new(o.workload, o.scale, o.seconds, threads);
    let mut outcome = match o.workload {
        Workload::Serve => run_serve(o, &plan, threads),
        _ => run_closed(o, &plan, threads),
    };
    let metrics = metrics_json(spec, o.trace, &outcome.values).unwrap_or_else(|e| {
        outcome.violations.push(e);
        Json::Obj(Vec::new())
    });
    // An incorrect run fails every operation it attempted.
    let correct = outcome.violations.is_empty();
    if !correct {
        outcome.failed = outcome.attempted;
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", metrics.clone()),
    ]);
    let report = Json::obj([
        ("workload", Json::str(o.workload.name())),
        ("seed", o.seed.into()),
        ("seconds", o.seconds.into()),
        (
            "scale",
            Json::str(if o.scale == Scale::Full {
                "full"
            } else {
                "smoke"
            }),
        ),
        ("trace", Json::Bool(o.trace)),
        (
            "machine",
            Json::obj([
                ("nproc", Json::from(available_parallelism() as u64)),
                ("cpu_model", Json::str(cpu_model())),
                ("rustc", Json::str(o.rustc.clone())),
            ]),
        ),
        (
            "exec",
            Json::obj([
                (
                    "available_parallelism",
                    Json::from(available_parallelism() as u64),
                ),
                (
                    "thread_budget",
                    Json::from(dex::exec::thread_budget() as u64),
                ),
                ("pool_mode", Json::str(dex::exec::pool_mode())),
            ]),
        ),
        ("replays", Json::from(workloads::REPLAYS as u64)),
        (
            "plan",
            Json::obj([
                ("n0", plan.n0.into()),
                ("segments", Json::from(plan.segments as u64)),
                ("calls_per_segment", Json::from(plan.seg_calls as u64)),
                (
                    "serve_ops_per_rate",
                    Json::Arr(
                        plan.serve_ops
                            .iter()
                            .map(|&n| Json::from(n as u64))
                            .collect(),
                    ),
                ),
                ("setups_per_replay", Json::from(plan.setups as u64)),
            ]),
        ),
        ("wall_s", started.elapsed().as_secs_f64().into()),
        ("correct", Json::Bool(correct)),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        (
            "violations",
            Json::Arr(outcome.violations.iter().map(Json::str).collect()),
        ),
        ("detail", outcome.detail),
        ("metrics", metrics),
    ]);
    (result, report, correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    if args.first().map(String::as_str) == Some("agree") {
        std::process::exit(agree::main(&args[1..], &spec));
    }
    let o = match parse_args(&args, &spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let set = knobs_set();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: a registered DEX_* knob changes what is measured",
            set.join(", ")
        );
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&o.out_dir) {
        eprintln!("cannot create {}: {e}", o.out_dir.display());
        std::process::exit(2);
    }
    let (result, report, correct) = run(&o, &spec);
    let suffix = if o.trace { "-trace" } else { "" };
    let path = o
        .out_dir
        .join(format!("{}{suffix}.json", o.workload.name()));
    if let Err(e) = std::fs::write(&path, report.render() + "\n") {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    for line in human_summary(&report) {
        eprintln!("{line}");
    }
    println!("{}", result.render());
    std::process::exit(if correct { 0 } else { 1 });
}

/// The report as a few readable lines, for a person watching the run.
fn human_summary(report: &Json) -> Vec<String> {
    let text = |k: &str| report.get(k).map(Json::render).unwrap_or_default();
    let mut lines = vec![format!(
        "workload {} seed {} seconds {} trace {} replays {} wall_s {} exec {}",
        text("workload"),
        text("seed"),
        text("seconds"),
        text("trace"),
        text("replays"),
        text("wall_s"),
        text("exec"),
    )];
    for v in report
        .get("violations")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        lines.push(format!("VIOLATION {}", v.render()));
    }
    for (name, m) in report.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        lines.push(format!("  {name:<40} {value:>16.4} {unit}"));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(workload: Workload, trace: bool, out_dir: &std::path::Path) -> Options {
        Options {
            workload,
            seed: 7,
            seconds: 10,
            trace,
            scale: Scale::Smoke,
            out_dir: out_dir.to_path_buf(),
            rustc: String::new(),
        }
    }

    /// Every workload at smoke scale, untraced and traced: the correctness
    /// gate passes, nothing fails, and the result carries exactly the
    /// metrics `BENCHMARK.json` lists.
    #[test]
    fn smoke_runs_pass_the_gate() {
        let spec = Spec::load();
        let out_dir =
            std::env::temp_dir().join(format!("dex-benchmark-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&out_dir).unwrap();
        for w in Workload::ALL {
            for trace in [false, true] {
                let started = Instant::now();
                let (result, report, correct) = run(&options(w, trace, &out_dir), &spec);
                assert!(
                    started.elapsed().as_secs() < 10,
                    "{} trace={trace}: smoke took {:?}",
                    w.name(),
                    started.elapsed()
                );
                let why = report
                    .get("violations")
                    .map(Json::render)
                    .unwrap_or_default();
                assert!(correct, "{} trace={trace}: {why}", w.name());
                assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
                assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
                let keys: Vec<&str> = result
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let got = result.get("metrics").and_then(Json::as_obj).unwrap();
                let want = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                assert_eq!(got.len(), want.len());
                for ((name, m), spec) in got.iter().zip(want) {
                    assert_eq!(name, &spec.name);
                    assert_eq!(
                        m.get("unit").and_then(Json::as_str),
                        Some(spec.unit.as_str())
                    );
                    let x = m.get("value").and_then(Json::as_f64).unwrap();
                    assert!(x.is_finite());
                    if !trace {
                        assert!(
                            x > 0.0,
                            "{} {name} = {x}: end-to-end metrics are never 0",
                            w.name()
                        );
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn arguments_are_checked() {
        let spec = Spec::load();
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(
            &args("--workload dht --seed 9 --seconds 3 --trace 1"),
            &spec,
        )
        .unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::Dht, 9, 3, true)
        );
        assert_eq!(
            parse_args(&args("--workload churn"), &spec)
                .unwrap()
                .seconds,
            spec.run_seconds
        );
        for bad in [
            "",
            "--workload nope",
            "--workload churn --seed x",
            "--seed",
            "--frob 1",
        ] {
            assert!(parse_args(&args(bad), &spec).is_err(), "{bad:?} accepted");
        }
    }
}
