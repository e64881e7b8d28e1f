//! `agree A B`: do two sets of untraced runs agree within the benchmark's
//! own bounds? Also the before/after table of a later change.

use crate::json::Json;
use crate::metrics::Spec;
use std::path::Path;

/// Reports found at `path`: the file itself, or every workload's untraced
/// report in the directory.
fn load(path: &Path, spec: &Spec) -> Result<Vec<Json>, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    if !path.is_dir() {
        return Ok(vec![read(path)?]);
    }
    let mut out = Vec::new();
    for w in &spec.workloads {
        let p = path.join(format!("{w}.json"));
        if p.exists() {
            out.push(read(&p)?);
        }
    }
    Ok(out)
}

fn value(report: &Json, metric: &str) -> Option<f64> {
    report.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Relative difference of `b` from `a`, signed so that positive is worse.
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let rel = if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a.abs()
    };
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

pub fn main(args: &[String], spec: &Spec) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: run.sh agree <A> <B>");
        return 2;
    };
    let (ra, rb) = match (load(Path::new(a), spec), load(Path::new(b), spec)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let name = |r: &Json| r.get("workload").and_then(Json::as_str).map(String::from);
    println!(
        "{:<8} {:<24} {:>16} {:>16} {:>10} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse_by", "bound"
    );
    let (mut compared, mut beyond) = (0, 0);
    for w in &spec.workloads {
        let find = |rs: &[Json]| rs.iter().find(|r| name(r).as_deref() == Some(w)).cloned();
        let (Some(x), Some(y)) = (find(&ra), find(&rb)) else {
            continue;
        };
        for side in [&x, &y] {
            if side.get("correct") != Some(&Json::Bool(true)) {
                println!("{w:<8} a run of this workload failed its correctness gate");
                beyond += 1;
            }
        }
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (value(&x, &m.name), value(&y, &m.name)) else {
                println!("{w:<8} {:<24} missing from a report", m.name);
                beyond += 1;
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let d = worse_by(va, vb, m.higher_is_better);
            let ok = d.abs() <= bound;
            compared += 1;
            beyond += !ok as u32;
            println!(
                "{w:<8} {:<24} {va:>16.6} {vb:>16.6} {:>+9.2}% {:>6.0}%  {}",
                m.name,
                d * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "BEYOND BOUND" }
            );
        }
    }
    println!("{compared} pairs compared, {beyond} beyond their bound");
    if compared == 0 || beyond > 0 {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert!((worse_by(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, false), 0.0);
        assert_eq!(worse_by(0.0, 1.0, false), f64::INFINITY);
    }
}
