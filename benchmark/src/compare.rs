//! `--compare a.json b.json`: judges the runs in `b` against the runs in
//! `a`, one (workload, end-to-end metric) pair per row, by the direction
//! and bound `BENCHMARK.json` fixes for the metric. Each file is a
//! `results.json` as `--all` writes it (any number of runs per workload:
//! `--repeat`, or several files concatenated by hand into one `runs`
//! array).

use crate::drive::Json;
use crate::stats::{judge, median, spread, worsening, Direction, Verdict};
use std::collections::BTreeMap;

struct Bound {
    name: String,
    dir: Direction,
    bound: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds() -> Result<Vec<Bound>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = load(path)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end array")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str);
            Some(Bound {
                name: field("name")?.to_owned(),
                dir: Direction::parse(field("better")?)?,
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_owned())
}

/// `(workload, metric) → values`, one per untraced run in the file.
fn values(doc: &Json) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("no `runs` array")?;
    for run in runs {
        if run.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or("run without result.metrics")?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}.{name}: no numeric value"))?;
            out.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

/// Prints the table; `Ok(true)` when every pair is `ok`.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let bounds = bounds()?;
    let a = values(&load(a_path)?).map_err(|e| format!("{a_path}: {e}"))?;
    let b = values(&load(b_path)?).map_err(|e| format!("{b_path}: {e}"))?;
    println!(
        "{:<17} {:<19} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "worse %", "iqr a %", "iqr b %", "bound"
    );
    let mut all_ok = true;
    for ((workload, metric), va) in &a {
        let Some(bound) = bounds.iter().find(|b| &b.name == metric) else {
            continue;
        };
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<17} {metric:<19} missing from {b_path}");
            all_ok = false;
            continue;
        };
        let verdict = judge(bound.dir, bound.bound, va, vb);
        all_ok &= verdict == Verdict::Ok;
        println!(
            "{workload:<17} {metric:<19} {:>14.6} {:>14.6} {:>8.2} {:>7.2} {:>7.2} {:>6.2}  {}",
            median(va),
            median(vb),
            100.0 * worsening(bound.dir, median(va), median(vb)),
            100.0 * spread(va),
            100.0 * spread(vb),
            bound.bound,
            verdict.label()
        );
    }
    Ok(all_ok)
}
