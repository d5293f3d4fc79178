//! Compare mode: parent and change result sets side by side, one row per
//! workload and end-to-end metric, with a verdict.
//!
//! A result set is a directory of run outputs (the full standard output
//! of one run per file, as `run.py series` writes them). Runs are paired
//! by workload and seed. The verdict follows the choosing-metrics rule:
//!
//! - `improved`: the change wins at least 9/10 of the pairs and the
//!   medians differ by more than the parent's quartile spread;
//! - `worse`: the change's median is worse than the parent's by more than
//!   the metric's bound from `BENCHMARK.json`;
//! - `unresolved`: the parent's own spread exceeds the bound, unless every
//!   change run reads better than every parent run;
//! - `unchanged`: otherwise (within the bound).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use muml_obs::json::{parse, Json};

use crate::stats::{median, quartiles};

/// Reads a JSON number as `f64`.
fn num(json: &Json) -> Option<f64> {
    match json {
        Json::Int(v) => Some(*v as f64),
        Json::Float(v) => Some(*v),
        _ => None,
    }
}

/// One run: its workload, seed and end-to-end metric values.
struct RunResult {
    workload: String,
    seed: i64,
    env: Option<String>,
    metrics: BTreeMap<String, f64>,
}

fn read_run(text: &str) -> Option<RunResult> {
    let params = text
        .lines()
        .find_map(|l| l.strip_prefix("# params "))
        .and_then(|p| parse(p).ok())?;
    let env = text
        .lines()
        .find_map(|l| l.strip_prefix("# env "))
        .map(str::to_owned);
    let result = parse(text.lines().last()?).ok()?;
    let Json::Object(fields) = result.get("metrics")? else {
        return None;
    };
    let metrics = fields
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), num(m.get("value")?)?)))
        .collect();
    Some(RunResult {
        workload: params.get("workload")?.as_str()?.to_owned(),
        seed: params.get("seed")?.as_int()?,
        env,
        metrics,
    })
}

fn read_set(dir: &Path) -> Result<Vec<RunResult>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries.flatten() {
        let text = std::fs::read_to_string(entry.path()).unwrap_or_default();
        if let Some(run) = read_run(&text) {
            runs.push(run);
        }
    }
    runs.sort_by(|a, b| (&a.workload, a.seed).cmp(&(&b.workload, b.seed)));
    Ok(runs)
}

/// `(bound, lower_is_better)` of every end-to-end metric.
fn read_bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let Some(Json::Array(metrics)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            let bound = num(m.get("bound")?)?;
            let lower = m.get("better")?.as_str()? == "lower";
            Some((name, (bound, lower)))
        })
        .collect())
}

/// The verdict for one workload × metric.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    bound: f64,
    lower: bool,
) -> &'static str {
    let better = |c: f64, p: f64| if lower { c < p } else { c > p };
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let spread = q3 - q1;
    let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
    if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(cm, pm)
        && (cm - pm).abs() > spread
    {
        return "improved";
    }
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    if spread > bound * pm.abs() && !all_better {
        return "unresolved";
    }
    let worse_by = if lower { cm - pm } else { pm - cm };
    if worse_by > bound * pm.abs() {
        "worse"
    } else {
        "unchanged"
    }
}

pub fn main(argv: &[String]) -> ExitCode {
    let (mut parent_dir, mut change_dir) = (None, None);
    let mut it = argv.iter();
    while let (Some(flag), Some(value)) = (it.next(), it.next()) {
        match flag.as_str() {
            "--parent" => parent_dir = Some(value.clone()),
            "--change" => change_dir = Some(value.clone()),
            _ => {}
        }
    }
    let (Some(parent_dir), Some(change_dir)) = (parent_dir, change_dir) else {
        eprintln!("usage: perfbench compare --parent <dir> --change <dir>");
        return ExitCode::from(2);
    };
    let loaded = read_bounds().and_then(|bounds| {
        Ok((
            bounds,
            read_set(Path::new(&parent_dir))?,
            read_set(Path::new(&change_dir))?,
        ))
    });
    let (bounds, parent, change) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    for (side, runs) in [("parent", &parent), ("change", &change)] {
        let envs: std::collections::BTreeSet<&str> =
            runs.iter().filter_map(|r| r.env.as_deref()).collect();
        for env in envs {
            println!("# {side} env {env}");
        }
    }
    println!(
        "{:<16} {:<15} {:>12} {:>25} {:>12} {:>25} {:>6} {:>5}  verdict",
        "workload",
        "metric",
        "parent p50",
        "parent q1..q3",
        "change p50",
        "change q1..q3",
        "pairs",
        "wins"
    );
    let workloads: std::collections::BTreeSet<&str> =
        parent.iter().map(|r| r.workload.as_str()).collect();
    for workload in workloads {
        for (metric, &(bound, lower)) in &bounds {
            let values = |runs: &[RunResult]| -> Vec<(i64, f64)> {
                runs.iter()
                    .filter(|r| r.workload == workload)
                    .filter_map(|r| Some((r.seed, *r.metrics.get(metric)?)))
                    .collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = p
                .iter()
                .filter_map(|(seed, pv)| Some((*pv, c.iter().find(|(s, _)| s == seed)?.1)))
                .collect();
            let pv: Vec<f64> = p.iter().map(|x| x.1).collect();
            let cv: Vec<f64> = c.iter().map(|x| x.1).collect();
            let wins = pairs
                .iter()
                .filter(|(a, b)| if lower { b < a } else { b > a })
                .count();
            let (pq1, pq3) = quartiles(&pv);
            let (cq1, cq3) = quartiles(&cv);
            println!(
                "{workload:<16} {metric:<15} {:>12.4} {:>25} {:>12.4} {:>25} {:>6} {:>5}  {}",
                median(&pv),
                format!("{pq1:.4}..{pq3:.4}"),
                median(&cv),
                format!("{cq1:.4}..{cq3:.4}"),
                pairs.len(),
                wins,
                verdict(&pv, &cv, &pairs, bound, lower)
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::verdict;

    fn paired(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_pairing_and_spread_rule() {
        let parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02];
        // Every pair won by a margin beyond the parent's spread.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            verdict(&parent, &faster, &paired(&parent, &faster), 0.1, true),
            "improved"
        );
        // 20% slower against a 10% bound.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            verdict(&parent, &slower, &paired(&parent, &slower), 0.1, true),
            "worse"
        );
        // Within the bound and not a consistent win.
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            verdict(&parent, &same, &paired(&parent, &same), 0.1, true),
            "unchanged"
        );
        // A parent whose own spread exceeds the bound cannot resolve a
        // small shift either way.
        let noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0];
        let shifted: Vec<f64> = noisy.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            verdict(&noisy, &shifted, &paired(&noisy, &shifted), 0.1, true),
            "unresolved"
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(
            verdict(&parent, &slower, &paired(&parent, &slower), 0.1, false),
            "improved"
        );
    }
}
