//! `compare`: judges a change's result set against its parent's.
//!
//! Each set is a `results.jsonl` file of untraced full runs, made by
//! running the parent and the change alternately; the i-th run of a
//! workload in one set pairs with the i-th run of that workload in the
//! other. Per workload and end-to-end metric the verdict is:
//!
//! * improved — the change wins at least nine tenths of the pairs (ties
//!   count for neither) and the medians differ by more than the parent's
//!   interquartile range;
//! * regressed — the change's median is worse than the parent's by more
//!   than the metric's bound in `BENCHMARK.json`;
//! * unresolved — fewer than ten pairs, or the parent's own spread is
//!   wider than the bound and not every change run beats every parent run;
//! * unchanged — otherwise.

use crate::json::Json;
use crate::report::{declaration, Better, Declared};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Pairs needed before any verdict but "unresolved".
const MIN_PAIRS: usize = 10;
/// Share of pairs the change must win to count as improved.
const WIN_SHARE: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Metric values per workload, in run order.
type ResultSet = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

fn load(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = ResultSet::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let run =
            Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), number + 1))?;
        let flag = |key: &str| run.get(key).and_then(Json::as_bool).unwrap_or(false);
        if flag("trace") || flag("quick") {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).ok_or(format!(
            "{}:{}: no workload",
            path.display(),
            number + 1
        ))?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or(format!("{}:{}: no metrics", path.display(), number + 1))?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        set.entry(workload.to_string()).or_default().push(metrics);
    }
    Ok(set)
}

/// The verdict for one metric, plus the change's pair win rate.
pub fn judge(metric: &Declared, parent: &[f64], change: &[f64]) -> (Verdict, f64) {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return (Verdict::Unresolved, 0.0);
    }
    // Positive when the change reads better.
    let gain = |parent: f64, change: f64| match metric.better {
        Some(Better::Higher) => change - parent,
        _ => parent - change,
    };
    let wins = (0..pairs)
        .filter(|&i| gain(parent[i], change[i]) > 0.0)
        .count();
    let win_rate = wins as f64 / pairs as f64;
    if pairs < MIN_PAIRS {
        return (Verdict::Unresolved, win_rate);
    }
    let p = Summary::of(parent);
    let c = Summary::of(change);
    let bound = metric.bound.unwrap_or(0.0);
    let median_gain = gain(p.median, c.median);
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| gain(pv, cv) > 0.0));
    let verdict = if win_rate >= WIN_SHARE && median_gain > p.q3 - p.q1 {
        Verdict::Improved
    } else if -median_gain > bound * p.median.abs() {
        Verdict::Regressed
    } else if p.spread() > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, win_rate)
}

pub fn run(parent_path: &Path, change_path: &Path) -> ExitCode {
    let (parent, change) = match (load(parent_path), load(change_path)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let declaration = declaration();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for workload in &declaration.workloads {
        let empty = Vec::new();
        let p_runs = parent.get(workload).unwrap_or(&empty);
        let c_runs = change.get(workload).unwrap_or(&empty);
        println!(
            "== {workload}: {} parent runs, {} change runs, {} pairs ==",
            p_runs.len(),
            c_runs.len(),
            p_runs.len().min(c_runs.len())
        );
        for metric in &declaration.end_to_end {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&metric.name).copied())
                    .collect()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            let (verdict, win_rate) = judge(metric, &p, &c);
            let describe = |v: &[f64]| {
                if v.is_empty() {
                    "no runs".to_string()
                } else {
                    let s = Summary::of(v);
                    format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3)
                }
            };
            println!(
                "  {:<18} parent {}  change {}  wins {:.0}%  {:?}",
                metric.name,
                describe(&p),
                describe(&c),
                100.0 * win_rate,
                verdict
            );
            *counts.entry(format!("{verdict:?}")).or_default() += 1;
        }
    }
    println!("verdicts: {counts:?}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Declared {
        Declared {
            name: "m".into(),
            unit: "s".into(),
            better: Some(better),
            bound: Some(bound),
        }
    }

    fn around(base: f64, n: usize) -> Vec<f64> {
        // A deterministic ±1% wobble.
        (0..n)
            .map(|i| base * (1.0 + 0.01 * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_pair_rule_and_the_bound() {
        let lower = metric(Better::Lower, 0.05);
        let parent = around(100.0, 10);
        assert_eq!(
            judge(&lower, &parent, &around(80.0, 10)).0,
            Verdict::Improved
        );
        assert_eq!(
            judge(&lower, &parent, &around(110.0, 10)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower, &parent, &around(101.0, 10)).0,
            Verdict::Unchanged
        );
        // Direction matters: for a rate, lower is the regression.
        let higher = metric(Better::Higher, 0.05);
        assert_eq!(
            judge(&higher, &parent, &around(80.0, 10)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &parent, &around(120.0, 10)).0,
            Verdict::Improved
        );
    }

    #[test]
    fn too_few_pairs_or_too_much_spread_is_unresolved() {
        let lower = metric(Better::Lower, 0.05);
        assert_eq!(
            judge(&lower, &around(100.0, 9), &around(80.0, 9)).0,
            Verdict::Unresolved
        );
        // Parent quartiles 18% apart: a 2% move cannot be called unchanged.
        let noisy: Vec<f64> = (0..10).map(|i| 80.0 + 4.0 * i as f64).collect();
        let shifted: Vec<f64> = noisy.iter().rev().map(|v| v * 1.02).collect();
        assert_eq!(judge(&lower, &noisy, &shifted).0, Verdict::Unresolved);
    }

    #[test]
    fn win_rate_counts_ties_for_neither_side() {
        let lower = metric(Better::Lower, 0.05);
        let parent = vec![10.0; 10];
        let mut change = vec![10.0; 10];
        change[0] = 9.0;
        let (verdict, win_rate) = judge(&lower, &parent, &change);
        assert_eq!(win_rate, 0.1);
        assert_eq!(verdict, Verdict::Unchanged);
    }
}
