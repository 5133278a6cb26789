//! The metric declarations in `BENCHMARK.json`, and everything a run
//! prints or writes: the report, the result line, result files, traces.
//!
//! `BENCHMARK.json` is compiled in and is the one list of metric names,
//! units, directions and bounds; the workloads only compute values.

use crate::common::{Outcome, Settings};
use crate::json::{self, Json};
use crate::trace::Tracer;
use std::fmt::Write as _;
use std::io::Write as _;

const BENCHMARK_JSON: &str = include_str!("../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Option<Better>,
    /// Share of the parent's median by which it may worsen.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Declaration {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Declaration {
    /// The metrics a run emits: per-layer for traced runs, end-to-end
    /// otherwise.
    pub fn metrics(&self, traced: bool) -> &[Declared] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Parses the compiled-in `BENCHMARK.json`.
pub fn declaration() -> Declaration {
    parse_declaration(BENCHMARK_JSON).expect("BENCHMARK.json declares the benchmark")
}

fn parse_declaration(text: &str) -> Result<Declaration, String> {
    let doc = Json::parse(text)?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("no {key} list"))?
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                Ok(Declared {
                    name: text("name").ok_or("metric without a name")?,
                    unit: text("unit").ok_or("metric without a unit")?,
                    better: match text("better").as_deref() {
                        Some("lower") => Some(Better::Lower),
                        Some("higher") => Some(Better::Higher),
                        _ => None,
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("no workloads list")?
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("workload without a name")?;
    Ok(Declaration {
        workloads,
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// The value of every metric a run emits, in declaration order.
///
/// A traced run reports 0 for a per-layer metric its workload does not
/// time: that layer is either bypassed (no widget work in `sim` or
/// `restart`) or runs inside a call timed as a whole.
///
/// # Panics
///
/// Panics when the workload produced a metric that is not declared, or an
/// untraced run lacks an end-to-end metric — both are benchmark bugs.
pub fn values(
    declaration: &Declaration,
    outcome: &Outcome,
    traced: bool,
) -> Vec<(String, String, f64)> {
    let declared = declaration.metrics(traced);
    for name in outcome.metrics.keys() {
        assert!(
            declared.iter().any(|d| d.name == *name),
            "metric {name} is not declared in BENCHMARK.json"
        );
    }
    declared
        .iter()
        .map(|d| {
            let value = match outcome.metrics.get(d.name.as_str()) {
                Some(metric) => metric.value,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", d.name),
            };
            (d.name.clone(), d.unit.clone(), value)
        })
        .collect()
}

/// The `metrics` object of a result: each emitted metric's value and unit,
/// plus, with `summaries`, the sample summary behind a median.
fn metrics_json(
    declaration: &Declaration,
    outcome: &Outcome,
    traced: bool,
    summaries: bool,
) -> String {
    let entries: Vec<String> = values(declaration, outcome, traced)
        .iter()
        .map(|(name, unit, value)| {
            let mut entry = format!(
                "{}: {{\"value\": {}, \"unit\": {}",
                json::string(name),
                json::number(*value),
                json::string(unit)
            );
            let summary = outcome.metrics.get(name.as_str()).and_then(|m| m.summary);
            if let Some(s) = summary.filter(|_| summaries) {
                let _ = write!(
                    entry,
                    ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}",
                    json::number(s.median),
                    json::number(s.q1),
                    json::number(s.q3),
                    s.n
                );
            }
            entry.push('}');
            entry
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The result object: the last line a run prints.
pub fn result_line(declaration: &Declaration, outcome: &Outcome, traced: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(declaration, outcome, traced, false)
    )
}

/// The human-readable report, printed before the result line.
pub fn print_report(
    declaration: &Declaration,
    workload: &str,
    settings: &Settings,
    traced: bool,
    outcome: &Outcome,
) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {workload} (seed {}, {} s{}{}) ==",
        settings.seed,
        settings.seconds,
        if traced { ", traced" } else { "" },
        if settings.quick { ", quick" } else { "" }
    );
    for check in &outcome.checks {
        let verdict = if check.passed { "ok  " } else { "FAIL" };
        let _ = writeln!(out, "  [{verdict}] {}: {}", check.name, check.detail);
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    let _ = writeln!(
        out,
        "  ops attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
    for (name, unit, value) in values(declaration, outcome, traced) {
        let _ = write!(out, "  {name:<28} {value:>16.6} {unit}");
        match outcome.metrics.get(name.as_str()) {
            Some(metric) => {
                if let Some(s) = metric.summary {
                    let _ = write!(
                        out,
                        "  (median {:.6}, q1 {:.6}, q3 {:.6}, n={})",
                        s.median, s.q1, s.q3, s.n
                    );
                }
            }
            None => out.push_str("  (not timed on this workload)"),
        }
        out.push('\n');
    }
    print!("{out}");
}

/// Appends the run to `results.jsonl` in the output directory — the
/// result sets `compare` reads — with the summaries and checks the result
/// line leaves out.
pub fn append_result(
    declaration: &Declaration,
    workload: &str,
    settings: &Settings,
    traced: bool,
    outcome: &Outcome,
) -> std::io::Result<()> {
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                json::string(c.name),
                c.passed,
                json::string(&c.detail)
            )
        })
        .collect();
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"trace\": {traced}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"checks\": [{}]}}",
        json::string(workload),
        settings.seed,
        json::number(settings.seconds),
        settings.quick,
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(declaration, outcome, traced, true),
        checks.join(", ")
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(settings.out_dir.join("results.jsonl"))?;
    writeln!(file, "{line}")
}

/// Writes a traced run's spans to `trace-<workload>.json`; a write failure
/// fails the run's `trace_written` check.
pub fn write_trace(settings: &Settings, workload: &str, tracer: &Tracer, outcome: &mut Outcome) {
    let path = settings.out_dir.join(format!("trace-{workload}.json"));
    match tracer.write_json(&path, workload) {
        Ok(()) => outcome.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(error) => outcome.check(
            "trace_written",
            false,
            format!("{}: {error}", path.display()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_declares_well_formed_metrics() {
        let declaration = declaration();
        assert_eq!(
            declaration.workloads,
            crate::WORKLOADS.map(str::to_string).to_vec()
        );
        for d in declaration.end_to_end.iter().chain(&declaration.per_layer) {
            assert!(valid_name(&d.name), "bad metric name {}", d.name);
            assert!(!d.unit.is_empty(), "{} has no unit", d.name);
        }
        for d in &declaration.end_to_end {
            assert!(d.better.is_some(), "{} has no direction", d.name);
            assert!(
                d.bound.is_some_and(|b| b > 0.0 && b <= 0.25),
                "{} needs a bound in (0, 0.25]",
                d.name
            );
        }
        assert!(declaration.end_to_end.iter().any(|d| d.name == "setup_s"));
    }

    #[test]
    fn the_result_line_is_well_formed_json() {
        let declaration = declaration();
        let mut outcome = Outcome::default();
        for d in &declaration.end_to_end {
            outcome.metric(Box::leak(d.name.clone().into_boxed_str()), 1.25e-3);
        }
        outcome.attempted = 3;
        outcome.check("example", true, "with \"quotes\"");
        let line = result_line(&declaration, &outcome, false);
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(3.0));
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), declaration.end_to_end.len());
        for (name, metric) in metrics {
            assert!(valid_name(name), "bad metric name {name}");
            assert_eq!(metric.get("value").unwrap().as_f64(), Some(1.25e-3));
            assert!(metric.get("unit").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn traced_lines_fill_metrics_a_workload_does_not_time() {
        let declaration = declaration();
        let mut outcome = Outcome::default();
        outcome.metric("net.events", 42.0);
        let line = result_line(&declaration, &outcome, true);
        let metrics = Json::parse(&line).unwrap();
        let metrics = metrics.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), declaration.per_layer.len());
        let value = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, m)| m.get("value")?.as_f64())
        };
        assert_eq!(value("net.events"), Some(42.0));
        assert_eq!(value("vm.execute_ns"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_a_bug() {
        let mut outcome = Outcome::default();
        outcome.metric("no.such_metric", 1.0);
        let _ = result_line(&declaration(), &outcome, true);
    }
}
