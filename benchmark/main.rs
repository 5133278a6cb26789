//! The repository benchmark: four workloads, end-to-end metrics from
//! untraced runs, and per-layer metrics from traced runs.
//!
//! ```text
//! benchmark [--workload mine|verify|sim|restart|all] [--seed N] [--seconds S]
//!           [--trace [0|1]] [--quick]
//! benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A run prints a report, appends its result to
//! `$CARGO_TARGET_DIR/benchmark/results.jsonl` (`target/benchmark/` when
//! the variable is unset), and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The metrics are the
//! end-to-end ones declared in `BENCHMARK.json`, or the per-layer ones with
//! `--trace`. `--workload all` runs each workload in a child process of its
//! own, so peak RSS is per workload. Every workload runs on one thread.
//! See README.md next to this file for the metric glossary.

mod alloc_count;
mod common;
mod compare;
mod json;
mod mine;
mod report;
mod restart;
mod sim;
mod stages;
mod stats;
mod trace;
mod verify;

use common::{Outcome, Settings, DEFAULT_SEED};
use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// The workloads, in the order `all` runs them and `BENCHMARK.json` lists
/// them.
pub const WORKLOADS: [&str; 4] = ["mine", "verify", "sim", "restart"];

/// The run length `BENCHMARK.json` sets, so a bare run measures the same.
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: benchmark [--workload mine|verify|sim|restart|all] [--seed N] \
                     [--seconds S] [--trace [0|1]] [--quick]\n       \
                     benchmark compare PARENT.jsonl CHANGE.jsonl";

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum Cli {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Cli, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, parent, change] => Ok(Cli::Compare(parent.into(), change.into())),
            _ => Err("compare takes two result files".into()),
        };
    }
    let mut run = RunArgs {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        let need = || value.ok_or(format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => {
                run.workload = need()?.clone();
                if run.workload != "all" && !WORKLOADS.contains(&run.workload.as_str()) {
                    return Err(format!("unknown workload {}", run.workload));
                }
                i += 1;
            }
            "--seed" => {
                run.seed = need()?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                run.seconds = need()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds.is_finite() && run.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                i += 1;
            }
            "--trace" => match value.map(String::as_str) {
                Some("0") => {
                    run.trace = false;
                    i += 1;
                }
                Some("1") => {
                    run.trace = true;
                    i += 1;
                }
                _ => run.trace = true,
            },
            "--quick" => run.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(Cli::Run(run))
}

/// Where results, traces and the restart workload's stores go.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

/// Runs one workload in this process.
fn run_workload(workload: &str, settings: &Settings, traced: bool) -> Outcome {
    let mut outcome = match workload {
        "mine" => mine::run(settings, traced),
        "verify" => verify::run(settings, traced),
        "sim" => sim::run(settings, traced),
        "restart" => restart::run(settings, traced),
        other => unreachable!("workload {other} was validated by the parser"),
    };
    if traced {
        // Set-up and memory are measured in every run, but only untraced
        // runs report them.
        outcome.metrics.remove("setup_s");
        outcome.metrics.remove("peak_heap_mb");
    }
    outcome
}

fn run_one(args: &RunArgs) -> ExitCode {
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        out_dir: out_dir(),
    };
    if let Err(error) = std::fs::create_dir_all(&settings.out_dir) {
        eprintln!("cannot create {}: {error}", settings.out_dir.display());
        return ExitCode::FAILURE;
    }
    let declaration = report::declaration();
    let outcome = run_workload(&args.workload, &settings, args.trace);
    report::print_report(
        &declaration,
        &args.workload,
        &settings,
        args.trace,
        &outcome,
    );
    if let Err(error) = report::append_result(
        &declaration,
        &args.workload,
        &settings,
        args.trace,
        &outcome,
    ) {
        eprintln!("cannot append to results.jsonl: {error}");
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        report::result_line(&declaration, &outcome, args.trace)
    );
    ExitCode::SUCCESS
}

/// Runs every workload in a child process of its own, passes each child's
/// output through, and ends with one result object whose metric names are
/// prefixed by workload.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("cannot locate the benchmark executable: {error}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if args.quick {
            command.arg("--quick");
        }
        let output = match command.output() {
            Ok(output) => output,
            Err(error) => {
                eprintln!("cannot run the {workload} workload: {error}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let result = match (output.status.success(), Json::parse(last)) {
            (true, Ok(result)) => result,
            _ => {
                eprintln!("the {workload} workload failed ({})", output.status);
                return ExitCode::FAILURE;
            }
        };
        correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        for (name, metric) in result
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&format!("{workload}.{name}")),
                json::number(value),
                json::string(unit)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Cli::Compare(parent, change)) => compare::run(&parent, &change),
        Ok(Cli::Run(run)) if run.workload == "all" => run_all(&run),
        Ok(Cli::Run(run)) => run_one(&run),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ScratchDir;
    use std::collections::BTreeSet;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_full_and_short_argument_forms() {
        let Ok(Cli::Run(run)) = parse(&args("--workload sim --seed 7 --seconds 10 --trace 0"))
        else {
            panic!("a run")
        };
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds),
            ("sim", 7, 10.0)
        );
        assert!(!run.trace);
        let Ok(Cli::Run(run)) = parse(&args("--trace --quick")) else {
            panic!("a run")
        };
        assert!(run.trace && run.quick);
        assert_eq!(run.workload, "all");
        assert_eq!(
            parse(&args("compare a.jsonl b.jsonl")),
            Ok(Cli::Compare("a.jsonl".into(), "b.jsonl".into()))
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--bogus",
            "compare a",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad} should not parse");
        }
    }

    /// Quick runs of every workload, untraced and traced: every
    /// correctness check holds, nothing fails, and the metrics are exactly
    /// the declared ones.
    #[test]
    fn quick_runs_pass_every_check_and_emit_the_declared_metrics() {
        let scratch = ScratchDir::create(
            std::env::temp_dir().join(format!("hashcore-benchmark-smoke-{}", std::process::id())),
        )
        .unwrap();
        let settings = Settings {
            seed: DEFAULT_SEED,
            seconds: 0.0,
            quick: true,
            out_dir: scratch.path().to_path_buf(),
        };
        let declaration = report::declaration();
        let end_to_end: BTreeSet<&str> = declaration
            .end_to_end
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        let per_layer: BTreeSet<&str> = declaration
            .per_layer
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        let mut traced_metrics = BTreeSet::new();
        for workload in WORKLOADS {
            for traced in [false, true] {
                let outcome = run_workload(workload, &settings, traced);
                for check in &outcome.checks {
                    // Timing reconciliation needs full-size samples; quick
                    // runs only show that the ledger is computed.
                    assert!(
                        check.passed || check.name == "stages_reconcile",
                        "{workload} (traced {traced}): {} failed: {}",
                        check.name,
                        check.detail
                    );
                }
                assert_eq!(outcome.failed, 0, "{workload} (traced {traced})");
                assert!(outcome.attempted > 0);
                let names: BTreeSet<&str> = outcome.metrics.keys().copied().collect();
                if traced {
                    assert!(names.is_subset(&per_layer), "{workload}: {names:?}");
                    assert!(scratch
                        .path()
                        .join(format!("trace-{workload}.json"))
                        .exists());
                    traced_metrics.extend(names);
                } else {
                    assert_eq!(names, end_to_end, "{workload}");
                    assert!(
                        outcome.metrics.values().all(|m| m.value > 0.0),
                        "{workload}"
                    );
                }
                let line = report::result_line(&declaration, &outcome, traced);
                assert!(Json::parse(&line).is_ok(), "{line}");
            }
        }
        // Every declared per-layer metric is timed by some workload.
        assert_eq!(traced_metrics, per_layer);
    }
}
