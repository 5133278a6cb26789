//! What every workload shares: run settings, seeded input generation, the
//! outcome a workload hands back, and a few measurement helpers.

use crate::stats::{median, per_op_interquartile_mean, percentile_of, tail_percentile, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed pins are recorded for (the CLI default).
pub const DEFAULT_SEED: u64 = 1;

/// Passes over its operations a run takes at least, full or quick, so that
/// each operation's time is an average over the run.
pub const MIN_PASSES: usize = 3;

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Every input the workload builds derives from this seed.
    pub seed: u64,
    /// How long the measured phase runs. A workload finishes the pass or
    /// sample in progress, so a run can overshoot by one of those.
    pub seconds: f64,
    /// Smoke-test sizes: tiny widgets and chains, minimum sample counts.
    pub quick: bool,
    /// Where traces, result files and the restart workload's stores go.
    pub out_dir: PathBuf,
}

impl Settings {
    /// `true` while a measured phase that started at `started` should take
    /// another sample, given `taken` samples so far and the `min` the
    /// workload needs.
    pub fn more(&self, started: Instant, taken: usize, min: usize) -> bool {
        taken < min || (!self.quick && started.elapsed().as_secs_f64() < self.seconds)
    }

    /// The setting a workload uses in full runs, or its smoke-test size.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// A seeded SplitMix64 stream. The benchmark owns its input generator so
/// that inputs never change when a library's RNG does.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A stream for `seed`, separated per `stream` so workloads drawing
    /// different inputs from one seed do not share bytes.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut rng = SeedRng(seed ^ 0x6a09_e667_f3bc_c908);
        for &b in stream.as_bytes() {
            rng.0 ^= u64::from(b);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// One correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// What a workload timed: the same operations, in the same order, on the
/// same inputs, once per pass.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// `latencies_ms[pass][op]`: how long each operation took in each pass.
    pub latencies_ms: Vec<Vec<f64>>,
    /// `parts_ms[pass][part]`: the work behind `ops_per_s`, timed in parts
    /// that are the same in every pass.
    pub parts_ms: Vec<Vec<f64>>,
    /// Operations the parts of one pass do together.
    pub unit_ops: f64,
}

/// One metric value, with the summary of the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub summary: Option<Summary>,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: nonces, block applies and validations, sim
    /// runs, block appends and restarts.
    pub attempted: u64,
    /// Attempted operations that failed: widget errors, rejected honest
    /// blocks, unconverged sims, unclean recoveries.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Free-form lines printed with the report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            passed,
            detail: detail.into(),
        });
    }

    /// Checks `actual` against the pinned value for the default seed; other
    /// seeds have no pin and only record the value.
    pub fn pin(&mut self, name: &'static str, settings: &Settings, actual: &str, pinned: &str) {
        if settings.seed == DEFAULT_SEED {
            self.check(
                name,
                actual == pinned,
                format!("{actual} (pinned {pinned})"),
            );
        } else {
            self.notes
                .push(format!("{name}: {actual} (no pin for this seed)"));
        }
    }

    /// Records a plain value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(
            name,
            Metric {
                value,
                summary: None,
            },
        );
    }

    /// Records the median of `samples` with its summary.
    pub fn median_of(&mut self, name: &'static str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.metrics.insert(
            name,
            Metric {
                value: summary.median,
                summary: Some(summary),
            },
        );
    }

    /// Records the timing metrics from repeats of the same work, each taken
    /// over the whole run so that the host's slow and fast stretches weigh
    /// in by how long they lasted:
    ///
    /// * `ops_per_s`: every pass's operations over every pass's parts' time;
    /// * `latency_ms_p50` and `latency_ms_tail`: the median and tail over
    ///   the operations of each one's interquartile mean time across
    ///   passes. The code under test is deterministic, so an operation
    ///   costs the same in every pass, and the tail is the cost of the
    ///   heaviest operations, not of the worst moment of the run. The
    ///   tail is the highest
    ///   percentile with ten operations beyond it, so a workload always
    ///   reports the same one.
    ///
    /// # Panics
    ///
    /// Panics when the passes time different operations or parts, or too
    /// few operations for a tail: both are benchmark bugs.
    pub fn timings(&mut self, timings: &Timings) {
        let per_op = per_op_interquartile_mean(&timings.latencies_ms);
        let pct = tail_percentile(per_op.len()).expect("a pass times 100 operations");
        let rate = |parts_ms: &[f64]| timings.unit_ops * 1e3 / parts_ms.iter().sum::<f64>();
        let pass_rates: Vec<f64> = timings.parts_ms.iter().map(|p| rate(p)).collect();
        let total_ms: f64 = timings.parts_ms.iter().flatten().sum();
        let run_rate = timings.unit_ops * timings.parts_ms.len() as f64 * 1e3 / total_ms;
        let summary = Some(Summary::of(&per_op));
        let mut record = |name, value, summary| {
            self.metrics.insert(name, Metric { value, summary });
        };
        record("ops_per_s", run_rate, Some(Summary::of(&pass_rates)));
        record("latency_ms_p50", median(&per_op), summary);
        record("latency_ms_tail", percentile_of(&per_op, pct), summary);
        self.notes.push(format!(
            "{} passes over {} operations and {} parts; latencies are each \
             operation's interquartile mean across passes, latency_ms_tail their p{pct}",
            timings.latencies_ms.len(),
            per_op.len(),
            timings.parts_ms[0].len()
        ));
    }

    /// Records the thread's peak of live heap bytes since set-up ended,
    /// with the kept inputs live, as `peak_heap_mb`, and the process's peak
    /// resident set as a note. Workloads call it after their first pass:
    /// set-up plus one pass is a fixed amount of work, so the value does
    /// not depend on how many passes fit in the run.
    pub fn record_peak_heap(&mut self) {
        self.metric(
            "peak_heap_mb",
            crate::alloc_count::peak_heap_bytes() as f64 / MIB,
        );
        match peak_rss_mb() {
            Ok(mb) => self.notes.push(format!("peak resident set {mb:.1} MiB")),
            Err(error) => self.notes.push(error),
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Times a workload's set-up, which builds its inputs from the seed: at the
/// start of the run, and again in each later quarter of a full run, so
/// that `setup_s`, the median, stands for the whole run and not for its
/// first moment. Every set-up must build inputs with the same key, a small
/// digest of them.
pub struct Setup<'a, T, K> {
    build: Box<dyn FnMut() -> T + 'a>,
    key: Box<dyn Fn(&T) -> K + 'a>,
    quick: bool,
    seconds: Vec<f64>,
    first_key: Option<K>,
    deterministic: bool,
    /// Quarters of the run whose set-ups are timed.
    quarters: usize,
}

impl<'a, T, K: PartialEq> Setup<'a, T, K> {
    /// Sets up for the start of the run and returns the inputs the run
    /// keeps, the last ones built: at least one set-up, or
    /// [`SETUP_START_REPEATS`] in a quick run, which times no later ones.
    /// Only one set of inputs is live at a time, and the heap peak restarts
    /// from the live bytes afterwards, so `peak_heap_mb` counts the kept
    /// inputs and the measured work, not the repetitions.
    pub fn start(
        settings: &Settings,
        build: impl FnMut() -> T + 'a,
        key: impl Fn(&T) -> K + 'a,
    ) -> (Self, T) {
        let mut setup = Setup {
            build: Box::new(build),
            key: Box::new(key),
            quick: settings.quick,
            seconds: Vec::new(),
            first_key: None,
            deterministic: true,
            quarters: 1,
        };
        let inputs = setup.repeat(settings.pick(1, SETUP_START_REPEATS), true);
        crate::alloc_count::reset_peak();
        (setup, inputs.expect("at least one set-up"))
    }

    /// Called after each pass, once the heap peak is recorded: the first
    /// pass to end in a new quarter of a full run times set-up again and
    /// drops what it builds.
    pub fn after_pass(&mut self, settings: &Settings, started: Instant) {
        let quarter = (4.0 * started.elapsed().as_secs_f64() / settings.seconds) as usize;
        if !self.quick && (self.quarters..4).contains(&quarter) {
            self.quarters = quarter + 1;
            self.repeat(1, false);
        }
    }

    /// Records `setup_s` and whether every set-up built the same inputs.
    pub fn finish(self, outcome: &mut Outcome) {
        outcome.median_of("setup_s", &self.seconds);
        outcome.check(
            "setup_deterministic",
            self.deterministic,
            format!("{} set-ups built identical inputs", self.seconds.len()),
        );
    }

    /// Sets up at least `min` times and, in full runs, for at least
    /// [`SETUP_SECONDS`]; returns the last inputs when asked to `keep` them.
    fn repeat(&mut self, min: usize, keep: bool) -> Option<T> {
        let (started, before) = (Instant::now(), self.seconds.len());
        let mut kept = None;
        while self.seconds.len() - before < min
            || (!self.quick && started.elapsed().as_secs_f64() < SETUP_SECONDS)
        {
            drop(kept.take());
            let (inputs, elapsed) = timed(&mut self.build);
            self.seconds.push(elapsed.as_secs_f64());
            let key = (self.key)(&inputs);
            match &self.first_key {
                Some(first) => self.deterministic &= *first == key,
                None => self.first_key = Some(key),
            }
            if keep {
                kept = Some(inputs);
            }
        }
        kept
    }
}

/// Set-ups at the start of a quick run, which times no later ones.
const SETUP_START_REPEATS: usize = 3;
/// Each round of set-ups in a full run repeats for this long, at least, so
/// cheap set-ups are timed many times.
const SETUP_SECONDS: f64 = 0.1;

const MIB: f64 = (1u64 << 20) as f64;

/// Times `f`, returning its result and the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed())
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A directory that is removed, with everything in it, when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path` afresh (removing leftovers from an aborted run).
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is swept by the next `create`.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_repeat_and_separate() {
        let a = SeedRng::new(7, "mine").bytes(40);
        assert_eq!(a, SeedRng::new(7, "mine").bytes(40));
        assert_ne!(a, SeedRng::new(8, "mine").bytes(40));
        assert_ne!(a, SeedRng::new(7, "verify").bytes(40));
        assert_eq!(a.len(), 40);
    }
}
