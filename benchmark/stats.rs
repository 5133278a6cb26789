//! Order statistics for timing samples: median, quartiles, the tail
//! percentile rule, and interquartile means over repeats. Percentiles
//! interpolate between closest ranks, through
//! `hashcore_profile::stats::percentile_sorted`.

use hashcore_profile::stats::percentile_sorted;

/// Percentiles the tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_BEYOND: f64 = 10.0;

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten samples
/// beyond it in `n` samples, or `None` when even p90 does not: fewer than
/// 100 samples have no tail to report.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        // The epsilon absorbs float error in `100 - p` (99.9 is inexact).
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

/// The `p`-th percentile (0–100) of `samples` (any order).
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

/// The median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN sample.
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        Summary {
            n: sorted.len(),
            median: percentile_sorted(&sorted, 50.0),
            q1: percentile_sorted(&sorted, 25.0),
            q3: percentile_sorted(&sorted, 75.0),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// The median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    percentile_of(samples, 50.0)
}

/// The mean of the middle half of `samples` (any order): a quarter of them,
/// rounded down, is dropped from each end.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Each operation's [`interquartile_mean`] time over `passes`, where
/// `passes[p][i]` is the time operation `i` took in pass `p`.
///
/// # Panics
///
/// Panics when there are no passes or the passes time different numbers of
/// operations.
pub fn per_op_interquartile_mean(passes: &[Vec<f64>]) -> Vec<f64> {
    let ops = passes.first().expect("at least one pass").len();
    assert!(
        passes.iter().all(|pass| pass.len() == ops),
        "every pass times the same operations"
    );
    (0..ops)
        .map(|i| interquartile_mean(&passes.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(3_000), Some(99.0)); // 30 beyond p99, 3 beyond p99.9
        assert_eq!(tail_percentile(1_000), Some(99.0)); // exactly 10 beyond
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        // Too few samples for any tail.
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(5), None);
    }

    #[test]
    fn summary_of_a_uniform_ladder() {
        let samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1_000);
        assert_eq!(s.median, 500.5);
        assert!((percentile_of(&samples, 99.0) - 990.01).abs() < 1e-9);
        assert!((s.spread() - (s.q3 - s.q1) / 500.5).abs() < 1e-12);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        // Fewer than four samples: nothing to drop.
        assert_eq!(interquartile_mean(&[3.0, 1.0, 8.0]), 4.0);
        // Eight samples: the two lowest and two highest go.
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 4.0, 2.0, 6.0, 5.0, 3.0, 0.5]),
            3.5
        );
        // A rare stall does not move it; a slow stretch moves it in step.
        let steady = [2.0; 8];
        let mut stalled = steady;
        stalled[5] = 50.0;
        assert_eq!(interquartile_mean(&stalled), 2.0);
        let mut slow = steady;
        slow[..3].fill(3.0);
        assert_eq!(interquartile_mean(&slow), 2.25);
    }

    #[test]
    fn per_op_interquartile_mean_takes_each_operation_across_passes() {
        let passes = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.0],
            vec![10.0, 1.0, 5.0],
        ];
        assert_eq!(per_op_interquartile_mean(&passes), [5.0, 2.0, 5.0]);
        assert_eq!(per_op_interquartile_mean(&passes[..1]), passes[0]);
    }

    #[test]
    #[should_panic(expected = "same operations")]
    fn per_op_interquartile_mean_rejects_passes_of_different_lengths() {
        let _ = per_op_interquartile_mean(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
