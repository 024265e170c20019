//! Order statistics for the benchmark's reported timings.
//!
//! Timings are reported as a median and a tail: the highest percentile of a fixed
//! ladder that still has at least [`TAIL_MIN_BEYOND`] samples beyond it, with the
//! percentile and the sample count recorded next to it.

/// The percentiles a tail may be reported at, lowest first. The ladder stops at p95: a
/// run collects a few hundred to about a thousand samples of a kind, so p99 would come
/// and go with the run's throughput, and the reported value would jump with it.
pub const TAIL_LADDER: [f64; 4] = [50.0, 75.0, 90.0, 95.0];

/// The ladder for samples that number from tens to about a hundred per run: p90 would
/// come and go at about a hundred samples, so this one stops at p75.
pub const SHORT_TAIL_LADDER: [f64; 2] = [50.0, 75.0];

/// A tail percentile is reported only when at least this many samples lie beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The value at percentile `p` (0–100) of `sorted`, by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A reported tail: the percentile, its value, and the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The geometric mean of `values`, all positive: the summary across classes of unlike
/// size, where each class's relative change weighs alike.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geometric mean of a non-positive value"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The highest `ladder` percentile with at least [`TAIL_MIN_BEYOND`] samples strictly
/// beyond its rank, or `None` when even the lowest has fewer.
pub fn tail(values: &[f64], ladder: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    ladder
        .iter()
        .rev()
        .find(|&&p| n - ((p / 100.0) * n as f64).ceil() as usize >= TAIL_MIN_BEYOND)
        .map(|&p| Tail {
            percentile: p,
            value: percentile(&sorted, p),
            samples: n,
        })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// What an end-to-end time leaves after its attributed layer times: the
/// `*.unattributed` row, so that layers plus remainder equal the total exactly.
pub fn remainder(total: f64, layers: &[f64]) -> f64 {
    total - layers.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        // 19 samples: the median leaves 9 beyond, so there is no tail at all.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few, &TAIL_LADDER), None);
        // 20 samples: exactly 10 lie beyond the median (rank 10).
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&twenty, &TAIL_LADDER).expect("tail");
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 10.0, 20));
        // 40 samples: p75 is rank 30 with 10 beyond; p90 would leave only 4.
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&forty, &TAIL_LADDER).map(|t| t.percentile), Some(75.0));
        // 200 samples: p95 is rank 190 with 10 beyond, and the ladder ends there.
        let two_hundred: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&two_hundred, &TAIL_LADDER).expect("tail");
        assert_eq!((t.percentile, t.value), (95.0, 190.0));
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&many, &TAIL_LADDER).map(|t| t.percentile), Some(95.0));
        // 199 samples: p95 is rank 190, leaving 9, so the tail falls back to p90.
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&short, &TAIL_LADDER).map(|t| t.percentile), Some(90.0));
        // The short ladder stops at p75 however many samples there are.
        assert_eq!(
            tail(&many, &SHORT_TAIL_LADDER).map(|t| t.percentile),
            Some(75.0)
        );
        assert_eq!(tail(&few, &SHORT_TAIL_LADDER), None);
    }

    #[test]
    fn geomean_weighs_each_relative_change_alike() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        // Doubling one of four values moves the geometric mean by 2^(1/4), whichever
        // value it is.
        let base = [0.5, 2.0, 40.0, 700.0];
        for i in 0..base.len() {
            let mut moved = base;
            moved[i] *= 2.0;
            let ratio = geomean(&moved) / geomean(&base);
            assert!((ratio - 2f64.powf(0.25)).abs() < 1e-12);
        }
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn percentile_and_median_follow_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 40.0), 2.0);
        assert_eq!(percentile(&sorted, 41.0), 3.0);
        assert_eq!(percentile(&sorted, 100.0), 5.0);
    }

    #[test]
    fn layers_plus_remainder_add_up_to_the_total() {
        let layers = [0.125, 0.25, 1.5];
        let rest = remainder(2.0, &layers);
        assert_eq!(rest, 0.125);
        assert_eq!(layers.iter().sum::<f64>() + rest, 2.0);
        // A remainder can be negative when layer estimates overlap; it is reported
        // as measured, never clamped.
        assert!(remainder(1.0, &[0.75, 0.5]) < 0.0);
    }
}
