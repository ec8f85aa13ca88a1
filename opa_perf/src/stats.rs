//! Order statistics over timing samples.
//!
//! Everything the benchmark reports about a timing is a rank statistic —
//! never a mean — so one descheduled sample cannot move a result. Quartiles
//! use the same rule as Python's `statistics.quantiles(v, n=4)` (the
//! "exclusive" method), because that is what the acceptance driver applies
//! to the per-run values this benchmark prints.

/// Five-number summary plus the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median (0 when undefined).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `k/4` of an ascending slice, exclusive method: position
/// `k·(n+1)/4` (1-based), linearly interpolated and clamped to the ends.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let n = sorted.len();
    let pos = (k * (n + 1)) as f64 / 4.0;
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// Summary of `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    Some(Summary {
        n: v.len(),
        min: v[0],
        q1: quartile(&v, 1),
        median: quartile(&v, 2),
        q3: quartile(&v, 3),
        max: v[v.len() - 1],
    })
}

/// Median of `values` (0 when empty, so a skipped layer reads as idle).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// Nearest-rank percentile `p` (in percent) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles the benchmark ever reports, ascending, in
/// per-mille so that "ten samples beyond" is exact integer arithmetic.
const TAILS_PER_MILLE: [usize; 3] = [900, 990, 999];

/// The highest of 90 / 99 / 99.9 that still has at least ten samples
/// beyond it in a sample of `n`; the median (50) when even p90 does not.
/// A tail read off fewer than ten samples is one outlier's value, not a
/// property of the system.
pub fn highest_supported_percentile(n: usize) -> f64 {
    TAILS_PER_MILLE
        .iter()
        .rev()
        .find(|&&pm| n * (1000 - pm) >= 10 * 1000)
        .map_or(50.0, |&pm| pm as f64 / 10.0)
}

/// `percentile(values, want)` when the sample supports `want`, else the
/// highest percentile it does support — with the percentile actually used.
pub fn supported_percentile(values: &[f64], want: f64) -> (f64, f64) {
    let p = want.min(highest_supported_percentile(values.len()));
    (percentile(values, p), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        let s = summarize(&[30.0, 10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 30.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(16), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(supported_percentile(&v, 99.0), (180.0, 90.0));
        assert_eq!(supported_percentile(&v, 90.0), (180.0, 90.0));
    }
}
