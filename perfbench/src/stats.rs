//! Order statistics for latency samples.

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentile the benchmark reports: p99 when at least ten
/// samples lie beyond it, otherwise the highest percentile that still has
/// ten samples beyond it (the maximum when there are ten samples or
/// fewer). Returns `(value, percentile)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, 0.0);
    }
    // 1-based nearest rank of p99, capped so ten samples remain above it.
    let p99_rank = (n * 99).div_ceil(100);
    let rank = if n > 10 { p99_rank.min(n - 10) } else { n };
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// One timing summary: the median, the tail value and its percentile, and
/// the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let (tail, tail_pct) = tail(samples);
    Summary {
        median: median(samples),
        tail,
        tail_pct,
        n: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions cannot rely on sorted input.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in [11, 50, 100, 250, 999, 1000, 1001, 5000] {
            let (value, pct) = tail(&ramp(n));
            let beyond = ramp(n).iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n}: only {beyond} beyond");
            // Highest such percentile: one rank higher would leave < 10,
            // unless p99 itself already qualifies.
            if pct < 99.0 {
                assert_eq!(beyond, 10, "n={n}");
            }
            // Nearest rank: at most one rank above the 99th percentile.
            assert!(pct < 99.0 + 100.0 / n as f64, "n={n}: pct {pct}");
        }
    }

    #[test]
    fn tail_is_p99_with_enough_samples() {
        let (value, pct) = tail(&ramp(2000));
        assert_eq!(pct, 99.0);
        assert_eq!(value, 1980.0);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
        let (value, pct) = tail(&ramp(100));
        assert_eq!((value, pct), (90.0, 90.0));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
