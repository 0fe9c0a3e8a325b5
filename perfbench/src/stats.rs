//! Order statistics over latency samples.

/// The tail percentile must leave at least this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 12] = [99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0];

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The tail of a latency distribution: the highest percentile that still
/// has [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The chosen percentile (e.g. 99.0).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples the distribution holds.
    pub samples: usize,
}

/// Chooses the tail of ascending `sorted`; `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist, since then no percentile qualifies.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    TAIL_LADDER.iter().find(|&&p| n - rank(n, p) >= TAIL_BEYOND).map(|&p| Tail {
        percentile: p,
        value: percentile(sorted, p),
        samples: n,
    })
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, exactly 10 beyond; p99.5 would
        // leave only 5.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        assert_eq!(tail(&ramp(100)).unwrap().percentile, 90.0);
        // 25 samples: p60 is rank 15, 10 beyond; p70 is rank 18.
        let t = tail(&ramp(25)).unwrap();
        assert_eq!((t.percentile, t.value), (60.0, 15.0));
        // 20 samples: p50 is rank 10, 10 beyond.
        assert_eq!(tail(&ramp(20)).unwrap().percentile, 50.0);
    }

    #[test]
    fn tail_needs_enough_samples() {
        assert!(tail(&ramp(10)).is_none());
        assert!(tail(&[]).is_none());
        let t = tail(&ramp(1_000_000)).unwrap();
        assert_eq!(t.percentile, 99.99);
        assert_eq!(1_000_000 - t.value as usize, 100);
    }
}
