//! Percentiles that say how many samples support them.

/// The percentiles a tail line may use, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples above it.
pub fn supported(p: f64, n: usize) -> bool {
    n > 0 && n - 1 - rank(p, n) >= MIN_BEYOND
}

/// Nearest-rank percentile `p` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len())]
}

/// The highest candidate percentile at or below `want` that `n`
/// samples support.
pub fn best_supported(want: f64, n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .filter(|&p| p <= want)
        .find(|&p| supported(p, n))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency classes of the deterministic script: each sample's class
/// and the class's typical latency. Classes are ordered by their median
/// latency; the cumulative class counts are the ranks at which the
/// sorted samples switch from one class to the next. Returns the
/// distance, in ranks, from `rank` to the nearest such boundary.
pub fn distance_to_class_boundary(samples: &[(u64, f64)], rank: usize) -> usize {
    let mut classes: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(class, ms) in samples {
        classes.entry(class).or_default().push(ms);
    }
    let mut order: Vec<(f64, usize)> = classes.values().map(|v| (median(v), v.len())).collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut cumulative = 0;
    let mut nearest = usize::MAX;
    for (_, count) in &order[..order.len().saturating_sub(1)] {
        cumulative += count;
        // The boundary lies between ranks cumulative-1 and cumulative.
        let d = if rank < cumulative {
            cumulative - 1 - rank
        } else {
            rank - cumulative
        };
        nearest = nearest.min(d);
    }
    nearest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_needs_ten_samples_beyond() {
        assert!(supported(99.0, 1000));
        assert!(!supported(99.0, 999));
        assert_eq!(best_supported(99.0, 500), Some(95.0));
        assert_eq!(best_supported(99.0, 5), None);
    }

    #[test]
    fn boundary_distance_counts_ranks() {
        // 90 fast samples, 10 slow ones: the boundary sits between
        // ranks 89 and 90.
        let mut s: Vec<(u64, f64)> = (0..90).map(|_| (0, 1.0)).collect();
        s.extend((0..10).map(|_| (1, 9.0)));
        assert_eq!(distance_to_class_boundary(&s, 89), 0);
        assert_eq!(distance_to_class_boundary(&s, 90), 0);
        assert_eq!(distance_to_class_boundary(&s, 49), 40);
        assert_eq!(distance_to_class_boundary(&s, 98), 8);
    }
}
