//! Order statistics over latency samples.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail value reported as `p99`: the 99th percentile, or — when
/// fewer than ten samples lie beyond it — the highest rank that still
/// has ten samples beyond it. Returns `(value, samples beyond it)`.
pub fn tail(sorted: &[f64]) -> (f64, usize) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0);
    }
    let p99_rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
    let rank = p99_rank.min(n.saturating_sub(10)).max(1);
    (sorted[rank - 1], n - rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 10));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), (9_900.0, 100));
    }

    #[test]
    fn median_of_even_count() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
