//! Order statistics of a sample: the median and interpolated
//! percentiles the benchmark reports.

/// Median (sorts a copy).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (0.0..=1.0) by linear interpolation between
/// order statistics (the "exclusive-inclusive" definition most load
/// tools use: `percentile(xs, 0.5) == median(xs)`). Sorts a copy.
/// Latency tails of the serve harness (`p50/p99/p999`) come from here.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let p = p.clamp(0.0, 1.0);
    let rank = p * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_and_agrees_with_median() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&xs, 0.5), median(&xs));
        assert!((percentile(&xs, 0.25) - 1.75).abs() < 1e-12);
        let odd = [10.0, 30.0, 20.0];
        assert_eq!(percentile(&odd, 0.5), 20.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[5.0], 0.999), 5.0);
    }
}
