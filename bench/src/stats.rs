//! The benchmark's own arithmetic. Everything a reported number passes
//! through on its way from raw rep times to a metric lives here, so it
//! can be unit-tested without running a join.

use mmjoin_util::stats::percentile;

/// Mean of the fastest decile of `times`, over at least three reps (or
/// all of them when there are fewer).
///
/// Interference on a shared host only ever adds time, and it arrives in
/// episodes that can cover most of a run, so the median of the reps
/// moves with the host while the fast tail stays with the program
/// (README, repeatability rule 3). The decile rather than the minimum
/// keeps one lucky rep from setting the number.
pub fn fast_mean(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "fast_mean of no reps");
    let mut v = times.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN rep time"));
    let k = (v.len() / 10).max(3).min(v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// Median rep over fast rep: 1.0–1.2 is the host, 1.5 and up means the
/// program itself is slow on most reps (README, "How to read
/// `rep_ratio_p50`").
pub fn rep_ratio(times: &[f64]) -> f64 {
    // With five reps or fewer the three fastest reach past the median.
    (percentile(times, 0.5) / fast_mean(times)).max(1.0)
}

/// The `p`-th percentile of `xs`, lowered until at least ten samples lie
/// beyond it (never below the median). Returns the value and the
/// percentile actually used, so a short run reports an honest p90 under
/// the name it was asked for rather than a p99 made of two samples.
pub fn tail_percentile(xs: &[f64], p: f64) -> (f64, f64) {
    let n = xs.len() as f64;
    let supported = if n > 0.0 { 1.0 - 10.0 / n } else { 0.5 };
    let used = p.min(supported).max(0.5);
    (percentile(xs, used), used)
}

/// Geometric mean (of positive values).
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The field's rep time in each cycle: the geometric mean over the
/// algorithms (`times[a][c]`) of what each took in that cycle.
pub fn field(times: &[&[f64]]) -> Vec<f64> {
    let cycles = times.iter().map(|t| t.len()).min().unwrap_or(0);
    (0..cycles)
        .map(|c| geomean(&times.iter().map(|t| t[c]).collect::<Vec<_>>()))
        .collect()
}

/// One algorithm's throughput as a multiple of the field's, cycle by
/// cycle. Both sides of each ratio ran within the same second or two, so
/// the host's state, whatever it was, cancels (README, rule 3).
pub fn rel(field: &[f64], times: &[f64]) -> Vec<f64> {
    field.iter().zip(times).map(|(f, t)| f / t).collect()
}

/// Kendall's τ-a between two orderings of the same items: +1 when both
/// rank them identically, −1 when one is the reverse of the other.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut score = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let s = (a[i] - a[j]) * (b[i] - b[j]);
            score += (s > 0.0) as i64 - (s < 0.0) as i64;
        }
    }
    score as f64 / (n * (n - 1) / 2) as f64
}

/// Quartiles by the method of Python's `statistics.quantiles(xs, n=4)`
/// (exclusive), which is what the acceptance check uses for spreads.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mean_takes_decile_but_at_least_three() {
        // 40 reps: decile = 4 fastest.
        let t: Vec<f64> = (1..=40).rev().map(|x| x as f64).collect();
        assert_eq!(fast_mean(&t), (1.0 + 2.0 + 3.0 + 4.0) / 4.0);
        // n < 30: still three reps, not one or two.
        let t = [9.0, 5.0, 7.0, 1.0, 3.0, 100.0];
        assert_eq!(fast_mean(&t), 3.0);
        // Fewer than three reps: all of them.
        assert_eq!(fast_mean(&[4.0, 2.0]), 3.0);
        assert_eq!(fast_mean(&[4.0]), 4.0);
    }

    #[test]
    fn rep_ratio_is_one_for_steady_reps_and_large_for_bimodal() {
        assert_eq!(rep_ratio(&[2.0; 12]), 1.0);
        // Three fast reps, the rest three times slower: the PRB/THP case.
        let mut t = vec![30.0; 9];
        t.extend([10.0, 10.0, 10.0]);
        assert_eq!(rep_ratio(&t), 3.0);
        assert_eq!(rep_ratio(&[1.0, 2.0, 9.0]), 1.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(|x| x as f64).collect();
        let (_, used) = tail_percentile(&xs, 0.99);
        assert_eq!(used, 0.99); // exactly ten beyond
        let (_, used) = tail_percentile(&xs, 0.999);
        assert_eq!(used, 0.99);
        let xs: Vec<f64> = (0..100).map(|x| x as f64).collect();
        let (v, used) = tail_percentile(&xs, 0.95);
        assert!((used - 0.9).abs() < 1e-12);
        assert!((v - 89.1).abs() < 1e-9);
        // Too few samples for any tail: the median.
        let (v, used) = tail_percentile(&[1.0, 2.0, 3.0], 0.95);
        assert_eq!((v, used), (2.0, 0.5));
    }

    #[test]
    fn geomean_known_answers() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[10.0, 10.0, 10.0]) - 10.0).abs() < 1e-12);
        // One slow member drags it less than it drags the mean.
        assert!(geomean(&[1.0, 100.0]) < 50.5);
    }

    #[test]
    fn field_and_rel_cancel_a_common_factor() {
        // Two algorithms, three cycles; the host is 2x and 3x slower in
        // cycles 1 and 2.
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 8.0, 12.0];
        let f = field(&[&a, &b]);
        assert_eq!(f, [2.0, 4.0, 6.0]);
        assert_eq!(rel(&f, &a), [2.0; 3]);
        assert_eq!(rel(&f, &b), [0.5; 3]);
        // A ragged last cycle is left out.
        assert_eq!(field(&[&a, &b[..2]]).len(), 2);
    }

    #[test]
    fn kendall_tau_known_answers() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(kendall_tau(&a, &[10.0, 20.0, 30.0, 40.0]), 1.0);
        assert_eq!(kendall_tau(&a, &[4.0, 3.0, 2.0, 1.0]), -1.0);
        // One adjacent swap among four items: 5 concordant, 1 discordant.
        assert!((kendall_tau(&a, &[1.0, 3.0, 2.0, 4.0]) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
    }
}
