//! Descriptive and comparative statistics: mean, median, percentiles
//! and time per tuple, and the distribution-aware tools (bootstrap
//! confidence intervals, Mann-Whitney U, [`judge_shift`]) whose one
//! user is the service's in-process regression watch, which compares
//! the raw latency samples of two windows.

use std::time::Duration;

use crate::rng::Xoshiro256;

/// Average time per processed input tuple in nanoseconds (Figure 9/11 metric).
#[inline]
pub fn ns_per_tuple(tuples: usize, runtime: Duration) -> f64 {
    if tuples == 0 {
        return 0.0;
    }
    runtime.as_nanos() as f64 / tuples as f64
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

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

/// [`median`] of a non-empty slice by selection instead of a sort,
/// reordering `xs`: the bootstrap takes hundreds of medians of one
/// resample buffer, and the service's regression watch runs it inside
/// the serving process.
fn median_unsorted(xs: &mut [f64]) -> f64 {
    let odd = xs.len() % 2 == 1;
    let (below, upper, _) = xs.select_nth_unstable_by(xs.len() / 2, |a, b| a.total_cmp(b));
    if odd {
        *upper
    } else {
        let lower = below.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lower + *upper) / 2.0
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

/// Several percentiles of the same sample in one sort: `percentile`
/// sorts a copy per call, so `p50/p99/p999` over a large latency vector
/// paid three sorts. Returns estimates in the order of `ps`, using the
/// same interpolation as [`percentile`].
pub fn percentiles(xs: &[f64], ps: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return vec![0.0; ps.len()];
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    ps.iter()
        .map(|p| {
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
        })
        .collect()
}

/// Bootstrap confidence interval for the median of `xs`: resample with
/// replacement `iters` times, take the `(1-confidence)/2` percentiles of
/// the resampled medians. Deterministic for a given `seed`, so two
/// judgements of the same samples agree on every verdict.
///
/// Degenerate inputs collapse gracefully: an empty slice yields
/// `(0.0, 0.0)`, a single sample yields `(x, x)`.
pub fn bootstrap_median_ci(xs: &[f64], iters: usize, confidence: f64, seed: u64) -> (f64, f64) {
    if xs.is_empty() || iters == 0 {
        return (0.0, 0.0);
    }
    let mut rng = Xoshiro256::new(seed);
    let mut buf = vec![0.0f64; xs.len()];
    let mut medians = Vec::with_capacity(iters);
    for _ in 0..iters {
        for slot in buf.iter_mut() {
            *slot = xs[rng.below(xs.len() as u64) as usize];
        }
        medians.push(median_unsorted(&mut buf));
    }
    medians.sort_by(|a, b| a.total_cmp(b));
    let alpha = (1.0 - confidence.clamp(0.0, 1.0)) / 2.0;
    let lo = ((iters as f64 * alpha).floor() as usize).min(iters - 1);
    let hi = (((iters as f64) * (1.0 - alpha)).ceil() as usize)
        .saturating_sub(1)
        .clamp(lo, iters - 1);
    (medians[lo], medians[hi])
}

/// Outcome of a two-sided Mann-Whitney U test over two raw sample
/// vectors.
#[derive(Clone, Copy, Debug)]
pub struct MannWhitney {
    /// The test statistic `min(U1, U2)`.
    pub u: f64,
    /// Tie-corrected, continuity-corrected normal approximation score.
    pub z: f64,
    /// Two-sided p-value under the normal approximation. Small sample
    /// counts bound it away from zero (n1 = n2 = 3 cannot reach 0.05),
    /// which is why [`judge_shift`] also consults bootstrap intervals.
    pub p: f64,
}

/// Two-sided Mann-Whitney U test: does one sample tend to produce larger
/// values than the other? Rank-based, so robust to the heavy right tail
/// benchmark timings have. Ties receive average ranks and the variance
/// uses the standard tie correction. Empty inputs and all-tied inputs
/// report `p = 1.0`.
pub fn mann_whitney(xs: &[f64], ys: &[f64]) -> MannWhitney {
    let (n1, n2) = (xs.len(), ys.len());
    if n1 == 0 || n2 == 0 {
        return MannWhitney {
            u: 0.0,
            z: 0.0,
            p: 1.0,
        };
    }
    // Pool, sort, assign average ranks to tie runs.
    let mut pooled: Vec<(f64, bool)> = xs
        .iter()
        .map(|&v| (v, true))
        .chain(ys.iter().map(|&v| (v, false)))
        .collect();
    pooled.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = n1 + n2;
    let mut rank_sum_x = 0.0f64;
    let mut tie_term = 0.0f64;
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && pooled[j].0 == pooled[i].0 {
            j += 1;
        }
        let run = (j - i) as f64;
        // Ranks are 1-based: positions i..j share the average rank.
        let avg_rank = (i + 1 + j) as f64 / 2.0;
        for item in &pooled[i..j] {
            if item.1 {
                rank_sum_x += avg_rank;
            }
        }
        tie_term += run * run * run - run;
        i = j;
    }
    let u1 = rank_sum_x - (n1 * (n1 + 1)) as f64 / 2.0;
    let u2 = (n1 * n2) as f64 - u1;
    let u = u1.min(u2);
    let mean_u = (n1 * n2) as f64 / 2.0;
    let nf = n as f64;
    let var = (n1 * n2) as f64 / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0).max(1.0)));
    if var <= 0.0 {
        // Every observation tied: the distributions are indistinguishable.
        return MannWhitney { u, z: 0.0, p: 1.0 };
    }
    // Continuity correction pulls |z| toward zero by half a rank unit.
    let z = (u - mean_u + 0.5) / var.sqrt();
    let p = (2.0 * normal_cdf(-z.abs())).min(1.0);
    MannWhitney { u, z, p }
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf
/// approximation (|error| < 1.5e-7 — far below any decision threshold
/// [`judge_shift`] uses).
pub fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = sign * (1.0 - poly * (-x * x).exp());
    0.5 * (1.0 + erf)
}

/// The decision rule of a [`judge_shift`] call.
#[derive(Clone, Copy, Debug)]
pub struct ShiftTest {
    /// Relative median shift that counts (0.05 = 5 %).
    pub threshold: f64,
    /// Mann-Whitney significance level.
    pub alpha: f64,
    /// Samples needed on each side before a shift can be confirmed.
    pub min_samples: usize,
    /// Bootstrap resamples per side.
    pub boot_iters: usize,
    /// Bootstrap confidence level.
    pub confidence: f64,
    /// Bootstrap seed — fixed, so re-judging the same vectors
    /// reproduces the verdict.
    pub boot_seed: u64,
}

/// What two raw sample vectors say about a shift of the median.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShiftVerdict {
    /// Within the threshold, or lower without statistical backing.
    Unchanged,
    /// Higher past the threshold, statistically backed.
    Higher,
    /// Higher past the threshold but not backed — rerun with more
    /// samples before believing it.
    HigherUnconfirmed,
    /// Lower past the threshold, statistically backed.
    Lower,
}

/// The evidence behind a [`ShiftVerdict`].
#[derive(Clone, Copy, Debug)]
pub struct Shift {
    pub median_a: f64,
    pub median_b: f64,
    /// `median_b / median_a - 1` (positive = `b` is higher).
    pub delta: f64,
    /// Two-sided Mann-Whitney p over the raw vectors; `None` when either
    /// side has fewer than two samples.
    pub p_value: Option<f64>,
    /// Bootstrap confidence intervals of the two medians.
    pub ci_a: (f64, f64),
    pub ci_b: (f64, f64),
    pub verdict: ShiftVerdict,
}

/// Has the median moved from sample `a` to sample `b`? A shift counts
/// only when it exceeds `test.threshold` *and* the raw vectors back it
/// up: a Mann-Whitney U test at `test.alpha`, or — because tiny repeat
/// counts bound the U test's p-value away from any usable alpha (n = 3
/// vs 3 cannot reach 0.05) — disjoint bootstrap confidence intervals of
/// the medians, in the direction of the shift. Either way both sides
/// need `test.min_samples` observations (and at least two: a single
/// observation has a point interval, and two points always "separate").
///
/// The decision rule behind the service's in-process regression watch.
pub fn judge_shift(a: &[f64], b: &[f64], test: &ShiftTest) -> Shift {
    let median_a = median(a);
    let median_b = median(b);
    let delta = median_b / median_a.max(1e-12) - 1.0;
    let p_value = (a.len() >= 2 && b.len() >= 2).then(|| mann_whitney(a, b).p);
    let ci_a = bootstrap_median_ci(a, test.boot_iters, test.confidence, test.boot_seed);
    let ci_b = bootstrap_median_ci(b, test.boot_iters, test.confidence, test.boot_seed);
    let enough = a.len().min(b.len()) >= test.min_samples.max(2);
    let significant = p_value.is_some_and(|p| p <= test.alpha);
    let verdict = if delta > test.threshold {
        if enough && (significant || ci_b.0 > ci_a.1) {
            ShiftVerdict::Higher
        } else {
            ShiftVerdict::HigherUnconfirmed
        }
    } else if delta < -test.threshold && enough && (significant || ci_b.1 < ci_a.0) {
        ShiftVerdict::Lower
    } else {
        ShiftVerdict::Unchanged
    };
    Shift {
        median_a,
        median_b,
        delta,
        p_value,
        ci_a,
        ci_b,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_tuple_basic() {
        let v = ns_per_tuple(1_000_000, Duration::from_millis(1));
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn normal_cdf_known_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959964) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.959964) - 0.025).abs() < 1e-4);
        assert!(normal_cdf(6.0) > 0.999999);
    }

    #[test]
    fn mann_whitney_fully_separated() {
        // R1 = 6, U1 = 0, U2 = 9; z = (0 - 4.5 + 0.5)/sqrt(5.25).
        let mw = mann_whitney(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        assert_eq!(mw.u, 0.0);
        assert!((mw.z - (-4.0 / 5.25f64.sqrt())).abs() < 1e-9);
        assert!((mw.p - 0.0809).abs() < 5e-3, "p = {}", mw.p);
    }

    #[test]
    fn mann_whitney_tie_handling() {
        // Pooled [1, 2,2,2, 3,3,3, 4]: the 2-run gets avg rank 3, the
        // 3-run avg rank 6. R1 = 1 + 3 + 3 + 6 = 13, U = min(3, 13) = 3.
        // Tie correction: sum(t^3 - t) = 24 + 24 = 48 over n = 8, so
        // var = (16/12) * (9 - 48/56) and p ≈ 0.172.
        let mw = mann_whitney(&[1.0, 2.0, 2.0, 3.0], &[2.0, 3.0, 3.0, 4.0]);
        assert_eq!(mw.u, 3.0);
        assert!((mw.p - 0.172).abs() < 5e-3, "p = {}", mw.p);
    }

    #[test]
    fn mann_whitney_degenerate_inputs() {
        // Identical samples: no evidence of a shift.
        let mw = mann_whitney(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
        assert!(mw.p > 0.5, "p = {}", mw.p);
        // Every observation tied: variance collapses, p pegs at 1.
        let mw = mann_whitney(&[5.0, 5.0], &[5.0, 5.0]);
        assert_eq!(mw.p, 1.0);
        // Empty side: no test possible.
        assert_eq!(mann_whitney(&[], &[1.0]).p, 1.0);
    }

    #[test]
    fn bootstrap_ci_deterministic_and_ordered() {
        let xs = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.15];
        let a = bootstrap_median_ci(&xs, 2000, 0.95, 42);
        let b = bootstrap_median_ci(&xs, 2000, 0.95, 42);
        assert_eq!(a, b, "same seed, same interval");
        assert!(a.0 <= a.1);
        // The sample median lies inside its own bootstrap interval.
        let m = median(&xs);
        assert!(a.0 <= m && m <= a.1, "{a:?} should contain {m}");
    }

    #[test]
    fn bootstrap_ci_degenerate_inputs() {
        assert_eq!(bootstrap_median_ci(&[], 100, 0.95, 1), (0.0, 0.0));
        assert_eq!(bootstrap_median_ci(&[7.0], 100, 0.95, 1), (7.0, 7.0));
        assert_eq!(
            bootstrap_median_ci(&[3.0, 3.0, 3.0, 3.0], 100, 0.95, 1),
            (3.0, 3.0)
        );
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

    #[test]
    fn percentiles_agree_with_percentile() {
        let xs = [4.0, 1.0, 3.0, 2.0, 9.5, 0.25, 7.0];
        let ps = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
        let batch = percentiles(&xs, &ps);
        for (p, got) in ps.iter().zip(batch.iter()) {
            assert_eq!(*got, percentile(&xs, *p), "p={p}");
        }
        assert_eq!(percentiles(&[], &ps), vec![0.0; ps.len()]);
        assert_eq!(percentiles(&xs, &[]), Vec::<f64>::new());
    }

    #[test]
    fn bootstrap_ci_separates_a_2x_shift() {
        let fast = [1.0, 1.1, 1.05];
        let slow: Vec<f64> = fast.iter().map(|x| x * 2.0).collect();
        let ci_fast = bootstrap_median_ci(&fast, 2000, 0.95, 7);
        let ci_slow = bootstrap_median_ci(&slow, 2000, 0.95, 7);
        assert!(
            ci_slow.0 > ci_fast.1,
            "2x-shifted intervals must be disjoint: {ci_fast:?} vs {ci_slow:?}"
        );
    }

    #[test]
    fn median_unsorted_agrees_with_median() {
        for xs in [
            vec![3.0],
            vec![4.0, 1.0],
            vec![3.0, 1.0, 2.0],
            vec![4.0, 1.0, 2.0, 3.0],
            vec![5.0, 5.0, 1.0, 9.0, 5.0, 0.5],
        ] {
            let want = median(&xs);
            assert_eq!(median_unsorted(&mut xs.clone()), want, "{xs:?}");
        }
    }

    #[test]
    fn judge_shift_known_answers() {
        let test = ShiftTest {
            threshold: 0.05,
            alpha: 0.05,
            min_samples: 2,
            boot_iters: 2000,
            confidence: 0.95,
            boot_seed: 7,
        };
        let fast = [1.0, 1.1, 1.05];
        let slow = [2.0, 2.2, 2.1];
        // 2x slower over 3 v 3: the U test cannot reach 0.05 (p = 0.081)
        // but the bootstrap intervals are disjoint.
        let s = judge_shift(&fast, &slow, &test);
        assert_eq!(s.verdict, ShiftVerdict::Higher);
        assert_eq!((s.median_a, s.median_b), (1.05, 2.1));
        assert!((s.delta - 1.0).abs() < 1e-12);
        assert!((s.p_value.unwrap() - 0.0809).abs() < 5e-3);
        assert!(s.ci_b.0 > s.ci_a.1);
        assert_eq!(
            judge_shift(&slow, &fast, &test).verdict,
            ShiftVerdict::Lower
        );
        assert_eq!(
            judge_shift(&fast, &fast, &test).verdict,
            ShiftVerdict::Unchanged
        );
        // +4 % is inside the threshold however significant.
        let nudged: Vec<f64> = fast.iter().map(|x| x * 1.04).collect();
        assert_eq!(
            judge_shift(&fast, &nudged, &test).verdict,
            ShiftVerdict::Unchanged
        );
        // One observation a side: past the threshold, never confirmed.
        let s = judge_shift(&[1.0], &[2.0], &test);
        assert_eq!(s.verdict, ShiftVerdict::HigherUnconfirmed);
        assert_eq!(s.p_value, None);
        assert_eq!(
            judge_shift(&[2.0], &[1.0], &test).verdict,
            ShiftVerdict::Unchanged
        );
        // Overlapping noise around a +10 % median: past the threshold,
        // neither bar cleared.
        let a = [1.0, 1.3, 0.8, 1.1, 0.9];
        let b = [1.1, 0.85, 1.4, 0.95, 1.2];
        assert_eq!(
            judge_shift(&a, &b, &test).verdict,
            ShiftVerdict::HigherUnconfirmed
        );
        // The same 2x shift below the caller's sample floor.
        let strict = ShiftTest {
            min_samples: 8,
            ..test
        };
        assert_eq!(
            judge_shift(&fast, &slow, &strict).verdict,
            ShiftVerdict::HigherUnconfirmed
        );
    }
}
