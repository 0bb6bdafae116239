//! Zipf-distributed key generator after Gray et al.,
//! "Quickly Generating Billion-Record Synthetic Databases" (SIGMOD'94).
//!
//! The paper's skew experiments (Appendix A) use exactly this algorithm,
//! plus one twist: "to achieve a more realistic distribution and to avoid
//! that the keys occurring most often are all in a single partition, we
//! map the 10 smallest keys to random keys in the full domain."

use mmjoin_util::rng::Xoshiro256;
use mmjoin_util::{Placement, Relation, Tuple};

/// Number of hottest ranks remapped to random domain positions.
const HOT_REMAP: usize = 10;

/// Incrementally computable generalized harmonic number Σ 1/i^theta.
fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

/// A Zipf(θ) generator over ranks `1..=n` using Gray et al.'s constant-time
/// inverse-CDF approximation.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Create a generator over `n` ranks with skew `theta ∈ [0, 1)`.
    /// `theta == 0` degenerates to uniform.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        // Note: exact zeta is O(n) once per generator; for the domains in
        // this study (≤ 2^31) that is a small, one-off setup cost compared
        // to generating the billions of samples drawn from it.
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Draw one rank in `1..=n`; rank 1 is the most frequent.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256) -> u64 {
        if self.theta == 0.0 {
            return rng.below(self.n) + 1;
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 1;
        }
        if self.n >= 2 && uz < 1.0 + 0.5f64.powf(self.theta) {
            return 2;
        }
        let rank = 1.0 + self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha);
        (rank as u64).clamp(1, self.n)
    }

    #[inline]
    pub fn domain(&self) -> u64 {
        self.n
    }
}

/// Generate a skewed probe relation: `n` tuples with Zipf(θ)-distributed
/// keys over `1..=domain`, with the `HOT_REMAP` hottest ranks scattered to
/// random keys in the full domain (Appendix A), payload = row id.
pub fn gen_probe_zipf(
    n: usize,
    domain: usize,
    theta: f64,
    seed: u64,
    placement: Placement,
) -> Relation {
    let zipf = Zipf::new(domain as u64, theta);
    let mut rng = Xoshiro256::new(seed ^ 0x5151_5151_5151_5151);
    // Remap table for the hottest ranks.
    let hot: Vec<u32> = (0..HOT_REMAP)
        .map(|_| rng.below(domain as u64) as u32 + 1)
        .collect();
    Relation::from_fn(n, placement, |i| {
        let rank = zipf.sample(&mut rng);
        let key = if rank as usize <= HOT_REMAP && domain > HOT_REMAP {
            hot[rank as usize - 1]
        } else {
            rank as u32
        };
        Tuple::new(key, i as u32)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(100, 0.0);
        let mut rng = Xoshiro256::new(1);
        let mut counts = vec![0usize; 101];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Every rank around 1000 hits.
        for &c in &counts[1..] {
            assert!((600..1400).contains(&c), "count {c}");
        }
    }

    #[test]
    fn skew_concentrates_mass() {
        let z = Zipf::new(1_000_000, 0.99);
        let mut rng = Xoshiro256::new(2);
        let samples = 100_000;
        let mut top100 = 0usize;
        for _ in 0..samples {
            if z.sample(&mut rng) <= 100 {
                top100 += 1;
            }
        }
        // At theta=0.99 the top 100 of 1M ranks carry a large share
        // (analytically ~37%); uniform would give 0.01%.
        assert!(
            top100 as f64 / samples as f64 > 0.25,
            "top100 share {}",
            top100 as f64 / samples as f64
        );
    }

    #[test]
    fn moderate_skew_between_uniform_and_high() {
        let mut shares = Vec::new();
        for theta in [0.0, 0.5, 0.9] {
            let z = Zipf::new(100_000, theta);
            let mut rng = Xoshiro256::new(3);
            let mut top10 = 0usize;
            for _ in 0..50_000 {
                if z.sample(&mut rng) <= 10 {
                    top10 += 1;
                }
            }
            shares.push(top10 as f64 / 50_000.0);
        }
        assert!(shares[0] < shares[1] && shares[1] < shares[2], "{shares:?}");
    }

    #[test]
    fn rank_one_is_most_frequent() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = Xoshiro256::new(4);
        let mut counts = vec![0usize; 1001];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert_eq!(max, 1);
        assert!(counts[1] > counts[10] && counts[10] > counts[100]);
    }

    #[test]
    fn samples_stay_in_domain() {
        for theta in [0.0, 0.51, 0.99] {
            let z = Zipf::new(50, theta);
            let mut rng = Xoshiro256::new(5);
            for _ in 0..10_000 {
                let s = z.sample(&mut rng);
                assert!((1..=50).contains(&s), "theta={theta} s={s}");
            }
        }
    }

    #[test]
    fn probe_zipf_keys_in_domain_and_deterministic() {
        let a = gen_probe_zipf(5_000, 1_000, 0.9, 7, Placement::Interleaved);
        let b = gen_probe_zipf(5_000, 1_000, 0.9, 7, Placement::Interleaved);
        assert_eq!(a.tuples(), b.tuples());
        assert!(a.tuples().iter().all(|t| t.key >= 1 && t.key <= 1000));
    }

    #[test]
    fn hot_keys_are_scattered() {
        // After remapping, the most frequent key should NOT be key 1
        // with overwhelming probability (it is a random domain position).
        let r = gen_probe_zipf(50_000, 100_000, 0.99, 11, Placement::Interleaved);
        let mut counts = std::collections::HashMap::new();
        for t in r.tuples() {
            *counts.entry(t.key).or_insert(0usize) += 1;
        }
        let (&hottest, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        assert!(hottest > 10, "hottest key {hottest} was not remapped");
    }
}
