//! Foreign-key probe relations.

use mmjoin_util::rng::Xoshiro256;
use mmjoin_util::{Placement, Relation, Tuple};

/// Generate a probe relation of `n` tuples whose keys are drawn uniformly
/// from the dense build domain `1..=build_n`; payload = row id.
pub fn gen_probe_fk(n: usize, build_n: usize, seed: u64, placement: Placement) -> Relation {
    assert!(build_n > 0 || n == 0, "probe into empty build domain");
    let mut rng = Xoshiro256::new(seed ^ 0xF0E1_D2C3_B4A5_9687);
    Relation::from_fn(n, placement, |i| {
        Tuple::new(rng.below(build_n as u64) as u32 + 1, i as u32)
    })
}

/// Generate a probe relation drawing keys uniformly from an explicit key
/// set (used for sparse-domain workloads, where the FK must reference
/// existing keys only).
pub fn gen_probe_of_keys(n: usize, keys: &[u32], seed: u64, placement: Placement) -> Relation {
    assert!(!keys.is_empty() || n == 0);
    let mut rng = Xoshiro256::new(seed ^ 0x1234_5678_9ABC_DEF0);
    Relation::from_fn(n, placement, |i| {
        Tuple::new(keys[rng.below(keys.len() as u64) as usize], i as u32)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fk_keys_in_domain() {
        let s = gen_probe_fk(10_000, 100, 3, Placement::Interleaved);
        assert!(s.tuples().iter().all(|t| t.key >= 1 && t.key <= 100));
    }

    #[test]
    fn fk_covers_domain() {
        // With 10k draws over 100 keys, every key should appear.
        let s = gen_probe_fk(10_000, 100, 3, Placement::Interleaved);
        let mut seen = [false; 101];
        for t in s.tuples() {
            seen[t.key as usize] = true;
        }
        assert!(seen[1..].iter().all(|&b| b));
    }

    #[test]
    fn fk_roughly_uniform() {
        let s = gen_probe_fk(100_000, 10, 11, Placement::Interleaved);
        let mut counts = [0usize; 11];
        for t in s.tuples() {
            counts[t.key as usize] += 1;
        }
        for &c in &counts[1..] {
            // Each key expects 10_000 hits; allow 15% deviation.
            assert!((8_500..11_500).contains(&c), "count {c}");
        }
    }

    #[test]
    fn of_keys_only_draws_given_keys() {
        let keys = [5u32, 500, 50_000];
        let s = gen_probe_of_keys(1000, &keys, 9, Placement::Interleaved);
        assert!(s.tuples().iter().all(|t| keys.contains(&t.key)));
    }

    #[test]
    fn payloads_are_row_ids() {
        let s = gen_probe_fk(100, 10, 1, Placement::Interleaved);
        for (i, t) in s.tuples().iter().enumerate() {
            assert_eq!(t.payload as usize, i);
        }
    }
}
