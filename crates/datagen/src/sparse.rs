//! Sparse ("holes in the key range") build relations, Appendix C.
//!
//! The build relation holds `n` *distinct* keys drawn from the domain
//! `1..=k·n`. At `k == 1` this degenerates to the dense workload; larger
//! `k` punches holes into the domain, growing the arrays of the
//! array-join variants by `k×`.

use mmjoin_util::rng::Xoshiro256;
use mmjoin_util::{Placement, Relation, Tuple};

/// Generate a sparse build relation: `n` distinct keys uniformly sampled
/// (without replacement) from `1..=domain`, shuffled, payload = row id.
/// Returns the relation and the sorted key set (for FK generation).
///
/// Sampling uses the sequential selection method (Fan et al. / Knuth
/// Algorithm S): one pass over the domain, selecting each element with
/// probability `needed / remaining` — O(domain) time, O(n) space, exact.
pub fn gen_build_sparse(
    n: usize,
    domain: usize,
    seed: u64,
    placement: Placement,
) -> (Relation, Vec<u32>) {
    assert!(domain >= n, "domain must hold n distinct keys");
    let mut rng = Xoshiro256::new(seed ^ 0xACE1_ACE1_ACE1_ACE1);
    let mut keys = Vec::with_capacity(n);
    let mut needed = n as u64;
    let mut remaining = domain as u64;
    for candidate in 1..=domain as u64 {
        if needed == 0 {
            break;
        }
        // Select with probability needed/remaining.
        if rng.below(remaining) < needed {
            keys.push(candidate as u32);
            needed -= 1;
        }
        remaining -= 1;
    }
    debug_assert_eq!(keys.len(), n);
    let sorted_keys = keys.clone();
    let mut tuples: Vec<Tuple> = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| Tuple::new(k, i as u32))
        .collect();
    rng.shuffle(&mut tuples);
    (
        Relation::from_unique_tuples(&tuples, placement),
        sorted_keys,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_count_distinct_in_domain() {
        let (r, keys) = gen_build_sparse(1000, 10_000, 5, Placement::Interleaved);
        assert_eq!(r.len(), 1000);
        assert_eq!(keys.len(), 1000);
        let mut set = std::collections::HashSet::new();
        for t in r.tuples() {
            assert!(t.key >= 1 && t.key <= 10_000);
            assert!(set.insert(t.key), "duplicate {}", t.key);
        }
    }

    #[test]
    fn keys_list_matches_relation() {
        let (r, keys) = gen_build_sparse(500, 5_000, 9, Placement::Interleaved);
        let mut from_rel: Vec<u32> = r.tuples().iter().map(|t| t.key).collect();
        from_rel.sort_unstable();
        assert_eq!(from_rel, keys);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys sorted/distinct");
    }

    #[test]
    fn k_equals_one_is_dense() {
        let (r, keys) = gen_build_sparse(100, 100, 1, Placement::Interleaved);
        assert_eq!(keys, (1..=100u32).collect::<Vec<_>>());
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let (_, keys) = gen_build_sparse(10_000, 100_000, 13, Placement::Interleaved);
        // Count keys in each decile of the domain.
        let mut deciles = [0usize; 10];
        for &k in &keys {
            deciles[((k - 1) / 10_000) as usize] += 1;
        }
        for &d in &deciles {
            assert!((800..1200).contains(&d), "decile count {d}");
        }
    }

    #[test]
    fn deterministic() {
        let (a, ka) = gen_build_sparse(100, 1000, 3, Placement::Interleaved);
        let (b, kb) = gen_build_sparse(100, 1000, 3, Placement::Interleaved);
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!(ka, kb);
    }
}
