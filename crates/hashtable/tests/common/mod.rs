//! What the differential suites of this crate share: reference
//! semantics and build / probe-key generators.

use mmjoin_util::rng::Xoshiro256;
use mmjoin_util::tuple::{Key, Payload, Tuple};

/// Reference semantics: the multiset of payloads per key, sorted (the
/// crate-private `test_support::reference_probe`).
pub fn reference_probe(tuples: &[Tuple], key: Key) -> Vec<Payload> {
    let mut v: Vec<Payload> = tuples
        .iter()
        .filter(|t| t.key == key)
        .map(|t| t.payload)
        .collect();
    v.sort_unstable();
    v
}

/// `n` tuples over keys `1..=keys`, payloads `0..n`.
pub fn multiset(n: usize, keys: u32, seed: u64) -> Vec<Tuple> {
    let mut rng = Xoshiro256::new(seed);
    (0..n)
        .map(|i| Tuple::new(rng.below(keys as u64) as u32 + 1, i as u32))
        .collect()
}

/// Every build key and `extra` keys past the largest, none twice,
/// thinned to about `to` of them.
pub fn keys_around(tuples: &[Tuple], extra: u32, to: usize) -> Vec<Key> {
    let mut keys: Vec<Key> = tuples.iter().map(|t| t.key).collect();
    let top = keys.iter().copied().max().unwrap_or(0);
    keys.extend(top + 1..=top + extra);
    keys.sort_unstable();
    keys.dedup();
    let step = keys.len().div_ceil(to).max(1);
    keys.into_iter().step_by(step).collect()
}
