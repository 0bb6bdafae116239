//! Reference join for correctness verification.
//!
//! A deliberately boring single-threaded hash join: every one of the
//! thirteen algorithms must produce exactly this checksum and match count
//! on every workload.
//!
//! R is held flat, with the paper's histogram → prefix sum → scatter
//! pattern: one pass counts R's rows per bucket, a prefix sum turns the
//! counts into bucket ends, and a second pass scatters R into one
//! `Vec<Tuple>` grouped by bucket, filling each bucket from its end so
//! that the same array ends up holding the bucket starts. There are
//! `next_pow2(|R|)` buckets, chosen by the top bits of a multiplicative
//! hash: the key's own top bits would put a dense key domain into the
//! first few buckets, and its low bits every multiple of a large power
//! of two into one. Each S tuple then walks its bucket's slice and
//! compares keys.
//!
//! The whole table is two allocations, freed when the join returns:
//! 8 B a row of R plus 4 B a bucket (`next_pow2(|R|) + 1` offsets),
//! ≈ 72 MiB at 5 Mi rows. `tests/oracle_footprint.rs` pins that bound
//! on the heap.

use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::{Relation, Tuple};

/// The bucket of `key` among `2^bits` buckets: the top `bits` bits of a
/// 64-bit multiplicative (Fibonacci) hash.
#[inline]
fn bucket(key: u32, bits: u32) -> usize {
    let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h.checked_shr(64 - bits).unwrap_or(0) as usize
}

/// Join `r ⋈ s` on key and return the verification checksum.
pub fn reference_join(r: &Relation, s: &Relation) -> JoinChecksum {
    let rows = r.tuples();
    assert!(
        u32::try_from(rows.len()).is_ok(),
        "the reference join offsets R's rows in u32"
    );
    let buckets = rows.len().next_power_of_two();
    let bits = buckets.trailing_zeros();

    // `ends[b]` counts bucket b's rows, then (prefix sum) is its end.
    let mut ends = vec![0u32; buckets + 1];
    for t in rows {
        ends[bucket(t.key, bits)] += 1;
    }
    let mut sum = 0;
    for e in &mut ends {
        sum += *e;
        *e = sum;
    }
    // Fill each bucket from its end: afterwards `ends[b]` is bucket b's
    // start and `ends[b + 1]` its end (the last entry stays |R|).
    let mut table = vec![Tuple::default(); rows.len()];
    for &t in rows {
        let e = &mut ends[bucket(t.key, bits)];
        *e -= 1;
        table[*e as usize] = t;
    }

    let mut c = JoinChecksum::new();
    for t in s.tuples() {
        let b = bucket(t.key, bits);
        for bt in &table[ends[b] as usize..ends[b + 1] as usize] {
            if bt.key == t.key {
                c.add(t.key, bt.payload, t.payload);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk, gen_probe_zipf};
    use mmjoin_util::Placement;
    use proptest::prelude::*;

    fn rel(tuples: &[Tuple]) -> Relation {
        Relation::from_tuples(tuples, Placement::Interleaved)
    }

    /// Every pair of tuples compared: the oracle's own oracle.
    fn nested_loop(r: &[Tuple], s: &[Tuple]) -> JoinChecksum {
        let mut c = JoinChecksum::new();
        for st in s {
            for rt in r.iter().filter(|rt| rt.key == st.key) {
                c.add(st.key, rt.payload, st.payload);
            }
        }
        c
    }

    fn tuples(keys: &[u32]) -> Vec<Tuple> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u32))
            .collect()
    }

    #[test]
    fn counts_cross_products() {
        let r = Relation::from_tuples(
            &[Tuple::new(1, 10), Tuple::new(1, 11), Tuple::new(2, 20)],
            Placement::Interleaved,
        );
        let s = Relation::from_tuples(
            &[Tuple::new(1, 100), Tuple::new(1, 101), Tuple::new(3, 300)],
            Placement::Interleaved,
        );
        let c = reference_join(&r, &s);
        assert_eq!(c.count, 4); // 2 build × 2 probe matches on key 1
    }

    #[test]
    fn empty_sides() {
        let empty = Relation::from_tuples(&[], Placement::Interleaved);
        let r = Relation::from_tuples(&[Tuple::new(1, 0)], Placement::Interleaved);
        assert_eq!(reference_join(&empty, &r).count, 0);
        assert_eq!(reference_join(&r, &empty).count, 0);
    }

    #[test]
    fn tiny_build_sides_and_extreme_keys() {
        let s = tuples(&[0, u32::MAX, 1, 0, u32::MAX, 7, 2]);
        for r in [
            &[][..],
            &[0],
            &[u32::MAX],
            &[0, u32::MAX],
            &[u32::MAX, u32::MAX],
            &[0, 1, u32::MAX],
            &[7, 7, 7],
        ] {
            let r = tuples(r);
            let got = reference_join(&rel(&r), &rel(&s));
            assert_eq!(got, nested_loop(&r, &s), "R keys {r:?}");
        }
    }

    #[test]
    fn keys_that_share_one_bucket() {
        // 32 keys of bucket 0, each twice: 64 rows, so 64 buckets.
        let bits = 6;
        let mut keys: Vec<u32> = (0..).filter(|&k| bucket(k, bits) == 0).take(32).collect();
        keys.extend_from_slice(&keys.clone());
        let r = tuples(&keys);
        let s = tuples(&[keys[0], keys[31], keys[5], 1 + keys[31], keys[5]]);
        let got = reference_join(&rel(&r), &rel(&s));
        assert_eq!(got.count, 8);
        assert_eq!(got, nested_loop(&r, &s));
    }

    /// `(count, digest)` of the `HashMap<u32, Vec<u32>>` oracle this one
    /// replaced, on the same inputs.
    #[test]
    fn answers_as_the_map_oracle_did() {
        let p = Placement::Interleaved;
        let fk = reference_join(
            &gen_build_dense(256 << 10, 1, p),
            &gen_probe_fk(1 << 20, 256 << 10, 2, p),
        );
        assert_eq!(
            (fk.count, fk.digest),
            (1_048_576, 18_208_839_130_416_639_751)
        );

        let n = 64 << 10;
        let twice = Relation::from_fn(2 * n, p, |i| Tuple::new((i % n) as u32 + 1, i as u32));
        let dup = reference_join(&twice, &gen_probe_fk(256 << 10, n, 3, p));
        assert_eq!(
            (dup.count, dup.digest),
            (524_288, 13_096_378_869_832_717_786)
        );

        let zipf = reference_join(
            &gen_build_dense(n, 4, p),
            &gen_probe_zipf(1 << 20, n, 0.99, 5, p),
        );
        assert_eq!(
            (zipf.count, zipf.digest),
            (1_048_576, 5_101_366_190_579_196_960)
        );
    }

    fn keys_strategy(max_len: usize) -> impl Strategy<Value = Vec<Tuple>> {
        // A narrow domain repeats keys on both sides, and the extreme
        // keys repeat too; the odd draw over all of `u32` reaches any
        // hash bits.
        prop::collection::vec((0u32..44, any::<u32>(), 0u32..1_000_000), 0..max_len).prop_map(|v| {
            v.into_iter()
                .map(|(k, wide, p)| {
                    let key = match k {
                        40 => 0,
                        41 => u32::MAX,
                        42 => 1 << 31,
                        43 => wide,
                        k => k + 1,
                    };
                    Tuple::new(key, p)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn equals_a_nested_loop_on_arbitrary_multisets(
            r in keys_strategy(200),
            few in keys_strategy(6),
            s in keys_strategy(300),
        ) {
            prop_assert_eq!(reference_join(&rel(&r), &rel(&s)), nested_loop(&r, &s));
            // A few rows make a few buckets, where distinct keys meet.
            prop_assert_eq!(reference_join(&rel(&few), &rel(&s)), nested_loop(&few, &s));
        }
    }
}
