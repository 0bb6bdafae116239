//! Property-based tests (proptest) on the core invariants:
//!
//! * every join algorithm ≡ the reference join on arbitrary key multisets,
//! * radix partitioning is a digit-respecting permutation,
//! * the CHT answers exactly like a `HashMap`,
//! * Equation (1) respects its cache-budget contract,
//! * sort substrate ≡ `sort_unstable`.

use proptest::prelude::*;

use mmjoin::core::reference::reference_join;
use mmjoin::core::{Algorithm, Join, JoinConfig};
use mmjoin::hashtable::ConciseHashTable;
use mmjoin::partition::{partition_parallel_on, RadixFn, ScatterMode};
use mmjoin::sort::mergesort::sort_packed;
use mmjoin::util::pool::ScopedPool;
use mmjoin::util::{Placement, Relation, Tuple};

fn tuples_strategy(max_len: usize, key_range: u32) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((1u32..=key_range, 0u32..1_000_000), 0..max_len)
        .prop_map(|v| v.into_iter().map(|(k, p)| Tuple::new(k, p)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn joins_match_reference_on_arbitrary_multisets(
        r_tuples in tuples_strategy(300, 64),
        s_tuples in tuples_strategy(600, 96),
        threads in 1usize..5,
    ) {
        let r = Relation::from_tuples(&r_tuples, Placement::Interleaved);
        let s = Relation::from_tuples(&s_tuples, Placement::Interleaved);
        let expect = reference_join(&r, &s);
        // NOPA/PRA/CPRA require unique keys; test the multiset-tolerant
        // algorithms here (uniqueness is covered by the dense workloads).
        for alg in [
            Algorithm::Nop,
            Algorithm::Chtj,
            Algorithm::Mway,
            Algorithm::Prb,
            Algorithm::Pro,
            Algorithm::Prl,
            Algorithm::ProIs,
            Algorithm::PrlIs,
            Algorithm::Cprl,
        ] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            cfg.radix_bits = Some(4);
            cfg.key_domain = 96;
            let res = Join::new(alg).with_config(cfg).run(&r, &s).expect("valid plan");
            prop_assert_eq!(res.matches, expect.count, "{}", alg.name());
            prop_assert_eq!(res.checksum, expect.digest, "{}", alg.name());
        }
    }

    /// The chained-table joins probe every match of a build side whose
    /// keys repeat: over build keys held `copies` times each, they must
    /// produce the whole cross product under the default configuration,
    /// at the drivers' own radix bits (PRB: 2 x 7).
    #[test]
    fn chained_joins_find_every_match_of_repeated_build_keys(
        keys in 1u32..400,
        copies in 2u32..5,
        s_tuples in tuples_strategy(2_000, 420),
        threads in 1usize..4,
    ) {
        let r_tuples: Vec<Tuple> = (0..keys * copies)
            .map(|i| Tuple::new(i % keys + 1, i))
            .collect();
        let r = Relation::from_tuples(&r_tuples, Placement::Interleaved);
        let s = Relation::from_tuples(&s_tuples, Placement::Interleaved);
        let expect = reference_join(&r, &s);
        let present = s_tuples.iter().filter(|t| t.key <= keys).count() as u64;
        prop_assert_eq!(expect.count, present * copies as u64);
        for alg in [Algorithm::Pro, Algorithm::ProIs, Algorithm::Prb] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            let res = Join::new(alg).with_config(cfg).run(&r, &s).expect("valid plan");
            prop_assert_eq!(res.matches, expect.count, "{}", alg.name());
            prop_assert_eq!(res.checksum, expect.digest, "{}", alg.name());
        }
    }

    #[test]
    fn partitioning_is_a_digit_respecting_permutation(
        tuples in tuples_strategy(800, u32::MAX - 1),
        bits in 1u32..8,
        threads in 1usize..5,
    ) {
        let f = RadixFn::new(bits);
        let pr = partition_parallel_on(&tuples, f, &ScopedPool::new(threads), ScatterMode::Swwcb);
        // Digits respected.
        for p in 0..pr.parts() {
            for t in pr.partition(p) {
                prop_assert_eq!(f.part(t.key), p);
            }
        }
        // Permutation.
        let mut a: Vec<u64> = tuples.iter().map(|t| t.pack()).collect();
        let mut b: Vec<u64> = pr.all_tuples().iter().map(|t| t.pack()).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn cht_equals_hashmap(
        tuples in tuples_strategy(500, 200),
        probes in prop::collection::vec(1u32..=220, 0..100),
        threads in 1usize..5,
    ) {
        use std::collections::HashMap;
        let cht = ConciseHashTable::<mmjoin::hashtable::MultiplicativeHash>::build(&tuples, threads);
        let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
        for t in &tuples {
            map.entry(t.key).or_default().push(t.payload);
        }
        for key in probes {
            let mut got = Vec::new();
            cht.probe(key, |p| got.push(p));
            got.sort_unstable();
            let mut want = map.get(&key).cloned().unwrap_or_default();
            want.sort_unstable();
            prop_assert_eq!(got, want, "key {}", key);
        }
    }

    #[test]
    fn sort_substrate_equals_std_sort(mut data in prop::collection::vec(any::<u64>(), 0..2000)) {
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut scratch = mmjoin::util::alloc::AlignedVec::new();
        sort_packed(&mut data, &mut scratch);
        prop_assert_eq!(data, expect);
    }

    #[test]
    fn equation_one_tables_respect_cache_budget(
        r_log in 14u32..31,
        llc_t in (1usize << 18)..(1usize << 23),
    ) {
        use mmjoin::partition::{predict_radix_bits, BitsInput};
        let r = 1usize << r_log;
        let input = BitsInput::paper_defaults(r, llc_t);
        let bits = predict_radix_bits(&input);
        // Contract: the per-partition table fits whichever cache the
        // branch targeted (L2 or the per-thread LLC share) within the
        // ceil-rounding slack of one doubling.
        let table_bytes = r as f64 * 8.0 / 0.5 / 2f64.powi(bits as i32);
        prop_assert!(
            table_bytes <= llc_t.max(256 * 1024) as f64 * 2.0,
            "r=2^{} bits={} table={}",
            r_log, bits, table_bytes
        );
    }
}
