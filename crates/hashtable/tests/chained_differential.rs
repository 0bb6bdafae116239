//! Differential tests of the bucket-chaining table against the reference
//! multiset of payloads per key: every build shape that reaches a
//! boundary of the layout (no tuples, one tuple, a dense radix partition
//! hashed above its digits, a capacity that is not a power of two, one
//! long chain, a table grown from nothing, a capacity exactly reached) ×
//! kernel modes × all-matches / first-match probes, batched and one by
//! one, built batched and one by one. These are also what walks the
//! unfilled tuple and link regions under Miri, where the builds shrink
//! and only the portable mode runs.

mod common;

use std::sync::Mutex;

use mmjoin_hashtable::{IdentityHash, JoinTable, StChainedTable, TableSpec};
use mmjoin_util::kernels::{with_mode, KernelMode};
use mmjoin_util::tuple::{Key, Payload, Tuple};
use proptest::prelude::*;

use common::{keys_around, multiset, reference_probe};

type Table = StChainedTable<IdentityHash>;

const CASES: u32 = if cfg!(miri) { 2 } else { 32 };
const MODES: &[KernelMode] = if cfg!(miri) {
    &[KernelMode::Portable]
} else {
    &[KernelMode::Portable, KernelMode::Simd]
};
/// Tuples of the larger builds.
const N: usize = if cfg!(miri) { 96 } else { 4096 };

/// `with_mode` sets a process-wide cell; the tests of this file take
/// turns at it.
static MODE: Mutex<()> = Mutex::new(());

/// The `n` smallest keys of radix partition `digit` under `bits` low
/// bits, each once: what a dense primary key leaves in one partition.
fn partition_keys(n: usize, bits: u32, digit: u32) -> Vec<Tuple> {
    let first = if digit == 0 { 1 } else { 0 };
    (first..first + n as u32)
        .map(|i| Tuple::new((i << bits) | digit, i ^ 0x5a5a))
        .collect()
}

/// Build `tuples` into a table of `spec` — batched and one by one — and
/// probe every key of `probes`, in both kernel modes, all-matches and
/// first-match, batched and one by one.
fn assert_matches_reference(what: &str, spec: TableSpec, tuples: &[Tuple], probes: &[Key]) {
    let n = tuples.len();
    let probes: Vec<Tuple> = probes
        .iter()
        .enumerate()
        .map(|(i, &k)| Tuple::new(k, i as u32))
        .collect();
    // Build payloads reported for probe number `id`, in report order.
    let of = |hits: &[(Payload, Payload)], id: Payload| -> Vec<Payload> {
        hits.iter().filter(|h| h.0 == id).map(|h| h.1).collect()
    };
    // A bucket's population: the table hashes `key >> key_shift` by
    // identity over `next_pow2` of the capacity it ends up with.
    let heads = spec.capacity.max(n).max(1).next_power_of_two() as u32;
    let bucket = |k: Key| (k >> spec.key_shift) & (heads - 1);
    let population = |k: Key| tuples.iter().filter(|t| bucket(t.key) == bucket(k)).count();

    let _turn = MODE.lock().unwrap_or_else(|e| e.into_inner());
    for &mode in MODES {
        for batched in [true, false] {
            let at = format!("{what}, n={n}, {mode:?}, batched build={batched}");
            with_mode(mode, || {
                let mut table = Table::with_spec(&spec);
                if batched {
                    // Two batches, so the second appends to a part-full table.
                    let (a, b) = tuples.split_at(n / 3);
                    table.insert_batch(a);
                    table.insert_batch(b);
                } else {
                    tuples.iter().for_each(|&t| table.insert(t));
                }
                assert_eq!(table.len(), n, "{at}");
                assert_eq!(table.is_empty(), n == 0, "{at}");
                assert!(table.memory_bytes() >= 12 * n, "{at}");

                let mut all = Vec::new();
                JoinTable::probe_batch(&table, &probes, false, |p, bp| all.push((p.payload, bp)));
                let mut first = Vec::new();
                JoinTable::probe_batch(&table, &probes, true, |p, bp| first.push((p.payload, bp)));

                for p in &probes {
                    let at = format!("{at}, key {}", p.key);
                    let expect = reference_probe(tuples, p.key);
                    let mut got = of(&all, p.payload);
                    let mut scalar = Vec::new();
                    table.probe(p.key, |bp| scalar.push(bp));
                    assert_eq!(got, scalar, "{at}, batched vs one by one");
                    got.sort_unstable();
                    assert_eq!(got, expect, "{at}");

                    let one = of(&first, p.payload);
                    assert_eq!(one.len(), expect.len().min(1), "{at}, first match");
                    // The chain is walked newest first.
                    assert_eq!(one.first(), scalar.first(), "{at}, first match");
                    let mut unique = Vec::new();
                    table.probe_unique(p.key, |bp| unique.push(bp));
                    assert_eq!(one, unique, "{at}, probe_unique");

                    assert_eq!(table.chain_len(p.key), population(p.key), "{at}");
                }
            });
        }
    }
}

#[test]
fn chained_every_layout_boundary() {
    let pow2 = N.next_power_of_two();
    let builds: Vec<(&str, TableSpec, Vec<Tuple>)> = vec![
        ("empty", TableSpec::hashed(0), vec![]),
        ("empty, sized", TableSpec::hashed(N), vec![]),
        ("one tuple", TableSpec::hashed(1), vec![Tuple::new(9, 1)]),
        (
            "dense, unpartitioned",
            TableSpec::hashed_partition(pow2, 0),
            partition_keys(pow2, 0, 0),
        ),
        (
            "dense, 6 radix bits",
            TableSpec::hashed_partition(pow2, 6),
            partition_keys(pow2, 6, 37),
        ),
        (
            "dense, 14 radix bits",
            TableSpec::hashed_partition(pow2, 14),
            partition_keys(pow2, 14, 0x2aaa),
        ),
        (
            "not a power of two",
            TableSpec::hashed_partition(pow2 + 17, 6),
            partition_keys(pow2 + 17, 6, 5),
        ),
        (
            "one key a hundred times",
            TableSpec::hashed(100),
            (0..100).map(|i| Tuple::new(77, i)).collect(),
        ),
        (
            "multiset",
            TableSpec::hashed(N),
            multiset(N, N as u32 / 3, 5),
        ),
        (
            "grown from nothing",
            TableSpec::hashed(0),
            partition_keys(1000.min(4 * N), 0, 0),
        ),
        (
            "capacity exactly reached",
            TableSpec::hashed(pow2 - 1),
            multiset(pow2 - 1, pow2 as u32, 6),
        ),
    ];
    for (what, spec, tuples) in builds {
        // Present and absent keys, and absent ones that share a bucket
        // or a partition with present ones.
        let mut probes = keys_around(&tuples, 40, 300);
        let near: Vec<Key> = probes.iter().take(20).map(|k| k.wrapping_add(1)).collect();
        probes.extend(near);
        assert_matches_reference(what, spec, &tuples, &probes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn chained_equals_reference_multiset(
        n in 0..=(if cfg!(miri) { 200usize } else { 6_000 }),
        keys in 1u32..3000,
        bits in 0u32..8,
        // Under-sized specs grow; over-sized ones leave buckets empty.
        sized in 0usize..3,
        seed in any::<u64>(),
    ) {
        let tuples: Vec<Tuple> = multiset(n, keys, seed)
            .into_iter()
            .map(|t| Tuple::new((t.key << bits) | 1, t.payload))
            .collect();
        let spec = TableSpec::hashed_partition([0, n, 2 * n + 3][sized], bits);
        let probes: Vec<Key> = (0..=keys.min(250) + 5).map(|k| (k << bits) | 1).collect();
        assert_matches_reference("random multiset", spec, &tuples, &probes);
    }
}
