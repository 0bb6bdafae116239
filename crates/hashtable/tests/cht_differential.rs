//! Differential tests of the concise hash table against the reference
//! multiset of payloads per key: every build shape that reaches a
//! boundary of the bulkload (no tuples, one region, a region boundary,
//! a window that wraps around its region's end, an overflowing key) ×
//! worker counts × kernel modes × all-matches / first-match probes.
//! Regions are sized from `n`, never from the pool, so the built table —
//! and with it the order a probe reports its matches in — must be the
//! same for every worker count. Under Miri regions shrink
//! (`REGION_SHIFT`) so the same boundaries stay reachable, and only the
//! portable mode runs: the interpreter models no x86 prefetch.

mod common;

use mmjoin_hashtable::cht::{PROBE_WINDOW, REGION_SHIFT};
use mmjoin_hashtable::{ConciseHashTable, KeyHash, MultiplicativeHash};
use mmjoin_util::kernels::{with_mode, KernelMode};
use mmjoin_util::tuple::{Key, Payload, Tuple};
use proptest::prelude::*;

use common::{keys_around, multiset, reference_probe};

type Cht = ConciseHashTable<MultiplicativeHash>;

const CASES: u32 = if cfg!(miri) { 2 } else { 32 };
const MODES: &[KernelMode] = if cfg!(miri) {
    &[KernelMode::Portable]
} else {
    &[KernelMode::Portable, KernelMode::Simd]
};
/// The most tuples a table of one region holds (8 positions a tuple).
const ONE_REGION: usize = 1 << (REGION_SHIFT - 3);

fn dense(n: usize) -> Vec<Tuple> {
    (1..=n as u32).map(|k| Tuple::new(k, k ^ 0x5a5a)).collect()
}

/// `n` tuples over several regions, among them forty keys — three
/// copies each — whose home position is one of the last `PROBE_WINDOW`
/// of its region, so their windows wrap around to the region's first
/// group.
fn wrapping(n: usize) -> Vec<Tuple> {
    let positions = (n * 8).next_power_of_two();
    assert!(positions >> REGION_SHIFT >= 4, "several regions");
    let region = 1usize << REGION_SHIFT;
    let at_end = |k: &u32| {
        let home = MultiplicativeHash.index(*k, (positions - 1) as u32) as usize;
        home % region >= region - PROBE_WINDOW
    };
    let ends: Vec<u32> = (1..).filter(at_end).take(40).collect();
    let mut tuples = dense(n - 3 * ends.len());
    for copy in 0..3 {
        tuples.extend(ends.iter().map(|&k| Tuple::new(k, copy)));
    }
    tuples
}

/// Build on every worker count and probe every key of `probes`, in both
/// kernel modes, all-matches and first-match, batched and one by one.
fn assert_matches_reference(what: &str, tuples: &[Tuple], probes: &[Key]) {
    let n = tuples.len();
    let mut workers = vec![1, 2, 3, 7];
    if n < 64 {
        workers.push(n + 1);
    }
    let probes: Vec<Tuple> = probes
        .iter()
        .enumerate()
        .map(|(i, &k)| Tuple::new(k, i as u32))
        .collect();
    let expect: Vec<Vec<Payload>> = probes
        .iter()
        .map(|p| reference_probe(tuples, p.key))
        .collect();
    // Build payloads reported for probe number `id`, sorted.
    let of = |hits: &[(Payload, Payload)], id: Payload| {
        let mut v: Vec<Payload> = hits
            .iter()
            .filter(|hit| hit.0 == id)
            .map(|hit| hit.1)
            .collect();
        v.sort_unstable();
        v
    };
    // What the first table built reported, in the order it did.
    let mut first_table: Option<Vec<(Payload, Payload)>> = None;
    for &w in &workers {
        for &mode in MODES {
            let at = format!("{what}, n={n}, workers={w}, {mode:?}");
            with_mode(mode, || {
                let cht = Cht::build(tuples, w);
                assert_eq!(cht.dense_len() + cht.overflow_len(), n, "{at}");

                let mut all = Vec::new();
                cht.probe_batch(&probes, |p, bp| all.push((p.payload, bp)));
                let mut via_op = Vec::new();
                cht.probe_op(&probes, false, |p, bp| via_op.push((p.payload, bp)));
                assert_eq!(all, via_op, "{at}");
                let mut first = Vec::new();
                cht.probe_op(&probes, true, |p, bp| first.push((p.payload, bp)));

                for (p, expect) in probes.iter().zip(&expect) {
                    let at = format!("{at}, key {}", p.key);
                    assert_eq!(&of(&all, p.payload), expect, "{at}");
                    let mut scalar = Vec::new();
                    cht.probe(p.key, |bp| scalar.push(bp));
                    scalar.sort_unstable();
                    assert_eq!(&scalar, expect, "{at}, one by one");
                    let one = of(&first, p.payload);
                    assert_eq!(one.len(), expect.len().min(1), "{at}, first match");
                    assert!(one.iter().all(|bp| expect.contains(bp)), "{at}");
                }

                all.extend(first);
                match &first_table {
                    None => first_table = Some(all),
                    Some(same) => assert!(same == &all, "{at}: a different table"),
                }
            });
        }
    }
}

#[test]
fn cht_every_bulkload_boundary() {
    let builds: Vec<(&str, Vec<Tuple>)> = vec![
        ("empty", vec![]),
        ("one tuple", vec![Tuple::new(9, 1)]),
        ("dense", dense(2 * ONE_REGION)),
        ("not a power of two", dense(3 * ONE_REGION + 17)),
        (
            "one key a hundred times",
            (0..100).map(|i| Tuple::new(77, i)).collect(),
        ),
        ("multiset", multiset(3 * ONE_REGION, ONE_REGION as u32, 5)),
        ("wrapping windows", wrapping(4 * ONE_REGION)),
        ("a region less one", dense(ONE_REGION - 1)),
        ("one region", dense(ONE_REGION)),
        ("a region and one", dense(ONE_REGION + 1)),
    ];
    for (what, tuples) in &builds {
        // Present and absent keys, a few hundred of them; of the
        // wrapping build also every key at a region's end.
        let mut probes = keys_around(tuples, 40, 400);
        if *what == "wrapping windows" {
            probes.extend(tuples[tuples.len() - 40..].iter().map(|t| t.key));
        }
        assert_matches_reference(what, tuples, &probes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn cht_equals_reference_multiset(
        n in 0..=(if cfg!(miri) { 300usize } else { 20_000 }),
        keys in 1u32..5000,
        seed in any::<u64>(),
    ) {
        let tuples = multiset(n, keys, seed);
        let probes: Vec<Key> = (1..=keys.min(300) + 5).collect();
        assert_matches_reference("random multiset", &tuples, &probes);
    }
}
