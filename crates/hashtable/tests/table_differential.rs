//! Differential tests of the per-partition join tables (bucket chaining,
//! linear probing, array) and of the two concurrent global tables against
//! the reference multiset of payloads per key. Every build shape that
//! reaches a boundary of a layout or of the group-ahead batch loop (no
//! tuples, one tuple, a group less one, a group, a group and one, a dense
//! radix partition hashed above its digits, a capacity that is not a
//! power of two, one long chain, a table grown from nothing, a capacity
//! exactly reached, a linear table taking no more tuples) × kernel
//! modes × all-matches / first-match probes, batched and one by one,
//! built batched and one by one. Both kernel modes run the same batch
//! loop, so the one-by-one scalar calls are the reference for the batched
//! ones. These are also what walks the chained table's unfilled tuple
//! and link regions under Miri, where the builds shrink and only the
//! portable mode runs.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use mmjoin_hashtable::{
    ArrayTable, ConcurrentArrayTable, ConcurrentLinearTable, IdentityHash, JoinTable, Packable,
    PackedTables, StChainedTable, StLinearTable, TableSpec,
};
use mmjoin_util::kernels::{with_mode, KernelMode};
use mmjoin_util::scope::Scope;
use mmjoin_util::trace::CountingTracer;
use mmjoin_util::tuple::{Key, Payload, Tuple};
use mmjoin_util::CACHE_LINE;
use proptest::prelude::*;

use common::{keys_around, multiset, reference_probe};

type Chained = StChainedTable<IdentityHash>;
type Linear = StLinearTable<IdentityHash>;

const CASES: u32 = if cfg!(miri) { 2 } else { 32 };
const MODES: &[KernelMode] = if cfg!(miri) {
    &[KernelMode::Portable]
} else {
    &[KernelMode::Portable, KernelMode::Simd]
};
/// Tuples of the larger builds.
const N: usize = if cfg!(miri) { 96 } else { 4096 };
/// Build and probe lengths on both sides of every boundary of the batch
/// loop (groups of `PROBE_GROUP` = 16, one group resolved while the next
/// is touched), and one odd length many groups long.
const LENS: [usize; 8] = [0, 1, 15, 16, 17, 32, 33, if cfg!(miri) { 97 } else { 1031 }];

/// The `n` smallest keys of radix partition `digit` under `bits` low
/// bits, each once: what a dense primary key leaves in one partition.
fn partition_keys(n: usize, bits: u32, digit: u32) -> Vec<Tuple> {
    let first = if digit == 0 { 1 } else { 0 };
    (first..first + n as u32)
        .map(|i| Tuple::new((i << bits) | digit, i ^ 0x5a5a))
        .collect()
}

/// Probe number `i` carries `i` as its payload.
fn numbered(keys: impl IntoIterator<Item = Key>) -> Vec<Tuple> {
    let numbered = keys.into_iter().enumerate();
    numbered.map(|(i, k)| Tuple::new(k, i as u32)).collect()
}

/// `(probe number, build payload)` hits as the build payloads reported
/// for each of `probes` probes, in report order.
fn per_probe(hits: &[(Payload, Payload)], probes: usize) -> Vec<Vec<Payload>> {
    let mut of = vec![Vec::new(); probes];
    hits.iter().for_each(|h| of[h.0 as usize].push(h.1));
    of
}

/// Build `tuples` into a `T` of `spec` — batched and one by one — and
/// probe every key of `probes`, in both kernel modes, all-matches and
/// first-match, batched and one by one. `whole` checks what only this
/// kind of table promises of the built table, `per_key` of one key.
fn assert_matches_reference<T: JoinTable>(
    what: &str,
    spec: TableSpec,
    tuples: &[Tuple],
    probes: &[Key],
    whole: impl Fn(&T, &str),
    per_key: impl Fn(&T, Key, &str),
) {
    let n = tuples.len();
    let probes = numbered(probes.iter().copied());

    for &mode in MODES {
        for batched in [true, false] {
            let at = format!("{what}, n={n}, {mode:?}, batched build={batched}");
            with_mode(mode, || {
                let mut table = T::with_spec(&spec);
                if batched {
                    // Two batches, so the second appends to a part-full table.
                    let (a, b) = tuples.split_at(n / 3);
                    table.insert_batch(a);
                    table.insert_batch(b);
                } else {
                    tuples.iter().for_each(|&t| table.insert(t));
                }
                whole(&table, &at);

                let mut all = Vec::new();
                table.probe_batch(&probes, false, |p, bp| all.push((p.payload, bp)));
                let mut first = Vec::new();
                table.probe_batch(&probes, true, |p, bp| first.push((p.payload, bp)));
                let all = per_probe(&all, probes.len());
                let first = per_probe(&first, probes.len());

                for (p, (mut got, one)) in probes.iter().zip(all.into_iter().zip(first)) {
                    let at = format!("{at}, key {}", p.key);
                    let expect = reference_probe(tuples, p.key);
                    let mut scalar = Vec::new();
                    table.probe(p.key, |bp| scalar.push(bp));
                    assert_eq!(got, scalar, "{at}, batched vs one by one");
                    got.sort_unstable();
                    assert_eq!(got, expect, "{at}");

                    assert_eq!(one.len(), expect.len().min(1), "{at}, first match");
                    // The first match is the first the full walk meets.
                    assert_eq!(one.first(), scalar.first(), "{at}, first match");
                    let mut unique = Vec::new();
                    table.probe_unique(p.key, |bp| unique.push(bp));
                    assert_eq!(one, unique, "{at}, probe_unique");

                    per_key(&table, p.key, &at);
                }
            });
        }
    }
}

/// [`assert_matches_reference`] over one dense radix partition at every
/// build length of [`LENS`], probed at every probe length of it with
/// present keys and absent ones of the same partition.
fn every_group_boundary<T: JoinTable>(what: &str, bits: u32, spec: impl Fn(usize) -> TableSpec) {
    for n in LENS {
        let pool = partition_keys(n + 40, bits, 37 & ((1 << bits) - 1));
        for m in LENS {
            let probes: Vec<Key> = (0..m).map(|i| pool[i * 7 % pool.len()].key).collect();
            let at = format!("{what}, {m} probes");
            assert_matches_reference::<T>(
                &at,
                spec(n),
                &pool[..n],
                &probes,
                |_, _| (),
                |_, _, _| (),
            );
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
        assert_chained_matches_reference(what, spec, &tuples, &probes);
    }
    every_group_boundary::<Chained>("chained", 6, |n| TableSpec::hashed_partition(n, 6));
}

/// [`assert_matches_reference`] and what bucket chaining adds to it: the
/// table counts its tuples and chains every one of a bucket.
fn assert_chained_matches_reference(what: &str, spec: TableSpec, tuples: &[Tuple], probes: &[Key]) {
    let n = tuples.len();
    // A bucket's population: the table hashes `key >> key_shift` by
    // identity over `next_pow2` of the capacity it ends up with.
    let heads = spec.capacity.max(n).max(1).next_power_of_two() as u32;
    let bucket = |k: Key| (k >> spec.key_shift) & (heads - 1);
    let population = |k: Key| tuples.iter().filter(|t| bucket(t.key) == bucket(k)).count();
    assert_matches_reference::<Chained>(
        what,
        spec,
        tuples,
        probes,
        |table, at| {
            assert_eq!(table.len(), n, "{at}");
            assert_eq!(table.is_empty(), n == 0, "{at}");
            assert!(table.memory_bytes() >= 12 * n, "{at}");
        },
        |table, key, at| assert_eq!(table.chain_len(key), population(key), "{at}"),
    );
}

#[test]
fn linear_every_layout_boundary() {
    let pow2 = N.next_power_of_two();
    let builds: Vec<(&str, TableSpec, Vec<Tuple>)> = vec![
        ("empty, sized", TableSpec::hashed(N), vec![]),
        (
            "dense, 14 radix bits",
            TableSpec::hashed_partition(pow2, 14),
            partition_keys(pow2, 14, 0x2aaa),
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
            "capacity exactly reached",
            TableSpec::hashed(pow2 - 1),
            multiset(pow2 - 1, pow2 as u32, 6),
        ),
    ];
    for (what, spec, tuples) in builds {
        let n = tuples.len();
        let mut probes = keys_around(&tuples, 40, 300);
        let near: Vec<Key> = probes.iter().take(20).map(|k| k.wrapping_add(1)).collect();
        probes.extend(near);
        assert_matches_reference::<Linear>(
            what,
            spec,
            &tuples,
            &probes,
            |table, at| {
                assert_eq!(table.len(), n, "{at}");
                assert_eq!(table.is_empty(), n == 0, "{at}");
                assert!(table.memory_bytes() >= 16 * n, "{at}");
            },
            |_, _, _| (),
        );
    }
    every_group_boundary::<Linear>("linear", 6, |n| TableSpec::hashed_partition(n, 6));
    every_group_boundary::<Linear>("linear, unpartitioned", 0, TableSpec::hashed);
}

#[test]
fn array_every_layout_boundary() {
    // The absent probes fall on empty slots, the last of them past the
    // array's end.
    every_group_boundary::<ArrayTable>("array", 6, |n| TableSpec::array(6, (n + 37) << 6));
    every_group_boundary::<ArrayTable>("array, unpartitioned", 0, |n| TableSpec::array(0, n));
    // Holes: every third key of a partition.
    let dense = partition_keys(N, 4, 9);
    let probes: Vec<Key> = dense.iter().map(|t| t.key).collect();
    let holed: Vec<Tuple> = dense.into_iter().step_by(3).collect();
    let spec = TableSpec::array(4, N << 4);
    assert_matches_reference::<ArrayTable>(
        "holes",
        spec,
        &holed,
        &probes,
        |table, at| assert_eq!(table.memory_bytes(), 4 * spec.array_len, "{at}"),
        |_, _, _| (),
    );
}

/// One block of a table of `spec(n)` for every build length `n` of
/// [`LENS`], each followed by a zero capacity, every table a dense radix
/// partition of its own built in two batches — but for the longest,
/// left uncleared as a build cut short leaves it — and each probed, in
/// both kernel modes, all-matches and first-match, against its owned
/// twin built from the same spec and tuples. A zero capacity gets no
/// range, and a range probed before its clear matches nothing: under
/// Miri, a read of its unfilled words would be reported.
fn packed_answers_like_owned<T: JoinTable + Packable>(
    what: &str,
    spec: impl Fn(usize) -> TableSpec,
) -> (usize, usize, usize) {
    let bits = 6;
    let word = std::mem::size_of::<T::Word>();
    let mut sizes = (0, 0, 0);
    let caps: Vec<usize> = LENS.iter().flat_map(|&n| [n, 0]).collect();
    let uncleared = caps.len() - 2;
    let builds: Vec<Vec<Tuple>> = (0..caps.len())
        .map(|p| partition_keys(caps[p], bits, p as u32))
        .collect();
    // Present keys and absent ones of each table's partition.
    let probes: Vec<Vec<Tuple>> = (0..caps.len())
        .map(|p| {
            numbered(
                partition_keys(caps[p] + 40, bits, p as u32)
                    .iter()
                    .map(|t| t.key),
            )
        })
        .collect();
    let hits = |packed: &PackedTables<T>, p: usize, unique: bool| {
        let mut hits = Vec::new();
        packed.probe_batch(p, &probes[p], unique, |t, bp| hits.push((t.payload, bp)));
        hits
    };
    for &mode in MODES {
        with_mode(mode, || {
            let mut packed = PackedTables::<T>::new(&caps, &spec);
            for p in 0..caps.len() {
                assert!(hits(&packed, p, false).is_empty(), "{what}, table {p}");
            }
            for (p, range) in packed.split_mut().into_iter().enumerate() {
                assert_eq!(range.is_some(), caps[p] > 0, "{what}, table {p}");
                if let Some(range) = range.filter(|_| p != uncleared) {
                    let mut table = range.clear();
                    let (a, b) = builds[p].split_at(caps[p] / 3);
                    table.insert_batch(a);
                    table.insert_batch(b);
                }
            }
            let (mut owned_bytes, mut charged) = (0, 0);
            for (p, tuples) in builds.iter().enumerate() {
                let at = format!("{what}, table {p} of {} tuples, {mode:?}", caps[p]);
                let mut owned = T::with_spec(&spec(caps[p]));
                owned.insert_batch(tuples);
                if caps[p] > 0 {
                    // A packed table takes the words its owned twin holds,
                    // never more than its spec charges.
                    let bytes = T::words(&spec(caps[p])) * word;
                    assert_eq!(owned.memory_bytes(), bytes, "{at}");
                    assert!(bytes <= spec(caps[p]).table_bytes(), "{at}");
                    owned_bytes += bytes;
                    charged += spec(caps[p]).table_bytes();
                }
                for unique in [false, true] {
                    let mut expect = Vec::new();
                    owned.probe_batch(&probes[p], unique, |t, bp| expect.push((t.payload, bp)));
                    assert_eq!(expect.len(), tuples.len(), "{at}, unique={unique}");
                    if p == uncleared {
                        expect.clear();
                    }
                    assert_eq!(hits(&packed, p, unique), expect, "{at}, unique={unique}");
                }
            }
            // The block is exactly its tables' words, each table starting
            // on a cache line, and not a byte more.
            let block = caps.iter().filter(|&&n| n > 0).fold(0, |end: usize, &n| {
                end.next_multiple_of(CACHE_LINE) + T::words(&spec(n)) * word
            });
            assert_eq!(packed.memory_bytes(), block, "{what}, {mode:?}");
            sizes = (block, owned_bytes, charged);
        });
    }
    sizes
}

#[test]
fn packed_tables_answer_like_owned_ones() {
    packed_answers_like_owned::<Chained>("chained", |n| TableSpec::hashed_partition(n, 6));
    // Linear ranges are whole cache lines (`MIN_SLOTS`): no padding, the
    // block is exactly the owned tables' bytes and what their specs
    // charge — SHHJ's resident block too.
    let (block, owned, charged) =
        packed_answers_like_owned::<Linear>("linear", |n| TableSpec::hashed_partition(n, 6));
    assert_eq!((block, owned), (charged, charged), "linear");
    packed_answers_like_owned::<ArrayTable>("array", |n| TableSpec::array(6, (n + 37) << 6));
}

/// What the two concurrent global tables share for
/// [`concurrent_tables_from_one_and_four_threads`].
trait Global: Sync {
    fn put(&self, t: Tuple);
    fn put_batch(&self, tuples: &[Tuple]);
    fn find(&self, key: Key, unique: bool, f: impl FnMut(Payload));
    fn find_batch(&self, probes: &[Tuple], unique: bool, f: impl FnMut(&Tuple, Payload));
}

impl Global for ConcurrentLinearTable<IdentityHash> {
    fn put(&self, t: Tuple) {
        self.insert(t)
    }
    fn put_batch(&self, tuples: &[Tuple]) {
        self.insert_batch(tuples)
    }
    fn find(&self, key: Key, unique: bool, f: impl FnMut(Payload)) {
        if unique {
            self.probe_first(key, f)
        } else {
            self.probe(key, f)
        }
    }
    fn find_batch(&self, probes: &[Tuple], unique: bool, f: impl FnMut(&Tuple, Payload)) {
        self.probe_batch(probes, unique, f)
    }
}

impl Global for ConcurrentArrayTable {
    fn put(&self, t: Tuple) {
        self.insert(t)
    }
    fn put_batch(&self, tuples: &[Tuple]) {
        self.insert_batch(tuples)
    }
    // A slot holds one payload: first-match is all there is.
    fn find(&self, key: Key, _unique: bool, f: impl FnMut(Payload)) {
        self.probe(key, f)
    }
    fn find_batch(&self, probes: &[Tuple], _unique: bool, f: impl FnMut(&Tuple, Payload)) {
        self.probe_batch(probes, f)
    }
}

/// Build `tuples` into `make()` from `threads` threads — batched and one
/// by one — then probe `probes` from as many, batched and one by one,
/// all-matches and first-match, in both kernel modes.
fn assert_global_matches_reference<G: Global>(
    what: &str,
    make: impl Fn() -> G,
    tuples: &[Tuple],
    probes: &[Tuple],
) {
    let share = |len: usize, threads: usize| len.div_ceil(threads).max(1);
    for &mode in MODES {
        for (threads, batched) in [(1, true), (1, false), (4, true), (4, false)] {
            let at = format!(
                "{what}, n={}, {} probes, {mode:?}, {threads} threads, batched build={batched}",
                tuples.len(),
                probes.len()
            );
            with_mode(mode, || {
                // Threads spawned by hand start from the default mode:
                // each enters this thread's scope.
                let scope = Scope::current();
                let table = make();
                std::thread::scope(|s| {
                    for part in tuples.chunks(share(tuples.len(), threads)) {
                        let (table, scope) = (&table, scope.clone());
                        s.spawn(move || {
                            let _in = scope.enter();
                            if batched {
                                table.put_batch(part)
                            } else {
                                part.iter().for_each(|&t| table.put(t))
                            }
                        });
                    }
                });
                // The scope's join is the build barrier. Per probing
                // thread: (all-matches, first-match) hits of its share.
                type Hits = Vec<(Payload, Payload)>;
                let hits: Vec<(Hits, Hits)> = std::thread::scope(|s| {
                    let probing: Vec<_> = probes
                        .chunks(share(probes.len(), threads))
                        .map(|part| {
                            let (table, at, scope) = (&table, &at, scope.clone());
                            s.spawn(move || {
                                let _in = scope.enter();
                                let (mut all, mut first) = (Vec::new(), Vec::new());
                                table.find_batch(part, false, |p, bp| all.push((p.payload, bp)));
                                table.find_batch(part, true, |p, bp| first.push((p.payload, bp)));
                                let (mut one_all, mut one_first) = (Vec::new(), Vec::new());
                                for p in part {
                                    table.find(p.key, false, |bp| one_all.push((p.payload, bp)));
                                    table.find(p.key, true, |bp| one_first.push((p.payload, bp)));
                                }
                                assert_eq!(all, one_all, "{at}, batched vs one by one");
                                assert_eq!(first, one_first, "{at}, first match");
                                (all, first)
                            })
                        })
                        .collect();
                    let joined = probing.into_iter().map(|h| h.join().expect("probe thread"));
                    joined.collect()
                });
                let all: Hits = hits.iter().flat_map(|h| h.0.iter().copied()).collect();
                let first: Hits = hits.iter().flat_map(|h| h.1.iter().copied()).collect();
                let all = per_probe(&all, probes.len());
                let first = per_probe(&first, probes.len());
                for (p, (mut got, one)) in probes.iter().zip(all.into_iter().zip(first)) {
                    let at = format!("{at}, key {}", p.key);
                    let expect = reference_probe(tuples, p.key);
                    got.sort_unstable();
                    assert_eq!(got, expect, "{at}");
                    // Which duplicate four racing builders put first is theirs to settle.
                    assert_eq!(one.len(), expect.len().min(1), "{at}, first match");
                    assert!(
                        one.iter().all(|bp| expect.contains(bp)),
                        "{at}, first match"
                    );
                }
            });
        }
    }
}

#[test]
fn concurrent_tables_from_one_and_four_threads() {
    for n in LENS {
        // Keys 1..=n each once: the array is filled to its last slot, the
        // linear table to the capacity it was sized for.
        let dense = partition_keys(n, 0, 0);
        let dups = multiset(n, n as u32 / 3 + 1, 11);
        for m in LENS {
            let probes = numbered((0..m as u32).map(|i| i * 7 % (n as u32 + 40)));
            let linear = || ConcurrentLinearTable::<IdentityHash>::with_capacity(n);
            assert_global_matches_reference("clinear, dense", linear, &dense, &probes);
            assert_global_matches_reference("clinear, multiset", linear, &dups, &probes);
            let array = || ConcurrentArrayTable::new(n, 1);
            assert_global_matches_reference("carray", array, &dense, &probes);
        }
    }
}

/// What the two linear-probing tables share for
/// [`full_linear_tables_answer_and_refuse`].
trait Probing: Sized + Send + 'static {
    /// The tuples a table of eight slots takes: the single-threaded one
    /// keeps a slot empty for its walks to end at; the concurrent one
    /// cannot count its inserts, fills up, and bounds a walk to one lap.
    const ROOM: u32;
    /// A table of eight slots.
    fn eight_slots() -> Self;
    fn put(&mut self, t: Tuple);
    fn put_batch(&mut self, tuples: &[Tuple]);
    fn find(&self, key: Key, unique: bool, f: impl FnMut(Payload));
    fn find_batch(&self, probes: &[Tuple], unique: bool, f: impl FnMut(&Tuple, Payload));
}

impl Probing for Linear {
    const ROOM: u32 = 7;
    fn eight_slots() -> Self {
        let table = Linear::with_spec(&TableSpec::hashed(4));
        assert_eq!(table.memory_bytes(), 8 * 8);
        table
    }
    fn put(&mut self, t: Tuple) {
        self.insert(t)
    }
    fn put_batch(&mut self, tuples: &[Tuple]) {
        self.insert_batch(tuples)
    }
    fn find(&self, key: Key, unique: bool, f: impl FnMut(Payload)) {
        if unique {
            self.probe_first(key, f)
        } else {
            self.probe(key, f)
        }
    }
    fn find_batch(&self, probes: &[Tuple], unique: bool, f: impl FnMut(&Tuple, Payload)) {
        self.probe_batch(probes, unique, f)
    }
}

impl Probing for ConcurrentLinearTable<IdentityHash> {
    const ROOM: u32 = 8;
    fn eight_slots() -> Self {
        let table = Self::with_capacity(4);
        assert_eq!(table.capacity(), 8);
        table
    }
    fn put(&mut self, t: Tuple) {
        self.insert(t)
    }
    fn put_batch(&mut self, tuples: &[Tuple]) {
        self.insert_batch(tuples)
    }
    fn find(&self, key: Key, unique: bool, f: impl FnMut(Payload)) {
        Global::find(self, key, unique, f)
    }
    fn find_batch(&self, probes: &[Tuple], unique: bool, f: impl FnMut(&Tuple, Payload)) {
        self.probe_batch(probes, unique, f)
    }
}

/// Fill a table of eight slots with all the tuples it takes and probe
/// it, on a thread of its own under the caller's kernel mode: a walk
/// that ends only at an empty slot never comes back from a table that
/// has none, which the caller sees as a timeout. Returns the hits of (the key inserted last, an absent key)
/// and the message the next insert panics with.
fn fill_and_probe<T: Probing>(
    batched: bool,
    unique: bool,
) -> Option<(Vec<Payload>, Vec<Payload>, String)> {
    let (tx, rx) = mpsc::channel();
    let scope = Scope::current();
    std::thread::spawn(move || {
        let _in = scope.enter();
        // One home slot for all: the cluster wraps past the last slot.
        let key = |i: u32| 3 + 8 * i;
        let tuples: Vec<Tuple> = (0..T::ROOM).map(|i| Tuple::new(key(i), i)).collect();
        let mut table = T::eight_slots();
        if batched {
            table.put_batch(&tuples);
        } else {
            tuples.iter().for_each(|&t| table.put(t));
        }
        let (mut present, mut absent) = (Vec::new(), Vec::new());
        if batched {
            let probes = [Tuple::new(key(T::ROOM - 1), 0), Tuple::new(key(8), 1)];
            table.find_batch(&probes, unique, |p, bp| {
                [&mut present, &mut absent][p.payload as usize].push(bp)
            });
        } else {
            table.find(key(T::ROOM - 1), unique, |bp| present.push(bp));
            table.find(key(8), unique, |bp| absent.push(bp));
        }
        let one_more = catch_unwind(AssertUnwindSafe(|| {
            if batched {
                table.put_batch(&[Tuple::new(key(9), 9)])
            } else {
                table.put(Tuple::new(key(9), 9))
            }
        }));
        let refused = match one_more {
            Ok(()) => "accepted".to_string(),
            Err(why) => match why.downcast::<String>() {
                Ok(msg) => *msg,
                Err(why) => why
                    .downcast::<&str>()
                    .map_or_else(|_| "?".into(), |m| m.to_string()),
            },
        };
        let _ = tx.send((present, absent, refused));
    });
    let patience = Duration::from_secs(if cfg!(miri) { 120 } else { 2 });
    rx.recv_timeout(patience).ok()
}

#[test]
fn full_linear_tables_answer_and_refuse() {
    fn check<T: Probing>(what: &str) {
        for &mode in MODES {
            for (batched, unique) in [(false, false), (false, true), (true, false), (true, true)] {
                let at = format!("{what}, {mode:?}, batched={batched}, unique={unique}");
                let Some((present, absent, refused)) =
                    with_mode(mode, || fill_and_probe::<T>(batched, unique))
                else {
                    panic!("{at}: a probe of a full table never returned");
                };
                assert_eq!(present, vec![T::ROOM - 1], "{at}");
                assert_eq!(absent, Vec::<Payload>::new(), "{at}");
                assert!(
                    refused.contains("table full"),
                    "{at}: one insert more was {refused}"
                );
            }
        }
    }
    check::<Linear>("linear");
    check::<ConcurrentLinearTable<IdentityHash>>("clinear");
}

/// What a tracer sees of a co-partition join's build and probe: the
/// accesses Table 4's replay counts (`repro tab4`), pinned per table to
/// what the hand-written replay of PR 19 reported for the same calls.
#[test]
fn traced_build_and_probe_report_the_replays_counts() {
    /// (reads, read bytes, writes, write bytes, ops) of building `build`
    /// and then of probing `probes`, each traced from zero.
    fn counts<T: JoinTable>(
        spec: TableSpec,
        build: &[Tuple],
        probes: &[Key],
        unique: bool,
    ) -> [(u64, u64, u64, u64, u64); 2] {
        let flat =
            |tr: &CountingTracer| (tr.reads, tr.read_bytes, tr.writes, tr.write_bytes, tr.ops);
        let mut table = T::with_spec(&spec);
        let mut tr = CountingTracer::default();
        table.insert_batch_with(build, &mut tr);
        let built = flat(&tr);
        let mut tr = CountingTracer::default();
        let mut hits = 0;
        table.probe_batch_with(
            &numbered(probes.iter().copied()),
            unique,
            &mut tr,
            |_, _| hits += 1,
        );
        assert!(hits > 0);
        [built, flat(&tr)]
    }
    // Keys 1 and 9 share a bucket of four and a home slot of eight; 17
    // shares them too and is absent.
    let build = [Tuple::new(1, 10), Tuple::new(9, 90), Tuple::new(2, 20)];
    let probes = [1, 9, 17, 2];
    let hashed = TableSpec::hashed(4);

    // Linear: per insert the tuple, then a slot read a step and the
    // write; per probe the tuple, then a slot read a step.
    let [built, all] = counts::<Linear>(hashed, &build, &probes, false);
    assert_eq!(built, (3 + 5, 8 * 8, 3, 3 * 8, 3 * 5 + 2));
    // 1, 9 and 17 walk slots 1, 2, 3 to the empty slot 4; 2 walks 2, 3, 4.
    assert_eq!(all, (4 + 15, 19 * 8, 0, 0, 4 * 3 + 11 * 2));
    let [_, first] = counts::<Linear>(hashed, &build, &probes, true);
    // 1 stops at slot 1, 9 at 2, 17 walks to 4, 2 (displaced by 9) stops at 3.
    assert_eq!(
        first,
        (4 + 1 + 2 + 4 + 2, 13 * 8, 0, 0, 4 * 3 + (1 + 2 + 3 + 2) * 2)
    );

    // Chained: per insert the tuple and the head word read, the tuple,
    // its link and the head word written; per probe the tuple and the
    // head word, then tuple and link a chain step.
    let [built, all] = counts::<Chained>(hashed, &build, &probes, false);
    assert_eq!(built, (3 * 2, 3 * (8 + 4), 3 * 3, 3 * 16, 3 * 7));
    // 1, 9 and 17 walk the chain of two, 2 its chain of one.
    assert_eq!(all, (4 * 2 + 7 * 2, 4 * 12 + 7 * 12, 0, 0, 4 * 3 + 7 * 3));
    let [_, first] = counts::<Chained>(hashed, &build, &probes, true);
    // Newest first: 9 stops at the first tuple of its chain, 1 at the second.
    assert_eq!(first, (4 * 2 + 6 * 2, 4 * 12 + 6 * 12, 0, 0, 4 * 3 + 6 * 3));

    // Array: the tuple and one slot, written or read (not read when the
    // key is past the array's end, as 17 is).
    for unique in [false, true] {
        let [built, probed] = counts::<ArrayTable>(TableSpec::array(0, 9), &build, &probes, unique);
        assert_eq!(built, (3, 3 * 8, 3, 3 * 4, 3 * 2));
        assert_eq!(probed, (4 + 3, 4 * 8 + 3 * 4, 0, 0, 4 * 2));
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
        assert_chained_matches_reference("random multiset", spec, &tuples, &probes);
    }
}
