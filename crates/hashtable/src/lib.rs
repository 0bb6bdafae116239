//! The hash-table zoo of the join study.
//!
//! Section 5.2 of the paper ("Choice of Hash Method") shows that the
//! *same* join skeleton with different tables (chained vs. linear probing
//! vs. concise vs. plain array) produces the PRO/PRL/PRA and NOP/NOPA
//! variants. This crate provides all of them:
//!
//! | Type | Used by | Concurrency |
//! |------|---------|-------------|
//! | [`StChainedTable`] | PRB/PRO join phase (per partition) | single writer |
//! | [`StLinearTable`] | PRL/CPRL join phase | single writer |
//! | [`PackedTables`] | cached PRO/PRL/PRA build sides, SHHJ resident partitions (one block of any of the three above) | one writer per table |
//! | [`ArrayTable`] | PRA/CPRA join phase | single writer |
//! | [`ConcurrentLinearTable`] | NOP global table | lock-free CAS inserts |
//! | [`ConcurrentArrayTable`] | NOPA global table | atomic stores |
//! | [`ConciseHashTable`] | CHTJ | bulkloaded, then read-only |
//!
//! Per-partition tables implement [`JoinTable`], which is what makes the
//! partitioned join phase generic over the hash method.
//!
//! The chained table is the original radix join's *bucket chaining*
//! (`parallel_radix_join.c:bucket_chaining_join`): tuples stored densely
//! in insertion order, one head word per bucket and one link word per
//! tuple, all in a single allocation. On a cache-sized dense-key
//! partition its probe is two dependent loads and a compare that always
//! hits, which is why PRO, PRL and PRA are "nearly indistinguishable"
//! (§5.2) — the inline-bucket table of the no-partitioning join, with its
//! two data-dependent slot compares per bucket, is not what PRO uses.
//!
//! Hash functions live in [`hashfn`]; like the paper (Section 7.1) the
//! default for dense primary keys is the identity function modulo table
//! size.

pub mod array;
pub mod chained;
pub mod cht;
pub mod hashfn;
pub mod linear;
pub mod packed;

pub use array::{ArrayTable, ConcurrentArrayTable};
pub use chained::{ChainedTable, StChainedTable};
pub use cht::ConciseHashTable;
pub use hashfn::{CrcHash, IdentityHash, KeyHash, MultiplicativeHash, MurmurHash};
pub use linear::{ConcurrentLinearTable, LinearTable, StLinearTable};
pub use packed::{Packable, PackedTables};

use mmjoin_util::trace::{MemTracer, NoTracer};
use mmjoin_util::tuple::{Key, Payload, Tuple};

/// Probes hashed and prefetched per group in the batched build/probe
/// paths (group prefetching à la Chen et al.): large enough to cover the
/// ~10 in-flight line fills current cores sustain, small enough that all
/// G home slots stay resident between the prefetch and the resolve pass.
pub const PROBE_GROUP: usize = 16;

/// The batch loop of the linear and array tables: `touch` (prefetch the
/// slot of) every tuple of group `k + 1`, then `resolve` group `k` in
/// order, reporting each tuple to `tr` as read, so that a group's misses
/// are in flight while the group before it is inserted or probed. `table`
/// goes to both closures (a build resolves through `&mut`). Portable mode
/// runs the same loop: `util::kernels` makes its prefetch a no-op.
#[inline]
pub(crate) fn group_ahead<T, Tr: MemTracer>(
    mut table: T,
    tuples: &[Tuple],
    tr: &mut Tr,
    touch: impl Fn(&T, &Tuple),
    mut resolve: impl FnMut(&mut T, &Tuple, &mut Tr),
) {
    let mut groups = tuples.chunks(PROBE_GROUP);
    let Some(mut cur) = groups.next() else { return };
    for t in cur {
        touch(&table, t);
    }
    loop {
        let next = groups.next();
        // A slice loop: as `next.into_iter().flatten().for_each(..)` the
        // concurrent linear table's probe measured 12-19 % slower.
        for t in next.unwrap_or_default() {
            touch(&table, t);
        }
        for t in cur {
            tr.read_of(t);
            resolve(&mut table, t, tr);
        }
        match next {
            Some(group) => cur = group,
            None => return,
        }
    }
}

/// Construction parameters for per-partition join tables.
#[derive(Copy, Clone, Debug)]
pub struct TableSpec {
    /// Number of tuples the table must hold.
    pub capacity: usize,
    /// Keys in a radix partition share their low `key_shift` bits; tables
    /// must hash/index on `key >> key_shift` or every key collides into
    /// one bucket (the original radix-join code's HASH_BIT_MODULO uses
    /// exactly this shift). Arrays index densely with it.
    pub key_shift: u32,
    /// For [`ArrayTable`]: number of addressable slots.
    pub array_len: usize,
}

impl TableSpec {
    /// Spec for hash-based tables over un-partitioned input.
    pub fn hashed(capacity: usize) -> Self {
        Self::hashed_partition(capacity, 0)
    }

    /// Spec for hash-based tables over one radix partition of
    /// `radix_bits` low bits.
    pub fn hashed_partition(capacity: usize, radix_bits: u32) -> Self {
        TableSpec {
            capacity,
            key_shift: radix_bits,
            array_len: 0,
        }
    }

    /// Spec for array tables over a radix partition: keys of partition `p`
    /// under `radix_bits` low bits satisfy `key & mask == p`, so
    /// `key >> radix_bits` is dense within the partition.
    pub fn array(radix_bits: u32, domain: usize) -> Self {
        let array_len = (domain >> radix_bits) + 2;
        TableSpec {
            capacity: array_len,
            key_shift: radix_bits,
            array_len,
        }
    }

    /// Upper-bound allocation footprint of a table built from this spec.
    /// Lets callers charge a memory budget *before* construction; the
    /// estimate covers the largest of the table kinds the spec can build
    /// (linear: pow2(2n) 8 B slots, one cache line at least; chained:
    /// pow2(n) 4 B heads + 12 B per tuple, never more than linear; array:
    /// 4 B payload + occupancy bit per slot).
    pub fn table_bytes(&self) -> usize {
        if self.array_len > 0 {
            self.array_len * 5
        } else {
            linear::slots_for(self.capacity) * 8
        }
    }
}

/// A single-threaded build/probe table for one co-partition join.
pub trait JoinTable: Sized {
    /// Allocate an empty table per `spec`.
    fn with_spec(spec: &TableSpec) -> Self;

    /// Make this the empty table [`JoinTable::with_spec`] would allocate,
    /// in the buffer it already has unless `spec` needs a larger one: a
    /// join worker resets one table from co-partition to co-partition
    /// instead of allocating and freeing 2^14 of them.
    fn reset(&mut self, spec: &TableSpec);

    /// Insert one build tuple.
    fn insert(&mut self, t: Tuple);

    /// Invoke `f` with the payload of every build tuple matching `key`.
    fn probe<F: FnMut(Payload)>(&self, key: Key, f: F);

    /// Probe under the study's unique-build-key assumption: may stop at
    /// the first match. Defaults to [`JoinTable::probe`]; linear probing
    /// overrides it (scanning a dense partition's whole collision run
    /// for duplicates that cannot exist costs O(partition) per probe).
    fn probe_unique<F: FnMut(Payload)>(&self, key: Key, f: F) {
        self.probe(key, f)
    }

    /// Insert a batch of build tuples, reporting to `tr` each tuple read and
    /// what its insert touches (the linear and array tables prefetch a group of
    /// [`PROBE_GROUP`] slots ahead). The state inserting one by one in order leaves.
    fn insert_batch_with<Tr: MemTracer>(&mut self, tuples: &[Tuple], tr: &mut Tr);

    /// Probe a batch of tuples, invoking `f(probe_tuple, build_payload)`
    /// for every match, in probe order, and reporting to `tr` each tuple
    /// read and what its probe touches. `unique` selects
    /// [`JoinTable::probe_unique`] semantics per probe. The same matches
    /// as probing one by one in order.
    fn probe_batch_with<Tr: MemTracer, F: FnMut(&Tuple, Payload)>(
        &self,
        probes: &[Tuple],
        unique: bool,
        tr: &mut Tr,
        f: F,
    );

    /// [`JoinTable::insert_batch_with`] untraced: what the joins run.
    #[inline]
    fn insert_batch(&mut self, tuples: &[Tuple]) {
        self.insert_batch_with(tuples, &mut NoTracer)
    }

    /// [`JoinTable::probe_batch_with`] untraced: what the joins run. Keep it inlined:
    /// outlined, `f`'s state lives in memory (`hashtable.probe_ns.chained` +16 %).
    #[inline]
    fn probe_batch<F: FnMut(&Tuple, Payload)>(&self, probes: &[Tuple], unique: bool, f: F) {
        self.probe_batch_with(probes, unique, &mut NoTracer, f)
    }

    /// Bytes of memory held (for the memory-footprint comparisons).
    fn memory_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The budget contract of the partitioned join phase: a task charges
    /// `spec.table_bytes()` *before* it builds, so no table kind may hold
    /// more than that once `capacity` tuples are in.
    #[test]
    fn table_bytes_bounds_every_kind_at_capacity() {
        fn held<T: JoinTable>(spec: &TableSpec, n: usize) -> usize {
            let mut t = T::with_spec(spec);
            for k in 1..=n as u32 {
                t.insert(Tuple::new(k, k));
            }
            t.memory_bytes()
        }
        let pow2s = [4usize, 64, 1 << 10, 1 << 14];
        let caps = [0, 1, 2]
            .into_iter()
            .chain(pow2s.into_iter().flat_map(|p| [p - 1, p, p + 1]));
        for n in caps {
            let hashed = TableSpec::hashed(n);
            let bound = hashed.table_bytes();
            let chained = held::<StChainedTable<IdentityHash>>(&hashed, n);
            assert!(chained <= bound, "chained n={n}: {chained} > {bound}");
            assert_eq!(chained, 4 * n.max(1).next_power_of_two() + 12 * n);
            let linear = held::<StLinearTable<IdentityHash>>(&hashed, n);
            assert!(linear <= bound, "linear n={n}: {linear} > {bound}");
            let array = TableSpec::array(0, n);
            let in_array = held::<ArrayTable>(&array, n);
            assert!(in_array <= array.table_bytes(), "array n={n}: {in_array}");
            // A packed table takes what its owned twin holds when built.
            let packed = <StChainedTable<IdentityHash> as Packable>::words(&hashed) * 4;
            assert_eq!(packed, chained, "packed chained n={n}");
            let packed = <StLinearTable<IdentityHash> as Packable>::words(&hashed) * 8;
            assert_eq!(packed, linear, "packed linear n={n}");
            assert_eq!(
                <ArrayTable as Packable>::words(&array) * 4,
                in_array,
                "n={n}"
            );
        }
    }
    /// A reset table is the table `with_spec` would have allocated —
    /// nothing of what it held before answers a probe — whether the new
    /// spec fits the buffer it has (smaller partition, other shift) or
    /// needs a larger one.
    #[test]
    fn a_reset_table_answers_like_a_fresh_one() {
        fn check<T: JoinTable>(specs: &[(TableSpec, Vec<Tuple>)]) {
            let mut reused = T::with_spec(&specs[0].0);
            for (round, (spec, tuples)) in specs.iter().enumerate() {
                let mut fresh = T::with_spec(spec);
                if round > 0 {
                    reused.reset(spec);
                }
                fresh.insert_batch(tuples);
                reused.insert_batch(tuples);
                let probes: Vec<Tuple> = (0..2_100).map(|k| Tuple::new(k << 3 | 5, k)).collect();
                for unique in [false, true] {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    fresh.probe_batch(&probes, unique, |t, p| a.push((t.key, p)));
                    reused.probe_batch(&probes, unique, |t, p| b.push((t.key, p)));
                    assert_eq!(a, b, "round {round} unique={unique}");
                    assert_eq!(a.len(), tuples.len(), "round {round}");
                }
            }
        }
        // Keys of radix partition 5 of 8: 5, 13, 21, ... — big, small
        // (stale tuples of the big round lie past it), bigger than ever,
        // empty, then hashed on the whole key (another shift).
        let part = |n: u32, from: u32| -> Vec<Tuple> {
            (from..from + n)
                .map(|k| Tuple::new(k << 3 | 5, k + 7))
                .collect()
        };
        let rounds = [
            (1_000, 0, 3),
            (40, 500, 3),
            (2_000, 100, 3),
            (0, 0, 3),
            (300, 1_700, 0),
        ];
        let hashed: Vec<(TableSpec, Vec<Tuple>)> = rounds
            .iter()
            .map(|&(n, from, shift)| {
                let spec = TableSpec::hashed_partition(n as usize, shift);
                (spec, part(n, from))
            })
            .collect();
        check::<StChainedTable<IdentityHash>>(&hashed);
        check::<StLinearTable<IdentityHash>>(&hashed);
        let arrays: Vec<(TableSpec, Vec<Tuple>)> = [(1_000, 3_000), (40, 600), (2_000, 2_100)]
            .iter()
            .map(|&(n, domain)| (TableSpec::array(3, domain << 3), part(n, 0)))
            .collect();
        check::<ArrayTable>(&arrays);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use mmjoin_util::rng::Xoshiro256;

    /// Reference semantics: multiset of payloads per key.
    pub fn reference_probe(tuples: &[Tuple], key: Key) -> Vec<Payload> {
        let mut v: Vec<Payload> = tuples
            .iter()
            .filter(|t| t.key == key)
            .map(|t| t.payload)
            .collect();
        v.sort_unstable();
        v
    }

    /// Exercise any `JoinTable` against reference semantics with random
    /// (possibly duplicate) keys.
    pub fn check_join_table<T: JoinTable>(spec: &TableSpec, tuples: &[Tuple], probes: &[Key]) {
        let mut table = T::with_spec(spec);
        for &t in tuples {
            table.insert(t);
        }
        for &k in probes {
            let mut got = Vec::new();
            table.probe(k, |p| got.push(p));
            got.sort_unstable();
            assert_eq!(got, reference_probe(tuples, k), "key {k}");
        }
    }

    pub fn random_tuples(n: usize, key_range: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Xoshiro256::new(seed);
        (0..n)
            .map(|i| Tuple::new(rng.below(key_range as u64) as u32 + 1, i as u32))
            .collect()
    }

    /// Differential kernel check: build with `insert_batch` and probe with
    /// `probe_batch` under forced-portable and forced-SIMD modes; both
    /// must be bit-identical to each other and (for non-unique probes) to
    /// reference semantics.
    pub fn check_batch_kernels<T: JoinTable>(spec: &TableSpec, tuples: &[Tuple], probes: &[Tuple]) {
        use mmjoin_util::kernels::{with_mode, KernelMode};
        let run = |mode: KernelMode, unique: bool| {
            with_mode(mode, || {
                let mut table = T::with_spec(spec);
                table.insert_batch(tuples);
                let mut got: Vec<(Key, Payload, Payload)> = Vec::new();
                table.probe_batch(probes, unique, |t, p| got.push((t.key, t.payload, p)));
                got
            })
        };
        for unique in [false, true] {
            let portable = run(KernelMode::Portable, unique);
            let simd = run(KernelMode::Simd, unique);
            assert_eq!(portable, simd, "unique={unique}");
        }
        // Non-unique batch probing must also match reference semantics.
        let got = run(KernelMode::Simd, false);
        for probe in probes {
            let mut hits: Vec<Payload> = got
                .iter()
                .filter(|(k, pp, _)| *k == probe.key && *pp == probe.payload)
                .map(|(_, _, bp)| *bp)
                .collect();
            hits.sort_unstable();
            assert_eq!(
                hits,
                reference_probe(tuples, probe.key),
                "key {}",
                probe.key
            );
        }
    }
}
