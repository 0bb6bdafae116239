//! Linear-probing hash tables.
//!
//! * [`LinearTable`] — the single-threaded open-addressing table, over
//!   slots it owns ([`StLinearTable`], the join phase of PRL/PRLiS/CPRL:
//!   "CPRL uses the same linear probing hash table as PRL", Section 6.1)
//!   or over one table's range of a [`PackedTables`](crate::PackedTables)
//!   block (a cached PRL build side's partitions, SHHJ's resident ones).
//! * [`ConcurrentLinearTable`] — the lock-free table of the NOP join (Lang
//!   et al.): inserts claim slots with a compare-and-swap, probes are
//!   entirely synchronization-free.
//!
//! Both reserve the packed value 0 (key 0) as the EMPTY sentinel, exactly
//! like the original NOP implementation; the workload generators produce
//! keys ≥ 1.
//!
//! Each table has one insert loop and one slot walk, shared by its scalar
//! calls and batch bodies; the single-threaded table's are generic over a
//! [`MemTracer`], so Table 4's replay traces what the joins run. A walk
//! ends at an empty slot: the single-threaded table refuses the insert
//! that would take its last (`table full`); the concurrent one cannot
//! count its inserts, may be filled, and bounds a walk to one lap.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use mmjoin_util::alloc::AlignedBuf;
use mmjoin_util::kernels;
use mmjoin_util::trace::{MemTracer, NoTracer};
use mmjoin_util::tuple::{Key, Payload, Tuple};
use mmjoin_util::{next_pow2, CACHE_LINE};

use crate::hashfn::{IdentityHash, KeyHash};
use crate::packed::Packable;
use crate::{group_ahead, JoinTable, TableSpec};

/// Slots per tuple: capacity = next_pow2(2 * n) gives a load factor ≤ 50%,
/// the configuration used by Lang et al.'s NOP.
const OVERALLOC: usize = 2;

/// Minimum slot count: one cache line of slots. Guards the `n = 0` case
/// (an empty build relation must still produce a probeable table with an
/// empty-slot terminator) and keeps every table at least one flush granule.
const MIN_SLOTS: usize = CACHE_LINE / std::mem::size_of::<u64>();

/// Slots of a table for `n` tuples (what [`TableSpec::table_bytes`]
/// charges for it, in words).
pub(crate) fn slots_for(n: usize) -> usize {
    next_pow2((n * OVERALLOC).max(MIN_SLOTS))
}

/// Single-threaded linear-probing table over the slots `S`: a buffer of
/// its own ([`StLinearTable`]) or one table's range of a packed block.
/// Every such table inserts and walks through the methods here.
pub struct LinearTable<S, H: KeyHash = IdentityHash> {
    /// The table is the first `mask + 1` slots; an owned table reset for a
    /// smaller partition keeps the longer buffer.
    slots: S,
    mask: u32,
    hash: H,
    /// Tuples inserted through this handle.
    len: usize,
    /// Keys are hashed as `key >> shift` (radix-partition tables pass the
    /// partition bits here so identity hashing spreads again).
    shift: u32,
}

/// The linear table that owns its slots (join phase of the PR*/CPR*
/// linear variants, SHHJ's spilled partitions).
pub type StLinearTable<H = IdentityHash> = LinearTable<AlignedBuf<u64>, H>;

impl<H: KeyHash + Default> StLinearTable<H> {
    pub fn with_capacity(n: usize) -> Self {
        Self::with_capacity_shift(n, 0)
    }

    /// Table whose keys share their low `shift` bits (one radix
    /// partition): hash on the distinguishing high bits.
    pub fn with_capacity_shift(n: usize, shift: u32) -> Self {
        let mut table = LinearTable {
            slots: AlignedBuf::zeroed(0),
            mask: 0,
            hash: H::default(),
            len: 0,
            shift,
        };
        table.clear_for(n);
        table
    }
}

impl<H: KeyHash> StLinearTable<H> {
    /// An empty table for `n` tuples, in the buffer it has if that is
    /// long enough.
    fn clear_for(&mut self, n: usize) {
        let size = slots_for(n);
        if self.slots.len() < size {
            self.slots = AlignedBuf::zeroed(size);
        } else {
            self.slots[..size].fill(0);
        }
        (self.mask, self.len) = ((size - 1) as u32, 0);
    }
}

impl<S: Deref<Target = [u64]>, H: KeyHash> LinearTable<S, H> {
    #[inline]
    fn home(&self, key: Key) -> usize {
        self.hash.index(key >> self.shift, self.mask) as usize
    }

    /// The probe: walk from the home slot to the first empty one; `f` gets
    /// every match, only the first if `FIRST`.
    #[inline]
    fn walk<const FIRST: bool, Tr: MemTracer>(
        &self,
        key: Key,
        tr: &mut Tr,
        mut f: impl FnMut(Payload),
    ) {
        let mut idx = self.home(key);
        tr.ops(3);
        loop {
            let slot = &self.slots[idx];
            tr.read_of(slot);
            if *slot == 0 {
                return;
            }
            let t = Tuple::unpack(*slot);
            tr.ops(2);
            if t.key == key {
                f(t.payload);
                if FIRST {
                    return;
                }
            }
            idx = (idx + 1) & self.mask as usize;
        }
    }

    /// The batch probe: home slots prefetched a group ahead of their walks.
    #[inline(never)]
    fn walk_batch<Tr: MemTracer, F: FnMut(&Tuple, Payload)>(
        &self,
        probes: &[Tuple],
        unique: bool,
        tr: &mut Tr,
        mut f: F,
    ) {
        let touch = |s: &&Self, t: &Tuple| kernels::prefetch_read(&s.slots[s.home(t.key)]);
        if unique {
            group_ahead(self, probes, tr, touch, |s, t, tr| {
                s.walk::<true, _>(t.key, tr, |p| f(t, p))
            })
        } else {
            group_ahead(self, probes, tr, touch, |s, t, tr| {
                s.walk::<false, _>(t.key, tr, |p| f(t, p))
            })
        }
    }

    #[inline]
    pub fn probe<F: FnMut(Payload)>(&self, key: Key, f: F) {
        self.walk::<false, _>(key, &mut NoTracer, f)
    }

    /// Probe assuming *unique* build keys (the study's PK assumption):
    /// stops at the first match instead of scanning the whole collision
    /// run for duplicates.
    #[inline]
    pub fn probe_first<F: FnMut(Payload)>(&self, key: Key, f: F) {
        self.walk::<true, _>(key, &mut NoTracer, f)
    }
}

impl<S: DerefMut<Target = [u64]>, H: KeyHash> LinearTable<S, H> {
    /// The insert: the first empty slot from home on; `table full` if it is the last.
    #[inline]
    fn put<Tr: MemTracer>(&mut self, t: Tuple, tr: &mut Tr) {
        debug_assert_ne!(t.key, 0, "key 0 is the EMPTY sentinel");
        assert!(self.len < self.mask as usize, "table full");
        let mut idx = self.home(t.key);
        tr.ops(3);
        loop {
            tr.read_of(&self.slots[idx]);
            if self.slots[idx] == 0 {
                tr.write_of(&self.slots[idx]);
                tr.ops(2);
                self.slots[idx] = t.pack();
                self.len += 1;
                return;
            }
            tr.ops(1);
            idx = (idx + 1) & self.mask as usize;
        }
    }

    /// The batch insert: home slots prefetched with write intent a group
    /// ahead of their inserts.
    #[inline(never)]
    fn put_batch<Tr: MemTracer>(&mut self, tuples: &[Tuple], tr: &mut Tr) {
        let touch = |s: &&mut Self, t: &Tuple| kernels::prefetch_write(&s.slots[s.home(t.key)]);
        group_ahead(self, tuples, tr, touch, |s, t, tr| s.put(*t, tr))
    }

    #[inline]
    pub fn insert(&mut self, t: Tuple) {
        self.put(t, &mut NoTracer)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<H: KeyHash + Default> JoinTable for StLinearTable<H> {
    fn with_spec(spec: &TableSpec) -> Self {
        Self::with_capacity_shift(spec.capacity, spec.key_shift)
    }

    fn reset(&mut self, spec: &TableSpec) {
        self.shift = spec.key_shift;
        self.clear_for(spec.capacity);
    }

    #[inline]
    fn insert(&mut self, t: Tuple) {
        LinearTable::insert(self, t)
    }

    #[inline]
    fn probe<F: FnMut(Payload)>(&self, key: Key, f: F) {
        LinearTable::probe(self, key, f)
    }

    #[inline]
    fn probe_unique<F: FnMut(Payload)>(&self, key: Key, f: F) {
        self.probe_first(key, f)
    }

    fn insert_batch_with<Tr: MemTracer>(&mut self, tuples: &[Tuple], tr: &mut Tr) {
        self.put_batch(tuples, tr)
    }

    fn probe_batch_with<Tr: MemTracer, F: FnMut(&Tuple, Payload)>(
        &self,
        probes: &[Tuple],
        unique: bool,
        tr: &mut Tr,
        f: F,
    ) {
        self.walk_batch(probes, unique, tr, f)
    }

    fn memory_bytes(&self) -> usize {
        self.slots.len() * 8
    }
}

/// A packed linear table is the [`StLinearTable`] of its spec's
/// capacity, in a range of the block.
// SAFETY: `clear` zeroes every slot of the range.
unsafe impl<H: KeyHash + Default> Packable for StLinearTable<H> {
    type Word = u64;

    fn words(spec: &TableSpec) -> usize {
        slots_for(spec.capacity)
    }

    fn clear(range: &mut [u64], _: &TableSpec) {
        range.fill(0);
    }

    fn insert_batch(range: &mut [u64], spec: &TableSpec, len: usize, tuples: &[Tuple]) {
        over::<_, H>(range, spec, len).put_batch(tuples, &mut NoTracer)
    }

    #[inline]
    fn probe_batch<F: FnMut(&Tuple, Payload)>(
        range: &[u64],
        spec: &TableSpec,
        probes: &[Tuple],
        unique: bool,
        f: F,
    ) {
        over::<_, H>(range, spec, 0).walk_batch(probes, unique, &mut NoTracer, f)
    }
}

/// The table of `spec` over all of `slots`, holding `len` tuples.
#[inline]
fn over<S: Deref<Target = [u64]>, H: KeyHash + Default>(
    slots: S,
    spec: &TableSpec,
    len: usize,
) -> LinearTable<S, H> {
    LinearTable {
        mask: (slots.len() - 1) as u32,
        slots,
        hash: H::default(),
        len,
        shift: spec.key_shift,
    }
}

/// Lock-free concurrent linear-probing table (the NOP global table).
///
/// Inserts CAS the whole packed `<key,payload>` word into an empty slot —
/// equivalent to (and race-free like) the original's CAS-on-key followed
/// by a plain payload store, because the packed word is claimed and
/// published in a single atomic operation.
///
/// Probes use `Relaxed` loads: the join driver separates build and probe
/// phases with a barrier (thread join / `std::sync::Barrier`), which
/// provides the necessary happens-before edge for all inserted entries.
pub struct ConcurrentLinearTable<H: KeyHash = IdentityHash> {
    slots: AlignedBuf<AtomicU64>,
    mask: u32,
    hash: H,
}

impl<H: KeyHash + Default> ConcurrentLinearTable<H> {
    pub fn with_capacity(n: usize) -> Self {
        let size = slots_for(n);
        // A zeroed AtomicU64 is the EMPTY sentinel, so the policy-aware
        // zeroed buffer is already a valid empty table.
        ConcurrentLinearTable {
            slots: AlignedBuf::zeroed(size),
            mask: (size - 1) as u32,
            hash: H::default(),
        }
    }
}

impl<H: KeyHash> ConcurrentLinearTable<H> {
    #[inline]
    fn home(&self, key: Key) -> usize {
        self.hash.index(key, self.mask) as usize
    }

    /// Insert from any thread.
    ///
    /// Panics as soon as the probe loop wraps all the way back to the
    /// key's home slot without claiming anything: at that point every slot
    /// has been observed occupied (there are no deletes), so the table is
    /// full and further probing could spin forever.
    #[inline]
    pub fn insert(&self, t: Tuple) {
        debug_assert_ne!(t.key, 0, "key 0 is the EMPTY sentinel");
        let packed = t.pack();
        let home = self.home(t.key);
        let mut idx = home;
        loop {
            let slot = &self.slots[idx];
            if slot.load(Ordering::Relaxed) == 0
                && slot
                    .compare_exchange(0, packed, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            idx = (idx + 1) & self.mask as usize;
            assert!(idx != home, "concurrent linear table full");
        }
    }

    /// The probe, after the build barrier: [`StLinearTable`]'s walk on
    /// `Relaxed` loads, over one lap at most. The home slot is stepped apart:
    /// inside the bounded loop a hit there ran 5-15 % slower (`probe_ns.clinear`).
    #[inline]
    fn walk<const FIRST: bool>(&self, key: Key, mut f: impl FnMut(Payload)) {
        // Whether the walk goes on past slot `idx`.
        let mut step = |idx: usize| {
            let slot = self.slots[idx].load(Ordering::Relaxed);
            if slot == 0 {
                return false;
            }
            let t = Tuple::unpack(slot);
            if t.key == key {
                f(t.payload);
            }
            !(FIRST && t.key == key)
        };
        let home = self.home(key);
        if !step(home) {
            return;
        }
        for off in 1..=self.mask as usize {
            if !step((home + off) & self.mask as usize) {
                return;
            }
        }
    }

    /// Probe after the build barrier, scanning the full collision run
    /// (supports duplicate build keys). With *dense unique* keys and
    /// identity hashing the occupied slots form one giant run, making
    /// this O(|R|) per probe — use [`Self::probe_first`] for the study's
    /// unique-PK workloads.
    #[inline]
    pub fn probe<F: FnMut(Payload)>(&self, key: Key, f: F) {
        self.walk::<false>(key, f)
    }

    /// Probe assuming unique build keys: stop at the first match (the
    /// original NOP's lookup semantics for primary-key builds).
    #[inline]
    pub fn probe_first<F: FnMut(Payload)>(&self, key: Key, f: F) {
        self.walk::<true>(key, f)
    }

    /// Batch insert (build phase of NOP): as [`StLinearTable`]'s.
    pub fn insert_batch(&self, tuples: &[Tuple]) {
        let touch = |s: &&Self, t: &Tuple| kernels::prefetch_write(&s.slots[s.home(t.key)]);
        group_ahead(self, tuples, &mut NoTracer, touch, |s, t, _| s.insert(*t))
    }

    /// Batch probe (probe phase of NOP, after the build barrier): home slots
    /// prefetched a group ahead; `f(probe_tuple, build_payload)` per match.
    pub fn probe_batch<F: FnMut(&Tuple, Payload)>(&self, probes: &[Tuple], unique: bool, mut f: F) {
        let touch = |s: &&Self, t: &Tuple| kernels::prefetch_read(&s.slots[s.home(t.key)]);
        if unique {
            let first = |s: &mut &Self, t: &Tuple, _: &mut _| s.walk::<true>(t.key, |p| f(t, p));
            group_ahead(self, probes, &mut NoTracer, touch, first)
        } else {
            let all = |s: &mut &Self, t: &Tuple, _: &mut _| s.walk::<false>(t.key, |p| f(t, p));
            group_ahead(self, probes, &mut NoTracer, touch, all)
        }
    }

    /// Number of slots (for traffic accounting).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{check_join_table, random_tuples};

    #[test]
    fn st_insert_probe_unique_keys() {
        let mut t = StLinearTable::<IdentityHash>::with_capacity(100);
        for k in 1..=100u32 {
            t.insert(Tuple::new(k, k * 10));
        }
        for k in 1..=100u32 {
            let mut hits = Vec::new();
            t.probe(k, |p| hits.push(p));
            assert_eq!(hits, vec![k * 10]);
        }
        let mut miss = Vec::new();
        t.probe(101, |p| miss.push(p));
        assert!(miss.is_empty());
    }

    #[test]
    fn st_duplicates_all_found() {
        let mut t = StLinearTable::<IdentityHash>::with_capacity(10);
        t.insert(Tuple::new(5, 1));
        t.insert(Tuple::new(5, 2));
        t.insert(Tuple::new(5, 3));
        let mut hits = Vec::new();
        t.probe(5, |p| hits.push(p));
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2, 3]);
    }

    #[test]
    fn st_matches_reference_on_random_input() {
        let tuples = random_tuples(500, 100, 42);
        let probes: Vec<u32> = (1..=120).collect();
        let spec = TableSpec::hashed(tuples.len());
        check_join_table::<StLinearTable<IdentityHash>>(&spec, &tuples, &probes);
        check_join_table::<StLinearTable<crate::MurmurHash>>(&spec, &tuples, &probes);
    }

    #[test]
    fn concurrent_single_thread_semantics() {
        let t = ConcurrentLinearTable::<IdentityHash>::with_capacity(100);
        for k in 1..=100u32 {
            t.insert(Tuple::new(k, k));
        }
        for k in 1..=100u32 {
            let mut hits = Vec::new();
            t.probe(k, |p| hits.push(p));
            assert_eq!(hits, vec![k]);
        }
    }

    #[test]
    fn concurrent_inserts_from_many_threads() {
        let n = 10_000usize;
        let table = ConcurrentLinearTable::<IdentityHash>::with_capacity(n);
        let threads = 8;
        std::thread::scope(|s| {
            for th in 0..threads {
                let table = &table;
                s.spawn(move || {
                    for i in (th..n).step_by(threads) {
                        table.insert(Tuple::new(i as u32 + 1, i as u32));
                    }
                });
            }
        });
        // Every key present exactly once.
        for k in 1..=n as u32 {
            let mut hits = Vec::new();
            table.probe(k, |p| hits.push(p));
            assert_eq!(hits, vec![k - 1], "key {k}");
        }
    }

    #[test]
    fn concurrent_contended_duplicate_keys() {
        // All threads insert the SAME key: every insert must land.
        let table = ConcurrentLinearTable::<IdentityHash>::with_capacity(1000);
        std::thread::scope(|s| {
            for th in 0..8u32 {
                let table = &table;
                s.spawn(move || {
                    for i in 0..100u32 {
                        table.insert(Tuple::new(7, th * 1000 + i));
                    }
                });
            }
        });
        let mut hits = Vec::new();
        table.probe(7, |p| hits.push(p));
        assert_eq!(hits.len(), 800);
        hits.sort_unstable();
        hits.dedup();
        assert_eq!(hits.len(), 800, "all payloads distinct");
    }

    #[test]
    #[should_panic(expected = "table full")]
    fn st_overflow_panics() {
        let mut t = StLinearTable::<IdentityHash>::with_capacity(1);
        for k in 1..=10u32 {
            t.insert(Tuple::new(k, 0));
        }
    }

    #[test]
    #[should_panic(expected = "concurrent linear table full")]
    fn concurrent_full_table_panics_on_first_wraparound() {
        let t = ConcurrentLinearTable::<IdentityHash>::with_capacity(4);
        assert_eq!(t.capacity(), 8);
        for k in 1..=9u32 {
            t.insert(Tuple::new(k, 0));
        }
    }

    #[test]
    fn zero_capacity_tables_probe_safely() {
        // An empty build relation must still yield a probeable table with
        // at least one empty slot terminating every probe run.
        let st = StLinearTable::<IdentityHash>::with_capacity(0);
        let mut hits = Vec::new();
        st.probe(1, |p| hits.push(p));
        st.probe_first(7, |p| hits.push(p));
        let ct = ConcurrentLinearTable::<IdentityHash>::with_capacity(0);
        ct.probe(1, |p| hits.push(p));
        ct.probe_first(7, |p| hits.push(p));
        assert!(hits.is_empty());
        assert!(st.memory_bytes() >= CACHE_LINE);
        assert!(ct.memory_bytes() >= CACHE_LINE);
    }

    #[test]
    fn st_batch_kernels_match_portable() {
        use crate::test_support::check_batch_kernels;
        let random = random_tuples(600, 120, 7);
        let skewed: Vec<Tuple> = (0..64u32).map(|i| Tuple::new(5, i)).collect();
        let dups = random_tuples(400, 40, 8);
        for tuples in [&random, &skewed, &dups] {
            let probes: Vec<Tuple> = (0..200u32).map(|i| Tuple::new(i % 140 + 1, i)).collect();
            let spec = TableSpec::hashed(tuples.len());
            check_batch_kernels::<StLinearTable<IdentityHash>>(&spec, tuples, &probes);
            check_batch_kernels::<StLinearTable<crate::MurmurHash>>(&spec, tuples, &probes);
        }
    }

    #[test]
    fn concurrent_batch_from_many_threads() {
        // Batched build on 4 threads, then batched probes on 4 threads —
        // the pattern NOP runs under the executor. Exercised under TSan
        // in CI with the prefetch kernels forced on: the scoped pool
        // carries the mode into every thread it spawns.
        use mmjoin_util::kernels::{effective_mode, with_mode, KernelMode};
        use mmjoin_util::pool::{broadcast_map, ScopedPool, WorkerPool};
        let n = 8_000usize;
        let tuples: Vec<Tuple> = (0..n).map(|i| Tuple::new(i as u32 + 1, i as u32)).collect();
        let table = ConcurrentLinearTable::<IdentityHash>::with_capacity(n);
        let pool = ScopedPool::new(4);
        let chunk = |w| &tuples[mmjoin_util::chunk_range(n, 4, w)];
        with_mode(KernelMode::Simd, || {
            let forced = effective_mode();
            pool.broadcast(&|w| {
                assert_eq!(effective_mode(), forced);
                table.insert_batch(chunk(w));
            });
            let counts = broadcast_map(&pool, 4, |w| {
                assert_eq!(effective_mode(), forced);
                let mut cnt = 0usize;
                table.probe_batch(chunk(w), true, |p, bp| {
                    assert_eq!(p.payload, bp);
                    cnt += 1;
                });
                cnt
            });
            assert_eq!(counts.iter().sum::<usize>(), n);
        });
    }

    #[test]
    fn concurrent_batch_matches_scalar_in_both_modes() {
        use mmjoin_util::kernels::{with_mode, KernelMode};
        let tuples = random_tuples(500, 200, 9);
        let probes: Vec<Tuple> = (0..300u32).map(|i| Tuple::new(i % 220 + 1, i)).collect();
        let scalar = {
            let t = ConcurrentLinearTable::<IdentityHash>::with_capacity(tuples.len());
            for &b in &tuples {
                t.insert(b);
            }
            let mut got = Vec::new();
            for p in &probes {
                t.probe(p.key, |bp| got.push((p.key, p.payload, bp)));
            }
            got
        };
        for mode in [KernelMode::Portable, KernelMode::Simd] {
            let got = with_mode(mode, || {
                let t = ConcurrentLinearTable::<IdentityHash>::with_capacity(tuples.len());
                t.insert_batch(&tuples);
                let mut got = Vec::new();
                t.probe_batch(&probes, false, |p, bp| got.push((p.key, p.payload, bp)));
                got
            });
            assert_eq!(got, scalar, "{mode:?}");
        }
    }
}
