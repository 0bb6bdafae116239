//! Linear-probing hash tables.
//!
//! * [`LinearTable`] — the single-threaded open-addressing table, over
//!   slots it owns ([`StLinearTable`], the join phase of PRL/PRLiS/CPRL:
//!   "CPRL uses the same linear probing hash table as PRL", Section 6.1)
//!   or over one table's range of a [`PackedLinearTables`] block (SHHJ's
//!   resident partitions, all of them in one block).
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
/// its own ([`StLinearTable`]) or one table's range of a
/// [`PackedLinearTables`] block. Every such table inserts and walks
/// through the methods here.
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

/// Linear tables packed end to end in one block, one per partition of a
/// radix fan-out (SHHJ's resident partitions): table `p` is the
/// [`StLinearTable`] of `capacities[p]` tuples, in a range of the block
/// instead of a buffer of its own. Under huge-page arenas a buffer of its
/// own costs a whole 2 MiB page however small the table; the block costs
/// at most one page beyond its tables.
///
/// The block is allocated unfilled. [`PackedLinearTables::split_mut`]
/// hands each range to the task that builds its table, and
/// [`PackedRange::clear`] zeroes it there: the clear runs in the build's
/// parallel tasks, not in one pass before them.
pub struct PackedLinearTables<H: KeyHash = IdentityHash> {
    /// Unfilled: a range is read only once its table was cleared.
    slots: AlignedBuf<u64>,
    /// Per table, `None` for a capacity of 0.
    tables: Vec<Option<Packed>>,
    shift: u32,
    hash: H,
}

/// Where one packed table lies, and whether its range was zeroed.
struct Packed {
    start: usize,
    mask: u32,
    cleared: bool,
}

impl<H: KeyHash + Default> PackedLinearTables<H> {
    /// One table per capacity, each hashing `key >> shift` like a radix
    /// partition's; a capacity of 0 has no table.
    pub fn new(capacities: &[usize], shift: u32) -> Self {
        let mut end = 0;
        let tables = capacities
            .iter()
            .map(|&n| {
                (n > 0).then(|| {
                    let start = end;
                    end += slots_for(n);
                    let mask = (end - start - 1) as u32;
                    Packed {
                        start,
                        mask,
                        cleared: false,
                    }
                })
            })
            .collect();
        PackedLinearTables {
            // SAFETY: nothing reads a range before `PackedRange::clear`
            // has zeroed it: `get` hands out only cleared tables.
            slots: unsafe { AlignedBuf::unfilled(end) },
            tables,
            shift,
            hash: H::default(),
        }
    }
}

impl<H: KeyHash> PackedLinearTables<H> {
    /// Every table's range, for the task that builds it, in the order of
    /// the capacities: `None` where the capacity was 0.
    pub fn split_mut(&mut self) -> Vec<Option<PackedRange<'_, H>>> {
        let (shift, hash) = (self.shift, self.hash);
        let mut rest = self.slots.as_mut_slice();
        self.tables
            .iter_mut()
            .map(|t| {
                let t = t.as_mut()?;
                let (slots, tail) = std::mem::take(&mut rest).split_at_mut(t.mask as usize + 1);
                rest = tail;
                let table = LinearTable {
                    slots,
                    mask: t.mask,
                    hash,
                    len: 0,
                    shift,
                };
                Some(PackedRange {
                    table,
                    cleared: &mut t.cleared,
                })
            })
            .collect()
    }

    /// Table `p`, to probe: `None` where the capacity was 0 or the range
    /// was never cleared (its build was cut short).
    #[inline]
    pub fn get(&self, p: usize) -> Option<LinearTable<&[u64], H>> {
        let t = self.tables[p].as_ref().filter(|t| t.cleared)?;
        Some(LinearTable {
            slots: &self.slots[t.start..=t.start + t.mask as usize],
            mask: t.mask,
            hash: self.hash,
            len: 0,
            shift: self.shift,
        })
    }

    /// Bytes of the block: the sum of the tables' [`TableSpec::table_bytes`].
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * 8
    }
}

/// One table's range of a [`PackedLinearTables`] block, not yet zeroed.
pub struct PackedRange<'a, H: KeyHash = IdentityHash> {
    table: LinearTable<&'a mut [u64], H>,
    cleared: &'a mut bool,
}

impl<'a, H: KeyHash> PackedRange<'a, H> {
    /// Zero the range: the empty table, to build.
    pub fn clear(self) -> LinearTable<&'a mut [u64], H> {
        let table = self.table;
        table.slots.fill(0);
        *self.cleared = true;
        table
    }
}

impl<H: KeyHash> LinearTable<&mut [u64], H> {
    /// [`JoinTable::insert_batch`] on a packed table.
    pub fn insert_batch(&mut self, tuples: &[Tuple]) {
        self.put_batch(tuples, &mut NoTracer)
    }
}

impl<H: KeyHash> LinearTable<&[u64], H> {
    /// [`JoinTable::probe_batch`] on a packed table.
    #[inline]
    pub fn probe_batch<F: FnMut(&Tuple, Payload)>(&self, probes: &[Tuple], unique: bool, f: F) {
        self.walk_batch(probes, unique, &mut NoTracer, f)
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

    /// Each packed table answers like the owned table of its capacity
    /// and shift, the block is exactly the tables' charge, and a table
    /// of no tuples or one never cleared answers no probe.
    #[test]
    fn packed_tables_answer_like_owned_ones() {
        // Keys of radix partition p of 8: p + 8, p + 16, ...
        let part = |p: u32, n: u32| -> Vec<Tuple> {
            (1..=n).map(|k| Tuple::new(k << 3 | p, k + 7)).collect()
        };
        let caps = [1_000, 0, 40, 2_000, 3, 0, 700, 1];
        let mut packed = PackedLinearTables::<IdentityHash>::new(&caps, 3);
        let charged: usize = caps
            .iter()
            .filter(|&&n| n > 0)
            .map(|&n| TableSpec::hashed_partition(n, 3).table_bytes())
            .sum();
        assert_eq!(packed.memory_bytes(), charged);
        let ranges = packed.split_mut();
        for (p, range) in ranges.into_iter().enumerate() {
            assert_eq!(range.is_some(), caps[p] > 0, "table {p}");
            // Table 6 is left uncleared, as a cut-short build leaves it.
            if let Some(range) = range.filter(|_| p != 6) {
                range.clear().insert_batch(&part(p as u32, caps[p] as u32));
            }
        }
        for (p, &cap) in caps.iter().enumerate() {
            let Some(table) = packed.get(p) else {
                assert!(cap == 0 || p == 6, "table {p}");
                continue;
            };
            let tuples = part(p as u32, cap as u32);
            let mut owned = StLinearTable::<IdentityHash>::with_capacity_shift(cap, 3);
            owned.insert_batch(&tuples);
            let probes: Vec<Tuple> = (0..2_100)
                .map(|k| Tuple::new(k << 3 | p as u32, k))
                .collect();
            for unique in [false, true] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                table.probe_batch(&probes, unique, |t, bp| a.push((t.key, bp)));
                owned.probe_batch(&probes, unique, |t, bp| b.push((t.key, bp)));
                assert_eq!(a, b, "table {p} unique={unique}");
                assert_eq!(a.len(), tuples.len(), "table {p}");
            }
        }
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
        // Batched build from 4 threads, then batched probes from 4
        // threads — the pattern NOP runs under the executor. Exercised
        // under TSan in CI with the prefetch kernels forced on.
        use mmjoin_util::kernels::{with_mode, KernelMode};
        let n = 8_000usize;
        let tuples: Vec<Tuple> = (0..n).map(|i| Tuple::new(i as u32 + 1, i as u32)).collect();
        let table = ConcurrentLinearTable::<IdentityHash>::with_capacity(n);
        with_mode(KernelMode::Simd, || {
            std::thread::scope(|s| {
                for chunk in tuples.chunks(n / 4) {
                    let table = &table;
                    s.spawn(move || table.insert_batch(chunk));
                }
            });
            let total: usize = std::thread::scope(|s| {
                let handles: Vec<_> = tuples
                    .chunks(n / 4)
                    .map(|chunk| {
                        let table = &table;
                        s.spawn(move || {
                            let mut cnt = 0usize;
                            table.probe_batch(chunk, true, |p, bp| {
                                assert_eq!(p.payload, bp);
                                cnt += 1;
                            });
                            cnt
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(total, n);
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
