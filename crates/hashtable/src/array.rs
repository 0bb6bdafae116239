//! Array "hash tables" (Section 5.2, "Arrays").
//!
//! For dense, unique key domains (`ID INTEGER PRIMARY KEY AUTOINCREMENT`)
//! the key itself can index an array holding only the payload — no keys
//! stored, no collisions, one cache line touched per probe. This yields
//! the NOPA/PRA/CPRA/PRAiS variants.
//!
//! Presence is encoded with the payload sentinel [`EMPTY`]; payloads in
//! the study are row ids `< 2^31`, so `u32::MAX` is free. Appendix C
//! ("holes in the key range") uses the same structure over a domain `k`
//! times larger than the relation.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};

use mmjoin_util::alloc::AlignedBuf;
use mmjoin_util::kernels;
use mmjoin_util::trace::{MemTracer, NoTracer};
use mmjoin_util::tuple::{Key, Payload, Tuple};

use crate::packed::Packable;
use crate::{group_ahead, JoinTable, TableSpec};

/// Sentinel payload marking an unoccupied slot.
pub const EMPTY: u32 = u32::MAX;

/// Single-threaded array table for one co-partition join (PRA/CPRA),
/// over payload slots it owns (the default `S`) or over one table's
/// range of a [`PackedTables`](crate::PackedTables) block (a cached PRA
/// build side's partitions).
///
/// Keys of a radix partition share their low `key_shift` bits, so
/// `key >> key_shift` indexes densely.
pub struct ArrayTable<S = AlignedBuf<u32>> {
    /// The table is the first `len` slots; an owned table reset for a
    /// shorter array keeps the longer buffer.
    payloads: S,
    len: usize,
    key_shift: u32,
}

impl ArrayTable {
    pub fn new(array_len: usize, key_shift: u32) -> Self {
        ArrayTable {
            payloads: AlignedBuf::filled(array_len, EMPTY),
            len: array_len,
            key_shift,
        }
    }
}

impl<S: Deref<Target = [u32]>> ArrayTable<S> {
    #[inline]
    fn slot(&self, key: Key) -> usize {
        (key >> self.key_shift) as usize
    }

    /// Where `key`'s slot lies, or would past the array's end: a
    /// prefetch takes any address.
    #[inline]
    fn slot_addr(&self, key: Key) -> *const u32 {
        self.payloads.as_ptr().wrapping_add(self.slot(key))
    }

    /// The probe: one load, none for a key past the array's end.
    #[inline]
    fn look<Tr: MemTracer>(&self, key: Key, tr: &mut Tr, mut f: impl FnMut(Payload)) {
        tr.ops(2);
        if let Some(p) = self.payloads[..self.len].get(self.slot(key)) {
            tr.read_of(p);
            if *p != EMPTY {
                f(*p);
            }
        }
    }

    /// An array probe touches exactly one line, so prefetching a group
    /// ahead overlaps the misses of random out-of-cache lookups.
    #[inline]
    fn look_batch<Tr: MemTracer, F: FnMut(&Tuple, Payload)>(
        &self,
        probes: &[Tuple],
        tr: &mut Tr,
        mut f: F,
    ) {
        let touch = |s: &&Self, t: &Tuple| kernels::prefetch_read(s.slot_addr(t.key));
        group_ahead(self, probes, tr, touch, |s, t, tr| {
            s.look(t.key, tr, |p| f(t, p))
        })
    }

    #[inline]
    pub fn probe<F: FnMut(Payload)>(&self, key: Key, f: F) {
        self.look(key, &mut NoTracer, f)
    }
}

impl<S: DerefMut<Target = [u32]>> ArrayTable<S> {
    /// The insert: one store.
    #[inline]
    fn put<Tr: MemTracer>(&mut self, t: Tuple, tr: &mut Tr) {
        debug_assert_ne!(t.payload, EMPTY, "payload sentinel collision");
        let s = self.slot(t.key);
        debug_assert_eq!(
            self.payloads[s], EMPTY,
            "array join requires unique keys (slot {s} taken)"
        );
        tr.ops(2);
        let slot = &mut self.payloads[..self.len][s];
        tr.write_of(slot);
        *slot = t.payload;
    }

    /// Target slots prefetched with write intent a group ahead.
    #[inline]
    fn put_batch<Tr: MemTracer>(&mut self, tuples: &[Tuple], tr: &mut Tr) {
        let touch = |s: &&mut Self, t: &Tuple| kernels::prefetch_write(s.slot_addr(t.key));
        group_ahead(self, tuples, tr, touch, |s, t, tr| s.put(*t, tr))
    }

    #[inline]
    pub fn insert(&mut self, t: Tuple) {
        self.put(t, &mut NoTracer)
    }
}

impl JoinTable for ArrayTable {
    fn with_spec(spec: &TableSpec) -> Self {
        ArrayTable::new(spec.array_len, spec.key_shift)
    }

    fn reset(&mut self, spec: &TableSpec) {
        if self.payloads.len() < spec.array_len {
            *self = Self::with_spec(spec);
        } else {
            self.payloads[..spec.array_len].fill(EMPTY);
            (self.len, self.key_shift) = (spec.array_len, spec.key_shift);
        }
    }

    #[inline]
    fn insert(&mut self, t: Tuple) {
        ArrayTable::insert(self, t)
    }

    #[inline]
    fn probe<F: FnMut(Payload)>(&self, key: Key, f: F) {
        ArrayTable::probe(self, key, f)
    }

    fn insert_batch_with<Tr: MemTracer>(&mut self, tuples: &[Tuple], tr: &mut Tr) {
        self.put_batch(tuples, tr)
    }

    /// A slot holds at most one payload: `unique` is implied.
    fn probe_batch_with<Tr: MemTracer, F: FnMut(&Tuple, Payload)>(
        &self,
        probes: &[Tuple],
        _unique: bool,
        tr: &mut Tr,
        f: F,
    ) {
        self.look_batch(probes, tr, f)
    }

    fn memory_bytes(&self) -> usize {
        self.payloads.len() * 4
    }
}

/// A packed array table is the [`ArrayTable`] of its spec's
/// `array_len`, in a range of the block.
// SAFETY: `clear` writes `EMPTY` to every slot of the range.
unsafe impl Packable for ArrayTable {
    type Word = u32;

    fn words(spec: &TableSpec) -> usize {
        spec.array_len
    }

    fn clear(range: &mut [u32], _: &TableSpec) {
        range.fill(EMPTY);
    }

    fn insert_batch(range: &mut [u32], spec: &TableSpec, _: usize, tuples: &[Tuple]) {
        over(range, spec).put_batch(tuples, &mut NoTracer)
    }

    #[inline]
    fn probe_batch<F: FnMut(&Tuple, Payload)>(
        range: &[u32],
        spec: &TableSpec,
        probes: &[Tuple],
        _unique: bool,
        f: F,
    ) {
        over(range, spec).look_batch(probes, &mut NoTracer, f)
    }
}

/// The table of `spec` over all of `payloads`.
#[inline]
fn over<S: Deref<Target = [u32]>>(payloads: S, spec: &TableSpec) -> ArrayTable<S> {
    ArrayTable {
        len: payloads.len(),
        payloads,
        key_shift: spec.key_shift,
    }
}

/// Concurrent global array table (NOPA).
///
/// The build relation's keys are unique, so concurrent inserts target
/// distinct slots; relaxed atomic stores suffice (the build/probe barrier
/// publishes them).
pub struct ConcurrentArrayTable {
    payloads: AlignedBuf<AtomicU32>,
    /// Smallest key in the domain (1 for the canonical workload).
    base: Key,
}

impl ConcurrentArrayTable {
    /// Table over the key domain `[base, base + len)`.
    pub fn new(len: usize, base: Key) -> Self {
        // SAFETY: the fill below writes every slot before anything reads one.
        let mut payloads = unsafe { AlignedBuf::<AtomicU32>::unfilled(len) };
        payloads.fill_with(|| AtomicU32::new(EMPTY));
        ConcurrentArrayTable { payloads, base }
    }

    /// Where `key`'s slot lies, or would outside the domain: a prefetch
    /// takes any address.
    #[inline]
    fn slot_addr(&self, key: Key) -> *const AtomicU32 {
        let slot = key.wrapping_sub(self.base) as usize;
        self.payloads.as_ptr().wrapping_add(slot)
    }

    #[inline]
    pub fn insert(&self, t: Tuple) {
        debug_assert_ne!(t.payload, EMPTY);
        let slot = (t.key - self.base) as usize;
        self.payloads[slot].store(t.payload, Ordering::Relaxed);
    }

    #[inline]
    pub fn probe<F: FnMut(Payload)>(&self, key: Key, mut f: F) {
        let slot = key.checked_sub(self.base).map(|s| s as usize);
        if let Some(p) = slot.and_then(|s| self.payloads.get(s)) {
            let p = p.load(Ordering::Relaxed);
            if p != EMPTY {
                f(p);
            }
        }
    }

    /// Batch insert (build phase of NOPA): target slots prefetched with
    /// write intent a group ahead of their stores.
    pub fn insert_batch(&self, tuples: &[Tuple]) {
        let touch = |s: &&Self, t: &Tuple| kernels::prefetch_write(s.slot_addr(t.key));
        group_ahead(self, tuples, &mut NoTracer, touch, |s, t, _| s.insert(*t))
    }

    /// Batch probe (probe phase of NOPA, after the build barrier): slots
    /// prefetched a group ahead of their loads. `f` receives
    /// `(probe_tuple, build_payload)` per match, in probe order.
    pub fn probe_batch<F: FnMut(&Tuple, Payload)>(&self, probes: &[Tuple], mut f: F) {
        let touch = |s: &&Self, t: &Tuple| kernels::prefetch_read(s.slot_addr(t.key));
        group_ahead(self, probes, &mut NoTracer, touch, |s, t, _| {
            s.probe(t.key, |p| f(t, p))
        })
    }

    pub fn capacity(&self) -> usize {
        self.payloads.len()
    }

    pub fn memory_bytes(&self) -> usize {
        self.payloads.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn st_insert_probe() {
        let mut t = ArrayTable::new(101, 0);
        for k in 1..=100u32 {
            t.insert(Tuple::new(k, k + 7));
        }
        for k in 1..=100u32 {
            let mut hits = Vec::new();
            t.probe(k, |p| hits.push(p));
            assert_eq!(hits, vec![k + 7]);
        }
    }

    #[test]
    fn st_miss_on_hole_and_out_of_range() {
        let mut t = ArrayTable::new(10, 0);
        t.insert(Tuple::new(3, 30));
        let mut hits = Vec::new();
        t.probe(4, |p| hits.push(p)); // hole
        t.probe(4000, |p| hits.push(p)); // out of range
        assert!(hits.is_empty());
    }

    #[test]
    fn st_shifted_partition_keys() {
        // Radix partition with 4 low bits = 0b0101: keys 5, 21, 37 ...
        let shift = 4;
        let mut t = ArrayTable::new(16, shift);
        for i in 0..10u32 {
            let key = (i << shift) | 0b0101;
            t.insert(Tuple::new(key, i));
        }
        for i in 0..10u32 {
            let key = (i << shift) | 0b0101;
            let mut hits = Vec::new();
            t.probe(key, |p| hits.push(p));
            assert_eq!(hits, vec![i]);
        }
    }

    #[test]
    fn batch_kernels_match_scalar() {
        use mmjoin_util::kernels::{with_mode, KernelMode};
        let mut st = ArrayTable::new(1000, 0);
        let ct = ConcurrentArrayTable::new(1000, 1);
        for k in (1..1000u32).step_by(3) {
            st.insert(Tuple::new(k, k * 2));
            ct.insert(Tuple::new(k, k * 2));
        }
        // Probes include hits, holes, key 0, and out-of-range keys.
        let mut probes: Vec<Tuple> = (0..600u32).map(|i| Tuple::new(i, i)).collect();
        probes.push(Tuple::new(1_200, 600));
        probes.push(Tuple::new(u32::MAX, 601));
        let mut scalar = Vec::new();
        for p in &probes {
            st.probe(p.key, |bp| scalar.push((p.payload, bp)));
        }
        for mode in [KernelMode::Portable, KernelMode::Simd] {
            with_mode(mode, || {
                let mut got = Vec::new();
                JoinTable::probe_batch(&st, &probes, true, |p, bp| got.push((p.payload, bp)));
                assert_eq!(got, scalar, "st {mode:?}");
                let mut got = Vec::new();
                ct.probe_batch(&probes, |p, bp| got.push((p.payload, bp)));
                assert_eq!(got, scalar, "ct {mode:?}");
            });
        }
    }

    #[test]
    fn concurrent_parallel_build_probe() {
        let n = 10_000;
        let t = ConcurrentArrayTable::new(n, 1);
        std::thread::scope(|s| {
            for th in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for i in (th..n).step_by(4) {
                        t.insert(Tuple::new(i as u32 + 1, i as u32));
                    }
                });
            }
        });
        for k in 1..=n as u32 {
            let mut hits = Vec::new();
            t.probe(k, |p| hits.push(p));
            assert_eq!(hits, vec![k - 1]);
        }
    }

    #[test]
    fn concurrent_probe_below_base_is_miss() {
        let t = ConcurrentArrayTable::new(10, 5);
        t.insert(Tuple::new(5, 0));
        let mut hits = Vec::new();
        t.probe(2, |p| hits.push(p));
        assert!(hits.is_empty());
        t.probe(5, |p| hits.push(p));
        assert_eq!(hits, vec![0]);
    }
}
