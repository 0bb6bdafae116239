//! Bucket-chaining hash table: the per-partition table of the original
//! radix join (Balkesen et al., `parallel_radix_join.c:bucket_chaining_join`,
//! after Manegold et al.).
//!
//! Tuples are stored densely in insertion order. `heads[h]` is 1 + the
//! index of the newest tuple hashing to `h` (0 = empty bucket) and
//! `next[i]` links tuple `i` to the one inserted into its bucket before
//! it, so a chain is walked newest to oldest. A probe of a dense-key
//! partition is two dependent cache-resident loads (head word, tuple) and
//! one compare that always succeeds — nothing data-dependent to
//! mispredict, which is what lets PRO run level with PRL and PRA (§5.2).
//! Against a table that is not resident (an operator's small batch routed
//! to a cached build side) they are two dependent misses, so batches
//! smaller than the table are probed a group at a time, prefetching.
//!
//! A table is *one* run of words, `[heads | tuples | next]`: a buffer
//! of its own ([`StChainedTable`]), or one table's range of a
//! [`PackedTables`](crate::PackedTables) block, where a cached build
//! side keeps all of its partitions' tables (under huge-page arenas a
//! buffer per table, let alone three, costs a 2 MiB page each).
//! Single-threaded: one thread builds and probes a co-partition's table.

use std::ops::{Deref, DerefMut};

use mmjoin_util::alloc::AlignedBuf;
use mmjoin_util::kernels;
use mmjoin_util::next_pow2;
use mmjoin_util::trace::{MemTracer, NoTracer};
use mmjoin_util::tuple::{Key, Payload, Tuple};

use crate::hashfn::{IdentityHash, KeyHash};
use crate::packed::Packable;
use crate::{JoinTable, TableSpec, PROBE_GROUP};

/// Single-threaded chained table over the words `S`: a buffer of its
/// own ([`StChainedTable`]) or one table's range of a packed block.
pub struct ChainedTable<S, H: KeyHash = IdentityHash> {
    /// `mask + 1` head words, then `cap` tuples as `(key, payload)` word
    /// pairs, then `cap` link words. Heads are zeroed; tuple `i` and
    /// link `i` are written when tuple `i` is inserted (`i < len`).
    buf: S,
    mask: u32,
    cap: usize,
    len: usize,
    hash: H,
    /// Keys are hashed as `key >> shift` (radix-partition tables).
    shift: u32,
}

/// The chained table that owns its words, for one co-partition join
/// (PRB/PRO); inserting past its capacity grows it.
pub type StChainedTable<H = IdentityHash> = ChainedTable<AlignedBuf<u32>, H>;

/// Words of a table for `cap` tuples: `next_pow2(cap)` heads, as the
/// original sizes it, and three words a tuple.
fn words_for(cap: usize) -> usize {
    // Heads and links hold tuple indices + 1 in 32 bits.
    assert!(cap < u32::MAX as usize, "chained table capacity overflow");
    next_pow2(cap) + 3 * cap
}

/// Zero the heads of a table for `cap` tuples at the start of `words`
/// and return the head mask.
fn clear_heads(words: &mut [u32], cap: usize) -> u32 {
    let heads = next_pow2(cap);
    words[..heads].fill(0);
    (heads - 1) as u32
}

/// Lay `buf` out for `cap` tuples, heads zeroed, and return the head
/// mask; a buffer too short for them is replaced, a longer one kept (a
/// join worker resets one table from co-partition to co-partition).
fn layout(buf: &mut AlignedBuf<u32>, cap: usize) -> u32 {
    let words = words_for(cap);
    if buf.len() < words {
        // SAFETY: the heads are zeroed right below; tuple and link `i` are
        // written by the insert that makes `i < len`, and only slots below
        // `len` are ever read (a head or link word names an inserted tuple).
        *buf = unsafe { AlignedBuf::<u32>::unfilled(words) };
    }
    clear_heads(buf, cap)
}

/// Walk the chain from `at`, newest tuple first, handing `f` the payload
/// of every tuple with `key` — of the first one only if `FIRST`. A step
/// is traced as its tuple and its link: a first match does not load the
/// link, but Table 4 has counted it since its replay walked all matches.
#[inline]
fn walk<const FIRST: bool, Tr: MemTracer>(
    mut at: u32,
    key: Key,
    tuples: &[Tuple],
    next: &[u32],
    tr: &mut Tr,
    mut f: impl FnMut(Payload),
) {
    while at != 0 {
        let t = &tuples[at as usize - 1];
        tr.read_of(t);
        tr.read(next.as_ptr().wrapping_add(at as usize - 1) as usize, 4);
        tr.ops(3);
        if t.key == key {
            f(t.payload);
            if FIRST {
                return;
            }
        }
        at = next[at as usize - 1];
    }
}

impl<H: KeyHash + Default> StChainedTable<H> {
    /// Table sized for `n` tuples: `next_pow2(n)` buckets, as the
    /// original sizes it. Inserting more grows it.
    pub fn with_capacity(n: usize) -> Self {
        Self::with_capacity_shift(n, 0)
    }

    /// Table whose keys share their low `shift` bits (one radix
    /// partition): hash on the distinguishing high bits.
    pub fn with_capacity_shift(n: usize, shift: u32) -> Self {
        let mut buf = AlignedBuf::zeroed(0);
        let mask = layout(&mut buf, n);
        ChainedTable {
            buf,
            mask,
            cap: n,
            len: 0,
            hash: H::default(),
            shift,
        }
    }
}

impl<H: KeyHash> StChainedTable<H> {
    /// Re-lay the table out for at least `need` tuples (at least double
    /// the capacity) and re-thread every chain over the wider heads.
    #[cold]
    fn grow(&mut self, need: usize) {
        let cap = need.max(2 * self.cap);
        let mut buf = AlignedBuf::zeroed(0);
        let mask = layout(&mut buf, cap);
        let old = std::mem::replace(&mut self.buf, buf);
        let stored = &old[self.mask as usize + 1..][..2 * self.len];
        self.buf[mask as usize + 1..][..stored.len()].copy_from_slice(stored);
        (self.mask, self.cap) = (mask, cap);
        self.link(0, self.len);
    }

    /// [`ChainedTable::append`], grown first if the tuples do not fit.
    #[inline]
    fn grow_append<Tr: MemTracer>(&mut self, tuples: &[Tuple], tr: &mut Tr) {
        if self.len + tuples.len() > self.cap {
            self.grow(self.len + tuples.len());
        }
        self.append(tuples, tr)
    }

    #[inline]
    pub fn insert(&mut self, t: Tuple) {
        self.grow_append(std::slice::from_ref(&t), &mut NoTracer);
    }
}

impl<S: Deref<Target = [u32]>, H: KeyHash> ChainedTable<S, H> {
    /// The three regions of the words: heads, tuples, links.
    #[inline]
    fn regions(&self) -> (&[u32], &[Tuple], &[u32]) {
        let (heads, rest) = self.buf.split_at(self.mask as usize + 1);
        let (words, next) = rest.split_at(2 * self.cap);
        // SAFETY: `Tuple` is `repr(C)` of two `u32`s (size 8, align 4)
        // and `words` is `2 * cap` initialized-or-unread `u32`s, so the
        // same bytes are `cap` tuples at a valid alignment.
        let tuples = unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), self.cap) };
        (heads, tuples, next)
    }

    /// The probe: the head word of `key`'s bucket, then its chain.
    #[inline]
    fn find<const FIRST: bool>(&self, key: Key, tr: &mut impl MemTracer, f: impl FnMut(Payload)) {
        let (heads, tuples, next) = self.regions();
        let head = &heads[self.home(key)];
        tr.ops(3);
        tr.read_of(head);
        walk::<FIRST, _>(*head, key, tuples, next, tr, f);
    }

    /// Invoke `f` with the payload of every stored tuple matching `key`, newest first.
    #[inline]
    pub fn probe<F: FnMut(Payload)>(&self, key: Key, f: F) {
        self.find::<false>(key, &mut NoTracer, f)
    }

    /// Probe under the study's unique-build-key (PK) assumption: the first match only.
    #[inline]
    pub fn probe_first<F: FnMut(Payload)>(&self, key: Key, f: F) {
        self.find::<true>(key, &mut NoTracer, f)
    }

    /// The batch probe ([`JoinTable::probe_batch_with`]).
    #[inline]
    fn find_batch<Tr: MemTracer, F: FnMut(&Tuple, Payload)>(
        &self,
        probes: &[Tuple],
        unique: bool,
        tr: &mut Tr,
        mut f: F,
    ) {
        if !unique {
            for t in probes {
                tr.read_of(t);
                self.find::<false>(t.key, tr, |p| f(t, p));
            }
        } else if probes.len() < self.len {
            // Fewer probes than tuples: this batch cannot warm the table.
            self.probe_first_grouped(probes, tr, f)
        } else {
            for t in probes {
                tr.read_of(t);
                self.find::<true>(t.key, tr, |p| f(t, p));
            }
        }
    }

    /// First-match probes a group at a time in three passes (load the head
    /// words, prefetch the tuples they name, walk the chains), so that the
    /// two dependent misses of a probe into a cold table overlap with its
    /// neighbours'. A resident table gains nothing and pays 0.6 ns a probe.
    fn probe_first_grouped<Tr: MemTracer, F: FnMut(&Tuple, Payload)>(
        &self,
        probes: &[Tuple],
        tr: &mut Tr,
        mut f: F,
    ) {
        let (heads, tuples, next) = self.regions();
        for group in probes.chunks(PROBE_GROUP) {
            let mut at = [0u32; PROBE_GROUP];
            for (at, t) in at.iter_mut().zip(group) {
                let head = &heads[self.home(t.key)];
                tr.read_of(t);
                tr.ops(3);
                tr.read_of(head);
                *at = *head;
            }
            for &at in &at[..group.len()] {
                if at != 0 {
                    kernels::prefetch_read(&tuples[at as usize - 1]);
                }
            }
            for (&at, t) in at.iter().zip(group) {
                walk::<true, _>(at, t.key, tuples, next, tr, |p| f(t, p));
            }
        }
    }

    #[inline]
    fn home(&self, key: Key) -> usize {
        self.hash.index(key >> self.shift, self.mask) as usize
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of tuples chained in `key`'s bucket (diagnostics / tests).
    pub fn chain_len(&self, key: Key) -> usize {
        let (heads, _, next) = self.regions();
        let (mut at, mut n) = (heads[self.home(key)], 0);
        while at != 0 {
            at = next[at as usize - 1];
            n += 1;
        }
        n
    }
}

impl<S: DerefMut<Target = [u32]>, H: KeyHash> ChainedTable<S, H> {
    /// Thread the stored tuples `from..to` onto their buckets' chains.
    #[inline]
    fn link(&mut self, from: usize, to: usize) {
        let (hash, shift, mask) = (self.hash, self.shift, self.mask);
        let (heads, rest) = self.buf.split_at_mut(mask as usize + 1);
        let (words, next) = rest.split_at_mut(2 * self.cap);
        let stored = words[2 * from..2 * to].chunks_exact(2);
        for (at, (t, link)) in (from as u32 + 1..).zip(stored.zip(&mut next[from..to])) {
            let head = &mut heads[hash.index(t[0] >> shift, mask) as usize];
            *link = *head;
            *head = at;
        }
    }

    /// Append `tuples` and chain them: the state one-by-one inserts leave.
    /// They must fit the capacity (an owned table grows first).
    #[inline]
    fn append<Tr: MemTracer>(&mut self, tuples: &[Tuple], tr: &mut Tr) {
        let (from, to) = (self.len, self.len + tuples.len());
        assert!(to <= self.cap, "chained table full");
        let stored = &mut self.buf[self.mask as usize + 1..][2 * from..2 * to];
        for (w, t) in stored.chunks_exact_mut(2).zip(tuples) {
            (w[0], w[1]) = (t.key, t.payload);
        }
        self.len = to;
        self.link(from, to);
        // What one-by-one inserts touch, a tuple at a time: the tuple and
        // its head word read, the stored tuple, its link and the head word
        // written. By address only: an untraced build has no loop left here.
        let heads = self.buf.as_ptr();
        let stored = heads.wrapping_add(self.mask as usize + 1);
        let next = stored.wrapping_add(2 * self.cap);
        for (at, t) in (from..to).zip(tuples) {
            let head = heads.wrapping_add(self.home(t.key)) as usize;
            tr.read_of(t);
            tr.read(head, 4);
            tr.write(stored.wrapping_add(2 * at) as usize, 8);
            tr.write(next.wrapping_add(at) as usize, 4);
            tr.write(head, 4);
            tr.ops(7);
        }
    }
}

impl<H: KeyHash + Default> JoinTable for StChainedTable<H> {
    fn with_spec(spec: &TableSpec) -> Self {
        Self::with_capacity_shift(spec.capacity, spec.key_shift)
    }

    fn reset(&mut self, spec: &TableSpec) {
        self.mask = layout(&mut self.buf, spec.capacity);
        (self.cap, self.len, self.shift) = (spec.capacity, 0, spec.key_shift);
    }

    #[inline]
    fn insert(&mut self, t: Tuple) {
        StChainedTable::insert(self, t)
    }

    #[inline]
    fn probe<F: FnMut(Payload)>(&self, key: Key, f: F) {
        ChainedTable::probe(self, key, f)
    }

    #[inline]
    fn probe_unique<F: FnMut(Payload)>(&self, key: Key, f: F) {
        self.probe_first(key, f)
    }

    #[inline]
    fn insert_batch_with<Tr: MemTracer>(&mut self, tuples: &[Tuple], tr: &mut Tr) {
        self.grow_append(tuples, tr)
    }

    #[inline]
    fn probe_batch_with<Tr: MemTracer, F: FnMut(&Tuple, Payload)>(
        &self,
        probes: &[Tuple],
        unique: bool,
        tr: &mut Tr,
        f: F,
    ) {
        self.find_batch(probes, unique, tr, f)
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.buf)
    }
}

/// A packed chained table is the [`StChainedTable`] of its spec's
/// capacity, in a range of the block: it cannot grow.
// SAFETY: `clear` zeroes the heads; a head or link word names a tuple
// only once the insert that wrote the tuple and its link has run, and
// probes read tuples and links only through those words.
unsafe impl<H: KeyHash + Default> Packable for StChainedTable<H> {
    type Word = u32;

    fn words(spec: &TableSpec) -> usize {
        words_for(spec.capacity)
    }

    fn clear(range: &mut [u32], spec: &TableSpec) {
        clear_heads(range, spec.capacity);
    }

    fn insert_batch(range: &mut [u32], spec: &TableSpec, len: usize, tuples: &[Tuple]) {
        over::<_, H>(range, spec, len).append(tuples, &mut NoTracer)
    }

    #[inline]
    fn probe_batch<F: FnMut(&Tuple, Payload)>(
        range: &[u32],
        spec: &TableSpec,
        probes: &[Tuple],
        unique: bool,
        f: F,
    ) {
        // A built packed table holds its capacity.
        over::<_, H>(range, spec, spec.capacity).find_batch(probes, unique, &mut NoTracer, f)
    }
}

/// The table of `spec` over `words`, holding `len` tuples.
#[inline]
fn over<S, H: KeyHash + Default>(words: S, spec: &TableSpec, len: usize) -> ChainedTable<S, H> {
    ChainedTable {
        buf: words,
        mask: (next_pow2(spec.capacity) - 1) as u32,
        cap: spec.capacity,
        len,
        hash: H::default(),
        shift: spec.key_shift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{check_join_table, random_tuples};

    #[test]
    fn insert_probe_unique() {
        let mut t = StChainedTable::<IdentityHash>::with_capacity(1000);
        for k in 1..=1000u32 {
            t.insert(Tuple::new(k, k * 3));
        }
        assert_eq!(t.len(), 1000);
        for k in 1..=1000u32 {
            let mut hits = Vec::new();
            t.probe(k, |p| hits.push(p));
            assert_eq!(hits, vec![k * 3]);
        }
    }

    #[test]
    fn heavy_duplicates_chain_and_find_all() {
        let mut t = StChainedTable::<IdentityHash>::with_capacity(16);
        for i in 0..100u32 {
            t.insert(Tuple::new(3, i));
        }
        assert_eq!(t.chain_len(3), 100);
        let mut hits = Vec::new();
        t.probe(3, |p| hits.push(p));
        assert_eq!(hits, (0..100).rev().collect::<Vec<_>>(), "newest first");
        let mut first = Vec::new();
        t.probe_first(3, |p| first.push(p));
        assert_eq!(first, vec![99]);
    }

    #[test]
    fn matches_reference_on_random_input() {
        let tuples = random_tuples(800, 150, 17);
        let probes: Vec<u32> = (1..=170).collect();
        let spec = TableSpec::hashed(tuples.len());
        check_join_table::<StChainedTable<IdentityHash>>(&spec, &tuples, &probes);
        check_join_table::<StChainedTable<crate::MultiplicativeHash>>(&spec, &tuples, &probes);
    }

    #[test]
    fn empty_table_probes_miss() {
        let t = StChainedTable::<IdentityHash>::with_capacity(10);
        let mut hits = Vec::new();
        t.probe(1, |p| hits.push(p));
        assert!(hits.is_empty());
        assert!(t.is_empty());
        assert_eq!(t.chain_len(1), 0);
    }

    #[test]
    fn batch_kernels_match_portable() {
        use crate::test_support::check_batch_kernels;
        let random = random_tuples(700, 130, 31);
        let skewed: Vec<Tuple> = (0..80u32).map(|i| Tuple::new(9, i)).collect();
        for tuples in [&random, &skewed] {
            let probes: Vec<Tuple> = (0..250u32).map(|i| Tuple::new(i % 150 + 1, i)).collect();
            let spec = TableSpec::hashed(tuples.len());
            check_batch_kernels::<StChainedTable<IdentityHash>>(&spec, tuples, &probes);
        }
    }

    #[test]
    fn first_match_batches_agree_on_either_side_of_the_table_size() {
        // Batches smaller than the table take the grouped, prefetching
        // walk; both must report what one-by-one first-match probes do.
        let tuples = random_tuples(400, 90, 23);
        let mut t = StChainedTable::<IdentityHash>::with_capacity(tuples.len());
        t.insert_batch(&tuples);
        for n in [0, 1, 15, 16, 17, 399, 400, 401, 900] {
            let probes: Vec<Tuple> = (0..n).map(|i| Tuple::new(i % 100 + 1, i)).collect();
            let mut batched = Vec::new();
            JoinTable::probe_batch(&t, &probes, true, |p, bp| batched.push((p.payload, bp)));
            let mut single = Vec::new();
            for p in &probes {
                t.probe_first(p.key, |bp| single.push((p.payload, bp)));
            }
            assert_eq!(batched, single, "{n} probes");
        }
    }

    #[test]
    fn growth_rehashes_over_wider_heads() {
        let mut t = StChainedTable::<IdentityHash>::with_capacity(0);
        for k in 1..=1000u32 {
            t.insert(Tuple::new(k, k + 7));
        }
        assert_eq!(t.len(), 1000);
        // Grown by doubling: 1024 heads for 1000 dense keys, so no chain
        // is longer than one.
        assert!((1..=1000).all(|k| t.chain_len(k) == 1));
        let mut hits = Vec::new();
        t.probe(1000, |p| hits.push(p));
        assert_eq!(hits, vec![1007]);
        assert_eq!(t.memory_bytes(), 4 * 1024 + 12 * 1024);
    }
}
