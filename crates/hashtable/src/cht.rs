//! Concise Hash Table (CHT) — Barber et al., "Memory-Efficient Hash
//! Joins" (PVLDB 2014); the table behind the paper's CHTJ join.
//!
//! Components (Section 3.2 of the study):
//! 1. a dense array `A` of all `n` inserted tuples with *no* empty slots,
//! 2. a hash function mapping keys into `8·n` bitmap positions,
//! 3. a bitmap of `8·n` bits marking occupied positions,
//! 4. a running population count, physically interleaved with the bitmap,
//!    so `rank(pos)` (= dense array index) costs one popcount.
//!
//! Collisions are resolved by probing a bounded window of positions; keys
//! that find no free bit within the window go to a small overflow table.
//! The structure is bulkloaded once, then read-only — ideal for joins.
//!
//! # Parallel bulkload
//!
//! Like the paper's CHTJ, the build input is partitioned by hash prefix
//! into *regions*: disjoint, contiguous ranges of the bitmap, each with
//! its own contiguous range of the dense array, so region tasks need no
//! synchronization. Collision probing wraps around *within* a region,
//! which keeps regions truly independent (lookups reproduce the same
//! wrapping). Regions are sized to cache from `n` alone, so the table is
//! the same for every worker count. The scatter by region writes
//! straight into the dense array and each region task ranks its slice in
//! place; a tuple that overflows leaves one slot unused at the end of its
//! region's slice, so the array is always `n` slots long.

use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use mmjoin_util::alloc::{AlignedBuf, AlignedVec};
use mmjoin_util::kernels;
use mmjoin_util::pool::{broadcast_map, ScopedPool, WorkerPool};
use mmjoin_util::tuple::{Key, Payload, Tuple};
use mmjoin_util::{chunk_range, next_pow2};

use crate::hashfn::{KeyHash, MultiplicativeHash};
use crate::linear::StLinearTable;
use crate::PROBE_GROUP;

/// Bitmap positions per inserted tuple (the "8" in `8·n`).
const POSITIONS_PER_TUPLE: usize = 8;

/// Maximum probes inside a collision window before spilling to the
/// overflow table.
pub const PROBE_WINDOW: usize = 8;

/// log2 of the bitmap positions of one bulkload region: 1 Ki groups
/// (16 KiB, L1) over 4–8 Ki tuples (32–64 KiB of the array, L2). Half of
/// it doubles the scatter's streams (2 Ki at 5 Mi tuples, where the
/// scatter then takes half as long again); twice of it gains little.
/// Small under Miri, so that its runs still cross region boundaries.
pub const REGION_SHIFT: u32 = if cfg!(miri) { 9 } else { 16 };

/// Groups of probes between two stages of the batch probe. A group
/// resolves in about 80 ns, less than a DRAM round trip: one is too few.
const LEAD: usize = 2;

/// One 64-bit bitmap group with the rank of its first position
/// interleaved (the paper's bitmap/PC interleaving, at 64-bit granularity).
#[derive(Copy, Clone, Debug, Default)]
struct Group {
    bits: u64,
    /// Dense-array index of the group's first set bit.
    prefix: u32,
}

impl Group {
    /// Dense-array index of the set bit `b` of this group.
    #[inline(always)]
    fn rank(self, b: usize) -> u32 {
        self.prefix + (self.bits & ((1u64 << b) - 1)).count_ones()
    }
}

/// The sizes of a table over `n` tuples on `workers`: bitmap positions
/// (a power of two), log2 of the positions per region, the workers that
/// take region tasks — four regions apiece at least, so their scratches
/// stay below the table — and the tuples a scratch is made for: a
/// quarter of a region's positions, two to four times its share of `n`.
fn shape(n: usize, workers: usize) -> (usize, u32, usize, usize) {
    let positions = next_pow2((n * POSITIONS_PER_TUPLE).max(64));
    let region_shift = positions.trailing_zeros().min(REGION_SHIFT);
    let region_workers = workers.clamp(1, (positions >> region_shift >> 2).max(1));
    let scratch_len = n.min(1 << (region_shift - 2));
    (positions, region_shift, region_workers, scratch_len)
}

/// Base pointer of a buffer whose tasks write disjoint ranges.
#[derive(Copy, Clone)]
struct Disjoint<T>(*mut T);
// SAFETY: the pointer is only offset into ranges no two tasks share (see
// the call sites in `build_on`); `T: Send` as for `&mut [T]`.
unsafe impl<T: Send> Sync for Disjoint<T> {}

impl<T> Disjoint<T> {
    /// # Safety
    /// `start..start + len` lies inside the buffer and no other live
    /// reference covers any of it.
    unsafe fn range<'a>(self, start: usize, len: usize) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// The concise hash table.
///
/// The default hash is multiplicative, not identity: with identity
/// hashing, dense keys `1..=n` would collapse into the lowest eighth of
/// the `8n`-position bitmap, filling a few regions and leaving the rest
/// of the region-parallel bulkload idle. (Barber et al. likewise hash
/// into the bitmap.)
pub struct ConciseHashTable<H: KeyHash = MultiplicativeHash> {
    groups: AlignedBuf<Group>,
    /// `n` slots; a region's ranked tuples start at its first group's
    /// prefix, one unused slot per tuple it overflowed comes after them.
    array: AlignedVec<Tuple>,
    overflow: StLinearTable<H>,
    overflow_len: usize,
    /// log2 of positions per region.
    region_shift: u32,
    hash: H,
}

impl<H: KeyHash + Default> ConciseHashTable<H> {
    /// Bytes [`Self::build_on`] holds at its peak over `n` tuples on a
    /// pool of `workers`: the table it returns (groups + array — the
    /// scatter by region writes the array itself), two histograms per
    /// worker and a scratch per region worker. Not counted, as they
    /// depend on the data: 16 B per tuple that overflows, and the longer
    /// scratch for a region a clustering hash gave more than its share.
    pub fn build_bytes(n: usize, workers: usize) -> usize {
        let workers = workers.max(1);
        let (positions, region_shift, region_workers, scratch_len) = shape(n, workers);
        positions / 64 * size_of::<Group>()
            + n * size_of::<Tuple>()
            + workers * 2 * (positions >> region_shift) * size_of::<u32>()
            + region_workers * scratch_len * (size_of::<u32>() + size_of::<Tuple>())
    }

    /// Bulkload from `tuples` using `threads` worker threads (legacy
    /// entry point: scoped threads; prefer [`Self::build_on`]).
    pub fn build(tuples: &[Tuple], threads: usize) -> Self {
        Self::build_on(tuples, &ScopedPool::new(threads))
    }

    /// Bulkload from `tuples` on a worker pool.
    pub fn build_on(tuples: &[Tuple], pool: &dyn WorkerPool) -> Self {
        let n = tuples.len();
        let chunks = pool.workers().max(1);
        let (positions, region_shift, region_workers, scratch_len) = shape(n, chunks);
        let (regions, region_groups) = (positions >> region_shift, (1usize << region_shift) / 64);
        let hash = H::default();
        let home = |key| hash.index(key, (positions - 1) as u32) as usize;

        // Scatter by region, chunk-parallel: count, turn the counts into
        // write cursors (region-major, so a region's slice keeps input
        // order whatever the chunking), copy.
        let counts = broadcast_map(pool, chunks, |w| {
            let mut counts = vec![0u32; regions];
            for t in &tuples[chunk_range(n, chunks, w)] {
                counts[home(t.key) >> region_shift] += 1;
            }
            counts
        });
        let mut starts = vec![0u32; regions + 1];
        for r in 0..regions {
            starts[r + 1] = starts[r] + counts.iter().map(|c| c[r]).sum::<u32>();
        }
        // SAFETY: the scatter writes every slot before anything reads
        // one — the cursors tile `0..n`.
        let mut array = unsafe { AlignedVec::<Tuple>::unfilled(n) };
        let arr = Disjoint(array.as_mut_ptr());
        pool.broadcast(&|w| {
            let before = |r: usize| counts[..w].iter().map(|c| c[r]).sum::<u32>();
            let mut cursor: Vec<u32> = (0..regions).map(|r| starts[r] + before(r)).collect();
            for t in &tuples[chunk_range(n, chunks, w)] {
                let at = &mut cursor[home(t.key) >> region_shift];
                // Two lines ahead in this region's stream: a store that
                // misses holds up every store behind it.
                kernels::prefetch_write(arr.0.wrapping_add(*at as usize + 16));
                // SAFETY: cursor (w, r) walks the slots the prefix sums
                // set aside for chunk w's tuples of region r.
                unsafe { arr.range(*at as usize, 1)[0] = *t };
                *at += 1;
            }
        });

        // Region tasks off a counter: each owns its groups and its slice
        // of the array, and ranks the slice in place.
        let mut groups = AlignedBuf::<Group>::zeroed(positions / 64);
        let grp = Disjoint(groups.as_mut_ptr());
        let next = AtomicUsize::new(0);
        // SAFETY: `load_region` writes `pos[i]` and `ranked[i]` for every
        // `i` below the count of claims it then reads them back to.
        let scratch = |len| unsafe {
            (
                AlignedVec::<u32>::unfilled(len),
                AlignedVec::<Tuple>::unfilled(len),
            )
        };
        let overflowed = broadcast_map(pool, region_workers, |_| {
            let (mut pos, mut ranked) = scratch(scratch_len);
            let mut over = Vec::new();
            loop {
                let r = next.fetch_add(1, Ordering::Relaxed);
                if r >= regions {
                    return over;
                }
                let (lo, hi) = (starts[r] as usize, starts[r + 1] as usize);
                // SAFETY: `r` came off the counter, so this task alone
                // holds region r's group range and array slice; both
                // are in bounds (`starts` ends at `n`) and the scatter
                // that wrote the array finished at the last barrier.
                let (g, slice) = unsafe {
                    (
                        grp.range(r * region_groups, region_groups),
                        arr.range(lo, hi - lo),
                    )
                };
                // A region claims a position per tuple, if it has both.
                let claims = slice.len().min(region_groups * 64);
                if claims > pos.len() {
                    (pos, ranked) = scratch(claims);
                }
                load_region(g, slice, lo as u32, home, &mut pos, &mut ranked, |t| {
                    over.push((r, t))
                });
            }
        });

        // Overflow table (serial; overflow is rare by construction), in
        // region then input order whichever worker took which region.
        let mut overflowed: Vec<(usize, Tuple)> = overflowed.into_iter().flatten().collect();
        overflowed.sort_by_key(|&(r, _)| r);
        let mut overflow = StLinearTable::with_capacity(overflowed.len().max(1));
        for &(_, t) in &overflowed {
            overflow.insert(t);
        }

        ConciseHashTable {
            groups,
            array,
            overflow,
            overflow_len: overflowed.len(),
            region_shift,
            hash,
        }
    }
}

/// Bulkload one region: claim a bit for each tuple of `slice` (its
/// position goes to `pos`), fill the region's group prefixes from `base`
/// (the slice's offset in the dense array), and reorder the claimed
/// tuples into rank order at the front of `slice`, by way of `ranked`.
/// Tuples whose window is full go to `overflow`.
fn load_region(
    groups: &mut [Group],
    slice: &mut [Tuple],
    base: u32,
    home: impl Fn(Key) -> usize,
    pos: &mut [u32],
    ranked: &mut [Tuple],
    mut overflow: impl FnMut(Tuple),
) {
    let region_mask = groups.len() * 64 - 1;
    let mut claimed = 0;
    'tuples: for i in 0..slice.len() {
        let t = slice[i];
        let home = home(t.key);
        for step in 0..PROBE_WINDOW {
            let at = (home + step) & region_mask;
            let (group, bit) = (&mut groups[at / 64], 1u64 << (at % 64));
            if group.bits & bit == 0 {
                group.bits |= bit;
                // Compacting: `claimed <= i`.
                slice[claimed] = t;
                pos[claimed] = at as u32;
                claimed += 1;
                continue 'tuples;
            }
        }
        overflow(t);
    }
    let mut rank = base;
    for group in groups.iter_mut() {
        group.prefix = rank;
        rank += group.bits.count_ones();
    }
    for (t, &at) in slice.iter().zip(&pos[..claimed]) {
        let at = at as usize;
        ranked[(groups[at / 64].rank(at % 64) - base) as usize] = *t;
    }
    slice[..claimed].copy_from_slice(&ranked[..claimed]);
}

impl<H: KeyHash> ConciseHashTable<H> {
    #[inline(always)]
    fn home(&self, key: Key) -> usize {
        self.hash.index(key, (self.groups.len() * 64 - 1) as u32) as usize
    }

    /// Walk `key`'s window from its `home` position, steps `from..`,
    /// then the overflow table if the window was full; `first` stops at
    /// the first match.
    #[inline(always)]
    fn walk(&self, from: usize, home: usize, key: Key, first: bool, mut f: impl FnMut(Payload)) {
        let region_mask = (1usize << self.region_shift) - 1;
        let region_base = home & !region_mask;
        for step in from..PROBE_WINDOW {
            let pos = region_base | ((home + step) & region_mask);
            let group = self.groups[pos / 64];
            if group.bits & (1 << (pos % 64)) == 0 {
                // A later duplicate of `key` could still sit at a later
                // window slot only if this slot was free at its insert
                // time too — impossible (no deletes). Safe to stop.
                return;
            }
            let t = self.array[group.rank(pos % 64) as usize];
            if t.key == key {
                f(t.payload);
                if first {
                    return;
                }
            }
        }
        if self.overflow_len > 0 {
            if first {
                self.overflow.probe_first(key, f);
            } else {
                self.overflow.probe(key, f);
            }
        }
    }

    /// Invoke `f` with every build payload matching `key`.
    #[inline]
    pub fn probe<F: FnMut(Payload)>(&self, key: Key, f: F) {
        self.walk(0, self.home(key), key, false, f);
    }

    /// [`Self::probe_op`] for every match of every probe.
    pub fn probe_batch<F: FnMut(&Tuple, Payload)>(&self, probes: &[Tuple], f: F) {
        self.probe_op(probes, false, f);
    }

    /// The batch probe: `f` receives `(probe_tuple, build_payload)` per
    /// match, in probe order; `unique` requests first-match probes (the
    /// study's PK assumption), which stop at a probe's first match in
    /// the dense array and the overflow table alike. A probe tuple's
    /// payload is handed through untouched — the operator pipeline sends
    /// row ids in it. Portable mode probes one key at a time; otherwise
    /// the pipeline runs, with the hardware popcount where the CPU has
    /// one.
    pub fn probe_op<F: FnMut(&Tuple, Payload)>(&self, probes: &[Tuple], unique: bool, mut f: F) {
        if kernels::popcnt_active() {
            // SAFETY: the CPU has `popcnt`.
            unsafe { self.probe_pipelined_popcnt(probes, unique, f) }
        } else if kernels::simd_active() {
            self.probe_pipelined(probes, unique, f)
        } else {
            for t in probes {
                self.walk(0, self.home(t.key), t.key, unique, |p| f(t, p));
            }
        }
    }

    /// The batch probe as a three-stage pipeline over groups of
    /// [`PROBE_GROUP`] probes, [`LEAD`] groups apart, so that neither of
    /// a probe's two dependent misses is waited for. Per step, latest
    /// stage first: compare the tuple at the rank found `LEAD` steps
    /// ago, its line in cache by now, and walk the rest of the window
    /// only if that did not settle the probe; read the bitmap words
    /// prefetched `LEAD` steps ago, rank the home positions and prefetch
    /// their dense-array lines; hash a group and prefetch its words.
    #[inline(always)]
    fn probe_pipelined<F: FnMut(&Tuple, Payload)>(&self, probes: &[Tuple], first: bool, mut f: F) {
        /// Rank of a home position whose bit is clear: the key is absent.
        const MISS: u32 = u32::MAX;
        /// A ring of `RING + 1 > LEAD` groups: none is rewritten unread.
        const RING: usize = 3;
        let (full, tail) = probes.split_at(probes.len() - probes.len() % PROBE_GROUP);
        let groups = full.len() / PROBE_GROUP;
        let group = |k: usize| &full[k * PROBE_GROUP..][..PROBE_GROUP];
        let mut homes = [[0u32; PROBE_GROUP]; RING + 1];
        let mut ranks = [[MISS; PROBE_GROUP]; RING + 1];
        for k in 0..groups + 2 * LEAD {
            if k >= 2 * LEAD {
                for (&rank, t) in ranks[(k - 2 * LEAD) & RING].iter().zip(group(k - 2 * LEAD)) {
                    if rank == MISS {
                        continue;
                    }
                    let build = self.array[rank as usize];
                    if build.key == t.key {
                        f(t, build.payload);
                        if first {
                            continue;
                        }
                    }
                    self.walk(1, self.home(t.key), t.key, first, |p| f(t, p));
                }
            }
            if (LEAD..groups + LEAD).contains(&k) {
                let slot = (k - LEAD) & RING;
                for (rank, &home) in ranks[slot].iter_mut().zip(&homes[slot]) {
                    let (group, bit) = (self.groups[home as usize / 64], home as usize % 64);
                    *rank = MISS;
                    if group.bits >> bit & 1 != 0 {
                        *rank = group.rank(bit);
                        kernels::prefetch_read(self.array.as_ptr().wrapping_add(*rank as usize));
                    }
                }
            }
            if k < groups {
                for (home, t) in homes[k & RING].iter_mut().zip(group(k)) {
                    *home = self.home(t.key) as u32;
                    kernels::prefetch_read(self.groups.as_ptr().wrapping_add(*home as usize / 64));
                }
            }
        }
        for t in tail {
            self.walk(0, self.home(t.key), t.key, first, |p| f(t, p));
        }
    }

    /// [`Self::probe_pipelined`] compiled for the hardware popcount: the
    /// workspace targets baseline x86-64, where `count_ones()` is a dozen
    /// shift-and-mask operations.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "popcnt"))]
    unsafe fn probe_pipelined_popcnt<F>(&self, probes: &[Tuple], first: bool, f: F)
    where
        F: FnMut(&Tuple, Payload),
    {
        self.probe_pipelined(probes, first, f)
    }

    /// Number of tuples in the dense array (excludes overflow).
    pub fn dense_len(&self) -> usize {
        self.array.len() - self.overflow_len
    }

    /// Number of tuples that spilled into the overflow table.
    pub fn overflow_len(&self) -> usize {
        self.overflow_len
    }

    /// Total bytes held — the CHT's headline feature is that this is far
    /// smaller than a 50%-loaded open-addressing table.
    pub fn memory_bytes(&self) -> usize {
        self.groups.len() * size_of::<Group>()
            + self.array.len() * size_of::<Tuple>()
            + self.overflow_len * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::random_tuples;
    use crate::IdentityHash;
    use mmjoin_util::kernels::{with_mode, KernelMode};

    /// Miri models no x86 prefetch: it interprets the portable path.
    const MODES: &[KernelMode] = if cfg!(miri) {
        &[KernelMode::Portable]
    } else {
        &[KernelMode::Portable, KernelMode::Simd]
    };

    fn reference(tuples: &[Tuple], key: Key) -> Vec<Payload> {
        let mut v: Vec<Payload> = tuples
            .iter()
            .filter(|t| t.key == key)
            .map(|t| t.payload)
            .collect();
        v.sort_unstable();
        v
    }

    fn check_against_reference(
        tuples: &[Tuple],
        probes: impl Iterator<Item = Key>,
        threads: usize,
    ) {
        let cht = ConciseHashTable::<MultiplicativeHash>::build(tuples, threads);
        assert_eq!(cht.dense_len() + cht.overflow_len(), tuples.len());
        for k in probes {
            let mut got = Vec::new();
            cht.probe(k, |p| got.push(p));
            got.sort_unstable();
            assert_eq!(got, reference(tuples, k), "key {k}");
        }
    }

    #[test]
    fn dense_keys_single_thread() {
        let tuples: Vec<Tuple> = (1..=1000u32).map(|k| Tuple::new(k, k + 5)).collect();
        check_against_reference(&tuples, 1..=1100u32, 1);
    }

    #[test]
    #[cfg_attr(miri, ignore = "too long for the interpreter")]
    fn dense_keys_parallel_build() {
        let tuples: Vec<Tuple> = (1..=5000u32).map(|k| Tuple::new(k, k)).collect();
        for threads in [2, 4, 8] {
            check_against_reference(&tuples, 1..=5100u32, threads);
        }
    }

    #[test]
    fn random_duplicate_keys() {
        let tuples = random_tuples(2000, 400, 23);
        check_against_reference(&tuples, 1..=450u32, 4);
    }

    #[test]
    fn pathological_duplicates_overflow() {
        // 100 copies of one key can never fit an 8-probe window: most must
        // overflow, and all must be found.
        let tuples: Vec<Tuple> = (0..100u32).map(|i| Tuple::new(77, i)).collect();
        let cht = ConciseHashTable::<MultiplicativeHash>::build(&tuples, 2);
        assert!(cht.overflow_len() >= 100 - PROBE_WINDOW);
        let mut got = Vec::new();
        cht.probe(77, |p| got.push(p));
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn batch_kernels_match_scalar() {
        let tuples = random_tuples(3000, 600, 41);
        let cht = ConciseHashTable::<MultiplicativeHash>::build(&tuples, 2);
        let probes: Vec<Tuple> = (0..800u32).map(|i| Tuple::new(i % 650 + 1, i)).collect();
        let mut scalar = Vec::new();
        for p in &probes {
            cht.probe(p.key, |bp| scalar.push((p.payload, bp)));
        }
        for &mode in MODES {
            with_mode(mode, || {
                let mut got = Vec::new();
                cht.probe_batch(&probes, |p, bp| got.push((p.payload, bp)));
                assert_eq!(got, scalar, "{mode:?}");
            });
        }
    }

    #[test]
    fn kernel_modes_build_the_same_table() {
        // The forced-portable run ranks with the shift-and-mask
        // `count_ones()`, the other with `popcnt` where the CPU has it:
        // same bitmap, same prefixes, same dense array, bit for bit.
        let n = if cfg!(miri) { 2_000 } else { 40_000 };
        let mut tuples = random_tuples(n, 30_000, 43);
        tuples.extend((0..50).map(|i| Tuple::new(7, i)));
        let build = |mode| {
            with_mode(mode, || {
                let cht = ConciseHashTable::<MultiplicativeHash>::build(&tuples, 3);
                let groups: Vec<(u64, u32)> =
                    cht.groups.iter().map(|g| (g.bits, g.prefix)).collect();
                (groups, cht.array.to_vec(), cht.overflow_len)
            })
        };
        let portable = build(KernelMode::Portable);
        assert!(portable.2 > 0, "the duplicates overflow");
        assert!(MODES.iter().all(|&mode| build(mode) == portable));
    }

    #[test]
    fn empty_build() {
        let cht = ConciseHashTable::<MultiplicativeHash>::build(&[], 4);
        let mut got = Vec::new();
        cht.probe(1, |p| got.push(p));
        assert!(got.is_empty());
    }

    #[test]
    fn identity_hash_clusters_but_stays_correct() {
        let tuples: Vec<Tuple> = (1..=3000u32).map(|k| Tuple::new(k, k * 2)).collect();
        let cht = ConciseHashTable::<IdentityHash>::build(&tuples, 4);
        for k in (1..=3000u32).step_by(7) {
            let mut got = Vec::new();
            cht.probe(k, |p| got.push(p));
            assert_eq!(got, vec![k * 2]);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "too long for the interpreter")]
    fn memory_is_concise() {
        // CHT must use far less memory than a 50%-loaded linear table
        // (16 bytes/tuple): around 8 (array) + ~2 (bitmap+prefix).
        let tuples: Vec<Tuple> = (1..=100_000u32).map(|k| Tuple::new(k, k)).collect();
        let cht = ConciseHashTable::<MultiplicativeHash>::build(&tuples, 4);
        let linear_bytes = 16 * 2 * 100_000 / 2; // next_pow2(2n) slots * 8B ≈ 16n..32n
        assert!(
            cht.memory_bytes() < linear_bytes,
            "cht {} vs linear {}",
            cht.memory_bytes(),
            linear_bytes
        );
    }

    #[test]
    fn rank_of_counts_correctly() {
        let mut groups = [Group::default(); 2];
        groups[0].bits = 0b1011; // ranks: pos0->0, pos1->1, pos3->2
        groups[0].prefix = 0;
        groups[1].bits = 0b1;
        groups[1].prefix = 3;
        assert_eq!(groups[0].rank(0), 0);
        assert_eq!(groups[0].rank(1), 1);
        assert_eq!(groups[0].rank(3), 2);
        assert_eq!(groups[1].rank(0), 3);
    }
}
