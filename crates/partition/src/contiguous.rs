//! Parallel radix partitioning into one contiguous buffer (Figure 4(a)).
//!
//! Phases: (1) every thread builds a local histogram over its input
//! chunk; (2) local histograms are merged into per-thread output cursors
//! (after this, no further synchronization is needed); (3) every thread
//! scatters its chunk to the precomputed destinations — either directly
//! (PRB) or through software write-combine buffers (PRO and friends).
//!
//! `two_pass_partition_on` composes two passes with the fanout split evenly,
//! the original PRB configuration (2 × 7 bits by default), where pass 2
//! processes whole pass-1 partitions pulled from a task queue.

use std::sync::atomic::{AtomicUsize, Ordering};

use mmjoin_util::alloc::AlignedBuf;
use mmjoin_util::pool::{broadcast_map, WorkerPool};
use mmjoin_util::tuple::Tuple;
use mmjoin_util::{chunk_range, kernels, CACHE_LINE, TUPLES_PER_CACHELINE};

use crate::histogram::{count_digits, global_offsets, histogram};
use crate::radix::RadixFn;
use crate::swwcb;

/// How phase (3) writes tuples to their destination.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScatterMode {
    /// One write per tuple straight to the destination (PRB).
    Direct,
    /// Software write-combine buffers + cache-line flushes (PRO...).
    Swwcb,
}

/// A relation partitioned into a contiguous buffer.
pub struct PartitionedRelation {
    data: AlignedBuf<Tuple>,
    /// `parts + 1` offsets into `data`.
    offsets: Vec<usize>,
}

impl PartitionedRelation {
    #[inline]
    pub fn parts(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    pub fn partition(&self, p: usize) -> &[Tuple] {
        &self.data.as_slice()[self.offsets[p]..self.offsets[p + 1]]
    }

    #[inline]
    pub fn part_len(&self, p: usize) -> usize {
        self.offsets[p + 1] - self.offsets[p]
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The length of the longest partition (0 if there is none).
    pub fn longest(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    pub fn all_tuples(&self) -> &[Tuple] {
        self.data.as_slice()
    }

    /// Every partition, in order, as the `u64` words its tuples' bytes
    /// read as, without a copy: the `pack()` of each tuple the scatter
    /// was given, if it stored [`packed_layout`]s.
    pub fn words_mut(&mut self) -> Vec<&mut [u64]> {
        const _: () = assert!(std::mem::size_of::<Tuple>() == std::mem::size_of::<u64>());
        let tuples = self.data.as_mut_slice();
        let mut rest: &mut [u64] = if tuples.is_empty() {
            &mut []
        } else {
            let words = tuples.as_mut_ptr().cast::<u64>();
            assert!(words.is_aligned(), "partition buffer not 8-byte aligned");
            // SAFETY: a `repr(C)` `Tuple` is two `u32`s, no padding: any
            // eight bytes are a valid tuple and a valid `u64`. Aligned
            // (asserted), and `self` stays borrowed while the words are.
            unsafe { std::slice::from_raw_parts_mut(words, tuples.len()) }
        };
        let mut split = |w: &[usize]| rest.split_off_mut(..w[1] - w[0]).expect("tiled");
        self.offsets.windows(2).map(&mut split).collect()
    }
}

/// What to store for `t` so that its bytes read as the `u64` `t.pack()`
/// ([`PartitionedRelation::words_mut`]): key and payload exchanged on a
/// little-endian target. An `emit` that leaves the routing key alone.
#[inline(always)]
pub const fn packed_layout(t: Tuple) -> Tuple {
    if cfg!(target_endian = "little") {
        Tuple::new(t.payload, t.key)
    } else {
        t
    }
}

/// Shared mutable output pointer for the disjoint-region scatter.
#[derive(Copy, Clone)]
struct SyncPtr<T>(*mut T);
// SAFETY: every thread writes a disjoint index range, established by the
// global-histogram phase; see scatter_chunk.
unsafe impl<T> Sync for SyncPtr<T> {}
// SAFETY: as for Sync: the pointer goes to workers that write disjoint
// ranges of a buffer that outlives the pool's scope.
unsafe impl<T> Send for SyncPtr<T> {}

/// Single-pass parallel radix partitioning on a caller-provided pool.
///
/// Chunks are assigned by [`chunk_range`] over `active =
/// workers.clamp(1, len)` workers, so the output layout is a function of
/// the worker count alone.
pub fn partition_parallel_on(
    input: &[Tuple],
    f: RadixFn,
    pool: &dyn WorkerPool,
    mode: ScatterMode,
) -> PartitionedRelation {
    partition_parallel_emit_on(input, f, pool, mode, |_, t| t)
}

/// [`partition_parallel_on`] storing `emit(i, input[i])` where it
/// stores `input[i]`, routed by `input[i].key` all the same: the scatter
/// forms the stored tuple (MWAY's [`packed_layout`]) instead of a pass
/// over the output doing it after.
pub fn partition_parallel_emit_on(
    input: &[Tuple],
    f: RadixFn,
    pool: &dyn WorkerPool,
    mode: ScatterMode,
    emit: impl Fn(usize, Tuple) -> Tuple + Sync,
) -> PartitionedRelation {
    let active = pool.workers().clamp(1, input.len().max(1));
    // Phase 1: local histograms.
    let locals: Vec<Vec<usize>> = broadcast_map(pool, active, |t| {
        histogram(&input[chunk_range(input.len(), active, t)], f)
    });
    // Phase 2: merge into per-thread cursors.
    let (dst, offsets) = global_offsets(&locals);
    // Phase 3: scatter.
    // SAFETY: every slot is written exactly once before `out` is read.
    // Worker `t` writes `dst[t][p] .. dst[t][p] + locals[t][p]` of each
    // partition `p` in full (the histogram counted its chunk), and those
    // ranges tile `0..input.len()` (`global_offsets`). A worker's panic
    // is raised out of the broadcast, past `out`.
    let mut out = unsafe { AlignedBuf::<Tuple>::unfilled(input.len()) };
    let out_ptr = SyncPtr(out.as_mut_ptr());
    let (dst, locals) = (&dst, &locals);
    let ahead = f.fanout() >= PREFETCH_MIN_FANOUT;
    pool.broadcast(&|t| {
        if t < active {
            let range = chunk_range(input.len(), active, t);
            let start = range.start;
            let chunk = &input[range];
            // Copy the whole SyncPtr so the closure capture stays Sync
            // (a field capture of the raw pointer would not be).
            let out = out_ptr;
            let mut cursors = dst[t].clone();
            // SAFETY: this worker's cursor ranges are disjoint from
            // every other worker's by construction of global_offsets,
            // and in-bounds because the histogram counted this chunk.
            unsafe {
                scatter_chunk(chunk, f, &mut cursors, out.0, mode, ahead, |i, t| {
                    emit(start + i, t)
                })
            }
            debug_assert!(
                (cursors.iter().zip(&dst[t]).zip(&locals[t])).all(|((&c, &d), &n)| c == d + n),
                "worker {t} did not fill its ranges"
            );
        }
    });
    PartitionedRelation { data: out, offsets }
}

/// The direct scatter of a parallel pass asks for its cursors' next
/// lines itself from this fan-out up, whatever the output's size: at 128
/// and above there are more write streams than the hardware prefetcher
/// follows (PRB's 2 × 7 bits), at 64 and below it has them and a software
/// prefetch per line only costs (0.66–0.96×). [`route_at`] never asks: its
/// output is a cache-resident bounce buffer or batch.
const PREFETCH_MIN_FANOUT: usize = 128;

/// Scatter `emit(i, chunk[i])` to `out` at the partition `cursors`,
/// advancing each cursor past what it wrote; in [`ScatterMode::Direct`],
/// prefetching the cursors' next lines if `ahead`.
///
/// # Safety
/// `cursors[p] .. cursors[p] + count(chunk, p)` must be in-bounds of `out`
/// and disjoint from every concurrent scatter.
unsafe fn scatter_chunk(
    chunk: &[Tuple],
    f: RadixFn,
    cursors: &mut [usize],
    out: *mut Tuple,
    mode: ScatterMode,
    ahead: bool,
    emit: impl Fn(usize, Tuple) -> Tuple,
) {
    // Two instances of one loop: without the prefetch the compiled loop
    // is the plain one, not one with a test in it.
    match mode {
        ScatterMode::Direct if ahead => scatter_direct::<true>(chunk, f, cursors, out, emit),
        ScatterMode::Direct => scatter_direct::<false>(chunk, f, cursors, out, emit),
        ScatterMode::Swwcb => swwcb::scatter(chunk, f, cursors, out, emit),
    }
}

/// The direct scatter: one plain store per tuple at its partition's
/// cursor — no write-combining buffer, no streaming store: PRB as
/// published. With `AHEAD`, a cursor that has entered a new cache line
/// asks for the one after it, with write intent: where the hardware
/// loses track of the write streams, every eighth store would otherwise
/// wait for its line to be fetched for ownership.
///
/// # Safety
/// As [`scatter_chunk`].
#[inline(always)]
unsafe fn scatter_direct<const AHEAD: bool>(
    chunk: &[Tuple],
    f: RadixFn,
    cursors: &mut [usize],
    out: *mut Tuple,
    emit: impl Fn(usize, Tuple) -> Tuple,
) {
    for (i, &t) in chunk.iter().enumerate() {
        let cur = &mut cursors[f.part(t.key)];
        out.add(*cur).write(emit(i, t));
        *cur += 1;
        if AHEAD {
            // An address only, formed wrapping: past the end of the
            // partition or of `out` it is never dereferenced.
            let next = out.wrapping_add(*cur);
            if next as usize & (CACHE_LINE - 1) == 0 {
                kernels::prefetch_write(next.wrapping_add(TUPLES_PER_CACHELINE));
            }
        }
    }
}

/// The serial partitioning step — histogram, exclusive prefix, scatter —
/// over an input one thread owns: pass 2 of [`two_pass_partition_on`]
/// runs it per pass-1 partition into a bounce buffer, [`route_into`] per
/// probe batch. The scatter never prefetches: its output is in cache.
///
/// Writes `emit(i, input[i])` for every `i` to `out[..input.len()]`,
/// grouped by `f.part(input[i].key)` and in input order within a group,
/// and leaves in `cursors[p]` the end of partition `p`'s range of `out` —
/// which is where partition `p + 1` starts, partition 0 at 0
/// (`cursors.len() == f.fanout()`). Costs `O(input + fanout)` and
/// allocates nothing in [`ScatterMode::Direct`] (a debug build keeps a
/// copy of the partition ends, to check the scatter reached them).
///
/// # Safety
/// `out[..input.len()]` must be valid for writes and touched by nobody
/// else meanwhile.
pub(crate) unsafe fn route_at(
    input: &[Tuple],
    f: RadixFn,
    cursors: &mut [usize],
    out: *mut Tuple,
    mode: ScatterMode,
    emit: impl Fn(usize, Tuple) -> Tuple,
) {
    // A cursor starts at its partition's first slot and the scatter
    // leaves it one past the last.
    cursors.fill(0);
    count_digits(input, f, |t| t.key, cursors);
    let mut start = 0;
    for cur in cursors.iter_mut() {
        start += std::mem::replace(cur, start);
    }
    // Partition `p` ends where `p + 1` starts, the last at `start`.
    #[cfg(debug_assertions)]
    let ends: Vec<usize> = cursors[1..].iter().copied().chain([start]).collect();
    // SAFETY: the cursors tile `0..input.len()` by exact counts of this
    // same input; the caller vouches for that range.
    unsafe { scatter_chunk(input, f, cursors, out, mode, false, emit) }
    #[cfg(debug_assertions)]
    debug_assert_eq!(cursors, &ends[..], "the scatter did not fill its ranges");
}

/// Radix-route one cache-sized batch: `out[..input.len()]` receives
/// `emit(i, input[i])` grouped by `f.part(input[i].key)`, input order
/// kept within a partition, and `bounds[p]..bounds[p + 1]` is partition
/// `p`'s range of `out` (`bounds.len() == f.fanout() + 1`). `emit` lets
/// the scatter form the routed tuple (a row id in place of the payload)
/// instead of a staging copy doing it first. No allocation.
pub fn route_into(
    input: &[Tuple],
    f: RadixFn,
    bounds: &mut [usize],
    out: &mut [Tuple],
    emit: impl Fn(usize, Tuple) -> Tuple,
) {
    let out = &mut out[..input.len()];
    let (first, cursors) = bounds.split_first_mut().expect("fanout + 1 bounds");
    *first = 0;
    let out = out.as_mut_ptr();
    // SAFETY: `out` is exactly `input.len()` slots, exclusively borrowed.
    unsafe { route_at(input, f, cursors, out, ScatterMode::Direct, emit) }
}

/// Two-pass radix partitioning (PRB): pass 1 over the low `bits1` bits in
/// parallel over chunks, in `mode`; then [`second_pass_on`] over the next
/// `bits2` bits.
pub fn two_pass_partition_on(
    input: &[Tuple],
    bits1: u32,
    bits2: u32,
    pool: &dyn WorkerPool,
    mode: ScatterMode,
) -> PartitionedRelation {
    let pass1 = partition_parallel_on(input, RadixFn::new(bits1), pool, mode);
    second_pass_on(pass1, bits2, pool)
}

/// Pass 2 of [`two_pass_partition_on`], in place: whole pass-1
/// partitions, pulled as tasks from a shared queue, are each routed over
/// the next `bits2` bits — plain stores, no prefetch — into their
/// worker's bounce buffer, as long as the longest pass-1 partition so
/// that it stays in cache, and copied back over their own range. So
/// there is no second output, and no store to a line not in cache.
///
/// The global partition id of a tuple is `p1 * 2^bits2 + p2` (region-major
/// so offsets stay address-ordered).
pub fn second_pass_on(
    pass1: PartitionedRelation,
    bits2: u32,
    pool: &dyn WorkerPool,
) -> PartitionedRelation {
    let longest = pass1.longest();
    let (mut data, offsets1) = (pass1.data, pass1.offsets);
    let fan1 = offsets1.len() - 1;
    let f2 = RadixFn::pass(bits2, fan1.trailing_zeros());
    let fan2 = f2.fanout();
    let data_ptr = SyncPtr(data.as_mut_ptr());
    // Task `p1`'s cursors end at its `fan2` partitions' ends, the starts
    // of partitions `p1 * fan2 + 1 ..= (p1 + 1) * fan2`: written there once
    // the scatter is done (as the cursors themselves, neighbouring tasks'
    // would share lines). Partition 0 starts at 0.
    let mut offsets = vec![0usize; fan1 * fan2 + 1];
    let offsets_ptr = SyncPtr(offsets.as_mut_ptr());
    let next = AtomicUsize::new(0);
    pool.broadcast(&|_| {
        // Copy the whole SyncPtrs so the closure capture stays Sync.
        let (data, offsets) = (data_ptr, offsets_ptr);
        let (mut cursors, mut bounce) = (vec![0usize; fan2], None);
        loop {
            let p1 = next.fetch_add(1, Ordering::Relaxed);
            if p1 >= fan1 {
                break;
            }
            let (start, len) = (offsets1[p1], offsets1[p1 + 1] - offsets1[p1]);
            // SAFETY: `route_at` writes the first `len <= longest` slots
            // in full before the copy back reads them.
            let bounce = bounce.get_or_insert_with(|| unsafe { AlignedBuf::unfilled(longest) });
            // SAFETY: the counter hands each `p1` to one task alone, so
            // `start..start + len`, in bounds of `data`, is this task's to
            // read and then overwrite, and `offsets[p1 * fan2 + 1..][..fan2]`
            // (in bounds of the `fan1 * fan2 + 1`) its to write; nothing
            // reads either until the broadcast is over.
            unsafe {
                let part = data.0.add(start);
                let (input, out) = (std::slice::from_raw_parts(part, len), bounce.as_mut_ptr());
                route_at(input, f2, &mut cursors, out, ScatterMode::Direct, |_, t| t);
                std::ptr::copy_nonoverlapping(bounce.as_ptr(), part, len);
                let mine = offsets.0.add(p1 * fan2 + 1);
                for (p2, &end) in cursors.iter().enumerate() {
                    mine.add(p2).write(start + end);
                }
            }
        }
    });
    PartitionedRelation { data, offsets }
}

/// Sanity helper shared by tests and the harness: every tuple must land
/// in the partition its radix digit names, and the output must be a
/// permutation of the input.
pub fn validate_partitioning(input: &[Tuple], pr: &PartitionedRelation, digit_bits: u32) -> bool {
    if pr.len() != input.len() {
        return false;
    }
    let full = RadixFn::new(digit_bits);
    for p in 0..pr.parts() {
        for t in pr.partition(p) {
            if full.part(t.key) != p {
                return false;
            }
        }
    }
    let mut a: Vec<u64> = input.iter().map(|t| t.pack()).collect();
    let mut b: Vec<u64> = pr.all_tuples().iter().map(|t| t.pack()).collect();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_util::pool::ScopedPool;
    use mmjoin_util::rng::Xoshiro256;

    fn random_input(n: usize, seed: u64) -> Vec<Tuple> {
        // The interpreter gets the same chunk, cursor and fan-out
        // boundaries out of a few hundred tuples.
        let n = if cfg!(miri) { n.min(600) } else { n };
        let mut rng = Xoshiro256::new(seed);
        (0..n)
            .map(|i| Tuple::new(rng.next_u32() | 1, i as u32))
            .collect()
    }

    #[test]
    fn single_pass_direct_correct() {
        let input = random_input(10_000, 1);
        for threads in [1, 2, 4, 7] {
            let pr = partition_parallel_on(
                &input,
                RadixFn::new(6),
                &ScopedPool::new(threads),
                ScatterMode::Direct,
            );
            assert!(validate_partitioning(&input, &pr, 6), "threads={threads}");
            assert_eq!(pr.parts(), 64);
        }
    }

    #[test]
    fn single_pass_swwcb_correct() {
        let input = random_input(10_000, 2);
        for threads in [1, 3, 8] {
            let pr = partition_parallel_on(
                &input,
                RadixFn::new(5),
                &ScopedPool::new(threads),
                ScatterMode::Swwcb,
            );
            assert!(validate_partitioning(&input, &pr, 5), "threads={threads}");
        }
    }

    #[test]
    fn swwcb_equals_direct() {
        let input = random_input(5_000, 3);
        let a = partition_parallel_on(
            &input,
            RadixFn::new(4),
            &ScopedPool::new(4),
            ScatterMode::Direct,
        );
        let b = partition_parallel_on(
            &input,
            RadixFn::new(4),
            &ScopedPool::new(4),
            ScatterMode::Swwcb,
        );
        assert_eq!(a.offsets(), b.offsets());
        // Within-partition order may differ only if thread chunking
        // differed — it doesn't, so outputs are identical.
        assert_eq!(a.all_tuples(), b.all_tuples());
    }

    #[test]
    fn two_pass_correct() {
        let input = random_input(20_000, 4);
        for threads in [1, 4] {
            let pr =
                two_pass_partition_on(&input, 4, 3, &ScopedPool::new(threads), ScatterMode::Direct);
            assert_eq!(pr.parts(), 128);
            assert_eq!(pr.len(), input.len());
            // Keys within a global partition share their low 7 bits...
            for p in 0..pr.parts() {
                let slice = pr.partition(p);
                if let Some(first) = slice.first() {
                    assert!(slice.iter().all(|t| t.key & 0x7F == first.key & 0x7F));
                }
            }
            // ...and the output is a permutation of the input.
            let mut a: Vec<u64> = input.iter().map(|t| t.pack()).collect();
            let mut b: Vec<u64> = pr.all_tuples().iter().map(|t| t.pack()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn two_pass_co_partitions_align_across_relations() {
        // Same global partition id must capture the same key digits in
        // both relations (the co-partition join requirement).
        let r = random_input(3_000, 5);
        let s = random_input(9_000, 6);
        let pr = two_pass_partition_on(&r, 3, 3, &ScopedPool::new(2), ScatterMode::Swwcb);
        let ps = two_pass_partition_on(&s, 3, 3, &ScopedPool::new(2), ScatterMode::Swwcb);
        for p in 0..64 {
            let digit_of = |t: &Tuple| (t.key & 0x3F) as usize;
            let rd: Vec<usize> = pr.partition(p).iter().map(digit_of).collect();
            let sd: Vec<usize> = ps.partition(p).iter().map(digit_of).collect();
            if let (Some(&a), Some(&b)) = (rd.first(), sd.first()) {
                assert_eq!(a, b, "partition {p}");
            }
            assert!(rd.iter().all(|&d| rd[0] == d));
            assert!(sd.iter().all(|&d| sd[0] == d));
        }
    }

    #[test]
    fn two_pass_with_empty_and_single_pass1_partitions() {
        // No key has low bits 0b101: pass-1 partition 5 is empty and its
        // eight pass-2 partitions must come out empty, in place.
        let holed: Vec<Tuple> = random_input(6_000, 8)
            .into_iter()
            .filter(|t| t.key & 0x7 != 5)
            .collect();
        // Every key has low bits 0b011: one pass-1 partition holds it all.
        let single: Vec<Tuple> = (0..5_000).map(|i| Tuple::new((i << 3) | 3, i)).collect();
        // Region-major: global partition `p1 * 8 + p2` holds the keys with
        // low digit `p1` and next digit `p2`; the output is a permutation.
        let check = |input: &[Tuple], pr: &PartitionedRelation| {
            assert_eq!(pr.parts(), 64);
            for p in 0..64 {
                let of = |t: &Tuple| ((t.key & 7) * 8 + ((t.key >> 3) & 7)) as usize;
                assert!(pr.partition(p).iter().all(|t| of(t) == p), "partition {p}");
            }
            let mut a: Vec<u64> = input.iter().map(|t| t.pack()).collect();
            let mut b: Vec<u64> = pr.all_tuples().iter().map(|t| t.pack()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        };
        for mode in [ScatterMode::Direct, ScatterMode::Swwcb] {
            for threads in [1, 3] {
                let pr = two_pass_partition_on(&holed, 3, 3, &ScopedPool::new(threads), mode);
                check(&holed, &pr);
                assert!((40..48).all(|p| pr.part_len(p) == 0));

                let pr = two_pass_partition_on(&single, 3, 3, &ScopedPool::new(threads), mode);
                check(&single, &pr);
                assert_eq!(pr.offsets()[24], 0);
                assert_eq!(pr.offsets()[32], single.len());
            }
        }
    }

    /// Pass 2 as two buffers would do it: pass 1 as
    /// [`two_pass_partition_on`] runs it, then each pass-1 partition's
    /// tuples copied digit by digit, in order, into a second buffer.
    fn two_buffer_reference(
        input: &[Tuple],
        (bits1, bits2): (u32, u32),
        pool: &ScopedPool,
        mode: ScatterMode,
    ) -> (Vec<usize>, Vec<Tuple>) {
        let pass1 = partition_parallel_on(input, RadixFn::new(bits1), pool, mode);
        let f2 = RadixFn::pass(bits2, bits1);
        let (mut offsets, mut out) = (vec![0], Vec::with_capacity(input.len()));
        for p1 in 0..pass1.parts() {
            for p2 in 0..f2.fanout() {
                out.extend(pass1.partition(p1).iter().filter(|t| f2.part(t.key) == p2));
                offsets.push(out.len());
            }
        }
        (offsets, out)
    }

    /// Pass 2 in place through a bounce buffer gives the offsets and the
    /// bytes, in order within each partition, of the two-buffer pass: on
    /// random keys, keys with a hole, keys all in one pass-1 partition
    /// and one key throughout, in both scatter modes, on 1 and 3 threads.
    #[test]
    fn two_pass_in_place_equals_a_two_buffer_reference() {
        let random = random_input(5_000, 51);
        let holed: Vec<Tuple> = random.iter().copied().filter(|t| t.key & 7 != 5).collect();
        let single: Vec<Tuple> = (0..2_000).map(|i| Tuple::new((i << 3) | 6, i)).collect();
        let one_key: Vec<Tuple> = (0..1_000).map(|i| Tuple::new(0x2A, i)).collect();
        for (name, input) in [
            ("random", &random),
            ("holed", &holed),
            ("single", &single),
            ("one key", &one_key),
        ] {
            for mode in [ScatterMode::Direct, ScatterMode::Swwcb] {
                for threads in [1, 3] {
                    let pool = ScopedPool::new(threads);
                    let pr = two_pass_partition_on(input, 3, 4, &pool, mode);
                    let (offsets, tuples) = two_buffer_reference(input, (3, 4), &pool, mode);
                    let at = format!("{name} {mode:?} threads={threads}");
                    assert_eq!(pr.offsets(), &offsets[..], "{at}");
                    assert!(pr.all_tuples() == &tuples[..], "{at}");
                }
            }
        }
    }

    /// Route `input` by `f`, stamping the input index as payload, and
    /// check the contract: a permutation, partition `p` holds exactly
    /// the keys with digit `p`, input order kept within a partition.
    fn route_checked(input: &[Tuple], f: RadixFn) -> Vec<usize> {
        let mut bounds = vec![usize::MAX; f.fanout() + 1];
        let mut out = vec![Tuple::new(0, 0); input.len() + 3];
        route_into(input, f, &mut bounds, &mut out, |i, t| {
            Tuple::new(t.key, i as u32)
        });
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[f.fanout()], input.len());
        let mut seen = vec![false; input.len()];
        for p in 0..f.fanout() {
            let part = &out[bounds[p]..bounds[p + 1]];
            assert!(part.iter().all(|t| f.part(t.key) == p), "partition {p}");
            assert!(part.windows(2).all(|w| w[0].payload < w[1].payload));
            for t in part {
                assert_eq!(t.key, input[t.payload as usize].key);
                assert!(!std::mem::replace(&mut seen[t.payload as usize], true));
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Nothing past the input's length is touched.
        assert!(out[input.len()..].iter().all(|t| *t == Tuple::new(0, 0)));
        bounds
    }

    #[test]
    fn route_is_a_stable_partitioning_permutation() {
        let input = random_input(700, 21);
        for f in [RadixFn::new(3), RadixFn::new(6), RadixFn::pass(4, 5)] {
            let bounds = route_checked(&input, f);
            let counts = histogram(&input, f);
            assert_eq!(bounds, crate::histogram::prefix_sum(&counts));
        }
    }

    #[test]
    fn route_degenerate_inputs_and_fanouts() {
        // Empty input: every partition empty, whatever the bounds held.
        assert!(route_checked(&[], RadixFn::new(4)).iter().all(|&b| b == 0));
        // All keys in one partition.
        let one: Vec<Tuple> = (0..300).map(|i| Tuple::new((i << 4) | 9, i)).collect();
        let bounds = route_checked(&one, RadixFn::new(4));
        assert_eq!((bounds[9], bounds[10]), (0, 300));
        // Fan-out 1: the route is the identity.
        let input = random_input(200, 22);
        assert_eq!(route_checked(&input, RadixFn::new(0)), vec![0, 200]);
        // Fan-out far above the input: almost every partition empty.
        let bounds = route_checked(&input, RadixFn::new(14));
        assert_eq!(bounds.len(), (1 << 14) + 1);
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic]
    fn route_refuses_an_output_shorter_than_its_input() {
        let input = random_input(10, 23);
        let mut out = vec![Tuple::new(0, 0); 9];
        route_into(&input, RadixFn::new(2), &mut [0; 5], &mut out, |_, t| t);
    }

    /// The direct scatter with and without its prefetch against each
    /// other and against a stable sort by digit. With it, a cursor that
    /// enters a line asks for the next one — an address that, in a
    /// buffer of a few tuples, lies past the partition and past the end
    /// of the buffer, formed wrapping and never dereferenced (Miri runs
    /// this with the portable kernels: the address is still formed).
    /// Same tuples, same cursors.
    #[test]
    fn direct_scatter_is_the_same_with_and_without_its_prefetch() {
        use mmjoin_util::kernels::{with_mode, KernelMode};
        let modes: &[KernelMode] = if cfg!(miri) {
            &[KernelMode::Portable]
        } else {
            &[KernelMode::Portable, KernelMode::Simd]
        };
        for bits in [3, 6, 7, 8] {
            let f = RadixFn::new(bits);
            for n in [0, 1, 7, 8, 9, 4095, 100_003] {
                let input = random_input(n, 31 + n as u64);
                let mut sorted = input.clone();
                sorted.sort_by_key(|t| f.part(t.key));
                let bounds = crate::histogram::prefix_sum(&histogram(&input, f));
                for &mode in modes {
                    let scatter = |ahead: bool| {
                        let mut out = vec![Tuple::new(0, 0); input.len()];
                        let mut cursors = bounds[..f.fanout()].to_vec();
                        let (ptr, c) = (out.as_mut_ptr(), &mut cursors);
                        // SAFETY: the cursors tile `out`, `input.len()`
                        // slots of our own, by this input's counts.
                        with_mode(mode, || unsafe {
                            if ahead {
                                scatter_direct::<true>(&input, f, c, ptr, |_, t| t)
                            } else {
                                scatter_direct::<false>(&input, f, c, ptr, |_, t| t)
                            }
                        });
                        (out, cursors)
                    };
                    let (plain, ahead) = (scatter(false), scatter(true));
                    assert_eq!(plain, ahead, "fan-out {} n={n} {mode:?}", f.fanout());
                    assert_eq!(plain.0, sorted, "fan-out {} n={n} {mode:?}", f.fanout());
                    assert_eq!(plain.1, bounds[1..], "fan-out {} n={n}", f.fanout());
                }
            }
        }
    }

    /// Through the public door, at the fan-out where the direct scatter
    /// prefetches (128) and an output of 8 MiB: the same
    /// `PartitionedRelation` as the SWWCB scatter, in either kernel mode.
    #[test]
    #[cfg_attr(miri, ignore = "1 Mi tuples; the loop itself is interpreted above")]
    fn prefetching_direct_scatter_equals_swwcb_at_a_large_output() {
        use mmjoin_util::kernels::{with_mode, KernelMode};
        let n = (1 << 20) + 3;
        let mut rng = Xoshiro256::new(77);
        let input: Vec<Tuple> = (0..n)
            .map(|i| Tuple::new(rng.next_u32() | 1, i as u32))
            .collect();
        let f = RadixFn::new(7);
        assert!(f.fanout() >= PREFETCH_MIN_FANOUT);
        let pool = ScopedPool::new(2);
        let swwcb = partition_parallel_on(&input, f, &pool, ScatterMode::Swwcb);
        for mode in [KernelMode::Portable, KernelMode::Simd] {
            let direct = with_mode(mode, || {
                partition_parallel_on(&input, f, &pool, ScatterMode::Direct)
            });
            assert_eq!(direct.offsets(), swwcb.offsets(), "{mode:?}");
            assert!(direct.all_tuples() == swwcb.all_tuples(), "{mode:?}");
        }
    }

    /// Differential kernel test: forced-portable vs dispatched streaming
    /// partitioning must be byte-identical (random, skewed, and
    /// duplicate-key inputs).
    #[test]
    #[cfg_attr(miri, ignore = "Miri interprets the portable kernels only")]
    fn forced_portable_equals_dispatched_simd() {
        use mmjoin_util::kernels::{with_mode, KernelMode};
        let random = random_input(8_000, 11);
        let skewed: Vec<Tuple> = (0..4_000).map(|i| Tuple::new(42, i)).collect();
        let dups: Vec<Tuple> = (0..6_000).map(|i| Tuple::new((i % 97) + 1, i)).collect();
        for input in [&random, &skewed, &dups] {
            let a = with_mode(KernelMode::Portable, || {
                partition_parallel_on(
                    input,
                    RadixFn::new(5),
                    &ScopedPool::new(3),
                    ScatterMode::Swwcb,
                )
            });
            let b = with_mode(KernelMode::Simd, || {
                partition_parallel_on(
                    input,
                    RadixFn::new(5),
                    &ScopedPool::new(3),
                    ScatterMode::Swwcb,
                )
            });
            assert_eq!(a.offsets(), b.offsets());
            assert_eq!(a.all_tuples(), b.all_tuples());
        }
    }

    /// MWAY's layout: a relation scattered through [`packed_layout`] is,
    /// through [`PartitionedRelation::words_mut`], the `pack()` of the
    /// plain scatter's tuples, partition by partition — the extremes
    /// (0, 0) and (MAX, MAX) and a mixed pair included — and every word
    /// unpacks to the tuple it came from. `emit` sees each input tuple
    /// once, at its index in the whole input. Miri checks the cast.
    #[test]
    fn packed_layout_words_are_pack() {
        let edges = [
            Tuple::new(0, 0),
            Tuple::new(u32::MAX, u32::MAX),
            Tuple::new(u32::MAX, 0),
            Tuple::new(1, u32::MAX),
        ];
        for t in edges {
            assert_eq!(Tuple::unpack(t.pack()), t);
        }
        let mut input = random_input(3_000, 41);
        input.extend(edges);
        let f = RadixFn::new(3);
        for (threads, mode) in [(1, ScatterMode::Swwcb), (3, ScatterMode::Direct)] {
            let pool = ScopedPool::new(threads);
            let plain = partition_parallel_on(&input, f, &pool, mode);
            let seen: Vec<_> = input.iter().map(|_| AtomicUsize::new(0)).collect();
            let mut packed = partition_parallel_emit_on(&input, f, &pool, mode, |i, t| {
                assert_eq!(input[i], t);
                seen[i].fetch_add(1, Ordering::Relaxed);
                packed_layout(t)
            });
            assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
            assert_eq!(packed.offsets(), plain.offsets());
            let words = packed.words_mut();
            assert_eq!(words.len(), plain.parts());
            for (p, part) in words.iter().enumerate() {
                let tuples = plain.partition(p);
                assert!(part.iter().copied().eq(tuples.iter().map(|t| t.pack())));
                assert!(part
                    .iter()
                    .map(|&w| Tuple::unpack(w))
                    .eq(tuples.iter().copied()));
            }
        }
        let mut empty =
            partition_parallel_emit_on(&[], f, &ScopedPool::new(2), ScatterMode::Swwcb, |_, t| {
                packed_layout(t)
            });
        assert!(empty.words_mut().iter().all(|w| w.is_empty()));
    }

    #[test]
    fn empty_input() {
        let pr = partition_parallel_on(
            &[],
            RadixFn::new(4),
            &ScopedPool::new(4),
            ScatterMode::Swwcb,
        );
        assert_eq!(pr.parts(), 16);
        assert_eq!(pr.len(), 0);
        let pr2 = two_pass_partition_on(&[], 2, 2, &ScopedPool::new(4), ScatterMode::Direct);
        assert_eq!(pr2.parts(), 16);
    }

    #[test]
    fn skewed_single_partition() {
        // All keys identical: one partition gets everything.
        let input: Vec<Tuple> = (0..1000).map(|i| Tuple::new(42, i)).collect();
        let pr = partition_parallel_on(
            &input,
            RadixFn::new(4),
            &ScopedPool::new(4),
            ScatterMode::Swwcb,
        );
        assert_eq!(pr.part_len(42 & 0xF), 1000);
        assert_eq!(pr.len(), 1000);
    }

    #[test]
    fn offsets_are_monotone_addresses() {
        let input = random_input(8_000, 7);
        let pr = two_pass_partition_on(&input, 3, 3, &ScopedPool::new(4), ScatterMode::Direct);
        assert!(pr.offsets().windows(2).all(|w| w[0] <= w[1]));
    }
}
