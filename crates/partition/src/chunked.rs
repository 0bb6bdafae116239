//! Chunked parallel radix partitioning — the CPR* partitioning this paper
//! proposes (Section 6.1, Figure 4(c)).
//!
//! There is no global histogram and no phase (2): every thread runs a
//! single-threaded histogram-based radix partitioning *inside its own
//! chunk*, writing only to thread-local (hence NUMA-local) memory. The
//! price: partition `p` is no longer contiguous — it is the concatenation
//! of every chunk's `p`-th sub-partition, which the join phase gathers
//! with large *sequential* (possibly remote) reads instead of the random
//! remote writes of PRO.

use mmjoin_util::alloc::AlignedBuf;
use mmjoin_util::chunk_range;
use mmjoin_util::pool::{broadcast_map, WorkerPool};
use mmjoin_util::tuple::Tuple;

use crate::contiguous::{route_at, ScatterMode};
use crate::radix::RadixFn;

/// One thread's locally partitioned chunk (of [`Tuple`]s, or of the wide
/// records of [`crate::generic`]).
pub struct ChunkPart<T = Tuple> {
    pub(crate) data: AlignedBuf<T>,
    /// `parts + 1` offsets into `data`.
    pub(crate) offsets: Vec<usize>,
}

impl<T> ChunkPart<T> {
    #[inline]
    pub fn partition(&self, p: usize) -> &[T] {
        &self.data.as_slice()[self.offsets[p]..self.offsets[p + 1]]
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A relation partitioned chunk-locally: `chunks[t].partition(p)` holds
/// thread `t`'s share of partition `p`.
pub struct ChunkedPartitions<T = Tuple> {
    pub(crate) chunks: Vec<ChunkPart<T>>,
    pub(crate) parts: usize,
}

impl<T> ChunkedPartitions<T> {
    #[inline]
    pub fn parts(&self) -> usize {
        self.parts
    }

    #[inline]
    pub fn chunks(&self) -> &[ChunkPart<T>] {
        &self.chunks
    }

    /// Total tuples in partition `p` across all chunks.
    pub fn part_len(&self, p: usize) -> usize {
        self.slices(p).map(<[T]>::len).sum()
    }

    /// Every chunk's slice of partition `p`, in chunk order.
    #[inline]
    pub fn slices(&self, p: usize) -> impl Iterator<Item = &[T]> {
        self.chunks.iter().map(move |c| c.partition(p))
    }

    pub fn len(&self) -> usize {
        self.chunks.iter().map(ChunkPart::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Partition `input` chunk-locally on a worker pool (one chunk per
/// active worker).
pub fn chunked_partition_on(
    input: &[Tuple],
    f: RadixFn,
    pool: &dyn WorkerPool,
    mode: ScatterMode,
) -> ChunkedPartitions {
    let active = pool.workers().clamp(1, input.len().max(1));
    let chunks = broadcast_map(pool, active, |t| {
        let chunk = &input[chunk_range(input.len(), active, t)];
        partition_chunk_local(chunk, f, mode)
    });
    ChunkedPartitions {
        chunks,
        parts: f.fanout(),
    }
}

/// Single-threaded histogram-based radix partitioning of one chunk into a
/// fresh local buffer.
fn partition_chunk_local(chunk: &[Tuple], f: RadixFn, mode: ScatterMode) -> ChunkPart {
    // SAFETY: every slot is written exactly once before `data` is read:
    // `route_at` fills `0..chunk.len()` in full, each partition at the
    // range its own count of this chunk gave it.
    let mut data = unsafe { AlignedBuf::<Tuple>::unfilled(chunk.len()) };
    let mut offsets = vec![0usize; f.fanout() + 1];
    // `offsets[0]` stays 0: partition 0 starts where the chunk does.
    let (cursors, ptr) = (&mut offsets[1..], data.as_mut_ptr());
    // SAFETY: `data` is `chunk.len()` slots this thread alone holds.
    unsafe { route_at(chunk, f, cursors, ptr, mode, |_, t| t) }
    ChunkPart { data, offsets }
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
    fn partitions_hold_matching_digits() {
        let input = random_input(10_000, 1);
        let f = RadixFn::new(5);
        for threads in [1, 2, 4, 7] {
            let cp = chunked_partition_on(&input, f, &ScopedPool::new(threads), ScatterMode::Swwcb);
            assert_eq!(cp.parts(), 32);
            assert_eq!(cp.len(), input.len());
            for p in 0..cp.parts() {
                for s in cp.slices(p) {
                    assert!(s.iter().all(|t| f.part(t.key) == p));
                }
            }
        }
    }

    #[test]
    fn union_is_a_permutation_of_input() {
        let input = random_input(7_777, 2);
        let cp = chunked_partition_on(
            &input,
            RadixFn::new(4),
            &ScopedPool::new(5),
            ScatterMode::Direct,
        );
        let mut collected: Vec<u64> = Vec::with_capacity(input.len());
        for p in 0..cp.parts() {
            collected.extend(cp.slices(p).flatten().map(|t| t.pack()));
        }
        let mut a: Vec<u64> = input.iter().map(|t| t.pack()).collect();
        collected.sort_unstable();
        a.sort_unstable();
        assert_eq!(a, collected);
    }

    #[test]
    fn part_len_sums_chunks() {
        let input = random_input(4_000, 3);
        let f = RadixFn::new(3);
        let cp = chunked_partition_on(&input, f, &ScopedPool::new(4), ScatterMode::Swwcb);
        let total: usize = (0..cp.parts()).map(|p| cp.part_len(p)).sum();
        assert_eq!(total, input.len());
        // Cross-check one partition against a direct count.
        let expect = input.iter().filter(|t| f.part(t.key) == 3).count();
        assert_eq!(cp.part_len(3), expect);
    }

    #[test]
    fn swwcb_equals_direct_chunked() {
        let input = random_input(3_000, 4);
        let a = chunked_partition_on(
            &input,
            RadixFn::new(4),
            &ScopedPool::new(3),
            ScatterMode::Direct,
        );
        let b = chunked_partition_on(
            &input,
            RadixFn::new(4),
            &ScopedPool::new(3),
            ScatterMode::Swwcb,
        );
        for (ca, cb) in a.chunks().iter().zip(b.chunks()) {
            assert_eq!(ca.offsets, cb.offsets);
            assert_eq!(ca.data.as_slice(), cb.data.as_slice());
        }
    }

    /// Differential kernel test for the chunked partitioner.
    #[test]
    #[cfg_attr(miri, ignore = "Miri interprets the portable kernels only")]
    fn forced_portable_equals_dispatched_simd() {
        use mmjoin_util::kernels::{with_mode, KernelMode};
        let input = random_input(9_000, 12);
        let a = with_mode(KernelMode::Portable, || {
            chunked_partition_on(
                &input,
                RadixFn::new(5),
                &ScopedPool::new(4),
                ScatterMode::Swwcb,
            )
        });
        let b = with_mode(KernelMode::Simd, || {
            chunked_partition_on(
                &input,
                RadixFn::new(5),
                &ScopedPool::new(4),
                ScatterMode::Swwcb,
            )
        });
        for (ca, cb) in a.chunks().iter().zip(b.chunks()) {
            assert_eq!(ca.offsets, cb.offsets);
            assert_eq!(ca.data.as_slice(), cb.data.as_slice());
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let cp = chunked_partition_on(
            &[],
            RadixFn::new(4),
            &ScopedPool::new(8),
            ScatterMode::Swwcb,
        );
        assert_eq!(cp.len(), 0);
        let one = [Tuple::new(5, 0)];
        let cp = chunked_partition_on(
            &one,
            RadixFn::new(4),
            &ScopedPool::new(8),
            ScatterMode::Swwcb,
        );
        assert_eq!(cp.len(), 1);
        assert_eq!(cp.part_len(5), 1);
    }
}
