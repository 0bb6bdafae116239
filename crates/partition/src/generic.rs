//! Chunked radix partitioning over arbitrary (wide) tuple types.
//!
//! The study's joins move narrow `<key, rowid>` pairs and reconstruct
//! other attributes through the row id afterwards (*late*
//! materialization). Its Section 8/10 discussion points at the
//! alternative — carrying payload attributes through the partitions
//! (*early* materialization) so the join phase never follows row ids.
//! That requires partitioning records wider than 8 bytes, which this
//! module provides: the same chunk-local histogram+scatter as
//! [`crate::chunked`], generic over the record type and key extractor.
//!
//! Wide records use a plain scatter (no SWWCB): the cache-line buffer
//! trick is specific to the 8-byte tuple layout; for records of 16+
//! bytes the write-combining win shrinks proportionally anyway.

use mmjoin_util::alloc::AlignedBuf;
use mmjoin_util::chunk_range;
use mmjoin_util::pool::{broadcast_map, WorkerPool};

use crate::chunked::{ChunkPart, ChunkedPartitions};
use crate::histogram::{count_digits, prefix_sum};
use crate::radix::RadixFn;

/// Partition `input` chunk-locally by `key(t) & mask` on a worker pool.
pub fn chunked_partition_by_on<T, K>(
    input: &[T],
    f: RadixFn,
    pool: &dyn WorkerPool,
    key: K,
) -> ChunkedPartitions<T>
where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u32 + Send + Sync + Copy,
{
    let active = pool.workers().clamp(1, input.len().max(1));
    let chunks = broadcast_map(pool, active, |t| {
        let chunk = &input[chunk_range(input.len(), active, t)];
        partition_chunk_by(chunk, f, key)
    });
    ChunkedPartitions {
        chunks,
        parts: f.fanout(),
    }
}

fn partition_chunk_by<T: Copy, K: Fn(&T) -> u32>(chunk: &[T], f: RadixFn, key: K) -> ChunkPart<T> {
    let mut hist = vec![0usize; f.fanout()];
    count_digits(chunk, f, &key, &mut hist);
    let offsets = prefix_sum(&hist);
    let mut cursor = offsets[..f.fanout()].to_vec();
    // SAFETY: every slot is written exactly once before `data` is read.
    // Partition `p`'s cursor starts at `offsets[p]` and the check below
    // stops it at `offsets[p + 1]`, so no partition takes more than the
    // histogram counted for it; the scatter makes `chunk.len()` writes,
    // the sum of those counts, so each partition takes exactly its count
    // and the writes tile `0..chunk.len()`. A `key` that answers
    // differently on the second pass panics, past `data`, unread.
    let mut data = unsafe { AlignedBuf::<T>::unfilled(chunk.len()) };
    let out = data.as_mut_ptr();
    for t in chunk {
        let p = f.part(key(t));
        assert!(cursor[p] < offsets[p + 1], "key() changed between passes");
        // SAFETY: `cursor[p] < offsets[p + 1] <= chunk.len()`, checked above.
        unsafe { out.add(cursor[p]).write(*t) };
        cursor[p] += 1;
    }
    ChunkPart { data, offsets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_util::pool::ScopedPool;

    #[derive(Copy, Clone, Debug, PartialEq)]
    struct Wide {
        key: u32,
        a: f32,
        b: u64,
    }

    fn input(n: usize) -> Vec<Wide> {
        let n = if cfg!(miri) { n.min(600) } else { n };
        (0..n as u32)
            .map(|i| Wide {
                key: i * 7 + 1,
                a: i as f32,
                b: i as u64 * 3,
            })
            .collect()
    }

    #[test]
    fn wide_partitions_respect_digits() {
        let data = input(5_000);
        let f = RadixFn::new(4);
        let cp = chunked_partition_by_on(&data, f, &ScopedPool::new(4), |w| w.key);
        assert_eq!(cp.len(), data.len());
        for p in 0..cp.parts() {
            for s in cp.slices(p) {
                assert!(s.iter().all(|w| f.part(w.key) == p));
            }
        }
    }

    #[test]
    fn wide_partitioning_is_a_permutation() {
        let data = input(3_333);
        let cp = chunked_partition_by_on(&data, RadixFn::new(3), &ScopedPool::new(3), |w| w.key);
        let mut seen: Vec<u32> = Vec::new();
        for p in 0..cp.parts() {
            seen.extend(cp.slices(p).flatten().map(|w| w.key));
        }
        seen.sort_unstable();
        let mut expect: Vec<u32> = data.iter().map(|w| w.key).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn payloads_travel_with_keys() {
        let data = input(1_000);
        let cp = chunked_partition_by_on(&data, RadixFn::new(5), &ScopedPool::new(2), |w| w.key);
        for p in 0..cp.parts() {
            for w in cp.slices(p).flatten() {
                assert_eq!(w.b, ((w.key - 1) / 7) as u64 * 3);
            }
        }
    }

    #[test]
    fn empty_input() {
        let cp =
            chunked_partition_by_on::<Wide, _>(&[], RadixFn::new(4), &ScopedPool::new(4), |w| {
                w.key
            });
        assert!(cp.is_empty());
        assert_eq!(cp.parts(), 16);
    }
}
