//! Shared low-level utilities for the `mmjoin` workspace.
//!
//! This crate deliberately has (almost) no dependencies. It provides the
//! vocabulary types used by every other crate:
//!
//! * [`Tuple`] / [`Relation`] — the `<key, payload>` pairs of the paper
//!   (4-byte key, 4-byte payload) and node-placement-tagged relations.
//! * [`alloc::AlignedBuf`] — cache-line / page aligned buffers.
//! * [`kernels`] — runtime-dispatched hardware kernels (non-temporal
//!   streaming stores, software prefetch) with portable fallbacks.
//! * [`scope`] — the per-thread switches (kernel mode, alloc-policy
//!   override, forced failures, spill I/O faults) a worker pool carries
//!   from a phase's submitter into its workers.
//! * [`rng`] — small deterministic PRNGs (SplitMix64 / Xoshiro256**).
//! * [`checksum`] — order-independent join-result checksums used to verify
//!   that all thirteen algorithms produce identical results.
//! * [`pool::WorkerPool`] — the worker-pool trait every thread-parallel
//!   phase runs against (implemented by `mmjoin-core`'s persistent
//!   executor and by the scoped-thread fallback [`pool::ScopedPool`]).

pub mod alloc;
pub mod checksum;
pub mod jsonv;
pub mod kernels;
pub mod mem;
pub mod perf;
pub mod pool;
pub mod rng;
pub mod scope;
pub mod spill;
pub mod stats;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod sys;
pub mod telemetry;
pub mod trace;
pub mod tuple;

pub use pool::{ExecCounters, ScopedPool, WorkerPool};
pub use tuple::{Key, Payload, Placement, Relation, Tuple};

/// Size of one cache line in bytes on every platform the paper targets.
pub const CACHE_LINE: usize = 64;

/// Number of 8-byte tuples that fit in one cache line (the SWWCB granule).
pub const TUPLES_PER_CACHELINE: usize = CACHE_LINE / core::mem::size_of::<Tuple>();

/// Small page size (default x86-64 page).
pub const PAGE_4K: usize = 4 * 1024;

/// Huge page size (x86-64 2 MB page).
pub const PAGE_2M: usize = 2 * 1024 * 1024;

/// Round `n` up to the next power of two, with a minimum of 1.
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Divide `n` items into `parts` contiguous chunks as evenly as possible,
/// returning the `[start, end)` range of chunk `idx`.
///
/// The first `n % parts` chunks get one extra element, so chunk sizes never
/// differ by more than one. This is the chunk assignment used by every
/// thread-parallel phase in the paper's algorithms.
#[inline]
pub fn chunk_range(n: usize, parts: usize, idx: usize) -> core::ops::Range<usize> {
    debug_assert!(idx < parts);
    let base = n / parts;
    let rem = n % parts;
    let start = idx * base + idx.min(rem);
    let len = base + usize::from(idx < rem);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 64, 1000, 1023] {
            for parts in [1usize, 2, 3, 7, 32] {
                let mut covered = 0;
                let mut prev_end = 0;
                for i in 0..parts {
                    let r = chunk_range(n, parts, i);
                    assert_eq!(r.start, prev_end, "n={n} parts={parts} i={i}");
                    covered += r.len();
                    prev_end = r.end;
                }
                assert_eq!(covered, n);
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one() {
        let sizes: Vec<usize> = (0..5).map(|i| chunk_range(13, 5, i).len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn pow2_helpers() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn tuple_layout_matches_paper() {
        // The paper uses a 4-byte key and a 4-byte payload.
        assert_eq!(core::mem::size_of::<Tuple>(), 8);
        assert_eq!(TUPLES_PER_CACHELINE, 8);
    }
}
