//! Histograms and prefix sums — phase (1) and (2) of Figure 4(a).

use mmjoin_util::tuple::Tuple;

use crate::radix::RadixFn;

/// Count tuples per partition.
pub fn histogram(tuples: &[Tuple], f: RadixFn) -> Vec<usize> {
    let mut h = vec![0; f.fanout()];
    count_digits(tuples, f, |t| t.key, &mut h);
    h
}

/// The histogram kernel, under every partitioner of the crate: adds to
/// `counts[p]` the number of `input`'s records whose `key` has digit `p`
/// under `f`.
#[inline(always)]
pub(crate) fn count_digits<T>(
    input: &[T],
    f: RadixFn,
    key: impl Fn(&T) -> u32,
    counts: &mut [usize],
) {
    assert_eq!(counts.len(), f.fanout());
    for t in input {
        // SAFETY: `f.part` masks the key to `f.bits` bits, so the index
        // is below `f.fanout() == counts.len()` (asserted above).
        unsafe { *counts.get_unchecked_mut(f.part(key(t))) += 1 };
    }
}

/// Exclusive prefix sum; returns offsets of length `h.len() + 1`, with the
/// total in the last slot.
pub fn prefix_sum(h: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(h.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &c in h {
        acc += c;
        out.push(acc);
    }
    out
}

/// Phase (2) of PRO: merge per-thread local histograms into per-thread,
/// per-partition *output cursors* into one contiguous buffer.
///
/// Output layout (identical to the original code): partitions are laid
/// out in index order; within a partition, thread 0's tuples precede
/// thread 1's, etc. Returns `(dst[thread][part], part_offsets)` where
/// `part_offsets` has length `parts + 1`.
pub fn global_offsets(locals: &[Vec<usize>]) -> (Vec<Vec<usize>>, Vec<usize>) {
    assert!(!locals.is_empty());
    let parts = locals[0].len();
    let mut part_totals = vec![0usize; parts];
    for l in locals {
        debug_assert_eq!(l.len(), parts);
        for (p, &c) in l.iter().enumerate() {
            part_totals[p] += c;
        }
    }
    let part_offsets = prefix_sum(&part_totals);
    let mut dst = vec![vec![0usize; parts]; locals.len()];
    for p in 0..parts {
        let mut cursor = part_offsets[p];
        for (t, l) in locals.iter().enumerate() {
            dst[t][p] = cursor;
            cursor += l[p];
        }
        debug_assert_eq!(cursor, part_offsets[p + 1]);
    }
    (dst, part_offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(k: u32) -> Tuple {
        Tuple::new(k, 0)
    }

    #[test]
    fn histogram_counts() {
        let ts: Vec<Tuple> = [0u32, 1, 2, 3, 4, 5, 6, 7, 8]
            .iter()
            .map(|&k| tup(k))
            .collect();
        let h = histogram(&ts, RadixFn::new(2));
        assert_eq!(h, vec![3, 2, 2, 2]); // keys 0,4,8 | 1,5 | 2,6 | 3,7

        // The kernel against a naive count: lengths 0-9, several
        // fan-outs, a digit above the low bits.
        let mut rng = mmjoin_util::rng::Xoshiro256::new(5);
        let keys: Vec<Tuple> = (0..9).map(|_| tup(rng.next_u32())).collect();
        let fs = [0, 1, 3, 5, 6, 10].map(RadixFn::new);
        for f in fs.into_iter().chain([RadixFn::pass(4, 7)]) {
            for n in 0..=9 {
                let ts = &keys[..n];
                let mut naive = vec![0usize; f.fanout()];
                ts.iter().for_each(|t| naive[f.part(t.key)] += 1);
                assert_eq!(histogram(ts, f), naive, "{f:?} n={n}");
            }
        }
    }

    #[test]
    fn prefix_sum_shape() {
        assert_eq!(prefix_sum(&[3, 0, 2]), vec![0, 3, 3, 5]);
        assert_eq!(prefix_sum(&[]), vec![0]);
    }

    #[test]
    fn global_offsets_interleave_threads_within_partition() {
        // Two threads, two partitions.
        let locals = vec![vec![2usize, 1], vec![3, 4]];
        let (dst, offs) = global_offsets(&locals);
        assert_eq!(offs, vec![0, 5, 10]);
        // Partition 0: thread0 at 0 (2 tuples), thread1 at 2 (3 tuples).
        assert_eq!(dst[0][0], 0);
        assert_eq!(dst[1][0], 2);
        // Partition 1 starts at 5: thread0 at 5 (1), thread1 at 6 (4).
        assert_eq!(dst[0][1], 5);
        assert_eq!(dst[1][1], 6);
    }

    #[test]
    fn global_offsets_single_thread_is_prefix_sum() {
        let locals = vec![vec![1usize, 2, 3]];
        let (dst, offs) = global_offsets(&locals);
        assert_eq!(dst[0], vec![0, 1, 3]);
        assert_eq!(offs, vec![0, 1, 3, 6]);
    }
}
