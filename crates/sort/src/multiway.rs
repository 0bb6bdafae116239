//! Loser-tree k-way merge.
//!
//! Merging k sorted runs in one pass reads and writes each tuple once —
//! the "multi-way merging to save memory bandwidth" of MWAY — instead of
//! `ceil(log2 k)` binary passes. The tournament (loser) tree does one
//! comparison per level per emitted element.
//!
//! A tournament is one serial dependency chain (the next winner is not
//! known before the last replay ends), so [`merge_runs_into`] runs two
//! of them at once, like the binary passes of
//! [`mergesort`](crate::mergesort): one takes the smallest elements
//! from the front of the runs and fills the output upwards, the other
//! takes the largest from their backs and fills it downwards, and they
//! stop where they meet.
//!
//! Where [`mmjoin_util::kernels::avx512_active`] says so,
//! [`merge_runs_into`] merges through a binary tree of bitonic 8+8
//! kernels instead (`crate::avx512`).

/// Head key of a run that has no elements left; it loses every game.
const EXHAUSTED: u64 = u64::MAX;

/// A tournament over the current head key of each of `k` (a power of
/// two) key streams. The heads sit beside the tree, so a game loads two
/// words and never looks into a run.
struct LoserTree<I> {
    /// What each stream has not yet handed out.
    rest: Vec<I>,
    /// Head key per stream, [`EXHAUSTED`] once it is empty. A run may
    /// hold that value for real: when such a tie lets an empty stream
    /// win, every head left equals `u64::MAX`, so the value popped is
    /// the right one anyway — and the caller pops only as many keys as
    /// the runs hold.
    head: Vec<u64>,
    /// Node `1..k`: the stream that lost the game played there.
    loser: Vec<usize>,
    /// The stream whose head is smallest.
    winner: usize,
}

impl<I: Iterator<Item = u64>> LoserTree<I> {
    fn new(mut rest: Vec<I>) -> Self {
        let k = rest.len();
        assert!(k.is_power_of_two());
        let head: Vec<u64> = rest
            .iter_mut()
            .map(|r| r.next().unwrap_or(EXHAUSTED))
            .collect();
        // Play every game once, leaf pairs first.
        let mut loser = vec![0; k];
        let mut winners: Vec<usize> = (0..k).collect();
        let mut level = k;
        while level > 1 {
            level /= 2;
            for i in 0..level {
                let (a, b) = (winners[2 * i], winners[2 * i + 1]);
                let (win, lose) = if head[a] <= head[b] { (a, b) } else { (b, a) };
                loser[level + i] = lose;
                winners[i] = win;
            }
        }
        LoserTree {
            rest,
            head,
            loser,
            winner: winners[0],
        }
    }

    /// Take the smallest head, refill it from its stream and replay the
    /// games on its path to the root.
    #[inline(always)]
    fn pop(&mut self) -> u64 {
        let k = self.head.len();
        // `& mask` keeps every index below `k`, which spares the loop
        // its bounds checks; it never changes an index, all are < k.
        let mask = k - 1;
        let (head, loser) = (&mut self.head[..k], &mut self.loser[..k]);
        let mut winner = self.winner & mask;
        let popped = head[winner];
        let mut key = self.rest[winner].next().unwrap_or(EXHAUSTED);
        head[winner] = key;
        let mut node = (k + winner) >> 1;
        while node != 0 {
            let rival = loser[node & mask];
            let rival_key = head[rival & mask];
            // Swap winner and rival if the rival's key is smaller — with
            // masks, not `if`: on random keys the outcome is a coin
            // flip, and LLVM turns the `if` form into a branch.
            let swap = ((rival_key < key) as usize).wrapping_neg();
            let flip = (winner ^ rival) & swap;
            loser[node & mask] = rival ^ flip;
            winner ^= flip;
            key ^= (key ^ rival_key) & swap as u64;
            node >>= 1;
        }
        self.winner = winner;
        popped
    }
}

/// Merge the sorted `runs` into `out`, which must be exactly as long as
/// all of them together.
pub fn merge_runs_into(runs: &[&[u64]], out: &mut [u64]) {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert_eq!(total, out.len(), "output must hold every run");
    #[cfg(target_arch = "x86_64")]
    if mmjoin_util::kernels::avx512_active() {
        use crate::avx512;
        use mmjoin_util::alloc::AlignedVec;
        // SAFETY: the tree writes a node buffer or a padded tail before
        // it reads it; `avx512_active` checked the CPU.
        unsafe {
            let mut tree = AlignedVec::unfilled(avx512::tree_scratch_len(runs.len()));
            return avx512::merge_runs_into(runs, out, &mut tree);
        }
    }
    let k = runs.len().next_power_of_two();
    let leaves = || {
        runs.iter()
            .copied()
            .chain(std::iter::repeat(&[][..]))
            .take(k)
    };
    let mut low = LoserTree::new(leaves().map(|r| r.iter().copied()).collect());
    // The largest key first is the smallest complement first.
    let mut high = LoserTree::new(leaves().map(|r| r.iter().rev().map(|&v| !v)).collect());
    let (front, back) = out.split_at_mut(total / 2);
    let mut back = back.iter_mut().rev();
    for (lo, hi) in front.iter_mut().zip(&mut back) {
        *lo = low.pop();
        *hi = !high.pop();
    }
    if let Some(middle) = back.next() {
        *middle = low.pop();
    }
}

/// Merge `runs` into a fresh vector.
pub fn merge_runs(runs: Vec<&[u64]>) -> Vec<u64> {
    let mut out = vec![0; runs.iter().map(|r| r.len()).sum()];
    merge_runs_into(&runs, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_simple_runs() {
        let a = [1u64, 4, 7];
        let b = [2u64, 5, 8];
        let c = [3u64, 6, 9];
        assert_eq!(merge_runs(vec![&a, &b, &c]), (1..=9u64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_runs_and_empty_input() {
        assert_eq!(merge_runs(vec![]), Vec::<u64>::new());
        let empty: &[u64] = &[];
        let a = [1u64, 2];
        assert_eq!(merge_runs(vec![empty, &a, empty]), vec![1, 2]);
        assert_eq!(merge_runs(vec![empty, empty]), Vec::<u64>::new());
    }

    #[test]
    fn duplicates_preserved() {
        let a = [5u64, 5, 5];
        let b = [5u64, 5];
        assert_eq!(merge_runs(vec![&a, &b]), vec![5; 5]);
    }

    #[test]
    fn sentinel_values_survive_in_both_directions() {
        // Real u64::MAX data ties with the exhausted sentinel of the
        // ascending tree, real 0 with that of the descending one.
        let a = [0u64, 1, u64::MAX];
        let b = [u64::MAX];
        let c = [0u64, 0];
        assert_eq!(
            merge_runs(vec![&a, &b, &c]),
            vec![0, 0, 0, 1, u64::MAX, u64::MAX]
        );
    }

    #[test]
    #[should_panic(expected = "output must hold every run")]
    fn wrong_output_length_is_refused() {
        merge_runs_into(&[&[1, 2]], &mut [0; 3]);
    }
}
