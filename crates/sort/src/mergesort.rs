//! Sorting one packed array, the way MWAY sorts a partition.
//!
//! 1. **Run formation**: the [`sort8`] network sorts every group of
//!    eight (the AVX-512 kernels: every group of 64, in registers).
//! 2. **In-cache merge passes** double the run width until it reaches
//!    [`RUN_LEN`]. They work through the array two runs at a time, so
//!    every pass of a block reads and writes the cache, not memory. A
//!    pass merges from both ends of a pair of runs at once and two
//!    pairs per loop: four independent dependency chains, no branch on
//!    a key comparison, and no bounds check, because a merge from both
//!    ends stops in the middle before either input can run out.
//! 3. **One multiway merge** ([`merge_runs_into`]) combines the runs of
//!    an array longer than `RUN_LEN` in a single pass over memory.
//!
//! The scratch buffer is caller-provided so repeated sorts reuse one
//! allocation; it is never filled, every pass overwrites its output.
//!
//! Where [`kernels::avx512_active`] says so, all three run on the
//! bitonic kernels of `crate::avx512` instead: runs of 64 formed in
//! registers, passes of bitonic 8+8 merges from width 64 (a last
//! incomplete quad of runs takes the scalar pass), and a merge tree that
//! takes its node buffers from the scratch ([`scratch_len`]).

use mmjoin_util::alloc::AlignedVec;
use mmjoin_util::kernels;

#[cfg(target_arch = "x86_64")]
use crate::avx512;
use crate::multiway::merge_runs_into;
use crate::network::sort8;

/// Width of the network that forms the initial runs.
const NET: usize = 8;

/// Width of the runs the AVX-512 kernels form in registers.
pub(crate) const VECTOR_RUN: usize = 64;

/// Elements per run handed to the multiway merge. The merge passes work
/// on a block of two runs and its scratch, 2 MiB: a whole core's L2 on
/// the Xeon this was measured on (`lscpu`: 4 MiB in 2 instances, so
/// 2 MiB a core). Measured on 1.25 Mi packed tuples (a `probe_heavy`
/// partition at the paper's fan-out of 8), 16 Ki to 256 Ki
/// sort within run-to-run spread of each other (23.7–25.6 ns a tuple),
/// so the cache argument decides. Under Miri the runs are short, to
/// keep every length boundary within reach of the interpreter.
pub const RUN_LEN: usize = if cfg!(miri) { 1 << 7 } else { 1 << 16 };

/// How often [`sort_packed`] moves an array of `n` elements through
/// memory (read once and written once each time): the cache-blocked
/// run sort, and the multiway merge if there is more than one run.
pub fn memory_passes(n: usize) -> usize {
    1 + usize::from(n > RUN_LEN)
}

/// Words of scratch [`sort_packed`] uses for `n` elements in the
/// current kernel mode: `n`, and with the AVX-512 kernels the multiway
/// merge's node buffers too (8 KiB per run, less two) when there is
/// more than one run. What MWAY reserves per worker — exact only if the
/// kernel mode does not change between the reservation and the sorts
/// (a sort that finds its scratch short replaces it, unreserved).
pub fn scratch_len(n: usize) -> usize {
    scratch_len_in(n, kernels::avx512_active())
}

fn scratch_len_in(n: usize, vector: bool) -> usize {
    match vector {
        #[cfg(target_arch = "x86_64")]
        true if n > RUN_LEN => n + avx512::tree_scratch_len(n.div_ceil(RUN_LEN)),
        _ => n,
    }
}

/// Sort `data` ascending. `scratch` is replaced by one of
/// [`scratch_len`]`(data.len())` if it is shorter, and clobbered.
pub fn sort_packed(data: &mut [u64], scratch: &mut AlignedVec<u64>) {
    let n = data.len();
    if n < 2 {
        return;
    }
    let vector = kernels::avx512_active();
    let len = scratch_len_in(n, vector);
    if scratch.len() < len {
        // SAFETY: of `scratch[..n]`, `sort_block` reads only what it has
        // written: it either starts by copying `data` over it (or
        // sorting `data` into it) or reads it as the source of a merge
        // pass, which is the destination — written in full — of the
        // pass before. The multiway merge writes a node buffer or padded
        // tail past `n` before it reads it.
        *scratch = unsafe { AlignedVec::unfilled(len) };
    }
    let (tmp, _tree) = scratch.as_mut_slice()[..len].split_at_mut(n);

    // Passes double the run width from the formed runs' to `top`. Each
    // pass moves the array to the other buffer; the runs must end in
    // `tmp` if a multiway merge is to bring them back to `data`, in
    // `data` if not, which decides where run formation puts them.
    let formed = if vector { VECTOR_RUN } else { NET };
    let multiway = n > RUN_LEN;
    let top = RUN_LEN.min(n.next_power_of_two());
    let passes = (top / formed).max(1).trailing_zeros();
    let start_in_tmp = (passes % 2 == 1) != multiway;
    for (d, t) in data
        .chunks_mut(2 * RUN_LEN)
        .zip(tmp.chunks_mut(2 * RUN_LEN))
    {
        sort_block(d, t, top, start_in_tmp, vector);
    }
    if multiway {
        let runs: Vec<&[u64]> = tmp.chunks(RUN_LEN).collect();
        match vector {
            // SAFETY: as above; `_tree` holds the words past `n` that
            // `scratch_len_in` counted for these runs.
            #[cfg(target_arch = "x86_64")]
            true => unsafe { avx512::merge_runs_into(&runs, data, _tree) },
            _ => merge_runs_into(&runs, data),
        }
    }
}

/// Sort every `top`-wide run of `data`, using `tmp` (same length) as
/// the other buffer. The sorted runs end in `tmp` if `start_in_tmp`
/// differs from the parity of the pass count, else in `data`.
fn sort_block(data: &mut [u64], tmp: &mut [u64], top: usize, start_in_tmp: bool, vector: bool) {
    let mut width = form_runs(data, tmp, start_in_tmp, vector);
    let (mut src, mut dst) = if start_in_tmp {
        (tmp, data)
    } else {
        (data, tmp)
    };
    while width < top {
        match vector {
            // SAFETY: `avx512_active` checked the CPU, and the vector
            // runs make every width a multiple of 64.
            #[cfg(target_arch = "x86_64")]
            true => unsafe { avx512::merge_pass(src, dst, width) },
            _ => merge_pass(src, dst, width),
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
}

/// Sort every group of `data` as wide as a formed run — into `tmp`
/// (same length) if `into_tmp`, else in place — and return that width:
/// 64 with the AVX-512 kernels, the [`sort8`] network's 8 without (a
/// tail under 8 insertion-sorted).
fn form_runs(data: &mut [u64], tmp: &mut [u64], into_tmp: bool, vector: bool) -> usize {
    let runs = match vector {
        #[cfg(target_arch = "x86_64")]
        true => {
            // SAFETY: `avx512_active` checked the CPU.
            unsafe { avx512::form_runs(data, tmp, into_tmp) };
            return VECTOR_RUN;
        }
        _ if into_tmp => {
            tmp.copy_from_slice(data);
            tmp
        }
        _ => data,
    };
    let mut groups = runs.chunks_exact_mut(NET);
    groups.by_ref().for_each(sort8);
    insertion_sort(groups.into_remainder());
    NET
}

#[inline]
fn insertion_sort(d: &mut [u64]) {
    for i in 1..d.len() {
        let v = d[i];
        let mut j = i;
        while j > 0 && d[j - 1] > v {
            d[j] = d[j - 1];
            j -= 1;
        }
        d[j] = v;
    }
}

/// One pass: merge the sorted `w`-wide runs of `src` pairwise into
/// `dst`. The last run may be shorter, or have no partner.
pub(crate) fn merge_pass(src: &[u64], dst: &mut [u64], w: usize) {
    assert_eq!(src.len(), dst.len());
    let paired = src.len() - src.len() % (4 * w);
    let (src_quads, src_tail) = src.split_at(paired);
    let (dst_quads, dst_tail) = dst.split_at_mut(paired);
    for (s, d) in src_quads
        .chunks_exact(4 * w)
        .zip(dst_quads.chunks_exact_mut(4 * w))
    {
        merge_two_pairs(s, d, w);
    }
    for (s, d) in src_tail.chunks(2 * w).zip(dst_tail.chunks_mut(2 * w)) {
        let (a, b) = s.split_at(w.min(s.len()));
        merge_pair(a, b, d);
    }
}

/// Merge the sorted runs `src[..w]` with `src[w..2w]` into `dst[..2w]`
/// and `src[2w..3w]` with `src[3w..]` into `dst[2w..]`, both pairs in
/// one loop: four chains that do not depend on each other.
fn merge_two_pairs(src: &[u64], dst: &mut [u64], w: usize) {
    let (s1, s2) = src.split_at(2 * w);
    let (d1, d2) = dst.split_at_mut(2 * w);
    let (a1, b1) = s1.split_at(w);
    let (a2, b2) = s2.split_at(w);
    assert_eq!(b2.len(), w);
    let mut first = TwoEnded::new(a1, b1, d1);
    let mut second = TwoEnded::new(a2, b2, d2);
    for t in 0..w {
        // SAFETY: all four runs are `w` long, and this is step `t < w`
        // of both merges.
        unsafe {
            first.step(t);
            second.step(t);
        }
    }
}

/// Merge sorted `a` and `b`, of any lengths, into `out`: from both ends
/// for as many steps as the shorter run has elements, then plainly in
/// the middle. Full pairs never reach the middle part.
fn merge_pair(a: &[u64], b: &[u64], out: &mut [u64]) {
    let steps = a.len().min(b.len());
    let mut merge = TwoEnded::new(a, b, out);
    for t in 0..steps {
        // SAFETY: step `t` below the length of the shorter run.
        unsafe { merge.step(t) };
    }
    merge.finish(steps);
}

/// A merge of sorted `a` and `b` into `out` from both ends at once:
/// step `t` writes the `t`-th smallest element of the two runs to
/// `out[t]` and the `t`-th largest to the `t`-th slot from the end.
/// Two chains that never wait for each other, neither with a branch on
/// a key comparison — and for `min(a.len(), b.len())` steps neither
/// with a bounds check, because no end of a run can be used up sooner.
struct TwoEnded<'a> {
    a: &'a [u64],
    b: &'a [u64],
    out: &'a mut [u64],
    /// Elements the front has taken from `b` (`a` wins ties there).
    from_b: usize,
    /// Elements the back has taken from `a` (`b` wins ties there: the
    /// mirror image, so the two ends never take an element twice).
    from_a: usize,
}

impl<'a> TwoEnded<'a> {
    fn new(a: &'a [u64], b: &'a [u64], out: &'a mut [u64]) -> Self {
        assert_eq!(a.len() + b.len(), out.len());
        TwoEnded {
            a,
            b,
            out,
            from_b: 0,
            from_a: 0,
        }
    }

    /// # Safety
    /// Must be called with `t` = 0, 1, 2, … in turn, and only while
    /// `t < min(a.len(), b.len())`.
    #[inline(always)]
    unsafe fn step(&mut self, t: usize) {
        let (la, lb) = (self.a.len(), self.b.len());
        let (j, p) = (self.from_b, self.from_a);
        // SAFETY: each counter grows by at most one per step, so
        // j, p <= t, and the caller keeps t < la, lb. The front reads
        // a[t - j] and b[j], both indices in 0..=t; the back reads
        // a[la - 1 - p] and b[lb - 1 - (t - p)], at most t from the end
        // of its run. The writes go to out[t] and out[la + lb - 1 - t],
        // inside `out` because its length is la + lb (checked in `new`)
        // and t < la.
        unsafe {
            let (x, y) = (*self.a.get_unchecked(t - j), *self.b.get_unchecked(j));
            let right = y < x;
            *self.out.get_unchecked_mut(t) = if right { y } else { x };
            self.from_b = j + right as usize;
            let (x, y) = (
                *self.a.get_unchecked(la - 1 - p),
                *self.b.get_unchecked(lb - 1 - t + p),
            );
            let left = x > y;
            *self.out.get_unchecked_mut(la + lb - 1 - t) = if left { x } else { y };
            self.from_a = p + left as usize;
        }
    }

    /// After `steps` steps: merge what the two ends left between them.
    fn finish(self, steps: usize) {
        let (la, lb) = (self.a.len(), self.b.len());
        let mut a = &self.a[steps - self.from_b..la - self.from_a];
        let mut b = &self.b[self.from_b..lb - (steps - self.from_a)];
        let mut out = &mut self.out[steps..la + lb - steps];
        while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
            let side = if y < x { &mut b } else { &mut a };
            *side = &side[1..];
            let (slot, rest) = out.split_first_mut().expect("one slot per element");
            *slot = x.min(y);
            out = rest;
        }
        out[..a.len()].copy_from_slice(a);
        out[a.len()..].copy_from_slice(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_pair_handles_every_shape() {
        let cases: [(&[u64], &[u64]); 7] = [
            (&[], &[1, 2, 3]),
            (&[1, 2, 3], &[]),
            (&[1, 3, 5, 7], &[2, 4, 6, 8]),
            (&[5, 6, 7, 8, 9], &[1]),
            (&[9], &[1, 2, 3, 4, 5, 6]),
            (&[1, 1, 2, 2], &[1, 2, 2]),
            (&[0, u64::MAX], &[0, 0, u64::MAX]),
        ];
        for (a, b) in cases {
            let mut out = vec![0; a.len() + b.len()];
            merge_pair(a, b, &mut out);
            let mut expect = [a, b].concat();
            expect.sort_unstable();
            assert_eq!(out, expect, "{a:?} + {b:?}");
        }
    }

    #[test]
    fn merge_pass_handles_tails() {
        // Runs of width 2: five full runs and a last run of one.
        let src = [1u64, 9, 2, 8, 3, 7, 4, 6, 0, 5, 4];
        let mut dst = [0u64; 11];
        merge_pass(&src, &mut dst, 2);
        assert_eq!(dst, [1, 2, 8, 9, 3, 4, 6, 7, 0, 4, 5]);
    }

    #[test]
    fn pass_count_follows_run_len() {
        assert_eq!(memory_passes(0), 1);
        assert_eq!(memory_passes(RUN_LEN), 1);
        assert_eq!(memory_passes(RUN_LEN + 1), 2);
    }
}
