//! Software write-combine buffers (Algorithm 1 of the paper).
//!
//! Scattering tuples to hundreds of partitions touches hundreds of pages;
//! without buffering every write risks a TLB miss. A SWWCB keeps one
//! cache line of pending tuples per partition *in cache* and flushes full
//! lines to the destination with non-temporal stores. With a buffer of
//! `N` tuples, TLB pressure drops by a factor of `N`.
//!
//! A partition's cursor is its *slot*: the next output index, whose
//! tuple goes to place `slot % 8` of the partition's line (the layout of
//! Balkesen et al.). A full line is thus one aligned line of the output,
//! and streams there — unless the partition starts mid-line in it (once
//! per partition at most): then only the tail from the partition's
//! first slot is the scatter's to write, and is copied.
//!
//! The loop is one body compiled twice: with SSE2's `_mm_stream_si128`
//! inline (the x86-64 baseline, so no target feature to enable; in SIMD
//! kernel mode, into a line-aligned output) and with a plain copy. Both
//! write the same bytes. Streamed stores are weakly ordered, so the
//! streaming one ends with an `sfence`, ahead of the phase barrier that
//! publishes the partitions to other threads.

use mmjoin_util::kernels;
use mmjoin_util::tuple::Tuple;
use mmjoin_util::{CACHE_LINE, TUPLES_PER_CACHELINE};

use crate::radix::RadixFn;

/// One cache line of buffered tuples for one target partition.
#[repr(C, align(64))]
#[derive(Copy, Clone, Default)]
struct Line {
    tuples: [Tuple; TUPLES_PER_CACHELINE],
}

const _: () = assert!(std::mem::size_of::<Line>() == CACHE_LINE);

/// Bytes a partition pass reserves per worker for its SWWCB bank over
/// `parts` partitions: a line, a cursor and a first slot each.
pub const fn bank_bytes(parts: usize) -> usize {
    parts * (CACHE_LINE + 2 * std::mem::size_of::<usize>())
}

/// Scatter `emit(i, chunk[i])` through a bank of one line per partition
/// to partition `p = f.part(chunk[i].key)` at `cursors[p]`, in input
/// order within a partition, advancing each cursor past what it wrote.
///
/// # Safety
/// For every partition `p`, `out` must be valid for writes at
/// `cursors[p] .. cursors[p] + n`, `n` the tuples of `chunk` in `p`
/// (the caller's histogram guarantees this), and nobody else may
/// touch that range meanwhile.
pub(crate) unsafe fn scatter(
    chunk: &[Tuple],
    f: RadixFn,
    cursors: &mut [usize],
    out: *mut Tuple,
    emit: impl Fn(usize, Tuple) -> Tuple,
) {
    assert!(cursors.len() == f.fanout());
    // Slot `i` is place `i % 8` of an output line only if `out` is
    // line-aligned.
    #[cfg(target_arch = "x86_64")]
    if kernels::simd_active() && (out as usize).is_multiple_of(CACHE_LINE) {
        // SAFETY: the caller's contract is the loop's.
        unsafe { scatter_loop::<true>(chunk, f, cursors, out, emit) };
        kernels::sfence();
        return;
    }
    // SAFETY: the caller's contract is the loop's.
    unsafe { scatter_loop::<false>(chunk, f, cursors, out, emit) }
}

/// # Safety
/// As [`scatter`]; with `STREAM`, `out` must be line-aligned.
#[inline(always)]
unsafe fn scatter_loop<const STREAM: bool>(
    chunk: &[Tuple],
    f: RadixFn,
    slots: &mut [usize],
    out: *mut Tuple,
    emit: impl Fn(usize, Tuple) -> Tuple,
) {
    const N: usize = TUPLES_PER_CACHELINE;
    let (mut lines, firsts) = (vec![Line::default(); slots.len()], slots.to_vec());
    for (i, &t) in chunk.iter().enumerate() {
        let p = f.part(t.key);
        let (slot, line) = (slots[p], &mut lines[p]);
        line.tuples[slot % N] = emit(i, t);
        slots[p] = slot + 1;
        if !(slot + 1).is_multiple_of(N) {
            continue;
        }
        // A full line: stream or copy it, or only its tail from `first`.
        let (start, first) = (slot + 1 - N, firsts[p]);
        #[cfg(target_arch = "x86_64")]
        if STREAM && start >= first {
            use std::arch::x86_64::{__m128i, _mm_load_si128, _mm_stream_si128};
            let s = std::ptr::from_ref(line).cast::<__m128i>();
            let d = out.add(start).cast::<__m128i>();
            // SAFETY: `start..start + N` is this partition's, a line of
            // the aligned `out`; `line` is aligned too.
            unsafe {
                for k in 0..4 {
                    _mm_stream_si128(d.add(k), _mm_load_si128(s.add(k)));
                }
            }
            continue;
        }
        let from = start.max(first);
        let src = line.tuples[from - start..].as_ptr();
        // SAFETY: `from..slot + 1` is this partition's.
        unsafe { std::ptr::copy_nonoverlapping(src, out.add(from), slot + 1 - from) };
    }
    // The partial lines, each from its line start or first slot.
    for ((line, &slot), first) in lines.iter().zip(&*slots).zip(firsts) {
        let from = (slot - slot % N).max(first);
        let src = line.tuples[from % N..].as_ptr();
        // SAFETY: `from..slot` lies in `first..slot`, this partition's.
        unsafe { std::ptr::copy_nonoverlapping(src, out.add(from), slot - from) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::{global_offsets, histogram};
    use mmjoin_util::alloc::AlignedBuf;
    use mmjoin_util::kernels::{with_mode, KernelMode};
    use mmjoin_util::rng::Xoshiro256;

    /// Scatter each chunk through its own bank, as the workers of one
    /// partition pass do (one output, the cursors `global_offsets`
    /// gives them), into an output `shift` tuples past a line boundary.
    /// Checks every bank ends where the histogram said and nothing
    /// outside the output is touched; returns the output.
    fn scatter_workers(chunks: &[Vec<Tuple>], f: RadixFn, shift: usize) -> Vec<Tuple> {
        let locals: Vec<Vec<usize>> = chunks.iter().map(|c| histogram(c, f)).collect();
        let (dst, offsets) = global_offsets(&locals);
        let n = offsets[f.fanout()];
        let sentinel = Tuple::new(u32::MAX, u32::MAX);
        let mut buf = AlignedBuf::<Tuple>::zeroed(shift + n + 1);
        buf.as_mut_slice().fill(sentinel);
        for (t, chunk) in chunks.iter().enumerate() {
            let mut cursors = dst[t].clone();
            let out = buf.as_mut_ptr().wrapping_add(shift);
            // SAFETY: worker `t`'s ranges of the `n` slots past `shift`.
            unsafe { scatter(chunk, f, &mut cursors, out, |_, t| t) };
            for p in 0..f.fanout() {
                assert_eq!(cursors[p], dst[t][p] + locals[t][p], "worker {t} part {p}");
            }
        }
        let all = buf.as_slice();
        assert!(all[..shift]
            .iter()
            .chain(&all[shift + n..])
            .all(|&t| t == sentinel));
        all[shift..][..n].to_vec()
    }

    /// Chunks of tuples with the given digits under `bits` bits, keys
    /// distinct, each chunk's order shuffled.
    fn chunks_of(bits: u32, digits: &[Vec<u32>], seed: u64) -> Vec<Vec<Tuple>> {
        let mut rng = Xoshiro256::new(seed);
        let mut i = 0u32;
        let mut chunk = |ds: &Vec<u32>| {
            let mut c: Vec<(u32, Tuple)> = ds
                .iter()
                .map(|&d| {
                    i += 1;
                    (rng.next_u32(), Tuple::new(d | i << bits, i))
                })
                .collect();
            c.sort_by_key(|&(r, _)| r);
            c.into_iter().map(|(_, t)| t).collect()
        };
        digits.iter().map(&mut chunk).collect()
    }

    /// Every bank case, in both kernel modes — streaming on and off —
    /// into a line-aligned output and one a tuple past it
    /// (which the streaming loop leaves to the plain one): the workers'
    /// output is the stable sort by digit of their chunks in worker
    /// order.
    #[test]
    fn streaming_flushes_match_portable() {
        let rep = |d: u32, n: usize| vec![d; n];
        let cat = |parts: &[Vec<u32>]| parts.concat();
        let random = |bits: u32, n: usize, seed: u64| {
            let n = if cfg!(miri) { n.min(300) } else { n };
            let mut rng = Xoshiro256::new(seed);
            (0..n)
                .map(|_| rng.next_u32() & ((1 << bits) - 1))
                .collect::<Vec<u32>>()
        };
        let cases: Vec<(&str, u32, Vec<Vec<u32>>)> = vec![
            ("exact lines", 1, vec![cat(&[rep(0, 8), rep(1, 8)])]),
            ("partial lines", 1, vec![cat(&[rep(0, 11), rep(1, 3)])]),
            ("starts mid-line", 1, vec![cat(&[rep(0, 5), rep(1, 20)])]),
            (
                "line shared by two workers at a partition boundary",
                1,
                vec![cat(&[rep(0, 3), rep(1, 10)]), cat(&[rep(0, 3), rep(1, 10)])],
            ),
            (
                "shorter than a line, both ends mid-line",
                2,
                vec![cat(&[rep(0, 3), rep(1, 2), rep(2, 20)])],
            ),
            (
                "empty partitions",
                4,
                vec![cat(&[rep(0, 17), rep(9, 23)]), rep(9, 6), vec![]],
            ),
            ("fan-out 1", 0, vec![rep(0, 29), rep(0, 3)]),
            ("fan-out 64", 6, vec![random(6, 3_000, 1)]),
            (
                "fan-out 64, three workers",
                6,
                vec![random(6, 1_000, 2), random(6, 999, 3), random(6, 7, 4)],
            ),
            (
                "fan-out 2^14",
                14,
                vec![random(14, 40_000, 5), random(14, 3, 6)],
            ),
        ];
        let modes: &[KernelMode] = if cfg!(miri) {
            &[KernelMode::Portable]
        } else {
            &[KernelMode::Portable, KernelMode::Simd]
        };
        for (name, bits, digits) in &cases {
            let f = RadixFn::new(*bits);
            let chunks = chunks_of(*bits, digits, 7);
            let mut expect = chunks.concat();
            expect.sort_by_key(|t| f.part(t.key));
            for &mode in modes {
                for shift in [0, 1] {
                    let got = with_mode(mode, || scatter_workers(&chunks, f, shift));
                    assert!(got == expect, "{name}: {mode:?} shift {shift}");
                }
            }
        }
    }
}
