//! AVX-512 kernels of the sort: bitonic networks over packed `u64`
//! words, eight to a 512-bit register, compared with the unsigned
//! `vpminuq` / `vpmaxuq` (the key is the high half of a word, so word
//! order is key order).
//!
//! * **Run formation** ([`form_runs`]): 64 words at a time in eight
//!   registers. The 19-comparator network of
//!   [`sort8`](crate::network::sort8) across the registers sorts each
//!   of the eight columns, an 8×8 transpose makes every column a
//!   register, and in-register bitonic merges of 8+8, 16+16 and 32+32
//!   words finish the run. This replaces `sort8` and the scalar path's
//!   first three merge passes.
//! * **Merge passes** ([`merge_pass`]) from width 64: each pair of runs
//!   is merged eight words at a time by a bitonic 8+8 kernel. The larger
//!   half of each merge stays in a carry register; the next block comes
//!   from the run with the smaller head, picked with `cmov`. Two pairs
//!   per loop; a last incomplete quad of runs takes the scalar pass.
//! * **Multiway merge** ([`merge_runs_into`]): a binary tree of the same
//!   kernel, each node merging two inputs as a pass merges two runs.
//!   Each inner node below the root owns a [`FIFO`]-word buffer
//!   that its parent drains front to back and that is refilled from the
//!   start when it is empty — pulled from the root, so a buffer is
//!   always linear, never a ring. Each run's last partial block is
//!   padded with `u64::MAX`; the root writes exactly the runs' total.
//!   Still one read and one write of every word in memory.
//!
//! Taking the next block from the input with the smaller head keeps a
//! block merge correct: every word in the carry came from an earlier
//! block, so none exceeds the other input's head, and the eight smallest
//! of carry and block are at most every word not loaded yet.
//!
//! Every function here is either `#[target_feature(enable = "avx512f")]`
//! or `#[inline(always)]` and called only from one that is: the
//! intrinsics inline only into code compiled with the feature, and a
//! closure in between compiles to a call per comparator. Callers check
//! [`mmjoin_util::kernels::avx512_active`] first.

use std::arch::x86_64::*;
use std::ptr;

use crate::mergesort::{self, VECTOR_RUN};

/// Words per register.
const LANES: usize = 8;

/// Words in the buffer of each inner node of the merge tree (8 KiB):
/// the buffers of an 80-run tree take 632 KiB, within the L2 that the
/// in-cache merge passes' blocks use at other times.
pub(crate) const FIFO: usize = 1 << 10;

/// Scratch words [`merge_runs_into`] needs for `runs` runs: one buffer
/// per inner node below the root, one padded block per run.
pub(crate) fn tree_scratch_len(runs: usize) -> usize {
    LANES * runs + FIFO * runs.saturating_sub(2)
}

type V = __m512i;

// Every `unsafe fn` below requires a CPU with AVX-512F; those that take
// pointers also say what the pointers must be valid for.

/// # Safety
/// AVX-512F; `p` valid for reading eight words.
#[inline(always)]
unsafe fn load(p: *const u64) -> V {
    _mm512_loadu_epi64(p.cast())
}

/// # Safety
/// AVX-512F; `p` valid for writing eight words.
#[inline(always)]
unsafe fn store(p: *mut u64, v: V) {
    _mm512_storeu_epi64(p.cast(), v)
}

/// # Safety
/// AVX-512F.
#[inline(always)]
unsafe fn minmax(a: V, b: V) -> (V, V) {
    (_mm512_min_epu64(a, b), _mm512_max_epu64(a, b))
}

/// # Safety
/// AVX-512F.
#[inline(always)]
unsafe fn reverse(v: V) -> V {
    _mm512_permutexvar_epi64(_mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7), v)
}

/// One level of a half-cleaner inside a register: every lane meets the
/// same lane of `partner`; the lanes in `upper` keep the larger word,
/// the others the smaller.
///
/// # Safety
/// AVX-512F.
#[inline(always)]
unsafe fn exchange(v: V, partner: V, upper: __mmask8) -> V {
    _mm512_mask_max_epu64(_mm512_min_epu64(v, partner), upper, v, partner)
}

/// Sort a bitonic register: compare-exchange at distance 4, 2 and 1.
///
/// # Safety
/// AVX-512F.
#[inline(always)]
unsafe fn clean(v: V) -> V {
    let v = exchange(v, _mm512_shuffle_i64x2::<0x4E>(v, v), 0xF0);
    let v = exchange(v, _mm512_permutex_epi64::<0x4E>(v), 0xCC);
    exchange(v, _mm512_shuffle_epi32::<_MM_PERM_BADC>(v), 0xAA)
}

/// Sort the bitonic sequence held in `x` (register 0 first): the
/// half-cleaners across registers, then [`clean`] in each.
///
/// # Safety
/// AVX-512F.
#[inline(always)]
unsafe fn clean_regs<const M: usize>(x: &mut [V; M]) {
    let mut d = M / 2;
    while d > 0 {
        for i in 0..M {
            if i & d == 0 {
                (x[i], x[i + d]) = minmax(x[i], x[i + d]);
            }
        }
        d /= 2;
    }
    for v in x.iter_mut() {
        *v = clean(*v);
    }
}

/// Merge the sorted `8·M` words of `a` and of `b` into the sorted
/// `16·M` words `(lo, hi)`: `a` against `b` reversed gives the smaller
/// and the larger half, each bitonic, which [`clean_regs`] sorts.
///
/// # Safety
/// AVX-512F.
#[inline(always)]
unsafe fn merge_regs<const M: usize>(a: [V; M], b: [V; M]) -> ([V; M], [V; M]) {
    let (mut lo, mut hi) = (a, b);
    for i in 0..M {
        (lo[i], hi[i]) = minmax(a[i], reverse(b[M - 1 - i]));
    }
    clean_regs(&mut lo);
    clean_regs(&mut hi);
    (lo, hi)
}

/// The bitonic 8+8 kernel: two sorted registers in, the smaller eight
/// words and the larger eight out, each sorted.
///
/// # Safety
/// AVX-512F.
#[inline(always)]
unsafe fn merge16(a: V, b: V) -> (V, V) {
    let ([lo], [hi]) = merge_regs([a], [b]);
    (lo, hi)
}

/// Sort the 64 words at `src` into `dst` (which may be `src`).
///
/// # Safety
/// AVX-512F; `src` valid for reading and `dst` for writing 64 words.
#[inline(always)]
unsafe fn sort64(src: *const u64, dst: *mut u64) {
    let mut r = [_mm512_setzero_si512(); 8];
    for (i, v) in r.iter_mut().enumerate() {
        *v = load(src.add(LANES * i));
    }
    // The network of `sort8`, one comparator per register pair: every
    // column is sorted from register 0 down.
    macro_rules! network {
        ($(($i:literal, $j:literal)),*) => {
            $( (r[$i], r[$j]) = minmax(r[$i], r[$j]); )*
        };
    }
    network!((0, 1), (2, 3), (4, 5), (6, 7));
    network!((0, 2), (1, 3), (4, 6), (5, 7));
    network!((1, 2), (5, 6), (0, 4), (3, 7));
    network!((1, 5), (2, 6), (1, 4), (3, 6));
    network!((2, 4), (3, 5), (3, 4));
    // Transpose: pairs of rows, then quads, then halves. The columns
    // come out in the order 0 4 2 6 1 5 3 7 — any order will do, all
    // eight are merged below.
    let t: [V; 8] = [
        _mm512_unpacklo_epi64(r[0], r[1]),
        _mm512_unpackhi_epi64(r[0], r[1]),
        _mm512_unpacklo_epi64(r[2], r[3]),
        _mm512_unpackhi_epi64(r[2], r[3]),
        _mm512_unpacklo_epi64(r[4], r[5]),
        _mm512_unpackhi_epi64(r[4], r[5]),
        _mm512_unpacklo_epi64(r[6], r[7]),
        _mm512_unpackhi_epi64(r[6], r[7]),
    ];
    let even = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
    let odd = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
    let q: [V; 8] = [
        _mm512_permutex2var_epi64(t[0], even, t[2]),
        _mm512_permutex2var_epi64(t[0], odd, t[2]),
        _mm512_permutex2var_epi64(t[1], even, t[3]),
        _mm512_permutex2var_epi64(t[1], odd, t[3]),
        _mm512_permutex2var_epi64(t[4], even, t[6]),
        _mm512_permutex2var_epi64(t[4], odd, t[6]),
        _mm512_permutex2var_epi64(t[5], even, t[7]),
        _mm512_permutex2var_epi64(t[5], odd, t[7]),
    ];
    for i in 0..4 {
        r[2 * i] = _mm512_shuffle_i64x2::<0x44>(q[i], q[i + 4]);
        r[2 * i + 1] = _mm512_shuffle_i64x2::<0xEE>(q[i], q[i + 4]);
    }
    let (a0, a1) = merge16(r[0], r[1]);
    let (b0, b1) = merge16(r[2], r[3]);
    let (c0, c1) = merge16(r[4], r[5]);
    let (d0, d1) = merge16(r[6], r[7]);
    let (ab0, ab1) = merge_regs([a0, a1], [b0, b1]);
    let (cd0, cd1) = merge_regs([c0, c1], [d0, d1]);
    let (lo, hi) = merge_regs(
        [ab0[0], ab0[1], ab1[0], ab1[1]],
        [cd0[0], cd0[1], cd1[0], cd1[1]],
    );
    for i in 0..4 {
        store(dst.add(LANES * i), lo[i]);
        store(dst.add(LANES * (4 + i)), hi[i]);
    }
}

/// Sort every 64 words of `data` into `tmp` (as long) if `into_tmp`,
/// else in place; a last group of fewer is padded with `u64::MAX` to
/// sort.
///
/// # Safety
/// The CPU must have AVX-512F.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn form_runs(data: &mut [u64], tmp: &mut [u64], into_tmp: bool) {
    assert_eq!(data.len(), tmp.len());
    let n = data.len();
    let from = data.as_mut_ptr();
    let to = if into_tmp { tmp.as_mut_ptr() } else { from };
    let full = n - n % VECTOR_RUN;
    for i in (0..full).step_by(VECTOR_RUN) {
        sort64(from.add(i), to.add(i));
    }
    if full < n {
        let mut pad = [u64::MAX; VECTOR_RUN];
        let p = pad.as_mut_ptr();
        ptr::copy_nonoverlapping(from.add(full), p, n - full);
        sort64(p, p);
        ptr::copy_nonoverlapping(p, to.add(full), n - full);
    }
}

/// Words from `pos` up to `end`.
#[inline(always)]
fn words(pos: *const u64, end: *const u64) -> usize {
    (end as usize - pos as usize) / size_of::<u64>()
}

/// The next block of two runs that both have one: that of the run whose
/// head is smaller. Advances that run's cursor.
///
/// # Safety
/// AVX-512F; `a` and `b` each valid for reading eight words.
#[inline(always)]
unsafe fn pick(a: &mut *const u64, b: &mut *const u64) -> V {
    let take_a = **a <= **b;
    let next = if take_a { *a } else { *b };
    *a = a.add(LANES * usize::from(take_a));
    *b = b.add(LANES * usize::from(!take_a));
    load(next)
}

/// Merge `next` into the carry: store the smaller eight words at `out`
/// and keep the larger eight.
///
/// # Safety
/// AVX-512F; `out` valid for writing eight words.
#[inline(always)]
unsafe fn push(carry: &mut V, out: &mut *mut u64, next: V) {
    let (lo, hi) = merge16(*carry, next);
    store(*out, lo);
    *out = out.add(LANES);
    *carry = hi;
}

/// The merge of two runs of whole blocks, `a..a_end` and `b..b_end`,
/// to `out` through `carry`.
struct Pair {
    a: *const u64,
    a_end: *const u64,
    b: *const u64,
    b_end: *const u64,
    out: *mut u64,
    carry: V,
}

impl Pair {
    /// # Safety
    /// AVX-512F; `w` a non-zero multiple of eight, `src` valid for
    /// reading and `dst` for writing `2w` words.
    #[inline(always)]
    unsafe fn new(src: *const u64, dst: *mut u64, w: usize) -> Self {
        let (a_end, b_end) = (src.add(w), src.add(2 * w));
        let (a, b, carry) = (src.add(LANES), a_end, load(src));
        Pair {
            a,
            a_end,
            b,
            b_end,
            out: dst,
            carry,
        }
    }

    /// Steps that can be taken before either run may be used up.
    #[inline(always)]
    fn steps(&self) -> usize {
        words(self.a, self.a_end).min(words(self.b, self.b_end)) / LANES
    }

    /// # Safety
    /// AVX-512F; only while [`Pair::steps`] is non-zero.
    #[inline(always)]
    unsafe fn step(&mut self) {
        push(
            &mut self.carry,
            &mut self.out,
            pick(&mut self.a, &mut self.b),
        );
    }

    /// Merge what is left, the carry last.
    ///
    /// # Safety
    /// AVX-512F.
    #[inline(always)]
    unsafe fn finish(mut self) {
        while self.steps() > 0 {
            self.step();
        }
        for (mut pos, end) in [(self.a, self.a_end), (self.b, self.b_end)] {
            while pos < end {
                push(&mut self.carry, &mut self.out, load(pos));
                pos = pos.add(LANES);
            }
        }
        store(self.out, self.carry);
    }
}

/// One merge pass of width `w` (a multiple of eight): the scalar
/// [`merge_pass`](mergesort::merge_pass), but two pairs of runs at a
/// time through the 8+8 kernel; what follows the last whole quad of runs
/// goes to the scalar pass.
///
/// # Safety
/// The CPU must have AVX-512F.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn merge_pass(src: &[u64], dst: &mut [u64], w: usize) {
    assert!(w > 0 && w.is_multiple_of(LANES) && src.len() == dst.len());
    let quads = src.len() - src.len() % (4 * w);
    for q in (0..quads).step_by(4 * w) {
        let (s, d) = (src.as_ptr().add(q), dst.as_mut_ptr().add(q));
        let mut one = Pair::new(s, d, w);
        let mut two = Pair::new(s.add(2 * w), d.add(2 * w), w);
        while let steps @ 1.. = one.steps().min(two.steps()) {
            for _ in 0..steps {
                one.step();
                two.step();
            }
        }
        one.finish();
        two.finish();
    }
    mergesort::merge_pass(&src[quads..], &mut dst[quads..], w);
}

/// Where an input of a tree node gets its next words once its window is
/// used up.
#[derive(Clone, Copy)]
enum Source {
    /// A run's last `len` words (fewer than eight), at `from`, to be
    /// copied into `slot` and padded to a block.
    Tail {
        from: *const u64,
        len: usize,
        slot: *mut u64,
    },
    /// The buffer of the child node with this index, refilled.
    Node(usize),
    /// Nothing: the input is used up.
    Done,
}

/// A node input: the sorted words at `pos..end` — whole blocks — and
/// where the ones after them come from.
#[derive(Clone, Copy)]
struct Input {
    pos: *const u64,
    end: *const u64,
    next: Source,
}

impl Input {
    #[inline(always)]
    fn blocks(&self) -> usize {
        words(self.pos, self.end) / LANES
    }

    /// Refill the window if it is used up; it stays empty only when the
    /// input is.
    ///
    /// # Safety
    /// As [`Input::refill`].
    #[inline(always)]
    unsafe fn top_up(&mut self, nodes: &mut [Node]) {
        if self.pos == self.end {
            self.refill(nodes);
        }
    }

    /// # Safety
    /// AVX-512F; the input was made by [`merge_runs_into`] for a tree in
    /// `nodes`, whose runs and scratch are still borrowed.
    #[target_feature(enable = "avx512f")]
    unsafe fn refill(&mut self, nodes: &mut [Node]) {
        match self.next {
            Source::Tail { from, len, slot } => {
                ptr::copy_nonoverlapping(from, slot, len);
                for i in len..LANES {
                    *slot.add(i) = u64::MAX;
                }
                (self.pos, self.end, self.next) = (slot, slot.add(LANES), Source::Done);
            }
            Source::Node(c) => {
                let buf = nodes[c].buf;
                let got = fill(nodes, c, buf, FIFO);
                (self.pos, self.end) = (buf, buf.add(got));
                if got == 0 {
                    self.next = Source::Done;
                }
            }
            Source::Done => {}
        }
    }
}

/// An inner node of the merge tree.
#[derive(Clone, Copy)]
struct Node {
    inputs: [Input; 2],
    /// The larger half of the last merge, between two [`fill`]s.
    carry: [u64; LANES],
    started: bool,
    /// The carry has been written: the node has nothing left.
    done: bool,
    /// Where the node's parent reads it from (unused at the root).
    buf: *mut u64,
}

/// Build the tree over `leaves`, children before parents: the root is
/// the last node pushed. Returns the input that reads the subtree.
fn build(nodes: &mut Vec<Node>, leaves: &[Input]) -> Input {
    if let [leaf] = leaves {
        return *leaf;
    }
    let (left, right) = leaves.split_at(leaves.len() / 2);
    let inputs = [build(nodes, left), build(nodes, right)];
    nodes.push(Node {
        inputs,
        carry: [0; LANES],
        started: false,
        done: false,
        buf: ptr::null_mut(),
    });
    Input {
        pos: ptr::null(),
        end: ptr::null(),
        next: Source::Node(nodes.len() - 1),
    }
}

/// Let node `i` merge up to `cap` words (a multiple of eight) to `dst`,
/// refilling its inputs as it drains them. Returns how many it wrote:
/// fewer than `cap` only once it has run out, then zero.
///
/// # Safety
/// AVX-512F; `nodes` built by [`merge_runs_into`], whose runs and
/// scratch are still borrowed, and `dst` valid for writing `cap` words.
#[target_feature(enable = "avx512f")]
unsafe fn fill(nodes: &mut [Node], i: usize, dst: *mut u64, cap: usize) -> usize {
    let mut node = nodes[i];
    if node.done {
        return 0;
    }
    let [mut a, mut b] = node.inputs;
    let mut carry = if node.started {
        load(node.carry.as_ptr())
    } else {
        // Every run is non-empty, hence every node's output.
        a.top_up(nodes);
        b.top_up(nodes);
        debug_assert!(a.blocks() > 0 && b.blocks() > 0);
        let first = load(a.pos);
        a.pos = a.pos.add(LANES);
        first
    };
    let (mut out, end) = (dst, dst.add(cap));
    while out < end {
        a.top_up(nodes);
        b.top_up(nodes);
        let room = words(out, end) / LANES;
        let (na, nb) = (a.blocks(), b.blocks());
        if na > 0 && nb > 0 {
            for _ in 0..room.min(na).min(nb) {
                let next = pick(&mut a.pos, &mut b.pos);
                push(&mut carry, &mut out, next);
            }
        } else if na + nb > 0 {
            let rest = if na > 0 { &mut a } else { &mut b };
            for _ in 0..room.min(na + nb) {
                push(&mut carry, &mut out, load(rest.pos));
                rest.pos = rest.pos.add(LANES);
            }
        } else {
            store(out, carry);
            out = out.add(LANES);
            node.done = true;
            break;
        }
    }
    store(node.carry.as_mut_ptr(), carry);
    (node.inputs, node.started) = ([a, b], true);
    nodes[i] = node;
    words(dst, out)
}

/// Merge the sorted `runs` into `out`, which is exactly as long as all
/// of them together, through a tree of 8+8 merges. The node buffers and
/// padded tails live in `scratch`: at least [`tree_scratch_len`] of
/// `runs.len()` words, none of which need hold anything.
///
/// # Safety
/// The CPU must have AVX-512F.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn merge_runs_into(runs: &[&[u64]], out: &mut [u64], scratch: &mut [u64]) {
    assert!(scratch.len() >= tree_scratch_len(runs.len()));
    let slots = scratch.as_mut_ptr();
    let leaves: Vec<Input> = runs
        .iter()
        .filter(|run| !run.is_empty())
        .enumerate()
        .map(|(j, run)| {
            let full = run.len() - run.len() % LANES;
            let p = run.as_ptr();
            Input {
                pos: p,
                end: p.add(full),
                next: match run.len() - full {
                    0 => Source::Done,
                    len => Source::Tail {
                        from: p.add(full),
                        len,
                        slot: slots.add(LANES * j),
                    },
                },
            }
        })
        .collect();
    match leaves.len() {
        0 => return,
        1 => {
            let run = runs.iter().find(|r| !r.is_empty());
            return out.copy_from_slice(run.expect("one run has words"));
        }
        _ => {}
    }
    let mut nodes = Vec::with_capacity(leaves.len() - 1);
    build(&mut nodes, &leaves);
    let root = nodes.len() - 1;
    let bufs = slots.add(LANES * runs.len());
    for (j, node) in nodes[..root].iter_mut().enumerate() {
        node.buf = bufs.add(FIFO * j);
    }
    let total = out.len();
    let full = total - total % LANES;
    let wrote = fill(&mut nodes, root, out.as_mut_ptr(), full);
    debug_assert_eq!(wrote, full);
    if full < total {
        let mut last = [0u64; LANES];
        fill(&mut nodes, root, last.as_mut_ptr(), LANES);
        out[full..].copy_from_slice(&last[..total - full]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_util::rng::Xoshiro256;

    /// The kernels run on any CPU with AVX-512F, whatever the mode —
    /// but not under Miri, which interprets no AVX-512.
    fn cpu_has_avx512() -> bool {
        !cfg!(miri) && std::arch::is_x86_feature_detected!("avx512f")
    }

    #[test]
    fn sort64_sorts_random_few_distinct_and_extreme_blocks() {
        if !cpu_has_avx512() {
            return;
        }
        let mut rng = Xoshiro256::new(64);
        let extremes = [0, 1, u64::MAX - 1, u64::MAX];
        for round in 0..3_000 {
            let block: [u64; VECTOR_RUN] = std::array::from_fn(|_| match round % 4 {
                0 => rng.next_u64(),
                1 => rng.next_u64() % 3,
                2 => extremes[rng.next_u64() as usize % 4],
                // 0-1 inputs: the principle that proves the network.
                _ => rng.next_u64() & 1,
            });
            let mut expect = block;
            expect.sort_unstable();
            let mut out = [0u64; VECTOR_RUN];
            // SAFETY: checked above; both arrays hold 64 words.
            unsafe { sort64(block.as_ptr(), out.as_mut_ptr()) };
            assert_eq!(out, expect, "round {round}");
            let mut in_place = block;
            let p = in_place.as_mut_ptr();
            // SAFETY: as above, source and destination the same block.
            unsafe { sort64(p, p) };
            assert_eq!(in_place, expect, "in place, round {round}");
        }
    }

    /// The vector pass against the scalar one at every width the vector
    /// path runs, over arrays whose last quad of runs is whole, or
    /// holds one, two or three runs, or a last run of one word; runs
    /// drawn from few values, `u64::MAX` among them (the padding value
    /// of the run sort and the tree), and with a whole block of it.
    #[test]
    fn vector_pass_equals_scalar_pass_at_every_width() {
        if !cpu_has_avx512() {
            return;
        }
        let mut rng = Xoshiro256::new(65);
        let mut w = VECTOR_RUN;
        while w <= crate::mergesort::RUN_LEN / 2 {
            for tail in [0, w, 2 * w, 3 * w, 2 * w + 1, w + LANES + 3] {
                let n = 4 * w + tail;
                let mut src: Vec<u64> = (0..n)
                    .map(|i| match rng.next_u64() % 4 {
                        _ if i % (3 * w) < LANES => u64::MAX,
                        0 => u64::MAX,
                        1 => rng.next_u64() % 5,
                        _ => rng.next_u64(),
                    })
                    .collect();
                src.chunks_mut(w).for_each(|run| run.sort_unstable());
                let (mut vector, mut scalar) = (vec![0; n], vec![0; n]);
                // SAFETY: checked above.
                unsafe { merge_pass(&src, &mut vector, w) };
                mergesort::merge_pass(&src, &mut scalar, w);
                assert!(vector == scalar, "w={w}, n={n}");
            }
            w *= 2;
        }
    }
}
