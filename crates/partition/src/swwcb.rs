//! Software write-combine buffers (Algorithm 1 of the paper).
//!
//! Scattering tuples to hundreds of partitions touches hundreds of pages;
//! without buffering every write risks a TLB miss. A SWWCB keeps one
//! cache line of pending tuples per partition *in cache* and flushes full
//! lines to the destination with non-temporal stores. With a buffer of
//! `N` tuples, TLB pressure drops by a factor of `N`.
//!
//! Full-line flushes go through [`mmjoin_util::kernels::stream_cacheline`]
//! — real `_mm_stream_si128`/`_mm256_stream_si256` non-temporal stores on
//! x86_64 (so flushed lines bypass the cache instead of evicting the live
//! bank), a plain `copy_nonoverlapping` in portable mode and on other
//! architectures. Both paths produce bit-identical output.
//!
//! Streaming stores require a 64-byte-aligned destination. Output buffers
//! come from [`mmjoin_util::alloc::AlignedBuf`] (always line-aligned), but
//! a partition's *initial cursor* can sit mid-line. The bank therefore
//! bootstraps alignment: the first flush of such a partition is a short
//! plain copy up to the next line boundary, after which every full-line
//! flush is aligned and streams. Because streamed stores are weakly
//! ordered, [`SwwcBank::flush_all`] ends with an `sfence`, ahead of the
//! phase barrier that publishes the partitions to other threads.

use mmjoin_util::kernels;
use mmjoin_util::tuple::Tuple;
use mmjoin_util::{CACHE_LINE, TUPLES_PER_CACHELINE};

/// One cache line of buffered tuples for one target partition.
#[repr(C, align(64))]
#[derive(Copy, Clone)]
struct Line {
    tuples: [Tuple; TUPLES_PER_CACHELINE],
}

const _: () = assert!(std::mem::size_of::<Line>() == CACHE_LINE);

/// A bank of software write-combine buffers, one line per partition.
pub struct SwwcBank {
    lines: Vec<Line>,
    /// Tuples currently buffered per partition.
    fill: Vec<u8>,
    /// Tuples to buffer before the next flush: `TUPLES_PER_CACHELINE`
    /// once the cursor is line-aligned, fewer for the bootstrap flush of
    /// a partition whose initial cursor starts mid-line.
    target: Vec<u8>,
    /// Output cursor (tuple index in the destination buffer) per partition.
    cursor: Vec<usize>,
    /// Whether full-line flushes use non-temporal stores (resolved from
    /// [`mmjoin_util::kernels`] at construction).
    streaming: bool,
}

impl SwwcBank {
    /// Create a bank for `parts` partitions with the given initial output
    /// cursors (one per partition), using the process-wide kernel mode.
    pub fn new(cursors: &[usize]) -> Self {
        Self::with_streaming(cursors, kernels::simd_active())
    }

    /// Create a bank with an explicit flush kernel choice (tests and the
    /// A/B bench harness; [`SwwcBank::new`] resolves it automatically).
    pub fn with_streaming(cursors: &[usize], streaming: bool) -> Self {
        SwwcBank {
            lines: vec![
                Line {
                    tuples: [Tuple::new(0, 0); TUPLES_PER_CACHELINE]
                };
                cursors.len()
            ],
            fill: vec![0u8; cursors.len()],
            target: cursors
                .iter()
                .map(|&c| (TUPLES_PER_CACHELINE - c % TUPLES_PER_CACHELINE) as u8)
                .collect(),
            cursor: cursors.to_vec(),
            streaming,
        }
    }

    /// Buffer one tuple for `part`, flushing a full line to `out`.
    ///
    /// # Safety
    /// `out` must be valid for writes at every cursor position this bank
    /// was initialized with, for the number of tuples that will be pushed
    /// (the caller's histogram guarantees this).
    #[inline(always)]
    pub unsafe fn push(&mut self, part: usize, t: Tuple, out: *mut Tuple) {
        let fill = self.fill[part] as usize;
        self.lines[part].tuples[fill] = t;
        if fill + 1 == self.target[part] as usize {
            let n = fill + 1;
            let dst = out.add(self.cursor[part]);
            if self.streaming
                && n == TUPLES_PER_CACHELINE
                && (dst as usize).is_multiple_of(CACHE_LINE)
            {
                // Full line to an aligned destination: bypass the cache.
                kernels::stream_cacheline(
                    dst.cast::<u8>(),
                    self.lines[part].tuples.as_ptr().cast::<u8>(),
                );
            } else {
                std::ptr::copy_nonoverlapping(self.lines[part].tuples.as_ptr(), dst, n);
            }
            self.cursor[part] += n;
            self.fill[part] = 0;
            self.target[part] = TUPLES_PER_CACHELINE as u8;
        } else {
            self.fill[part] = fill as u8 + 1;
        }
    }

    /// Flush all partially filled lines, then fence the streamed stores
    /// (phase end: everything written is visible to the next phase's
    /// readers once the caller crosses its barrier).
    ///
    /// # Safety
    /// Same contract as [`SwwcBank::push`].
    pub unsafe fn flush_all(&mut self, out: *mut Tuple) {
        for part in 0..self.lines.len() {
            let fill = self.fill[part] as usize;
            if fill > 0 {
                let dst = out.add(self.cursor[part]);
                std::ptr::copy_nonoverlapping(self.lines[part].tuples.as_ptr(), dst, fill);
                self.cursor[part] += fill;
                self.fill[part] = 0;
                self.target[part] =
                    (TUPLES_PER_CACHELINE - self.cursor[part] % TUPLES_PER_CACHELINE) as u8;
            }
        }
        if self.streaming {
            kernels::sfence();
        }
    }

    /// Current cursor of `part` (after flushes).
    pub fn cursor(&self, part: usize) -> usize {
        self.cursor[part]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_util::alloc::AlignedBuf;
    use mmjoin_util::kernels::KernelMode;
    use mmjoin_util::rng::Xoshiro256;

    #[test]
    fn push_and_flush_exact_lines() {
        let mut out = vec![Tuple::new(0, 0); 16];
        let mut bank = SwwcBank::new(&[0, 8]);
        unsafe {
            for i in 0..8u32 {
                bank.push(0, Tuple::new(i + 1, i), out.as_mut_ptr());
            }
            for i in 0..8u32 {
                bank.push(1, Tuple::new(100 + i, i), out.as_mut_ptr());
            }
            bank.flush_all(out.as_mut_ptr());
        }
        for i in 0..8usize {
            assert_eq!(out[i].key, i as u32 + 1);
            assert_eq!(out[8 + i].key, 100 + i as u32);
        }
    }

    #[test]
    fn partial_lines_flush_remainder() {
        let mut out = vec![Tuple::new(0, 0); 16];
        let mut bank = SwwcBank::new(&[0, 11]);
        unsafe {
            for i in 0..11u32 {
                bank.push(0, Tuple::new(i + 1, 0), out.as_mut_ptr());
            }
            for i in 0..3u32 {
                bank.push(1, Tuple::new(200 + i, 0), out.as_mut_ptr());
            }
            bank.flush_all(out.as_mut_ptr());
        }
        let keys: Vec<u32> = out.iter().map(|t| t.key).collect();
        assert_eq!(&keys[..11], &(1..=11).collect::<Vec<u32>>()[..]);
        assert_eq!(&keys[11..14], &[200, 201, 202]);
        assert_eq!(bank.cursor(0), 11);
        assert_eq!(bank.cursor(1), 14);
    }

    #[test]
    fn unaligned_start_cursor() {
        // Destination region starting mid-line must still be written
        // correctly: the bootstrap flush is a short plain copy up to the
        // line boundary, after which full lines stream.
        let mut out = vec![Tuple::new(0, 0); 32];
        let mut bank = SwwcBank::new(&[5]);
        unsafe {
            for i in 0..20u32 {
                bank.push(0, Tuple::new(i + 1, 0), out.as_mut_ptr());
            }
            bank.flush_all(out.as_mut_ptr());
        }
        for i in 0..20usize {
            assert_eq!(out[5 + i].key, i as u32 + 1);
        }
        assert_eq!(out[4].key, 0);
        assert_eq!(out[25].key, 0);
    }

    /// Differential kernel test: the forced-portable and the dispatched
    /// streaming flush paths must produce bit-identical output for
    /// random interleavings of partitions and start cursors.
    #[test]
    #[cfg_attr(miri, ignore = "Miri interprets the portable kernels only")]
    fn streaming_flushes_match_portable() {
        let parts = 4usize;
        let cursors = [3usize, 20, 40, 77];
        let mut rng = Xoshiro256::new(99);
        let pushes: Vec<(usize, Tuple)> = (0..200)
            .map(|i| {
                (
                    rng.below(parts as u64) as usize,
                    Tuple::new(i + 1, rng.next_u32()),
                )
            })
            .collect();
        // Count per-partition pushes so the fixed cursors stay in bounds.
        let run = |mode: KernelMode| {
            mmjoin_util::kernels::with_mode(mode, || {
                let mut out = AlignedBuf::<Tuple>::zeroed(512);
                let mut bank = SwwcBank::new(&cursors);
                unsafe {
                    for &(p, t) in &pushes {
                        bank.push(p, t, out.as_mut_ptr());
                    }
                    bank.flush_all(out.as_mut_ptr());
                }
                out.as_slice().to_vec()
            })
        };
        let portable = run(KernelMode::Portable);
        let simd = run(KernelMode::Simd);
        assert_eq!(portable, simd);
    }

    #[test]
    fn aligned_buf_streaming_round_trip() {
        // Aligned destination + aligned cursor: every flush takes the
        // streaming path; the content must still round-trip exactly.
        let mut out = AlignedBuf::<Tuple>::zeroed(64);
        let mut bank = SwwcBank::with_streaming(&[0, 32], true);
        unsafe {
            for i in 0..24u32 {
                bank.push(0, Tuple::new(i + 1, i), out.as_mut_ptr());
            }
            for i in 0..16u32 {
                bank.push(1, Tuple::new(500 + i, i), out.as_mut_ptr());
            }
            bank.flush_all(out.as_mut_ptr());
        }
        for i in 0..24usize {
            assert_eq!(out.as_slice()[i].key, i as u32 + 1);
        }
        for i in 0..16usize {
            assert_eq!(out.as_slice()[32 + i].key, 500 + i as u32);
        }
    }
}
