//! Runtime-dispatched hardware kernels.
//!
//! The original C implementations of the studied joins lean on two
//! micro-architectural instructions that a portable reproduction cannot
//! express in safe Rust:
//!
//! * **non-temporal streaming stores** (`_mm_stream_si128`) for SWWCB
//!   flushes — full cache lines of partitioned tuples bypass the cache
//!   hierarchy on their way to DRAM, so scattering does not evict the
//!   very buffers that make write combining work (the scatter issues
//!   them inline, `mmjoin-partition`'s `swwcb`; [`stream_cacheline`] is
//!   the same store for one line), and
//! * **software prefetches** (`_mm_prefetch`) issued a group of probes
//!   ahead, so a hash-table walk overlaps several DRAM misses instead of
//!   stalling on each one.
//!
//! This module provides both as *dispatched* kernels: on `x86_64` the
//! real instructions run when the CPU supports them
//! (`is_x86_feature_detected!`), everywhere else — and whenever the
//! portable mode is forced — a plain-copy / no-op fallback runs that is
//! **bit-identical in effect**. Differential tests in the partition and
//! hashtable crates compare the two paths on the same inputs.
//!
//! # Selecting a mode
//!
//! The process default comes from the `MMJOIN_KERNELS` environment
//! variable (`portable` | `simd` | `auto`), else from auto-detection
//! (`simd` on `x86_64` with SSE2, else `portable`); it is resolved once.
//! [`with_mode`] overrides it for the calling thread and the phases that
//! thread submits (see [`crate::scope`]), never for another thread.
//!
//! The resolved mode is cached per thread: reading it in a hot loop
//! costs one thread-local load. Forcing `simd` on a CPU without the
//! required features silently degrades to `portable` rather than
//! faulting.

use std::sync::OnceLock;

use crate::scope::{Scope, KERNELS, KERNELS_PORTABLE, KERNELS_SIMD};
use crate::CACHE_LINE;

/// Kernel selection policy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// The process default: `MMJOIN_KERNELS`, else CPU detection.
    Auto,
    /// Force the portable fallbacks (plain copies, no prefetch).
    Portable,
    /// Force the SIMD/streaming/prefetch paths where the CPU has them.
    Simd,
}

impl KernelMode {
    /// Parse the `MMJOIN_KERNELS` spelling.
    pub fn parse(s: &str) -> Option<KernelMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(KernelMode::Auto),
            "portable" | "scalar" | "off" => Some(KernelMode::Portable),
            "simd" | "on" => Some(KernelMode::Simd),
            _ => None,
        }
    }
}

/// True when this build/CPU can run the streaming + prefetch kernels.
#[inline]
fn cpu_has_simd() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is architecturally guaranteed on x86_64, but go through
        // the detection macro anyway so the kernels stay honest if the
        // baseline ever changes.
        std::arch::is_x86_feature_detected!("sse2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The mode `mode` stands for on this CPU; `Auto` is the process
/// default.
fn resolve(mode: KernelMode) -> u8 {
    match mode {
        KernelMode::Portable => KERNELS_PORTABLE,
        KernelMode::Simd if cpu_has_simd() => KERNELS_SIMD,
        KernelMode::Simd => KERNELS_PORTABLE,
        KernelMode::Auto => process_default(),
    }
}

/// `MMJOIN_KERNELS` on this CPU, read once.
fn process_default() -> u8 {
    static DEFAULT: OnceLock<u8> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let requested = std::env::var("MMJOIN_KERNELS").ok();
        match requested.as_deref().and_then(KernelMode::parse) {
            Some(KernelMode::Portable) => KERNELS_PORTABLE,
            _ => resolve(KernelMode::Simd),
        }
    })
}

/// True when the streaming/prefetch kernels are active on this thread;
/// false means every dispatched kernel takes its portable fallback.
#[inline]
pub fn simd_active() -> bool {
    KERNELS.with(|c| match c.get() {
        KERNELS_SIMD => true,
        KERNELS_PORTABLE => false,
        _ => {
            let mode = process_default();
            c.set(mode);
            mode == KERNELS_SIMD
        }
    })
}

/// The currently effective mode, post-resolution.
pub fn effective_mode() -> KernelMode {
    if simd_active() {
        KernelMode::Simd
    } else {
        KernelMode::Portable
    }
}

/// Copy one 64-byte cache line with non-temporal (streaming) stores.
///
/// SSE2's `_mm_stream_si128`, the store the SWWCB scatter issues;
/// portable-mode and non-x86 builds fall back to `copy_nonoverlapping`.
/// Streamed stores are weakly ordered; callers must execute [`sfence`]
/// before other threads read the destination.
///
/// # Safety
/// `src` and `dst` must be valid for 64 bytes and 64-byte aligned
/// (alignment is debug-asserted).
#[inline]
pub unsafe fn stream_cacheline(dst: *mut u8, src: *const u8) {
    debug_assert_eq!(dst as usize % CACHE_LINE, 0, "unaligned stream dst");
    debug_assert_eq!(src as usize % CACHE_LINE, 0, "unaligned stream src");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        use std::arch::x86_64::{__m128i, _mm_load_si128, _mm_stream_si128};
        let (s, d) = (src as *const __m128i, dst as *mut __m128i);
        for i in 0..4 {
            _mm_stream_si128(d.add(i), _mm_load_si128(s.add(i)));
        }
        return;
    }
    std::ptr::copy_nonoverlapping(src, dst, CACHE_LINE);
}

/// Order all preceding streaming stores before subsequent memory
/// operations. No-op in portable mode and on non-x86 targets (where the
/// streaming kernel is an ordinary store anyway).
#[inline]
pub fn sfence() {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_active() {
            // SAFETY: `sfence` has no operands and no preconditions.
            unsafe { std::arch::x86_64::_mm_sfence() };
        }
    }
}

/// Hint the cache hierarchy to fetch the line holding `*ptr` for reading
/// (T0 locality). No-op in portable mode and on non-x86 targets; always
/// safe to call with any address — prefetches never fault.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_active() {
            // SAFETY: prefetch is a hint; invalid addresses are ignored
            // by the hardware.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    ptr as *const i8,
                )
            };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

/// Hint the cache hierarchy to fetch the line holding `*ptr` with intent
/// to *write* (ET0 locality: exclusive ownership), skipping the
/// shared-then-upgrade round trip a read prefetch would pay before the
/// store. No-op in portable mode and on non-x86 targets; always safe to
/// call with any address — prefetches never fault.
#[inline(always)]
pub fn prefetch_write<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_active() {
            // SAFETY: prefetch is a hint; invalid addresses are ignored
            // by the hardware.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_ET0 }>(
                    ptr as *const i8,
                )
            };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

/// True when code compiled with `#[target_feature(enable = "popcnt")]`
/// may run: the CPU has the instruction and the mode is not portable.
/// The workspace targets baseline x86-64, where `count_ones()` is a
/// dozen shift-and-mask operations; the CHT ranks a bitmap word on every
/// probe and runs its loops under that attribute when this says so.
#[inline]
pub fn popcnt_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        simd_active() && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when code compiled with `#[target_feature(enable = "avx512f")]`
/// may run: the CPU has AVX-512F and the mode is not portable. The sort
/// behind MWAY forms runs and merges them with 512-bit bitonic kernels
/// when this says so. Always false under Miri, which interprets no
/// AVX-512, so the interpreter checks the scalar sort.
#[inline]
pub fn avx512_active() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        simd_active() && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// Run `f` under a forced kernel mode on the calling thread — and on
/// the workers of every phase it submits — restoring the thread's
/// switches after. Another thread's mode never changes: two
/// threads can A/B the two modes at once.
pub fn with_mode<R>(mode: KernelMode, f: impl FnOnce() -> R) -> R {
    let kernels = resolve(mode);
    let _in = Scope {
        kernels,
        ..Scope::current()
    }
    .enter();
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_spellings() {
        assert_eq!(KernelMode::parse("portable"), Some(KernelMode::Portable));
        assert_eq!(KernelMode::parse("SIMD"), Some(KernelMode::Simd));
        assert_eq!(KernelMode::parse(" auto "), Some(KernelMode::Auto));
        assert_eq!(KernelMode::parse("scalar"), Some(KernelMode::Portable));
        assert_eq!(KernelMode::parse("turbo"), None);
    }

    #[test]
    fn forced_modes_resolve() {
        with_mode(KernelMode::Portable, || {
            assert!(!simd_active());
            assert!(!avx512_active());
            assert_eq!(effective_mode(), KernelMode::Portable);
        });
        #[cfg(target_arch = "x86_64")]
        with_mode(KernelMode::Simd, || {
            assert!(simd_active());
        });
    }

    #[test]
    fn stream_cacheline_copies_exactly_in_both_modes() {
        #[repr(align(64))]
        struct Line([u8; 64]);
        let src = Line(std::array::from_fn(|i| i as u8));
        for mode in [KernelMode::Portable, KernelMode::Simd] {
            let mut dst = Line([0u8; 64]);
            with_mode(mode, || {
                // SAFETY: both buffers are 64-byte aligned and 64 bytes.
                unsafe { stream_cacheline(dst.0.as_mut_ptr(), src.0.as_ptr()) };
                sfence();
            });
            assert_eq!(dst.0, src.0, "{mode:?}");
        }
    }

    #[test]
    fn prefetch_never_faults() {
        let v = [1u64, 2, 3];
        prefetch_read(v.as_ptr());
        prefetch_read(std::ptr::null::<u64>()); // hint only, must not fault
    }
}
