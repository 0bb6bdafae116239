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
//! Resolution order, first match wins:
//!
//! 1. a programmatic override installed with [`set_mode`] at start-up
//!    (no join sets it; [`with_mode`] is the scoped form for
//!    single-threaded A/B tests),
//! 2. the `MMJOIN_KERNELS` environment variable
//!    (`portable` | `simd` | `auto`),
//! 3. auto-detection (`simd` on `x86_64` with SSE2, else `portable`).
//!
//! The resolved mode is a process-wide property, cached in one atomic:
//! reading it in a hot loop costs a single relaxed load. Forcing `simd`
//! on a CPU without the required features silently degrades to
//! `portable` rather than faulting.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::CACHE_LINE;

/// Kernel selection policy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// Resolve from `MMJOIN_KERNELS`, falling back to CPU detection.
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

/// Packed state of the process-wide mode cell: 0 = unresolved, else
/// 1 + discriminant of the *resolved* (Portable/Simd) mode.
const UNRESOLVED: u8 = 0;
const RESOLVED_PORTABLE: u8 = 1;
const RESOLVED_SIMD: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(UNRESOLVED);

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

fn resolve_from_env() -> u8 {
    let requested = std::env::var("MMJOIN_KERNELS")
        .ok()
        .and_then(|v| KernelMode::parse(&v))
        .unwrap_or(KernelMode::Auto);
    resolve(requested)
}

fn resolve(mode: KernelMode) -> u8 {
    match mode {
        KernelMode::Portable => RESOLVED_PORTABLE,
        KernelMode::Simd | KernelMode::Auto => {
            if cpu_has_simd() {
                RESOLVED_SIMD
            } else {
                RESOLVED_PORTABLE
            }
        }
    }
}

/// Install a process-wide kernel mode, overriding the environment.
/// `Auto` re-resolves from `MMJOIN_KERNELS` / CPU detection.
pub fn set_mode(mode: KernelMode) {
    let state = match mode {
        KernelMode::Auto => resolve_from_env(),
        other => resolve(other),
    };
    MODE.store(state, Ordering::Relaxed);
}

/// True when the streaming/prefetch kernels are active; false means every
/// dispatched kernel takes its portable fallback.
#[inline]
pub fn simd_active() -> bool {
    match MODE.load(Ordering::Relaxed) {
        RESOLVED_SIMD => true,
        RESOLVED_PORTABLE => false,
        _ => {
            // Fill the cell only if it is still unresolved: a
            // `set_mode`/`with_mode` that landed meanwhile wins.
            let state = resolve_from_env();
            match MODE.compare_exchange(UNRESOLVED, state, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => state == RESOLVED_SIMD,
                Err(installed) => installed == RESOLVED_SIMD,
            }
        }
    }
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

/// Run `f` under a forced kernel mode, restoring the previous mode after.
///
/// The mode is a *process-wide* property: concurrently running joins see
/// the forced mode too. That is benign for correctness (both paths are
/// bit-identical) but matters for benchmarking — A/B harnesses should
/// not overlap runs. Intended for single-threaded differential tests
/// and micro-benchmarks.
pub fn with_mode<R>(mode: KernelMode, f: impl FnOnce() -> R) -> R {
    let before = MODE.load(Ordering::Relaxed);
    set_mode(mode);
    let out = f();
    MODE.store(before, Ordering::Relaxed);
    out
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
