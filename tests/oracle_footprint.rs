//! The reference join's heap footprint: one bucketed copy of R and its
//! bucket offsets, nothing per key.
//!
//! A counting global allocator tracks the live heap bytes and their
//! peak; the one test reads how far the peak rises above what was live
//! when the oracle started (its inputs). One test in its own binary, so
//! no other test's allocations land in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mmjoin::core::reference::reference_join;
use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
use mmjoin::util::Placement;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counters
// only observe sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc_zeroed` is `System`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn the_oracle_holds_r_once_plus_its_bucket_offsets() {
    let n = 1 << 20;
    let r = gen_build_dense(n, 7, Placement::Interleaved);
    let s = gen_probe_fk(4 * n, n, 8, Placement::Interleaved);

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let c = reference_join(&r, &s);
    let above = PEAK.load(Ordering::SeqCst) - base;

    assert_eq!(c.count, 4 * n as u64);
    let bound = 8 * n + 4 * (n.next_power_of_two() + 1) + 4096;
    assert!(
        above <= bound,
        "the oracle's heap peaked {above} B above its inputs ({:.1} B a row of R); \
         the bound is {bound} B",
        above as f64 / n as f64
    );
}
