//! Cache-line-aligned, policy-aware buffers.
//!
//! The original C implementations allocate partition buffers and hash
//! tables with `posix_memalign` at cache-line granularity so SWWCB flushes
//! copy exactly one aligned cache line. `AlignedBuf` reproduces that:
//! every buffer starts on a 64-byte boundary.
//!
//! Since the memory subsystem landed, large buffers additionally route
//! through [`crate::mem`]: when the process-global
//! [`crate::mem::AllocPolicy`] is `Thp`, any request of at least
//! [`crate::mem::MAP_THRESHOLD`] bytes is served from an mmap-backed
//! arena (transparent huge pages, pooled reuse), transparently to
//! every consumer. The portable heap path is both the default and the
//! fallback when mapping is unavailable.

use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::ptr::NonNull;

use crate::{mem, CACHE_LINE};

/// Where an `AlignedBuf`'s bytes came from (and go back to).
enum Backing {
    /// Zero-sized: dangling pointer, nothing to free.
    None,
    /// Global allocator; freed with exactly this layout.
    Heap(Layout),
    /// Policy-aware mapped arena; the held Block returns to the arena
    /// pool when this backing drops.
    Mapped(#[allow(dead_code)] mem::Block),
}

/// A heap buffer of `T` aligned to (at least) one cache line.
///
/// `T` must not need drop (we only store plain-old-data: tuples, counters,
/// bucket structs); this is enforced at compile time.
pub struct AlignedBuf<T> {
    ptr: NonNull<T>,
    len: usize,
    backing: Backing,
    _marker: PhantomData<T>,
}

// SAFETY: the buffer uniquely owns its allocation; `T: Send/Sync` carries
// over like for Vec<T>.
unsafe impl<T: Send> Send for AlignedBuf<T> {}
// SAFETY: as for Send: shared access to the buffer only hands out `&T`
// (`&self` methods never write), so `T: Sync` suffices, as for Vec<T>.
unsafe impl<T: Sync> Sync for AlignedBuf<T> {}

impl<T> AlignedBuf<T> {
    /// Post-monomorphization guard: constructing an `AlignedBuf<T>` for
    /// a `T` with a destructor is a compile error, not a debug panic.
    const NO_DROP: () = assert!(
        !std::mem::needs_drop::<T>(),
        "AlignedBuf only stores plain-old-data"
    );

    /// The layout for `n` elements at cache-line alignment, with every
    /// overflow path (`size * n`, and the allocator's `size + align`
    /// rounding) checked rather than wrapped.
    fn layout_for(n: usize) -> Layout {
        let align = std::mem::align_of::<T>().max(CACHE_LINE);
        let size = std::mem::size_of::<T>()
            .checked_mul(n)
            .expect("allocation size overflow");
        // `from_size_align` rejects sizes that would overflow
        // `isize::MAX` once rounded up to `align` — keep that check
        // loud instead of letting a wrapped size reach the allocator.
        Layout::from_size_align(size, align).expect("allocation size overflow")
    }

    /// Shared allocation path. `zero_heap` picks `alloc_zeroed` for the
    /// heap branch; mapped blocks from the pool are zeroed iff
    /// `zero_reused` (fresh kernel pages are always zero already).
    fn allocate(n: usize, zero_heap: bool, zero_reused: bool) -> Self {
        let () = Self::NO_DROP;
        if n == 0 || std::mem::size_of::<T>() == 0 {
            return AlignedBuf {
                ptr: NonNull::dangling(),
                len: n,
                backing: Backing::None,
                _marker: PhantomData,
            };
        }
        let layout = Self::layout_for(n);
        if let Some(block) = mem::acquire(layout.size(), layout.align()) {
            let ptr = block.ptr().cast::<T>();
            if zero_reused && !block.is_fresh() {
                // SAFETY: the block spans at least layout.size() bytes.
                unsafe { std::ptr::write_bytes(ptr.as_ptr().cast::<u8>(), 0, layout.size()) };
            }
            return AlignedBuf {
                ptr,
                len: n,
                backing: Backing::Mapped(block),
                _marker: PhantomData,
            };
        }
        // SAFETY: layout has non-zero size (checked above).
        let raw = unsafe {
            if zero_heap {
                alloc_zeroed(layout)
            } else {
                alloc(layout)
            }
        };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout)
        };
        AlignedBuf {
            ptr,
            len: n,
            backing: Backing::Heap(layout),
            _marker: PhantomData,
        }
    }

    /// Allocate `n` zeroed elements aligned to a cache line.
    pub fn zeroed(n: usize) -> Self {
        Self::allocate(n, true, true)
    }

    /// `n` elements of unspecified value: the allocation is not filled
    /// (a partition pass's output, a table's tuple region: every slot is
    /// written once before anything reads it, so a fill would be a
    /// wasted pass over memory).
    ///
    /// # Safety
    /// Every slot holds whatever the allocator handed back; the caller
    /// must write a slot before reading it.
    pub unsafe fn unfilled(n: usize) -> Self {
        Self::allocate(n, false, false)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr/len describe a valid allocation of initialized
        // (zeroed) Ts; T is POD.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as above, plus &mut self guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr.as_ptr()
    }

    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr.as_ptr()
    }
}

impl<T: Copy> AlignedBuf<T> {
    /// Allocate `n` elements, each initialized to `value` (the
    /// sentinel-filled hash-table arrays: `u32::MAX` slots etc.).
    pub fn filled(n: usize, value: T) -> Self {
        let mut buf = Self::allocate(n, false, false);
        for slot in buf.as_mut_slice_uninit() {
            *slot = value;
        }
        buf
    }

    /// The full backing slice without the "already initialized"
    /// promise: only for `filled`/`AlignedVec`, which overwrite before
    /// exposing.
    #[inline]
    fn as_mut_slice_uninit(&mut self) -> &mut [T] {
        // SAFETY: T is Copy POD; any bit pattern the allocator hands
        // back is only ever *written* through this slice before a
        // typed read happens.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        match &self.backing {
            Backing::None => {}
            Backing::Heap(layout) => {
                // SAFETY: allocated with exactly this layout.
                unsafe { dealloc(self.ptr.as_ptr().cast(), *layout) };
            }
            // The Block's own drop returns it to the arena pool.
            Backing::Mapped(_) => {}
        }
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBuf(len={})", self.len)
    }
}

impl<T> std::ops::Deref for AlignedBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> std::ops::DerefMut for AlignedBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<'a, T> IntoIterator for &'a AlignedBuf<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a, T> IntoIterator for &'a mut AlignedBuf<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

/// A growable `Vec`-alike backed by [`AlignedBuf`], so append-heavy
/// consumers (chained-table overflow buckets, materialized output,
/// sort scratch) also route through the policy-aware arenas.
///
/// Restricted to `Copy` plain-old-data, like `AlignedBuf` itself.
pub struct AlignedVec<T: Copy> {
    buf: AlignedBuf<T>,
    len: usize,
}

impl<T: Copy> AlignedVec<T> {
    pub fn new() -> Self {
        AlignedVec {
            buf: AlignedBuf::zeroed(0),
            len: 0,
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        AlignedVec {
            buf: AlignedBuf::zeroed(cap),
            len: 0,
        }
    }

    /// `len` elements of unspecified value: the allocation is not
    /// filled (sort scratch: the first merge pass overwrites all of it,
    /// so a fill would be a wasted pass over memory).
    ///
    /// # Safety
    /// Every slot holds whatever the allocator handed back; the caller
    /// must write a slot before reading it.
    pub unsafe fn unfilled(len: usize) -> Self {
        AlignedVec {
            buf: AlignedBuf::unfilled(len),
            len,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Grow the backing buffer to at least `need` elements (amortized
    /// doubling), preserving the first `len` elements.
    fn grow_to(&mut self, need: usize) {
        let new_cap = need.max(self.capacity().saturating_mul(2)).max(8);
        let mut next = AlignedBuf::<T>::zeroed(new_cap);
        next.as_mut_slice_uninit()[..self.len].copy_from_slice(self.as_slice());
        self.buf = next;
    }

    #[inline]
    pub fn push(&mut self, value: T) {
        if self.len == self.capacity() {
            self.grow_to(self.len + 1);
        }
        self.buf.as_mut_slice_uninit()[self.len] = value;
        self.len += 1;
    }

    pub fn extend_from_slice(&mut self, src: &[T]) {
        let need = self.len.checked_add(src.len()).expect("capacity overflow");
        if need > self.capacity() {
            self.grow_to(need);
        }
        self.buf.as_mut_slice_uninit()[self.len..need].copy_from_slice(src);
        self.len = need;
    }

    /// Reserve capacity for at least `additional` more elements.
    pub fn reserve(&mut self, additional: usize) {
        let need = self.len.checked_add(additional).expect("capacity overflow");
        if need > self.capacity() {
            self.grow_to(need);
        }
    }

    /// Resize to `new_len`, filling any new tail with `value`.
    pub fn resize(&mut self, new_len: usize, value: T) {
        if new_len > self.capacity() {
            self.grow_to(new_len);
        }
        if new_len > self.len {
            for slot in &mut self.buf.as_mut_slice_uninit()[self.len..new_len] {
                *slot = value;
            }
        }
        self.len = new_len;
    }

    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf.as_slice()[..self.len]
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        let len = self.len;
        &mut self.buf.as_mut_slice()[..len]
    }

    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy> Default for AlignedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> std::ops::Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> std::ops::DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<'a, T: Copy> IntoIterator for &'a AlignedVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec(len={}, cap={})", self.len, self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_and_aligned() {
        let buf = AlignedBuf::<u64>::zeroed(1000);
        assert_eq!(buf.len(), 1000);
        assert!(buf.as_slice().iter().all(|&x| x == 0));
        assert_eq!(buf.as_ptr() as usize % CACHE_LINE, 0);
    }

    #[test]
    fn zero_len_ok() {
        let buf = AlignedBuf::<u64>::zeroed(0);
        assert!(buf.is_empty());
        assert_eq!(buf.as_slice(), &[] as &[u64]);
    }

    #[test]
    fn writes_persist() {
        let mut buf = AlignedBuf::<u32>::zeroed(64);
        for (i, v) in buf.as_mut_slice().iter_mut().enumerate() {
            *v = i as u32;
        }
        assert_eq!(buf.as_slice()[63], 63);
    }

    #[test]
    fn large_alignment_type() {
        #[repr(align(64))]
        #[derive(Copy, Clone)]
        struct Line(#[allow(dead_code)] [u8; 64]);
        let buf = AlignedBuf::<Line>::zeroed(8);
        assert_eq!(buf.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn filled_sets_every_element() {
        let buf = AlignedBuf::<u32>::filled(777, u32::MAX);
        assert!(buf.as_slice().iter().all(|&x| x == u32::MAX));
        assert_eq!(buf.as_ptr() as usize % CACHE_LINE, 0);
    }

    /// Satellite regression: a request whose byte size is near
    /// `usize::MAX` must panic loudly (checked math), never wrap into
    /// a small allocation.
    #[test]
    fn oversized_request_panics_cleanly() {
        for n in [
            usize::MAX,
            usize::MAX / 8 + 1,
            (isize::MAX as usize) / 8 + 1,
        ] {
            let r = std::panic::catch_unwind(|| AlignedBuf::<u64>::zeroed(n));
            assert!(r.is_err(), "n={n} must panic, not allocate");
        }
    }

    /// Under a mapped policy the same sizes must panic identically —
    /// the arena rounding is overflow-checked too.
    #[test]
    fn oversized_request_panics_under_mapped_policy() {
        let r = std::panic::catch_unwind(|| {
            crate::mem::with_policy(crate::mem::AllocPolicy::Thp, || {
                AlignedBuf::<u64>::zeroed(usize::MAX / 8 + 1)
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn mapped_policy_round_trip_contents() {
        let _policy = crate::mem::policy_test_lock();
        crate::mem::with_policy(crate::mem::AllocPolicy::Thp, || {
            let n = crate::PAGE_2M / 8;
            let mut buf = AlignedBuf::<u64>::zeroed(n);
            assert!(buf.as_slice().iter().all(|&x| x == 0));
            for (i, v) in buf.as_mut_slice().iter_mut().enumerate() {
                *v = i as u64;
            }
            assert_eq!(buf.as_slice()[n - 1], (n - 1) as u64);
            drop(buf);
            // Pool reuse must still observe the zeroed contract.
            let buf2 = AlignedBuf::<u64>::zeroed(n);
            assert!(buf2.as_slice().iter().all(|&x| x == 0));
        });
        crate::mem::pool_clear();
    }

    #[test]
    fn aligned_vec_push_grow_resize() {
        let mut v = AlignedVec::<u64>::new();
        assert!(v.is_empty());
        for i in 0..10_000u64 {
            v.push(i);
        }
        assert_eq!(v.len(), 10_000);
        assert_eq!(v[9_999], 9_999);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
        v.resize(10_005, 42);
        assert_eq!(v.len(), 10_005);
        assert_eq!(v[10_004], 42);
        v.resize(3, 0);
        assert_eq!(v.as_slice(), &[0, 1, 2]);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn aligned_vec_extend_and_capacity() {
        let mut v = AlignedVec::<u32>::with_capacity(4);
        assert!(v.capacity() >= 4);
        v.extend_from_slice(&[1, 2, 3]);
        v.extend_from_slice(&[4, 5, 6, 7, 8]);
        assert_eq!(v.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        v.reserve(100);
        assert!(v.capacity() >= 108);
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn aligned_vec_unfilled_constructors() {
        // SAFETY: every slot is written by `fill` before any read.
        let mut v = unsafe { AlignedVec::<u64>::unfilled(100) };
        assert_eq!(v.len(), 100);
        v.fill(1);
        assert_eq!(v.iter().sum::<u64>(), 100);

        // SAFETY: every slot is written by `fill` before any read.
        let mut b = unsafe { AlignedBuf::<u32>::unfilled(50) };
        assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0);
        b.fill(7);
        assert_eq!(b.iter().sum::<u32>(), 350);
    }
}
