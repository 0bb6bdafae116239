//! Policy-aware memory subsystem: mmap-backed arenas advised for
//! transparent huge pages.
//!
//! The paper attributes large swings between the thirteen joins to TLB
//! misses and NUMA effects. This module lets a run opt into the page
//! size those effects depend on:
//!
//! * **Transparent huge pages** — an anonymous mapping advised with
//!   `madvise(MADV_HUGEPAGE)`, rounded up to whole 2 MiB pages: one
//!   buffer of 64 KiB to 2 MiB still costs a whole huge page. A caller
//!   that keeps a table per partition packs them into one buffer
//!   instead (`PackedTables` in `mmjoin-hashtable`: SHHJ's resident
//!   tables, the cached PRO/PRL/PRA build sides).
//! * **Arena pool** — released blocks are kept mapped (bounded by
//!   `MMJOIN_ARENA_POOL_MB`, default 256) so back-to-back joins reuse
//!   already-faulted pages instead of paying the kernel's fault + zero
//!   cost per query. The pool is a list of idle ranges ordered by
//!   address: a request takes the head of the smallest idle range that
//!   holds it and leaves the rest idle, and a released block merges
//!   with its idle neighbours. So a join of any shape reuses the pages
//!   the last one left, and a leased block is still exactly its
//!   rounded request.
//!
//! NUMA placement is per buffer in the paper (chunked inputs,
//! node-local partitions) and is reproduced by `mmjoin-numamodel`'s
//! simulated `Placement`; the arenas leave placement to the kernel's
//! first touch.
//!
//! Design constraints mirror [`crate::perf`]:
//!
//! * **No dependencies.** The workspace has no `libc`; `mmap`,
//!   `munmap` and `madvise` are issued through [`crate::sys`], gated to
//!   Linux on x86-64/aarch64. Elsewhere a stub backend reports every
//!   mapping as unavailable.
//! * **Graceful fallback, never an error.** `madvise` refused → plain
//!   pages; no mmap backend at all → the portable heap allocator. Every
//!   downgrade only increments a degradation counter (surfaced per
//!   phase in `PhaseStat` and in the metrics exporters) — behaviour and
//!   results are identical.
//!
//! The active policy is a process setting, exactly like
//! [`crate::kernels`]: an explicit [`set_policy`] at start-up (the
//! CLI's `--alloc`, the wall-clock benchmark) wins over the
//! `MMJOIN_ALLOC` environment variable, which wins over the default
//! ([`AllocPolicy::Portable`] — the pre-existing aligned heap path). No
//! join sets it; [`with_policy`] is the scoped override for
//! single-threaded A/B tests.

use std::collections::BTreeMap;
use std::path::Path;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::{PAGE_2M, PAGE_4K};

/// Buffers below this many bytes always use the portable heap
/// allocator: they are cache-resident anyway, and mapping granularity
/// would waste most of the page.
pub const MAP_THRESHOLD: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Policy type and the process-global policy cell (same shape as
// kernels::set_mode)
// ---------------------------------------------------------------------------

/// How join buffers are allocated.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// The pre-existing cache-line-aligned heap allocator; never
    /// touches mmap. This is the default.
    #[default]
    Portable,
    /// mmap-backed arenas advised for transparent huge pages.
    Thp,
}

impl AllocPolicy {
    /// Parse a policy string: `portable` (alias `heap`) or `thp` (alias
    /// `transparent`), case-insensitive. Anything else is refused.
    pub fn parse(s: &str) -> Result<AllocPolicy, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "portable" | "heap" => Ok(AllocPolicy::Portable),
            "thp" | "transparent" => Ok(AllocPolicy::Thp),
            _ => Err(format!(
                "unknown alloc policy {s:?} (expected portable|thp)"
            )),
        }
    }

    /// Canonical name; round-trips through [`AllocPolicy::parse`].
    pub fn name(&self) -> String {
        match self {
            AllocPolicy::Portable => "portable",
            AllocPolicy::Thp => "thp",
        }
        .to_string()
    }
}

/// 0 = unresolved, 1 = portable, 2 = THP.
static POLICY: AtomicU32 = AtomicU32::new(0);

fn encode_policy(p: AllocPolicy) -> u32 {
    match p {
        AllocPolicy::Portable => 1,
        AllocPolicy::Thp => 2,
    }
}

fn decode_policy(v: u32) -> AllocPolicy {
    if v == 2 {
        AllocPolicy::Thp
    } else {
        AllocPolicy::Portable
    }
}

/// Install `p` process-wide: every subsequent policy-eligible
/// allocation uses it. A start-up call, before the first join: joins
/// running at the time would allocate under a mix of both policies.
pub fn set_policy(p: AllocPolicy) {
    POLICY.store(encode_policy(p), Ordering::Release);
}

/// The active policy: the last [`set_policy`] if any, else
/// `MMJOIN_ALLOC` (invalid values warn once and fall back), else
/// [`AllocPolicy::Portable`].
pub fn policy() -> AllocPolicy {
    let v = POLICY.load(Ordering::Acquire);
    if v != 0 {
        return decode_policy(v);
    }
    // Fill the cell only if it is still unset: a `set_policy` /
    // `with_policy` that landed meanwhile wins.
    let p = policy_from_env();
    match POLICY.compare_exchange(0, encode_policy(p), Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => p,
        Err(installed) => decode_policy(installed),
    }
}

/// `policy().name()` — the string stamped into bench metadata.
pub fn policy_name() -> String {
    policy().name()
}

fn policy_from_env() -> AllocPolicy {
    match std::env::var("MMJOIN_ALLOC") {
        Err(_) => AllocPolicy::Portable,
        Ok(v) if v.trim().is_empty() => AllocPolicy::Portable,
        Ok(v) => AllocPolicy::parse(&v).unwrap_or_else(|e| {
            eprintln!("MMJOIN_ALLOC: {e}; using portable");
            AllocPolicy::Portable
        }),
    }
}

/// Run `f` under `p`, restoring the previous policy state afterwards —
/// the A/B hook for single-threaded differential tests and
/// micro-benchmarks.
pub fn with_policy<R>(p: AllocPolicy, f: impl FnOnce() -> R) -> R {
    let prev = POLICY.swap(encode_policy(p), Ordering::AcqRel);
    struct Restore(u32);
    impl Drop for Restore {
        fn drop(&mut self) {
            POLICY.store(self.0, Ordering::Release);
        }
    }
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------------
// Allocation statistics (process-wide and per thread, snapshot/delta
// like perf)
// ---------------------------------------------------------------------------

macro_rules! stat_counters {
    ($($name:ident),* $(,)?) => {
        #[allow(non_upper_case_globals)]
        mod counters {
            use super::AtomicU64;
            $(pub static $name: AtomicU64 = AtomicU64::new(0);)*
        }

        /// Point-in-time totals of the allocation counters, of the
        /// process ([`stats`]) or of one thread ([`thread_stats`]).
        /// Meaningful as deltas between two snapshots.
        #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
        pub struct AllocSnapshot {
            $(pub $name: u64,)*
        }

        /// Current totals since process start.
        pub fn stats() -> AllocSnapshot {
            AllocSnapshot {
                $($name: counters::$name.load(Ordering::Relaxed),)*
            }
        }

        thread_local! {
            static THREAD_STATS: std::cell::Cell<AllocSnapshot> =
                const { std::cell::Cell::new(AllocSnapshot { $($name: 0,)* }) };
        }

        /// What the calling thread alone has added to [`stats`] since it
        /// started: the counters a join attributes to itself while other
        /// joins allocate on other threads.
        pub fn thread_stats() -> AllocSnapshot {
            THREAD_STATS.with(|c| c.get())
        }

        impl AllocSnapshot {
            /// Counter-wise `self - earlier` (saturating).
            pub fn delta(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
                AllocSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }
        }
    };
}

stat_counters!(
    // Fresh mmap acquisitions (pool miss → new mapping).
    mapped_blocks,
    mapped_bytes,
    // Pool reuse (block handed back without a fresh mapping).
    pool_hits,
    pool_hit_bytes,
    // Page downgrades: `madvise(MADV_HUGEPAGE)` refused.
    degraded_page,
    // Mapped path entirely unavailable → portable heap served it.
    heap_fallback,
);

/// Count `$by` on counter `$field`, process-wide and for this thread.
macro_rules! bump {
    ($field:ident, $by:expr) => {{
        let by: u64 = $by;
        counters::$field.fetch_add(by, Ordering::Relaxed);
        THREAD_STATS.with(|c| {
            let mut mine = c.get();
            mine.$field += by;
            c.set(mine);
        });
    }};
}

// ---------------------------------------------------------------------------
// Fault injection for the fallback tests
// ---------------------------------------------------------------------------

/// Bit in the force-fail mask: pretend `madvise(MADV_HUGEPAGE)` fails.
pub const FAIL_MADVISE: u32 = 2;
/// Bit: pretend every `mmap` fails (forces the heap fallback).
pub const FAIL_MMAP: u32 = 8;

static FORCE_FAIL: AtomicU32 = AtomicU32::new(0);

/// Make the named syscalls report failure, deterministically, so the
/// fallback ladder can be exercised on any host. Testing hook; 0
/// restores normal operation.
#[doc(hidden)]
pub fn set_force_fail(mask: u32) {
    FORCE_FAIL.store(mask, Ordering::Release);
}

fn forced(bit: u32) -> bool {
    FORCE_FAIL.load(Ordering::Acquire) & bit != 0
}

// ---------------------------------------------------------------------------
// Arena blocks and the reuse pool
// ---------------------------------------------------------------------------

/// Round `n` up to a multiple of `gran` (a power of two), or `None` on
/// overflow. The overflow check matters: an unchecked `(n + gran - 1) &
/// !(gran - 1)` wraps for `n` near `usize::MAX` and would produce a
/// tiny mapping for a huge request.
pub fn round_up(n: usize, gran: usize) -> Option<usize> {
    debug_assert!(gran.is_power_of_two());
    Some(n.checked_add(gran - 1)? & !(gran - 1))
}

/// One mapped arena block: a range of whole 2 MiB pages. Dropping it
/// returns the range to the pool (or unmaps that range alone when the
/// pool is full), so `AlignedBuf` can own one like a `Layout`.
pub struct Block {
    ptr: NonNull<u8>,
    len: usize,
    fresh: bool,
}

// SAFETY: a Block uniquely owns its range of mapped pages.
unsafe impl Send for Block {}
// SAFETY: a Block's `&self` methods only read its pointer, length and
// flags; they never touch the mapped bytes.
unsafe impl Sync for Block {}

impl Block {
    pub(crate) fn ptr(&self) -> NonNull<u8> {
        self.ptr
    }

    #[allow(dead_code)] // used by the arena tests
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Fresh kernel pages are already zeroed; pool-reused blocks hold
    /// stale data and the consumer must clear (or fully overwrite)
    /// them.
    pub(crate) fn is_fresh(&self) -> bool {
        self.fresh
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        put(&POOL, self.ptr, self.len, pool_cap_bytes());
    }
}

/// The pool's idle mapped ranges, keyed by start address. Adjacent idle
/// ranges are merged as they are released, so no two entries touch.
struct Ranges {
    idle: BTreeMap<usize, usize>,
    bytes: usize,
}

impl Ranges {
    const fn new() -> Ranges {
        Ranges {
            idle: BTreeMap::new(),
            bytes: 0,
        }
    }

    /// Best fit: the head of the smallest idle range that holds `len`
    /// bytes (the lowest such range among equals). The rest of the range
    /// stays idle.
    fn carve(&mut self, len: usize) -> Option<usize> {
        let (&addr, &have) = self
            .idle
            .iter()
            .filter(|&(_, &have)| have >= len)
            .min_by_key(|&(_, &have)| have)?;
        self.idle.remove(&addr);
        if have > len {
            self.idle.insert(addr + len, have - len);
        }
        self.bytes -= len;
        Some(addr)
    }

    /// Take `[addr, addr + len)` back idle, merged with its idle
    /// neighbours. `false`, and nothing kept, when the pool would then
    /// hold more than `cap` idle bytes: the caller unmaps that range.
    fn release(&mut self, addr: usize, len: usize, cap: usize) -> bool {
        if self.bytes + len > cap {
            return false;
        }
        self.bytes += len;
        let (mut start, mut end) = (addr, addr + len);
        if let Some((&before, &n)) = self.idle.range(..addr).next_back() {
            if before + n == addr {
                self.idle.remove(&before);
                start = before;
            }
        }
        if let Some(n) = self.idle.remove(&end) {
            end += n;
        }
        self.idle.insert(start, end - start);
        true
    }
}

static POOL: Mutex<Ranges> = Mutex::new(Ranges::new());

fn lock_ranges(pool: &Mutex<Ranges>) -> std::sync::MutexGuard<'_, Ranges> {
    pool.lock().unwrap_or_else(|e| e.into_inner())
}

fn pool_cap_bytes() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        let mb = std::env::var("MMJOIN_ARENA_POOL_MB")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(256);
        mb.saturating_mul(1024 * 1024)
    })
}

fn take(pool: &Mutex<Ranges>, len: usize) -> Option<NonNull<u8>> {
    NonNull::new(lock_ranges(pool).carve(len)? as *mut u8)
}

/// Return a leased range to `pool`; past `cap` idle bytes it is
/// unmapped instead. Whether the pool kept it.
fn put(pool: &Mutex<Ranges>, ptr: NonNull<u8>, len: usize, cap: usize) -> bool {
    let kept = lock_ranges(pool).release(ptr.as_ptr() as usize, len, cap);
    if !kept {
        imp::munmap(ptr, len);
    }
    kept
}

/// Unmap every idle range of `pool`; the bytes unmapped.
fn clear(pool: &Mutex<Ranges>) -> usize {
    let (idle, bytes) = {
        let mut ranges = lock_ranges(pool);
        (
            std::mem::take(&mut ranges.idle),
            std::mem::take(&mut ranges.bytes),
        )
    };
    for (addr, len) in idle {
        if let Some(p) = NonNull::new(addr as *mut u8) {
            imp::munmap(p, len);
        }
    }
    bytes
}

/// Unmap every idle range of the pool, so a cold-arena timing starts
/// from no warm pages.
pub fn pool_clear() {
    clear(&POOL);
}

/// Try to serve `bytes` (alignment `align`) from a THP arena. `None`
/// when the active policy is portable, the request is too small to map,
/// the alignment exceeds a page, or no mmap backend exists — callers
/// fall back to the heap.
pub fn acquire(bytes: usize, align: usize) -> Option<Block> {
    if policy() != AllocPolicy::Thp || bytes < MAP_THRESHOLD || align > PAGE_4K {
        return None;
    }
    // Whole huge pages, so the kernel can back the whole region with
    // 2 MiB frames.
    let len = round_up(bytes, PAGE_2M)?;
    if let Some(ptr) = take(&POOL, len) {
        bump!(pool_hits, 1);
        bump!(pool_hit_bytes, len as u64);
        return Some(Block {
            ptr,
            len,
            fresh: false,
        });
    }
    let ptr = map_block(len).or_else(|| {
        bump!(heap_fallback, 1);
        None
    })?;
    bump!(mapped_blocks, 1);
    bump!(mapped_bytes, len as u64);
    Some(Block {
        ptr,
        len,
        fresh: true,
    })
}

/// Map one block and advise it for huge pages; a refused `madvise`
/// degrades to plain pages. Only a failed mmap (no backend, forced
/// failure) returns `None`.
fn map_block(len: usize) -> Option<NonNull<u8>> {
    if forced(FAIL_MMAP) {
        return None;
    }
    let got = imp::mmap_anon(len)?;
    if forced(FAIL_MADVISE) || !imp::madvise_hugepage(got, len) {
        bump!(degraded_page, 1);
    }
    Some(got)
}

// ---------------------------------------------------------------------------
// Host topology detection (/sys) and fault accounting (/proc)
// ---------------------------------------------------------------------------

/// What the running host actually provides, parsed from `/sys`. The
/// simulated `mmjoin-numamodel` topology describes the paper's
/// machine; this one describes the machine under your feet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostTopology {
    /// Online NUMA nodes (1 when undetectable — a safe minimum).
    pub nodes: usize,
    /// Transparent huge pages enabled (`[always]` or `[madvise]`).
    pub thp_enabled: bool,
    /// Free pre-reserved 2 MiB pages (`hugepages-2048kB/free_hugepages`).
    pub free_hugepages_2m: u64,
    /// False when `/sys` was absent and every field is a fallback.
    pub detected: bool,
}

impl HostTopology {
    fn fallback() -> HostTopology {
        HostTopology {
            nodes: 1,
            thp_enabled: false,
            free_hugepages_2m: 0,
            detected: false,
        }
    }
}

/// The detected topology of this host, parsed once from `/sys`.
pub fn host_topology() -> &'static HostTopology {
    static TOPO: OnceLock<HostTopology> = OnceLock::new();
    TOPO.get_or_init(|| detect_topology_from(Path::new("/")))
}

/// Count ids in a kernel range list like `0-3` or `0,2-5,7`.
fn count_range_list(s: &str) -> Option<usize> {
    let mut count = 0usize;
    for part in s.trim().split(',') {
        if part.is_empty() {
            continue;
        }
        match part.split_once('-') {
            None => {
                part.parse::<u64>().ok()?;
                count += 1;
            }
            Some((lo, hi)) => {
                let lo: u64 = lo.parse().ok()?;
                let hi: u64 = hi.parse().ok()?;
                if hi < lo {
                    return None;
                }
                count += (hi - lo + 1) as usize;
            }
        }
    }
    if count == 0 {
        None
    } else {
        Some(count)
    }
}

/// [`host_topology`] against an arbitrary filesystem root — the
/// testable core, so the "`/sys` absent" fallback can be exercised
/// with a temp dir.
pub fn detect_topology_from(root: &Path) -> HostTopology {
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).ok();
    let Some(online) = read("sys/devices/system/node/online") else {
        return HostTopology::fallback();
    };
    let nodes = count_range_list(&online).unwrap_or(1);
    let thp_enabled = read("sys/kernel/mm/transparent_hugepage/enabled")
        .map(|s| s.contains("[always]") || s.contains("[madvise]"))
        .unwrap_or(false);
    let free_hugepages_2m = read("sys/kernel/mm/hugepages/hugepages-2048kB/free_hugepages")
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    HostTopology {
        nodes,
        thp_enabled,
        free_hugepages_2m,
        detected: true,
    }
}

/// Minor (soft) page faults of this process so far, from
/// `/proc/self/stat` field 10. `None` off Linux. The delta across
/// back-to-back joins shows pool reuse skipping the fault storm (the
/// wall-clock benchmark's `util.minor_faults_per_rep`).
pub fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // comm (field 2) may contain spaces and parens; fields resume
    // after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    // rest starts at field 3 (state); min_flt is field 10.
    rest.split_ascii_whitespace().nth(7)?.parse().ok()
}

// ---------------------------------------------------------------------------
// Raw syscall backend (Linux x86-64 / aarch64), stubbed elsewhere
// ---------------------------------------------------------------------------

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::ptr::NonNull;

    use crate::sys::{nr, syscall6};

    const PROT_READ: usize = 0x1;
    const PROT_WRITE: usize = 0x2;
    const MAP_PRIVATE: usize = 0x02;
    const MAP_ANONYMOUS: usize = 0x20;
    const MADV_HUGEPAGE: usize = 14;

    /// Anonymous private read/write mapping. `None` on any error
    /// (negative return = `-errno`).
    pub(super) fn mmap_anon(len: usize) -> Option<NonNull<u8>> {
        // SAFETY: a new anonymous mapping at an address the kernel picks
        // (addr 0, no MAP_FIXED) overlaps no memory the process uses, and
        // no argument is a pointer the kernel reads.
        let ret = unsafe {
            syscall6(
                nr::MMAP,
                0,
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                usize::MAX, // fd = -1
                0,
            )
        };
        if ret < 0 {
            return None;
        }
        NonNull::new(ret as *mut u8)
    }

    pub(super) fn munmap(ptr: NonNull<u8>, len: usize) {
        // SAFETY: the only callers, the pool's `put` and `clear`, pass a
        // range of pages from `mmap_anon` (part of one mapping, or
        // adjacent mappings merged) that no Block leases any more and
        // that the pool has just given up, so nothing references its
        // pages. Unmapping part of a mapping leaves the rest mapped.
        unsafe {
            syscall6(nr::MUNMAP, ptr.as_ptr() as usize, len, 0, 0, 0, 0);
        }
    }

    pub(super) fn madvise_hugepage(ptr: NonNull<u8>, len: usize) -> bool {
        // SAFETY: MADV_HUGEPAGE is advice only: it changes neither the
        // range's contents nor its validity, whatever range is passed.
        let ret = unsafe {
            syscall6(
                nr::MADVISE,
                ptr.as_ptr() as usize,
                len,
                MADV_HUGEPAGE,
                0,
                0,
                0,
            )
        };
        ret == 0
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use std::ptr::NonNull;

    /// Stub backend: no mapping is ever available, so the THP policy
    /// silently degrades to the portable heap.
    pub(super) fn mmap_anon(_len: usize) -> Option<NonNull<u8>> {
        None
    }

    pub(super) fn munmap(_ptr: NonNull<u8>, _len: usize) {}

    pub(super) fn madvise_hugepage(_ptr: NonNull<u8>, _len: usize) -> bool {
        false
    }
}

/// Every test of this crate that sets the process-global policy cell,
/// forces a failure or clears the pool holds this while it does: the
/// three are shared by all test threads of the binary.
#[cfg(test)]
pub(crate) fn policy_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static M: Mutex<()> = Mutex::new(());
    M.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::policy_test_lock as lock;
    use super::*;

    #[test]
    fn parse_round_trips_and_refuses_removed_tokens() {
        for p in [AllocPolicy::Portable, AllocPolicy::Thp] {
            assert_eq!(AllocPolicy::parse(&p.name()).unwrap(), p);
            assert_eq!(decode_policy(encode_policy(p)), p);
            assert_ne!(encode_policy(p), 0, "0 is the unresolved marker");
        }
        assert_eq!(AllocPolicy::parse(" HEAP ").unwrap(), AllocPolicy::Portable);
        assert_eq!(AllocPolicy::parse("Transparent").unwrap(), AllocPolicy::Thp);
        for s in [
            "",
            "bogus",
            "mapped",
            "small",
            "huge",
            "firsttouch",
            "interleave",
            "bind:0",
            "thp+interleave",
            "portable+thp",
        ] {
            assert!(AllocPolicy::parse(s).is_err(), "{s:?} must be refused");
        }
    }

    #[test]
    fn round_up_overflow_is_none() {
        assert_eq!(round_up(10, 4096), Some(4096));
        assert_eq!(round_up(4096, 4096), Some(4096));
        assert_eq!(round_up(usize::MAX - 10, 4096), None);
        assert_eq!(round_up(0, 4096), Some(0));
    }

    #[test]
    fn portable_policy_never_maps() {
        let _g = lock();
        with_policy(AllocPolicy::Portable, || {
            assert!(acquire(PAGE_2M, 64).is_none());
        });
    }

    #[test]
    fn small_requests_stay_on_heap() {
        let _g = lock();
        with_policy(AllocPolicy::Thp, || {
            assert!(acquire(MAP_THRESHOLD - 1, 64).is_none());
        });
    }

    #[test]
    fn mapped_acquire_and_pool_reuse() {
        let _g = lock();
        with_policy(AllocPolicy::Thp, || {
            pool_clear();
            let before = stats();
            // A size class of its own: tests outside `lock` allocate
            // under this policy meanwhile, and would take a 2 MiB block
            // parked in the pool (and count their own hits).
            let Some(b) = acquire(3 * PAGE_2M, 64) else {
                // Stub backend (non-Linux): fallback must be counted.
                assert!(stats().delta(&before).heap_fallback >= 1);
                return;
            };
            assert!(b.is_fresh());
            assert_eq!(b.len() % PAGE_2M, 0);
            assert_eq!(b.ptr().as_ptr() as usize % PAGE_4K, 0);
            // Fresh kernel pages read zero.
            // SAFETY: `b` owns `b.len()` mapped, readable bytes at
            // `b.ptr()` and outlives `s`, which is last used on the next
            // line.
            let s = unsafe { std::slice::from_raw_parts(b.ptr().as_ptr(), b.len()) };
            assert!(s.iter().all(|&x| x == 0));
            let addr = b.ptr().as_ptr() as usize;
            drop(b); // → pool
            let b2 = acquire(3 * PAGE_2M, 64).expect("pool must serve the same class");
            assert!(!b2.is_fresh(), "second acquire must be a pool hit");
            assert_eq!(
                b2.ptr().as_ptr() as usize,
                addr,
                "the released range serves it"
            );
            let d = stats().delta(&before);
            assert!(d.pool_hits >= 1);
            assert!(d.mapped_blocks >= 1);
            drop(b2);
            pool_clear();
        });
    }

    #[test]
    fn forced_mmap_failure_falls_back_to_heap() {
        let _g = lock();
        with_policy(AllocPolicy::Thp, || {
            // An empty pool: any idle range of 2 MiB or more would serve
            // the request without a mapping.
            pool_clear();
            set_force_fail(FAIL_MMAP);
            let before = stats();
            let mine = thread_stats();
            assert!(acquire(PAGE_2M, 64).is_none());
            // Counted once for this thread — the policy and the forced
            // failure are process-wide, so other tests' allocations move
            // the process-wide counter meanwhile — and where `stats`
            // reports it.
            assert_eq!(thread_stats().delta(&mine).heap_fallback, 1);
            assert!(stats().delta(&before).heap_fallback >= 1);
            set_force_fail(0);
        });
    }

    #[test]
    fn forced_madvise_failure_degrades_not_fails() {
        let _g = lock();
        with_policy(AllocPolicy::Thp, || {
            pool_clear();
            set_force_fail(FAIL_MADVISE);
            let mine = thread_stats();
            // A size class of its own, so no pooled block serves it.
            let got = acquire(5 * PAGE_2M, 64);
            let d = thread_stats().delta(&mine);
            if got.is_some() {
                // Linux: plain pages served it anyway.
                assert_eq!(d.degraded_page, 1, "madvise refusal must be recorded");
                assert_eq!(d.heap_fallback, 0);
            } else {
                assert_eq!(d.heap_fallback, 1);
            }
            set_force_fail(0);
            drop(got);
            pool_clear();
        });
    }

    #[test]
    fn range_list_parsing() {
        assert_eq!(count_range_list("0-3"), Some(4));
        assert_eq!(count_range_list("0"), Some(1));
        assert_eq!(count_range_list("0,2-5,7"), Some(6));
        assert_eq!(count_range_list(""), None);
        assert_eq!(count_range_list("x"), None);
        assert_eq!(count_range_list("5-2"), None);
    }

    #[test]
    fn topology_absent_sys_falls_back() {
        let dir = std::env::temp_dir().join(format!("mmjoin-topo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let t = detect_topology_from(&dir);
        assert_eq!(t, HostTopology::fallback());
        assert!(!t.detected);
        assert_eq!(t.nodes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topology_detects_from_fake_sys() {
        let dir = std::env::temp_dir().join(format!("mmjoin-topo2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sys/devices/system/node")).unwrap();
        std::fs::create_dir_all(dir.join("sys/kernel/mm/transparent_hugepage")).unwrap();
        std::fs::create_dir_all(dir.join("sys/kernel/mm/hugepages/hugepages-2048kB")).unwrap();
        std::fs::write(dir.join("sys/devices/system/node/online"), "0-3\n").unwrap();
        std::fs::write(
            dir.join("sys/kernel/mm/transparent_hugepage/enabled"),
            "always [madvise] never\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("sys/kernel/mm/hugepages/hugepages-2048kB/free_hugepages"),
            "128\n",
        )
        .unwrap();
        let t = detect_topology_from(&dir);
        assert!(t.detected);
        assert_eq!(t.nodes, 4);
        assert!(t.thp_enabled);
        assert_eq!(t.free_hugepages_2m, 128);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn minor_faults_reads_on_linux() {
        let before = minor_faults();
        if cfg!(target_os = "linux") {
            // Touch some fresh pages; the counter must be readable and
            // monotonic.
            let v = vec![1u8; 1 << 20];
            std::hint::black_box(&v);
            let after = minor_faults();
            let (b, a) = (before.unwrap(), after.unwrap());
            assert!(a >= b);
        }
    }

    /// Fake addresses: the range list never touches the bytes.
    fn ranges_of(idle: &[(usize, usize)]) -> Ranges {
        let mut r = Ranges::new();
        for &(addr, len) in idle {
            assert!(r.release(addr, len, usize::MAX));
        }
        r
    }

    fn idle_of(r: &Ranges) -> Vec<(usize, usize)> {
        r.idle.iter().map(|(&a, &l)| (a, l)).collect()
    }

    const M: usize = PAGE_2M;

    #[test]
    fn best_fit_takes_the_smallest_range_that_holds_the_request() {
        let mut r = ranges_of(&[
            (0, 8 * M),
            (20 * M, 4 * M),
            (40 * M, 6 * M),
            (60 * M, 4 * M),
        ]);
        // Four pages: the two ranges of exactly four tie, the lower serves.
        assert_eq!(r.carve(4 * M), Some(20 * M));
        // Six pages: the six-page range, not the first range that holds it.
        assert_eq!(r.carve(6 * M), Some(40 * M));
        assert_eq!(r.carve(10 * M), None, "no range holds it");
        assert_eq!(idle_of(&r), [(0, 8 * M), (60 * M, 4 * M)]);
        assert_eq!(r.bytes, 12 * M);
    }

    #[test]
    fn a_split_leaves_the_tail_idle() {
        let mut r = ranges_of(&[(10 * M, 8 * M)]);
        assert_eq!(r.carve(2 * M), Some(10 * M), "the head is leased");
        assert_eq!(idle_of(&r), [(12 * M, 6 * M)]);
        assert_eq!(r.carve(6 * M), Some(12 * M));
        assert!(idle_of(&r).is_empty());
        assert_eq!(r.bytes, 0);
    }

    #[test]
    fn a_release_merges_with_both_neighbours() {
        let mut r = ranges_of(&[(0, 2 * M), (4 * M, 2 * M), (10 * M, 2 * M)]);
        assert!(r.release(2 * M, 2 * M, usize::MAX));
        assert_eq!(idle_of(&r), [(0, 6 * M), (10 * M, 2 * M)]);
        // Touching only the one above.
        assert!(r.release(8 * M, 2 * M, usize::MAX));
        assert_eq!(idle_of(&r), [(0, 6 * M), (8 * M, 4 * M)]);
        assert!(r.release(6 * M, 2 * M, usize::MAX));
        assert_eq!(idle_of(&r), [(0, 12 * M)]);
        assert_eq!(r.bytes, 12 * M);
        assert_eq!(r.carve(12 * M), Some(0), "one range again");
    }

    #[test]
    fn a_release_past_the_cap_unmaps_only_its_own_range() {
        let Some(base) = imp::mmap_anon(3 * M) else {
            return; // stub backend
        };
        let a = base.as_ptr() as usize;
        let pool = Mutex::new(Ranges::new());
        for i in 0..3 {
            // SAFETY: the three one-page pieces tile the mapping above.
            let piece = unsafe { base.add(i * M) };
            assert_eq!(put(&pool, piece, M, 2 * M), i < 2, "piece {i}");
        }
        assert_eq!(idle_of(&lock_ranges(&pool)), [(a, 2 * M)]);
        assert_eq!(lock_ranges(&pool).bytes, 2 * M);
        // The first two pages are still mapped and writable; `put`
        // unmapped the third alone.
        // SAFETY: `[a, a + 2 pages)` is mapped and idle in a pool of this
        // test's own.
        unsafe { std::ptr::write_bytes(a as *mut u8, 7, 2 * M) };
        assert_eq!(clear(&pool), 2 * M);
        assert!(idle_of(&lock_ranges(&pool)).is_empty());
    }

    #[test]
    fn pool_clear_unmaps_every_idle_range() {
        let _g = lock();
        with_policy(AllocPolicy::Thp, || {
            pool_clear();
            let blocks: Vec<Block> = [3 * M, M, 5 * M]
                .iter()
                .filter_map(|&n| acquire(n, 64))
                .collect();
            let leased: usize = blocks.iter().map(Block::len).sum();
            drop(blocks);
            assert_eq!(lock_ranges(&POOL).bytes, leased);
            // `pool_clear` is `clear(&POOL)`, which reports what it unmapped.
            assert_eq!(clear(&POOL), leased);
            assert!(lock_ranges(&POOL).idle.is_empty());
            assert_eq!(lock_ranges(&POOL).bytes, 0);
        });
    }

    /// Threads carve and release pieces of 64 KiB to 40 MiB from one
    /// pool whose cap makes some releases unmap, stamping each piece at
    /// both ends. No two live pieces may overlap, no stamp may be
    /// overwritten, and once every piece is back the idle bytes are the
    /// mapped bytes, in ranges that neither touch nor overlap.
    #[test]
    fn concurrent_carves_never_overlap_and_every_byte_comes_back() {
        use std::sync::atomic::AtomicUsize;
        if imp::mmap_anon(M).map(|p| imp::munmap(p, M)).is_none() {
            return; // stub backend
        }
        let pool = Mutex::new(Ranges::new());
        let cap = 48 << 20;
        let live: Mutex<BTreeMap<usize, usize>> = Mutex::new(BTreeMap::new());
        let mapped_bytes = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let (pool, live, mapped_bytes) = (&pool, &live, &mapped_bytes);
                scope.spawn(move || {
                    let mut rng = crate::rng::Xoshiro256::new(t + 1);
                    let mut mine: Vec<(NonNull<u8>, usize, u64)> = Vec::new();
                    for i in 0..150u64 {
                        if mine.len() == 2 || (!mine.is_empty() && rng.below(3) == 0) {
                            let (ptr, len, stamp) =
                                mine.swap_remove(rng.below(2) as usize % mine.len());
                            let words = ptr.cast::<u64>();
                            // SAFETY: this thread leases `[ptr, ptr + len)`
                            // and wrote both end words when it took it.
                            let ends = unsafe { (words.read(), words.add(len / 8 - 1).read()) };
                            assert_eq!(ends, (stamp, stamp), "a stamp was overwritten");
                            live.lock().unwrap().remove(&(ptr.as_ptr() as usize));
                            if !put(pool, ptr, len, cap) {
                                mapped_bytes.fetch_sub(len, Ordering::Relaxed);
                            }
                            continue;
                        }
                        let want = (64 << 10) + rng.below(40 << 20) as usize;
                        let len = round_up(want, M).unwrap();
                        let ptr = take(pool, len).unwrap_or_else(|| {
                            mapped_bytes.fetch_add(len, Ordering::Relaxed);
                            imp::mmap_anon(len).expect("mmap")
                        });
                        let addr = ptr.as_ptr() as usize;
                        {
                            let mut live = live.lock().unwrap();
                            if let Some((&a, &n)) = live.range(..addr + len).next_back() {
                                assert!(a + n <= addr, "{addr:#x}+{len} overlaps {a:#x}+{n}");
                            }
                            live.insert(addr, len);
                        }
                        let stamp = (t << 32) | i;
                        let words = ptr.cast::<u64>();
                        // SAFETY: the pool leased `[ptr, ptr + len)` to
                        // this thread alone (checked just above).
                        unsafe {
                            words.write(stamp);
                            words.add(len / 8 - 1).write(stamp);
                        }
                        mine.push((ptr, len, stamp));
                    }
                    for (ptr, len, _) in mine {
                        live.lock().unwrap().remove(&(ptr.as_ptr() as usize));
                        if !put(pool, ptr, len, cap) {
                            mapped_bytes.fetch_sub(len, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let ranges = lock_ranges(&pool);
        assert!(ranges.bytes <= cap);
        assert_eq!(ranges.bytes, mapped_bytes.load(Ordering::Relaxed));
        assert_eq!(ranges.idle.values().sum::<usize>(), ranges.bytes);
        let idle = idle_of(&ranges);
        for w in idle.windows(2) {
            assert!(w[0].0 + w[0].1 < w[1].0, "{w:?} touch or overlap");
        }
        drop(ranges);
        clear(&pool);
        assert_eq!(lock_ranges(&pool).bytes, 0);
    }
}
