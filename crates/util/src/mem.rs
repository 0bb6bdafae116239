//! Policy-aware memory subsystem: mmap-backed arenas with huge pages
//! and NUMA placement.
//!
//! The paper attributes large swings between the thirteen joins to TLB
//! misses and NUMA effects. This module lets a run opt into the memory
//! layouts those effects depend on:
//!
//! * **Page policy** — plain 4 KiB pages, transparent huge pages
//!   (`madvise(MADV_HUGEPAGE)`), or explicit 2 MiB `MAP_HUGETLB`
//!   mappings.
//! * **NUMA policy** — first-touch (the kernel default), interleave
//!   across all detected nodes, or bind to one node, applied per region
//!   with the raw `mbind` syscall.
//! * **Arena pool** — released blocks are kept mapped (bounded by
//!   `MMJOIN_ARENA_POOL_MB`, default 256) so back-to-back joins reuse
//!   already-faulted pages instead of paying the kernel's fault + zero
//!   cost per query.
//!
//! Under the `thp` and `hugetlb` page policies a mapped buffer is
//! rounded up to whole 2 MiB pages: one of 64 KiB to 2 MiB still costs
//! a whole huge page. A caller that allocates per partition packs its
//! partitions into one buffer instead (SHHJ's resident tables,
//! `PackedLinearTables` in `mmjoin-hashtable`).
//!
//! Design constraints mirror [`crate::perf`]:
//!
//! * **No dependencies.** The workspace has no `libc`; `mmap`,
//!   `munmap`, `madvise`, `mbind` and `set_mempolicy` are issued
//!   through [`crate::sys`], gated to Linux on x86-64/aarch64. Elsewhere a
//!   stub backend reports every mapping as unavailable.
//! * **Graceful fallback, never an error.** No free 2 MiB hugetlb
//!   pages → transparent huge pages → plain pages; `mbind`
//!   ENOSYS/EPERM → first-touch; no mmap backend at all → the portable
//!   heap allocator. Every downgrade only increments a degradation
//!   counter (surfaced per phase in `PhaseStat` and in the metrics
//!   exporters) — behaviour and results are identical.
//!
//! The active policy is a process setting, exactly like
//! [`crate::kernels`]: an explicit [`set_policy`] at start-up (the
//! CLI's `--alloc`, the wall-clock benchmark) wins over the
//! `MMJOIN_ALLOC` environment variable, which wins over the default
//! ([`AllocPolicy::Portable`] — the pre-existing aligned heap path). No
//! join sets it; [`with_policy`] is the scoped override for
//! single-threaded A/B tests.

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
// Policy types
// ---------------------------------------------------------------------------

/// Page size/backing for mapped arenas.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PagePolicy {
    /// Plain 4 KiB pages.
    Small,
    /// Transparent huge pages: plain mapping + `madvise(MADV_HUGEPAGE)`.
    Thp,
    /// Explicit 2 MiB `MAP_HUGETLB` pages (needs reserved hugepages).
    HugeTlb,
}

/// NUMA placement for mapped arenas.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NumaPolicy {
    /// Kernel default: pages land on the node of the first-touching
    /// thread.
    FirstTouch,
    /// `mbind(MPOL_INTERLEAVE)` across all detected nodes.
    Interleave,
    /// `mbind(MPOL_BIND)` to one node.
    Bind(u16),
}

/// How join buffers are allocated.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// The pre-existing cache-line-aligned heap allocator; never
    /// touches mmap. This is the default.
    #[default]
    Portable,
    /// mmap-backed arenas with the given page and NUMA placement.
    Mapped { pages: PagePolicy, numa: NumaPolicy },
}

impl AllocPolicy {
    /// Shorthand for transparent-huge-page arenas with first-touch
    /// placement — the usual first thing to try.
    pub const THP: AllocPolicy = AllocPolicy::Mapped {
        pages: PagePolicy::Thp,
        numa: NumaPolicy::FirstTouch,
    };

    /// Parse a policy string: a page token (`portable`, `mapped`,
    /// `thp`, `hugetlb`) and/or a NUMA token (`firsttouch`,
    /// `interleave`, `bind:N`) joined with `+`. A NUMA token alone
    /// implies plain mapped pages (`interleave` ==
    /// `mapped+interleave`).
    pub fn parse(s: &str) -> Result<AllocPolicy, String> {
        let mut pages: Option<PagePolicy> = None;
        let mut numa: Option<NumaPolicy> = None;
        let mut portable = false;
        for tok in s.split('+') {
            let t = tok.trim().to_ascii_lowercase();
            match t.as_str() {
                "portable" | "heap" => portable = true,
                "mapped" | "small" => pages = Some(PagePolicy::Small),
                "thp" | "transparent" => pages = Some(PagePolicy::Thp),
                "hugetlb" | "huge" => pages = Some(PagePolicy::HugeTlb),
                "firsttouch" | "first-touch" => numa = Some(NumaPolicy::FirstTouch),
                "interleave" => numa = Some(NumaPolicy::Interleave),
                _ => {
                    if let Some(n) = t.strip_prefix("bind:") {
                        let node: u16 = n
                            .parse()
                            .map_err(|_| format!("invalid NUMA node in {tok:?}"))?;
                        numa = Some(NumaPolicy::Bind(node));
                    } else {
                        return Err(format!(
                            "unknown alloc policy token {tok:?} \
                             (expected portable|mapped|thp|hugetlb|firsttouch|interleave|bind:N)"
                        ));
                    }
                }
            }
        }
        if portable {
            if pages.is_some() || numa.is_some() {
                return Err(format!(
                    "portable cannot be combined with other tokens: {s:?}"
                ));
            }
            return Ok(AllocPolicy::Portable);
        }
        if pages.is_none() && numa.is_none() {
            return Err(format!("empty alloc policy {s:?}"));
        }
        Ok(AllocPolicy::Mapped {
            pages: pages.unwrap_or(PagePolicy::Small),
            numa: numa.unwrap_or(NumaPolicy::FirstTouch),
        })
    }

    /// Canonical name; round-trips through [`AllocPolicy::parse`].
    pub fn name(&self) -> String {
        match *self {
            AllocPolicy::Portable => "portable".to_string(),
            AllocPolicy::Mapped { pages, numa } => {
                let p = match pages {
                    PagePolicy::Small => "mapped",
                    PagePolicy::Thp => "thp",
                    PagePolicy::HugeTlb => "hugetlb",
                };
                match numa {
                    NumaPolicy::FirstTouch => p.to_string(),
                    NumaPolicy::Interleave => format!("{p}+interleave"),
                    NumaPolicy::Bind(n) => format!("{p}+bind:{n}"),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Process-global policy cell (same shape as kernels::set_mode)
// ---------------------------------------------------------------------------

/// 0 = unresolved; otherwise `encode_policy() + 1`-style packing, see
/// `encode_policy`.
static POLICY: AtomicU32 = AtomicU32::new(0);

fn encode_policy(p: AllocPolicy) -> u32 {
    match p {
        AllocPolicy::Portable => 1,
        AllocPolicy::Mapped { pages, numa } => {
            let pg = match pages {
                PagePolicy::Small => 0u32,
                PagePolicy::Thp => 1,
                PagePolicy::HugeTlb => 2,
            };
            let (nk, node) = match numa {
                NumaPolicy::FirstTouch => (0u32, 0u32),
                NumaPolicy::Interleave => (1, 0),
                NumaPolicy::Bind(n) => (2, n as u32),
            };
            2 | (pg << 2) | (nk << 4) | (node << 8)
        }
    }
}

fn decode_policy(v: u32) -> AllocPolicy {
    if v == 1 {
        return AllocPolicy::Portable;
    }
    let pages = match (v >> 2) & 0x3 {
        0 => PagePolicy::Small,
        1 => PagePolicy::Thp,
        _ => PagePolicy::HugeTlb,
    };
    let numa = match (v >> 4) & 0x3 {
        0 => NumaPolicy::FirstTouch,
        1 => NumaPolicy::Interleave,
        _ => NumaPolicy::Bind(((v >> 8) & 0xffff) as u16),
    };
    AllocPolicy::Mapped { pages, numa }
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
    // Policy downgrades: hugetlb/THP unavailable, mbind refused.
    degraded_page,
    degraded_numa,
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

/// Bit in the force-fail mask: pretend `MAP_HUGETLB` mappings fail.
pub const FAIL_HUGETLB: u32 = 1;
/// Bit: pretend `madvise(MADV_HUGEPAGE)` fails.
pub const FAIL_MADVISE: u32 = 2;
/// Bit: pretend `mbind` fails (the ENOSYS/EPERM container case).
pub const FAIL_MBIND: u32 = 4;
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

/// One mapped arena block. Dropping it returns the pages to the pool
/// (or unmaps them when the pool is full), so `AlignedBuf` can own one
/// like a `Layout`.
pub struct Block {
    ptr: NonNull<u8>,
    len: usize,
    key: u32,
    fresh: bool,
}

// SAFETY: a Block uniquely owns its mapping.
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
        pool_put(self.ptr, self.len, self.key);
    }
}

struct PoolInner {
    /// `(policy key, len, ptr)` of idle mapped blocks, LIFO per class.
    blocks: Vec<(u32, usize, usize)>,
    bytes: usize,
}

static POOL: Mutex<PoolInner> = Mutex::new(PoolInner {
    blocks: Vec::new(),
    bytes: 0,
});

fn pool_lock() -> std::sync::MutexGuard<'static, PoolInner> {
    POOL.lock().unwrap_or_else(|e| e.into_inner())
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

fn pool_take(key: u32, len: usize) -> Option<NonNull<u8>> {
    let mut pool = pool_lock();
    // LIFO within the (key, len) class: the most recently released
    // block has the warmest pages.
    let idx = pool
        .blocks
        .iter()
        .rposition(|&(k, l, _)| k == key && l == len)?;
    let (_, l, ptr) = pool.blocks.swap_remove(idx);
    pool.bytes -= l;
    NonNull::new(ptr as *mut u8)
}

fn pool_put(ptr: NonNull<u8>, len: usize, key: u32) {
    {
        let mut pool = pool_lock();
        if pool.bytes + len <= pool_cap_bytes() {
            pool.blocks.push((key, len, ptr.as_ptr() as usize));
            pool.bytes += len;
            return;
        }
    }
    imp::munmap(ptr, len);
}

/// Unmap every pooled block. Benches call this between policy cells so
/// one policy's warm pages cannot serve another's timing.
pub fn pool_clear() {
    let drained: Vec<(u32, usize, usize)> = {
        let mut pool = pool_lock();
        pool.bytes = 0;
        std::mem::take(&mut pool.blocks)
    };
    for (_, len, ptr) in drained {
        if let Some(p) = NonNull::new(ptr as *mut u8) {
            imp::munmap(p, len);
        }
    }
}

/// Try to serve `bytes` (alignment `align`) from a policy-aware mapped
/// arena. `None` when the active policy is portable, the request is
/// too small to map, the alignment exceeds a page, or no mmap backend
/// exists — callers fall back to the heap.
pub fn acquire(bytes: usize, align: usize) -> Option<Block> {
    let p = policy();
    let AllocPolicy::Mapped { pages, numa } = p else {
        return None;
    };
    if bytes < MAP_THRESHOLD || align > PAGE_4K {
        return None;
    }
    // Size to huge-page granularity whenever huge pages are in play so
    // the kernel can actually back the whole region with 2 MiB frames.
    let gran = match pages {
        PagePolicy::Small => PAGE_4K,
        PagePolicy::Thp | PagePolicy::HugeTlb => PAGE_2M,
    };
    let len = round_up(bytes, gran)?;
    let key = encode_policy(p);
    if let Some(ptr) = pool_take(key, len) {
        bump!(pool_hits, 1);
        bump!(pool_hit_bytes, len as u64);
        return Some(Block {
            ptr,
            len,
            key,
            fresh: false,
        });
    }
    let ptr = map_block(pages, numa, len).or_else(|| {
        bump!(heap_fallback, 1);
        None
    })?;
    bump!(mapped_blocks, 1);
    bump!(mapped_bytes, len as u64);
    Some(Block {
        ptr,
        len,
        key,
        fresh: true,
    })
}

/// Map one block under the fallback ladder: hugetlb → THP → plain
/// pages; NUMA binding failure degrades to first-touch. Only a failure
/// of the *plain* anonymous mmap (no backend, forced failure) returns
/// `None`.
fn map_block(pages: PagePolicy, numa: NumaPolicy, len: usize) -> Option<NonNull<u8>> {
    let mut ptr: Option<NonNull<u8>> = None;
    if pages == PagePolicy::HugeTlb {
        if !forced(FAIL_HUGETLB) {
            ptr = imp::mmap_anon(len, imp::MAP_HUGETLB | imp::MAP_HUGE_2MB);
        }
        if ptr.is_none() {
            bump!(degraded_page, 1);
        }
    }
    if ptr.is_none() {
        if forced(FAIL_MMAP) {
            return None;
        }
        ptr = imp::mmap_anon(len, 0);
        let got = ptr?;
        if pages == PagePolicy::Thp {
            let ok = !forced(FAIL_MADVISE) && imp::madvise_hugepage(got, len);
            if !ok {
                bump!(degraded_page, 1);
            }
        }
    }
    let got = ptr?;
    match numa {
        NumaPolicy::FirstTouch => {}
        NumaPolicy::Interleave => {
            let nodes = host_topology().nodes.min(64);
            let mask: u64 = if nodes >= 64 {
                u64::MAX
            } else {
                (1u64 << nodes) - 1
            };
            let ok = !forced(FAIL_MBIND) && imp::mbind(got, len, imp::MPOL_INTERLEAVE, mask);
            if !ok {
                bump!(degraded_numa, 1);
            }
        }
        NumaPolicy::Bind(node) => {
            let ok = node < 64
                && !forced(FAIL_MBIND)
                && imp::mbind(got, len, imp::MPOL_BIND, 1u64 << node);
            if !ok {
                bump!(degraded_numa, 1);
            }
        }
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
    /// Free pre-reserved 2 MiB hugetlb pages.
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

    pub const MAP_HUGETLB: usize = 0x40000;
    pub const MAP_HUGE_2MB: usize = 21 << 26;
    pub const MPOL_BIND: usize = 2;
    pub const MPOL_INTERLEAVE: usize = 3;

    const PROT_READ: usize = 0x1;
    const PROT_WRITE: usize = 0x2;
    const MAP_PRIVATE: usize = 0x02;
    const MAP_ANONYMOUS: usize = 0x20;
    const MADV_HUGEPAGE: usize = 14;

    /// Anonymous private read/write mapping; `extra` adds hugetlb
    /// flags. `None` on any error (negative return = `-errno`).
    pub(super) fn mmap_anon(len: usize, extra: usize) -> Option<NonNull<u8>> {
        // SAFETY: a new anonymous mapping at an address the kernel picks
        // (addr 0, no MAP_FIXED) overlaps no memory the process uses, and
        // no argument is a pointer the kernel reads.
        let ret = unsafe {
            syscall6(
                nr::MMAP,
                0,
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | extra,
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
        // SAFETY: the only callers, `pool_put` and `pool_clear`, pass a
        // whole mapping from `mmap_anon` whose Block is gone and which
        // the pool has given up, so nothing references its pages.
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

    /// `mbind(addr, len, mode, &nodemask, maxnode=64, flags=0)`.
    pub(super) fn mbind(ptr: NonNull<u8>, len: usize, mode: usize, nodemask: u64) -> bool {
        let mask = [nodemask];
        // SAFETY: the kernel reads 64 bits of node mask through the
        // pointer, and `mask` is a live local `[u64; 1]` for the whole
        // call; a memory policy moves pages between nodes but keeps the
        // range's contents and addresses.
        let ret = unsafe {
            syscall6(
                nr::MBIND,
                ptr.as_ptr() as usize,
                len,
                mode,
                mask.as_ptr() as usize,
                65, // bits in the mask, +1 as libnuma does
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

    pub const MAP_HUGETLB: usize = 0;
    pub const MAP_HUGE_2MB: usize = 0;
    pub const MPOL_BIND: usize = 2;
    pub const MPOL_INTERLEAVE: usize = 3;

    /// Stub backend: no mapping is ever available, so every mapped
    /// policy silently degrades to the portable heap.
    pub(super) fn mmap_anon(_len: usize, _extra: usize) -> Option<NonNull<u8>> {
        None
    }

    pub(super) fn munmap(_ptr: NonNull<u8>, _len: usize) {}

    pub(super) fn madvise_hugepage(_ptr: NonNull<u8>, _len: usize) -> bool {
        false
    }

    pub(super) fn mbind(_ptr: NonNull<u8>, _len: usize, _mode: usize, _mask: u64) -> bool {
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
    fn parse_round_trips() {
        for s in [
            "portable",
            "mapped",
            "thp",
            "hugetlb",
            "mapped+interleave",
            "thp+interleave",
            "thp+bind:3",
            "hugetlb+bind:0",
        ] {
            let p = AllocPolicy::parse(s).unwrap();
            assert_eq!(p.name(), s, "round trip of {s:?}");
            assert_eq!(AllocPolicy::parse(&p.name()).unwrap(), p);
        }
    }

    #[test]
    fn parse_aliases_and_errors() {
        assert_eq!(
            AllocPolicy::parse("interleave").unwrap(),
            AllocPolicy::Mapped {
                pages: PagePolicy::Small,
                numa: NumaPolicy::Interleave
            }
        );
        assert_eq!(
            AllocPolicy::parse("HUGE").unwrap(),
            AllocPolicy::Mapped {
                pages: PagePolicy::HugeTlb,
                numa: NumaPolicy::FirstTouch
            }
        );
        assert!(AllocPolicy::parse("").is_err());
        assert!(AllocPolicy::parse("bogus").is_err());
        assert!(AllocPolicy::parse("bind:x").is_err());
        assert!(AllocPolicy::parse("portable+thp").is_err());
    }

    #[test]
    fn encode_decode_round_trips() {
        for p in [
            AllocPolicy::Portable,
            AllocPolicy::THP,
            AllocPolicy::Mapped {
                pages: PagePolicy::HugeTlb,
                numa: NumaPolicy::Bind(17),
            },
            AllocPolicy::Mapped {
                pages: PagePolicy::Small,
                numa: NumaPolicy::Interleave,
            },
        ] {
            assert_eq!(decode_policy(encode_policy(p)), p);
            assert_ne!(encode_policy(p), 0, "0 is the unresolved marker");
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
        with_policy(AllocPolicy::THP, || {
            assert!(acquire(MAP_THRESHOLD - 1, 64).is_none());
        });
    }

    #[test]
    fn mapped_acquire_and_pool_reuse() {
        let _g = lock();
        with_policy(AllocPolicy::THP, || {
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
            assert_eq!(b2.ptr().as_ptr() as usize, addr, "LIFO reuse of the block");
            let d = stats().delta(&before);
            assert!(d.pool_hits >= 1);
            assert!(d.mapped_blocks >= 1);
            pool_clear();
        });
    }

    #[test]
    fn forced_mmap_failure_falls_back_to_heap() {
        let _g = lock();
        with_policy(AllocPolicy::THP, || {
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
    fn forced_hugetlb_failure_degrades_not_fails() {
        let _g = lock();
        let p = AllocPolicy::Mapped {
            pages: PagePolicy::HugeTlb,
            numa: NumaPolicy::FirstTouch,
        };
        with_policy(p, || {
            pool_clear();
            set_force_fail(FAIL_HUGETLB);
            let before = stats();
            let got = acquire(PAGE_2M, 64);
            let d = stats().delta(&before);
            assert!(d.degraded_page >= 1, "hugetlb refusal must be recorded");
            if got.is_some() {
                // Linux: plain pages served it anyway.
                assert_eq!(d.heap_fallback, 0);
            }
            set_force_fail(0);
            drop(got);
            pool_clear();
        });
    }

    #[test]
    fn forced_mbind_failure_degrades_numa() {
        let _g = lock();
        let p = AllocPolicy::Mapped {
            pages: PagePolicy::Small,
            numa: NumaPolicy::Interleave,
        };
        with_policy(p, || {
            pool_clear();
            set_force_fail(FAIL_MBIND);
            let before = stats();
            let got = acquire(PAGE_2M, 64);
            let d = stats().delta(&before);
            if got.is_some() {
                assert!(d.degraded_numa >= 1, "mbind refusal must be recorded");
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
}
