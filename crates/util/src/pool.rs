//! Worker-pool abstraction shared by every thread-parallel phase.
//!
//! The crates below `mmjoin-core` (partitioning, hash tables) run their
//! parallel phases against this small trait instead of spawning scoped
//! threads themselves. `mmjoin-core`'s persistent NUMA-aware executor
//! implements it, so a whole join — partitioning included — executes on
//! one long-lived pool; [`ScopedPool`] (one `std::thread::scope` per
//! phase) is what the substrate crates' own tests and the criterion
//! benches pass, having no executor below `mmjoin-core` to pass.

use std::sync::{Mutex, MutexGuard};

use crate::perf::CounterDelta;
use crate::scope::Scope;

/// Lock a mutex, recovering from poison.
///
/// A mutex is poisoned when a thread panicked while holding it. All the
/// mutexes in the join runtime guard either plain-old-data (counters,
/// result slots) or control state whose invariants are re-established by
/// the phase barrier, so the data is never left half-updated in a way a
/// later reader could misinterpret: recovering is always safe, and it
/// keeps one panicked morsel task from cascading poison into every
/// unrelated join sharing the persistent pool.
pub fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Consume a mutex, recovering from poison (see [`lock_recover`]).
pub fn into_inner_recover<T>(m: Mutex<T>) -> T {
    m.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Scheduling counters for one or more executed phases.
///
/// `tasks` counts executed morsels (one closure invocation each),
/// `steals` counts morsels a worker claimed from another NUMA node's
/// queue, and `idle_ns` sums the time workers spent waiting at the
/// phase barrier after finishing their own work (a direct measure of
/// load imbalance).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Morsels executed.
    pub tasks: u64,
    /// Morsels claimed from a remote node's queue.
    pub steals: u64,
    /// Nanoseconds workers spent at the barrier waiting for stragglers.
    pub idle_ns: u64,
}

impl ExecCounters {
    pub const fn new() -> Self {
        ExecCounters {
            tasks: 0,
            steals: 0,
            idle_ns: 0,
        }
    }

    /// Accumulate another phase's counters into this one.
    pub fn merge(&mut self, other: ExecCounters) {
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.idle_ns += other.idle_ns;
    }
}

/// One worker's slice of one executed phase (a *span*), recorded by the
/// executor when profiling is enabled. A driver phase made of several
/// barrier broadcasts yields several spans per worker; their `tasks` /
/// `steals` sum to the phase's [`ExecCounters`], which is the invariant
/// the observability tests pin down.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerPhaseStat {
    /// Worker index in `0..workers()`.
    pub worker: usize,
    /// Span start, ns since the recording epoch (the join start).
    pub start_ns: u64,
    /// Span duration in ns (this worker's time to its barrier arrival).
    pub dur_ns: u64,
    /// Morsels this worker executed during the span.
    pub tasks: u64,
    /// Morsels it claimed from a remote NUMA node's queue.
    pub steals: u64,
    /// Native PMU deltas for the span; all `None` when the host exposes
    /// no counters (see `crate::perf`).
    pub counters: CounterDelta,
}

/// A pool of `workers()` threads that can execute one phase at a time.
///
/// `broadcast` is the phase primitive: it invokes `f(w)` exactly once
/// for every worker index `w` in `0..workers()` and returns only after
/// every invocation has finished. The return is a **full barrier with
/// release/acquire semantics**: all memory writes performed inside `f`
/// happen-before anything the caller does after `broadcast` returns.
/// The lock-free tables' relaxed probes rely on exactly this edge (see
/// `mmjoin_core::exec`).
pub trait WorkerPool: Sync {
    /// Number of workers `broadcast` fans out to.
    fn workers(&self) -> usize;

    /// Run `f(w)` once per worker; return after all complete.
    fn broadcast(&self, f: &(dyn Fn(usize) + Sync));
}

/// Fallback [`WorkerPool`]: spawns `workers` scoped threads per
/// broadcast. Functionally identical to the persistent executor (the
/// scope join provides the same happens-before edge) but pays thread
/// creation at every phase — for substrate tests and benches only.
pub struct ScopedPool {
    workers: usize,
}

impl ScopedPool {
    pub fn new(workers: usize) -> Self {
        ScopedPool {
            workers: workers.max(1),
        }
    }
}

impl WorkerPool for ScopedPool {
    fn workers(&self) -> usize {
        self.workers
    }

    /// Every thread runs under the caller's [`Scope`].
    fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        let scope = Scope::current();
        std::thread::scope(|s| {
            for w in 0..self.workers {
                let scope = scope.clone();
                s.spawn(move || {
                    let _in = scope.enter();
                    f(w)
                });
            }
        });
    }
}

/// Run `f(w)` on workers `0..active` of `pool` and collect the results
/// in worker order. Workers `active..pool.workers()` idle through the
/// phase. The chunk-per-worker phases (histograms, chunk-local
/// partitioning, table probes) are all built on this.
pub fn broadcast_map<R, F>(pool: &dyn WorkerPool, active: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let active = active.min(pool.workers()).max(1);
    let slots: Vec<Mutex<Option<R>>> = (0..active).map(|_| Mutex::new(None)).collect();
    pool.broadcast(&|w| {
        if w < active {
            let r = f(w);
            *lock_recover(&slots[w]) = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|m| into_inner_recover(m).expect("worker produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_pool_runs_every_worker() {
        let pool = ScopedPool::new(7);
        let hits = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn broadcast_map_collects_in_order() {
        let pool = ScopedPool::new(4);
        let out = broadcast_map(&pool, 4, |w| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn broadcast_map_clamps_active() {
        let pool = ScopedPool::new(4);
        let out = broadcast_map(&pool, 2, |w| w);
        assert_eq!(out, vec![0, 1]);
        // More active than workers: clamp to pool size.
        let out = broadcast_map(&pool, 9, |w| w);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn counters_merge() {
        let mut a = ExecCounters {
            tasks: 1,
            steals: 2,
            idle_ns: 3,
        };
        a.merge(ExecCounters {
            tasks: 10,
            steals: 20,
            idle_ns: 30,
        });
        assert_eq!(a.tasks, 11);
        assert_eq!(a.steals, 22);
        assert_eq!(a.idle_ns, 33);
    }

    #[test]
    fn zero_workers_clamped() {
        let pool = ScopedPool::new(0);
        assert_eq!(pool.workers(), 1);
    }
}
