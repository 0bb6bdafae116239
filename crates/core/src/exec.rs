//! Thread-parallel execution helpers shared by all joins.
//!
//! Every helper here runs on a [`WorkerPool`] — in practice the
//! [`RunCtx`] of the join's [`JoinRun`](crate::run::JoinRun), i.e. the
//! persistent [`Executor`](crate::executor::Executor) bound to that
//! run's sink — so a join's phases share one set of worker threads
//! instead of spawning their own.
//!
//! The pool's `broadcast` return is the **phase barrier**: it carries
//! release/acquire semantics, so all writes performed inside a phase
//! happen-before anything the caller does afterwards. The lock-free
//! tables' relaxed probes are correct only under that edge (build phase
//! barrier before probe phase); see `mmjoin_core::executor` for how the
//! persistent pool provides it without a thread join.

use std::sync::Mutex;

use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::chunk_range;
use mmjoin_util::pool::{broadcast_map, into_inner_recover, lock_recover, WorkerPool};
use mmjoin_util::tuple::Tuple;

use crate::executor::{build_queues, Pull, QueuePolicy};
use crate::run::RunCtx;

/// Tuples processed between cancellation/deadline checks inside a
/// worker's chunk — shared by every chunk-parallel driver phase and the
/// fused pipeline's probe loop.
pub(crate) const MORSEL: usize = 4096;

/// Run `f(worker_idx, chunk)` over equal chunks of `items` on the pool;
/// collect the per-worker results in worker order.
pub fn parallel_chunks<R, F>(pool: &dyn WorkerPool, items: &[Tuple], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &[Tuple]) -> R + Sync,
{
    let active = pool.workers().clamp(1, items.len().max(1));
    broadcast_map(pool, active, |t| {
        f(t, &items[chunk_range(items.len(), active, t)])
    })
}

/// Merge per-worker checksums.
pub fn merge_checksums(parts: Vec<JoinChecksum>) -> JoinChecksum {
    let mut total = JoinChecksum::new();
    for p in parts {
        total.merge(p);
    }
    total
}

/// Run a co-partition join phase as a morsel queue on the executor:
/// `order` lists the partitions to join (already filtered of skewed
/// ones), `parts` is the total fanout (for NUMA-node mapping) and
/// `tuples` what the listed partitions hold on both sides together.
/// Every worker runs `worker(pull)` once: it joins the partitions
/// `pull()` hands it and returns their checksum, so a worker merges one
/// checksum per phase and can keep its table from task to task. Workers
/// take partitions off a queue a `MORSEL` of tuples at a time — one
/// at a time when partitions are that large, a hundred when a 2^14-way
/// fan-out left forty tuples in each. `policy` decides queue assignment
/// — [`QueuePolicy::Shared`] reproduces the original sequential
/// scheduling, [`QueuePolicy::NumaLocal`] the *iS variants' NUMA-aware
/// scheduling with work stealing.
pub fn join_morsels<F>(
    pool: &RunCtx,
    order: &[usize],
    parts: usize,
    tuples: usize,
    policy: QueuePolicy,
    worker: F,
) -> JoinChecksum
where
    F: Fn(&mut Pull) -> JoinChecksum + Sync,
{
    let queues = build_queues(order, parts, policy);
    let run = MORSEL * order.len() / tuples.max(1);
    let slots: Vec<Mutex<JoinChecksum>> = (0..pool.workers())
        .map(|_| Mutex::new(JoinChecksum::new()))
        .collect();
    pool.run_workers(&queues, run, &|w, pull| {
        let c = worker(pull);
        lock_recover(&slots[w]).merge(c);
    });
    merge_checksums(slots.into_iter().map(into_inner_recover).collect())
}

/// Morsel-queue phase collecting one arbitrary result per task (used by
/// phases that materialize per-partition data, e.g. MWAY's sort phase):
/// `f(state, p)` handles one partition, with the `state()` its worker
/// made for itself before its first task (a scratch buffer, a table it
/// rebuilds; `|| ()` for none). Result order is unspecified — callers
/// sort by partition id.
pub fn morsel_map<S, R, F>(
    pool: &RunCtx,
    order: &[usize],
    parts: usize,
    policy: QueuePolicy,
    state: impl Fn() -> S + Sync,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let queues = build_queues(order, parts, policy);
    let slots: Vec<Mutex<Vec<R>>> = (0..pool.workers())
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    pool.run_workers(&queues, 1, &|w, pull| {
        let mut state = state();
        let mut mine = Vec::new();
        while let Some(p) = pull() {
            mine.push(f(&mut state, p));
        }
        *lock_recover(&slots[w]) = mine;
    });
    slots.into_iter().flat_map(into_inner_recover).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use mmjoin_util::pool::ScopedPool;

    #[test]
    fn chunks_cover_all_items() {
        let items: Vec<Tuple> = (0..1000).map(|i| Tuple::new(i + 1, i)).collect();
        let exec = Executor::new(7);
        let counts = parallel_chunks(&exec, &items, |_, chunk| chunk.len());
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert_eq!(counts.len(), 7);
    }

    #[test]
    fn results_in_thread_order() {
        let items: Vec<Tuple> = (0..100).map(|i| Tuple::new(i + 1, i)).collect();
        let pool = ScopedPool::new(4);
        let firsts = parallel_chunks(&pool, &items, |_, chunk| chunk[0].key);
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_items() {
        let exec = Executor::new(4);
        let out = parallel_chunks(&exec, &[], |_, chunk| chunk.len());
        assert_eq!(out, vec![0]);
    }

    /// Run `f` as the one phase of a throwaway join run.
    fn in_phase<T>(threads: usize, f: impl FnOnce(&RunCtx) -> T) -> T {
        let cfg = crate::JoinConfig::new(threads);
        crate::run::JoinRun::begin(crate::Algorithm::Pro, &cfg)
            .phase("join", |p| Ok(f(p)), |_| crate::spec::PhaseModel::none())
            .unwrap()
    }

    #[test]
    fn morsels_join_every_partition_once() {
        let order: Vec<usize> = (0..37).collect();
        for policy in [QueuePolicy::Shared, QueuePolicy::NumaLocal { nodes: 4 }] {
            // Runs of one partition (a morsel of tuples in each) and runs
            // longer than the queue (one tuple in each).
            for tuples in [37 * MORSEL, 37] {
                let total = in_phase(4, |p| {
                    join_morsels(p, &order, 37, tuples, policy, |pull| {
                        let mut c = JoinChecksum::new();
                        while let Some(part) = pull() {
                            c.add(part as u32 + 1, 0, 0);
                        }
                        c
                    })
                });
                assert_eq!(total.count, 37, "{policy:?} {tuples} tuples");
            }
        }
    }

    #[test]
    fn morsel_map_collects_all() {
        let order: Vec<usize> = (0..20).collect();
        let policy = QueuePolicy::NumaLocal { nodes: 2 };
        let mut got = in_phase(3, |p| {
            morsel_map(p, &order, 20, policy, || (), |_, part| part)
        });
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }
}
