//! Integration tests for the persistent morsel executor: the phase
//! barrier's happens-before edge, steal accounting under skewed queues,
//! and pool reuse across joins.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mmjoin::core::executor::{build_queues, ExecSink, Executor, QueuePolicy};
use mmjoin::core::{Algorithm, Join, JoinConfig};
use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
use mmjoin::util::pool::{broadcast_map, WorkerPool};
use mmjoin::util::Placement;

/// Phase N's writes must be visible to phase N+1 without any ordering
/// stronger than Relaxed inside the phases themselves: the barrier in
/// `broadcast` is the only thing publishing them (the same edge the
/// lock-free join tables rely on between build and probe).
#[test]
fn barrier_publishes_phase_writes() {
    let pool = Executor::new(6);
    let n = pool.spawned_workers();
    let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    for round in 1..=20u64 {
        pool.broadcast(&|w| {
            slots[w].store(round * (w as u64 + 1), Ordering::Relaxed);
        });
        let sums = broadcast_map(&pool, n, |_| {
            slots.iter().map(|s| s.load(Ordering::Relaxed)).sum::<u64>()
        });
        let expect = round * (n as u64 * (n as u64 + 1)) / 2;
        assert!(sums.iter().all(|&s| s == expect), "round {round}: {sums:?}");
    }
}

/// Pile every morsel onto node 0's queue of a two-node policy: the
/// workers homed on node 1 find their queue empty and must steal. The
/// counters have to account for every morsel exactly once.
#[test]
fn steal_counters_under_skewed_queues() {
    let pool = Executor::new(4);
    let parts = 128;
    // Partitions 0..64 all map to node 0 of a 2-node split.
    let order: Vec<usize> = (0..64).collect();
    let queues = build_queues(&order, parts, QueuePolicy::NumaLocal { nodes: 2 });
    assert_eq!(queues.len(), 2);
    assert_eq!(queues[0].len(), 64);
    assert!(queues[1].is_empty());

    let sink = ExecSink::new(false);
    let ran: Vec<AtomicU64> = (0..parts).map(|_| AtomicU64::new(0)).collect();
    pool.run_morsels_into(Some(&sink), &queues, &|_, p| {
        ran[p].fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_micros(500));
    });
    let c = sink.take().exec;
    assert_eq!(c.tasks, 64, "every morsel ran exactly once");
    for (p, r) in ran.iter().enumerate().take(64) {
        assert_eq!(r.load(Ordering::Relaxed), 1, "partition {p}");
    }
    assert!(c.steals > 0, "node-1 workers had nothing local: {c:?}");
    assert!(c.steals <= c.tasks, "{c:?}");
}

/// The pool is created once per thread count and reused by every
/// subsequent join: two configs, four joins, one executor.
#[test]
fn pool_is_reused_across_joins_and_configs() {
    let threads = 5;
    let r = gen_build_dense(2_000, 71, Placement::Chunked { parts: 4 });
    let s = gen_probe_fk(8_000, 2_000, 72, Placement::Chunked { parts: 4 });
    let mut cfg_a = JoinConfig::new(threads);
    cfg_a.simulate = false;
    let mut cfg_b = JoinConfig::new(threads);
    cfg_b.simulate = false;
    for alg in [Algorithm::Pro, Algorithm::Cprl] {
        let a = Join::new(alg)
            .with_config(cfg_a.clone())
            .run(&r, &s)
            .unwrap();
        let b = Join::new(alg)
            .with_config(cfg_b.clone())
            .run(&r, &s)
            .unwrap();
        assert_eq!(a.matches, 8_000);
        assert_eq!(a.checksum, b.checksum);
        // Both runs carried executor counters in every phase.
        for res in [&a, &b] {
            assert!(
                res.phases.iter().all(|p| p.exec.tasks > 0),
                "{alg}: {:?}",
                res.phases
            );
        }
    }
    let a = cfg_a.executor();
    let b = cfg_b.executor();
    assert!(Arc::ptr_eq(&a, &b), "same thread count, same pool");
    assert_eq!(a.spawned_workers(), threads);
}
