//! Integration: the allocation policy must never change a join's
//! answer, only where its buffers live. All fourteen drivers are run
//! under the portable heap and THP arenas and must produce identical
//! checksums; forced syscall failures (`madvise` refused, mmap refused)
//! must degrade silently — the join succeeds, the fallback is recorded
//! in the result's per-phase alloc counters, never an error.
//!
//! The policy override and the failure-injection mask are the test
//! thread's own, carried into the workers of its joins; the arena pool
//! is the process's, so every test here serializes on one mutex and
//! empties the pool before releasing it.

use std::sync::{Mutex, MutexGuard, OnceLock};

use mmjoin::core::pro::PartTable;
use mmjoin::core::reference::reference_join;
use mmjoin::core::{
    Algorithm, BuildSide, Join, JoinConfig, JoinError, JoinResult, Pipeline, TableKind,
};
use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
use mmjoin::hashtable::TableSpec;
use mmjoin::partition::{histogram::histogram, RadixFn};
use mmjoin::util::mem::{self, AllocPolicy, FAIL_MADVISE, FAIL_MMAP};
use mmjoin::util::trace::NoTracer;
use mmjoin::util::{Placement, Relation};

/// Serialize tests and leave the pool empty on exit (including
/// panicking exits — the guard's Drop runs either way).
struct PolicyLock(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for PolicyLock {
    fn drop(&mut self) {
        mem::pool_clear();
    }
}

fn lock() -> PolicyLock {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let m = LOCK.get_or_init(|| Mutex::new(()));
    PolicyLock(m.lock().unwrap_or_else(|e| e.into_inner()))
}

fn workload(threads: usize) -> (Relation, Relation) {
    let n = 30_000;
    let placement = Placement::Chunked { parts: threads };
    let r = gen_build_dense(n, 91, placement);
    let s = gen_probe_fk(4 * n, n, 92, placement);
    (r, s)
}

fn cfg(threads: usize) -> JoinConfig {
    let mut c = JoinConfig::new(threads);
    c.simulate = false;
    c
}

/// One join of `alg` under `policy`, through the scoped override.
fn run_under(
    alg: Algorithm,
    threads: usize,
    policy: AllocPolicy,
    r: &Relation,
    s: &Relation,
) -> Result<JoinResult, JoinError> {
    mem::with_policy(policy, || {
        Join::new(alg).with_config(cfg(threads)).run(r, s)
    })
}

#[test]
fn all_drivers_identical_checksums_across_policies() {
    let _guard = lock();
    let threads = 4;
    let (r, s) = workload(threads);
    let expect = reference_join(&r, &s);
    for policy in [AllocPolicy::Portable, AllocPolicy::Thp] {
        for alg in Algorithm::WITH_EXTENSIONS {
            let res = run_under(alg, threads, policy, &r, &s)
                .unwrap_or_else(|e| panic!("{} under {}: {e}", alg.name(), policy.name()));
            assert_eq!(
                res.matches,
                expect.count,
                "{} under {}: count",
                alg.name(),
                policy.name()
            );
            assert_eq!(
                res.checksum,
                expect.digest,
                "{} under {}: checksum",
                alg.name(),
                policy.name()
            );
        }
    }
}

#[test]
fn mapped_policy_actually_maps_and_pools() {
    let _guard = lock();
    mem::pool_clear();
    let (r, s) = workload(2);
    let before = mem::stats();
    let run = || run_under(Algorithm::Pro, 2, AllocPolicy::Thp, &r, &s).expect("join under thp");
    run();
    let cold = mem::stats().delta(&before);
    assert!(cold.mapped_blocks > 0, "no arenas mapped under thp");
    let mark = mem::stats();
    run();
    let warm = mem::stats().delta(&mark);
    assert!(warm.pool_hits > 0, "second join did not reuse the pool");
}

/// A join's `alloc` counters are its own: NOP run while three other
/// submitters loop PRB joins on the same shared pool bills itself the
/// arena bytes it bills itself run alone (mapped or served by the pool —
/// which of the two depends on what the neighbours left there, their
/// sum does not). The counters were deltas of the process-wide totals,
/// so the service's normal state — two runners — put each request's
/// neighbours on its bill.
#[test]
fn concurrent_joins_do_not_bill_each_other() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let _guard = lock();
    let threads = 2;
    let (r, s) = workload(threads);
    let arena_bytes = |res: &JoinResult| {
        let totals = res.alloc_totals();
        totals.mapped_bytes + totals.pool_hit_bytes
    };
    let nop = || {
        Join::new(Algorithm::Nop)
            .with_config(cfg(threads))
            .run(&r, &s)
    };
    mem::with_policy(AllocPolicy::Thp, || {
        let alone = arena_bytes(&nop().expect("NOP alone"));
        assert!(alone > 0, "NOP's table must come out of an arena");
        let stop = AtomicBool::new(false);
        // Every neighbour has a join behind it and is in its loop
        // before NOP starts.
        let started = std::sync::Barrier::new(4);
        let crowded = std::thread::scope(|scope| {
            for _ in 0..3 {
                // A thread of its own takes the process policy: the
                // neighbours set `thp` themselves, to draw on the arenas.
                scope.spawn(|| {
                    mem::with_policy(AllocPolicy::Thp, || {
                        let prb = Join::new(Algorithm::Prb).with_config(cfg(threads));
                        prb.run(&r, &s).expect("PRB neighbour");
                        started.wait();
                        while !stop.load(Ordering::Relaxed) {
                            prb.run(&r, &s).expect("PRB neighbour");
                        }
                    })
                });
            }
            started.wait();
            let crowded = nop();
            stop.store(true, Ordering::Relaxed);
            crowded.expect("NOP among neighbours")
        });
        assert_eq!(arena_bytes(&crowded), alone);
    });
}

/// Unbudgeted SHHJ under THP keeps its resident state in one packed
/// block of tables and one buffer of R's tuples per worker, where it
/// used to map a 2 MiB page for every partition's table: at 64
/// partitions of 64 KiB tables its partition phase leases at most
/// 1 + workers blocks, and no more bytes than the residency plan
/// charges (tuples and tables, plus the routing scratch) and one
/// rounding page per block.
#[test]
fn unbudgeted_shhj_packs_its_resident_partitions() {
    let _guard = lock();
    let (threads, bits) = (2, 6);
    // 4 Ki tuples a partition: a 64 KiB table each.
    let n = 64 * 4096;
    let placement = Placement::Chunked { parts: threads };
    let r = gen_build_dense(n, 93, placement);
    let s = gen_probe_fk(2 * n, n, 94, placement);
    let mut c = cfg(threads);
    c.radix_bits = Some(bits);
    let res = mem::with_policy(AllocPolicy::Thp, || {
        Join::new(Algorithm::Shhj).with_config(c).run(&r, &s)
    })
    .expect("SHHJ under thp");
    let expect = reference_join(&r, &s);
    assert_eq!((res.matches, res.checksum), (expect.count, expect.digest));

    let f = RadixFn::new(bits);
    let tables: Vec<(usize, usize)> = histogram(r.tuples(), f)
        .into_iter()
        .map(|n| (n, TableSpec::hashed_partition(n, bits).table_bytes()))
        .collect();
    assert!(tables.iter().all(|&(_, bytes)| bytes >= 64 << 10));
    let plan: usize = tables.iter().map(|&(n, bytes)| n * 8 + bytes).sum();
    // At most a 128 Ki-tuple block and fan-out + 1 bounds a worker.
    let scratch = threads * ((128 << 10) + f.fanout() + 1) * 8;
    let blocks = 1 + threads;
    let alloc = res
        .phases
        .iter()
        .find(|p| p.name == "partition")
        .expect("a partition phase")
        .alloc;
    assert!(
        alloc.mapped_blocks + alloc.pool_hits <= blocks as u64,
        "{alloc:?}"
    );
    assert!(
        alloc.mapped_bytes + alloc.pool_hit_bytes <= (plan + scratch + blocks * (2 << 20)) as u64,
        "{alloc:?}, plan {plan}"
    );
}

/// A cached PRO/PRL/PRA build side under THP keeps its per-partition
/// tables in one packed block, where it used to map a 2 MiB page for
/// every table of 64 KiB or more: over 1 Mi dense rows `prepare` leases
/// the partition copy, the table block and a block a worker at most,
/// `memory_bytes()` counts at least what the partitions' own tables
/// would hold, and the arena holds no more than those bytes, the
/// partition copy and one rounding page — what a cache bounding
/// `memory_bytes()` keeps resident is what it counts.
#[test]
fn cached_partitioned_build_sides_pack_their_tables() {
    let _guard = lock();
    let threads = 2;
    let n = 1 << 20;
    let placement = Placement::Chunked { parts: threads };
    let r = gen_build_dense(n, 95, placement);
    let s = gen_probe_fk(n, n, 96, placement);
    let expect = reference_join(&r, &s);
    let c = cfg(threads);
    for (alg, kind) in [
        (Algorithm::Pro, TableKind::Chained),
        (Algorithm::Prl, TableKind::Linear),
        (Algorithm::Pra, TableKind::Array),
    ] {
        let before = mem::stats();
        let side = mem::with_policy(AllocPolicy::Thp, || BuildSide::prepare(alg, &r, &c))
            .unwrap_or_else(|e| panic!("{alg} under thp: {e}"));
        let d = mem::stats().delta(&before);

        // What each partition's own table of this kind holds built.
        let table = PartTable::for_join(&c, kind, n);
        assert_eq!(side.radix_bits(), Some(table.bits), "{alg}");
        let tables: usize = histogram(r.tuples(), RadixFn::new(table.bits))
            .into_iter()
            .filter(|&m| m > 0)
            .map(|m| {
                let mut built = table.unbuilt();
                table.build(&mut built, m, std::iter::empty(), &mut NoTracer);
                built.memory_bytes()
            })
            .sum();
        let held = side.memory_bytes();
        assert!(
            d.mapped_blocks + d.pool_hits <= 2 + threads as u64,
            "{alg}: {d:?}"
        );
        assert!(held >= tables, "{alg}: {held} < {tables}");
        let copy = n * 8;
        assert!(
            d.mapped_bytes + d.pool_hit_bytes <= (held + copy + (2 << 20)) as u64,
            "{alg}: {d:?}, memory_bytes {held}"
        );

        let res = Pipeline::new()
            .with_stage(side)
            .with_config(c.clone())
            .run(&s)
            .unwrap_or_else(|e| panic!("{alg} probe: {e}"));
        assert_eq!(
            (res.matches, res.checksum),
            (expect.count, expect.digest),
            "{alg}"
        );
    }
}

#[test]
fn hugepage_unavailable_degrades_silently_into_phase_stats() {
    let _guard = lock();
    let (r, s) = workload(2);
    let expect = reference_join(&r, &s);
    // A kernel that refuses MADV_HUGEPAGE (THP `never`, seccomp): the
    // arena keeps its plain pages, the join still answers. No pooled
    // block may serve it: only a fresh mapping is advised.
    mem::pool_clear();
    mem::set_force_fail(FAIL_MADVISE);
    let res = run_under(Algorithm::Pro, 2, AllocPolicy::Thp, &r, &s)
        .expect("madvise fallback must not fail the join");
    mem::set_force_fail(0);
    assert_eq!(res.checksum, expect.digest);
    let totals = res.alloc_totals();
    assert!(totals.degraded_page > 0, "page downgrade not recorded");
    assert!(totals.degraded(), "degraded() must reflect the downgrade");
    assert!(
        res.phases.iter().any(|p| p.alloc.degraded_page > 0),
        "the downgrade must land in some phase's counters"
    );
}

#[test]
fn mmap_refused_falls_back_to_heap() {
    let _guard = lock();
    let (r, s) = workload(2);
    let expect = reference_join(&r, &s);
    // mmap itself refused (strict rlimits, exotic kernels): every
    // would-be arena quietly becomes a heap allocation.
    mem::set_force_fail(FAIL_MMAP);
    let res = run_under(Algorithm::Pro, 2, AllocPolicy::Thp, &r, &s)
        .expect("heap fallback must not fail the join");
    mem::set_force_fail(0);
    assert_eq!(res.checksum, expect.digest);
    let totals = res.alloc_totals();
    assert!(totals.heap_fallback > 0, "heap fallback not recorded");
    assert_eq!(totals.mapped_blocks, 0, "nothing may map when mmap fails");
}

#[test]
fn portable_policy_records_nothing() {
    let _guard = lock();
    let (r, s) = workload(2);
    let res = run_under(Algorithm::Pro, 2, AllocPolicy::Portable, &r, &s).expect("portable join");
    let totals = res.alloc_totals();
    assert_eq!(totals, Default::default(), "portable must never touch mmap");
    assert!(!totals.degraded());
}

#[test]
fn join_index_round_trips_under_mapped_policy() {
    let _guard = lock();
    let (r, s) = workload(2);
    let expect = reference_join(&r, &s);
    let c = cfg(2);
    let portable = mem::with_policy(AllocPolicy::Portable, || {
        mmjoin::core::materialize::join_index(&r, &s, &c).expect("portable index")
    });
    let mapped = mem::with_policy(AllocPolicy::Thp, || {
        mmjoin::core::materialize::join_index(&r, &s, &c).expect("mapped index")
    });
    assert_eq!(portable.len() as u64, expect.count);
    assert_eq!(
        portable, mapped,
        "materialized output must be bit-identical"
    );
}

/// The pool serves a request from any idle range that holds it, not
/// only from a block of its exact length: after a PRO join of one shape
/// releases its buffers, a join of a smaller shape, whose buffers round
/// to other lengths, is carved from the released bytes and maps no new
/// block.
#[test]
fn a_smaller_join_is_carved_from_what_a_larger_one_released() {
    let _guard = lock();
    let threads = 2;
    let placement = Placement::Chunked { parts: threads };
    let shape = |n: usize, seed: u64| {
        let r = gen_build_dense(n, seed, placement);
        let s = gen_probe_fk(4 * n, n, seed + 1, placement);
        (r, s)
    };
    let (r1, s1) = shape(300_000, 71);
    let (r2, s2) = shape(200_000, 73);
    mem::pool_clear();
    let first = run_under(Algorithm::Pro, threads, AllocPolicy::Thp, &r1, &s1).expect("first join");
    let second =
        run_under(Algorithm::Pro, threads, AllocPolicy::Thp, &r2, &s2).expect("second join");
    let expect = reference_join(&r2, &s2);
    assert_eq!(second.checksum, expect.digest);
    let (a, b) = (first.alloc_totals(), second.alloc_totals());
    assert!(a.mapped_blocks > 0, "the first join maps its buffers");
    assert_eq!(
        b.mapped_blocks, 0,
        "the second join mapped {} B",
        b.mapped_bytes
    );
    assert!(b.pool_hits > 0);
}
