//! Several joins at once from several submitting threads — the
//! service's normal state. Each submitter runs its joins on a pool of its
//! own (`JoinConfig::executor` is the calling thread's), and every join
//! must come back with the reference answer and with *its own* executor
//! counters and worker spans: nothing another join does can leak into a
//! `PhaseStat` (DESIGN.md §5, §10). One pool shared by two submitters is
//! `executor::tests::concurrent_submitters_see_only_their_own_work`.
//!
//! Per result:
//! * checksum and match count equal `core::reference`;
//! * every phase that runs on the pool reports executor work;
//! * profiled ⇒ per phase, the worker spans' tasks and steals sum
//!   exactly to the phase's `ExecCounters`;
//! * unprofiled ⇒ no spans at all.
//!
//! And for the process: kernel mode and allocation policy are settings
//! no join writes, so they read the same after the storm as before it.
//! Two submitters that set opposite ones for themselves at once each run
//! every phase under their own.

use std::sync::{Arc, Barrier, Mutex};

use mmjoin::core::executor::Executor;
use mmjoin::core::reference::reference_join;
use mmjoin::core::{Algorithm, BuildSide, Join, JoinConfig, JoinResult, Pipeline};
use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
use mmjoin::util::kernels::{self, KernelMode};
use mmjoin::util::mem::{self, AllocPolicy};
use mmjoin::util::pool::WorkerPool;
use mmjoin::util::Placement;

const THREADS: usize = 3;
const SUBMITTERS: usize = 4;
const ROUNDS: usize = 3;

fn check(res: &JoinResult, profiled: bool, tag: &str) {
    for p in &res.phases {
        let tag = format!("{tag}/{}", p.name);
        // SHHJ's spill phase is sequential on the submitting thread.
        if p.name != "spill" {
            assert!(p.exec.tasks > 0, "{tag}: no executor work: {p:?}");
        }
        if profiled {
            let span_tasks: u64 = p.workers.iter().map(|w| w.tasks).sum();
            let span_steals: u64 = p.workers.iter().map(|w| w.steals).sum();
            assert_eq!(span_tasks, p.exec.tasks, "{tag}: span tasks vs aggregate");
            assert_eq!(
                span_steals, p.exec.steals,
                "{tag}: span steals vs aggregate"
            );
            assert!(p.workers.iter().all(|w| w.worker < THREADS), "{tag}");
        } else {
            assert!(p.workers.is_empty(), "{tag}: stray spans: {p:?}");
        }
    }
}

#[test]
fn concurrent_joins_keep_their_own_counters_and_spans() {
    let placement = Placement::Chunked { parts: THREADS };
    let r = gen_build_dense(6_000, 0xC0C0, placement);
    let s = gen_probe_fk(24_000, 6_000, 0xC0C1, placement);
    let expect = reference_join(&r, &s);
    let start = Barrier::new(SUBMITTERS);
    let pools = Mutex::new(Vec::new());
    let settings_before = (kernels::effective_mode(), mem::policy());

    std::thread::scope(|scope| {
        for submitter in 0..SUBMITTERS {
            let (r, s, start, pools) = (&r, &s, &start, &pools);
            scope.spawn(move || {
                // Every config below resolves to this submitter's pool;
                // all of them are alive at the barrier.
                let pool = Executor::shared(THREADS);
                pools.lock().unwrap().push(Arc::as_ptr(&pool) as usize);
                start.wait();
                for round in 0..ROUNDS {
                    for (i, alg) in Algorithm::WITH_EXTENSIONS.into_iter().enumerate() {
                        // Neighbouring submitters disagree on profiling
                        // for the same algorithm at the same time.
                        let profiled = (submitter + round + i) % 2 == 0;
                        let mut cfg = JoinConfig::new(THREADS);
                        cfg.simulate = false;
                        cfg.radix_bits = Some(4);
                        cfg.profile = profiled;
                        assert!(Arc::ptr_eq(&cfg.executor(), &pool));
                        let res = Join::new(alg)
                            .with_config(cfg)
                            .run(r, s)
                            .expect("valid plan");
                        let tag = format!("{alg} submitter={submitter} round={round}");
                        assert_eq!(res.matches, expect.count, "{tag}");
                        assert_eq!(res.checksum, expect.digest, "{tag}");
                        check(&res, profiled, &tag);
                    }
                }
            });
        }
    });
    let mut pools = pools.into_inner().unwrap();
    pools.sort_unstable();
    pools.dedup();
    assert_eq!(pools.len(), SUBMITTERS, "one pool per submitting thread");
    // The operator path, once: it shares the run object with the drivers.
    let mut cfg = JoinConfig::new(THREADS);
    cfg.simulate = false;
    let side = BuildSide::prepare(Algorithm::Nop, &r, &cfg).expect("build side");
    let fused = Pipeline::new()
        .with_stage(side)
        .with_config(cfg)
        .run(&s)
        .expect("pipeline");
    assert_eq!(fused.checksum, expect.digest);

    assert_eq!(
        (kernels::effective_mode(), mem::policy()),
        settings_before,
        "a join wrote a process-wide setting"
    );
}

/// Two submitters at once, one under the portable kernels and the
/// `portable` policy, one under the SIMD kernels and `thp`: both answer
/// as the reference does, every worker of every phase either submits
/// runs under its submitter's mode and policy, and only the `thp`
/// joins' phases draw on the arenas.
#[test]
fn two_scopes_at_once_keep_their_own_mode_and_policy() {
    let placement = Placement::Chunked { parts: THREADS };
    // Big enough that the partition outputs and tables are mapped.
    let r = gen_build_dense(20_000, 0xC2C0, placement);
    let s = gen_probe_fk(80_000, 20_000, 0xC2C1, placement);
    let expect = reference_join(&r, &s);
    let start = Barrier::new(2);
    let settings_before = (kernels::effective_mode(), mem::policy());

    std::thread::scope(|scope| {
        for (mode, policy) in [
            (KernelMode::Portable, AllocPolicy::Portable),
            (KernelMode::Simd, AllocPolicy::Thp),
        ] {
            let (r, s, expect, start) = (&r, &s, &expect, &start);
            scope.spawn(move || {
                kernels::with_mode(mode, || {
                    mem::with_policy(policy, || {
                        // `Simd` is `Portable` on a CPU without the kernels.
                        let want = (kernels::effective_mode(), policy);
                        let pool = Executor::shared(THREADS);
                        // What every worker of a broadcast and of a
                        // morsel phase on this thread's pool runs under.
                        let seen = || {
                            let seen = Mutex::new(Vec::new());
                            let note = || {
                                let got = (kernels::effective_mode(), mem::policy());
                                seen.lock().unwrap().push(got);
                            };
                            pool.broadcast(&|_| note());
                            pool.run_morsels(&[(0..4 * THREADS).collect()], &|_, _| note());
                            seen.into_inner().unwrap()
                        };
                        start.wait();
                        let mut arena = 0;
                        for round in 0..ROUNDS {
                            for alg in Algorithm::WITH_EXTENSIONS {
                                let tag = format!("{alg} {policy:?} round={round}");
                                let mut cfg = JoinConfig::new(THREADS);
                                cfg.simulate = false;
                                cfg.radix_bits = Some(4);
                                let res = Join::new(alg)
                                    .with_config(cfg)
                                    .run(r, s)
                                    .expect("valid plan");
                                assert_eq!(res.matches, expect.count, "{tag}");
                                assert_eq!(res.checksum, expect.digest, "{tag}");
                                for p in &res.phases {
                                    let drawn = p.alloc.mapped_blocks + p.alloc.pool_hits;
                                    if policy == AllocPolicy::Portable {
                                        assert_eq!(drawn, 0, "{tag}/{}: {:?}", p.name, p.alloc);
                                    }
                                    arena += drawn;
                                }
                                let seen = seen();
                                assert_eq!(seen.len(), THREADS + 4 * THREADS, "{tag}");
                                assert!(seen.iter().all(|&s| s == want), "{tag}: {seen:?}");
                            }
                        }
                        if policy == AllocPolicy::Thp && cfg!(target_os = "linux") {
                            assert!(arena > 0, "no thp join drew on the arenas");
                        }
                    })
                })
            });
        }
    });

    assert_eq!(
        (kernels::effective_mode(), mem::policy()),
        settings_before,
        "a scope leaked into the calling thread"
    );
}
