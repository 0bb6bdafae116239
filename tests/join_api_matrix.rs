//! The thirteen algorithms through the `Join` front door: edge-case
//! matrix (empty build, empty probe, single tuples), refused thread
//! counts, and the no-respawn guarantee of the persistent executor.
//!
//! The spawn-counter assertions live here and nowhere else in this test
//! binary: `Executor::total_threads_spawned()` is process-global, so the
//! whole file pins every join to one thread count.

use mmjoin::core::{Algorithm, BuildSide, Executor, Join, JoinConfig, JoinError, JoinResult};
use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
use mmjoin::util::{Placement, Relation, Tuple};

const THREADS: usize = 3;

fn cfg() -> JoinConfig {
    let mut cfg = JoinConfig::new(THREADS);
    cfg.radix_bits = Some(4);
    cfg.simulate = false;
    cfg
}

fn run(alg: Algorithm, r: &Relation, s: &Relation) -> JoinResult {
    Join::new(alg)
        .with_config(cfg())
        .run(r, s)
        .expect("valid plan")
}

#[test]
fn edge_case_matrix_all_thirteen() {
    let empty = Relation::from_tuples(&[], Placement::Interleaved);
    let hundred = gen_build_dense(100, 81, Placement::Interleaved);
    let one_r = Relation::from_tuples(&[Tuple::new(1, 7)], Placement::Interleaved);
    let one_hit = Relation::from_tuples(&[Tuple::new(1, 9)], Placement::Interleaved);
    let one_miss = Relation::from_tuples(&[Tuple::new(77, 9)], Placement::Interleaved);
    for alg in Algorithm::ALL {
        assert_eq!(run(alg, &empty, &hundred).matches, 0, "{alg}: empty build");
        assert_eq!(run(alg, &hundred, &empty).matches, 0, "{alg}: empty probe");
        assert_eq!(run(alg, &empty, &empty).matches, 0, "{alg}: both empty");
        assert_eq!(run(alg, &one_r, &one_hit).matches, 1, "{alg}: single hit");
        let mut wide = cfg();
        wide.key_domain = 128; // cover key 77 for the array variants
        let miss = Join::new(alg)
            .with_config(wide)
            .run(&one_r, &one_miss)
            .expect("valid plan");
        assert_eq!(miss.matches, 0, "{alg}: single miss");
    }
}

/// A thread count past `MAX_THREADS` is refused where the configuration
/// enters — through `Join::run` and through `BuildSide::prepare` alike —
/// before `Executor::shared` is asked for a pool: `threads = 5000` set on
/// the field ran the join on 5000 parked workers until every entry point
/// validated.
#[test]
fn refused_thread_counts_spawn_no_workers() {
    let r = gen_build_dense(500, 83, Placement::Interleaved);
    let s = gen_probe_fk(1_000, 500, 84, Placement::Interleaved);
    let mut cfg = cfg();
    cfg.threads = 5000;
    let refused = |e: JoinError| match e {
        JoinError::InvalidConfig { field, value, .. } => {
            assert_eq!((field, value), ("threads", 5000))
        }
        other => panic!("unexpected error {other:?}"),
    };
    for alg in Algorithm::ALL {
        refused(
            Join::new(alg)
                .with_config(cfg.clone())
                .run(&r, &s)
                .unwrap_err(),
        );
    }
    refused(BuildSide::prepare(Algorithm::Nop, &r, &cfg).unwrap_err());
    // The other tests of this binary share the one pool of `THREADS`.
    assert!(Executor::total_threads_spawned() <= THREADS);
}

/// The tentpole guarantee: racing all thirteen algorithms creates at
/// most `THREADS` worker threads in the whole process, and re-racing
/// them spawns zero more — no join phase spawns threads once the pool
/// exists.
#[test]
fn thirteen_race_spawns_at_most_threads_workers() {
    let r = gen_build_dense(4_000, 85, Placement::Chunked { parts: 4 });
    let s = gen_probe_fk(16_000, 4_000, 86, Placement::Chunked { parts: 4 });
    let race = || {
        let mut counts = Vec::new();
        for alg in Algorithm::ALL {
            let res = run(alg, &r, &s);
            assert!(
                res.phases.iter().all(|p| p.exec.tasks > 0),
                "{alg}: every phase reports executor work: {:?}",
                res.phases
            );
            assert!(res.total_exec().tasks > 0, "{alg}");
            counts.push((res.matches, res.checksum));
        }
        counts
    };
    let first = race();
    assert!(first.iter().all(|&(m, c)| (m, c) == first[0]), "{first:?}");
    // NOTE: the edge-case and refusal tests above may run
    // concurrently, but every join in this binary that is not refused
    // uses THREADS workers, so exactly one pool can ever exist in this
    // process.
    let spawned = Executor::total_threads_spawned();
    assert_eq!(spawned, THREADS, "one pool for the whole race");
    let second = race();
    assert_eq!(first, second);
    assert_eq!(
        Executor::total_threads_spawned(),
        spawned,
        "warm re-race spawned no threads"
    );
}
