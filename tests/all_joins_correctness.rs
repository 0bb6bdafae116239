//! Integration: every one of the thirteen algorithms must produce the
//! reference join's match count and checksum on every workload class the
//! paper evaluates — uniform FK, skewed (Zipf), sparse domains, heavy
//! duplicates — across thread counts.

use mmjoin::core::reference::reference_join;
use mmjoin::core::{Algorithm, Join, JoinConfig, JoinResult};
use mmjoin::datagen::{
    gen_build_dense, gen_build_sparse, gen_probe_fk, gen_probe_of_keys, gen_probe_zipf,
};
use mmjoin::util::{Placement, Relation, Tuple};

fn cfg(threads: usize) -> JoinConfig {
    let mut c = JoinConfig::new(threads);
    c.simulate = false;
    c
}

fn run_join(alg: Algorithm, r: &Relation, s: &Relation, c: &JoinConfig) -> JoinResult {
    Join::new(alg)
        .with_config(c.clone())
        .run(r, s)
        .expect("valid plan")
}

fn check_all(r: &Relation, s: &Relation, threads: usize, domain: usize, label: &str) {
    let expect = reference_join(r, s);
    for alg in Algorithm::ALL {
        let mut c = cfg(threads);
        c.key_domain = domain;
        let res = run_join(alg, r, s, &c);
        assert_eq!(
            res.matches,
            expect.count,
            "{label}: {} with {threads} threads: count",
            alg.name()
        );
        assert_eq!(
            res.checksum,
            expect.digest,
            "{label}: {} with {threads} threads: checksum",
            alg.name()
        );
    }
}

#[test]
fn uniform_fk_workload_all_threads() {
    let n = 6_000;
    let placement = Placement::Chunked { parts: 4 };
    let r = gen_build_dense(n, 1, placement);
    let s = gen_probe_fk(n * 5, n, 2, placement);
    for threads in [1, 2, 4, 8] {
        check_all(&r, &s, threads, 0, "uniform");
    }
}

#[test]
fn skewed_zipf_workload() {
    let n = 3_000;
    let placement = Placement::Chunked { parts: 4 };
    let r = gen_build_dense(n, 3, placement);
    for theta in [0.51, 0.99] {
        let s = gen_probe_zipf(15_000, n, theta, 4, placement);
        check_all(&r, &s, 4, 0, &format!("zipf {theta}"));
    }
}

#[test]
fn sparse_domain_workload() {
    let n = 2_000;
    let k = 8;
    let placement = Placement::Chunked { parts: 4 };
    let (r, keys) = gen_build_sparse(n, k * n, 5, placement);
    let s = gen_probe_of_keys(10_000, &keys, 6, placement);
    check_all(&r, &s, 4, k * n, "sparse");
}

#[test]
fn probe_smaller_than_build() {
    // Worst-case-for-hash shape: |S| = |R| and even |S| < |R|.
    let n = 4_000;
    let placement = Placement::Chunked { parts: 2 };
    let r = gen_build_dense(n, 7, placement);
    let s = gen_probe_fk(n / 4, n, 8, placement);
    check_all(&r, &s, 3, 0, "small probe");
}

#[test]
fn single_tuple_relations() {
    let placement = Placement::Interleaved;
    let r = Relation::from_tuples(&[Tuple::new(1, 0)], placement);
    let s = Relation::from_tuples(&[Tuple::new(1, 9), Tuple::new(1, 10)], placement);
    check_all(&r, &s, 4, 0, "single");
}

#[test]
fn probe_misses_everything() {
    // Probe keys beyond the build domain: zero matches everywhere.
    let placement = Placement::Chunked { parts: 2 };
    let r = gen_build_dense(1_000, 9, placement);
    let far: Vec<Tuple> = (0..500).map(|i| Tuple::new(1_000_000 + i, i)).collect();
    let s = Relation::from_tuples(&far, placement);
    for alg in Algorithm::ALL {
        // Array joins need the domain to cover the probe keys.
        let mut c = cfg(2);
        c.key_domain = 1_100_000;
        let res = run_join(alg, &r, &s, &c);
        assert_eq!(res.matches, 0, "{}", alg.name());
    }
}

#[test]
fn radix_bits_sweep_stays_correct() {
    // Partitioned joins must be correct for extreme fanouts. MWAY at
    // bits 1 and 2 has fewer partitions than 4 × threads; at 12 most of
    // its 4096 partitions are empty in both the sort and the join.
    let n = 3_000;
    let placement = Placement::Chunked { parts: 4 };
    let r = gen_build_dense(n, 11, placement);
    let s = gen_probe_fk(9_000, n, 12, placement);
    let expect = reference_join(&r, &s);
    for bits in [1u32, 2, 8, 12] {
        for alg in [
            Algorithm::Prb,
            Algorithm::ProIs,
            Algorithm::Cprl,
            Algorithm::Cpra,
            Algorithm::Mway,
        ] {
            let mut c = cfg(4);
            c.radix_bits = Some(bits);
            let res = run_join(alg, &r, &s, &c);
            assert_eq!(res.matches, expect.count, "{} bits={bits}", alg.name());
            assert_eq!(res.checksum, expect.digest, "{} bits={bits}", alg.name());
        }
    }
}

#[test]
fn more_threads_than_tuples() {
    let placement = Placement::Interleaved;
    let r = gen_build_dense(10, 13, placement);
    let s = gen_probe_fk(7, 10, 14, placement);
    check_all(&r, &s, 32, 0, "tiny input, many threads");
}

/// A join worker builds every co-partition's table into the one buffer
/// it keeps, reset between tasks: a table must answer for its own
/// partition only, whether the one before it was larger, smaller, empty
/// or all one key. PRB (chained), two-pass PRO (all three tables) and
/// `join_index` (linear), from 4 partitions to PRB's 2^14.
///
/// Whether a shape's build keys repeat is the relation's to say, not the
/// configuration's: under the default configuration every hash and sort
/// driver, and a pipeline over every ported build side, answers the
/// reference join whatever the shape, and the array joins refuse a build
/// side whose keys repeat.
#[test]
fn co_partition_joins_with_one_table_per_worker() {
    use mmjoin::core::materialize::join_index;
    use mmjoin::core::pipeline::PORTED;
    use mmjoin::core::pro::join_pro_two_pass;
    use mmjoin::core::{BuildSide, JoinError, Pipeline, TableKind};
    use mmjoin::util::checksum::JoinChecksum;

    let rel = |tuples: Vec<Tuple>| Relation::from_tuples(&tuples, Placement::Chunked { parts: 4 });
    let probes = |keys: &mut dyn Iterator<Item = u32>| -> Relation {
        rel(keys
            .enumerate()
            .map(|(i, k)| Tuple::new(k, i as u32))
            .collect())
    };
    // Holes: every third key, so partitions hold 0 to a few hundred
    // build tuples and a worker's table shrinks and grows as it goes.
    let holes: Vec<Tuple> = (0..5_000).map(|i| Tuple::new(i * 3 + 1, i)).collect();
    // Each of 4,096 keys twice, spread over a 2^20 domain (an odd
    // multiplier permutes it) so that linear-probe clusters stay short;
    // 16 Ki probes, about one in six beyond the build's keys.
    let spread = |i: u32| (i.wrapping_mul(0x9E37_79B1) & ((1 << 20) - 1)) + 1;
    let twice: Vec<Tuple> = (0..8_192)
        .map(|i| Tuple::new(spread(i % 4_096), i))
        .collect();
    // Label, build, probe, and whether the build keys are unique.
    let shapes: [(&str, Relation, Relation, bool); 5] = [
        ("empty", rel(Vec::new()), probes(&mut (1..=300)), true),
        (
            "single row",
            rel(vec![Tuple::new(5, 1)]),
            probes(&mut (1..=40).chain([5, 5, 5 + (1 << 14)])),
            true,
        ),
        (
            "all-dup",
            rel((0..600).map(|i| Tuple::new(9, i)).collect()),
            probes(&mut [9, 10, 9, 9 + (1 << 7), 9].into_iter()),
            false,
        ),
        ("holes", rel(holes), probes(&mut (1..=20_000)), true),
        (
            "every key twice",
            rel(twice),
            probes(&mut (0..16_384).map(|i| spread(i * 7 % 5_000))),
            false,
        ),
    ];
    for (label, r, s, unique) in &shapes {
        let (expect, unique) = (reference_join(r, s), *unique);
        for threads in [1, 3, 8] {
            let mut c = cfg(threads);
            // Covers every shape's keys: an array join refuses a build
            // side for its repeated keys alone.
            c.key_domain = 1 << 21;
            let at = format!("{label}, {threads} threads");
            let refused = |what: &str, res: Result<(u64, u64), JoinError>| match res {
                Err(JoinError::InvalidConfig {
                    field: "unique_keys",
                    ..
                }) => {}
                other => panic!("{what}: {at}: expected the repeated-key refusal, got {other:?}"),
            };
            for alg in Algorithm::WITH_EXTENSIONS {
                let res = Join::new(alg).with_config(c.clone()).run(r, s);
                let res = res.map(|res| (res.matches, res.checksum));
                if alg.needs_dense_domain() && !unique {
                    refused(alg.name(), res);
                } else {
                    assert_eq!(res, Ok((expect.count, expect.digest)), "{alg}: {at}");
                }
            }
            for alg in PORTED {
                let res = BuildSide::prepare(alg, r, &c).and_then(|side| {
                    let pipeline = Pipeline::new().with_stage(side);
                    pipeline.with_config(c.clone()).run(s)
                });
                let res = res.map(|res| (res.matches, res.checksum));
                if alg.needs_dense_domain() && !unique {
                    refused(&format!("{alg} build side"), res);
                } else {
                    let want = Ok((expect.count, expect.digest));
                    assert_eq!(res, want, "{alg} build side: {at}");
                }
            }
            for bits in [2, 7, 14] {
                c.radix_bits = Some(bits);
                let at = format!("{label}, {bits} bits, {threads} threads");
                let same = |what: &str, count: u64, digest: u64| {
                    assert_eq!(
                        (count, digest),
                        (expect.count, expect.digest),
                        "{what}: {at}"
                    );
                };
                let prb = run_join(Algorithm::Prb, r, s, &c);
                same("PRB", prb.matches, prb.checksum);
                for kind in [TableKind::Chained, TableKind::Linear, TableKind::Array] {
                    let what = format!("two-pass PRO {kind:?}");
                    let res = join_pro_two_pass(r, s, &c, kind);
                    let res = res.map(|res| (res.matches, res.checksum));
                    if kind == TableKind::Array && !unique {
                        refused(&what, res); // an array slot holds one payload
                    } else {
                        let (count, digest) = res.expect("valid plan");
                        same(&what, count, digest);
                    }
                }
                let mut index = JoinChecksum::new();
                for m in join_index(r, s, &c).expect("valid plan") {
                    index.add(m.key, m.build_payload, m.probe_payload);
                }
                same("join_index", index.count, index.digest);
            }
        }
    }
}
