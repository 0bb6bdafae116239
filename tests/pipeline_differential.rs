//! Differential suite for the fused operator pipeline (DESIGN.md §12):
//! for every ported driver and both kernel modes, a fused two-join chain
//! `(R1 ⋈ S) ⋈ R2 ON R1.payload = R2.key` must produce exactly the
//! matches and checksum of the materialized two-step baseline
//! (`materialize::chain_two_step`), across uniform, skewed, and
//! duplicate-key workloads. A second grid holds the radix router of
//! the partitioned sides (fan-out × batch × probe shape × workers ×
//! stage shape × key multiplicity) to `reference_join` /
//! `chain_two_step`.
//!
//! Lives in its own binary: `join_api_matrix.rs` pins a process-wide
//! thread count for its spawn-counter assertions, and this suite wants
//! its own.
//!
//! A chain runs under the scoped `kernels::with_mode` override, which
//! holds for the calling thread and the phases it submits: parallel
//! test threads cannot overwrite each other's mode mid-chain.

use mmjoin::core::materialize::chain_two_step;
use mmjoin::core::pipeline::{BuildSide, Pipeline, PORTED};
use mmjoin::core::{Algorithm, JoinConfig};
use mmjoin::datagen::{gen_build_dense, gen_build_linked, gen_probe_fk, gen_probe_zipf};
use mmjoin::util::kernels::{self, KernelMode};
use mmjoin::util::{Placement, Relation, Tuple};

const THREADS: usize = 4;
/// Stage-one build cardinality.
const N1: usize = 2_000;
/// Stage-two build cardinality (= stage one's payload link domain).
const N2: usize = 700;
/// Probe cardinality.
const M: usize = 8_000;

const MODES: [KernelMode; 2] = [KernelMode::Portable, KernelMode::Simd];

fn chain_cfg() -> JoinConfig {
    let mut cfg = JoinConfig::new(THREADS);
    cfg.simulate = false;
    cfg
}

/// Fused two-stage pipeline vs. materialized two-step plan under
/// `mode`: identical matches and checksum, and the fused run reports the
/// intermediate tuples it never wrote.
fn assert_fused_equals_two_step(
    alg: Algorithm,
    r1: &Relation,
    r2: &Relation,
    s: &Relation,
    mode: KernelMode,
    tag: &str,
) {
    let cfg = chain_cfg();
    let (base, fused) = kernels::with_mode(mode, || {
        // `Simd` degrades to `Portable` on CPUs without the kernels.
        let installed = kernels::effective_mode();
        let base = chain_two_step(r1, r2, s, alg, &cfg).expect("two-step baseline");
        let stage1 = BuildSide::prepare(alg, r1, &cfg).expect("stage-1 build side");
        let stage2 = BuildSide::prepare(alg, r2, &cfg).expect("stage-2 build side");
        let fused = Pipeline::new()
            .with_stage(stage1)
            .with_stage(stage2)
            .with_config(cfg)
            .run(s)
            .expect("fused pipeline");
        assert_eq!(
            kernels::effective_mode(),
            installed,
            "{alg}/{mode:?}/{tag}: mode overwritten mid-chain"
        );
        (base, fused)
    });
    assert_eq!(fused.matches, base.matches, "{alg}/{mode:?}/{tag}: matches");
    assert_eq!(
        fused.checksum, base.checksum,
        "{alg}/{mode:?}/{tag}: checksum"
    );
    if base.matches > 0 {
        assert!(
            fused.intermediate_matches > 0,
            "{alg}/{mode:?}/{tag}: a non-empty chain crosses the stage boundary"
        );
        assert!(
            fused.bytes_avoided() > 0,
            "{alg}/{mode:?}/{tag}: late materialization avoided bytes"
        );
    }
}

fn chain_builds() -> (Relation, Relation) {
    let r1 = gen_build_linked(N1, N2, 101, Placement::Chunked { parts: 4 });
    let r2 = gen_build_dense(N2, 102, Placement::Chunked { parts: 4 });
    (r1, r2)
}

#[test]
fn uniform_chain_all_ported_drivers_both_kernel_modes() {
    let (r1, r2) = chain_builds();
    let s = gen_probe_fk(M, N1, 103, Placement::Chunked { parts: 4 });
    for alg in PORTED {
        for mode in MODES {
            assert_fused_equals_two_step(alg, &r1, &r2, &s, mode, "uniform");
        }
    }
}

#[test]
fn skewed_chain_all_ported_drivers_both_kernel_modes() {
    let (r1, r2) = chain_builds();
    let s = gen_probe_zipf(M, N1, 0.99, 104, Placement::Chunked { parts: 4 });
    for alg in PORTED {
        for mode in MODES {
            assert_fused_equals_two_step(alg, &r1, &r2, &s, mode, "zipf-0.99");
        }
    }
}

#[test]
fn duplicate_probe_key_chain_all_ported_drivers_both_kernel_modes() {
    let (r1, r2) = chain_builds();
    // Every probe key drawn from the 97 hottest slots of R1's domain:
    // massive probe-side duplication, every probe a hit.
    let s = gen_probe_fk(M, 97, 105, Placement::Chunked { parts: 4 });
    for alg in PORTED {
        for mode in MODES {
            assert_fused_equals_two_step(alg, &r1, &r2, &s, mode, "dup-probe");
        }
    }
}

#[test]
fn duplicate_build_key_chain_multiset_drivers_both_kernel_modes() {
    // Multiset build: every stage-1 key appears several times, so one
    // probe fans out into several chained probes. Only the hash-table
    // drivers accept duplicate build keys (array and concise-hash sides
    // hold one payload per key); their probes find every match because
    // the relation's keys repeat.
    let dup: Vec<Tuple> = (0..N1)
        .map(|i| Tuple::new((i % 600) as u32 + 1, (i * 31 % N2) as u32 + 1))
        .collect();
    let r1 = Relation::from_tuples(&dup, Placement::Chunked { parts: 4 });
    let r2 = gen_build_dense(N2, 106, Placement::Chunked { parts: 4 });
    let s = gen_probe_fk(M / 4, 600, 107, Placement::Chunked { parts: 4 });
    for alg in [Algorithm::Nop, Algorithm::Pro, Algorithm::Prl] {
        for mode in MODES {
            assert_fused_equals_two_step(alg, &r1, &r2, &s, mode, "dup-build");
        }
    }
}

/// `Pipeline::run` returns the `JoinResult` a monolithic driver does.
/// One stage: the first stage's algorithm and radix bits, the monolithic
/// join's matches and checksum, no stage boundary crossed. Two stages:
/// every stage-one match crossed the boundary unmaterialized, twelve
/// bytes of `JoinMatch` avoided apiece, and the phases are both sides'
/// build phases followed by the one fused probe.
#[test]
fn pipeline_run_returns_the_join_result_of_its_chain() {
    use mmjoin::core::reference::reference_join;
    use mmjoin::core::Join;
    let (r1, r2) = chain_builds();
    let s = gen_probe_fk(M, N1, 109, Placement::Chunked { parts: 4 });
    let cfg = chain_cfg();
    for alg in PORTED {
        let first = BuildSide::prepare(alg, &r1, &cfg).expect("stage 1");
        let second = BuildSide::prepare(alg, &r2, &cfg).expect("stage 2");
        let one = Pipeline::new()
            .with_stage(first.clone())
            .with_config(cfg.clone())
            .run(&s)
            .expect("one stage");
        let direct = Join::new(alg).with_config(cfg.clone()).run(&r1, &s);
        let direct = direct.expect("monolithic join");
        assert_eq!(one.algorithm, alg);
        assert_eq!(one.radix_bits, first.radix_bits(), "{alg}");
        assert_eq!(one.radix_bits, direct.radix_bits, "{alg}");
        assert_eq!(one.matches, direct.matches, "{alg}");
        assert_eq!(one.checksum, direct.checksum, "{alg}");
        assert_eq!(one.intermediate_matches, 0, "{alg}");
        assert_eq!(one.bytes_avoided(), 0, "{alg}");

        let two = Pipeline::new()
            .with_stage(first.clone())
            .with_stage(second.clone())
            .with_config(cfg.clone())
            .run(&s)
            .expect("two stages");
        assert_eq!(two.algorithm, alg);
        assert_eq!(two.radix_bits, first.radix_bits(), "{alg}");
        let crossed = reference_join(&r1, &s).count;
        assert_eq!(two.intermediate_matches, crossed, "{alg}");
        assert_eq!(two.bytes_avoided(), 12 * crossed, "{alg}");
        let built = first.build_phases().iter().chain(second.build_phases());
        let names: Vec<&str> = built.map(|p| p.name).chain(["probe"]).collect();
        let got: Vec<&str> = two.phases.iter().map(|p| p.name).collect();
        assert_eq!(got, names, "{alg}");
    }
}

/// The router grid: a partitioned side routes each probe batch by radix
/// digit, in batches sized from its fan-out and morsels sized from the
/// worker count; whatever the combination, the answer is the reference
/// join's (one stage) or the materialized two-step plan's (two stages,
/// the second partitioned too, behind a partitioned or a global first).
#[test]
fn routed_probe_grid_matches_reference() {
    use mmjoin::core::reference::reference_join;
    // Just past the last key of `one_partition`, and just past one
    // morsel (16 Ki tuples), so the workers share the probe.
    const R1: usize = 13_000;
    const R2: usize = 3_000;
    const S: usize = 17_000;
    let place = Placement::Chunked { parts: 3 };
    // Keys 4096 k + 5 share their low 12 bits: one partition at every
    // fan-out of the grid.
    let one_partition: Vec<Tuple> = (0..S as u32)
        .map(|i| Tuple::new((i % 4) * 4096 + 5, i))
        .collect();
    let probe_tuples = [
        ("uniform", gen_probe_fk(S, R1, 201, place).tuples().to_vec()),
        ("one-partition", one_partition),
        (
            "zipf-0.99",
            gen_probe_zipf(S, R1, 0.99, 202, place).tuples().to_vec(),
        ),
        ("empty", Vec::new()),
        ("one-row", vec![Tuple::new(77, 9)]),
    ];
    // A multiset build over dense keys makes one collision run of a
    // linear table, and an all-matches probe walks all of it: the
    // duplicated-key half of the grid spreads its keys (both builds, the
    // link between them and the probe) over the u32 range, keeping the
    // four of `one_partition`.
    let spread = |key: u32| match key % 4096 {
        5 if key < 4 * 4096 => key,
        _ => key.wrapping_mul(0x9E37_79B1),
    };
    let spread_all = |tuples: &[Tuple], links: bool| -> Vec<Tuple> {
        let link = |p: u32| if links { spread(p) } else { p };
        tuples
            .iter()
            .map(|t| Tuple::new(spread(t.key), link(t.payload)))
            .collect()
    };
    let relation = |tuples: &[Tuple]| Relation::from_tuples(tuples, place);
    for unique in [true, false] {
        let dense2 = gen_build_dense(R2, 203, place);
        let (r1, r2, probes) = if unique {
            let probes = probe_tuples.each_ref().map(|(tag, t)| (*tag, relation(t)));
            (gen_build_linked(R1, R2, 204, place), dense2, probes)
        } else {
            // Duplicated build keys: each of 3 250 keys four times over.
            let dup: Vec<Tuple> = (0..R1)
                .map(|i| Tuple::new((i % (R1 / 4)) as u32 * 5 + 5, (i * 31 % R2) as u32 + 1))
                .collect();
            let probes = probe_tuples
                .each_ref()
                .map(|(tag, t)| (*tag, relation(&spread_all(t, false))));
            (
                relation(&spread_all(&dup, true)),
                relation(&spread_all(dense2.tuples(), false)),
                probes,
            )
        };
        // Array sides hold one payload a key.
        let algs: &[Algorithm] = if unique {
            &[Algorithm::Pro, Algorithm::Prl, Algorithm::Pra]
        } else {
            &[Algorithm::Pro, Algorithm::Prl]
        };
        let expected: Vec<[(u64, u64); 2]> = probes
            .iter()
            .map(|(_, s)| {
                let one = reference_join(&r1, s);
                let two = chain_two_step(&r1, &r2, s, Algorithm::Prl, &chain_cfg())
                    .expect("two-step baseline");
                [(one.count, one.digest), (two.matches, two.checksum)]
            })
            .collect();
        for threads in [1, 2, 3] {
            for bits in [1, 6, 12] {
                let cfg = |batch: usize| {
                    let mut cfg = JoinConfig::new(threads);
                    cfg.simulate = false;
                    cfg.radix_bits = Some(bits);
                    cfg.pipeline_batch = batch;
                    cfg
                };
                let global = BuildSide::prepare(Algorithm::Nop, &r1, &cfg(1024)).expect("NOP");
                for &alg in algs {
                    let first = BuildSide::prepare(alg, &r1, &cfg(1024)).expect("stage 1");
                    let second = BuildSide::prepare(alg, &r2, &cfg(1024)).expect("stage 2");
                    assert_eq!(first.radix_bits(), Some(bits));
                    let mut shapes = vec![
                        ("one stage", vec![first.clone()]),
                        ("two stages", vec![first, second.clone()]),
                    ];
                    if alg == Algorithm::Prl {
                        shapes.push(("global first", vec![global.clone(), second]));
                    }
                    for ((probe, s), expect) in probes.iter().zip(&expected) {
                        for batch in [1, 7, 1024, S + 1] {
                            for (shape, stages) in &shapes {
                                let tag = format!(
                                    "{alg} unique={unique} threads={threads} bits={bits} \
                                     {probe} batch={batch} {shape}"
                                );
                                let mut pipeline = Pipeline::new().with_config(cfg(batch));
                                for side in stages {
                                    pipeline = pipeline.with_stage(side.clone());
                                }
                                let got = pipeline.run(s).expect("fused pipeline");
                                let want = expect[stages.len() - 1];
                                assert_eq!((got.matches, got.checksum), want, "{tag}");
                            }
                        }
                    }
                }
            }
        }
    }
}
