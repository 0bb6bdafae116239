//! Differential suite for the fused operator pipeline (DESIGN.md §12):
//! for every ported driver and both kernel modes, a fused two-join chain
//! `(R1 ⋈ S) ⋈ R2 ON R1.payload = R2.key` must produce exactly the
//! matches and checksum of the materialized two-step baseline
//! (`materialize::chain_two_step`), across uniform, skewed, and
//! duplicate-key workloads.
//!
//! Lives in its own binary: `join_api_matrix.rs` pins a process-wide
//! thread count for its spawn-counter assertions, and this suite wants
//! its own.
//!
//! The kernel mode is a process setting; a chain runs under the scoped
//! `kernels::with_mode` override, and every test that sets it holds
//! [`mode_lock`] so parallel test threads cannot overwrite each other's
//! mode mid-chain.

use std::sync::{Mutex, MutexGuard};

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

fn mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn chain_cfg(unique: bool) -> JoinConfig {
    JoinConfig::builder()
        .with_threads(THREADS)
        .with_simulate(false)
        .with_unique_build_keys(unique)
        .build()
        .expect("valid config")
}

/// Fused two-stage pipeline vs. materialized two-step plan under
/// `mode`: identical matches and checksum, and the fused run reports the
/// intermediate tuples it never wrote. The caller holds [`mode_lock`].
fn assert_fused_equals_two_step(
    alg: Algorithm,
    r1: &Relation,
    r2: &Relation,
    s: &Relation,
    unique: bool,
    mode: KernelMode,
    tag: &str,
) {
    let cfg = chain_cfg(unique);
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
            fused.bytes_avoided > 0,
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
    let _mode = mode_lock();
    let (r1, r2) = chain_builds();
    let s = gen_probe_fk(M, N1, 103, Placement::Chunked { parts: 4 });
    for alg in PORTED {
        for mode in MODES {
            assert_fused_equals_two_step(alg, &r1, &r2, &s, true, mode, "uniform");
        }
    }
}

#[test]
fn skewed_chain_all_ported_drivers_both_kernel_modes() {
    let _mode = mode_lock();
    let (r1, r2) = chain_builds();
    let s = gen_probe_zipf(M, N1, 0.99, 104, Placement::Chunked { parts: 4 });
    for alg in PORTED {
        for mode in MODES {
            assert_fused_equals_two_step(alg, &r1, &r2, &s, true, mode, "zipf-0.99");
        }
    }
}

#[test]
fn duplicate_probe_key_chain_all_ported_drivers_both_kernel_modes() {
    let _mode = mode_lock();
    let (r1, r2) = chain_builds();
    // Every probe key drawn from the 97 hottest slots of R1's domain:
    // massive probe-side duplication, every probe a hit.
    let s = gen_probe_fk(M, 97, 105, Placement::Chunked { parts: 4 });
    for alg in PORTED {
        for mode in MODES {
            assert_fused_equals_two_step(alg, &r1, &r2, &s, true, mode, "dup-probe");
        }
    }
}

#[test]
fn duplicate_build_key_chain_multiset_drivers_both_kernel_modes() {
    let _mode = mode_lock();
    // Multiset build: every stage-1 key appears several times, so one
    // probe fans out into several chained probes. Only the hash-table
    // drivers accept duplicate build keys (array and concise-hash sides
    // hold one payload per key), and the PK assumption must be off.
    let dup: Vec<Tuple> = (0..N1)
        .map(|i| Tuple::new((i % 600) as u32 + 1, (i * 31 % N2) as u32 + 1))
        .collect();
    let r1 = Relation::from_tuples(&dup, Placement::Chunked { parts: 4 });
    let r2 = gen_build_dense(N2, 106, Placement::Chunked { parts: 4 });
    let s = gen_probe_fk(M / 4, 600, 107, Placement::Chunked { parts: 4 });
    for alg in [Algorithm::Nop, Algorithm::Pro, Algorithm::Prl] {
        for mode in MODES {
            assert_fused_equals_two_step(alg, &r1, &r2, &s, false, mode, "dup-build");
        }
    }
}

/// The fused flag on the classic `Join` front door agrees with the
/// explicit `Pipeline` composition for a single stage.
#[test]
fn join_with_pipeline_agrees_with_explicit_pipeline() {
    use mmjoin::core::Join;
    let r = gen_build_dense(N1, 108, Placement::Chunked { parts: 4 });
    let s = gen_probe_fk(M, N1, 109, Placement::Chunked { parts: 4 });
    for alg in PORTED {
        let via_join = Join::new(alg)
            .with_threads(THREADS)
            .with_simulate(false)
            .with_pipeline(true)
            .run(&r, &s)
            .expect("fused Join");
        let cfg = chain_cfg(true);
        let side = BuildSide::prepare(alg, &r, &cfg).expect("build side");
        let via_pipeline = Pipeline::new()
            .with_stage(side)
            .with_config(cfg)
            .run(&s)
            .expect("explicit pipeline");
        assert_eq!(via_join.matches, via_pipeline.matches, "{alg}");
        assert_eq!(via_join.checksum, via_pipeline.checksum, "{alg}");
    }
}
