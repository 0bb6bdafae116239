//! Robustness suite for the spilling hybrid hash join (DESIGN.md §13).
//!
//! The contract under test:
//!
//! * **Differential** — SHHJ's checksum equals the reference join's on
//!   uniform, Zipf-skewed, and duplicate-key workloads at every memory
//!   budget tier from unlimited down to 1/8 of the build bytes,
//!   including budgets that force recursive repartitioning.
//! * **Graceful degradation** — at 1/8 budget the classic in-memory
//!   drivers abort with `MemoryBudgetExceeded` while SHHJ completes.
//! * **Zero orphans** — cancellation, deadlines, injected I/O errors,
//!   and recursion-limit aborts all leave the spill directory empty.
//! * **Typed errors** — spill-file I/O failures surface as
//!   `JoinError::Io`; unseparable skew as `JoinError::SpillRecursionLimit`.

use mmjoin::core::reference::reference_join;
use mmjoin::core::shhj::SPILL_RECURSION_LIMIT;
use mmjoin::core::{Algorithm, Join, JoinConfig, JoinError, JoinResult};
use mmjoin::datagen::{gen_build_dense, gen_probe_fk, gen_probe_zipf};
use mmjoin::util::checksum::JoinChecksum;
use mmjoin::util::{Placement, Relation, Tuple};

const THREADS: usize = 4;

/// Build cardinality for the budget-tier workloads. Sized so the 1/8
/// tier (96 KB) still affords the spill machinery's fixed buffers while
/// forcing multi-level recursive repartitioning.
const BUILD_N: usize = 96_000;

fn placement() -> Placement {
    Placement::Chunked { parts: THREADS }
}

fn cfg(mem_limit: Option<usize>) -> JoinConfig {
    let mut c = JoinConfig::new(THREADS);
    c.simulate = false;
    c.mem_limit = mem_limit;
    c
}

fn run(
    alg: Algorithm,
    r: &Relation,
    s: &Relation,
    c: &JoinConfig,
) -> Result<JoinResult, JoinError> {
    Join::new(alg).with_config(c.clone()).run(r, s)
}

/// Unlimited, comfortably resident, and progressively starved budgets
/// relative to the build side's tuple bytes.
fn budget_tiers(build_bytes: usize) -> Vec<(&'static str, Option<usize>)> {
    vec![
        ("none", None),
        ("2x", Some(build_bytes * 2)),
        ("1x", Some(build_bytes)),
        ("1/2", Some(build_bytes / 2)),
        ("1/4", Some(build_bytes / 4)),
        ("1/8", Some(build_bytes / 8)),
    ]
}

/// A build relation where every key appears twice (payloads differ), to
/// exercise SHHJ's full-collision-run probes and reversed-role builds.
/// Keys start at 1: 0 is the linear tables' empty-slot sentinel, which
/// none of the study's generators produce either.
fn gen_build_dup(pairs: usize) -> Relation {
    let tuples: Vec<Tuple> = (0..2 * pairs)
        .map(|i| Tuple::new((i % pairs) as u32 + 1, i as u32))
        .collect();
    Relation::from_tuples(&tuples, placement())
}

fn assert_matches_reference(label: &str, expect: &JoinChecksum, res: &JoinResult) {
    assert_eq!(res.matches, expect.count, "{label}: match count");
    assert_eq!(res.checksum, expect.digest, "{label}: checksum");
}

#[test]
fn shhj_matches_reference_across_budget_tiers() {
    let workloads: Vec<(&str, Relation, Relation)> = vec![
        (
            "uniform",
            gen_build_dense(BUILD_N, 11, placement()),
            gen_probe_fk(3 * BUILD_N, BUILD_N, 12, placement()),
        ),
        (
            "zipf",
            gen_build_dense(BUILD_N, 11, placement()),
            gen_probe_zipf(3 * BUILD_N, BUILD_N, 0.9, 13, placement()),
        ),
        (
            "dup-key",
            gen_build_dup(BUILD_N / 2),
            gen_probe_fk(BUILD_N, BUILD_N / 2, 14, placement()),
        ),
    ];
    for (name, r, s) in workloads {
        let expect = reference_join(&r, &s);
        let build_bytes = r.len() * 8;
        for (tier, budget) in budget_tiers(build_bytes) {
            let c = cfg(budget);
            let label = format!("{name}@{tier}");
            let res = run(Algorithm::Shhj, &r, &s, &c)
                .unwrap_or_else(|e| panic!("{label}: SHHJ failed: {e}"));
            assert_matches_reference(&label, &expect, &res);
            let spill = res.spill_totals();
            match budget {
                // Fully resident: the budget never refuses, so nothing
                // may touch disk.
                None => assert_eq!(spill.bytes_spilled, 0, "{label}: spilled while unlimited"),
                // The starved tier must actually have degraded.
                Some(b) if b == build_bytes / 8 => {
                    assert!(spill.bytes_spilled > 0, "{label}: no spill at 1/8 budget");
                    assert!(spill.partitions_spilled > 0, "{label}: no evictions at 1/8");
                }
                Some(_) => {}
            }
        }
    }
}

#[test]
fn classic_drivers_abort_where_shhj_completes() {
    let r = gen_build_dense(BUILD_N, 21, placement());
    let s = gen_probe_fk(2 * BUILD_N, BUILD_N, 22, placement());
    let expect = reference_join(&r, &s);
    let budget = r.len(); // 1/8 of the build bytes

    let c = cfg(Some(budget));
    match run(Algorithm::Pro, &r, &s, &c) {
        Err(JoinError::MemoryBudgetExceeded {
            requested,
            limit,
            available,
            ..
        }) => {
            assert_eq!(limit, budget);
            assert!(requested > available, "refusal must be over-budget");
        }
        other => panic!("PRO at 1/8 budget: expected MemoryBudgetExceeded, got {other:?}"),
    }

    let res = run(Algorithm::Shhj, &r, &s, &c).expect("SHHJ completes at 1/8 budget");
    assert_matches_reference("SHHJ@1/8", &expect, &res);
    assert!(res.spill_totals().bytes_spilled > 0);

    // Spilling opt-out restores the classic cliff on the same driver.
    let mut no_spill = cfg(Some(budget));
    no_spill.spill = false;
    match run(Algorithm::Shhj, &r, &s, &no_spill) {
        Err(JoinError::MemoryBudgetExceeded { phase, .. }) => assert_eq!(phase, "partition"),
        other => panic!("SHHJ with spill=false: expected MemoryBudgetExceeded, got {other:?}"),
    }
}

/// A scratch parent directory for the join's spill dir, removed (with an
/// emptiness assertion) when dropped.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let path =
            std::env::temp_dir().join(format!("mmjoin-spilltest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir");
        ScratchDir(path)
    }

    fn assert_empty(&self, label: &str) {
        let leftover: Vec<_> = std::fs::read_dir(&self.0)
            .expect("scratch dir readable")
            .map(|e| e.expect("dir entry").path())
            .collect();
        assert!(
            leftover.is_empty(),
            "{label}: orphan spill files remain: {leftover:?}"
        );
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn cancel_mid_spill_returns_partial_stats_and_no_orphans() {
    let r = gen_build_dense(BUILD_N, 31, placement());
    let s = gen_probe_fk(2 * BUILD_N, BUILD_N, 32, placement());
    let scratch = ScratchDir::new("cancel");
    let mut c = cfg(Some(r.len())); // 1/8: the spill path is active
    c.spill_dir = Some(scratch.0.clone());
    c.cancel.cancel();
    match run(Algorithm::Shhj, &r, &s, &c) {
        Err(JoinError::Cancelled { partial, .. }) => {
            assert!(
                !partial.is_empty(),
                "cancelled join must surface completed phases"
            );
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    scratch.assert_empty("cancel");
}

#[test]
fn expired_deadline_mid_spill_returns_partial_stats_and_no_orphans() {
    let r = gen_build_dense(BUILD_N, 41, placement());
    let s = gen_probe_fk(2 * BUILD_N, BUILD_N, 42, placement());
    let scratch = ScratchDir::new("deadline");
    let mut c = cfg(Some(r.len()));
    c.spill_dir = Some(scratch.0.clone());
    c.deadline = Some(std::time::Duration::ZERO);
    match run(Algorithm::Shhj, &r, &s, &c) {
        Err(JoinError::Timedout { partial, .. }) => {
            assert!(!partial.is_empty(), "timed-out join must surface phases");
        }
        other => panic!("expected Timedout, got {other:?}"),
    }
    scratch.assert_empty("deadline");
}

#[test]
fn injected_io_error_surfaces_typed_and_clean() {
    let r = gen_build_dense(BUILD_N, 51, placement());
    let s = gen_probe_fk(2 * BUILD_N, BUILD_N, 52, placement());
    let scratch = ScratchDir::new("iofail");
    let mut c = cfg(Some(r.len()));
    c.spill_dir = Some(scratch.0.clone());
    let marker = scratch
        .0
        .file_name()
        .and_then(|n| n.to_str())
        .expect("scratch dir name")
        .to_string();
    {
        // Fail the 4th spill-file operation under our scratch dir (the
        // first writes land mid-scatter, on worker threads).
        let _g = mmjoin::util::spill::iofail::arm(&marker, 3);
        match run(Algorithm::Shhj, &r, &s, &c) {
            Err(JoinError::Io { phase, source }) => {
                assert!(
                    phase == "partition" || phase == "probe" || phase == "spill",
                    "Io in unexpected phase {phase:?}"
                );
                assert!(
                    source.contains("injected"),
                    "unexpected io error text: {source}"
                );
            }
            other => panic!("expected JoinError::Io, got {other:?}"),
        }
    }
    scratch.assert_empty("iofail");

    // Disarmed, the identical join succeeds in the same directory.
    let expect = reference_join(&r, &s);
    let res = run(Algorithm::Shhj, &r, &s, &c).expect("join after disarm");
    assert_matches_reference("post-iofail", &expect, &res);
    scratch.assert_empty("post-iofail");
}

#[test]
fn unseparable_skew_hits_typed_recursion_limit() {
    // Every tuple on both sides carries the same key: no radix pass can
    // split the partition, and the 80 KB budget can never hold the
    // 6000-tuple build side, so recursion must bottom out in the typed
    // error instead of looping or blowing the budget.
    let n = 6_000;
    let hot: Vec<Tuple> = (0..n).map(|i| Tuple::new(5, i as u32)).collect();
    let r = Relation::from_tuples(&hot, placement());
    let s = Relation::from_tuples(&hot, placement());
    let scratch = ScratchDir::new("skew");
    let mut c = cfg(Some(80 * 1024));
    c.spill_dir = Some(scratch.0.clone());
    c.radix_bits = Some(2);
    match run(Algorithm::Shhj, &r, &s, &c) {
        Err(JoinError::SpillRecursionLimit { depth, limit, .. }) => {
            assert_eq!(limit, SPILL_RECURSION_LIMIT);
            assert_eq!(depth, SPILL_RECURSION_LIMIT);
        }
        other => panic!("expected SpillRecursionLimit, got {other:?}"),
    }
    scratch.assert_empty("skew");
}

#[test]
fn spill_counters_attribute_bytes_to_phases() {
    let r = gen_build_dense(BUILD_N, 61, placement());
    let s = gen_probe_fk(2 * BUILD_N, BUILD_N, 62, placement());
    let c = cfg(Some(r.len())); // 1/8
    let res = run(Algorithm::Shhj, &r, &s, &c).expect("SHHJ at 1/8");
    let by_name = |name: &str| {
        res.phases
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("missing phase {name}"))
    };
    // R evictions are charged to the partition phase, S evictions to the
    // probe phase, recursion rewrites to the spill phase.
    assert!(by_name("partition").spill.bytes_spilled > 0);
    assert!(by_name("partition").spill.partitions_spilled > 0);
    assert!(by_name("probe").spill.bytes_spilled > 0);
    let total = res.spill_totals();
    assert_eq!(
        total.bytes_spilled,
        res.phases
            .iter()
            .map(|p| p.spill.bytes_spilled)
            .sum::<u64>()
    );
    assert!(total.recursion_depth >= 1, "1/8 budget must recurse");
}

/// Spilled pairs run on every worker, each under a reservation of its
/// own. At a budget that admits one loaded pair at a time, beside a
/// pair too big to load at all (it recurses, alone), 3 threads give the
/// reference's result and the 1-thread run's spill counters, and leave
/// no spill file behind; the driver's debug assertion checks that the
/// budget is back at zero after the spill phase.
#[test]
fn pairs_on_workers_spill_as_one_thread_does() {
    const BITS: u32 = 4;
    // 16 Ki dense keys per partition, and 24 Ki more in partition 0.
    const N: u32 = 1 << 18;
    let mut keys: Vec<u32> = (1..=N).collect();
    keys.extend((1..=24 << 10).map(|i| N + 16 * i));
    let build: Vec<Tuple> = keys.iter().map(|&k| Tuple::new(k, k ^ 0x5555)).collect();
    // Every key probed twice, in a scattered order.
    let probe: Vec<Tuple> = (0..2 * keys.len())
        .map(|i| Tuple::new(keys[i * 7919 % keys.len()], i as u32))
        .collect();
    let part = 16 << 10;
    let need = |n: usize| {
        let table = mmjoin::hashtable::TableSpec::hashed_partition(n, BITS).table_bytes();
        table + 2 * mmjoin::util::spill::READER_BYTES
    };
    let budget = need(part) + (16 << 10);
    assert!(budget < 2 * need(part) && need(part + (24 << 10)) > budget);

    let mut totals = Vec::new();
    for threads in [1, 3] {
        let placement = Placement::Chunked { parts: threads };
        let r = Relation::from_tuples(&build, placement);
        let s = Relation::from_tuples(&probe, placement);
        let scratch = ScratchDir::new(&format!("workers-{threads}"));
        let mut c = JoinConfig::new(threads);
        c.simulate = false;
        c.mem_limit = Some(budget);
        c.radix_bits = Some(BITS);
        c.spill_dir = Some(scratch.0.clone());
        let label = format!("{threads} threads");
        let res = run(Algorithm::Shhj, &r, &s, &c).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_matches_reference(&label, &reference_join(&r, &s), &res);
        scratch.assert_empty(&label);
        let spill = res.spill_totals();
        assert_eq!(
            spill.partitions_spilled, 17,
            "{label}: 16 evicted, 1 recursed"
        );
        assert_eq!(spill.recursion_depth, 1, "{label}");
        totals.push(spill);
    }
    assert_eq!(totals[0], totals[1], "3 threads spill as 1 does");
}

#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use mmjoin::core::fault::failpoints::{arm_local, FailAction};

    /// Panic injected into `point` must surface as `WorkerPanicked`
    /// naming `phase`, leave no temp files, and the next identical join
    /// must produce the reference checksum.
    fn assert_spill_panic_contained(point: &str, phase: &str, tag: &str) {
        let r = gen_build_dense(BUILD_N, 71, placement());
        let s = gen_probe_fk(2 * BUILD_N, BUILD_N, 72, placement());
        let expect = reference_join(&r, &s);
        let scratch = ScratchDir::new(tag);
        let mut c = cfg(Some(r.len())); // 1/8: all spill machinery active
        c.spill_dir = Some(scratch.0.clone());
        {
            let _g = arm_local(point, FailAction::Panic);
            match run(Algorithm::Shhj, &r, &s, &c) {
                Err(JoinError::WorkerPanicked {
                    phase: got,
                    payload,
                }) => {
                    assert_eq!(got, phase, "{point}: wrong phase label");
                    assert!(payload.contains("failpoint"), "{point}: {payload:?}");
                }
                other => panic!("{point}: expected WorkerPanicked, got {other:?}"),
            }
        }
        scratch.assert_empty(point);
        let res = run(Algorithm::Shhj, &r, &s, &c)
            .unwrap_or_else(|e| panic!("{point}: join after panic failed: {e}"));
        assert_eq!(res.matches, expect.count, "{point}: count after heal");
        assert_eq!(res.checksum, expect.digest, "{point}: checksum after heal");
        scratch.assert_empty(&format!("{point} (healed)"));
    }

    #[test]
    fn phase_panics_contained() {
        assert_spill_panic_contained("SHHJ.partition", "partition", "fp-part");
        assert_spill_panic_contained("SHHJ.probe", "probe", "fp-probe");
        assert_spill_panic_contained("SHHJ.spill", "spill", "fp-spill");
    }

    #[test]
    fn spill_io_loop_panics_contained() {
        assert_spill_panic_contained("SHHJ.spill.read", "spill", "fp-read");
        assert_spill_panic_contained("SHHJ.spill.recurse", "spill", "fp-recurse");
        assert_spill_panic_contained("SHHJ.spill.write", "spill", "fp-write");
    }
}
