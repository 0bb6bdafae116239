//! The observability layer across all thirteen algorithms: span/counter
//! invariants, profile-neutrality of results, and exporter validity.
//!
//! Invariants under test (DESIGN.md §10):
//! * per phase, the worker spans' task counts sum exactly to the
//!   aggregate `ExecCounters::tasks` drained at the same boundary (the
//!   spans and the counters describe the same broadcasts);
//! * steals never exceed tasks, per span and per phase;
//! * barrier idle time is bounded by `workers x phase wall`;
//! * enabling profiling changes no answer (matches, checksum);
//! * profiling off records no spans at all (the zero-cost path).
//!
//! Skew handling stays off here: cooperative co-partition splitting
//! nests inline broadcasts, which fold nested task counts into the
//! enclosing worker's span and void the per-phase sum invariant.

use mmjoin::core::{Algorithm, Join, JoinConfig, JoinResult};
use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
use mmjoin::util::{jsonv, Placement};

const THREADS: usize = 3;

fn run(alg: Algorithm, profile: bool) -> JoinResult {
    let placement = Placement::Chunked { parts: THREADS };
    let r = gen_build_dense(9_000, 0xB0B0, placement);
    let s = gen_probe_fk(36_000, 9_000, 0xB0B1, placement);
    let mut cfg = JoinConfig::new(THREADS);
    cfg.simulate = false;
    cfg.radix_bits = Some(4);
    cfg.profile = profile;
    let join = Join::new(alg).with_config(cfg);
    join.run(&r, &s).expect("valid plan")
}

#[test]
fn span_invariants_all_thirteen() {
    for alg in Algorithm::ALL {
        let res = run(alg, true);
        assert!(!res.phases.is_empty(), "{alg}");
        for p in &res.phases {
            assert!(
                !p.workers.is_empty(),
                "{alg}/{}: profiling on but no spans",
                p.name
            );
            let span_tasks: u64 = p.workers.iter().map(|w| w.tasks).sum();
            let span_steals: u64 = p.workers.iter().map(|w| w.steals).sum();
            assert_eq!(
                span_tasks, p.exec.tasks,
                "{alg}/{}: span tasks vs aggregate",
                p.name
            );
            assert_eq!(
                span_steals, p.exec.steals,
                "{alg}/{}: span steals vs aggregate",
                p.name
            );
            assert!(p.exec.steals <= p.exec.tasks, "{alg}/{}", p.name);
            for w in &p.workers {
                assert!(w.worker < THREADS, "{alg}/{}: worker id", p.name);
                assert!(w.steals <= w.tasks, "{alg}/{}: span steals", p.name);
            }
            // Idle time is measured inside the phase: no worker can wait
            // longer than the phase itself (slack for clock granularity).
            let bound = (THREADS as u128) * (p.wall.as_nanos() + 2_000_000);
            assert!(
                (p.exec.idle_ns as u128) <= bound,
                "{alg}/{}: idle {} ns > bound {bound} ns",
                p.name,
                p.exec.idle_ns
            );
        }
    }
}

#[test]
fn profiling_changes_no_answers() {
    for alg in Algorithm::ALL {
        let off = run(alg, false);
        let on = run(alg, true);
        assert_eq!(off.matches, on.matches, "{alg}");
        assert_eq!(off.checksum, on.checksum, "{alg}");
        // Same barrier structure either way.
        let names = |r: &JoinResult| -> Vec<&str> { r.phases.iter().map(|p| p.name).collect() };
        assert_eq!(names(&off), names(&on), "{alg}");
    }
}

#[test]
fn profiling_off_records_nothing() {
    for alg in [Algorithm::Nop, Algorithm::Cprl, Algorithm::Mway] {
        let res = run(alg, false);
        for p in &res.phases {
            assert!(p.workers.is_empty(), "{alg}/{}: stray spans", p.name);
            assert!(!p.counter_totals().any(), "{alg}/{}", p.name);
        }
    }
}

#[test]
fn exporters_emit_valid_json() {
    let results: Vec<JoinResult> = [Algorithm::Cprl, Algorithm::Nop]
        .into_iter()
        .map(|alg| run(alg, true))
        .collect();

    let trace = jsonv::parse(&mmjoin::core::observe::chrome_trace(&results)).expect("trace parses");
    let events = trace.as_arr().expect("trace is an array");
    assert!(events.len() > 4);
    for e in events {
        assert!(e.get("name").and_then(jsonv::Value::as_str).is_some());
        let ph = e.get("ph").and_then(jsonv::Value::as_str).expect("ph");
        assert!(matches!(ph, "X" | "M"), "unexpected phase type {ph}");
        assert!(e.get("pid").and_then(jsonv::Value::as_num).is_some());
        assert!(e.get("tid").and_then(jsonv::Value::as_num).is_some());
        if ph == "X" {
            for key in ["ts", "dur"] {
                assert!(
                    e.get(key).and_then(jsonv::Value::as_num).is_some(),
                    "complete event without {key}: {e:?}"
                );
            }
        }
    }
    // Two runs -> two distinct pids.
    let pids: std::collections::HashSet<u64> = events
        .iter()
        .filter_map(|e| e.get("pid").and_then(jsonv::Value::as_num))
        .map(|p| p as u64)
        .collect();
    assert_eq!(pids.len(), 2);

    let metrics = jsonv::parse(&mmjoin::core::observe::metrics(
        &results,
        Some(&mmjoin_bench::harness::meta_json()),
    ))
    .expect("metrics parse");
    let runs = metrics.get("runs").and_then(jsonv::Value::as_arr).unwrap();
    assert_eq!(runs.len(), 2);
    for (r, res) in runs.iter().zip(&results) {
        assert_eq!(
            r.get("algorithm").and_then(jsonv::Value::as_str),
            Some(res.algorithm.name())
        );
        assert_eq!(
            r.get("checksum").and_then(jsonv::Value::as_str),
            Some(format!("{:#018x}", res.checksum).as_str())
        );
        assert_eq!(
            r.get("matches").and_then(jsonv::Value::as_num),
            Some(res.matches as f64)
        );
        let phases = r.get("phases").and_then(jsonv::Value::as_arr).unwrap();
        assert_eq!(phases.len(), res.phases.len());
        for p in phases {
            assert!(p.get("name").and_then(jsonv::Value::as_str).is_some());
            for key in ["wall_ms", "tasks", "steals", "idle_ms"] {
                assert!(
                    p.get(key).and_then(jsonv::Value::as_num).is_some(),
                    "phase without numeric {key}: {p:?}"
                );
            }
            let workers = p.get("workers").and_then(jsonv::Value::as_arr).unwrap();
            assert!(!workers.is_empty());
            // Every native counter is a number, or `null` where the host
            // exposes no PMU: the schema is the same either way.
            for w in workers {
                for key in [
                    "cycles",
                    "instructions",
                    "llc_misses",
                    "dtlb_misses",
                    "task_clock_ns",
                ] {
                    assert!(
                        w.get(key).is_some_and(jsonv::Value::is_num_or_null),
                        "worker {key} must be a number or null: {w:?}"
                    );
                }
            }
        }
    }
    let meta = metrics.get("meta").expect("meta block");
    for key in ["cpu_model", "kernel_mode", "alloc_policy"] {
        assert!(
            meta.get(key).and_then(jsonv::Value::as_str).is_some(),
            "meta.{key} missing"
        );
    }
    assert!(meta
        .get("perf_counters")
        .and_then(jsonv::Value::as_bool)
        .is_some());
}
