//! The run ledger and the regression sentinel, end to end without
//! benchmarks: entry JSON round-trips through the vendored validator,
//! identical entries compare clean, a synthetic 2x slowdown is flagged
//! on exactly the perturbed cells, and cross-host comparisons are
//! refused unless forced.

use mmjoin::util::jsonv;
use mmjoin_bench::ledger::{self, Entry, Host, SampleSet};
use mmjoin_bench::sentinel::{self, CellStatus, CompareOpts};

/// A hand-built entry with fixed provenance: tests must not depend on
/// the git state or host the suite happens to run on.
fn entry(timestamp: u64, samples: Vec<SampleSet>) -> Entry {
    Entry {
        schema: ledger::SCHEMA_VERSION,
        kind: "test".to_string(),
        label: String::new(),
        timestamp,
        git_sha: "feedbeef".to_string(),
        git_dirty: false,
        host: Host {
            cpu_model: "Test CPU \u{1f680} v2".to_string(),
            threads_avail: 8,
            arch: "x86_64".to_string(),
            fingerprint: ledger::fingerprint_of("Test CPU \u{1f680} v2", 8, "x86_64"),
        },
        threads: 4,
        kernel_mode: "portable".to_string(),
        alloc_policy: "portable".to_string(),
        retried_trials: 1,
        failed_trials: 0,
        failed_resource_trials: 0,
        failed_io_trials: 0,
        samples,
    }
}

fn cell(algorithm: &str, secs: &[f64]) -> SampleSet {
    SampleSet {
        algorithm: algorithm.to_string(),
        workload: "quick".to_string(),
        kernel_mode: "portable".to_string(),
        secs: secs.to_vec(),
    }
}

#[test]
fn entry_json_round_trips_through_jsonv() {
    let e = entry(
        1_750_000_000,
        vec![cell("PRO", &[0.011, 0.0105, 0.0112]), cell("NOP", &[0.02])],
    );
    let line = e.to_json();
    let v = jsonv::parse(&line).expect("entry JSON parses");
    let back = Entry::from_value(&v).expect("entry JSON deserializes");
    assert_eq!(back, e, "to_json -> parse -> from_value is identity");
}

#[test]
fn identical_entries_report_zero_regressions() {
    let secs = [0.0100, 0.0103, 0.0101];
    let base = entry(1_000, vec![cell("PRO", &secs), cell("CPRL", &secs)]);
    let mut cand = entry(2_000, vec![cell("PRO", &secs), cell("CPRL", &secs)]);
    cand.git_sha = "cafef00d".to_string();
    let verdict =
        sentinel::compare_entries(&base, &cand, &CompareOpts::default()).expect("same host");
    assert!(
        verdict.regressions().is_empty(),
        "identical samples must not regress: {:?}",
        verdict.cells
    );
    assert!(verdict
        .cells
        .iter()
        .all(|c| c.status == CellStatus::Ok && c.delta.abs() < 1e-9));

    // The machine verdict must satisfy its own documented schema.
    let v = jsonv::parse(&verdict.to_json()).expect("verdict JSON parses");
    let problems = sentinel::validate_verdict(&v);
    assert!(
        problems.is_empty(),
        "verdict schema violations: {problems:?}"
    );
}

#[test]
fn synthetic_2x_slowdown_flags_exactly_the_perturbed_cells() {
    // Repeats with realistic jitter; CPRL is slowed 2x in the candidate.
    let pro = [0.0100, 0.0102, 0.0099, 0.0101];
    let cprl = [0.0070, 0.0072, 0.0069, 0.0071];
    let base = entry(1_000, vec![cell("PRO", &pro), cell("CPRL", &cprl)]);
    let slowed: Vec<f64> = cprl.iter().map(|s| s * 2.0).collect();
    let cand = entry(2_000, vec![cell("PRO", &pro), cell("CPRL", &slowed)]);
    let verdict =
        sentinel::compare_entries(&base, &cand, &CompareOpts::default()).expect("same host");

    let regressed: Vec<String> = verdict.regressions().iter().map(|c| c.key()).collect();
    assert_eq!(
        regressed,
        vec!["CPRL/quick/portable".to_string()],
        "exactly the perturbed cell is confirmed"
    );
    let cprl_cell = verdict
        .cells
        .iter()
        .find(|c| c.algorithm == "CPRL")
        .unwrap();
    assert!(
        (cprl_cell.delta - 1.0).abs() < 1e-9,
        "2x slowdown is a +100% delta, got {}",
        cprl_cell.delta
    );
    let pro_cell = verdict.cells.iter().find(|c| c.algorithm == "PRO").unwrap();
    assert_eq!(pro_cell.status, CellStatus::Ok, "untouched cell stays ok");

    // The regression survives into the machine verdict.
    let v = jsonv::parse(&verdict.to_json()).expect("verdict JSON parses");
    assert!(sentinel::validate_verdict(&v).is_empty());
    let regs = v
        .get("regressions")
        .and_then(|r| r.as_arr())
        .expect("regressions array");
    assert_eq!(regs.len(), 1);
    assert_eq!(
        regs[0].get("algorithm").and_then(|a| a.as_str()),
        Some("CPRL")
    );
}

#[test]
fn small_slowdown_without_significance_is_suspect_not_regressed() {
    // 10% median slowdown, but single samples: no Mann-Whitney p, no
    // bootstrap separation -> report, don't fail.
    let base = entry(1_000, vec![cell("PRO", &[0.0100])]);
    let cand = entry(2_000, vec![cell("PRO", &[0.0110])]);
    let verdict =
        sentinel::compare_entries(&base, &cand, &CompareOpts::default()).expect("same host");
    assert!(verdict.regressions().is_empty());
    assert_eq!(verdict.cells[0].status, CellStatus::Suspect);
    assert_eq!(verdict.cells[0].p_value, None);
}

#[test]
fn cross_host_comparison_is_refused_unless_forced() {
    let secs = [0.0100, 0.0101, 0.0102];
    let base = entry(1_000, vec![cell("PRO", &secs)]);
    let mut cand = entry(2_000, vec![cell("PRO", &secs)]);
    cand.host.cpu_model = "Other CPU".to_string();
    cand.host.fingerprint = ledger::fingerprint_of("Other CPU", 8, "x86_64");

    let err = sentinel::compare_entries(&base, &cand, &CompareOpts::default())
        .expect_err("cross-host must refuse by default");
    assert!(
        err.contains("--allow-cross-host"),
        "refusal names the escape hatch: {err}"
    );

    let forced = CompareOpts {
        allow_cross_host: true,
        ..CompareOpts::default()
    };
    let verdict = sentinel::compare_entries(&base, &cand, &forced).expect("forced comparison");
    assert!(verdict.cross_host, "verdict records the forced comparison");
    assert!(verdict.regressions().is_empty());
}

#[test]
fn ledger_append_and_read_all_round_trip_on_disk() {
    let dir = std::env::temp_dir().join(format!(
        "mmjoin-ledger-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let path = dir.join("nested").join("ledger.jsonl");
    let a = entry(1_000, vec![cell("PRO", &[0.01, 0.011])]);
    let b = entry(2_000, vec![cell("NOP", &[0.02])]);
    ledger::append(&path, &a).expect("append creates parent dirs");
    ledger::append(&path, &b).expect("append is additive");
    let read = ledger::read_all(&path).expect("ledger reads back");
    assert_eq!(read, vec![a, b]);
    std::fs::remove_dir_all(&dir).ok();
}
