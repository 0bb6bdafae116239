//! Smoke-test the entire experiment harness: every registered
//! table/figure reproduction must run to completion (at a tiny scale)
//! and produce non-empty tables.

use mmjoin_bench::experiments::registry;
use mmjoin_bench::HarnessOpts;

fn tiny_opts() -> HarnessOpts {
    HarnessOpts {
        scale: 65536, // tiny: 128M paper tuples -> ~2k tuples
        threads: 2,
        sim_threads: 8,
        json: false,
    }
}

#[test]
fn every_experiment_runs_and_produces_rows() {
    let opts = tiny_opts();
    for (name, _, f) in registry() {
        let tables = f(&opts);
        assert!(!tables.is_empty(), "{name} produced no tables");
        for t in &tables {
            assert!(!t.rows.is_empty(), "{name}: table '{}' is empty", t.title);
            for row in &t.rows {
                assert_eq!(
                    row.len(),
                    t.headers.len(),
                    "{name}: ragged row in '{}'",
                    t.title
                );
            }
            // Rendering must not panic and must contain the title.
            let rendered = t.render();
            assert!(rendered.contains(&t.title));
        }
    }
}

#[test]
fn experiment_registry_covers_all_paper_artifacts() {
    let names: Vec<&str> = registry().iter().map(|(n, _, _)| *n).collect();
    for required in [
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "tab3", "tab4", "pipeline",
    ] {
        assert!(names.contains(&required), "missing experiment {required}");
    }
}

#[test]
fn json_serialization_works() {
    let opts = tiny_opts();
    let (_, _, f) = registry()
        .into_iter()
        .find(|(n, _, _)| *n == "fig1")
        .unwrap();
    let tables = f(&opts);
    let json = mmjoin_bench::harness::tables_to_json(&tables);
    assert!(json.contains("Figure 1"));
}

/// Figure 1's simulated column at `repro`'s default scale, pinned: the
/// cost model's description of the four black-box joins (PRB's is 2^14
/// join tasks on 32 simulated threads) and the simulator that runs it
/// may get faster, not different. EXPERIMENTS.md quotes these numbers.
#[test]
fn fig1_simulated_throughput_is_pinned() {
    let (_, _, fig1) = registry()
        .into_iter()
        .find(|(n, _, _)| *n == "fig1")
        .unwrap();
    let tables = fig1(&HarnessOpts {
        scale: 128,
        threads: 2,
        sim_threads: 32,
        json: false,
    });
    let column: Vec<(&str, &str)> = tables[0]
        .rows
        .iter()
        .map(|row| (row[0].as_str(), row[1].as_str()))
        .collect();
    let pinned = [
        ("MWAY", "126"),
        ("CHTJ", "367"),
        ("PRB", "372"),
        ("NOP", "676"),
    ];
    assert_eq!(column, pinned);
}
