//! The benchmark's definition as data: workloads, metrics, bounds and
//! the pinned settings. `--spec` prints `BENCHMARK.json` from these
//! tables and the runner reports exactly the metrics they list, so the
//! committed file and the program cannot drift apart (a unit test
//! compares them).

use mmjoin_core::Algorithm;

/// The driver appends `--workload W --seed N --seconds S --trace T`; the
/// closing `--` hands those to the program instead of to cargo.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--bin",
    "mmjoin-wallbench",
    "--",
];
pub const PATHS: [&str; 1] = ["bench"];
pub const RUN_SECONDS: u64 = 36;

// Pinned settings, echoed at the top of every run (README, rules 4–5).
/// Allocation policy installed before the first join.
pub const ALLOC_POLICY: &str = "thp";
/// `MMJOIN_ARENA_POOL_MB`, set before the pool's first use.
pub const POOL_CAP_MB: usize = 2048;
/// Worker threads inside each join, in the join window and the server.
pub const JOIN_THREADS: usize = 2;
/// Server runner threads (the shipped default on a 2–4 core host).
pub const RUNNERS: usize = 2;
/// Closed-loop client connections of the load generator.
pub const CLIENTS: usize = 2;
/// Full set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Seconds of cycles per round, before the round's service segment.
pub const ROUND_JOIN_S: f64 = 1.5;
/// Share of `--seconds` that goes to the service window.
pub const SERVICE_SHARE: f64 = 0.25;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub build_rows: usize,
    pub probe_rows: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "probe_heavy",
        why: "1Mi dense-PK build x 10Mi uniform FK probe (paper 1:10): table reads and the scatter of S do the work; build-side work is noise",
        build_rows: 1 << 20,
        probe_rows: 10 << 20,
    },
    Workload {
        name: "build_heavy",
        why: "5Mi x 5Mi uniform: same tuple count, opposite use of the same layers (table writes, both-side partition and sort); a probe gain bought with a costlier build shows here",
        build_rows: 5 << 20,
        probe_rows: 5 << 20,
    },
    Workload {
        name: "small_fixed",
        why: "128Ki x 512Ki, build side L2-resident: kernels are nearly free, per-join fixed cost and service parse/admission/render dominate; kernel changes should move nothing here",
        build_rows: 128 << 10,
        probe_rows: 512 << 10,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seven joins that get a slice and an end-to-end metric each: the
/// paper's four black-box baselines, its two winners, and the three the
/// ROADMAP calls out (MWAY, PRB, CHTJ behind PRO).
pub const HEADLINE: [Algorithm; 7] = [
    Algorithm::Nop,
    Algorithm::Nopa,
    Algorithm::Chtj,
    Algorithm::Prb,
    Algorithm::Pro,
    Algorithm::Cprl,
    Algorithm::Mway,
];

/// The other seven drivers, folded into `mtps.rest` by geometric mean.
pub const REST: [Algorithm; 7] = [
    Algorithm::Prl,
    Algorithm::Pra,
    Algorithm::Cpra,
    Algorithm::ProIs,
    Algorithm::PrlIs,
    Algorithm::PraIs,
    Algorithm::Shhj,
];

/// The six hash-table kinds of `hashtable.*`.
pub const TABLES: [&str; 6] = ["chained", "linear", "array", "clinear", "carray", "cht"];
/// The three per-partition table kinds (`hashtable.*_part.*`).
pub const PART_TABLES: [&str; 3] = ["chained", "linear", "array"];

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn m(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// Relative worsening of a run-set median that counts as a regression:
/// three times the widest spread (interquartile range over median of ten
/// runs) the metric showed on any workload in the A/A sessions recorded
/// while building this, rounded up to a twentieth, between a tenth and
/// the quarter a benchmark may declare (README, "A/A record"). Set-up's
/// spread is not gated and it gets the widest bound.
pub fn bound(name: &str) -> f64 {
    match name {
        "rel.rest" | "peak_rss_mb" => 0.15,
        _ => 0.25,
    }
}

pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    let mut v = vec![m("setup_s", "s", Lower)];
    for a in HEADLINE {
        v.push(m(format!("rel.{}", a.name()), "x", Higher));
    }
    v.push(m("rel.rest", "x", Higher));
    v.push(m("serve_x.rps", "req/rep", Higher));
    v.push(m("serve_x.p50", "x", Lower));
    v.push(m("serve_x.p95", "x", Lower));
    v.push(m("peak_rss_mb", "MiB", Lower));
    v
}

pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    let mut v = Vec::new();
    for (n, unit, better) in [
        ("stream_copy_gbps", "GB/s", Higher),
        ("stream_nt_gbps", "GB/s", Higher),
        ("arena_acquire_warm_us", "us", Lower),
        ("arena_acquire_cold_us", "us", Lower),
        ("pool_hit_ratio", "ratio", Higher),
        ("minor_faults_per_rep", "count", Lower),
        ("spill_write_mbps", "MB/s", Higher),
        ("spill_read_mbps", "MB/s", Higher),
        ("jsonv_parse_mbps", "MB/s", Higher),
    ] {
        v.push(m(format!("util.{n}"), unit, better));
    }
    for n in ["dense_mtps", "fk_mtps", "zipf_mtps"] {
        v.push(m(format!("datagen.{n}"), "Mtuples/s", Higher));
    }
    for n in [
        "histogram_gbps",
        "scatter_swwcb_gbps",
        "chunked_gbps",
        "scatter_direct_gbps",
        "two_pass_gbps",
    ] {
        v.push(m(format!("partition.{n}"), "GB/s", Higher));
    }
    v.push(m("partition.max_part_ratio", "ratio", Lower));
    for t in TABLES {
        v.push(m(format!("hashtable.build_ns.{t}"), "ns", Lower));
        v.push(m(format!("hashtable.probe_ns.{t}"), "ns", Lower));
    }
    for t in PART_TABLES {
        v.push(m(format!("hashtable.build_ns_part.{t}"), "ns", Lower));
        v.push(m(format!("hashtable.probe_ns_part.{t}"), "ns", Lower));
    }
    for n in ["network_mtps", "run_formation_mtps", "merge_mtps"] {
        v.push(m(format!("sort.{n}"), "Mtuples/s", Higher));
    }
    for a in Algorithm::WITH_EXTENSIONS {
        let a = a.name();
        v.push(m(format!("core.mtps.{a}"), "Mtuples/s", Higher));
        v.push(m(format!("core.rep_ratio_p50.{a}"), "ratio", Lower));
        v.push(m(format!("core.prep_ms.{a}"), "ms", Lower));
        v.push(m(format!("core.match_ms.{a}"), "ms", Lower));
    }
    v.push(m("core.executor_dispatch_us", "us", Lower));
    v.push(m("core.buildside_prepare_ms", "ms", Lower));
    v.push(m("core.pipeline_probe_ms", "ms", Lower));
    v.push(m("core.fused2_mtps", "Mtuples/s", Higher));
    v.push(m("core.shhj_spill_mtps", "Mtuples/s", Higher));
    v.push(m("core.portable_mtps.PRO", "Mtuples/s", Higher));
    v.push(m("core.portable_mtps.CPRL", "Mtuples/s", Higher));
    v.push(m("core.warmup_s", "s", Lower));
    v.push(m("core.field_ms", "ms", Lower));
    v.push(m("numamodel.simulate_overhead_pct", "%", Lower));
    v.push(m("numamodel.rank_tau", "ratio", Higher));
    v.push(m("tpch.q19_ms.NOPA", "ms", Lower));
    v.push(m("tpch.q19_ms.CPRL", "ms", Lower));
    for c in ["hot", "cold", "tight"] {
        v.push(m(format!("serve.p50_ms.{c}"), "ms", Lower));
    }
    for (n, unit, better) in [
        ("rps", "1/s", Higher),
        ("p50_ms", "ms", Lower),
        ("p95_ms", "ms", Lower),
        ("p99_ms", "ms", Lower),
        ("direct_p50_ms.hot", "ms", Lower),
        ("overhead_ms.hot", "ms", Lower),
        ("parse_request_us", "us", Lower),
        ("render_response_us", "us", Lower),
        ("frame_decode_mbps", "MB/s", Higher),
        ("stat_ms", "ms", Lower),
        ("cache_hit_ratio", "ratio", Higher),
        ("degraded_ratio", "ratio", Lower),
        ("spill_mb_per_degraded", "MiB", Lower),
    ] {
        v.push(m(format!("serve.{n}"), unit, better));
    }
    v.push(m("host.steal_ticks", "count", Lower));
    v.push(m("trace.spans", "count", Lower));
    v.push(m("trace.overhead_pct", "%", Lower));
    v
}

fn json_str_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Higher => "higher",
        Better::Lower => "lower",
    }
}

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": {},\n", json_str_list(&COMMAND)));
    out.push_str(&format!("  \"paths\": {},\n", json_str_list(&PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", rows.join(",\n")));
    let rows: Vec<String> = end_to_end()
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name,
                e.unit,
                better_str(e.better),
                bound(&e.name)
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        rows.join(",\n")
    ));
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                e.name,
                e.unit,
                better_str(e.better)
            )
        })
        .collect();
    out.push_str(&format!("  \"per_layer\": [\n{}\n  ]\n", rows.join(",\n")));
    out.push_str("}\n");
    out
}

/// The pinned settings as one line, printed at the top of every run.
pub fn settings_line() -> String {
    format!(
        "alloc_policy={ALLOC_POLICY} pool_cap_mb={POOL_CAP_MB} join_threads={JOIN_THREADS} \
         runners={RUNNERS} clients={CLIENTS} (closed loop) setup_reps={SETUP_REPS} \
         round={ROUND_JOIN_S}s of cycles + service at {SERVICE_SHARE} of the round"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_util::jsonv;
    use std::collections::HashSet;

    #[test]
    fn committed_benchmark_json_is_what_spec_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path bench/Cargo.toml -- --spec > BENCHMARK.json"
        );
    }

    #[test]
    fn spec_meets_the_file_contract() {
        let doc = jsonv::parse(&benchmark_json()).expect("valid JSON");
        let jsonv::Value::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(benchmark_json().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!(e2e.iter().any(|e| e.name == "setup_s" && e.unit == "s"));
        let mut seen = HashSet::new();
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name.to_string()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for e in e2e.iter().chain(&layers) {
            assert!(name_ok(&e.name), "{}", e.name);
            assert!(seen.insert(e.name.clone()), "duplicate {}", e.name);
            assert!(
                e.unit.len() <= 16
                    && e.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                e.unit
            );
        }
        let widest = e2e.iter().map(|e| bound(&e.name)).fold(0.0, f64::max);
        assert!(widest <= 0.25);
        assert_eq!(bound("setup_s"), widest);
    }

    #[test]
    fn headline_and_rest_cover_the_fourteen_drivers_once() {
        let all: HashSet<_> = HEADLINE.iter().chain(&REST).collect();
        assert_eq!(all.len(), 14);
        assert!(Algorithm::WITH_EXTENSIONS.iter().all(|a| all.contains(a)));
    }
}
