//! `sentinel` — the run-ledger CLI: record provenance-stamped benchmark
//! entries and statistically compare them for regressions.
//!
//! ```text
//! sentinel record  [--ledger PATH] [--quick] [--reps N] [--algo NAME]...
//!                  [--label TEXT] [--threads N] [--scale N]
//! sentinel compare <A> <B> [--ledger PATH] [--threshold 5%] [--alpha P]
//!                  [--allow-cross-host] [--json] [--json-out PATH]
//! sentinel check   --baseline <sha|latest> [--ledger PATH] [--threshold 5%]
//!                  [--alpha P] [--allow-cross-host] [--json-out PATH]
//! sentinel list    [--ledger PATH]
//! sentinel perturb [--ledger PATH] [--factor F] [--algorithm NAME] [--mode M]
//! ```
//!
//! `<A>`/`<B>` select ledger entries: `latest`, `prev`, `#N` (0-based,
//! oldest first), or a git-sha prefix. `check` compares the newest
//! entry against the chosen baseline (`latest` = newest earlier entry
//! of the same kind on the same host fingerprint and thread count) and
//! exits non-zero on any confirmed regression — the CI gate. `perturb`
//! appends a copy of the newest entry with selected cells synthetically
//! slowed, used by the sentinel's own self-check. Exit codes: 0 pass,
//! 1 confirmed regression, 2 usage/IO/schema error.

use std::path::{Path, PathBuf};

use mmjoin_bench::harness::HarnessOpts;
use mmjoin_bench::ledger::{self, Entry};
use mmjoin_bench::sentinel::{self, CompareOpts};
use mmjoin_core::Algorithm;
use mmjoin_util::jsonv;

fn usage() -> ! {
    eprintln!(
        "usage: sentinel <record|compare|check|list|perturb> [options]\n\
         \x20 record  [--ledger PATH] [--quick] [--reps N] [--algo NAME]... [--label TEXT]\n\
         \x20 compare <A> <B> [--ledger PATH] [--threshold 5%] [--alpha P]\n\
         \x20         [--allow-cross-host] [--json] [--json-out PATH]\n\
         \x20 check   --baseline <sha|latest> [--ledger PATH] [--threshold 5%]\n\
         \x20         [--alpha P] [--allow-cross-host] [--json-out PATH]\n\
         \x20 list    [--ledger PATH]\n\
         \x20 perturb [--ledger PATH] [--factor F] [--algorithm NAME] [--mode M]\n\
         selectors: latest | prev | #N | git-sha prefix"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Flags shared by every subcommand; returns (ledger path, leftovers).
fn split_ledger_flag(args: Vec<String>) -> (PathBuf, Vec<String>) {
    let mut path = PathBuf::from(ledger::DEFAULT_PATH);
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--ledger" {
            match it.next() {
                Some(p) => path = PathBuf::from(p),
                None => fail("--ledger needs a value"),
            }
        } else {
            rest.push(a);
        }
    }
    (path, rest)
}

fn load(path: &Path) -> Vec<Entry> {
    match ledger::read_all(path) {
        Ok(entries) => entries,
        Err(e) => fail(&e),
    }
}

/// Emit the verdict (table + optional JSON), self-validate the JSON
/// against the documented schema, and exit with the gate's code.
fn finish(verdict: &sentinel::Verdict, json_stdout: bool, json_out: Option<&str>) -> ! {
    let doc = verdict.to_json();
    match jsonv::parse(&doc) {
        Ok(v) => {
            let errs = sentinel::validate_verdict(&v);
            if !errs.is_empty() {
                for e in &errs {
                    eprintln!("FAIL: {e}");
                }
                fail("verdict JSON failed its own schema check");
            }
        }
        Err(e) => fail(&format!("verdict JSON unparseable: {e}")),
    }
    if json_stdout {
        println!("{doc}");
        eprint!("{}", verdict.table().render());
    } else {
        verdict.table().print();
    }
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            fail(&format!("cannot write {path}: {e}"));
        }
        eprintln!("wrote {path}");
    }
    let regressions = verdict.regressions();
    let suspects = verdict.suspects();
    if !suspects.is_empty() {
        eprintln!(
            "note: {} suspect cell(s) past threshold without statistical backing; \
             rerun with more repeats",
            suspects.len()
        );
    }
    if regressions.is_empty() {
        eprintln!("sentinel: no confirmed regressions");
        std::process::exit(0);
    }
    eprintln!("sentinel: {} confirmed regression(s):", regressions.len());
    for c in &regressions {
        eprintln!(
            "  {} {:+.1}% ({:.2} -> {:.2} ms)",
            c.key(),
            c.delta * 100.0,
            c.median_baseline_s * 1e3,
            c.median_candidate_s * 1e3
        );
    }
    std::process::exit(1);
}

fn cmd_record(args: Vec<String>) -> ! {
    let (path, rest) = split_ledger_flag(args);
    let (hopts, rest) = HarnessOpts::parse(&rest).unwrap_or_else(|e| fail(&e));
    let mut quick = false;
    let mut reps = 0usize;
    let mut label = String::new();
    let mut algorithms: Vec<Algorithm> = Vec::new();
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--reps needs a positive integer"))
            }
            "--label" => label = it.next().unwrap_or_else(|| fail("--label needs a value")),
            "--algo" => {
                let name = it.next().unwrap_or_else(|| fail("--algo needs a value"));
                match Algorithm::from_name(&name) {
                    Some(alg) => algorithms.push(alg),
                    None => fail(&format!("unknown algorithm {name:?}")),
                }
            }
            other => fail(&format!("unknown option {other:?}")),
        }
    }
    if algorithms.is_empty() {
        algorithms = vec![Algorithm::Pro, Algorithm::Nop, Algorithm::Cprl];
    }
    if reps == 0 {
        reps = if quick { 3 } else { 5 };
    }
    eprintln!(
        "sentinel record: {} algorithm(s) x {reps} reps, quick={quick}, threads={}",
        algorithms.len(),
        hopts.threads
    );
    let samples = sentinel::sample_e2e(&hopts, &algorithms, reps, quick);
    let mut entry = Entry::stamped("sentinel", hopts.threads, samples);
    entry.label = label;
    if let Err(e) = ledger::append(&path, &entry) {
        fail(&format!("cannot append to {}: {e}", path.display()));
    }
    eprintln!("recorded {} into {}", entry.describe(), path.display());
    std::process::exit(0);
}

/// Parse the comparison flags shared by `compare` and `check`.
struct GateFlags {
    opts: CompareOpts,
    json_stdout: bool,
    json_out: Option<String>,
    positional: Vec<String>,
}

fn gate_flags(args: Vec<String>) -> GateFlags {
    let mut flags = GateFlags {
        opts: CompareOpts::default(),
        json_stdout: false,
        json_out: None,
        positional: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--threshold needs a value"));
                flags.opts.threshold = sentinel::parse_threshold(&v).unwrap_or_else(|e| fail(&e));
            }
            "--alpha" => {
                let v = it.next().unwrap_or_else(|| fail("--alpha needs a value"));
                flags.opts.alpha = v
                    .parse()
                    .ok()
                    .filter(|p: &f64| (0.0..=1.0).contains(p))
                    .unwrap_or_else(|| fail("--alpha needs a probability in [0, 1]"));
            }
            "--allow-cross-host" => flags.opts.allow_cross_host = true,
            "--json" => flags.json_stdout = true,
            "--json-out" => {
                flags.json_out = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--json-out needs a value")),
                )
            }
            other => flags.positional.push(other.to_string()),
        }
    }
    flags
}

fn cmd_compare(args: Vec<String>) -> ! {
    let (path, rest) = split_ledger_flag(args);
    let flags = gate_flags(rest);
    let [a, b] = flags.positional.as_slice() else {
        fail("compare needs exactly two selectors (latest | prev | #N | sha)");
    };
    let entries = load(&path);
    let base = sentinel::select(&entries, a).unwrap_or_else(|e| fail(&e));
    let cand = sentinel::select(&entries, b).unwrap_or_else(|e| fail(&e));
    let verdict = sentinel::compare_entries(base, cand, &flags.opts).unwrap_or_else(|e| fail(&e));
    finish(&verdict, flags.json_stdout, flags.json_out.as_deref());
}

fn cmd_check(args: Vec<String>) -> ! {
    let (path, rest) = split_ledger_flag(args);
    let mut baseline_sel: Option<String> = None;
    let mut passthrough = Vec::new();
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        if a == "--baseline" {
            baseline_sel = Some(
                it.next()
                    .unwrap_or_else(|| fail("--baseline needs a value")),
            );
        } else {
            passthrough.push(a);
        }
    }
    let baseline_sel =
        baseline_sel.unwrap_or_else(|| fail("check requires --baseline <sha|latest>"));
    let flags = gate_flags(passthrough);
    if !flags.positional.is_empty() {
        fail(&format!("unknown option {:?}", flags.positional[0]));
    }
    let entries = load(&path);
    if entries.is_empty() {
        fail("ledger is empty");
    }
    let candidate_idx = entries.len() - 1;
    let base = sentinel::baseline_for(
        &entries,
        candidate_idx,
        &baseline_sel,
        flags.opts.allow_cross_host,
    )
    .unwrap_or_else(|e| fail(&e));
    let verdict = sentinel::compare_entries(base, &entries[candidate_idx], &flags.opts)
        .unwrap_or_else(|e| fail(&e));
    finish(&verdict, flags.json_stdout, flags.json_out.as_deref());
}

fn cmd_list(args: Vec<String>) -> ! {
    let (path, rest) = split_ledger_flag(args);
    if !rest.is_empty() {
        fail(&format!("unknown option {:?}", rest[0]));
    }
    let entries = load(&path);
    println!(
        "{:<4} {:<40} {:>7} {:>8} {:>7} host",
        "idx", "entry", "cells", "threads", "mode"
    );
    for (i, e) in entries.iter().enumerate() {
        println!(
            "#{i:<3} {:<40} {:>7} {:>8} {:>7} {}",
            e.describe(),
            e.samples.len(),
            e.threads,
            e.kernel_mode,
            e.host.fingerprint
        );
    }
    std::process::exit(0);
}

fn cmd_perturb(args: Vec<String>) -> ! {
    let (path, rest) = split_ledger_flag(args);
    let mut factor = 2.0f64;
    let mut algorithm: Option<String> = None;
    let mut mode: Option<String> = None;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--factor" => {
                factor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|f: &f64| f.is_finite() && *f > 0.0)
                    .unwrap_or_else(|| fail("--factor needs a positive number"))
            }
            "--algorithm" => {
                algorithm = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--algorithm needs a value")),
                )
            }
            "--mode" => mode = Some(it.next().unwrap_or_else(|| fail("--mode needs a value"))),
            other => fail(&format!("unknown option {other:?}")),
        }
    }
    let entries = load(&path);
    let Some(last) = entries.last() else {
        fail("ledger is empty");
    };
    let mut entry = last.clone();
    entry.timestamp += 1;
    entry.label = format!("perturbed x{factor}");
    let mut touched = 0;
    for s in &mut entry.samples {
        let wanted = algorithm.as_deref().is_none_or(|a| a == s.algorithm)
            && mode.as_deref().is_none_or(|m| m == s.kernel_mode);
        if wanted {
            for x in &mut s.secs {
                *x *= factor;
            }
            eprintln!("perturbed {} x{factor}", s.key());
            touched += 1;
        }
    }
    if touched == 0 {
        fail("no cells matched --algorithm/--mode");
    }
    if let Err(e) = ledger::append(&path, &entry) {
        fail(&format!("cannot append to {}: {e}", path.display()));
    }
    eprintln!(
        "appended synthetic entry {} ({touched} cell(s) slowed x{factor})",
        entry.describe()
    );
    std::process::exit(0);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "record" => cmd_record(args),
        "compare" => cmd_compare(args),
        "check" => cmd_check(args),
        "list" => cmd_list(args),
        "perturb" => cmd_perturb(args),
        other => {
            eprintln!("unknown subcommand {other:?}");
            usage();
        }
    }
}
