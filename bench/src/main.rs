//! `mmjoin-wallbench`: the repository's wall-clock benchmark.
//!
//! ```text
//! mmjoin-wallbench --workload NAME --seed N --seconds S --trace 0|1
//! mmjoin-wallbench --spec                  # prints BENCHMARK.json
//! mmjoin-wallbench --aa N [--seconds S]    # A/A: N alternating run pairs per workload
//! mmjoin-wallbench --validate 0|1          # checks a run's last stdout line (stdin)
//! ```
//!
//! One run measures one workload: a join window (fourteen drivers,
//! timed from outside `Join::run`) interleaved with a service window
//! (an in-process `mmjoin-serve` driven over TCP), every result checked
//! against `reference_join`. The last stdout line is one JSON object;
//! everything for people goes to stderr. See `bench/README.md`.

mod aa;
mod layers;
mod run;
mod service;
mod spec;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::Read;
use std::process::ExitCode;

use mmjoin_util::jsonv::{self, Value};

use run::{Outcome, RunArgs};
use spec::Metric;

fn usage() -> ExitCode {
    eprintln!(
        "usage: mmjoin-wallbench --workload {{{}}} --seed N --seconds S --trace 0|1\n\
         \x20      mmjoin-wallbench --spec | --aa N [--seconds S] | --validate 0|1",
        spec::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs, in any order.
fn flags(args: &[String]) -> Option<BTreeMap<&str, &str>> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        out.insert(flag.strip_prefix("--")?, it.next()?.as_str());
    }
    Some(out)
}

/// The last stdout line: every metric the spec lists for this kind of
/// run, by name, with its unit.
fn result_line(outcome: &Outcome, wanted: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(wanted.len());
    for m in wanted {
        let v = outcome
            .metrics
            .get(&m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn wanted(trace: bool) -> Vec<Metric> {
    if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    }
}

/// Check a result line against the contract: exactly the four keys,
/// whole-number counts, and exactly the spec's metrics with their units.
pub fn validate_line(line: &str, trace: bool) -> Result<(), String> {
    let doc = jsonv::parse(line)?;
    let Value::Obj(members) = &doc else {
        return Err("result is not an object".into());
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("keys are {keys:?}"));
    }
    doc.get("correct")
        .and_then(Value::as_bool)
        .ok_or("correct is not a boolean")?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_num)
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .ok_or(format!("{key} is not a whole number"))
    };
    if count("attempted")? < 1.0 {
        return Err("attempted is below 1".into());
    }
    count("failed")?;
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    let wanted = wanted(trace);
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = wanted.iter().map(|m| m.name.as_str()).collect();
    if got != want {
        return Err(format!("metrics are {got:?}, the spec lists {want:?}"));
    }
    for (m, (_, v)) in wanted.iter().zip(metrics) {
        v.get("value")
            .and_then(Value::as_num)
            .ok_or(format!("{} has no numeric value", m.name))?;
        if v.get("unit").and_then(Value::as_str) != Some(m.unit) {
            return Err(format!("{} is not in {}", m.name, m.unit));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--spec"] {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let Some(flags) = flags(&args) else {
        return usage();
    };
    if let Some(trace) = flags.get("validate") {
        let mut text = String::new();
        if std::io::stdin().read_to_string(&mut text).is_err() {
            return usage();
        }
        let last = text.lines().last().unwrap_or("");
        return match validate_line(last, *trace == "1") {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("invalid result line: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let seconds = match flags.get("seconds").map(|s| s.parse::<f64>()) {
        None => spec::RUN_SECONDS as f64,
        Some(Ok(s)) if (1.0..=60.0).contains(&s) => s,
        Some(_) => return usage(),
    };
    if let Some(pairs) = flags.get("aa") {
        let Ok(pairs) = pairs.parse::<usize>() else {
            return usage();
        };
        return aa::run(pairs.max(1), seconds);
    }
    let (Some(w), Some(Ok(seed)), Some(trace)) = (
        flags.get("workload").and_then(|n| spec::workload(n)),
        flags.get("seed").map(|s| s.parse::<u64>()),
        flags.get("trace").filter(|t| ["0", "1"].contains(t)),
    ) else {
        return usage();
    };
    let run_args = RunArgs {
        workload: w,
        seed,
        seconds,
        trace: *trace == "1",
    };
    run::pin_process();
    let outcome = match run::run(&run_args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("{:<34} {:>14}  unit", "metric", "value");
    let wanted = wanted(run_args.trace);
    for m in &wanted {
        if let Some(v) = outcome.metrics.get(&m.name) {
            eprintln!("{:<34} {v:>14.4}  {}", m.name, m.unit);
        }
    }
    match result_line(&outcome, &wanted) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.failed > 0 {
        eprintln!(
            "error: {} of {} checked operations failed",
            outcome.failed, outcome.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(trace: bool) -> Outcome {
        Outcome {
            attempted: 10,
            failed: 0,
            metrics: wanted(trace)
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name.clone(), i as f64 + 0.5))
                .collect(),
        }
    }

    #[test]
    fn result_line_validates_for_both_kinds_of_run() {
        for trace in [false, true] {
            let line = result_line(&outcome(trace), &wanted(trace)).unwrap();
            validate_line(&line, trace).unwrap();
            // A plain run's line is not a traced run's line.
            assert!(validate_line(&line, !trace).is_err());
        }
    }

    #[test]
    fn result_line_refuses_missing_and_non_finite_metrics() {
        let mut o = outcome(false);
        o.metrics.remove("serve_x.rps");
        assert!(result_line(&o, &wanted(false)).is_err());
        let mut o = outcome(false);
        o.metrics.insert("serve_x.rps".into(), f64::NAN);
        assert!(result_line(&o, &wanted(false)).is_err());
    }

    #[test]
    fn validate_rejects_wrong_shapes() {
        let good = result_line(&outcome(false), &wanted(false)).unwrap();
        for bad in [
            good.replace("\"attempted\": 10", "\"attempted\": 0"),
            good.replace("\"attempted\": 10", "\"attempted\": 1.5"),
            good.replace("\"unit\": \"req/rep\"", "\"unit\": \"rps\""),
            good.replace("\"correct\": true, ", ""),
            "[]".to_string(),
        ] {
            assert!(validate_line(&bad, false).is_err(), "{bad}");
        }
    }

    #[test]
    fn flags_parse_pairs_only() {
        let args: Vec<String> = ["--seed", "3", "--trace", "0"].map(String::from).to_vec();
        assert_eq!(flags(&args).unwrap()["seed"], "3");
        assert!(flags(&args[..3]).is_none());
        assert!(flags(&["seed".to_string(), "3".to_string()]).is_none());
    }
}
