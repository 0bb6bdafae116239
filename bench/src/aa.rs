//! `--aa N`: the benchmark measured against itself. N pairs of runs per
//! workload, each pair on its own seed, the two sets ("A" and "B")
//! alternating which goes first. The same program is on both sides, so
//! everything this prints is the benchmark's own noise — which must
//! stay inside the bounds it asks later changes to respect.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use mmjoin_util::jsonv::{self, Value};
use mmjoin_util::stats::median;

use crate::spec::{self, Better, Workload};
use crate::stats::quartiles;

/// One plain run in a child process; its end-to-end metrics by name.
fn child_run(w: &Workload, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            w.name,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    crate::validate_line(line, false)?;
    let doc = jsonv::parse(line)?;
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        unreachable!("validated above");
    };
    Ok(metrics
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(Value::as_num);
            (k.clone(), value.expect("validated above"))
        })
        .collect())
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Interquartile range over median: the spread the acceptance check uses.
fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    (q3 - q1) / q2
}

fn max_deviation(xs: &[f64]) -> f64 {
    let m = median(xs);
    xs.iter().map(|x| (x - m).abs() / m).fold(0.0, f64::max)
}

pub fn run(pairs: usize, seconds: f64) -> ExitCode {
    let mut failed = false;
    for w in &spec::WORKLOADS {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for pair in 0..pairs {
            let seed = pair as u64 + 1;
            // Even pairs run A first, odd pairs B first.
            for side in [pair % 2, 1 - pair % 2] {
                match child_run(w, seed, seconds) {
                    Ok(metrics) => {
                        // Every run made, as it comes in.
                        let row: Vec<String> = spec::end_to_end()
                            .iter()
                            .map(|m| format!("{:.4}", metrics[&m.name]))
                            .collect();
                        eprintln!(
                            "aa: {} pair {} side {}: {}",
                            w.name,
                            pair + 1,
                            ["A", "B"][side],
                            row.join(" ")
                        );
                        for (k, v) in metrics {
                            sets[side].entry(k).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!(
            "\n{} — {pairs} pairs, {seconds} s runs\n{:<14} {:>11} {:>11} {:>8} {:>9} {:>9} {:>8} {:>6}",
            w.name, "metric", "median A", "median B", "B worse", "spread A", "spread B", "max dev", "bound"
        );
        for m in spec::end_to_end() {
            let (a, b) = (&sets[0][&m.name], &sets[1][&m.name]);
            let bound = spec::bound(&m.name);
            let worse = worsening(median(a), median(b), m.better);
            let (sa, sb) = if pairs >= 2 {
                (spread(a), spread(b))
            } else {
                (0.0, 0.0)
            };
            let dev = max_deviation(a).max(max_deviation(b));
            // Set-up's spread is reported but, as in the acceptance
            // check, only its medians are gated.
            let over = worse.abs() > bound || (m.name != "setup_s" && sa.max(sb) > bound);
            failed |= over;
            println!(
                "{:<14} {:>11.3} {:>11.3} {:>+7.1}% {:>8.1}% {:>8.1}% {:>7.1}% {:>5.0}%{}",
                m.name,
                median(a),
                median(b),
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                dev * 100.0,
                bound * 100.0,
                if over { "  OVER" } else { "" }
            );
        }
    }
    if failed {
        eprintln!("aa: a metric does not repeat within its bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!(worsening(100.0, 110.0, Better::Higher) < 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert!((spread(&xs) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert!((max_deviation(&[9.0, 10.0, 12.0]) - 0.2).abs() < 1e-12);
    }
}
