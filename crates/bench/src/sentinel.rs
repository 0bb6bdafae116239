//! The statistical regression sentinel: compares two run-ledger entries
//! cell by cell and issues a machine-checkable verdict.
//!
//! Cells join on `(algorithm, workload, kernel_mode)`; the entries
//! themselves must agree on thread count and host fingerprint (override
//! with `allow_cross_host` — verdicts are then advisory, and say so).
//! A cell only counts as a **confirmed regression** when the median
//! slowdown exceeds the threshold *and* the raw repeat vectors back it
//! up (`mmjoin_util::stats::judge_shift`: a Mann-Whitney U test at
//! `alpha`, or disjoint bootstrap confidence intervals of the median).
//! A slowdown past the threshold that clears neither bar is reported as
//! *suspect* but does not fail the check. See DESIGN.md §11 for the
//! verdict JSON schema.

use mmjoin_core::{Algorithm, Join, JoinConfig, JoinResult};
use mmjoin_util::jsonv::{quote, Value};
use mmjoin_util::stats::{judge_shift, ShiftTest, ShiftVerdict};

use crate::harness::{HarnessOpts, Table};
use crate::ledger::{json_num, Entry, SampleSet};

/// Knobs of one comparison.
#[derive(Clone, Debug)]
pub struct CompareOpts {
    /// Median slowdown that counts as a regression (0.05 = 5%).
    pub threshold: f64,
    /// Mann-Whitney significance level.
    pub alpha: f64,
    /// Compare entries from different hosts / thread counts anyway.
    pub allow_cross_host: bool,
    /// Bootstrap resample count per cell.
    pub boot_iters: usize,
    /// Bootstrap confidence level.
    pub confidence: f64,
    /// Bootstrap seed — fixed so re-running a verdict reproduces it.
    pub boot_seed: u64,
}

impl Default for CompareOpts {
    fn default() -> Self {
        CompareOpts {
            threshold: 0.05,
            alpha: 0.05,
            allow_cross_host: false,
            boot_iters: 2000,
            confidence: 0.95,
            boot_seed: 0x5EED_1E06,
        }
    }
}

/// Outcome of one joined cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Within threshold (or faster without clearing the improvement bar).
    Ok,
    /// Median speedup past the threshold, statistically backed.
    Improved,
    /// Median slowdown past the threshold but not statistically backed —
    /// rerun with more repeats before believing it.
    Suspect,
    /// Confirmed regression: slowdown past the threshold, statistically
    /// backed. Fails the check.
    Regressed,
}

impl CellStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Improved => "improved",
            CellStatus::Suspect => "suspect",
            CellStatus::Regressed => "regressed",
        }
    }
}

/// One joined `(algorithm, workload, kernel_mode)` comparison.
#[derive(Clone, Debug)]
pub struct Cell {
    pub algorithm: String,
    pub workload: String,
    pub kernel_mode: String,
    pub n_baseline: usize,
    pub n_candidate: usize,
    pub median_baseline_s: f64,
    pub median_candidate_s: f64,
    /// `median_candidate / median_baseline - 1` (positive = slower).
    pub delta: f64,
    /// Two-sided Mann-Whitney p over the raw vectors; `None` when either
    /// side has fewer than two samples.
    pub p_value: Option<f64>,
    pub ci_baseline_s: (f64, f64),
    pub ci_candidate_s: (f64, f64),
    pub status: CellStatus,
}

impl Cell {
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.algorithm, self.workload, self.kernel_mode)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"algorithm\": {}, \"workload\": {}, \"kernel_mode\": {}, \
             \"n_baseline\": {}, \"n_candidate\": {}, \
             \"median_baseline_s\": {}, \"median_candidate_s\": {}, \"delta\": {}, \
             \"p_value\": {}, \"ci_baseline_s\": [{}, {}], \"ci_candidate_s\": [{}, {}], \
             \"status\": {}}}",
            quote(&self.algorithm),
            quote(&self.workload),
            quote(&self.kernel_mode),
            self.n_baseline,
            self.n_candidate,
            json_num(self.median_baseline_s),
            json_num(self.median_candidate_s),
            json_num(self.delta),
            self.p_value.map_or("null".to_string(), json_num),
            json_num(self.ci_baseline_s.0),
            json_num(self.ci_baseline_s.1),
            json_num(self.ci_candidate_s.0),
            json_num(self.ci_candidate_s.1),
            quote(self.status.as_str())
        )
    }
}

/// The full result of comparing two entries.
#[derive(Clone, Debug)]
pub struct Verdict {
    pub baseline: Entry,
    pub candidate: Entry,
    pub threshold: f64,
    pub alpha: f64,
    /// True when host/thread guards were overridden.
    pub cross_host: bool,
    pub cells: Vec<Cell>,
    /// Join keys present only in the baseline entry.
    pub unmatched_baseline: Vec<String>,
    /// Join keys present only in the candidate entry.
    pub unmatched_candidate: Vec<String>,
}

impl Verdict {
    /// The confirmed regressions (the cells that fail a check).
    pub fn regressions(&self) -> Vec<&Cell> {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Regressed)
            .collect()
    }

    pub fn suspects(&self) -> Vec<&Cell> {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Suspect)
            .collect()
    }

    /// The machine verdict documented in DESIGN.md §11.
    pub fn to_json(&self) -> String {
        let entry_meta = |e: &Entry| {
            format!(
                "{{\"git_sha\": {}, \"git_dirty\": {}, \"timestamp\": {}, \"kind\": {}, \
                 \"label\": {}, \"threads\": {}, \"host_fingerprint\": {}}}",
                quote(&e.git_sha),
                e.git_dirty,
                e.timestamp,
                quote(&e.kind),
                quote(&e.label),
                e.threads,
                quote(&e.host.fingerprint)
            )
        };
        let cells: Vec<String> = self.cells.iter().map(Cell::to_json).collect();
        let regressions: Vec<String> = self.regressions().iter().map(|c| c.to_json()).collect();
        let str_arr = |keys: &[String]| {
            let items: Vec<String> = keys.iter().map(|k| quote(k)).collect();
            format!("[{}]", items.join(", "))
        };
        format!(
            "{{\"schema\": 1, \"baseline\": {}, \"candidate\": {}, \
             \"threshold\": {}, \"alpha\": {}, \"cross_host\": {}, \
             \"regressions\": [{}], \"cells\": [{}], \
             \"unmatched_baseline\": {}, \"unmatched_candidate\": {}}}",
            entry_meta(&self.baseline),
            entry_meta(&self.candidate),
            json_num(self.threshold),
            json_num(self.alpha),
            self.cross_host,
            regressions.join(", "),
            cells.join(", "),
            str_arr(&self.unmatched_baseline),
            str_arr(&self.unmatched_candidate)
        )
    }

    /// Human-readable comparison table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "sentinel: {} -> {}",
                self.baseline.describe(),
                self.candidate.describe()
            ),
            &["cell", "n", "base ms", "cand ms", "delta", "p", "status"],
        );
        for c in &self.cells {
            t.row(vec![
                c.key(),
                format!("{}v{}", c.n_baseline, c.n_candidate),
                format!("{:.2}", c.median_baseline_s * 1e3),
                format!("{:.2}", c.median_candidate_s * 1e3),
                format!("{:+.1}%", c.delta * 100.0),
                c.p_value.map_or("n/a".to_string(), |p| format!("{p:.3}")),
                c.status.as_str().to_string(),
            ]);
        }
        for k in &self.unmatched_baseline {
            t.note(format!("only in baseline: {k}"));
        }
        for k in &self.unmatched_candidate {
            t.note(format!("only in candidate: {k}"));
        }
        if self.cross_host {
            t.note("cross-host/thread comparison forced: verdicts are advisory");
        }
        t
    }
}

/// Compare `candidate` against `baseline`. Fails fast on host or thread
/// mismatch unless `opts.allow_cross_host`; an empty join (no shared
/// cells) is also an error, since a verdict over nothing would
/// otherwise read as a pass.
pub fn compare_entries(
    baseline: &Entry,
    candidate: &Entry,
    opts: &CompareOpts,
) -> Result<Verdict, String> {
    let mut cross = false;
    if baseline.host.fingerprint != candidate.host.fingerprint {
        if !opts.allow_cross_host {
            return Err(format!(
                "host fingerprints differ ({} [{}] vs {} [{}]); numbers from different \
                 machines are not comparable — pass --allow-cross-host to force",
                baseline.host.fingerprint,
                baseline.host.cpu_model,
                candidate.host.fingerprint,
                candidate.host.cpu_model
            ));
        }
        cross = true;
    }
    if baseline.threads != candidate.threads {
        if !opts.allow_cross_host {
            return Err(format!(
                "thread counts differ ({} vs {}); pass --allow-cross-host to force",
                baseline.threads, candidate.threads
            ));
        }
        cross = true;
    }
    if baseline.alloc_policy != candidate.alloc_policy {
        if !opts.allow_cross_host {
            return Err(format!(
                "alloc policies differ ({:?} vs {:?}); huge pages and NUMA placement \
                 shift every memory-bound cell — pass --allow-cross-host to force",
                baseline.alloc_policy, candidate.alloc_policy
            ));
        }
        cross = true;
    }
    let mut cells = Vec::new();
    let mut unmatched_baseline = Vec::new();
    for a in &baseline.samples {
        let Some(b) = candidate.samples.iter().find(|b| same_key(a, b)) else {
            unmatched_baseline.push(a.key());
            continue;
        };
        cells.push(judge(a, b, opts));
    }
    let unmatched_candidate: Vec<String> = candidate
        .samples
        .iter()
        .filter(|b| !baseline.samples.iter().any(|a| same_key(a, b)))
        .map(SampleSet::key)
        .collect();
    if cells.is_empty() {
        return Err(format!(
            "entries share no (algorithm, workload, kernel_mode) cells \
             ({} baseline-only, {} candidate-only)",
            unmatched_baseline.len(),
            unmatched_candidate.len()
        ));
    }
    Ok(Verdict {
        baseline: baseline.clone(),
        candidate: candidate.clone(),
        threshold: opts.threshold,
        alpha: opts.alpha,
        cross_host: cross,
        cells,
        unmatched_baseline,
        unmatched_candidate,
    })
}

fn same_key(a: &SampleSet, b: &SampleSet) -> bool {
    a.algorithm == b.algorithm && a.workload == b.workload && a.kernel_mode == b.kernel_mode
}

/// Judge one joined cell under `opts`.
fn judge(a: &SampleSet, b: &SampleSet, opts: &CompareOpts) -> Cell {
    let shift = judge_shift(
        &a.secs,
        &b.secs,
        &ShiftTest {
            threshold: opts.threshold,
            alpha: opts.alpha,
            min_samples: 2,
            boot_iters: opts.boot_iters,
            confidence: opts.confidence,
            boot_seed: opts.boot_seed,
        },
    );
    Cell {
        algorithm: a.algorithm.clone(),
        workload: a.workload.clone(),
        kernel_mode: a.kernel_mode.clone(),
        n_baseline: a.secs.len(),
        n_candidate: b.secs.len(),
        median_baseline_s: shift.median_a,
        median_candidate_s: shift.median_b,
        delta: shift.delta,
        p_value: shift.p_value,
        ci_baseline_s: shift.ci_a,
        ci_candidate_s: shift.ci_b,
        status: match shift.verdict {
            ShiftVerdict::Unchanged => CellStatus::Ok,
            ShiftVerdict::Higher => CellStatus::Regressed,
            ShiftVerdict::HigherUnconfirmed => CellStatus::Suspect,
            ShiftVerdict::Lower => CellStatus::Improved,
        },
    }
}

/// Validate a verdict document (re-parsed through `jsonv`) against the
/// schema documented in DESIGN.md §11. Returns every violation found —
/// the self-check the `sentinel` bin runs before trusting its own
/// output, and the contract external tooling can rely on.
pub fn validate_verdict(v: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    if v.get("schema").and_then(Value::as_num) != Some(1.0) {
        errs.push("verdict: schema must be 1".to_string());
    }
    for side in ["baseline", "candidate"] {
        match v.get(side) {
            Some(m) => {
                for key in ["git_sha", "kind", "label", "host_fingerprint"] {
                    if m.get(key).and_then(Value::as_str).is_none() {
                        errs.push(format!("verdict: {side}.{key} missing string"));
                    }
                }
                for key in ["timestamp", "threads"] {
                    if m.get(key).and_then(Value::as_num).is_none() {
                        errs.push(format!("verdict: {side}.{key} missing number"));
                    }
                }
                if m.get("git_dirty").and_then(Value::as_bool).is_none() {
                    errs.push(format!("verdict: {side}.git_dirty missing bool"));
                }
            }
            None => errs.push(format!("verdict: missing {side:?}")),
        }
    }
    for key in ["threshold", "alpha"] {
        if v.get(key).and_then(Value::as_num).is_none() {
            errs.push(format!("verdict: missing numeric {key:?}"));
        }
    }
    if v.get("cross_host").and_then(Value::as_bool).is_none() {
        errs.push("verdict: missing bool \"cross_host\"".to_string());
    }
    for list in ["regressions", "cells"] {
        let Some(cells) = v.get(list).and_then(Value::as_arr) else {
            errs.push(format!("verdict: missing array {list:?}"));
            continue;
        };
        for (i, c) in cells.iter().enumerate() {
            let ctx = format!("verdict: {list}[{i}]");
            for key in ["algorithm", "workload", "kernel_mode", "status"] {
                if c.get(key).and_then(Value::as_str).is_none() {
                    errs.push(format!("{ctx}.{key} missing string"));
                }
            }
            for key in [
                "n_baseline",
                "n_candidate",
                "median_baseline_s",
                "median_candidate_s",
                "delta",
            ] {
                if c.get(key).and_then(Value::as_num).is_none() {
                    errs.push(format!("{ctx}.{key} missing number"));
                }
            }
            if !c.get("p_value").is_some_and(Value::is_num_or_null) {
                errs.push(format!("{ctx}.p_value must be number or null"));
            }
            for key in ["ci_baseline_s", "ci_candidate_s"] {
                let ok = c
                    .get(key)
                    .and_then(Value::as_arr)
                    .is_some_and(|a| a.len() == 2 && a.iter().all(|x| x.as_num().is_some()));
                if !ok {
                    errs.push(format!("{ctx}.{key} must be [lo, hi]"));
                }
            }
            if let Some(status) = c.get("status").and_then(Value::as_str) {
                if !["ok", "improved", "suspect", "regressed"].contains(&status) {
                    errs.push(format!("{ctx}.status unknown value {status:?}"));
                }
            }
            if list == "regressions" && c.get("status").and_then(Value::as_str) != Some("regressed")
            {
                errs.push(format!("{ctx} listed as regression but status differs"));
            }
        }
    }
    for key in ["unmatched_baseline", "unmatched_candidate"] {
        let ok = v
            .get(key)
            .and_then(Value::as_arr)
            .is_some_and(|a| a.iter().all(|x| x.as_str().is_some()));
        if !ok {
            errs.push(format!("verdict: {key} must be an array of strings"));
        }
    }
    errs
}

/// Select one entry by a CLI selector: `latest`, `prev`, `#N` (0-based
/// index, oldest first), or a git-sha prefix (newest entry wins).
pub fn select<'a>(entries: &'a [Entry], selector: &str) -> Result<&'a Entry, String> {
    if entries.is_empty() {
        return Err("ledger is empty".to_string());
    }
    match selector {
        "latest" => Ok(entries.last().unwrap()),
        "prev" => entries
            .len()
            .checked_sub(2)
            .map(|i| &entries[i])
            .ok_or_else(|| "ledger has no previous entry".to_string()),
        s if s.starts_with('#') => {
            let idx: usize = s[1..]
                .parse()
                .map_err(|e| format!("bad index selector {s:?}: {e}"))?;
            entries
                .get(idx)
                .ok_or_else(|| format!("index {idx} out of range (ledger has {})", entries.len()))
        }
        sha => entries
            .iter()
            .rev()
            .find(|e| e.git_sha.starts_with(sha))
            .ok_or_else(|| format!("no ledger entry with git sha prefix {sha:?}")),
    }
}

/// Pick the baseline for `check`: the newest entry *before* the
/// candidate (the ledger's last entry) that is comparable to it — same
/// kind, and same host fingerprint + threads + alloc policy unless
/// `allow_cross_host`. With a sha selector, the newest pre-candidate
/// entry of that sha.
pub fn baseline_for<'a>(
    entries: &'a [Entry],
    candidate_idx: usize,
    selector: &str,
    allow_cross_host: bool,
) -> Result<&'a Entry, String> {
    let candidate = &entries[candidate_idx];
    let compatible = |e: &Entry| {
        e.kind == candidate.kind
            && (allow_cross_host
                || (e.host.fingerprint == candidate.host.fingerprint
                    && e.threads == candidate.threads
                    && e.alloc_policy == candidate.alloc_policy))
    };
    let pool = &entries[..candidate_idx];
    let found = match selector {
        "latest" => pool.iter().rev().find(|e| compatible(e)),
        sha => pool
            .iter()
            .rev()
            .find(|e| e.git_sha.starts_with(sha) && compatible(e)),
    };
    found.ok_or_else(|| {
        format!(
            "no comparable baseline (selector {selector:?}, kind {:?}, host {}) \
             among the {} earlier entries",
            candidate.kind, candidate.host.fingerprint, candidate_idx
        )
    })
}

/// Collect raw end-to-end repeat vectors for `sentinel record`: `reps`
/// timed runs per algorithm under the process kernel mode, after one
/// warm-up run (pool spin-up, page faults).
pub fn sample_e2e(
    opts: &HarnessOpts,
    algorithms: &[Algorithm],
    reps: usize,
    quick: bool,
) -> Vec<SampleSet> {
    let (r_m, s_m) = if quick { (2, 8) } else { (16, 64) };
    let (r, s) = opts.workload(r_m, s_m, 0x5E17);
    let mode = crate::ledger::kernel_mode_name();
    let workload = if quick { "quick" } else { "full" };
    algorithms
        .iter()
        .map(|&alg| {
            let mut cfg = JoinConfig::new(opts.threads);
            cfg.simulate = false;
            let join = Join::new(alg).with_config(cfg);
            let run = || -> JoinResult { join.run(&r, &s).expect("join failed") };
            run(); // warm-up
            let secs: Vec<f64> = (0..reps.max(1))
                .map(|_| {
                    let start = std::time::Instant::now();
                    run();
                    start.elapsed().as_secs_f64()
                })
                .collect();
            SampleSet {
                algorithm: alg.name().to_string(),
                workload: workload.to_string(),
                kernel_mode: mode.clone(),
                secs,
            }
        })
        .collect()
}

/// Parse a threshold argument: `5%`, `0.05`, or `5` (percent when > 1
/// or suffixed, fraction otherwise).
pub fn parse_threshold(s: &str) -> Result<f64, String> {
    let (text, percent) = match s.strip_suffix('%') {
        Some(t) => (t, true),
        None => (s, false),
    };
    let v: f64 = text
        .trim()
        .parse()
        .map_err(|e| format!("bad threshold {s:?}: {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("threshold {s:?} must be a non-negative number"));
    }
    Ok(if percent || v > 1.0 { v / 100.0 } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_spellings() {
        assert_eq!(parse_threshold("5%").unwrap(), 0.05);
        assert_eq!(parse_threshold("0.05").unwrap(), 0.05);
        assert_eq!(parse_threshold("5").unwrap(), 0.05);
        assert_eq!(parse_threshold("0.5").unwrap(), 0.5);
        assert!(parse_threshold("-1").is_err());
        assert!(parse_threshold("x").is_err());
    }
}
