//! Extension experiment: the spilling hybrid hash join's graceful
//! degradation curve (DESIGN.md §13).
//!
//! Sweeps the memory budget from unlimited down to 1/8 of the build
//! side's tuple bytes. At every tier SHHJ must reproduce the checksum
//! of the reference join (`core::reference::reference_join`), which
//! shares no code with any driver; the interesting output is the price —
//! throughput vs. budget, bytes spilled, partitions evicted, recursion
//! depth — alongside the classic driver's behavior at the same budget
//! (it aborts once the budget refuses its partition buffers).

use mmjoin_core::reference::reference_join;
use mmjoin_core::{Algorithm, Join, JoinConfig, JoinError, JoinResult, SpillCounters};
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::Relation;

use crate::harness::{HarnessOpts, Table};

/// The budget sweep, as fractions `(num, den)` of the build side's
/// tuple bytes; `None` is unlimited (fully resident mode).
const TIERS: [(&str, Option<(usize, usize)>); 6] = [
    ("none", None),
    ("2x", Some((2, 1))),
    ("1x", Some((1, 1))),
    ("1/2", Some((1, 2))),
    ("1/4", Some((1, 4))),
    ("1/8", Some((1, 8))),
];

/// A tier's byte budget for a given build side.
fn tier_budget(build_bytes: usize, frac: Option<(usize, usize)>) -> Option<usize> {
    frac.map(|(num, den)| (build_bytes * num / den).max(1))
}

/// Plain wall-clock join config (no simulation) at `budget`.
fn spill_cfg(threads: usize, budget: Option<usize>) -> JoinConfig {
    let mut cfg = JoinConfig::new(threads);
    cfg.simulate = false;
    cfg.mem_limit = budget;
    cfg
}

/// One driver run at one budget.
fn run_at(
    alg: Algorithm,
    r: &Relation,
    s: &Relation,
    threads: usize,
    budget: Option<usize>,
) -> Result<JoinResult, JoinError> {
    Join::new(alg)
        .with_config(spill_cfg(threads, budget))
        .run(r, s)
}

/// SHHJ's completed run at one tier.
struct TierOk {
    /// SHHJ wall seconds.
    secs: f64,
    spill: SpillCounters,
    /// SHHJ's count and checksum equal the reference join's.
    checksum_ok: bool,
}

/// One point of the degradation curve. SHHJ itself refuses a budget
/// only when it sits below the all-spilled buffer floor plus the
/// smallest routing scratch (tiny workloads at extreme fractions),
/// which comes back as the same `MemoryBudgetExceeded` a classic
/// driver raises.
struct TierRun {
    label: &'static str,
    budget: Option<usize>,
    shhj: Result<TierOk, JoinError>,
    /// What the classic in-memory driver (PRO) did at this budget.
    classic: Result<f64, JoinError>,
}

/// Sweep all tiers once. `reference` is the reference join's answer,
/// which every feasible tier must reproduce.
fn sweep(r: &Relation, s: &Relation, threads: usize, reference: JoinChecksum) -> Vec<TierRun> {
    TIERS
        .iter()
        .map(|&(label, frac)| {
            let budget = tier_budget(r.len() * 8, frac);
            let shhj = run_at(Algorithm::Shhj, r, s, threads, budget).map(|res| TierOk {
                secs: res.total_wall().as_secs_f64(),
                spill: res.spill_totals(),
                checksum_ok: res.checksum == reference.digest && res.matches == reference.count,
            });
            if let Err(e) = &shhj {
                assert!(
                    matches!(e, JoinError::MemoryBudgetExceeded { .. }),
                    "SHHJ at budget {label} failed: {e}"
                );
            }
            let classic =
                run_at(Algorithm::Pro, r, s, threads, budget).map(|c| c.total_wall().as_secs_f64());
            TierRun {
                label,
                budget,
                shhj,
                classic,
            }
        })
        .collect()
}

pub fn run(opts: &HarnessOpts) -> Vec<Table> {
    let (r, s) = opts.workload(16, 64, 0x5B1);
    let runs = sweep(&r, &s, opts.threads, reference_join(&r, &s));

    let mut table = Table::new(
        "Extension — SHHJ graceful degradation vs memory budget (host wall ms)",
        &[
            "budget",
            "mem KiB",
            "SHHJ",
            "Mtps",
            "MiB spilled",
            "parts",
            "depth",
            "checksum",
            "PRO",
        ],
    );
    let tuples = (r.len() + s.len()) as f64;
    for t in &runs {
        let pro = match &t.classic {
            Ok(secs) => format!("{:.1}", secs * 1e3),
            Err(JoinError::MemoryBudgetExceeded { .. }) => "abort".to_string(),
            Err(e) => format!("error: {e}"),
        };
        match &t.shhj {
            Ok(ok) => {
                table.row(vec![
                    t.label.to_string(),
                    t.budget
                        .map(|b| format!("{}", b / 1024))
                        .unwrap_or_else(|| "inf".to_string()),
                    format!("{:.1}", ok.secs * 1e3),
                    format!("{:.0}", tuples / ok.secs.max(1e-12) / 1e6),
                    format!("{:.2}", ok.spill.bytes_spilled as f64 / (1024.0 * 1024.0)),
                    format!("{}", ok.spill.partitions_spilled),
                    format!("{}", ok.spill.recursion_depth),
                    if ok.checksum_ok { "ok" } else { "MISMATCH" }.to_string(),
                    pro,
                ]);
                assert!(ok.checksum_ok, "SHHJ@{}: checksum mismatch", t.label);
            }
            // Budget below even the all-spilled buffer floor and the
            // smallest routing scratch: no plan exists at this workload
            // size, same refusal as a classic driver. Only reachable at
            // tiny --scale factors.
            Err(_) => {
                table.row(vec![
                    t.label.to_string(),
                    t.budget
                        .map(|b| format!("{}", b / 1024))
                        .unwrap_or_else(|| "inf".to_string()),
                    "abort".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    pro,
                ]);
            }
        }
    }
    table.note(
        "every feasible tier reproduces the reference join's checksum; the curve is the cost",
    );
    table.note("PRO column: classic in-memory driver at the same budget (abort = budget refused)");
    vec![table]
}
