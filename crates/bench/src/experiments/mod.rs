//! One module per paper table/figure. Each exposes
//! `run(&HarnessOpts) -> Vec<Table>`.

pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hashfn;
pub mod pipeline;
pub mod skewfix;
pub mod spill;
pub mod tab3;
pub mod tab4;
pub mod tuplerecon;

use mmjoin_core::{mway, Algorithm, Join, JoinConfig, JoinResult};
use mmjoin_util::Relation;

use crate::harness::{HarnessOpts, Table};

/// Run `alg` over `(r, s)` under a harness-built config through the
/// [`Join`] planner. Experiment configs are constructed in-harness and
/// known-valid, so any planning or runtime error is a harness bug —
/// abort the experiment loudly rather than tabulating garbage.
///
/// MWAY without `radix_bits` runs at the paper's fan-out
/// ([`mway::black_box_bits`]), not the library's cache-sized default:
/// the figures reproduce the paper's black-box MWAY, and at `repro`'s
/// scaled-down inputs the wide default would sort in cache where the
/// paper's partitions cannot.
pub fn run_alg(alg: Algorithm, r: &Relation, s: &Relation, cfg: &JoinConfig) -> JoinResult {
    let mut cfg = cfg.clone();
    if alg == Algorithm::Mway && cfg.radix_bits.is_none() {
        cfg.radix_bits = Some(mway::black_box_bits(cfg.threads));
    }
    Join::new(alg)
        .with_config(cfg)
        .run(r, s)
        .unwrap_or_else(|e| panic!("{alg} failed: {e}"))
}

/// One registry entry: experiment name, one-line description, runner.
pub type Experiment = (&'static str, &'static str, fn(&HarnessOpts) -> Vec<Table>);

/// Experiment registry for the `repro` binary.
pub fn registry() -> Vec<Experiment> {
    vec![
        (
            "fig1",
            "black-box comparison of MWAY/CHTJ/PRB/NOP",
            fig1::run,
        ),
        (
            "fig2",
            "PRO throughput vs radix bits, 1 vs 2 passes",
            fig2::run,
        ),
        ("fig3", "black-box + improved variants", fig3::run),
        (
            "fig4",
            "NUMA write patterns: PRO vs CPRL traffic matrices",
            fig4::run,
        ),
        (
            "fig5",
            "PR* vs CPR* runtime with phase breakdown",
            fig5::run,
        ),
        (
            "fig6",
            "bandwidth profiles: PRO vs PROiS vs CPRL",
            fig6::run,
        ),
        (
            "fig7",
            "PR*/CPR* vs improved-scheduling variants",
            fig7::run,
        ),
        ("fig8", "all 13 joins with 4 KB vs 2 MB pages", fig8::run),
        ("fig9", "time/tuple vs radix bits across |R|", fig9::run),
        ("fig10", "throughput scaling with dataset size", fig10::run),
        (
            "fig11",
            "partition-phase scaling: chunked vs contiguous",
            fig11::run,
        ),
        (
            "fig12",
            "CPRL: Equation (1) bits vs exhaustive search",
            fig12::run,
        ),
        ("fig14", "TPC-H Q19 runtime and join share", fig14::run),
        ("fig15", "skewed probe relations (Zipf)", fig15::run),
        ("fig16", "thread-count scaling 4..120", fig16::run),
        ("fig17", "holes in the key domain (array joins)", fig17::run),
        (
            "fig18",
            "Q19 with varying selection selectivity",
            fig18::run,
        ),
        ("fig19", "morphing a micro-benchmark into Q19", fig19::run),
        ("tab3", "relative speedup 4 -> 60 threads", tab3::run),
        (
            "tab4",
            "simulated performance counters per join phase",
            tab4::run,
        ),
        (
            "hashfn",
            "extra ablation: hash function choice",
            hashfn::run,
        ),
        (
            "skewfix",
            "extension: cooperative skew handling",
            skewfix::run,
        ),
        (
            "tuplerecon",
            "extension: early vs late materialization in Q19",
            tuplerecon::run,
        ),
        (
            "pipeline",
            "extension: fused operator pipeline vs two-step chain",
            pipeline::run,
        ),
        (
            "spill",
            "extension: spilling hybrid hash join degradation curve",
            spill::run,
        ),
    ]
}
