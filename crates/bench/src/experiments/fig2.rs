//! Figure 2: PRO throughput for 8–16 total radix bits, single-pass vs
//! two-pass partitioning (two-pass splits the bits evenly).
//!
//! Paper expectation: single-pass peaks around 14 bits and beats
//! two-pass everywhere (SWWCB removes the TLB pressure that forced two
//! passes in the first place).

use mmjoin_core::config::TableKind;
use mmjoin_core::pro::join_pro_two_pass;
use mmjoin_core::Algorithm;

use super::run_alg;
use crate::harness::{mtps, HarnessOpts, Table};

pub fn run(opts: &HarnessOpts) -> Vec<Table> {
    let (r, s) = opts.workload(128, 1280, 0xF162);
    // Scale the bit range with the input (the paper's 8..16 bits belong
    // to |R| = 128 M; scaled runs shift by log2(scale)).
    let shift = (opts.scale as f64).log2().round() as i32;
    let mut table = Table::new(
        format!(
            "Figure 2 — PRO throughput vs radix bits (paper bits 8..16, shifted by -{shift} for scale)"
        ),
        &["paper_bits", "bits_used", "1-pass[Mtps,sim]", "2-pass[Mtps,sim]"],
    );
    for paper_bits in 8..=16u32 {
        let bits = (paper_bits as i32 - shift).clamp(2, 18) as u32;
        let mut cfg = opts.cfg();
        cfg.radix_bits = Some(bits);
        let one = run_alg(Algorithm::Pro, &r, &s, &cfg);
        let two = join_pro_two_pass(&r, &s, &cfg, TableKind::Chained)
            .unwrap_or_else(|e| panic!("PRO 2-pass failed: {e}"));
        table.row(vec![
            paper_bits.to_string(),
            bits.to_string(),
            mtps(one.sim_throughput_mtps(r.len(), s.len())),
            mtps(two.sim_throughput_mtps(r.len(), s.len())),
        ]);
    }
    table.note("paper: single-pass with 14 bits is the sweet spot; 1-pass ≥ 2-pass throughout");
    vec![table]
}
