//! Figure 12: CPRL runtime with the number of partitioning bits set by
//! Equation (1), against the full range of bit choices.
//!
//! Paper expectation: the predictor lands at (or within noise of) the
//! best observed configuration for every size.

use mmjoin_core::Algorithm;

use super::run_alg;
use crate::harness::{HarnessOpts, Table};

pub fn run(opts: &HarnessOpts) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 12 — CPRL: Equation (1) bits vs exhaustive bit search (sim ns/tuple)",
        &[
            "|R|[paper M]",
            "eq1 bits",
            "ns@eq1",
            "best bits",
            "ns@best",
            "worst bits",
            "ns@worst",
        ],
    );
    let shift = (opts.scale as f64).log2().round() as i32;
    for r_m in [16usize, 64, 256, 1024, 2048] {
        let r_n = opts.tuples(r_m);
        let s_n = r_n;
        let r = mmjoin_datagen::gen_build_dense(r_n, r_m as u64 + 7, opts.placement());
        let s = mmjoin_datagen::gen_probe_fk(s_n, r_n, r_m as u64 ^ 0x12, opts.placement());
        let tuples = r_n + s_n;
        let cfg = opts.cfg();
        let eq1 = cfg.bits_for_hash_tables(r_n);

        let time_at = |bits: u32| -> f64 {
            let mut cfg = opts.cfg();
            cfg.radix_bits = Some(bits);
            run_alg(Algorithm::Cprl, &r, &s, &cfg).total_sim() * 1e9 / tuples as f64
        };

        let at_eq1 = time_at(eq1);
        // The paper sweeps 8..=18 bits; shift the range for scaled runs
        // and keep it anchored near Equation (1)'s answer.
        let lo = ((8 - shift).max(eq1 as i32 - 4)).clamp(1, 18) as u32;
        let hi = ((18 - shift).max(eq1 as i32 + 3)).clamp(lo as i32, 18) as u32;
        let mut best = (eq1, at_eq1);
        let mut worst = (eq1, at_eq1);
        for bits in lo..=hi {
            let ns = time_at(bits);
            if ns < best.1 {
                best = (bits, ns);
            }
            if ns > worst.1 {
                worst = (bits, ns);
            }
        }
        table.row(vec![
            r_m.to_string(),
            eq1.to_string(),
            format!("{:.3}", at_eq1),
            best.0.to_string(),
            format!("{:.3}", best.1),
            worst.0.to_string(),
            format!("{:.3}", worst.1),
        ]);
    }
    table.note("paper: Equation (1) within a few percent of the best; bad bits cost up to 2.5x");
    vec![table]
}
