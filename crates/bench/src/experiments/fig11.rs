//! Figure 11: scalability of the partition phase alone — chunked (CPR*)
//! vs contiguous (PR*) partitioning — as |R| and the partition count
//! grow together (one more bit per doubling).
//!
//! Paper expectation: average partition time per tuple stays flat up to
//! 2^15 partitions, then deteriorates once the SWWCBs of all threads no
//! longer fit the shared LLC; chunked partitioning is consistently
//! cheaper than contiguous.

use std::time::Instant;

use mmjoin_core::spec::{self, PartitionWrites};
use mmjoin_partition::{chunked_partition_on, partition_parallel_on, RadixFn, ScatterMode};

use crate::harness::{HarnessOpts, Table};

pub fn run(opts: &HarnessOpts) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 11 — partition-phase scaling (avg sim time per tuple, ns)",
        &[
            "|R|[paper M]",
            "partitions",
            "chunked[ns]",
            "contiguous[ns]",
            "chunked wall[ms]",
            "contig wall[ms]",
        ],
    );
    // Paper: |R| = 16M..2048M with 2^11..2^18 partitions.
    for (i, r_m) in [16usize, 32, 64, 128, 256, 512, 1024, 2048]
        .iter()
        .enumerate()
    {
        let bits = 11 + i as u32;
        let r_n = opts.tuples(*r_m);
        let input = mmjoin_datagen::gen_build_dense(r_n, *r_m as u64, opts.placement());
        let f = RadixFn::new(bits);
        let cfg = opts.cfg();
        let pool = cfg.executor();

        let t0 = Instant::now();
        let _ = chunked_partition_on(input.tuples(), f, &*pool, ScatterMode::Swwcb);
        let chunked_wall = t0.elapsed();
        let t0 = Instant::now();
        let _ = partition_parallel_on(input.tuples(), f, &*pool, ScatterMode::Swwcb);
        let contig_wall = t0.elapsed();

        let mut sim_ns = Vec::new();
        for writes in [PartitionWrites::Local, PartitionWrites::GlobalInterleaved] {
            let specs =
                spec::partition_pass_specs(&cfg, r_n, input.placement(), f.fanout(), true, writes);
            let order: Vec<usize> = (0..specs.len()).collect();
            let (t, _) = spec::run_phase(&cfg, &specs, &order);
            sim_ns.push(t * 1e9 / r_n as f64);
        }
        table.row(vec![
            r_m.to_string(),
            format!("2^{bits}"),
            format!("{:.3}", sim_ns[0]),
            format!("{:.3}", sim_ns[1]),
            format!("{:.2}", chunked_wall.as_secs_f64() * 1e3),
            format!("{:.2}", contig_wall.as_secs_f64() * 1e3),
        ]);
    }
    table.note("paper: flat to 2^15 partitions, then SWWCB state spills the LLC and cost rises");
    table.note("chunked < contiguous throughout (no remote writes)");
    vec![table]
}
