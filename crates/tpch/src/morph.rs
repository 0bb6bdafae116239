//! Appendix G: morphing the naked-join micro-benchmark stepwise into the
//! full Q19 (Figure 19).
//!
//! Five execution variants over the same data, all using the NOP join:
//!
//! 1. micro-benchmark with *pre-filtered* input tables (filter cost
//!    excluded — the classic join paper methodology),
//! 2. like (1) but filtering the input dynamically during the probe scan,
//! 3. like (2) plus materializing a join index,
//! 4. like (3) plus post-filtering and aggregating from the join index,
//! 5. like (2)+(4) pipelined, without a join index (= the real Q19).
//!
//! The deltas between consecutive variants expose how much of the query
//! is filtering, join-index construction, and tuple reconstruction.

use std::time::{Duration, Instant};

use mmjoin_core::exec::parallel_chunks;
use mmjoin_hashtable::{ConcurrentLinearTable, IdentityHash};
use mmjoin_util::tuple::Tuple;

use crate::data::{post_join, LineitemTable, PartTable};
use crate::q19::{config, scan};

/// Timing of one morph variant.
#[derive(Clone, Debug)]
pub struct MorphStep {
    pub label: &'static str,
    pub wall: Duration,
    /// A value computed by the variant (match count or revenue) so the
    /// compiler cannot elide work and tests can validate consistency.
    pub outcome: f64,
}

/// Run all five variants with `threads` threads.
pub fn run_morph(p: &PartTable, l: &LineitemTable, threads: usize) -> Vec<MorphStep> {
    let pool = config(threads).executor();
    let pool = &*pool;

    // Shared build: all variants join against the same Part table.
    let build = || {
        let table = ConcurrentLinearTable::<IdentityHash>::with_capacity(p.len());
        parallel_chunks(pool, &p.p_partkey, |_, chunk| table.insert_batch(chunk));
        table
    };
    // The join index of variants (3) and (4): filter, probe, materialize
    // `(p_row, l_row)`, one vector a worker.
    let join_index = |table: &ConcurrentLinearTable<IdentityHash>| {
        scan(pool, l.len(), |range| {
            let mut idx: Vec<(u32, u32)> = Vec::new();
            for row in range {
                if l.pre_join(row) {
                    table.probe_first(l.l_partkey[row].key, |p_row| {
                        idx.push((p_row, row as u32));
                    });
                }
            }
            idx
        })
    };

    // Pre-filtered probe input (materialized OUTSIDE the timed region of
    // variant 1, like the micro-benchmarks).
    let prefiltered: Vec<Tuple> = (0..l.len())
        .filter(|&row| l.pre_join(row))
        .map(|row| l.l_partkey[row])
        .collect();

    let mut steps = Vec::new();
    let mut step = |label, start: Instant, outcome| {
        steps.push(MorphStep {
            label,
            wall: start.elapsed(),
            outcome,
        })
    };

    // (1) Naked join over pre-filtered input.
    {
        let start = Instant::now();
        let table = build();
        let matches: u64 = parallel_chunks(pool, &prefiltered, |_, chunk| {
            let mut m = 0u64;
            for &tup in chunk {
                table.probe_first(tup.key, |_| m += 1);
            }
            m
        })
        .iter()
        .sum();
        let label = "(1) microbenchmark, pre-filtered input";
        step(label, start, matches as f64);
    }

    // (2) Filter dynamically during the probe scan.
    {
        let start = Instant::now();
        let table = build();
        let matches: u64 = scan(pool, l.len(), |range| {
            let mut m = 0u64;
            for row in range {
                if l.pre_join(row) {
                    table.probe_first(l.l_partkey[row].key, |_| m += 1);
                }
            }
            m
        })
        .iter()
        .sum();
        step("(2) like (1), filtering dynamically", start, matches as f64);
    }

    // (3) Like (2) plus materializing a join index.
    {
        let start = Instant::now();
        let total: usize = join_index(&build()).iter().map(Vec::len).sum();
        let label = "(3) like (2) plus materializing a join index";
        step(label, start, total as f64);
    }

    // (4) Like (3) plus post-filter + aggregate from the join index.
    {
        let start = Instant::now();
        let index = join_index(&build());
        let revenue: f64 = scan(pool, index.len(), |chunks| {
            let mut rev = 0.0f64;
            for &(p_row, l_row) in index[chunks].iter().flatten() {
                if post_join(l, p, l_row as usize, p_row as usize) {
                    rev += l.revenue(l_row as usize);
                }
            }
            rev
        })
        .iter()
        .sum();
        let label = "(4) like (3) plus post-filtering and aggregating";
        step(label, start, revenue);
    }

    // (5) Full pipeline, no join index (= Q19's execution strategy).
    {
        let start = Instant::now();
        let table = build();
        let revenue: f64 = scan(pool, l.len(), |range| {
            let mut rev = 0.0f64;
            for row in range {
                if !l.pre_join(row) {
                    continue;
                }
                table.probe_first(l.l_partkey[row].key, |p_row| {
                    if post_join(l, p, row, p_row as usize) {
                        rev += l.revenue(row);
                    }
                });
            }
            rev
        })
        .iter()
        .sum();
        step("(5) like (2 and 4) without a join index", start, revenue);
    }

    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate_tables, GenParams};
    use crate::q19::reference_q19;

    #[test]
    fn morph_variants_are_consistent() {
        let (p, l) = generate_tables(&GenParams {
            scale_factor: 0.01,
            pre_selectivity: 0.0357,
            seed: 7,
        });
        let steps = run_morph(&p, &l, 4);
        assert_eq!(steps.len(), 5);
        // Variants 1–3 count the same number of join matches.
        assert_eq!(steps[0].outcome, steps[1].outcome);
        assert_eq!(steps[1].outcome, steps[2].outcome);
        // Variants 4 and 5 compute the same revenue as the reference.
        let expect = reference_q19(&p, &l);
        for i in [3, 4] {
            let rel = (steps[i].outcome - expect).abs() / expect.max(1e-9);
            assert!(rel < 1e-6, "variant {} revenue {}", i + 1, steps[i].outcome);
        }
    }
}
