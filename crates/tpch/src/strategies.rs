//! Tuple-reconstruction strategies for the partitioned Q19 join — the
//! paper's explicit future work ("as future work we would like to
//! evaluate the cross product of different join algorithms and the large
//! space of tuple reconstruction algorithms, in particular for the very
//! promising CPR*-family").
//!
//! Two strategies over the same CPRL join:
//!
//! * **Late materialization** (the paper's Section 8 executor,
//!   [`crate::q19::run_q19`] with [`crate::q19::Q19Join::Cprl`]): the
//!   partitions carry `<key, rowid>`; after a match, the row id is
//!   followed into the Lineitem columns — a random access into arbitrary
//!   locations, polluting caches and TLB.
//! * **Early materialization** ([`run_q19_cprl_early`]): the filtered
//!   probe records carry `quantity`, `extendedprice` and `discount`
//!   *through* the partitions (16-byte wide tuples via
//!   `mmjoin_partition::generic`), so the join phase touches Lineitem
//!   exactly once, sequentially, during the filter scan. The price:
//!   2× partitioning bytes on the probe side.

use mmjoin_core::TableKind;
use mmjoin_partition::chunked_partition_by_on;
use mmjoin_util::trace::NoTracer;

use crate::data::{post_join_parts_only, LineitemTable, PartTable};
use crate::q19::{config, partitioned_plan, Q19Result};

/// A probe record carrying the attributes Q19 needs post-join.
#[derive(Copy, Clone, Debug)]
struct WideProbe {
    key: u32,
    quantity: u32,
    extendedprice: f32,
    discount: f32,
}

/// CPRL-based Q19 with early materialization.
pub fn run_q19_cprl_early(p: &PartTable, l: &LineitemTable, threads: usize) -> Q19Result {
    partitioned_plan(
        p,
        l,
        &config(threads),
        TableKind::Linear,
        |row| WideProbe {
            key: l.l_partkey[row].key,
            quantity: l.l_quantity[row],
            extendedprice: l.l_extendedprice[row],
            discount: l.l_discount[row],
        },
        |wide, f, pool| chunked_partition_by_on(wide, f, pool, |w| w.key),
        // The library's build half per co-partition; a 16-byte probe
        // record is no `Tuple` batch, so it probes key by key. The
        // post-join predicate splits into a Part-side check (random
        // access into Part, like the late strategy) and a quantity-range
        // check on the inlined attribute; the aggregate reads only
        // inlined attributes.
        |table, built, build, probe, part, revenue| {
            table.build(
                built,
                build.part_len(part),
                build.slices(part),
                &mut NoTracer,
            );
            for w in probe.slices(part).flatten() {
                built.probe_first(w.key, |p_row| {
                    if post_join_parts_only(p, p_row as usize, w.quantity) {
                        *revenue += w.extendedprice as f64 * (1.0 - w.discount as f64);
                    }
                });
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate_tables, GenParams};
    use crate::q19::{reference_q19, run_q19, Q19Join};

    #[test]
    fn early_equals_late() {
        for pre_selectivity in [0.0357, 0.5, 1.0] {
            let (p, l) = generate_tables(&GenParams {
                scale_factor: 0.05,
                pre_selectivity,
                seed: 0xEA51,
            });
            let expect = reference_q19(&p, &l);
            assert!(expect > 0.0);
            for threads in [1, 3, 8] {
                let early = run_q19_cprl_early(&p, &l, threads);
                let late = run_q19(Q19Join::Cprl, &p, &l, threads);
                let rel = (early.revenue - expect).abs() / expect;
                assert!(
                    rel < 1e-6,
                    "sel={pre_selectivity} threads={threads}: early revenue {} vs {expect}",
                    early.revenue
                );
                assert_eq!(early.filtered_rows, late.filtered_rows);
            }
        }
    }
}
