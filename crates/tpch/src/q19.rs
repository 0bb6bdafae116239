//! The Q19 executor (Section 8, Figure 13's plan, Listing 4).
//!
//! Plan: scan Lineitem with the pushed-down selection (`preJoin`), hash
//! join on `p_partkey = l_partkey` with Part as build side, evaluate the
//! complex predicate (`postJoin`) on reconstructed attributes as soon as
//! a join partner is found, and aggregate
//! `sum(l_extendedprice · (1 − l_discount))` — no join index is
//! materialized (the HyperDB-style pipelined strategy).
//!
//! Four join algorithms are pluggable, exactly the four of Figure 14:
//! NOP, NOPA (global tables; attributes stay aligned, so tuple
//! reconstruction is sequential on the probe side) and CPRL, CPRA
//! (partitioned; reconstruction follows row ids to arbitrary locations —
//! the cache-pollution effect Section 8 discusses).

use std::ops::Range;
use std::time::{Duration, Instant};

use mmjoin_core::exec::parallel_chunks;
use mmjoin_core::pro::{join_co_partition, BuiltTable, PartTable as CoPartitionTable};
use mmjoin_core::{JoinConfig, TableKind};
use mmjoin_hashtable::{ConcurrentArrayTable, ConcurrentLinearTable, IdentityHash};
use mmjoin_partition::{
    chunked_partition_on, ChunkedPartitions, ConcurrentTaskQueue, RadixFn, ScatterMode,
};
use mmjoin_util::chunk_range;
use mmjoin_util::pool::{broadcast_map, WorkerPool};
use mmjoin_util::trace::NoTracer;
use mmjoin_util::tuple::{Key, Payload, Tuple};

use crate::data::{post_join, LineitemTable, PartTable};

/// The four joins evaluated inside Q19 (Figure 14).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Q19Join {
    Nop,
    Nopa,
    Cprl,
    Cpra,
}

impl Q19Join {
    pub const ALL: [Q19Join; 4] = [Q19Join::Nop, Q19Join::Nopa, Q19Join::Cprl, Q19Join::Cpra];

    pub fn name(self) -> &'static str {
        match self {
            Q19Join::Nop => "NOP",
            Q19Join::Nopa => "NOPA",
            Q19Join::Cprl => "CPRL",
            Q19Join::Cpra => "CPRA",
        }
    }
}

/// Query result + phase breakdown.
#[derive(Clone, Debug)]
pub struct Q19Result {
    pub revenue: f64,
    /// Build-table / partition phase.
    pub build_wall: Duration,
    /// Probe / co-partition join phase (includes scan+filter+aggregate).
    pub probe_wall: Duration,
    /// Lineitem rows surviving the pushed-down selection.
    pub filtered_rows: usize,
}

impl Q19Result {
    pub fn total_wall(&self) -> Duration {
        self.build_wall + self.probe_wall
    }
}

/// The configuration a query's phases run under: `threads` workers of
/// the persistent executor. A count [`JoinConfig::validate`] refuses
/// panics with that error's message, before any thread exists.
pub(crate) fn config(threads: usize) -> JoinConfig {
    let cfg = JoinConfig::new(threads);
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    cfg
}

/// One scan phase: every worker of `pool` runs `f` over its contiguous
/// range of `0..n`; the results in worker order.
pub(crate) fn scan<R: Send>(
    pool: &dyn WorkerPool,
    n: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let workers = pool.workers();
    broadcast_map(pool, workers, |t| f(chunk_range(n, workers, t)))
}

/// The frame of the partitioned plans (CPRL/CPRA, late or early
/// materialization). Partition phase: filter Lineitem into one probe
/// `record(row)` a qualifying row, then chunk-partition Part and
/// (`partition`) the records, on Equation (1)'s bits for `kind` over
/// Part — as the CPR* drivers take them, at most 14. Join phase: every
/// worker pops co-partitions off one queue, `join(table, build, probe,
/// part, revenue)` adding what a co-partition earns to its worker's
/// revenue.
pub(crate) fn partitioned_plan<W: Copy + Send + Sync>(
    p: &PartTable,
    l: &LineitemTable,
    cfg: &JoinConfig,
    kind: TableKind,
    record: impl Fn(usize) -> W + Sync,
    partition: impl Fn(&[W], RadixFn, &dyn WorkerPool) -> ChunkedPartitions<W>,
    join: impl Fn(
            CoPartitionTable,
            &mut BuiltTable,
            &ChunkedPartitions,
            &ChunkedPartitions<W>,
            usize,
            &mut f64,
        ) + Sync,
) -> Q19Result {
    let pool = cfg.executor();
    let mut table = CoPartitionTable::for_join(cfg, kind, p.len());
    table.bits = table.bits.min(14);
    let f = RadixFn::new(table.bits);

    let start = Instant::now();
    let records = scan(&*pool, l.len(), |range| {
        let rows = range.filter(|&row| l.pre_join(row));
        rows.map(&record).collect::<Vec<W>>()
    })
    .concat();
    let parts_build = chunked_partition_on(&p.p_partkey, f, &*pool, ScatterMode::Swwcb);
    let parts_probe = partition(&records, f, &*pool);
    let build_wall = start.elapsed();

    let start = Instant::now();
    let queue = ConcurrentTaskQueue::new((0..f.fanout()).collect());
    let revenues = broadcast_map(&*pool, cfg.threads, |_| {
        let mut revenue = 0.0f64;
        // One table per worker, rebuilt partition after partition.
        let mut built = table.unbuilt();
        while let Some(part) = queue.pop() {
            let (build, probe) = (&parts_build, &parts_probe);
            join(table, &mut built, build, probe, part, &mut revenue);
        }
        revenue
    });
    Q19Result {
        revenue: revenues.iter().sum(),
        build_wall,
        probe_wall: start.elapsed(),
        filtered_rows: records.len(),
    }
}

/// Run Q19 with the chosen join.
pub fn run_q19(join: Q19Join, p: &PartTable, l: &LineitemTable, threads: usize) -> Q19Result {
    let cfg = config(threads);
    // `p_partkey` is a unique PK: a probe has one partner at most.
    match join {
        Q19Join::Nop => {
            let table = ConcurrentLinearTable::<IdentityHash>::with_capacity(p.len());
            let build = |chunk: &[Tuple]| table.insert_batch(chunk);
            q19_global(p, l, &cfg, build, |key| {
                let mut partner = None;
                table.probe_first(key, |p_row| partner = Some(p_row));
                partner
            })
        }
        Q19Join::Nopa => {
            let table = ConcurrentArrayTable::new(p.len() + 1, 1);
            let build = |chunk: &[Tuple]| table.insert_batch(chunk);
            q19_global(p, l, &cfg, build, |key| {
                let mut partner = None;
                table.probe(key, |p_row| partner = Some(p_row));
                partner
            })
        }
        Q19Join::Cprl => q19_partitioned(p, l, &cfg, TableKind::Linear),
        Q19Join::Cpra => q19_partitioned(p, l, &cfg, TableKind::Array),
    }
}

/// NOP/NOPA pipeline (Listing 4): concurrent global build, then one
/// pipelined scan-filter-probe-postfilter-aggregate pass.
fn q19_global(
    p: &PartTable,
    l: &LineitemTable,
    cfg: &JoinConfig,
    build: impl Fn(&[Tuple]) + Sync,
    probe: impl Fn(Key) -> Option<Payload> + Sync,
) -> Q19Result {
    let pool = cfg.executor();

    let start = Instant::now();
    parallel_chunks(&*pool, &p.p_partkey, |_, chunk| build(chunk));
    let build_wall = start.elapsed();

    let start = Instant::now();
    let partials: Vec<(f64, usize)> = scan(&*pool, l.len(), |range| {
        let mut revenue = 0.0f64;
        let mut filtered = 0usize;
        for row in range {
            if !l.pre_join(row) {
                continue;
            }
            filtered += 1;
            if let Some(p_row) = probe(l.l_partkey[row].key) {
                if post_join(l, p, row, p_row as usize) {
                    revenue += l.revenue(row);
                }
            }
        }
        (revenue, filtered)
    });
    let probe_wall = start.elapsed();
    Q19Result {
        revenue: partials.iter().map(|(r, _)| r).sum(),
        build_wall,
        probe_wall,
        filtered_rows: partials.iter().map(|(_, f)| f).sum(),
    }
}

/// CPRL/CPRA pipeline: filter + materialize the probe keys, chunk-
/// partition both sides, then the library's co-partition join per
/// partition, its match consumer post-filtering and aggregating through
/// row-id tuple reconstruction.
fn q19_partitioned(
    p: &PartTable,
    l: &LineitemTable,
    cfg: &JoinConfig,
    kind: TableKind,
) -> Q19Result {
    partitioned_plan(
        p,
        l,
        cfg,
        kind,
        |row| l.l_partkey[row],
        |keys, f, pool| chunked_partition_on(keys, f, pool, ScatterMode::Swwcb),
        |table, built, build, probe, part, revenue| {
            join_co_partition(
                table,
                true, // p_partkey is a unique PK
                built,
                build.part_len(part),
                build.slices(part),
                probe.slices(part),
                &mut NoTracer,
                |t, p_row| {
                    let l_row = t.payload as usize;
                    if post_join(l, p, l_row, p_row as usize) {
                        *revenue += l.revenue(l_row);
                    }
                },
            )
        },
    )
}

/// Reference Q19: a direct, single-threaded evaluation used by tests.
pub fn reference_q19(p: &PartTable, l: &LineitemTable) -> f64 {
    let mut revenue = 0.0f64;
    for row in 0..l.len() {
        if !l.pre_join(row) {
            continue;
        }
        let p_row = (l.l_partkey[row].key - 1) as usize;
        debug_assert_eq!(p.p_partkey[p_row].key, l.l_partkey[row].key);
        if post_join(l, p, row, p_row) {
            revenue += l.revenue(row);
        }
    }
    revenue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate_tables, GenParams};

    fn tables_at(pre_selectivity: f64) -> (PartTable, LineitemTable) {
        generate_tables(&GenParams {
            scale_factor: 0.02, // 4k parts, 120k lineitems
            pre_selectivity,
            seed: 99,
        })
    }

    fn tables() -> (PartTable, LineitemTable) {
        tables_at(0.0357)
    }

    /// `(p, l)` with Part repeated `times` over (keys renumbered, every
    /// Lineitem row's key moved into the copy its row number picks): a
    /// Part large enough for Equation (1) to partition in earnest beside
    /// a Lineitem small enough for a unit test.
    fn tile_part(p: &mut PartTable, l: &mut LineitemTable, times: usize) {
        let n = p.len();
        p.p_partkey = (0..(n * times) as u32)
            .map(|i| Tuple::new(i + 1, i))
            .collect();
        p.p_brand = p.p_brand.repeat(times);
        p.p_container = p.p_container.repeat(times);
        p.p_size = p.p_size.repeat(times);
        for (row, t) in l.l_partkey.iter_mut().enumerate() {
            t.key += (n * (row % times)) as u32;
        }
    }

    fn assert_revenue(what: &str, got: f64, expect: f64) {
        // f64 summation order differs per thread count; allow
        // reassociation error.
        let rel = (got - expect).abs() / expect;
        assert!(rel < 1e-6, "{what}: {got} vs {expect}");
    }

    #[test]
    fn all_four_joins_agree_with_reference() {
        for pre_selectivity in [0.0357, 0.5, 1.0] {
            let (p, l) = tables_at(pre_selectivity);
            let expect = reference_q19(&p, &l);
            assert!(expect > 0.0, "workload produced zero revenue");
            for join in Q19Join::ALL {
                for threads in [1, 3, 8] {
                    let res = run_q19(join, &p, &l, threads);
                    let what = format!("{} sel={pre_selectivity} threads={threads}", join.name());
                    assert_revenue(&what, res.revenue, expect);
                }
            }
        }
    }

    /// 400 000 parts: Equation (1) gives CPRL five radix bits, more than
    /// the slot bits an unshifted table of a 12 500-key partition spreads
    /// its keys over.
    #[test]
    fn partitioned_joins_agree_at_equation_one_bits() {
        let (mut p, mut l) = tables_at(0.5);
        tile_part(&mut p, &mut l, 100);
        assert!(config(2).bits_for_hash_tables(p.len()) >= 5);
        let expect = reference_q19(&p, &l);
        assert!(expect > 0.0);
        for join in [Q19Join::Cprl, Q19Join::Cpra] {
            let res = run_q19(join, &p, &l, 2);
            assert_revenue(join.name(), res.revenue, expect);
        }
    }

    #[test]
    fn filtered_rows_match_selectivity() {
        let (p, l) = tables();
        let res = run_q19(Q19Join::Nop, &p, &l, 2);
        let sel = res.filtered_rows as f64 / l.len() as f64;
        assert!((sel - 0.0357).abs() < 0.01, "sel {sel}");
        let res2 = run_q19(Q19Join::Cprl, &p, &l, 2);
        assert_eq!(res.filtered_rows, res2.filtered_rows);
    }

    #[test]
    fn phases_are_reported() {
        let (p, l) = tables();
        let res = run_q19(Q19Join::Cpra, &p, &l, 2);
        assert!(res.total_wall() >= res.build_wall);
    }
}
