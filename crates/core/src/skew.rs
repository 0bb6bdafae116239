//! Skew handling: cooperative processing of oversized co-partitions.
//!
//! The paper's partitioned joins handle skew only through task-queue
//! load balancing and note the limitation explicitly (Appendix A: "We do
//! not exploit the possibility to use multiple threads to process the
//! join on the largest partitions in parallel"). This module implements
//! that missing mechanism as an opt-in extension
//! ([`crate::JoinConfig::skew_handling`]):
//!
//! 1. after partitioning, co-partitions whose *probe* side exceeds
//!    [`SKEW_FACTOR`] × the average are classified as skewed;
//! 2. normal partitions run through the task queue as usual;
//! 3. each skewed partition is then processed cooperatively: one build
//!    of its table, all threads probing disjoint ranges of its probe
//!    side (the build table is read-only during probing, so sharing is
//!    free).
//!
//! The `repro skewfix` experiment ablates this against the paper's
//! baseline on the Zipf workloads of Figure 15.

use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::chunk_range;
use mmjoin_util::pool::{broadcast_map, WorkerPool};
use mmjoin_util::trace::NoTracer;
use mmjoin_util::tuple::Tuple;

use crate::exec::merge_checksums;
use crate::pro::PartTable;

/// A partition is "skewed" when its probe side exceeds this multiple of
/// the average probe partition size (and is worth splitting at all).
pub const SKEW_FACTOR: f64 = 4.0;

/// Split partition ids into (normal, skewed) by probe-side size.
pub fn classify_partitions(s_sizes: &[usize], threads: usize) -> (Vec<usize>, Vec<usize>) {
    let total: usize = s_sizes.iter().sum();
    let parts = s_sizes.len().max(1);
    let avg = total as f64 / parts as f64;
    // Splitting pays off only when one partition can stall the queue:
    // more than SKEW_FACTOR × average AND a meaningful share of a
    // thread's fair share of all work.
    let fair_share = total as f64 / threads.max(1) as f64;
    let threshold = (avg * SKEW_FACTOR).max(fair_share * 0.5).max(1.0);
    let mut normal = Vec::new();
    let mut skewed = Vec::new();
    for (p, &s) in s_sizes.iter().enumerate() {
        if (s as f64) > threshold {
            skewed.push(p);
        } else {
            normal.push(p);
        }
    }
    (normal, skewed)
}

/// Cooperatively join one skewed co-partition: one build of `table`
/// over `r_slices` (single-threaded: a skewed partition has an
/// ordinary-sized build side — the skew is in the probe keys), then all
/// of `pool`'s threads probe disjoint ranges of `s_slices`, the chunked
/// (or single) slices of the partition's probe side. The built table is
/// read-only and `Sync`; the pool's barrier publishes the build.
/// `unique` selects first-match probes.
pub fn join_skewed_partition(
    pool: &dyn WorkerPool,
    unique: bool,
    table: PartTable,
    r_slices: &[&[Tuple]],
    s_slices: &[&[Tuple]],
) -> JoinChecksum {
    let part_r_len = r_slices.iter().map(|r| r.len()).sum();
    let mut built = table.unbuilt();
    table.build(
        &mut built,
        part_r_len,
        r_slices.iter().copied(),
        &mut NoTracer,
    );
    let total_probe: usize = s_slices.iter().map(|s| s.len()).sum();
    let threads = pool.workers().clamp(1, total_probe.max(1));
    merge_checksums(broadcast_map(pool, threads, |t| {
        // Walk the slice list, probing only the global positions inside
        // this worker's range.
        let range = chunk_range(total_probe, threads, t);
        let mut c = JoinChecksum::new();
        let mut pos = 0usize;
        for slice in s_slices {
            let end = pos + slice.len();
            if end > range.start && pos < range.end {
                let mine = &slice[range.start.max(pos) - pos..range.end.min(end) - pos];
                built.probe_batch(mine, unique, &mut NoTracer, |tu, bp| {
                    c.add(tu.key, bp, tu.payload)
                });
            }
            pos = end;
        }
        c
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TableKind;
    use crate::pro::join_co_partition;
    use mmjoin_util::pool::ScopedPool;

    #[test]
    fn classification_finds_the_heavy_partition() {
        let mut sizes = vec![100usize; 64];
        sizes[17] = 100_000;
        let (normal, skewed) = classify_partitions(&sizes, 8);
        assert_eq!(skewed, vec![17]);
        assert_eq!(normal.len(), 63);
    }

    #[test]
    fn uniform_sizes_have_no_skew() {
        let sizes = vec![1_000usize; 64];
        let (normal, skewed) = classify_partitions(&sizes, 8);
        assert!(skewed.is_empty());
        assert_eq!(normal.len(), 64);
    }

    #[test]
    fn empty_and_tiny() {
        let (n, s) = classify_partitions(&[], 4);
        assert!(n.is_empty() && s.is_empty());
        let (n, s) = classify_partitions(&[5], 4);
        assert_eq!(n, vec![0]);
        assert!(s.is_empty());
    }

    /// The cooperative join is the serial co-partition join, whatever
    /// the table, the probe mode, the slicing and the pool: more workers
    /// than probes and (hash tables) a duplicated build key included.
    #[test]
    fn cooperative_join_matches_serial() {
        let dense: Vec<Tuple> = (1..=100u32).map(|k| Tuple::new(k, k + 7)).collect();
        let duplicated: Vec<Tuple> = dense.iter().copied().chain([Tuple::new(7, 0)]).collect();
        let long: Vec<Tuple> = (0..10_000u32).map(|i| Tuple::new(i % 120 + 1, i)).collect();
        let short = &long[..5];
        for kind in [TableKind::Chained, TableKind::Linear, TableKind::Array] {
            let table = PartTable {
                kind,
                bits: 0,
                domain: 101,
            };
            // An array slot holds one payload: its build keys are unique.
            let build = match kind {
                TableKind::Array => &dense,
                _ => &duplicated,
            };
            for (probe, workers) in [(&long[..], 1), (&long[..], 3), (short, 8)] {
                let pool = ScopedPool::new(workers);
                // Uneven slices exercise the walker; one slice a side is
                // the contiguous partitioning's shape.
                let chunked_r: Vec<&[Tuple]> = vec![&build[..30], &build[30..]];
                let cut = probe.len() / 2;
                let chunked_s: Vec<&[Tuple]> = vec![&probe[..1], &probe[1..cut], &probe[cut..]];
                let slicings = [(chunked_r, chunked_s), (vec![&build[..]], vec![probe])];
                for (r_slices, s_slices) in slicings {
                    for unique in [true, false] {
                        let coop =
                            join_skewed_partition(&pool, unique, table, &r_slices, &s_slices);
                        let mut serial = JoinChecksum::new();
                        join_co_partition(
                            table,
                            unique,
                            &mut table.unbuilt(),
                            build.len(),
                            r_slices.iter().copied(),
                            s_slices.iter().copied(),
                            &mut NoTracer,
                            |t, bp| serial.add(t.key, bp, t.payload),
                        );
                        let at = format!("{kind:?} unique={unique} workers={workers}");
                        assert_eq!(coop, serial, "{at}, {} slices", s_slices.len());
                        assert!(coop.count > 0, "{at}");
                    }
                }
            }
        }
    }
}
