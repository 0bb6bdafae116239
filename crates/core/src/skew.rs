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

use mmjoin_hashtable::TableSpec;
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::chunk_range;
use mmjoin_util::pool::{broadcast_map, WorkerPool};
use mmjoin_util::tuple::Tuple;

use crate::config::TableKind;
use crate::exec::merge_checksums;

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

/// Cooperatively join one skewed co-partition: single build, then all
/// of `pool`'s threads probe disjoint chunks. `r_slices`/`s_slices` are
/// the chunked (or single) slices of the partition's build and probe
/// sides; `unique` selects first-match probes.
pub fn join_skewed_partition(
    pool: &dyn WorkerPool,
    unique: bool,
    kind: TableKind,
    spec: &TableSpec,
    r_slices: &[&[Tuple]],
    s_slices: &[&[Tuple]],
) -> JoinChecksum {
    // Flatten the probe side into per-thread ranges over the slice list.
    let total_probe: usize = s_slices.iter().map(|s| s.len()).sum();
    let threads = pool.workers().clamp(1, total_probe.max(1));

    // Build once (single-threaded: skewed partitions have an ordinary-
    // sized build side — the skew is in the probe keys).
    // Table kinds are Sync, so sharing it read-only across the probing
    // workers below is safe; the pool's barrier publishes the build.
    use mmjoin_hashtable::{ArrayTable, IdentityHash, JoinTable, StChainedTable, StLinearTable};
    macro_rules! run_with {
        ($ty:ty) => {{
            let mut table = <$ty>::with_spec(spec);
            for slice in r_slices {
                for &t in *slice {
                    table.insert(t);
                }
            }
            let table = &table;
            let parts: Vec<JoinChecksum> = broadcast_map(pool, threads, |t| {
                let range = chunk_range(total_probe, threads, t);
                let mut c = JoinChecksum::new();
                // Walk the slice list, probing only the global
                // positions inside `range`.
                let mut pos = 0usize;
                for slice in s_slices {
                    let end = pos + slice.len();
                    if end > range.start && pos < range.end {
                        let lo = range.start.max(pos) - pos;
                        let hi = range.end.min(end) - pos;
                        if unique {
                            for &tu in &slice[lo..hi] {
                                table.probe_unique(tu.key, |bp| c.add(tu.key, bp, tu.payload));
                            }
                        } else {
                            for &tu in &slice[lo..hi] {
                                table.probe(tu.key, |bp| c.add(tu.key, bp, tu.payload));
                            }
                        }
                    }
                    pos = end;
                    if pos >= range.end {
                        break;
                    }
                }
                c
            });
            merge_checksums(parts)
        }};
    }
    match kind {
        TableKind::Chained => run_with!(StChainedTable<IdentityHash>),
        TableKind::Linear => run_with!(StLinearTable<IdentityHash>),
        TableKind::Array => run_with!(ArrayTable),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pro::join_co_partition;
    use mmjoin_util::pool::ScopedPool;
    use mmjoin_util::trace::NoTracer;
    use mmjoin_util::tuple::Tuple;

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

    #[test]
    fn cooperative_join_matches_serial() {
        let pool = ScopedPool::new(4);
        let build: Vec<Tuple> = (1..=100u32).map(|k| Tuple::new(k, k)).collect();
        let probe: Vec<Tuple> = (0..10_000u32).map(|i| Tuple::new(i % 100 + 1, i)).collect();
        // Split both sides into uneven slices to exercise the walker.
        let r_slices: Vec<&[Tuple]> = vec![&build[..30], &build[30..]];
        let s_slices: Vec<&[Tuple]> = vec![&probe[..1], &probe[1..5000], &probe[5000..]];
        let spec = TableSpec::hashed(build.len());
        for kind in [TableKind::Chained, TableKind::Linear] {
            let coop = join_skewed_partition(&pool, true, kind, &spec, &r_slices, &s_slices);
            let mut serial = JoinChecksum::new();
            let (mut r, mut s) = (r_slices.iter().copied(), s_slices.iter().copied());
            join_co_partition(
                kind,
                &spec,
                false,
                &mut r,
                &mut s,
                &mut serial,
                &mut NoTracer,
            );
            assert_eq!(coop, serial, "{kind:?}");
            assert_eq!(coop.count, 10_000);
        }
    }

    #[test]
    fn cooperative_join_with_array_table() {
        let pool = ScopedPool::new(3);
        let build: Vec<Tuple> = (1..=50u32).map(|k| Tuple::new(k, k + 7)).collect();
        let probe: Vec<Tuple> = (0..5_000u32).map(|i| Tuple::new(i % 50 + 1, i)).collect();
        let r_slices: Vec<&[Tuple]> = vec![&build];
        let s_slices: Vec<&[Tuple]> = vec![&probe];
        let spec = TableSpec::array(0, 51);
        let coop =
            join_skewed_partition(&pool, true, TableKind::Array, &spec, &r_slices, &s_slices);
        assert_eq!(coop.count, 5_000);
    }
}
