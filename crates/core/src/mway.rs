//! MWAY — the multi-way sort-merge join (Balkesen et al. 2013).
//!
//! Pipeline: (1) one radix pass with SWWCB into 2^[`MWAY_DEFAULT_BITS`]
//! partitions (or `JoinConfig::radix_bits`), which stores every tuple
//! as its packed word ([`packed_layout`]); (2) each partition's build
//! and probe sides are sorted independently, in place in the partition
//! buffer, by [`mmjoin_sort::sort_packed`] — runs formed with a sorting
//! network and merged in cache, combined with one bandwidth-saving
//! multiway merge (AVX-512 bitonic kernels where the CPU has them,
//! scalar networks and loser trees elsewhere); (3) co-partitions are
//! merge-joined in the same buffer.
//!
//! The paper's MWAY partitions only enough for task parallelism
//! ([`black_box_bits`]: 4 × threads) and sorts partitions far larger
//! than a cache. The default fan-out here is cache-sized instead: at
//! 1 Mi ⋈ 10 Mi a co-partition holds about 10 Ki probe tuples and
//! sorts in L2 with no multiway merge, while the one SWWCB pass still
//! runs at memory speed. At the paper's full scale a partition still
//! holds many runs, so the multiway merge stays on MWAY's path.
//!
//! The original requires a power-of-two thread count; this implementation
//! has no such restriction (tasks come from a queue), but the harness
//! mirrors the paper and caps MWAY at 32 threads in Figure 1-style runs.

use std::sync::Mutex;

use mmjoin_partition::{
    packed_layout, partition_parallel_emit_on, task_order, RadixFn, ScatterMode, ScheduleOrder,
};
use mmjoin_sort::mergesort::{memory_passes, scratch_len};
use mmjoin_sort::sort_packed;
use mmjoin_util::alloc::AlignedVec;
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::pool::lock_recover;
use mmjoin_util::{next_pow2, Relation};

use crate::config::JoinConfig;
use crate::exec::{join_morsels, morsel_map};
use crate::executor::QueuePolicy;
use crate::plan::JoinError;
use crate::pro::{partition_phase, swwcb_partition_bytes, CoPartitions};
use crate::run::JoinRun;
use crate::spec::{self, ops, PartitionLayout, PartitionWrites, PhaseModel};
use crate::stats::JoinResult;
use crate::Algorithm;

/// Default MWAY fan-out, 2^10 partitions, floored at the paper's
/// [`black_box_bits`]. Swept at 2 threads from 2^8 to 2^12 partitions
/// (CHANGES.md): 2^11–2^12 run the two large benchmark shapes (1 Mi ⋈
/// 10 Mi, 5 Mi ⋈ 5 Mi) up to 7 % faster but slow the small one
/// (128 Ki ⋈ 512 Ki) by 4–23 %; 2^10 is within 8 % of the best on all
/// three.
pub const MWAY_DEFAULT_BITS: u32 = 10;

/// The paper's MWAY fan-out for `threads` workers: enough partitions
/// for task parallelism (4 × threads, a power of two, at least 4), not
/// cache-sized. `repro` runs MWAY at it, as the paper's black box.
pub fn black_box_bits(threads: usize) -> u32 {
    next_pow2(threads * 4).max(4).trailing_zeros()
}

/// MWAY's fan-out when `radix_bits` is unset.
fn default_bits(threads: usize) -> u32 {
    MWAY_DEFAULT_BITS.max(black_box_bits(threads))
}

/// MWAY join.
pub(crate) fn join_mway(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
) -> Result<JoinResult, JoinError> {
    let mut run = JoinRun::begin(Algorithm::Mway, cfg);
    let bits = cfg.radix_bits.unwrap_or_else(|| default_bits(cfg.threads));
    let parts = 1 << bits;
    let f = RadixFn::new(bits);

    // Phase 1: partition both inputs (single pass, SWWCB), each tuple
    // stored so that its bytes are its packed word.
    let writes = PartitionWrites::GlobalInterleaved;
    let (mut pr, mut ps) = partition_phase(
        &mut run,
        r,
        s,
        swwcb_partition_bytes(cfg, r, s, parts),
        spec::partition_model(cfg, &[r, s], &[parts], true, writes),
        |tuples, p| {
            partition_parallel_emit_on(tuples, f, p, ScatterMode::Swwcb, |_, t| packed_layout(t))
        },
    )?;
    let (r_sizes, s_sizes) = (pr.sizes(), ps.sizes());

    // Phase 2: sort each side of every partition where the scatter left
    // it (morsel per partition); the join reads the same words. Held
    // while a worker sorts: one scratch for the longer side of its
    // partition — as long as that side, and with the vector kernels the
    // merge tree's node buffers past it.
    let longest = r_sizes.iter().chain(&s_sizes).copied().max().unwrap_or(0);
    run.reserve("sort", cfg.threads * scratch_len(longest) * 8)?;
    let order = task_order(parts, ScheduleOrder::Sequential);
    // Each partition's two sides, taken by the one morsel that sorts it.
    let sides: Vec<_> = pr
        .words_mut()
        .into_iter()
        .zip(ps.words_mut())
        .map(|sides| Mutex::new(Some(sides)))
        .collect();
    let sorted: Vec<(usize, &[u64], &[u64])> = run.phase(
        "sort",
        |p| {
            let scratch = AlignedVec::new;
            let policy = QueuePolicy::Shared;
            let mut slots = morsel_map(p, &order, parts, policy, scratch, |scratch, part| {
                let taken = lock_recover(&sides[part]).take();
                let (rs, ss) = taken.expect("one morsel per partition");
                if p.tick() {
                    return (part, &[][..], &[][..]);
                }
                sort_packed(rs, scratch);
                sort_packed(ss, scratch);
                (part, &*rs, &*ss)
            });
            slots.sort_by_key(|(part, _, _)| *part);
            Ok(slots)
        },
        |_| PhaseModel::ordered(sort_phase_specs(cfg, &r_sizes, &s_sizes), order.clone()),
    )?;

    // Phase 3: merge-join co-partitions.
    let checksum = run.phase(
        "join",
        |p| {
            let tuples = r.len() + s.len();
            Ok(join_morsels(
                p,
                &order,
                parts,
                tuples,
                QueuePolicy::Shared,
                |pull| {
                    let mut c = JoinChecksum::new();
                    while let Some(part) = pull() {
                        if p.tick() {
                            break;
                        }
                        let (_, rs, ss) = sorted[part];
                        merge_join_sorted(rs, ss, &mut c);
                    }
                    c
                },
            ))
        },
        |_| {
            let tasks = spec::join_task_specs(
                cfg,
                &r_sizes,
                &s_sizes,
                PartitionLayout::Contiguous,
                ops::MERGE_JOIN,
                ops::MERGE_JOIN,
                0.0, // no table: pure streaming merge
            );
            PhaseModel::ordered(tasks, order.clone())
        },
    )?;
    Ok(run.finish(checksum, Some(bits)))
}

/// Merge-join two key-sorted packed arrays (duplicates expand to the
/// cross product, like every hash variant).
fn merge_join_sorted(rs: &[u64], ss: &[u64], c: &mut JoinChecksum) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < rs.len() && j < ss.len() {
        let rk = (rs[i] >> 32) as u32;
        let sk = (ss[j] >> 32) as u32;
        if rk < sk {
            i += 1;
        } else if sk < rk {
            j += 1;
        } else {
            let i_end = rs[i..]
                .iter()
                .take_while(|&&v| (v >> 32) as u32 == rk)
                .count()
                + i;
            let j_end = ss[j..]
                .iter()
                .take_while(|&&v| (v >> 32) as u32 == rk)
                .count()
                + j;
            for &rv in &rs[i..i_end] {
                for &sv in &ss[j..j_end] {
                    c.add(rk, rv as u32, sv as u32);
                }
            }
            i = i_end;
            j = j_end;
        }
    }
}

/// Cost specs for the sort phase, from the partition sizes of each
/// side: each side of a partition, sorted where it lies, streams through
/// memory once per pass of the sort (the cache-blocked run sort, then
/// one multiway merge if it has several runs), and pays n·log2(n)
/// compares.
fn sort_phase_specs(
    cfg: &JoinConfig,
    r_sizes: &[usize],
    s_sizes: &[usize],
) -> Vec<mmjoin_numamodel::TaskSpec> {
    let parts = r_sizes.len();
    let nodes = cfg.topology.nodes;
    (0..parts)
        .map(|p| {
            let sides = [r_sizes[p], s_sizes[p]];
            let n = (sides[0] + sides[1]) as f64;
            let streamed: f64 = sides
                .iter()
                .map(|&len| (len * 8 * memory_passes(len)) as f64)
                .sum();
            let mut spec = mmjoin_numamodel::TaskSpec::new(nodes);
            let node = mmjoin_partition::task::node_of_partition(p, parts, nodes);
            spec.stream(node, streamed);
            spec.cpu(n * (n.max(2.0)).log2() * ops::SORT_CMP);
            spec.tlb(spec::seq_tlb_misses(streamed, cfg));
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk, gen_probe_zipf};
    use mmjoin_util::Placement;

    #[test]
    fn mway_matches_reference() {
        let n = 5_000;
        let r = gen_build_dense(n, 31, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(20_000, n, 32, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        for threads in [1, 3, 4, 8] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            let res = join_mway(&r, &s, &cfg).unwrap();
            assert_eq!(res.matches, expect.count, "threads={threads}");
            assert_eq!(res.checksum, expect.digest);
        }
    }

    #[test]
    fn mway_duplicates_cross_product() {
        let n = 500;
        let r = gen_build_dense(n, 33, Placement::Interleaved);
        let s = gen_probe_zipf(5_000, n, 0.99, 34, Placement::Interleaved);
        let expect = reference_join(&r, &s);
        for threads in [1, 3, 4] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            let res = join_mway(&r, &s, &cfg).unwrap();
            assert_eq!(res.radix_bits, Some(MWAY_DEFAULT_BITS), "threads={threads}");
            assert_eq!(res.matches, expect.count, "threads={threads}");
            assert_eq!(res.checksum, expect.digest, "threads={threads}");
        }
    }

    #[test]
    fn default_fan_out_is_floored_at_the_papers() {
        // The paper's fan-out: 4 × threads, a power of two, at least 4.
        let paper: Vec<u32> = [1, 2, 3, 8, 512].map(black_box_bits).to_vec();
        assert_eq!(paper, [2, 3, 4, 5, 11]);
        assert_eq!(default_bits(2), MWAY_DEFAULT_BITS);
        assert_eq!(default_bits(512), 11);
    }

    #[test]
    fn merge_join_cross_products() {
        let rs = vec![(5u64 << 32) | 1, (5u64 << 32) | 2, (7u64 << 32) | 3];
        let ss = vec![(5u64 << 32) | 10, (5u64 << 32) | 11, (6u64 << 32) | 12];
        let mut c = JoinChecksum::new();
        merge_join_sorted(&rs, &ss, &mut c);
        assert_eq!(c.count, 4);
    }

    #[test]
    fn mway_phases() {
        let r = gen_build_dense(1_000, 1, Placement::Interleaved);
        let s = gen_probe_fk(2_000, 1_000, 2, Placement::Interleaved);
        let cfg = JoinConfig::new(2);
        let res = join_mway(&r, &s, &cfg).unwrap();
        let names: Vec<&str> = res.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["partition", "sort", "join"]);
    }
}
