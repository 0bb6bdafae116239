//! Failure-injection & adversarial-input tests: pathological workloads
//! that stress the paper-relevant failure modes — extreme skew (one
//! partition owns everything), boundary keys, degenerate fanouts,
//! duplicate floods, and queue starvation shapes.

use mmjoin::core::mway::{black_box_bits, MWAY_DEFAULT_BITS};
use mmjoin::core::reference::reference_join;
use mmjoin::core::{Algorithm, Join, JoinConfig, JoinError, JoinResult};
use mmjoin::partition::{chunked_partition_on, partition_parallel_on, RadixFn, ScatterMode};
use mmjoin::util::pool::ScopedPool;
use mmjoin::util::{Placement, Relation, Tuple};

fn cfg(threads: usize, bits: Option<u32>) -> JoinConfig {
    let mut c = JoinConfig::new(threads);
    c.simulate = false;
    c.radix_bits = bits;
    c
}

fn run_join(alg: Algorithm, r: &Relation, s: &Relation, c: &JoinConfig) -> JoinResult {
    Join::new(alg)
        .with_config(c.clone())
        .run(r, s)
        .expect("valid plan")
}

/// Algorithms that tolerate arbitrary key multisets (array joins need
/// unique keys by contract).
const MULTISET_ALGOS: [Algorithm; 9] = [
    Algorithm::Nop,
    Algorithm::Chtj,
    Algorithm::Mway,
    Algorithm::Prb,
    Algorithm::Pro,
    Algorithm::Prl,
    Algorithm::ProIs,
    Algorithm::PrlIs,
    Algorithm::Cprl,
];

#[test]
fn all_probe_tuples_hit_one_partition() {
    // Every probe key identical: one co-partition task carries the whole
    // probe side — the task-queue starvation shape of Appendix A.
    let n = 2_000;
    let r = mmjoin::datagen::gen_build_dense(n, 1, Placement::Chunked { parts: 4 });
    let hot: Vec<Tuple> = (0..20_000).map(|i| Tuple::new(777, i)).collect();
    let s = Relation::from_tuples(&hot, Placement::Chunked { parts: 4 });
    let expect = reference_join(&r, &s);
    assert_eq!(expect.count, 20_000);
    for alg in MULTISET_ALGOS {
        let res = run_join(alg, &r, &s, &cfg(4, Some(6)));
        assert_eq!(res.matches, expect.count, "{}", alg.name());
        assert_eq!(res.checksum, expect.digest, "{}", alg.name());
    }
}

#[test]
fn duplicate_flood_on_build_side() {
    // 50 copies of each build key: every probe fans out 50×.
    let mut build = Vec::new();
    for key in 1..=40u32 {
        for copy in 0..50u32 {
            build.push(Tuple::new(key, key * 100 + copy));
        }
    }
    let r = Relation::from_tuples(&build, Placement::Interleaved);
    let probes: Vec<Tuple> = (1..=40u32).map(|k| Tuple::new(k, k)).collect();
    let s = Relation::from_tuples(&probes, Placement::Interleaved);
    let expect = reference_join(&r, &s);
    assert_eq!(expect.count, 40 * 50);
    for alg in MULTISET_ALGOS {
        let res = run_join(alg, &r, &s, &cfg(3, Some(3)));
        assert_eq!(res.matches, expect.count, "{}", alg.name());
        assert_eq!(res.checksum, expect.digest, "{}", alg.name());
    }
}

#[test]
fn boundary_keys() {
    // Keys at the top of the u32 domain (key 0 is the reserved EMPTY
    // sentinel and is excluded by the generators' contract).
    let tuples = [
        Tuple::new(u32::MAX, 1),
        Tuple::new(u32::MAX - 1, 2),
        Tuple::new(1, 3),
        Tuple::new(2, 4),
    ];
    let r = Relation::from_tuples(&tuples, Placement::Interleaved);
    let s = Relation::from_tuples(&tuples, Placement::Interleaved);
    let expect = reference_join(&r, &s);
    for alg in MULTISET_ALGOS {
        // Skip NOPA-style domains; hash/sort algorithms must cope.
        let res = run_join(alg, &r, &s, &cfg(2, Some(2)));
        assert_eq!(res.matches, expect.count, "{}", alg.name());
        assert_eq!(res.checksum, expect.digest, "{}", alg.name());
    }
}

#[test]
fn mway_boundary_keys_through_the_multiway_merge() {
    // `boundary_keys` above sorts four tuples with one network. Here
    // every MWAY partition holds more than three runs of the probe side
    // (and, at one thread, of the build side), so the loser trees run —
    // over tuples that pack to their exhausted-run sentinels
    // (`u64::MAX` ascending, 0 descending; no hash table, so key 0 is
    // a key like any other) and over one hot key whose duplicates are
    // spread through the input, hence through every run of its
    // partition, on both sides. That takes the paper's fan-out of
    // 4 × threads partitions (`black_box_bits`), not MWAY's default.
    use mmjoin::sort::mergesort::RUN_LEN;
    const HOT: u32 = 12_345;
    let (n_r, n_s) = (4 * 3 * RUN_LEN + 4_000, 16 * 3 * RUN_LEN + 16_000);
    let salted = |n: usize, fk: usize, every: usize, extremes: usize| -> Vec<Tuple> {
        let mut tuples: Vec<Tuple> = (0..n)
            .map(|i| match i % every {
                0 => Tuple::new(HOT, i as u32),
                _ => Tuple::new((i % fk) as u32 + 1, i as u32),
            })
            .collect();
        for i in 0..extremes {
            tuples.insert(i * 1_000, Tuple::new(u32::MAX, u32::MAX));
            tuples.insert(i * 777 + 5, Tuple::new(0, 0));
        }
        tuples
    };
    // 600 hot tuples in R, 900 in S; 5 x 7 of each extreme.
    let r = Relation::from_tuples(&salted(n_r, n_r, n_r / 600, 5), Placement::Interleaved);
    let s = Relation::from_tuples(&salted(n_s, n_r, n_s / 900, 7), Placement::Interleaved);
    let expect = reference_join(&r, &s);
    assert!(expect.count > 600 * 900 + 2 * 35);
    for threads in [1, 2, 3] {
        let c = cfg(threads, Some(black_box_bits(threads)));
        let res = run_join(Algorithm::Mway, &r, &s, &c);
        assert_eq!(res.matches, expect.count, "threads={threads}");
        assert_eq!(res.checksum, expect.digest, "threads={threads}");
    }
}

#[test]
fn mway_identical_in_both_kernel_modes_through_the_multiway_merge() {
    // Sizes shaped like the test above: every MWAY partition holds more
    // than one run on both sides, at one thread (4 partitions) and at
    // two (8), so each side is sorted by the run sort, the merge passes
    // and the multiway merge — the AVX-512 run sort and merge tree in
    // the SIMD mode where the CPU has AVX-512F, the scalar network and
    // loser trees in the portable one. Both must give the reference's
    // checksum. The other joins that run meanwhile return the same in
    // either mode; the budget test below does not reserve the same.
    // Like the test above it runs at the paper's fan-out: at MWAY's
    // default, partitions this small hold one run.
    use mmjoin::sort::mergesort::RUN_LEN;
    use mmjoin::util::kernels::{with_mode, KernelMode};
    let n_r = 4 * 3 * RUN_LEN + 4_000;
    assert!(n_r / 8 > RUN_LEN);
    let r = mmjoin::datagen::gen_build_dense(n_r, 41, Placement::Chunked { parts: 4 });
    let s = mmjoin::datagen::gen_probe_fk(3 * n_r, n_r, 42, Placement::Chunked { parts: 4 });
    let expect = reference_join(&r, &s);
    for threads in [1, 2] {
        for mode in [KernelMode::Portable, KernelMode::Simd] {
            let c = cfg(threads, Some(black_box_bits(threads)));
            let res = with_mode(mode, || run_join(Algorithm::Mway, &r, &s, &c));
            assert_eq!(res.matches, expect.count, "threads={threads}, {mode:?}");
            assert_eq!(res.checksum, expect.digest, "threads={threads}, {mode:?}");
        }
    }
}

#[test]
fn zero_bit_partitioning_degenerates_gracefully() {
    // fanout 2^1 = 2 with everything in one partition.
    let tuples: Vec<Tuple> = (0..500).map(|i| Tuple::new(2 * i + 2, i)).collect(); // all even
    let pr = partition_parallel_on(
        &tuples,
        RadixFn::new(1),
        &ScopedPool::new(4),
        ScatterMode::Swwcb,
    );
    assert_eq!(pr.part_len(0), 500);
    assert_eq!(pr.part_len(1), 0);
    let cp = chunked_partition_on(
        &tuples,
        RadixFn::new(1),
        &ScopedPool::new(4),
        ScatterMode::Swwcb,
    );
    assert_eq!(cp.part_len(0), 500);
    assert_eq!(cp.part_len(1), 0);
}

#[test]
fn fanout_larger_than_input() {
    // 2^12 partitions for 100 tuples: almost all partitions empty.
    let tuples: Vec<Tuple> = (1..=100).map(|k| Tuple::new(k, k)).collect();
    let pr = partition_parallel_on(
        &tuples,
        RadixFn::new(12),
        &ScopedPool::new(4),
        ScatterMode::Swwcb,
    );
    let total: usize = (0..pr.parts()).map(|p| pr.part_len(p)).sum();
    assert_eq!(total, 100);
    // And a join over that fanout still works.
    let r = Relation::from_tuples(&tuples, Placement::Interleaved);
    let s = Relation::from_tuples(&tuples, Placement::Interleaved);
    let res = run_join(Algorithm::Cprl, &r, &s, &cfg(4, Some(12)));
    assert_eq!(res.matches, 100);
}

#[test]
fn asymmetric_extremes() {
    // |R| = 1 vs large |S|, and the reverse.
    let one = Relation::from_tuples(&[Tuple::new(5, 0)], Placement::Interleaved);
    let many: Vec<Tuple> = (0..5_000).map(|i| Tuple::new(5, i)).collect();
    let many = Relation::from_tuples(&many, Placement::Interleaved);
    for alg in MULTISET_ALGOS {
        let res = run_join(alg, &one, &many, &cfg(4, Some(4)));
        assert_eq!(res.matches, 5_000, "{} 1xN", alg.name());
        let res = run_join(alg, &many, &one, &cfg(4, Some(4)));
        assert_eq!(res.matches, 5_000, "{} Nx1", alg.name());
    }
}

#[test]
fn runtime_limits_honored_by_all_thirteen() {
    // Every driver must observe the three runtime limits of JoinConfig:
    // an already-expired deadline, a pre-cancelled token, and a 1-byte
    // memory budget. None of these needs the `failpoints` feature.
    let r = mmjoin::datagen::gen_build_dense(3_000, 21, Placement::Chunked { parts: 4 });
    let s = mmjoin::datagen::gen_probe_fk(12_000, 3_000, 22, Placement::Chunked { parts: 4 });
    for alg in Algorithm::ALL {
        let name = alg.name();

        let mut c = cfg(4, Some(5));
        c.deadline = Some(std::time::Duration::ZERO);
        match Join::new(alg).with_config(c).run(&r, &s) {
            Err(JoinError::Timedout { .. }) => {}
            other => panic!("{name}: expected Timedout with zero deadline, got {other:?}"),
        }

        let c = cfg(4, Some(5));
        c.cancel.cancel();
        match Join::new(alg).with_config(c).run(&r, &s) {
            Err(JoinError::Cancelled { .. }) => {}
            other => panic!("{name}: expected Cancelled with tripped token, got {other:?}"),
        }

        let mut c = cfg(4, Some(5));
        c.mem_limit = Some(1);
        match Join::new(alg).with_config(c).run(&r, &s) {
            Err(JoinError::MemoryBudgetExceeded {
                requested, limit, ..
            }) => {
                assert_eq!(limit, 1, "{name}");
                assert!(requested > 1, "{name}");
            }
            other => panic!("{name}: expected MemoryBudgetExceeded at 1 byte, got {other:?}"),
        }
    }
}

/// The bytes a join refused under `limit` had asked for, in `in_phase`.
fn refused_in<T: std::fmt::Debug>(
    res: Result<T, JoinError>,
    limit: usize,
    in_phase: &str,
) -> usize {
    match res {
        Err(JoinError::MemoryBudgetExceeded {
            phase, requested, ..
        }) => {
            assert_eq!(phase, in_phase, "limit {limit}");
            requested
        }
        other => panic!("limit {limit}: expected MemoryBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn mway_budget_counts_the_sort_scratch() {
    // MWAY sorts each side of a partition where the partition pass put
    // it, so its sort phase holds nothing besides one scratch per worker
    // for the longer side of the partition being sorted: as long as
    // that side, and — with the AVX-512 kernels, once a side has more
    // than one run — the merge tree's node buffers past it
    // (`mergesort::scratch_len`). The budget must admit the join at
    // exactly what it reserves and refuse it one byte short: at
    // partitions of one run and of several (3 bits, so a partition of
    // the larger input holds > 2 × `RUN_LEN` a side), and at the default
    // fan-out, whose bits the result reports; in both kernel modes.
    use mmjoin::sort::mergesort::{scratch_len, RUN_LEN};
    use mmjoin::util::kernels::{with_mode, KernelMode};
    let threads = 2;
    let check = |r: &Relation, s: &Relation, fan_out: Option<u32>| {
        let expect = reference_join(r, s);
        let run = |limit: usize| {
            let mut c = cfg(threads, fan_out);
            c.mem_limit = Some(limit);
            Join::new(Algorithm::Mway).with_config(c).run(r, s)
        };
        let refused = |limit: usize, in_phase: &str| refused_in(run(limit), limit, in_phase);
        let partition = refused(1, "partition");
        let sort = refused(partition, "sort");
        refused(partition + sort - 1, "sort");
        let res = run(partition + sort).expect("the budget MWAY asks for is enough");
        assert_eq!(res.matches, expect.count);
        assert_eq!(res.checksum, expect.digest);
        let bits = res.radix_bits.expect("MWAY reports its fan-out");
        assert_eq!(bits, fan_out.unwrap_or(MWAY_DEFAULT_BITS));
        let longest = (0..1 << bits)
            .map(|p| {
                let side = |rel: &Relation| {
                    rel.tuples()
                        .iter()
                        .filter(|t| RadixFn::new(bits).part(t.key) == p)
                        .count()
                };
                side(r).max(side(s))
            })
            .max()
            .unwrap();
        assert_eq!(sort, threads * scratch_len(longest) * 8);
        longest
    };
    let r1 = mmjoin::datagen::gen_build_dense(3_000, 21, Placement::Chunked { parts: 4 });
    let s1 = mmjoin::datagen::gen_probe_fk(12_000, 3_000, 22, Placement::Chunked { parts: 4 });
    let n = 8 * RUN_LEN + 3_000;
    let r2 = mmjoin::datagen::gen_build_dense(n, 23, Placement::Chunked { parts: 4 });
    let s2 = mmjoin::datagen::gen_probe_fk(3 * n, n, 24, Placement::Chunked { parts: 4 });
    for mode in [KernelMode::Portable, KernelMode::Simd] {
        with_mode(mode, || {
            assert!(check(&r1, &s1, Some(3)) <= RUN_LEN, "{mode:?}");
            assert!(check(&r2, &s2, Some(3)) > 2 * RUN_LEN, "{mode:?}");
            assert!(check(&r2, &s2, None) <= RUN_LEN, "{mode:?}");
        });
    }
}

#[test]
fn pro_budget_counts_the_swwcb_banks() {
    // PRO's partition phase holds the partitioned copies of R and S and
    // one SWWCB bank per worker (`swwcb::bank_bytes`). The budget must
    // refuse the phase one byte short of that, and admit the join at
    // exactly what its phases ask for: the partition phase, then (one
    // worker) one table, every partition of dense keys being the same
    // size.
    use mmjoin::core::pro::PartTable;
    use mmjoin::core::TableKind;
    use mmjoin::partition::swwcb;
    let bits = 5;
    let r = mmjoin::datagen::gen_build_dense(4_096, 25, Placement::Chunked { parts: 4 });
    let s = mmjoin::datagen::gen_probe_fk(12_000, 4_096, 26, Placement::Chunked { parts: 4 });
    let expect = reference_join(&r, &s);
    let table = PartTable {
        kind: TableKind::Chained,
        bits,
        domain: 0,
    };
    let table = table.spec(r.len() >> bits).table_bytes();
    for threads in [1, 2] {
        let run = |limit: usize| {
            let mut c = cfg(threads, Some(bits));
            c.mem_limit = Some(limit);
            Join::new(Algorithm::Pro).with_config(c).run(&r, &s)
        };
        let partition = refused_in(run(1), 1, "partition");
        let banks = threads * swwcb::bank_bytes(1 << bits);
        assert_eq!(
            partition,
            (r.len() + s.len()) * 8 + banks,
            "{threads} threads"
        );
        refused_in(run(partition - 1), partition - 1, "partition");
        if threads == 1 {
            assert_eq!(refused_in(run(partition), partition, "join"), table);
            refused_in(run(partition + table - 1), partition + table - 1, "join");
            let res = run(partition + table).expect("the budget PRO asks for is enough");
            assert_eq!(res.matches, expect.count);
            assert_eq!(res.checksum, expect.digest);
        }
    }
}

/// The tuples of `rel`'s longest partition under `bits` radix bits.
fn longest_part(rel: &Relation, bits: u32) -> usize {
    let f = RadixFn::new(bits);
    let mut lens = vec![0usize; f.fanout()];
    for t in rel.tuples() {
        lens[f.part(t.key)] += 1;
    }
    lens.into_iter().max().unwrap_or(0)
}

#[test]
fn prb_budget_counts_the_bounce_buffers() {
    // PRB's pass 2 routes each pass-1 partition into its worker's bounce
    // buffer, as long as the longest pass-1 partition, and copies it back
    // in place. So the partition phase holds the pass-1 output of R and S
    // (8 B/tuple), reserved ahead, and — charged once pass 1 has counted
    // it, while a relation's pass 2 runs — one bounce buffer per worker.
    // The budget must refuse the phase one byte short of that and admit
    // the join at exactly that (the shapes' tables fit in what the bounce
    // buffers gave back): on uniform keys, and on keys that all fall in
    // one pass-1 partition, on 1 and 3 workers.
    use mmjoin::core::pro::PartTable;
    use mmjoin::core::TableKind;
    let bits = 6;
    let place = Placement::Chunked { parts: 4 };
    let r1 = mmjoin::datagen::gen_build_dense(4_096, 27, place);
    let s1 = mmjoin::datagen::gen_probe_fk(12_000, 4_096, 28, place);
    // Every key's low three bits are 0b101: one pass-1 partition of 8.
    let lumped: Vec<Tuple> = (0..3_000u32)
        .map(|i| Tuple::new((i + 1) << 3 | 5, i))
        .collect();
    let probes: Vec<Tuple> = lumped.iter().cycle().take(9_000).copied().collect();
    let (r2, s2) = (
        Relation::from_tuples(&lumped, place),
        Relation::from_tuples(&probes, place),
    );
    assert_eq!(longest_part(&s2, bits / 2), s2.len());
    let table = PartTable {
        kind: TableKind::Chained,
        bits,
        domain: 0,
    };
    for (r, s) in [(&r1, &s1), (&r2, &s2)] {
        let expect = reference_join(r, s);
        let pass1 = longest_part(r, bits / 2).max(longest_part(s, bits / 2));
        let largest_table = table.spec(longest_part(r, bits)).table_bytes();
        for threads in [1, 3] {
            let run = |limit: usize| {
                let mut c = cfg(threads, Some(bits));
                c.mem_limit = Some(limit);
                Join::new(Algorithm::Prb).with_config(c).run(r, s)
            };
            let upfront = refused_in(run(1), 1, "partition");
            assert_eq!(upfront, (r.len() + s.len()) * 8, "{threads} threads");
            let bounce = threads * pass1 * 8;
            assert!(threads * largest_table <= bounce, "{threads} threads");
            let short = upfront + bounce - 1;
            assert_eq!(refused_in(run(short), short, "partition"), bounce);
            let res = run(upfront + bounce).expect("the pass-1 output and the bounce buffers");
            assert_eq!(res.matches, expect.count, "{threads} threads");
            assert_eq!(res.checksum, expect.digest, "{threads} threads");
        }
    }
}

#[test]
fn prb_budget_counts_one_table_per_worker() {
    // A join worker keeps one table across the co-partitions it pulls,
    // reset in place and replaced only by a larger one, so the join
    // phase holds one table per worker at the largest its partitions
    // needed — not one per task, not the sum of what was ever built.
    // Partition `p` of 32 holds `10 + 20 p` build tuples, the last 3 000,
    // so the one worker's reservation grows step by step to that maximum
    // (and past the bounce buffers the partition phase gave back). The
    // budget must admit the join at exactly that and refuse it one byte
    // short.
    use mmjoin::core::pro::PartTable;
    use mmjoin::core::TableKind;
    let part_len = |p: u32| if p == 31 { 3_000 } else { 10 + 20 * p };
    let tuples: Vec<Tuple> = (0..32u32)
        .flat_map(|p| (0..part_len(p)).map(move |j| Tuple::new((j + 1) << 5 | p, j)))
        .collect();
    let r = Relation::from_tuples(&tuples, Placement::Chunked { parts: 4 });
    let s = mmjoin::datagen::gen_probe_fk(12_000, 9_000, 24, Placement::Chunked { parts: 4 });
    let expect = reference_join(&r, &s);
    let bits = 5;
    let run = |threads: usize, limit: usize| {
        let mut c = cfg(threads, Some(bits));
        c.mem_limit = Some(limit);
        Join::new(Algorithm::Prb).with_config(c).run(&r, &s)
    };
    let partition = refused_in(run(1, 1), 1, "partition");
    let table = PartTable {
        kind: TableKind::Chained,
        bits,
        domain: 0,
    };
    let mut part_lens = vec![0usize; 1 << bits];
    for t in &tuples {
        part_lens[t.key as usize & ((1 << bits) - 1)] += 1;
    }
    let table_bytes = |n: &usize| table.spec(*n).table_bytes();
    let largest = part_lens.iter().map(table_bytes).max().unwrap();
    assert!(
        part_lens.iter().map(table_bytes).min().unwrap() < largest,
        "the shape needs tables of different sizes: {part_lens:?}"
    );
    // The partition phase's bounce buffers, given back before the join
    // phase (`prb_budget_counts_the_bounce_buffers`), must fit in what
    // the join asks for, or they and not the tables would trip first.
    let pass1 = longest_part(&r, bits / 2).max(longest_part(&s, bits / 2));
    assert!(pass1 * 8 < largest, "{pass1} tuples in pass 1");
    // One byte short, the refused request is the last growth step.
    let last_step = refused_in(run(1, partition + largest - 1), 0, "join");
    assert!(
        (1..=largest).contains(&last_step),
        "{last_step} of {largest}"
    );
    let res = run(1, partition + largest).expect("one table at its largest is enough");
    assert_eq!(res.matches, expect.count);
    assert_eq!(res.checksum, expect.digest);
    // However the tasks fall, no worker holds more than the largest.
    let res = run(3, partition + 3 * largest).expect("one largest table per worker");
    assert_eq!(res.checksum, expect.digest);
}

#[test]
fn chtj_budget_counts_the_bulkload_scratch() {
    // CHTJ's build holds, besides the table it keeps (bitmap groups +
    // dense array, at least 10 B a tuple), the bulkload's scratch: one
    // region's claimed positions and ranked copy (12 B a tuple) per
    // worker — here 8 regions on 2 workers. The budget must admit the
    // join at exactly what it reserves and refuse it one byte short.
    let r = mmjoin::datagen::gen_build_dense(40_000, 25, Placement::Chunked { parts: 4 });
    let s = mmjoin::datagen::gen_probe_fk(80_000, 40_000, 26, Placement::Chunked { parts: 4 });
    let expect = reference_join(&r, &s);
    let (threads, regions) = (2, 8);
    let run = |limit: usize| {
        let mut c = cfg(threads, None);
        c.mem_limit = Some(limit);
        Join::new(Algorithm::Chtj).with_config(c).run(&r, &s)
    };
    let refused = |limit: usize| refused_in(run(limit), limit, "build");
    let build = refused(1);
    let retained = r.len() * 10;
    assert!(
        build >= retained + threads * (r.len() / regions) * 12,
        "build reserves {build}: the table alone is {retained}"
    );
    assert!(build <= r.len() * 22, "build reserves {build}");
    refused(build - 1);
    let res = run(build).expect("the budget CHTJ asks for is enough");
    assert_eq!(res.matches, expect.count);
    assert_eq!(res.checksum, expect.digest);
}

#[test]
fn pipeline_budget_counts_the_probe_scratch() {
    // The fused probe holds, per worker and stage, the routed batch of a
    // partitioned side (its partition bounds and the routed copy) and
    // the matches waiting for the next stage. The budget must admit the
    // run at exactly what it reserves and refuse it one byte short.
    use mmjoin::core::materialize::chain_two_step;
    use mmjoin::core::{BuildSide, Pipeline};
    let place = Placement::Chunked { parts: 4 };
    let r1 = mmjoin::datagen::gen_build_linked(6_000, 2_000, 27, place);
    let r2 = mmjoin::datagen::gen_build_dense(2_000, 28, place);
    let s = mmjoin::datagen::gen_probe_fk(40_000, 6_000, 29, place);
    let (threads, bits) = (2, 7);
    let unlimited = cfg(threads, Some(bits));
    let expect = chain_two_step(&r1, &r2, &s, Algorithm::Prl, &unlimited).unwrap();
    let first = BuildSide::prepare(Algorithm::Pro, &r1, &unlimited).unwrap();
    let second = BuildSide::prepare(Algorithm::Prl, &r2, &unlimited).unwrap();
    let run = |limit: usize| {
        let mut c = unlimited.clone();
        c.mem_limit = Some(limit);
        Pipeline::new()
            .with_stage(first.clone())
            .with_stage(second.clone())
            .with_config(c)
            .run(&s)
    };
    let refused = |limit: usize| refused_in(run(limit), limit, "probe");
    let probe = refused(1);
    // Each stage routes 256 probes a partition at a time — bounds and
    // routed copy for both — and the first holds its matches until the
    // second has a batch of them.
    let batch = 256 << bits;
    let routed = ((1 << bits) + 1) * 8 + batch * 8;
    let counted = threads * (2 * routed + batch * 8);
    assert!(probe >= counted, "probe reserves {probe}, holds {counted}");
    assert!(probe <= 2 * counted, "probe reserves {probe}");
    refused(probe - 1);
    let res = run(probe).expect("the budget the probe asks for is enough");
    assert_eq!(res.matches, expect.matches);
    assert_eq!(res.checksum, expect.checksum);
}

#[test]
fn cancelled_probe_is_typed_and_its_service_lease_returns_to_zero() {
    // Core half: a probe that finds its token cancelled stops at its
    // first morsel with the build phases as the partial result, and the
    // side it was probing serves the next pipeline.
    use mmjoin::core::{BuildSide, Pipeline};
    use mmjoin::serve::{Client, ServeConfig, Server};
    let place = Placement::Chunked { parts: 2 };
    let r = mmjoin::datagen::gen_build_dense(5_000, 31, place);
    let s = mmjoin::datagen::gen_probe_fk(50_000, 5_000, 32, place);
    let c = cfg(2, Some(6));
    let side = BuildSide::prepare(Algorithm::Pro, &r, &c).unwrap();
    let probe = |c: JoinConfig| {
        Pipeline::new()
            .with_stage(side.clone())
            .with_config(c)
            .run(&s)
    };
    let mut cancelled = c.clone();
    cancelled.cancel = Default::default();
    cancelled.cancel.cancel();
    match probe(cancelled) {
        Err(JoinError::Cancelled { phase, partial }) => {
            assert_eq!(phase, "probe");
            let phases: Vec<&str> = partial.iter().map(|p| p.name).collect();
            assert_eq!(phases, ["partition", "build", "probe"]);
        }
        other => panic!("expected Cancelled in the probe, got {other:?}"),
    }
    let expect = reference_join(&r, &s);
    assert_eq!(probe(c).unwrap().checksum, expect.digest);

    // Service half: a client that hangs up while its hot join probes the
    // cached side cancels it (or loses the race and it completes);
    // either way nothing of the request stays reserved.
    let server = Server::spawn(ServeConfig::default().with_runners(1)).unwrap();
    let connect = || {
        let mut c = Client::connect(server.addr()).expect("connect");
        c.set_timeout(Some(std::time::Duration::from_secs(60)))
            .unwrap();
        c
    };
    let mut admin = connect();
    let mut ask = |frame: &str| {
        let v = admin.request(frame).unwrap();
        assert_eq!(
            v.get("ok").and_then(|b| b.as_bool()),
            Some(true),
            "{frame}: {v:?}"
        );
        v
    };
    ask(r#"{"op":"load","name":"r","rows":262144,"kind":"build","seed":7}"#);
    ask(r#"{"op":"load","name":"s","rows":4194304,"kind":"probe_fk","domain":262144,"seed":8}"#);
    let join = r#"{"op":"join","algo":"PRO","build":"r","probe":"s"}"#;
    ask(join); // primes the cache: what follows is the hot path
    let num = |v: &mmjoin::util::jsonv::Value, k: &str| v.get(k).and_then(|n| n.as_num()).unwrap();
    // Polls `stat` until the default tenant's counters satisfy `until`.
    let mut wait_for = |until: &dyn Fn(f64, f64) -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            let v = ask(r#"{"op":"stat"}"#);
            let stat = v.get("stat").expect("stat body").clone();
            let tenants = stat.get("tenants").and_then(|t| t.as_arr()).unwrap();
            let t = &tenants[0];
            if until(num(t, "admitted"), num(t, "completed") + num(t, "errored")) {
                return stat;
            }
            assert!(std::time::Instant::now() < deadline, "stuck: {stat:?}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    for hung_up in 1..=4 {
        let mut gone = connect();
        gone.send(join).unwrap();
        // Admitted with an idle runner: the probe is under way.
        wait_for(&|admitted, _| admitted == 1.0 + hung_up as f64);
        drop(gone);
    }
    let stat = wait_for(&|admitted, finished| admitted == 5.0 && finished == 5.0);
    assert_eq!(num(stat.get("global_budget").unwrap(), "used"), 0.0);
    for t in stat.get("tenants").and_then(|t| t.as_arr()).unwrap() {
        assert_eq!(num(t, "queued"), 0.0, "{t:?}");
        assert_eq!(num(t.get("budget").unwrap(), "used"), 0.0, "{t:?}");
    }
    let v = ask(join);
    assert_eq!(v.get("matches").and_then(|m| m.as_num()), Some(4_194_304.0));
    assert_eq!(v.get("cached").and_then(|b| b.as_bool()), Some(true));
    server.shutdown();
}

#[test]
fn cancellation_mid_join_from_another_thread() {
    // A clone of the token cancelled from outside stops the join; the
    // same pool then runs an unrestricted join correctly.
    let r = mmjoin::datagen::gen_build_dense(3_000, 23, Placement::Chunked { parts: 4 });
    let s = mmjoin::datagen::gen_probe_fk(12_000, 3_000, 24, Placement::Chunked { parts: 4 });
    let c = cfg(4, Some(5));
    let token = c.cancel.clone();
    token.cancel();
    match Join::new(Algorithm::Pro).with_config(c).run(&r, &s) {
        Err(JoinError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled via cloned token, got {other:?}"),
    }
    let expect = reference_join(&r, &s);
    let res = run_join(Algorithm::Pro, &r, &s, &cfg(4, Some(5)));
    assert_eq!(res.matches, expect.count);
    assert_eq!(res.checksum, expect.digest);
}

#[test]
fn simulation_plane_never_changes_results() {
    // The cost model must be observational: toggling it cannot change
    // the join output.
    let r = mmjoin::datagen::gen_build_dense(3_000, 9, Placement::Chunked { parts: 4 });
    let s = mmjoin::datagen::gen_probe_fk(12_000, 3_000, 10, Placement::Chunked { parts: 4 });
    for alg in Algorithm::ALL {
        let mut on = JoinConfig::new(4);
        on.simulate = true;
        let mut off = JoinConfig::new(4);
        off.simulate = false;
        let a = run_join(alg, &r, &s, &on);
        let b = run_join(alg, &r, &s, &off);
        assert_eq!(a.matches, b.matches, "{}", alg.name());
        assert_eq!(a.checksum, b.checksum, "{}", alg.name());
        assert!(a.total_sim() > 0.0, "{}", alg.name());
        assert_eq!(b.total_sim(), 0.0, "{}", alg.name());
    }
}
