//! The traced run's layer phase: the public functions of each crate
//! driven directly, from outside, on the workload's own relations.
//! Each cell gets an equal slice of the phase's budget and reports the
//! same fast-rep statistic as the joins.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use mmjoin_core::materialize::chain_two_step;
use mmjoin_core::pipeline::PORTED;
use mmjoin_core::{Algorithm, BuildSide, Executor, Join, JoinConfig, Pipeline};
use mmjoin_datagen::{gen_build_dense, gen_build_linked, gen_probe_fk, gen_probe_zipf};
use mmjoin_hashtable::{
    ArrayTable, ConciseHashTable, ConcurrentArrayTable, ConcurrentLinearTable, IdentityHash,
    JoinTable, MultiplicativeHash, StChainedTable, StLinearTable, TableSpec,
};
use mmjoin_partition::histogram::histogram;
use mmjoin_partition::{
    chunked_partition_on, partition_parallel_on, two_pass_partition_on, RadixFn, ScatterMode,
};
use mmjoin_serve::protocol::{self, Frame, FrameReader, JoinOutcome};
use mmjoin_sort::multiway::merge_runs;
use mmjoin_sort::network::sort8;
use mmjoin_sort::sort_packed;
use mmjoin_tpch::data::{generate_tables, GenParams};
use mmjoin_tpch::q19::{reference_q19, run_q19, Q19Join};
use mmjoin_util::alloc::{AlignedBuf, AlignedVec};
use mmjoin_util::jsonv::{self, Value};
use mmjoin_util::mem::{self, AllocPolicy};
use mmjoin_util::pool::WorkerPool;
use mmjoin_util::spill::SpillDir;
use mmjoin_util::stats::percentile;
use mmjoin_util::{kernels, Placement, Tuple, CACHE_LINE};

use crate::run::{Metrics, Tally};
use crate::service::Service;
use crate::spec::JOIN_THREADS;
use crate::stats::fast_mean;
use crate::trace::Tracer;
use crate::workload::Inputs;

pub struct Ctx<'a> {
    pub inputs: &'a Inputs,
    pub seed: u64,
    pub budget: Duration,
    pub spill_dir: &'a Path,
}

/// Timed cells in the phase; each gets `budget / CELLS`.
const CELLS: u32 = 56;

/// Seconds per rep of `f`: one untimed rep (a cell's first call maps
/// its buffers), then timed ones until `budget` is spent, at least two.
fn reps(budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < 2 || started.elapsed() < budget {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

fn fast(budget: Duration, f: impl FnMut()) -> f64 {
    fast_mean(&reps(budget, f))
}

const PLACEMENT: Placement = Placement::Chunked {
    parts: JOIN_THREADS,
};

/// The join configuration the server runs requests under.
fn service_config(build_rows: usize) -> JoinConfig {
    let mut cfg = JoinConfig::new(JOIN_THREADS);
    cfg.simulate = false;
    cfg.key_domain = build_rows;
    cfg
}

pub fn run(
    ctx: &Ctx,
    svc: &mut Service,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Metrics,
) -> Result<(), String> {
    tracer.set_on(true);
    let cell = ctx.budget / CELLS;
    tracer.span("layers.util", 0, |_, _| util(ctx, cell, svc, out))?;
    tracer.span("layers.datagen", 0, |_, _| datagen(ctx, cell, out));
    tracer.span("layers.partition", 0, |_, _| partition(ctx, cell, out));
    tracer.span("layers.hashtable", 0, |_, _| hashtable(ctx, cell, out));
    tracer.span("layers.sort", 0, |_, _| sort(ctx, cell, out));
    tracer.span("layers.core", 0, |_, _| core(ctx, cell, tally, out))?;
    tracer.span("layers.tpch", 0, |_, _| tpch(ctx, cell, tally, out));
    tracer.span("layers.serve", 0, |_, _| serve(cell, svc, out))
}

fn util(ctx: &Ctx, cell: Duration, svc: &Service, out: &mut Metrics) -> Result<(), String> {
    // Stream bandwidth over 64 MiB: the roofline partition GB/s is read
    // against, far beyond any cache.
    const WORDS: usize = 8 << 20;
    let bytes = (WORDS * 8) as f64;
    let src = AlignedBuf::<u64>::filled(WORDS, 0x5A5A_5A5A_5A5A_5A5A);
    let mut dst = AlignedBuf::<u64>::zeroed(WORDS);
    let t = fast(cell, || {
        dst.as_mut_slice().copy_from_slice(src.as_slice());
        black_box(&dst);
    });
    out.insert("util.stream_copy_gbps".into(), bytes / t / 1e9);
    let t = fast(cell, || {
        let (s, d) = (src.as_ptr() as *const u8, dst.as_mut_ptr() as *mut u8);
        for line in 0..WORDS * 8 / CACHE_LINE {
            // SAFETY: both buffers are `WORDS * 8` bytes long and
            // `AlignedBuf` aligns them to a cache line; `line` stays
            // below their length in lines.
            unsafe {
                kernels::stream_cacheline(d.add(line * CACHE_LINE), s.add(line * CACHE_LINE))
            };
        }
        kernels::sfence();
        black_box(&dst);
    });
    out.insert("util.stream_nt_gbps".into(), bytes / t / 1e9);
    drop((src, dst));

    // An 8 MiB arena block acquired, zeroed and touched page by page:
    // from the pool, against a size class the pool has never seen.
    const WORDS_PER_BLOCK: usize = 1 << 20;
    let touch = |words: usize| {
        let mut block = AlignedBuf::<u64>::zeroed(words);
        block
            .as_mut_slice()
            .iter_mut()
            .step_by(512)
            .for_each(|w| *w = 1);
        black_box(&block);
    };
    let t = fast(cell, || touch(WORDS_PER_BLOCK));
    out.insert("util.arena_acquire_warm_us".into(), t * 1e6);
    let cold: Vec<f64> = (1..=3)
        .map(|class| {
            let t = Instant::now();
            touch(WORDS_PER_BLOCK + class * mmjoin_util::PAGE_2M / 8);
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.insert("util.arena_acquire_cold_us".into(), fast_mean(&cold) * 1e6);

    // Spill runs: up to 16 MiB of S written and read back once.
    let tuples = &ctx.inputs.s.tuples()[..ctx.inputs.s.len().min(2 << 20)];
    let mb = (tuples.len() * 8) as f64 / 1e6;
    let io = |e: std::io::Error| format!("spill cell: {e}");
    let dir = SpillDir::create(Some(ctx.spill_dir)).map_err(io)?;
    let started = Instant::now();
    let mut writer = dir.writer("layer").map_err(io)?;
    writer.push_slice(tuples).map_err(io)?;
    let run = writer.finish().map_err(io)?;
    out.insert(
        "util.spill_write_mbps".into(),
        mb / started.elapsed().as_secs_f64(),
    );
    let started = Instant::now();
    let mut reader = run.reader().map_err(io)?;
    let mut read = 0usize;
    while let Some(page) = reader.next_page().map_err(io)? {
        read += page.len();
    }
    out.insert(
        "util.spill_read_mbps".into(),
        mb / started.elapsed().as_secs_f64(),
    );
    if read != tuples.len() {
        return Err(format!("spill read back {read} of {} tuples", tuples.len()));
    }
    drop((run, dir));

    // The JSON parser on the largest document the service produces.
    let doc = svc.stat_json();
    let t = fast(cell, || {
        black_box(jsonv::parse(black_box(&doc)).is_ok());
    });
    out.insert("util.jsonv_parse_mbps".into(), doc.len() as f64 / t / 1e6);
    Ok(())
}

fn datagen(ctx: &Ctx, cell: Duration, out: &mut Metrics) {
    let domain = ctx.inputs.r.len();
    let n = domain.min(1 << 20);
    let mt = n as f64 / 1e6;
    let t = fast(cell, || {
        black_box(gen_build_dense(n, ctx.seed, PLACEMENT));
    });
    out.insert("datagen.dense_mtps".into(), mt / t);
    let t = fast(cell, || {
        black_box(gen_probe_fk(n, domain, ctx.seed, PLACEMENT));
    });
    out.insert("datagen.fk_mtps".into(), mt / t);
    let t = fast(cell, || {
        black_box(gen_probe_zipf(n, domain, 0.99, ctx.seed, PLACEMENT));
    });
    out.insert("datagen.zipf_mtps".into(), mt / t);
}

fn partition(ctx: &Ctx, cell: Duration, out: &mut Metrics) {
    let pool = Executor::shared(JOIN_THREADS);
    let pool: &dyn WorkerPool = &*pool;
    let s = ctx.inputs.s.tuples();
    let gb = (s.len() * 8) as f64 / 1e9;
    // The fan-out PRO picks for this build side.
    let bits = JoinConfig::new(JOIN_THREADS).bits_for_hash_tables(ctx.inputs.r.len());
    let f = RadixFn::new(bits);
    let t = fast(cell, || {
        black_box(histogram(s, f));
    });
    out.insert("partition.histogram_gbps".into(), gb / t);
    let mut ratio = 0.0;
    let t = fast(cell, || {
        let parts = partition_parallel_on(s, f, pool, ScatterMode::Swwcb);
        let largest = (0..parts.parts()).map(|p| parts.part_len(p)).max();
        ratio = largest.unwrap_or(0) as f64 * parts.parts() as f64 / s.len() as f64;
    });
    out.insert("partition.scatter_swwcb_gbps".into(), gb / t);
    out.insert("partition.max_part_ratio".into(), ratio);
    let t = fast(cell, || {
        black_box(chunked_partition_on(s, f, pool, ScatterMode::Swwcb));
    });
    out.insert("partition.chunked_gbps".into(), gb / t);
    let t = fast(cell, || {
        black_box(partition_parallel_on(s, f, pool, ScatterMode::Direct));
    });
    out.insert("partition.scatter_direct_gbps".into(), gb / t);
    // PRB: two passes, no write-combining buffers.
    let t = fast(cell, || {
        black_box(two_pass_partition_on(
            s,
            bits / 2,
            bits - bits / 2,
            pool,
            ScatterMode::Direct,
        ));
    });
    out.insert("partition.two_pass_gbps".into(), gb / t);
}

/// Build then probe one single-threaded table; ns per tuple of each.
fn table_cell<T>(
    cell: Duration,
    build: &[Tuple],
    probes: &[Tuple],
    make: impl Fn() -> T,
    insert: impl Fn(&mut T, &[Tuple]),
    probe: impl Fn(&T, &[Tuple]) -> u64,
) -> (f64, f64) {
    let mut table = make();
    let b = fast(cell, || {
        table = make();
        insert(&mut table, build);
    });
    let p = fast(cell, || {
        black_box(probe(&table, probes));
    });
    (b / build.len() as f64 * 1e9, p / probes.len() as f64 * 1e9)
}

fn join_table_cell<T: JoinTable>(
    cell: Duration,
    spec: TableSpec,
    build: &[Tuple],
    probes: &[Tuple],
) -> (f64, f64) {
    table_cell(
        cell,
        build,
        probes,
        || T::with_spec(&spec),
        |t, b| t.insert_batch(b),
        |t, p| {
            let mut acc = 0u64;
            t.probe_batch(p, true, |_, bp| acc = acc.wrapping_add(bp as u64));
            acc
        },
    )
}

fn hashtable(ctx: &Ctx, cell: Duration, out: &mut Metrics) {
    // Global tables at the workload's build size, probed with up to 2 Mi
    // tuples of S; one thread, so the numbers are per core.
    let r = ctx.inputs.r.tuples();
    let s = &ctx.inputs.s.tuples()[..ctx.inputs.s.len().min(2 << 20)];
    let n = r.len();
    let sum = |acc: &mut u64, bp: u32| *acc = acc.wrapping_add(bp as u64);
    let cells = [
        (
            "chained",
            join_table_cell::<StChainedTable<IdentityHash>>(cell, TableSpec::hashed(n), r, s),
        ),
        (
            "linear",
            join_table_cell::<StLinearTable<IdentityHash>>(cell, TableSpec::hashed(n), r, s),
        ),
        (
            "array",
            join_table_cell::<ArrayTable>(cell, TableSpec::array(0, n), r, s),
        ),
        (
            "clinear",
            table_cell(
                cell,
                r,
                s,
                || ConcurrentLinearTable::<IdentityHash>::with_capacity(n),
                |t, b| t.insert_batch(b),
                |t, p| {
                    let mut acc = 0;
                    t.probe_batch(p, true, |_, bp| sum(&mut acc, bp));
                    acc
                },
            ),
        ),
        (
            "carray",
            table_cell(
                cell,
                r,
                s,
                || ConcurrentArrayTable::new(n + 1, 1),
                |t, b| t.insert_batch(b),
                |t, p| {
                    let mut acc = 0;
                    t.probe_batch(p, |_, bp| sum(&mut acc, bp));
                    acc
                },
            ),
        ),
        (
            "cht",
            table_cell(
                cell,
                r,
                s,
                || None,
                |t, b| *t = Some(ConciseHashTable::<MultiplicativeHash>::build(b, 1)),
                |t, p| {
                    let mut acc = 0;
                    let t = t.as_ref().expect("built before probed");
                    t.probe_batch(p, |_, bp| sum(&mut acc, bp));
                    acc
                },
            ),
        ),
    ];
    for (name, (build_ns, probe_ns)) in cells {
        out.insert(format!("hashtable.build_ns.{name}"), build_ns);
        out.insert(format!("hashtable.probe_ns.{name}"), probe_ns);
    }

    // Per-partition tables at the size PRO makes them (in cache): the
    // first co-partitions of R and S, as many as hold 1 Mi probe tuples.
    let pool = Executor::shared(JOIN_THREADS);
    let bits = JoinConfig::new(JOIN_THREADS).bits_for_hash_tables(n);
    let f = RadixFn::new(bits);
    let rp = partition_parallel_on(r, f, &*pool, ScatterMode::Swwcb);
    let sp = partition_parallel_on(ctx.inputs.s.tuples(), f, &*pool, ScatterMode::Swwcb);
    let mut parts = 0;
    let mut probes = 0;
    while parts < rp.parts() && probes < 1 << 20 {
        probes += sp.part_len(parts);
        parts += 1;
    }
    let builds: usize = (0..parts).map(|p| rp.part_len(p)).sum();
    fn part_cell<T: JoinTable>(
        cell: Duration,
        parts: usize,
        spec: impl Fn(usize) -> TableSpec,
        rp: &mmjoin_partition::PartitionedRelation,
        sp: &mmjoin_partition::PartitionedRelation,
    ) -> (f64, f64) {
        let mut tables: Vec<T> = Vec::new();
        let b = fast(cell, || {
            tables = (0..parts)
                .map(|p| {
                    let mut t = T::with_spec(&spec(rp.part_len(p)));
                    t.insert_batch(rp.partition(p));
                    t
                })
                .collect();
        });
        let p = fast(cell, || {
            let mut acc = 0u64;
            for (p, t) in tables.iter().enumerate() {
                t.probe_batch(sp.partition(p), true, |_, bp| {
                    acc = acc.wrapping_add(bp as u64)
                });
            }
            black_box(acc);
        });
        (b, p)
    }
    let hashed = |len: usize| TableSpec::hashed_partition(len, bits);
    let cells = [
        (
            "chained",
            part_cell::<StChainedTable<IdentityHash>>(cell, parts, hashed, &rp, &sp),
        ),
        (
            "linear",
            part_cell::<StLinearTable<IdentityHash>>(cell, parts, hashed, &rp, &sp),
        ),
        (
            "array",
            part_cell::<ArrayTable>(cell, parts, |_| TableSpec::array(bits, n), &rp, &sp),
        ),
    ];
    for (name, (b, p)) in cells {
        out.insert(
            format!("hashtable.build_ns_part.{name}"),
            b / builds.max(1) as f64 * 1e9,
        );
        out.insert(
            format!("hashtable.probe_ns_part.{name}"),
            p / probes.max(1) as f64 * 1e9,
        );
    }
}

fn sort(ctx: &Ctx, cell: Duration, out: &mut Metrics) {
    let packed: Vec<u64> = ctx
        .inputs
        .s
        .tuples()
        .iter()
        .take(1 << 20)
        .map(|t| t.pack())
        .collect();
    let mt = packed.len() as f64 / 1e6;
    // Each timed rep sorts a fresh copy; the copy is outside the clock.
    let timed_on_copy = |f: &mut dyn FnMut(&mut [u64])| {
        let started = Instant::now();
        let mut times = Vec::new();
        while times.len() < 2 || started.elapsed() < cell {
            let mut data = packed.clone();
            let t = Instant::now();
            f(&mut data);
            times.push(t.elapsed().as_secs_f64());
            black_box(data);
        }
        fast_mean(&times)
    };
    let t = timed_on_copy(&mut |d| d.chunks_exact_mut(8).for_each(sort8));
    out.insert("sort.network_mtps".into(), mt / t);
    let mut scratch = AlignedVec::new();
    let t = timed_on_copy(&mut |d| sort_packed(d, &mut scratch));
    out.insert("sort.run_formation_mtps".into(), mt / t);
    // Eight sorted runs merged through the loser tree, as MWAY's join
    // phase does per partition.
    let mut runs: Vec<Vec<u64>> = packed
        .chunks(packed.len().div_ceil(8))
        .map(<[u64]>::to_vec)
        .collect();
    runs.iter_mut().for_each(|r| r.sort_unstable());
    let t = fast(cell, || {
        black_box(merge_runs(runs.iter().map(Vec::as_slice).collect()));
    });
    out.insert("sort.merge_mtps".into(), mt / t);
}

fn core(ctx: &Ctx, cell: Duration, tally: &mut Tally, out: &mut Metrics) -> Result<(), String> {
    let (r, s) = (&ctx.inputs.r, &ctx.inputs.s);
    let (r_svc, s_svc) = (&ctx.inputs.r_svc, &ctx.inputs.s_svc);
    let err = |e: mmjoin_core::JoinError| format!("core cell: {e}");

    // An empty phase: one no-op morsel per worker through the barrier.
    let pool = Executor::shared(JOIN_THREADS);
    let queues: Vec<Vec<usize>> = (0..JOIN_THREADS).map(|w| vec![w]).collect();
    let t = fast(cell, || {
        for _ in 0..100 {
            pool.run_morsels(&queues, &|_, _| {});
        }
    });
    out.insert("core.executor_dispatch_us".into(), t / 100.0 * 1e6);

    // What a cold and a hot request cost without the service around
    // them: prepare each cacheable build side, then probe it with the
    // service's probe relation, exactly as `serve::engine` does.
    let cfg = service_config(r_svc.len());
    let share = cell / PORTED.len() as u32;
    let (mut prepare, mut probe, mut probe_all) = (Vec::new(), Vec::new(), Vec::new());
    for alg in PORTED {
        let mut side = BuildSide::prepare(alg, r_svc, &cfg).map_err(err)?;
        prepare.push(fast(share, || {
            side = BuildSide::prepare(alg, r_svc, &cfg).expect("prepared once already");
        }));
        let pipeline = Pipeline::new().with_stage(side).with_config(cfg.clone());
        let times = reps(share, || {
            black_box(pipeline.run(s_svc).expect("probe of a prepared side"));
        });
        probe.push(fast_mean(&times));
        probe_all.extend(times);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.insert("core.buildside_prepare_ms".into(), mean(&prepare) * 1e3);
    out.insert("core.pipeline_probe_ms".into(), mean(&probe) * 1e3);
    out.insert(
        "serve.direct_p50_ms.hot".into(),
        percentile(&probe_all, 0.5) * 1e3,
    );

    // A fused two-join chain (R1 ⋈ S') ⋈ R2, checked once against the
    // materialising two-step plan.
    let n = r_svc.len();
    let r1 = gen_build_linked(n, n, ctx.seed + 11, PLACEMENT);
    let first = BuildSide::prepare(Algorithm::Nop, &r1, &cfg).map_err(err)?;
    let second = BuildSide::prepare(Algorithm::Nop, r_svc, &cfg).map_err(err)?;
    let chain = Pipeline::new()
        .with_stage(first)
        .with_stage(second)
        .with_config(cfg.clone());
    let fused = chain.run(s_svc).map_err(err)?;
    let two_step = chain_two_step(&r1, r_svc, s_svc, Algorithm::Nop, &cfg).map_err(err)?;
    tally.check(
        fused.checksum == two_step.checksum && fused.matches == two_step.matches,
        || "fused chain differs from two-step".to_string(),
    );
    let t = fast(cell, || {
        black_box(chain.run(s_svc).expect("chain ran once already"));
    });
    out.insert("core.fused2_mtps".into(), s_svc.len() as f64 / t / 1e6);
    drop((chain, r1));

    // SHHJ with half the bytes of its inputs as budget: the path a
    // `tight` request takes.
    let want = (r_svc.len() + s_svc.len()) * 8;
    let mut tight = cfg.clone();
    tight.mem_limit = Some((want / 2).max(4 << 20));
    tight.spill_dir = Some(ctx.spill_dir.to_path_buf());
    let spilling = Join::new(Algorithm::Shhj).with_config(tight);
    let unbudgeted = Join::new(Algorithm::Shhj)
        .with_config(cfg.clone())
        .run(r_svc, s_svc)
        .map_err(err)?;
    let mut last = None;
    let t = fast(cell, || {
        last = Some(spilling.run(r_svc, s_svc));
    });
    let spilled = last.expect("at least two reps").map_err(err)?;
    tally.check(spilled.checksum == unbudgeted.checksum, || {
        "budgeted SHHJ differs from unbudgeted".to_string()
    });
    out.insert(
        "core.shhj_spill_mtps".into(),
        (r_svc.len() + s_svc.len()) as f64 / t / 1e6,
    );

    // The default allocation path, which the run otherwise pins away.
    let tuples = (r.len() + s.len()) as f64;
    for alg in [Algorithm::Pro, Algorithm::Cprl] {
        let join = Join::new(alg).with_config(JoinConfig::new(JOIN_THREADS));
        let t = mem::with_policy(AllocPolicy::Portable, || {
            fast(cell, || {
                black_box(join.run(r, s).expect("ran in the window"));
            })
        });
        out.insert(
            format!("core.portable_mtps.{}", alg.name()),
            tuples / t / 1e6,
        );
    }

    // The cost model's share of a join: default `simulate` against off,
    // reps interleaved.
    let (mut on, mut off) = (0.0, 0.0);
    for alg in [Algorithm::Nop, Algorithm::Pro, Algorithm::Cprl] {
        let mut unsimulated = JoinConfig::new(JOIN_THREADS);
        unsimulated.simulate = false;
        let base = Join::new(alg).with_config(JoinConfig::new(JOIN_THREADS));
        let plain = Join::new(alg).with_config(unsimulated);
        let (mut t_on, mut t_off) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while t_on.len() < 2 || started.elapsed() < cell * 2 {
            for (join, times) in [(&base, &mut t_on), (&plain, &mut t_off)] {
                let t = Instant::now();
                black_box(join.run(r, s).expect("ran in the window"));
                times.push(t.elapsed().as_secs_f64());
            }
        }
        on += fast_mean(&t_on);
        off += fast_mean(&t_off);
    }
    out.insert(
        "numamodel.simulate_overhead_pct".into(),
        (on / off - 1.0) * 100.0,
    );
    Ok(())
}

fn tpch(ctx: &Ctx, cell: Duration, tally: &mut Tally, out: &mut Metrics) {
    let (parts, lines) = generate_tables(&GenParams {
        scale_factor: 0.5,
        seed: ctx.seed,
        ..GenParams::default()
    });
    let want = reference_q19(&parts, &lines);
    for (join, name) in [(Q19Join::Nopa, "NOPA"), (Q19Join::Cprl, "CPRL")] {
        let mut revenue = 0.0;
        let t = fast(cell, || {
            revenue = run_q19(join, &parts, &lines, JOIN_THREADS).revenue;
        });
        tally.check((revenue - want).abs() <= want.abs() * 1e-9, || {
            format!("Q19 {name}: revenue {revenue}, reference {want}")
        });
        out.insert(format!("tpch.q19_ms.{name}"), t * 1e3);
    }
}

fn serve(cell: Duration, svc: &mut Service, out: &mut Metrics) -> Result<(), String> {
    let payload = crate::workload::multiset()[0].payload(1);
    let t = fast(cell, || {
        for _ in 0..100 {
            black_box(protocol::parse_request(black_box(payload.as_bytes())).is_ok());
        }
    });
    out.insert("serve.parse_request_us".into(), t / 100.0 * 1e6);
    let outcome = JoinOutcome {
        algorithm: Algorithm::Pro,
        matches: 10 << 20,
        checksum: 0x0123_4567_89AB_CDEF,
        wall_ms: 12.345,
        queue_ms: 0.678,
        cached: true,
        degraded: false,
        spill_bytes: 0,
    };
    let t = fast(cell, || {
        for _ in 0..100 {
            black_box(protocol::join_response(Some(1.0), black_box(&outcome)));
        }
    });
    out.insert("serve.render_response_us".into(), t / 100.0 * 1e6);
    // 1000 request frames fed in 4 KiB reads, as a socket would.
    let mut stream = Vec::new();
    for _ in 0..1000 {
        stream.extend(protocol::encode_frame(&payload));
    }
    let t = fast(cell, || {
        let mut reader = FrameReader::new();
        let mut frames = 0;
        for chunk in stream.chunks(4096) {
            reader.push(chunk);
            while let Some(Frame::Payload(p)) = reader.next_frame() {
                frames += black_box(p).len().min(1);
            }
        }
        assert_eq!(frames, 1000, "frame reader lost frames");
    });
    out.insert(
        "serve.frame_decode_mbps".into(),
        stream.len() as f64 / t / 1e6,
    );

    let mut stat_ms = Vec::new();
    let mut stat = Value::Null;
    for _ in 0..20 {
        let (v, ms) = svc.stat().map_err(|e| format!("stat: {e}"))?;
        stat_ms.push(ms);
        stat = v;
    }
    out.insert("serve.stat_ms".into(), percentile(&stat_ms, 0.5));
    let num = |path: [&str; 3]| {
        path.iter()
            .try_fold(&stat, |v, k| v.get(k))
            .and_then(Value::as_num)
            .unwrap_or(0.0)
    };
    let (hits, misses) = (
        num(["stat", "cache", "hits"]),
        num(["stat", "cache", "misses"]),
    );
    out.insert(
        "serve.cache_hit_ratio".into(),
        hits / (hits + misses).max(1.0),
    );
    let (ok, degraded) = (
        num(["stat", "joins", "ok"]),
        num(["stat", "joins", "degraded"]),
    );
    out.insert("serve.degraded_ratio".into(), degraded / ok.max(1.0));
    Ok(())
}
