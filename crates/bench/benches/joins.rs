//! End-to-end criterion benches: all thirteen joins and SHHJ (unbudgeted
//! and at a quarter of the build bytes) on one canonical (scaled)
//! workload, plus the scheduling ablation (ablation 3).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mmjoin_core::pipeline::PORTED;
use mmjoin_core::{Algorithm, BuildSide, Join, JoinConfig, Pipeline};
use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
use mmjoin_util::{Placement, Relation};

fn run(alg: Algorithm, r: &Relation, s: &Relation, cfg: &JoinConfig) -> u64 {
    Join::new(alg)
        .with_config(cfg.clone())
        .run(r, s)
        .expect("valid plan")
        .matches
}

fn bench_all_joins(c: &mut Criterion) {
    let r_n = 1 << 19;
    let s_n = r_n * 4;
    let placement = Placement::Chunked { parts: 2 };
    let r = gen_build_dense(r_n, 1, placement);
    let s = gen_probe_fk(s_n, r_n, 2, placement);
    let mut cfg = JoinConfig::new(2);
    cfg.simulate = false; // pure wall-clock micro-bench

    let mut g = c.benchmark_group("join/all-thirteen");
    g.throughput(Throughput::Elements((r_n + s_n) as u64));
    g.sample_size(10);
    for alg in Algorithm::WITH_EXTENSIONS {
        g.bench_function(alg.name(), |b| b.iter(|| run(alg, &r, &s, &cfg)));
    }
    // SHHJ degraded: a quarter of the build bytes evicts most partitions,
    // so both scans stage and write runs and the spill phase joins them.
    let mut spilling = cfg.clone();
    spilling.mem_limit = Some(r_n * 8 / 4);
    g.bench_function("SHHJ@1/4", |b| {
        b.iter(|| run(Algorithm::Shhj, &r, &s, &spilling))
    });
    g.finish();
}

fn bench_scheduling_ablation(c: &mut Criterion) {
    let r_n = 1 << 19;
    let s_n = r_n * 4;
    let placement = Placement::Chunked { parts: 2 };
    let r = gen_build_dense(r_n, 3, placement);
    let s = gen_probe_fk(s_n, r_n, 4, placement);
    let mut cfg = JoinConfig::new(2);
    cfg.simulate = false;

    let mut g = c.benchmark_group("join/scheduling");
    g.throughput(Throughput::Elements((r_n + s_n) as u64));
    g.sample_size(10);
    g.bench_function("PRL-sequential", |b| {
        b.iter(|| run(Algorithm::Prl, &r, &s, &cfg))
    });
    g.bench_function("PRLiS-round-robin", |b| {
        b.iter(|| run(Algorithm::PrlIs, &r, &s, &cfg))
    });
    g.finish();
}

/// The service's hot path: `Pipeline::run` over a cached build side, on
/// the service's own shape (1 Mi ⋈ 640 Ki, 2 threads), beside the join
/// phase of the monolithic join of the same inputs — the work the cached
/// side is supposed to save everything but. A cached-side probe slower
/// than the whole monolithic join is a bug; at fan-out 2^12 the routing
/// batch is capped and a partition gets some 30 probes a batch.
fn bench_pipeline_probe(c: &mut Criterion) {
    let (r_n, s_n) = (1 << 20, 640 << 10);
    let placement = Placement::Chunked { parts: 2 };
    let r = gen_build_dense(r_n, 5, placement);
    let s = gen_probe_fk(s_n, r_n, 6, placement);

    let mut g = c.benchmark_group("pipeline-probe");
    g.throughput(Throughput::Elements(s_n as u64));
    g.sample_size(15);
    for bits in [6, 12] {
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        cfg.key_domain = r_n;
        cfg.radix_bits = Some(bits);
        for alg in PORTED {
            // The global tables have no fan-out: once is enough.
            if bits == 12 && !alg.is_partitioned() {
                continue;
            }
            let side = BuildSide::prepare(alg, &r, &cfg).expect("build side");
            let hot = Pipeline::new().with_stage(side).with_config(cfg.clone());
            g.bench_function(format!("{alg}/2^{bits} cached probe"), |b| {
                b.iter(|| hot.run(&s).expect("probe").matches)
            });
            let join = Join::new(alg).with_config(cfg.clone());
            let mut whole = f64::MAX;
            let mut last = f64::MAX;
            for _ in 0..15 {
                let res = join.run(&r, &s).expect("join");
                whole = whole.min(res.total_wall().as_secs_f64());
                last = last.min(res.phases.last().expect("phases").wall.as_secs_f64());
            }
            println!(
                "  {:<28} best {:>10.3} ms  {:>10.1} Melem/s  (whole join {:.3} ms)",
                format!("{alg}/2^{bits} join phase"),
                last * 1e3,
                s_n as f64 / last / 1e6,
                whole * 1e3
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_all_joins, bench_scheduling_ablation, bench_pipeline_probe
}
criterion_main!(benches);
