//! Criterion micro-benches for the radix-partitioning substrate:
//! SWWCB vs direct scatter (ablation 1), chunked vs contiguous
//! (ablation 4), one- vs two-pass (ablation 5), and the partition
//! pass of the wall-clock benchmark's `probe_heavy` S, phase by phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmjoin_core::{Executor, JoinConfig};
use mmjoin_datagen::gen_probe_fk;
use mmjoin_partition::histogram::histogram;
use mmjoin_partition::{
    chunked_partition_on, partition_parallel_on, two_pass_partition_on, RadixFn, ScatterMode,
};
use mmjoin_util::pool::{ScopedPool, WorkerPool};
use mmjoin_util::rng::Xoshiro256;
use mmjoin_util::{Placement, Tuple};

fn input(n: usize) -> Vec<Tuple> {
    let mut rng = Xoshiro256::new(42);
    (0..n)
        .map(|i| Tuple::new(rng.next_u32() | 1, i as u32))
        .collect()
}

fn bench_scatter_modes(c: &mut Criterion) {
    let n = 1 << 20;
    let data = input(n);
    let pool = ScopedPool::new(2);
    let mut g = c.benchmark_group("partition/scatter-mode");
    g.throughput(Throughput::Elements(n as u64));
    for bits in [6u32, 10, 14] {
        g.bench_with_input(BenchmarkId::new("direct", bits), &bits, |b, &bits| {
            b.iter(|| partition_parallel_on(&data, RadixFn::new(bits), &pool, ScatterMode::Direct))
        });
        g.bench_with_input(BenchmarkId::new("swwcb", bits), &bits, |b, &bits| {
            b.iter(|| partition_parallel_on(&data, RadixFn::new(bits), &pool, ScatterMode::Swwcb))
        });
    }
    g.finish();
}

fn bench_chunked_vs_contiguous(c: &mut Criterion) {
    let n = 1 << 20;
    let data = input(n);
    let pool = ScopedPool::new(2);
    let mut g = c.benchmark_group("partition/chunked-vs-contiguous");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("contiguous-10bit", |b| {
        b.iter(|| partition_parallel_on(&data, RadixFn::new(10), &pool, ScatterMode::Swwcb))
    });
    g.bench_function("chunked-10bit", |b| {
        b.iter(|| chunked_partition_on(&data, RadixFn::new(10), &pool, ScatterMode::Swwcb))
    });
    g.finish();
}

fn bench_passes(c: &mut Criterion) {
    let n = 1 << 20;
    let data = input(n);
    let pool = ScopedPool::new(2);
    let mut g = c.benchmark_group("partition/passes");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("one-pass-12bit", |b| {
        b.iter(|| partition_parallel_on(&data, RadixFn::new(12), &pool, ScatterMode::Swwcb))
    });
    g.bench_function("two-pass-6+6bit", |b| {
        b.iter(|| two_pass_partition_on(&data, 6, 6, &pool, ScatterMode::Swwcb))
    });
    g.finish();
}

/// `probe_heavy`'s S — 10 Mi uniform foreign keys into a 1 Mi build
/// side — at the fan-out PRO picks for it, on the 2-worker pool a join
/// submits to (no threads spawned per call): the histogram, the
/// one-pass SWWCB partitioning (histogram included) and the chunked
/// one, each timed alone. The A/B of a partition kernel, in seconds.
fn bench_probe_heavy_s(c: &mut Criterion) {
    let (threads, build) = (2, 1 << 20);
    let s = gen_probe_fk(10 << 20, build, 3011, Placement::Chunked { parts: threads });
    let s = s.tuples();
    let f = RadixFn::new(JoinConfig::new(threads).bits_for_hash_tables(build));
    let pool = Executor::shared(threads);
    let pool: &dyn WorkerPool = &*pool;
    let mut g = c.benchmark_group(&format!("partition/probe_heavy-S-fanout{}", f.fanout()));
    g.throughput(Throughput::Elements(s.len() as u64));
    g.bench_function("histogram", |b| b.iter(|| histogram(s, f)));
    g.bench_function("partition_parallel_on-swwcb", |b| {
        b.iter(|| partition_parallel_on(s, f, pool, ScatterMode::Swwcb))
    });
    g.bench_function("chunked_partition_on-swwcb", |b| {
        b.iter(|| chunked_partition_on(s, f, pool, ScatterMode::Swwcb))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scatter_modes, bench_chunked_vs_contiguous, bench_passes, bench_probe_heavy_s
}
criterion_main!(benches);
