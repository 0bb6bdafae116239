//! Criterion micro-benches for the radix-partitioning substrate:
//! SWWCB vs direct scatter (ablation 1), chunked vs contiguous
//! (ablation 4), and one- vs two-pass (ablation 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmjoin_partition::{
    chunked_partition_on, partition_parallel_on, two_pass_partition_on, RadixFn, ScatterMode,
};
use mmjoin_util::pool::ScopedPool;
use mmjoin_util::rng::Xoshiro256;
use mmjoin_util::Tuple;

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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scatter_modes, bench_chunked_vs_contiguous, bench_passes
}
criterion_main!(benches);
