//! Criterion benches for the MWAY sorting substrate: the run sort
//! against std's sort (the yardstick), and the multiway merge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmjoin_sort::multiway::merge_runs;
use mmjoin_sort::network::sort8;
use mmjoin_sort::sort_packed;
use mmjoin_util::kernels::{with_mode, KernelMode};
use mmjoin_util::rng::Xoshiro256;

fn rand_u64(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

fn bench_networks(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort/network");
    let data = rand_u64(1 << 16, 1);
    g.throughput(Throughput::Elements(data.len() as u64));
    g.bench_function("sort8-blocks", |b| {
        b.iter(|| {
            let mut d = data.clone();
            for chunk in d.chunks_exact_mut(8) {
                sort8(chunk);
            }
            d
        })
    });
    g.finish();
}

/// `sort_packed` beside `sort_unstable`: one run (64 Ki), four runs
/// and their multiway merge (256 Ki), sixteen (1 Mi), and one
/// `probe_heavy` partition at the paper's fan-out of 8 (1.25 Mi) — in
/// each kernel mode, so the portable and the AVX-512 paths compare side
/// by side.
fn bench_run_sort(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort/run-sort-vs-std");
    for ki in [64usize, 256, 1024, 1280] {
        let data = rand_u64(ki << 10, ki as u64);
        g.throughput(Throughput::Elements(data.len() as u64));
        for mode in [KernelMode::Portable, KernelMode::Simd] {
            let id = BenchmarkId::new(&format!("run-sort-{mode:?}").to_lowercase(), ki);
            g.bench_with_input(id, &data, |b, data| {
                let mut scratch = mmjoin_util::alloc::AlignedVec::new();
                with_mode(mode, || {
                    b.iter(|| {
                        let mut d = data.clone();
                        sort_packed(&mut d, &mut scratch);
                        d
                    })
                })
            });
        }
        g.bench_with_input(BenchmarkId::new("std-sort-full", ki), &data, |b, data| {
            b.iter(|| {
                let mut d = data.clone();
                d.sort_unstable();
                d
            })
        });
    }
    g.finish();
}

fn bench_multiway(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort/multiway-merge");
    for k in [2usize, 4, 16] {
        let runs: Vec<Vec<u64>> = (0..k)
            .map(|i| {
                let mut r = rand_u64((1 << 18) / k, i as u64);
                r.sort_unstable();
                r
            })
            .collect();
        g.throughput(Throughput::Elements(1 << 18));
        g.bench_with_input(BenchmarkId::new("loser-tree", k), &runs, |b, runs| {
            b.iter(|| merge_runs(runs.iter().map(|r| r.as_slice()).collect()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_networks, bench_run_sort, bench_multiway
}
criterion_main!(benches);
