//! Criterion micro-benches for the hash-table zoo (ablation 2) and the
//! hash-function choice (ablation 7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmjoin_hashtable::{
    ArrayTable, ConciseHashTable, CrcHash, IdentityHash, JoinTable, MultiplicativeHash, MurmurHash,
    StChainedTable, StLinearTable, TableSpec,
};
use mmjoin_util::rng::Xoshiro256;
use mmjoin_util::Tuple;

const N: usize = 1 << 18;

fn build_tuples() -> Vec<Tuple> {
    let mut rng = Xoshiro256::new(7);
    let mut v: Vec<Tuple> = (1..=N as u32).map(|k| Tuple::new(k, k)).collect();
    rng.shuffle(&mut v);
    v
}

fn probe_keys() -> Vec<u32> {
    let mut rng = Xoshiro256::new(8);
    (0..N * 2).map(|_| rng.below(N as u64) as u32 + 1).collect()
}

fn bench_tables(c: &mut Criterion) {
    let tuples = build_tuples();
    let probes = probe_keys();
    let mut g = c.benchmark_group("hashtable/build+probe");
    g.throughput(Throughput::Elements((N * 3) as u64));

    macro_rules! bench_join_table {
        ($name:expr, $ty:ty, $spec:expr) => {
            g.bench_function($name, |b| {
                b.iter(|| {
                    let mut t = <$ty>::with_spec(&$spec);
                    for &tup in &tuples {
                        t.insert(tup);
                    }
                    let mut acc = 0u64;
                    for &k in &probes {
                        t.probe_unique(k, |p| acc = acc.wrapping_add(p as u64));
                    }
                    acc
                })
            });
        };
    }
    bench_join_table!(
        "chained",
        StChainedTable<IdentityHash>,
        TableSpec::hashed(N)
    );
    bench_join_table!("linear", StLinearTable<IdentityHash>, TableSpec::hashed(N));
    bench_join_table!("array", ArrayTable, TableSpec::array(0, N));
    g.bench_function("cht", |b| {
        b.iter(|| {
            let t = ConciseHashTable::<MultiplicativeHash>::build(&tuples, 1);
            let mut acc = 0u64;
            for &k in &probes {
                t.probe(k, |p| acc = acc.wrapping_add(p as u64));
            }
            acc
        })
    });
    g.finish();
}

/// Scalar probe loop vs the group-prefetched [`JoinTable::probe_batch`]
/// at an out-of-cache table size (satellite of the kernel layer): the
/// batch API should win once every probe is a DRAM miss.
fn bench_probe_kernels(c: &mut Criterion) {
    use mmjoin_util::kernels::{with_mode, KernelMode};

    const BIG: usize = 1 << 21; // linear slots: 2^22 × 8 B = 32 MB, out of LLC
    let mut rng = Xoshiro256::new(9);
    let mut tuples: Vec<Tuple> = (1..=BIG as u32).map(|k| Tuple::new(k, k)).collect();
    rng.shuffle(&mut tuples);
    let probes: Vec<Tuple> = (0..BIG)
        .map(|i| Tuple::new(rng.below(BIG as u64) as u32 + 1, i as u32))
        .collect();

    let mut g = c.benchmark_group("hashtable/probe-kernels");
    g.throughput(Throughput::Elements(probes.len() as u64));

    macro_rules! bench_scalar_vs_batch {
        ($name:expr, $ty:ty, $spec:expr) => {
            let mut t = <$ty>::with_spec(&$spec);
            for &tup in &tuples {
                t.insert(tup);
            }
            g.bench_function(concat!($name, "/scalar"), |b| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for p in &probes {
                        t.probe_unique(p.key, |bp| acc = acc.wrapping_add(bp as u64));
                    }
                    acc
                })
            });
            g.bench_function(concat!($name, "/batch"), |b| {
                b.iter(|| {
                    with_mode(KernelMode::Simd, || {
                        let mut acc = 0u64;
                        JoinTable::probe_batch(&t, &probes, true, |_, bp| {
                            acc = acc.wrapping_add(bp as u64)
                        });
                        acc
                    })
                })
            });
        };
    }
    bench_scalar_vs_batch!(
        "linear",
        StLinearTable<IdentityHash>,
        TableSpec::hashed(BIG)
    );
    bench_scalar_vs_batch!(
        "chained",
        StChainedTable<IdentityHash>,
        TableSpec::hashed(BIG)
    );
    bench_scalar_vs_batch!("array", ArrayTable, TableSpec::array(0, BIG));

    let cht = ConciseHashTable::<MultiplicativeHash>::build(&tuples, 1);
    g.bench_function("cht/scalar", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &probes {
                cht.probe(p.key, |bp| acc = acc.wrapping_add(bp as u64));
            }
            acc
        })
    });
    g.bench_function("cht/batch", |b| {
        b.iter(|| {
            with_mode(KernelMode::Simd, || {
                let mut acc = 0u64;
                cht.probe_batch(&probes, |_, bp| acc = acc.wrapping_add(bp as u64));
                acc
            })
        })
    });
    g.finish();
}

/// The join phase's own shape (Figure 3's "nearly indistinguishable"):
/// one cache-resident radix partition of a dense primary key — 16 Ki
/// build tuples sharing their low 6 bits, ten probes per build tuple —
/// built and probed through the batch interface the co-partition tasks
/// use, first-match.
fn bench_partition_tables(c: &mut Criterion) {
    const PART: usize = 1 << 14;
    const BITS: u32 = 6;
    const DIGIT: u32 = 37;
    let mut rng = Xoshiro256::new(10);
    let key = |i: u64| ((i as u32) << BITS) | DIGIT;
    let mut build: Vec<Tuple> = (0..PART as u64)
        .map(|i| Tuple::new(key(i), i as u32))
        .collect();
    rng.shuffle(&mut build);
    let probes: Vec<Tuple> = (0..10 * PART)
        .map(|i| Tuple::new(key(rng.below(PART as u64)), i as u32))
        .collect();

    let mut g = c.benchmark_group("hashtable/partition build+probe");
    g.throughput(Throughput::Elements((build.len() + probes.len()) as u64));
    macro_rules! bench_partition {
        ($name:expr, $ty:ty, $spec:expr) => {
            g.bench_function($name, |b| {
                b.iter(|| {
                    let mut t = <$ty>::with_spec(&$spec);
                    JoinTable::insert_batch(&mut t, &build);
                    let mut acc = 0u64;
                    JoinTable::probe_batch(&t, &probes, true, |_, bp| {
                        acc = acc.wrapping_add(bp as u64)
                    });
                    acc
                })
            });
        };
    }
    let hashed = TableSpec::hashed_partition(PART, BITS);
    bench_partition!("chained", StChainedTable<IdentityHash>, hashed);
    bench_partition!("linear", StLinearTable<IdentityHash>, hashed);
    bench_partition!("array", ArrayTable, TableSpec::array(BITS, PART << BITS));
    g.finish();
}

fn bench_hash_functions(c: &mut Criterion) {
    let tuples = build_tuples();
    let probes = probe_keys();
    let mut g = c.benchmark_group("hashtable/hash-function");
    g.throughput(Throughput::Elements(probes.len() as u64));

    macro_rules! bench_hash {
        ($name:expr, $h:ty) => {
            g.bench_with_input(BenchmarkId::from_parameter($name), &(), |b, _| {
                let mut t = StLinearTable::<$h>::with_capacity(N);
                for &tup in &tuples {
                    t.insert(tup);
                }
                b.iter(|| {
                    let mut acc = 0u64;
                    for &k in &probes {
                        t.probe_first(k, |p| acc = acc.wrapping_add(p as u64));
                    }
                    acc
                })
            });
        };
    }
    bench_hash!("identity", IdentityHash);
    bench_hash!("multiplicative", MultiplicativeHash);
    bench_hash!("murmur", MurmurHash);
    bench_hash!("crc32c", CrcHash);
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tables, bench_probe_kernels, bench_partition_tables, bench_hash_functions
}
criterion_main!(benches);
