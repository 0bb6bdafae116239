//! Differential tests of the sort path against `sort_unstable`: every
//! length boundary of `sort_packed` (network group, run, block of two
//! runs, multiway merge) over the input shapes that break merges, and
//! the loser tree over every run count up to 33. These are also what
//! exercises the raw-pointer merge loops under Miri, where `RUN_LEN`
//! shrinks so that the same boundaries stay reachable.

use mmjoin_sort::mergesort::RUN_LEN;
use mmjoin_sort::multiway::merge_runs_into;
use mmjoin_sort::sort_packed;
use mmjoin_util::alloc::AlignedVec;
use mmjoin_util::rng::Xoshiro256;
use proptest::prelude::*;

const CASES: u32 = if cfg!(miri) { 3 } else { 48 };
const MAX_LEN: usize = 3 * RUN_LEN + 17;

const SHAPES: [&str; 7] = [
    "random",
    "few-distinct",
    "all-equal",
    "presorted",
    "reversed",
    "sawtooth",
    "extremes",
];

fn input(shape: &str, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256::new(seed);
    let i = 0..n as u64;
    match shape {
        "random" => i.map(|_| rng.next_u64()).collect(),
        "few-distinct" => i.map(|_| rng.next_u64() % 5).collect(),
        "all-equal" => vec![seed; n],
        "presorted" => i.collect(),
        "reversed" => i.rev().collect(),
        "sawtooth" => i.map(|v| v % 37).collect(),
        // Both sentinels of the multiway merge, and their neighbours.
        "extremes" => i
            .map(|_| [0, 1, u64::MAX - 1, u64::MAX][rng.next_u64() as usize % 4])
            .collect(),
        other => panic!("unknown shape {other}"),
    }
}

fn assert_sorts(shape: &str, n: usize, seed: u64, scratch: &mut AlignedVec<u64>) {
    let mut data = input(shape, n, seed);
    let mut expect = data.clone();
    expect.sort_unstable();
    sort_packed(&mut data, scratch);
    assert!(data == expect, "{shape}, n={n}, seed={seed}");
}

#[test]
fn sort_packed_at_every_length_boundary() {
    // Around each boundary: one short, exact, one over, and a whole
    // network group plus a tail over.
    let around = |at: usize| [at - 1, at, at + 1, at + 9];
    let mut lens = vec![0, 1, 2, 15, 17];
    for at in [8, 64, RUN_LEN, 2 * RUN_LEN, 3 * RUN_LEN] {
        lens.extend(around(at));
    }
    lens.extend([RUN_LEN / 2 + 3, MAX_LEN, 4 * RUN_LEN + RUN_LEN / 3]);
    // One scratch throughout: lengths go up and down, so it is both
    // grown and reused longer than needed.
    let mut scratch = AlignedVec::new();
    for (i, &n) in lens.iter().enumerate() {
        for shape in SHAPES {
            assert_sorts(shape, n, i as u64, &mut scratch);
        }
    }
}

/// `k` sorted runs of the given shape; about one in four is empty.
fn sorted_runs(shape: &str, k: usize, max_len: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = Xoshiro256::new(seed);
    (0..k)
        .map(|_| {
            let draw = rng.next_u64() as usize;
            let len = match draw % 4 {
                0 => 0,
                _ => draw % max_len,
            };
            let mut run = input(shape, len, rng.next_u64());
            run.sort_unstable();
            run
        })
        .collect()
}

fn assert_merges(runs: &[Vec<u64>], what: &str) {
    let mut expect = runs.concat();
    expect.sort_unstable();
    // Exactly the runs' total is written: the guards around it stay.
    const GUARD: u64 = 0xDEAD_BEEF;
    let mut buf = vec![GUARD; expect.len() + 2];
    let slices: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
    merge_runs_into(&slices, &mut buf[1..=expect.len()]);
    assert!(buf[1..=expect.len()] == expect[..], "{what}");
    assert_eq!((buf[0], buf[expect.len() + 1]), (GUARD, GUARD), "{what}");
}

#[test]
fn loser_tree_for_every_run_count() {
    let max_len = if cfg!(miri) { 12 } else { 200 };
    for k in 1..=33 {
        for shape in ["random", "few-distinct", "extremes"] {
            let runs = sorted_runs(shape, k, max_len, k as u64);
            assert_merges(&runs, &format!("{shape}, k={k}"));
        }
    }
    // Only exhausted-sentinel values, in runs of unequal length.
    let max = |len| vec![u64::MAX; len];
    assert_merges(&[max(3), max(0), max(1), max(5), max(2)], "all u64::MAX");
    assert_merges(&[vec![0; 4], vec![], vec![0; 1]], "all zero");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn sort_packed_equals_std_sort(
        n in 0..=MAX_LEN,
        shape in 0..SHAPES.len(),
        seed in any::<u64>(),
    ) {
        assert_sorts(SHAPES[shape], n, seed, &mut AlignedVec::new());
    }

    #[test]
    fn loser_tree_equals_sorted_concatenation(
        k in 1usize..=33,
        shape in 0..SHAPES.len(),
        seed in any::<u64>(),
    ) {
        let max_len = if cfg!(miri) { 16 } else { 3000 };
        let runs = sorted_runs(SHAPES[shape], k, max_len, seed);
        assert_merges(&runs, &format!("{}, k={k}, seed={seed}", SHAPES[shape]));
    }
}
