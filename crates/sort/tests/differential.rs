//! Differential tests of the sort path against `sort_unstable`: every
//! length boundary of `sort_packed` (network group, in-register group,
//! run, block of two runs, multiway merge) over the input shapes that
//! break merges, and the multiway merge over every run count up to 80.
//! Every case runs with the portable kernels and with the SIMD ones —
//! the AVX-512 run sort, merge passes and merge tree where the CPU has
//! them.
//! These are also what exercises the raw-pointer merge loops under
//! Miri, where `RUN_LEN` shrinks so that the same boundaries stay
//! reachable (portable only: the interpreter has no AVX-512).

use mmjoin_sort::mergesort::RUN_LEN;
use mmjoin_sort::multiway::merge_runs_into;
use mmjoin_sort::sort_packed;
use mmjoin_util::alloc::AlignedVec;
use mmjoin_util::kernels::{with_mode, KernelMode};
use mmjoin_util::rng::Xoshiro256;
use proptest::prelude::*;

const CASES: u32 = if cfg!(miri) { 3 } else { 48 };
const MAX_LEN: usize = 3 * RUN_LEN + 17;

const MODES: &[KernelMode] = if cfg!(miri) {
    &[KernelMode::Portable]
} else {
    &[KernelMode::Portable, KernelMode::Simd]
};

/// Run `f` under every kernel mode in turn.
fn in_every_mode(f: impl Fn(KernelMode)) {
    for &mode in MODES {
        with_mode(mode, || f(mode));
    }
}

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
        // Both sentinels of the loser trees (the tree's padding is the
        // first), and their neighbours.
        "extremes" => i
            .map(|_| [0, 1, u64::MAX - 1, u64::MAX][rng.next_u64() as usize % 4])
            .collect(),
        other => panic!("unknown shape {other}"),
    }
}

fn assert_sorts(shape: &str, n: usize, seed: u64, scratch: &mut AlignedVec<u64>, mode: KernelMode) {
    let mut data = input(shape, n, seed);
    let mut expect = data.clone();
    expect.sort_unstable();
    sort_packed(&mut data, scratch);
    assert!(data == expect, "{shape}, n={n}, seed={seed}, {mode:?}");
}

#[test]
fn sort_packed_at_every_length_boundary() {
    // Around each boundary: one short, exact, one over, and a whole
    // network group plus a tail over.
    let around = |at: usize| [at - 1, at, at + 1, at + 9];
    let mut lens = vec![0, 1, 2, 15, 17];
    for at in [8, 64, 128, RUN_LEN, 2 * RUN_LEN, 3 * RUN_LEN] {
        lens.extend(around(at));
    }
    lens.extend([RUN_LEN / 2 + 3, MAX_LEN, 4 * RUN_LEN + RUN_LEN / 3]);
    in_every_mode(|mode| {
        // One scratch throughout: lengths go up and down, so it is both
        // grown and reused longer than needed.
        let mut scratch = AlignedVec::new();
        for (i, &n) in lens.iter().enumerate() {
            for shape in SHAPES {
                assert_sorts(shape, n, i as u64, &mut scratch, mode);
            }
        }
    });
}

#[test]
fn sort_packed_with_an_incomplete_last_quad_at_every_pass_width() {
    // A pass merges runs two pairs at a time (the vector pass: whole
    // quads only, the rest to the scalar pass). At each width from the
    // vector runs' 64 to the last pass's, lengths whose last quad of
    // runs holds one, two or three runs, or a last run of one word.
    let mut lens = Vec::new();
    let mut w = 64;
    while w <= RUN_LEN / 2 {
        lens.extend([w, 2 * w, 3 * w, 2 * w + 1].map(|tail| 4 * w + tail));
        w *= 2;
    }
    in_every_mode(|mode| {
        let mut scratch = AlignedVec::new();
        for (i, &n) in lens.iter().enumerate() {
            for shape in ["random", "few-distinct", "extremes"] {
                assert_sorts(shape, n, i as u64, &mut scratch, mode);
            }
        }
    });
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
fn multiway_merge_for_every_run_count() {
    let max_len = if cfg!(miri) { 12 } else { 200 };
    let top = if cfg!(miri) { 33 } else { 80 };
    in_every_mode(|mode| {
        for k in 1..=top {
            for shape in ["random", "few-distinct", "extremes"] {
                let runs = sorted_runs(shape, k, max_len, k as u64);
                assert_merges(&runs, &format!("{shape}, k={k}, {mode:?}"));
            }
        }
    });
}

#[test]
fn multiway_merge_of_long_runs() {
    // Runs of thousands: the tree's node buffers are drained and
    // refilled many times, at the run counts of a `probe_heavy` (20)
    // and a `build_heavy`-sized (80) partition.
    if cfg!(miri) {
        return;
    }
    in_every_mode(|mode| {
        for (k, max_len) in [(2, 9_000), (3, 5_000), (20, 6_000), (80, 3_000)] {
            for shape in ["random", "few-distinct", "extremes"] {
                let runs = sorted_runs(shape, k, max_len, 7 * k as u64);
                assert_merges(&runs, &format!("{shape}, k={k}, {mode:?}"));
            }
        }
    });
}

#[test]
fn multiway_merge_of_ragged_and_empty_runs() {
    // Lengths on both sides of every multiple of eight, empty runs
    // between them, and a merge of nothing but empty runs.
    let lens = [0, 1, 7, 8, 9, 0, 15, 16, 17, 0, 63, 64, 65, 1, 0, 1025];
    let runs: Vec<Vec<u64>> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let mut run = input("random", len, i as u64);
            run.sort_unstable();
            run
        })
        .collect();
    in_every_mode(|mode| {
        assert_merges(&runs, &format!("ragged, {mode:?}"));
        assert_merges(&runs[..5], &format!("ragged prefix, {mode:?}"));
        assert_merges(&[vec![], vec![], vec![]], &format!("all empty, {mode:?}"));
        assert_merges(&[], &format!("no runs, {mode:?}"));
    });
}

#[test]
fn multiway_merge_of_sentinel_values() {
    // Only padding / exhausted-sentinel values, in runs of unequal
    // length — none a multiple of eight and some empty — so the root
    // must stop at the real total inside a block of padding.
    let max = |len| vec![u64::MAX; len];
    in_every_mode(|mode| {
        assert_merges(
            &[max(3), max(0), max(1), max(5), max(2)],
            &format!("u64::MAX, {mode:?}"),
        );
        assert_merges(
            &[vec![0; 4], vec![], vec![0; 1]],
            &format!("zero, {mode:?}"),
        );
        let many: Vec<Vec<u64>> = (0..80).map(|i| max(i * 7 % 23)).collect();
        assert_merges(&many, &format!("80 runs of u64::MAX, {mode:?}"));
        let zeros: Vec<Vec<u64>> = (0..80).map(|i| vec![0; i * 5 % 19]).collect();
        assert_merges(&zeros, &format!("80 runs of zero, {mode:?}"));
        // Real u64::MAX words beside the padding of a partial block.
        let mixed = [vec![1, u64::MAX], vec![0, 0, u64::MAX], max(9), vec![5; 11]];
        assert_merges(&mixed, &format!("mixed, {mode:?}"));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn sort_packed_equals_std_sort(
        n in 0..=MAX_LEN,
        shape in 0..SHAPES.len(),
        seed in any::<u64>(),
    ) {
        in_every_mode(|mode| {
            assert_sorts(SHAPES[shape], n, seed, &mut AlignedVec::new(), mode);
        });
    }

    #[test]
    fn multiway_merge_equals_sorted_concatenation(
        k in 1usize..=80,
        shape in 0..SHAPES.len(),
        seed in any::<u64>(),
    ) {
        let max_len = if cfg!(miri) { 16 } else { 3000 };
        let runs = sorted_runs(SHAPES[shape], k, max_len, seed);
        in_every_mode(|mode| {
            assert_merges(&runs, &format!("{}, k={k}, seed={seed}, {mode:?}", SHAPES[shape]));
        });
    }
}
