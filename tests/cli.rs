//! The `mmjoin` binary's `join` command: one small join succeeds, and
//! every malformed command line exits 2 with a message on stderr
//! instead of panicking or running a join.

use std::process::Command;

/// Run `mmjoin join <args>` (split on whitespace); returns (exit code,
/// stdout, stderr).
fn join(args: &str) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mmjoin"))
        .arg("join")
        .args(args.split_whitespace())
        .output()
        .expect("spawn mmjoin");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn small_join_succeeds() {
    let (code, stdout, stderr) = join("--algo NOP --build 1024 --probe 4096 --threads 1");
    assert_eq!(code, Some(0), "stderr: {stderr}");
    // A foreign-key probe: every probe tuple finds its one build tuple.
    assert!(stdout.contains("matches 4096"), "stdout: {stdout}");
}

#[test]
fn mway_reports_the_radix_bits_it_ran_with() {
    // `--bits` is honoured; without it MWAY runs at its default fan-out.
    use mmjoin::core::mway::MWAY_DEFAULT_BITS;
    let default = format!("radix bits: {MWAY_DEFAULT_BITS}");
    for (bits, expect) in [(" --bits 6", "radix bits: 6"), ("", default.as_str())] {
        let args = format!("--algo MWAY --build 4096 --probe 16384 --threads 2{bits}");
        let (code, stdout, stderr) = join(&args);
        assert_eq!(code, Some(0), "{args}: stderr {stderr}");
        assert!(stdout.contains(expect), "{args}: stdout {stdout}");
        assert!(stdout.contains("matches 16384"), "{args}: stdout {stdout}");
    }
}

#[test]
fn malformed_command_lines_exit_2_with_a_message() {
    // (arguments, text stderr must contain). Small sizes keep the cases
    // that get as far as generating a workload cheap; a valueless option
    // goes last on the line.
    let cases = [
        (
            "--build 1024 --probe 4096 --algo NOP --frob 1",
            "unknown option --frob",
        ),
        (
            "--build 1024 --probe 4096 --algo NOP --ledger x",
            "unknown option --ledger",
        ),
        (
            "--build 1024 --probe 4096 --algo XYZ",
            "unknown algorithm \"XYZ\"",
        ),
        (
            "--build 1024 --probe 4096",
            "missing required option --algo",
        ),
        (
            "--build 1024 --probe 4096 --algo NOP --bits",
            "option --bits needs a value",
        ),
        ("--algo NOP --build x", "invalid value \"x\" for --build"),
        (
            "--build 1024 --probe 4096 --algo NOP --bits 0",
            "radix_bits = 0",
        ),
        (
            "--build 1024 --probe 4096 --algo NOP --bits 25",
            "radix_bits = 25",
        ),
        (
            "--build 1024 --probe 4096 --algo NOP --threads 0",
            "threads = 0",
        ),
        // Refused before the workload is generated: R of `usize::MAX`
        // tuples would panic in its allocation first.
        (
            "--build 18446744073709551615 --probe 1 --algo NOP --threads 0",
            "invalid configuration: invalid threads = 0",
        ),
        (
            "--build 1024 --probe 4096 --algo NOP --zipf 1.5",
            "must be in [0, 1)",
        ),
        (
            "--build 1024 --probe 4096 --algo NOP --alloc bogus",
            "invalid value for --alloc",
        ),
        (
            "--build 1024 --probe 4096 --algo NOP --alloc hugetlb",
            "invalid value for --alloc",
        ),
        (
            "--build 1024 --probe 4096 --algo NOP --alloc thp+interleave",
            "invalid value for --alloc",
        ),
    ];
    for (args, message) in cases {
        let (code, stdout, stderr) = join(args);
        assert_eq!(code, Some(2), "{args}: stderr {stderr}");
        assert!(stderr.contains(message), "{args}: stderr {stderr}");
        assert!(stdout.is_empty(), "{args} ran a join: {stdout}");
    }
}
