#!/usr/bin/env bash
# Smoke test of the benchmark itself: three seconds per run, so the
# numbers mean nothing. Checks that every workload's plain and traced
# run exits 0 with a result line that matches the spec, and that a run
# leaves nothing behind in bench/out/ except the trace it was asked for.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/mmjoin-wallbench"

for workload in probe_heavy build_heavy small_fixed; do
    for trace in 0 1; do
        echo "check: $workload trace=$trace" >&2
        "$bin" --workload "$workload" --seed 1 --seconds 3 --trace "$trace" 2>/dev/null |
            "$bin" --validate "$trace"
    done
    test -s "bench/out/trace-$workload-1.json"
    rm "bench/out/trace-$workload-1.json"
done

leftovers=$(ls -A bench/out)
if [ -n "$leftovers" ]; then
    echo "check: left behind in bench/out: $leftovers" >&2
    exit 1
fi
echo "check: ok" >&2
