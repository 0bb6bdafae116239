#!/usr/bin/env bash
# Non-test lines of Rust: the lines before a file's first top-level
# `#[cfg(test)]` (its test module; the whole file when it has none).
# Prints one row per crate (crates/*/src and the root package's src/),
# the workspace total, and one row per file given as an argument.
set -euo pipefail
cd "$(dirname "$0")/.."

count='FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }'

total=0
for src in crates/*/src src; do
    n=$(find "$src" -name '*.rs' -exec awk "$count" {} +)
    printf '%6d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%6d  crates/ + src/\n' "$total"
for f in "$@"; do
    printf '%6d  %s\n' "$(awk "$count" "$f")" "$f"
done
