#!/usr/bin/env bash
# Lines of Rust per crate (crates/<c>/src), then the total — the tracked
# code-size metric (ROADMAP aim 2). Two figures each: every line, and the
# lines that are not tests (no `tests.rs` file, and nothing from a
# top-level `#[cfg(test)]` item to the end of its file). One more line for
# the bench binaries. Records nothing; paste the output into the PR's
# CHANGES.md line.

set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<all> <non-test>" for the .rs files under $1.
count() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = (FILENAME ~ /(^|\/)tests\.rs$/); pending = 0 }
        { all++ }
        in_tests { next }
        # `#[cfg(test)]` + `mod x;` declares an out-of-line test module
        # (counted through its own tests.rs); anything else opens the
        # in-file test module that runs to the end of the file.
        pending { pending = 0; if ($0 ~ /^mod [a-z_]+;/) next; in_tests = 1; next }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        { product++ }
        END { printf "%d %d\n", all, product }
    '
}

printf '%-10s %6s %9s\n' "crate" "all" "non-test"
total_all=0
total_product=0
for dir in crates/*/src; do
    read -r all product < <(count "$dir")
    printf '%-10s %6d %9d\n' "$(basename "$(dirname "$dir")")" "$all" "$product"
    total_all=$((total_all + all))
    total_product=$((total_product + product))
done
printf '%-10s %6d %9d\n' "all" "$total_all" "$total_product"
read -r all _ < <(count crates/bench/benches)
printf '%-10s %6d\n' "benches" "$all"
