#!/usr/bin/env bash
# Lines of Rust per crate (`wc -l` over crates/<c>/src), then the total —
# the tracked code-size metric (ROADMAP aim 2). Records nothing; paste the
# output into the PR's CHANGES.md line.

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    crate="$(basename "$(dirname "$dir")")"
    lines="$(find "$dir" -name '*.rs' -print0 | xargs -0 cat | wc -l)"
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' "all" "$total"
