#!/usr/bin/env bash
# benchmark/run.sh <workload|all> [--traced] [--smoke] [--seed N] [--seconds S]
#
# Builds the benchmark offline into the repository's own target/ (or
# $CARGO_TARGET_DIR) and runs one workload — or all six, each in its own
# process — writing benchmark/out/<workload>[.traced][.smoke].json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

all=(offline_view offline_io_lin record_log_heavy online_sharded durable_continuous paced_online)

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <$(IFS='|'; echo "${all[*]}")|all> [--traced] [--smoke] [--seed N] [--seconds S]" >&2
    exit 2
fi
which="$1"
shift
args=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --traced) args+=(--trace 1) ;;
        *) args+=("$1") ;;
    esac
    shift
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/vyrd-benchmark"

if [[ "$which" == all ]]; then
    workloads=("${all[@]}")
else
    workloads=("$which")
fi
status=0
for workload in "${workloads[@]}"; do
    "$bin" --workload "$workload" "${args[@]}" || status=$?
done
exit "$status"
