#!/usr/bin/env bash
# Tier-1 verification for the VYRD reproduction workspace.
#
# The workspace is std-only and must build with zero network access, so
# everything here runs with --offline. Exits non-zero on the first
# failure.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

# Pre-flight: the frozen benchmark package (BENCHMARK.json) compiles
# against these crates unmodified and is what the pipeline runs after
# this script. Its smoke runs every workload once with its own verdict
# gates and conservation identities, so an API or verdict break that
# would kill a PR at the benchmark stage fails here first.
echo "==> benchmark pre-flight (benchmark/run.sh all --smoke)"
benchmark/run.sh all --smoke >/dev/null

# The smoke divides every size by 20 (its BLinkTree cell is 200 calls),
# so it cannot see a verdict path that has gone back to costing O(state)
# per commit, and it does not run the frozen package's own suite. Two
# more pre-flights, both through the package's own manifest into this
# workspace's target/: its tests, which pin the metric names and what
# every workload emits; and every BENCHMARK.json workload at full size
# through the exact BENCHMARK.json command, each of which must exit 0
# (every Correct gate and Buggy canary green, no repetition hung). The
# untraced pass runs for BENCHMARK.json's own run_seconds: PRs have been
# lost at the run stage on workloads that the smoke and a 1 s full-size
# run both passed. The traced pass runs 1 s; the conservation identities
# and the layer replays run only under --trace 1.
echo "==> benchmark package tests (release)"
CARGO_TARGET_DIR=target cargo test --release --offline -q \
    --manifest-path benchmark/Cargo.toml >/dev/null
run_seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
if [[ -z "$run_seconds" ]]; then
    echo "no run_seconds in BENCHMARK.json" >&2
    exit 1
fi
for workload in $(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json); do
    for pass in "0 $run_seconds" "1 1"; do
        read -r trace seconds <<<"$pass"
        echo "==> benchmark full-size workload ($workload, $seconds s, --trace $trace)"
        CARGO_TARGET_DIR=target cargo run --release --offline --quiet \
            --manifest-path benchmark/Cargo.toml --bin vyrd-benchmark -- \
            --workload "$workload" --seconds "$seconds" --trace "$trace" >/dev/null
    done
done

echo "==> cargo test -q --offline"
cargo test --workspace -q --offline

# What keeps a view check's cost at what the commit touched: each tree
# replayer's seeded differential test against its own whole walk (corrupt
# shapes included) and its visit-count guard (100 overwrites read the
# same number of leaves/nodes at 64 keys and at 4 096), optimised as the
# benchmark runs them.
echo "==> replayer differential + scaling guards, release"
cargo test --release --offline -q -p vyrd-blinktree -p vyrd-multiset --lib replay >/dev/null

# The channel's wait protocol has two paths: a blocked thread spins
# before it parks, unless the process has one core. The suite above ran
# the channel tests with every core; run them again, optimised and pinned
# to one CPU, so the park path — not only the spin path — is exercised on
# its own. The log's tests ride along: a dropped logger's batch waits on
# the idle list for another thread's logger or flush point, and no flush
# point may wait on a batch no live thread owns — which matters most
# where program and verifier cannot run at once.
echo "==> channel wait protocol and log hand-off, release, one CPU"
if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 cargo test --release --offline -q -p vyrd-rt channel >/dev/null
    taskset -c 0 cargo test --release --offline -q -p vyrd-core --lib log:: >/dev/null
else
    echo "    -> taskset not available; ran unpinned only"
    cargo test --release --offline -q -p vyrd-rt channel >/dev/null
    cargo test --release --offline -q -p vyrd-core --lib log:: >/dev/null
fi

# Smoke-run every example: each is a runnable walkthrough that must
# exit 0 (the violation demos report their detection and succeed).
echo "==> example smoke runs"
cargo build --release --offline --examples
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "    -> $name"
    cargo run --release --offline -q --example "$name" >/dev/null
done

# Fault-matrix smoke: the full grid of injected faults over every
# sharded scenario, under a pinned seed so any failure replays exactly
# (the example's watchdog turns a hang into a non-zero exit). The
# example loop above already ran it at seed 0; this pins a second seed.
echo "==> fault-matrix smoke (VYRD_FAULT_SEED=3405691582)"
VYRD_FAULT_SEED=3405691582 \
    cargo run --release --offline -q --example fault_matrix >/dev/null

# Fast-path agreement: the batched per-thread logging pipeline must
# reproduce the single-lock reference order event-for-event, including
# under injected append drops — pinned to the same seed as the fault
# matrix so a disagreement replays exactly.
echo "==> append agreement (VYRD_FAULT_SEED=3405691582)"
VYRD_FAULT_SEED=3405691582 \
    cargo test --release --offline -q --test append_agreement >/dev/null

# Lock-free linearizability agreement: the K=4 sharded Lin pool must
# agree event-for-event with the offline per-object reference on both
# lock-free scenarios (correct PASS, buggy FAIL on the prologue shard,
# injected drops degrade-never-forge), pinned to the same replayable
# seed as the fault matrix.
echo "==> lock-free lin agreement (VYRD_FAULT_SEED=3405691582)"
VYRD_FAULT_SEED=3405691582 \
    cargo test --release --offline -q --test lin_agreement >/dev/null

# Consume-path agreement: the batched router+pool pipeline must return
# the same verdict as the per-event baseline on every scenario family
# (Correct and Buggy, 1 and 4 workers), and injected route drops must
# stamp the identical degradation ledger across batch boundaries —
# pinned to the fault matrix's seed so a divergence replays exactly.
echo "==> consume agreement (VYRD_FAULT_SEED=3405691582)"
VYRD_FAULT_SEED=3405691582 \
    cargo test --release --offline -q --test consume_agreement >/dev/null

# Allocation-flat decode: steady-state framed replay must never touch
# the heap (counting global allocator; own binary, see the test header).
echo "==> decode no-alloc"
cargo test --release --offline -q --test decode_no_alloc >/dev/null

# Consume-path regression gate: the batched delivery discipline checked
# against the per-event baseline on the same recorded traces, the two in
# strict alternation. The bench itself exits non-zero if the batched
# path's fastest sample is >10% slower than the baseline's on any
# scenario (it should be an order of magnitude faster).
echo "==> check_throughput --smoke gate"
cargo bench --offline -p vyrd-bench --bench check_throughput -- --smoke >/dev/null 2>&1

# Every step below that exports an artifact writes it here, not into the
# tracked results/: a verify run must leave the tree as it found it.
VYRD_BENCH_DIR="$(mktemp -d)"
export VYRD_BENCH_DIR
trap 'rm -rf "$VYRD_BENCH_DIR"' EXIT

# Metrics export + reconciliation: `vyrd stats` runs a live sharded
# scenario with metrics and spans on, then replays the pinned-seed fault
# matrix and exits non-zero unless every metric agrees exactly with the
# Degradation ledger and log stats (lag >= 0 is among its own checks).
# Five times over: the conservation identity `appended == routed + shed`
# used to miss once in a dozen runs, when a checker hung up while the
# replay was still appending, and one run does not gate that.
echo "==> metrics export + fault-matrix reconciliation (stats x5)"
for _ in 1 2 3 4 5; do
    VYRD_FAULT_SEED=3405691582 \
        target/release/vyrd stats >/dev/null
done
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, os
out = os.environ["VYRD_BENCH_DIR"]
for name in ("METRICS_smoke.json", "METRICS_fault_matrix.json"):
    with open(f"{out}/{name}") as f:
        doc = json.load(f)
    assert doc, f"{name} is empty"
matrix = json.load(open(f"{out}/METRICS_fault_matrix.json"))
assert matrix["all_agree"] is True, "fault-matrix metrics disagree with ledger"
print("    -> METRICS JSON artifacts parse; all cells agree")
EOF
else
    test -s "$VYRD_BENCH_DIR/METRICS_smoke.json"
    test -s "$VYRD_BENCH_DIR/METRICS_fault_matrix.json"
fi

# Continuous-service kill/resume smoke: run the segmented producer with
# its polling verifier under the pinned seed, SIGKILL it mid-stream once
# at least two checkpoints are durable and a checked segment has been
# physically deleted, then resume in a fresh process. The resumed run
# must PASS, must start from a checkpoint (resume_seq > 0), and its
# segment accounting must reconcile exactly: every sealed segment
# present at resume is deleted, and at most the unsealed tail file
# (kept as crash evidence) survives.
echo "==> continuous kill/resume smoke (VYRD_FAULT_SEED=3405691582)"
SEG_DIR="${TMPDIR:-/tmp}/vyrd-segment-smoke.$$"
SEG_LOG="$SEG_DIR.produce.log"
rm -rf "$SEG_DIR" "$SEG_LOG"
VYRD_FAULT_SEED=3405691582 \
    target/release/vyrd continuous produce --dir "$SEG_DIR" --seed 3405691582 \
    --calls 12000 --segment-bytes 4096 >"$SEG_LOG" &
SEG_PID=$!
seg_gate() {
    awk '
        /^progress/ {
            cp = del = ns = 0
            for (i = 1; i <= NF; i++)
                if (split($i, kv, "=") == 2) {
                    if (kv[1] == "checkpoints") cp = kv[2] + 0
                    if (kv[1] == "deleted")     del = kv[2] + 0
                    if (kv[1] == "next_seq")    ns = kv[2] + 0
                }
            if (cp >= 2 && del >= 1 && ns > 0) { hit = 1; exit }
        }
        END { exit hit ? 0 : 1 }
    ' "$SEG_LOG"
}
seg_gate_hit=0
while kill -0 "$SEG_PID" 2>/dev/null; do
    if seg_gate; then
        seg_gate_hit=1
        break
    fi
    sleep 0.02
done
if [ "$seg_gate_hit" -ne 1 ]; then
    echo "    !! produce finished before the kill gate fired" >&2
    cat "$SEG_LOG" >&2
    exit 1
fi
kill -9 "$SEG_PID" 2>/dev/null || true
wait "$SEG_PID" 2>/dev/null || true
# The durable state the kill left behind: a manifest, at least one
# checkpoint, and the segments the checkpoints do not yet cover.
test -f "$SEG_DIR/manifest.log"
ls "$SEG_DIR"/checkpoint-*.vyc >/dev/null
SEG_LIVE_AT_RESUME="$(ls "$SEG_DIR"/seg-*.vyl 2>/dev/null | wc -l | tr -d ' ')"
VYRD_FAULT_SEED=3405691582 \
    target/release/vyrd continuous resume --dir "$SEG_DIR" --seed 3405691582 \
    --json "$VYRD_BENCH_DIR/SEGMENT_smoke.json" >"$SEG_DIR.resume.log"
grep -q '^final passed=true' "$SEG_DIR.resume.log"
if command -v python3 >/dev/null 2>&1; then
    SEG_LIVE_AT_RESUME="$SEG_LIVE_AT_RESUME" python3 - <<'EOF'
import json, os
doc = json.load(open(os.environ["VYRD_BENCH_DIR"] + "/SEGMENT_smoke.json"))
at_resume = int(os.environ["SEG_LIVE_AT_RESUME"])
assert doc["passed"] is True, doc
assert doc["resume_seq"] > 0, f"did not resume from a checkpoint: {doc}"
assert doc["events_checked_after_resume"] >= doc["resume_seq"], doc
assert doc["checkpoints_written"] >= 1, doc
assert doc["live_segments"] <= 1, f"disk not reclaimed: {doc}"
assert doc["segments_deleted"] + doc["live_segments"] == at_resume, (
    f"segment accounting does not reconcile: {at_resume} present at "
    f"resume vs {doc}"
)
print("    -> resumed PASS from seq", doc["resume_seq"],
      "| segments reconciled:", doc["segments_deleted"], "deleted +",
      doc["live_segments"], "live =", at_resume)
EOF
else
    test -s "$VYRD_BENCH_DIR/SEGMENT_smoke.json"
fi
rm -rf "$SEG_DIR" "$SEG_LOG" "$SEG_DIR.resume.log"

# Open-loop soak smoke: drive an arrival-rate workload well past the
# verifier's saturation point under the pinned seed, with the adaptive
# overload controller on. The binary itself exits non-zero unless the
# run converges to a bounded-lag DEGRADED PASS with exact shed/stranded
# accounting (appended == routed + shed, routed == checked + stranded,
# ledger == metrics) on the correct leg, and the buggy leg still FAILs
# on a pre-gap violation — overload must never forge a verdict either
# way.
echo "==> open-loop soak smoke (seed 3405691582)"
target/release/vyrd soak --smoke --seed 3405691582 >/dev/null
test -s "$VYRD_BENCH_DIR/SOAK_smoke.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, os
doc = json.load(open(os.environ["VYRD_BENCH_DIR"] + "/SOAK_smoke.json"))
assert doc["ok"] is True, "soak smoke did not reconcile"
legs = {leg["variant"]: leg for leg in doc["legs"]}
correct, buggy = legs["Correct"], legs["Buggy"]
assert correct["verdict"] == "DEGRADED PASS", correct
assert correct["reconciled"] is True, correct
assert correct["shed"] > 0, "smoke never saturated"
assert buggy["verdict"] == "FAIL", buggy
assert buggy["reconciled"] is True, buggy
print("    -> SOAK_smoke.json: correct leg DEGRADED PASS"
      f" ({correct['shed']} sheds, reconciled), buggy leg FAIL")
EOF
fi

# Witness smoke gate: two seeded bugs through the counterexample
# pipeline under the pinned seed. Each run records a multi-thousand-
# event buggy trace, ddmin-minimizes it with the scenario's checker as
# the oracle, and writes WITNESS_<scenario>.json. The binary
# exits non-zero if the violation category drifts during minimization,
# if the minimized witness exceeds 50 events, or if the originating log
# was under 2000 events (a trivial trace would make the gate vacuous).
echo "==> witness minimization gate (seed 3405691582)"
target/release/vyrd witness --scenario Vector --kind view --seed 3405691582 \
    --max-events 50 --min-log 2000 >/dev/null
target/release/vyrd witness --scenario Treiber-Stack --kind lin --seed 3405691582 \
    --max-events 50 --min-log 2000 >/dev/null
test -s "$VYRD_BENCH_DIR/WITNESS_Vector.json"
test -s "$VYRD_BENCH_DIR/WITNESS_Treiber-Stack.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, os
for name, category in (
    ("WITNESS_Vector.json", "observer-unjustified"),
    ("WITNESS_Treiber-Stack.json", "spec-rejected-commit"),
):
    doc = json.load(open(os.environ["VYRD_BENCH_DIR"] + "/" + name))
    assert doc["category"] == category, f"{name}: category drifted: {doc['category']}"
    assert 0 < len(doc["events"]) <= 50, f"{name}: witness not minimized"
    assert doc["original_events"] >= 2000, f"{name}: trivial originating trace"
    assert doc["oracle_runs"] >= 1, f"{name}: no ddmin cost reported"
    print(f"    -> {name}: {doc['original_events']} events ->",
          f"{len(doc['events'])} ({doc['oracle_runs']} oracle runs)")
EOF
fi

# Clippy is optional tooling: run it when the component is installed,
# skip quietly when not (the container may ship a bare toolchain).
# Note: crates/core's pipeline modules (log/shard/pool/online/codec/
# violation) carry `#![deny(clippy::unwrap_used, clippy::expect_used)]`
# inner attributes, so this run also gates panicking escape hatches out
# of the degrade-gracefully paths.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --offline"
    # result_large_err fires on the checker's pre-existing Report-sized
    # error variants; waived until that type is boxed. redundant_clone
    # is opted *in* (it is off by default): the consume-path overhaul
    # stripped the checker/decode hot paths of defensive clones, and
    # this keeps them from creeping back.
    cargo clippy --workspace --all-targets --offline -- \
        -D warnings -W clippy::redundant_clone -A clippy::result_large_err
else
    echo "==> clippy not installed; skipping"
fi

if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "==> results/ untouched"
    test -z "$(git status --porcelain results/)"
fi

echo "==> OK"
