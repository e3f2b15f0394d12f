#!/usr/bin/env bash
# Chaos gate for the fault-injection harness and the resilient
# ModelRunner. Five checks:
#   1. fault-free parity  — with no faults= argument, two bench runs
#      emit byte-identical record arrays at schema v6 whose resilience
#      blocks are all inactive (chaos plumbing is inert when disarmed);
#   2. chaos determinism  — two runs with the same seeded fault spec
#      emit byte-identical record arrays (the schedule is a pure
#      function of seed/site/key, never of thread timing);
#   3. failover visibility — a forced tpu-v2 step-timeout completes
#      via the gpu-v100 failover chain and shows up in the active
#      resilience block and the exported metrics counters;
#   4. self-healing parity — cache corruption and worker stalls
#      change no simulated numbers (records match fault-free byte for
#      byte after the resilience block is stripped);
#   5. spec hygiene       — a malformed faults= spec aborts with exit
#      code 2 before any simulation runs, and the sram.bank_read site
#      is exercised through its deterministic unit test.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -d "$BUILD_DIR" ]; then
    echo "build directory '$BUILD_DIR' not found; run cmake first" >&2
    exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

BENCH="$BUILD_DIR/bench/bench_models_report"
CHAOS_SPEC='seed=5; accel.step_timeout@tpu-v2=0.5'
CHAOS_SPEC+='; max_attempts=2; failover=gpu-v100'

# The document-level metrics object holds wall-clock histograms, so
# whole documents differ between runs; the records array (everything
# from `"records": [` to EOF) is the deterministic payload.
records_of() {
    awk '/"records": \[/,0' "$1" > "$2"
}

# Same, minus each record's resilience block (nested serving object
# included) — used to compare a chaos run's simulated numbers against
# a fault-free baseline.
records_sans_resilience() {
    awk '/"records": \[/,0' "$1" | awk '
        /"resilience": \{/ { skip = 1 }
        skip {
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth == 0) skip = 0
            next
        }
        { print }' > "$2"
}

echo "==== check_faults: fault-free parity ===="
"$BENCH" "json=$workdir/clean_a.json" >/dev/null
"$BENCH" "json=$workdir/clean_b.json" >/dev/null
records_of "$workdir/clean_a.json" "$workdir/clean_a.records"
records_of "$workdir/clean_b.json" "$workdir/clean_b.records"
cmp -s "$workdir/clean_a.records" "$workdir/clean_b.records" || {
    echo "fault-free runs emitted different records" >&2
    exit 1
}
grep -q '"version": 6' "$workdir/clean_a.json" || {
    echo "fault-free document is not schema v6" >&2
    exit 1
}
if grep -q '"active": true' "$workdir/clean_a.json"; then
    echo "fault-free document carries an active resilience block" >&2
    exit 1
fi
echo "fault-free records identical, schema v6, resilience inactive"

echo "==== check_faults: chaos determinism ===="
"$BENCH" "json=$workdir/chaos_a.json" "faults=$CHAOS_SPEC" >/dev/null
"$BENCH" "json=$workdir/chaos_b.json" "faults=$CHAOS_SPEC" >/dev/null
records_of "$workdir/chaos_a.json" "$workdir/chaos_a.records"
records_of "$workdir/chaos_b.json" "$workdir/chaos_b.records"
cmp -s "$workdir/chaos_a.records" "$workdir/chaos_b.records" || {
    echo "seeded chaos runs emitted different records" >&2
    exit 1
}
echo "seeded chaos records identical across runs"

echo "==== check_faults: retry/failover visibility ===="
grep -q '"version": 6' "$workdir/chaos_a.json" || {
    echo "chaos document is not schema v6" >&2
    exit 1
}
grep -A1 '"resilience": {' "$workdir/chaos_a.json" | grep -q '"active": true' || {
    echo "chaos document has no active resilience block" >&2
    exit 1
}
grep -q '"final_backend": "gpu-v100"' "$workdir/chaos_a.json" || {
    echo "forced tpu-v2 timeout did not fail over to gpu-v100" >&2
    exit 1
}
grep -q '"resilience.failovers"' "$workdir/chaos_a.json" || {
    echo "metrics counters missing resilience.failovers" >&2
    exit 1
}
echo "failover visible in resilience block and metrics"

echo "==== check_faults: self-healing / latency-only parity ===="
"$BENCH" "json=$workdir/corrupt.json" \
    "faults=seed=1; cache.corrupt=1; pool.worker_stall=0.25" >/dev/null
records_sans_resilience "$workdir/clean_a.json" "$workdir/clean_a.sans"
records_sans_resilience "$workdir/corrupt.json" "$workdir/corrupt.sans"
cmp -s "$workdir/clean_a.sans" "$workdir/corrupt.sans" || {
    echo "cache corruption / worker stalls changed simulated results" \
        >&2
    exit 1
}
echo "corruption self-heals, stalls stay latency-only"

echo "==== check_faults: spec hygiene ===="
set +e
"$BENCH" "json=$workdir/bad.json" "faults=seed=1; no.such_site=1" \
    >/dev/null 2>"$workdir/bad.err"
bad_rc=$?
set -e
if [ "$bad_rc" -ne 2 ]; then
    echo "malformed faults= spec exited $bad_rc, want 2" >&2
    exit 1
fi
grep -q 'no.such_site' "$workdir/bad.err" || {
    echo "malformed-spec error does not name the offending site" >&2
    exit 1
}
"$BUILD_DIR"/tests/cfconv_tests \
    --gtest_filter='ResilienceTest.SramBankReadErrors*' >/dev/null || {
    echo "sram.bank_read chaos test failed" >&2
    exit 1
}
echo "bad specs rejected with exit 2; sram.bank_read site exercised"

echo "FAULTS OK"
