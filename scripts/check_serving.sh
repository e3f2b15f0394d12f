#!/usr/bin/env bash
# Serving gate (bench_serving + src/serve): the simulator and its
# resilience layer (breakers + degradation + hedging). Six checks:
#   1. determinism     — the same seed emits byte-identical record
#      arrays across repeated runs AND across thread counts (the
#      event loop is serial in simulated time; worker count must be
#      invisible);
#   2. report validity — BENCH_serving.json passes the same schema
#      validation as every other RunRecord document, and the serving
#      headlines hold: dynamic batching beats batch=1 goodput at the
#      fixed SLO, the 4-chip board clears 2.5x single-chip
#      throughput, and overload shedding stays a bounded fraction
#      while goodput beats the open door;
#   3. chaos-under-load — a serve.chip_down spec completes the run
#      (outages delay, never drop), activates the resilience block
#      (serving breakers/degradation live in its nested serving
#      object), and is itself deterministic per fault seed;
#   4. workload knobs  — seed= and stream= select different traffic,
#      and malformed values exit 2 naming the offender;
#   5. resilience under chaos — the headline chaos spec (a flaky
#      preferred chip plus low-rate background outages) emits
#      byte-identical record arrays across repeat runs AND across 1 vs
#      4 worker threads (fault draws live in the simulator's own seeded
#      stream, never in wall clock or scheduling order); under it the
#      breakers trip, and the resilient board (breakers + degradation
#      ladder) beats the shed-only baseline's goodput at the 50 ms SLO;
#   6. class-spec validation — malformed classes= values exit 2 naming
#      the offending token.
# The torn tuned-db recovery check runs bench_autotune, so it lives in
# check_tune.sh. Requires python3, like every JSON gate.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v python3 >/dev/null 2>&1 || {
    echo "check_serving: python3 is required to validate the report" >&2
    exit 1
}

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -d "$BUILD_DIR" ]; then
    echo "build directory '$BUILD_DIR' not found; run cmake first" >&2
    exit 1
fi
BENCH="$BUILD_DIR/bench/bench_serving"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# The document-level metrics object holds wall-clock histograms, so
# whole documents differ between runs; the records array (everything
# from `"records": [` to EOF) is the deterministic payload.
records_of() {
    awk '/"records": \[/,0' "$1" > "$2"
}

echo "==== check_serving: determinism across runs and threads ===="
"$BENCH" "json=$workdir/a.json" >/dev/null
"$BENCH" "json=$workdir/b.json" >/dev/null
"$BENCH" "json=$workdir/t4.json" threads=4 >/dev/null
records_of "$workdir/a.json" "$workdir/a.records"
records_of "$workdir/b.json" "$workdir/b.records"
records_of "$workdir/t4.json" "$workdir/t4.records"
cmp -s "$workdir/a.records" "$workdir/b.records" || {
    echo "repeated serving runs emitted different records" >&2
    exit 1
}
cmp -s "$workdir/a.records" "$workdir/t4.records" || {
    echo "thread count changed the serving records" >&2
    exit 1
}
echo "serving records identical across runs and thread counts"

echo "==== check_serving: report validity + serving headlines ===="
python3 - "$workdir/a.json" <<'EOF'
import json
import math
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("schema") == "cfconv.run_record", "bad schema id"
assert doc.get("version") == 6, "serving doc must be v6"
records = {r["model"]: r for r in doc["records"]}
assert len(records) == 19, f"want 19 scenarios, got {len(records)}"
for name, r in records.items():
    assert r["layers"], f"{name}: no layers"
    assert math.isfinite(r["tflops"]) and r["tflops"] > 0, (
        f"{name}: tflops = {r['tflops']}")
    assert r["resilience"]["active"] is False, (
        f"{name}: fault-free run has an active resilience block")

def goodput(r):
    return sum(l["extras"].get("goodputRps", 0.0) for l in r["layers"])

def served(r):
    return sum(l["count"] for l in r["layers"])

# Dynamic batching must beat batch=1 goodput at the fixed SLO.
b1 = goodput(records["pareto_b1"])
best = max(goodput(records[f"pareto_b{b}"]) for b in (4, 8, 16, 32, 64))
assert best > b1, f"batching goodput {best:.0f} <= batch-1 {b1:.0f}"

# 4-chip board must clear 2.5x single-chip throughput (both records
# run the same saturating arrival list, so served counts match and
# throughput ratio = inverse makespan ratio).
t1 = served(records["scale_n1"]) / records["scale_n1"]["seconds"]
t4 = served(records["scale_n4"]) / records["scale_n4"]["seconds"]
assert t4 > 2.5 * t1, f"4-chip scaling {t4 / t1:.2f}x < 2.5x"

# Overload shedding: a bounded shed fraction, and better goodput than
# the open door.
shed_r = records["overload_shed"]
shed = sum(l["extras"]["shed"] for l in shed_r["layers"])
offered = sum(l["extras"]["offered"] for l in shed_r["layers"])
assert 0 < shed < offered, f"shed {shed} not in (0, {offered})"
assert shed / offered < 0.5, f"shed fraction {shed / offered:.2f} >= 0.5"
assert goodput(shed_r) > goodput(records["overload_open"]), (
    "shedding did not improve overload goodput")

print(f"serving report OK: batching {best / b1:.2f}x, "
      f"scaling {t4 / t1:.2f}x, shed {shed / offered:.2f}")
EOF

echo "==== check_serving: chaos-under-load (serve.chip_down) ===="
CHAOS_SPEC='seed=11; serve.chip_down=0.1'
"$BENCH" "json=$workdir/chaos_a.json" "faults=$CHAOS_SPEC" >/dev/null
"$BENCH" "json=$workdir/chaos_b.json" "faults=$CHAOS_SPEC" >/dev/null
records_of "$workdir/chaos_a.json" "$workdir/chaos_a.records"
records_of "$workdir/chaos_b.json" "$workdir/chaos_b.records"
cmp -s "$workdir/chaos_a.records" "$workdir/chaos_b.records" || {
    echo "seeded chaos serving runs emitted different records" >&2
    exit 1
}
grep -q '"version": 6' "$workdir/chaos_a.json" || {
    echo "chaos serving document is not schema v6" >&2
    exit 1
}
grep -A1 '"resilience": {' "$workdir/chaos_a.json" | grep -q '"active": true' || {
    echo "chaos serving document has no active resilience block" >&2
    exit 1
}
# Chip outages delay batches but never drop them: every scenario must
# still conserve offered = completed + shed, which the validator
# asserts implicitly via the Pareto rows (shed = 0 there even under
# chaos because admission stays unbounded).
grep -q '"model": "pareto_b64"' "$workdir/chaos_a.json" || {
    echo "chaos run did not complete every scenario" >&2
    exit 1
}
echo "chaos-under-load deterministic, resilience block active"

echo "==== check_serving: workload knobs (seed=, stream=) ===="
"$BENCH" "json=$workdir/s7.json" seed=7 stream=bursty >/dev/null
records_of "$workdir/s7.json" "$workdir/s7.records"
cmp -s "$workdir/a.records" "$workdir/s7.records" && {
    echo "seed=7 stream=bursty emitted the default records" >&2
    exit 1
}
set +e
"$BENCH" seed=0 >/dev/null 2>"$workdir/seed.err"
seed_rc=$?
"$BENCH" stream=weekly >/dev/null 2>"$workdir/stream.err"
stream_rc=$?
set -e
if [ "$seed_rc" -ne 2 ] || ! grep -q 'seed' "$workdir/seed.err"; then
    echo "seed=0 exited $seed_rc without naming seed (want exit 2)" >&2
    exit 1
fi
if [ "$stream_rc" -ne 2 ] || ! grep -q 'weekly' "$workdir/stream.err"
then
    echo "stream=weekly exited $stream_rc without naming it" >&2
    exit 1
fi
echo "workload knobs honored; malformed values exit 2"

CHAOS='seed=42; serve.chip_down@gpu-v100=0.6; serve.chip_down=0.01'

echo "==== check_serving: resilience chaos byte-identity (1 vs 4 threads) ===="
"$BENCH" "json=$workdir/r1.json" "faults=$CHAOS" threads=1 \
    > "$workdir/r1.out"
"$BENCH" "json=$workdir/r1b.json" "faults=$CHAOS" threads=1 >/dev/null
"$BENCH" "json=$workdir/r4.json" "faults=$CHAOS" threads=4 >/dev/null
records_of "$workdir/r1.json" "$workdir/r1.records"
records_of "$workdir/r1b.json" "$workdir/r1b.records"
records_of "$workdir/r4.json" "$workdir/r4.records"
cmp -s "$workdir/r1.records" "$workdir/r1b.records" || {
    echo "repeated chaos runs emitted different records" >&2
    exit 1
}
cmp -s "$workdir/r1.records" "$workdir/r4.records" || {
    echo "thread count changed the chaos records" >&2
    exit 1
}
grep -q '"version": 6' "$workdir/r1.json" || {
    echo "chaos document is not schema v6" >&2
    exit 1
}
echo "chaos records identical across runs and thread counts"

echo "==== check_serving: breakers trip, resilience pays ===="
trips="$(awk -F'measured=' '/breaker trips/{print $2}' "$workdir/r1.out")"
gain="$(awk -F'measured=' '/resilient goodput gain/{print $2}' \
    "$workdir/r1.out")"
if [ -z "$trips" ] || [ "$trips" -lt 1 ]; then
    echo "breaker trips headline missing or zero (got '$trips')" >&2
    exit 1
fi
awk -v g="$gain" 'BEGIN { exit !(g > 1.0) }' || {
    echo "resilient goodput gain $gain <= 1.0 vs shed-only" >&2
    exit 1
}
echo "breakers tripped ($trips), resilient goodput gain ${gain}x"

echo "==== check_serving: class-spec validation ===="
set +e
"$BENCH" classes=bogus >/dev/null 2>"$workdir/cls1.err"
rc1=$?
"$BENCH" classes=alexnet:weighty >/dev/null 2>"$workdir/cls2.err"
rc2=$?
set -e
if [ "$rc1" -ne 2 ] || ! grep -q 'bogus' "$workdir/cls1.err"; then
    echo "classes=bogus exited $rc1 without naming it (want 2)" >&2
    exit 1
fi
if [ "$rc2" -ne 2 ] || ! grep -q 'weighty' "$workdir/cls2.err"; then
    echo "classes=alexnet:weighty exited $rc2 without naming it" >&2
    exit 1
fi
echo "malformed class specs exit 2 naming the offender"

echo "SERVING OK"
