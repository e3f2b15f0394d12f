#!/usr/bin/env bash
# Trace gate: record single-model traces on both backends
# (model=/backend= selection keeps them small) and one on every stock
# backend at 4 threads, then check both the recorder and the offline
# analyzer.
#   - Recorder: the 4-thread trace parses as JSON and carries spans from
#     every instrumented subsystem (model runner, both simulators, the
#     thread pool, the memo caches), the X/i/C/M phases, events on both
#     clock domains (pid 1 wall clock, pid 2 simulated cycles) and no
#     negative duration; the v6 RunRecord written by the same run points
#     back at the trace file and holds the layer latency histogram.
#   - Analyzer: trace_analyze prints its headline and writes the
#     cfconv.trace_analysis document (its schema, version, timelines,
#     identities and sections are checked in ctest,
#     RecordedTraceTest.TpuRoundTripHasConvTimelinesAndWallStats), and
#     the cross-backend diff aligns every layer. The analysis is a pure
#     function of the trace bytes: repeated runs are byte-identical,
#     and sim-domain analysis (wall=off) is byte-identical whether the
#     trace was recorded at 1 or 4 threads.
# Also exercises the metrics= bench dump and the exit-2 naming-offender
# contract for bad CLI args. Requires python3, like every JSON gate.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v python3 >/dev/null 2>&1 || {
    echo "check_analyze: python3 is required to validate the trace" >&2
    exit 1
}

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -d "$BUILD_DIR" ]; then
    echo "build directory '$BUILD_DIR' not found; run cmake first" >&2
    exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

bench="$BUILD_DIR/bench/bench_models_report"
analyze="$BUILD_DIR/bench/trace_analyze"

echo "==== check_analyze: record single-model traces ===="
# json= redirects each run's RunRecord into the scratch dir so the
# checked-in BENCH_models.json golden is never touched.
"$bench" model=AlexNet backend=tpu-v2 threads=1 \
    "trace=$workdir/tpu_t1.trace" "metrics=$workdir/metrics.json" \
    "json=$workdir/rec_t1.json" >/dev/null
"$bench" model=AlexNet backend=tpu-v2 threads=4 \
    "trace=$workdir/tpu_t4.trace" "json=$workdir/rec_t4.json" >/dev/null
"$bench" model=AlexNet backend=gpu-v100 threads=1 \
    "trace=$workdir/gpu_t1.trace" "json=$workdir/rec_gpu.json" >/dev/null
# Every stock backend, so one trace holds both simulators; 4 threads
# take the thread-pool path even on a single-core machine, and the
# deterministic pool gives the same numbers at any thread count.
"$bench" model=AlexNet threads=4 "trace=$workdir/stock_t4.trace" \
    "json=$workdir/rec_stock_t4.json" >/dev/null

echo "==== check_analyze: the recorder's trace and report ===="
python3 - "$workdir/stock_t4.trace" "$workdir/rec_stock_t4.json" <<'EOF'
import json
import sys

trace_path, report_path = sys.argv[1], sys.argv[2]
with open(trace_path) as f:
    doc = json.load(f)
events = doc.get("traceEvents")
assert isinstance(events, list) and events, "no traceEvents"

cats = {e.get("cat") for e in events}
for expected in ("runner", "tpusim", "gpusim", "pool", "cache"):
    assert expected in cats, f"no '{expected}' events in the trace"

phases = {e.get("ph") for e in events}
for expected in ("X", "i", "C", "M"):
    assert expected in phases, f"no '{expected}' phase events"

pids = {e.get("pid") for e in events if e.get("ph") != "M"}
assert 1 in pids, "no wall-clock (pid 1) events"
assert 2 in pids, "no simulated-cycles (pid 2) events"

spans = [e for e in events if e.get("ph") == "X"]
assert all(e.get("dur", 0) >= 0 for e in spans), "negative duration"

with open(report_path) as f:
    report = json.load(f)
assert report.get("version") == 6, "traced report is not schema v6"
assert report.get("trace_file") == trace_path, (
    f"report trace_file {report.get('trace_file')!r} != {trace_path!r}")
hists = report.get("metrics", {}).get("histograms", {})
assert "runner.layer_sim_seconds" in hists, "no layer latency histogram"

print(f"{trace_path}: {len(events)} events, "
      f"{len(spans)} spans across {len(cats)} categories OK")
EOF

echo "==== check_analyze: analyze ===="
"$analyze" "$workdir/tpu_t1.trace" "json=$workdir/analysis.json" \
    > "$workdir/report_a.txt"
grep -q '^ANALYZE ' "$workdir/report_a.txt"
grep -q '"schema": "cfconv.trace_analysis"' "$workdir/analysis.json"
grep -q '"version": 3' "$workdir/analysis.json"

# The metrics= satellite dumps the same schema as the RunRecord
# metrics block: counters + histograms, deterministically ordered.
grep -q '"counters"' "$workdir/metrics.json"
grep -q '"histograms"' "$workdir/metrics.json"

echo "==== check_analyze: determinism ===="
# Same trace analyzed twice -> byte-identical report and document.
# (The "wrote FILE" echo names the json= path, which differs by
# construction; everything else must match to the byte.)
"$analyze" "$workdir/tpu_t1.trace" "json=$workdir/analysis_b.json" \
    > "$workdir/report_b.txt"
cmp <(grep -v '^wrote ' "$workdir/report_a.txt") \
    <(grep -v '^wrote ' "$workdir/report_b.txt")
cmp "$workdir/analysis.json" "$workdir/analysis_b.json"

# Sim-domain analysis is a pure function of the simulated work, not of
# how many worker threads recorded it (wall=off drops the wall-clock
# section, which legitimately differs across thread counts). The
# headline echoes the input path, so give both traces the same
# relative name and run from their directories: every byte must match.
abs_analyze="$(cd "$(dirname "$analyze")" && pwd)/trace_analyze"
mkdir -p "$workdir/t1" "$workdir/t4"
cp "$workdir/tpu_t1.trace" "$workdir/t1/in.trace"
cp "$workdir/tpu_t4.trace" "$workdir/t4/in.trace"
(cd "$workdir/t1" && "$abs_analyze" in.trace wall=off) \
    > "$workdir/sim_t1.txt"
(cd "$workdir/t4" && "$abs_analyze" in.trace wall=off) \
    > "$workdir/sim_t4.txt"
cmp "$workdir/sim_t1.txt" "$workdir/sim_t4.txt"

echo "==== check_analyze: cross-backend diff ===="
diff_out="$("$analyze" "$workdir/tpu_t1.trace" \
    "diff=$workdir/gpu_t1.trace" "json=$workdir/diff.json")"
printf '%s\n' "$diff_out" | grep -q '^DIFF aligned='
if printf '%s\n' "$diff_out" \
        | grep -q '^DIFF aligned=0\|left_only=[1-9]\|right_only=[1-9]'; then
    echo "cross-backend diff failed to align the shared layers" >&2
    printf '%s\n' "$diff_out" | grep '^DIFF' >&2
    exit 1
fi
grep -q '"schema": "cfconv.trace_analysis_diff"' "$workdir/diff.json"
grep -q '"version": 3' "$workdir/diff.json"

echo "==== check_analyze: naming offenders exit 2 ===="
expect_exit2() {
    local rc=0
    "$@" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "expected exit 2 from: $* (got $rc)" >&2
        exit 1
    fi
}
expect_exit2 "$analyze"
expect_exit2 "$analyze" "$workdir/tpu_t1.trace" frobnicate=1
expect_exit2 "$analyze" "$workdir/tpu_t1.trace" "$workdir/gpu_t1.trace"
expect_exit2 "$bench" model=not-a-model
expect_exit2 "$bench" backend=abacus

echo "ANALYZE OK"
