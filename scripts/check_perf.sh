#!/usr/bin/env bash
# Perf-regression gate: diff the bench trajectory artifacts
# (BENCH_models.json, BENCH_gemm.json, BENCH_serving.json,
# BENCH_algos.json) against the checked-in baselines in
# scripts/perf_baselines/.
#
#   - Simulated quantities (per accelerator+model seconds / tflops /
#     dram_bytes from BENCH_models.json, per board+scenario from
#     BENCH_serving.json, and per variant+combo from the algorithm
#     matrix in BENCH_algos.json) must match the baseline EXACTLY: the
#     simulators are deterministic, so any drift is a real behavior
#     change — rebaseline deliberately with --update.
#   - Wall-clock quantities (per shape+backend+thread-count GFLOP/s
#     from the GEMM backend sweep) regress only beyond a noise band:
#     fail when current < baseline * CFCONV_PERF_TOL (default 0.40 —
#     CI machines are noisy; the gate is for the 13.6x-class cliffs,
#     not 5% jitter). The compared points are measured afresh at
#     threads=1 on every run, whatever thread count last wrote
#     BENCH_gemm.json.
#
# Check and selftest runs regenerate every compared point from the
# build under test in a temp dir, so the BENCH files at the repo root
# are neither read nor written.
#
# Usage:
#   check_perf.sh             compare a fresh run with the baselines
#   check_perf.sh --update    regenerate the root BENCH files and the
#                             baselines from a fresh run
#   check_perf.sh --selftest  prove the gate fails on a perturbed baseline
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BASELINE_DIR="scripts/perf_baselines"
TOL="${CFCONV_PERF_TOL:-0.40}"
MODE="${1:-check}"

command -v python3 >/dev/null 2>&1 || {
    echo "check_perf: python3 is required to compare the points" >&2
    exit 1
}

require_build() {
    if [ ! -x "$BUILD_DIR/bench/$1" ]; then
        echo "check_perf: $BUILD_DIR not built; run cmake first" >&2
        exit 1
    fi
}

# gemm_points <dir>: run the GEMM backend sweep at threads=1, which
# writes BENCH_gemm.json in <dir>. The google-benchmark registrations
# are skipped; only the sweep is needed.
gemm_points() {
    require_build bench_micro_kernels
    local bin
    bin="$(cd "$BUILD_DIR/bench" && pwd)/bench_micro_kernels"
    (cd "$1" && "$bin" threads=1 --benchmark_filter=NOTHING_MATCHES \
        >/dev/null)
}

# regen_bench_files <dir>: write all four BENCH files into <dir>.
regen_bench_files() {
    require_build bench_models_report
    "$BUILD_DIR"/bench/bench_models_report json="$1/BENCH_models.json" \
        >/dev/null
    "$BUILD_DIR"/bench/bench_serving json="$1/BENCH_serving.json" \
        >/dev/null
    "$BUILD_DIR"/bench/bench_fig4_stride json="$1/BENCH_algos.json" \
        >/dev/null
    gemm_points "$1"
}

# current <dir>: a fresh run's compared metrics, as <dir>/current.json.
current() {
    regen_bench_files "$1"
    extract "$1/BENCH_models.json" "$1/BENCH_gemm.json" \
        "$1/BENCH_serving.json" "$1/BENCH_algos.json" "$1/current.json"
}

# extract <models.json> <gemm.json> <serving.json> <algos.json>
# <out.json>: boil the four artifacts down to the compared metrics,
# deterministically ordered. Serving records are simulated quantities
# too — the event loop is serial in simulated time — so they join the
# exact-match set, as do the algorithm-matrix records (keyed by
# variant|combo, so the pre-existing accelerator|model keys are
# untouched when the matrix grows).
extract() {
    python3 - "$1" "$2" "$3" "$4" "$5" <<'EOF'
import json
import sys

models_path, gemm_path, serving_path, algos_path, out_path = (
    sys.argv[1:6])
baseline = {"simulated": {}, "wallclock": {}}
for path in (models_path, serving_path, algos_path):
    with open(path) as f:
        doc = json.load(f)
    for record in doc["records"]:
        key = f"{record['accelerator']}|{record['model']}"
        baseline["simulated"][key] = {
            "seconds": record["seconds"],
            "tflops": record["tflops"],
            "dram_bytes": record["dram_bytes"],
        }
with open(gemm_path) as f:
    points = json.load(f)
for pt in points:
    key = f"{pt['m']}x{pt['n']}x{pt['k']}|{pt['backend']}|t{pt['threads']}"
    baseline["wallclock"][key] = {"gflops": pt["gflops"]}
with open(out_path, "w") as f:
    json.dump(baseline, f, indent=2, sort_keys=True)
    f.write("\n")
EOF
}

# compare <baseline.json> <current.json> <tolerance>
compare() {
    python3 - "$1" "$2" "$3" <<'EOF'
import json
import sys

baseline_path, current_path, tol = sys.argv[1], sys.argv[2], float(
    sys.argv[3])
with open(baseline_path) as f:
    baseline = json.load(f)
with open(current_path) as f:
    current = json.load(f)

failures = []
for key, want in sorted(baseline["simulated"].items()):
    got = current["simulated"].get(key)
    if got is None:
        failures.append(f"simulated {key}: missing from current run")
        continue
    for metric, value in sorted(want.items()):
        if got.get(metric) != value:
            failures.append(
                f"simulated {key}: {metric} {got.get(metric)!r} != "
                f"baseline {value!r} (exact match required)")
for key, want in sorted(baseline["wallclock"].items()):
    got = current["wallclock"].get(key)
    if got is None:
        failures.append(f"wallclock {key}: missing from current run")
        continue
    floor = want["gflops"] * tol
    if got["gflops"] < floor:
        failures.append(
            f"wallclock {key}: {got['gflops']:.2f} GFLOP/s < "
            f"{floor:.2f} (baseline {want['gflops']:.2f} * tol {tol})")

for failure in failures:
    print(f"PERF REGRESSION: {failure}", file=sys.stderr)
n_sim = len(baseline["simulated"])
n_wall = len(baseline["wallclock"])
if failures:
    sys.exit(1)
print(f"perf check: {n_sim} simulated + {n_wall} wall-clock points OK")
EOF
}

case "$MODE" in
update | --update)
    regen_bench_files .
    mkdir -p "$BASELINE_DIR"
    extract BENCH_models.json BENCH_gemm.json BENCH_serving.json \
        BENCH_algos.json "$BASELINE_DIR/perf_baseline.json"
    echo "wrote $BASELINE_DIR/perf_baseline.json"
    ;;
selftest | --selftest)
    # The gate must demonstrably fail on a perturbed baseline: nudge
    # one simulated number past exactness and one wall-clock number
    # past the noise band, then require the comparison to reject both.
    workdir="$(mktemp -d)"
    trap 'rm -rf "$workdir"' EXIT
    current "$workdir"
    python3 - "$BASELINE_DIR/perf_baseline.json" \
        "$workdir/perturbed.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    baseline = json.load(f)
sim_key = sorted(baseline["simulated"])[0]
baseline["simulated"][sim_key]["seconds"] *= 1.01
wall_key = sorted(baseline["wallclock"])[0]
baseline["wallclock"][wall_key]["gflops"] *= 1000.0
with open(sys.argv[2], "w") as f2:
    json.dump(baseline, f2, indent=2, sort_keys=True)
EOF
    if compare "$workdir/perturbed.json" "$workdir/current.json" \
        "$TOL" 2>/dev/null; then
        echo "check_perf selftest: perturbed baseline PASSED the" \
            "gate (it must fail)" >&2
        exit 1
    fi
    echo "PERF SELFTEST OK (perturbed baseline rejected)"
    ;;
check | --check)
    if [ ! -s "$BASELINE_DIR/perf_baseline.json" ]; then
        echo "check_perf: no baseline; run check_perf.sh --update" >&2
        exit 1
    fi
    workdir="$(mktemp -d)"
    trap 'rm -rf "$workdir"' EXIT
    current "$workdir"
    compare "$BASELINE_DIR/perf_baseline.json" \
        "$workdir/current.json" "$TOL"
    echo "PERF OK"
    ;;
*)
    echo "usage: check_perf.sh [--update|--selftest]" >&2
    exit 2
    ;;
esac
