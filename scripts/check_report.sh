#!/usr/bin/env bash
# Structured-report gate: run the model benches with json=FILE and
# validate the emitted sim::RunRecord documents — schema identifier
# and version 6 (the only one), every field of the one schema present
# (trace_file, each record's resilience block with its serving object,
# each layer's algorithm), at least one record with a non-empty layers
# array, and finite positive whole-model TFLOPS (the writer emits
# non-finite doubles as null, so a NaN anywhere in the pipeline shows
# up here).
# Requires python3, like every JSON gate.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v python3 >/dev/null 2>&1 || {
    echo "check_report: python3 is required to validate the reports" >&2
    exit 1
}

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -d "$BUILD_DIR" ]; then
    echo "build directory '$BUILD_DIR' not found; run cmake first" >&2
    exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

validate() {
    python3 - "$1" <<'EOF'
import json
import math
import sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
assert doc.get("schema") == "cfconv.run_record", "bad schema id"
version = doc.get("version")
assert version == 6, f"bad schema version {version!r}"
# One shape for every document: trace_file ("" when untraced) and the
# metrics object sit beside the records.
assert isinstance(doc.get("trace_file"), str), "trace_file missing"
metrics = doc.get("metrics")
assert isinstance(metrics, dict), "no metrics object"
assert isinstance(metrics.get("counters"), dict), "no counters"
assert isinstance(metrics.get("histograms"), dict), "no histograms"
records = doc.get("records")
assert isinstance(records, list) and records, "no records"

def counts(block, keys, where):
    for key in keys:
        value = block.get(key)
        assert isinstance(value, int) and value >= 0, (
            f"{where} {key} = {value!r}")

resilient = 0
for record in records:
    name = record.get("model")
    assert record.get("layers"), f"record {name} has no layers"
    tflops = record.get("tflops")
    assert isinstance(tflops, (int, float)), (
        f"record {name} tflops is {tflops!r}")
    assert math.isfinite(tflops) and tflops > 0, (
        f"record {name} tflops = {tflops}")
    # Every record carries the resilience block (active: false when
    # the fault injector was disarmed) with its nested serving object.
    resilience = record.get("resilience")
    assert isinstance(resilience, dict), f"record {name}: no resilience"
    assert isinstance(resilience.get("active"), bool), (
        f"record {name}: resilience active is not a bool")
    resilient += resilience["active"]
    counts(resilience, ("faults_seen", "retries", "failovers",
                        "layers_failed_over", "layers_resumed"),
           "resilience")
    backoff = resilience.get("backoff_seconds")
    assert isinstance(backoff, (int, float)) and backoff >= 0, (
        f"resilience backoff_seconds = {backoff!r}")
    assert isinstance(resilience.get("final_backend"), str), (
        "resilience final_backend missing")
    serving = resilience.get("serving")
    assert isinstance(serving, dict), f"record {name}: no serving block"
    assert isinstance(serving.get("active"), bool), (
        f"record {name}: serving active is not a bool")
    counts(serving, ("breaker_trips", "breaker_probes", "breaker_closes",
                     "hedged_batches", "hedge_wins", "hedge_losses",
                     "degrade_step_max", "degrade_transitions",
                     "brownout_shed", "fallback_batches"), "serving")
    # Model runs name the lowering every layer ran; serving class rows
    # aggregate a whole board and leave it empty.
    board = record["accelerator"].startswith("serve:")
    for layer in record["layers"]:
        algorithm = layer.get("algorithm")
        assert isinstance(algorithm, str), (
            f"{name} layer {layer.get('name')}: no algorithm")
        assert board or algorithm, (
            f"{name} layer {layer.get('name')}: empty algorithm")
print(f"{path}: {len(records)} records OK"
      + (f" ({resilient} resilient)" if resilient else ""))
EOF
}

echo "==== check_report: bench_fig15_models ===="
"$BUILD_DIR"/bench/bench_fig15_models "json=$workdir/fig15.json" \
    >/dev/null
validate "$workdir/fig15.json"

echo "==== check_report: bench_fig17_gpu_models ===="
"$BUILD_DIR"/bench/bench_fig17_gpu_models "json=$workdir/fig17.json" \
    >/dev/null
validate "$workdir/fig17.json"

echo "REPORTS OK"
