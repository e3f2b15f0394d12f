#!/usr/bin/env bash
# Algorithm-zoo gate: the simulated numbers of every lowering scheme on
# every registered variant are pinned, and the zoo additions are real.
#
#   1. Variant digest: AlgoParity.VariantRecordDigestIsPinned hashes each
#      registered accelerator's tryRunLayer outcome over the distinct
#      layers of ResNet-50, MobileNet-v1 and AlexNet (batch 1), so a
#      moved number on any algorithm/array combination fails here.
#   2. Byte-identity (bench stdout): the Fig 4a/4b sections of
#      bench_fig4_stride must match
#      scripts/algo_goldens/fig4_stride.stdout.golden exactly (the
#      Fig 4c matrix section appends strictly after it).
#   3. Record digest (RunRecords): the SHA-256 of the canonical
#      bench_models_report records subtree (sorted keys, two-space
#      indent) must match the pinned value — same numbers, same
#      algorithm names, same resilience blocks.
#   4. Functional parity and plan properties: the AlgoParity and
#      Algorithm* gtest suites (every registered algorithm vs
#      tensor::conv_ref on awkward shapes, both backends, thread-count
#      invariance; every pass plan covers the GEMM exactly once).
#   5. The algorithm matrix: bench_fig4_stride writes BENCH_algos.json
#      with a full matrix run, honest n/a holes (SMM-Conv on strided
#      combos), a v6 document whose every layer names its algorithm,
#      and an algo=NAME filter that narrows it.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
GOLDEN_DIR="scripts/algo_goldens"
FIG4="$BUILD_DIR/bench/bench_fig4_stride"
MODELS="$BUILD_DIR/bench/bench_models_report"
TESTS="$BUILD_DIR/tests/cfconv_tests"
for binary in "$FIG4" "$MODELS" "$TESTS"; do
    if [ ! -x "$binary" ]; then
        echo "check_algos: $binary not built; run cmake first" >&2
        exit 1
    fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "==== check_algos: every variant's records match the pinned digest ===="
"$TESTS" --gtest_filter='AlgoParity.VariantRecordDigestIsPinned' \
    --gtest_brief=1

echo "==== check_algos: Fig 4a/4b bench stdout is byte-identical ===="
golden="$GOLDEN_DIR/fig4_stride.stdout.golden"
golden_lines="$(wc -l < "$golden")"
"$FIG4" "json=$workdir/fig4_run1.json" > "$workdir/fig4.out"
head -n "$golden_lines" "$workdir/fig4.out" > "$workdir/fig4.prefix"
cmp "$workdir/fig4.prefix" "$golden" || {
    echo "check_algos: Fig 4a/4b stdout drifted from the golden" >&2
    diff "$golden" "$workdir/fig4.prefix" | head -n 20 >&2
    exit 1
}
echo "  first $golden_lines lines identical to the golden"

echo "==== check_algos: model RunRecords match the pinned digest ===="
# Re-pin only when a simulated number, an algorithm name or the schema
# changes on purpose, and say why in CHANGES.md.
RECORDS_SHA256=727ed3a3d3e848b31c60ea25227ca5bc2eb7ccd66c7261f0a382372da058006c
"$MODELS" "json=$workdir/models.json" >/dev/null
records_sha="$(python3 - "$workdir/models.json" <<'EOF'
import hashlib
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
canonical = json.dumps(doc["records"], indent=2, sort_keys=True) + "\n"
print(hashlib.sha256(canonical.encode()).hexdigest())
EOF
)"
if [ "$records_sha" != "$RECORDS_SHA256" ]; then
    echo "check_algos: model RunRecords digest $records_sha," \
        "pinned $RECORDS_SHA256" >&2
    exit 1
fi
echo "  records subtree sha256 $records_sha"

echo "==== check_algos: functional parity and plan properties ===="
"$TESTS" --gtest_filter='AlgoParity.*:Algorithm*:-AlgoParity.VariantRecordDigestIsPinned' \
    --gtest_brief=1

echo "==== check_algos: the algorithm matrix ===="
"$FIG4" "json=$workdir/algos.json" > "$workdir/matrix.out"
matrix_line="$(grep '^ALGOMATRIX ' "$workdir/matrix.out")"
echo "  $matrix_line"
ran="$(printf '%s\n' "$matrix_line" | sed -n 's/.*ran=\([0-9]*\).*/\1/p')"
na="$(printf '%s\n' "$matrix_line" | sed -n 's/.*n\/a=\([0-9]*\).*/\1/p')"
if [ -z "$ran" ] || [ "$ran" -le 0 ]; then
    echo "check_algos: matrix ran no cells" >&2
    exit 1
fi
if [ -z "$na" ] || [ "$na" -le 0 ]; then
    echo "check_algos: no n/a holes — SMM-Conv should decline strided" \
        "combos" >&2
    exit 1
fi
python3 - "$workdir/algos.json" "$ran" <<'EOF'
import json
import sys

path, ran = sys.argv[1], int(sys.argv[2])
with open(path) as f:
    doc = json.load(f)
assert doc["schema"] == "cfconv.run_record", "bad schema id"
assert doc["version"] == 6, f"matrix document is v{doc['version']}"
records = doc["records"]
assert len(records) == ran, (len(records), ran)
algos = set()
for record in records:
    for layer in record["layers"]:
        algorithm = layer["algorithm"]
        assert algorithm, (
            f"{record['accelerator']} {layer['name']} names no algorithm")
        algos.add(algorithm)
for expected in ("channel-first", "channel-last", "explicit-im2col",
                 "indirect", "smm"):
    assert expected in algos, sorted(algos)
print(f"  {len(records)} matrix records, every layer names its "
      "algorithm: " + ", ".join(sorted(algos)))
EOF

echo "==== check_algos: algo= narrows the matrix ===="
"$FIG4" "json=$workdir/indirect.json" algo=indirect \
    > "$workdir/indirect.out"
only="$(grep '^ALGOMATRIX ' "$workdir/indirect.out")"
only_ran="$(printf '%s\n' "$only" | sed -n 's/.*ran=\([0-9]*\).*/\1/p')"
if [ -z "$only_ran" ] || [ "$only_ran" -ge "$ran" ] \
    || [ "$only_ran" -le 0 ]; then
    echo "check_algos: algo=indirect did not narrow the matrix" \
        "(ran=$only_ran vs full=$ran)" >&2
    exit 1
fi
if ! "$FIG4" algo=winograd >/dev/null 2>"$workdir/bad.err"; then
    grep -q 'bad algo=winograd' "$workdir/bad.err" || {
        echo "check_algos: algo=winograd error does not name the" \
            "offender" >&2
        exit 1
    }
else
    echo "check_algos: algo=winograd was accepted" >&2
    exit 1
fi
echo "  algo=indirect ran $only_ran cells; algo=winograd rejected"

echo "ALGOS OK"
