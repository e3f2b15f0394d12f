#!/usr/bin/env bash
# Build everything, run the full test suite, regenerate every table and
# figure, and exercise the examples. This is the one-command gate used
# before any release.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prefer Ninja when available; otherwise fall back to the default
# generator (usually Unix Makefiles) so the gate runs everywhere. An
# already-configured build directory keeps its generator — CMake
# refuses to switch generators in place.
if [ -f build/CMakeCache.txt ]; then
    cmake -B build
elif command -v ninja >/dev/null 2>&1; then
    cmake -B build -G Ninja
else
    echo "ninja not found; using default CMake generator"
    cmake -B build
fi
cmake --build build -j "$(nproc)"

echo "==== tests ===="
ctest --test-dir build --output-on-failure

echo "==== thread determinism (1, 2 and nproc threads) ===="
scripts/check_threads.sh

echo "==== kernel-backend parity (whole suite per backend) ===="
scripts/check_kernels.sh

echo "==== benches (paper tables/figures + ablations) ===="
wall_summary=""
for b in build/bench/bench_*; do
    [ -x "$b" ] || continue
    echo "---- $b"
    out="$("$b")"
    printf '%s\n' "$out"
    wall_summary+="$(printf '%s\n' "$out" | grep '^WALL' || true)"$'\n'
done

echo "==== chrome-trace recorder + offline trace analytics ===="
scripts/check_analyze.sh

echo "==== fault injection + resilience ===="
scripts/check_faults.sh

echo "==== request-level serving (+ breakers, degradation, hedging) ===="
scripts/check_serving.sh

echo "==== perf regression gate ===="
scripts/check_perf.sh
scripts/check_perf.sh --selftest

echo "==== algorithm zoo (byte-identity + parity + matrix) ===="
scripts/check_algos.sh

echo "==== autotuner + tuned-config database (+ torn-file recovery) ===="
scripts/check_tune.sh

echo "==== examples ===="
build/examples/quickstart
build/examples/training_step
build/examples/full_inference
build/examples/resnet_on_tpu >/dev/null && echo "resnet_on_tpu: ok"
build/examples/strided_conv_gpu >/dev/null && echo "strided_conv_gpu: ok"
build/examples/design_explorer config=configs/tpu_v2.cfg >/dev/null \
    && echo "design_explorer: ok"
build/examples/cfconv_cli n=8 ci=64 hw=56 co=128 k=3 s=2 p=1 >/dev/null \
    && echo "cfconv_cli: ok"

echo "==== bench wall-clock summary ===="
if printf '%s' "$wall_summary" | grep -q '^WALL'; then
    printf '%s' "$wall_summary" | grep '^WALL' | sort -k2
else
    echo "(no WALL lines captured)"
fi

echo "ALL GREEN"
