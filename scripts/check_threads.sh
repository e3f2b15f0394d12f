#!/usr/bin/env bash
# Thread-safety smoke gate: run the parallel-determinism tests, the
# thread-pool unit tests, every suite that reaches the host engine
# (AlgoParity, AlgoFuzz, ImplicitConv, GatherGemm, MultiTileConv,
# SparseConv and Grouped: every conv execute(), grouped ones
# included, bit-identical at 1 to 4 threads) and the
# functional-model suites that reach the producers'
# parallel copies (FunctionalCore, FunctionalTiming and BlockKernel:
# the pixel gather's HWC copy and explicit im2col's lowering) at 1
# thread, 2 threads, and the machine's full core count. All three runs
# must produce identical (passing) results — the parallel kernels are
# contractually bit-exact with the serial path.
#
# Pair this with the CFCONV_ENABLE_TSAN CMake option for a
# ThreadSanitizer pass:
#   cmake -B build-tsan -DCFCONV_ENABLE_TSAN=ON && cmake --build build-tsan
#   BUILD_DIR=build-tsan scripts/check_threads.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -d "$BUILD_DIR" ]; then
    echo "build directory '$BUILD_DIR' not found; run cmake first" >&2
    exit 1
fi

NPROC="$(nproc)"

for threads in 1 2 "$NPROC"; do
    echo "==== CFCONV_THREADS=$threads ===="
    CFCONV_THREADS="$threads" \
        ctest --test-dir "$BUILD_DIR" --output-on-failure \
        -R 'Parallel|AlgoParity|AlgoFuzz|ImplicitConv|GatherGemm|MultiTileConv|SparseConv|Grouped|FunctionalCore|FunctionalTiming|BlockKernel' || {
        echo "FAILED at CFCONV_THREADS=$threads" >&2
        exit 1
    }
done

echo "thread check green at 1, 2, and $NPROC threads"
