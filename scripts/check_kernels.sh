#!/usr/bin/env bash
# Kernel-backend parity gate: run the full test suite once per GEMM
# micro-kernel backend (CFCONV_KERNEL=generic|avx2). Every backend must
# pass the identical suite — the golden-parity tests in
# tests/tensor/test_microkernel.cc compare each backend against the
# naive reference, and the rest of the suite exercises the conv /
# simulator stacks on top of whichever kernel is forced. This is the
# only gate that runs the whole suite on generic on an avx2 host.
#
# The avx2 leg is skipped (with a notice) when the host CPU lacks
# avx2+fma or the build disabled CFCONV_ENABLE_AVX2; the dispatcher
# would otherwise warn and fall back, which is correct at runtime but
# would make this gate silently re-test the generic backend.
#
# A last leg builds the suite with -DCFCONV_ENABLE_AVX2=OFF in
# build-noavx2 and runs it on generic there. That compiles the AVX2
# translation unit's panicking stubs, the configuration a compiler
# without -mavx2/-mfma (a non-x86 host, say) gets automatically. The
# directory is kept between runs, so after the first build only what
# changed recompiles.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -d "$BUILD_DIR" ]; then
    echo "build directory '$BUILD_DIR' not found; run cmake first" >&2
    exit 1
fi

have_avx2() {
    grep -q 'avx2' /proc/cpuinfo 2>/dev/null &&
        grep -q 'fma' /proc/cpuinfo 2>/dev/null || return 1
    # The dispatcher logs the resolved backend once; confirm the forced
    # avx2 request actually sticks (it falls back if the TU was built
    # without CFCONV_ENABLE_AVX2). Capture first: grep -q on the pipe
    # would SIGPIPE the test binary under pipefail.
    local probe
    probe="$(CFCONV_KERNEL=avx2 "$BUILD_DIR"/tests/cfconv_tests \
        --gtest_filter='MicrokernelDispatch.NamesAndAvailability' 2>&1)"
    grep -q 'backend: avx2' <<<"$probe"
}

BACKENDS="generic"
if have_avx2; then
    BACKENDS="$BACKENDS avx2"
else
    echo "==== avx2 unavailable on this host/build; skipping ===="
fi

for kernel in $BACKENDS; do
    echo "==== CFCONV_KERNEL=$kernel ===="
    CFCONV_KERNEL="$kernel" ctest --test-dir "$BUILD_DIR" \
        --output-on-failure -j "$(nproc)" || {
        echo "FAILED at CFCONV_KERNEL=$kernel" >&2
        exit 1
    }
done

NOAVX2_DIR=build-noavx2
echo "==== CFCONV_ENABLE_AVX2=OFF, CFCONV_KERNEL=generic ($NOAVX2_DIR) ===="
cmake -B "$NOAVX2_DIR" -S . -DCFCONV_ENABLE_AVX2=OFF >/dev/null
# design_explorer, cfconv_cli, report_models, trace_analyze, every
# bench but bench_micro_kernels and the five examples run_all.sh runs
# are the ctest entries outside the test binary.
cmake --build "$NOAVX2_DIR" \
    --target cfconv_tests design_explorer cfconv_cli report_models \
    trace_analyze bench_table1_memory bench_fig2_explicit_overhead \
    bench_fig4_stride bench_fig13_validation bench_fig14_multitile \
    bench_fig15_models bench_fig16_design_space bench_fig17_gpu_models \
    bench_models_report bench_fig18_gpu_opts bench_ablation_hardware \
    bench_autotune bench_ablation_variants bench_characterization \
    bench_sparsity bench_serving quickstart training_step full_inference \
    resnet_on_tpu strided_conv_gpu -j "$(nproc)" >/dev/null
CFCONV_KERNEL=generic ctest --test-dir "$NOAVX2_DIR" \
    --output-on-failure -j "$(nproc)" || {
    echo "FAILED with CFCONV_ENABLE_AVX2=OFF" >&2
    exit 1
}

echo "kernel parity green for: $BACKENDS, and generic without AVX2"
