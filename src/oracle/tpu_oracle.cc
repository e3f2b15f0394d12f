#include "oracle/tpu_oracle.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "im2col/filter_decomp.h"
#include "im2col/pass_plan.h"

namespace cfconv::oracle {

namespace {

// The TPU-v2 calibration of the analytical model.
constexpr Index kArrayRows = 128;
constexpr Index kArrayCols = 128;
constexpr double kClockGhz = 0.7;
constexpr double kMemGBps = 700.0;
constexpr double kMemUtil = 0.85;
/** Per-pass pipeline overhead in cycles (fill + drain + issue). */
constexpr double kPassOverheadCycles = 280.0;
/** Fixed per-invocation overhead in seconds. */
constexpr double kInvokeOverheadSec = 2.0e-6;
/** Seed of the measurement noise. */
constexpr std::uint64_t kNoiseSeed = 0x7f1e2d3c4b5a6978ULL;

} // namespace

double
TpuOracle::gemmSeconds(Index m, Index k, Index n) const
{
    CFCONV_FATAL_IF(m < 1 || k < 1 || n < 1,
                    "TpuOracle: non-positive GEMM dims");
    const double passes =
        static_cast<double>(divCeil(k, kArrayRows)) *
        static_cast<double>(divCeil(n, kArrayCols));
    const double cycles =
        passes * (static_cast<double>(m) + kPassOverheadCycles);
    const double compute = cycles / (kClockGhz * 1e9);

    const double bytes =
        2.0 * (static_cast<double>(m) * static_cast<double>(k) +
               static_cast<double>(k) * static_cast<double>(n) +
               static_cast<double>(m) * static_cast<double>(n));
    const double mem = bytes / (kMemGBps * 1e9 * kMemUtil);

    const std::uint64_t key = hashCombine(
        hashCombine(static_cast<std::uint64_t>(m),
                    static_cast<std::uint64_t>(k)),
        static_cast<std::uint64_t>(n));
    return (std::max(compute, mem) + kInvokeOverheadSec) *
           measurementNoise(key, kNoiseSeed, noiseAmplitude_);
}

double
TpuOracle::convSeconds(const ConvParams &params) const
{
    params.validate();
    const Index m = params.gemmM();
    const Bytes elem = dataTypeSize(params.dataType);

    double k_passes;
    Index multi_tile = 1;
    if (params.inChannels <= kArrayRows) {
        multi_tile = im2col::tpuMultiTileParam(kArrayRows, params);
        k_passes = static_cast<double>(
            divCeil(params.kernelH * params.kernelW, multi_tile));
    } else {
        k_passes =
            static_cast<double>(params.kernelH * params.kernelW) *
            static_cast<double>(divCeil(params.inChannels, kArrayRows));
    }
    const double passes =
        k_passes * static_cast<double>(divCeil(params.gemmN(), kArrayCols));
    const double cycles =
        passes * (static_cast<double>(m) + kPassOverheadCycles);
    const double compute = cycles / (kClockGhz * 1e9);

    // Memory: activations stay in the TPU's 32 MB unified memory when
    // they fit (only weights stream); otherwise the tile operands
    // stream per pass (~the lowered-matrix volume) and the OFMap is
    // written back.
    const Bytes union_bytes = im2col::inputUnionBytes(params);
    double traffic = static_cast<double>(params.filterBytes());
    if (union_bytes * 2 > 32ULL * 1024 * 1024) {
        traffic += static_cast<double>(m) *
                       static_cast<double>(params.gemmK()) *
                       static_cast<double>(elem) +
                   static_cast<double>(params.outputBytes());
    }
    const double mem = traffic / (kMemGBps * 1e9 * kMemUtil);

    std::uint64_t key = hashCombine(
        static_cast<std::uint64_t>(params.inChannels),
        static_cast<std::uint64_t>(params.inH * 131 + params.inW));
    key = hashCombine(key, static_cast<std::uint64_t>(
                               params.outChannels * 977 +
                               params.kernelH * 31 + params.kernelW));
    key = hashCombine(key, static_cast<std::uint64_t>(
                               params.strideH * 17 + params.batch));
    return (std::max(compute, mem) + kInvokeOverheadSec) *
           measurementNoise(key, kNoiseSeed, noiseAmplitude_);
}

double
TpuOracle::convTflops(const ConvParams &params) const
{
    return static_cast<double>(params.flops()) / convSeconds(params) /
           1e12;
}

} // namespace cfconv::oracle
