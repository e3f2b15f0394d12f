/** @file Property sweeps over the measurement oracles. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "oracle/gpu_oracle.h"
#include "oracle/tpu_oracle.h"

namespace cfconv::oracle {
namespace {

using tensor::makeConv;

class OracleGemmSweep : public ::testing::TestWithParam<Index>
{
};

TEST_P(OracleGemmSweep, TimesArePositiveAndScaleReasonably)
{
    const Index dim = GetParam();
    TpuOracle tpu;
    GpuOracle gpu;
    const double t = tpu.gemmSeconds(dim, dim, dim);
    const double g = gpu.gemmSeconds(dim, dim, dim);
    EXPECT_GT(t, 0.0);
    EXPECT_GT(g, 0.0);
    // Doubling M roughly doubles time for compute-bound shapes
    // (generous band because of quantization and noise).
    const double t2 = tpu.gemmSeconds(2 * dim, dim, dim);
    EXPECT_GT(t2, 1.4 * t);
    EXPECT_LT(t2, 3.0 * t);
}

INSTANTIATE_TEST_SUITE_P(Dims, OracleGemmSweep,
                         ::testing::Values(512, 1024, 2048, 4096));

TEST(TpuOracleSweeps, EffectiveTflopsBoundedByPeak)
{
    TpuOracle oracle;
    for (Index ci : {8L, 64L, 128L, 256L}) {
        const auto p = makeConv(8, ci, 56, 128, 3, 1, 1);
        const double tflops = oracle.convTflops(p);
        EXPECT_GT(tflops, 0.1);
        // Peak = 22.9 TFLOPS; allow the noise band.
        EXPECT_LT(tflops, 24.0) << "C_I " << ci;
    }
}

TEST(TpuOracleSweeps, StrideInsensitiveLikeTheHardware)
{
    TpuOracle oracle;
    const double t1 =
        oracle.convTflops(makeConv(8, 128, 56, 128, 3, 1, 1));
    const double t2 =
        oracle.convTflops(makeConv(8, 128, 56, 128, 3, 2, 1));
    EXPECT_GT(t2, 0.7 * t1);
}

TEST(TpuOracleSweeps, NoiseAmplitudeZeroIsExactlyAnalytical)
{
    // 4 x 2 array passes of M + 280 cycles each at 700 MHz (compute
    // bound), plus the 2 us invocation overhead, and no noise.
    const TpuOracle clean(0.0);
    EXPECT_DOUBLE_EQ(clean.gemmSeconds(1024, 512, 256),
                     8.0 * (1024.0 + 280.0) / (0.7 * 1e9) + 2.0e-6);
}

TEST(TpuOracleSweeps, DistinctLayersGetDistinctNoise)
{
    TpuOracle oracle;
    // Two layers with identical analytical time but different keys
    // should differ by the noise.
    const TpuOracle clean(0.0);
    const auto a = makeConv(8, 128, 56, 128, 3, 1, 1);
    const auto b = makeConv(8, 128, 56, 128, 3, 1, 1);
    EXPECT_EQ(oracle.convSeconds(a), oracle.convSeconds(b));
    // But stride 1 vs stride 1 with a different batch key diverges
    // from the clean model differently.
    const auto c = makeConv(4, 128, 56, 128, 3, 1, 1);
    const double ratio_a =
        oracle.convSeconds(a) / clean.convSeconds(a);
    const double ratio_c =
        oracle.convSeconds(c) / clean.convSeconds(c);
    EXPECT_NE(ratio_a, ratio_c);
}

TEST(GpuOracleSweeps, StridedLayersSlowDown)
{
    GpuOracle oracle;
    const double t1 =
        oracle.convTflops(makeConv(64, 128, 28, 128, 3, 1, 1));
    const double t2 =
        oracle.convTflops(makeConv(64, 128, 28, 128, 3, 2, 1));
    EXPECT_LT(t2, 0.9 * t1); // the cuDNN-like stride penalty
}

TEST(GpuOracleSweeps, TransformGrowsWithKernelArea)
{
    GpuOracle oracle;
    const double k3 =
        oracle.transformSeconds(makeConv(8, 64, 56, 64, 3, 1, 1));
    const double k5 =
        oracle.transformSeconds(makeConv(8, 64, 56, 64, 5, 1, 2));
    EXPECT_GT(k5, 1.8 * k3);
}

TEST(GpuOracleSweeps, RejectsBadGemmDims)
{
    GpuOracle oracle;
    EXPECT_THROW(oracle.gemmSeconds(0, 1, 1), FatalError);
}

} // namespace
} // namespace cfconv::oracle
