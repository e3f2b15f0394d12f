/** @file Tests for the hardware-measurement oracles and validation. */

#include <gtest/gtest.h>

#include <set>

#include "common/stats.h"
#include "models/model_zoo.h"
#include "oracle/gpu_oracle.h"
#include "oracle/tpu_oracle.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::oracle {
namespace {

using tensor::makeConv;

TEST(TpuOracle, DeterministicAcrossCalls)
{
    TpuOracle oracle;
    EXPECT_EQ(oracle.gemmSeconds(1024, 1024, 1024),
              oracle.gemmSeconds(1024, 1024, 1024));
    const ConvParams p = makeConv(8, 64, 56, 64, 3, 1, 1);
    EXPECT_EQ(oracle.convSeconds(p), oracle.convSeconds(p));
}

TEST(TpuOracle, NoiseStaysWithinAmplitude)
{
    const TpuOracle noisy;
    const double bound = 0.06 + 1e-4; // the default amplitude
    const TpuOracle clean(0.0);
    for (Index m : {256, 512, 1024, 2048, 4096}) {
        const double ratio = noisy.gemmSeconds(m, 1024, 1024) /
                             clean.gemmSeconds(m, 1024, 1024);
        EXPECT_GT(ratio, 1.0 - bound);
        EXPECT_LT(ratio, 1.0 + bound);
    }
}

TEST(TpuOracle, GemmScalesWithWork)
{
    TpuOracle oracle;
    EXPECT_GT(oracle.gemmSeconds(4096, 4096, 4096),
              3.0 * oracle.gemmSeconds(1024, 4096, 4096));
}

TEST(TpuOracle, ConvRespectsMultiTileStrategy)
{
    // Small-channel layers benefit from the TPU's multi-tile merging:
    // C_I = 8 with W_F = 3 should run ~3x faster than a naive
    // tile-by-tile execution would suggest.
    TpuOracle oracle;
    const ConvParams p8 = makeConv(8, 8, 128, 128, 3, 1, 1);
    const ConvParams p128 = makeConv(8, 128, 128, 128, 3, 1, 1);
    // p128 has 16x the FLOPs; with multi-tile the time gap must be far
    // below 16x (C_I = 8 wastes rows but merges 3 tiles).
    const double ratio =
        oracle.convSeconds(p128) / oracle.convSeconds(p8);
    EXPECT_GT(ratio, 2.0);
    EXPECT_LT(ratio, 6.0);
}

TEST(TpuOracle, ValidationErrorAgainstTpuSimIsSmall)
{
    // The headline validation of Fig 13a: TPUSim vs "measured" GEMMs.
    TpuOracle oracle;
    tpusim::TpuSim sim((tpusim::TpuConfig::tpuV2()));
    std::vector<double> ref, measured;
    for (Index dim : {256, 512, 1024, 2048, 4096}) {
        ref.push_back(oracle.gemmSeconds(dim, dim, dim));
        measured.push_back(sim.runGemm(dim, dim, dim).seconds);
    }
    EXPECT_LT(meanAbsPctError(ref, measured), 12.0);
}

TEST(TpuOracle, ConvValidationErrorIsSmall)
{
    // Fig 13b: CONV layers that do not trigger multi-tile (C_I >= 128).
    TpuOracle oracle;
    tpusim::TpuSim sim((tpusim::TpuConfig::tpuV2()));
    std::vector<double> ref, measured;
    for (Index ci : {128, 256}) {
        for (Index hw : {14, 28, 56}) {
            const ConvParams p = makeConv(8, ci, hw, 128, 3, 1, 1);
            ref.push_back(oracle.convSeconds(p));
            measured.push_back(sim.runConv(p).seconds);
        }
    }
    EXPECT_LT(meanAbsPctError(ref, measured), 12.0);
}

TEST(GpuOracle, DeterministicAndPositive)
{
    GpuOracle oracle;
    const ConvParams p = makeConv(8, 64, 56, 64, 3, 1, 1);
    const double t = oracle.convSeconds(p);
    EXPECT_GT(t, 0.0);
    EXPECT_EQ(t, oracle.convSeconds(p));
}

TEST(GpuOracle, NoiseStaysWithinAmplitude)
{
    // The "measurement" is the V100 simulator's vendor-tuned
    // channel-last kernel within the oracle's fixed 2% noise.
    const GpuOracle oracle;
    const gpusim::GpuSim sim((gpusim::GpuConfig::v100()));
    gpusim::GpuRunOptions cudnn;
    cudnn.algorithm = conv::AlgorithmId::ChannelLast;
    cudnn.vendorTuned = true;
    std::set<double> ratios;
    for (Index ci : {16, 64, 256}) {
        const ConvParams p = makeConv(8, ci, 28, 128, 3, 1, 1);
        const double ratio =
            oracle.convSeconds(p) / sim.runConv(p, cudnn).seconds;
        EXPECT_GT(ratio, 1.0 - 0.02 - 1e-4) << ci;
        EXPECT_LT(ratio, 1.0 + 0.02 + 1e-4) << ci;
        ratios.insert(ratio);
    }
    EXPECT_EQ(ratios.size(), 3u); // each layer draws its own noise
}

TEST(GpuOracle, ExplicitSlowerThanImplicit)
{
    GpuOracle oracle;
    const ConvParams p = makeConv(64, 64, 56, 64, 3, 1, 1);
    EXPECT_GT(oracle.convExplicitSeconds(p), oracle.convSeconds(p));
    EXPECT_GT(oracle.transformSeconds(p), 0.0);
}

TEST(GpuOracle, TflopsBelowPeak)
{
    GpuOracle oracle;
    const ConvParams p = makeConv(64, 256, 28, 256, 3, 1, 1);
    EXPECT_LT(oracle.convTflops(p),
              gpusim::GpuConfig::v100().peakTflops());
    EXPECT_GT(oracle.convTflops(p), 10.0);
}

TEST(Oracles, ModelLevelValidationMae)
{
    // Fig 15 methodology smoke test: per-layer validation on AlexNet.
    TpuOracle oracle;
    tpusim::TpuSim sim((tpusim::TpuConfig::tpuV2()));
    std::vector<double> ref, measured;
    for (const auto &layer : models::alexnet(8).layers) {
        ref.push_back(oracle.convSeconds(layer.params));
        measured.push_back(sim.runConv(layer.params).seconds);
    }
    EXPECT_LT(meanAbsPctError(ref, measured), 20.0);
}

} // namespace
} // namespace cfconv::oracle
