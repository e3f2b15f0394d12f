/** @file Behavioural tests for the GPU tensor-core simulator. */

#include <gtest/gtest.h>

#include "common/logging.h"

#include "gpusim/gpu_sim.h"
#include "gpusim/kernel_cache.h"

namespace cfconv::gpusim {
namespace {

using tensor::makeConv;

GpuSim
sim()
{
    return GpuSim(GpuConfig::v100());
}

TEST(GpuConfig, V100Parameters)
{
    const GpuConfig c = GpuConfig::v100();
    EXPECT_NEAR(c.peakTflops(), 125.0, 5.0);
    EXPECT_NEAR(c.dram.peakGBps(), 900.0, 15.0);
}

TEST(GpuConfig, CacheKeysFollowTheClockAndTheDram)
{
    // The two settable values are what the variant properties vary; a
    // memo-cache key must tell their runs apart and share equal ones.
    const auto p = makeConv(8, 64, 28, 64, 3, 1, 1);
    const auto conv = [&p](const GpuConfig &c) {
        return kernelCacheKey(c, p, GpuRunOptions{});
    };
    const auto gemm = [](const GpuConfig &c) {
        return gpuGemmCacheKey(c, 512, 256, 128, false, true);
    };
    const GpuConfig stock = GpuConfig::v100();
    EXPECT_EQ(conv(stock), conv(GpuConfig::v100()));
    EXPECT_EQ(gemm(stock), gemm(GpuConfig::v100()));
    GpuConfig fast = stock;
    fast.clockGhz *= 1.25;
    GpuConfig wide = stock;
    wide.dram.channels *= 2;
    for (const GpuConfig &other : {fast, wide}) {
        EXPECT_NE(conv(other), conv(stock));
        EXPECT_NE(gemm(other), gemm(stock));
    }
}

TEST(GpuSim, LargeGemmApproachesPeak)
{
    const GpuKernelResult r = sim().runGemm(16384, 4096, 4096);
    EXPECT_GT(r.tflops, 0.7 * GpuConfig::v100().peakTflops());
}

TEST(GpuSim, TinyGemmDominatedByOverhead)
{
    const GpuKernelResult r = sim().runGemm(64, 64, 64);
    EXPECT_LT(r.tflops, 2.0);
}

TEST(GpuSim, VendorTuningIsSlightlyFaster)
{
    GpuSim s = sim();
    const double ours = s.runGemm(8192, 2048, 2048, false).seconds;
    const double vendor = s.runGemm(8192, 2048, 2048, true).seconds;
    EXPECT_LT(vendor, ours);
    EXPECT_GT(vendor, 0.95 * ours);
}

TEST(GpuSim, ChannelFirstDegradesLessWithStrideThanChannelLast)
{
    // On the GPU, stride 2 costs everyone some occupancy (fewer output
    // rows), but the channel-first kernel keeps much more of its
    // stride-1 throughput than the channel-last one (Figs 4a/18a).
    GpuSim s = sim();
    GpuRunOptions cf, cl;
    cf.algorithm = conv::AlgorithmId::ChannelFirst;
    cl.algorithm = conv::AlgorithmId::ChannelLast;
    const ConvParams p1 = makeConv(64, 128, 28, 128, 3, 1, 1);
    const ConvParams p2 = makeConv(64, 128, 28, 128, 3, 2, 1);
    const double cf_ratio =
        s.runConv(p2, cf).tflops / s.runConv(p1, cf).tflops;
    const double cl_ratio =
        s.runConv(p2, cl).tflops / s.runConv(p1, cl).tflops;
    EXPECT_GT(cf_ratio, cl_ratio + 0.05);
    EXPECT_GT(cf_ratio, 0.6);
}

TEST(GpuSim, ChannelLastDegradesWithStride)
{
    // Fig 4a: ~30% drop at stride 2, ~60% at stride 4.
    GpuSim s = sim();
    GpuRunOptions cl;
    cl.algorithm = conv::AlgorithmId::ChannelLast;
    const double t1 =
        s.runConv(makeConv(64, 128, 28, 128, 3, 1, 1), cl).tflops;
    const double t2 =
        s.runConv(makeConv(64, 128, 28, 128, 3, 2, 1), cl).tflops;
    const double t4 =
        s.runConv(makeConv(64, 128, 28, 128, 3, 4, 1), cl).tflops;
    EXPECT_LT(t2, 0.85 * t1);
    EXPECT_LT(t4, 0.6 * t1);
}

TEST(GpuSim, ChannelFirstBeatsChannelLastOnStridedConvs)
{
    // Fig 18a: our method wins on stride > 1 layers.
    GpuSim s = sim();
    GpuRunOptions cf, cl;
    cf.algorithm = conv::AlgorithmId::ChannelFirst;
    cl.algorithm = conv::AlgorithmId::ChannelLast;
    cl.vendorTuned = true;
    const ConvParams p = makeConv(8, 64, 112, 128, 3, 2, 1);
    EXPECT_GT(s.runConv(p, cf).tflops, s.runConv(p, cl).tflops);
}

TEST(GpuSim, CompetitiveWithVendorAtStride1)
{
    // Fig 17: within a few percent of the cuDNN-like kernel at batch 8.
    GpuSim s = sim();
    GpuRunOptions cf, cl;
    cf.algorithm = conv::AlgorithmId::ChannelFirst;
    cl.algorithm = conv::AlgorithmId::ChannelLast;
    cl.vendorTuned = true;
    const ConvParams p = makeConv(8, 256, 28, 256, 3, 1, 1);
    const double ours = s.runConv(p, cf).seconds;
    const double vendor = s.runConv(p, cl).seconds;
    EXPECT_NEAR(ours / vendor, 1.0, 0.15);
}

TEST(GpuSim, ExplicitPaysTransformOverhead)
{
    // Fig 2a: explicit = implicit-like GEMM + transform time.
    GpuSim s = sim();
    GpuRunOptions ex, cl;
    ex.algorithm = conv::AlgorithmId::ExplicitIm2col;
    cl.algorithm = conv::AlgorithmId::ChannelLast;
    // A compute-heavy layer (large C_O), where the paper observes the
    // explicit method's GEMM time matching the implicit kernel.
    const ConvParams p = makeConv(64, 256, 28, 256, 3, 1, 1);
    const GpuKernelResult e = s.runConv(p, ex);
    const GpuKernelResult i = s.runConv(p, cl);
    EXPECT_GT(e.seconds, i.seconds);
    EXPECT_GT(e.transformSeconds, 0.0);
    EXPECT_NEAR(e.seconds - e.transformSeconds, i.seconds,
                0.5 * i.seconds);
}

TEST(GpuSim, TransformTimeScalesWithLoweredSize)
{
    GpuSim s = sim();
    const ConvParams small = makeConv(8, 64, 28, 64, 3, 1, 1);
    const ConvParams large = makeConv(8, 64, 56, 64, 3, 1, 1);
    EXPECT_GT(s.explicitTransformSeconds(large),
              2.0 * s.explicitTransformSeconds(small));
}

TEST(GpuSim, InterTileReuseHelpsMemoryBoundStridedLayers)
{
    // Fig 18b: reordering recovers on-chip reuse for strided layers.
    GpuSim s = sim();
    GpuRunOptions with_reuse, without;
    with_reuse.algorithm = conv::AlgorithmId::ChannelFirst;
    with_reuse.interTileReuse = true;
    without.algorithm = conv::AlgorithmId::ChannelFirst;
    without.interTileReuse = false;
    const ConvParams p = makeConv(8, 32, 112, 64, 3, 2, 1);
    const double fast = s.runConv(p, with_reuse).seconds;
    const double slow = s.runConv(p, without).seconds;
    EXPECT_LT(fast, slow);
}

TEST(GpuSim, GemmOnlyIsUpperBoundForImplicit)
{
    GpuSim s = sim();
    GpuRunOptions cl;
    cl.algorithm = conv::AlgorithmId::ChannelLast;
    for (Index stride : {1, 2, 4}) {
        const ConvParams p = makeConv(64, 128, 28, 128, 3, stride, 1);
        const GpuKernelResult gemm =
            s.runGemm(p.gemmM(), p.gemmK(), p.gemmN(),
                      /*vendor_tuned=*/false, /*operands_in_dram=*/false);
        EXPECT_GE(1.05 * gemm.tflops,
                  s.runConv(p, cl).tflops)
            << "stride " << stride;
    }
}

TEST(GpuSim, RejectsBadInput)
{
    EXPECT_THROW(sim().runGemm(0, 1, 1), FatalError);
}

} // namespace
} // namespace cfconv::gpusim
