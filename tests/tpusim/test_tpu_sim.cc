/** @file Behavioural tests for the tile-level TPU simulator. */

#include <gtest/gtest.h>

#include "common/logging.h"

#include "dram/access_pattern.h"
#include "im2col/filter_decomp.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::tpusim {
namespace {

using tensor::makeConv;

TpuSim
sim()
{
    return TpuSim(TpuConfig::tpuV2());
}

TEST(TpuConfig, Tpuv2Parameters)
{
    const TpuConfig c = TpuConfig::tpuV2();
    EXPECT_EQ(c.array.rows, 128);
    EXPECT_EQ(c.perArrayBytes(), 256u * 1024);
    EXPECT_NEAR(c.peakTflops(), 22.9, 0.2);
    EXPECT_NEAR(c.dram.peakGBps(), 700.0, 10.0);
}

TEST(TpuSim, GemmLargeAlignedIsNearPeak)
{
    const TpuLayerResult r = sim().runGemm(8192, 8192, 8192);
    EXPECT_GT(r.tflops, 0.85 * TpuConfig::tpuV2().peakTflops());
    EXPECT_GT(r.tflops / sim().config().peakTflops(), 0.85);
}

TEST(TpuSim, GemmSmallDimensionsLoseUtilization)
{
    const TpuLayerResult small = sim().runGemm(256, 64, 64);
    EXPECT_LT(small.tflops / sim().config().peakTflops(), 0.3);
}

TEST(TpuSim, GemmCyclesGrowWithEveryDimension)
{
    TpuSim s = sim();
    const Cycles base = s.runGemm(1024, 512, 512).cycles;
    EXPECT_GT(s.runGemm(2048, 512, 512).cycles, base);
    EXPECT_GT(s.runGemm(1024, 1024, 512).cycles, base);
    EXPECT_GT(s.runGemm(1024, 512, 1024).cycles, base);
}

TEST(TpuSim, ChannelFirstIsStrideInsensitive)
{
    // Fig 4b: TFLOPS per useful FLOP stays roughly flat across strides.
    TpuSim s = sim();
    ConvParams p1 = makeConv(64, 128, 28, 128, 3, 1, 1);
    ConvParams p2 = makeConv(64, 128, 28, 128, 3, 2, 1);
    ConvParams p4 = makeConv(64, 128, 28, 128, 3, 4, 1);
    const double t1 = s.runConv(p1).tflops;
    const double t2 = s.runConv(p2).tflops;
    const double t4 = s.runConv(p4).tflops;
    EXPECT_GT(t2, 0.8 * t1);
    EXPECT_GT(t4, 0.6 * t1);
}

TEST(TpuSim, MultiTileParameterFollowsStrategy)
{
    TpuSim s = sim();
    const ConvParams p = makeConv(8, 8, 128, 128, 3, 1, 1);
    EXPECT_EQ(s.runConv(p).multiTile, 3); // MIN(128/8, 3)
    const ConvParams p2 = makeConv(8, 64, 56, 128, 5, 1, 2);
    EXPECT_EQ(s.runConv(p2).multiTile, 2); // MIN(128/64, 5)
    const ConvParams p3 = makeConv(8, 256, 28, 128, 3, 1, 1);
    EXPECT_EQ(s.runConv(p3).multiTile, 1); // C_I > 128
}

TEST(TpuSim, MultiTileImprovesSmallChannelLayers)
{
    // Fig 14a: more tiles -> better performance, diminishing returns,
    // and linearly growing workspace.
    TpuSim s = sim();
    const ConvParams p = makeConv(8, 8, 128, 128, 3, 1, 1);
    TpuRunOptions o;
    o.multiTileOverride = 1;
    const TpuLayerResult r1 = s.runConv(p, o);
    o.multiTileOverride = 2;
    const TpuLayerResult r2 = s.runConv(p, o);
    o.multiTileOverride = 3;
    const TpuLayerResult r3 = s.runConv(p, o);
    EXPECT_GT(r2.tflops, 1.5 * r1.tflops);
    EXPECT_GT(r3.tflops, r2.tflops);
    EXPECT_GT(r2.peakOnChipBytes, r1.peakOnChipBytes);
    EXPECT_GT(r3.peakOnChipBytes, r2.peakOnChipBytes);
}

TEST(TpuSim, MultiTileCappedByKernelWidth)
{
    TpuSim s = sim();
    const ConvParams p = makeConv(8, 8, 64, 64, 3, 1, 1);
    TpuRunOptions o;
    o.multiTileOverride = 100; // absurd: must clip to H_F*W_F and rows
    const TpuLayerResult r = s.runConv(p, o);
    EXPECT_LE(r.multiTile, 9);
}

TEST(TpuSim, ImplicitConvMatchesEquivalentGemmAcrossStrides)
{
    // The Fig 4b shape: on the TPU, the implicit channel-first method
    // performs like a GEMM of the lowered-matrix size at every stride
    // (near-zero lowering overhead), unlike the GPU's baseline.
    TpuSim s = sim();
    for (Index stride : {1, 2, 4}) {
        const ConvParams p = makeConv(64, 64, 112, 64, 3, stride, 1);
        const TpuLayerResult conv = s.runConv(p);
        const TpuLayerResult gemm =
            s.runGemm(p.gemmM(), p.gemmK(), p.gemmN(), p.dataType);
        EXPECT_NEAR(conv.tflops / gemm.tflops, 1.0, 0.25)
            << "stride " << stride;
    }
}

TEST(TpuSim, ExplicitSlowerThanImplicit)
{
    // Fig 2b: explicit = GEMM time + transform time > implicit.
    TpuSim s = sim();
    const ConvParams p = makeConv(64, 64, 56, 64, 3, 1, 1);
    TpuRunOptions ex;
    ex.algorithm = conv::AlgorithmId::ExplicitIm2col;
    const double implicit_sec = s.runConv(p).seconds;
    const TpuLayerResult explicit_r = s.runConv(p, ex);
    EXPECT_GT(explicit_r.seconds, implicit_sec);
}

TEST(TpuSim, ExplicitTransformIsExposedFillWithIdlePorts)
{
    // Explicit im2col runs its transform, then the GEMM over the
    // lowered matrix. Nothing overlaps the transform: every cycle it
    // adds is exposed fill, and the vector-memory ports idle through it.
    TpuSim s = sim();
    const ConvParams p = makeConv(8, 3, 224, 64, 7, 2, 3);
    TpuRunOptions ex;
    ex.algorithm = conv::AlgorithmId::ExplicitIm2col;
    const TpuLayerResult r = s.runConv(p, ex);
    const TpuLayerResult gemm = s.runGemm(p.gemmM(), p.gemmK(), p.gemmN());
    const Cycles transform = r.cycles - gemm.cycles;
    EXPECT_GT(transform, 0u);
    EXPECT_EQ(r.breakdown.compute + r.breakdown.exposedFill +
                  r.breakdown.overhead,
              static_cast<double>(r.cycles));
    EXPECT_EQ(r.breakdown.compute, gemm.breakdown.compute);
    EXPECT_EQ(r.breakdown.fill, gemm.breakdown.fill);
    EXPECT_EQ(r.vecMemOps, gemm.vecMemOps);
    EXPECT_EQ(r.breakdown.exposedFill,
              gemm.breakdown.exposedFill + static_cast<double>(transform));
    EXPECT_EQ(r.portUtilization,
              static_cast<double>(r.vecMemOps) /
                  (static_cast<double>(r.cycles) * 128.0));
    EXPECT_LT(r.portUtilization, gemm.portUtilization);
}

TEST(TpuSim, GroupedRepetitionsScaleTheExposedFill)
{
    // MobileNet-v1's last depthwise layer: 1024 one-channel groups pack
    // 128 to a pass on the 128x128 array, so the packed layer runs 8
    // times and every repetition exposes the same fill.
    TpuSim s = sim();
    const TpuLayerResult grouped =
        s.runGroupedConv(makeConv(8, 1024, 7, 1024, 3, 1, 1), 1024);
    const TpuLayerResult once = s.runConv(makeConv(8, 128, 7, 128, 3, 1, 1));
    EXPECT_EQ(grouped.cycles, 8 * once.cycles);
    EXPECT_EQ(grouped.breakdown.compute + grouped.breakdown.exposedFill +
                  grouped.breakdown.overhead,
              static_cast<double>(grouped.cycles));
    EXPECT_EQ(grouped.breakdown.compute, 8 * once.breakdown.compute);
    EXPECT_EQ(grouped.breakdown.exposedFill,
              8 * once.breakdown.exposedFill);
    EXPECT_EQ(grouped.breakdown.overhead, 8 * once.breakdown.overhead);
    // Steps count one repetition's schedule.
    EXPECT_EQ(grouped.breakdown.steps, once.breakdown.steps);
}

TEST(TpuSim, BankedHwcnFillsCalibrateTheClosedForm)
{
    // TpuSim prices per-tap fills through the banked DRAM model and the
    // union-gather fill in closed form at the HWC efficiency 0.85. On a
    // stride-1, C_I 64 layer in HWCN the two must agree within 25%.
    const TpuConfig config = TpuConfig::tpuV2();
    const ConvParams p = makeConv(8, 64, 56, 64, 3, 1, 1);
    dram::DramModel model(config.dram);
    double banked_seconds = 0.0;
    Bytes bytes = 0;
    for (const im2col::FilterTile &tap : im2col::decomposeFilter(p)) {
        banked_seconds += model.cyclesToSeconds(model.service(
            dram::tileFillStream(p, tap, tensor::Layout::HWCN)));
        bytes += static_cast<Bytes>(im2col::tileFillElems(p, tap)) *
                 dataTypeSize(p.dataType);
    }
    const double closed_seconds =
        static_cast<double>(bytes) / (config.dram.peakGBps() * 1e9 * 0.85);
    EXPECT_NEAR(banked_seconds / closed_seconds, 1.0, 0.25);
}

TEST(TpuSim, PortUtilizationBelowHalfAtWord8)
{
    // The Fig 16b observation: with 8-element words the vector-memory
    // port is busy well under 50% of cycles.
    TpuSim s = sim();
    const ConvParams p = makeConv(8, 128, 56, 128, 3, 1, 1);
    const TpuLayerResult r = s.runConv(p);
    EXPECT_LT(r.portUtilization, 0.5);
    EXPECT_GT(r.portUtilization, 0.0);
}

TEST(TpuSim, DramTrafficFollowsResidency)
{
    TpuSim s = sim();
    // Small layer: activations stay on chip, only weights stream.
    const ConvParams small = makeConv(8, 128, 28, 128, 3, 1, 1);
    EXPECT_EQ(s.runConv(small).dramBytes, small.filterBytes());
    // Large layer (activations exceed 32 MB): operands stream and the
    // OFMap is written back.
    const ConvParams big = makeConv(64, 64, 112, 64, 3, 1, 1);
    EXPECT_GT(s.runConv(big).dramBytes,
              big.filterBytes() + big.outputBytes());
}

/** Every field of @p got equals its counterpart in @p want. */
::testing::AssertionResult
sameRecord(const TpuLayerResult &got, const TpuLayerResult &want)
{
    const conv::TimeBreakdown &g = got.breakdown;
    const conv::TimeBreakdown &w = want.breakdown;
    if (got.cycles == want.cycles && got.seconds == want.seconds &&
        got.tflops == want.tflops && got.dramBytes == want.dramBytes &&
        got.multiTile == want.multiTile &&
        got.portUtilization == want.portUtilization &&
        got.peakOnChipBytes == want.peakOnChipBytes &&
        got.vecMemOps == want.vecMemOps && g.compute == w.compute &&
        g.fill == w.fill && g.exposedFill == w.exposedFill &&
        g.overhead == w.overhead && g.stall == w.stall &&
        g.steps == w.steps)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << got.cycles << " cycles, " << g.fill << " fill cycles, "
           << got.dramBytes << " DRAM bytes; want " << want.cycles << ", "
           << w.fill << ", " << want.dramBytes;
}

TEST(TpuSim, ResidentLayerRecordIgnoresItsDramLayout)
{
    // A resident layer's input stays in the unified on-chip memory
    // (Sec. IV-B), so its per-tap fills never cross DRAM and its record
    // cannot depend on the IFMap's DRAM layout. A streamed layer's
    // banked fills do: HWC rows are long bursts, CHW rows short ones.
    const TpuSim s = sim();
    const auto run = [&s](const ConvParams &p, conv::AlgorithmId algo,
                          tensor::Layout layout) {
        TpuRunOptions options;
        options.algorithm = algo;
        options.dramLayout = layout;
        return s.runConv(p, options);
    };
    const ConvParams resident = makeConv(8, 64, 56, 64, 3, 1, 1);
    for (const conv::AlgorithmId algo :
         {conv::AlgorithmId::ChannelFirst, conv::AlgorithmId::Indirect}) {
        const TpuLayerResult hwcn =
            run(resident, algo, tensor::Layout::HWCN);
        for (const tensor::Layout layout :
             {tensor::Layout::NHWC, tensor::Layout::NCHW,
              tensor::Layout::CHWN})
            EXPECT_TRUE(sameRecord(run(resident, algo, layout), hwcn))
                << conv::algorithmName(algo) << ", "
                << tensor::layoutName(layout);
    }
    const ConvParams vgg16_conv1_2 = makeConv(8, 64, 224, 64, 3, 1, 1);
    EXPECT_NE(
        run(vgg16_conv1_2, conv::AlgorithmId::ChannelFirst,
            tensor::Layout::HWCN)
            .breakdown.fill,
        run(vgg16_conv1_2, conv::AlgorithmId::ChannelFirst,
            tensor::Layout::NCHW)
            .breakdown.fill);
}

TEST(TpuSim, RejectsBadGemm)
{
    EXPECT_THROW(sim().runGemm(0, 128, 128), FatalError);
}

} // namespace
} // namespace cfconv::tpusim
