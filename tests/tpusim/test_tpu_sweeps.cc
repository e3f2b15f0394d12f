/** @file Parameterized property sweeps over the TPU simulator:
 *  monotonicity, stride insensitivity, residency, and the
 *  space-to-depth stem rewrite. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "im2col/pass_plan.h"
#include "tensor/space_to_depth.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::tpusim {
namespace {

using tensor::makeConv;

class TpuStrideSweep : public ::testing::TestWithParam<Index>
{
};

TEST_P(TpuStrideSweep, ImplicitStaysWithinQuarterOfGemm)
{
    // Fig 4b as a property: at every stride the implicit conv is
    // within 25% of the equivalent-GEMM throughput.
    const Index stride = GetParam();
    TpuSim sim((TpuConfig::tpuV2()));
    const auto p = makeConv(32, 128, 56, 128, 3, stride, 1);
    const double conv = sim.runConv(p).tflops;
    const double gemm =
        sim.runGemm(p.gemmM(), p.gemmK(), p.gemmN(), p.dataType)
            .tflops;
    EXPECT_GT(conv, 0.75 * gemm) << "stride " << stride;
}

INSTANTIATE_TEST_SUITE_P(Strides, TpuStrideSweep,
                         ::testing::Values(1, 2, 3, 4));

class TpuChannelSweep : public ::testing::TestWithParam<Index>
{
};

TEST_P(TpuChannelSweep, MultiTileKeepsSmallChannelsEfficient)
{
    // Without multi-tile, C_I = 4 would waste 97% of the rows; with
    // the strategy, per-FLOP efficiency degrades gracefully.
    const Index ci = GetParam();
    TpuSim sim((TpuConfig::tpuV2()));
    const auto p = makeConv(8, ci, 64, 128, 3, 1, 1);
    const auto r = sim.runConv(p);
    const Index expected =
        im2col::tpuMultiTileParam(128, p);
    EXPECT_EQ(r.multiTile, expected);
    // Occupied rows per pass: T * C_I; achieved utilization should be
    // a healthy fraction of that occupancy (the rest is pipeline fill
    // and column quantization).
    const double occupancy =
        static_cast<double>(r.multiTile * ci) / 128.0;
    const double util = r.tflops / sim.config().peakTflops();
    EXPECT_GE(util, 0.5 * occupancy);
    EXPECT_LE(util, occupancy + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Channels, TpuChannelSweep,
                         ::testing::Values(4, 8, 16, 32, 64, 128));

TEST(TpuSweeps, CyclesMonotonicInBatch)
{
    TpuSim sim((TpuConfig::tpuV2()));
    Cycles prev = 0;
    for (Index batch : {1L, 2L, 4L, 8L, 16L}) {
        const auto r =
            sim.runConv(makeConv(batch, 64, 28, 64, 3, 1, 1));
        EXPECT_GT(r.cycles, prev) << "batch " << batch;
        prev = r.cycles;
    }
}

TEST(TpuSweeps, CyclesMonotonicInKernelSize)
{
    TpuSim sim((TpuConfig::tpuV2()));
    Cycles prev = 0;
    for (Index k : {1L, 3L, 5L, 7L}) {
        const auto r =
            sim.runConv(makeConv(8, 128, 28, 128, k, 1, k / 2));
        EXPECT_GT(r.cycles, prev) << "kernel " << k;
        prev = r.cycles;
    }
}

TEST(TpuSweeps, BiggerArraysNeverSlower)
{
    const auto p = makeConv(8, 128, 56, 256, 3, 1, 1);
    double prev = 1e30;
    for (Index size : {64L, 128L, 256L}) {
        TpuConfig cfg = TpuConfig::tpuV2();
        cfg.array.rows = cfg.array.cols = size;
        const double secs = TpuSim(cfg).runConv(p).seconds;
        EXPECT_LE(secs, prev * 1.02) << "array " << size;
        prev = secs;
    }
}

TEST(TpuSweeps, UtilizationFallsWithArraySize)
{
    // The Fig 16a property behind TPU-v2's choice of 128.
    const auto p = makeConv(8, 128, 56, 256, 3, 1, 1);
    double prev = 1.0;
    for (Index size : {128L, 256L, 512L}) {
        TpuConfig cfg = TpuConfig::tpuV2();
        cfg.array.rows = cfg.array.cols = size;
        const double util = TpuSim(cfg).runConv(p).tflops / cfg.peakTflops();
        EXPECT_LT(util, prev) << "array " << size;
        prev = util;
    }
}

TEST(TpuSweeps, SpaceToDepthAcceleratesShallowStems)
{
    TpuSim sim((TpuConfig::tpuV2()));
    const auto conv1 = makeConv(8, 3, 224, 64, 7, 2, 3);
    TpuRunOptions s2d;
    s2d.spaceToDepthFirstLayer = true;
    const double plain = sim.runConv(conv1).seconds;
    const double rewritten = sim.runConv(conv1, s2d).seconds;
    EXPECT_LT(rewritten, 0.6 * plain);
}

TEST(TpuSweeps, SpaceToDepthLeavesDeepLayersAlone)
{
    TpuSim sim((TpuConfig::tpuV2()));
    const auto deep = makeConv(8, 64, 56, 64, 3, 2, 1);
    TpuRunOptions s2d;
    s2d.spaceToDepthFirstLayer = true;
    EXPECT_DOUBLE_EQ(sim.runConv(deep, s2d).seconds,
                     sim.runConv(deep).seconds);
}

TEST(TpuSweeps, TraceExposesTheDoubleBufferedSchedule)
{
    TpuSim sim((TpuConfig::tpuV2()));
    const auto p = makeConv(8, 8, 56, 128, 3, 1, 1);
    TpuRunOptions o;
    o.captureTrace = true;
    const auto r = sim.runConv(p, o);
    // 9 taps at T = 3 -> 3 groups; M = 8*56*56 fits one M tile.
    ASSERT_EQ(r.trace.size(), 3u);
    Cycles compute_sum = 0, fill_sum = 0;
    for (const auto &u : r.trace) {
        compute_sum += u.compute;
        fill_sum += u.fill;
    }
    EXPECT_EQ(compute_sum, r.computeCycles);
    EXPECT_EQ(fill_sum, r.fillCycles);
    // Resident layer: no DRAM fills at all.
    EXPECT_EQ(fill_sum, 0u);
    // The schedule identity: cycles = overhead + fill0 +
    // sum(max(compute_i, fill_{i+1})).
    Cycles expect = sim.config().invokeOverheadCycles +
                    r.trace.front().fill;
    for (size_t i = 0; i < r.trace.size(); ++i) {
        const Cycles next =
            i + 1 < r.trace.size() ? r.trace[i + 1].fill : 0;
        expect += std::max(r.trace[i].compute, next);
    }
    EXPECT_EQ(r.cycles, expect);
}

TEST(TpuSweeps, TraceOffByDefault)
{
    TpuSim sim((TpuConfig::tpuV2()));
    const auto r = sim.runConv(makeConv(8, 8, 64, 64, 3, 1, 1));
    EXPECT_TRUE(r.trace.empty());
}

TEST(TpuSweeps, StreamedLayerTraceShowsPerTileFills)
{
    TpuSim sim((TpuConfig::tpuV2()));
    // Batch 64 at 112x112x64 exceeds the 32 MB on-chip memory.
    const auto p = makeConv(64, 64, 112, 64, 3, 1, 1);
    TpuRunOptions o;
    o.captureTrace = true;
    const auto r = sim.runConv(p, o);
    ASSERT_GT(r.trace.size(), 1u);
    for (const auto &u : r.trace)
        EXPECT_GT(u.fill, 0u);
}

TEST(TpuSweeps, HigherBandwidthNeverSlower)
{
    const auto p = makeConv(64, 64, 112, 64, 3, 1, 1); // streamed
    TpuConfig slow = TpuConfig::tpuV2();
    slow.dram.clockGhz *= 0.5;
    TpuConfig fast = TpuConfig::tpuV2();
    EXPECT_LE(TpuSim(fast).runConv(p).seconds,
              TpuSim(slow).runConv(p).seconds);
}

TEST(TpuSweeps, GroupedConvPacksBlockDiagonally)
{
    TpuSim sim((TpuConfig::tpuV2()));
    const auto base = makeConv(8, 128, 28, 128, 3, 1, 1);
    // groups = 1 degenerates to runConv.
    EXPECT_DOUBLE_EQ(sim.runGroupedConv(base, 1).seconds,
                     sim.runConv(base).seconds);
    // Depthwise (G = 128): pack = 128 slices per pass; the layer costs
    // no more wall clock than the dense one (same pass structure) but
    // utilization collapses to ~1/128 of it.
    const auto dense = sim.runConv(base);
    const auto dw = sim.runGroupedConv(base, 128);
    EXPECT_LE(dw.seconds, dense.seconds * 1.001);
    EXPECT_LT(dw.tflops / sim.config().peakTflops(), 0.02);
    // Intermediate grouping degrades gracefully.
    const auto g4 = sim.runGroupedConv(base, 4);
    EXPECT_GT(g4.tflops, dw.tflops);
    EXPECT_LT(g4.tflops, dense.tflops);
}

TEST(TpuSweeps, SecondMxuNearlyDoublesThroughputAtWord8)
{
    // Fig 16b's closing insight: with 8-element words the port is
    // mostly idle, so a second systolic array (TPU-v3) nearly doubles
    // throughput.
    TpuConfig one = TpuConfig::tpuV2();
    TpuConfig two = TpuConfig::tpuV2();
    two.mxus = 2;
    const auto p = makeConv(8, 128, 56, 256, 3, 1, 1);
    const double t1 = TpuSim(one).runConv(p).seconds;
    const double t2 = TpuSim(two).runConv(p).seconds;
    EXPECT_GT(t1 / t2, 1.7);
    EXPECT_LE(t1 / t2, 2.05);
}

TEST(TpuSweeps, NarrowWordsStarveTheSecondMxu)
{
    // With 1-element words the single port is already saturated
    // feeding one array; a second MXU gains little.
    TpuConfig one = TpuConfig::tpuV2();
    one.wordElems = 1;
    TpuConfig two = one;
    two.mxus = 2;
    const auto p = makeConv(8, 128, 56, 256, 3, 1, 1);
    const double t1 = TpuSim(one).runConv(p).seconds;
    const double t2 = TpuSim(two).runConv(p).seconds;
    EXPECT_LT(t1 / t2, 1.3);
}

TEST(TpuSweeps, MxuCountScalesPeak)
{
    TpuConfig two = TpuConfig::tpuV2();
    two.mxus = 2;
    EXPECT_NEAR(two.peakTflops(),
                2.0 * TpuConfig::tpuV2().peakTflops(), 1e-9);
}

TEST(TpuSweeps, GroupedConvRejectsIndivisibleChannels)
{
    TpuSim sim((TpuConfig::tpuV2()));
    EXPECT_THROW(sim.runGroupedConv(makeConv(8, 96, 28, 96, 3, 1, 1),
                                    5),
                 FatalError);
}

TEST(TpuSweeps, DilationInsensitivityMirrorsStride)
{
    TpuSim sim((TpuConfig::tpuV2()));
    const double d1 =
        sim.runConv(makeConv(8, 64, 56, 128, 3, 1, 1, 1)).tflops;
    const double d4 =
        sim.runConv(makeConv(8, 64, 56, 128, 3, 1, 4, 4)).tflops;
    EXPECT_GT(d4, 0.75 * d1);
}

} // namespace
} // namespace cfconv::tpusim
