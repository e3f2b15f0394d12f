/** @file Parameterized property sweeps over the TPU simulator:
 *  monotonicity, stride insensitivity, residency, the space-to-depth
 *  stem rewrite, and the double-buffered schedule a traced layer
 *  draws. */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analyze/trace_model.h"
#include "common/logging.h"
#include "common/trace.h"
#include "im2col/pass_plan.h"
#include "tensor/space_to_depth.h"
#include "tpusim/layer_cache.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::tpusim {
namespace {

using tensor::makeConv;

/** (start, duration) spans per "fill"/"compute" row that simulating
 *  @p p on cold caches draws, and the run's result in @p out. */
std::map<std::string, std::vector<std::pair<double, double>>>
drawnSchedule(const TpuSim &sim, const ConvParams &p, TpuLayerResult *out)
{
    LayerCache::instance().clear();
    const std::string path =
        ::testing::TempDir() + "cfconv_tpu_schedule.json";
    trace::start(path);
    *out = sim.runConv(p);
    EXPECT_TRUE(trace::stop());
    trace::resetForTest();
    const auto doc = analyze::parseTraceFile(path);
    std::remove(path.c_str());
    std::map<std::string, std::vector<std::pair<double, double>>> rows;
    EXPECT_TRUE(doc.ok()) << doc.status().toString();
    if (!doc.ok())
        return rows;
    for (const analyze::TraceEvent *e :
         doc->eventsOnClock(analyze::kSimPid)) {
        const std::string &row = doc->simTrackName(e->tid);
        rows[row.substr(row.rfind(' ') + 1)].push_back({e->ts, e->dur});
    }
    return rows;
}

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
    TpuLayerResult r;
    auto rows = drawnSchedule(sim, p, &r);
    // 9 taps at T = 3 -> 3 groups; M = 8*56*56 fits one M tile.
    EXPECT_EQ(r.breakdown.steps, 3);
    // Resident layer: no DRAM fills at all, so the units compute back
    // to back from the end of the invoke overhead to the last cycle.
    EXPECT_TRUE(rows["fill"].empty());
    EXPECT_EQ(r.breakdown.fill, 0.0);
    const auto &compute = rows["compute"];
    ASSERT_EQ(compute.size(), 3u);
    double t = static_cast<double>(sim.config().invokeOverheadCycles);
    for (const auto &[start, dur] : compute) {
        EXPECT_EQ(start, t);
        t += dur;
    }
    EXPECT_EQ(t, static_cast<double>(r.cycles));
    EXPECT_EQ(r.breakdown.overhead + r.breakdown.compute, t);
}

TEST(TpuSweeps, TraceOffByDefault)
{
    // The recorder is disarmed unless a run arms it: simulating a
    // layer draws no timeline and records nothing.
    ASSERT_FALSE(trace::enabled());
    LayerCache::instance().clear();
    TpuSim sim((TpuConfig::tpuV2()));
    EXPECT_GT(sim.runConv(makeConv(8, 8, 64, 64, 3, 1, 1)).breakdown.steps, 0);
    EXPECT_EQ(trace::bufferedEventCountForTest(), 0u);
}

TEST(TpuSweeps, StreamedLayerTraceShowsPerTileFills)
{
    TpuSim sim((TpuConfig::tpuV2()));
    // Batch 64 at 112x112x64 exceeds the 32 MB on-chip memory, so
    // every unit's operands stream from DRAM: the first fill, then one
    // under each unit's compute but the last.
    const auto p = makeConv(64, 64, 112, 64, 3, 1, 1);
    TpuLayerResult r;
    auto rows = drawnSchedule(sim, p, &r);
    ASSERT_GT(r.breakdown.steps, 1);
    ASSERT_LE(r.breakdown.steps, conv::OverlapSchedule::kMaxTracedSteps);
    const auto &fills = rows["fill"];
    EXPECT_EQ(fills.size(), static_cast<size_t>(r.breakdown.steps));
    for (const auto &[start, dur] : fills)
        EXPECT_GT(dur, 0.0) << "fill at " << start;
    EXPECT_GT(r.breakdown.exposedFill, 0.0);
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
