/** @file Property tests of channel-first implicit convolution: the
 *  host engine equals direct convolution, the statistics the simulators
 *  read off its passes, and multi-tile merging, exact on the functional
 *  TPU core, the one path where merging taps changes the arithmetic. */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "conv/algorithm.h"
#include "im2col/implicit_conv.h"
#include "im2col/reorder.h"
#include "tensor/conv_ref.h"
#include "tpusim/functional_core.h"

namespace cfconv::im2col {
namespace {

using tensor::makeConv;
using tensor::makeFilter;
using tensor::makeInput;

const conv::Algorithm &
channelFirst()
{
    return *conv::findAlgorithm(conv::AlgorithmId::ChannelFirst);
}

struct ImplicitCase
{
    Index batch, ci, hw, co, k, s, p, d;
    Index tiles;
    TileOrder order;
};

/** Names a case by its fields: gtest would otherwise print its raw
 *  bytes, padding included, and the test names would vary by run. */
void
PrintTo(const ImplicitCase &c, std::ostream *os)
{
    *os << "N" << c.batch << " C_I" << c.ci << " HW" << c.hw << " C_O"
        << c.co << " k" << c.k << " s" << c.s << " p" << c.p << " d"
        << c.d << " T" << c.tiles << " " << tileOrderName(c.order);
}

class ImplicitConv : public ::testing::TestWithParam<ImplicitCase>
{
};

TEST_P(ImplicitConv, EqualsDirectConv)
{
    // The host engine, and T taps merged per pass in either tile order
    // on a 24-row functional core.
    const ImplicitCase c = GetParam();
    const ConvParams p =
        makeConv(c.batch, c.ci, c.hw, c.co, c.k, c.s, c.p, c.d);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    input.fillRandom(101);
    filter.fillRandom(103);

    const tensor::Tensor ref = tensor::convDirect(p, input, filter);
    EXPECT_LT(channelFirst().execute(p, input, filter).maxAbsDiff(ref),
              1e-3f)
        << p.toString();
    tpusim::FunctionalTpuCore core(24, 8, 2);
    const tpusim::FunctionalRunResult r =
        core.runConv(channelFirst(),
                     channelFirstPlan(p, orderTiles(p, c.order)), p,
                     input, filter, c.tiles);
    EXPECT_LT(r.output.maxAbsDiff(ref), 1e-3f) << p.toString();
    EXPECT_FALSE(r.portConflict) << p.toString();
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, ImplicitConv,
    ::testing::Values(
        ImplicitCase{1, 1, 5, 1, 3, 1, 0, 1, 1, TileOrder::Naive},
        ImplicitCase{2, 3, 6, 4, 3, 1, 1, 1, 1, TileOrder::Naive},
        ImplicitCase{2, 3, 6, 4, 3, 2, 1, 1, 3, TileOrder::Naive},
        ImplicitCase{1, 4, 8, 2, 5, 1, 2, 1, 5, TileOrder::Naive},
        ImplicitCase{1, 2, 9, 3, 3, 1, 0, 2, 2, TileOrder::Naive},
        ImplicitCase{2, 2, 10, 2, 3, 2, 2, 2, 9, TileOrder::Naive},
        ImplicitCase{1, 3, 7, 2, 3, 1, 1, 1, 2, TileOrder::ReuseGreedy},
        ImplicitCase{2, 4, 9, 4, 3, 2, 1, 1, 3, TileOrder::ReuseGreedy},
        ImplicitCase{1, 2, 11, 2, 3, 4, 1, 1, 1, TileOrder::ReuseGreedy},
        ImplicitCase{1, 6, 6, 6, 1, 1, 0, 1, 1, TileOrder::Naive},
        ImplicitCase{1, 2, 8, 2, 2, 2, 0, 1, 4, TileOrder::ReuseGreedy}));

/** What the simulators read off channel-first's passes with @p merge
 *  taps each. */
struct PassStats
{
    Index passes = 0;        ///< array passes
    Index fillElems = 0;     ///< input elements brought on chip
    Index peakWorkspace = 0; ///< widest merged operand, in elements
};

PassStats
passStats(const ConvParams &p, Index merge)
{
    const PassPlan plan = channelFirstPlan(p, decomposeFilter(p));
    PassStats stats;
    for (const PlanPass &pass : plan.passes(merge * p.inChannels, merge)) {
        ++stats.passes;
        for (Index t = pass.firstTap; t < pass.firstTap + pass.taps; ++t)
            stats.fillElems +=
                tileFillElems(p, plan.taps[static_cast<size_t>(t)]);
        stats.peakWorkspace =
            std::max(stats.peakWorkspace, p.gemmM() * pass.depth());
    }
    return stats;
}

TEST(ImplicitConv, StatsReflectMultiTileMerging)
{
    const ConvParams p = makeConv(1, 4, 8, 4, 3, 1, 1);
    const PassStats s1 = passStats(p, 1);
    const PassStats s3 = passStats(p, 3);
    EXPECT_EQ(s1.passes, 9);
    EXPECT_EQ(s3.passes, 3);
    // Same data volume enters the GEMMs either way.
    EXPECT_EQ(s1.fillElems, s3.fillElems);
    // But the merged operand is T times wider.
    EXPECT_NEAR(static_cast<double>(s3.peakWorkspace) /
                    static_cast<double>(s1.peakWorkspace),
                3.0, 1e-9);
}

TEST(GatherGemm, PerTapGemmsReconstructDirectConv)
{
    // Summing per-tap 1x1-conv GEMMs reproduces direct convolution:
    // the algebraic heart of the channel-first algorithm (Sec. III-B).
    const ConvParams p = makeConv(2, 3, 6, 4, 3, 2, 1);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    input.fillRandom(41);
    filter.fillRandom(43);

    const PassPlan plan = channelFirstPlan(p, decomposeFilter(p));
    const tensor::Tensor out =
        gatherGemm(p, input, plan, tapStrips(p, filter, plan.taps),
                   pixelGather(p, input));
    const tensor::Tensor ref = tensor::convDirect(p, input, filter);
    EXPECT_LT(out.maxAbsDiff(ref), 1e-3f);
}

TEST(ImplicitConv, TpuStrategyPicksPaperParameter)
{
    const ConvParams p = makeConv(1, 8, 16, 8, 3, 1, 1);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    input.fillRandom(3);
    filter.fillRandom(4);
    // T = MIN(128/8, 3) = 3 -> ceil(9/3) = 3 merged passes.
    const Index tiles = tpuMultiTileParam(128, p);
    EXPECT_EQ(tiles, 3);
    EXPECT_EQ(passStats(p, tiles).passes, 3);
    tpusim::FunctionalTpuCore core(128, 8, 8);
    const tpusim::FunctionalRunResult r = core.runConv(
        channelFirst(), *channelFirst().plan(p), p, input, filter, tiles);
    const tensor::Tensor ref = tensor::convDirect(p, input, filter);
    EXPECT_LT(r.output.maxAbsDiff(ref), 1e-3f);
}

TEST(ImplicitConv, FillElemsShrinkWithStride)
{
    // The stride-insensitivity argument: per-tile fills shrink with
    // stride^2 just like the compute does.
    const ConvParams s1 = makeConv(1, 4, 33, 4, 3, 1, 1);
    const ConvParams s2 = makeConv(1, 4, 33, 4, 3, 2, 1);
    const double fill_ratio =
        static_cast<double>(passStats(s1, 1).fillElems) /
        static_cast<double>(passStats(s2, 1).fillElems);
    const double flop_ratio = static_cast<double>(s1.flops()) /
                              static_cast<double>(s2.flops());
    EXPECT_NEAR(fill_ratio, flop_ratio, flop_ratio * 0.2);
}

} // namespace
} // namespace cfconv::im2col
