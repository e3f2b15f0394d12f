/** @file Tests for multi-tile grouping (Sec. IV-B): PassPlan::passes()
 *  merging, merged operands on the host engine, and merged passes on
 *  the functional TPU core. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "conv/algorithm.h"
#include "im2col/implicit_conv.h"
#include "tensor/conv_ref.h"
#include "tensor/microkernel.h"
#include "tpusim/functional_core.h"

namespace cfconv::im2col {
namespace {

using tensor::makeConv;
using tensor::makeFilter;
using tensor::makeInput;

/** Channel-first passes merging @p merge taps each, as TpuSim and the
 *  engine group them. */
std::vector<PlanPass>
mergedPasses(const ConvParams &p, Index merge)
{
    return channelFirstPlan(p, decomposeFilter(p))
        .passes(merge * p.inChannels, merge);
}

/** On-chip IFMap duplication: each tap in a pass carries its own
 *  operand copy, so a pass duplicates its tap count; averaged over
 *  taps (Fig 14a's workspace growth). */
double
duplicationFactor(const std::vector<PlanPass> &passes)
{
    double total = 0.0;
    Index taps = 0;
    for (const PlanPass &pass : passes) {
        total += static_cast<double>(pass.taps * pass.taps);
        taps += pass.taps;
    }
    return total / static_cast<double>(taps);
}

/** Vector-memory IFMap workspace of the largest pass, in elements. */
Index
peakWorkspaceElems(const ConvParams &p, const std::vector<PlanPass> &passes)
{
    const std::vector<FilterTile> taps = decomposeFilter(p);
    Index peak = 0;
    for (const PlanPass &pass : passes) {
        Index ws = 0;
        for (Index t = pass.firstTap; t < pass.firstTap + pass.taps; ++t)
            ws += tileFillElems(p, taps[static_cast<size_t>(t)]);
        peak = std::max(peak, ws);
    }
    return peak;
}

TEST(TpuMultiTileParam, MatchesPaperStrategy)
{
    // T = MIN(128 / C_I, W_F).
    EXPECT_EQ(tpuMultiTileParam(128, makeConv(1, 8, 32, 16, 3, 1, 1)),
              3); // 128/8 = 16, W_F = 3 -> 3
    EXPECT_EQ(tpuMultiTileParam(128, makeConv(1, 64, 32, 16, 5, 1, 2)),
              2); // 128/64 = 2
    EXPECT_EQ(tpuMultiTileParam(128, makeConv(1, 128, 32, 16, 3, 1, 1)),
              1);
    EXPECT_EQ(tpuMultiTileParam(128, makeConv(1, 3, 32, 16, 7, 2, 3)),
              7); // 128/3 = 42 -> capped by W_F = 7
    EXPECT_EQ(tpuMultiTileParam(128, makeConv(1, 256, 32, 16, 3, 1, 1)),
              1); // C_I exceeds the array: no merging possible
}

TEST(PassPlanMerge, GroupsConsecutiveTiles)
{
    const ConvParams p = makeConv(1, 4, 6, 2, 3, 1, 1);
    const std::vector<PlanPass> passes = mergedPasses(p, 2);
    ASSERT_EQ(passes.size(), 5u); // ceil(9 / 2)
    EXPECT_EQ(passes[0].taps, 2);
    EXPECT_EQ(passes[1].firstTap, 2);
    EXPECT_EQ(passes[4].taps, 1); // remainder
    EXPECT_EQ(passes[0].depth(), 8);
}

TEST(PassPlanMerge, SingleTileDegeneratesToOneTapPerPass)
{
    const ConvParams p = makeConv(1, 4, 6, 2, 3, 1, 1);
    const std::vector<PlanPass> passes = mergedPasses(p, 1);
    EXPECT_EQ(passes.size(), 9u);
    EXPECT_NEAR(duplicationFactor(passes), 1.0, 1e-12);
}

TEST(PassPlanMerge, DuplicationGrowsWithGroupSize)
{
    const ConvParams p = makeConv(1, 8, 10, 4, 3, 1, 1);
    const double d1 = duplicationFactor(mergedPasses(p, 1));
    const double d3 = duplicationFactor(mergedPasses(p, 3));
    EXPECT_LT(d1, d3);
    EXPECT_NEAR(d3, 3.0, 1e-12); // 9 tiles divide evenly into 3 groups
}

TEST(PassPlanMerge, WorkspaceGrowsLinearlyWithGroupSize)
{
    // Fig 14a: on-chip workspace grows linearly with the multi-tile
    // parameter.
    const ConvParams p = makeConv(8, 8, 128, 128, 3, 1, 1);
    const Index w1 = peakWorkspaceElems(p, mergedPasses(p, 1));
    const Index w2 = peakWorkspaceElems(p, mergedPasses(p, 2));
    const Index w3 = peakWorkspaceElems(p, mergedPasses(p, 3));
    EXPECT_NEAR(static_cast<double>(w2) / static_cast<double>(w1), 2.0,
                0.1);
    EXPECT_NEAR(static_cast<double>(w3) / static_cast<double>(w1), 3.0,
                0.2);
}

TEST(PassPlanMerge, RejectsNonPositiveOrUnmergeableGroups)
{
    const ConvParams p = makeConv(1, 4, 6, 2, 3);
    PassPlan plan = channelFirstPlan(p, decomposeFilter(p));
    EXPECT_THROW(plan.passes(p.inChannels, 0), PanicError);
    // Two taps do not fit a pass one tap deep.
    EXPECT_THROW(plan.passes(p.inChannels, 2), PanicError);
    plan.mergeable = false;
    EXPECT_THROW(plan.passes(2 * p.inChannels, 2), PanicError);
}

TEST(GatherGemm, MergedPassColumnsAreSideBySideTapOperands)
{
    // With B the identity, the engine's output is its A operand: a
    // merged pass's columns are its taps' pixel gathers side by side.
    const ConvParams p = makeConv(1, 2, 5, 4, 3);
    tensor::Tensor input = makeInput(p);
    input.fillRandom(3);
    const std::vector<FilterTile> taps = {{0, 0}, {1, 2}};
    const PassPlan plan = channelFirstPlan(p, taps);
    ASSERT_EQ(plan.passes(2 * p.inChannels, 2).size(), 1u);
    tensor::Matrix identity(2 * p.inChannels, p.outChannels);
    std::vector<Index> rows;
    for (Index k = 0; k < identity.rows(); ++k) {
        identity.at(k, k) = 1.0f;
        rows.push_back(k * identity.cols());
    }
    const tensor::Tensor out = gatherGemm(
        p, input, plan,
        tensor::packColumnStrips(identity.data(), rows, p.outChannels, 1),
        pixelGather(p, input));
    for (Index oh = 0; oh < p.outH(); ++oh)
        for (Index ow = 0; ow < p.outW(); ++ow)
            for (size_t j = 0; j < taps.size(); ++j)
                for (Index ci = 0; ci < p.inChannels; ++ci)
                    EXPECT_EQ(out.at(0, static_cast<Index>(j) *
                                            p.inChannels + ci,
                                     oh, ow),
                              input.atPadded(0, ci,
                                             p.inputRow(oh, taps[j].r),
                                             p.inputCol(ow, taps[j].s)));
}

class MultiTileConv : public ::testing::TestWithParam<Index>
{
};

TEST_P(MultiTileConv, MergedGemmsEqualDirectConv)
{
    // GEMM associativity: merging T tiles into one array pass of the
    // functional core must not change the result beyond rounding (the
    // correctness argument of Sec. IV-B).
    const Index tiles_per_group = GetParam();
    const ConvParams p = makeConv(2, 3, 7, 4, 3, 2, 1);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    input.fillRandom(5);
    filter.fillRandom(7);

    const conv::Algorithm &channel_first =
        *conv::findAlgorithm(conv::AlgorithmId::ChannelFirst);
    const PassPlan plan = *channel_first.plan(p);
    constexpr Index kRows = 32;
    const Index passes =
        static_cast<Index>(plan.passes(kRows, tiles_per_group).size());
    EXPECT_EQ(passes, divCeil(p.kernelH * p.kernelW, tiles_per_group));
    tpusim::FunctionalTpuCore core(kRows, 4, 2);
    const tpusim::FunctionalRunResult r = core.runConv(
        channel_first, plan, p, input, filter, tiles_per_group);
    const tensor::Tensor ref = tensor::convDirect(p, input, filter);
    EXPECT_LT(r.output.maxAbsDiff(ref), 1e-3f)
        << "tiles_per_group = " << tiles_per_group;
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, MultiTileConv,
                         ::testing::Values(1, 2, 3, 4, 5, 9));

} // namespace
} // namespace cfconv::im2col
