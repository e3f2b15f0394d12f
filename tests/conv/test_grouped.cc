/** @file Tests for grouped / depthwise convolution: the one group rule
 *  (tensor::groupSlice, tensor::groupedFlops), grouped convDirect and
 *  every algorithm's grouped execute(). */

#include <gtest/gtest.h>

#include <string>

#include "conv/algorithm.h"
#include "im2col/pass_plan.h"
#include "tensor/conv_ref.h"

#include "../common/determinism.h"

namespace cfconv::conv {
namespace {

using tensor::makeConv;

/** A copy of @p src's [n0, n0 + n) x [c0, c0 + c) block. */
Tensor
copyBlock(const Tensor &src, Index n0, Index n, Index c0, Index c)
{
    Tensor out(n, c, src.h(), src.w());
    for (Index i = 0; i < n; ++i)
        for (Index j = 0; j < c; ++j)
            for (Index h = 0; h < src.h(); ++h)
                for (Index w = 0; w < src.w(); ++w)
                    out.at(i, j, h, w) = src.at(n0 + i, c0 + j, h, w);
    return out;
}

/** The grouped layer as G independent layers, the definition: @p conv
 *  runs each group's slice on copies of its channels and filter rows,
 *  and the results are stacked along C_O. */
template <typename Conv>
Tensor
slicewise(const ConvParams &p, Index groups, const Tensor &input,
          const Tensor &filter, Conv &&conv)
{
    const ConvParams slice = tensor::groupSlice(p, groups);
    const Index cig = slice.inChannels, cog = slice.outChannels;
    Tensor out(p.batch, p.outChannels, p.outH(), p.outW());
    for (Index g = 0; g < groups; ++g) {
        const Tensor part =
            conv(slice, copyBlock(input, 0, p.batch, g * cig, cig),
                 copyBlock(filter, g * cog, cog, 0, cig));
        for (Index n = 0; n < part.n(); ++n)
            for (Index c = 0; c < part.c(); ++c)
                for (Index h = 0; h < part.h(); ++h)
                    for (Index w = 0; w < part.w(); ++w)
                        out.at(n, g * cog + c, h, w) = part.at(n, c, h, w);
    }
    return out;
}

/** The grouped filter as an ungrouped one: each output channel's
 *  weights on its group's input channels, zeros elsewhere. */
Tensor
blockDiagonal(const ConvParams &p, Index groups, const Tensor &filter)
{
    const ConvParams slice = tensor::groupSlice(p, groups);
    Tensor full = tensor::makeFilter(p);
    for (Index co = 0; co < p.outChannels; ++co)
        for (Index ci = 0; ci < slice.inChannels; ++ci)
            for (Index r = 0; r < p.kernelH; ++r)
                for (Index s = 0; s < p.kernelW; ++s)
                    full.at(co, co / slice.outChannels * slice.inChannels +
                                    ci, r, s) = filter.at(co, ci, r, s);
    return full;
}

TEST(GroupedConv, OneGroupEqualsRegularConvolution)
{
    const ConvParams p = makeConv(2, 4, 6, 6, 3, 1, 1);
    Tensor input = tensor::makeInput(p);
    input.fillRandom(111);
    Tensor filter = tensor::makeFilter(p, 1);
    filter.fillRandom(113);
    const Tensor regular = tensor::convDirect(p, input, filter);
    for (const Algorithm *algo : allAlgorithms())
        EXPECT_LT(algo->execute(p, input, filter, 1).maxAbsDiff(regular),
                  1e-4f)
            << algo->name();
}

TEST(GroupedConv, GroupsAreChannelIndependent)
{
    // With 2 groups, output channels of group 0 must not change when
    // only group-1 input channels change, on every path.
    const ConvParams p = makeConv(1, 4, 5, 4, 3);
    Tensor input = tensor::makeInput(p);
    input.fillRandom(117);
    Tensor filter = tensor::makeFilter(p, 2);
    filter.fillRandom(119);
    Tensor perturbed = input;
    perturbed.at(0, 3, 2, 2) += 10.0f; // a group-1 channel

    const auto expectIndependent = [](const Tensor &before,
                                      const Tensor &after,
                                      const std::string &path) {
        float diff = 0.0f;
        for (Index h = 0; h < before.h(); ++h)
            for (Index w = 0; w < before.w(); ++w) {
                EXPECT_EQ(after.at(0, 0, h, w), before.at(0, 0, h, w))
                    << path;
                EXPECT_EQ(after.at(0, 1, h, w), before.at(0, 1, h, w))
                    << path;
                diff += std::abs(after.at(0, 2, h, w) -
                                 before.at(0, 2, h, w));
            }
        // And group-1 outputs do change.
        EXPECT_GT(diff, 0.0f) << path;
    };
    expectIndependent(tensor::convDirect(p, input, filter, 2),
                      tensor::convDirect(p, perturbed, filter, 2),
                      "convDirect");
    for (const Algorithm *algo : allAlgorithms())
        expectIndependent(algo->execute(p, input, filter, 2),
                          algo->execute(p, perturbed, filter, 2),
                          algo->name());
}

struct GroupCase
{
    Index batch, ci, hw, co, k, groups, stride, pad;
};

class GroupedSweep : public ::testing::TestWithParam<GroupCase>
{
  protected:
    void
    SetUp() override
    {
        const GroupCase c = GetParam();
        p = makeConv(c.batch, c.ci, c.hw, c.co, c.k, c.stride, c.pad);
        groups = c.groups;
        ASSERT_TRUE(tensor::checkLayer(p, groups).ok());
        input = tensor::makeInput(p);
        input.fillRandom(121);
        filter = tensor::makeFilter(p, groups);
        filter.fillRandom(123);
    }

    ConvParams p;
    Index groups = 1;
    Tensor input{1, 1, 1, 1};
    Tensor filter{1, 1, 1, 1};
};

TEST_P(GroupedSweep, ImplicitEqualsDirect)
{
    // Every algorithm that supports the grouped layer runs it near the
    // direct reference; the per-tap schemes return one set of bytes,
    // and explicit im2col channel-last's.
    const Tensor direct = tensor::convDirect(p, input, filter, groups);
    const Tensor channel_first = findAlgorithm(AlgorithmId::ChannelFirst)
                                     ->execute(p, input, filter, groups);
    const Tensor channel_last = findAlgorithm(AlgorithmId::ChannelLast)
                                    ->execute(p, input, filter, groups);
    for (const Algorithm *algo : allAlgorithms()) {
        if (!algo->supports(p, groups).ok()) {
            EXPECT_EQ(algo->id(), AlgorithmId::Smm) << p.toString();
            continue;
        }
        const Tensor out = algo->execute(p, input, filter, groups);
        EXPECT_LT(out.maxAbsDiff(direct), 1e-3f)
            << algo->name() << " on " << p.toString() << " G=" << groups;
        if (algo->id() == AlgorithmId::Indirect ||
            algo->id() == AlgorithmId::Smm) {
            EXPECT_TRUE(sameBytes(out, channel_first)) << algo->name();
        }
        if (algo->id() == AlgorithmId::ExplicitIm2col) {
            EXPECT_TRUE(sameBytes(out, channel_last));
        }
    }
}

TEST_P(GroupedSweep, SlicesAreIndependentLayers)
{
    // Grouped convDirect and every grouped execute() return the bytes
    // of their ungrouped selves run on each group's slice, and the
    // layer is the ungrouped convolution with a block-diagonal filter.
    const Tensor direct = tensor::convDirect(p, input, filter, groups);
    EXPECT_TRUE(sameBytes(
        direct, slicewise(p, groups, input, filter,
                          [](const ConvParams &g, const Tensor &in,
                             const Tensor &f) {
                              return tensor::convDirect(g, in, f);
                          })));
    EXPECT_LT(tensor::convDirect(p, input, blockDiagonal(p, groups, filter))
                  .maxAbsDiff(direct),
              1e-4f);
    for (const Algorithm *algo : allAlgorithms()) {
        if (!algo->supports(p, groups).ok())
            continue;
        EXPECT_TRUE(sameBytes(
            algo->execute(p, input, filter, groups),
            slicewise(p, groups, input, filter,
                      [algo](const ConvParams &g, const Tensor &in,
                             const Tensor &f) {
                          return algo->execute(g, in, f);
                      })))
            << algo->name() << " on " << p.toString() << " G=" << groups;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupedSweep,
    ::testing::Values(GroupCase{1, 4, 6, 4, 3, 2, 1, 1},
                      GroupCase{2, 6, 5, 6, 3, 3, 1, 0},
                      GroupCase{1, 8, 7, 8, 3, 8, 1, 1},  // depthwise
                      GroupCase{2, 4, 8, 8, 3, 4, 2, 1},
                      GroupCase{1, 6, 6, 12, 1, 2, 1, 0},
                      GroupCase{1, 8, 9, 8, 3, 8, 2, 1})); // dw s2

TEST(GroupedConv, FlopsScaleInverselyWithGroups)
{
    const ConvParams p = makeConv(1, 8, 8, 8, 3, 1, 1);
    EXPECT_EQ(tensor::groupedFlops(p, 1), p.flops());
    EXPECT_EQ(tensor::groupedFlops(p, 1), 4 * tensor::groupedFlops(p, 4));
    // G slices of C_I/G x C_O/G channels each.
    EXPECT_EQ(tensor::groupedFlops(p, 4),
              4 * tensor::groupSlice(p, 4).flops());
}

TEST(GroupedConv, SliceDividesOnlyTheChannels)
{
    const ConvParams p =
        tensor::makeConvRect(2, 12, 9, 7, 18, 3, 1, 2, 1, 1, 0, 1, 2);
    EXPECT_EQ(tensor::groupSlice(p, 1), p);
    ConvParams want = p;
    want.inChannels = 2;
    want.outChannels = 3;
    EXPECT_EQ(tensor::groupSlice(p, 6), want);
    EXPECT_EQ(tensor::makeFilter(p, 6).c(), 2);
    EXPECT_EQ(tensor::makeFilter(p, 6).n(), 18);
}

TEST(GroupedConv, DepthwiseRowOccupancyIsPoor)
{
    // Depthwise (C_I/G = 1): even with the multi-tile optimization
    // (capped at W_F = 3), only 3 of 128 rows work — the honest
    // limitation of the channel-first schedule for depthwise layers.
    const ConvParams p = makeConv(1, 64, 16, 64, 3, 1, 1);
    EXPECT_NEAR(im2col::groupedRowOccupancy(p, 64, 128), 3.0 / 128.0,
                1e-9);

    // A 4-group layer with C_I/G = 16 fills 48 rows.
    EXPECT_NEAR(im2col::groupedRowOccupancy(p, 4, 128), 48.0 / 128.0,
                1e-9);
}

TEST(GroupedConv, RejectsIndivisibleChannels)
{
    const ConvParams p = makeConv(1, 6, 5, 6, 3);
    const Status status = tensor::checkLayer(p, 4);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("groups = 4"), std::string::npos)
        << status.message();
    const Tensor input = tensor::makeInput(p);
    const Tensor filter(6, 1, 3, 3);
    EXPECT_THROW(tensor::convDirect(p, input, filter, 4), FatalError);
    EXPECT_THROW(im2col::groupedRowOccupancy(p, 4, 128), FatalError);
    for (const Algorithm *algo : allAlgorithms()) {
        EXPECT_FALSE(algo->supports(p, 4).ok()) << algo->name();
        EXPECT_THROW(algo->execute(p, input, filter, 4), FatalError)
            << algo->name();
    }
}

TEST(GroupedConv, RejectsWrongFilterShape)
{
    // An ungrouped filter on a 2-group layer: C_I where C_I/G belongs.
    const ConvParams p = makeConv(1, 4, 5, 4, 3);
    const Tensor input = tensor::makeInput(p);
    const Tensor wrong = tensor::makeFilter(p);
    const auto expectNamed = [](const auto &run, const std::string &path) {
        try {
            run();
            ADD_FAILURE() << path << " accepted a C_I-deep filter";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("filter C_I/G is 4 but the layer has 2"),
                      std::string::npos)
                << path << ": " << what;
        }
    };
    expectNamed([&] { tensor::convDirect(p, input, wrong, 2); },
                "convDirect");
    for (const Algorithm *algo : allAlgorithms())
        expectNamed([&] { algo->execute(p, input, wrong, 2); },
                    algo->name());
}

} // namespace
} // namespace cfconv::conv
