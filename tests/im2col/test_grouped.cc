/** @file Tests for grouped / depthwise convolution. */

#include <gtest/gtest.h>

#include "im2col/grouped.h"
#include "tensor/conv_ref.h"

namespace cfconv::im2col {
namespace {

using tensor::makeConv;
using tensor::Tensor;

GroupedConvParams
makeGrouped(Index batch, Index ci, Index hw, Index co, Index k,
            Index groups, Index stride = 1, Index pad = 0)
{
    GroupedConvParams p;
    p.base = makeConv(batch, ci, hw, co, k, stride, pad);
    p.groups = groups;
    p.validate();
    return p;
}

Tensor
makeGroupFilter(const GroupedConvParams &p, std::uint64_t seed)
{
    Tensor f(p.base.outChannels, p.groupParams().inChannels,
             p.base.kernelH, p.base.kernelW);
    f.fillRandom(seed);
    return f;
}

TEST(GroupedConv, OneGroupEqualsRegularConvolution)
{
    const GroupedConvParams p = makeGrouped(2, 4, 6, 6, 3, 1, 1, 1);
    Tensor input = tensor::makeInput(p.base);
    input.fillRandom(111);
    const Tensor filter = makeGroupFilter(p, 113);
    const Tensor grouped = convGroupedDirect(p, input, filter);
    const Tensor regular = tensor::convDirect(p.base, input, filter);
    EXPECT_LT(grouped.maxAbsDiff(regular), 1e-4f);
}

TEST(GroupedConv, GroupsAreChannelIndependent)
{
    // With 2 groups, output channels of group 0 must not change when
    // only group-1 input channels change.
    const GroupedConvParams p = makeGrouped(1, 4, 5, 4, 3, 2);
    Tensor input = tensor::makeInput(p.base);
    input.fillRandom(117);
    const Tensor filter = makeGroupFilter(p, 119);
    const Tensor base_out = convGroupedDirect(p, input, filter);

    // Perturb a group-1 channel.
    input.at(0, 3, 2, 2) += 10.0f;
    const Tensor new_out = convGroupedDirect(p, input, filter);
    for (Index h = 0; h < base_out.h(); ++h)
        for (Index w = 0; w < base_out.w(); ++w) {
            EXPECT_EQ(new_out.at(0, 0, h, w), base_out.at(0, 0, h, w));
            EXPECT_EQ(new_out.at(0, 1, h, w), base_out.at(0, 1, h, w));
        }
    // And group-1 outputs do change.
    float diff = 0.0f;
    for (Index h = 0; h < base_out.h(); ++h)
        for (Index w = 0; w < base_out.w(); ++w)
            diff += std::abs(new_out.at(0, 2, h, w) -
                             base_out.at(0, 2, h, w));
    EXPECT_GT(diff, 0.0f);
}

struct GroupCase
{
    Index batch, ci, hw, co, k, groups, stride, pad;
};

class GroupedSweep : public ::testing::TestWithParam<GroupCase>
{
};

TEST_P(GroupedSweep, ImplicitEqualsDirect)
{
    const GroupCase c = GetParam();
    const GroupedConvParams p =
        makeGrouped(c.batch, c.ci, c.hw, c.co, c.k, c.groups, c.stride,
                    c.pad);
    Tensor input = tensor::makeInput(p.base);
    input.fillRandom(121);
    const Tensor filter = makeGroupFilter(p, 123);

    const Tensor direct = convGroupedDirect(p, input, filter);
    const Tensor implicit = convGroupedImplicit(p, input, filter);
    EXPECT_LT(implicit.maxAbsDiff(direct), 1e-3f)
        << p.base.toString() << " G=" << c.groups;
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
    const GroupedConvParams g1 = makeGrouped(1, 8, 8, 8, 3, 1, 1, 1);
    const GroupedConvParams g4 = makeGrouped(1, 8, 8, 8, 3, 4, 1, 1);
    EXPECT_EQ(g1.flops(), 4 * g4.flops());
}

TEST(GroupedConv, DepthwiseRowOccupancyIsPoor)
{
    // Depthwise (C_I/G = 1): even with the multi-tile optimization
    // (capped at W_F = 3), only 3 of 128 rows work — the honest
    // limitation of the channel-first schedule for depthwise layers.
    const GroupedConvParams dw = makeGrouped(1, 64, 16, 64, 3, 64, 1,
                                             1);
    const double occ = groupedRowOccupancy(dw, 128);
    EXPECT_NEAR(occ, 3.0 / 128.0, 1e-9);

    // A 4-group layer with C_I/G = 16 fills 48 rows.
    const GroupedConvParams g4 = makeGrouped(1, 64, 16, 64, 3, 4, 1,
                                             1);
    EXPECT_NEAR(groupedRowOccupancy(g4, 128), 48.0 / 128.0, 1e-9);
}

TEST(GroupedConv, RejectsIndivisibleChannels)
{
    GroupedConvParams p;
    p.base = makeConv(1, 6, 5, 6, 3);
    p.groups = 4;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(GroupedConv, RejectsWrongFilterShape)
{
    const GroupedConvParams p = makeGrouped(1, 4, 5, 4, 3, 2);
    Tensor input = tensor::makeInput(p.base);
    Tensor wrong(p.base.outChannels, p.base.inChannels, 3, 3);
    EXPECT_THROW(convGroupedDirect(p, input, wrong), FatalError);
}

} // namespace
} // namespace cfconv::im2col
