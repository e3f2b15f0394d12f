/** @file Unit and property tests for explicit im2col lowering. */

#include <gtest/gtest.h>

#include "tensor/conv_ref.h"
#include "tensor/gemm.h"
#include "tensor/im2col_explicit.h"

#include "../common/explicit_oracle.h"

namespace cfconv::tensor {
namespace {

TEST(RowCoord, DecomposesRowMajorOutput)
{
    const ConvParams p = makeConv(2, 1, 5, 1, 3); // H_O = W_O = 3
    const RowCoord rc = rowCoord(p, 9 + 3 * 1 + 2);
    EXPECT_EQ(rc.n, 1);
    EXPECT_EQ(rc.oh, 1);
    EXPECT_EQ(rc.ow, 2);
}

TEST(ColCoord, ChannelLastOrder)
{
    // k = (ci * H_F + r) * W_F + s for channel-last.
    const ConvParams p = makeConv(1, 4, 5, 1, 3);
    const ColCoord cc = colCoord(p, ColumnOrder::ChannelLast, 2 * 9 + 5);
    EXPECT_EQ(cc.ci, 2);
    EXPECT_EQ(cc.r, 1);
    EXPECT_EQ(cc.s, 2);
}

TEST(ColCoord, ChannelFirstOrder)
{
    // k = (r * W_F + s) * C_I + ci for channel-first.
    const ConvParams p = makeConv(1, 4, 5, 1, 3);
    const ColCoord cc = colCoord(p, ColumnOrder::ChannelFirst, 5 * 4 + 2);
    EXPECT_EQ(cc.ci, 2);
    EXPECT_EQ(cc.r, 1);
    EXPECT_EQ(cc.s, 2);
}

TEST(ColCoord, IndexRoundTripsBothOrders)
{
    const ConvParams p = makeConv(1, 3, 6, 2, 3, 1, 1);
    for (ColumnOrder order :
         {ColumnOrder::ChannelLast, ColumnOrder::ChannelFirst}) {
        for (Index k = 0; k < p.gemmK(); ++k) {
            const ColCoord cc = colCoord(p, order, k);
            EXPECT_EQ(colIndex(p, order, cc.r, cc.s, cc.ci), k);
        }
    }
}

TEST(Im2colLower, MatchesFig1Example)
{
    // 1 channel, 4x4 input, 3x3 kernel, no padding: the lowered matrix
    // rows are the flattened receptive fields.
    const ConvParams p = makeConv(1, 1, 4, 1, 3);
    Tensor input = makeInput(p);
    for (Index h = 0; h < 4; ++h)
        for (Index w = 0; w < 4; ++w)
            input.at(0, 0, h, w) = static_cast<float>(h * 4 + w);

    const Matrix lowered =
        im2colLower(p, input, ColumnOrder::ChannelLast);
    ASSERT_EQ(lowered.rows(), 4);
    ASSERT_EQ(lowered.cols(), 9);
    // Row 0: window anchored at (0, 0).
    const float expected_row0[9] = {0, 1, 2, 4, 5, 6, 8, 9, 10};
    for (Index k = 0; k < 9; ++k)
        EXPECT_EQ(lowered.at(0, k), expected_row0[k]);
    // Row 3: window anchored at (1, 1).
    const float expected_row3[9] = {5, 6, 7, 9, 10, 11, 13, 14, 15};
    for (Index k = 0; k < 9; ++k)
        EXPECT_EQ(lowered.at(3, k), expected_row3[k]);
}

TEST(Im2colLower, ColumnOrdersArePermutationsOfEachOther)
{
    const ConvParams p = makeConv(2, 3, 6, 4, 3, 2, 1);
    Tensor input = makeInput(p);
    input.fillRandom(7);
    const Matrix last = im2colLower(p, input, ColumnOrder::ChannelLast);
    const Matrix first =
        im2colLower(p, input, ColumnOrder::ChannelFirst);
    for (Index k = 0; k < p.gemmK(); ++k) {
        const ColCoord cc = colCoord(p, ColumnOrder::ChannelLast, k);
        const Index kf =
            colIndex(p, ColumnOrder::ChannelFirst, cc.r, cc.s, cc.ci);
        for (Index m = 0; m < p.gemmM(); ++m)
            EXPECT_EQ(last.at(m, k), first.at(m, kf));
    }
}

TEST(Im2colLower, PaddingRegionsAreZero)
{
    const ConvParams p = makeConv(1, 1, 3, 1, 3, 1, 1);
    Tensor input = makeInput(p);
    input.fill(1.0f);
    const Matrix lowered =
        im2colLower(p, input, ColumnOrder::ChannelLast);
    // Corner output (0,0): the top-left 2x2 of its window is padding.
    EXPECT_EQ(lowered.at(0, 0), 0.0f); // (r=0, s=0)
    EXPECT_EQ(lowered.at(0, 4), 1.0f); // (r=1, s=1) = center
}

struct ConvCase
{
    Index batch, ci, hw, co, k, s, p, d;
};

class ExplicitConv : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ExplicitConv, EqualsDirectConvBothOrders)
{
    const ConvCase c = GetParam();
    const ConvParams p =
        makeConv(c.batch, c.ci, c.hw, c.co, c.k, c.s, c.p, c.d);
    Tensor input = makeInput(p);
    Tensor filter = makeFilter(p);
    input.fillRandom(11);
    filter.fillRandom(13);

    const Tensor ref = convDirect(p, input, filter);
    for (ColumnOrder order :
         {ColumnOrder::ChannelLast, ColumnOrder::ChannelFirst}) {
        const Tensor out = convExplicitIm2col(p, input, filter, order);
        EXPECT_LT(out.maxAbsDiff(ref), 1e-3f)
            << p.toString() << " order " << columnOrderName(order);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, ExplicitConv,
    ::testing::Values(ConvCase{1, 1, 4, 1, 3, 1, 0, 1},
                      ConvCase{1, 3, 5, 2, 3, 1, 1, 1},
                      ConvCase{2, 4, 6, 4, 3, 2, 1, 1},
                      ConvCase{1, 2, 8, 3, 5, 1, 2, 1},
                      ConvCase{2, 3, 9, 2, 3, 1, 0, 2},
                      ConvCase{1, 4, 7, 4, 1, 1, 0, 1},
                      ConvCase{3, 2, 6, 2, 2, 2, 0, 1},
                      ConvCase{1, 5, 11, 3, 3, 4, 1, 1},
                      ConvCase{2, 2, 10, 2, 3, 2, 2, 2}));

TEST(FoldOutput, InverseOfRowDecomposition)
{
    const ConvParams p = makeConv(2, 1, 5, 3, 3);
    Matrix gemm_out(p.gemmM(), p.gemmN());
    gemm_out.fillRandom(17);
    const Tensor folded = foldOutput(p, gemm_out);
    for (Index m = 0; m < p.gemmM(); ++m) {
        const RowCoord rc = rowCoord(p, m);
        for (Index co = 0; co < p.gemmN(); ++co)
            EXPECT_EQ(folded.at(rc.n, co, rc.oh, rc.ow),
                      gemm_out.at(m, co));
    }
}

TEST(Col2Im, AccumulatesReceptiveFieldMultiplicity)
{
    // With an all-ones lowered matrix, col2im yields each input
    // element's receptive-field multiplicity.
    const ConvParams p = makeConv(1, 1, 4, 1, 3);
    Matrix lowered(p.gemmM(), p.gemmK());
    lowered.fill(1.0f);
    const Tensor folded =
        col2im(p, lowered, ColumnOrder::ChannelLast);
    // Center 2x2 of a 4x4 input with k3/s1: referenced by all 4 windows.
    EXPECT_EQ(folded.at(0, 0, 1, 1), 4.0f);
    // Corner: referenced once.
    EXPECT_EQ(folded.at(0, 0, 0, 0), 1.0f);
}

TEST(Col2Im, RoundTripMatchesMultiplicityWeighting)
{
    const ConvParams p = makeConv(1, 2, 5, 1, 3, 1, 1);
    Tensor input = makeInput(p);
    input.fillRandom(23);
    const Matrix lowered =
        im2colLower(p, input, ColumnOrder::ChannelFirst);
    const Tensor folded =
        col2im(p, lowered, ColumnOrder::ChannelFirst);

    // Build the multiplicity map with an all-ones lowered matrix.
    Matrix ones(p.gemmM(), p.gemmK());
    ones.fill(1.0f);
    const Tensor mult = col2im(p, ones, ColumnOrder::ChannelFirst);

    for (Index c = 0; c < p.inChannels; ++c)
        for (Index h = 0; h < p.inH; ++h)
            for (Index w = 0; w < p.inW; ++w)
                EXPECT_NEAR(folded.at(0, c, h, w),
                            input.at(0, c, h, w) * mult.at(0, c, h, w),
                            1e-4f);
}

} // namespace
} // namespace cfconv::tensor
