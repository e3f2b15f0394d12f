/** @file Property tests for rectangular / per-axis-asymmetric
 *  convolutions across the whole lowering stack. */

#include <gtest/gtest.h>

#include "conv/algorithm.h"
#include "im2col/conv_backward.h"
#include "im2col/filter_decomp.h"
#include "tensor/conv_ref.h"
#include "tensor/im2col_explicit.h"
#include "tpusim/functional_core.h"

#include "../common/explicit_oracle.h"

namespace cfconv::tensor {
namespace {

struct RectCase
{
    Index ih, iw, kh, kw, sh, sw, ph, pw, dh, dw;
};

class AsymmetricConv : public ::testing::TestWithParam<RectCase>
{
  protected:
    ConvParams
    params() const
    {
        const RectCase c = GetParam();
        return makeConvRect(2, 3, c.ih, c.iw, 4, c.kh, c.kw, c.sh,
                            c.sw, c.ph, c.pw, c.dh, c.dw);
    }
};

TEST_P(AsymmetricConv, ExplicitLoweringEqualsDirect)
{
    const ConvParams p = params();
    Tensor input = makeInput(p);
    Tensor filter = makeFilter(p);
    input.fillRandom(91);
    filter.fillRandom(93);
    const Tensor ref = convDirect(p, input, filter);
    for (ColumnOrder order :
         {ColumnOrder::ChannelLast, ColumnOrder::ChannelFirst}) {
        EXPECT_LT(convExplicitIm2col(p, input, filter, order)
                      .maxAbsDiff(ref),
                  1e-3f)
            << p.toString();
    }
}

TEST_P(AsymmetricConv, ImplicitEngineEqualsDirect)
{
    const ConvParams p = params();
    Tensor input = makeInput(p);
    Tensor filter = makeFilter(p);
    input.fillRandom(95);
    filter.fillRandom(97);
    const Tensor ref = convDirect(p, input, filter);
    for (const conv::Algorithm *algo : conv::allAlgorithms()) {
        if (algo->supports(p, 1).ok()) {
            EXPECT_LT(algo->execute(p, input, filter).maxAbsDiff(ref),
                      1e-3f)
                << algo->name() << " on " << p.toString();
        }
    }
    // Multi-tile merging on the functional TPU core.
    const conv::Algorithm &channel_first =
        *conv::findAlgorithm(conv::AlgorithmId::ChannelFirst);
    tpusim::FunctionalTpuCore core(9, 4, 2);
    for (Index tiles : {1L, 2L, 3L})
        EXPECT_LT(core.runConv(channel_first, *channel_first.plan(p), p,
                               input, filter, tiles)
                      .output.maxAbsDiff(ref),
                  1e-3f)
            << p.toString() << " tiles " << tiles;
}

TEST_P(AsymmetricConv, BackwardPassesMatchDirect)
{
    const ConvParams p = params();
    Tensor input = makeInput(p);
    Tensor filter = makeFilter(p);
    input.fillRandom(99);
    filter.fillRandom(101);
    Tensor grad_out(p.batch, p.outChannels, p.outH(), p.outW());
    grad_out.fillRandom(103);

    EXPECT_LT(im2col::convBackwardDataImplicit(p, grad_out, filter)
                  .maxAbsDiff(im2col::convBackwardDataDirect(
                      p, grad_out, filter)),
              1e-3f);
    EXPECT_LT(im2col::convBackwardFilterImplicit(p, input, grad_out)
                  .maxAbsDiff(im2col::convBackwardFilterDirect(
                      p, input, grad_out)),
              1e-3f);
}

TEST_P(AsymmetricConv, FootprintsRespectPerAxisGeometry)
{
    const ConvParams p = params();
    for (const auto &tile : im2col::decomposeFilter(p)) {
        const auto fp = im2col::tileFootprint(p, tile);
        EXPECT_EQ(fp.ihStep, p.strideH);
        EXPECT_EQ(fp.iwStep, p.strideW);
        EXPECT_GE(fp.ihBegin, 0);
        EXPECT_LE(fp.ihEnd, p.inH);
        EXPECT_GE(fp.iwBegin, 0);
        EXPECT_LE(fp.iwEnd, p.inW);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RectSweep, AsymmetricConv,
    ::testing::Values(
        RectCase{5, 9, 3, 3, 1, 1, 0, 0, 1, 1},   // wide input
        RectCase{9, 5, 3, 3, 1, 1, 1, 1, 1, 1},   // tall input
        RectCase{7, 7, 1, 5, 1, 1, 0, 2, 1, 1},   // 1x5 kernel
        RectCase{7, 7, 5, 1, 1, 1, 2, 0, 1, 1},   // 5x1 kernel
        RectCase{8, 10, 3, 3, 2, 1, 1, 1, 1, 1},  // stride only in H
        RectCase{10, 8, 3, 3, 1, 2, 1, 1, 1, 1},  // stride only in W
        RectCase{9, 11, 3, 3, 2, 3, 1, 0, 1, 1},  // mixed strides
        RectCase{11, 9, 3, 3, 1, 1, 0, 1, 2, 1},  // dilation in H
        RectCase{9, 12, 2, 3, 2, 2, 0, 1, 1, 2},  // everything mixed
        RectCase{6, 6, 2, 4, 1, 2, 1, 2, 1, 1})); // even kernels

TEST(AsymmetricConv, RectBuilderValidates)
{
    EXPECT_NO_THROW(
        makeConvRect(1, 1, 5, 7, 1, 3, 5, 1, 1, 0, 0, 1, 1));
    EXPECT_THROW(makeConvRect(1, 1, 5, 3, 1, 3, 5, 1, 1, 0, 0, 1, 1),
                 FatalError); // kernel wider than input
}

} // namespace
} // namespace cfconv::tensor
