/** @file Coverage for seams not exercised elsewhere: non-default
 *  layouts through the op library, rectangular arrays, table
 *  rendering, and cross-knob monotonicities. */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/table.h"
#include "gpusim/gpu_sim.h"
#include "systolic/systolic_timing.h"
#include "tensor/conv_params.h"
#include "tensor/nn_ops.h"

namespace cfconv {
namespace {

using tensor::Layout;
using tensor::makeConv;
using tensor::Tensor;

TEST(MiscCoverage, PoolingIsLayoutAgnostic)
{
    Tensor nchw(2, 3, 6, 6, Layout::NCHW);
    nchw.fillRandom(501);
    const Tensor nhwc = nchw.toLayout(Layout::NHWC);
    const Tensor hwcn = nchw.toLayout(Layout::HWCN);
    const Tensor a = tensor::maxPool2d(nchw, {});
    const Tensor b = tensor::maxPool2d(nhwc, {});
    const Tensor c = tensor::maxPool2d(hwcn, {});
    EXPECT_EQ(a.maxAbsDiff(b), 0.0f);
    EXPECT_EQ(a.maxAbsDiff(c), 0.0f);
    // Outputs inherit the input's physical layout.
    EXPECT_EQ(b.layout(), Layout::NHWC);
}

TEST(MiscCoverage, BatchNormPreservesLayout)
{
    Tensor t(1, 2, 4, 4, Layout::HWCN);
    t.fillRandom(503);
    tensor::BatchNormParams bn;
    bn.mean = {0.0f, 0.0f};
    bn.variance = {1.0f, 1.0f};
    const Tensor out = tensor::batchNorm(t, bn);
    EXPECT_EQ(out.layout(), Layout::HWCN);
    EXPECT_LT(out.maxAbsDiff(t), 1e-4f); // identity BN (eps only)
}

TEST(MiscCoverage, RectangularSystolicArraysTimeCorrectly)
{
    systolic::SystolicConfig wide;
    wide.rows = 32;
    wide.cols = 256;
    systolic::SystolicConfig tall;
    tall.rows = 256;
    tall.cols = 32;
    // Same MACs, different tiling: K=256/N=256 needs 8 row-tiles on
    // the wide array but 8 column-tiles on the tall one; pass counts
    // coincide, cycles differ only via fill/drain skew.
    const auto w = systolic::gemmTiming(wide, 1000, 256, 256);
    const auto t = systolic::gemmTiming(tall, 1000, 256, 256);
    EXPECT_EQ(w.macs, t.macs);
    EXPECT_EQ(w.cycles, t.cycles); // symmetric fill/drain terms
}

TEST(MiscCoverage, TablePrintsToStream)
{
    Table tab("smoke");
    tab.setHeader({"a", "b"});
    tab.addRow({"1", "22"});
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    tab.print(tmp);
    std::rewind(tmp);
    char buf[256] = {};
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, tmp);
    std::fclose(tmp);
    ASSERT_GT(n, 0u);
    const std::string out(buf);
    EXPECT_NE(out.find("smoke"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(MiscCoverage, TransformSecondsMonotonicInBatch)
{
    gpusim::GpuSim sim((gpusim::GpuConfig::v100()));
    double prev = 0.0;
    for (Index batch : {1L, 8L, 64L}) {
        const double t = sim.explicitTransformSeconds(
            makeConv(batch, 64, 28, 64, 3, 1, 1));
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(MiscCoverage, ReluAndAddComposeAcrossLayouts)
{
    Tensor a(1, 2, 3, 3, Layout::CHWN);
    Tensor b(1, 2, 3, 3, Layout::NCHW);
    a.fillRandom(511);
    b.fillRandom(513);
    // add() works on logical coordinates regardless of layout.
    const Tensor sum = tensor::add(a, b);
    for (Index c = 0; c < 2; ++c)
        for (Index h = 0; h < 3; ++h)
            for (Index w = 0; w < 3; ++w)
                EXPECT_FLOAT_EQ(sum.at(0, c, h, w),
                                a.at(0, c, h, w) + b.at(0, c, h, w));
    const Tensor r = tensor::relu(sum);
    for (Index i = 0; i < r.size(); ++i)
        EXPECT_GE(r.data()[i], 0.0f);
}

} // namespace
} // namespace cfconv
