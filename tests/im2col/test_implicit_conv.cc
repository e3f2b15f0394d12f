/** @file Property tests: the host engine equals direct convolution,
 *  and multi-tile merging on it is exact. */

#include <gtest/gtest.h>

#include <ostream>

#include "im2col/implicit_conv.h"
#include "tensor/conv_ref.h"
#include "tensor/microkernel.h"

#include "../common/determinism.h"
#include "../conv/awkward_shapes.h"

namespace cfconv::im2col {
namespace {

using tensor::makeConv;
using tensor::makeFilter;
using tensor::makeInput;

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
    const ImplicitCase c = GetParam();
    const ConvParams p =
        makeConv(c.batch, c.ci, c.hw, c.co, c.k, c.s, c.p, c.d);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    input.fillRandom(101);
    filter.fillRandom(103);

    ImplicitConvOptions options;
    options.tilesPerGroup = c.tiles;
    options.order = c.order;
    ImplicitConvStats stats;
    const tensor::Tensor out =
        convImplicit(p, input, filter, options, &stats);
    const tensor::Tensor ref = tensor::convDirect(p, input, filter);
    EXPECT_LT(out.maxAbsDiff(ref), 1e-3f) << p.toString();
    EXPECT_GT(stats.tileGemms, 0);
    EXPECT_EQ(stats.macFlops >= p.flops(), true);
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

TEST(ImplicitConv, StatsReflectMultiTileMerging)
{
    const ConvParams p = makeConv(1, 4, 8, 4, 3, 1, 1);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    input.fillRandom(1);
    filter.fillRandom(2);

    ImplicitConvStats s1, s3;
    convImplicit(p, input, filter, {1, TileOrder::Naive}, &s1);
    convImplicit(p, input, filter, {3, TileOrder::Naive}, &s3);
    EXPECT_EQ(s1.tileGemms, 9);
    EXPECT_EQ(s3.tileGemms, 3);
    // Same data volume enters the GEMMs either way.
    EXPECT_EQ(s1.fillElems, s3.fillElems);
    // But the merged operand is T times wider.
    EXPECT_NEAR(static_cast<double>(s3.peakWorkspace) /
                    static_cast<double>(s1.peakWorkspace),
                3.0, 1e-9);
}

TEST(ImplicitConv, EveryTilesPerGroupIsBitIdentical)
{
    // Sec. IV-B calls multi-tile merging correct by associativity. On
    // the one engine it is exact: every T in 1..W_F accumulates each
    // output in the same tap order, at 1 and 4 threads, on every
    // available kernel backend.
    forEachKernelBackend([](tensor::KernelBackend backend) {
        const char *kernel = tensor::kernelBackendName(backend);
        for (const ConvParams &p : conv::awkwardShapes()) {
            tensor::Tensor input = makeInput(p);
            tensor::Tensor filter = makeFilter(p);
            input.fillRandom(61);
            filter.fillRandom(67);
            const tensor::Tensor ref = [&] {
                ScopedThreads st(1);
                return convImplicit(p, input, filter);
            }();
            for (Index t = 1; t <= p.kernelW; ++t)
                for (const Index n : {1, 4}) {
                    ScopedThreads st(n);
                    EXPECT_TRUE(sameBytes(
                        ref, convImplicit(p, input, filter,
                                          {t, TileOrder::Naive})))
                        << "T = " << t << " (" << kernel << ") at " << n
                        << " threads on " << p.toString();
                }
        }
    });
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
    ImplicitConvStats stats;
    const tensor::Tensor out =
        convImplicitTpuStrategy(p, input, filter, 128, &stats);
    // T = MIN(128/8, 3) = 3 -> ceil(9/3) = 3 merged GEMMs.
    EXPECT_EQ(stats.tileGemms, 3);
    const tensor::Tensor ref = tensor::convDirect(p, input, filter);
    EXPECT_LT(out.maxAbsDiff(ref), 1e-3f);
}

TEST(ImplicitConv, RejectsBadOptions)
{
    const ConvParams p = makeConv(1, 2, 5, 2, 3);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    EXPECT_THROW(convImplicit(p, input, filter, {0, TileOrder::Naive}),
                 FatalError);
}

TEST(ImplicitConv, FillElemsShrinkWithStride)
{
    // The stride-insensitivity argument: per-tile fills shrink with
    // stride^2 just like the compute does.
    const ConvParams s1 = makeConv(1, 4, 33, 4, 3, 1, 1);
    const ConvParams s2 = makeConv(1, 4, 33, 4, 3, 2, 1);
    tensor::Tensor in1 = makeInput(s1), f1 = makeFilter(s1);
    tensor::Tensor in2 = makeInput(s2), f2 = makeFilter(s2);
    in1.fillRandom(9);
    f1.fillRandom(10);
    in2.fillRandom(9);
    f2.fillRandom(10);
    ImplicitConvStats st1, st2;
    convImplicit(s1, in1, f1, {}, &st1);
    convImplicit(s2, in2, f2, {}, &st2);
    const double fill_ratio = static_cast<double>(st1.fillElems) /
                              static_cast<double>(st2.fillElems);
    const double flop_ratio = static_cast<double>(s1.flops()) /
                              static_cast<double>(s2.flops());
    EXPECT_NEAR(fill_ratio, flop_ratio, flop_ratio * 0.2);
}

} // namespace
} // namespace cfconv::im2col
