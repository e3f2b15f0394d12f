/** @file Unit tests for ConvParams geometry and cost math. */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/logging.h"
#include "tensor/conv_params.h"

namespace cfconv::tensor {
namespace {

TEST(ConvParams, OutputGeometryBasic)
{
    const ConvParams p = makeConv(1, 8, 5, 4, 3);
    EXPECT_EQ(p.outH(), 3);
    EXPECT_EQ(p.outW(), 3);
    EXPECT_EQ(p.gemmM(), 9);
    EXPECT_EQ(p.gemmK(), 72);
    EXPECT_EQ(p.gemmN(), 4);
}

TEST(ConvParams, OutputGeometryStridePad)
{
    // 224x224 k7 s2 p3 -> 112 (ResNet conv1).
    const ConvParams p = makeConv(1, 3, 224, 64, 7, 2, 3);
    EXPECT_EQ(p.outH(), 112);
    EXPECT_EQ(p.outW(), 112);
}

TEST(ConvParams, OutputGeometryDilation)
{
    // Effective kernel = 5 with k3 d2; 9 - 5 + 1 = 5 outputs.
    const ConvParams p = makeConv(1, 1, 9, 1, 3, 1, 0, 2);
    EXPECT_EQ(p.effKernelH(), 5);
    EXPECT_EQ(p.outH(), 5);
}

TEST(ConvParams, FlopsCountsMulAndAdd)
{
    const ConvParams p = makeConv(2, 4, 4, 8, 3, 1, 1);
    // M = 2*4*4 = 32, K = 36, N = 8 -> 2*32*36*8.
    EXPECT_EQ(p.flops(), 2ULL * 32 * 36 * 8);
}

TEST(ConvParams, ByteSizesFollowDataType)
{
    ConvParams p = makeConv(1, 2, 4, 2, 1);
    p.dataType = DataType::Fp16;
    EXPECT_EQ(p.inputBytes(), 2u * 2 * 4 * 4);
    p.dataType = DataType::Fp32;
    EXPECT_EQ(p.inputBytes(), 4u * 2 * 4 * 4);
    p.dataType = DataType::Int8;
    EXPECT_EQ(p.inputBytes(), 1u * 2 * 4 * 4);
}

TEST(ConvParams, LoweredBytesIsMxK)
{
    const ConvParams p = makeConv(1, 8, 6, 4, 3);
    EXPECT_EQ(p.loweredElems(), p.gemmM() * p.gemmK());
}

TEST(ConvParams, PointwiseDetection)
{
    EXPECT_TRUE(makeConv(1, 8, 6, 4, 1).isPointwise());
    EXPECT_FALSE(makeConv(1, 8, 6, 4, 3, 1, 1).isPointwise());
    EXPECT_FALSE(makeConv(1, 8, 6, 4, 1, 2).isPointwise());
}

TEST(ConvParams, ValidateRejectsBadGeometry)
{
    EXPECT_THROW(makeConv(0, 8, 5, 4, 3), FatalError);
    EXPECT_THROW(makeConv(1, 0, 5, 4, 3), FatalError);
    EXPECT_THROW(makeConv(1, 8, 5, 4, 0), FatalError);
    EXPECT_THROW(makeConv(1, 8, 5, 4, 3, 0), FatalError);
    // Kernel larger than padded input.
    EXPECT_THROW(makeConv(1, 8, 3, 4, 5), FatalError);
    // Negative padding.
    EXPECT_THROW(makeConv(1, 8, 5, 4, 3, 1, -1), FatalError);
    // Zero dilation.
    EXPECT_THROW(makeConv(1, 8, 5, 4, 3, 1, 0, 0), FatalError);
}

TEST(ConvParams, ToStringMentionsGeometry)
{
    const ConvParams p = makeConv(2, 16, 28, 32, 3, 2, 1);
    const std::string s = p.toString();
    EXPECT_NE(s.find("C16"), std::string::npos);
    EXPECT_NE(s.find("k3x3"), std::string::npos);
    EXPECT_NE(s.find("s2"), std::string::npos);
    EXPECT_EQ(s, "N2 C16 28x28 k3x3 s2 p1 d1 -> C32 14x14");

    // Stride, padding and dilation print per axis where H and W differ.
    EXPECT_EQ(makeConvRect(64, 128, 57, 57, 128, 3, 3, 1, 2, 0, 27)
                  .toString(),
              "N64 C128 57x57 k3x3 s1x2 p0x27 d1 -> C128 55x55");
    EXPECT_EQ(makeConvRect(1, 8, 16, 16, 8, 3, 3, 1, 1, 1, 2, 1, 2)
                  .toString(),
              "N1 C8 16x16 k3x3 s1 p1x2 d1x2 -> C8 16x16");

    // A data type other than fp16 is appended.
    ConvParams fp32 = p;
    fp32.dataType = DataType::Fp32;
    EXPECT_EQ(fp32.toString(),
              "N2 C16 28x28 k3x3 s2 p1 d1 -> C32 14x14 fp32");
}

TEST(ConvParams, ToStringTellsApartLayersThatCompareUnequal)
{
    // Every W-axis geometry of a small grid, in two data types: two
    // layers that print the same string must be the same layer.
    std::map<std::string, ConvParams> seen;
    for (const DataType type : {DataType::Fp16, DataType::Fp32})
        for (const Index in : {7, 8})
            for (const Index k : {1, 3})
                for (const Index stride : {1, 2})
                    for (const Index pad : {0, 1, 2})
                        for (const Index dilation : {1, 2}) {
                            ConvParams p = makeConvRect(
                                2, 4, 8, in, 4, 3, k, 1, stride, 1, pad,
                                1, dilation);
                            p.dataType = type;
                            const auto [it, fresh] =
                                seen.emplace(p.toString(), p);
                            EXPECT_TRUE(fresh || it->second == p)
                                << it->first;
                        }
    EXPECT_EQ(seen.size(), 96u);
}

struct GeometryCase
{
    Index in, k, s, p, d;
    Index expected_out;
};

class ConvGeometry : public ::testing::TestWithParam<GeometryCase>
{
};

TEST_P(ConvGeometry, MatchesClosedForm)
{
    const GeometryCase c = GetParam();
    ConvParams params;
    params.batch = 1;
    params.inChannels = 1;
    params.inH = params.inW = c.in;
    params.outChannels = 1;
    params.kernelH = params.kernelW = c.k;
    params.strideH = params.strideW = c.s;
    params.padH = params.padW = c.p;
    params.dilationH = params.dilationW = c.d;
    params.validate();
    EXPECT_EQ(params.outH(), c.expected_out);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvGeometry,
    ::testing::Values(GeometryCase{7, 3, 1, 0, 1, 5},
                      GeometryCase{7, 3, 2, 0, 1, 3},
                      GeometryCase{7, 3, 1, 1, 1, 7},
                      GeometryCase{8, 2, 2, 0, 1, 4},
                      GeometryCase{224, 7, 2, 3, 1, 112},
                      GeometryCase{13, 3, 1, 1, 1, 13},
                      GeometryCase{9, 3, 1, 0, 2, 5},
                      GeometryCase{11, 3, 2, 1, 2, 5},
                      GeometryCase{5, 5, 1, 0, 1, 1},
                      GeometryCase{56, 1, 1, 0, 1, 56}));

} // namespace
} // namespace cfconv::tensor
