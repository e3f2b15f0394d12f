/** @file Tests for filter decomposition and tile footprints. */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "im2col/filter_decomp.h"
#include "tensor/conv_params.h"

namespace cfconv::im2col {
namespace {

using tensor::makeConv;

TEST(DecomposeFilter, EnumeratesRowMajor)
{
    const ConvParams p = makeConv(1, 2, 5, 2, 3);
    const auto tiles = decomposeFilter(p);
    ASSERT_EQ(tiles.size(), 9u);
    EXPECT_EQ(tiles[0], (FilterTile{0, 0}));
    EXPECT_EQ(tiles[1], (FilterTile{0, 1}));
    EXPECT_EQ(tiles[3], (FilterTile{1, 0}));
    EXPECT_EQ(tiles[8], (FilterTile{2, 2}));
}

TEST(TileFootprint, Stride1NoPad)
{
    // 5x5 input, k3: tile <0,0> touches rows/cols [0,3), <2,2> [2,5).
    const ConvParams p = makeConv(1, 1, 5, 1, 3);
    const TileFootprint f00 = tileFootprint(p, {0, 0});
    EXPECT_EQ(f00.ihBegin, 0);
    EXPECT_EQ(f00.ihEnd, 3);
    EXPECT_EQ(f00.positions(), 9);
    const TileFootprint f22 = tileFootprint(p, {2, 2});
    EXPECT_EQ(f22.ihBegin, 2);
    EXPECT_EQ(f22.ihEnd, 5);
    EXPECT_EQ(f22.positions(), 9);
}

TEST(TileFootprint, Stride2MatchesFig8)
{
    // Fig 8a: 5x5 input, k3, stride 2: tile <0,0> covers positions
    // 1A, 1C, 3A, 3C (rows/cols 0 and 2) -> 4 positions with step 2.
    const ConvParams p = makeConv(1, 1, 5, 1, 3, 2);
    const TileFootprint f = tileFootprint(p, {0, 0});
    EXPECT_EQ(f.ihBegin, 0);
    EXPECT_EQ(f.ihStep, 2);
    EXPECT_EQ(f.positions(), 4);
    EXPECT_TRUE(f.contains(0, 2));
    EXPECT_TRUE(f.contains(2, 0));
    EXPECT_FALSE(f.contains(1, 0));
    EXPECT_FALSE(f.contains(0, 4)); // beyond last output column
}

TEST(TileFootprint, PaddingClipsEdges)
{
    // k3 pad1 on 5x5: tile <0,0> would start at ih = -1; the first
    // valid position is ih = 0 for oh = 1.
    const ConvParams p = makeConv(1, 1, 5, 1, 3, 1, 1);
    const TileFootprint f = tileFootprint(p, {0, 0});
    EXPECT_EQ(f.ihBegin, 0);
    EXPECT_EQ(f.ihEnd, 4); // oh = 4 -> ih = 3
    EXPECT_EQ(f.positions(), 16);
}

TEST(TileFootprint, DilationShiftsOffsets)
{
    const ConvParams p = makeConv(1, 1, 9, 1, 3, 1, 0, 2);
    const TileFootprint f = tileFootprint(p, {2, 0});
    EXPECT_EQ(f.ihBegin, 4); // r*dil = 4
    EXPECT_EQ(f.ihEnd, 9);
}

TEST(TileFillElems, ScalesWithChannelsAndBatch)
{
    const ConvParams p = makeConv(4, 8, 5, 2, 3);
    EXPECT_EQ(tileFillElems(p, {0, 0}), 9 * 8 * 4);
}

TEST(TileFillElems, ShrinksQuadraticallyWithStride)
{
    const ConvParams s1 = makeConv(1, 1, 33, 1, 3, 1, 1);
    const ConvParams s2 = makeConv(1, 1, 33, 1, 3, 2, 1);
    const double ratio =
        static_cast<double>(tileFillElems(s1, {1, 1})) /
        static_cast<double>(tileFillElems(s2, {1, 1}));
    EXPECT_NEAR(ratio, 4.0, 0.5);
}

TEST(TileOverlap, AdjacentTilesAtStride1OverlapHeavily)
{
    const ConvParams p = makeConv(1, 1, 99, 1, 3);
    const double ov = tileOverlap(p, {0, 0}, {0, 1});
    EXPECT_GT(ov, 0.95);
}

TEST(TileOverlap, ParityMismatchAtStride2IsZero)
{
    // Stride 2: <0,0> covers even columns, <0,1> odd columns.
    const ConvParams p = makeConv(1, 1, 9, 1, 3, 2);
    EXPECT_EQ(tileOverlap(p, {0, 0}, {0, 1}), 0.0);
}

TEST(TileOverlap, SameParityTilesOverlapAtStride2)
{
    // Sec. V: <0,0> and <0,2> share columns when stride = 2 and the
    // IFMap is large (96% at 99x99).
    const ConvParams p = makeConv(1, 1, 99, 1, 3, 2);
    const double ov = tileOverlap(p, {0, 0}, {0, 2});
    EXPECT_GT(ov, 0.9);
}

TEST(TileOverlap, SelfOverlapIsOne)
{
    const ConvParams p = makeConv(1, 2, 7, 1, 3, 2, 1);
    EXPECT_DOUBLE_EQ(tileOverlap(p, {1, 1}, {1, 1}), 1.0);
}

TEST(InputUnion, FullCoverageAtStride1)
{
    const ConvParams p = makeConv(1, 2, 8, 1, 3, 1, 1);
    EXPECT_EQ(inputUnionPositions(p), 64);
}

TEST(InputUnion, PartialCoverageWhenStrideExceedsKernel)
{
    // k1 s2 touches only every other row/column.
    const ConvParams p = makeConv(1, 1, 8, 1, 1, 2);
    EXPECT_EQ(inputUnionPositions(p), 16);
}

/** The union by marking every input row and column some (output,
 *  tap) pair reads: the oracle of the closed form. */
Index
markedUnionPositions(const ConvParams &params)
{
    std::vector<bool> h_used(static_cast<size_t>(params.inH), false);
    std::vector<bool> w_used(static_cast<size_t>(params.inW), false);
    for (Index r = 0; r < params.kernelH; ++r)
        for (Index oh = 0; oh < params.outH(); ++oh) {
            const Index ih = params.inputRow(oh, r);
            if (ih >= 0 && ih < params.inH)
                h_used[static_cast<size_t>(ih)] = true;
        }
    for (Index s = 0; s < params.kernelW; ++s)
        for (Index ow = 0; ow < params.outW(); ++ow) {
            const Index iw = params.inputCol(ow, s);
            if (iw >= 0 && iw < params.inW)
                w_used[static_cast<size_t>(iw)] = true;
        }
    return std::count(h_used.begin(), h_used.end(), true) *
           std::count(w_used.begin(), w_used.end(), true);
}

TEST(InputUnion, ClosedFormMatchesTheMarkingLoop)
{
    // Every valid axis with H_I <= 40, k <= 7, d <= 4, s <= 5 and
    // p <= 6, along H and along W, the other axis a fixed 3x3/2 on 9.
    Index checked = 0;
    for (Index in = 1; in <= 40; ++in)
        for (Index k = 1; k <= 7; ++k)
            for (Index d = 1; d <= 4; ++d)
                for (Index s = 1; s <= 5; ++s)
                    for (Index pad = 0; pad <= 6; ++pad) {
                        ConvParams along_h;
                        along_h.inH = in;
                        along_h.kernelH = k;
                        along_h.strideH = s;
                        along_h.padH = pad;
                        along_h.dilationH = d;
                        along_h.inW = 9;
                        along_h.kernelW = 3;
                        along_h.strideW = 2;
                        along_h.padW = 1;
                        if (!tensor::checkLayer(along_h).ok())
                            continue;
                        ++checked;
                        ConvParams along_w = along_h;
                        std::swap(along_w.inH, along_w.inW);
                        std::swap(along_w.kernelH, along_w.kernelW);
                        std::swap(along_w.strideH, along_w.strideW);
                        std::swap(along_w.padH, along_w.padW);
                        std::swap(along_w.dilationH, along_w.dilationW);
                        for (const ConvParams &p : {along_h, along_w})
                            EXPECT_EQ(inputUnionPositions(p),
                                      markedUnionPositions(p))
                                << p.toString();
                    }
    EXPECT_EQ(checked, 35510);
}

TEST(InputUnion, BytesScaleWithDtypeChannelsBatch)
{
    ConvParams p = makeConv(3, 5, 8, 1, 3, 1, 1);
    p.dataType = DataType::Fp32;
    EXPECT_EQ(inputUnionBytes(p), 64u * 5 * 3 * 4);
}

TEST(TileFootprint, RejectsOutOfRangeTile)
{
    const ConvParams p = makeConv(1, 1, 5, 1, 3);
    EXPECT_THROW(tileFootprint(p, {3, 0}), FatalError);
    EXPECT_THROW(tileFootprint(p, {0, -1}), FatalError);
}

} // namespace
} // namespace cfconv::im2col
