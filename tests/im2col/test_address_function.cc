/** @file Tests for the address function every lowering shares
 *  (ConvParams::inputRow / inputCol): the Fig 5 window-major column
 *  stream enumerated from it, and the lowered-matrix cells it names
 *  under both column orders (Fig 6, Table I). */

#include <gtest/gtest.h>

#include <vector>

#include "tensor/conv_ref.h"
#include "tensor/im2col_explicit.h"

#include "../common/explicit_oracle.h"

namespace cfconv::tensor {
namespace {

/** One streamed column: which window, which tap, which input pixel. */
struct StreamedColumn
{
    Index m;      ///< output position (lowered-matrix row)
    Index r, s;   ///< filter tap
    Index ih, iw; ///< input pixel (may lie in the padding halo)
    bool padding; ///< true when (ih, iw) is outside the input
};

/** The basic channel-first scheme's SRAM column stream (Sec. III-A):
 *  cycle t = m * (H_F * W_F) + (r * W_F + s) reads tap <r, s> of
 *  window m, at the pixel the address function names. */
std::vector<StreamedColumn>
windowMajorStream(const ConvParams &p)
{
    std::vector<StreamedColumn> stream;
    for (Index m = 0; m < p.gemmM(); ++m) {
        const RowCoord rc = rowCoord(p, m);
        for (Index r = 0; r < p.kernelH; ++r)
            for (Index s = 0; s < p.kernelW; ++s) {
                const Index ih = p.inputRow(rc.oh, r);
                const Index iw = p.inputCol(rc.ow, s);
                stream.push_back({m, r, s, ih, iw, !p.inInput(ih, iw)});
            }
    }
    return stream;
}

/** How many times the stream reads input pixel (@p ih, @p iw). */
Index
readCount(const std::vector<StreamedColumn> &stream, Index ih, Index iw)
{
    Index count = 0;
    for (const StreamedColumn &col : stream)
        count += col.ih == ih && col.iw == iw;
    return count;
}

/** Non-padding lowered cells per input element, channel- and batch-
 *  independent: explicit im2col's duplication factor (Table I). */
double
duplicationFactor(const ConvParams &p)
{
    Index valid = 0;
    for (Index oh = 0; oh < p.outH(); ++oh)
        for (Index r = 0; r < p.kernelH; ++r)
            for (Index ow = 0; ow < p.outW(); ++ow)
                for (Index s = 0; s < p.kernelW; ++s)
                    valid += p.inInput(p.inputRow(oh, r),
                                       p.inputCol(ow, s));
    return static_cast<double>(valid) /
           static_cast<double>(p.inH * p.inW);
}

TEST(WindowMajorStream, LengthIsWindowsTimesTaps)
{
    const auto p = makeConv(2, 8, 5, 4, 3);
    EXPECT_EQ(static_cast<Index>(windowMajorStream(p).size()),
              p.gemmM() * 9);
}

TEST(WindowMajorStream, FirstNineCyclesMatchFig5Walkthrough)
{
    // Fig 5: 5x5 IFMap, 3x3 filter, no padding. "In the first 9
    // cycles, columns of 1A, 1B, 1C, 2A, 2B, 2C, 3A, 3B, 3C are read
    // out" -- rows 0..2 x cols 0..2 in our indexing.
    const auto p = makeConv(1, 8, 5, 4, 3);
    const auto stream = windowMajorStream(p);
    const Index expected[9][2] = {{0, 0}, {0, 1}, {0, 2}, {1, 0},
                                  {1, 1}, {1, 2}, {2, 0}, {2, 1},
                                  {2, 2}};
    for (size_t t = 0; t < 9; ++t) {
        EXPECT_EQ(stream[t].m, 0);
        EXPECT_EQ(stream[t].ih, expected[t][0]) << "cycle " << t;
        EXPECT_EQ(stream[t].iw, expected[t][1]) << "cycle " << t;
        EXPECT_FALSE(stream[t].padding);
    }
    // "In the next 9 cycles, columns ... 1B, 1C, 1D, ..." -- the
    // window shifts one column right.
    EXPECT_EQ(stream[9].m, 1);
    EXPECT_EQ(stream[9].ih, 0);
    EXPECT_EQ(stream[9].iw, 1);
}

TEST(WindowMajorStream, ReadCountMatchesFig5Multiplicity)
{
    // "all the 1C elements are read three times": pixel (0, 2) of the
    // 5x5 input with a 3x3 filter belongs to windows (0,0), (0,1),
    // (0,2).
    const auto stream = windowMajorStream(makeConv(1, 8, 5, 4, 3));
    EXPECT_EQ(readCount(stream, 0, 2), 3);
    EXPECT_EQ(readCount(stream, 0, 0), 1); // corner
    EXPECT_EQ(readCount(stream, 2, 2), 9); // center
}

TEST(WindowMajorStream, ReadCountMatchesCol2ImMultiplicity)
{
    // The stream's per-pixel read counts are exactly the receptive-
    // field multiplicity computed by col2im over an all-ones matrix.
    const auto p = makeConv(2, 3, 6, 2, 3, 2, 1);
    const auto stream = windowMajorStream(p);
    Matrix ones(p.gemmM(), p.gemmK());
    ones.fill(1.0f);
    const Tensor mult = col2im(p, ones, ColumnOrder::ChannelFirst);
    // col2im multiplicity is per batch sample; the stream reads each
    // pixel once per sample.
    for (Index ih = 0; ih < p.inH; ++ih)
        for (Index iw = 0; iw < p.inW; ++iw)
            EXPECT_FLOAT_EQ(
                static_cast<float>(readCount(stream, ih, iw)),
                mult.at(0, 0, ih, iw) * static_cast<float>(p.batch))
                << "(" << ih << "," << iw << ")";
}

TEST(WindowMajorStream, StreamedAccumulationReproducesConvolution)
{
    // Consuming the stream column by column (rank-1 updates) must
    // reproduce direct convolution -- the execution the TPU performs.
    const auto p = makeConv(2, 3, 6, 4, 3, 2, 1);
    Tensor input = makeInput(p);
    Tensor filter = makeFilter(p);
    input.fillRandom(81);
    filter.fillRandom(83);

    Matrix acc(p.gemmM(), p.gemmN());
    for (const StreamedColumn &col : windowMajorStream(p)) {
        const RowCoord rc = rowCoord(p, col.m);
        for (Index ci = 0; ci < p.inChannels; ++ci) {
            const float v = input.atPadded(rc.n, ci, col.ih, col.iw);
            for (Index co = 0; co < p.outChannels; ++co)
                acc.at(col.m, co) += v * filter.at(co, ci, col.r, col.s);
        }
    }
    EXPECT_LT(foldOutput(p, acc).maxAbsDiff(convDirect(p, input, filter)),
              1e-3f);
}

TEST(WindowMajorStream, PaddingColumnsAreFlagged)
{
    const auto stream = windowMajorStream(makeConv(1, 2, 4, 2, 3, 1, 1));
    // Window (0,0), tap (0,0) reads the halo row above the input.
    EXPECT_TRUE(stream[0].padding);
    EXPECT_EQ(stream[0].ih, -1);
    // Its centre tap reads the first real pixel.
    EXPECT_FALSE(stream[4].padding);
    EXPECT_EQ(stream[4].ih, 0);
    EXPECT_EQ(stream[4].iw, 0);
}

TEST(WindowMajorStream, LastWindowEndsAtThePaddedInputEdge)
{
    // outH()/outW() and the address function agree: the last window's
    // last tap still lies inside the padded input, one window more
    // would not.
    for (const ConvParams &p :
         {makeConv(1, 2, 4, 2, 3), makeConv(1, 2, 9, 2, 3, 2, 1),
          makeConv(1, 1, 11, 1, 3, 3, 1, 2),
          makeConvRect(1, 1, 8, 10, 1, 3, 5, 1, 2, 2, 1)}) {
        const Index last_r = p.kernelH - 1, last_s = p.kernelW - 1;
        EXPECT_LT(p.inputRow(p.outH() - 1, last_r), p.inH + p.padH)
            << p.toString();
        EXPECT_GE(p.inputRow(p.outH(), last_r), p.inH + p.padH)
            << p.toString();
        EXPECT_LT(p.inputCol(p.outW() - 1, last_s), p.inW + p.padW)
            << p.toString();
        EXPECT_GE(p.inputCol(p.outW(), last_s), p.inW + p.padW)
            << p.toString();
    }
}

TEST(AddressFunction, LoweredCellsReadTheAddressedPixel)
{
    // Every explicit lowered cell (m, k) holds the pixel the address
    // function names for its window and tap, under both column orders.
    const ConvParams p = makeConv(2, 3, 6, 4, 3, 2, 1);
    Tensor input = makeInput(p);
    input.fillRandom(31);
    for (ColumnOrder order :
         {ColumnOrder::ChannelLast, ColumnOrder::ChannelFirst}) {
        const Matrix lowered = im2colLower(p, input, order);
        for (Index m = 0; m < p.gemmM(); ++m) {
            const RowCoord rc = rowCoord(p, m);
            for (Index k = 0; k < p.gemmK(); ++k) {
                const ColCoord cc = colCoord(p, order, k);
                EXPECT_EQ(lowered.at(m, k),
                          input.atPadded(rc.n, cc.ci,
                                         p.inputRow(rc.oh, cc.r),
                                         p.inputCol(rc.ow, cc.s)));
            }
        }
    }
}

TEST(AddressFunction, CoordsHonorStridePadDilation)
{
    const ConvParams p = makeConv(1, 2, 9, 1, 3, 2, 1, 2);
    EXPECT_EQ(p.inputRow(0, 1), 0 * 2 - 1 + 1 * 2); // 1
    EXPECT_EQ(p.inputCol(0, 0), 0 * 2 - 1 + 0 * 2); // -1: halo
    EXPECT_EQ(p.inputRow(3, 2), 3 * 2 - 1 + 2 * 2); // 9 = H_I: halo
    EXPECT_FALSE(p.inInput(p.inputRow(0, 1), p.inputCol(0, 0)));
    EXPECT_TRUE(p.inInput(p.inputRow(0, 1), p.inputCol(0, 1)));
    EXPECT_FALSE(p.inInput(p.inputRow(3, 2), p.inputCol(0, 1)));
}

TEST(AddressFunction, PaddingCellsReadZero)
{
    const ConvParams p = makeConv(1, 1, 3, 1, 3, 1, 1);
    Tensor input = makeInput(p);
    input.fill(5.0f);
    const Matrix lowered = im2colLower(p, input, ColumnOrder::ChannelLast);
    EXPECT_EQ(lowered.at(0, 0), 0.0f); // corner halo
    EXPECT_EQ(lowered.at(0, 4), 5.0f); // center
}

TEST(AddressFunction, DuplicationFactorUnpaddedK3)
{
    // 4x4 input, k3, s1, no pad: 4 windows x 9 cells = 36 references
    // over 16 elements -> 2.25.
    EXPECT_NEAR(duplicationFactor(makeConv(1, 1, 4, 1, 3)), 36.0 / 16.0,
                1e-12);
}

TEST(AddressFunction, DuplicationFactorApproachesKernelSizeForLargeInputs)
{
    const double d = duplicationFactor(makeConv(1, 1, 64, 1, 3, 1, 1));
    EXPECT_GT(d, 8.5);
    EXPECT_LE(d, 9.0);
}

TEST(AddressFunction, StrideReducesDuplication)
{
    const double d1 = duplicationFactor(makeConv(1, 1, 16, 1, 3, 1, 1));
    const double d2 = duplicationFactor(makeConv(1, 1, 16, 1, 3, 2, 1));
    EXPECT_GT(d1, 2.0 * d2);
}

TEST(AddressFunction, ColumnPermutationRoundTrips)
{
    // Fig 6: both column orders name the same (r, s, ci) cells.
    const ConvParams p = makeConv(1, 5, 7, 2, 3, 1, 1);
    for (Index k = 0; k < p.gemmK(); ++k) {
        const ColCoord cc = colCoord(p, ColumnOrder::ChannelFirst, k);
        const Index kl =
            colIndex(p, ColumnOrder::ChannelLast, cc.r, cc.s, cc.ci);
        const ColCoord back = colCoord(p, ColumnOrder::ChannelLast, kl);
        EXPECT_EQ(colIndex(p, ColumnOrder::ChannelFirst, back.r, back.s,
                           back.ci),
                  k);
    }
}

TEST(AddressFunction, PermutedColumnsCarrySameValues)
{
    const ConvParams p = makeConv(2, 3, 5, 2, 3);
    Tensor input = makeInput(p);
    input.fillRandom(37);
    const Matrix first = im2colLower(p, input, ColumnOrder::ChannelFirst);
    const Matrix last = im2colLower(p, input, ColumnOrder::ChannelLast);
    for (Index k = 0; k < p.gemmK(); ++k) {
        const ColCoord cc = colCoord(p, ColumnOrder::ChannelFirst, k);
        const Index kl =
            colIndex(p, ColumnOrder::ChannelLast, cc.r, cc.s, cc.ci);
        for (Index m = 0; m < p.gemmM(); m += 3)
            EXPECT_EQ(first.at(m, k), last.at(m, kl));
    }
}

} // namespace
} // namespace cfconv::tensor
