/** @file Tests for DRAM access-stream builders (Fig 7 reproduction). */

#include <gtest/gtest.h>

#include "dram/access_pattern.h"
#include "tensor/conv_params.h"

namespace cfconv::dram {
namespace {

using tensor::makeConv;

TEST(TileFillStream, VolumeCoversFootprintInEveryLayout)
{
    // Streams must move at least the footprint; layouts whose strided
    // gathers leave sub-transaction gaps fetch over them (bounded
    // waste), so the volume may exceed the footprint but not wildly.
    ConvParams p = makeConv(4, 8, 9, 4, 3, 2, 1);
    p.dataType = DataType::Fp16;
    const FilterTile tile{1, 1};
    const Bytes footprint =
        static_cast<Bytes>(im2col::tileFillElems(p, tile)) * 2;
    for (Layout layout : {Layout::NCHW, Layout::NHWC, Layout::HWCN,
                          Layout::CHWN}) {
        const Bytes vol = streamBytes(tileFillStream(p, tile, layout));
        EXPECT_GE(vol, footprint) << tensor::layoutName(layout);
        EXPECT_LE(vol, 4 * footprint) << tensor::layoutName(layout);
    }
}

TEST(TileFillStream, WideChannelHwcnStreamsAreExact)
{
    // With C_I*N*elem runs larger than a transaction, the HWCN stream
    // carries zero waste even under stride.
    ConvParams p = makeConv(8, 32, 17, 4, 3, 2, 1);
    p.dataType = DataType::Fp16;
    const FilterTile tile{1, 1};
    const Bytes footprint =
        static_cast<Bytes>(im2col::tileFillElems(p, tile)) * 2;
    EXPECT_EQ(streamBytes(tileFillStream(p, tile, Layout::HWCN)),
              footprint);
}

TEST(TileFillStream, HwcnCoalescesStride1RowsIntoSingleBursts)
{
    // With stride 1 and HWCN, a full footprint row (W x C x N elements)
    // is one contiguous burst.
    const ConvParams p = makeConv(8, 16, 32, 4, 3, 1, 1);
    const auto stream = tileFillStream(p, {1, 1}, Layout::HWCN);
    // One request per touched input row (or fewer if rows merge).
    EXPECT_LE(stream.size(), static_cast<size_t>(p.inH));
}

TEST(TileFillStream, ChwWastesBandwidthUnderStride)
{
    // At stride 2 the CHW gather fetches over the skipped pixels,
    // roughly doubling the moved bytes (Fig 7's motivation).
    const ConvParams p = makeConv(8, 16, 32, 4, 3, 2, 1);
    const Bytes hwcn =
        streamBytes(tileFillStream(p, {1, 1}, Layout::HWCN));
    const Bytes nchw =
        streamBytes(tileFillStream(p, {1, 1}, Layout::NCHW));
    EXPECT_GT(nchw, static_cast<Bytes>(1.5 * hwcn));
}

TEST(TileFillStream, HwcFasterThanChwOnDramModel)
{
    // The headline claim of Fig 7: HWC fills beat CHW fills.
    const ConvParams p = makeConv(8, 32, 56, 4, 3, 2, 1);
    DramModel model(DramConfig::hbm700());
    const Cycles hwcn =
        model.service(tileFillStream(p, {1, 1}, Layout::HWCN));
    const Cycles nchw =
        model.service(tileFillStream(p, {1, 1}, Layout::NCHW));
    EXPECT_LT(2 * hwcn, nchw);
}

TEST(TileFillStream, StrideShrinksStreamVolume)
{
    // Wide channels so strided HWCN runs exceed the transaction size.
    const ConvParams s1 = makeConv(1, 32, 33, 4, 3, 1, 1);
    const ConvParams s2 = makeConv(1, 32, 33, 4, 3, 2, 1);
    const Bytes b1 = streamBytes(tileFillStream(s1, {1, 1}, Layout::HWCN));
    const Bytes b2 = streamBytes(tileFillStream(s2, {1, 1}, Layout::HWCN));
    EXPECT_NEAR(static_cast<double>(b1) / static_cast<double>(b2), 4.0,
                0.6);
}

TEST(StreamBytes, EmptyStreamIsZero)
{
    EXPECT_EQ(streamBytes({}), 0u);
}

} // namespace
} // namespace cfconv::dram
