#include "dram/access_pattern.h"

#include "common/logging.h"

namespace cfconv::dram {

namespace {

/**
 * Byte address of logical IFMap element (n, c, h, w) for @p layout.
 * Dimension sizes come from @p params.
 */
Bytes
elemAddr(const ConvParams &params, Layout layout, Index n, Index c,
         Index h, Index w)
{
    const Index N = params.batch, C = params.inChannels;
    const Index H = params.inH, W = params.inW;
    Index linear = 0;
    switch (layout) {
      case Layout::NCHW:
        linear = ((n * C + c) * H + h) * W + w;
        break;
      case Layout::NHWC:
        linear = ((n * H + h) * W + w) * C + c;
        break;
      case Layout::HWCN:
        linear = ((h * W + w) * C + c) * N + n;
        break;
      case Layout::CHWN:
        linear = ((c * H + h) * W + w) * N + n;
        break;
    }
    return static_cast<Bytes>(linear) * dataTypeSize(params.dataType);
}

/**
 * Append one footprint row to @p stream: @p count positions @p stride
 * bytes apart, @p bytes each, ascending and at or after the end of
 * every position already in the stream. The result is what appending
 * the positions one at a time would give when each merges with the
 * stream's last request whenever the gap to it is at most a DRAM
 * transaction (32 B): such gaps are fetched over rather than skipped,
 * as a real memory controller would, which is exactly the bandwidth
 * waste a strided CHW gather pays. A row whose gaps are that small is
 * one burst; any other row is one strided run.
 */
void
appendRow(std::vector<Request> &stream, Bytes addr, Bytes bytes,
          Index count, Bytes stride)
{
    constexpr Bytes transaction = 32;
    const bool coalesces = stride - bytes <= transaction;
    if (!stream.empty()) {
        // The row's first position may extend the last request of
        // the stream, which a strided run first gives up.
        const Request tail = stream.back();
        const Bytes last =
            tail.addr + static_cast<Bytes>(tail.count - 1) * tail.stride;
        if (addr <= last + tail.bytes + transaction) {
            if (tail.count > 1) {
                --stream.back().count;
                stream.push_back({last, tail.bytes});
            }
            const Index merged = coalesces ? count : 1;
            Request &into = stream.back();
            into.bytes = addr + static_cast<Bytes>(merged - 1) * stride +
                         bytes - into.addr;
            addr += static_cast<Bytes>(merged) * stride;
            count -= merged;
        }
    }
    if (count == 0)
        return;
    if (coalesces || count == 1)
        stream.push_back(
            {addr, static_cast<Bytes>(count - 1) * stride + bytes});
    else
        stream.push_back({addr, bytes, count, stride});
}

} // namespace

std::vector<Request>
tileFillStream(const ConvParams &params, const FilterTile &tile,
               Layout layout)
{
    const im2col::TileFootprint fp = im2col::tileFootprint(params, tile);
    std::vector<Request> stream;
    if (fp.positions() == 0)
        return stream;
    const Index cols = (fp.iwEnd - fp.iwBegin - 1) / fp.iwStep + 1;
    const Bytes elem = dataTypeSize(params.dataType);
    const auto row = [&](Index n, Index c, Index h, Bytes bytes) {
        appendRow(stream, elemAddr(params, layout, n, c, h, fp.iwBegin),
                  bytes, cols, static_cast<Bytes>(fp.iwStep) * bytes);
    };

    // Walk the footprint in the layout's own storage order, one
    // request per footprint row, so contiguous runs coalesce into long
    // bursts.
    switch (layout) {
      case Layout::HWCN:
        // (h, w) positions; each position holds C*N contiguous bytes.
        for (Index h = fp.ihBegin; h < fp.ihEnd; h += fp.ihStep)
            row(0, 0, h,
                elem * static_cast<Bytes>(params.inChannels *
                                          params.batch));
        break;
      case Layout::NHWC:
        for (Index n = 0; n < params.batch; ++n)
            for (Index h = fp.ihBegin; h < fp.ihEnd; h += fp.ihStep)
                row(n, 0, h,
                    elem * static_cast<Bytes>(params.inChannels));
        break;
      case Layout::NCHW:
        for (Index n = 0; n < params.batch; ++n)
            for (Index c = 0; c < params.inChannels; ++c)
                for (Index h = fp.ihBegin; h < fp.ihEnd; h += fp.ihStep)
                    row(n, c, h, elem);
        break;
      case Layout::CHWN:
        for (Index c = 0; c < params.inChannels; ++c)
            for (Index h = fp.ihBegin; h < fp.ihEnd; h += fp.ihStep)
                row(0, c, h, elem * static_cast<Bytes>(params.batch));
        break;
    }
    return stream;
}

Bytes
streamBytes(const std::vector<Request> &stream)
{
    Bytes total = 0;
    for (const auto &r : stream)
        total += static_cast<Bytes>(r.count) * r.bytes;
    return total;
}

} // namespace cfconv::dram
