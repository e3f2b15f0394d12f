/** @file The per-element DRAM reference the fill-model tests compare
 *  against: a tile fill built one pixel position at a time, merged into
 *  the stream's tail by appendCoalesced, and a banked walk that prices
 *  every row piece of every request with its own bank lookup. The
 *  library's run-length streams and row-cursor walk must reproduce it
 *  request for request and cycle for cycle. */

#ifndef CFCONV_TESTS_DRAM_DRAM_ORACLE_H
#define CFCONV_TESTS_DRAM_DRAM_ORACLE_H

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "dram/access_pattern.h"
#include "dram/dram_model.h"

namespace cfconv::dram::oracle {

/**
 * Byte address of logical IFMap element (n, c, h, w) for @p layout.
 * Dimension sizes come from @p params.
 */
inline Bytes
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
 * Append [addr, addr+bytes) to @p stream, merging with the tail. Gaps
 * smaller than a DRAM transaction (32 B) are fetched over rather than
 * skipped, as a real memory controller would: this is exactly the
 * bandwidth waste a strided CHW gather pays.
 */
inline void
appendCoalesced(std::vector<Request> &stream, Bytes addr, Bytes bytes)
{
    constexpr Bytes transaction = 32;
    if (!stream.empty()) {
        Request &tail = stream.back();
        const Bytes tail_end = tail.addr + tail.bytes;
        if (addr >= tail.addr && addr <= tail_end + transaction) {
            tail.bytes = std::max(tail_end, addr + bytes) - tail.addr;
            return;
        }
    }
    stream.push_back({addr, bytes});
}

/** The fill stream of @p tile, one appendCoalesced per position. */
inline std::vector<Request>
tileFillStream(const ConvParams &params, const FilterTile &tile,
               Layout layout)
{
    const im2col::TileFootprint fp = im2col::tileFootprint(params, tile);
    const Bytes elem = dataTypeSize(params.dataType);
    std::vector<Request> stream;

    // Iterate the footprint in the layout's own storage order so
    // contiguous runs coalesce into long bursts.
    switch (layout) {
      case Layout::HWCN:
        // (h, w) positions; each position holds C*N contiguous bytes.
        for (Index h = fp.ihBegin; h < fp.ihEnd; h += fp.ihStep)
            for (Index w = fp.iwBegin; w < fp.iwEnd; w += fp.iwStep)
                appendCoalesced(stream, elemAddr(params, layout, 0, 0, h, w),
                                elem * static_cast<Bytes>(
                                    params.inChannels * params.batch));
        break;
      case Layout::NHWC:
        for (Index n = 0; n < params.batch; ++n)
            for (Index h = fp.ihBegin; h < fp.ihEnd; h += fp.ihStep)
                for (Index w = fp.iwBegin; w < fp.iwEnd; w += fp.iwStep)
                    appendCoalesced(
                        stream, elemAddr(params, layout, n, 0, h, w),
                        elem * static_cast<Bytes>(params.inChannels));
        break;
      case Layout::NCHW:
        for (Index n = 0; n < params.batch; ++n)
            for (Index c = 0; c < params.inChannels; ++c)
                for (Index h = fp.ihBegin; h < fp.ihEnd; h += fp.ihStep)
                    for (Index w = fp.iwBegin; w < fp.iwEnd;
                         w += fp.iwStep)
                        appendCoalesced(
                            stream, elemAddr(params, layout, n, c, h, w),
                            elem);
        break;
      case Layout::CHWN:
        for (Index c = 0; c < params.inChannels; ++c)
            for (Index h = fp.ihBegin; h < fp.ihEnd; h += fp.ihStep)
                for (Index w = fp.iwBegin; w < fp.iwEnd; w += fp.iwStep)
                    appendCoalesced(
                        stream, elemAddr(params, layout, 0, c, h, w),
                        elem * static_cast<Bytes>(params.batch));
        break;
    }
    return stream;
}

/** What one service() call reports. */
struct Serviced
{
    Cycles cycles = 0;
    double gbps = 0.0;
    double rowHitRate = 0.0;
};

/**
 * Service @p requests, each of count 1, starting at cycle 0 under
 * @p config, splitting every request at row boundaries and mapping each
 * piece to its (channel, bank, row) on its own.
 */
inline Serviced
service(const DramConfig &config, const std::vector<Request> &requests)
{
    struct BankState
    {
        Index openRow = -1;
        Cycles ready = 0;
    };
    const Index n_banks = config.channels * config.banksPerChannel;
    std::vector<BankState> banks(static_cast<size_t>(n_banks));
    std::vector<Cycles> bus_free(static_cast<size_t>(config.channels), 0);

    Cycles finish = 0;
    Bytes total_bytes = 0;
    Index hits = 0, accesses = 0;

    for (const auto &req : requests) {
        CFCONV_FATAL_IF(req.bytes == 0, "DramModel: zero-length request");
        CFCONV_ASSERT(req.count == 1, "oracle takes single requests");
        // Split the request at row boundaries; each piece is one column
        // access to one bank.
        Bytes addr = req.addr;
        Bytes remaining = req.bytes;
        total_bytes += req.bytes;
        while (remaining > 0) {
            const Bytes row_off = addr % config.rowBytes;
            const Bytes chunk =
                std::min(remaining, config.rowBytes - row_off);

            // Consecutive rows rotate across banks (streams get bank
            // parallelism).
            const Bytes row_id = addr / config.rowBytes;
            const auto bank_idx =
                static_cast<Index>(row_id % static_cast<Bytes>(n_banks));
            const auto global_row =
                static_cast<Index>(row_id / static_cast<Bytes>(n_banks));
            const Index chan = bank_idx % config.channels;

            BankState &bank = banks[static_cast<size_t>(bank_idx)];
            // Activation and CAS proceed inside the bank and overlap
            // with other banks' data transfers; only the data beats
            // serialize on the channel bus. Rows stay open.
            Cycles data_ready = bank.ready;
            if (bank.openRow == global_row) {
                ++hits;
            } else {
                // Conflict: precharge the old row (if any), activate.
                if (bank.openRow >= 0)
                    data_ready += config.tPrecharge;
                data_ready += config.tActivate;
                bank.openRow = global_row;
            }
            data_ready += config.tCas;
            ++accesses;

            const Cycles burst = std::max<Cycles>(
                2, divCeil<Bytes>(chunk, config.busBytesPerCycle));
            const Cycles data_start =
                std::max(bus_free[static_cast<size_t>(chan)], data_ready);
            const Cycles done = data_start + burst;
            bank.ready = done;
            bus_free[static_cast<size_t>(chan)] = done;
            finish = std::max(finish, done);

            addr += chunk;
            remaining -= chunk;
        }
    }

    Serviced out;
    out.cycles = finish;
    if (finish > 0) {
        const double secs = static_cast<double>(finish) /
                            (config.clockGhz * 1e9);
        out.gbps = static_cast<double>(total_bytes) / secs / 1e9;
    }
    out.rowHitRate = accesses > 0
        ? static_cast<double>(hits) / static_cast<double>(accesses)
        : 0.0;
    return out;
}

/** @p runs with every run written out as its single requests. */
inline std::vector<Request>
expand(const std::vector<Request> &runs)
{
    std::vector<Request> out;
    for (const Request &run : runs)
        for (Index i = 0; i < run.count; ++i)
            out.push_back(
                {run.addr + static_cast<Bytes>(i) * run.stride, run.bytes});
    return out;
}

} // namespace cfconv::dram::oracle

#endif // CFCONV_TESTS_DRAM_DRAM_ORACLE_H
