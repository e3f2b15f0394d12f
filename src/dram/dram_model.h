/**
 * @file
 * Banked DRAM timing model (the DRAMSim3 stand-in). Models what the paper
 * needs from off-chip memory: a bandwidth envelope plus row-buffer
 * locality, so that HWC-layout tile fills (long contiguous bursts) beat
 * CHW-layout fills (many short, scattered bursts) exactly as in Fig 7.
 * It has one policy, the one an HBM stack streams with: rows stay open
 * until a conflict, and consecutive rows rotate across the banks.
 *
 * The model prices every row piece of every request exactly as a
 * per-piece walk would, but its host cost stays well below one step per
 * piece: a strided run is one Request, requests that stay inside the
 * row the run has open are priced in closed form, and a long request is
 * walked only up to its settle point: 1 + channels x ceil(conflict
 * latency / full-row burst) pieces, 25 on HBM2. Where banksPerChannel
 * - 1 full-row bursts cover a conflict, no later piece can stall on its
 * bank, so the rest is closed per channel and per bank (DESIGN.md §5,
 * closed form 2).
 */

#ifndef CFCONV_DRAM_DRAM_MODEL_H
#define CFCONV_DRAM_DRAM_MODEL_H

#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace cfconv::dram {

/**
 * A run of @p count equal read/write burst requests: request i moves
 * [addr + i * stride, addr + i * stride + bytes). A plain request is a
 * run of one, whose stride is unused; a longer run needs
 * stride >= bytes, so its requests ascend without overlapping.
 */
struct Request
{
    Bytes addr = 0;   ///< byte address of the first request
    Bytes bytes = 0;  ///< transfer length of each request
    Index count = 1;  ///< requests in the run
    Bytes stride = 0; ///< address step between requests (count > 1)
};

/** DRAM device/channel configuration. */
struct DramConfig
{
    Index channels = 4;        ///< independent channels
    Index banksPerChannel = 16;
    Bytes rowBytes = 2048;     ///< row-buffer size per bank
    Bytes busBytesPerCycle = 32; ///< per-channel data-bus width
    Cycles tPrecharge = 16;    ///< close an open row
    Cycles tActivate = 14;     ///< open a row
    Cycles tCas = 14;          ///< column access latency (first beat)
    double clockGhz = 1.37;    ///< DRAM command clock

    /** Peak bandwidth in GB/s across all channels. */
    double
    peakGBps() const
    {
        return static_cast<double>(channels) *
               static_cast<double>(busBytesPerCycle) * clockGhz;
    }

    /** An HBM2-like stack roughly matching TPU-v2's 700 GB/s (Tbl II). */
    static DramConfig hbm700();

    /** An HBM2 stack roughly matching V100's 900 GB/s. */
    static DramConfig hbm900();
};

/** Append every field of @p config to a memo-cache key (common/
 *  memo_cache.h's `value|` format). */
void memoKeyAppend(std::string &key, const DramConfig &config);

/**
 * Banked DRAM model that serves requests strictly in order, each
 * split at row boundaries into one column access per row piece. Row i
 * lives in bank i mod (channels x banksPerChannel), whose channel is
 * that bank mod channels. An open row hits; a conflict pays precharge
 * and activate. Row misses stall only their bank, data transfers
 * serialize on the channel bus, and distinct channels proceed
 * independently.
 */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &config);

    /**
     * Service @p requests (every request of every run, in order)
     * starting at cycle 0; @return finish cycle. A run with zero bytes,
     * a count below one, or more than one request and a stride below
     * its length is fatal.
     */
    Cycles service(const std::vector<Request> &requests);

    /** Convert DRAM cycles to seconds. */
    double
    cyclesToSeconds(Cycles cycles) const
    {
        return static_cast<double>(cycles) / (config_.clockGhz * 1e9);
    }

    /**
     * Effective bandwidth of the last service() call in GB/s (bytes
     * moved over wall-clock cycles).
     */
    double lastEffectiveGBps() const { return lastGBps_; }

    /** Fraction of requests that hit an open row in the last call. */
    double lastRowHitRate() const { return lastRowHitRate_; }

    const DramConfig &config() const { return config_; }

  private:
    DramConfig config_;
    double lastGBps_ = 0.0;
    double lastRowHitRate_ = 0.0;
};

/**
 * Closed-form fill latency in *accelerator-core* cycles for moving
 * @p bytes with a given efficiency. The efficiency factor comes from
 * calibrating against DramModel on the matching access pattern.
 */
Cycles transferCycles(Bytes bytes, double gbps, double core_ghz,
                      double efficiency);

} // namespace cfconv::dram

#endif // CFCONV_DRAM_DRAM_MODEL_H
