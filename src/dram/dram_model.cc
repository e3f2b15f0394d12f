#include "dram/dram_model.h"

#include <algorithm>

#include "common/logging.h"
#include "common/memo_cache.h"

namespace cfconv::dram {

DramConfig
DramConfig::hbm700()
{
    DramConfig c;
    c.channels = 8;
    c.banksPerChannel = 16;
    c.rowBytes = 1024;
    c.busBytesPerCycle = 64;
    c.tPrecharge = 16;
    c.tActivate = 14;
    c.tCas = 14;
    c.clockGhz = 1.37; // 8 ch * 64 B * 1.37 GHz ~= 701 GB/s
    return c;
}

DramConfig
DramConfig::hbm900()
{
    DramConfig c = hbm700();
    c.clockGhz = 1.76; // ~900 GB/s
    return c;
}

DramModel::DramModel(const DramConfig &config) : config_(config)
{
    CFCONV_FATAL_IF(config.channels < 1 || config.banksPerChannel < 1,
                    "DramModel: need at least one channel and bank");
    CFCONV_FATAL_IF(config.rowBytes == 0 || config.busBytesPerCycle == 0,
                    "DramModel: zero row or bus width");
}

namespace {

/**
 * The settle point of a long request: the pieces the walk serves one by
 * one before no later piece of the request can stall on its bank. A
 * bank's ready time never passes its channel's bus time, and a bus only
 * moves forward. Let K = ceil(maxLat / fullBurst), where maxLat =
 * tPrecharge + tActivate + tCas is the slowest access. Once every
 * channel has carried K full rows of the request, a bank the request
 * has not touched yet is at least maxLat behind its bus. A bank it has
 * touched has since waited for its channel's other banksPerChannel - 1
 * pieces, all full rows, which cover maxLat whenever
 * (banksPerChannel - 1) * fullBurst >= maxLat. The first piece may be
 * partial, so the walk serves 1 + channels * K pieces; when the banks
 * do not cover a miss it serves every piece (@return 0).
 */
Index
settlePieces(const DramConfig &config, Cycles full_burst)
{
    const Cycles max_lat = config.tPrecharge + config.tActivate + config.tCas;
    if (static_cast<Cycles>(config.banksPerChannel - 1) * full_burst <
        max_lat)
        return 0;
    return 1 + config.channels *
                   static_cast<Index>(divCeil(max_lat, full_burst));
}

/**
 * One service() call's state: every bank and bus, the counters, and a
 * cursor on the DRAM row the last access touched. The cursor steps to
 * the next row by adding, so only a request that starts outside its
 * row and the next pays the address-mapping divisions.
 */
class Walk
{
  public:
    explicit Walk(const DramConfig &config);

    /** Serve every request of @p run, in order. */
    void serve(const Request &run);

    Cycles finish = 0;
    Index hits = 0;
    Index accesses = 0;

  private:
    struct BankState
    {
        Index openRow = -1;
        Cycles ready = 0;
    };

    /** Data-bus cycles of one access moving @p bytes. */
    Cycles
    burst(Bytes bytes) const
    {
        return std::max<Cycles>(
            2, divCeil<Bytes>(bytes, config_.busBytesPerCycle));
    }

    /** Point the cursor at the row holding @p addr. */
    void seek(Bytes addr);

    /** Point the cursor at the next row. */
    void step();

    /** One column access moving @p bytes of the cursor row. */
    void access(Bytes bytes);

    /** Serve one request of @p bytes at @p addr: piece by piece up to
     *  the settle point, the rest through closeTail(). */
    void request(Bytes addr, Bytes bytes);

    /** Serve the last @p bytes of a request past the settle point, from
     *  the cursor row on, as the per-piece walk would. Out of line, so
     *  that the walk of short requests stays as compact as it was. */
    [[gnu::noinline]] void closeTail(Bytes bytes);

    const DramConfig &config_;
    const Index nBanks_;
    const Cycles fullBurst_;
    /**
     * The pieces a request walks one by one before the rest of it runs
     * bus-bound, or 0 (never reached) when the banks do not settle:
     * see settlePieces().
     */
    const Index settle_;
    std::vector<BankState> banks_;
    std::vector<Cycles> busFree_;

    Bytes rowStart_ = 0; ///< byte address of the cursor row
    /** The cursor row's bank, its row inside that bank, and the
     *  bank's channel. */
    Index bank_ = 0, row_ = 0, chan_ = 0;
};

Walk::Walk(const DramConfig &config)
    : config_(config), nBanks_(config.channels * config.banksPerChannel),
      fullBurst_(burst(config.rowBytes)),
      settle_(settlePieces(config, fullBurst_)),
      banks_(static_cast<size_t>(nBanks_)),
      busFree_(static_cast<size_t>(config.channels), 0)
{}

void
Walk::seek(Bytes addr)
{
    // Consecutive rows rotate across the banks, so streams get bank
    // parallelism.
    const Bytes row_id = addr / config_.rowBytes;
    rowStart_ = row_id * config_.rowBytes;
    bank_ = static_cast<Index>(row_id % static_cast<Bytes>(nBanks_));
    row_ = static_cast<Index>(row_id / static_cast<Bytes>(nBanks_));
    chan_ = bank_ % config_.channels;
}

void
Walk::step()
{
    rowStart_ += config_.rowBytes;
    // The bank count is a multiple of the channel count, so the
    // channel wraps exactly when the bank does.
    if (++bank_ == nBanks_) {
        bank_ = 0;
        chan_ = 0;
        ++row_;
    } else if (++chan_ == config_.channels) {
        chan_ = 0;
    }
}

void
Walk::access(Bytes bytes)
{
    BankState &bank = banks_[static_cast<size_t>(bank_)];
    // Activation and CAS proceed inside the bank and overlap with
    // other banks' data transfers; only the data beats serialize on
    // the channel bus.
    Cycles data_ready = bank.ready;
    if (bank.openRow == row_) {
        ++hits;
    } else {
        // Conflict: precharge the old row (if any), activate.
        if (bank.openRow >= 0)
            data_ready += config_.tPrecharge;
        data_ready += config_.tActivate;
        bank.openRow = row_;
    }
    data_ready += config_.tCas;
    ++accesses;

    Cycles &bus = busFree_[static_cast<size_t>(chan_)];
    const Cycles done =
        std::max(bus, data_ready) +
        (bytes == config_.rowBytes ? fullBurst_ : burst(bytes));
    bank.ready = done;
    bus = done;
    finish = std::max(finish, done);
}

void
Walk::request(Bytes addr, Bytes bytes)
{
    // Unsigned wrap-around sends addresses below the row to seek too.
    Bytes row_off = addr - rowStart_;
    if (row_off >= config_.rowBytes) {
        if (row_off < 2 * config_.rowBytes) {
            step();
            row_off -= config_.rowBytes;
        } else {
            seek(addr);
            row_off = addr - rowStart_;
        }
    }
    // Split the request at row boundaries; each piece is one column
    // access to one bank.
    for (Index pieces = 1;; ++pieces) {
        const Bytes chunk = std::min(bytes, config_.rowBytes - row_off);
        access(chunk);
        bytes -= chunk;
        if (bytes == 0)
            return;
        step();
        row_off = 0;
        if (pieces == settle_) [[unlikely]] {
            closeTail(bytes);
            return;
        }
    }
}

void
Walk::closeTail(Bytes bytes)
{
    // No piece of the tail stalls (settlePieces()), so each bus moves by
    // its pieces' bursts. The tail is full rows, then a last piece of 1
    // to rowBytes bytes.
    const Bytes full_rows = (bytes - 1) / config_.rowBytes;
    const Index pieces = static_cast<Index>(full_rows) + 1;
    const Index channels = config_.channels;
    const Index first_chan = chan_;
    accesses += pieces;

    // f(bank, bank row) for the n <= nBanks consecutive DRAM rows from
    // bank b, bank row r on.
    BankState *const banks = banks_.data();
    const auto over_rows = [this, banks](Index b, Index r, Index n,
                                         auto f) {
        const Index run = std::min(n, nBanks_ - b);
        for (Index k = 0; k < run; ++k)
            f(banks[b + k], r);
        for (Index k = 0; k < n - run; ++k)
            f(banks[k], r + 1);
    };

    // A bank's later touches in the request are one row further on
    // each, so only a first touch can hit, and only on a bank the
    // walked pieces did not reach.
    Index tail_hits = 0;
    over_rows(bank_, row_, std::min(pieces, nBanks_ - settle_),
              [&tail_hits](const BankState &bank, Index r) {
                  tail_hits += bank.openRow == r ? 1 : 0;
              });
    hits += tail_hits;

    // Point the cursor at the last piece; back(n) is the bank and bank
    // row of the n-th piece from the end.
    const Index last = bank_ + pieces - 1;
    bank_ = last % nBanks_;
    row_ += last / nBanks_;
    chan_ = bank_ % channels;
    rowStart_ += full_rows * config_.rowBytes;
    const auto back = [this](Index n) {
        Index b = bank_ + 1 - n, r = row_;
        if (b < 0) {
            b += nBanks_;
            --r;
        }
        return std::pair<Index, Index>(b, r);
    };

    // The last min(pieces, nBanks) pieces are the last touches of every
    // bank the tail touches: each open row is written once.
    const Index touched = std::min(pieces, nBanks_);
    const auto [open_bank, open_row] = back(touched);
    over_rows(open_bank, open_row, touched,
              [](BankState &bank, Index r) { bank.openRow = r; });

    // A bank maxLat or more behind its bus never delays an access
    // again, so only the last settle-point pieces leave an exact ready
    // time: K = ceil(maxLat / fullBurst) on each channel, and one more
    // on the last piece's channel, where that piece may be partial. The
    // pieces before them move the buses by their full bursts, every
    // channels-th one to each channel from the tail's first on.
    Cycles *const buses = busFree_.data();
    const Index exact = std::min(pieces, settle_);
    const Index bulk = pieces - exact;
    Index chan = first_chan;
    for (Index i = 0; i < channels; ++i) {
        buses[chan] += static_cast<Cycles>(bulk / channels +
                                           (i < bulk % channels ? 1 : 0)) *
                       fullBurst_;
        if (++chan == channels)
            chan = 0;
    }
    Index bank = back(exact).first;
    chan = bank % channels;
    for (Index i = 1; i < exact; ++i) {
        banks[bank].ready = buses[chan] += fullBurst_;
        if (++bank == nBanks_)
            bank = 0;
        if (++chan == channels)
            chan = 0;
    }
    banks[bank].ready = buses[chan] +=
        burst(bytes - full_rows * config_.rowBytes);
    for (Index c = 0; c < channels; ++c)
        finish = std::max(finish, buses[c]);
}

void
Walk::serve(const Request &run)
{
    const Cycles in_row_burst = burst(run.bytes);
    for (Index i = 0; i < run.count;) {
        const Bytes addr = run.addr + static_cast<Bytes>(i) * run.stride;
        request(addr, run.bytes);
        if (++i == run.count)
            return;
        // The run's next requests that lie wholly inside the row the
        // last one ended in go to the same bank while the channel is
        // otherwise idle: each hits and adds tCas plus its burst.
        const Bytes next = addr + run.stride;
        const Bytes row_end = rowStart_ + config_.rowBytes;
        if (next + run.bytes > row_end)
            continue;
        const Index inside = std::min<Index>(
            run.count - i,
            static_cast<Index>((row_end - run.bytes - next) / run.stride) +
                1);
        BankState &bank = banks_[static_cast<size_t>(bank_)];
        bank.ready +=
            static_cast<Cycles>(inside) * (config_.tCas + in_row_burst);
        busFree_[static_cast<size_t>(chan_)] = bank.ready;
        finish = std::max(finish, bank.ready);
        hits += inside;
        accesses += inside;
        i += inside;
    }
}

} // namespace

Cycles
DramModel::service(const std::vector<Request> &requests)
{
    Walk walk(config_);
    Bytes total_bytes = 0;
    for (const Request &run : requests) {
        CFCONV_FATAL_IF(run.bytes == 0, "DramModel: zero-length request");
        CFCONV_FATAL_IF(run.count < 1, "DramModel: run count %lld < 1",
                        static_cast<long long>(run.count));
        CFCONV_FATAL_IF(run.count > 1 && run.stride < run.bytes,
                        "DramModel: run stride %llu < bytes %llu",
                        static_cast<unsigned long long>(run.stride),
                        static_cast<unsigned long long>(run.bytes));
        total_bytes += static_cast<Bytes>(run.count) * run.bytes;
        walk.serve(run);
    }

    if (walk.finish > 0) {
        const double secs = cyclesToSeconds(walk.finish);
        lastGBps_ = static_cast<double>(total_bytes) / secs / 1e9;
    } else {
        lastGBps_ = 0.0;
    }
    lastRowHitRate_ = walk.accesses > 0
        ? static_cast<double>(walk.hits) /
              static_cast<double>(walk.accesses)
        : 0.0;
    return walk.finish;
}

void
memoKeyAppend(std::string &key, const DramConfig &config)
{
    memoKeyAppendInt(key, config.channels);
    memoKeyAppendInt(key, config.banksPerChannel);
    memoKeyAppendInt(key, static_cast<long long>(config.rowBytes));
    memoKeyAppendInt(key, static_cast<long long>(config.busBytesPerCycle));
    memoKeyAppendInt(key, static_cast<long long>(config.tPrecharge));
    memoKeyAppendInt(key, static_cast<long long>(config.tActivate));
    memoKeyAppendInt(key, static_cast<long long>(config.tCas));
    memoKeyAppendFloat(key, config.clockGhz);
}

Cycles
transferCycles(Bytes bytes, double gbps, double core_ghz,
               double efficiency)
{
    CFCONV_FATAL_IF(gbps <= 0.0 || core_ghz <= 0.0 || efficiency <= 0.0,
                    "transferCycles: non-positive rate");
    const double secs =
        static_cast<double>(bytes) / (gbps * 1e9 * efficiency);
    return static_cast<Cycles>(secs * core_ghz * 1e9 + 0.5);
}

} // namespace cfconv::dram
