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

    /** Serve one request of @p bytes at @p addr, piece by piece. */
    void request(Bytes addr, Bytes bytes);

    /** Skip the whole turns of the banks in the first @p bytes - 1
     *  bytes from the cursor row on; @return the bytes skipped. */
    Bytes skipTurns(Bytes bytes);

    const DramConfig &config_;
    const Index nBanks_;
    const Cycles fullBurst_;
    /**
     * A long request runs bus-bound once it has turned the banks
     * twice: a bank's next access waits on the channel's other
     * banksPerChannel - 1 full bursts, which cover the miss latency.
     */
    const bool turnsSettle_;
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
      turnsSettle_(static_cast<Cycles>(config.banksPerChannel - 1) *
                       fullBurst_ >=
                   config.tPrecharge + config.tActivate + config.tCas),
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
        if (turnsSettle_ && pieces == 2 * nBanks_)
            bytes -= skipTurns(bytes);
    }
}

Bytes
Walk::skipTurns(Bytes bytes)
{
    // Two turns in, every channel's last banksPerChannel accesses were
    // full-row misses sent back to back on its bus, and so is every
    // further one: each whole turn moves every bank and bus by one
    // channel's worth of full bursts and every open row by one. The
    // request's last piece stays on the generic path.
    const Bytes turn_bytes = static_cast<Bytes>(nBanks_) * config_.rowBytes;
    const Bytes turns = (bytes - 1) / turn_bytes;
    if (turns == 0)
        return 0;
    const Cycles shift = static_cast<Cycles>(turns) *
                         static_cast<Cycles>(config_.banksPerChannel) *
                         fullBurst_;
    for (BankState &bank : banks_) {
        bank.ready += shift;
        bank.openRow += static_cast<Index>(turns);
    }
    for (Cycles &bus : busFree_) {
        bus += shift;
        finish = std::max(finish, bus);
    }
    accesses += static_cast<Index>(turns) * nBanks_;
    rowStart_ += turns * turn_bytes;
    row_ += static_cast<Index>(turns);
    return turns * turn_bytes;
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
