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

Cycles
DramModel::service(const std::vector<Request> &requests)
{
    const Index n_banks = config_.channels * config_.banksPerChannel;
    std::vector<BankState> banks(static_cast<size_t>(n_banks));
    std::vector<Cycles> bus_free(static_cast<size_t>(config_.channels), 0);

    Cycles finish = 0;
    Bytes total_bytes = 0;
    Index hits = 0, accesses = 0;

    for (const auto &req : requests) {
        CFCONV_FATAL_IF(req.bytes == 0, "DramModel: zero-length request");
        // Split the request at row boundaries; each piece is one column
        // access to one bank.
        Bytes addr = req.addr;
        Bytes remaining = req.bytes;
        total_bytes += req.bytes;
        while (remaining > 0) {
            const Bytes row_off = addr % config_.rowBytes;
            const Bytes chunk =
                std::min(remaining, config_.rowBytes - row_off);

            // Address mapping: interleaved rotates consecutive rows
            // across banks (streams get bank parallelism); contiguous
            // gives each bank a fixed region (streams serialize on one
            // bank).
            const Bytes row_id = addr / config_.rowBytes;
            Index bank_idx, global_row;
            if (config_.mapping == AddressMapping::RowInterleaved) {
                bank_idx = static_cast<Index>(
                    row_id % static_cast<Bytes>(n_banks));
                global_row = static_cast<Index>(
                    row_id / static_cast<Bytes>(n_banks));
            } else {
                // Split the address space evenly across banks.
                const Bytes per_bank = std::max<Bytes>(
                    1, (16ULL << 30) / static_cast<Bytes>(n_banks) /
                           config_.rowBytes);
                bank_idx = static_cast<Index>(
                    std::min<Bytes>(row_id / per_bank,
                                    static_cast<Bytes>(n_banks - 1)));
                global_row =
                    static_cast<Index>(row_id % per_bank);
            }
            const Index chan = bank_idx % config_.channels;

            BankState &bank = banks[static_cast<size_t>(bank_idx)];
            // Activation and CAS proceed inside the bank and overlap
            // with other banks' data transfers; only the data beats
            // serialize on the channel bus.
            Cycles data_ready = bank.ready;
            if (config_.pagePolicy == PagePolicy::Closed) {
                // Auto-precharged: every access activates, none pays
                // an explicit precharge, and no row ever hits.
                data_ready += config_.tActivate;
            } else if (bank.openRow == global_row) {
                ++hits;
            } else {
                // Conflict: precharge the old row (if any), activate.
                if (bank.openRow >= 0)
                    data_ready += config_.tPrecharge;
                data_ready += config_.tActivate;
                bank.openRow = global_row;
            }
            data_ready += config_.tCas;
            ++accesses;

            const Cycles burst = std::max<Cycles>(
                2, divCeil<Bytes>(chunk, config_.busBytesPerCycle));
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

    if (finish > 0) {
        const double secs = cyclesToSeconds(finish);
        lastGBps_ = static_cast<double>(total_bytes) / secs / 1e9;
    } else {
        lastGBps_ = 0.0;
    }
    lastRowHitRate_ = accesses > 0
        ? static_cast<double>(hits) / static_cast<double>(accesses)
        : 0.0;
    return finish;
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
    memoKeyAppendInt(key, static_cast<long long>(config.pagePolicy));
    memoKeyAppendInt(key, static_cast<long long>(config.mapping));
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
