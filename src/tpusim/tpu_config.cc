#include "tpusim/tpu_config.h"

#include <cmath>
#include <limits>

namespace cfconv::tpusim {

namespace {

/** @p config's integer @p key (@p fallback when absent), at least
 *  @p min and at most @p max. */
StatusOr<long long>
intInRange(const Config &config, const char *key, long long fallback,
           long long min,
           long long max = std::numeric_limits<long long>::max())
{
    CFCONV_ASSIGN_OR_RETURN(const long long value,
                            config.getInt(key, fallback));
    if (value < min)
        return invalidArgumentError(
            "tpu config: %s = %lld is out of range; need at least %lld",
            key, value, min);
    if (value > max)
        return invalidArgumentError(
            "tpu config: %s = %lld is out of range; need at most %lld",
            key, value, max);
    return value;
}

/** @p config's number @p key (@p fallback when absent), finite and
 *  greater than 0. */
StatusOr<double>
positiveDouble(const Config &config, const char *key, double fallback)
{
    CFCONV_ASSIGN_OR_RETURN(const double value,
                            config.getDouble(key, fallback));
    if (!std::isfinite(value) || value <= 0.0)
        return invalidArgumentError(
            "tpu config: %s = %g is out of range; need a finite value > 0",
            key, value);
    return value;
}

} // namespace

TpuConfig
TpuConfig::tpuV2()
{
    TpuConfig c;
    c.array.rows = 128;
    c.array.cols = 128;
    c.clockGhz = 0.7;
    c.wordElems = 8;
    c.elemBytes = 4;
    c.onChipBytes = 32ULL * 1024 * 1024;
    c.dram = dram::DramConfig::hbm700();
    return c;
}

TpuConfig
TpuConfig::tpuV3ish()
{
    TpuConfig c = tpuV2();
    c.mxus = 2;
    c.clockGhz = 0.94;
    c.dram = dram::DramConfig::hbm900();
    return c;
}

StatusOr<TpuConfig>
tpuConfigFrom(const Config &config, TpuConfig base)
{
    TpuConfig c = base;
    CFCONV_ASSIGN_OR_RETURN(
        const long long array,
        intInRange(config, "array", c.array.rows, 1));
    c.array.rows = c.array.cols = static_cast<Index>(array);
    CFCONV_ASSIGN_OR_RETURN(c.clockGhz,
                            positiveDouble(config, "clock_ghz", c.clockGhz));
    CFCONV_ASSIGN_OR_RETURN(
        c.wordElems,
        intInRange(config, "word_elems", c.wordElems, 1));
    CFCONV_ASSIGN_OR_RETURN(
        c.elemBytes,
        intInRange(config, "elem_bytes",
                   static_cast<long long>(c.elemBytes), 1));
    // Bytes are counted in 64 bits, so the capacity in MB stays below
    // 2^44.
    CFCONV_ASSIGN_OR_RETURN(
        const long long onchip_mb,
        intInRange(config, "onchip_mb",
                   static_cast<long long>(c.onChipBytes >> 20), 1,
                   (1LL << 44) - 1));
    c.onChipBytes = static_cast<Bytes>(onchip_mb) << 20;
    CFCONV_ASSIGN_OR_RETURN(
        const double gbps,
        positiveDouble(config, "dram_gbps", c.dram.peakGBps()));
    c.dram.clockGhz *= gbps / c.dram.peakGBps();
    CFCONV_ASSIGN_OR_RETURN(
        c.invokeOverheadCycles,
        intInRange(config, "invoke_overhead_cycles",
                   static_cast<long long>(c.invokeOverheadCycles), 0));
    CFCONV_ASSIGN_OR_RETURN(c.mxus,
                            intInRange(config, "mxus", c.mxus, 1));

    CFCONV_RETURN_IF_ERROR(config.checkAllRead());
    return c;
}

} // namespace cfconv::tpusim
