#include "tpusim/tpu_config.h"

namespace cfconv::tpusim {

TpuConfig
TpuConfig::tpuV2()
{
    TpuConfig c;
    c.array.rows = 128;
    c.array.cols = 128;
    c.array.weightLoadOverlapped = true;
    c.clockGhz = 0.7;
    c.vectorMemories = 128;
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
    CFCONV_ASSIGN_OR_RETURN(const long long array,
                            config.getInt("array", c.array.rows));
    c.array.rows = c.array.cols = static_cast<Index>(array);
    c.vectorMemories = c.array.rows;
    CFCONV_ASSIGN_OR_RETURN(c.clockGhz,
                            config.getDouble("clock_ghz", c.clockGhz));
    CFCONV_ASSIGN_OR_RETURN(c.wordElems,
                            config.getInt("word_elems", c.wordElems));
    CFCONV_ASSIGN_OR_RETURN(
        c.elemBytes,
        config.getInt("elem_bytes", static_cast<long long>(c.elemBytes)));
    CFCONV_ASSIGN_OR_RETURN(
        const long long onchip_mb,
        config.getInt("onchip_mb",
                      static_cast<long long>(c.onChipBytes >> 20)));
    c.onChipBytes = static_cast<Bytes>(onchip_mb) << 20;
    CFCONV_ASSIGN_OR_RETURN(
        const double gbps, config.getDouble("dram_gbps", c.dram.peakGBps()));
    c.dram.clockGhz *= gbps / c.dram.peakGBps();
    CFCONV_ASSIGN_OR_RETURN(
        c.invokeOverheadCycles,
        config.getInt("invoke_overhead_cycles",
                      static_cast<long long>(c.invokeOverheadCycles)));
    CFCONV_ASSIGN_OR_RETURN(c.mxus, config.getInt("mxus", c.mxus));

    const auto unused = config.unusedKeys();
    if (!unused.empty())
        return invalidArgumentError("tpu config: unknown key '%s'",
                                    unused.begin()->c_str());
    return c;
}

} // namespace cfconv::tpusim
