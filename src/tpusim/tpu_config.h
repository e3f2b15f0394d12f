/**
 * @file
 * TPU-v2-like core configuration (Table II): 128x128 weight-stationary
 * systolic array at 700 MHz, 32 MB unified on-chip memory organized as
 * 128 single-port vector memories with 8-element (32-byte) words, fed by
 * ~700 GB/s HBM.
 */

#ifndef CFCONV_TPUSIM_TPU_CONFIG_H
#define CFCONV_TPUSIM_TPU_CONFIG_H

#include "common/config.h"
#include "dram/dram_model.h"
#include "sram/vector_memory.h"
#include "systolic/systolic_timing.h"

namespace cfconv::tpusim {

/** Full configuration of one simulated TPU core. Each PE row reads
 *  its own single-port vector memory, so there are array.rows of them
 *  (Sec. IV, Table II). */
struct TpuConfig
{
    systolic::SystolicConfig array{};      ///< 128 x 128 by default
    /**
     * Matrix units sharing the vector memories. TPU-v3 adds a second
     * systolic array to use the port bandwidth an 8-element word
     * leaves idle (Fig 16b's closing insight); compute throughput
     * scales until the single-port vector memories saturate.
     */
    Index mxus = 1;
    double clockGhz = 0.7;                 ///< core clock
    Index wordElems = 8;                   ///< elements per SRAM word
    Bytes elemBytes = 4;                   ///< vector-memory element width
    Bytes onChipBytes = 32ULL * 1024 * 1024; ///< unified SRAM capacity
    /** Fixed per-invocation overhead (dispatch, sync) in core cycles. */
    Cycles invokeOverheadCycles = 1400;
    dram::DramConfig dram = dram::DramConfig::hbm700();

    /** Capacity of one vector memory: one per PE row. */
    Bytes
    perArrayBytes() const
    {
        return onChipBytes / static_cast<Bytes>(array.rows);
    }

    /** Peak MAC throughput in TFLOPS (2 flops per MAC). */
    double
    peakTflops() const
    {
        return 2.0 * static_cast<double>(mxus) *
               static_cast<double>(array.rows) *
               static_cast<double>(array.cols) * clockGhz / 1e3;
    }

    /** Convert core cycles to seconds. */
    double
    cyclesToSeconds(Cycles cycles) const
    {
        return static_cast<double>(cycles) / (clockGhz * 1e9);
    }

    /** The published TPU-v2 single-core configuration. */
    static TpuConfig tpuV2();

    /**
     * A TPU-v3-like core: the v2 array with a second matrix unit
     * (using the port bandwidth an 8-element word leaves idle — the
     * Fig 16b insight), a faster clock, and HBM at ~900 GB/s. "ish"
     * because the real v3's full parameters are not public.
     */
    static TpuConfig tpuV3ish();
};

/**
 * Override @p base with keys from a configuration file. Recognized
 * keys: array, clock_ghz, word_elems, elem_bytes, onchip_mb,
 * dram_gbps, invoke_overhead_cycles, mxus. INVALID_ARGUMENT names an
 * unknown key, so typos surface, or a key and the value that does not
 * parse or lies out of range: array, word_elems, elem_bytes, mxus and
 * onchip_mb must be at least 1, clock_ghz and dram_gbps finite and
 * above 0, and invoke_overhead_cycles at least 0.
 */
StatusOr<TpuConfig> tpuConfigFrom(const Config &config,
                                  TpuConfig base = TpuConfig::tpuV2());

} // namespace cfconv::tpusim

#endif // CFCONV_TPUSIM_TPU_CONFIG_H
