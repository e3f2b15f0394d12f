/**
 * @file
 * sim::Accelerator adapter over the TPU simulator. Backend-specific
 * run knobs (algorithm, DRAM layout, multi-tile override, ...) are
 * fixed at construction; per-layer calls go through TpuSim's grouped
 * block-diagonal mapping and the tpusim/layer_cache memo cache, and
 * the TPU-only result fields are exported through LayerRecord::extras
 * ("multiTile", "portUtilization", "exposedFillFrac",
 * "peakOnChipBytes", "pjPerMac").
 */

#ifndef CFCONV_SIM_TPU_ACCELERATOR_H
#define CFCONV_SIM_TPU_ACCELERATOR_H

#include <string>

#include "sim/accelerator.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::sim {

class TpuAccelerator : public Accelerator
{
  public:
    TpuAccelerator(std::string name, const tpusim::TpuConfig &config,
                   const tpusim::TpuRunOptions &options = {});

    std::string name() const override { return name_; }
    double peakTflops() const override;
    LayerRecord runLayer(const ConvParams &params,
                         const RunOptions &options = {}) const override;
    StatGroup cacheStats() const override;
    const conv::Algorithm *algorithm() const override;

  private:
    std::string name_;
    tpusim::TpuSim sim_;
    tpusim::TpuRunOptions options_;
};

} // namespace cfconv::sim

#endif // CFCONV_SIM_TPU_ACCELERATOR_H
