/**
 * @file
 * sim::Accelerator adapter over the GPU tensor-core simulator.
 * Backend-specific run knobs (kernel algorithm, inter-tile reuse,
 * vendor tuning) are fixed at construction; grouped layers run one
 * kernel per group slice (tensor::groupSlice(), the one group rule),
 * and GPU-only result fields are exported through
 * LayerRecord::extras ("memoryBound", "computeSeconds",
 * "memorySeconds", "transformSeconds").
 */

#ifndef CFCONV_SIM_GPU_ACCELERATOR_H
#define CFCONV_SIM_GPU_ACCELERATOR_H

#include <string>

#include "gpusim/gpu_sim.h"
#include "sim/accelerator.h"

namespace cfconv::sim {

class GpuAccelerator : public Accelerator
{
  public:
    GpuAccelerator(std::string name, const gpusim::GpuConfig &config,
                   const gpusim::GpuRunOptions &options = {});

    std::string name() const override { return name_; }
    double peakTflops() const override;
    LayerRecord runLayer(const ConvParams &params,
                         const RunOptions &options = {}) const override;
    StatGroup cacheStats() const override;
    const conv::Algorithm *algorithm() const override;

  private:
    std::string name_;
    gpusim::GpuSim sim_;
    gpusim::GpuRunOptions options_;
};

} // namespace cfconv::sim

#endif // CFCONV_SIM_GPU_ACCELERATOR_H
