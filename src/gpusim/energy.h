/**
 * @file
 * Energy accounting on top of GpuSim results: the GPU companion of
 * tpusim/energy. Combines the kernel's traffic counters with
 * per-access energy coefficients to report per-layer energy and
 * pJ/MAC, so the v2 RunRecord extras expose the same energy figure on
 * both backends (the TPU side has exported pJ/MAC since the Fig 16b
 * study).
 */

#ifndef CFCONV_GPUSIM_ENERGY_H
#define CFCONV_GPUSIM_ENERGY_H

#include "gpusim/gpu_config.h"
#include "gpusim/gpu_sim.h"

namespace cfconv::gpusim {

/** One FP16 tensor-core multiply-accumulate, pJ (same 45 nm-class
 *  estimate family as sram::kMacPj; tensor cores amortize operand
 *  routing over the 4x4 tile, landing below the scalar MAC). */
constexpr double kGpuMacPj = 0.25;

/** L2-serviced byte moved into shared memory, pJ/B (estimate: long
 *  on-die wires but no off-chip PHY). */
constexpr double kL2PjPerByte = 2.0;

/** Energy breakdown of one simulated kernel. */
struct GpuEnergyReport
{
    double dramPj = 0.0;   ///< off-chip traffic energy
    double l2Pj = 0.0;     ///< L2-to-shared-memory fill energy
    double macPj = 0.0;    ///< tensor-core compute energy
    double totalPj = 0.0;
    double pjPerMac = 0.0; ///< total energy per useful MAC
};

/**
 * Energy for one simulated kernel result. MAC count is recovered from
 * the result's throughput accounting; L2 traffic is estimated from the
 * memory-bound pipeline time serviced at the calibrated L2 bandwidth.
 */
GpuEnergyReport kernelEnergy(const GpuKernelResult &result);

} // namespace cfconv::gpusim

#endif // CFCONV_GPUSIM_ENERGY_H
