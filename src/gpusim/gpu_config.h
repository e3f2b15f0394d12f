/**
 * @file
 * V100-like GPU configuration for the tensor-core simulator: 80 SMs with
 * 8 TCs each (512 FP16 MACs/SM/cycle) and ~900 GB/s HBM2. Stands in for
 * the real V100 + cuDNN measurements of Secs. II/V/VII-B. The 96 KB of
 * shared memory per thread block is the functional block kernel's
 * staging limit (gpusim/block_kernel.h).
 *
 * The paper sweeps no GPU hardware: the V100 is one calibrated design
 * point. Its calibration is the constants below; GpuConfig holds only
 * the clock and the DRAM, the two values the variant properties vary.
 */

#ifndef CFCONV_GPUSIM_GPU_CONFIG_H
#define CFCONV_GPUSIM_GPU_CONFIG_H

#include "common/types.h"
#include "dram/dram_model.h"

namespace cfconv::gpusim {

constexpr Index kSms = 80;                 ///< streaming multiprocessors
constexpr Index kTbPerSm = 2;              ///< resident thread blocks per SM
constexpr Index kMacsPerSmPerCycle = 512;  ///< 8 TCs x 64 FP16 FMA
constexpr double kComputeEff = 0.885;      ///< achievable TC efficiency (ours)
constexpr double kCudnnComputeEff = 0.93;  ///< vendor-tuned kernel efficiency
constexpr double kBwUtil = 0.78;           ///< achievable DRAM utilization
constexpr double kL2GBps = 2150.0;         ///< L2 bandwidth feeding smem fills
constexpr double kL2Util = 0.85;           ///< achievable L2 utilization
/**
 * Transaction waste of the channel-last kernel's strided shared-memory
 * fills, per unit of linear stride (cache lines partially reused;
 * calibrated to Fig 4a's 30%/60% drops at strides 2/4).
 */
constexpr double kClStrideWasteCoeff = 0.8;
/**
 * Effective throughput of the explicit-im2col transformation kernel in
 * GB/s: the lowered tiles are produced and consumed through L2 rather
 * than bouncing every byte off DRAM.
 */
constexpr double kTransformGBps = 2500.0;
constexpr Bytes kTransactionBytes = 32;    ///< DRAM sector granularity
constexpr double kKernelOverheadSec = 3.0e-6; ///< launch + epilogue per kernel
/** Vendor kernels amortize launch work slightly better. */
constexpr double kCudnnKernelOverheadSec = 2.5e-6;

/** The settable part of the simulated GPU. */
struct GpuConfig
{
    double clockGhz = 1.53; ///< SM boost clock
    dram::DramConfig dram = dram::DramConfig::hbm900();

    /** Peak FP16 tensor-core TFLOPS. */
    double
    peakTflops() const
    {
        return 2.0 * static_cast<double>(kMacsPerSmPerCycle) *
               static_cast<double>(kSms) * clockGhz / 1e3;
    }

    /** The V100 configuration used throughout the paper. */
    static GpuConfig v100();
};

} // namespace cfconv::gpusim

#endif // CFCONV_GPUSIM_GPU_CONFIG_H
