/**
 * @file
 * V100-like GPU configuration for the tensor-core simulator: 80 SMs with
 * 8 TCs each (512 FP16 MACs/SM/cycle) and ~900 GB/s HBM2. Stands in for
 * the real V100 + cuDNN measurements of Secs. II/V/VII-B. The 96 KB of
 * shared memory per thread block is the functional block kernel's
 * staging limit (gpusim/block_kernel.h).
 */

#ifndef CFCONV_GPUSIM_GPU_CONFIG_H
#define CFCONV_GPUSIM_GPU_CONFIG_H

#include "common/types.h"
#include "dram/dram_model.h"

namespace cfconv::gpusim {

/** Configuration of the simulated GPU. */
struct GpuConfig
{
    Index sms = 80;                 ///< streaming multiprocessors
    Index tbPerSm = 2;              ///< resident thread blocks per SM
    double clockGhz = 1.53;         ///< SM boost clock
    Index macsPerSmPerCycle = 512;  ///< 8 TCs x 64 FP16 FMA
    double computeEff = 0.885;      ///< achievable TC efficiency (ours)
    double cudnnComputeEff = 0.93;  ///< vendor-tuned kernel efficiency
    double bwUtil = 0.78;           ///< achievable DRAM utilization
    double l2GBps = 2150.0;         ///< L2 bandwidth feeding smem fills
    double l2Util = 0.85;           ///< achievable L2 utilization
    /**
     * Transaction waste of the channel-last kernel's strided shared-
     * memory fills, per unit of linear stride (cache lines partially
     * reused; calibrated to Fig 4a's 30%/60% drops at strides 2/4).
     */
    double clStrideWasteCoeff = 0.8;
    /**
     * Effective throughput of the explicit-im2col transformation kernel
     * in GB/s: the lowered tiles are produced and consumed through L2
     * rather than bouncing every byte off DRAM.
     */
    double transformGBps = 2500.0;
    Bytes transactionBytes = 32;    ///< DRAM sector granularity
    double kernelOverheadSec = 3.0e-6; ///< launch + epilogue per kernel
    /** Vendor kernels amortize launch work slightly better. */
    double cudnnKernelOverheadSec = 2.5e-6;
    dram::DramConfig dram = dram::DramConfig::hbm900();

    /** Peak FP16 tensor-core TFLOPS. */
    double
    peakTflops() const
    {
        return 2.0 * static_cast<double>(macsPerSmPerCycle) *
               static_cast<double>(sms) * clockGhz / 1e3;
    }

    /** The V100 configuration used throughout the paper. */
    static GpuConfig v100();
};

} // namespace cfconv::gpusim

#endif // CFCONV_GPUSIM_GPU_CONFIG_H
