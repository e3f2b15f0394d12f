/**
 * @file
 * V100/cuDNN "measurement" oracle: stands in for the paper's measured
 * cuDNN numbers (Figs 2a, 4a, 17, 18). Wraps the GPU simulator's
 * channel-last implicit kernel with vendor-grade compute efficiency and
 * deterministic measurement noise.
 */

#ifndef CFCONV_ORACLE_GPU_ORACLE_H
#define CFCONV_ORACLE_GPU_ORACLE_H

#include "gpusim/gpu_sim.h"

namespace cfconv::oracle {

using tensor::ConvParams;

/**
 * cuDNN measurement stand-in: the V100 simulator's vendor-tuned
 * kernels under a fixed calibration (the stock V100 and a 2% peak
 * measurement noise with its own seed; see gpu_oracle.cc).
 */
class GpuOracle
{
  public:
    /** "Measured" cuDNN implicit-GEMM convolution seconds. */
    double convSeconds(const ConvParams &params) const;

    /** "Measured" cuDNN explicit-im2col convolution seconds. */
    double convExplicitSeconds(const ConvParams &params) const;

    /** "Measured" explicit im2col transformation seconds alone. */
    double transformSeconds(const ConvParams &params) const;

    /** "Measured" cuBLAS-like GEMM seconds. */
    double gemmSeconds(Index m, Index k, Index n) const;

    /** Effective TFLOPS of the implicit kernel. */
    double convTflops(const ConvParams &params) const;

  private:
    gpusim::GpuSim sim_{gpusim::GpuConfig::v100()};
};

} // namespace cfconv::oracle

#endif // CFCONV_ORACLE_GPU_ORACLE_H
