/**
 * @file
 * TPU-v2 "hardware measurement" oracle: a stand-in for the cloud TPU-v2
 * runs the paper validates TPUSim against (Figs 13-15). It is an
 * independently-formulated analytical performance model (roofline with
 * pass-quantization efficiency and invocation overheads) perturbed by
 * deterministic per-configuration noise, so validation errors are small
 * but honest. See DESIGN.md for the substitution rationale.
 */

#ifndef CFCONV_ORACLE_TPU_ORACLE_H
#define CFCONV_ORACLE_TPU_ORACLE_H

#include "tensor/conv_params.h"

namespace cfconv::oracle {

using tensor::ConvParams;

/**
 * The measurement oracle: one fixed TPU-v2 calibration (a 128x128
 * array at 700 MHz, 700 GB/s of memory, per-pass and per-invocation
 * overheads; see tpu_oracle.cc), like the one chip the paper measured.
 */
class TpuOracle
{
  public:
    /** @p noise_amplitude: peak relative measurement noise (uniform,
     *  deterministic per layer); 0 gives the noise-free model. */
    explicit TpuOracle(double noise_amplitude = 0.06)
        : noiseAmplitude_(noise_amplitude)
    {}

    /** "Measured" seconds for a GEMM of the given dimensions. */
    double gemmSeconds(Index m, Index k, Index n) const;

    /**
     * "Measured" seconds for a convolution executed with the TPU's
     * inferred strategy (multi-tile = MIN(rows/C_I, W_F)).
     */
    double convSeconds(const ConvParams &params) const;

    /** Effective TFLOPS derived from convSeconds(). */
    double convTflops(const ConvParams &params) const;

  private:
    double noiseAmplitude_;
};

} // namespace cfconv::oracle

#endif // CFCONV_ORACLE_TPU_ORACLE_H
