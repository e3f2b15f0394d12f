/**
 * @file
 * Tile-level GPU tensor-core simulator. Models blocked GEMM across
 * thread blocks (wave quantization, per-TB shared-memory fill pipelines,
 * DRAM transaction efficiency) and runs every conv::Algorithm pass plan
 * on top of it with one k-step loop: the paper's block-level implicit
 * channel-first kernel (Sec. V, with optional inter-tile reuse), a
 * cuDNN-like implicit channel-last kernel (stride-sensitive fills), the
 * IndirectConv and SMM-Conv kernels, and explicit im2col (transform
 * kernel + GEMM). One thread block's k-steps run on
 * conv::OverlapSchedule, the overlap rule TpuSim shares (a memo-cache
 * hit draws no timeline).
 */

#ifndef CFCONV_GPUSIM_GPU_SIM_H
#define CFCONV_GPUSIM_GPU_SIM_H

#include "conv/algorithm.h"
#include "conv/schedule.h"
#include "gpusim/gpu_config.h"
#include "tensor/conv_params.h"

namespace cfconv::gpusim {

using tensor::ConvParams;

/** Per-run knobs. */
struct GpuRunOptions
{
    /** The lowering scheme whose pass plan the kernel walks. The id is
     *  serialized into kernel memo-cache keys. */
    conv::AlgorithmId algorithm = conv::AlgorithmId::ChannelFirst;
    bool interTileReuse = true; ///< Sec. V reordering (channel-first)
    bool vendorTuned = false;   ///< cuDNN-grade compute efficiency
};

/** Result of simulating one kernel/layer. */
struct GpuKernelResult
{
    double seconds = 0.0;
    double tflops = 0.0;       ///< useful FLOPs / second
    Bytes dramBytes = 0;       ///< total DRAM traffic incl. waste
    double transformSeconds = 0.0; ///< explicit-im2col transform part
    /** Where the `seconds` went: the DRAM roofline is stall, explicit
     *  im2col's transform exposed fill. */
    conv::TimeBreakdown breakdown;
};

/** The GPU performance simulator. */
class GpuSim
{
  public:
    explicit GpuSim(const GpuConfig &config) : config_(config) {}

    const GpuConfig &config() const { return config_; }

    /** Simulate one convolution layer. */
    GpuKernelResult runConv(const ConvParams &params,
                            const GpuRunOptions &options = {}) const;

    /**
     * Simulate a plain GEMM kernel. When @p operands_in_dram is true
     * the full operands stream from DRAM (the explicit-im2col case,
     * where the lowered matrix lives off-chip); false gives the
     * idealized cache-resident reference the paper plots in Fig 4.
     */
    GpuKernelResult runGemm(Index m, Index k, Index n,
                            bool vendor_tuned = false,
                            bool operands_in_dram = true) const;

    /**
     * Time of the explicit im2col transformation kernel alone
     * (bandwidth-bound read-IFMap / write-lowered-matrix); this is the
     * GPU estimate Fig 2b reuses for the TPU.
     */
    double explicitTransformSeconds(const ConvParams &params) const;

  private:
    /** runConv body, bypassing the kernel memo cache. */
    GpuKernelResult runConvUncached(const ConvParams &params,
                                    const GpuRunOptions &options) const;

    /** DRAM-transaction waste factor for a strided gather. */
    double gatherWaste(Bytes contiguous_run_bytes, Index stride) const;

    GpuConfig config_;
};

} // namespace cfconv::gpusim

#endif // CFCONV_GPUSIM_GPU_SIM_H
