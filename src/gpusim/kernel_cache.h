/**
 * @file
 * Process-wide memo cache for GpuSim kernel results: the GPU
 * instantiation of the generic common/memo_cache template. A kernel's
 * timing result is a pure function of (ConvParams, GpuConfig,
 * GpuRunOptions), so model sweeps over networks with repeated layer
 * shapes (ResNet's bottleneck blocks, the Fig 17/18 grids) hit the
 * cache exactly like the TPU side's tpusim/layer_cache. Disable with
 * KernelCache::instance().setEnabled(false) (results are identical
 * either way).
 */

#ifndef CFCONV_GPUSIM_KERNEL_CACHE_H
#define CFCONV_GPUSIM_KERNEL_CACHE_H

#include <string>

#include "common/memo_cache.h"
#include "gpusim/gpu_config.h"
#include "gpusim/gpu_sim.h"
#include "tensor/conv_params.h"

namespace cfconv::gpusim {

/**
 * Exact textual cache key for one simulated conv kernel: every field
 * of the params, run options, and GPU config the timing result
 * depends on (equal keys imply equal inputs).
 */
std::string kernelCacheKey(const GpuConfig &config,
                           const tensor::ConvParams &params,
                           const GpuRunOptions &options);

/** Cache key for a plain GEMM kernel run. */
std::string gpuGemmCacheKey(const GpuConfig &config, Index m, Index k,
                            Index n, bool vendor_tuned,
                            bool operands_in_dram);

/** Field-by-field checksum of a cached kernel result (never raw
 *  struct bytes — padding is indeterminate). Lets the cache detect
 *  corrupted entries (and the `cache.corrupt` chaos site) and
 *  recompute instead of serving damaged figures. */
std::uint64_t kernelResultChecksum(const GpuKernelResult &r);

/** The process-wide GPU kernel-result memo cache ("kernel_cache.hits"
 *  / ".misses" / ".entries" / ".corruptions_detected" in
 *  statsSnapshot()). */
class KernelCache : public MemoCache<GpuKernelResult>
{
  public:
    static KernelCache &instance();

  private:
    KernelCache() : MemoCache<GpuKernelResult>("kernel_cache")
    {
        setChecksumFn(&kernelResultChecksum);
    }
};

} // namespace cfconv::gpusim

#endif // CFCONV_GPUSIM_KERNEL_CACHE_H
