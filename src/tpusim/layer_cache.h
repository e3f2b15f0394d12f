/**
 * @file
 * Process-wide memo cache for TpuSim layer results: the TPU
 * instantiation of the generic common/memo_cache template. A layer's
 * timing result is a pure function of (ConvParams, TpuConfig,
 * TpuRunOptions), so each unique shape is simulated once — ResNet's
 * repeated bottleneck blocks, the Fig 13/14/15 validation grids, and
 * model sweeps at a fixed config all collapse onto cache hits.
 * Disable with LayerCache::instance().setEnabled(false) (results are
 * identical either way). The GPU counterpart lives in
 * gpusim/kernel_cache.
 */

#ifndef CFCONV_TPUSIM_LAYER_CACHE_H
#define CFCONV_TPUSIM_LAYER_CACHE_H

#include <string>

#include "common/memo_cache.h"
#include "tensor/conv_params.h"
#include "tpusim/tpu_config.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::tpusim {

/**
 * Exact textual cache key for one simulated layer: every field of the
 * params, run options, and core config that the timing result depends
 * on. Full-fidelity keys make hash collisions impossible to observe
 * (equal keys imply equal inputs).
 */
std::string layerCacheKey(const TpuConfig &config,
                          const tensor::ConvParams &params,
                          const TpuRunOptions &options);

/** Cache key for a plain GEMM run. */
std::string gemmCacheKey(const TpuConfig &config, Index m, Index k,
                         Index n, DataType dtype);

/** Field-by-field checksum of a cached timing result, its time
 *  breakdown included. Entry checksums let the cache detect corrupted
 *  entries (and the `cache.corrupt` chaos site) and recompute instead
 *  of serving damaged figures. */
std::uint64_t layerResultChecksum(const TpuLayerResult &r);

/** The process-wide TPU layer-result memo cache ("layer_cache.hits" /
 *  ".misses" / ".entries" / ".corruptions_detected" in
 *  statsSnapshot()). */
class LayerCache : public MemoCache<TpuLayerResult>
{
  public:
    static LayerCache &instance();

  private:
    LayerCache() : MemoCache<TpuLayerResult>("layer_cache")
    {
        setChecksumFn(&layerResultChecksum);
    }
};

} // namespace cfconv::tpusim

#endif // CFCONV_TPUSIM_LAYER_CACHE_H
