#include "tpusim/layer_cache.h"

namespace cfconv::tpusim {

namespace {

void
appendConfig(std::string &key, const TpuConfig &config)
{
    memoKeyAppendInt(key, config.array.rows);
    memoKeyAppendInt(key, config.array.cols);
    memoKeyAppendInt(key, config.mxus);
    memoKeyAppendFloat(key, config.clockGhz);
    memoKeyAppendInt(key, config.wordElems);
    memoKeyAppendInt(key, static_cast<long long>(config.elemBytes));
    memoKeyAppendInt(key, static_cast<long long>(config.onChipBytes));
    memoKeyAppendInt(key,
                     static_cast<long long>(config.invokeOverheadCycles));
    dram::memoKeyAppend(key, config.dram);
}

} // namespace

std::string
layerCacheKey(const TpuConfig &config, const tensor::ConvParams &params,
              const TpuRunOptions &options)
{
    std::string key = "conv|";
    key.reserve(256);
    tensor::memoKeyAppend(key, params);
    memoKeyAppendInt(key, static_cast<long long>(options.algorithm));
    memoKeyAppendInt(key, options.multiTileOverride);
    memoKeyAppendInt(key, static_cast<long long>(options.dramLayout));
    memoKeyAppendFloat(key, options.explicitTransformSeconds);
    memoKeyAppendInt(key, options.spaceToDepthFirstLayer ? 1 : 0);
    appendConfig(key, config);
    return key;
}

std::string
gemmCacheKey(const TpuConfig &config, Index m, Index k, Index n,
             DataType dtype)
{
    std::string key = "gemm|";
    key.reserve(192);
    memoKeyAppendInt(key, m);
    memoKeyAppendInt(key, k);
    memoKeyAppendInt(key, n);
    memoKeyAppendInt(key, static_cast<long long>(dtype));
    appendConfig(key, config);
    return key;
}

std::uint64_t
layerResultChecksum(const TpuLayerResult &r)
{
    std::uint64_t h = 0;
    auto mixInt = [&h](long long v) {
        h = hashCombine(h, static_cast<std::uint64_t>(v));
    };
    auto mixFloat = [&h](double v) {
        h = hashCombine(h, hashBytes(&v, sizeof v));
    };
    mixInt(static_cast<long long>(r.cycles));
    mixFloat(r.seconds);
    mixFloat(r.tflops);
    mixInt(static_cast<long long>(r.dramBytes));
    mixInt(r.multiTile);
    mixFloat(r.portUtilization);
    mixInt(static_cast<long long>(r.peakOnChipBytes));
    mixInt(r.vecMemOps);
    const conv::TimeBreakdown &b = r.breakdown;
    for (double part :
         {b.compute, b.fill, b.exposedFill, b.overhead, b.stall})
        mixFloat(part);
    mixInt(b.steps);
    return h;
}

LayerCache &
LayerCache::instance()
{
    static LayerCache cache;
    return cache;
}

} // namespace cfconv::tpusim
