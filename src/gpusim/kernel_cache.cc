#include "gpusim/kernel_cache.h"

namespace cfconv::gpusim {

namespace {

void
appendConfig(std::string &key, const GpuConfig &config)
{
    memoKeyAppendFloat(key, config.clockGhz);
    dram::memoKeyAppend(key, config.dram);
}

} // namespace

std::string
kernelCacheKey(const GpuConfig &config, const tensor::ConvParams &params,
               const GpuRunOptions &options)
{
    std::string key = "gconv|";
    key.reserve(256);
    tensor::memoKeyAppend(key, params);
    memoKeyAppendInt(key, static_cast<long long>(options.algorithm));
    memoKeyAppendInt(key, options.interTileReuse ? 1 : 0);
    memoKeyAppendInt(key, options.vendorTuned ? 1 : 0);
    appendConfig(key, config);
    return key;
}

std::string
gpuGemmCacheKey(const GpuConfig &config, Index m, Index k, Index n,
                bool vendor_tuned, bool operands_in_dram)
{
    std::string key = "ggemm|";
    key.reserve(192);
    memoKeyAppendInt(key, m);
    memoKeyAppendInt(key, k);
    memoKeyAppendInt(key, n);
    memoKeyAppendInt(key, vendor_tuned ? 1 : 0);
    memoKeyAppendInt(key, operands_in_dram ? 1 : 0);
    appendConfig(key, config);
    return key;
}

std::uint64_t
kernelResultChecksum(const GpuKernelResult &r)
{
    std::uint64_t h = 0;
    auto mixFloat = [&h](double v) {
        h = hashCombine(h, hashBytes(&v, sizeof v));
    };
    mixFloat(r.seconds);
    mixFloat(r.tflops);
    h = hashCombine(h, static_cast<std::uint64_t>(r.dramBytes));
    mixFloat(r.computeSeconds);
    mixFloat(r.memorySeconds);
    mixFloat(r.transformSeconds);
    h = hashCombine(h, r.memoryBound ? 1 : 0);
    return h;
}

KernelCache &
KernelCache::instance()
{
    static KernelCache cache;
    return cache;
}

} // namespace cfconv::gpusim
