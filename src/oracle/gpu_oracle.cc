#include "oracle/gpu_oracle.h"

#include "common/rng.h"

namespace cfconv::oracle {

namespace {

/** Peak relative measurement noise and its seed. */
constexpr double kNoiseAmplitude = 0.02;
constexpr std::uint64_t kNoiseSeed = 0x2b67c9d1e5a38f04ULL;

double
noise(std::uint64_t key)
{
    return measurementNoise(key, kNoiseSeed, kNoiseAmplitude);
}

std::uint64_t
convKey(const ConvParams &p)
{
    std::uint64_t key = hashCombine(
        static_cast<std::uint64_t>(p.inChannels),
        static_cast<std::uint64_t>(p.inH * 131 + p.inW));
    key = hashCombine(key, static_cast<std::uint64_t>(
                               p.outChannels * 977 + p.kernelH * 31 +
                               p.kernelW));
    key = hashCombine(key, static_cast<std::uint64_t>(p.strideH * 17 +
                                                      p.batch));
    return key;
}

} // namespace

double
GpuOracle::convSeconds(const ConvParams &params) const
{
    gpusim::GpuRunOptions options;
    options.algorithm = conv::AlgorithmId::ChannelLast;
    options.vendorTuned = true;
    return sim_.runConv(params, options).seconds * noise(convKey(params));
}

double
GpuOracle::convExplicitSeconds(const ConvParams &params) const
{
    gpusim::GpuRunOptions options;
    options.algorithm = conv::AlgorithmId::ExplicitIm2col;
    options.vendorTuned = true;
    return sim_.runConv(params, options).seconds *
           noise(hashCombine(convKey(params), 2));
}

double
GpuOracle::transformSeconds(const ConvParams &params) const
{
    return sim_.explicitTransformSeconds(params) *
           noise(hashCombine(convKey(params), 3));
}

double
GpuOracle::gemmSeconds(Index m, Index k, Index n) const
{
    const std::uint64_t key = hashCombine(
        hashCombine(static_cast<std::uint64_t>(m),
                    static_cast<std::uint64_t>(k)),
        static_cast<std::uint64_t>(n));
    return sim_.runGemm(m, k, n, true).seconds * noise(key);
}

double
GpuOracle::convTflops(const ConvParams &params) const
{
    return static_cast<double>(params.flops()) / convSeconds(params) /
           1e12;
}

} // namespace cfconv::oracle
