#include "sim/tpu_accelerator.h"

#include "tpusim/energy.h"
#include "tpusim/layer_cache.h"

namespace cfconv::sim {

TpuAccelerator::TpuAccelerator(std::string name,
                               const tpusim::TpuConfig &config,
                               const tpusim::TpuRunOptions &options)
    : name_(std::move(name)), sim_(config), options_(options)
{}

double
TpuAccelerator::peakTflops() const
{
    return sim_.config().peakTflops();
}

LayerRecord
TpuAccelerator::runLayer(const ConvParams &params,
                         const RunOptions &options) const
{
    const tpusim::TpuLayerResult r =
        sim_.runGroupedConv(params, options.groups, options_);

    LayerRecord rec;
    rec.geometry = params.toString();
    rec.groups = options.groups;
    rec.seconds = r.seconds;
    rec.tflops = r.tflops;
    rec.utilization = rec.tflops / peakTflops();
    rec.dramBytes = r.dramBytes;
    rec.flops = tensor::groupedFlops(params, options.groups);
    rec.extras["multiTile"] = static_cast<double>(r.multiTile);
    rec.extras["portUtilization"] = r.portUtilization;
    rec.extras["exposedFillFrac"] = r.cycles
        ? static_cast<double>(r.exposedFillCycles) /
            static_cast<double>(r.cycles)
        : 0.0;
    rec.extras["peakOnChipBytes"] =
        static_cast<double>(r.peakOnChipBytes);
    rec.extras["pjPerMac"] =
        tpusim::layerEnergy(sim_.config(), r).pjPerMac;
    rec.algorithm = algorithm()->name();
    return rec;
}

StatGroup
TpuAccelerator::cacheStats() const
{
    return tpusim::LayerCache::instance().statsSnapshot();
}

const conv::Algorithm *
TpuAccelerator::algorithm() const
{
    return conv::findAlgorithm(options_.algorithm);
}

} // namespace cfconv::sim
