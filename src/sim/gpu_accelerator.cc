#include "sim/gpu_accelerator.h"

#include "gpusim/energy.h"
#include "gpusim/kernel_cache.h"

namespace cfconv::sim {

GpuAccelerator::GpuAccelerator(std::string name,
                               const gpusim::GpuConfig &config,
                               const gpusim::GpuRunOptions &options)
    : name_(std::move(name)), sim_(config), options_(options)
{}

double
GpuAccelerator::peakTflops() const
{
    return sim_.config().peakTflops();
}

LayerRecord
GpuAccelerator::runLayer(const ConvParams &params,
                         const RunOptions &options) const
{
    // Grouped layers: one kernel per group slice (real stacks fuse
    // these, but the slice count dominates the estimate).
    params.validate(options.groups);
    const gpusim::GpuKernelResult r =
        sim_.runConv(tensor::groupSlice(params, options.groups), options_);
    const double groups = static_cast<double>(options.groups);

    LayerRecord rec;
    rec.geometry = params.toString();
    rec.groups = options.groups;
    rec.seconds = r.seconds * groups;
    rec.dramBytes = r.dramBytes * static_cast<Bytes>(options.groups);
    rec.flops = tensor::groupedFlops(params, options.groups);
    rec.tflops = static_cast<double>(rec.flops) / rec.seconds / 1e12;
    rec.utilization = rec.tflops / peakTflops();
    rec.extras["memoryBound"] = r.memoryBound ? 1.0 : 0.0;
    rec.extras["computeSeconds"] = r.computeSeconds * groups;
    rec.extras["memorySeconds"] = r.memorySeconds * groups;
    rec.extras["transformSeconds"] = r.transformSeconds * groups;
    // pJ/MAC is a per-MAC ratio, so the single-slice kernel result is
    // the grouped layer's figure too (both energy and MACs scale by
    // the group count).
    rec.extras["pjPerMac"] = gpusim::kernelEnergy(r).pjPerMac;
    rec.algorithm = algorithm()->name();
    return rec;
}

StatGroup
GpuAccelerator::cacheStats() const
{
    return gpusim::KernelCache::instance().statsSnapshot();
}

const conv::Algorithm *
GpuAccelerator::algorithm() const
{
    return conv::findAlgorithm(options_.algorithm);
}

} // namespace cfconv::sim
