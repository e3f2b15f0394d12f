/**
 * @file
 * Model report generator: per-layer CSV for every network in the zoo
 * (the paper's seven plus MobileNetV1) on both simulators — the raw
 * data behind the end-to-end figures, in a form downstream analysis
 * (spreadsheets, plotting scripts) can consume directly. Both
 * backends are driven through the unified sim::Accelerator layer;
 * TPU-only fields (multi-tile, energy) and GPU-only fields
 * (memory/compute bound) come out of LayerRecord::extras. The memo
 * caches collapse repeated shapes; their hit/miss totals go to
 * stderr so the CSV on stdout stays clean.
 *
 * Usage: report_models [batch]   (CSV on stdout; batch 8 by default)
 *
 * The batch is a whole decimal integer >= 1 (parseDecimal); anything
 * else, a second operand or any key=value argument exits 2.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "models/model_zoo.h"
#include "sim/accelerator.h"

using namespace cfconv;

namespace {

void
cacheReport(const sim::Accelerator &accelerator)
{
    const StatGroup stats = accelerator.cacheStats();
    std::fprintf(stderr, "cache %s:", accelerator.name().c_str());
    for (const auto &[name, value] : stats.counters())
        std::fprintf(stderr, " %s=%.0f", name.c_str(), value);
    std::fprintf(stderr, "\n");
}

/** The batch operand, 8 when absent; INVALID_ARGUMENT naming it. */
StatusOr<Index>
readBatch(int argc, char **argv)
{
    std::vector<std::string> operands;
    CFCONV_ASSIGN_OR_RETURN(const Config config,
                            Config::fromArgs(argc, argv, &operands));
    CFCONV_RETURN_IF_ERROR(config.checkAllRead());
    if (operands.empty())
        return Index{8};
    const std::optional<long long> batch = parseDecimal(operands[0]);
    if (operands.size() > 1 || !batch || *batch < 1)
        return invalidArgumentError(
            "bad batch '%s' (usage: report_models [batch], batch a whole "
            "integer >= 1)",
            operands.back().c_str());
    return static_cast<Index>(*batch);
}

} // namespace

int
main(int argc, char **argv)
{
    const StatusOr<Index> batch_or = readBatch(argc, argv);
    if (!batch_or.ok()) {
        std::fprintf(stderr, "report_models: %s\n",
                     batch_or.status().toString().c_str());
        return 2;
    }
    const Index batch = *batch_or;
    const auto tpu = sim::makeAccelerator("tpu-v2");
    const auto gpu = sim::makeAccelerator("gpu-v100");

    std::printf("model,layer,count,groups,geometry,M,K,N,gflops,"
                "tpu_us,tpu_tflops,tpu_util,tpu_multitile,"
                "tpu_dram_mb,tpu_pj_per_mac,"
                "gpu_us,gpu_tflops,gpu_bound\n");

    for (const models::NamedModel &entry : models::kModels) {
        const models::ModelSpec model = entry.factory(batch);
        for (const auto &layer : model.layers) {
            const auto &p = layer.params;
            sim::RunOptions options;
            options.groups = layer.groups;
            const sim::LayerRecord tr = tpu->runLayer(p, options);
            const sim::LayerRecord gr = gpu->runLayer(p, options);
            std::printf(
                "%s,%s,%lld,%lld,%s,%lld,%lld,%lld,%.4f,"
                "%.3f,%.3f,%.4f,%lld,%.3f,%.3f,%.3f,%.3f,%s\n",
                model.name.c_str(), layer.name.c_str(),
                (long long)layer.count, (long long)layer.groups,
                p.toString().c_str(), (long long)p.gemmM(),
                (long long)p.gemmK(), (long long)p.gemmN(),
                static_cast<double>(layer.flops()) / 1e9,
                tr.seconds * 1e6, tr.tflops, tr.utilization,
                (long long)tr.extras.at("multiTile"),
                static_cast<double>(tr.dramBytes) / 1e6,
                tr.extras.at("pjPerMac"), gr.seconds * 1e6, gr.tflops,
                gr.extras.at("memoryBound") != 0.0 ? "memory"
                                                   : "compute");
        }
    }
    cacheReport(*tpu);
    cacheReport(*gpu);
    return 0;
}
