/**
 * @file
 * Fig 2 reproduction: execution time of explicit vs implicit im2col,
 * batch 64, normalized to the implicit method.
 *  (a) V100 GPU: cuDNN-like implicit vs explicit transform + GEMM.
 *  (b) TPU-v2: implicit channel-first vs "explicit" = TPU GEMM time +
 *      the transform time estimated from the GPU (as the paper does).
 * Paper headline: explicit is ~28% slower on the GPU and ~23% slower
 * on the TPU; the GEMM portion of the explicit method matches the
 * implicit time.
 */

#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "models/model_zoo.h"
#include "oracle/gpu_oracle.h"
#include "tpusim/tpu_sim.h"

using namespace cfconv;

int
main(int argc, char **argv)
{
    bench::startBench(bench::readArgs(argc, argv));
    const bench::WallTimer wall;
    const Index batch = 64;
    const auto zoo = models::allModels(batch);
    oracle::GpuOracle gpu;
    tpusim::TpuSim tpu((tpusim::TpuConfig::tpuV2()));

    // ---- (a) GPU ----
    bench::experimentHeader(
        "Fig 2a", "Explicit vs implicit im2col on the V100, batch 64");
    Table gpu_table("Fig 2a: normalized execution time (V100)");
    gpu_table.setHeader({"model", "implicit", "explicit total",
                         "explicit GEMM", "transform share"});
    std::vector<double> gpu_slowdowns;
    for (const auto &model : zoo) {
        double implicit_s = 0.0, explicit_s = 0.0, transform_s = 0.0;
        for (const auto &layer : model.layers) {
            const double n = static_cast<double>(layer.count);
            implicit_s += n * gpu.convSeconds(layer.params);
            explicit_s += n * gpu.convExplicitSeconds(layer.params);
            transform_s += n * gpu.transformSeconds(layer.params);
        }
        const double slowdown = explicit_s / implicit_s;
        gpu_slowdowns.push_back(slowdown);
        gpu_table.addRow(
            {model.name, "1.00", cell("%.2f", slowdown),
             cell("%.2f", (explicit_s - transform_s) / implicit_s),
             cell("%.0f%%", 100.0 * transform_s / explicit_s)});
    }
    gpu_table.print();
    double gpu_avg = 0.0;
    for (double s : gpu_slowdowns)
        gpu_avg += s;
    gpu_avg /= static_cast<double>(gpu_slowdowns.size());
    bench::summaryLine("Fig-2a", "explicit slowdown (avg)", 1.28,
                       gpu_avg);

    // ---- (b) TPU ----
    // The paper's cloud TPU-v2 is an 8-core board; batch 64 splits
    // data-parallel into batch 8 per core. The explicit transform is
    // estimated from the (full-batch) GPU measurement, as the paper
    // does.
    const Index tpu_cores = 8;
    bench::experimentHeader(
        "Fig 2b",
        "Explicit vs implicit im2col on the 8-core cloud TPU-v2, "
        "batch 64 (transform estimated from the GPU, as in the paper)");
    Table tpu_table("Fig 2b: normalized execution time (TPU-v2)");
    tpu_table.setHeader({"model", "implicit", "explicit total",
                         "explicit GEMM", "transform share"});
    std::vector<double> tpu_slowdowns;
    for (const auto &model : models::allModels(batch / tpu_cores)) {
        double implicit_s = 0.0, explicit_s = 0.0, transform_s = 0.0;
        for (const auto &layer : model.layers) {
            const double n = static_cast<double>(layer.count);
            implicit_s += n * tpu.runConv(layer.params).seconds;
            tensor::ConvParams full = layer.params;
            full.batch = batch;
            tpusim::TpuRunOptions ex;
            ex.algorithm = conv::AlgorithmId::ExplicitIm2col;
            ex.explicitTransformSeconds = gpu.transformSeconds(full);
            explicit_s += n * tpu.runConv(layer.params, ex).seconds;
            transform_s += n * ex.explicitTransformSeconds;
        }
        const double slowdown = explicit_s / implicit_s;
        tpu_slowdowns.push_back(slowdown);
        tpu_table.addRow(
            {model.name, "1.00", cell("%.2f", slowdown),
             cell("%.2f", (explicit_s - transform_s) / implicit_s),
             cell("%.0f%%", 100.0 * transform_s / explicit_s)});
    }
    tpu_table.print();
    double tpu_avg = 0.0;
    for (double s : tpu_slowdowns)
        tpu_avg += s;
    tpu_avg /= static_cast<double>(tpu_slowdowns.size());
    bench::summaryLine("Fig-2b", "explicit slowdown (avg)", 1.23,
                       tpu_avg);
    bench::printWallClock("bench_fig2_explicit_overhead", wall);
    return 0;
}
