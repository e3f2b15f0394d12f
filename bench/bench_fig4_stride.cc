/**
 * @file
 * Fig 4 reproduction + the algorithm-matrix extension: TFLOPS of
 * implicit im2col on representative ResNet layers (W_I, C_I, C_O,
 * W_F) under strides 1/2/4, with the equivalent GEMM as a reference.
 *  (a) GPU (cuDNN-like channel-last): degrades ~30% at stride 2 and
 *      ~60% at stride 4 while the GEMM reference stays high.
 *  (b) TPU (channel-first): insensitive to stride.
 *  (c) The stride/dilation-sensitivity matrix across the full
 *      conv::Algorithm zoo on both simulators: every registered
 *      algorithm x {stride 1/2/4, dilation 2}, combos an algorithm
 *      cannot run marked n/a (SMM-Conv is unit-stride only). The
 *      matrix records land in BENCH_algos.json (json= overrides),
 *      and algo=NAME restricts the matrix to one algorithm.
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "gpusim/gpu_sim.h"
#include "models/model_zoo.h"
#include "sim/model_runner.h"
#include "sim/report.h"
#include "tpusim/tpu_sim.h"

using namespace cfconv;

namespace {

tensor::ConvParams
withStride(tensor::ConvParams p, Index stride)
{
    p.strideH = p.strideW = stride;
    p.validate();
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config args = bench::readArgs(argc, argv);
    const std::string jsonPath =
        bench::valueOrExit(args.getString("json", "BENCH_algos.json"));
    const std::string algoFilter = bench::valueOrExit(bench::algoArg(args));
    bench::startBench(args);
    const bench::WallTimer wall;
    const Index batch = 64;
    const auto layers = models::resnetRepresentativeLayers(batch);
    const std::vector<Index> strides{1, 2, 4};

    gpusim::GpuSim gpu((gpusim::GpuConfig::v100()));
    tpusim::TpuSim tpu((tpusim::TpuConfig::tpuV2()));

    // ---- (a) GPU ----
    bench::experimentHeader(
        "Fig 4a",
        "TFLOPS vs stride on V100 tensor cores (implicit channel-last "
        "= cuDNN-like baseline; GEMM = lowered-size reference)");
    Table ga("Fig 4a: V100 TFLOPS under stride");
    ga.setHeader({"layer (W,C,K,F)", "stride", "implicit", "GEMM",
                  "impl/GEMM"});
    double drop2 = 0.0, drop4 = 0.0;
    for (const auto &layer : layers) {
        double base = 0.0;
        for (Index s : strides) {
            const auto p = withStride(layer.params, s);
            gpusim::GpuRunOptions cl;
            cl.algorithm = conv::AlgorithmId::ChannelLast;
            cl.vendorTuned = true;
            const double impl = gpu.runConv(p, cl).tflops;
            const double gemm =
                gpu.runGemm(p.gemmM(), p.gemmK(), p.gemmN(),
                            /*vendor_tuned=*/true,
                            /*operands_in_dram=*/false)
                    .tflops;
            if (s == 1)
                base = impl;
            if (s == 2)
                drop2 += 1.0 - impl / base;
            if (s == 4)
                drop4 += 1.0 - impl / base;
            ga.addRow({layer.name, cell("%lld", (long long)s),
                       cell("%.1f", impl), cell("%.1f", gemm),
                       cell("%.2f", impl / gemm)});
        }
    }
    ga.print();
    const double n = static_cast<double>(layers.size());
    bench::summaryLine("Fig-4a", "GPU drop at stride 2", 0.30,
                       drop2 / n);
    bench::summaryLine("Fig-4a", "GPU drop at stride 4", 0.60,
                       drop4 / n);

    // ---- (b) TPU ----
    bench::experimentHeader(
        "Fig 4b",
        "TFLOPS vs stride on TPU-v2 (implicit channel-first; GEMM = "
        "lowered-size reference): insensitive to stride");
    Table gb("Fig 4b: TPU TFLOPS under stride");
    gb.setHeader({"layer (W,C,K,F)", "stride", "implicit", "GEMM",
                  "impl/GEMM"});
    double tpu_drop2 = 0.0, tpu_drop4 = 0.0;
    for (const auto &layer : layers) {
        double base = 0.0;
        for (Index s : strides) {
            const auto p = withStride(layer.params, s);
            const double impl = tpu.runConv(p).tflops;
            const double gemm =
                tpu.runGemm(p.gemmM(), p.gemmK(), p.gemmN(),
                            p.dataType).tflops;
            if (s == 1)
                base = impl;
            if (s == 2)
                tpu_drop2 += 1.0 - impl / base;
            if (s == 4)
                tpu_drop4 += 1.0 - impl / base;
            gb.addRow({layer.name, cell("%lld", (long long)s),
                       cell("%.1f", impl), cell("%.1f", gemm),
                       cell("%.2f", impl / gemm)});
        }
    }
    gb.print();
    bench::summaryLine("Fig-4b", "TPU drop at stride 2", 0.0,
                       tpu_drop2 / n);
    bench::summaryLine("Fig-4b", "TPU drop at stride 4", 0.0,
                       tpu_drop4 / n);

    // ---- (c) the algorithm matrix ----
    bench::experimentHeader(
        "Fig 4c",
        "Stride/dilation sensitivity across the registered algorithm "
        "zoo on both simulators (records -> BENCH_algos.json)");

    struct Combo
    {
        Index stride, dilation;
        const char *tag;
    };
    const std::vector<Combo> combos = {
        {1, 1, "s1-d1"}, {2, 1, "s2-d1"}, {4, 1, "s4-d1"},
        {1, 2, "s1-d2"}};
    // One variant per (backend, algorithm) cell, all on the stock
    // tpu-v2 / gpu-v100 cores so the algorithm is the only axis.
    const std::vector<std::string> matrixVariants = {
        "tpu-v2",          "tpu-v2-chlast",
        "tpu-v2-explicit", "tpu-v2-indirect",
        "tpu-v2-smm",      "gpu-v100",
        "gpu-v100-chlast", "gpu-v100-explicit",
        "gpu-v100-indirect", "gpu-v100-smm",
    };
    const auto repLayers = models::resnetRepresentativeLayers(8);

    Table gc("Fig 4c: model milliseconds across the algorithm matrix");
    gc.setHeader({"variant", "algorithm", "s1-d1", "s2-d1", "s4-d1",
                  "s1-d2"});
    std::vector<sim::RunRecord> records;
    Index cells = 0, skipped = 0;
    for (const auto &name : matrixVariants) {
        const auto accel = sim::makeAccelerator(name);
        const conv::Algorithm *algo = accel->algorithm();
        const std::string algoName =
            algo != nullptr ? algo->name() : "?";
        if (!algoFilter.empty() && algoFilter != algoName)
            continue;
        std::vector<std::string> row = {name, algoName};
        for (const Combo &combo : combos) {
            models::ModelSpec m;
            m.name = std::string("resnet-rep-") + combo.tag;
            bool supported = true;
            for (const auto &layer : repLayers) {
                models::ConvLayerSpec spec = layer;
                spec.params.strideH = spec.params.strideW =
                    combo.stride;
                spec.params.dilationH = spec.params.dilationW =
                    combo.dilation;
                spec.params.validate();
                if (algo != nullptr &&
                    !algo->supports(spec.params, spec.groups).ok())
                    supported = false;
                m.layers.push_back(std::move(spec));
            }
            if (!supported) {
                // The applicability predicate said no (e.g. SMM-Conv
                // on a strided combo): an honest hole, not a crash.
                row.push_back("n/a");
                ++skipped;
                continue;
            }
            sim::RunRecord record =
                sim::ModelRunner(*accel).runModel(m);
            row.push_back(cell("%.3f", record.seconds * 1e3));
            records.push_back(std::move(record));
            ++cells;
        }
        gc.addRow(row);
    }
    gc.print();
    std::printf("ALGOMATRIX combos=%zu | ran=%lld | n/a=%lld | "
                "records=%zu\n",
                combos.size(), static_cast<long long>(cells),
                static_cast<long long>(skipped), records.size());
    // An empty meta keeps the document a pure function of the sim, so
    // repeat runs are byte-identical (check_algos.sh relies on it).
    if (sim::writeRunRecords(jsonPath, records, sim::ReportMeta{}))
        std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                    records.size());

    bench::printWallClock("bench_fig4_stride", wall);
    return 0;
}
