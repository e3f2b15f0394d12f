/**
 * @file
 * Fig 17 reproduction: end-to-end model execution time of our
 * block-level channel-first implementation on the V100, normalized to
 * the cuDNN (channel-last implicit, vendor-tuned) baseline at batch 8.
 * Paper headline: ours is ~1% slower on average.
 * The simulation side runs through sim::ModelRunner (parallel layer
 * sweep + the GPU kernel memo cache); `json=FILE` additionally emits
 * the structured RunRecord document for the whole zoo.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "models/model_zoo.h"
#include "oracle/gpu_oracle.h"
#include "sim/model_runner.h"
#include "sim/report.h"

using namespace cfconv;

int
main(int argc, char **argv)
{
    const Config args = bench::readArgs(argc, argv);
    const std::string jsonPath =
        bench::valueOrExit(args.getString("json", ""));
    bench::startBench(args);
    const bench::WallTimer wall;
    const Index batch = 8;
    const auto accelerator = sim::makeAccelerator("gpu-v100");
    const sim::ModelRunner runner(*accelerator);
    oracle::GpuOracle cudnn;

    bench::experimentHeader(
        "Fig 17",
        "Ours (implicit channel-first) vs cuDNN on V100, batch 8, "
        "normalized execution time");
    Table t("Fig 17: normalized execution time (cuDNN = 1.0)");
    t.setHeader({"model", "cuDNN (ms)", "ours (ms)", "normalized"});

    std::vector<sim::RunRecord> records;
    std::vector<double> ratios;
    for (const auto &model : models::allModels(batch)) {
        const sim::RunRecord record = runner.runModel(model);
        double cudnn_s = 0.0;
        for (const auto &layer : model.layers) {
            cudnn_s += static_cast<double>(layer.count) *
                       cudnn.convSeconds(layer.params);
        }
        const double ours_s = record.seconds;
        const double ratio = ours_s / cudnn_s;
        ratios.push_back(ratio);
        t.addRow({model.name, cell("%.3f", cudnn_s * 1e3),
                  cell("%.3f", ours_s * 1e3), cell("%.3f", ratio)});
        records.push_back(record);
    }
    t.print();

    double avg = 0.0;
    for (double r : ratios)
        avg += r;
    avg /= static_cast<double>(ratios.size());
    bench::summaryLine("Fig-17", "ours/cuDNN (avg, paper ~1.01)", 1.01,
                       avg);
    if (!jsonPath.empty() &&
        sim::writeRunRecords(jsonPath, records))
        std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                    records.size());
    bench::printCacheStats(*accelerator);
    bench::printWallClock("bench_fig17_gpu_models", wall);
    return 0;
}
