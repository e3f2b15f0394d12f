/**
 * @file
 * End-to-end model throughput trajectory: run the full model zoo
 * (the paper's seven CNNs plus MobileNetV1) at batch 8 through
 * sim::ModelRunner on every stock backend — TPU-v2, the v3-ish
 * two-MXU core, and the V100 channel-first kernel — and write the
 * unified RunRecord document to BENCH_models.json (override with
 * json=FILE; narrow the sweep with model=NAME and backend=NAME, which
 * is how the trace-analyzer gate records clean single-model traces;
 * backend= takes any registered variant of sim/variants.h).
 * The BENCH_gemm.json companion tracks raw GEMM; this one
 * tracks whole models, so regressions in the model runner, the memo
 * caches, or either simulator show up in the bench trajectory.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "models/model_zoo.h"
#include "sim/model_runner.h"
#include "sim/report.h"

using namespace cfconv;

int
main(int argc, char **argv)
{
    const Config args = bench::readArgs(argc, argv);
    const std::string jsonPath =
        bench::valueOrExit(args.getString("json", "BENCH_models.json"));
    const std::string model = bench::valueOrExit(args.getString("model", ""));
    const std::string backend =
        bench::valueOrExit(args.getString("backend", ""));
    bench::startBench(args);
    const bench::WallTimer wall;
    const Index batch = 8;

    // model=/backend= narrow the sweep to one model and/or backend —
    // how check_analyze.sh records a single-model single-backend trace
    // whose timelines aren't interleaved with the rest of the zoo.
    std::vector<models::ModelSpec> zoo;
    if (!model.empty())
        zoo.push_back(bench::valueOrExit(models::findModel(model))(batch));
    else
        for (const models::NamedModel &entry : models::kModels)
            zoo.push_back(entry.factory(batch));
    std::vector<std::string> backends = {"tpu-v2", "tpu-v3ish",
                                         "gpu-v100"};
    if (!backend.empty())
        backends = {backend};
    // One runner per backend, reused across the zoo so the memo
    // caches collapse repeated shapes between models too.
    std::vector<std::unique_ptr<sim::Accelerator>> accelerators;
    for (const auto &name : backends)
        accelerators.push_back(
            bench::valueOrExit(sim::tryMakeAccelerator(name)));

    bench::experimentHeader(
        "models_report",
        "Model zoo on every backend via sim::ModelRunner, batch 8");
    Table t("End-to-end model time (ms) per backend");
    std::vector<std::string> header = {"model"};
    for (const auto &b : backends)
        header.push_back(b);
    t.setHeader(header);

    std::vector<sim::RunRecord> records;
    for (const auto &model : zoo) {
        std::vector<std::string> row = {model.name};
        for (const auto &accelerator : accelerators) {
            const sim::RunRecord record =
                sim::ModelRunner(*accelerator).runModel(model);
            row.push_back(cell("%.3f", record.seconds * 1e3));
            records.push_back(record);
        }
        t.addRow(row);
    }
    t.print();

    // Headline: zoo-wide effective throughput per backend, the number
    // the trajectory tracks.
    for (size_t b = 0; b < backends.size(); ++b) {
        double seconds = 0.0;
        double flops = 0.0;
        for (size_t r = b; r < records.size(); r += backends.size()) {
            seconds += records[r].seconds;
            flops += records[r].tflops * records[r].seconds;
        }
        char metric[64];
        std::snprintf(metric, sizeof(metric), "%s zoo TFLOPS",
                      backends[b].c_str());
        bench::summaryLine("models_report", metric,
                           accelerators[b]->peakTflops(),
                           flops / seconds);
    }

    if (sim::writeRunRecords(jsonPath, records))
        std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                    records.size());
    bench::printLatencyStats();
    for (const auto &accelerator : accelerators)
        bench::printCacheStats(*accelerator);
    bench::printWallClock("bench_models_report", wall);
    return 0;
}
