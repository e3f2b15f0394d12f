/**
 * @file
 * Fig 15 reproduction: end-to-end model validation at batch 8.
 *  (a) Per-model execution time, TPUSim vs measured TPU-v2.
 *  (b) Layer-wise error distribution; the paper reports a 5.8% MAE
 *      over all layers.
 * The simulation side runs through sim::ModelRunner (parallel layer
 * sweep + layer memo cache); `json=FILE` additionally emits the
 * structured RunRecord document for the whole zoo.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "models/model_zoo.h"
#include "oracle/tpu_oracle.h"
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
    const auto accelerator = sim::makeAccelerator("tpu-v2");
    const sim::ModelRunner runner(*accelerator);
    oracle::TpuOracle oracle;

    bench::experimentHeader(
        "Fig 15a", "End-to-end model time, TPUSim vs TPU-v2, batch 8");
    Table ga("Fig 15a: model execution time (ms)");
    ga.setHeader({"model", "TPUSim", "measured", "error"});

    std::vector<sim::RunRecord> records;
    std::vector<double> all_ref, all_got;
    for (const auto &model : models::allModels(batch)) {
        const sim::RunRecord record = runner.runModel(model);
        double meas_s = 0.0;
        for (size_t i = 0; i < model.layers.size(); ++i) {
            const double n =
                static_cast<double>(model.layers[i].count);
            const double meas =
                oracle.convSeconds(model.layers[i].params);
            meas_s += n * meas;
            all_ref.push_back(meas);
            all_got.push_back(record.layers[i].seconds);
        }
        const double sim_s = record.seconds;
        ga.addRow({model.name, cell("%.3f", sim_s * 1e3),
                   cell("%.3f", meas_s * 1e3),
                   cell("%.1f%%", 100.0 * (sim_s - meas_s) / meas_s)});
        records.push_back(record);
    }
    ga.print();

    bench::experimentHeader(
        "Fig 15b", "Layer-wise error distribution across all models");
    Table gb("Fig 15b: layer error histogram");
    gb.setHeader({"|error| bucket", "layers", "share"});
    std::vector<Index> buckets(5, 0); // <2.5, <5, <10, <20, >=20 (%)
    for (size_t i = 0; i < all_ref.size(); ++i) {
        const double err = 100.0 *
                           std::abs(all_got[i] - all_ref[i]) /
                           all_ref[i];
        if (err < 2.5)
            ++buckets[0];
        else if (err < 5.0)
            ++buckets[1];
        else if (err < 10.0)
            ++buckets[2];
        else if (err < 20.0)
            ++buckets[3];
        else
            ++buckets[4];
    }
    const char *labels[5] = {"< 2.5%", "2.5-5%", "5-10%", "10-20%",
                             ">= 20%"};
    for (int b = 0; b < 5; ++b)
        gb.addRow({labels[b], cell("%lld", (long long)buckets[b]),
                   cell("%.0f%%", 100.0 * static_cast<double>(buckets[b]) /
                                      static_cast<double>(all_ref.size()))});
    gb.print();

    bench::summaryLine("Fig-15b", "all-layer MAE %", 5.8,
                       meanAbsPctError(all_ref, all_got));
    if (!jsonPath.empty() &&
        sim::writeRunRecords(jsonPath, records))
        std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                    records.size());
    bench::printCacheStats(*accelerator);
    bench::printWallClock("bench_fig15_models", wall);
    return 0;
}
