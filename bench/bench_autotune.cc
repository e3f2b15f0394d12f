/**
 * @file
 * Design-space autotuning demonstrator: tune ResNet-50 (batch 8)
 * per layer over the built-in TPU and GPU knob spaces
 * (tune/autotuner) and report the tuner's win over the stock named
 * baselines as a RunRecord document (BENCH_autotune.json): for each
 * backend family one baseline record and one "autotuned(<baseline>)"
 * record whose layers ran on the per-layer winning variants. The
 * tuned choices persist in a TunedConfigDb (TUNED_configs.json), so a
 * repeat run answers every layer from the database — zero search
 * evaluations, byte-identical report (the document is written with an
 * empty ReportMeta; wall-clock histograms never enter it).
 *
 * Arguments beyond the uniform bench set: `db=FILE` overrides the
 * database path.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "models/model_zoo.h"
#include "sim/model_runner.h"
#include "sim/report.h"
#include "sim/variants.h"
#include "tune/autotuner.h"
#include "tune/tuned_db.h"

using namespace cfconv;

namespace {

/** One backend family's tuning campaign. */
struct Campaign
{
    const char *id;       ///< summary-line tag, e.g. "autotune-tpu"
    std::string baseline; ///< stock named baseline to beat
    tune::KnobSpace space;
};

/** Re-run every layer on its chosen variant and assemble the tuned
 *  RunRecord. The accelerator name records the provenance; peak is the
 *  largest among the chosen variants (the machine the tuner asks
 *  for). Layer sims are memoized, so this costs nothing new. */
sim::RunRecord
tunedRecord(const models::ModelSpec &model,
            const tune::ModelTuneResult &result)
{
    sim::RunRecord record;
    record.accelerator = "autotuned(" + result.baseline + ")";
    record.model = model.name;
    record.batch = model.layers.empty() ? 0 : model.layers[0].params.batch;
    record.seconds = 0.0;
    record.dramBytes = 0;

    std::map<std::string, std::unique_ptr<sim::Accelerator>> cache;
    double totalFlops = 0.0;
    for (size_t i = 0; i < model.layers.size(); ++i) {
        const models::ConvLayerSpec &layer = model.layers[i];
        const tune::LayerTuneChoice &choice = result.layers[i];
        auto &accelerator = cache[choice.variant];
        if (!accelerator)
            accelerator = sim::makeAccelerator(choice.variant);
        record.peakTflops =
            std::max(record.peakTflops, accelerator->peakTflops());
        sim::RunOptions options;
        options.groups = layer.groups;
        sim::LayerRecord rec =
            accelerator->runLayer(layer.params, options);
        rec.name = layer.name;
        rec.count = layer.count;
        // The tuner's per-layer win rides along in the report.
        rec.extras["tunedSpeedup"] = choice.speedup();
        const double reps = static_cast<double>(layer.count);
        record.seconds += rec.seconds * reps;
        record.dramBytes +=
            rec.dramBytes * static_cast<Bytes>(layer.count);
        totalFlops += static_cast<double>(rec.flops) * reps;
        record.layers.push_back(std::move(rec));
    }
    record.tflops =
        record.seconds > 0.0 ? totalFlops / record.seconds / 1e12 : 0.0;
    return record;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config args = bench::readArgs(argc, argv);
    const std::string dbPath =
        bench::valueOrExit(args.getString("db", "TUNED_configs.json"));
    const std::string jsonPath =
        bench::valueOrExit(args.getString("json", "BENCH_autotune.json"));
    bench::startBench(args);
    const bench::WallTimer wall;

    bench::experimentHeader(
        "autotune",
        "Per-layer design-space autotuning of ResNet-50 (batch 8) "
        "over the named variant zoo, vs the stock baselines");

    tune::TunedConfigDb db;
    {
        const tune::DbLoadStats loaded = db.loadOrRecover(dbPath);
        const char *note = loaded.fresh ? " (fresh)"
                           : loaded.recovered ? " (recovered)"
                                              : "";
        std::printf("TUNEDB %s | loaded=%lld | rejected=%lld%s\n",
                    dbPath.c_str(),
                    static_cast<long long>(loaded.loaded),
                    static_cast<long long>(loaded.rejected), note);
    }

    const models::ModelSpec model = models::resnet50(8);
    const std::vector<Campaign> campaigns = {
        {"autotune-tpu", "tpu-v2", tune::tpuKnobSpace()},
        {"autotune-gpu", "gpu-v100", tune::gpuKnobSpace()},
    };

    std::vector<sim::RunRecord> records;
    for (const Campaign &campaign : campaigns) {
        auto tuner = tune::Autotuner::create(campaign.space);
        if (!tuner.ok()) {
            std::fprintf(stderr, "%s\n",
                         tuner.status().toString().c_str());
            return 1;
        }
        tune::TuneOptions options;
        options.baseline = campaign.baseline;
        options.db = &db;
        auto tuned = tuner.value()->tuneModel(model, options);
        if (!tuned.ok()) {
            std::fprintf(stderr, "%s\n",
                         tuned.status().toString().c_str());
            return 1;
        }
        const tune::ModelTuneResult &result = tuned.value();

        Table t("ResNet-50 per-layer tuning, " + campaign.baseline
                + " baseline");
        t.setHeader({"layer", "variant", "base ms", "tuned ms",
                     "speedup", "evals", "src"});
        for (const auto &layer : result.layers) {
            t.addRow({layer.layerName, layer.variant,
                      cell("%.3f", layer.baselineSeconds * 1e3),
                      cell("%.3f", layer.tunedSeconds * 1e3),
                      cell("%.2fx", layer.speedup()),
                      cell("%lld",
                           static_cast<long long>(layer.evaluations)),
                      layer.fromDb ? "db" : "search"});
        }
        t.print();

        std::printf(
            "TUNE family=%s model=%s baseline=%s "
            "evaluations=%lld db_hits=%lld speedup=%.4f\n",
            sim::backendFamilyName(campaign.space.family),
            result.model.c_str(), result.baseline.c_str(),
            static_cast<long long>(result.evaluations),
            static_cast<long long>(result.dbHits), result.speedup());
        bench::summaryLine(campaign.id, "tuned speedup vs baseline",
                           1.0, result.speedup());

        const auto baseline = sim::makeAccelerator(campaign.baseline);
        records.push_back(
            sim::ModelRunner(*baseline).runModel(model));
        records.push_back(tunedRecord(model, result));
    }

    // An empty meta keeps the document a pure function of the sim:
    // the second (database-answered) run must be byte-identical.
    if (sim::writeRunRecords(jsonPath, records, sim::ReportMeta{}))
        std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                    records.size());
    if (db.saveFile(dbPath))
        std::printf("wrote %s (%zu entries)\n", dbPath.c_str(),
                    db.size());

    const StatGroup tuneStats = tune::Autotuner::cacheStats();
    std::string line = "CACHE autotuner";
    for (const auto &[name, value] : tuneStats.counters()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), " | %s=%.0f", name.c_str(),
                      value);
        line += buf;
    }
    std::printf("%s\n", line.c_str());
    bench::printWallClock("bench_autotune", wall);
    return 0;
}
